//! `offload`: closed loop, one caller, one job in flight. Whole-file
//! `gaussian-filter` jobs on a 1024×1024 f32 raster (4 MiB, 64 KiB
//! strips), each one `run_net_scheme` call, rotating TS, NAS, DAS. The
//! TS/NAS input stays round-robin; the DAS input is redistributed to
//! grouped-replicated once, during set-up.

use std::time::{Duration, Instant};

use das_core::StripingParams;
use das_kernels::{kernel_by_name, Raster};
use das_net::{encode_frame_opts, run_net_scheme, DasCluster, Message, NetRunReport, NetScheme};
use das_pfs::{DistributionInfo, Layout, LayoutPolicy, StripId};

use crate::bed::{self, KERNEL, SERVERS, SETUPS};
use crate::fleet::{thread_cpu_us, Fleet};
use crate::report::{Report, Spans};
use crate::stats::{median_f64, quantile, FleetMetrics};
use crate::Args;

/// Raster width and height, elements.
pub const SIDE: u64 = 1024;
/// Strip size, bytes.
pub const STRIP_SIZE: usize = 64 * 1024;
/// Client-call probes per kind in a traced run.
const CLIENT_PROBES: usize = 5;

const SCHEMES: [NetScheme; 3] = [NetScheme::Ts, NetScheme::Nas, NetScheme::Das];

/// A loaded offload fleet.
struct OffloadBed {
    fleet: Fleet,
    ctl: DasCluster,
    /// The round-robin input of TS and NAS jobs.
    rr: u32,
    /// The DAS input (grouped-replicated after set-up).
    das: u32,
}

/// What every job must produce and move.
struct Expect {
    fingerprint: u64,
    strips: u64,
    nas_fetches: u64,
    nas_bytes: u64,
    /// Wire bytes of forwarding one output strip to one replica holder
    /// (the `PutStrip` frame and its `PutStripOk`).
    forward_bytes: u64,
}

fn out_name(scheme: NetScheme) -> &'static str {
    match scheme {
        NetScheme::Ts => "offload.ts.out",
        NetScheme::Nas => "offload.nas.out",
        NetScheme::Das => "offload.das.out",
    }
}

/// One job: run `scheme` on its input and check what it reports.
fn job(
    bed: &mut OffloadBed,
    scheme: NetScheme,
    expect: &Expect,
) -> Result<(f64, NetRunReport), String> {
    let file = if scheme == NetScheme::Das {
        bed.das
    } else {
        bed.rr
    };
    let t = Instant::now();
    let r = run_net_scheme(&mut bed.ctl, scheme, file, out_name(scheme), KERNEL, SIDE)
        .map_err(|e| format!("{} job: {e}", scheme.name()))?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    check(&r, expect)?;
    Ok((ms, r))
}

/// The job's output and movement checks.
fn check(r: &NetRunReport, x: &Expect) -> Result<(), String> {
    let name = r.scheme.name();
    let fail = |what: String| Err(format!("{name} job: {what}"));
    if r.output_fingerprint != x.fingerprint {
        return fail(format!(
            "output fingerprint {:#x} != reference {:#x}",
            r.output_fingerprint, x.fingerprint
        ));
    }
    if !r.degradations.is_empty() {
        return fail(format!("degraded on a healthy fleet: {:?}", r.degradations));
    }
    let strips: u64 = r.exec.iter().map(|e| e.strips_computed).sum();
    let fetches: u64 = r.exec.iter().map(|e| e.dep_fetches).sum();
    let fetch_bytes: u64 = r.exec.iter().map(|e| e.dep_fetch_bytes).sum();
    match r.scheme {
        NetScheme::Ts if r.offloaded => fail("TS ran on the servers".into()),
        NetScheme::Nas | NetScheme::Das if !r.offloaded || strips != x.strips => fail(format!(
            "offloaded={} with {strips} strips computed, expected {}",
            r.offloaded, x.strips
        )),
        NetScheme::Nas if (fetches, fetch_bytes) != (x.nas_fetches, x.nas_bytes) => fail(format!(
            "{fetches} dependence fetches of {fetch_bytes} B, predicted {} of {} B",
            x.nas_fetches, x.nas_bytes
        )),
        NetScheme::Das if r.redistribution_bytes != 0 || fetches != 0 => fail(format!(
            "moved {} redistribution bytes and made {fetches} dependence fetches after set-up",
            r.redistribution_bytes
        )),
        // Server-to-server traffic left to a DAS job is its output
        // strips going to their replica holders, at most once each.
        NetScheme::Das
            if r.server_bytes > replica_forwards(r.layout, x.strips) * x.forward_bytes =>
        {
            fail(format!(
                "moved {} server bytes, more than forwarding its output to replicas once",
                r.server_bytes
            ))
        }
        _ => Ok(()),
    }
}

/// Output strips a job under `policy` stores at replica holders.
fn replica_forwards(policy: LayoutPolicy, strips: u64) -> u64 {
    let layout = Layout::new(policy, SERVERS as u32);
    (0..strips)
        .map(|t| layout.replicas(StripId(t)).len() as u64)
        .sum()
}

/// Boot, load both inputs, redistribute the DAS input with its first
/// job, and warm up with one job of each scheme.
fn setup(args: &Args, input: &[u8], expect: &Expect) -> Result<OffloadBed, String> {
    let fleet = Fleet::boot(&args.dasd, &args.out, SERVERS, bed::POOL)?;
    let mut ctl = fleet.connect()?;
    let net = |e: das_net::NetError| format!("set-up: {e}");
    let len = input.len() as u64;
    let rr = ctl
        .create_file(
            "offload.rr.in",
            len,
            STRIP_SIZE as u32,
            LayoutPolicy::RoundRobin,
        )
        .map_err(net)?;
    ctl.put_file(rr, input).map_err(net)?;
    let das = ctl
        .create_file(
            "offload.das.in",
            len,
            STRIP_SIZE as u32,
            LayoutPolicy::RoundRobin,
        )
        .map_err(net)?;
    ctl.put_file(das, input).map_err(net)?;
    let mut b = OffloadBed {
        fleet,
        ctl,
        rr,
        das,
    };
    let first = run_net_scheme(
        &mut b.ctl,
        NetScheme::Das,
        das,
        out_name(NetScheme::Das),
        KERNEL,
        SIDE,
    )
    .map_err(|e| format!("set-up DAS job: {e}"))?;
    if first.redistribution_bytes == 0
        || !first.layout.replicates()
        || first.output_fingerprint != expect.fingerprint
    {
        return Err(format!(
            "set-up DAS job did not redistribute to a replicated layout ({:?}, {} B) or computed a wrong output",
            first.layout, first.redistribution_bytes
        ));
    }
    for scheme in SCHEMES {
        job(&mut b, scheme, expect)?;
    }
    Ok(b)
}

/// Run the workload.
pub fn run(args: &Args, report: &mut Report, spans: &mut Spans) -> Result<(), String> {
    let raster = bed::raster(args.seed, 5, SIDE, SIDE);
    let input = raster.to_bytes();
    let expect = expectations(&raster);
    let mut setups = Vec::new();
    let mut b = None;
    for _ in 0..SETUPS {
        drop(b.take());
        let t = Instant::now();
        b = Some(setup(args, &input, &expect)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut b = b.expect("SETUPS > 0");

    // A traced run measures twice (untraced, then traced) in the time
    // of one run.
    let window_len = Duration::from_secs(args.seconds) / if args.trace { 2 } else { 1 };
    let window = |b: &mut OffloadBed, spans: Option<&mut Spans>| -> Result<Window, String> {
        let mut w = Window::default();
        let cpu0 = (thread_cpu_us(), b.fleet.cpu_us()?);
        let t0 = Instant::now();
        let mut spans = spans;
        let mut i = 0;
        while t0.elapsed() < window_len {
            let scheme = SCHEMES[i % 3];
            let start = t0.elapsed();
            let (ms, r) = job(b, scheme, &expect)?;
            if let Some(s) = spans.as_deref_mut() {
                s.push(format!(
                    "{{\"src\": \"job\", \"scheme\": \"{}\", \"start_us\": {}, \"dur_us\": {}}}",
                    scheme.name(),
                    start.as_micros(),
                    (ms * 1e3) as u64
                ));
            }
            w.ms[i % 3].push(ms);
            w.client_bytes[i % 3] = r.client_bytes;
            w.server_bytes[i % 3] = r.server_bytes;
            i += 1;
        }
        w.secs = t0.elapsed().as_secs_f64();
        w.gen_cpu_us = thread_cpu_us() - cpu0.0;
        w.fleet_cpu_us = b.fleet.cpu_us()? - cpu0.1;
        Ok(w)
    };

    let w = window(&mut b, None)?;
    let jobs = w.jobs();
    report.attempted = jobs as u64;
    report.failed = 0;
    for (k, scheme) in SCHEMES.iter().enumerate() {
        let name = scheme.name().to_lowercase();
        report.named(&format!("{name}_job_ms"), median_f64(&w.ms[k]), "ms");
        report.named(&format!("{name}_jobs"), w.ms[k].len() as f64, "count");
    }
    report.named("fail_frac", 0.0, "frac");
    let mut pooled: Vec<u64> = w.ms.iter().flatten().map(|ms| (ms * 1e3) as u64).collect();
    let p50 = quantile(&mut pooled, 0.50).unwrap_or(0) as f64;
    report.e2e.insert("p50_us", p50);
    // A few dozen jobs a run: p80 is the highest percentile with at
    // least ten jobs beyond it.
    report.named(
        "p80_ms",
        quantile(&mut pooled, 0.80).unwrap_or(0) as f64 / 1e3,
        "ms",
    );
    report
        .e2e
        .insert("light_p50_us", median_f64(&w.ms[0]) * 1e3);
    report
        .e2e
        .insert("heavy_p50_us", median_f64(&w.ms[1]) * 1e3);
    report.e2e.insert("ops_s", jobs as f64 / w.secs);
    report.e2e.insert("setup_s", median_f64(&setups));

    if !args.trace {
        return Ok(());
    }
    let before = FleetMetrics::from_dumps(
        &b.ctl
            .metrics_dump_all()
            .map_err(|e| format!("metrics dump: {e}"))?,
    );
    let t = window(&mut b, Some(spans))?;
    let d = FleetMetrics::from_dumps(
        &b.ctl
            .metrics_dump_all()
            .map_err(|e| format!("metrics dump: {e}"))?,
    )
    .since(&before);
    let mut summary = bed::Summary::of(&[]);
    let l = &mut report.layer;
    bed::engine_layers(l, &d, &mut summary);
    let nas_jobs = t.ms[1].len().max(1) as f64;
    l.insert(
        "peer.fetches_per_job".into(),
        d.total("dasd_dep_fetches_total") / nas_jobs,
    );
    l.insert(
        "peer.fetch_bytes_per_job".into(),
        d.total("dasd_dep_fetch_bytes_total") / nas_jobs,
    );
    l.insert(
        "fleet.cpu_us_per_op".into(),
        t.fleet_cpu_us as f64 / t.jobs().max(1) as f64,
    );
    l.insert(
        "gen.cpu_us_per_op".into(),
        t.gen_cpu_us as f64 / t.jobs().max(1) as f64,
    );
    let mut traced: Vec<u64> = t.ms.iter().flatten().map(|ms| (ms * 1e3) as u64).collect();
    let traced_p50 = quantile(&mut traced, 0.50).unwrap_or(0) as f64;
    l.insert(
        "trace.overhead_frac".into(),
        (traced_p50 - p50) / p50.max(1.0),
    );
    l.insert("offload.client_bytes.ts".into(), t.client_bytes[0] as f64);
    l.insert("offload.client_bytes.nas".into(), t.client_bytes[1] as f64);
    l.insert("offload.client_bytes.das".into(), t.client_bytes[2] as f64);
    l.insert("offload.server_bytes.nas".into(), t.server_bytes[1] as f64);
    l.insert("offload.server_bytes.das".into(), t.server_bytes[2] as f64);
    bed::daemon_spans(&mut b.ctl, &[], spans)?;
    client_probes(&mut b, report, spans)?;
    Ok(())
}

/// What a closed-loop window measured.
#[derive(Default)]
struct Window {
    /// Job times by scheme (TS, NAS, DAS), ms.
    ms: [Vec<f64>; 3],
    /// Client↔server bytes of the last job of each scheme.
    client_bytes: [u64; 3],
    /// Server↔server bytes of the last job of each scheme.
    server_bytes: [u64; 3],
    secs: f64,
    gen_cpu_us: u64,
    fleet_cpu_us: u64,
}

impl Window {
    fn jobs(&self) -> usize {
        self.ms.iter().map(Vec::len).sum()
    }
}

/// The reference output and the movement every job must show.
fn expectations(raster: &Raster) -> Expect {
    let kernel = kernel_by_name(KERNEL).expect("kernel is registered");
    let len = raster.byte_len();
    let dist = DistributionInfo {
        strip_size: STRIP_SIZE,
        servers: SERVERS as u32,
        policy: LayoutPolicy::RoundRobin,
        file_len: len,
    };
    let nas = StripingParams::from_distribution(&dist, 4)
        .predict_nas_fetches(&kernel.dependence_offsets(SIDE), len);
    let put = Message::PutStrip {
        file: 0,
        strip: 0,
        payload: vec![0; STRIP_SIZE],
    };
    Expect {
        fingerprint: kernel.apply(raster).fingerprint(),
        strips: len.div_ceil(STRIP_SIZE as u64),
        nas_fetches: nas.fetches,
        nas_bytes: nas.bytes,
        forward_bytes: (encode_frame_opts(&put, Some(1), None).len()
            + encode_frame_opts(&Message::PutStripOk, Some(1), None).len())
            as u64,
    }
}

/// Time the client's public calls a job is made of: the TS gather
/// (`read_file`) and scatter (`put_file`), and the NAS and DAS
/// `execute`, which serves the daemons one after another.
fn client_probes(b: &mut OffloadBed, report: &mut Report, spans: &mut Spans) -> Result<(), String> {
    let net = |e: das_net::NetError| format!("client probe: {e}");
    let time = |spans: &mut Spans,
                name: &str,
                f: &mut dyn FnMut() -> Result<(), String>|
     -> Result<f64, String> {
        let mut ms = Vec::new();
        for _ in 0..CLIENT_PROBES {
            let t = Instant::now();
            f()?;
            ms.push(t.elapsed().as_secs_f64() * 1e3);
            spans.push(format!(
                "{{\"src\": \"client\", \"call\": \"{name}\", \"dur_us\": {}}}",
                (ms[ms.len() - 1] * 1e3) as u64
            ));
        }
        Ok(median_f64(&ms))
    };
    let (rr, das) = (b.rr, b.das);
    let data = b.ctl.read_file(rr).map_err(net)?;
    let scratch = b
        .ctl
        .create_file(
            "offload.scatter",
            data.len() as u64,
            STRIP_SIZE as u32,
            LayoutPolicy::RoundRobin,
        )
        .map_err(net)?;
    let nas_out = b.ctl.lookup(out_name(NetScheme::Nas)).map_err(net)?.0;
    let das_out = b.ctl.lookup(out_name(NetScheme::Das)).map_err(net)?.0;
    let ctl = &mut b.ctl;
    let gather = time(spans, "read_file", &mut || {
        ctl.read_file(rr).map(drop).map_err(net)
    })?;
    let scatter = time(spans, "put_file", &mut || {
        ctl.put_file(scratch, &data).map_err(net)
    })?;
    let exec = |ctl: &mut DasCluster, file, out, successive, force| -> Result<(), String> {
        match ctl
            .execute(file, out, KERNEL, SIDE, successive, force)
            .map_err(net)?
        {
            Ok(_) => Ok(()),
            Err(reason) => Err(format!("client probe: execute rejected: {reason}")),
        }
    };
    let nas = time(spans, "execute.nas", &mut || {
        exec(ctl, rr, nas_out, false, true)
    })?;
    let das_ms = time(spans, "execute.das", &mut || {
        exec(ctl, das, das_out, true, false)
    })?;
    let l = &mut report.layer;
    l.insert("client.gather_ms".into(), gather);
    l.insert("client.scatter_ms".into(), scatter);
    l.insert("client.execute_ms.nas".into(), nas);
    l.insert("client.execute_ms.das".into(), das_ms);
    Ok(())
}
