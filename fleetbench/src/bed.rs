//! The open-loop test bed shared by `strip-io` and `mixed`: a fresh
//! fleet loaded with the strip file (and, for `mixed`, the exec
//! raster), one generator connection per daemon, and the passes that
//! drive it.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use das_core::StripingParams;
use das_kernels::{kernel_by_name, Raster};
use das_net::DasCluster;
use das_pfs::{DistributionInfo, Layout, LayoutPolicy, ServerId, StripId};

use crate::fleet::Fleet;
use crate::gen::{
    poisson_arrivals, Conn, ExecExpect, ExecTarget, Kind, Op, Record, Rng, Status, Target,
};
use crate::report::{daemon_span_line, Spans};
use crate::stats::{mean, quantile, FleetMetrics};
use crate::Args;

/// Daemons in every fleet.
pub const SERVERS: usize = 2;
/// Worker-pool threads per daemon.
pub const POOL: usize = 8;
/// Strip size of the strip file, bytes.
pub const STRIP_SIZE: usize = 4096;
/// Length of the strip file, bytes (4096 strips, round-robin).
pub const STRIP_FILE_LEN: usize = 16 << 20;
/// Width of the exec raster, elements (one row per 4 KiB strip).
pub const EXEC_WIDTH: u64 = 1024;
/// Rows (= strips) of the exec raster.
pub const EXEC_ROWS: u64 = 32;
/// The kernel every exec and offload job runs.
pub const KERNEL: &str = "gaussian-filter";
/// Length of the warm-up pass that ends each set-up, µs.
pub const WARM_US: u64 = 300_000;
/// Set-ups per run; `setup_s` is their median and the last one is
/// measured.
pub const SETUPS: usize = 3;
/// A run whose sends went out later than this at p90 is invalid: the
/// generator, not the fleet, set its numbers. (p90, not p99: on a
/// virtual machine a thread waking from an idle core is several ms late
/// about once in a hundred wake-ups however idle the generator is.)
pub const LATE_P90_BOUND_US: u64 = 5_000;

/// Operation mix, in parts.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Gets.
    pub get: u64,
    /// Puts.
    pub put: u64,
    /// Execs.
    pub exec: u64,
}

/// A loaded fleet and its generator connections.
pub struct Bed {
    /// The daemons.
    pub fleet: Fleet,
    /// Generator connections, by server id.
    pub conns: Vec<Conn>,
    /// Files and expected answers.
    pub target: Target,
}

/// Deterministic strip-file content for `seed`.
pub fn strip_content(seed: u64) -> Arc<Vec<u8>> {
    let mut rng = Rng::new(seed, 1);
    let mut out = Vec::with_capacity(STRIP_FILE_LEN);
    while out.len() < STRIP_FILE_LEN {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    Arc::new(out)
}

/// A deterministic, finite test raster for `seed`.
pub fn raster(seed: u64, stream: u64, width: u64, height: u64) -> Raster {
    let mut rng = Rng::new(seed, stream);
    Raster::from_fn(width, height, |_, _| {
        (rng.next_u64() >> 40) as f32 / 16_384.0
    })
}

/// What each daemon's forced `Execute` over the exec raster must
/// report under the round-robin layout: its primary strips, and the
/// dependence fetches `StripingParams::nas_fetch_plan` predicts for
/// them. The per-server strip counts add up to the raster's.
pub fn exec_expectations() -> Vec<ExecExpect> {
    let len = EXEC_ROWS * EXEC_WIDTH * 4;
    let dist = DistributionInfo {
        strip_size: STRIP_SIZE,
        servers: SERVERS as u32,
        policy: LayoutPolicy::RoundRobin,
        file_len: len,
    };
    let layout = Layout::new(LayoutPolicy::RoundRobin, SERVERS as u32);
    let offsets = kernel_by_name(KERNEL)
        .expect("kernel is registered")
        .dependence_offsets(EXEC_WIDTH);
    let plan = StripingParams::from_distribution(&dist, 4).nas_fetch_plan(&offsets, len);
    let strips = len / STRIP_SIZE as u64;
    let out: Vec<ExecExpect> = (0..SERVERS as u32)
        .map(|s| {
            let mine: Vec<_> = plan
                .iter()
                .filter(|f| layout.primary(StripId(f.t)) == ServerId(s))
                .collect();
            ExecExpect {
                strips: layout.primary_strips(ServerId(s), strips).len() as u64,
                fetches: mine.len() as u64,
                bytes: mine.iter().map(|f| f.len_bytes).sum(),
            }
        })
        .collect();
    assert_eq!(
        out.iter().map(|e| e.strips).sum::<u64>(),
        strips,
        "every strip has one primary"
    );
    out
}

/// Boot a fleet, load it, open the generator connections and warm up
/// at `warm_rate` with `mix`.
pub fn setup(
    args: &Args,
    content: &Arc<Vec<u8>>,
    exec_raster: Option<&Raster>,
    mix: Mix,
    warm_rate: f64,
) -> Result<Bed, String> {
    let fleet = Fleet::boot(&args.dasd, &args.out, SERVERS, POOL)?;
    let mut ctl = fleet.connect()?;
    let net = |e: das_net::NetError| format!("set-up: {e}");
    let strip_file = ctl
        .create_file(
            "strip.dat",
            STRIP_FILE_LEN as u64,
            STRIP_SIZE as u32,
            LayoutPolicy::RoundRobin,
        )
        .map_err(net)?;
    ctl.put_file(strip_file, content).map_err(net)?;
    let exec = match exec_raster {
        Some(r) => {
            let len = r.byte_len();
            let file = ctl
                .create_file("exec.in", len, STRIP_SIZE as u32, LayoutPolicy::RoundRobin)
                .map_err(net)?;
            ctl.put_file(file, &r.to_bytes()).map_err(net)?;
            let out_file = ctl
                .create_file("exec.out", len, STRIP_SIZE as u32, LayoutPolicy::RoundRobin)
                .map_err(net)?;
            Some(ExecTarget {
                file,
                out_file,
                img_width: EXEC_WIDTH,
                kernel: KERNEL,
                expect: exec_expectations(),
            })
        }
        None => None,
    };
    drop(ctl);
    let conns = fleet
        .addrs
        .iter()
        .map(|a| Conn::open(a))
        .collect::<Result<Vec<_>, _>>()?;
    for (i, c) in conns.iter().enumerate() {
        if c.server as usize != i {
            return Err(format!(
                "daemon at {} reports id {}, expected {i}",
                fleet.addrs[i], c.server
            ));
        }
    }
    let mut bed = Bed {
        fleet,
        conns,
        target: Target {
            strip_file,
            strip_size: STRIP_SIZE,
            content: Arc::clone(content),
            exec,
        },
    };
    let ops = schedule(&mut Rng::new(args.seed, 2), warm_rate, WARM_US, mix);
    let warm = run_pass(&mut bed, &ops, 0xB4 << 56, WARM_US, 2_000_000, false)?;
    if warm.records.iter().any(|r| r.status != Status::Ok) {
        return Err("warm-up: an operation failed on an idle fleet".into());
    }
    Ok(bed)
}

/// Run [`setup`] [`SETUPS`] times (each on a fresh fleet), keep the
/// last bed, and return it with the median set-up time.
pub fn setup_repeated(mut once: impl FnMut() -> Result<Bed, String>) -> Result<(Bed, f64), String> {
    let mut times = Vec::new();
    let mut bed = None;
    for _ in 0..SETUPS {
        drop(bed.take());
        let t = Instant::now();
        bed = Some(once()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((bed.expect("SETUPS > 0"), crate::stats::median_f64(&times)))
}

/// A Poisson schedule of `mix` at `rate` over `len_us`, split by the
/// daemon each op goes to: a strip's primary holder for gets and puts,
/// a uniformly chosen daemon for execs.
pub fn schedule(rng: &mut Rng, rate: f64, len_us: u64, mix: Mix) -> Vec<Vec<Op>> {
    let strips = (STRIP_FILE_LEN / STRIP_SIZE) as u64;
    let mut per_server = vec![Vec::new(); SERVERS];
    for due_us in poisson_arrivals(rng, rate, len_us) {
        let roll = rng.below(mix.get + mix.put + mix.exec);
        let kind = if roll < mix.get {
            Kind::Get
        } else if roll < mix.get + mix.put {
            Kind::Put
        } else {
            Kind::Exec
        };
        let strip = rng.below(strips);
        let server = match kind {
            Kind::Exec => rng.below(SERVERS as u64),
            _ => strip % SERVERS as u64,
        };
        per_server[server as usize].push(Op {
            due_us,
            kind,
            strip,
        });
    }
    per_server
}

/// One open-loop pass over a bed.
pub struct Pass {
    /// Every op's record, all daemons.
    pub records: Vec<Record>,
    /// Generator CPU, µs.
    pub gen_cpu_us: u64,
    /// Daemon CPU, µs.
    pub fleet_cpu_us: u64,
    /// The fleet's metrics at the last arrival, when asked for and
    /// answered in time.
    pub end: Option<FleetMetrics>,
    /// Length of the arrival window, µs.
    pub len_us: u64,
}

/// Drive `per_server` through the bed's connections, one thread per
/// connection, and stop at `len_us + grace_us` at the latest. Fails on
/// any output-check failure. With `read_end`, the fleet's metrics are
/// read once at the last arrival, over a control connection of their
/// own; a fleet that cannot answer within the grace period leaves
/// [`Pass::end`] empty.
pub fn run_pass(
    bed: &mut Bed,
    per_server: &[Vec<Op>],
    tag: u64,
    len_us: u64,
    grace_us: u64,
    read_end: bool,
) -> Result<Pass, String> {
    let mut ctl = if read_end {
        Some(bed.fleet.connect_within(Duration::from_micros(grace_us))?)
    } else {
        None
    };
    let cpu0 = bed.fleet.cpu_us()?;
    // A moment's lead, so both threads are running before the first op
    // is due.
    let t0 = Instant::now() + Duration::from_millis(5);
    let target = &bed.target;
    let (results, end): (Vec<_>, _) = std::thread::scope(|s| {
        let handles: Vec<_> = bed
            .conns
            .iter_mut()
            .zip(per_server)
            .enumerate()
            .map(|(i, (conn, ops))| {
                let tag = tag | (i as u64) << 40;
                s.spawn(move || conn.run_step(ops, tag, t0, len_us + grace_us, target))
            })
            .collect();
        let end = ctl.as_mut().and_then(|c| {
            std::thread::sleep(
                (t0 + Duration::from_micros(len_us)).saturating_duration_since(Instant::now()),
            );
            c.metrics_dump_all()
                .ok()
                .map(|d| FleetMetrics::from_dumps(&d))
        });
        (
            handles
                .into_iter()
                .map(|h| h.join().expect("generator thread panicked"))
                .collect(),
            end,
        )
    });
    let fleet_cpu_us = bed.fleet.cpu_us()?.saturating_sub(cpu0);
    let mut pass = Pass {
        records: Vec::new(),
        gen_cpu_us: 0,
        fleet_cpu_us,
        end,
        len_us,
    };
    for r in results {
        if let Some(e) = r.check_errors.first() {
            return Err(format!(
                "output check failed ({} failures): {e}",
                r.check_errors.len()
            ));
        }
        pass.records.extend(r.records);
        pass.gen_cpu_us += r.cpu_us;
    }
    Ok(pass)
}

/// Per-class outcome of a pass.
#[derive(Debug, Default)]
pub struct ClassStats {
    /// Ops scheduled.
    pub attempted: u64,
    /// Ops failed, refused or unanswered.
    pub failed: u64,
    /// Ops refused by admission control.
    pub refused: u64,
    /// Ops unanswered when the pass ended.
    pub unfinished: u64,
    /// Due-to-reply latency of each successful op, µs.
    pub ok_us: Vec<u64>,
    /// Send-to-reply time of each successful op, µs.
    pub service_us: Vec<u64>,
}

impl ClassStats {
    /// Quantile of successful latencies (0 with no samples).
    pub fn q(&mut self, q: f64) -> f64 {
        quantile(&mut self.ok_us, q).unwrap_or(0) as f64
    }

    /// p99 with every failed op counted as missing any limit.
    pub fn p99_with_failures(&mut self) -> u64 {
        let mut all = self.ok_us.clone();
        all.extend(std::iter::repeat_n(u64::MAX, self.failed as usize));
        quantile(&mut all, 0.99).unwrap_or(0)
    }
}

/// Records grouped by class, plus the pooled view.
pub struct Summary {
    /// By class.
    pub classes: BTreeMap<&'static str, ClassStats>,
    /// All classes together.
    pub pooled: ClassStats,
    /// Send lateness of every op that went out, µs.
    pub late_us: Vec<u64>,
}

impl Summary {
    /// Summarise a pass's records.
    pub fn of(records: &[Record]) -> Summary {
        let mut classes: BTreeMap<&'static str, ClassStats> = BTreeMap::new();
        let mut pooled = ClassStats::default();
        let mut late_us = Vec::new();
        for r in records {
            for c in [classes.entry(r.op.kind.name()).or_default(), &mut pooled] {
                c.attempted += 1;
                match r.status {
                    Status::Ok => {
                        c.ok_us.push(r.latency_us());
                        c.service_us.push(r.service_us());
                    }
                    Status::Refused => {
                        c.failed += 1;
                        c.refused += 1;
                    }
                    Status::Failed => c.failed += 1,
                    Status::Pending => {
                        c.failed += 1;
                        c.unfinished += 1;
                    }
                }
            }
            if r.sent_us != u64::MAX {
                late_us.push(r.late_us());
            }
        }
        Summary {
            classes,
            pooled,
            late_us,
        }
    }

    /// The stats of `class` (empty if it never ran).
    pub fn class(&mut self, class: &'static str) -> &mut ClassStats {
        self.classes.entry(class).or_default()
    }

    /// A quantile of send lateness, µs.
    pub fn late(&mut self, q: f64) -> u64 {
        quantile(&mut self.late_us, q).unwrap_or(0)
    }

    /// Fail the run when the generator fell behind its schedule.
    pub fn check_lateness(&mut self, what: &str) -> Result<(), String> {
        let late = self.late(0.90);
        if late > LATE_P90_BOUND_US {
            return Err(format!(
                "{what}: generator sends ran {late} us late at p90 (bound {LATE_P90_BOUND_US} us); run invalid"
            ));
        }
        Ok(())
    }
}

/// The fleet's metrics now, merged across daemons.
pub fn fleet_metrics(fleet: &Fleet) -> Result<FleetMetrics, String> {
    let dumps = fleet
        .connect()?
        .metrics_dump_all()
        .map_err(|e| format!("metrics dump: {e}"))?;
    Ok(FleetMetrics::from_dumps(&dumps))
}

/// Per-layer metrics of the das-net engine, peer links, store, kernel
/// and assembly over one window (`d`), with the client's send-to-reply
/// means (by class) for the unaccounted remainder.
pub fn engine_layers(layer: &mut BTreeMap<String, f64>, d: &FleetMetrics, summary: &mut Summary) {
    for op in ["get", "put", "exec"] {
        let stages: f64 = ["decode", "queue_wait", "dispatch", "reply_write"]
            .iter()
            .map(|s| d.cell(s, op).mean_us())
            .sum();
        for stage in ["queue_wait", "dispatch", "reply_write"] {
            layer.insert(
                format!("engine.{stage}_us.{op}"),
                d.cell(stage, op).mean_us(),
            );
        }
        let client = summary.class(op);
        if !client.service_us.is_empty() {
            layer.insert(
                format!("engine.unaccounted_us.{op}"),
                mean(&client.service_us) - stages,
            );
        }
    }
    layer.insert(
        "engine.decode_us.put".into(),
        d.cell("decode", "put").mean_us(),
    );
    layer.insert("engine.shed".into(), d.total("dasd_requests_shed_total"));
    layer.insert(
        "peer.fetch_us".into(),
        d.cell("peer_fetch", "exec").mean_us(),
    );
    layer.insert("peer.retries".into(), d.total("dasd_peer_retries_total"));
    layer.insert(
        "store.local_read_us.get".into(),
        d.cell("local_read", "get").mean_us(),
    );
    layer.insert(
        "store.local_read_us.exec".into(),
        d.cell("local_read", "exec").mean_us(),
    );
    layer.insert(
        "assembly.assemble_us.exec".into(),
        d.cell("assemble", "exec").mean_us(),
    );
    layer.insert(
        "kernel.kernel_us.exec".into(),
        d.cell("kernel", "exec").mean_us(),
    );
}

/// Keep a traced pass's generator spans, and pull the daemons' spans
/// of a sample of its requests plus their slow logs, so a waterfall
/// runs from each due time down to each daemon stage.
pub fn collect_spans(fleet: &Fleet, pass: &Pass, spans: &mut Spans) -> Result<(), String> {
    let mut sample: Vec<(u64, u64, u64)> = Vec::new();
    for r in &pass.records {
        spans.push(format!(
            "{{\"src\": \"gen\", \"request\": \"{:#x}\", \"op\": \"{}\", \"strip\": {}, \"due_us\": {}, \"sent_us\": {}, \"reply_us\": {}, \"status\": \"{:?}\"}}",
            r.id,
            r.op.kind.name(),
            r.op.strip,
            r.op.due_us,
            r.sent_us as i64,
            r.done_us as i64,
            r.status
        ));
        if r.status == Status::Ok {
            sample.push((r.op.due_us, r.latency_us(), r.id));
        }
    }
    // The daemons' flight recorders keep only their latest spans: pick
    // from the pass's last requests, the five slowest and five more.
    sample.sort_unstable_by_key(|&(due, _, _)| due);
    let mut recent = sample.split_off(sample.len().saturating_sub(500));
    let spread: Vec<u64> = recent
        .iter()
        .step_by((recent.len() / 5).max(1))
        .map(|&(_, _, id)| id)
        .collect();
    recent.sort_unstable_by_key(|&(_, latency, _)| latency);
    let picks: Vec<u64> = recent
        .iter()
        .rev()
        .take(5)
        .map(|&(_, _, id)| id)
        .chain(spread)
        .collect();
    daemon_spans(&mut fleet.connect()?, &picks, spans)
}

/// Pull the daemons' spans of `ids` and their slow logs, plus the full
/// traces of the three slowest logged requests.
pub fn daemon_spans(ctl: &mut DasCluster, ids: &[u64], spans: &mut Spans) -> Result<(), String> {
    let mut slow: Vec<(u64, u64)> = Vec::new();
    for (_, recs) in ctl.slow_log_all(3).map_err(|e| format!("slow log: {e}"))? {
        for s in &recs {
            spans.push(daemon_span_line("dasd-slow", s));
            if s.parent == 0 {
                slow.push((s.dur_us, s.trace));
            }
        }
    }
    slow.sort_unstable();
    let slowest = slow.iter().rev().take(3).map(|&(_, t)| t);
    for id in ids.iter().copied().chain(slowest) {
        for (_, recs) in ctl
            .trace_dump_all(id)
            .map_err(|e| format!("trace dump: {e}"))?
        {
            for s in &recs {
                spans.push(daemon_span_line("dasd", s));
            }
        }
    }
    Ok(())
}
