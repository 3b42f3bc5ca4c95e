//! `mixed`: open-loop Poisson 70:25:5 get:put:exec, an ascending
//! ladder of fixed rates, stopping at the first step that fails.
//!
//! The only workload where execs and strip I/O compete for the worker
//! pools of both daemons. The latency metrics come from the first
//! (reference) step; the knee is the highest passing rate.

use das_kernels::kernel_by_name;

use crate::bed::{self, engine_layers, Bed, Mix, Pass, Summary, EXEC_ROWS, EXEC_WIDTH, KERNEL};
use crate::gen::Rng;
use crate::report::{Report, Spans};
use crate::Args;

/// Get:put:exec mix.
pub const MIX: Mix = Mix {
    get: 70,
    put: 25,
    exec: 5,
};
/// Offered rate of the reference step, ops/s.
pub const REF_RATE: f64 = 400.0;
/// The ladder above the reference step, ops/s: 1200 × 1.15^k, up to
/// past where the fleet is out of CPU on an idle 2-core machine.
pub const LADDER: &[f64] = &[
    1200.0, 1380.0, 1587.0, 1825.0, 2099.0, 2414.0, 2776.0, 3192.0, 3671.0, 4221.0, 4855.0, 5583.0,
    6420.0, 7383.0,
];
/// Pass rule: get p99 (failed ops counting as over) at most this, µs.
pub const GET_P99_LIMIT_US: u64 = 25_000;
/// Pass rule: failed plus refused ops at most this share of attempted.
pub const MAX_FAIL_FRAC: f64 = 0.01;
/// Pass rule: every op answered within this long after the step's
/// last arrival, µs.
pub const GRACE_US: u64 = 1_000_000;
/// Share of `--seconds` the reference step lasts.
const REF_SHARE: f64 = 0.3;
/// Share of `--seconds` each ladder step lasts: the whole ladder fits
/// in the rest of the run.
const STEP_SHARE: f64 = 0.05;

/// Whether a step passed, and why not.
fn verdict(s: &mut Summary) -> Result<(), String> {
    let get_p99 = s.class("get").p99_with_failures();
    let fail_frac = s.pooled.failed as f64 / s.pooled.attempted.max(1) as f64;
    if s.pooled.unfinished > 0 {
        return Err(format!(
            "{} ops unanswered {} ms after the last arrival",
            s.pooled.unfinished,
            GRACE_US / 1000
        ));
    }
    if fail_frac > MAX_FAIL_FRAC {
        return Err(format!(
            "{:.2}% of ops failed or were refused",
            fail_frac * 100.0
        ));
    }
    if get_p99 > GET_P99_LIMIT_US {
        return Err(format!(
            "get p99 {get_p99} us over the {GET_P99_LIMIT_US} us limit"
        ));
    }
    Ok(())
}

/// One step's figures, as a line of the run's time series.
fn step_line(rate: f64, s: &mut Summary) -> String {
    let get_p50 = s.class("get").q(0.50);
    let get_p99 = match s.class("get").p99_with_failures() {
        u64::MAX => "over any limit".to_string(),
        us => format!("{us} us"),
    };
    let exec_p50 = s.class("exec").q(0.50);
    let late_p90 = s.late(0.90);
    format!(
        "step {rate} ops/s: get p50 {get_p50} us, get p99 {get_p99}, exec p50 {exec_p50} us, {}/{} failed, send lateness p90 {late_p90} us",
        s.pooled.failed, s.pooled.attempted
    )
}

/// Run one step at `rate` for `len_us`.
fn step(
    args: &Args,
    bed: &mut Bed,
    index: u64,
    rate: f64,
    len_us: u64,
    tag: u64,
    read_end: bool,
) -> Result<(Pass, Summary), String> {
    let ops = bed::schedule(&mut Rng::new(args.seed, 16 + index), rate, len_us, MIX);
    let pass = bed::run_pass(bed, &ops, tag | index << 32, len_us, GRACE_US, read_end)?;
    let s = Summary::of(&pass.records);
    Ok((pass, s))
}

/// Run the workload.
pub fn run(args: &Args, report: &mut Report, spans: &mut Spans) -> Result<(), String> {
    let content = bed::strip_content(args.seed);
    let exec_raster = bed::raster(args.seed, 4, EXEC_WIDTH, EXEC_ROWS);
    let (mut bed, setup_s) =
        bed::setup_repeated(|| bed::setup(args, &content, Some(&exec_raster), MIX, REF_RATE))?;
    let secs = args.seconds as f64;
    let ref_us = (secs * REF_SHARE * 1e6) as u64;
    let step_us = (secs * STEP_SHARE * 1e6) as u64;

    // Reference step: must pass; its latencies are the workload's.
    let (_, mut r) = step(args, &mut bed, 0, REF_RATE, ref_us, 0xA0 << 56, false)?;
    report.notes.push(step_line(REF_RATE, &mut r));
    verdict(&mut r)
        .map_err(|e| format!("mixed: the reference step at {REF_RATE} ops/s failed: {e}"))?;
    r.check_lateness("mixed reference step")?;
    check_exec_output(&bed, &exec_raster)?;
    let p50 = r.pooled.q(0.50);
    report.e2e.insert("p50_us", p50);
    report.e2e.insert("light_p50_us", r.class("get").q(0.50));
    report.e2e.insert("heavy_p50_us", r.class("exec").q(0.50));
    report.e2e.insert("setup_s", setup_s);
    for class in ["get", "put"] {
        let c = r.class(class);
        report.named(&format!("{class}_p50_us"), c.q(0.50), "us");
        report.named(&format!("{class}_p99_us"), c.q(0.99), "us");
        report.named(&format!("{class}_samples"), c.ok_us.len() as f64, "count");
    }
    let e = r.class("exec");
    report.named("exec_p50_ms", e.q(0.50) / 1000.0, "ms");
    report.named("exec_samples", e.ok_us.len() as f64, "count");

    if args.trace {
        let before = bed::fleet_metrics(&bed.fleet)?;
        let (pass, mut t) = step(args, &mut bed, 0, REF_RATE, ref_us, 0xA1 << 56, false)?;
        verdict(&mut t).map_err(|e| format!("mixed: the traced reference step failed: {e}"))?;
        let d = bed::fleet_metrics(&bed.fleet)?.since(&before);
        let l = &mut report.layer;
        engine_layers(l, &d, &mut t);
        let execs = t.class("exec").ok_us.len().max(1) as f64;
        let completed = (t.pooled.attempted - t.pooled.failed).max(1) as f64;
        l.insert(
            "peer.fetches_per_job".into(),
            d.total("dasd_dep_fetches_total") / execs,
        );
        l.insert(
            "peer.fetch_bytes_per_job".into(),
            d.total("dasd_dep_fetch_bytes_total") / execs,
        );
        l.insert(
            "fleet.cpu_us_per_op".into(),
            pass.fleet_cpu_us as f64 / completed,
        );
        l.insert(
            "gen.cpu_us_per_op".into(),
            pass.gen_cpu_us as f64 / t.pooled.attempted.max(1) as f64,
        );
        l.insert("gen.late_p99_us".into(), t.late(0.99) as f64);
        l.insert(
            "trace.overhead_frac".into(),
            (t.pooled.q(0.50) - p50) / p50.max(1.0),
        );
        bed::collect_spans(&bed.fleet, &pass, spans)?;
    }

    // The ladder: each step of fixed length, stopping at the first
    // that fails. A failing step ends at its last arrival plus the
    // grace period at the latest; the fleet is then killed, not
    // drained.
    let ref_ops_s = (r.pooled.attempted - r.pooled.failed) as f64 / (ref_us as f64 / 1e6);
    let mut knee = REF_RATE;
    let mut attempted = r.pooled.attempted;
    let mut failed = r.pooled.failed;
    let mut probe_fail_frac = 0.0;
    let mut depth_peak = 0.0f64;
    let mut shed_end = 0.0f64;
    let mut probe = None;
    for (i, &rate) in LADDER.iter().enumerate() {
        let (pass, mut s) = step(
            args,
            &mut bed,
            1 + i as u64,
            rate,
            step_us,
            0xA2 << 56,
            args.trace,
        )?;
        match &pass.end {
            Some(end) => {
                depth_peak = depth_peak.max(end.total("dasd_worker_queue_depth"));
                shed_end = shed_end.max(end.total("dasd_requests_shed_total"));
            }
            None if args.trace => report.notes.push(format!(
                "step {rate} ops/s: metrics unreadable at its last arrival"
            )),
            None => {}
        }
        report.notes.push(step_line(rate, &mut s));
        match verdict(&mut s) {
            Ok(()) => {
                s.check_lateness(&format!("mixed step at {rate} ops/s"))?;
                attempted += s.pooled.attempted;
                failed += s.pooled.failed;
                knee = rate;
            }
            Err(why) => {
                probe_fail_frac = s.pooled.failed as f64 / s.pooled.attempted.max(1) as f64;
                probe = Some(format!("first failing step: {rate} ops/s ({why})"));
                break;
            }
        }
    }
    drop(bed);
    report
        .notes
        .push(probe.unwrap_or_else(|| format!("every ladder step passed up to {knee} ops/s")));
    report.attempted = attempted;
    report.failed = failed;
    let fail_frac = failed as f64 / attempted.max(1) as f64;
    report.named("knee_ops_s", knee, "1/s");
    report.named("fail_frac", fail_frac, "frac");
    report.named("mixed.probe_fail_frac", probe_fail_frac, "frac");
    report.e2e.insert("ops_s", ref_ops_s);
    if args.trace {
        // Both read once at each ladder step's last arrival; the shed
        // total is cumulative since the fleet booted.
        let l = &mut report.layer;
        l.insert("mixed.knee_ops_s".into(), knee);
        l.insert("engine.queue_depth_peak".into(), depth_peak);
        l.insert("engine.shed".into(), shed_end);
        l.insert("fail_frac".into(), fail_frac);
        l.insert("mixed.probe_fail_frac".into(), probe_fail_frac);
    }
    Ok(())
}

/// The execs' output file must equal the in-process reference: every
/// strip was written by the daemon owning it, with the same bytes each
/// time.
fn check_exec_output(bed: &Bed, raster: &das_kernels::Raster) -> Result<(), String> {
    let x = bed.target.exec.as_ref().expect("mixed has an exec target");
    let mut ctl = bed.fleet.connect()?;
    let out = ctl
        .read_file(x.out_file)
        .map_err(|e| format!("reading exec output: {e}"))?;
    let got = das_kernels::Raster::from_bytes(EXEC_WIDTH, EXEC_ROWS, &out).fingerprint();
    let want = kernel_by_name(KERNEL)
        .expect("kernel is registered")
        .apply(raster)
        .fingerprint();
    if got != want {
        return Err(format!(
            "exec output fingerprint {got:#x} != reference {want:#x}"
        ));
    }
    Ok(())
}
