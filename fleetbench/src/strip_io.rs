//! `strip-io`: open-loop Poisson 75:25 get:put of uniformly random
//! 4 KiB strips of a 16 MiB round-robin file, at one fixed rate.
//!
//! The per-request path at the smallest message size: codec, shard
//! loop, fair-queue handoff, reply wake, metric lookups and the strip
//! store. Kernels, peer links, assembly and das-core stay idle.

use crate::bed::{self, engine_layers, Mix, Summary};
use crate::gen::Rng;
use crate::report::{Report, Spans};
use crate::Args;

/// The fixed offered rate, ops/s: about half of the strip-io capacity
/// measured on the two-daemon fleet this benchmark boots.
pub const RATE: f64 = 15_000.0;
/// Get:put mix.
pub const MIX: Mix = Mix {
    get: 75,
    put: 25,
    exec: 0,
};
/// How long after the last arrival a reply may still come, µs.
const GRACE_US: u64 = 2_000_000;

/// Run the workload.
pub fn run(args: &Args, report: &mut Report, spans: &mut Spans) -> Result<(), String> {
    let content = bed::strip_content(args.seed);
    let (mut bed, setup_s) = bed::setup_repeated(|| bed::setup(args, &content, None, MIX, RATE))?;
    // A traced run measures twice (untraced, then traced) in the time
    // of one run.
    let len_us = args.seconds * 1_000_000 / if args.trace { 2 } else { 1 };
    let ops = bed::schedule(&mut Rng::new(args.seed, 3), RATE, len_us, MIX);

    let pass = bed::run_pass(&mut bed, &ops, 0xB0 << 56, len_us, GRACE_US, false)?;
    let mut s = Summary::of(&pass.records);
    for (q, name) in [
        (0.5, "gen_late_p50_us"),
        (0.9, "gen_late_p90_us"),
        (0.99, "gen_late_p99_us"),
    ] {
        report.named(name, s.late(q) as f64, "us");
    }
    s.check_lateness("strip-io")?;
    report.attempted = s.pooled.attempted;
    report.failed = s.pooled.failed;
    let fail_frac = s.pooled.failed as f64 / s.pooled.attempted.max(1) as f64;
    let secs = pass.len_us as f64 / 1e6;
    let ok = (s.pooled.attempted - s.pooled.failed) as f64;
    for class in ["get", "put"] {
        let c = s.class(class);
        let n = c.ok_us.len() as f64;
        report.named(&format!("{class}_p50_us"), c.q(0.50), "us");
        report.named(&format!("{class}_p99_us"), c.q(0.99), "us");
        report.named(&format!("{class}_samples"), n, "count");
    }
    report.named("offered_ops_s", RATE, "1/s");
    report.named("fail_frac", fail_frac, "frac");
    let p50 = s.pooled.q(0.50);
    report.e2e.insert("p50_us", p50);
    report.e2e.insert("light_p50_us", s.class("get").q(0.50));
    report.e2e.insert("heavy_p50_us", s.class("put").q(0.50));
    report.e2e.insert("ops_s", ok / secs);
    report.e2e.insert("setup_s", setup_s);

    if !args.trace {
        return Ok(());
    }
    // The traced pass: same schedule, the benchmark's spans on, the
    // stage histograms read around it.
    let before = bed::fleet_metrics(&bed.fleet)?;
    let traced = bed::run_pass(&mut bed, &ops, 0xB1 << 56, len_us, GRACE_US, true)?;
    let after = bed::fleet_metrics(&bed.fleet)?;
    let mut t = Summary::of(&traced.records);
    let d = after.since(&before);
    let l = &mut report.layer;
    engine_layers(l, &d, &mut t);
    let completed = (t.pooled.attempted - t.pooled.failed).max(1) as f64;
    l.insert(
        "engine.queue_depth_peak".into(),
        traced
            .end
            .as_ref()
            .map_or(0.0, |e| e.total("dasd_worker_queue_depth")),
    );
    l.insert(
        "fleet.cpu_us_per_op".into(),
        traced.fleet_cpu_us as f64 / completed,
    );
    l.insert(
        "gen.cpu_us_per_op".into(),
        traced.gen_cpu_us as f64 / t.pooled.attempted.max(1) as f64,
    );
    l.insert("gen.late_p99_us".into(), t.late(0.99) as f64);
    l.insert(
        "trace.overhead_frac".into(),
        (t.pooled.q(0.50) - p50) / p50.max(1.0),
    );
    l.insert(
        "fail_frac".into(),
        t.pooled.failed as f64 / t.pooled.attempted.max(1) as f64,
    );
    bed::collect_spans(&bed.fleet, &traced, spans)?;
    Ok(())
}
