//! `fleetbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! fleetbench --workload <strip-io|offload|mixed> --seed N --seconds S --trace 0|1
//!            --dasd <path to dasd> --out <output dir>
//! ```
//!
//! Each run boots a fresh loopback fleet of child `dasd` processes,
//! drives it from this one process (at most one generator thread and
//! one connection per daemon), checks every output, and prints every
//! metric by name and unit, then one JSON result line. `--trace 1`
//! adds a traced pass and the in-process layer probes and reports the
//! per-layer metrics; its spans go to `<out>/spans-<workload>-<seed>.jsonl`.
//! See `README.md` beside this crate.

mod bed;
mod fleet;
mod gen;
mod mixed;
mod offload;
mod probes;
mod report;
mod stats;
mod strip_io;
mod sys;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use report::{Report, Spans};

/// Generator threads (and connections) a run uses: one per daemon.
const GEN_THREADS: usize = bed::SERVERS;

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: u64,
    /// Traced run.
    pub trace: bool,
    /// The `dasd` binary.
    pub dasd: PathBuf,
    /// Where logs and spans go.
    pub out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0,
        trace: false,
        dasd: PathBuf::new(),
        out: PathBuf::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value {v:?} for {flag}");
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--seconds" => a.seconds = value().and_then(|v| v.parse().map_err(|_| bad(&v)))?,
            "--trace" => a.trace = value()? == "1",
            "--dasd" => a.dasd = value()?.into(),
            "--out" => a.out = value()?.into(),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if a.seconds == 0 || a.dasd.as_os_str().is_empty() || a.out.as_os_str().is_empty() {
        return Err("need --workload, --seed, --seconds >= 1, --dasd and --out".into());
    }
    Ok(a)
}

fn run(args: &Args) -> Result<Report, String> {
    // The generator may not outnumber the cores it shares with the
    // fleet.
    let nproc = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if GEN_THREADS > nproc {
        return Err(format!("{GEN_THREADS} generator threads and connections need {GEN_THREADS} cores; {nproc} available"));
    }
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let mut report = Report::default();
    report.notes.push(format!(
        "workload {} seed {} seconds {} trace {} on {nproc} cores, {} daemons x {} workers, loopback",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        bed::SERVERS,
        bed::POOL
    ));
    let mut spans = Spans::default();
    let t0 = Instant::now();
    match args.workload.as_str() {
        "strip-io" => strip_io::run(args, &mut report, &mut spans)?,
        "offload" => offload::run(args, &mut report, &mut spans)?,
        "mixed" => mixed::run(args, &mut report, &mut spans)?,
        other => {
            return Err(format!(
                "unknown workload {other:?} (strip-io, offload, mixed)"
            ))
        }
    }
    if args.trace {
        // The probes run after the fleet is gone, on an idle machine.
        let content = bed::strip_content(args.seed);
        let shape = probes::OffloadShape {
            raster: bed::raster(args.seed, 5, offload::SIDE, offload::SIDE),
            strip_size: offload::STRIP_SIZE,
            servers: bed::SERVERS as u32,
        };
        for p in probes::run_all(&content[..bed::STRIP_SIZE], &shape, &mut spans, t0) {
            report.notes.push(format!(
                "probe {} {:.4} per call over {} calls",
                p.name, p.per_call, p.calls
            ));
            report.layer.insert(p.name.into(), p.per_call);
        }
        let path = args
            .out
            .join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
        spans.write(&path)?;
        report
            .notes
            .push(format!("spans written to {}", path.display()));
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("fleetbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            report.print(args.trace);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fleetbench: {e}");
            ExitCode::FAILURE
        }
    }
}
