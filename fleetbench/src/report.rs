//! What a run prints: every metric by name with its unit, then the
//! one-line JSON result; and the traced run's span file.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// Every per-layer metric a traced run reports, with its unit. A
/// layer a workload leaves idle reports 0 (a count of nothing, or no
/// time spent).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("engine.queue_wait_us.get", "us"),
    ("engine.queue_wait_us.put", "us"),
    ("engine.queue_wait_us.exec", "us"),
    ("engine.reply_write_us.get", "us"),
    ("engine.reply_write_us.put", "us"),
    ("engine.decode_us.put", "us"),
    ("engine.dispatch_us.get", "us"),
    ("engine.dispatch_us.put", "us"),
    ("engine.dispatch_us.exec", "us"),
    ("engine.unaccounted_us.get", "us"),
    ("engine.unaccounted_us.put", "us"),
    ("engine.unaccounted_us.exec", "us"),
    ("engine.queue_depth_peak", "count"),
    ("engine.shed", "count"),
    ("fleet.cpu_us_per_op", "us"),
    ("peer.fetch_us", "us"),
    ("peer.fetches_per_job", "count"),
    ("peer.fetch_bytes_per_job", "B"),
    ("peer.retries", "count"),
    ("client.gather_ms", "ms"),
    ("client.scatter_ms", "ms"),
    ("client.execute_ms.nas", "ms"),
    ("client.execute_ms.das", "ms"),
    ("offload.client_bytes.ts", "B"),
    ("offload.client_bytes.nas", "B"),
    ("offload.client_bytes.das", "B"),
    ("offload.server_bytes.nas", "B"),
    ("offload.server_bytes.das", "B"),
    ("codec.encode_ns.strip4k", "ns"),
    ("codec.encode_ns.put4k", "ns"),
    ("codec.encode_ns.strip64k", "ns"),
    ("codec.decode_ns.strip4k", "ns"),
    ("codec.decode_ns.put4k", "ns"),
    ("codec.decode_ns.strip64k", "ns"),
    ("store.local_read_us.get", "us"),
    ("store.local_read_us.exec", "us"),
    ("assembly.assemble_us.exec", "us"),
    ("assembly.build_us", "us"),
    ("kernel.kernel_us.exec", "us"),
    ("kernel.ns_per_elem", "ns"),
    ("core.predict_file_us", "us"),
    ("core.nas_fetch_plan_us", "us"),
    ("core.decide_us", "us"),
    ("obs.counter_lookup_ns", "ns"),
    ("obs.histogram_observe_ns", "ns"),
    ("obs.span_record_ns", "ns"),
    ("gen.late_p99_us", "us"),
    ("gen.cpu_us_per_op", "us"),
    ("trace.overhead_frac", "frac"),
    ("fail_frac", "frac"),
    ("mixed.probe_fail_frac", "frac"),
    ("mixed.knee_ops_s", "1/s"),
];

/// The end-to-end metrics every untraced run reports, with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("p50_us", "us"),
    ("light_p50_us", "us"),
    ("heavy_p50_us", "us"),
    ("ops_s", "1/s"),
    ("setup_s", "s"),
];

/// A run's result.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations (or jobs) attempted in the scored window.
    pub attempted: u64,
    /// Of those, failed, refused or unanswered.
    pub failed: u64,
    /// The workload's own named metrics (`get_p50_us`, `nas_job_ms`,
    /// ...), printed for reading, with units.
    pub named: Vec<(String, f64, &'static str)>,
    /// End-to-end metrics by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metrics by name (traced runs only).
    pub layer: BTreeMap<String, f64>,
    /// Extra lines for the reader (call counts, sample counts).
    pub notes: Vec<String>,
}

impl Report {
    /// Record a named workload metric for the human-readable output.
    pub fn named(&mut self, name: &str, value: f64, unit: &'static str) {
        self.named.push((name.to_string(), value, unit));
    }

    /// Print every metric, then the JSON result as the last line.
    pub fn print(&self, traced: bool) {
        for note in &self.notes {
            println!("# {note}");
        }
        for (name, value, unit) in &self.named {
            println!("{name} {value:.4} {unit}");
        }
        let table = if traced { PER_LAYER } else { END_TO_END };
        let mut json = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = if traced {
                self.layer.get(*name)
            } else {
                self.e2e.get(name)
            };
            let value = value.copied().unwrap_or(0.0);
            println!("{name} {value:.4} {unit}");
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(value)
            );
        }
        println!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.attempted, self.failed
        );
    }
}

/// A finite JSON number with all its digits.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The traced run's spans, kept in memory as JSON lines and written
/// once at the end.
#[derive(Debug, Default)]
pub struct Spans {
    lines: Vec<String>,
}

impl Spans {
    /// Keep one span line.
    pub fn push(&mut self, line: String) {
        self.lines.push(line);
    }

    /// Write every span to `path`.
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let mut text = self.lines.join("\n");
        text.push('\n');
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// One daemon span as a JSON line.
pub fn daemon_span_line(source: &str, s: &das_obs::SpanRecord) -> String {
    format!(
        "{{\"src\": \"{source}\", \"daemon\": {}, \"trace\": \"{:#x}\", \"span\": {}, \"parent\": {}, \"stage\": \"{}\", \"op\": \"{}\", \"start_us\": {}, \"dur_us\": {}}}",
        s.daemon,
        s.trace,
        s.span,
        s.parent,
        s.stage.name(),
        s.op.name(),
        s.start_us,
        s.dur_us
    )
}
