//! In-process layer probes: each calls one public function on the same
//! messages, raster or layout the workloads use, after a warm-up, and
//! reports the time per call and the call count.

use std::hint::black_box;
use std::time::{Duration, Instant};

use bytes::Bytes;
use das_core::{ActiveStorageClient, RequestOptions, StripingParams};
use das_kernels::{kernel_by_name, Raster};
use das_net::{encode_frame_opts, FrameBuffer, Message};
use das_obs::{OpClass, Registry, SpanStore, Stage, NOTE_NONE};
use das_pfs::{DistributionInfo, Layout, LayoutPolicy, StripId};
use das_runtime::StripAssembly;

use crate::report::Spans;

/// Time spent measuring each probe, after its warm-up.
const BUDGET: Duration = Duration::from_millis(80);

/// One probe's result.
pub struct Probe {
    /// Per-layer metric name.
    pub name: &'static str,
    /// Time per call, in the metric's unit (ns, or µs for `_us` names).
    pub per_call: f64,
    /// Calls timed.
    pub calls: u64,
}

/// Call `f` for a warm-up, then in batches until [`BUDGET`] is spent.
fn time_calls(name: &'static str, spans: &mut Spans, t0: Instant, mut f: impl FnMut()) -> Probe {
    let warm = Instant::now();
    while warm.elapsed() < BUDGET / 4 {
        f();
    }
    let start = Instant::now();
    let mut calls = 0u64;
    let mut batch = 1u64;
    while start.elapsed() < BUDGET {
        for _ in 0..batch {
            f();
        }
        calls += batch;
        batch = (batch * 2).min(1 << 14);
    }
    let took = start.elapsed();
    spans.push(format!(
        "{{\"src\": \"probe\", \"name\": \"{name}\", \"start_us\": {}, \"end_us\": {}, \"calls\": {calls}}}",
        start.duration_since(t0).as_micros(),
        (start + took).duration_since(t0).as_micros()
    ));
    Probe {
        name,
        per_call: took.as_nanos() as f64 / calls as f64,
        calls,
    }
}

/// Geometry of the offload raster the kernel, assembly and das-core
/// probes work on.
pub struct OffloadShape {
    /// The raster (its bytes are the offload input file).
    pub raster: Raster,
    /// Strip size, bytes.
    pub strip_size: usize,
    /// Daemons in the fleet.
    pub servers: u32,
}

/// Run every probe. `strip4k` is a strip of the workloads' 4 KiB strip
/// file; the 64 KiB strip comes from `shape`'s raster.
pub fn run_all(strip4k: &[u8], shape: &OffloadShape, spans: &mut Spans, t0: Instant) -> Vec<Probe> {
    let mut out = Vec::new();
    let input = shape.raster.to_bytes();
    let ss = shape.strip_size;

    // das-net codec on the workloads' exact messages.
    let messages = [
        (
            "strip4k",
            Message::StripData {
                payload: strip4k.to_vec(),
            },
        ),
        (
            "put4k",
            Message::PutStrip {
                file: 0,
                strip: 7,
                payload: strip4k.to_vec(),
            },
        ),
        (
            "strip64k",
            Message::StripData {
                payload: input[ss..2 * ss].to_vec(),
            },
        ),
    ];
    let encode_names = [
        "codec.encode_ns.strip4k",
        "codec.encode_ns.put4k",
        "codec.encode_ns.strip64k",
    ];
    let decode_names = [
        "codec.decode_ns.strip4k",
        "codec.decode_ns.put4k",
        "codec.decode_ns.strip64k",
    ];
    for (i, (_, msg)) in messages.iter().enumerate() {
        out.push(time_calls(encode_names[i], spans, t0, || {
            black_box(encode_frame_opts(
                black_box(msg),
                Some(0xB5 << 56 | 42),
                None,
            ));
        }));
        let frame = encode_frame_opts(msg, Some(0xB5 << 56 | 42), None);
        let mut fb = FrameBuffer::new();
        out.push(time_calls(decode_names[i], spans, t0, || {
            fb.extend(black_box(&frame));
            let decoded = fb.next_frame().expect("a frame this codec encoded decodes");
            assert!(decoded.is_some(), "a whole frame was buffered");
            black_box(decoded);
        }));
    }

    // das-obs: the per-request metric lookups and span records.
    let reg = Registry::new();
    for op in ["get", "put", "exec", "meta", "control"] {
        reg.counter("dasd_requests_total", &[("op", op)]);
        reg.histogram("dasd_request_duration_us", &[("op", op)]);
    }
    out.push(time_calls("obs.counter_lookup_ns", spans, t0, || {
        black_box(reg.counter(black_box("dasd_requests_total"), &[("op", "get")])).inc();
    }));
    let hist = reg.histogram("dasd_request_duration_us", &[("op", "get")]);
    let mut v = 0u64;
    out.push(time_calls("obs.histogram_observe_ns", spans, t0, || {
        v = (v + 37) % 5000;
        hist.observe(black_box(v));
    }));
    let store = SpanStore::new(0);
    let mut trace = 1u64;
    out.push(time_calls("obs.span_record_ns", spans, t0, || {
        trace += 1;
        black_box(store.record(trace, 0, Stage::Dispatch, OpClass::Get, NOTE_NONE, 10, 20));
    }));

    // das-kernels and das-runtime: one NAS task of the offload raster
    // on server 0 under the round-robin layout — its local strips plus
    // the dependence strips it would fetch.
    let kernel = kernel_by_name("gaussian-filter").expect("gaussian-filter is registered");
    let width = shape.raster.width();
    let height = shape.raster.height();
    let layout = Layout::new(LayoutPolicy::RoundRobin, shape.servers);
    let strips = input.len().div_ceil(ss) as u64;
    let strip_bytes: Vec<Bytes> = (0..strips as usize)
        .map(|s| Bytes::from(input[s * ss..((s + 1) * ss).min(input.len())].to_vec()))
        .collect();
    let task = strips / 2;
    let server = layout.primary(StripId(task));
    let held: Vec<u64> = (0..strips)
        .filter(|&s| layout.holds(server, StripId(s)))
        .collect();
    let deps = [task - 1, task + 1];
    let build = || {
        let mut asm = StripAssembly::new(width, height, ss, "probe");
        for &s in held.iter().chain(deps.iter()) {
            asm.insert(StripId(s), strip_bytes[s as usize].clone());
        }
        asm
    };
    out.push(time_calls("assembly.build_us", spans, t0, || {
        black_box(build());
    }));
    let asm = build();
    let elems = (ss / 4) as u64;
    let mut buf = vec![0f32; elems as usize];
    let mut p = time_calls("kernel.ns_per_elem", spans, t0, || {
        kernel.process_range(black_box(&asm), task * elems, &mut buf);
        black_box(&buf);
    });
    p.per_call /= elems as f64;
    out.push(p);

    // das-core: the decision path on the offload layout.
    let dist = DistributionInfo {
        strip_size: ss,
        servers: shape.servers,
        policy: LayoutPolicy::RoundRobin,
        file_len: input.len() as u64,
    };
    let params = StripingParams::from_distribution(&dist, 4);
    let offsets = kernel.dependence_offsets(width);
    out.push(time_calls("core.predict_file_us", spans, t0, || {
        black_box(params.predict_file(black_box(&offsets), dist.file_len));
    }));
    out.push(time_calls("core.nas_fetch_plan_us", spans, t0, || {
        black_box(params.nas_fetch_plan(black_box(&offsets), dist.file_len));
    }));
    let client = ActiveStorageClient::with_builtin_features();
    let opts = RequestOptions {
        img_width: width,
        successive: true,
        ..Default::default()
    };
    out.push(time_calls("core.decide_us", spans, t0, || {
        black_box(
            client
                .decide_from_distribution(dist, "gaussian-filter", &opts)
                .ok(),
        );
    }));

    // Names ending in `_us` report µs per call.
    for p in &mut out {
        if p.name.ends_with("_us") {
            p.per_call /= 1000.0;
        }
    }
    out
}
