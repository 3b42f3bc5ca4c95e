//! The open-loop generator: one thread and one pipelined connection
//! per daemon.
//!
//! Each thread greets its daemon itself, frames every request with the
//! public codec (`write_message_opts`, a request id in the trace
//! field), reassembles replies with `FrameBuffer`, and sends each op
//! when it is due, waiting for replies and the next due time together
//! (see [`crate::sys`]). An op
//! is timed from its due time, not its send time, so a stall is
//! charged to every op queued behind it; how late each send went out
//! is recorded too. Every reply is checked against the expected bytes
//! or counts; a mismatch is a check failure, never a number.

use std::io::{self, Read};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use das_net::{
    read_frame, write_message_opts, ErrorCode, FrameBuffer, Message, Role, CAP_TRACE, LOCAL_CAPS,
};

use crate::fleet::thread_cpu_us;
use crate::sys::readable_within;

/// Deterministic 64-bit generator (splitmix64): the same seed gives
/// the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }
}

/// Poisson arrival times at `rate` per second in `[0, len_us)`, µs.
pub fn poisson_arrivals(rng: &mut Rng, rate: f64, len_us: u64) -> Vec<u64> {
    let mut out = Vec::new();
    let mut t = 0.0f64;
    loop {
        t += -rng.unit().ln() / rate * 1e6;
        if t >= len_us as f64 {
            return out;
        }
        out.push(t as u64);
    }
}

/// Operation class of the open-loop workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `GetStrip` of one strip from its primary holder.
    Get,
    /// `PutStrip` of one strip's initial bytes to its primary holder.
    Put,
    /// A forced single-server `Execute` over the exec raster.
    Exec,
}

impl Kind {
    /// Report label.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Get => "get",
            Kind::Put => "put",
            Kind::Exec => "exec",
        }
    }
}

/// One scheduled operation for one daemon.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    /// Due time, µs after the step's start.
    pub due_us: u64,
    /// Class.
    pub kind: Kind,
    /// Strip touched (get/put).
    pub strip: u64,
}

/// What one daemon's `Execute` must report for the exec raster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecExpect {
    /// Primary strips the server computes.
    pub strips: u64,
    /// Dependence fetches it issues.
    pub fetches: u64,
    /// Bytes those fetches move.
    pub bytes: u64,
}

/// The files the ops address and the answers they must get.
pub struct Target {
    /// File id of the strip file.
    pub strip_file: u32,
    /// Strip size of the strip file, bytes.
    pub strip_size: usize,
    /// Expected content of the whole strip file.
    pub content: Arc<Vec<u8>>,
    /// The exec raster, when the workload sends execs.
    pub exec: Option<ExecTarget>,
}

/// The exec class's input, output and per-server expectations.
pub struct ExecTarget {
    /// Input file id.
    pub file: u32,
    /// Output file id.
    pub out_file: u32,
    /// Raster width, elements.
    pub img_width: u64,
    /// Kernel name.
    pub kernel: &'static str,
    /// Expected `ExecuteOk` by server id.
    pub expect: Vec<ExecExpect>,
}

/// How an op ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Not answered (yet).
    Pending,
    /// Answered correctly.
    Ok,
    /// Refused by admission control (`Overloaded`).
    Refused,
    /// Any other error reply, or lost with its connection.
    Failed,
}

/// One op's timeline, µs after the step's start.
#[derive(Debug, Clone, Copy)]
pub struct Record {
    /// Request id (carried in the frame's trace field).
    pub id: u64,
    /// The op.
    pub op: Op,
    /// When it went out (`u64::MAX` if never sent).
    pub sent_us: u64,
    /// When its reply arrived (`u64::MAX` if none).
    pub done_us: u64,
    /// Outcome.
    pub status: Status,
}

impl Record {
    /// Latency from due time to reply.
    pub fn latency_us(&self) -> u64 {
        self.done_us.saturating_sub(self.op.due_us)
    }

    /// Time from send to reply (the part the fleet and the wire own).
    pub fn service_us(&self) -> u64 {
        self.done_us.saturating_sub(self.sent_us)
    }

    /// How late the send went out.
    pub fn late_us(&self) -> u64 {
        self.sent_us.saturating_sub(self.op.due_us)
    }
}

/// Everything one generator thread measured in one step.
pub struct StepResult {
    /// One record per scheduled op, in schedule order.
    pub records: Vec<Record>,
    /// Output-check failures (wrong bytes, wrong counts, wrong reply).
    pub check_errors: Vec<String>,
    /// CPU the thread used, µs.
    pub cpu_us: u64,
}

/// The request-id bits that index a step's schedule; the bits above
/// carry the step's tag.
const INDEX_BITS: u64 = 0xFFFF_FFFF;

/// One generator connection to one daemon.
pub struct Conn {
    /// Server id the handshake reported.
    pub server: u32,
    stream: TcpStream,
    frames: FrameBuffer,
    buf: Vec<u8>,
}

impl Conn {
    /// Dial `addr` and run the client `Hello` handshake. The daemon
    /// must echo request ids ([`CAP_TRACE`]), or replies could not be
    /// matched.
    pub fn open(addr: &str) -> Result<Conn, String> {
        let mut stream = TcpStream::connect(addr).map_err(|e| format!("{addr}: {e}"))?;
        let setup = |s: &TcpStream| -> io::Result<()> {
            s.set_nodelay(true)?;
            s.set_write_timeout(Some(Duration::from_secs(2)))?;
            s.set_read_timeout(Some(Duration::from_secs(5)))
        };
        setup(&stream).map_err(|e| format!("{addr}: {e}"))?;
        let hello = Message::Hello {
            role: Role::Client,
            peer_id: 0,
            caps: LOCAL_CAPS,
        };
        write_message_opts(&mut stream, &hello, None, None).map_err(|e| format!("{addr}: {e}"))?;
        match read_frame(&mut stream) {
            Ok(Some((Message::HelloOk { server_id, caps }, _))) if caps & CAP_TRACE != 0 => {
                Ok(Conn {
                    server: server_id,
                    stream,
                    frames: FrameBuffer::new(),
                    buf: vec![0u8; 256 * 1024],
                })
            }
            other => Err(format!("{addr}: handshake failed: {other:?}")),
        }
    }

    /// Run one step's schedule: send each op at its due time relative
    /// to `t0`, take replies as they come, and stop when every op is
    /// answered or at `hard_end_us`, whichever is first. Unanswered ops
    /// stay [`Status::Pending`]. `tag` is or-ed into every request id
    /// so replies of an abandoned step can never be mistaken for this
    /// one's.
    pub fn run_step(
        &mut self,
        ops: &[Op],
        tag: u64,
        t0: Instant,
        hard_end_us: u64,
        target: &Target,
    ) -> StepResult {
        let cpu0 = thread_cpu_us();
        let mut res = StepResult {
            records: ops
                .iter()
                .enumerate()
                .map(|(i, &op)| Record {
                    id: tag | i as u64,
                    op,
                    sent_us: u64::MAX,
                    done_us: u64::MAX,
                    status: Status::Pending,
                })
                .collect(),
            check_errors: Vec::new(),
            cpu_us: 0,
        };
        let now_us = || t0.elapsed().as_micros() as u64;
        let mut next = 0usize;
        let mut open = 0usize;
        'run: loop {
            let mut now = now_us();
            while next < ops.len() && ops[next].due_us <= now {
                let id = tag | next as u64;
                let msg = request(&ops[next], target);
                res.records[next].sent_us = now_us();
                if write_message_opts(&mut self.stream, &msg, Some(id), None).is_err() {
                    // The connection is gone: what was sent is lost.
                    break 'run;
                }
                next += 1;
                open += 1;
                now = now_us();
            }
            if next == ops.len() && open == 0 {
                break;
            }
            if now >= hard_end_us {
                break;
            }
            let mut wake = hard_end_us;
            if let Some(op) = ops.get(next) {
                wake = wake.min(op.due_us);
            }
            if wake <= now {
                continue;
            }
            match readable_within(&self.stream, Duration::from_micros(wake - now)) {
                Ok(true) => {}
                Ok(false) => continue,
                Err(_) => break,
            }
            match self.stream.read(&mut self.buf) {
                Ok(0) => break,
                Ok(n) => {
                    self.frames.extend(&self.buf[..n]);
                    let done_us = now_us();
                    loop {
                        match self.frames.next_frame() {
                            Ok(Some((reply, Some(id)))) if id & !INDEX_BITS == tag => {
                                if let Some(rec) = res.records.get_mut((id & INDEX_BITS) as usize) {
                                    if rec.status != Status::Pending {
                                        res.check_errors
                                            .push(format!("duplicate reply for request {id:#x}"));
                                        continue;
                                    }
                                    open -= 1;
                                    rec.done_us = done_us;
                                    rec.status = check_reply(
                                        &rec.op,
                                        reply,
                                        target,
                                        self.server,
                                        &mut res.check_errors,
                                    );
                                }
                            }
                            // A late reply to an abandoned step.
                            Ok(Some(_)) => {}
                            Ok(None) => break,
                            Err(e) => {
                                res.check_errors
                                    .push(format!("undecodable reply stream: {e}"));
                                break 'run;
                            }
                        }
                    }
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) => {}
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        res.cpu_us = thread_cpu_us().saturating_sub(cpu0);
        res
    }
}

/// The wire request for `op`.
fn request(op: &Op, target: &Target) -> Message {
    match op.kind {
        Kind::Get => Message::GetStrip {
            file: target.strip_file,
            strip: op.strip,
        },
        Kind::Put => {
            let at = op.strip as usize * target.strip_size;
            Message::PutStrip {
                file: target.strip_file,
                strip: op.strip,
                payload: target.content[at..at + target.strip_size].to_vec(),
            }
        }
        Kind::Exec => {
            let x = target
                .exec
                .as_ref()
                .expect("exec ops are only scheduled with an exec target");
            Message::Execute {
                file: x.file,
                out_file: x.out_file,
                kernel: x.kernel.to_string(),
                img_width: x.img_width,
                element_size: 4,
                successive: true,
                force: true,
            }
        }
    }
}

/// Classify one reply, recording a check failure when a successful
/// reply carries the wrong content.
fn check_reply(
    op: &Op,
    reply: Message,
    target: &Target,
    server: u32,
    errors: &mut Vec<String>,
) -> Status {
    match (op.kind, reply) {
        (
            _,
            Message::Error {
                code: ErrorCode::Overloaded,
                ..
            },
        ) => Status::Refused,
        (_, Message::Error { .. }) => Status::Failed,
        (Kind::Get, Message::StripData { payload }) => {
            let at = op.strip as usize * target.strip_size;
            if payload[..] == target.content[at..at + target.strip_size] {
                Status::Ok
            } else {
                errors.push(format!("get of strip {} returned wrong bytes", op.strip));
                Status::Failed
            }
        }
        (Kind::Put, Message::PutStripOk) => Status::Ok,
        (
            Kind::Exec,
            Message::ExecuteOk {
                strips_computed,
                dep_fetches,
                dep_fetch_bytes,
            },
        ) => {
            let got = ExecExpect {
                strips: strips_computed,
                fetches: dep_fetches,
                bytes: dep_fetch_bytes,
            };
            let want = target.exec.as_ref().map(|x| x.expect[server as usize]);
            if Some(got) == want {
                Status::Ok
            } else {
                errors.push(format!(
                    "exec on server {server} reported {got:?}, expected {want:?}"
                ));
                Status::Failed
            }
        }
        (kind, other) => {
            errors.push(format!(
                "{} answered with opcode {:#04x}",
                kind.name(),
                other.opcode()
            ));
            Status::Failed
        }
    }
}
