//! The wire-size contract, in one place: every message's payload and
//! frame length as closed-form formulas, restated here by hand and
//! checked against the real codec.
//!
//! * per variant, for *arbitrary* field values and every caps
//!   combination (payload constant plus blob lengths, plus the
//!   12 + 4 + 8·[trace] + 4·[budget] frame overhead);
//! * per `Message::samples()` entry — one of every opcode — under all
//!   four (trace, budget) combinations;
//! * summed over the RPC sequences the paper's Eqs. 1–17 price: peer
//!   dependence fetches itemized by `nas_fetch_plan`, and whole-file
//!   client reads and writes, over arbitrary (D, strip, policy, caps).
//!
//! A codec change that silently shifts a byte fails one of these.

use das_core::StripingParams;
use das_net::codec::frame_parts_opts;
use das_net::proto::{ErrorCode, Message, Role, WireStats, KNOWN_OPCODES};
use das_pfs::{DistributionInfo, Layout, LayoutPolicy};

use proptest::prelude::*;

/// The symbolic per-variant payload size, restated by hand. The
/// match is exhaustive, so a new variant does not compile until it
/// has a formula here.
fn symbolic_payload_len(m: &Message) -> usize {
    match m {
        Message::Hello { .. } => 9,
        Message::HelloOk { .. } => 8,
        Message::CreateFile { name, .. } => 27 + name.len(),
        Message::CreateFileOk { .. } => 4,
        Message::PutStrip { payload, .. } => 16 + payload.len(),
        Message::PutStripOk => 0,
        Message::GetStrip { .. } => 12,
        Message::StripData { payload } => 4 + payload.len(),
        Message::Lookup { name } => 2 + name.len(),
        Message::LookupOk { .. } => 33,
        Message::GetDistribution { .. } => 4,
        Message::DistributionResp { .. } => 29,
        Message::RedistPrepare { .. } | Message::RedistCommit { .. } => 13,
        Message::RedistPrepareOk { .. } => 16,
        Message::RedistCommitOk => 0,
        Message::Execute { kernel, .. } => 24 + kernel.len(),
        Message::ExecuteOk { .. } => 24,
        Message::Stats
        | Message::ResetStats
        | Message::ResetStatsOk
        | Message::MetricsDump
        | Message::Ping
        | Message::Pong
        | Message::Shutdown
        | Message::ShutdownOk => 0,
        Message::StatsResp(_) => 32,
        Message::MetricsText { text } => 4 + text.len(),
        Message::TraceDump { .. } => 8,
        Message::TraceDumpResp { spans } | Message::SlowLogResp { spans } => 4 + spans.len(),
        Message::SlowLog { .. } => 4,
        Message::Error { message, .. } => 4 + message.len(),
    }
}

/// Frame overhead around a payload: 12-byte header + 4-byte CRC,
/// plus the optional trace id and deadline budget fields.
fn overhead(trace: Option<u64>, budget: Option<u32>) -> usize {
    12 + 4 + if trace.is_some() { 8 } else { 0 } + if budget.is_some() { 4 } else { 0 }
}

/// Every (trace, budget) combination a frame can carry.
const ALL_CAPS: [(Option<u64>, Option<u32>); 4] =
    [(None, None), (Some(0xDA5), None), (None, Some(250)), (Some(0xDA5), Some(250))];

/// `GetStrip` and `StripData` payload constants: one strip pull costs
/// two frames of overhead, 12 + 4 bytes of fixed fields and the strip.
const READ_FIXED: u64 = 12 + 4;
/// `PutStrip` and `PutStripOk` payload constants.
const WRITE_FIXED: u64 = 16;

fn policies() -> impl Strategy<Value = LayoutPolicy> {
    prop_oneof![
        Just(LayoutPolicy::RoundRobin),
        (1u64..=8).prop_map(|group| LayoutPolicy::Grouped { group }),
        (1u64..=8).prop_map(|group| LayoutPolicy::GroupedReplicated { group }),
    ]
}

fn dists() -> impl Strategy<Value = DistributionInfo> {
    (1usize..=1 << 20, 1u32..=16, policies(), any::<u64>()).prop_map(
        |(strip_size, servers, policy, file_len)| DistributionInfo {
            strip_size,
            servers,
            policy,
            file_len,
        },
    )
}

fn error_codes() -> impl Strategy<Value = ErrorCode> {
    prop_oneof![
        Just(ErrorCode::NoSuchFile),
        Just(ErrorCode::OutOfBounds),
        Just(ErrorCode::StripNotLocal),
        Just(ErrorCode::Retryable),
    ]
}

/// Arbitrary strings stay under the `put_str` u16 length cap; byte
/// lengths (what the formulas count) exceed char counts for
/// non-ASCII, which is exactly the case worth sweeping.
fn names() -> impl Strategy<Value = String> {
    ".{0,48}"
}

fn blobs() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(any::<u8>(), 0..4096)
}

fn messages() -> impl Strategy<Value = Message> {
    prop_oneof![
        (prop_oneof![Just(Role::Client), Just(Role::Server)], any::<u32>(), any::<u32>())
            .prop_map(|(role, peer_id, caps)| Message::Hello { role, peer_id, caps }),
        (any::<u32>(), any::<u32>())
            .prop_map(|(server_id, caps)| Message::HelloOk { server_id, caps }),
        (names(), any::<u64>(), any::<u32>(), policies(), any::<u32>()).prop_map(
            |(name, file_len, strip_size, policy, servers)| Message::CreateFile {
                name,
                file_len,
                strip_size,
                policy,
                servers,
            }
        ),
        any::<u32>().prop_map(|file| Message::CreateFileOk { file }),
        (any::<u32>(), any::<u64>(), blobs())
            .prop_map(|(file, strip, payload)| Message::PutStrip { file, strip, payload }),
        Just(Message::PutStripOk),
        (any::<u32>(), any::<u64>()).prop_map(|(file, strip)| Message::GetStrip { file, strip }),
        blobs().prop_map(|payload| Message::StripData { payload }),
        names().prop_map(|name| Message::Lookup { name }),
        (any::<u32>(), dists()).prop_map(|(file, dist)| Message::LookupOk { file, dist }),
        any::<u32>().prop_map(|file| Message::GetDistribution { file }),
        dists().prop_map(|dist| Message::DistributionResp { dist }),
        (any::<u32>(), policies())
            .prop_map(|(file, policy)| Message::RedistPrepare { file, policy }),
        (any::<u64>(), any::<u64>()).prop_map(|(fetched_strips, fetched_bytes)| {
            Message::RedistPrepareOk { fetched_strips, fetched_bytes }
        }),
        (any::<u32>(), policies())
            .prop_map(|(file, policy)| Message::RedistCommit { file, policy }),
        Just(Message::RedistCommitOk),
        ((any::<u32>(), any::<u32>(), names(), any::<u64>()), (any::<u32>(), any::<bool>(), any::<bool>()))
            .prop_map(|((file, out_file, kernel, img_width), (element_size, successive, force))| {
                Message::Execute { file, out_file, kernel, img_width, element_size, successive, force }
            }),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(strips_computed, dep_fetches, dep_fetch_bytes)| Message::ExecuteOk {
                strips_computed,
                dep_fetches,
                dep_fetch_bytes,
            }
        ),
        prop_oneof![
            Just(Message::Stats),
            Just(Message::ResetStats),
            Just(Message::ResetStatsOk),
            Just(Message::MetricsDump),
            Just(Message::Ping),
            Just(Message::Pong),
            Just(Message::Shutdown),
            Just(Message::ShutdownOk),
        ],
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(client_in, client_out, server_in, server_out)| Message::StatsResp(WireStats {
                client_in,
                client_out,
                server_in,
                server_out,
            })
        ),
        names().prop_map(|text| Message::MetricsText { text }),
        any::<u64>().prop_map(|trace| Message::TraceDump { trace }),
        blobs().prop_map(|spans| Message::TraceDumpResp { spans }),
        any::<u32>().prop_map(|per_class| Message::SlowLog { per_class }),
        blobs().prop_map(|spans| Message::SlowLogResp { spans }),
        (error_codes(), names()).prop_map(|(code, message)| Message::Error { code, message }),
    ]
}

fn caps() -> impl Strategy<Value = (Option<u64>, Option<u32>)> {
    (
        prop_oneof![Just(None), any::<u64>().prop_map(Some)],
        prop_oneof![Just(None), any::<u32>().prop_map(Some)],
    )
}

proptest! {
    // The payload-level formula: `encode_payload` produces exactly
    // the symbolic byte count for every variant and field values.
    #[test]
    fn encode_payload_matches_symbolic_formula(msg in messages()) {
        prop_assert_eq!(msg.encode_payload().len(), symbolic_payload_len(&msg));
    }

    // The frame-level formula: header + CRC + optional trace and
    // budget fields + payload, for every caps combination — the
    // per-message term every sequence cost below composes from.
    #[test]
    fn frame_len_matches_symbolic_formula(msg in messages(), (trace, budget) in caps()) {
        let parts = frame_parts_opts(&msg, trace, budget);
        prop_assert_eq!(parts.len(), overhead(trace, budget) + symbolic_payload_len(&msg));
        // The split encode is bit-identical to the owned encode: the
        // zero-copy path may never change what goes on the wire.
        let (prefix, body) = msg.split_payload();
        let mut joined = prefix;
        joined.extend_from_slice(body);
        prop_assert_eq!(joined, msg.encode_payload());
    }

    // The Eqs. 1–17 bookkeeping on real frames. A NAS execution pulls
    // each planned dependence strip with one GetStrip/StripData
    // exchange, so its wire bytes are fetches·(2·overhead + 12 + 4)
    // plus the strip bytes `predict_nas_fetches` prices; a client's
    // whole-file read (GetStrip/StripData) and write
    // (PutStrip/PutStripOk) cost the same per-strip overhead plus the
    // file's bytes.
    #[test]
    fn rpc_sequence_bytes_match_the_predicted_formulas(
        d in 1u32..=8,
        strip_elems in 1u64..=512,
        elements in 1u64..=4096,
        policy in policies(),
        offsets in proptest::collection::vec(-600i64..=600, 1..10),
        (trace, budget) in caps(),
    ) {
        const ELEMENT: u64 = 4;
        let params = StripingParams {
            element_size: ELEMENT,
            strip_size: strip_elems * ELEMENT,
            layout: Layout::new(policy, d),
        };
        let file_len = elements * ELEMENT;
        let o = overhead(trace, budget) as u64;
        let flen = |msg: &Message| frame_parts_opts(msg, trace, budget).len() as u64;

        let pred = params.predict_nas_fetches(&offsets, file_len);
        let fetch_bytes: u64 = params
            .nas_fetch_plan(&offsets, file_len)
            .iter()
            .map(|f| {
                flen(&Message::GetStrip { file: 1, strip: f.u })
                    + flen(&Message::StripData { payload: vec![0; f.len_bytes as usize] })
            })
            .sum();
        prop_assert_eq!(fetch_bytes, pred.fetches * (2 * o + READ_FIXED) + pred.bytes);

        let strips = elements.div_ceil(strip_elems);
        let strip_len = |t: u64| params.strip_len_bytes(t, file_len) as usize;
        let read_bytes: u64 = (0..strips)
            .map(|t| {
                flen(&Message::GetStrip { file: 1, strip: t })
                    + flen(&Message::StripData { payload: vec![0; strip_len(t)] })
            })
            .sum();
        prop_assert_eq!(read_bytes, strips * (2 * o + READ_FIXED) + file_len);
        let write_bytes: u64 = (0..strips)
            .map(|t| {
                flen(&Message::PutStrip { file: 1, strip: t, payload: vec![0; strip_len(t)] })
                    + flen(&Message::PutStripOk)
            })
            .sum();
        prop_assert_eq!(write_bytes, strips * (2 * o + WRITE_FIXED) + file_len);
    }
}

/// One of every opcode, under all four caps combinations: the codec's
/// payload and frame lengths match the formulas exactly. Deterministic
/// companion to the properties above, so every variant is checked on
/// every run whatever the random draw.
#[test]
fn every_sample_matches_its_formula_under_every_caps() {
    let samples = Message::samples();
    assert_eq!(samples.len(), KNOWN_OPCODES.len(), "samples() must cover every opcode");
    for msg in &samples {
        let payload = symbolic_payload_len(msg);
        assert_eq!(msg.encode_payload().len(), payload, "{msg:?}");
        for (trace, budget) in ALL_CAPS {
            assert_eq!(
                frame_parts_opts(msg, trace, budget).len(),
                overhead(trace, budget) + payload,
                "{msg:?} under trace={trace:?} budget={budget:?}"
            );
        }
    }
}
