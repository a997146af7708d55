//! Metric assembly: end-to-end metrics from an untraced phase, per-layer
//! metrics from a traced one, and the result line.

use std::hint::black_box;
use std::time::{Duration, Instant};

use nm_core::wire::{crc32, decode_frame, encode_frame, FRAME_HEADER};

use crate::workload::{median, seeded_bytes, Phase, Workload};

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

fn m(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The end-to-end metrics of an untraced phase: each the median over
/// the phase's slices of the slice's value, so a host slowdown that
/// covers a minority of the slices does not move it.
pub fn end_to_end(ph: &Phase, peak_rss_mb: f64) -> Vec<Metric> {
    vec![
        m("oneway_p50_us", "us", ph.median(|s| s.oneway_p50) / 1e3),
        m("oneway_p99_us", "us", ph.median(|s| s.oneway_p99) / 1e3),
        m(
            "goodput_MBps",
            "MB/s",
            ph.median(|s| s.payload_bytes as f64 / s.ns as f64) * 1e3,
        ),
        m(
            "msg_rate_Mps",
            "Mmsg/s",
            ph.median(|s| s.msgs as f64 / s.ns as f64) * 1e3,
        ),
        m("round_p50_us", "us", ph.median(|s| s.round_p50) / 1e3),
        m("round_p99_us", "us", ph.median(|s| s.round_p99) / 1e3),
        m("setup_s", "s", median(ph.setup_s.clone())),
        m("peak_rss_MB", "MB", peak_rss_mb),
    ]
}

/// Time per unit of the workload's primary metric (one-way p50 for the
/// small ping-pong, time per byte or per message for the throughput
/// workloads), so traced over untraced is above 1 when tracing costs.
fn primary_cost(w: Workload, ph: &Phase) -> f64 {
    match w {
        Workload::PingpongSmall => ph.median(|s| s.oneway_p50),
        Workload::PingpongLarge | Workload::MsgrateLossy => {
            ph.median(|s| s.ns as f64 / s.payload_bytes as f64)
        }
        Workload::MsgrateProgthread => ph.median(|s| s.ns as f64 / s.msgs as f64),
    }
}

/// Costs of the frame functions of `nm_core::wire` on one frame size.
#[derive(Debug, Clone, Copy)]
pub struct WireTimes {
    /// `crc32` over a whole frame, ns per byte.
    pub crc32_ns_per_b: f64,
    /// `encode_frame`, ns per call.
    pub encode_frame_ns: f64,
    /// `decode_frame`, ns per call.
    pub decode_frame_ns: f64,
}

/// Mean ns per call of `f`, median over seven batches of `batch` each.
fn per_call(batch: Duration, mut f: impl FnMut()) -> f64 {
    let mut means: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            let mut n = 0u64;
            loop {
                for _ in 0..8 {
                    f();
                }
                n += 8;
                let e = t.elapsed();
                if e >= batch {
                    return e.as_nanos() as f64 / n as f64;
                }
            }
        })
        .collect();
    means.sort_by(f64::total_cmp);
    means[3]
}

/// Times the frame functions on seeded frames of `frame_bytes` bytes,
/// spending about `budget`. Fails if a frame does not round-trip.
pub fn time_wire(frame_bytes: usize, seed: u64, budget: Duration) -> Result<WireTimes, String> {
    let mut state = seed ^ 0x31AE;
    let payload = seeded_bytes(&mut state, frame_bytes.saturating_sub(FRAME_HEADER).max(1));
    let frame = encode_frame(1, 0, 0, 0, &payload);
    match decode_frame(frame.clone()) {
        Ok(f) if f.payload[..] == payload[..] => {}
        other => {
            return Err(format!(
                "frame of {frame_bytes} B did not round-trip: {other:?}"
            ))
        }
    }
    let batch = budget / 21;
    let crc = per_call(batch, || {
        black_box(crc32(black_box(&frame[..])));
    });
    let encode = per_call(batch, || {
        black_box(encode_frame(1, 0, 0, 0, black_box(&payload)));
    });
    let decode = per_call(batch, || {
        let _ = black_box(decode_frame(black_box(frame.clone())));
    });
    Ok(WireTimes {
        crc32_ns_per_b: crc / frame.len() as f64,
        encode_frame_ns: encode,
        decode_frame_ns: decode,
    })
}

/// Mean frame size the traced phase posted, in bytes.
pub fn mean_frame_bytes(traced: &Phase) -> usize {
    let post = &traced.delta.probe.post;
    (post.bytes / post.hits.max(1)) as usize
}

/// The per-layer metrics of a traced phase, plus the tracing overhead
/// against the untraced phase of the same run.
pub fn per_layer(w: Workload, untraced: &Phase, traced: &Phase, wire: &WireTimes) -> Vec<Metric> {
    let d = &traced.delta;
    let p = &d.probe;
    let msgs = traced.msgs;
    vec![
        m("core.isend_ns", "ns", ratio(p.isend.ns, p.isend.calls)),
        m(
            "core.isend_self_ns",
            "ns",
            ratio(p.isend.self_ns, p.isend.calls),
        ),
        m("core.irecv_ns", "ns", ratio(p.irecv.ns, p.irecv.calls)),
        m(
            "core.progress_ns_per_msg",
            "ns/msg",
            ratio(p.progress.ns, msgs),
        ),
        m(
            "core.progress_self_ns_per_msg",
            "ns/msg",
            ratio(p.progress.self_ns, msgs),
        ),
        m(
            "core.progress_calls_per_msg",
            "1/msg",
            ratio(p.progress.calls, msgs),
        ),
        m(
            "core.progress_useful_ratio",
            "ratio",
            ratio(p.progress.hits, p.progress.calls),
        ),
        m("core.packets_per_msg", "1/msg", ratio(d.packets_tx, msgs)),
        m(
            "core.aggregation_ratio",
            "ratio",
            ratio(d.aggregated_packets, d.packets_tx),
        ),
        m(
            "core.unexpected_ratio",
            "ratio",
            ratio(d.unexpected_msgs, msgs),
        ),
        m(
            "core.retransmit_ratio",
            "ratio",
            ratio(d.retransmits, d.packets_tx),
        ),
        m(
            "core.retransmit_useful_ratio",
            "ratio",
            ratio(d.lost, d.retransmits),
        ),
        m(
            "core.acks_per_packet",
            "ratio",
            ratio(d.acks_tx, d.packets_tx),
        ),
        m("core.wire_errors", "count", d.wire_errors as f64),
        m("wire.crc32_ns_per_B", "ns/B", wire.crc32_ns_per_b),
        m("wire.encode_frame_ns", "ns", wire.encode_frame_ns),
        m("wire.decode_frame_ns", "ns", wire.decode_frame_ns),
        m("fabric.post_ns", "ns", ratio(p.post.ns, p.post.calls)),
        m("fabric.posts_per_msg", "1/msg", ratio(p.post.calls, msgs)),
        m(
            "fabric.post_refused_ratio",
            "ratio",
            ratio(p.post.calls - p.post.hits, p.post.calls),
        ),
        m("fabric.poll_ns", "ns", ratio(p.poll.ns, p.poll.calls)),
        m("fabric.polls_per_msg", "1/msg", ratio(p.poll.calls, msgs)),
        m(
            "fabric.poll_hit_ratio",
            "ratio",
            ratio(p.poll.hits, p.poll.calls),
        ),
        m(
            "fabric.wire_bytes_per_payload_B",
            "B/B",
            ratio(p.post.bytes, traced.payload_bytes),
        ),
        m(
            "sync.lock.acquisitions_per_msg",
            "1/msg",
            ratio(traced.lock_acquisitions, msgs),
        ),
        m(
            "sync.lock.contended_ratio",
            "ratio",
            ratio(traced.lock_contended, traced.lock_acquisitions),
        ),
        m("sync.lock.wait_ns_p50", "ns", traced.lock_wait_p50_ns),
        m(
            "progress.useful_ratio",
            "ratio",
            ratio(d.engine_progressions, d.engine_polls),
        ),
        m(
            "progress.poll_ns",
            "ns",
            ratio(traced.elapsed_ns, d.engine_polls),
        ),
        m(
            "app.wait_share",
            "ratio",
            ratio(traced.wait_ns, traced.elapsed_ns),
        ),
        m(
            "trace.overhead_ratio",
            "ratio",
            primary_cost(w, traced) / primary_cost(w, untraced),
        ),
    ]
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name, x.value, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
