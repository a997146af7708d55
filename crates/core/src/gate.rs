//! Gates: per-peer connection state across the three layers.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::Arc;

use bytes::Bytes;

use nm_fabric::Driver;

use crate::locking::{Protected, SectionKind};
use crate::recycle::Pooled;
use crate::request::Request;
use crate::strategy::SendItem;
use crate::wire::OutPacket;

/// Identifies a peer connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GateId(pub usize);

/// What a posted receive is willing to match (`MPI_ANY_TAG` analogue).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TagPattern {
    /// Match exactly this tag.
    Exact(u64),
    /// Match any tag.
    Any,
}

impl TagPattern {
    /// `true` if `tag` satisfies this pattern.
    pub fn matches(&self, tag: u64) -> bool {
        match self {
            TagPattern::Exact(t) => *t == tag,
            TagPattern::Any => true,
        }
    }
}

/// A receive posted by the application, waiting for a matching message.
#[derive(Debug)]
pub(crate) struct PostedRecv {
    pub pattern: TagPattern,
    pub req: Request,
}

/// An eager message that arrived before its receive was posted.
#[derive(Debug)]
pub(crate) struct UnexpectedMsg {
    pub tag: u64,
    pub seq: u32,
    pub data: Bytes,
}

/// An RTS that arrived before its receive was posted.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingRts {
    pub tag: u64,
    pub seq: u32,
    pub total: u32,
}

/// A message the resequencer is holding back because an earlier one has
/// not arrived yet. Eager and rendezvous share the sequence space, so
/// either protocol can be the one parked behind a gap.
#[derive(Debug)]
pub(crate) enum Parked {
    Eager(UnexpectedMsg),
    Rts(PendingRts),
}

impl Parked {
    fn seq(&self) -> u32 {
        match self {
            Parked::Eager(m) => m.seq,
            Parked::Rts(r) => r.seq,
        }
    }
}

/// An in-progress inbound rendezvous reassembly.
pub(crate) struct RdvRecv {
    pub tag: u64,
    pub seq: u32,
    pub total: u32,
    pub received: u32,
    /// `total` bytes, zeroed, from the reassembly cache.
    pub buf: Pooled,
    pub req: Request,
    /// Offsets (→ lengths) already written, so a redelivered DATA chunk
    /// cannot double-count `received` and complete with torn data.
    pub chunks: BTreeMap<u32, u32>,
}

/// What [`RdvRecv::mark_chunk`] made of an arriving chunk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChunkMark {
    /// New bytes: write them and count them.
    New,
    /// Exactly a chunk already received: a redelivery.
    Duplicate,
    /// Covers part of a chunk already received. No sender cuts a message
    /// that way; counting it would complete the receive with a hole.
    Overlap,
}

impl RdvRecv {
    /// Records the non-empty chunk `offset..offset + len`, which lies
    /// within `total`, unless it repeats or overlaps one already received.
    pub fn mark_chunk(&mut self, offset: u32, len: u32) -> ChunkMark {
        if let Some((&o, &l)) = self.chunks.range(..=offset).next_back() {
            if (o, l) == (offset, len) {
                return ChunkMark::Duplicate;
            }
            if o + l > offset {
                return ChunkMark::Overlap;
            }
        }
        if self.chunks.range(offset + 1..offset + len).next().is_some() {
            return ChunkMark::Overlap;
        }
        self.chunks.insert(offset, len);
        ChunkMark::New
    }
}

/// An outbound rendezvous waiting for its CTS.
pub(crate) struct RdvSend {
    pub tag: u64,
    pub seq: u32,
    pub data: Bytes,
    pub req: Request,
}

/// Completion tracker shared by the chunks of one rendezvous send: the
/// send request completes when the last chunk hits the wire.
pub(crate) struct RdvSendDone {
    pub remaining: AtomicUsize,
    pub req: Request,
}

impl RdvSendDone {
    /// Decrements; completes the request on the last chunk.
    pub fn chunk_posted(&self) {
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.req.complete();
        }
    }
}

/// A packet queued in a transfer-layer list.
pub(crate) struct XferItem {
    pub packet: OutPacket,
    /// Eager requests completed when this packet is injected.
    pub complete_on_post: Vec<Request>,
    /// Rendezvous chunk bookkeeping.
    pub rdv_done: Option<Arc<RdvSendDone>>,
    /// Observability span carried in this packet's frame header (0 =
    /// none). Survives failover so a restriped packet stays on its
    /// message timeline.
    pub span: u64,
}

/// One frame in a lane's retransmit window: the un-framed packet plus its
/// backoff clock. The packet is kept pre-framing so a failover can
/// re-sequence it on a surviving lane.
pub(crate) struct UnackedFrame {
    pub wseq: u32,
    pub packet: OutPacket,
    /// Observability span of the frame (0 = none); retransmits and
    /// failover re-stripes re-attach it so the retry tail of a message
    /// stays attributable.
    pub span: u64,
    /// Retransmits of this frame so far (resets when an ack advances the
    /// window).
    pub attempts: u32,
    /// Monotonic deadline of the next retransmit.
    pub retx_at_ns: u64,
}

/// Per-lane reliability-protocol state (its own `Retrans` lock class,
/// ordered between the lane's VCI section and its driver section).
#[derive(Default)]
pub(crate) struct RelState {
    /// Next wire sequence number to assign on this lane.
    pub next_tx_wseq: u32,
    /// Sent-but-unacknowledged frames, ascending `wseq`.
    pub unacked: VecDeque<UnackedFrame>,
    /// Next wire sequence number expected from the peer.
    pub rx_expected: u32,
    /// Frames received ahead of `rx_expected`, buffered for in-order
    /// release (bounded by the peer's send window). Each entry keeps the
    /// frame's span so dispatch can attribute the delivery after the
    /// gap fills.
    pub rx_ooo: BTreeMap<u32, (Bytes, u64)>,
    /// Data arrived since the last acknowledgement went out.
    pub ack_pending: bool,
    /// Consecutive frames that exhausted their retries (failover trigger).
    pub exhaustions: u32,
    /// A retransmit timer is scheduled for this lane.
    pub timer_armed: bool,
}

/// Inserts `item` into a per-tag bin kept ascending by `seq`.
///
/// Arrivals are almost always in order (the resequencer releases eager
/// messages gap-free, rendezvous ids are allocated monotonically), so the
/// common case is a cheap `push_back`; multi-rail reordering falls back to
/// a binary-search insert.
fn bin_insert_by_seq<T>(bin: &mut VecDeque<T>, item: T, seq_of: impl Fn(&T) -> u32) {
    let seq = seq_of(&item);
    match bin.back() {
        Some(last) if seq_of(last) > seq => {
            let idx = bin.partition_point(|m| seq_of(m) < seq);
            bin.insert(idx, item);
        }
        _ => bin.push_back(item),
    }
}

/// Receive-side matching state (collect-layer domain, one per gate).
///
/// Matching is O(1) expected: posted receives, unexpected messages and
/// pending RTS live in per-tag hash bins instead of one linear list.
/// MPI ordering semantics are preserved exactly:
///
/// * **Posted receives** carry a global post-order stamp. Exact-tag
///   receives bin by tag (FIFO within the bin); wildcard (`Any`)
///   receives keep their own FIFO. An incoming tag takes whichever of
///   the two candidates was posted first — identical to scanning one
///   combined list in post order (per-tag FIFO non-overtaking, and a
///   wildcard never overtakes an earlier exact post or vice versa).
/// * **Unexpected messages / pending RTS** bin by tag with each bin kept
///   ascending by sequence number; a `BTreeMap` keyed by seq indexes the
///   whole gate so a wildcard receive takes the earliest-seq message
///   across all tags — identical to the old `min_by_key(seq)` scan.
///   Sequence numbers are unique per gate (eager and rendezvous ids
///   come from one monotonic per-gate counter), so the seq indexes are
///   collision-free and a receive can arbitrate between a buffered
///   eager message and a buffered RTS by comparing their seqs.
///
/// The `proptest_matching` integration test drives this structure and
/// the original linear-scan implementation (kept there as an oracle)
/// through random interleavings and asserts identical match order.
#[derive(Default)]
pub(crate) struct RxState {
    /// Global post-order stamp for posted receives.
    post_order: u64,
    /// Exact-tag posted receives, binned by tag, FIFO per bin; entries
    /// carry their post-order stamp.
    posted_exact: HashMap<u64, VecDeque<(u64, PostedRecv)>>,
    /// Wildcard posted receives, FIFO, with post-order stamps.
    posted_any: VecDeque<(u64, PostedRecv)>,
    /// Total posted receives across both structures.
    posted_len: usize,
    /// Unexpected eager messages, binned by tag, ascending seq.
    unexpected: HashMap<u64, VecDeque<UnexpectedMsg>>,
    /// seq → tag over all unexpected messages (wildcard earliest-seq).
    unexpected_by_seq: BTreeMap<u32, u64>,
    /// RTS that arrived before their receive, binned by tag, ascending seq.
    pending_rts: HashMap<u64, VecDeque<PendingRts>>,
    /// seq → tag over all pending RTS.
    pending_rts_by_seq: BTreeMap<u32, u64>,
    /// In-progress inbound reassemblies, keyed by rendezvous id.
    rdv_in: HashMap<u32, RdvRecv>,
    /// Next message sequence number the resequencer will release
    /// (eager and RTS alike — one shared space).
    pub expected_seq: u32,
    /// Out-of-order messages awaiting their turn, keyed by seq.
    ooo: HashMap<u32, Parked>,
}

impl RxState {
    /// Adds a posted receive (FIFO in global post order).
    pub fn post(&mut self, recv: PostedRecv) {
        let stamp = self.post_order;
        self.post_order += 1;
        match recv.pattern {
            TagPattern::Exact(tag) => {
                self.posted_exact
                    .entry(tag)
                    .or_default()
                    .push_back((stamp, recv));
            }
            TagPattern::Any => self.posted_any.push_back((stamp, recv)),
        }
        self.posted_len += 1;
        crate::metrics::posted_depth().add(1);
    }

    /// Takes the first posted receive whose pattern matches `tag`:
    /// the earlier-posted of the tag's exact bin front and the wildcard
    /// queue front. Receives whose request already finished (cancelled
    /// by the application) are reaped here instead of matching.
    pub fn take_posted(&mut self, tag: u64) -> Option<PostedRecv> {
        loop {
            let exact_stamp = self
                .posted_exact
                .get(&tag)
                .and_then(|bin| bin.front())
                .map(|(stamp, _)| *stamp);
            let any_stamp = self.posted_any.front().map(|(stamp, _)| *stamp);
            let recv = match (exact_stamp, any_stamp) {
                (Some(e), Some(a)) if a < e => self.posted_any.pop_front().map(|(_, r)| r),
                (Some(_), _) => {
                    let bin = self.posted_exact.get_mut(&tag).expect("front checked");
                    let recv = bin.pop_front().map(|(_, r)| r);
                    if bin.is_empty() {
                        self.posted_exact.remove(&tag);
                    }
                    recv
                }
                (None, Some(_)) => self.posted_any.pop_front().map(|(_, r)| r),
                (None, None) => None,
            }?;
            debug_assert!(recv.pattern.matches(tag), "bin lookup broke matching");
            self.posted_len -= 1;
            crate::metrics::posted_depth().sub(1);
            if recv.req.is_complete() {
                // Cancelled while posted: drop the entry and keep looking.
                continue;
            }
            return Some(recv);
        }
    }

    /// Reaps posted receives whose request already finished (cancelled).
    /// Returns how many entries were removed.
    pub fn prune_cancelled(&mut self) -> usize {
        let before = self.posted_len;
        self.posted_any.retain(|(_, r)| !r.req.is_complete());
        self.posted_exact.retain(|_, bin| {
            bin.retain(|(_, r)| !r.req.is_complete());
            !bin.is_empty()
        });
        self.posted_len =
            self.posted_any.len() + self.posted_exact.values().map(VecDeque::len).sum::<usize>();
        let reaped = before - self.posted_len;
        if reaped > 0 {
            crate::metrics::posted_depth().sub(reaped as i64);
        }
        reaped
    }

    /// Buffers an unexpected message. Returns `false` (dropping `msg`)
    /// if a message with the same sequence number is already buffered —
    /// a redelivery on a lossy wire, not a new message.
    pub fn push_unexpected(&mut self, msg: UnexpectedMsg) -> bool {
        if self.unexpected_by_seq.contains_key(&msg.seq) {
            return false;
        }
        self.unexpected_by_seq.insert(msg.seq, msg.tag);
        let bin = self.unexpected.entry(msg.tag).or_default();
        bin_insert_by_seq(bin, msg, |m| m.seq);
        crate::metrics::unexpected_depth().add(1);
        true
    }

    /// Takes the earliest buffered message (unexpected) matching `pattern`.
    pub fn take_unexpected_matching(&mut self, pattern: TagPattern) -> Option<UnexpectedMsg> {
        let tag = match pattern {
            TagPattern::Exact(tag) => tag,
            // The global earliest seq; within its tag's ascending bin it
            // is necessarily the front.
            TagPattern::Any => *self.unexpected_by_seq.first_key_value()?.1,
        };
        let bin = self.unexpected.get_mut(&tag)?;
        let msg = bin.pop_front()?;
        if bin.is_empty() {
            self.unexpected.remove(&tag);
        }
        self.unexpected_by_seq.remove(&msg.seq);
        crate::metrics::unexpected_depth().sub(1);
        Some(msg)
    }

    /// Takes the earliest-sequence unexpected message with `tag`.
    #[cfg(test)]
    pub fn take_unexpected(&mut self, tag: u64) -> Option<UnexpectedMsg> {
        self.take_unexpected_matching(TagPattern::Exact(tag))
    }

    /// Sequence number of the earliest buffered unexpected message
    /// matching `pattern`, without removing it.
    pub fn peek_unexpected_seq(&self, pattern: TagPattern) -> Option<u32> {
        match pattern {
            TagPattern::Exact(tag) => self.unexpected.get(&tag)?.front().map(|m| m.seq),
            TagPattern::Any => self.unexpected_by_seq.first_key_value().map(|(s, _)| *s),
        }
    }

    /// Sequence number of the earliest pending RTS matching `pattern`,
    /// without removing it.
    pub fn peek_pending_rts_seq(&self, pattern: TagPattern) -> Option<u32> {
        match pattern {
            TagPattern::Exact(tag) => self.pending_rts.get(&tag)?.front().map(|r| r.seq),
            TagPattern::Any => self.pending_rts_by_seq.first_key_value().map(|(s, _)| *s),
        }
    }

    /// Buffers an RTS that found no posted receive. Duplicates (same
    /// rendezvous id, a redelivery) are dropped and reported `false`.
    pub fn push_pending_rts(&mut self, rts: PendingRts) -> bool {
        if self.pending_rts_by_seq.contains_key(&rts.seq) {
            return false;
        }
        self.pending_rts_by_seq.insert(rts.seq, rts.tag);
        let bin = self.pending_rts.entry(rts.tag).or_default();
        bin_insert_by_seq(bin, rts, |r| r.seq);
        true
    }

    /// Takes the earliest pending RTS matching `pattern`.
    pub fn take_pending_rts(&mut self, pattern: TagPattern) -> Option<PendingRts> {
        let tag = match pattern {
            TagPattern::Exact(tag) => tag,
            TagPattern::Any => *self.pending_rts_by_seq.first_key_value()?.1,
        };
        let bin = self.pending_rts.get_mut(&tag)?;
        let rts = bin.pop_front()?;
        if bin.is_empty() {
            self.pending_rts.remove(&tag);
        }
        self.pending_rts_by_seq.remove(&rts.seq);
        Some(rts)
    }

    /// Starts tracking an inbound rendezvous reassembly.
    pub fn rdv_in_insert(&mut self, rdv: RdvRecv) {
        let prev = self.rdv_in.insert(rdv.seq, rdv);
        debug_assert!(prev.is_none(), "duplicate rendezvous id");
    }

    /// Whether a reassembly for rendezvous id `seq` is active (guards
    /// against redelivered RTS frames).
    pub fn rdv_in_contains(&self, seq: u32) -> bool {
        self.rdv_in.contains_key(&seq)
    }

    /// The active reassembly for rendezvous id `seq`, if any.
    pub fn rdv_in_get_mut(&mut self, seq: u32) -> Option<&mut RdvRecv> {
        self.rdv_in.get_mut(&seq)
    }

    /// Finishes (removes) the reassembly for rendezvous id `seq`.
    pub fn rdv_in_remove(&mut self, seq: u32) -> Option<RdvRecv> {
        self.rdv_in.remove(&seq)
    }

    /// Parks a message that arrived ahead of the resequencer. Returns
    /// `false` (dropping `msg`) if that sequence number is already
    /// parked — a redelivery, not a new message.
    pub fn push_ooo(&mut self, msg: Parked) -> bool {
        match self.ooo.entry(msg.seq()) {
            std::collections::hash_map::Entry::Occupied(_) => false,
            std::collections::hash_map::Entry::Vacant(v) => {
                v.insert(msg);
                true
            }
        }
    }

    /// Releases the parked message with sequence `seq`, if present.
    pub fn take_ooo(&mut self, seq: u32) -> Option<Parked> {
        self.ooo.remove(&seq)
    }

    /// Number of posted receives waiting for a match.
    pub fn posted_len(&self) -> usize {
        self.posted_len
    }

    /// Number of buffered unexpected messages.
    pub fn unexpected_len(&self) -> usize {
        self.unexpected_by_seq.len()
    }

    /// Number of buffered RTS without a posted receive.
    pub fn pending_rts_len(&self) -> usize {
        self.pending_rts_by_seq.len()
    }

    /// Number of in-progress inbound reassemblies.
    pub fn rdv_in_len(&self) -> usize {
        self.rdv_in.len()
    }

    /// Number of parked out-of-order messages.
    pub fn ooo_len(&self) -> usize {
        self.ooo.len()
    }
}

impl Drop for RxState {
    fn drop(&mut self) {
        // Keep the library-wide depth gauges honest when a core is torn
        // down with receives still posted or messages still buffered.
        if self.posted_len > 0 {
            crate::metrics::posted_depth().sub(self.posted_len as i64);
        }
        let unexpected = self.unexpected_by_seq.len();
        if unexpected > 0 {
            crate::metrics::unexpected_depth().sub(unexpected as i64);
        }
    }
}

/// Send-side collect/rendezvous state (collect-layer domain, one per gate).
#[derive(Default)]
pub(crate) struct TxState {
    /// The per-gate submit list the optimization layer schedules from.
    pub queue: VecDeque<SendItem>,
    /// Outbound rendezvous waiting for CTS, keyed by rendezvous id.
    pub rdv_out: HashMap<u32, RdvSend>,
}

impl TxState {
    /// Registers an outbound rendezvous awaiting its CTS.
    pub fn rdv_out_insert(&mut self, rdv: RdvSend) {
        let prev = self.rdv_out.insert(rdv.seq, rdv);
        debug_assert!(prev.is_none(), "duplicate rendezvous id");
    }

    /// Claims the rendezvous `seq` on CTS arrival.
    pub fn rdv_out_remove(&mut self, seq: u32) -> Option<RdvSend> {
        self.rdv_out.remove(&seq)
    }
}

/// One peer connection: its rails, their VCI lanes, and all shared
/// per-layer lists.
///
/// The collect-layer state is sharded: `tx` and `rx` belong to this
/// gate's own `CollectTx`/`CollectRx` lock classes, so flows on distinct
/// gates never contend in fine-grain mode.
///
/// Below the collect layer everything is per **lane** — one (rail, VCI)
/// pair. A rail whose driver exposes `num_vcis() == n` contributes `n`
/// lanes, each with its own transfer queue (`Vci` section), its own
/// reliability window (`Retrans` section), and its own driver context
/// (`Driver` section), so concurrent flows pinned to different lanes
/// share no transfer-layer lock at all. With single-VCI drivers the lane
/// table collapses to one lane per rail and every index matches the old
/// per-rail layout exactly.
pub(crate) struct Gate {
    /// Diagnostic identity; used by Debug formatting and trace events.
    pub id: GateId,
    /// The rails (one driver per rail) to this peer.
    pub drivers: Vec<Arc<dyn Driver>>,
    /// Lane table: lane index → (rail, vci). Built from each driver's
    /// `num_vcis()`, rail-major.
    pub lanes: Vec<(usize, usize)>,
    /// Index of this gate's first lane in the lock policy's arrays.
    pub driver_base: usize,
    /// Next message sequence number. Eager messages and rendezvous ids
    /// share one space: the receiver's resequencer sees a gap-free
    /// stream over *all* messages, so an eager send can never be
    /// overtaken by a later rendezvous (or vice versa) when the two ride
    /// different lanes.
    pub next_seq: AtomicU32,
    /// Collect-layer send state (gate's own CollectTx section).
    pub tx: Protected<TxState>,
    /// Collect-layer receive state (gate's own CollectRx section).
    pub rx: Protected<RxState>,
    /// Transfer-layer outgoing lists, one per lane (`Vci` sections).
    pub xfer: Vec<Protected<VecDeque<XferItem>>>,
    /// Reliability-protocol state, one per lane (`Retrans` sections).
    pub rel: Vec<Protected<RelState>>,
    /// Lanes declared dead by failover (relaxed: a racy hint is fine,
    /// the retransmit path re-checks under its section).
    pub lane_dead: Vec<AtomicBool>,
    /// Round-robin cursor for lane selection.
    pub rr_lane: AtomicUsize,
}

impl Gate {
    pub fn new(id: GateId, drivers: Vec<Arc<dyn Driver>>, driver_base: usize) -> Self {
        assert!(!drivers.is_empty(), "a gate needs at least one rail");
        let mut lanes = Vec::new();
        for (rail, d) in drivers.iter().enumerate() {
            let n = d.num_vcis().max(1);
            lanes.extend((0..n).map(|vci| (rail, vci)));
        }
        let xfer = (0..lanes.len())
            .map(|lane| Protected::new(SectionKind::Vci(driver_base + lane), VecDeque::new()))
            .collect();
        let rel = (0..lanes.len())
            .map(|lane| {
                Protected::new(
                    SectionKind::Retrans(driver_base + lane),
                    RelState::default(),
                )
            })
            .collect();
        let lane_dead = (0..lanes.len()).map(|_| AtomicBool::new(false)).collect();
        Gate {
            id,
            drivers,
            lanes,
            driver_base,
            next_seq: AtomicU32::new(0),
            tx: Protected::new(SectionKind::CollectTx(id.0), TxState::default()),
            rx: Protected::new(SectionKind::CollectRx(id.0), RxState::default()),
            xfer,
            rel,
            lane_dead,
            rr_lane: AtomicUsize::new(0),
        }
    }

    /// Number of lanes (sum of all rails' VCI counts).
    pub fn num_lanes(&self) -> usize {
        self.lanes.len()
    }

    /// The (rail, vci) pair behind lane index `lane`.
    pub fn lane_rail_vci(&self, lane: usize) -> (usize, usize) {
        self.lanes[lane]
    }

    /// Lane indices belonging to `rail`.
    #[cfg(test)]
    pub fn lanes_of_rail(&self, rail: usize) -> impl Iterator<Item = usize> + '_ {
        self.lanes
            .iter()
            .enumerate()
            .filter(move |(_, (r, _))| *r == rail)
            .map(|(lane, _)| lane)
    }

    /// Whether failover has declared `lane` dead.
    pub fn lane_is_dead(&self, lane: usize) -> bool {
        self.lane_dead[lane].load(Ordering::Relaxed)
    }

    /// Declares `lane` dead; `true` for the caller that made the
    /// transition (and must run the failover migration).
    pub fn mark_lane_dead(&self, lane: usize) -> bool {
        !self.lane_dead[lane].swap(true, Ordering::Relaxed)
    }

    /// Whether failover has declared every lane of `rail` dead.
    #[cfg(test)]
    pub fn rail_is_dead(&self, rail: usize) -> bool {
        self.lanes_of_rail(rail).all(|lane| self.lane_is_dead(lane))
    }

    /// Declares every lane of `rail` dead (a physical-NIC death takes
    /// all its VCI contexts with it); `true` if this call transitioned
    /// at least one lane (and must run the failover migration for the
    /// rail).
    #[cfg(test)]
    pub fn mark_rail_dead(&self, rail: usize) -> bool {
        let mut won = false;
        for lane in self.lanes_of_rail(rail) {
            // Mark every lane even after the first win: partial deaths
            // from a concurrent per-lane exhaustion must not leave
            // sibling lanes alive.
            won |= self.mark_lane_dead(lane);
        }
        won
    }

    /// Whether every lane of this gate is dead (the peer is unreachable).
    pub fn unreachable(&self) -> bool {
        self.lane_dead.iter().all(|d| d.load(Ordering::Relaxed))
    }

    /// Allocates the next message sequence number (eager and rendezvous
    /// draw from the same space).
    pub fn alloc_seq(&self) -> u32 {
        self.next_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Number of rails.
    #[cfg(test)]
    pub fn num_rails(&self) -> usize {
        self.drivers.len()
    }

    /// Smallest MTU across rails (bounds eager and aggregation sizes).
    pub fn min_mtu(&self) -> usize {
        self.drivers
            .iter()
            .map(|d| d.caps().mtu)
            .min()
            .expect("gate has at least one rail")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestKind;

    fn unexpected(tag: u64, seq: u32) -> UnexpectedMsg {
        UnexpectedMsg {
            tag,
            seq,
            data: Bytes::new(),
        }
    }

    #[test]
    fn take_unexpected_picks_lowest_seq() {
        let mut rx = RxState::default();
        for (seq, tag) in [(5u32, 1u64), (2, 1), (9, 2), (3, 1)] {
            rx.push_unexpected(unexpected(tag, seq));
        }
        assert_eq!(rx.take_unexpected(1).unwrap().seq, 2);
        assert_eq!(rx.take_unexpected(1).unwrap().seq, 3);
        assert_eq!(rx.take_unexpected(1).unwrap().seq, 5);
        assert!(rx.take_unexpected(1).is_none());
        assert_eq!(rx.take_unexpected(2).unwrap().seq, 9);
    }

    #[test]
    fn wildcard_takes_earliest_seq_across_tags() {
        let mut rx = RxState::default();
        for (seq, tag) in [(7u32, 1u64), (2, 3), (4, 1), (9, 2)] {
            rx.push_unexpected(unexpected(tag, seq));
        }
        let order: Vec<u32> =
            std::iter::from_fn(|| rx.take_unexpected_matching(TagPattern::Any).map(|m| m.seq))
                .collect();
        assert_eq!(order, vec![2, 4, 7, 9]);
        assert_eq!(rx.unexpected_len(), 0);
    }

    #[test]
    fn take_posted_is_fifo_per_tag() {
        let mut rx = RxState::default();
        let (r1, r2) = (
            Request::new(RequestKind::Recv),
            Request::new(RequestKind::Recv),
        );
        rx.post(PostedRecv {
            pattern: TagPattern::Exact(1),
            req: r1.clone(),
        });
        rx.post(PostedRecv {
            pattern: TagPattern::Exact(1),
            req: r2.clone(),
        });
        let first = rx.take_posted(1).unwrap();
        first.req.complete();
        assert!(r1.is_complete());
        assert!(!r2.is_complete());
        assert!(rx.take_posted(7).is_none());
    }

    #[test]
    fn posted_wildcard_does_not_overtake_earlier_exact() {
        let mut rx = RxState::default();
        let (exact, any) = (
            Request::new(RequestKind::Recv),
            Request::new(RequestKind::Recv),
        );
        rx.post(PostedRecv {
            pattern: TagPattern::Exact(5),
            req: exact.clone(),
        });
        rx.post(PostedRecv {
            pattern: TagPattern::Any,
            req: any.clone(),
        });
        // Tag 5 matches both; the exact receive was posted first.
        rx.take_posted(5).unwrap().req.complete();
        assert!(exact.is_complete());
        assert!(!any.is_complete());
        // The wildcard is next in line for any tag.
        rx.take_posted(5).unwrap().req.complete();
        assert!(any.is_complete());
        assert_eq!(rx.posted_len(), 0);
    }

    #[test]
    fn posted_earlier_wildcard_beats_later_exact() {
        let mut rx = RxState::default();
        let (any, exact) = (
            Request::new(RequestKind::Recv),
            Request::new(RequestKind::Recv),
        );
        rx.post(PostedRecv {
            pattern: TagPattern::Any,
            req: any.clone(),
        });
        rx.post(PostedRecv {
            pattern: TagPattern::Exact(5),
            req: exact.clone(),
        });
        rx.take_posted(5).unwrap().req.complete();
        assert!(any.is_complete());
        assert!(!exact.is_complete());
    }

    #[test]
    fn pending_rts_wildcard_earliest_seq() {
        let mut rx = RxState::default();
        for (seq, tag) in [(6u32, 2u64), (1, 9), (3, 2)] {
            rx.push_pending_rts(PendingRts { tag, seq, total: 1 });
        }
        assert_eq!(rx.take_pending_rts(TagPattern::Any).unwrap().seq, 1);
        assert_eq!(rx.take_pending_rts(TagPattern::Exact(2)).unwrap().seq, 3);
        assert_eq!(rx.take_pending_rts(TagPattern::Any).unwrap().seq, 6);
        assert!(rx.take_pending_rts(TagPattern::Any).is_none());
    }

    #[test]
    fn rdv_in_keyed_by_seq() {
        let mut rx = RxState::default();
        for seq in [4u32, 8] {
            rx.rdv_in_insert(RdvRecv {
                tag: 1,
                seq,
                total: 2,
                received: 0,
                buf: crate::recycle::REASSEMBLY.zeroed(2),
                req: Request::new(RequestKind::Recv),
                chunks: BTreeMap::new(),
            });
        }
        assert_eq!(rx.rdv_in_len(), 2);
        rx.rdv_in_get_mut(8).unwrap().received = 1;
        assert!(rx.rdv_in_get_mut(5).is_none());
        let done = rx.rdv_in_remove(8).unwrap();
        assert_eq!(done.received, 1);
        assert_eq!(rx.rdv_in_len(), 1);
    }

    #[test]
    fn overlapping_chunks_are_refused() {
        let mut r = RdvRecv {
            tag: 1,
            seq: 0,
            total: 64,
            received: 0,
            buf: crate::recycle::REASSEMBLY.zeroed(64),
            req: Request::new(RequestKind::Recv),
            chunks: BTreeMap::new(),
        };
        assert_eq!(r.mark_chunk(16, 16), ChunkMark::New);
        assert_eq!(r.mark_chunk(16, 16), ChunkMark::Duplicate);
        for (offset, len) in [(16, 8), (8, 16), (24, 16), (0, 64), (31, 1), (20, 4)] {
            assert_eq!(
                r.mark_chunk(offset, len),
                ChunkMark::Overlap,
                "{offset}+{len}"
            );
        }
        assert_eq!(r.mark_chunk(0, 16), ChunkMark::New);
        assert_eq!(r.mark_chunk(32, 32), ChunkMark::New);
        assert_eq!(r.chunks.len(), 3);
    }

    #[test]
    fn rdv_out_keyed_by_seq() {
        let mut tx = TxState::default();
        for seq in [0u32, 1] {
            tx.rdv_out_insert(RdvSend {
                tag: 3,
                seq,
                data: Bytes::new(),
                req: Request::new(RequestKind::Send),
            });
        }
        assert!(tx.rdv_out_remove(2).is_none());
        assert_eq!(tx.rdv_out_remove(1).unwrap().seq, 1);
        assert_eq!(tx.rdv_out.len(), 1);
    }

    #[test]
    fn depth_counters_track_posts_and_takes() {
        let mut rx = RxState::default();
        rx.post(PostedRecv {
            pattern: TagPattern::Any,
            req: Request::new(RequestKind::Recv),
        });
        rx.post(PostedRecv {
            pattern: TagPattern::Exact(1),
            req: Request::new(RequestKind::Recv),
        });
        assert_eq!(rx.posted_len(), 2);
        rx.take_posted(1).unwrap();
        assert_eq!(rx.posted_len(), 1);
        rx.push_unexpected(unexpected(1, 0));
        assert_eq!(rx.unexpected_len(), 1);
        rx.take_unexpected_matching(TagPattern::Any).unwrap();
        assert_eq!(rx.unexpected_len(), 0);
    }

    #[test]
    fn rdv_send_done_completes_on_last_chunk() {
        let req = Request::new(RequestKind::Send);
        let done = RdvSendDone {
            remaining: AtomicUsize::new(3),
            req: req.clone(),
        };
        done.chunk_posted();
        done.chunk_posted();
        assert!(!req.is_complete());
        done.chunk_posted();
        assert!(req.is_complete());
    }

    #[test]
    fn gate_seq_allocation_is_monotonic() {
        let (a, _b) = nm_fabric::LoopbackDriver::pair(4);
        let gate = Gate::new(GateId(0), vec![Arc::new(a)], 0);
        assert_eq!(gate.alloc_seq(), 0);
        assert_eq!(gate.alloc_seq(), 1);
        assert_eq!(gate.alloc_seq(), 2);
        assert_eq!(gate.num_rails(), 1);
        assert_eq!(gate.num_lanes(), 1);
        assert_eq!(gate.lane_rail_vci(0), (0, 0));
    }

    #[test]
    fn lane_table_is_rail_major_over_vcis() {
        let clock = nm_fabric::ClockSource::manual();
        let (na, _nb) = nm_fabric::SimNic::pair_vcis("r0", nm_fabric::WireModel::ideal(), clock, 2);
        let (lb, _peer) = nm_fabric::LoopbackDriver::pair(4);
        let gate = Gate::new(
            GateId(0),
            vec![
                Arc::new(nm_fabric::SimNicDriver::new(na, true)),
                Arc::new(lb),
            ],
            0,
        );
        assert_eq!(gate.num_rails(), 2);
        assert_eq!(gate.num_lanes(), 3);
        assert_eq!(gate.lane_rail_vci(0), (0, 0));
        assert_eq!(gate.lane_rail_vci(1), (0, 1));
        assert_eq!(gate.lane_rail_vci(2), (1, 0));
        assert_eq!(gate.lanes_of_rail(0).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(gate.lanes_of_rail(1).collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn rail_death_is_the_death_of_all_its_lanes() {
        let clock = nm_fabric::ClockSource::manual();
        let (na, _nb) = nm_fabric::SimNic::pair_vcis("r0", nm_fabric::WireModel::ideal(), clock, 2);
        let (lb, _peer) = nm_fabric::LoopbackDriver::pair(4);
        let gate = Gate::new(
            GateId(0),
            vec![
                Arc::new(nm_fabric::SimNicDriver::new(na, true)),
                Arc::new(lb),
            ],
            0,
        );
        // One VCI exhausting does not kill the rail.
        assert!(gate.mark_lane_dead(0));
        assert!(gate.lane_is_dead(0));
        assert!(!gate.rail_is_dead(0));
        // A rail death sweeps the surviving sibling lane too, and the
        // caller that transitioned it wins the migration duty.
        assert!(gate.mark_rail_dead(0));
        assert!(gate.rail_is_dead(0));
        assert!(!gate.mark_rail_dead(0));
        assert!(!gate.unreachable());
        assert!(gate.mark_rail_dead(1));
        assert!(gate.unreachable());
    }
}
