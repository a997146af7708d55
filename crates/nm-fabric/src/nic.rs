//! Simulated NIC endpoints.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use bytes::Bytes;

use nm_sync::stats::Counter;
use nm_sync::SpinLock;

use crate::{ClockSource, MpmcRing, WireModel};

/// A timestamped packet travelling on a wire.
#[derive(Debug)]
struct WirePacket {
    deliver_at_ns: u64,
    payload: Bytes,
}

/// One direction of a link: a bounded ring plus the time at which the wire
/// becomes free again (packets serialize on the wire).
struct Wire {
    /// Built by the first post: a context that never sends (an idle VCI,
    /// a stack torn down unused) never allocates or initialises its
    /// `tx_depth` slots.
    ring: OnceLock<MpmcRing<WirePacket>>,
    depth: usize,
    next_free_ns: AtomicU64,
    /// Payload bytes injected but not yet delivered (wire occupancy).
    occupancy_bytes: AtomicU64,
}

impl Wire {
    fn new(depth: usize) -> Self {
        Wire {
            ring: OnceLock::new(),
            depth: depth.max(1),
            next_free_ns: AtomicU64::new(0),
            occupancy_bytes: AtomicU64::new(0),
        }
    }

    /// Packets on the wire.
    fn len(&self) -> usize {
        self.ring.get().map_or(0, MpmcRing::len)
    }

    /// The ring, built on first use.
    fn tx_ring(&self) -> &MpmcRing<WirePacket> {
        self.ring.get_or_init(|| MpmcRing::new(self.depth))
    }

    fn pop(&self) -> Option<WirePacket> {
        self.ring.get()?.pop()
    }

    /// Reserves wire time for a packet of `tx_ns` serialization cost
    /// starting no earlier than `now`; returns the injection timestamp.
    fn reserve(&self, now: u64, tx_ns: u64) -> u64 {
        // relaxed: initial guess for the CAS loop; failure reloads.
        let mut cur = self.next_free_ns.load(Ordering::Relaxed);
        loop {
            let inject = cur.max(now);
            // relaxed: CAS failure just hands back the fresher value.
            match self.next_free_ns.compare_exchange_weak(
                cur,
                inject + tx_ns,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return inject,
                Err(actual) => cur = actual,
            }
        }
    }
}

/// Packet/byte counters of one NIC endpoint.
#[derive(Debug, Default)]
pub struct NicCounters {
    /// Packets injected into the wire.
    pub tx_packets: Counter,
    /// Payload bytes injected into the wire.
    pub tx_bytes: Counter,
    /// Packets delivered to this endpoint.
    pub rx_packets: Counter,
    /// Payload bytes delivered to this endpoint.
    pub rx_bytes: Counter,
}

/// One independent hardware context of a NIC — a virtual communication
/// interface (VCI) in the sense of Zambre et al.: its own tx/rx wire
/// pair, serialization clock and head-of-line stash, sharing nothing
/// with its siblings on the fast path.
struct VciCtx {
    tx: Arc<Wire>,
    rx: Arc<Wire>,
    /// Head-of-line packet popped from `rx` but not yet deliverable.
    /// Keeping it here preserves wire FIFO order across pollers.
    stash: SpinLock<Option<WirePacket>>,
}

/// One endpoint of a simulated point-to-point link.
///
/// Completion is **polling-based**, like MX or Verbs: nothing happens
/// unless someone calls [`SimNic::poll_recv`]. A packet becomes visible to
/// the receiver only once the clock passes its computed delivery time.
///
/// A NIC owns one or more VCI contexts ([`SimNic::pair_vcis`]); every
/// context has its own injection ring, wire serialization and completion
/// stash, so two threads driving different VCIs never touch shared
/// state. The VCI-less methods address context 0 (injection) or scan all
/// contexts (completion), which on a single-VCI NIC is exactly the
/// pre-VCI behaviour.
pub struct SimNic {
    name: String,
    model: WireModel,
    clock: ClockSource,
    vcis: Vec<VciCtx>,
    counters: NicCounters,
}

/// Error returned when the injection queue is full (NIC busy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxQueueFull;

impl SimNic {
    /// Creates a connected pair of endpoints over two wires of the given
    /// model, sharing `clock`. Equivalent to [`SimNic::pair_vcis`] with
    /// one context.
    pub fn pair(name: &str, model: WireModel, clock: ClockSource) -> (SimNic, SimNic) {
        Self::pair_vcis(name, model, clock, 1)
    }

    /// Creates a connected pair of endpoints with `n_vcis` independent
    /// contexts each. Context `v` of one side is wired to context `v` of
    /// the other; contexts never share a ring or a wire, so they
    /// serialize independently.
    pub fn pair_vcis(
        name: &str,
        model: WireModel,
        clock: ClockSource,
        n_vcis: usize,
    ) -> (SimNic, SimNic) {
        assert!(n_vcis >= 1, "a NIC needs at least one VCI context");
        let mut a_vcis = Vec::with_capacity(n_vcis);
        let mut b_vcis = Vec::with_capacity(n_vcis);
        for _ in 0..n_vcis {
            let a_to_b = Arc::new(Wire::new(model.tx_depth));
            let b_to_a = Arc::new(Wire::new(model.tx_depth));
            a_vcis.push(VciCtx {
                tx: Arc::clone(&a_to_b),
                rx: Arc::clone(&b_to_a),
                stash: SpinLock::new(None),
            });
            b_vcis.push(VciCtx {
                tx: b_to_a,
                rx: a_to_b,
                stash: SpinLock::new(None),
            });
        }
        let a = SimNic {
            name: format!("{name}.0"),
            model,
            clock: clock.clone(),
            vcis: a_vcis,
            counters: NicCounters::default(),
        };
        let b = SimNic {
            name: format!("{name}.1"),
            model,
            clock,
            vcis: b_vcis,
            counters: NicCounters::default(),
        };
        (a, b)
    }

    /// Endpoint name (link name + side).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The wire model of this link.
    pub fn model(&self) -> &WireModel {
        &self.model
    }

    /// The clock used for timestamps.
    pub fn clock(&self) -> &ClockSource {
        &self.clock
    }

    /// Traffic counters.
    pub fn counters(&self) -> &NicCounters {
        &self.counters
    }

    /// Number of independent VCI contexts of this endpoint.
    pub fn num_vcis(&self) -> usize {
        self.vcis.len()
    }

    /// `true` when the injection queue can accept another packet — the
    /// paper's "the NIC becomes idle" condition that triggers the
    /// optimization layer. Addresses VCI context 0.
    pub fn can_post(&self) -> bool {
        self.can_post_vci(0)
    }

    /// [`SimNic::can_post`] for one VCI context: each context has its own
    /// injection ring, so one context's saturation says nothing about
    /// another's.
    pub fn can_post_vci(&self, vci: usize) -> bool {
        self.vcis[vci].tx.len() < self.model.tx_depth
    }

    /// Injects a packet on VCI context 0.
    ///
    /// The payload must fit in the wire MTU (enforced; the transfer layer
    /// is responsible for splitting). Returns [`TxQueueFull`] when the
    /// injection queue is saturated.
    pub fn post_send(&self, payload: Bytes) -> Result<(), TxQueueFull> {
        self.post_send_vci(0, payload)
    }

    /// Injects a packet on one VCI context. Contexts serialize their own
    /// wires independently — no shared lock, ring or wire clock is
    /// touched on this path.
    pub fn post_send_vci(&self, vci: usize, payload: Bytes) -> Result<(), TxQueueFull> {
        assert!(
            payload.len() <= self.model.mtu,
            "payload {} exceeds wire MTU {}",
            payload.len(),
            self.model.mtu
        );
        let ctx = &self.vcis[vci];
        // Built before the clock is read, so a first post's ring setup
        // does not eat into the packet's modelled flight time.
        let ring = ctx.tx.tx_ring();
        if ring.len() >= self.model.tx_depth {
            return Err(TxQueueFull);
        }
        let now = self.clock.now_ns();
        let tx_ns = self.model.tx_time_ns(payload.len());
        let inject = ctx.tx.reserve(now, tx_ns);
        let deliver_at_ns = inject + tx_ns + self.model.latency_ns;
        let len = payload.len();
        let pkt = WirePacket {
            deliver_at_ns,
            payload,
        };
        let was_idle = ring.is_empty();
        // A racing producer may have filled the ring between the depth
        // check and this push; the reserved wire time then stays booked,
        // which only makes the model slightly conservative.
        ring.push(pkt).map_err(|_| TxQueueFull)?;
        self.counters.tx_packets.incr();
        self.counters.tx_bytes.add(len as u64);
        // relaxed: occupancy is a diagnostic aggregate; the ring push
        // above is what publishes the packet.
        ctx.tx
            .occupancy_bytes
            .fetch_add(len as u64, Ordering::Relaxed);
        crate::metrics::tx_packets().incr();
        crate::metrics::tx_bytes().add(len as u64);
        crate::metrics::inflight_bytes().add(len as i64);
        if self.vcis.len() > 1 {
            // Multi-VCI NICs additionally account their traffic under the
            // fabric.vci.* metrics (single-context NICs keep the pre-VCI
            // metric surface untouched).
            crate::metrics::vci_tx_packets().incr();
            crate::metrics::vci_inflight_bytes().add(len as i64);
        }
        nm_trace::trace_event!(PacketTx, len);
        if was_idle {
            nm_trace::trace_event!(NicIdle, 0u64);
        }
        Ok(())
    }

    /// Polls for a delivered packet; `None` if nothing is deliverable yet.
    /// Scans every VCI context in order (context 0 first), so on a
    /// single-VCI NIC this is exactly the pre-VCI behaviour.
    pub fn poll_recv(&self) -> Option<Bytes> {
        (0..self.vcis.len()).find_map(|v| self.poll_recv_vci(v))
    }

    /// Polls one VCI context for a delivered packet. Completion state
    /// (ring + stash) is per-context, so concurrent pollers on different
    /// VCIs do not contend.
    pub fn poll_recv_vci(&self, vci: usize) -> Option<Bytes> {
        let ctx = &self.vcis[vci];
        let now = self.clock.now_ns();
        let mut stash = ctx.stash.lock();
        let pkt = match stash.take() {
            Some(p) => p,
            None => ctx.rx.pop()?,
        };
        if pkt.deliver_at_ns <= now {
            self.counters.rx_packets.incr();
            self.counters.rx_bytes.add(pkt.payload.len() as u64);
            // relaxed: diagnostic aggregate, mirrors the tx-side add.
            ctx.rx
                .occupancy_bytes
                .fetch_sub(pkt.payload.len() as u64, Ordering::Relaxed);
            crate::metrics::rx_packets().incr();
            crate::metrics::rx_bytes().add(pkt.payload.len() as u64);
            crate::metrics::inflight_bytes().sub(pkt.payload.len() as i64);
            if self.vcis.len() > 1 {
                // Paired multi-VCI endpoints are symmetric, so the vci
                // gauge balances: what the peer added on post is
                // subtracted here on delivery.
                crate::metrics::vci_rx_packets().incr();
                crate::metrics::vci_inflight_bytes().sub(pkt.payload.len() as i64);
            }
            nm_trace::trace_event!(PacketRx, pkt.payload.len());
            if ctx.rx.len() == 0 {
                // Last in-flight packet delivered: the sending side's
                // injection queue (this wire) is drained — NIC idle.
                nm_trace::trace_event!(NicIdle, 1u64);
            }
            Some(pkt.payload)
        } else {
            *stash = Some(pkt);
            None
        }
    }

    /// Earliest pending delivery time, if any packet is in flight toward
    /// this endpoint (across all VCI contexts). The discrete-event
    /// simulator uses this to know how far it may advance the virtual
    /// clock.
    pub fn next_delivery_ns(&self) -> Option<u64> {
        (0..self.vcis.len())
            .filter_map(|v| self.next_delivery_ns_vci(v))
            .min()
    }

    /// Earliest pending delivery time on one VCI context.
    pub fn next_delivery_ns_vci(&self, vci: usize) -> Option<u64> {
        let ctx = &self.vcis[vci];
        let mut stash = ctx.stash.lock();
        if stash.is_none() {
            *stash = ctx.rx.pop();
        }
        stash.as_ref().map(|p| p.deliver_at_ns)
    }

    /// `true` if any packet (deliverable or in flight) is queued toward
    /// this endpoint on any VCI context.
    pub fn has_inbound(&self) -> bool {
        (0..self.vcis.len()).any(|v| self.has_inbound_vci(v))
    }

    /// [`SimNic::has_inbound`] for one VCI context.
    pub fn has_inbound_vci(&self, vci: usize) -> bool {
        let ctx = &self.vcis[vci];
        ctx.stash.lock().is_some() || ctx.rx.len() != 0
    }

    /// Payload bytes this endpoint has injected that the peer has not
    /// yet delivered — this NIC's outbound wire occupancy, summed over
    /// all VCI contexts.
    pub fn inflight_bytes(&self) -> u64 {
        (0..self.vcis.len())
            .map(|v| self.inflight_bytes_vci(v))
            .sum()
    }

    /// Outbound wire occupancy of one VCI context.
    pub fn inflight_bytes_vci(&self, vci: usize) -> u64 {
        // relaxed: advisory snapshot of a diagnostic aggregate.
        self.vcis[vci].tx.occupancy_bytes.load(Ordering::Relaxed)
    }
}

impl std::fmt::Debug for SimNic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimNic")
            .field("name", &self.name)
            .field("can_post", &self.can_post())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manual_pair(model: WireModel) -> (SimNic, SimNic, ClockSource) {
        let clock = ClockSource::manual();
        let (a, b) = SimNic::pair("test", model, clock.clone());
        (a, b, clock)
    }

    #[test]
    fn packet_not_visible_before_delivery_time() {
        let (a, b, clock) = manual_pair(WireModel::myri_10g());
        a.post_send(Bytes::from_static(b"x")).unwrap();
        assert_eq!(b.poll_recv(), None, "visible too early");
        clock.advance(2_000); // still short of latency + tx time
        assert_eq!(b.poll_recv(), None);
        clock.advance(200); // past 2_000 + 100 + 0.8 ns
        assert_eq!(b.poll_recv(), Some(Bytes::from_static(b"x")));
    }

    #[test]
    fn ideal_wire_delivers_immediately() {
        let (a, b, _clock) = manual_pair(WireModel::ideal());
        a.post_send(Bytes::from_static(b"now")).unwrap();
        assert_eq!(b.poll_recv(), Some(Bytes::from_static(b"now")));
    }

    #[test]
    fn wire_ring_is_built_by_the_first_post() {
        let (a, b, _clock) = manual_pair(WireModel::ideal());
        assert_eq!(b.poll_recv(), None);
        assert!(b.can_post() && !b.has_inbound());
        assert!(a.vcis[0].tx.ring.get().is_none() && b.vcis[0].tx.ring.get().is_none());
        a.post_send(Bytes::from_static(b"x")).unwrap();
        assert_eq!(a.vcis[0].tx.ring.get().map(MpmcRing::capacity), Some(1024));
        assert!(b.vcis[0].tx.ring.get().is_none(), "b never posted");
        assert_eq!(b.poll_recv(), Some(Bytes::from_static(b"x")));
    }

    #[test]
    fn fifo_order_preserved() {
        let (a, b, clock) = manual_pair(WireModel::myri_10g());
        for i in 0..5u8 {
            a.post_send(Bytes::copy_from_slice(&[i])).unwrap();
        }
        clock.advance(1_000_000);
        for i in 0..5u8 {
            assert_eq!(b.poll_recv().unwrap()[0], i);
        }
        assert_eq!(b.poll_recv(), None);
    }

    #[test]
    fn back_to_back_packets_serialize_on_the_wire() {
        let model = WireModel {
            latency_ns: 1_000,
            ns_per_byte: 1.0,
            per_packet_ns: 0,
            mtu: 4096,
            tx_depth: 8,
        };
        let (a, b, clock) = manual_pair(model);
        // Two 1000-byte packets injected at t=0: the second waits for the
        // first to leave the wire, so it lands at 1000(tx)+1000(tx)+1000(lat).
        a.post_send(Bytes::from(vec![0u8; 1000])).unwrap();
        a.post_send(Bytes::from(vec![1u8; 1000])).unwrap();
        clock.advance(2_000);
        assert!(b.poll_recv().is_some(), "first packet at 2 µs");
        assert!(b.poll_recv().is_none(), "second not yet");
        clock.advance(999);
        assert!(b.poll_recv().is_none());
        clock.advance(1);
        assert!(b.poll_recv().is_some(), "second packet at 3 µs");
    }

    #[test]
    fn tx_queue_fills_up() {
        let model = WireModel {
            tx_depth: 2,
            ..WireModel::myri_10g()
        };
        let (a, _b, _clock) = manual_pair(model);
        assert!(a.can_post());
        a.post_send(Bytes::from_static(b"1")).unwrap();
        a.post_send(Bytes::from_static(b"2")).unwrap();
        assert!(!a.can_post());
        assert_eq!(a.post_send(Bytes::from_static(b"3")), Err(TxQueueFull));
    }

    #[test]
    fn draining_receiver_frees_tx_queue() {
        let model = WireModel {
            tx_depth: 1,
            ..WireModel::ideal()
        };
        let (a, b, _clock) = manual_pair(model);
        a.post_send(Bytes::from_static(b"1")).unwrap();
        assert!(!a.can_post());
        assert!(b.poll_recv().is_some());
        assert!(a.can_post());
        a.post_send(Bytes::from_static(b"2")).unwrap();
        assert!(b.poll_recv().is_some());
    }

    #[test]
    #[should_panic(expected = "exceeds wire MTU")]
    fn oversized_payload_panics() {
        let model = WireModel {
            mtu: 8,
            ..WireModel::ideal()
        };
        let (a, _b, _c) = manual_pair(model);
        let _ = a.post_send(Bytes::from(vec![0u8; 9]));
    }

    #[test]
    fn counters_track_traffic() {
        let (a, b, clock) = manual_pair(WireModel::myri_10g());
        a.post_send(Bytes::from(vec![0u8; 100])).unwrap();
        clock.advance(10_000_000);
        b.poll_recv().unwrap();
        assert_eq!(a.counters().tx_packets.get(), 1);
        assert_eq!(a.counters().tx_bytes.get(), 100);
        assert_eq!(b.counters().rx_packets.get(), 1);
        assert_eq!(b.counters().rx_bytes.get(), 100);
    }

    #[test]
    fn inflight_bytes_track_wire_occupancy() {
        let (a, b, clock) = manual_pair(WireModel::myri_10g());
        assert_eq!(a.inflight_bytes(), 0);
        a.post_send(Bytes::from(vec![0u8; 64])).unwrap();
        a.post_send(Bytes::from(vec![0u8; 36])).unwrap();
        assert_eq!(a.inflight_bytes(), 100);
        clock.advance(10_000_000);
        b.poll_recv().unwrap();
        assert_eq!(a.inflight_bytes(), 36);
        b.poll_recv().unwrap();
        assert_eq!(a.inflight_bytes(), 0);
    }

    #[test]
    fn vcis_are_independent_contexts() {
        let model = WireModel {
            tx_depth: 1,
            ..WireModel::ideal()
        };
        let clock = ClockSource::manual();
        let (a, b) = SimNic::pair_vcis("vci", model, clock, 4);
        assert_eq!(a.num_vcis(), 4);
        // Saturating one context leaves the others postable.
        a.post_send_vci(2, Bytes::from_static(b"x")).unwrap();
        assert!(!a.can_post_vci(2));
        for v in [0usize, 1, 3] {
            assert!(a.can_post_vci(v), "vci {v} must be unaffected");
        }
        // Delivery is per-context: the packet arrives on the peer's
        // matching context and nowhere else.
        for v in [0usize, 1, 3] {
            assert_eq!(b.poll_recv_vci(v), None);
        }
        assert_eq!(b.poll_recv_vci(2), Some(Bytes::from_static(b"x")));
    }

    #[test]
    fn vci_wires_serialize_independently() {
        let model = WireModel {
            latency_ns: 1_000,
            ns_per_byte: 1.0,
            per_packet_ns: 0,
            mtu: 4096,
            tx_depth: 8,
        };
        let clock = ClockSource::manual();
        let (a, b) = SimNic::pair_vcis("par", model, clock.clone(), 2);
        // One 1000-byte packet per context at t=0: with a shared wire the
        // second would land at 3 µs; on dedicated per-VCI wires both land
        // at 2 µs.
        a.post_send_vci(0, Bytes::from(vec![0u8; 1000])).unwrap();
        a.post_send_vci(1, Bytes::from(vec![1u8; 1000])).unwrap();
        clock.advance(2_000);
        assert!(b.poll_recv_vci(0).is_some(), "vci 0 at 2 µs");
        assert!(b.poll_recv_vci(1).is_some(), "vci 1 at 2 µs too");
    }

    #[test]
    fn base_methods_aggregate_over_vcis() {
        let clock = ClockSource::manual();
        let (a, b) = SimNic::pair_vcis("agg", WireModel::ideal(), clock, 3);
        assert_eq!(a.inflight_bytes(), 0);
        assert!(!b.has_inbound());
        a.post_send_vci(1, Bytes::from(vec![0u8; 10])).unwrap();
        a.post_send_vci(2, Bytes::from(vec![0u8; 30])).unwrap();
        assert_eq!(a.inflight_bytes(), 40);
        assert_eq!(a.inflight_bytes_vci(1), 10);
        assert_eq!(a.inflight_bytes_vci(2), 30);
        assert!(b.has_inbound());
        assert!(b.next_delivery_ns().is_some());
        // The VCI-less poll scans every context.
        assert!(b.poll_recv().is_some());
        assert!(b.poll_recv().is_some());
        assert_eq!(b.poll_recv(), None);
        assert_eq!(a.inflight_bytes(), 0);
    }

    #[test]
    fn next_delivery_reports_earliest_packet() {
        let (a, b, clock) = manual_pair(WireModel::myri_10g());
        assert_eq!(b.next_delivery_ns(), None);
        a.post_send(Bytes::from_static(b"x")).unwrap();
        let t = b.next_delivery_ns().expect("in-flight packet visible");
        assert!(t >= 2_000);
        clock.advance_to(t);
        assert!(b.poll_recv().is_some());
    }

    #[test]
    fn real_clock_end_to_end() {
        // Warm this thread's trace ring: with the `trace` feature the
        // first emit allocates it, which can take longer than the wire
        // latency and make the packet look like it arrived instantly.
        nm_trace::emit(nm_trace::EventId::NicIdle, 1, 0);
        let clock = ClockSource::real();
        let model = WireModel {
            latency_ns: 200_000, // 200 µs so the test is robust
            ..WireModel::ideal()
        };
        let (a, b) = SimNic::pair("real", model, clock);
        a.post_send(Bytes::from_static(b"ping")).unwrap();
        assert_eq!(b.poll_recv(), None, "should not arrive instantly");
        let t0 = std::time::Instant::now();
        loop {
            if let Some(p) = b.poll_recv() {
                assert_eq!(&p[..], b"ping");
                break;
            }
            assert!(t0.elapsed().as_secs() < 5, "packet never arrived");
            std::hint::spin_loop();
        }
        assert!(t0.elapsed() >= std::time::Duration::from_micros(150));
    }
}
