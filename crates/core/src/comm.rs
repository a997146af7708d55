//! The communication core: collect, optimization and transfer layers.
//!
//! Data path (paper Fig 1):
//!
//! ```text
//!  application ── isend/irecv ──▶ collect layer (per-gate submit lists)
//!                                     │   when a NIC is idle
//!                                     ▼
//!                             optimization layer (Strategy:
//!                             aggregation, control-first reordering)
//!                                     │   arranged packet
//!                                     ▼
//!                             transfer layer (per-lane lists,
//!                             one lane per (rail, VCI) pair)
//!                                     │
//!                                     ▼
//!                                NIC drivers (per-VCI polling)
//! ```
//!
//! Small messages travel eagerly inside one packet; large ones use a
//! rendezvous (RTS → CTS → chunked DATA, chunks distributed round-robin
//! across the live lanes — the multirail optimization, extended to the
//! VCI contexts each rail's driver exposes). Every lane owns its own
//! transfer queue, reliability window, and driver context, so flows
//! pinned to different lanes never share a transfer-layer lock.

use std::sync::{Arc, Weak};
use std::time::Duration;

use bytes::Bytes;

use nm_progress::{now_ns, OffloadMode, Offloader, PollOutcome, PollSource, TimerWheel};
use nm_sync::WaitStrategy;

use crate::completion::Completion;
use crate::config::CoreConfig;
use crate::error::CommError;
use crate::gate::{
    ChunkMark, Gate, GateId, Parked, PendingRts, PostedRecv, RdvRecv, RdvSend, RdvSendDone,
    TagPattern, UnackedFrame, UnexpectedMsg, XferItem,
};
use crate::locking::{LockPolicy, SectionKind};
use crate::recycle;
use crate::request::{Request, RequestKind};
use crate::stats::CoreStats;
use crate::strategy::{SendItem, SendItemKind, Strategy};
use crate::wire::{
    decode_frame, decode_packet, encode_frame, encode_packet, Entry, Frame, OutPacket, WireError,
    ENTRY_HEADER, FRAME_ACK_ONLY, FRAME_HEADER, FRAME_RELIABLE, FRAME_SPAN_BYTES, PACKET_HEADER,
};

/// `a < b` in serial-number (wrapping) arithmetic over `u32` wire
/// sequence numbers.
fn seq_lt(a: u32, b: u32) -> bool {
    a.wrapping_sub(b) > u32::MAX / 2
}

/// Work scheduled on the core's timer wheel, serviced by progression
/// passes.
enum TimerItem {
    /// Check lane `lane` of gate `gate` for a retransmit timeout.
    Retx { gate: usize, lane: usize },
    /// Fail the request with [`CommError::Timeout`] unless it completed.
    Expire(Request),
}

/// Builder for a [`CommCore`]: configure, add gates, build.
pub struct CoreBuilder {
    config: CoreConfig,
    gates: Vec<Vec<Arc<dyn nm_fabric::Driver>>>,
}

impl CoreBuilder {
    /// Starts a builder with the given configuration.
    pub fn new(config: CoreConfig) -> Self {
        CoreBuilder {
            config,
            gates: Vec::new(),
        }
    }

    /// Adds a gate (peer connection) with one driver per rail. Gate ids
    /// are assigned in call order, starting at 0.
    pub fn add_gate(mut self, drivers: Vec<Arc<dyn nm_fabric::Driver>>) -> Self {
        assert!(!drivers.is_empty(), "a gate needs at least one rail");
        self.gates.push(drivers);
        self
    }

    /// Builds the core.
    ///
    /// # Panics
    /// Panics on inconsistent configuration: no gates, an eager threshold
    /// that cannot fit any rail's MTU, a deferred offload mode combined
    /// with single-thread locking, or tasklet offload without an engine.
    pub fn build(self) -> Arc<CommCore> {
        assert!(!self.gates.is_empty(), "at least one gate required");
        if self.config.offload != OffloadMode::Inline {
            assert!(
                self.config.locking.thread_safe(),
                "deferred offload runs on another thread; single-thread locking cannot be used"
            );
        }
        let offloader = Arc::new(Offloader::for_mode(
            self.config.offload,
            self.config.tasklet_engine.clone(),
        ));

        let mut gates = Vec::with_capacity(self.gates.len());
        let mut driver_base = 0;
        for (id, drivers) in self.gates.into_iter().enumerate() {
            let gate = Gate::new(GateId(id), drivers, driver_base);
            // FRAME_SPAN_BYTES is reserved whether or not tracing is
            // compiled in, so packing decisions are identical across
            // trace and non-trace builds.
            let needed = self.config.eager_threshold
                + ENTRY_HEADER
                + PACKET_HEADER
                + FRAME_HEADER
                + FRAME_SPAN_BYTES;
            assert!(
                gate.min_mtu() >= needed,
                "eager threshold {} does not fit rail MTU {} of gate {}",
                self.config.eager_threshold,
                gate.min_mtu(),
                id
            );
            driver_base += gate.num_lanes();
            gates.push(gate);
        }
        // `driver_base` now counts lanes, not rails: the policy sizes its
        // vci/retrans/driver arrays one entry per (rail, VCI) pair.
        let policy = LockPolicy::new(self.config.locking, gates.len(), driver_base);
        let strategy = self.config.strategy.build();

        Arc::new_cyclic(|weak| CommCore {
            config: self.config,
            policy,
            gates,
            strategy,
            offloader,
            stats: CoreStats::default(),
            timers: TimerWheel::new(),
            self_weak: weak.clone(),
        })
    }
}

/// The NewMadeleine-style communication core.
///
/// All methods take `&self` and are safe for concurrent callers under the
/// `Coarse` and `Fine` locking modes; `SingleThread` mode enforces its
/// single-caller restriction at runtime.
pub struct CommCore {
    config: CoreConfig,
    policy: LockPolicy,
    gates: Vec<Gate>,
    strategy: Box<dyn Strategy>,
    offloader: Arc<Offloader>,
    stats: CoreStats,
    /// Retransmit and request-deadline clocks, checked each progression
    /// pass (the wheel never blocks a thread).
    timers: TimerWheel<TimerItem>,
    self_weak: Weak<CommCore>,
}

impl CommCore {
    /// The active configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.config
    }

    /// Event counters.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// The lock policy (lock statistics for calibration benches).
    pub fn lock_policy(&self) -> &LockPolicy {
        &self.policy
    }

    /// The submission offloader. In `IdleCore` mode, register this (or the
    /// core itself plus periodic [`CommCore::drain_offload`] calls) with a
    /// progression engine so deferred submissions execute.
    pub fn offloader(&self) -> &Arc<Offloader> {
        &self.offloader
    }

    /// Number of gates.
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// Posts a non-blocking send of `data` to `gate` with `tag`.
    ///
    /// Messages up to the eager threshold complete locally once injected;
    /// larger messages complete when the last rendezvous chunk is
    /// injected.
    pub fn isend(&self, gate: GateId, tag: u64, data: Bytes) -> Result<Request, CommError> {
        self.isend_with(gate, tag, data, Completion::Flag)
    }

    /// Like [`CommCore::isend`], delivering completion through
    /// `completion` (queue push, handler call, or async waker wake-up)
    /// instead of only signalling the request's flag.
    pub fn isend_with(
        &self,
        gate: GateId,
        tag: u64,
        data: Bytes,
        completion: Completion,
    ) -> Result<Request, CommError> {
        let _t = crate::metrics::send_hist().timer();
        let g = self.gate(gate)?;
        if data.len() > u32::MAX as usize {
            return Err(CommError::MessageTooLarge { len: data.len() });
        }
        if self.config.reliability.enabled && g.unreachable() {
            return Err(CommError::PeerUnreachable);
        }
        let req = Request::new_with(RequestKind::Send, completion);
        self.stats.sends_posted.incr();
        nm_trace::trace_event!(SubmitBegin, gate.0, data.len());
        nm_trace::trace_event!(SpanSubmit, req.span(), gate.0);
        {
            let api = self.policy.enter_api();
            let item = if data.len() <= self.config.eager_threshold {
                self.stats.eager_sent.incr();
                SendItem {
                    tag,
                    seq: g.alloc_seq(),
                    kind: SendItemKind::Eager(data),
                    span: req.span(),
                    req: Some(req.clone()),
                }
            } else {
                self.stats.rdv_started.incr();
                let seq = g.alloc_seq();
                let total = data.len() as u32;
                let rdv = RdvSend {
                    tag,
                    seq,
                    data,
                    req: req.clone(),
                };
                let s = self.policy.enter(SectionKind::CollectTx(gate.0));
                g.tx.with(&s, |tx| tx.rdv_out_insert(rdv));
                drop(s);
                SendItem {
                    tag,
                    seq,
                    kind: SendItemKind::Rts { total },
                    span: req.span(),
                    req: None,
                }
            };
            let s = self.policy.enter(SectionKind::CollectTx(gate.0));
            let depth = g.tx.with(&s, |tx| {
                tx.queue.push_back(item);
                tx.queue.len()
            });
            drop(s);
            nm_trace::trace_event!(QueueDepth, gate.0, depth);
            nm_trace::trace_event!(SpanCollect, req.span(), depth);
            // Release between submission and transmission, exactly like
            // the paper's coarse mode ("the spinlock is held and released
            // twice: once for submitting ..., once to transmit").
            drop(api);
        }
        nm_trace::trace_event!(SubmitEnd, gate.0);
        // Submission: inline, or deferred to an idle core / tasklet
        // (§4.2) — the expensive part (strategy, encode, doorbell).
        if self.config.offload == OffloadMode::Inline {
            let api = self.policy.enter_api();
            self.pump_gate(g);
            drop(api);
        }
        if self.config.offload != OffloadMode::Inline {
            let weak = self.self_weak.clone();
            self.offloader.submit(move || {
                if let Some(core) = weak.upgrade() {
                    core.pump(gate);
                }
            });
        }
        Ok(req)
    }

    /// Posts a non-blocking receive for `tag` on `gate`.
    ///
    /// On completion the request carries the payload
    /// ([`Request::take_data`]) and the matched tag
    /// ([`Request::matched_tag`]). Matching is FIFO per tag.
    pub fn irecv(&self, gate: GateId, tag: u64) -> Result<Request, CommError> {
        self.irecv_matching(gate, TagPattern::Exact(tag), Completion::Flag)
    }

    /// Like [`CommCore::irecv`], delivering completion through
    /// `completion` instead of only signalling the request's flag.
    pub fn irecv_with(
        &self,
        gate: GateId,
        tag: u64,
        completion: Completion,
    ) -> Result<Request, CommError> {
        self.irecv_matching(gate, TagPattern::Exact(tag), completion)
    }

    /// Posts a wildcard receive (`MPI_ANY_TAG`): matches the earliest
    /// message of any tag; the matched tag is reported by
    /// [`Request::matched_tag`].
    ///
    /// Note: wildcards match *any* tag, including the reserved internal
    /// tag space used by `nm-mpi`'s collectives — do not mix wildcard
    /// receives with concurrent collectives on the same gate.
    pub fn irecv_any(&self, gate: GateId) -> Result<Request, CommError> {
        self.irecv_matching(gate, TagPattern::Any, Completion::Flag)
    }

    /// Like [`CommCore::irecv_any`], with a [`Completion`] object.
    pub fn irecv_any_with(
        &self,
        gate: GateId,
        completion: Completion,
    ) -> Result<Request, CommError> {
        self.irecv_matching(gate, TagPattern::Any, completion)
    }

    fn irecv_matching(
        &self,
        gate: GateId,
        pattern: TagPattern,
        completion: Completion,
    ) -> Result<Request, CommError> {
        let _t = crate::metrics::recv_hist().timer();
        let g = self.gate(gate)?;
        let req = Request::new_with(RequestKind::Recv, completion);
        self.stats.recvs_posted.incr();
        nm_trace::trace_event!(SpanSubmit, req.span(), gate.0);
        enum Then {
            Nothing,
            Complete(u64, Bytes),
            PumpCts(u64, u32),
        }
        let mut then = Then::Nothing;
        {
            let api = self.policy.enter_api();
            {
                let s = self.policy.enter(SectionKind::CollectRx(gate.0));
                g.rx.with(&s, |rx| {
                    // Eager messages and RTS share one sequence space, so
                    // the earlier *send* is simply the lower seq — a
                    // buffered rendezvous must not lose its place to a
                    // later eager message (or vice versa).
                    let eager_seq = rx.peek_unexpected_seq(pattern);
                    let rts_seq = rx.peek_pending_rts_seq(pattern);
                    let eager_first = match (eager_seq, rts_seq) {
                        (Some(e), Some(r)) => seq_lt(e, r),
                        (Some(_), None) => true,
                        _ => false,
                    };
                    if eager_first {
                        let msg = rx.take_unexpected_matching(pattern).expect("peeked");
                        then = Then::Complete(msg.tag, msg.data);
                    } else if let Some(rts) = rx.take_pending_rts(pattern) {
                        rx.rdv_in_insert(RdvRecv {
                            tag: rts.tag,
                            seq: rts.seq,
                            total: rts.total,
                            received: 0,
                            buf: recycle::REASSEMBLY.zeroed(rts.total as usize),
                            req: req.clone(),
                            chunks: std::collections::BTreeMap::new(),
                        });
                        self.stats.rdv_accepted.incr();
                        then = Then::PumpCts(rts.tag, rts.seq);
                    } else {
                        rx.post(PostedRecv {
                            pattern,
                            req: req.clone(),
                        });
                    }
                });
            }
            // The CTS rides the tx shard; rx and tx sections are never
            // held together (no nesting in the sharded lock order).
            if let &Then::PumpCts(tag, seq) = &then {
                let s = self.policy.enter(SectionKind::CollectTx(gate.0));
                g.tx.with(&s, |tx| {
                    tx.queue.push_back(SendItem {
                        tag,
                        seq,
                        kind: SendItemKind::Cts,
                        span: req.span(),
                        req: None,
                    });
                });
                drop(s);
                self.pump_gate(g);
            }
            drop(api);
        }
        if let Then::Complete(tag, data) = then {
            req.complete_with_tagged_data(tag, data);
        }
        nm_trace::trace_event!(RecvPosted, gate.0);
        Ok(req)
    }

    /// One progression pass: polls every rail of every gate, dispatches
    /// inbound packets, and pumps outbound queues. Returns the number of
    /// wire events handled.
    pub fn progress(&self) -> usize {
        let api = self.policy.enter_api();
        let events = self.progress_body();
        drop(api);
        events
    }

    /// The progression pass itself; the caller holds the API guard.
    fn progress_body(&self) -> usize {
        self.stats.progress_passes.incr();
        let mut events = self.service_timers();
        for g in &self.gates {
            events += self.poll_gate(g);
            events += self.pump_gate(g);
        }
        nm_trace::trace_event!(ProgressPass, events);
        events
    }

    /// One progression pass restricted to a lane shard: polls and
    /// flushes only the lanes whose *global* index (gate `driver_base`
    /// plus lane) satisfies `index % num_shards == shard`. Dedicated
    /// progression threads each drive their own set of VCI contexts
    /// this way without contending on the same driver sections. Timers
    /// are serviced by shard 0 only, so concurrent shard pollers never
    /// double-fire a retransmit clock.
    pub fn progress_shard(&self, shard: usize, num_shards: usize) -> usize {
        assert!(num_shards > 0 && shard < num_shards, "shard out of range");
        let api = self.policy.enter_api();
        self.stats.progress_passes.incr();
        let mut events = if shard == 0 { self.service_timers() } else { 0 };
        for g in &self.gates {
            for lane in 0..g.num_lanes() {
                if (g.driver_base + lane) % num_shards != shard {
                    continue;
                }
                events += self.poll_lane(g, lane);
                events += self.flush_xfer(g, lane);
            }
        }
        drop(api);
        nm_trace::trace_event!(ProgressPass, events);
        events
    }

    /// A [`PollSource`] driving one lane shard (see
    /// [`CommCore::progress_shard`]); register one per shard with a
    /// progression engine so each VCI gets its own poller.
    pub fn vci_poll_source(&self, shard: usize, num_shards: usize) -> VciPollSource {
        assert!(num_shards > 0 && shard < num_shards, "shard out of range");
        VciPollSource {
            core: self.self_weak.upgrade().expect("core still alive"),
            shard,
            num_shards,
            name: format!("nm-core.vci.{shard}"),
        }
    }

    /// Pops due timers and acts on them: retransmit checks for the
    /// reliability protocol, deadline expiries for bounded waits.
    fn service_timers(&self) -> usize {
        if self.timers.is_empty() {
            return 0;
        }
        let now = now_ns();
        let mut events = 0;
        for item in self.timers.pop_due(now) {
            match item {
                TimerItem::Retx { gate, lane } => {
                    if let Some(g) = self.gates.get(gate) {
                        events += self.check_retransmit(g, lane, now);
                    }
                }
                TimerItem::Expire(req) => {
                    if req.expire() {
                        events += 1;
                    }
                }
            }
        }
        events
    }

    /// Runs deferred (offloaded) submissions on the calling thread.
    ///
    /// Intended for the progression engine / idle cores; calling it from
    /// the application thread is correct but defeats the offload.
    pub fn drain_offload(&self) -> usize {
        self.offloader.drain()
    }

    /// Waits for a request, polling this core during spin phases.
    ///
    /// The spin phase runs *inside* the library: in coarse mode the
    /// library-wide lock is held while polling makes progress (Fig 2) —
    /// which is why two busy-waiting threads serialize in the paper's
    /// Fig 5 — and released before any blocking, per the paper's
    /// deadlock-avoidance rule. The same rule extends to *idle* spin
    /// passes: a pass that handles zero events yields the guard before
    /// spinning on, because the thread whose submission would unblock
    /// this wait may itself be stuck behind the coarse lock (two
    /// cross-waiting busy spinners on two cores otherwise deadlock).
    /// With [`WaitStrategy::Passive`] the caller never polls: a
    /// progression thread (or scheduler hooks) must be driving
    /// [`CommCore::progress`].
    ///
    /// Returns the operation's outcome: `Err` consumes the completion
    /// error (substrate failure, protocol violation) exactly as
    /// [`Request::take_error`] would — the two layers (`nm-core`,
    /// `nm-mpi`) share one error story.
    pub fn wait(&self, req: &Request, strategy: WaitStrategy) -> Result<(), CommError> {
        let _t = crate::metrics::wait_hist().timer();
        match strategy.spin_budget() {
            // Busy: poll under the API guard until complete.
            None => {
                let mut api = self.policy.enter_api();
                while !req.is_complete() {
                    if self.progress_body() == 0 {
                        // Idle pass: completion now depends on another
                        // thread acting — and in coarse mode that thread
                        // may be stuck behind this very guard (two
                        // cross-waiting spinners deadlock: each holds its
                        // core's lock while the reply it spins on cannot
                        // be submitted). Yield the guard between idle
                        // passes; while work flows the holder keeps it,
                        // preserving the paper's Fig 5 serialization.
                        drop(api);
                        std::hint::spin_loop();
                        api = self.policy.enter_api();
                    }
                }
                drop(api);
            }
            // Fixed spin: poll under the guard for the window, then
            // release it and block.
            Some(budget) if !budget.is_zero() => {
                let deadline = std::time::Instant::now() + budget;
                {
                    let mut api = self.policy.enter_api();
                    while !req.is_complete() && std::time::Instant::now() < deadline {
                        if self.progress_body() == 0 {
                            // Same idle-pass yield as the busy arm.
                            drop(api);
                            std::hint::spin_loop();
                            api = self.policy.enter_api();
                        }
                    }
                    drop(api);
                }
                if !req.is_complete() {
                    req.flag().wait(WaitStrategy::Passive);
                }
            }
            // Passive: block immediately.
            _ => req.flag().wait(WaitStrategy::Passive),
        }
        match req.take_error() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Like [`CommCore::wait`], bounded by `timeout`.
    ///
    /// If the deadline passes first the request is *finished* with
    /// [`CommError::Timeout`] (so its posting is reaped like a cancelled
    /// request and nothing leaks), and `Err(Timeout)` is returned. A
    /// completion racing the deadline keeps its outcome — the finish
    /// transition is a single CAS, exactly one side wins.
    pub fn wait_deadline(
        &self,
        req: &Request,
        strategy: WaitStrategy,
        timeout: Duration,
    ) -> Result<(), CommError> {
        let _t = crate::metrics::wait_hist().timer();
        let deadline = std::time::Instant::now() + timeout;
        match strategy.spin_budget() {
            // Busy: poll under the API guard until complete or expired.
            None => {
                let mut api = self.policy.enter_api();
                while !req.is_complete() && std::time::Instant::now() < deadline {
                    if self.progress_body() == 0 {
                        // Idle-pass yield; see `wait` for why this must
                        // not hold the guard while nothing moves.
                        drop(api);
                        std::hint::spin_loop();
                        api = self.policy.enter_api();
                    }
                }
                drop(api);
            }
            // Fixed spin: poll for min(budget, timeout), then block for
            // whatever remains of the timeout.
            Some(budget) if !budget.is_zero() => {
                let spin_end = (std::time::Instant::now() + budget).min(deadline);
                {
                    let mut api = self.policy.enter_api();
                    while !req.is_complete() && std::time::Instant::now() < spin_end {
                        if self.progress_body() == 0 {
                            // Idle-pass yield; see `wait`.
                            drop(api);
                            std::hint::spin_loop();
                            api = self.policy.enter_api();
                        }
                    }
                    drop(api);
                }
                if !req.is_complete() {
                    let left = deadline.saturating_duration_since(std::time::Instant::now());
                    req.flag().wait_timeout(WaitStrategy::Passive, left);
                }
            }
            // Passive: block immediately, for at most the timeout.
            _ => {
                req.flag().wait_timeout(WaitStrategy::Passive, timeout);
            }
        }
        if !req.is_complete() {
            req.expire();
        }
        match req.take_error() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Arms a deadline: unless `req` completes within `timeout`, a
    /// progression pass finishes it with [`CommError::Timeout`] and
    /// delivers through its completion object (queue, handler, or async
    /// waker) — no thread waits on the clock. This is what gives the
    /// async facade its deadline-bounded operations.
    pub fn expire_after(&self, req: &Request, timeout: Duration) {
        let deadline = now_ns().saturating_add(timeout.as_nanos().min(u128::from(u64::MAX)) as u64);
        self.timers
            .schedule(deadline, TimerItem::Expire(req.clone()));
    }

    /// Snapshot of the queue depths across all layers (diagnostics).
    ///
    /// Taking the snapshot also reaps posted receives whose request was
    /// cancelled, so the reported `posted_recvs` never counts dead
    /// entries.
    pub fn pending(&self) -> PendingCounts {
        let api = self.policy.enter_api();
        let mut counts = PendingCounts::default();
        for g in &self.gates {
            let s = self.policy.enter(SectionKind::CollectTx(g.id.0));
            g.tx.with(&s, |tx| {
                counts.collect_items += tx.queue.len();
                counts.rdv_awaiting_cts += tx.rdv_out.len();
            });
            drop(s);
            let s = self.policy.enter(SectionKind::CollectRx(g.id.0));
            g.rx.with(&s, |rx| {
                rx.prune_cancelled();
                counts.posted_recvs += rx.posted_len();
                counts.unexpected += rx.unexpected_len();
                counts.pending_rts += rx.pending_rts_len();
                counts.rdv_reassembling += rx.rdv_in_len();
                counts.eager_out_of_order += rx.ooo_len();
            });
            drop(s);
            if self.config.reliability.enabled {
                for lane in 0..g.num_lanes() {
                    let s = self
                        .policy
                        .enter(SectionKind::Retrans(g.driver_base + lane));
                    g.rel[lane].with(&s, |rel| counts.unacked_frames += rel.unacked.len());
                    drop(s);
                }
            }
            for lane in 0..g.num_lanes() {
                let s = self.policy.enter(SectionKind::Vci(g.driver_base + lane));
                g.xfer[lane].with(&s, |q| counts.xfer_items += q.len());
                drop(s);
            }
        }
        drop(api);
        counts
    }

    /// Drives progression until a full pass makes no progress and every
    /// internal send queue is empty. Returns the number of passes run.
    ///
    /// Inbound completion still depends on the peer; this flushes the
    /// *local* side (collect + transfer lists drained into the NICs).
    pub fn flush_local(&self) -> usize {
        let mut passes = 0;
        loop {
            let events = self.progress();
            passes += 1;
            let p = self.pending();
            if events == 0 && p.collect_items == 0 && p.xfer_items == 0 {
                return passes;
            }
        }
    }

    /// Waits for every request in `reqs`.
    ///
    /// Every request is waited to completion even on failure; the first
    /// error encountered (in `reqs` order) is returned.
    pub fn wait_all(&self, reqs: &[Request], strategy: WaitStrategy) -> Result<(), CommError> {
        let mut first_err = None;
        for r in reqs {
            if let Err(e) = self.wait(r, strategy) {
                first_err.get_or_insert(e);
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Non-blocking completion test (`MPI_Test`): one progression pass,
    /// then reports whether the request has completed.
    pub fn test(&self, req: &Request) -> bool {
        if req.is_complete() {
            return true;
        }
        self.progress();
        req.is_complete()
    }

    /// Blocking send: `isend` + wait.
    pub fn send(
        &self,
        gate: GateId,
        tag: u64,
        data: Bytes,
        strategy: WaitStrategy,
    ) -> Result<(), CommError> {
        let req = self.isend(gate, tag, data)?;
        self.wait(&req, strategy)
    }

    /// Blocking receive: `irecv` + wait; returns the payload.
    pub fn recv(&self, gate: GateId, tag: u64, strategy: WaitStrategy) -> Result<Bytes, CommError> {
        let req = self.irecv(gate, tag)?;
        self.wait(&req, strategy)?;
        Ok(req.take_data().expect("completed recv carries data"))
    }

    // ----- internal machinery -------------------------------------------

    fn gate(&self, gate: GateId) -> Result<&Gate, CommError> {
        self.gates.get(gate.0).ok_or(CommError::InvalidGate(gate.0))
    }

    /// Public pump entry for offloaded submissions.
    fn pump(&self, gate: GateId) {
        if let Ok(g) = self.gate(gate) {
            let api = self.policy.enter_api();
            self.pump_gate(g);
            drop(api);
        }
    }

    /// Polls one gate's lanes, unwraps each frame, and dispatches
    /// everything deliverable. Corrupt frames are dropped here, before
    /// any protocol field is decoded.
    fn poll_gate(&self, g: &Gate) -> usize {
        (0..g.num_lanes()).map(|lane| self.poll_lane(g, lane)).sum()
    }

    /// Polls one lane's completion ring: each lane owns its own driver
    /// section, so concurrent pollers on different lanes of the same
    /// rail never serialize against each other.
    fn poll_lane(&self, g: &Gate, lane: usize) -> usize {
        let reliable = self.config.reliability.enabled;
        let (rail, vci) = g.lane_rail_vci(lane);
        let mut events = 0;
        for _ in 0..self.config.max_polls_per_pass {
            let pkt = {
                let s = self.policy.enter(SectionKind::Driver(g.driver_base + lane));
                let p = g.drivers[rail].poll_vci(vci);
                drop(s);
                p
            };
            let Some(raw) = pkt else { break };
            events += 1;
            match decode_frame(raw) {
                Ok(frame) if reliable && frame.reliable() => {
                    if frame.span != 0 {
                        nm_trace::trace_event!(SpanWireRx, frame.span, frame.wseq);
                    }
                    for (packet, span) in self.rel_receive(g, lane, frame) {
                        self.stats.packets_rx.incr();
                        self.dispatch(g, packet, span);
                    }
                }
                Ok(frame) => {
                    if frame.span != 0 {
                        nm_trace::trace_event!(SpanWireRx, frame.span, frame.wseq);
                    }
                    if !frame.ack_only() {
                        self.stats.packets_rx.incr();
                        self.dispatch(g, frame.payload, frame.span);
                    }
                }
                Err(WireError::BadChecksum { .. }) => {
                    self.stats.corrupt_dropped.incr();
                }
                Err(_) => {
                    self.stats.wire_errors.incr();
                }
            }
        }
        if reliable {
            events += self.flush_ack(g, lane);
        }
        events
    }

    /// Runs one reliable frame through the lane's receive window:
    /// processes its cumulative ack, suppresses duplicates, buffers
    /// out-of-order arrivals, and returns the packets released for
    /// dispatch (in wire order), each paired with the span its frame
    /// carried (0 = none).
    fn rel_receive(&self, g: &Gate, lane: usize, frame: Frame) -> Vec<(Bytes, u64)> {
        let r = &self.config.reliability;
        let s = self
            .policy
            .enter(SectionKind::Retrans(g.driver_base + lane));
        let out = g.rel[lane].with(&s, |rel| {
            // Cumulative ack: everything below `frame.ack` is delivered.
            let mut advanced = false;
            while rel
                .unacked
                .front()
                .is_some_and(|f| seq_lt(f.wseq, frame.ack))
            {
                rel.unacked.pop_front();
                advanced = true;
            }
            if advanced {
                // The peer is alive and making progress: restart the
                // backoff clock for whatever is still in flight.
                rel.exhaustions = 0;
                if let Some(head) = rel.unacked.front_mut() {
                    head.attempts = 0;
                    head.retx_at_ns = now_ns() + r.rto_base_ns;
                }
            }
            if frame.ack_only() {
                return Vec::new();
            }
            if seq_lt(frame.wseq, rel.rx_expected) || rel.rx_ooo.contains_key(&frame.wseq) {
                // A retransmit of something already received: drop it,
                // but re-ack so the sender stops resending.
                self.stats.dup_dropped.incr();
                rel.ack_pending = true;
                return Vec::new();
            }
            let mut out = Vec::new();
            if frame.wseq == rel.rx_expected {
                out.push((frame.payload, frame.span));
                rel.rx_expected = rel.rx_expected.wrapping_add(1);
                while let Some(p) = rel.rx_ooo.remove(&rel.rx_expected) {
                    out.push(p);
                    rel.rx_expected = rel.rx_expected.wrapping_add(1);
                }
            } else {
                self.stats.ooo_buffered.incr();
                rel.rx_ooo.insert(frame.wseq, (frame.payload, frame.span));
            }
            rel.ack_pending = true;
            out
        });
        drop(s);
        out
    }

    /// Sends a bare cumulative acknowledgement if the lane owes one.
    /// Ack-only frames are not sequenced and never retransmitted — a
    /// lost ack is repaired by the peer's retransmit provoking a new one.
    fn flush_ack(&self, g: &Gate, lane: usize) -> usize {
        if g.lane_is_dead(lane) {
            return 0;
        }
        let (rail, vci) = g.lane_rail_vci(lane);
        let s = self
            .policy
            .enter(SectionKind::Retrans(g.driver_base + lane));
        let sent = g.rel[lane].with(&s, |rel| {
            if !rel.ack_pending {
                return false;
            }
            let frame = encode_frame(0, rel.rx_expected, FRAME_RELIABLE | FRAME_ACK_ONLY, 0, &[]);
            let d = self.policy.enter(SectionKind::Driver(g.driver_base + lane));
            let posted = g.drivers[rail].post_vci(vci, frame);
            drop(d);
            match posted {
                Ok(()) => {
                    rel.ack_pending = false;
                    self.stats.acks_tx.incr();
                    true
                }
                // NIC full: leave ack_pending set; piggybacking or the
                // next pass will carry it.
                Err(nm_fabric::PostError::WouldBlock) => false,
            }
        });
        drop(s);
        usize::from(sent)
    }

    /// Decodes one inbound packet and applies its entries. `wire_span`
    /// is the span the carrying frame advertised (the sender's message
    /// span, 0 = none); completions emit `SpanDeliver` against it so
    /// the receive side joins the sender's timeline.
    fn dispatch(&self, g: &Gate, raw: Bytes, wire_span: u64) {
        nm_trace::trace_event!(DispatchBegin, g.id.0, raw.len());
        let entries = match decode_packet(raw) {
            Ok(e) => e,
            Err(_) => {
                self.stats.wire_errors.incr();
                nm_trace::trace_event!(DispatchEnd, g.id.0);
                return;
            }
        };
        let mut after = Vec::new();
        // CTS traffic crosses from the rx shard to the tx shard; the two
        // sections are taken one after the other, never nested. Phase 1
        // (rx) records what phase 2 (tx) must do.
        let mut cts_out: Vec<(u64, u32, u64)> = Vec::new();
        let mut cts_in: Vec<u32> = Vec::new();
        {
            let s = self.policy.enter(SectionKind::CollectRx(g.id.0));
            for entry in entries {
                match entry {
                    Entry::Eager { tag, seq, data } => g.rx.with(&s, |rx| {
                        if self.config.ordered_eager {
                            // Resequencer: release messages strictly in
                            // send order; park later ones.
                            if seq != rx.expected_seq {
                                if seq_lt(seq, rx.expected_seq) {
                                    // Already released: a redelivery.
                                    self.stats.dup_dropped.incr();
                                } else if !rx.push_ooo(Parked::Eager(UnexpectedMsg {
                                    tag,
                                    seq,
                                    data,
                                })) {
                                    self.stats.dup_dropped.incr();
                                }
                                return;
                            }
                            self.deliver_eager(rx, tag, seq, data, &mut after);
                            self.release_parked(rx, &mut after, &mut cts_out);
                        } else {
                            self.deliver_eager(rx, tag, seq, data, &mut after);
                        }
                    }),
                    Entry::Rts { tag, seq, total } => g.rx.with(&s, |rx| {
                        if rx.rdv_in_contains(seq) {
                            // Redelivered RTS for a rendezvous already
                            // accepted; the CTS is on its way (or lost —
                            // the sender's retransmit covers that).
                            self.stats.dup_dropped.incr();
                        } else if self.config.ordered_eager {
                            // The RTS obeys the same resequencer as eager
                            // messages (shared seq space): a large send
                            // must not overtake a smaller same-tag one
                            // just because it rode a different lane.
                            if seq != rx.expected_seq {
                                // Stale redelivery, or a duplicate of an
                                // already-parked RTS: drop either way.
                                if seq_lt(seq, rx.expected_seq)
                                    || !rx.push_ooo(Parked::Rts(PendingRts { tag, seq, total }))
                                {
                                    self.stats.dup_dropped.incr();
                                }
                                return;
                            }
                            self.accept_rts(rx, tag, seq, total, &mut cts_out);
                            self.release_parked(rx, &mut after, &mut cts_out);
                        } else {
                            self.accept_rts(rx, tag, seq, total, &mut cts_out);
                        }
                    }),
                    Entry::Cts { tag: _, seq } => cts_in.push(seq),
                    Entry::Data {
                        tag,
                        seq,
                        offset,
                        data,
                    } => g.rx.with(&s, |rx| {
                        let Some(r) = rx.rdv_in_get_mut(seq) else {
                            self.stats.wire_errors.incr();
                            return;
                        };
                        if r.tag != tag {
                            self.stats.wire_errors.incr();
                            return;
                        }
                        let (start, end) = (offset as usize, offset as usize + data.len());
                        if data.is_empty() || end > r.buf.len() {
                            self.stats.wire_errors.incr();
                            return;
                        }
                        match r.mark_chunk(offset, data.len() as u32) {
                            ChunkMark::New => {}
                            // Redelivered chunk: the bytes are already in
                            // place; counting it again would complete a
                            // short reassembly.
                            ChunkMark::Duplicate => {
                                self.stats.dup_dropped.incr();
                                return;
                            }
                            // No sender cuts a message into overlapping
                            // chunks: hostile or corrupt input.
                            ChunkMark::Overlap => {
                                self.stats.wire_errors.incr();
                                return;
                            }
                        }
                        r.buf[start..end].copy_from_slice(&data);
                        r.received += data.len() as u32;
                        if r.received == r.total {
                            let done = rx.rdv_in_remove(seq).expect("reassembly just updated");
                            after.push(After::CompleteRecv(done.req, done.tag, done.buf.freeze()));
                        }
                    }),
                }
            }
        }
        let queued_cts = !cts_out.is_empty();
        if queued_cts || !cts_in.is_empty() {
            let s = self.policy.enter(SectionKind::CollectTx(g.id.0));
            g.tx.with(&s, |tx| {
                for &(tag, seq, span) in &cts_out {
                    tx.queue.push_back(SendItem {
                        tag,
                        seq,
                        kind: SendItemKind::Cts,
                        span,
                        req: None,
                    });
                }
                for seq in cts_in {
                    match tx.rdv_out_remove(seq) {
                        Some(rdv) => after.push(After::StartData(rdv)),
                        None => self.stats.wire_errors.incr(),
                    }
                }
            });
            drop(s);
        }
        for act in after {
            match act {
                After::CompleteRecv(req, tag, data) => {
                    if wire_span != 0 {
                        nm_trace::trace_event!(SpanDeliver, wire_span, req.span());
                    }
                    req.complete_with_tagged_data(tag, data);
                }
                After::StartData(rdv) => self.start_rdv_data(g, rdv),
            }
        }
        if queued_cts {
            self.pump_gate(g);
        }
        nm_trace::trace_event!(DispatchEnd, g.id.0);
    }

    /// Chunks an acknowledged rendezvous send and distributes the chunks
    /// round-robin across the live lanes (multirail distribution,
    /// striped over every rail's VCI contexts).
    fn start_rdv_data(&self, g: &Gate, rdv: RdvSend) {
        if rdv.req.is_complete() {
            // Cancelled while waiting for the CTS: send nothing.
            return;
        }
        let lanes: Vec<usize> = (0..g.num_lanes()).filter(|&l| !g.lane_is_dead(l)).collect();
        if lanes.is_empty() {
            rdv.req.fail(CommError::PeerUnreachable);
            return;
        }
        let chunk = self.rdv_chunk_size(g);
        let total = rdv.data.len();
        let num_chunks = total.div_ceil(chunk);
        let span = rdv.req.span();
        let done = Arc::new(RdvSendDone {
            remaining: std::sync::atomic::AtomicUsize::new(num_chunks),
            req: rdv.req,
        });
        // relaxed: round-robin cursor; any interleaving is a valid lane
        // choice, no data is published through it.
        let start_lane = g.rr_lane.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        for i in 0..num_chunks {
            let offset = i * chunk;
            let end = (offset + chunk).min(total);
            let packet =
                OutPacket::chunk(rdv.tag, rdv.seq, offset as u32, rdv.data.slice(offset..end));
            let lane = lanes[(start_lane + i) % lanes.len()];
            let s = self.policy.enter(SectionKind::Vci(g.driver_base + lane));
            g.xfer[lane].with(&s, |q| {
                q.push_back(XferItem {
                    packet,
                    complete_on_post: Vec::new(),
                    rdv_done: Some(Arc::clone(&done)),
                    span,
                });
            });
            drop(s);
        }
        self.pump_gate(g);
    }

    /// Frames `packet` and injects it on `lane`.
    ///
    /// With reliability disabled the frame only adds the checksum. With
    /// it enabled the frame is sequenced on the lane, recorded in the
    /// retransmit window (a full window reports `WouldBlock` like a busy
    /// NIC), and carries the piggybacked cumulative ack. Lock order: the
    /// lane's `Retrans` section encloses its `Driver` section
    /// (`core.retrans.N → core.driver.N`), never the reverse.
    fn post_packet(
        &self,
        g: &Gate,
        lane: usize,
        packet: &OutPacket,
        span: u64,
    ) -> Result<(), nm_fabric::PostError> {
        let r = &self.config.reliability;
        let (rail, vci) = g.lane_rail_vci(lane);
        if !r.enabled {
            let frame = packet.frame(0, 0, 0, span);
            let s = self.policy.enter(SectionKind::Driver(g.driver_base + lane));
            let posted = g.drivers[rail].post_vci(vci, frame);
            drop(s);
            if posted.is_ok() && span != 0 {
                nm_trace::trace_event!(SpanWireTx, span, 0);
            }
            return posted;
        }
        let s = self
            .policy
            .enter(SectionKind::Retrans(g.driver_base + lane));
        let posted = g.rel[lane].with(&s, |rel| {
            if rel.unacked.len() >= r.window {
                return Err(nm_fabric::PostError::WouldBlock);
            }
            let wseq = rel.next_tx_wseq;
            let frame = packet.frame(wseq, rel.rx_expected, FRAME_RELIABLE, span);
            let d = self.policy.enter(SectionKind::Driver(g.driver_base + lane));
            let posted = g.drivers[rail].post_vci(vci, frame);
            drop(d);
            if posted.is_ok() {
                if span != 0 {
                    nm_trace::trace_event!(SpanWireTx, span, wseq);
                }
                rel.next_tx_wseq = wseq.wrapping_add(1);
                rel.ack_pending = false; // the frame piggybacked the ack
                let now = now_ns();
                rel.unacked.push_back(UnackedFrame {
                    wseq,
                    packet: packet.clone(),
                    span,
                    attempts: 0,
                    retx_at_ns: now + r.rto_base_ns,
                });
                if !rel.timer_armed {
                    rel.timer_armed = true;
                    self.timers
                        .schedule(now + r.rto_base_ns, TimerItem::Retx { gate: g.id.0, lane });
                }
            }
            posted
        });
        drop(s);
        posted
    }

    /// Pushes queued work toward the NICs: flushes transfer lists, then
    /// invokes the optimization layer for every idle lane.
    fn pump_gate(&self, g: &Gate) -> usize {
        let mut events = 0;
        for lane in 0..g.num_lanes() {
            events += self.flush_xfer(g, lane);
        }
        // Optimization layer: fill idle lanes from the collect queue.
        // relaxed: round-robin cursor, see above.
        let mut lane_cursor = g.rr_lane.load(std::sync::atomic::Ordering::Relaxed);
        while let Some(lane) = self.pick_idle_lane(g, lane_cursor) {
            lane_cursor = lane + 1;
            let budget = self.packet_budget(g);
            let items = {
                let s = self.policy.enter(SectionKind::CollectTx(g.id.0));
                let items =
                    g.tx.with(&s, |tx| self.strategy.next_packet(&mut tx.queue, budget));
                drop(s);
                items
            };
            let Some(mut items) = items else {
                break;
            };
            // Reap sends cancelled while queued: their request already
            // finished, nothing should go on the wire for them.
            items.retain(|item| item.req.as_ref().is_none_or(|req| !req.is_complete()));
            if items.is_empty() {
                continue;
            }
            if items.len() > 1 {
                self.stats.aggregated_packets.incr();
            }
            let entries: Vec<Entry> = items.iter().map(SendItem::to_entry).collect();
            let packet = OutPacket::Encoded(encode_packet(&entries));
            // The frame header carries one span: the first spanned item
            // aboard. Aggregated passengers keep their submit/collect/
            // complete events but ride the carrier's wire attribution.
            let span = items.iter().map(|i| i.span).find(|&s| s != 0).unwrap_or(0);
            nm_trace::trace_event!(TransmitBegin, g.id.0, lane);
            let posted = self.post_packet(g, lane, &packet, span);
            nm_trace::trace_event!(TransmitEnd, g.id.0, posted.is_ok());
            match posted {
                Ok(()) => {
                    self.stats.packets_tx.incr();
                    events += 1;
                    for item in items {
                        if let Some(req) = item.req {
                            req.complete();
                        }
                    }
                }
                Err(nm_fabric::PostError::WouldBlock) => {
                    // NIC (or retransmit window) filled up between the
                    // idle check and the post: restore the items at the
                    // head of the queue.
                    let s = self.policy.enter(SectionKind::CollectTx(g.id.0));
                    g.tx.with(&s, |tx| {
                        for item in items.into_iter().rev() {
                            tx.queue.push_front(item);
                        }
                    });
                    drop(s);
                    break;
                }
            }
        }
        events
    }

    /// Drains one lane's transfer list while its NIC context accepts
    /// packets.
    ///
    /// The pop and the post are *not* atomic (the reliability layer must
    /// take its `Retrans` section before the driver section): a racing
    /// pumper can interleave items, which is harmless — the list carries
    /// offset-addressed rendezvous chunks. On a failed post the item is
    /// restored with `push_front`, so the queue's relative order is
    /// preserved even when several flushers contend on one lane.
    ///
    /// `can_post_vci` is read under the `Vci` section but *without* the
    /// driver lock — a racy hint. On a multi-queue driver the hint can
    /// go stale in either direction under a different VCI's load: a
    /// stale `true` costs one failed post (the item is restored, the
    /// loop exits), a stale `false` ends the flush with items still
    /// queued. Neither strands anything permanently: every progression
    /// pass re-runs `flush_xfer` on every lane, so a queue left
    /// non-empty by a stale hint is re-flushed on the next poll.
    fn flush_xfer(&self, g: &Gate, lane: usize) -> usize {
        if self.config.reliability.enabled && g.lane_is_dead(lane) {
            return self.migrate_stranded(g, lane);
        }
        let (rail, vci) = g.lane_rail_vci(lane);
        let mut events = 0;
        loop {
            let item = {
                let s = self.policy.enter(SectionKind::Vci(g.driver_base + lane));
                let item = if g.drivers[rail].can_post_vci(vci) {
                    g.xfer[lane].with(&s, |q| q.pop_front())
                } else {
                    None
                };
                drop(s);
                item
            };
            let Some(item) = item else { break };
            nm_trace::trace_event!(TransmitBegin, g.id.0, lane);
            let res = self.post_packet(g, lane, &item.packet, item.span);
            nm_trace::trace_event!(TransmitEnd, g.id.0, res.is_ok());
            if res.is_err() {
                let s = self.policy.enter(SectionKind::Vci(g.driver_base + lane));
                g.xfer[lane].with(&s, |q| q.push_front(item));
                drop(s);
                break;
            }
            self.stats.packets_tx.incr();
            events += 1;
            for req in item.complete_on_post {
                req.complete();
            }
            if let Some(done) = item.rdv_done {
                done.chunk_posted();
            }
        }
        events
    }

    /// Round-robin scan for a live lane whose NIC context reports itself
    /// idle.
    ///
    /// `can_post_vci` is read without the driver lock as a racy hint;
    /// the subsequent `post_vci` under the lock handles the losing race.
    fn pick_idle_lane(&self, g: &Gate, start: usize) -> Option<usize> {
        let n = g.num_lanes();
        (0..n).map(|i| (start + i) % n).find(|&lane| {
            let (rail, vci) = g.lane_rail_vci(lane);
            !g.lane_is_dead(lane) && g.drivers[rail].can_post_vci(vci)
        })
    }

    /// Payload budget for the next arranged packet. The span word is
    /// reserved unconditionally so trace and non-trace builds arrange
    /// identical packets.
    fn packet_budget(&self, g: &Gate) -> usize {
        let mtu_budget = g.min_mtu() - PACKET_HEADER - FRAME_HEADER - FRAME_SPAN_BYTES;
        // Never smaller than one maximal eager entry, or it could never
        // leave the queue.
        let agg = self
            .config
            .max_aggregation
            .max(self.config.eager_threshold + ENTRY_HEADER);
        mtu_budget.min(agg)
    }

    fn rdv_chunk_size(&self, g: &Gate) -> usize {
        let wire_max = g.min_mtu() - FRAME_HEADER - FRAME_SPAN_BYTES - PACKET_HEADER - ENTRY_HEADER;
        self.config.rdv_chunk.clamp(1, wire_max)
    }

    // ----- reliability: retransmit, failover ----------------------------

    /// Acts on a fired retransmit timer for one lane: resends the head of
    /// the window with exponential backoff, counts retry exhaustions, and
    /// triggers failover at the configured threshold. Exhaustion kills
    /// the *lane* — a single VCI context can die while its rail's other
    /// contexts stay live; a physical rail death simply exhausts every
    /// lane it carries.
    fn check_retransmit(&self, g: &Gate, lane: usize, now: u64) -> usize {
        let r = &self.config.reliability;
        let mut dead = false;
        let mut events = 0;
        let (rail, vci) = g.lane_rail_vci(lane);
        let s = self
            .policy
            .enter(SectionKind::Retrans(g.driver_base + lane));
        g.rel[lane].with(&s, |rel| {
            rel.timer_armed = false;
            if g.lane_is_dead(lane) {
                return;
            }
            let Some(head) = rel.unacked.front_mut() else {
                return; // everything acked since the timer was armed
            };
            if now >= head.retx_at_ns {
                if head.attempts >= r.max_retries {
                    rel.exhaustions += 1;
                    if rel.exhaustions >= r.rail_dead_threshold {
                        dead = true;
                        return;
                    }
                    // Keep trying at maximum backoff until the lane is
                    // declared dead.
                    head.attempts = 0;
                }
                head.attempts += 1;
                let backoff = r
                    .rto_base_ns
                    .saturating_mul(1u64 << head.attempts.min(24))
                    .min(r.rto_max_ns);
                head.retx_at_ns = now + backoff;
                self.stats.retransmits.incr();
                events += 1;
                nm_trace::trace_event!(Retransmit, g.driver_base + lane, head.wseq);
                if head.span != 0 {
                    nm_trace::trace_event!(SpanRetx, head.span, head.wseq);
                }
                let frame =
                    head.packet
                        .frame(head.wseq, rel.rx_expected, FRAME_RELIABLE, head.span);
                rel.ack_pending = false;
                let d = self.policy.enter(SectionKind::Driver(g.driver_base + lane));
                // WouldBlock: the rearmed timer simply tries again.
                let _ = g.drivers[rail].post_vci(vci, frame);
                drop(d);
            }
            rel.timer_armed = true;
            let at = rel.unacked.front().expect("head checked").retx_at_ns;
            self.timers
                .schedule(at, TimerItem::Retx { gate: g.id.0, lane });
        });
        drop(s);
        if dead {
            events += self.kill_lane(g, lane);
        }
        events
    }

    /// Declares `lane` dead and re-stripes everything it still owed onto
    /// the surviving lanes. With no lane left the gate's in-flight sends
    /// fail with [`CommError::PeerUnreachable`].
    fn kill_lane(&self, g: &Gate, lane: usize) -> usize {
        if !g.mark_lane_dead(lane) {
            return 0; // another thread ran the failover
        }
        self.stats.rails_failed.incr();
        nm_trace::trace_event!(RailDead, g.id.0, g.driver_base + lane);
        // Unacknowledged frames go back to packet form: a surviving lane
        // re-frames them under its own sequence space. Spans ride along
        // so the restriped retry tail stays attributable.
        let packets: Vec<(OutPacket, u64)> = {
            let s = self
                .policy
                .enter(SectionKind::Retrans(g.driver_base + lane));
            let packets = g.rel[lane].with(&s, |rel| {
                rel.unacked.drain(..).map(|f| (f.packet, f.span)).collect()
            });
            drop(s);
            packets
        };
        let live: Vec<usize> = (0..g.num_lanes()).filter(|&l| !g.lane_is_dead(l)).collect();
        if live.is_empty() {
            self.fail_gate(g);
            nm_obs::flight::record_failure("rail-dead", 0, 0);
            return 1;
        }
        for (i, (packet, span)) in packets.into_iter().enumerate() {
            let to = live[i % live.len()];
            let s = self.policy.enter(SectionKind::Vci(g.driver_base + to));
            g.xfer[to].with(&s, |q| {
                q.push_back(XferItem {
                    packet,
                    complete_on_post: Vec::new(),
                    rdv_done: None,
                    span,
                })
            });
            drop(s);
        }
        self.migrate_stranded(g, lane);
        nm_obs::flight::record_failure("rail-dead", 0, 0);
        1
    }

    /// Moves a dead lane's queued transfer items to the surviving lanes
    /// (failed requests if none survive). Returns 1 if anything moved.
    ///
    /// The liveness snapshot is taken *after* draining the stranded
    /// queue: a lane that dies between the snapshot and the re-push is
    /// re-drained by its own killer's `migrate_stranded` (every
    /// `kill_lane` transition runs one), so a migrated item can chase
    /// failovers but never lands permanently on a dead lane.
    fn migrate_stranded(&self, g: &Gate, lane: usize) -> usize {
        let stranded: Vec<XferItem> = {
            let s = self.policy.enter(SectionKind::Vci(g.driver_base + lane));
            let items = g.xfer[lane].with(&s, |q| q.drain(..).collect());
            drop(s);
            items
        };
        if stranded.is_empty() {
            return 0;
        }
        let live: Vec<usize> = (0..g.num_lanes()).filter(|&l| !g.lane_is_dead(l)).collect();
        if live.is_empty() {
            for item in stranded {
                for req in item.complete_on_post {
                    req.fail(CommError::PeerUnreachable);
                }
                if let Some(done) = item.rdv_done {
                    done.req.fail(CommError::PeerUnreachable);
                }
            }
            return 1;
        }
        for (i, item) in stranded.into_iter().enumerate() {
            let to = live[i % live.len()];
            let s = self.policy.enter(SectionKind::Vci(g.driver_base + to));
            g.xfer[to].with(&s, |q| q.push_back(item));
            drop(s);
        }
        1
    }

    /// Every lane is dead: fail all of the gate's in-flight send work so
    /// nothing waits forever on an unreachable peer.
    fn fail_gate(&self, g: &Gate) {
        let (items, rdvs) = {
            let s = self.policy.enter(SectionKind::CollectTx(g.id.0));
            let out = g.tx.with(&s, |tx| {
                let items: Vec<SendItem> = tx.queue.drain(..).collect();
                let rdvs: Vec<RdvSend> = tx.rdv_out.drain().map(|(_, rdv)| rdv).collect();
                (items, rdvs)
            });
            drop(s);
            out
        };
        for item in items {
            if let Some(req) = item.req {
                req.fail(CommError::PeerUnreachable);
            }
        }
        for rdv in rdvs {
            rdv.req.fail(CommError::PeerUnreachable);
        }
        for lane in 0..g.num_lanes() {
            self.migrate_stranded(g, lane);
        }
    }
}

/// Queue depths across the library's layers (see [`CommCore::pending`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PendingCounts {
    /// Send items waiting in collect-layer queues.
    pub collect_items: usize,
    /// Pre-encoded packets waiting in transfer-layer lists.
    pub xfer_items: usize,
    /// Outbound rendezvous waiting for their CTS.
    pub rdv_awaiting_cts: usize,
    /// Posted receives not yet matched.
    pub posted_recvs: usize,
    /// Unexpected (early) eager messages buffered.
    pub unexpected: usize,
    /// RTS received with no matching receive yet.
    pub pending_rts: usize,
    /// Inbound rendezvous reassemblies in progress.
    pub rdv_reassembling: usize,
    /// Eager messages parked by the resequencer.
    pub eager_out_of_order: usize,
    /// Frames sitting in retransmit windows awaiting acknowledgement
    /// (always 0 with reliability disabled).
    pub unacked_frames: usize,
}

/// Effects that must run outside the collect section (completions signal
/// condvars; CTS starts chunk distribution over rails).
enum After {
    CompleteRecv(Request, u64, Bytes),
    StartData(RdvSend),
}

impl CommCore {
    /// Matches one in-order eager message against the posted receives, or
    /// parks it in the unexpected bins. Runs under the gate's rx section.
    fn deliver_eager(
        &self,
        rx: &mut crate::gate::RxState,
        tag: u64,
        seq: u32,
        data: Bytes,
        after: &mut Vec<After>,
    ) {
        if let Some(p) = rx.take_posted(tag) {
            after.push(After::CompleteRecv(p.req, tag, data));
        } else {
            self.stats.unexpected_msgs.incr();
            rx.push_unexpected(UnexpectedMsg { tag, seq, data });
        }
    }

    /// Matches one in-order RTS against the posted receives (queueing
    /// its CTS via `cts_out`), or parks it in the pending-RTS bins.
    /// Runs under the gate's rx section.
    fn accept_rts(
        &self,
        rx: &mut crate::gate::RxState,
        tag: u64,
        seq: u32,
        total: u32,
        cts_out: &mut Vec<(u64, u32, u64)>,
    ) {
        if let Some(p) = rx.take_posted(tag) {
            let recv_span = p.req.span();
            rx.rdv_in_insert(RdvRecv {
                tag,
                seq,
                total,
                received: 0,
                buf: recycle::REASSEMBLY.zeroed(total as usize),
                req: p.req,
                chunks: std::collections::BTreeMap::new(),
            });
            self.stats.rdv_accepted.incr();
            cts_out.push((tag, seq, recv_span));
        } else if !rx.push_pending_rts(PendingRts { tag, seq, total }) {
            self.stats.dup_dropped.incr();
        }
    }

    /// Advances the resequencer past a just-released message and drains
    /// every parked message that is now in order, whichever protocol it
    /// belongs to. Runs under the gate's rx section.
    fn release_parked(
        &self,
        rx: &mut crate::gate::RxState,
        after: &mut Vec<After>,
        cts_out: &mut Vec<(u64, u32, u64)>,
    ) {
        rx.expected_seq = rx.expected_seq.wrapping_add(1);
        while let Some(parked) = rx.take_ooo(rx.expected_seq) {
            match parked {
                Parked::Eager(m) => self.deliver_eager(rx, m.tag, m.seq, m.data, after),
                Parked::Rts(r) => self.accept_rts(rx, r.tag, r.seq, r.total, cts_out),
            }
            rx.expected_seq = rx.expected_seq.wrapping_add(1);
        }
    }
}

impl PollSource for CommCore {
    fn poll(&self) -> PollOutcome {
        if self.progress() > 0 {
            PollOutcome::Progressed
        } else {
            PollOutcome::Idle
        }
    }
    fn name(&self) -> &str {
        "nm-core"
    }
}

/// A [`PollSource`] restricted to one lane shard of a core (see
/// [`CommCore::progress_shard`]): it keeps the core alive and polls
/// only its shard's VCI contexts each pass.
pub struct VciPollSource {
    core: Arc<CommCore>,
    shard: usize,
    num_shards: usize,
    name: String,
}

impl PollSource for VciPollSource {
    fn poll(&self) -> PollOutcome {
        if self.core.progress_shard(self.shard, self.num_shards) > 0 {
            PollOutcome::Progressed
        } else {
            PollOutcome::Idle
        }
    }
    fn name(&self) -> &str {
        &self.name
    }
}

impl std::fmt::Debug for CommCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommCore")
            .field("gates", &self.gates.len())
            .field("locking", &self.config.locking)
            .field("strategy", &self.strategy.name())
            .finish()
    }
}
