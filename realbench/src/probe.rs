//! Timing probes of the traced run.
//!
//! The probes sit at layer boundaries and live in the benchmark, not in
//! the program: [`Stack`](crate::Stack) times its own calls into
//! `CommCore::isend`/`irecv`/`progress`, [`TimedDriver`] is the `Driver`
//! handed to `CoreBuilder::add_gate`, and [`TimedSource`] is the
//! `PollSource` registered with the progression engine. Both wrappers
//! forward every call, and return every result, unchanged.

use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use nm_fabric::{Driver, DriverCaps, PostError};
use nm_progress::{PollOutcome, PollSource};

thread_local! {
    /// Driver time spent on this thread so far; a caller subtracts the
    /// driver calls nested inside its own span to get its self time.
    static DRIVER_NS: Cell<u64> = const { Cell::new(0) };
}

/// Call count and time of one probed boundary.
///
/// The atomics are statistics that publish no other data, hence
/// `Relaxed`; they are read after the threads that write them have
/// finished the measured phase.
#[derive(Default)]
pub struct Span {
    calls: AtomicU64,
    ns: AtomicU64,
    self_ns: AtomicU64,
    hits: AtomicU64,
    bytes: AtomicU64,
}

/// A copy of a [`Span`]'s counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Calls made.
    pub calls: u64,
    /// Time inside the calls, ns.
    pub ns: u64,
    /// Time inside the calls minus the driver calls nested in them, ns.
    pub self_ns: u64,
    /// Calls that did useful work (events handled, packet accepted or
    /// returned).
    pub hits: u64,
    /// Bytes moved by the useful calls.
    pub bytes: u64,
}

impl SpanTotals {
    /// Counter-wise difference `self - earlier`.
    pub fn since(&self, earlier: &SpanTotals) -> SpanTotals {
        SpanTotals {
            calls: self.calls - earlier.calls,
            ns: self.ns - earlier.ns,
            self_ns: self.self_ns - earlier.self_ns,
            hits: self.hits - earlier.hits,
            bytes: self.bytes - earlier.bytes,
        }
    }
}

impl Span {
    fn record(&self, ns: u64, self_ns: u64, hit: Option<u64>) {
        self.calls.fetch_add(1, Relaxed);
        self.ns.fetch_add(ns, Relaxed);
        self.self_ns.fetch_add(self_ns, Relaxed);
        if let Some(bytes) = hit {
            self.hits.fetch_add(1, Relaxed);
            self.bytes.fetch_add(bytes, Relaxed);
        }
    }

    /// Current totals.
    pub fn totals(&self) -> SpanTotals {
        SpanTotals {
            calls: self.calls.load(Relaxed),
            ns: self.ns.load(Relaxed),
            self_ns: self.self_ns.load(Relaxed),
            hits: self.hits.load(Relaxed),
            bytes: self.bytes.load(Relaxed),
        }
    }

    /// Times `f` as a call into a layer above the driver. `hit` says
    /// whether the call did useful work, and how many bytes.
    pub fn time<R>(&self, f: impl FnOnce() -> R, hit: impl FnOnce(&R) -> Option<u64>) -> R {
        let driver_before = DRIVER_NS.get();
        let t = Instant::now();
        let r = f();
        let ns = t.elapsed().as_nanos() as u64;
        let nested = DRIVER_NS.get() - driver_before;
        self.record(ns, ns.saturating_sub(nested), hit(&r));
        r
    }

    /// Times `f` as a driver call, charging it to this thread's driver
    /// time.
    fn time_driver<R>(&self, f: impl FnOnce() -> R, hit: impl FnOnce(&R) -> Option<u64>) -> R {
        let t = Instant::now();
        let r = f();
        let ns = t.elapsed().as_nanos() as u64;
        DRIVER_NS.set(DRIVER_NS.get() + ns);
        self.record(ns, ns, hit(&r));
        r
    }
}

/// Every probed boundary of one traced stack.
#[derive(Default)]
pub struct Probe {
    /// `CommCore::isend`.
    pub isend: Span,
    /// `CommCore::irecv`.
    pub irecv: Span,
    /// `CommCore::progress`, called by the benchmark or by the engine.
    pub progress: Span,
    /// `Driver::post`/`post_vci`; hits are accepted posts.
    pub post: Span,
    /// `Driver::poll`/`poll_vci`; hits are returned packets.
    pub poll: Span,
}

/// A copy of every [`Probe`] counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeTotals {
    /// See [`Probe::isend`].
    pub isend: SpanTotals,
    /// See [`Probe::irecv`].
    pub irecv: SpanTotals,
    /// See [`Probe::progress`].
    pub progress: SpanTotals,
    /// See [`Probe::post`].
    pub post: SpanTotals,
    /// See [`Probe::poll`].
    pub poll: SpanTotals,
}

impl Probe {
    /// Current totals.
    pub fn totals(&self) -> ProbeTotals {
        ProbeTotals {
            isend: self.isend.totals(),
            irecv: self.irecv.totals(),
            progress: self.progress.totals(),
            post: self.post.totals(),
            poll: self.poll.totals(),
        }
    }
}

impl ProbeTotals {
    /// Counter-wise difference `self - earlier`.
    pub fn since(&self, earlier: &ProbeTotals) -> ProbeTotals {
        ProbeTotals {
            isend: self.isend.since(&earlier.isend),
            irecv: self.irecv.since(&earlier.irecv),
            progress: self.progress.since(&earlier.progress),
            post: self.post.since(&earlier.post),
            poll: self.poll.since(&earlier.poll),
        }
    }
}

fn posted(len: usize) -> impl FnOnce(&Result<(), PostError>) -> Option<u64> {
    move |r| r.is_ok().then_some(len as u64)
}

fn polled(r: &Option<Bytes>) -> Option<u64> {
    r.as_ref().map(|b| b.len() as u64)
}

/// A [`Driver`] that times `post` and `poll` on the inner driver and
/// forwards everything else, the whole VCI family included.
pub struct TimedDriver {
    inner: Arc<dyn Driver>,
    probe: Arc<Probe>,
}

impl TimedDriver {
    /// Wraps `inner`, recording into `probe`.
    pub fn new(inner: Arc<dyn Driver>, probe: Arc<Probe>) -> Self {
        TimedDriver { inner, probe }
    }
}

impl Driver for TimedDriver {
    fn caps(&self) -> &DriverCaps {
        self.inner.caps()
    }
    fn can_post(&self) -> bool {
        self.inner.can_post()
    }
    fn post(&self, data: Bytes) -> Result<(), PostError> {
        let len = data.len();
        self.probe
            .post
            .time_driver(|| self.inner.post(data), posted(len))
    }
    fn poll(&self) -> Option<Bytes> {
        self.probe.poll.time_driver(|| self.inner.poll(), polled)
    }
    fn next_event_ns(&self) -> Option<u64> {
        self.inner.next_event_ns()
    }
    fn num_vcis(&self) -> usize {
        self.inner.num_vcis()
    }
    fn can_post_vci(&self, vci: usize) -> bool {
        self.inner.can_post_vci(vci)
    }
    fn post_vci(&self, vci: usize, data: Bytes) -> Result<(), PostError> {
        let len = data.len();
        self.probe
            .post
            .time_driver(|| self.inner.post_vci(vci, data), posted(len))
    }
    fn poll_vci(&self, vci: usize) -> Option<Bytes> {
        self.probe
            .poll
            .time_driver(|| self.inner.poll_vci(vci), polled)
    }
    fn next_event_ns_vci(&self, vci: usize) -> Option<u64> {
        self.inner.next_event_ns_vci(vci)
    }
}

/// A [`PollSource`] that times each pass of the inner source into
/// [`Probe::progress`] and returns the inner outcome.
pub struct TimedSource {
    inner: Arc<dyn PollSource>,
    probe: Arc<Probe>,
}

impl TimedSource {
    /// Wraps `inner`, recording into `probe`.
    pub fn new(inner: Arc<dyn PollSource>, probe: Arc<Probe>) -> Self {
        TimedSource { inner, probe }
    }
}

impl PollSource for TimedSource {
    fn poll(&self) -> PollOutcome {
        self.probe.progress.time(
            || self.inner.poll(),
            |o| (*o == PollOutcome::Progressed).then_some(0),
        )
    }
    fn name(&self) -> &str {
        self.inner.name()
    }
}
