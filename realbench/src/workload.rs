//! The four workloads: stack construction, seeded traffic, the closed
//! drive loops and payload verification.

use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use bytes::Bytes;
use nm_core::{
    CommCore, CommError, CoreBuilder, CoreConfig, CoreStats, GateId, ReliabilityConfig, Request,
};
use nm_fabric::{ChaosDriver, Driver, Fabric, FaultPlan, SimNic, SimNicDriver, WireModel};
use nm_progress::{IdlePolicy, PollSource, ProgressEngine, ProgressionThread};

use crate::hist::Hist;
use crate::probe::{Probe, ProbeTotals, TimedDriver, TimedSource};

/// Messages per window of the message-rate workloads.
pub const WINDOW: usize = 32;
/// Tags the traffic cycles through; receives match FIFO per tag.
const TAGS: u64 = 4;
/// Packet loss probability of each chaos wire in `msgrate_lossy`.
pub const LOSS: f64 = 0.005;
/// A round that takes longer than this is reported as a stall.
const STALL: Duration = Duration::from_secs(20);
/// A measured phase is cut into slices of at least this long and at
/// least [`SLICE_ROUNDS`] rounds; time metrics are medians over slices.
const SLICE: Duration = Duration::from_millis(200);
/// Minimum rounds in a slice.
const SLICE_ROUNDS: u64 = 20;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 8 B eager ping-pong on an ideal wire, one thread co-polling.
    PingpongSmall,
    /// 1 MiB rendezvous ping-pong on an ideal wire, one thread
    /// co-polling.
    PingpongLarge,
    /// Windows of 32 × 8 B on Myri-10G; the app thread submits and
    /// spins on flags while a progression thread polls both cores.
    MsgrateProgthread,
    /// Windows of 32 × 4 KiB on Myri-10G with seeded loss and the
    /// reliability protocol, one thread co-polling.
    MsgrateLossy,
}

impl Workload {
    /// Every workload, in the order the benchmark runs them.
    pub const ALL: [Workload; 4] = [
        Workload::PingpongSmall,
        Workload::PingpongLarge,
        Workload::MsgrateProgthread,
        Workload::MsgrateLossy,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PingpongSmall => "pingpong_small",
            Workload::PingpongLarge => "pingpong_large",
            Workload::MsgrateProgthread => "msgrate_progthread",
            Workload::MsgrateLossy => "msgrate_lossy",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Payload bytes of one message.
    pub fn msg_size(self) -> usize {
        match self {
            Workload::PingpongSmall | Workload::MsgrateProgthread => 8,
            Workload::PingpongLarge => 1 << 20,
            Workload::MsgrateLossy => 4 << 10,
        }
    }

    /// Name of the wire model.
    pub fn wire_name(self) -> &'static str {
        match self {
            Workload::PingpongSmall | Workload::PingpongLarge => "ideal",
            Workload::MsgrateProgthread | Workload::MsgrateLossy => "myri_10g",
        }
    }

    fn wire(self) -> WireModel {
        match self {
            Workload::PingpongSmall | Workload::PingpongLarge => WireModel::ideal(),
            Workload::MsgrateProgthread | Workload::MsgrateLossy => WireModel::myri_10g(),
        }
    }

    /// Threads the workload runs.
    pub fn threads(self) -> usize {
        if self == Workload::MsgrateProgthread {
            2
        } else {
            1
        }
    }

    /// Whether the wire drops packets.
    pub fn lossy(self) -> bool {
        self == Workload::MsgrateLossy
    }

    fn pingpong(self) -> bool {
        matches!(self, Workload::PingpongSmall | Workload::PingpongLarge)
    }
}

/// SplitMix64 step: the benchmark's only source of randomness.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `len` seeded bytes.
pub fn seeded_bytes(state: &mut u64, len: usize) -> Vec<u8> {
    let mut buf = Vec::with_capacity(len + 8);
    while buf.len() < len {
        buf.extend_from_slice(&splitmix(state).to_le_bytes());
    }
    buf.truncate(len);
    buf
}

/// The payloads a workload sends, generated from the seed before any
/// timing. Message `m` carries `payload(m)` on tag `m % 4`; the pool
/// entries are distinct and outnumber a window, so a lost, duplicated
/// or reordered message fails verification.
pub struct Traffic {
    pool: Vec<Bytes>,
}

impl Traffic {
    /// The payload pool of `w` for `seed`.
    pub fn new(w: Workload, seed: u64) -> Traffic {
        let n = if w == Workload::PingpongLarge {
            4
        } else {
            2 * WINDOW
        };
        let mut state = seed;
        let mut pool: Vec<Bytes> = Vec::with_capacity(n);
        while pool.len() < n {
            let p = seeded_bytes(&mut state, w.msg_size());
            if !pool.iter().any(|q| q[..] == p[..]) {
                pool.push(p.into());
            }
        }
        Traffic { pool }
    }

    fn payload(&self, m: u64) -> &Bytes {
        &self.pool[(m % self.pool.len() as u64) as usize]
    }
}

fn tag(m: u64) -> u64 {
    m % TAGS
}

/// The CPUs `msgrate_progthread` binds its app and progression threads
/// to, when the process may use two. Without binding, both spinning
/// threads can share one CPU until the scheduler separates them, which
/// took up to half a second in trial runs.
pub fn placement() -> Option<(usize, usize)> {
    static CPUS: OnceLock<Vec<usize>> = OnceLock::new();
    let cpus = CPUS.get_or_init(|| nm_topo::affinity::current_affinity().unwrap_or_default());
    (cpus.len() >= 2).then(|| (cpus[0], cpus[1]))
}

/// Binds the calling app thread for `msgrate_progthread` and restores
/// its affinity on drop.
struct AppPin(Option<Vec<usize>>);

impl AppPin {
    fn new(w: Workload) -> AppPin {
        let placed = (w == Workload::MsgrateProgthread).then(placement).flatten();
        let Some((app, _)) = placed else {
            return AppPin(None);
        };
        let Ok(before) = nm_topo::affinity::current_affinity() else {
            return AppPin(None);
        };
        AppPin(
            nm_topo::affinity::bind_current_thread(app)
                .ok()
                .map(|()| before),
        )
    }
}

impl Drop for AppPin {
    fn drop(&mut self) {
        if let Some(before) = &self.0 {
            let _ = nm_topo::affinity::unbind_current_thread(before);
        }
    }
}

/// Cumulative counters of a stack; differences give a phase's work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// `CoreStats::packets_tx`, both cores.
    pub packets_tx: u64,
    /// `CoreStats::aggregated_packets`, both cores.
    pub aggregated_packets: u64,
    /// `CoreStats::unexpected_msgs`, both cores.
    pub unexpected_msgs: u64,
    /// `CoreStats::retransmits`, both cores.
    pub retransmits: u64,
    /// `CoreStats::acks_tx`, both cores.
    pub acks_tx: u64,
    /// `CoreStats::wire_errors`, both cores.
    pub wire_errors: u64,
    /// `ChaosStats::lost`, both wires.
    pub lost: u64,
    /// `ProgressEngine::total_polls`.
    pub engine_polls: u64,
    /// `ProgressEngine::total_progressions`.
    pub engine_progressions: u64,
    /// The probes of a traced stack.
    pub probe: ProbeTotals,
}

impl Counters {
    /// Counter-wise difference `self - earlier`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        Counters {
            packets_tx: self.packets_tx - earlier.packets_tx,
            aggregated_packets: self.aggregated_packets - earlier.aggregated_packets,
            unexpected_msgs: self.unexpected_msgs - earlier.unexpected_msgs,
            retransmits: self.retransmits - earlier.retransmits,
            acks_tx: self.acks_tx - earlier.acks_tx,
            wire_errors: self.wire_errors - earlier.wire_errors,
            lost: self.lost - earlier.lost,
            engine_polls: self.engine_polls - earlier.engine_polls,
            engine_progressions: self.engine_progressions - earlier.engine_progressions,
            probe: self.probe.since(&earlier.probe),
        }
    }
}

/// Two connected cores built the way a workload runs them, with the
/// probes of a traced run when `probe` is set.
pub struct Stack {
    /// The sending core (ping side).
    pub a: Arc<CommCore>,
    /// The receiving core (pong side).
    pub b: Arc<CommCore>,
    chaos: Vec<Arc<ChaosDriver<SimNicDriver>>>,
    engine: Option<Arc<ProgressEngine>>,
    thread: Option<ProgressionThread>,
    probe: Option<Arc<Probe>>,
}

impl Stack {
    /// Builds the fabric, both cores and, for `msgrate_progthread`, the
    /// engine and its spinning progression thread. The chaos plans draw
    /// their seeds from `seed`.
    pub fn build(w: Workload, seed: u64, probe: Option<Arc<Probe>>) -> Stack {
        let fabric = Fabric::real_time();
        let mut chaos = Vec::new();
        let (da, db): (Arc<dyn Driver>, Arc<dyn Driver>) = if w.lossy() {
            let (na, nb) = SimNic::pair("rail0", w.wire(), fabric.clock().clone());
            let mut state = seed ^ 0xC4A0_5EED;
            for nic in [na, nb] {
                let plan = FaultPlan::new(splitmix(&mut state)).loss(LOSS);
                chaos.push(Arc::new(ChaosDriver::new(
                    SimNicDriver::new(nic, true),
                    plan,
                )));
            }
            (chaos[0].clone(), chaos[1].clone())
        } else {
            let (pa, pb) = fabric.pair(&[w.wire()], true);
            (pa.drivers().remove(0), pb.drivers().remove(0))
        };
        let wrap = |d: Arc<dyn Driver>| -> Arc<dyn Driver> {
            match &probe {
                Some(p) => Arc::new(TimedDriver::new(d, p.clone())),
                None => d,
            }
        };
        let mut config = CoreConfig::default();
        if w.lossy() {
            config = config.reliability(ReliabilityConfig::enabled());
        }
        let a = CoreBuilder::new(config.clone())
            .add_gate(vec![wrap(da)])
            .build();
        let b = CoreBuilder::new(config).add_gate(vec![wrap(db)]).build();
        let (engine, thread) = if w == Workload::MsgrateProgthread {
            let engine = Arc::new(ProgressEngine::new());
            for core in [&a, &b] {
                let source: Arc<dyn PollSource> = core.clone();
                engine.register(match &probe {
                    Some(p) => Arc::new(TimedSource::new(source, p.clone())),
                    None => source,
                });
            }
            let cpu = placement().map(|(_, progress)| progress);
            let thread = ProgressionThread::spawn(engine.clone(), cpu, IdlePolicy::Spin);
            (Some(engine), Some(thread))
        } else {
            (None, None)
        };
        Stack {
            a,
            b,
            chaos,
            engine,
            thread,
            probe,
        }
    }

    /// Stops and joins the progression thread, if any.
    pub fn shutdown(mut self) {
        if let Some(t) = self.thread.take() {
            t.stop();
        }
    }

    /// Current cumulative counters.
    pub fn counters(&self) -> Counters {
        let sum = |f: fn(&CoreStats) -> u64| f(self.a.stats()) + f(self.b.stats());
        Counters {
            packets_tx: sum(|s| s.packets_tx.get()),
            aggregated_packets: sum(|s| s.aggregated_packets.get()),
            unexpected_msgs: sum(|s| s.unexpected_msgs.get()),
            retransmits: sum(|s| s.retransmits.get()),
            acks_tx: sum(|s| s.acks_tx.get()),
            wire_errors: sum(|s| s.wire_errors.get()),
            lost: self.chaos.iter().map(|c| c.stats().lost).sum(),
            engine_polls: self.engine.as_ref().map_or(0, |e| e.total_polls()),
            engine_progressions: self.engine.as_ref().map_or(0, |e| e.total_progressions()),
            probe: self.probe.as_ref().map(|p| p.totals()).unwrap_or_default(),
        }
    }

    fn isend(&self, core: &CommCore, tag: u64, data: Bytes) -> Result<Request, CommError> {
        match &self.probe {
            Some(p) => p
                .isend
                .time(|| core.isend(GateId(0), tag, data), |_| Some(0)),
            None => core.isend(GateId(0), tag, data),
        }
    }

    fn irecv(&self, core: &CommCore, tag: u64) -> Result<Request, CommError> {
        match &self.probe {
            Some(p) => p.irecv.time(|| core.irecv(GateId(0), tag), |_| Some(0)),
            None => core.irecv(GateId(0), tag),
        }
    }

    fn progress(&self, core: &CommCore) {
        match &self.probe {
            Some(p) => {
                p.progress
                    .time(|| core.progress(), |&e| (e > 0).then_some(0));
            }
            None => {
                core.progress();
            }
        }
    }

    /// Co-polls both cores until every request in `reqs` completes.
    fn settle(&self, reqs: &[&Request], round_start: Instant) -> Result<(), String> {
        let mut spins = 0u32;
        while !reqs.iter().all(|r| r.is_complete()) {
            self.progress(&self.a);
            self.progress(&self.b);
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(4096) && round_start.elapsed() > STALL {
                return Err(format!("round stalled for {STALL:?}"));
            }
        }
        Ok(())
    }
}

/// How long a drive phase runs.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Whole slices until this much measured time has passed (at least
    /// one slice).
    Time(Duration),
    /// Exactly this many rounds, in one slice.
    Rounds(u64),
}

/// What one slice of a measured phase did.
#[derive(Debug, Clone, Copy, Default)]
pub struct Slice {
    /// Wall time, ns.
    pub ns: u64,
    /// Messages delivered.
    pub msgs: u64,
    /// Verified payload bytes delivered.
    pub payload_bytes: u64,
    /// Median and 99th percentile of one-way time, ns.
    pub oneway_p50: f64,
    /// See `oneway_p50`.
    pub oneway_p99: f64,
    /// Median and 99th percentile of round time, ns.
    pub round_p50: f64,
    /// See `round_p50`.
    pub round_p99: f64,
}

/// What one measured phase did.
#[derive(Default)]
pub struct Phase {
    /// The measured slices, in order.
    pub slices: Vec<Slice>,
    /// Measured wall time (sum over slices), read on the app thread.
    pub elapsed_ns: u64,
    /// Messages delivered in the measured slices.
    pub msgs: u64,
    /// Verified payload bytes delivered in the measured slices.
    pub payload_bytes: u64,
    /// One-way samples in the measured slices: half a round trip, or
    /// from a message's `isend` to the app seeing its receive complete.
    pub oneway_samples: u64,
    /// Round samples in the measured slices: a round trip, or a window.
    pub round_samples: u64,
    /// Messages attempted, warm-up included.
    pub attempted: u64,
    /// Messages whose requests completed with an error or whose
    /// payload failed verification, warm-up included.
    pub failed: u64,
    /// The first failure, for the log.
    pub first_failure: Option<String>,
    /// App-thread time from the end of posting to round completion.
    pub wait_ns: u64,
    /// Stack construction times taken between slices, seconds.
    pub setup_s: Vec<f64>,
    /// Counter differences over the measured phase.
    pub delta: Counters,
    /// `CoreStats::wire_errors` of both cores over the whole phase.
    pub wire_errors_total: u64,
    /// `sync.lock.acquisitions` over the measured phase.
    pub lock_acquisitions: u64,
    /// `sync.lock.contended` over the measured phase.
    pub lock_contended: u64,
    /// Median of `sync.lock.wait_ns` over the measured phase, ns.
    pub lock_wait_p50_ns: f64,
    oneway: Hist,
    round: Hist,
}

/// Median of `values` (0 when empty).
pub fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

impl Phase {
    /// Median over the slices of `f`.
    pub fn median(&self, f: impl Fn(&Slice) -> f64) -> f64 {
        median(self.slices.iter().map(f).collect())
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first_failure.is_none() {
                self.first_failure = Some(what());
            }
        }
    }

    fn close_slice(&mut self, ns: u64, msgs: u64, payload_bytes: u64) {
        self.slices.push(Slice {
            ns,
            msgs,
            payload_bytes,
            oneway_p50: self.oneway.quantile(0.50),
            oneway_p99: self.oneway.quantile(0.99),
            round_p50: self.round.quantile(0.50),
            round_p99: self.round.quantile(0.99),
        });
        self.elapsed_ns += ns;
        self.oneway_samples += self.oneway.count();
        self.round_samples += self.round.count();
        self.oneway.clear();
        self.round.clear();
    }
}

struct Loop<'a> {
    w: Workload,
    seed: u64,
    st: &'a Stack,
    traffic: &'a Traffic,
    next: u64,
    recvs: Vec<Request>,
    sends: Vec<Request>,
    posted_at: Vec<Instant>,
    done: Vec<bool>,
}

fn ns(d: Duration) -> u64 {
    d.as_nanos() as u64
}

fn verify(payload: &Bytes, tag: u64, send: &Request, recv: &Request, got: Option<&Bytes>) -> bool {
    let send_ok = send.take_error().is_none();
    let recv_ok = recv.take_error().is_none();
    send_ok && recv_ok && recv.matched_tag() == Some(tag) && got == Some(payload)
}

impl Loop<'_> {
    /// Runs slices until `budget` is spent. With `time_setups`, builds
    /// and tears down a spare stack between slices, outside slice time,
    /// and records how long each construction took; spreading them over
    /// the phase keeps a short host slowdown from deciding `setup_s`.
    fn measure(&mut self, ph: &mut Phase, budget: Budget, time_setups: bool) -> Result<(), String> {
        if let Budget::Rounds(0) = budget {
            return Ok(());
        }
        let (mut rounds, mut measured) = (0u64, Duration::ZERO);
        loop {
            let (msgs, bytes) = (ph.msgs, ph.payload_bytes);
            let (t0, mut k) = (Instant::now(), 0);
            loop {
                if self.w.pingpong() {
                    self.pingpong(ph)?;
                } else {
                    self.window(ph)?;
                }
                k += 1;
                rounds += 1;
                let closed = match budget {
                    Budget::Rounds(r) => rounds >= r,
                    Budget::Time(_) => k >= SLICE_ROUNDS && t0.elapsed() >= SLICE,
                };
                if closed {
                    break;
                }
            }
            let elapsed = t0.elapsed();
            measured += elapsed;
            ph.close_slice(ns(elapsed), ph.msgs - msgs, ph.payload_bytes - bytes);
            if time_setups {
                let t = Instant::now();
                let spare = Stack::build(self.w, self.seed, None);
                ph.setup_s.push(t.elapsed().as_secs_f64());
                spare.shutdown();
            }
            match budget {
                Budget::Rounds(r) if rounds >= r => return Ok(()),
                Budget::Time(d) if measured >= d => return Ok(()),
                _ => {}
            }
        }
    }

    /// One round trip: `a` sends message `m` to `b`, which echoes it.
    fn pingpong(&mut self, ph: &mut Phase) -> Result<(), String> {
        let (st, m) = (self.st, self.next);
        self.next += 1;
        let (payload, tag) = (self.traffic.payload(m), tag(m));
        let err = |e: CommError| format!("post failed: {e}");
        // The wait timestamps feed only `app.wait_share`; an untraced
        // round reads the clock twice, as few times as its timing needs.
        let traced = st.probe.is_some();
        let stamp = || traced.then(Instant::now);
        let t0 = Instant::now();
        let r = st.irecv(&st.b, tag).map_err(err)?;
        let s = st.isend(&st.a, tag, payload.clone()).map_err(err)?;
        let t1 = stamp();
        st.settle(&[&r, &s], t0)?;
        let t2 = stamp();
        let ping = r.take_data();
        let r2 = st.irecv(&st.a, tag).map_err(err)?;
        let s2 = st
            .isend(&st.b, tag, ping.clone().unwrap_or_default())
            .map_err(err)?;
        let t3 = stamp();
        st.settle(&[&r2, &s2], t0)?;
        let end = Instant::now();
        let pong = r2.take_data();

        let rtt = ns(end - t0);
        ph.round.record(rtt);
        ph.oneway.record(rtt / 2);
        if let (Some(t1), Some(t2), Some(t3)) = (t1, t2, t3) {
            ph.wait_ns += ns(t2 - t1) + ns(end - t3);
        }
        ph.msgs += 2;
        ph.payload_bytes += 2 * payload.len() as u64;
        ph.check(verify(payload, tag, &s, &r, ping.as_ref()), || {
            format!("ping {m} failed verification")
        });
        ph.check(verify(payload, tag, &s2, &r2, pong.as_ref()), || {
            format!("pong {m} failed verification")
        });
        Ok(())
    }

    /// One window: 32 receives posted on `b`, then 32 sends on `a`,
    /// then wait until all complete.
    fn window(&mut self, ph: &mut Phase) -> Result<(), String> {
        let (st, base) = (self.st, self.next);
        self.next += WINDOW as u64;
        let copolled = self.w != Workload::MsgrateProgthread;
        let err = |e: CommError| format!("post failed: {e}");
        self.recvs.clear();
        self.sends.clear();
        self.posted_at.clear();
        self.done.clear();
        self.done.resize(WINDOW, false);

        let t0 = Instant::now();
        for m in base..base + WINDOW as u64 {
            self.recvs.push(st.irecv(&st.b, tag(m)).map_err(err)?);
        }
        for m in base..base + WINDOW as u64 {
            self.posted_at.push(Instant::now());
            let payload = self.traffic.payload(m).clone();
            self.sends
                .push(st.isend(&st.a, tag(m), payload).map_err(err)?);
        }
        let posted = Instant::now();
        let (mut pending, mut first, mut spins) = (WINDOW, 0, 0u32);
        loop {
            if copolled {
                st.progress(&st.a);
                st.progress(&st.b);
            } else {
                std::hint::spin_loop();
            }
            let mut now = None;
            for k in first..WINDOW {
                if !self.done[k] && self.recvs[k].is_complete() {
                    self.done[k] = true;
                    pending -= 1;
                    let now = *now.get_or_insert_with(Instant::now);
                    ph.oneway.record(ns(now - self.posted_at[k]));
                }
            }
            while first < WINDOW && self.done[first] {
                first += 1;
            }
            if pending == 0 && self.sends.iter().all(Request::is_complete) {
                break;
            }
            spins = spins.wrapping_add(1);
            if spins.is_multiple_of(4096) && t0.elapsed() > STALL {
                return Err(format!("window stalled for {STALL:?}"));
            }
        }
        let end = Instant::now();
        ph.round.record(ns(end - t0));
        ph.wait_ns += ns(end - posted);

        for (k, m) in (base..base + WINDOW as u64).enumerate() {
            let payload = self.traffic.payload(m);
            let got = self.recvs[k].take_data();
            ph.msgs += 1;
            ph.payload_bytes += payload.len() as u64;
            ph.check(
                verify(
                    payload,
                    tag(m),
                    &self.sends[k],
                    &self.recvs[k],
                    got.as_ref(),
                ),
                || format!("message {m} failed verification"),
            );
        }
        Ok(())
    }
}

/// How [`run`] drives a stack.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Unmeasured rounds first.
    pub warmup: Budget,
    /// Then the measured slices.
    pub measure: Budget,
    /// Time a spare stack construction between slices (see
    /// [`Phase::setup_s`]).
    pub time_setups: bool,
}

/// Drives `st` with `traffic` as `plan` says. Returns `Err` only when a
/// post fails or a round stalls; verification failures are counted in
/// the [`Phase`]. `seed` builds the spare stacks of `time_setups`.
pub fn run(
    w: Workload,
    seed: u64,
    st: &Stack,
    traffic: &Traffic,
    plan: Plan,
) -> Result<Phase, String> {
    let _pin = AppPin::new(w);
    let mut lp = Loop {
        w,
        seed,
        st,
        traffic,
        next: 0,
        recvs: Vec::with_capacity(WINDOW),
        sends: Vec::with_capacity(WINDOW),
        posted_at: Vec::with_capacity(WINDOW),
        done: Vec::with_capacity(WINDOW),
    };
    let mut warm = Phase::default();
    lp.measure(&mut warm, plan.warmup, false)?;

    let mut ph = Phase {
        attempted: warm.attempted,
        failed: warm.failed,
        first_failure: warm.first_failure.take(),
        oneway: warm.oneway,
        round: warm.round,
        ..Phase::default()
    };
    let before = st.counters();
    nm_metrics::metrics().reset();
    lp.measure(&mut ph, plan.measure, plan.time_setups)?;
    let after = st.counters();
    let snap = nm_metrics::metrics().snapshot();

    ph.delta = after.since(&before);
    ph.wire_errors_total = after.wire_errors;
    ph.lock_acquisitions = snap.counter("sync.lock.acquisitions").unwrap_or(0);
    ph.lock_contended = snap.counter("sync.lock.contended").unwrap_or(0);
    ph.lock_wait_p50_ns = snap
        .hist("sync.lock.wait_ns")
        .map_or(0.0, |h| h.quantile(0.5) as f64);
    Ok(ph)
}
