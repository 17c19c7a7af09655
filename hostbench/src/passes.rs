//! The three ways one round drives a workload's timed window:
//!
//! - [`sliced`]: the untraced measurement — one `Machine::run` per
//!   virtual-time slice, each slice timed and its allocations counted;
//! - [`single`]: the same window in one `Machine::run` (the
//!   decision-neutrality reference);
//! - [`traced`]: the benchmark's own `pop_batch` → `take_batched` →
//!   `Machine::handle` loop with a span at every layer boundary and an
//!   invariant check after every batch.
//!
//! All three share set-up (build, install, warm-up, stats reset) and end
//! with the same untimed drain, then read the simulated outcome
//! ([`SimOut`]) whose digest must agree across them.

use std::time::Instant;

use skyloft::machine::{Event, Machine};
use skyloft::stats::MAX_CLASSES;
use skyloft::trace::violations_of;
use skyloft::Policy;
use skyloft_metrics::Histogram;

use crate::alloc;
use crate::timed::{Profile, SharedProfile, TimedPolicy};
use crate::workloads::{Job, Kind, Workload, NIC_TIMEOUT};

/// Host ns since `t`.
fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Counters that survive `reset_stats`, read at the warm-up boundary and
/// after the drain; their difference covers the window plus the drain.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Ledger {
    pub generated: u64,
    pub delivered: u64,
    pub ring_drops: u64,
    pub aqm_drops: u64,
    pub sheds: u64,
    pub retries: u64,
    pub rq_sheds: u64,
}

impl Ledger {
    fn read(m: &Machine) -> Ledger {
        let s = &m.stats;
        Ledger {
            generated: s.net_generated,
            delivered: s.net_delivered,
            ring_drops: s.rx_ring_drops,
            aqm_drops: s.aqm_drops,
            sheds: s.admission_sheds,
            retries: s.retries_spent,
            rq_sheds: s.rq_sheds,
        }
    }

    fn minus(&self, o: &Ledger) -> Ledger {
        Ledger {
            generated: self.generated - o.generated,
            delivered: self.delivered - o.delivered,
            ring_drops: self.ring_drops - o.ring_drops,
            aqm_drops: self.aqm_drops - o.aqm_drops,
            sheds: self.sheds - o.sheds,
            retries: self.retries - o.retries,
            rq_sheds: self.rq_sheds - o.rq_sheds,
        }
    }
}

/// Requests in the per-class latency histograms (completions and client
/// timeouts) since the last stats reset. Requests the runqueue AQM sheds
/// enter no histogram; `Stats::rq_sheds` counts them and, unlike the
/// histograms, survives the reset.
fn answered(m: &Machine) -> u64 {
    m.stats.resp_by_class.iter().map(Histogram::count).sum()
}

/// Machine state at the end of set-up.
pub struct Setup {
    pub job: Job,
    /// Host ns of build + install + warm-up.
    pub setup_ns: u64,
    /// Requests resolved during the warm-up.
    resolved_before: u64,
    ledger: Ledger,
    /// `Stats::completed_by_class` at the window start (it survives the
    /// reset).
    completed_before: [u64; MAX_CLASSES],
}

/// Builds the workload, runs the virtual warm-up and resets the stats at
/// the window start; the host time of all of it is the set-up time.
pub fn setup(w: &Workload, seed: u64, wrap: &dyn Fn(Box<dyn Policy>) -> Box<dyn Policy>) -> Setup {
    let t0 = Instant::now();
    let mut job = w.build(seed, wrap);
    job.m.run(&mut job.q, w.warmup);
    let resolved_before = answered(&job.m) + job.m.stats.rq_sheds;
    let ledger = Ledger::read(&job.m);
    let completed_before = job.m.stats.completed_by_class;
    let now = job.q.now();
    job.m.reset_stats(now);
    Setup {
        setup_ns: ns_since(t0),
        job,
        resolved_before,
        ledger,
        completed_before,
    }
}

/// The simulated outcome of one round, read after the drain. Every field
/// is virtual (a count or virtual time) and repeats exactly for a seed.
#[derive(Clone, Debug)]
pub struct SimOut {
    /// Requests generated before the window (open-loop workloads).
    pub generated_before: u64,
    /// Requests generated in the window; for schbench, wakeups recorded.
    pub generated: u64,
    /// Requests resolved before the window.
    pub resolved_before: u64,
    /// Requests resolved after the warm-up (window and drain).
    pub resolved: u64,
    /// Requests that completed within their class's latency limit.
    pub good: u64,
    /// `NicSlo`: LC completions after the warm-up, and LC latency samples
    /// under the client timeout. Its goodput count needs them equal (see
    /// `finish`); 0 for the other workloads.
    pub lc_completed: u64,
    pub lc_under_timeout: u64,
    /// Latency of the tightest class (wakeup latency for schbench).
    pub tight: Histogram,
    /// Persistent ledger change over the window and drain.
    pub ledger: Ledger,
    pub preemptions: u64,
    pub app_switches: u64,
    pub timer_delivered: u64,
    pub timer_lost: u64,
    pub spurious_ipis: u64,
    /// Datagram ledger at the end (for the conservation check).
    pub in_flight: u64,
    pub conservation: Vec<String>,
    /// `violations_of` after the drain.
    pub violations: Vec<String>,
    pub digest: u64,
}

/// FNV-1a over a stream of `u64`s.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }

    fn hist(&mut self, h: &Histogram) {
        self.add(h.count());
        for p in [50.0, 90.0, 99.0, 99.9] {
            self.add(h.percentile(p));
        }
        self.add(h.max());
    }
}

/// Datagram conservation (trace invariants #8 and #9) read from `Stats`.
fn conservation(m: &Machine) -> Vec<String> {
    let s = &m.stats;
    let mut bad = Vec::new();
    let global = s.net_delivered
        + s.rx_ring_drops
        + s.aqm_drops
        + s.admission_sheds
        + s.net_in_flight
        + s.retries_spent;
    if s.net_generated != global {
        bad.push(format!(
            "global ledger: generated {} != accounted {global}",
            s.net_generated
        ));
    }
    for c in 0..MAX_CLASSES {
        let class = s.delivered_by_class[c]
            + s.rx_drops_by_class[c]
            + s.aqm_drops_by_class[c]
            + s.sheds_by_class[c]
            + s.in_flight_by_class[c]
            + s.retries_by_class[c];
        if s.generated_by_class[c] != class {
            bad.push(format!(
                "class {c} ledger: generated {} != accounted {class}",
                s.generated_by_class[c]
            ));
        }
    }
    let tiles = [
        ("generated", s.net_generated, s.generated_by_class),
        ("delivered", s.net_delivered, s.delivered_by_class),
        ("rx_drops", s.rx_ring_drops, s.rx_drops_by_class),
        ("aqm_drops", s.aqm_drops, s.aqm_drops_by_class),
        ("sheds", s.admission_sheds, s.sheds_by_class),
        ("in_flight", s.net_in_flight, s.in_flight_by_class),
        ("retries", s.retries_spent, s.retries_by_class),
        ("rq_sheds", s.rq_sheds, s.rq_sheds_by_class),
    ];
    for (name, total, by_class) in tiles {
        if by_class.iter().sum::<u64>() != total {
            bad.push(format!("{name}: classes do not sum to {total}"));
        }
    }
    bad
}

/// Runs the drain and reads the round's simulated outcome.
fn finish(
    w: &Workload,
    mut s: Setup,
    mut events: u64,
    arrivals: Option<&(u64, Vec<u64>)>,
) -> SimOut {
    let job = &mut s.job;
    events += job.m.run(&mut job.q, w.drain_end());
    let m = &job.m;
    let st = &m.stats;
    let ledger = Ledger::read(m).minus(&s.ledger);

    let (lc_completed, lc_under_timeout) = match w.kind {
        Kind::NicSlo => (
            st.completed_by_class[0] - s.completed_before[0],
            st.resp_by_class[0].count_le(NIC_TIMEOUT.0 - 1),
        ),
        _ => (0, 0),
    };
    let (tight, good, generated) = match w.kind {
        Kind::Schbench => {
            let h = &st.wakeup_hist;
            (h, h.count_le(w.limits[0].0), h.count())
        }
        Kind::Teleport => {
            // No client timeouts on this path: every histogram sample is
            // a completion.
            let good = (0..2)
                .map(|c| st.resp_by_class[c].count_le(w.limits[c].0))
                .sum();
            (
                &st.resp_by_class[0],
                good,
                arrivals.map_or(0, |a| a.1.iter().sum()),
            )
        }
        Kind::NicSlo => {
            // A client timeout enters LC's histogram at the wait since the
            // send, at least the 1 ms timeout. So LC's samples under its
            // 200 µs limit are its good completions, and when its samples
            // under the timeout number all its completions, every LC
            // completion lies under the batch class's 5 ms limit too (the
            // `lc_completions_under_timeout` check). Batch: completions
            // under 5 ms (the completions-only histogram) less all of LC's.
            let lc = &st.resp_by_class[0];
            let batch = st
                .served_hist
                .count_le(w.limits[1].0)
                .saturating_sub(lc_completed);
            (
                lc,
                lc.count_le(w.limits[0].0) + batch,
                arrivals.map_or(0, |a| a.1.iter().sum()),
            )
        }
    };
    // The window's runqueue sheds come from the ledger delta: the raw
    // counter still holds the warm-up's, which `resolved_before` counts.
    let resolved = match w.kind {
        Kind::Schbench => generated,
        _ => answered(m) + ledger.rq_sheds,
    };

    let mut d = Digest::new();
    d.add(events);
    d.add(job.q.now().0);
    for v in [
        st.completed,
        st.timeouts,
        st.preemptions,
        st.app_switches,
        st.uthread_switches,
        st.timer_delivered,
        st.timer_lost,
        st.spurious_ipis,
        st.net_generated,
        st.net_delivered,
        st.rx_ring_drops,
        st.net_in_flight,
        st.aqm_drops,
        st.admission_sheds,
        st.retries_spent,
        st.rq_sheds,
    ] {
        d.add(v);
    }
    for arr in [
        st.generated_by_class,
        st.delivered_by_class,
        st.rx_drops_by_class,
        st.aqm_drops_by_class,
        st.sheds_by_class,
        st.in_flight_by_class,
        st.retries_by_class,
        st.rq_sheds_by_class,
        st.completed_by_class,
    ] {
        arr.iter().for_each(|&v| d.add(v));
    }
    for h in [
        &st.resp_hist,
        &st.served_hist,
        &st.wakeup_hist,
        &st.slowdown_hist,
    ] {
        d.hist(h);
    }
    st.resp_by_class.iter().for_each(|h| d.hist(h));

    SimOut {
        generated_before: arrivals.map_or(0, |a| a.0),
        generated,
        resolved_before: s.resolved_before,
        resolved,
        good,
        lc_completed,
        lc_under_timeout,
        tight: tight.clone(),
        ledger,
        preemptions: st.preemptions,
        app_switches: st.app_switches,
        timer_delivered: st.timer_delivered,
        timer_lost: st.timer_lost,
        spurious_ipis: st.spurious_ipis,
        in_flight: st.net_in_flight,
        conservation: conservation(m),
        violations: violations_of(m, job.q.now()),
        digest: d.0,
    }
}

/// One untraced round measured slice by slice.
pub struct SlicedRound {
    pub setup_ns: u64,
    /// Host ns of each slice.
    pub wall_ns: Vec<u64>,
    /// Heap allocations of each slice.
    pub allocs: Vec<u64>,
    /// Requests of each slice (arrivals, or wakeups for schbench).
    pub requests: Vec<u64>,
    pub sim: SimOut,
}

/// The untraced measurement: one `Machine::run` per slice.
pub fn sliced(w: &Workload, seed: u64, arrivals: Option<&(u64, Vec<u64>)>) -> SlicedRound {
    let mut s = setup(w, seed, &|p| p);
    let setup_ns = s.setup_ns;
    let mut wall_ns = Vec::with_capacity(w.slices);
    let mut allocs = Vec::with_capacity(w.slices);
    let mut requests = Vec::with_capacity(w.slices);
    let mut events = 0;
    let job = &mut s.job;
    let mut wakeups = 0;
    for i in 0..w.slices {
        let end = w.slice_end(i);
        let a0 = alloc::count();
        let t0 = Instant::now();
        events += job.m.run(&mut job.q, end);
        wall_ns.push(ns_since(t0));
        allocs.push(alloc::count() - a0);
        requests.push(match arrivals {
            Some((_, per_slice)) => per_slice[i],
            None => {
                let now = job.m.stats.wakeup_hist.count();
                let n = now - wakeups;
                wakeups = now;
                n
            }
        });
    }
    let sim = finish(w, s, events, arrivals);
    SlicedRound {
        setup_ns,
        wall_ns,
        allocs,
        requests,
        sim,
    }
}

/// The whole window in one `Machine::run`.
pub fn single(w: &Workload, seed: u64, arrivals: Option<&(u64, Vec<u64>)>) -> SimOut {
    let mut s = setup(w, seed, &|p| p);
    let job = &mut s.job;
    let events = job.m.run(&mut job.q, w.window_end());
    finish(w, s, events, arrivals)
}

/// Handler span of an event: the `core.<kind>` spans plus `net`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Span {
    Timer,
    Ipi,
    SegDone,
    QCheck,
    StartCore,
    Place,
    /// Periodic machine ticks (core allocator, runqueue AQM) and the
    /// chaos machinery.
    Tick,
    /// `Call`/`Recur` closures: the NIC data plane and load generators.
    Net,
}

impl Span {
    /// The `core.<kind>` spans, in report order (`Net` excluded).
    pub const CORE: [Span; 7] = [
        Span::Timer,
        Span::Ipi,
        Span::SegDone,
        Span::QCheck,
        Span::StartCore,
        Span::Place,
        Span::Tick,
    ];

    fn of(ev: &Event) -> Span {
        match ev {
            Event::TimerFire { .. } => Span::Timer,
            Event::IpiArrive { .. } => Span::Ipi,
            Event::SegmentDone { .. } => Span::SegDone,
            Event::QuantumCheck { .. } => Span::QCheck,
            Event::StartCore { .. } => Span::StartCore,
            Event::PlaceTask { .. } => Span::Place,
            Event::CoreAllocTick | Event::RqAqmTick | Event::Chaos(_) => Span::Tick,
            Event::Call(_) | Event::Recur(_) => Span::Net,
        }
    }

    /// Metric name fragment.
    pub fn name(self) -> &'static str {
        match self {
            Span::Timer => "timer",
            Span::Ipi => "ipi",
            Span::SegDone => "segdone",
            Span::QCheck => "qcheck",
            Span::StartCore => "startcore",
            Span::Place => "place",
            Span::Tick => "tick",
            Span::Net => "net",
        }
    }
}

/// One handler span's totals over the traced window.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanStat {
    pub events: u64,
    /// Handler time minus the nested policy time.
    pub self_ns: u64,
    /// Handler allocations minus the nested policy allocations.
    pub self_allocs: u64,
}

/// The traced pass's per-layer totals over the timed window.
#[derive(Clone, Debug, Default)]
pub struct Traced {
    /// Host ns of the whole traced window loop.
    pub total_ns: u64,
    pub total_allocs: u64,
    /// `sim`: `pop_batch` and `take_batched`.
    pub sim_ns: u64,
    pub sim_allocs: u64,
    /// Indexed by `Span as usize`.
    pub spans: [SpanStat; 8],
    /// `policy.<op>`, nested inside the handler spans.
    pub policy: Profile,
    /// `trace`: the `violations_of` call after each batch.
    pub trace_ns: u64,
    pub trace_allocs: u64,
    pub batches: u64,
    pub events: u64,
    pub queue_len_max: usize,
    pub violations: Vec<String>,
    pub sim: Option<SimOut>,
}

impl Traced {
    /// Counters of one handler span.
    pub fn span(&self, s: Span) -> &SpanStat {
        &self.spans[s as usize]
    }

    /// Host ns attributed to a layer span (self times, nested policy
    /// time counted once).
    pub fn attributed_ns(&self) -> u64 {
        self.sim_ns
            + self.spans.iter().map(|s| s.self_ns).sum::<u64>()
            + self.policy.ns
            + self.trace_ns
    }
}

/// Per-operation difference of two profile snapshots.
fn profile_minus(a: &Profile, b: &Profile) -> Profile {
    let mut d = Profile {
        ns: a.ns - b.ns,
        allocs: a.allocs - b.allocs,
        ..Profile::default()
    };
    for (i, s) in d.ops.iter_mut().enumerate() {
        s.calls = a.ops[i].calls - b.ops[i].calls;
        s.ns = a.ops[i].ns - b.ops[i].ns;
        s.allocs = a.ops[i].allocs - b.ops[i].allocs;
        s.hits = a.ops[i].hits - b.ops[i].hits;
    }
    d
}

/// The traced pass: the benchmark's own batch loop with spans chained
/// at every layer boundary, so consecutive spans share their boundary
/// timestamp and only the loop's own bookkeeping is left unattributed.
pub fn traced(w: &Workload, seed: u64, arrivals: Option<&(u64, Vec<u64>)>) -> Traced {
    let prof = SharedProfile::default();
    let wrap_prof = prof.clone();
    let mut s = setup(w, seed, &move |p| {
        Box::new(TimedPolicy::new(p, wrap_prof.clone()))
    });
    let mut tr = Traced::default();
    let prof0 = prof.borrow().clone();
    let deadline = w.window_end();
    let job = &mut s.job;
    let (m, q) = (&mut job.m, &mut job.q);
    let mut batch = Vec::new();

    let start = Instant::now();
    let a_start = alloc::count();
    let (mut t, mut a) = (start, a_start);
    loop {
        let at = q.pop_batch(deadline, &mut batch);
        tr.queue_len_max = tr.queue_len_max.max(q.len());
        let (t1, a1) = (Instant::now(), alloc::count());
        tr.sim_ns += (t1 - t).as_nanos() as u64;
        tr.sim_allocs += a1 - a;
        (t, a) = (t1, a1);
        let Some(at) = at else { break };
        tr.batches += 1;
        for claim in batch.drain(..) {
            let ev = q.take_batched(claim);
            let (t1, a1) = (Instant::now(), alloc::count());
            tr.sim_ns += (t1 - t).as_nanos() as u64;
            tr.sim_allocs += a1 - a;
            (t, a) = (t1, a1);
            let Some(ev) = ev else { continue };
            let span = Span::of(&ev);
            let (p_ns, p_allocs) = {
                let p = prof.borrow();
                (p.ns, p.allocs)
            };
            m.handle(ev, q);
            let (t2, a2) = (Instant::now(), alloc::count());
            let p = prof.borrow();
            let st = &mut tr.spans[span as usize];
            st.events += 1;
            st.self_ns += (t2 - t).as_nanos() as u64 - (p.ns - p_ns);
            st.self_allocs += (a2 - a) - (p.allocs - p_allocs);
            (t, a) = (t2, a2);
        }
        let v = violations_of(m, at);
        let (t3, a3) = (Instant::now(), alloc::count());
        tr.trace_ns += (t3 - t).as_nanos() as u64;
        tr.trace_allocs += a3 - a;
        (t, a) = (t3, a3);
        if !v.is_empty() && tr.violations.len() < 8 {
            tr.violations
                .extend(v.into_iter().map(|s| format!("at {at:?}: {s}")));
        }
    }
    q.advance_to(deadline);
    tr.total_ns = ns_since(start);
    tr.total_allocs = alloc::count() - a_start;
    tr.policy = profile_minus(&prof.borrow(), &prof0);
    tr.events = tr.spans.iter().map(|s| s.events).sum();
    let events = tr.events;
    tr.sim = Some(finish(w, s, events, arrivals));
    tr
}
