//! Machine-wide measurement state.

use skyloft_metrics::Histogram;
pub use skyloft_sim::control::{class_slot, MAX_CLASSES};
use skyloft_sim::Nanos;

/// Counters and histograms populated while the machine runs.
#[derive(Clone, Debug)]
pub struct Stats {
    /// Wakeup latency: time from a task being woken to it first running
    /// (schbench's metric, Figures 5–6).
    pub wakeup_hist: Histogram,
    /// Response latency of completed requests (arrival → completion).
    pub resp_hist: Histogram,
    /// Response latency split by request class.
    pub resp_by_class: Vec<Histogram>,
    /// Slowdown × 1000 (fixed point) split by request class (Figure 8b).
    pub slowdown_by_class: Vec<Histogram>,
    /// Slowdown × 1000 across all classes.
    pub slowdown_hist: Histogram,
    /// Completed request count.
    pub completed: u64,
    /// Preemptions performed (timer or IPI).
    pub preemptions: u64,
    /// Inter-application (kernel-module) switches.
    pub app_switches: u64,
    /// Same-application user-level switches.
    pub uthread_switches: u64,
    /// Timer interrupts delivered to user space.
    pub timer_delivered: u64,
    /// Timer interrupts lost to an un-armed PIR (§3.2 pitfall; should stay
    /// zero when the framework arms correctly).
    pub timer_lost: u64,
    /// Preemption IPIs that arrived after their target had already left the
    /// core.
    pub spurious_ipis: u64,
    /// Core-allocator grants of a core to the best-effort application.
    pub be_grants: u64,
    /// Core-allocator revocations back to the latency-critical application.
    pub be_revokes: u64,
    /// Watchdog re-arms of a lost §3.2 timer arming (chaos recovery).
    pub timer_rearms: u64,
    /// Revoke-IPI resends by the §5.2 allocator's retry machinery.
    pub ipi_retries: u64,
    /// Kernel threads page-fault-blocked by injected faults (§6).
    pub fault_blocks: u64,
    /// Fault resolutions (the blocked thread became parked again).
    pub fault_resolves: u64,
    /// Faults where a substitute application's thread took the core.
    pub fault_substitutions: u64,
    /// Stalled workers detected by the watchdog.
    pub stalls_detected: u64,
    /// Tasks migrated off stalled workers.
    pub tasks_migrated: u64,
    /// Requests whose packet the (lossy) NIC model dropped; they are
    /// recorded in the latency histograms at their client-side timeout.
    pub net_dropped: u64,
    /// Requests duplicated by the NIC model (the duplicate consumes
    /// service time but is not counted as a completion).
    pub net_duplicated: u64,
    /// Timed-out requests recorded via [`Stats::record_timeout`].
    pub timeouts: u64,
    /// Datagrams the NIC data plane attempted to steer into an RX ring
    /// (duplicates count once per copy; wire-dropped packets never reach
    /// the NIC and are not counted). Preserved across [`Stats::reset`] so
    /// the conservation invariant `net_generated == net_delivered +
    /// rx_ring_drops + net_in_flight` holds at every instant of a run.
    pub net_generated: u64,
    /// Datagrams the polling core handed to a worker as a spawned task.
    /// Preserved across [`Stats::reset`].
    pub net_delivered: u64,
    /// Datagrams tail-dropped by a full RX ring. Preserved across
    /// [`Stats::reset`].
    pub rx_ring_drops: u64,
    /// Datagrams currently queued in RX rings (steered but not yet handed
    /// to a worker). Preserved across [`Stats::reset`].
    pub net_in_flight: u64,
    /// Datagrams shed by the CoDel drop law at the polling core (the AQM
    /// half of overload control). Preserved across [`Stats::reset`] for
    /// the same reason as the other conservation buckets.
    pub aqm_drops: u64,
    /// Requests shed by deadline-aware admission at poll time (their
    /// remaining SLO budget could not cover the worker's backlog).
    /// Preserved across [`Stats::reset`].
    pub admission_sheds: u64,
    /// Retry datagrams that reached the NIC. A retry is a *terminal*
    /// ledger bucket: the attempt is counted here at arrival and nowhere
    /// else, so `net_generated == net_delivered + rx_ring_drops +
    /// aqm_drops + admission_sheds + net_in_flight + retries_spent` holds
    /// at every instant. Preserved across [`Stats::reset`].
    pub retries_spent: u64,
    /// Per-class split of `net_generated` (index = request class, clamped
    /// to [`MAX_CLASSES`]). Together with the other `*_by_class` arrays
    /// this forms the per-class conservation ledger checked by trace
    /// invariant 9: each class's ledger must balance on its own *and*
    /// the class arrays must sum to their global counters. Preserved
    /// across [`Stats::reset`] like every conservation bucket.
    pub generated_by_class: [u64; MAX_CLASSES],
    /// Per-class split of `net_delivered`. Preserved across reset.
    pub delivered_by_class: [u64; MAX_CLASSES],
    /// Per-class split of `rx_ring_drops`. Preserved across reset.
    pub rx_drops_by_class: [u64; MAX_CLASSES],
    /// Per-class split of `aqm_drops`. Preserved across reset.
    pub aqm_drops_by_class: [u64; MAX_CLASSES],
    /// Per-class split of `admission_sheds`. Preserved across reset.
    pub sheds_by_class: [u64; MAX_CLASSES],
    /// Per-class split of `net_in_flight`. Preserved across reset.
    pub in_flight_by_class: [u64; MAX_CLASSES],
    /// Per-class split of `retries_spent`. Preserved across reset.
    pub retries_by_class: [u64; MAX_CLASSES],
    /// Requests shed from the *runqueues* by the scheduler-side AQM
    /// (DESIGN.md §16). Unlike the NIC-side buckets these are not part of
    /// the datagram conservation ledger — a runqueue-shed request was
    /// already counted delivered when the poller handed it to a worker —
    /// but they are preserved across [`Stats::reset`] so shed ordering
    /// can be audited across the warmup boundary.
    pub rq_sheds: u64,
    /// Per-class split of `rq_sheds`. Preserved across reset.
    pub rq_sheds_by_class: [u64; MAX_CLASSES],
    /// Per-class count of *completed* requests (the class split of
    /// `completed`, but preserved across [`Stats::reset`]): the
    /// admission controller's per-class backlog resync reads
    /// `delivered − completed − rq_sheds` per class, and all three
    /// operands must survive the warmup boundary together or the
    /// backlog estimate jumps when measurement restarts.
    pub completed_by_class: [u64; MAX_CLASSES],
    /// Response latency of *completed* requests only — unlike
    /// [`Stats::resp_hist`], timed-out requests never enter it. Goodput
    /// (completions within the SLO) is `served_hist.count_le(slo)`;
    /// "LC p99 of what was actually served" is its 99th percentile.
    pub served_hist: Histogram,
    /// Ring occupancy observed at each polling-core visit, across all
    /// rings (tail mass here means the rings are absorbing a burst; a
    /// maxed-out histogram means tail drops are imminent).
    pub rx_occ_hist: Histogram,
    /// Requests finished per core, indexed by core id. Sized by the
    /// machine at construction; preserved across [`Stats::reset`] because
    /// the data plane's backpressure window (handed − finished) must not
    /// jump at the warmup boundary.
    pub finished_by_core: Vec<u64>,
    /// Busy nanoseconds per application, accumulated when tasks stop.
    pub busy_by_app: Vec<u64>,
    /// Time at which measurement (re)started.
    pub since: Nanos,
    /// Completion time of the most recent request.
    pub last_completion: Nanos,
}

impl Default for Stats {
    fn default() -> Self {
        Self::new()
    }
}

impl Stats {
    /// Fresh, empty statistics.
    pub fn new() -> Self {
        Stats {
            wakeup_hist: Histogram::new(),
            resp_hist: Histogram::new(),
            resp_by_class: vec![Histogram::new(); MAX_CLASSES],
            slowdown_by_class: vec![Histogram::new(); MAX_CLASSES],
            slowdown_hist: Histogram::new(),
            completed: 0,
            preemptions: 0,
            app_switches: 0,
            uthread_switches: 0,
            timer_delivered: 0,
            timer_lost: 0,
            spurious_ipis: 0,
            be_grants: 0,
            be_revokes: 0,
            timer_rearms: 0,
            ipi_retries: 0,
            fault_blocks: 0,
            fault_resolves: 0,
            fault_substitutions: 0,
            stalls_detected: 0,
            tasks_migrated: 0,
            net_dropped: 0,
            net_duplicated: 0,
            timeouts: 0,
            net_generated: 0,
            net_delivered: 0,
            rx_ring_drops: 0,
            net_in_flight: 0,
            aqm_drops: 0,
            admission_sheds: 0,
            retries_spent: 0,
            generated_by_class: [0; MAX_CLASSES],
            delivered_by_class: [0; MAX_CLASSES],
            rx_drops_by_class: [0; MAX_CLASSES],
            aqm_drops_by_class: [0; MAX_CLASSES],
            sheds_by_class: [0; MAX_CLASSES],
            in_flight_by_class: [0; MAX_CLASSES],
            retries_by_class: [0; MAX_CLASSES],
            rq_sheds: 0,
            rq_sheds_by_class: [0; MAX_CLASSES],
            completed_by_class: [0; MAX_CLASSES],
            served_hist: Histogram::new(),
            rx_occ_hist: Histogram::new(),
            finished_by_core: Vec::new(),
            busy_by_app: Vec::new(),
            since: Nanos::ZERO,
            last_completion: Nanos::ZERO,
        }
    }

    /// Records one completed request.
    pub fn record_request(&mut self, class: u8, response: Nanos, service: Nanos) {
        self.completed += 1;
        self.resp_hist.record(response.0);
        self.served_hist.record(response.0);
        let c = class_slot(class);
        self.completed_by_class[c] += 1;
        self.resp_by_class[c].record(response.0);
        let slow = (skyloft_metrics::slowdown(response.0, service.0) * 1000.0) as u64;
        self.slowdown_by_class[c].record(slow);
        self.slowdown_hist.record(slow);
    }

    /// Records a request whose response never arrived: it enters the
    /// latency histograms at its client-side timeout instead of silently
    /// vanishing from the denominator (which would make a lossy run look
    /// *faster* than a lossless one). Timed-out requests do not count as
    /// completions.
    pub fn record_timeout(&mut self, class: u8, timeout: Nanos, service: Nanos) {
        self.timeouts += 1;
        self.resp_hist.record(timeout.0);
        let c = class_slot(class);
        self.resp_by_class[c].record(timeout.0);
        let slow = (skyloft_metrics::slowdown(timeout.0, service.0) * 1000.0) as u64;
        self.slowdown_by_class[c].record(slow);
        self.slowdown_hist.record(slow);
    }

    /// Clears all measurements (warmup boundary), keeping `since` at `now`.
    ///
    /// The data-plane conservation counters (`net_generated`,
    /// `net_delivered`, `rx_ring_drops`, `net_in_flight`) and the per-core
    /// finish counters survive the reset: they describe *current* queue
    /// state, not an interval, and zeroing them mid-run would break both
    /// the conservation invariant and the poller's backpressure window.
    pub fn reset(&mut self, now: Nanos) {
        let napps = self.busy_by_app.len();
        let net_generated = self.net_generated;
        let net_delivered = self.net_delivered;
        let rx_ring_drops = self.rx_ring_drops;
        let net_in_flight = self.net_in_flight;
        let aqm_drops = self.aqm_drops;
        let admission_sheds = self.admission_sheds;
        let retries_spent = self.retries_spent;
        let generated_by_class = self.generated_by_class;
        let delivered_by_class = self.delivered_by_class;
        let rx_drops_by_class = self.rx_drops_by_class;
        let aqm_drops_by_class = self.aqm_drops_by_class;
        let sheds_by_class = self.sheds_by_class;
        let in_flight_by_class = self.in_flight_by_class;
        let retries_by_class = self.retries_by_class;
        let rq_sheds = self.rq_sheds;
        let rq_sheds_by_class = self.rq_sheds_by_class;
        let completed_by_class = self.completed_by_class;
        let finished_by_core = std::mem::take(&mut self.finished_by_core);
        *self = Stats::new();
        self.busy_by_app = vec![0; napps];
        self.net_generated = net_generated;
        self.net_delivered = net_delivered;
        self.rx_ring_drops = rx_ring_drops;
        self.net_in_flight = net_in_flight;
        self.aqm_drops = aqm_drops;
        self.admission_sheds = admission_sheds;
        self.retries_spent = retries_spent;
        self.generated_by_class = generated_by_class;
        self.delivered_by_class = delivered_by_class;
        self.rx_drops_by_class = rx_drops_by_class;
        self.aqm_drops_by_class = aqm_drops_by_class;
        self.sheds_by_class = sheds_by_class;
        self.in_flight_by_class = in_flight_by_class;
        self.retries_by_class = retries_by_class;
        self.rq_sheds = rq_sheds;
        self.rq_sheds_by_class = rq_sheds_by_class;
        self.completed_by_class = completed_by_class;
        self.finished_by_core = finished_by_core;
        self.since = now;
    }

    /// Violations of the NIC data plane's conservation ledger (invariants
    /// 7–9 of [`crate::trace::violations_of`]); empty when it balances.
    ///
    /// Every datagram that reached the NIC must sit in exactly one bucket
    /// — delivered, ring tail-drop, AQM shed, admission shed, still in
    /// flight, or a spent retry — globally and class by class, and each
    /// `*_by_class` array must sum to its global counter. The counters
    /// survive [`Stats::reset`], so the ledger holds across a warmup
    /// boundary. Always compiled, unlike the per-event checker, so a
    /// bench can check it at the end of a release run.
    pub fn ledger_violations(&self) -> Vec<String> {
        let s = self;
        let mut v = Vec::new();

        // 7 + 8. Datagram conservation through the NIC data plane, overload
        // buckets included (all zero when overload control is off, so this is
        // exactly check 7 on a stock machine).
        let accounted = s.net_delivered
            + s.rx_ring_drops
            + s.aqm_drops
            + s.admission_sheds
            + s.net_in_flight
            + s.retries_spent;
        if s.net_generated != accounted {
            v.push(format!(
                "datagram conservation: generated {} != delivered {} + ring-dropped {} \
                 + aqm-dropped {} + admission-shed {} + in-flight {} + retries-spent {}",
                s.net_generated,
                s.net_delivered,
                s.rx_ring_drops,
                s.aqm_drops,
                s.admission_sheds,
                s.net_in_flight,
                s.retries_spent
            ));
        }

        // 9. Per-class conservation: each class balances on its own, and the
        // class arrays sum back to the globals. Every NIC-side increment site
        // charges a class slot (class 0 when the workload is single-class), so
        // this holds unconditionally — all-zero arrays on machines that never
        // saw a datagram included.
        for c in 0..MAX_CLASSES {
            let accounted = s.delivered_by_class[c]
                + s.rx_drops_by_class[c]
                + s.aqm_drops_by_class[c]
                + s.sheds_by_class[c]
                + s.in_flight_by_class[c]
                + s.retries_by_class[c];
            if s.generated_by_class[c] != accounted {
                v.push(format!(
                    "class {c} conservation: generated {} != delivered {} + ring-dropped {} \
                     + aqm-dropped {} + admission-shed {} + in-flight {} + retries-spent {}",
                    s.generated_by_class[c],
                    s.delivered_by_class[c],
                    s.rx_drops_by_class[c],
                    s.aqm_drops_by_class[c],
                    s.sheds_by_class[c],
                    s.in_flight_by_class[c],
                    s.retries_by_class[c]
                ));
            }
        }
        let sums = [
            ("generated", s.net_generated, s.generated_by_class),
            ("delivered", s.net_delivered, s.delivered_by_class),
            ("ring-dropped", s.rx_ring_drops, s.rx_drops_by_class),
            ("aqm-dropped", s.aqm_drops, s.aqm_drops_by_class),
            ("admission-shed", s.admission_sheds, s.sheds_by_class),
            ("in-flight", s.net_in_flight, s.in_flight_by_class),
            ("retries-spent", s.retries_spent, s.retries_by_class),
            ("rq-shed", s.rq_sheds, s.rq_sheds_by_class),
        ];
        for (name, global, by_class) in sums {
            let sum: u64 = by_class.iter().sum();
            if sum != global {
                v.push(format!(
                    "per-class ledger: {name} classes sum to {sum}, global is {global}"
                ));
            }
        }

        v
    }

    /// Achieved throughput in requests/second since the last reset.
    pub fn achieved_rps(&self, now: Nanos) -> f64 {
        let dt = (now - self.since).as_secs();
        if dt <= 0.0 {
            0.0
        } else {
            self.completed as f64 / dt
        }
    }
}

// NOTE: CPU-share computation lives in `Machine::app_share` (which also
// counts the open busy intervals of still-running tasks); `Stats` only
// stores the closed-interval counters it builds on.

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_request_updates_class_and_slowdown() {
        let mut s = Stats::new();
        s.record_request(1, Nanos(2_000), Nanos(1_000));
        assert_eq!(s.completed, 1);
        assert_eq!(s.resp_by_class[1].count(), 1);
        assert_eq!(s.resp_by_class[0].count(), 0);
        // Slowdown 2.0 stored as 2000.
        let p = s.slowdown_by_class[1].percentile(50.0);
        assert!((1_950..=2_050).contains(&p), "slowdown {p}");
    }

    #[test]
    fn record_timeout_enters_histograms_without_completing() {
        let mut s = Stats::new();
        s.record_timeout(0, Nanos::from_ms(1), Nanos::from_us(10));
        assert_eq!(s.completed, 0);
        assert_eq!(s.timeouts, 1);
        assert_eq!(s.resp_hist.count(), 1);
        // Slowdown 100.0 stored as 100_000 fixed-point.
        let p = s.slowdown_hist.percentile(50.0);
        assert!((95_000..=105_000).contains(&p), "slowdown {p}");
    }

    #[test]
    fn class_overflow_clamps() {
        let mut s = Stats::new();
        s.record_request(200, Nanos(10), Nanos(10));
        assert_eq!(s.resp_by_class[MAX_CLASSES - 1].count(), 1);
    }

    #[test]
    fn ledger_violations_name_the_unbalanced_books() {
        let mut s = Stats::new();
        s.net_generated = 3;
        s.generated_by_class[1] = 3;
        s.net_delivered = 2;
        s.delivered_by_class[1] = 2;
        s.net_in_flight = 1;
        s.in_flight_by_class[1] = 1;
        assert!(s.ledger_violations().is_empty());
        // A leak in one class also breaks the global ledger and the class
        // tiling of the leaked bucket; each is reported.
        s.in_flight_by_class[1] = 0;
        s.net_in_flight = 0;
        let v = s.ledger_violations();
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v[0].starts_with("datagram conservation"), "{v:?}");
        assert!(v[1].starts_with("class 1 conservation"), "{v:?}");
        s.net_in_flight = 1;
        let v = s.ledger_violations();
        assert_eq!(
            v,
            [
                "class 1 conservation: generated 3 != delivered 2 + ring-dropped 0 \
              + aqm-dropped 0 + admission-shed 0 + in-flight 0 + retries-spent 0",
                "per-class ledger: in-flight classes sum to 0, global is 1"
            ]
        );
    }

    #[test]
    fn reset_preserves_app_slots_and_since() {
        let mut s = Stats::new();
        s.busy_by_app = vec![5, 6];
        s.completed = 10;
        s.reset(Nanos(1_000));
        assert_eq!(s.completed, 0);
        assert_eq!(s.busy_by_app, vec![0, 0]);
        assert_eq!(s.since, Nanos(1_000));
    }

    #[test]
    fn reset_preserves_conservation_counters() {
        let mut s = Stats::new();
        s.net_generated = 100;
        s.net_delivered = 85;
        s.rx_ring_drops = 4;
        s.net_in_flight = 6;
        s.aqm_drops = 2;
        s.admission_sheds = 1;
        s.retries_spent = 2;
        s.finished_by_core = vec![40, 50];
        s.rx_occ_hist.record(12);
        s.served_hist.record(1_000);
        s.completed = 85;
        s.reset(Nanos(1_000));
        assert_eq!(s.completed, 0, "interval counters clear");
        assert_eq!(s.rx_occ_hist.count(), 0, "occupancy histogram clears");
        assert_eq!(s.served_hist.count(), 0, "served histogram clears");
        assert_eq!(
            (
                s.net_generated,
                s.net_delivered,
                s.rx_ring_drops,
                s.net_in_flight,
                s.aqm_drops,
                s.admission_sheds,
                s.retries_spent
            ),
            (100, 85, 4, 6, 2, 1, 2),
            "conservation counters survive the warmup reset"
        );
        assert_eq!(s.finished_by_core, vec![40, 50]);
    }

    #[test]
    fn reset_preserves_per_class_ledgers() {
        let mut s = Stats::new();
        s.generated_by_class = [10, 20, 0, 0];
        s.delivered_by_class = [8, 15, 0, 0];
        s.rx_drops_by_class = [1, 2, 0, 0];
        s.sheds_by_class = [0, 2, 0, 0];
        s.in_flight_by_class = [1, 1, 0, 0];
        s.rq_sheds = 3;
        s.rq_sheds_by_class = [0, 3, 0, 0];
        s.completed_by_class = [7, 12, 0, 0];
        s.reset(Nanos(5_000));
        assert_eq!(s.generated_by_class, [10, 20, 0, 0]);
        assert_eq!(s.delivered_by_class, [8, 15, 0, 0]);
        assert_eq!(s.rx_drops_by_class, [1, 2, 0, 0]);
        assert_eq!(s.sheds_by_class, [0, 2, 0, 0]);
        assert_eq!(s.in_flight_by_class, [1, 1, 0, 0]);
        assert_eq!(s.rq_sheds, 3);
        assert_eq!(s.rq_sheds_by_class, [0, 3, 0, 0]);
        assert_eq!(s.completed_by_class, [7, 12, 0, 0]);
    }

    #[test]
    fn achieved_rps_math() {
        let mut s = Stats::new();
        s.since = Nanos::ZERO;
        s.completed = 500;
        let rps = s.achieved_rps(Nanos::from_secs(1));
        assert!((rps - 500.0).abs() < 1e-9);
        assert_eq!(s.achieved_rps(Nanos::ZERO), 0.0);
    }
}
