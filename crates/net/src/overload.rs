//! Overload control for the RX path: CoDel-style active queue management
//! and deadline-aware admission.
//!
//! PR 5's rings tail-drop: a packet is rejected only when the ring is
//! physically full, so under sustained overload every *delivered* packet
//! has first aged through a full ring — at 256 slots and ~2 µs of service
//! that is hundreds of microseconds of sojourn, far past a ~200 µs SLO.
//! Goodput (completions within the SLO) collapses to zero even though
//! throughput looks healthy. The fix is the classic AQM insight: drop
//! *early and a little* instead of *late and in bulk*.
//!
//! Two mechanisms compose here, both exercised at the polling core:
//!
//! * [`Codel`] — the CoDel drop law on each ring, judging the head
//!   packet's *sojourn time* (now − enqueue timestamp). The law itself
//!   lives in [`skyloft_sim::control`], shared with the scheduler's
//!   runqueue AQM, and is re-exported here.
//! * [`AdmissionCtl`] — deadline-aware admission. Even a packet that
//!   survives the ring may be doomed: if the worker's backlog times the
//!   EWMA service estimate already exceeds the packet's remaining SLO
//!   budget, serving it wastes capacity that a younger request could have
//!   used. [`AdmissionCtl::should_shed`] makes that call at poll time —
//!   a cheap early drop instead of an expensive late timeout.
//!
//! Both are pure data structures (no RNG, no clock of their own), driven
//! with explicit `now` values, so they are directly property-testable and
//! deterministic under simulation.

use skyloft_sim::control::ewma;
pub use skyloft_sim::control::{class_slot, Codel, CodelConfig, MAX_CLASSES};
use skyloft_sim::Nanos;

/// Parameters of deadline-aware admission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// End-to-end latency budget a request must finish within to count.
    /// Also the fallback budget for classes without a `class_slo` entry.
    pub slo: Nanos,
    /// EWMA weight as a right-shift: the estimate moves by
    /// `(sample − estimate) / 2^ewma_shift` per observation (3 → α = ⅛).
    pub ewma_shift: u32,
    /// Seed value of the service estimate before any observation.
    pub init_service: Nanos,
    /// Per-class SLO overrides: a request of class `c` is shed against
    /// `class_slo[class_slot(c)]` when set. All `None` (the default)
    /// keeps the controller in single-class mode — the legacy
    /// [`AdmissionCtl::observe`]/[`AdmissionCtl::should_shed`] paths are
    /// untouched, so existing single-app configs behave bit-identically.
    pub class_slo: [Option<Nanos>; MAX_CLASSES],
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            slo: Nanos::from_us(200),
            ewma_shift: 3,
            init_service: Nanos::from_us(2),
            class_slo: [None; MAX_CLASSES],
        }
    }
}

/// Deadline-aware admission controller: an integer EWMA of observed
/// per-request service (worker-side, stack overhead included) plus the
/// shed decision `now + (backlog+1) × estimate > sent + SLO`.
///
/// In multi-tenant mode (any `class_slo` entry set) the controller keeps
/// *per-class* cost and backlog estimates alongside the legacy global
/// ones: a 5 ms batch request must not inflate the service estimate a
/// 200 µs LC request is judged by, and each class is shed against its
/// own deadline, never a blended one.
#[derive(Clone, Debug)]
pub struct AdmissionCtl {
    cfg: AdmissionConfig,
    est: Nanos,
    /// Per-class service estimates (integer EWMA, same law as `est`).
    class_est: [Nanos; MAX_CLASSES],
    /// Per-class admitted-but-unfinished counts: resynced by
    /// [`AdmissionCtl::set_class_backlog`], grown by
    /// [`AdmissionCtl::note_admitted`].
    class_backlog: [u64; MAX_CLASSES],
}

impl AdmissionCtl {
    /// A controller seeded at `cfg.init_service`.
    pub fn new(cfg: AdmissionConfig) -> Self {
        AdmissionCtl {
            est: cfg.init_service,
            class_est: [cfg.init_service; MAX_CLASSES],
            class_backlog: [0; MAX_CLASSES],
            cfg,
        }
    }

    /// The configuration.
    pub fn cfg(&self) -> AdmissionConfig {
        self.cfg
    }

    /// The current service estimate.
    pub fn estimate(&self) -> Nanos {
        self.est
    }

    /// Whether any per-class SLO is registered (multi-tenant mode).
    pub fn has_classes(&self) -> bool {
        self.cfg.class_slo.iter().any(Option::is_some)
    }

    /// The registered deadline for one class (`None` when unregistered).
    pub fn class_slo(&self, class: u8) -> Option<Nanos> {
        self.cfg.class_slo[class_slot(class)]
    }

    /// The current service estimate for one class.
    pub fn class_estimate(&self, class: u8) -> Nanos {
        self.class_est[class_slot(class)]
    }

    /// The tracked backlog (admitted, not yet finished) for one class.
    pub fn class_backlog(&self, class: u8) -> u64 {
        self.class_backlog[class_slot(class)]
    }

    /// Folds one observed per-request service time into the estimate.
    pub fn observe(&mut self, service: Nanos) {
        self.est = ewma(self.est, service, self.cfg.ewma_shift);
    }

    /// Folds one observed service time into `class`'s estimate (and the
    /// global one, so single-class probes keep working under tenancy).
    pub fn observe_class(&mut self, class: u8, service: Nanos) {
        self.observe(service);
        let est = &mut self.class_est[class_slot(class)];
        *est = ewma(*est, service, self.cfg.ewma_shift);
    }

    /// Counts one admitted request of `class` toward its backlog.
    pub fn note_admitted(&mut self, class: u8) {
        self.class_backlog[class_slot(class)] += 1;
    }

    /// Overwrites one class's backlog with an externally computed ground
    /// truth. Callers that can see both sides of the worker (the poller
    /// reads delivered and completed counters each round) resync with
    /// this instead of retiring requests one by one, which would require
    /// a completion callback they don't have.
    pub fn set_class_backlog(&mut self, class: u8, backlog: u64) {
        self.class_backlog[class_slot(class)] = backlog;
    }

    /// Whether to shed a request sent at `sent`, examined at `now` with
    /// `backlog` requests already ahead of it on its worker: shed when
    /// even an optimistic finish time (backlog drains at the estimated
    /// rate, then this request runs) already misses `sent + slo`.
    pub fn should_shed(&self, now: Nanos, sent: Nanos, backlog: usize) -> bool {
        let finish = now + Nanos(self.est.0.saturating_mul(backlog as u64 + 1));
        finish > sent + self.cfg.slo
    }

    /// Per-class shed decision: the same finish-time argument, but
    /// judged against `class`'s own deadline (falling back to the global
    /// `slo` for unregistered classes). The work-ahead term spans
    /// *every* class — the data plane hands all admitted requests to the
    /// same runqueues, so a tight-class arrival drains behind the
    /// loose-class backlog too; modeling only the request's own class
    /// would admit 200 µs requests into a multi-millisecond batch queue
    /// and deliver them all late. Per-class cost estimates keep the sum
    /// honest (60 queued batch requests cost 60 × 50 µs, not 60 × a
    /// blended mean).
    pub fn should_shed_class(&self, class: u8, now: Nanos, sent: Nanos) -> bool {
        let slot = class_slot(class);
        let slo = self.cfg.class_slo[slot].unwrap_or(self.cfg.slo);
        let mut ahead = 0u64;
        // Tightest deadline among classes with work in flight: a looser
        // request must not deepen the shared queue past what the most
        // demanding live tenant can drain through — its own 5 ms budget
        // would happily stack minutes of work in front of a 200 µs
        // neighbour.
        let mut tightest = slo;
        for c in 0..MAX_CLASSES {
            ahead = ahead.saturating_add(self.class_est[c].0.saturating_mul(self.class_backlog[c]));
            if self.class_backlog[c] > 0 {
                if let Some(s) = self.cfg.class_slo[c] {
                    tightest = tightest.min(s);
                }
            }
        }
        let work = ahead.saturating_add(self.class_est[slot].0);
        if now + Nanos(work) > sent + slo {
            return true;
        }
        // The cap only binds classes looser than the tightest live one
        // (the tight class is already governed by its own deadline), and
        // admits at most a quarter of that budget as queued work: the
        // remaining three quarters cover the tight class's ring wait,
        // own service, and scheduling jitter — a tail that a `slo / 2`
        // queue was measured to push just past the deadline.
        slo > tightest && work > tightest.0 / 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admission_ewma_converges() {
        let mut a = AdmissionCtl::new(AdmissionConfig {
            init_service: Nanos::from_us(2),
            ..AdmissionConfig::default()
        });
        for _ in 0..200 {
            a.observe(Nanos::from_us(6));
        }
        let est = a.estimate();
        assert!(
            (Nanos::from_us(5)..=Nanos::from_us(7)).contains(&est),
            "estimate {est:?} did not converge to ~6µs"
        );
    }

    #[test]
    fn admission_sheds_only_doomed_requests() {
        let a = AdmissionCtl::new(AdmissionConfig {
            slo: Nanos::from_us(200),
            ewma_shift: 3,
            init_service: Nanos::from_us(2),
            class_slo: [None; MAX_CLASSES],
        });
        let sent = Nanos::from_ms(1);
        // Fresh request, empty worker: plenty of budget left.
        assert!(!a.should_shed(sent + Nanos::from_us(10), sent, 0));
        // Same age but 120 requests ahead at ~2µs each = 242µs to go:
        // already past the 200µs budget.
        assert!(a.should_shed(sent + Nanos::from_us(10), sent, 120));
        // Old request: even an empty worker cannot save it.
        assert!(a.should_shed(sent + Nanos::from_us(199), sent, 1));
    }

    fn classed() -> AdmissionConfig {
        let mut class_slo = [None; MAX_CLASSES];
        class_slo[0] = Some(Nanos::from_us(200)); // LC
        class_slo[1] = Some(Nanos::from_ms(5)); // batch
        AdmissionConfig {
            slo: Nanos::from_us(200),
            ewma_shift: 3,
            init_service: Nanos::from_us(2),
            class_slo,
        }
    }

    #[test]
    fn per_class_shed_uses_own_deadline() {
        let mut a = AdmissionCtl::new(classed());
        assert!(a.has_classes());
        // 60 queued batch requests ≈ 122 µs to drain at the 2 µs initial
        // estimate.
        for _ in 0..60 {
            a.note_admitted(1);
        }
        let sent = Nanos::from_ms(1);
        let now = sent + Nanos::from_us(150);
        // The 200 µs LC request is doomed; the 5 ms batch one is fine.
        assert!(a.should_shed_class(0, now, sent));
        assert!(!a.should_shed_class(1, now, sent));
    }

    #[test]
    fn live_tight_class_caps_loose_admits() {
        let mut a = AdmissionCtl::new(classed());
        for _ in 0..200 {
            a.observe_class(1, Nanos::from_us(50));
        }
        // ~4 batch requests (~200 µs) queued: well inside batch's own
        // 5 ms budget, so with no tighter class in flight it is admitted.
        for _ in 0..4 {
            a.note_admitted(1);
        }
        let sent = Nanos::from_ms(1);
        let now = sent + Nanos::from_us(10);
        assert!(!a.should_shed_class(1, now, sent));
        // One LC request in flight makes the 200 µs class live: the
        // shared queue is now capped at half that deadline, and the same
        // batch request sheds.
        a.note_admitted(0);
        assert!(a.should_shed_class(1, now, sent));
    }

    #[test]
    fn per_class_estimates_are_independent() {
        let mut a = AdmissionCtl::new(classed());
        for _ in 0..200 {
            a.observe_class(0, Nanos::from_us(2));
            a.observe_class(1, Nanos::from_us(50));
        }
        assert!(a.class_estimate(0) < Nanos::from_us(4));
        assert!(a.class_estimate(1) > Nanos::from_us(40));
        // A batch-heavy tail must not poison the LC estimate: a fresh LC
        // request with an empty LC backlog survives even while class 1's
        // estimate sits at ~50 µs.
        let sent = Nanos::from_ms(1);
        assert!(!a.should_shed_class(0, sent + Nanos::from_us(10), sent));
    }

    #[test]
    fn cross_class_backlog_counts_against_a_tight_deadline() {
        let mut a = AdmissionCtl::new(classed());
        for _ in 0..200 {
            a.observe_class(0, Nanos::from_us(2));
            a.observe_class(1, Nanos::from_us(50));
        }
        // No LC backlog at all, but ~6 batch requests (~300 µs of work)
        // queued ahead in the shared runqueues: a fresh 200 µs request
        // cannot make it and must shed; the batch class itself has 5 ms
        // of budget and sails through.
        for _ in 0..6 {
            a.note_admitted(1);
        }
        let sent = Nanos::from_ms(1);
        assert!(a.should_shed_class(0, sent + Nanos::from_us(10), sent));
        assert!(!a.should_shed_class(1, sent + Nanos::from_us(10), sent));
    }

    #[test]
    fn per_class_backlog_tracks_admit_and_resync() {
        let mut a = AdmissionCtl::new(classed());
        a.note_admitted(2);
        a.note_admitted(2);
        assert_eq!(a.class_backlog(2), 2);
        a.set_class_backlog(2, 0);
        assert_eq!(a.class_backlog(2), 0);
        // Classes past the last slot share it.
        a.note_admitted(9);
        assert_eq!(a.class_backlog(3), 1);
    }
}
