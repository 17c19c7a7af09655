//! Open-loop Poisson load generator (§5.3's client machine).
//!
//! An open-loop generator emits requests at the offered rate regardless of
//! completions — the correct methodology for tail-latency studies (a
//! closed-loop client self-throttles and hides queueing collapse). The
//! generator is an iterator of `(arrival_time, service_time, class)`
//! tuples; harnesses turn them into simulation events.

use skyloft_sim::rng::PoissonArrivals;
use skyloft_sim::{Distribution, Nanos, Rng};

/// A generated request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GenRequest {
    /// Absolute arrival time.
    pub at: Nanos,
    /// Service demand.
    pub service: Nanos,
    /// Workload class (0 = short/GET, 1 = long/SCAN or SET).
    pub class: u8,
}

/// Open-loop Poisson generator over a service-time distribution.
///
/// A zero (or non-finite) rate is a legal degenerate point — sweeps
/// routinely hit it when a co-located tenant's share of the total load
/// rounds to nothing — and yields an *empty* generator rather than a
/// panic: `next` returns `None` immediately and [`OpenLoop::schedule`]
/// returns an empty vector. Callers must therefore not assume a schedule
/// is non-empty (the old `reqs.last().unwrap()` idiom).
#[derive(Clone, Debug)]
pub struct OpenLoop {
    /// `None` for a degenerate (zero-rate) generator that never fires.
    arrivals: Option<PoissonArrivals>,
    service: Distribution,
    /// Classifies a sampled service time (e.g. long vs short).
    class_threshold: Nanos,
    rng: Rng,
    now: Nanos,
}

impl OpenLoop {
    /// Creates a generator at `rate_rps` with the given service
    /// distribution; samples at or above `class_threshold` are class 1.
    /// A rate that is zero, negative, or non-finite produces an empty
    /// generator.
    pub fn new(rate_rps: f64, service: Distribution, class_threshold: Nanos, seed: u64) -> Self {
        let arrivals =
            (rate_rps.is_finite() && rate_rps > 0.0).then(|| PoissonArrivals::new(rate_rps));
        OpenLoop {
            arrivals,
            service,
            class_threshold,
            rng: Rng::seed_from_u64(seed),
            now: Nanos::ZERO,
        }
    }

    /// Collects the full request schedule for a run of `duration`:
    /// every arrival at or before `duration`, in order. Empty when the
    /// rate is degenerate or the duration is zero — never panics.
    pub fn schedule(self, duration: Nanos) -> Vec<GenRequest> {
        let mut reqs = Vec::new();
        if duration == Nanos::ZERO {
            return reqs;
        }
        for r in self {
            if r.at > duration {
                break;
            }
            reqs.push(r);
        }
        reqs
    }
}

impl Iterator for OpenLoop {
    type Item = GenRequest;

    fn next(&mut self) -> Option<GenRequest> {
        self.now += self.arrivals.as_ref()?.next_gap(&mut self.rng);
        let service = self.service.sample(&mut self.rng);
        let class = u8::from(service >= self.class_threshold);
        Some(GenRequest {
            at: self.now,
            service,
            class,
        })
    }
}

/// The retrying client's knobs: when to give up on one attempt, how many
/// attempts to make, how to space them, and how many retries the client
/// population may spend in aggregate.
#[cfg(feature = "overload")]
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Per-attempt timeout: an attempt with no response by then is
    /// presumed lost and eligible for retry.
    pub timeout: Nanos,
    /// Total attempts per request (1 = no retries).
    pub max_attempts: u8,
    /// Retry budget as milli-tokens accrued per original request: 100
    /// means the client may retry at most ~10% of offered load.
    pub budget_permille: u32,
    /// Token-bucket burst cap, in whole retries.
    pub budget_burst: u32,
    /// Backoff floor (first retry waits at least this long past the
    /// timeout).
    pub backoff_base: Nanos,
    /// Backoff ceiling.
    pub backoff_cap: Nanos,
}

#[cfg(feature = "overload")]
impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            timeout: Nanos::from_ms(1),
            max_attempts: 3,
            budget_permille: 100,
            budget_burst: 16,
            backoff_base: Nanos::from_us(100),
            backoff_cap: Nanos::from_ms(5),
        }
    }
}

/// Global retry *budget*: a token bucket that accrues a fixed fraction of
/// a token per original request and charges one whole token per retry.
/// Caps aggregate retry volume at ~`budget_permille/1000` of offered load
/// no matter how adversarial the timeout pattern — the defense against
/// retry storms (retries amplifying the very overload that caused them).
///
/// Integer milli-token arithmetic, so the bound is exact and
/// property-testable: `spent() * 1000 ≤ requests × budget_permille +
/// burst × 1000` always.
#[cfg(feature = "overload")]
#[derive(Clone, Debug)]
pub struct RetryBudget {
    fill_millitokens: u64,
    burst_millitokens: u64,
    tokens: u64,
    spent: u64,
}

#[cfg(feature = "overload")]
impl RetryBudget {
    /// A bucket accruing `permille/1000` tokens per request, holding at
    /// most `burst` whole tokens.
    pub fn new(permille: u32, burst: u32) -> Self {
        RetryBudget {
            fill_millitokens: permille as u64,
            burst_millitokens: burst as u64 * 1000,
            tokens: 0,
            spent: 0,
        }
    }

    /// Accrues budget for one original (non-retry) request.
    pub fn on_request(&mut self) {
        self.tokens = (self.tokens + self.fill_millitokens).min(self.burst_millitokens);
    }

    /// Attempts to spend one retry token; `false` means the budget is
    /// exhausted and the client must give up instead of retrying.
    pub fn try_spend(&mut self) -> bool {
        if self.tokens >= 1000 {
            self.tokens -= 1000;
            self.spent += 1;
            true
        } else {
            false
        }
    }

    /// Retries spent so far.
    pub fn spent(&self) -> u64 {
        self.spent
    }
}

/// Per-class retry budgets: one [`RetryBudget`] token bucket per SLO
/// class, so a batch tenant's timeout storm cannot drain the retry
/// capacity a latency-critical tenant was provisioned (the multi-tenant
/// generalization of the single global bucket).
///
/// Each class accrues budget only from *its own* original requests, at
/// its own permille rate — the `retry_frac` of the application's
/// registered SLO class (`SloClass` in `skyloft-core`). Classes left at
/// the default inherit the policy-wide `budget_permille`, so a
/// single-class run through this type is behaviorally identical to one
/// `RetryBudget`.
#[cfg(feature = "overload")]
#[derive(Clone, Debug)]
pub struct ClassRetryBudgets {
    buckets: [RetryBudget; crate::overload::MAX_CLASSES],
}

#[cfg(feature = "overload")]
impl ClassRetryBudgets {
    /// Buckets all filling at `permille` with burst `burst` (the
    /// single-class baseline); scale individual classes afterwards with
    /// [`ClassRetryBudgets::set_class`].
    pub fn new(permille: u32, burst: u32) -> Self {
        ClassRetryBudgets {
            buckets: core::array::from_fn(|_| RetryBudget::new(permille, burst)),
        }
    }

    /// Re-provisions one class's bucket to fill at `permille` (its SLO
    /// class's `retry_frac`). Resets that bucket's accrual and spend.
    pub fn set_class(&mut self, class: u8, permille: u32, burst: u32) {
        self.buckets[crate::overload::class_slot(class)] = RetryBudget::new(permille, burst);
    }

    /// Accrues budget for one original (non-retry) request of `class`.
    pub fn on_request(&mut self, class: u8) {
        self.buckets[crate::overload::class_slot(class)].on_request();
    }

    /// Attempts to spend one retry token from `class`'s own bucket.
    pub fn try_spend(&mut self, class: u8) -> bool {
        self.buckets[crate::overload::class_slot(class)].try_spend()
    }

    /// Retries spent by `class` so far.
    pub fn spent(&self, class: u8) -> u64 {
        self.buckets[crate::overload::class_slot(class)].spent()
    }
}

/// Capped exponential backoff with decorrelated jitter (the AWS
/// architecture-blog variant): each delay is drawn uniformly from
/// `[base, prev × 3)` and capped, which decorrelates colliding clients
/// faster than plain `base × 2^n` jitter while keeping the cap.
#[cfg(feature = "overload")]
#[derive(Clone, Debug)]
pub struct Backoff {
    base: Nanos,
    cap: Nanos,
    prev: Nanos,
    rng: Rng,
}

#[cfg(feature = "overload")]
impl Backoff {
    /// A backoff sequence drawing from `seed`, bounded to `[base, cap]`.
    pub fn new(base: Nanos, cap: Nanos, seed: u64) -> Self {
        assert!(base.0 > 0, "backoff base must be positive");
        assert!(cap >= base, "backoff cap below base");
        Backoff {
            base,
            cap,
            prev: base,
            rng: Rng::seed_from_u64(seed ^ 0xBAC0_FF01_BAC0_FF01),
        }
    }

    /// Draws the next delay: `min(cap, uniform[base, prev × 3))`.
    pub fn next_delay(&mut self) -> Nanos {
        let hi = self.prev.0.saturating_mul(3).max(self.base.0 + 1);
        let d = self.base.0 + self.rng.next_below(hi - self.base.0);
        let d = d.min(self.cap.0);
        self.prev = Nanos(d);
        Nanos(d)
    }

    /// Resets the sequence to its floor (a fresh request's first retry).
    pub fn reset(&mut self) {
        self.prev = self.base;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_is_respected() {
        let g = OpenLoop::new(
            100_000.0,
            Distribution::Constant(Nanos(1_000)),
            Nanos(10_000),
            7,
        );
        let reqs: Vec<GenRequest> = g.take(10_000).collect();
        let span = reqs.last().unwrap().at.as_secs();
        let rate = 10_000.0 / span;
        assert!((rate - 100_000.0).abs() / 100_000.0 < 0.05, "rate {rate}");
    }

    #[test]
    fn zero_rate_yields_empty_schedule() {
        // Regression: a zero-rate sweep point (e.g. a co-located tenant
        // allotted none of the total load) used to panic inside
        // `PoissonArrivals::new`; and callers then unwrapped
        // `reqs.last()`. Both degenerate axes now produce an empty
        // schedule.
        let g = OpenLoop::new(0.0, Distribution::Constant(Nanos(1_000)), Nanos(10_000), 7);
        assert_eq!(g.clone().next(), None);
        assert!(g.schedule(Nanos::from_ms(100)).is_empty());

        // Non-finite rates are equally degenerate, not panics.
        let g = OpenLoop::new(
            f64::NAN,
            Distribution::Constant(Nanos(1_000)),
            Nanos(10_000),
            7,
        );
        assert!(g.schedule(Nanos::from_ms(1)).is_empty());

        // Zero duration: a real rate, but no room for any arrival.
        let g = OpenLoop::new(
            100_000.0,
            Distribution::Constant(Nanos(1_000)),
            Nanos(10_000),
            7,
        );
        assert!(g.schedule(Nanos::ZERO).is_empty());
    }

    #[test]
    fn schedule_is_bounded_and_ordered() {
        let g = OpenLoop::new(
            100_000.0,
            Distribution::Constant(Nanos(1_000)),
            Nanos(10_000),
            7,
        );
        let dur = Nanos::from_ms(10);
        let reqs = g.schedule(dur);
        assert!(!reqs.is_empty());
        let mut prev = Nanos::ZERO;
        for r in &reqs {
            assert!(r.at >= prev && r.at <= dur);
            prev = r.at;
        }
        // ~100k rps over 10 ms ≈ 1000 requests.
        assert!((800..1200).contains(&reqs.len()), "{}", reqs.len());
    }

    #[test]
    fn arrivals_are_monotone() {
        let g = OpenLoop::new(1_000_000.0, Distribution::Constant(Nanos(100)), Nanos(1), 3);
        let mut prev = Nanos::ZERO;
        for r in g.take(1000) {
            assert!(r.at >= prev);
            prev = r.at;
        }
    }

    #[test]
    fn classes_follow_threshold() {
        let g = OpenLoop::new(
            10_000.0,
            Distribution::Bimodal {
                p_long: 0.5,
                short: Nanos(950),
                long: Nanos(591_000),
            },
            Nanos(10_000),
            11,
        );
        let reqs: Vec<GenRequest> = g.take(10_000).collect();
        let longs = reqs.iter().filter(|r| r.class == 1).count();
        assert!(
            (4_000..6_000).contains(&longs),
            "long fraction off: {longs}/10000"
        );
        for r in &reqs {
            if r.class == 1 {
                assert_eq!(r.service, Nanos(591_000));
            } else {
                assert_eq!(r.service, Nanos(950));
            }
        }
    }

    #[cfg(feature = "overload")]
    #[test]
    fn retry_budget_caps_aggregate_retries() {
        // 10% budget, burst 2: 1000 requests accrue ≤ 100 + 2 tokens.
        let mut b = RetryBudget::new(100, 2);
        let mut granted = 0u64;
        for _ in 0..1000 {
            b.on_request();
            // Adversarial client: tries to retry after every request.
            if b.try_spend() {
                granted += 1;
            }
        }
        assert_eq!(granted, b.spent());
        assert!(granted <= 102, "budget leaked: {granted} retries granted");
        assert!(granted >= 90, "budget too stingy: {granted}");
    }

    #[cfg(feature = "overload")]
    #[test]
    fn retry_budget_burst_bounds_idle_accrual() {
        let mut b = RetryBudget::new(100, 3);
        for _ in 0..10_000 {
            b.on_request();
        }
        // However long the quiet spell, at most `burst` retries fire
        // back-to-back.
        let mut burst = 0;
        while b.try_spend() {
            burst += 1;
        }
        assert_eq!(burst, 3);
    }

    #[cfg(feature = "overload")]
    #[test]
    fn class_budgets_are_isolated_and_scaled() {
        let mut b = ClassRetryBudgets::new(100, 2);
        // Class 1 is a batch tenant provisioned at 20‰ with no burst
        // headroom beyond one token.
        b.set_class(1, 20, 1);
        let mut granted = [0u64; 2];
        for _ in 0..1000 {
            for class in 0..2u8 {
                b.on_request(class);
                if b.try_spend(class) {
                    granted[usize::from(class)] += 1;
                }
            }
        }
        // Class 0 keeps its full 10% budget even while class 1 hammers
        // its own bucket dry; class 1 is capped by its 2% fill.
        assert!(granted[0] >= 90 && granted[0] <= 102, "{granted:?}");
        assert!(granted[1] <= 21, "{granted:?}");
        assert_eq!(b.spent(0), granted[0]);
        assert_eq!(b.spent(1), granted[1]);
    }

    #[cfg(feature = "overload")]
    #[test]
    fn class_budgets_share_slot_for_out_of_range_classes() {
        use crate::overload::{class_slot, MAX_CLASSES};
        let mut b = ClassRetryBudgets::new(1000, 4);
        // Classes beyond the table clamp to the last slot and therefore
        // share one bucket.
        assert_eq!(class_slot(9), MAX_CLASSES - 1);
        b.on_request(9);
        assert!(b.try_spend(200));
        assert_eq!(b.spent(MAX_CLASSES as u8 - 1), 1);
    }

    #[cfg(feature = "overload")]
    #[test]
    fn backoff_stays_within_bounds_and_grows() {
        let base = Nanos::from_us(100);
        let cap = Nanos::from_ms(5);
        let mut bo = Backoff::new(base, cap, 42);
        let mut prev_max = Nanos::ZERO;
        for _ in 0..50 {
            let d = bo.next_delay();
            assert!(
                d >= base && d <= cap,
                "delay {d:?} out of [{base:?}, {cap:?}]"
            );
            prev_max = prev_max.max(d);
        }
        // With 50 draws the sequence has explored well past the floor.
        assert!(prev_max > base * 2, "backoff never grew: max {prev_max:?}");
        bo.reset();
        assert!(bo.next_delay() < base * 3 + Nanos(1), "reset did not floor");
    }

    #[cfg(feature = "overload")]
    #[test]
    fn backoff_is_deterministic_per_seed() {
        let draw = |seed| {
            let mut bo = Backoff::new(Nanos(500), Nanos::from_us(50), seed);
            (0..20).map(|_| bo.next_delay()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn deterministic_for_seed() {
        let a: Vec<GenRequest> = OpenLoop::new(
            50_000.0,
            Distribution::Exponential(Nanos(2_000)),
            Nanos(5_000),
            42,
        )
        .take(100)
        .collect();
        let b: Vec<GenRequest> = OpenLoop::new(
            50_000.0,
            Distribution::Exponential(Nanos(2_000)),
            Nanos(5_000),
            42,
        )
        .take(100)
        .collect();
        assert_eq!(a, b);
    }
}
