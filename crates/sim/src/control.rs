//! Overload-control laws shared by the NIC data plane and the scheduler.
//!
//! Both the RX-ring AQM and admission control in `skyloft-net` and the
//! runqueue AQM and brownout in `skyloft-core` are built from the same
//! three pieces, defined here once:
//!
//! * [`Codel`] — the CoDel drop law (Nichols & Jacobson, CACM 2012) on a
//!   sojourn signal. While sojourn stays below `target` nothing happens;
//!   once it has exceeded `target` for a full `interval` the controller
//!   enters the dropping state and fires at `interval/√count` spacing,
//!   resuming at `last_count − 2` on quick re-entry.
//! * [`ewma`] — the integer EWMA every estimator uses.
//! * [`MAX_CLASSES`] / [`class_slot`] — the request-class slots every
//!   per-class table and ledger is indexed by.
//!
//! Everything is a pure function of explicit `now` values: no RNG, no
//! clock of its own.

use crate::Nanos;

/// Number of request classes tracked separately (e.g. GET/SET, or one
/// slot per SLO class).
pub const MAX_CLASSES: usize = 4;

/// Folds a request class into a tracked slot: classes past the last slot
/// share it.
#[inline]
pub fn class_slot(class: u8) -> usize {
    (class as usize).min(MAX_CLASSES - 1)
}

/// One step of the integer EWMA: moves `est` by `(sample − est) >> shift`
/// (gain `2^−shift`). The shift is arithmetic, so a falling estimate
/// rounds toward −∞ and never lands below `sample`.
#[inline]
pub fn ewma(est: Nanos, sample: Nanos, shift: u32) -> Nanos {
    let est = est.0 as i128;
    Nanos((est + ((sample.0 as i128 - est) >> shift)) as u64)
}

/// Parameters of the CoDel drop law.
///
/// The canonical internet defaults are 5 ms / 100 ms; a kernel-bypass
/// memcached server runs about three orders of magnitude faster, so the
/// defaults here scale the same ~1:20 ratio down to microseconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CodelConfig {
    /// Acceptable standing-queue sojourn. Below this the controller is
    /// quiescent.
    pub target: Nanos,
    /// How long sojourn must stay above `target` before dropping starts;
    /// also the initial spacing of drops.
    pub interval: Nanos,
}

impl Default for CodelConfig {
    fn default() -> Self {
        CodelConfig {
            target: Nanos::from_us(25),
            interval: Nanos::from_us(500),
        }
    }
}

/// CoDel state machine. Feed every sojourn sample through
/// [`Codel::on_packet`] (or [`Codel::on_sample`] to judge against a
/// per-call target); `true` means *shed one now*.
#[derive(Clone, Debug)]
pub struct Codel {
    cfg: CodelConfig,
    /// The instant dropping may begin (first above-target sample plus
    /// one `interval`), while the sojourn is currently above target.
    first_above: Option<Nanos>,
    /// Whether the controller is in the dropping state.
    dropping: bool,
    /// Next scheduled drop while in the dropping state.
    drop_next: Nanos,
    /// Drops in the current dropping episode (sets the √count rate).
    count: u32,
    /// `count` when the last episode ended, for the "resume at nearly
    /// the old rate" refinement on quick re-entry.
    last_count: u32,
}

impl Codel {
    /// A quiescent controller with the given law parameters.
    pub fn new(cfg: CodelConfig) -> Self {
        Codel {
            cfg,
            first_above: None,
            dropping: false,
            drop_next: Nanos::ZERO,
            count: 0,
            last_count: 0,
        }
    }

    /// Whether the controller is currently in the dropping state.
    pub fn dropping(&self) -> bool {
        self.dropping
    }

    /// `t + interval/√count`: the control law spacing successive drops.
    #[inline]
    fn control_law(&self, t: Nanos) -> Nanos {
        t + Nanos((self.cfg.interval.0 as f64 / (self.count.max(1) as f64).sqrt()) as u64)
    }

    /// Judges one sample against the configured target: `sojourn` is how
    /// long the head item waited, `now` the sampling instant.
    #[inline]
    pub fn on_packet(&mut self, now: Nanos, sojourn: Nanos) -> bool {
        self.on_sample(now, sojourn, self.cfg.target)
    }

    /// Judges one sample against `target` instead of the configured one.
    #[inline]
    pub fn on_sample(&mut self, now: Nanos, sojourn: Nanos, target: Nanos) -> bool {
        if sojourn < target {
            // Queue is fine: leave the dropping state and forget the
            // above-target episode.
            self.first_above = None;
            self.dropping = false;
            return false;
        }
        match self.first_above {
            None => {
                // First sample above target: arm the interval timer.
                self.first_above = Some(now + self.cfg.interval);
                false
            }
            Some(fa) if !self.dropping => {
                if now < fa {
                    return false;
                }
                // Sojourn stayed above target for a whole interval:
                // enter the dropping state and shed now. Resume near the
                // previous rate when the last episode was recent (we are
                // oscillating around the operating point), else restart
                // gently.
                self.dropping = true;
                self.count = if self.last_count > 2 && now < self.drop_next + self.cfg.interval {
                    self.last_count - 2
                } else {
                    1
                };
                self.drop_next = self.control_law(now);
                true
            }
            Some(_) => {
                if now < self.drop_next {
                    return false;
                }
                self.count += 1;
                self.last_count = self.count;
                self.drop_next = self.control_law(self.drop_next);
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn law() -> CodelConfig {
        CodelConfig {
            target: Nanos::from_us(25),
            interval: Nanos::from_us(500),
        }
    }

    /// Feeds a stuck-high sojourn every 10 µs for `n` samples from `now`,
    /// returning the drop instants and the instant after the last sample.
    fn drive_high(c: &mut Codel, mut now: Nanos, n: usize) -> (Vec<Nanos>, Nanos) {
        let mut drops = Vec::new();
        for _ in 0..n {
            if c.on_packet(now, Nanos::from_us(100)) {
                drops.push(now);
            }
            now += Nanos::from_us(10);
        }
        (drops, now)
    }

    #[test]
    fn below_target_stays_quiet() {
        let mut c = Codel::new(law());
        for i in 0..10_000u64 {
            let now = Nanos(i * 100);
            assert!(!c.on_packet(now, Nanos::from_us(24)), "dropped at {now:?}");
        }
        assert!(!c.dropping());
    }

    #[test]
    fn one_interval_above_target_arms_dropping() {
        let mut c = Codel::new(law());
        let sojourn = Nanos::from_us(100);
        // Above target but within the first interval: no drops yet.
        assert!(!c.on_packet(Nanos::ZERO, sojourn));
        assert!(!c.on_packet(Nanos::from_us(499), sojourn));
        // One interval elapsed: the next above-target sample is shed.
        assert!(c.on_packet(Nanos::from_us(500), sojourn));
        assert!(c.dropping());
    }

    #[test]
    fn drop_rate_accelerates_with_sqrt_count() {
        let mut c = Codel::new(law());
        let (drops, _) = drive_high(&mut c, Nanos::ZERO, 1_000);
        assert!(drops.len() >= 4, "only {} drops", drops.len());
        // Successive inter-drop gaps shrink (interval/√count).
        let gap1 = drops[1] - drops[0];
        let last_gap = drops[drops.len() - 1] - drops[drops.len() - 2];
        assert!(
            last_gap < gap1,
            "drop rate did not accelerate: first gap {gap1:?}, last {last_gap:?}"
        );
    }

    #[test]
    fn recovery_resets_episode() {
        let mut c = Codel::new(law());
        let (_, now) = drive_high(&mut c, Nanos::ZERO, 200);
        assert!(c.dropping());
        // Queue drained: one below-target sample resets the controller.
        assert!(!c.on_packet(now, Nanos::from_us(1)));
        assert!(!c.dropping());
        // The next above-target sample starts a fresh interval, not an
        // immediate drop.
        assert!(!c.on_packet(now + Nanos::from_us(10), Nanos::from_us(100)));
    }

    #[test]
    fn quick_reentry_resumes_at_last_count_minus_two() {
        let mut c = Codel::new(law());
        let (drops, _) = drive_high(&mut c, Nanos::ZERO, 300);
        let last_count = c.last_count;
        assert!(last_count > 4, "episode too short: last_count {last_count}");
        assert_eq!(drops.len() as u32, last_count);
        // A brief dip just before the next scheduled drop ends the
        // episode; sojourn climbs straight back.
        let dip = c.drop_next - Nanos(1);
        assert!(!c.on_packet(dip, Nanos::from_us(1)));
        assert!(!c.dropping());
        assert!(!c.on_packet(dip, Nanos::from_us(100)));
        // Re-entry one interval later is within `drop_next + interval`
        // of the old episode, so the count resumes near the old rate.
        let reentry = dip + law().interval;
        assert!(c.on_packet(reentry, Nanos::from_us(100)));
        assert_eq!(c.count, last_count - 2);
        let interval = law().interval.0 as f64;
        let spacing = (interval / ((last_count - 2) as f64).sqrt()) as u64;
        assert_eq!(c.drop_next, reentry + Nanos(spacing));

        // A late re-entry restarts gently at count 1.
        let mut late = Codel::new(law());
        let (_, now) = drive_high(&mut late, Nanos::ZERO, 300);
        assert!(!late.on_packet(now, Nanos::from_us(1)));
        let rearm = late.drop_next + law().interval;
        assert!(!late.on_packet(rearm, Nanos::from_us(100)));
        assert!(late.on_packet(rearm + law().interval, Nanos::from_us(100)));
        assert_eq!(late.count, 1);
    }

    #[test]
    fn ewma_converges_and_floors_negative_deltas() {
        let mut est = Nanos::from_us(2);
        for _ in 0..200 {
            est = ewma(est, Nanos::from_us(6), 3);
        }
        assert!(
            (Nanos::from_us(5)..=Nanos::from_us(6)).contains(&est),
            "{est:?}"
        );
        // Positive deltas truncate toward the old estimate...
        assert_eq!(ewma(Nanos(100), Nanos(107), 3), Nanos(100));
        assert_eq!(ewma(Nanos(100), Nanos(108), 3), Nanos(101));
        // ...negative deltas floor away from it: −1 >> 3 is −1, not 0,
        // so a falling estimate always moves, but never below the sample.
        assert_eq!(ewma(Nanos(100), Nanos(99), 3), Nanos(99));
        assert_eq!(ewma(Nanos(100), Nanos(92), 3), Nanos(99));
        assert_eq!(ewma(Nanos(100), Nanos(91), 3), Nanos(98));
        assert_eq!(ewma(Nanos(5), Nanos::ZERO, 3), Nanos(4));
        assert_eq!(ewma(Nanos(1), Nanos::ZERO, 3), Nanos::ZERO);
        // So the `max(0)` clamp the poll-cost estimate once applied to
        // the i64 form of this law never fired: both agree everywhere.
        for e in (0..64u64).chain([1_000_000, u32::MAX as u64]) {
            for s in (0..64u64).chain([1_000_000, u32::MAX as u64]) {
                let clamped = (e as i64 + ((s as i64 - e as i64) >> 3)).max(0) as u64;
                assert_eq!(
                    ewma(Nanos(e), Nanos(s), 3),
                    Nanos(clamped),
                    "est {e} sample {s}"
                );
                assert!(ewma(Nanos(e), Nanos(s), 3) >= Nanos(s.min(e)));
            }
        }
    }

    #[test]
    fn class_slot_clamps() {
        assert_eq!(class_slot(0), 0);
        assert_eq!(class_slot(3), 3);
        assert_eq!(class_slot(200), MAX_CLASSES - 1);
    }
}
