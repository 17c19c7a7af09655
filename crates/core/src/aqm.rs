//! Runqueue AQM: the CoDel drop law on *scheduler* queue sojourn.
//!
//! PR 6 put CoDel on the NIC RX rings, so overload entering through the
//! data plane is bounded before it reaches the scheduler. But requests
//! injected directly via `spawn_request` — or a backlog that builds up
//! *inside* the runqueues because service times stretched — bypass that
//! ring entirely. This module is the second containment ring: the machine
//! samples every app's worst runqueue sojourn on a fixed poll period
//! ([`crate::conf::RunqueueAqmConfig::poll_every`]) and feeds it through a
//! per-app CoDel controller. When an app's controller fires, the machine
//! condemns the oldest queued request of a *sheddable* app (see
//! [`crate::machine::Machine::set_runqueue_aqm`] for the victim-selection
//! rule); the condemned task is terminated, not run, at its next dequeue.
//!
//! The drop law is [`skyloft_sim::control::Codel`], the same state
//! machine the RX rings run, judged here against a per-call target.
//!
//! Pure data structure: no RNG, no clock, driven with explicit `now`
//! values, so it is deterministic and directly unit-testable.

use skyloft_sim::control::{Codel, CodelConfig};
use skyloft_sim::Nanos;

use crate::conf::RunqueueAqmConfig;
use crate::task::{AppId, TaskId};

/// The machine-side runqueue AQM: one CoDel controller per application,
/// plus the per-poll scan scratch (oldest queued task per app, and the
/// victim pools). The scratch keeps its storage from poll to poll, so a
/// steady-state poll allocates nothing.
#[derive(Debug)]
pub struct RunqueueAqm {
    cfg: RunqueueAqmConfig,
    /// Controllers, indexed by `AppId` (grown on demand).
    apps: Vec<Codel>,
    /// Scan scratch: the oldest queued task seen for each app this poll,
    /// with its `runnable_since`.
    oldest: Vec<Option<(TaskId, Nanos)>>,
    /// Scan scratch: every queued task of each sheddable app with its
    /// `runnable_since`, oldest first once [`RunqueueAqm::sort_victims`]
    /// ran, so one poll can serve every drop the law owes.
    pool: Vec<Vec<(TaskId, Nanos)>>,
    /// Scan scratch: how many of each app's pool this poll condemned.
    cursor: Vec<usize>,
}

impl RunqueueAqm {
    /// A quiescent AQM with the given law parameters.
    pub fn new(cfg: RunqueueAqmConfig) -> Self {
        RunqueueAqm {
            cfg,
            apps: Vec::new(),
            oldest: Vec::new(),
            pool: Vec::new(),
            cursor: Vec::new(),
        }
    }

    /// The law parameters.
    pub fn cfg(&self) -> RunqueueAqmConfig {
        self.cfg
    }

    /// Resets the scan scratch for a poll over `n_apps` applications.
    pub fn begin_scan(&mut self, n_apps: usize) {
        self.oldest.clear();
        self.oldest.resize(n_apps, None);
        self.pool.resize_with(n_apps, Vec::new);
        for p in &mut self.pool {
            p.clear();
        }
        self.cursor.clear();
        self.cursor.resize(n_apps, 0);
        self.grow(n_apps);
    }

    /// Records one queued task in the scan: keeps the oldest
    /// (smallest `runnable_since`) per app.
    pub fn observe(&mut self, app: AppId, task: TaskId, since: Nanos) {
        let slot = &mut self.oldest[app];
        if slot.is_none_or(|(_, s)| since < s) {
            *slot = Some((task, since));
        }
    }

    /// Adds one queued task of a sheddable app to that app's victim pool.
    pub fn offer_victim(&mut self, app: AppId, task: TaskId, since: Nanos) {
        self.pool[app].push((task, since));
    }

    /// Orders every victim pool oldest first. The sort is stable: tasks
    /// queued at the same instant keep their scan order, which is part of
    /// victim selection.
    pub fn sort_victims(&mut self) {
        for p in &mut self.pool {
            p.sort_by_key(|&(_, since)| since);
        }
    }

    /// Condemns the next victim: the oldest not-yet-condemned task of
    /// `own`'s pool, or with `own` unset, the oldest head of any pool
    /// (the lowest app wins a tie). `None` when that pool is exhausted.
    pub fn take_victim(&mut self, own: Option<AppId>) -> Option<TaskId> {
        let app = match own {
            Some(app) => app,
            None => {
                let mut best: Option<(usize, Nanos)> = None;
                for (a, p) in self.pool.iter().enumerate() {
                    if let Some(&(_, s)) = p.get(self.cursor[a]) {
                        if best.is_none_or(|(_, bs)| s < bs) {
                            best = Some((a, s));
                        }
                    }
                }
                best?.0
            }
        };
        let victim = self.pool[app].get(self.cursor[app]).map(|&(t, _)| t);
        self.cursor[app] += 1;
        victim
    }

    /// The oldest queued task of `app` seen by the current scan, with its
    /// `runnable_since`. `None` when the app has nothing queued.
    pub fn app_oldest(&self, app: AppId) -> Option<(TaskId, Nanos)> {
        self.oldest.get(app).copied().flatten()
    }

    /// Feeds `app`'s worst-sojourn sample into its controller. `target`
    /// overrides the configured default (an app with a registered SLO
    /// class is judged against half its own deadline). Returns `true`
    /// when the drop law says to shed one queued request now.
    pub fn on_sample(
        &mut self,
        app: AppId,
        now: Nanos,
        sojourn: Nanos,
        target: Option<Nanos>,
    ) -> bool {
        self.grow(app + 1);
        self.apps[app].on_sample(now, sojourn, target.unwrap_or(self.cfg.target))
    }

    /// Grows the controller table to cover `n_apps` applications.
    fn grow(&mut self, n_apps: usize) {
        if self.apps.len() < n_apps {
            let law = CodelConfig {
                target: self.cfg.target,
                interval: self.cfg.interval,
            };
            self.apps.resize(n_apps, Codel::new(law));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> RunqueueAqmConfig {
        RunqueueAqmConfig {
            target: Nanos::from_us(50),
            interval: Nanos::from_us(500),
            poll_every: Nanos::from_us(10),
            sheddable_slo: Nanos::from_ms(1),
        }
    }

    fn tid(idx: u32) -> TaskId {
        TaskId { idx, generation: 0 }
    }

    #[test]
    fn per_app_state_is_independent() {
        let mut a = RunqueueAqm::new(cfg());
        let high = Nanos::from_us(200);
        // App 0 builds up an above-target episode; app 1 stays quiet.
        assert!(!a.on_sample(0, Nanos::ZERO, high, None));
        assert!(!a.on_sample(1, Nanos::ZERO, Nanos::from_us(1), None));
        assert!(a.on_sample(0, Nanos::from_us(500), high, None));
        // App 1's first above-target sample only arms its own interval.
        assert!(!a.on_sample(1, Nanos::from_us(500), high, None));
    }

    #[test]
    fn target_override_uses_class_deadline() {
        let mut a = RunqueueAqm::new(cfg());
        // 100 µs sojourn, 300 µs override target: quiescent forever.
        for i in 0..200u64 {
            assert!(!a.on_sample(
                0,
                Nanos(i * 10_000),
                Nanos::from_us(100),
                Some(Nanos::from_us(300)),
            ));
        }
        // Same sojourn against a 40 µs override fires after an interval.
        let tight = Some(Nanos::from_us(40));
        assert!(!a.on_sample(1, Nanos::ZERO, Nanos::from_us(100), tight));
        assert!(a.on_sample(1, Nanos::from_us(500), Nanos::from_us(100), tight));
    }

    #[test]
    fn scan_tracks_oldest_per_app() {
        let mut a = RunqueueAqm::new(cfg());
        a.begin_scan(2);
        a.observe(0, tid(1), Nanos(300));
        a.observe(0, tid(2), Nanos(100));
        a.observe(0, tid(3), Nanos(200));
        a.observe(1, tid(4), Nanos(50));
        assert_eq!(a.app_oldest(0), Some((tid(2), Nanos(100))));
        assert_eq!(a.app_oldest(1), Some((tid(4), Nanos(50))));
        a.begin_scan(2);
        assert_eq!(a.app_oldest(0), None);
    }

    #[test]
    fn victims_come_oldest_first_and_ties_keep_scan_order() {
        let mut a = RunqueueAqm::new(cfg());
        a.begin_scan(3);
        a.offer_victim(1, tid(1), Nanos(300));
        a.offer_victim(1, tid(2), Nanos(100));
        a.offer_victim(1, tid(3), Nanos(100));
        a.offer_victim(2, tid(4), Nanos(200));
        a.sort_victims();
        // Any-pool draws take the oldest head; tid 3 ties tid 2 and
        // follows it.
        assert_eq!(a.take_victim(None), Some(tid(2)));
        assert_eq!(a.take_victim(None), Some(tid(3)));
        assert_eq!(a.take_victim(None), Some(tid(4)));
        assert_eq!(a.take_victim(Some(1)), Some(tid(1)));
        assert_eq!(a.take_victim(Some(1)), None);
        assert_eq!(a.take_victim(None), None);
        // The next scan starts from full, empty pools.
        a.begin_scan(3);
        a.sort_victims();
        assert_eq!(a.take_victim(Some(0)), None);
    }
}
