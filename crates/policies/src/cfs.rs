//! Completely Fair Scheduler (Skyloft CFS, §5.1; 430 LoC in Table 4).
//!
//! A faithful reduction of `kernel/sched/fair.c`'s core algorithm:
//! per-CPU runqueues ordered by virtual runtime, weight-scaled vruntime
//! accounting, a dynamic slice of `max(sched_latency / nr_running,
//! min_granularity)`, sleeper compensation on wakeup (the reason CFS beats
//! RR on schbench wakeup latency, §5.1), and wakeup preemption gated by a
//! wakeup granularity.
//!
//! Each runqueue is an [`RqTree`] keyed by `(vruntime, id)`: pick takes
//! the cached leftmost node, balance steals the rightmost, insert and
//! remove are O(log n) expected, and a warm queue allocates nothing. The
//! tree's subtree-minimum augmentation is EEVDF's; CFS values every node
//! 0, so the minima never change and no update walks up. Runqueues live in a dense array indexed through
//! [`CoreMap`] (sparse core lists don't allocate dead queues) and the
//! total queued count is a cached counter, so `queue_len` — called on
//! every core-allocation probe — is O(1) instead of O(#cores). Decisions
//! are bit-identical to [`crate::reference::Cfs`].

use skyloft::ops::{CoreId, EnqueueFlags, Policy, PolicyKind, SchedEnv};
use skyloft::task::{TaskId, TaskTable};
use skyloft::SchedParams;
use skyloft_sim::Nanos;

use crate::coremap::CoreMap;
use crate::rqtree::RqTree;

/// Weight of a nice-0 task, as in Linux.
pub const NICE0_WEIGHT: u64 = 1024;

struct CfsRq {
    /// Tasks ordered by (vruntime, id).
    tree: RqTree,
    /// Monotonic floor for new/woken tasks' vruntime.
    min_vruntime: u64,
}

impl CfsRq {
    fn new() -> Self {
        CfsRq {
            tree: RqTree::default(),
            min_vruntime: 0,
        }
    }

    fn leftmost(&self) -> Option<(u64, TaskId)> {
        self.tree.first().map(|n| self.tree.key(n))
    }

    fn insert(&mut self, vruntime: u64, t: TaskId) {
        self.tree.insert((vruntime, t), 0);
    }
}

/// CFS policy state.
pub struct Cfs {
    rqs: Vec<CfsRq>,
    map: CoreMap,
    cores: Vec<CoreId>,
    /// Cached Σ of per-rq lengths (O(1) `queue_len`).
    queued_total: usize,
    params: SchedParams,
}

impl Cfs {
    /// Creates the policy with Table 5 parameters.
    pub fn new(params: SchedParams) -> Self {
        Cfs {
            rqs: Vec::new(),
            map: CoreMap::default(),
            cores: Vec::new(),
            queued_total: 0,
            params,
        }
    }

    /// Weight-scaled vruntime delta for `delta` wall time.
    fn calc_delta(delta: Nanos, weight: u32) -> u64 {
        delta.0 * NICE0_WEIGHT / weight.max(1) as u64
    }

    /// The dynamic slice: latency target shared among runnable tasks,
    /// floored at the minimum granularity.
    fn slice(&self, nr_running: usize) -> Nanos {
        let shared = Nanos(self.params.sched_latency.0 / nr_running.max(1) as u64);
        shared.max(self.params.min_granularity)
    }

    fn queued(&self, cpu: CoreId) -> usize {
        self.rqs[self.map.rq(cpu)].tree.len()
    }

    /// Total queued tasks across all cores.
    pub fn total_queued(&self) -> usize {
        self.queued_total
    }
}

impl Policy for Cfs {
    fn name(&self) -> &'static str {
        "skyloft-cfs"
    }

    fn kind(&self) -> PolicyKind {
        PolicyKind::PerCpu
    }

    fn sched_init(&mut self, env: &SchedEnv) {
        self.map = CoreMap::new(&env.worker_cores);
        self.rqs = (0..self.map.len()).map(|_| CfsRq::new()).collect();
        self.cores = env.worker_cores.clone();
        self.queued_total = 0;
    }

    fn task_init(&mut self, tasks: &mut TaskTable, t: TaskId, _now: Nanos) {
        let task = tasks.get_mut(t);
        task.pd.vruntime = 0;
        task.pd.slice_used = Nanos::ZERO;
        if task.pd.weight == 0 {
            task.pd.weight = NICE0_WEIGHT as u32;
        }
    }

    fn task_terminate(&mut self, _tasks: &mut TaskTable, _t: TaskId, _now: Nanos) {}

    fn task_enqueue(
        &mut self,
        tasks: &mut TaskTable,
        t: TaskId,
        cpu: Option<CoreId>,
        flags: EnqueueFlags,
        _now: Nanos,
    ) {
        let rqi = self.map.rq(cpu.unwrap_or(self.cores[0]));
        let rq_min = self.rqs[rqi].min_vruntime;
        let task = tasks.get_mut(t);
        match flags {
            EnqueueFlags::New => {
                // New tasks start at the queue's minimum: no credit, no debt.
                task.pd.vruntime = task.pd.vruntime.max(rq_min);
            }
            EnqueueFlags::Wakeup => {
                // Sleeper compensation (place_entity): a woken task gets at
                // most half a latency period of credit, so it runs soon but
                // cannot starve the queue.
                let credit = self.params.sched_latency.0 / 2;
                task.pd.vruntime = task.pd.vruntime.max(rq_min.saturating_sub(credit));
            }
            EnqueueFlags::Preempted | EnqueueFlags::Yield => {
                // Keep accumulated vruntime: fairness across preemptions.
            }
        }
        self.rqs[rqi].insert(task.pd.vruntime, t);
        self.queued_total += 1;
    }

    fn task_dequeue(&mut self, tasks: &mut TaskTable, cpu: CoreId, _now: Nanos) -> Option<TaskId> {
        let rq = &mut self.rqs[self.map.rq(cpu)];
        let (vr, t) = rq.tree.remove(rq.tree.first()?);
        rq.min_vruntime = rq.min_vruntime.max(vr);
        self.queued_total -= 1;
        let task = tasks.get_mut(t);
        task.pd.slice_used = Nanos::ZERO;
        Some(t)
    }

    fn enqueue_batch(
        &mut self,
        tasks: &mut TaskTable,
        batch: &[(TaskId, Option<CoreId>, EnqueueFlags)],
        now: Nanos,
    ) {
        // Single-runqueue fast path: one core→rq translation, one
        // `min_vruntime` load, and one counter update for the whole burst.
        // CFS enqueues never move the floor, so the serial loop's per-task
        // reads all see the same value — the fusion is trivially
        // decision-identical. Mixed-hint bursts fall back to singles.
        let Some(&(_, hint0, _)) = batch.first() else {
            return;
        };
        let rqi = self.map.rq(hint0.unwrap_or(self.cores[0]));
        if batch
            .iter()
            .any(|&(_, h, _)| self.map.rq(h.unwrap_or(self.cores[0])) != rqi)
        {
            for &(t, hint, flags) in batch {
                self.task_enqueue(tasks, t, hint, flags, now);
            }
            return;
        }
        let credit = self.params.sched_latency.0 / 2;
        let rq = &mut self.rqs[rqi];
        let rq_min = rq.min_vruntime;
        for &(t, _, flags) in batch {
            let task = tasks.get_mut(t);
            match flags {
                EnqueueFlags::New => {
                    task.pd.vruntime = task.pd.vruntime.max(rq_min);
                }
                EnqueueFlags::Wakeup => {
                    task.pd.vruntime = task.pd.vruntime.max(rq_min.saturating_sub(credit));
                }
                EnqueueFlags::Preempted | EnqueueFlags::Yield => {}
            }
            rq.insert(task.pd.vruntime, t);
        }
        self.queued_total += batch.len();
    }

    fn pick_batch(
        &mut self,
        tasks: &mut TaskTable,
        cpu: CoreId,
        max: usize,
        _now: Nanos,
        out: &mut Vec<TaskId>,
    ) {
        // Leftmost picks in a straight run; the monotone floor is the max
        // of the popped vruntimes, folded in once (`max` is associative),
        // and the cached total is decremented once.
        let rq = &mut self.rqs[self.map.rq(cpu)];
        let mut floor = rq.min_vruntime;
        let mut picked = 0;
        while picked < max {
            let Some(n) = rq.tree.first() else {
                break;
            };
            let (vr, t) = rq.tree.remove(n);
            floor = floor.max(vr);
            tasks.get_mut(t).pd.slice_used = Nanos::ZERO;
            out.push(t);
            picked += 1;
        }
        rq.min_vruntime = floor;
        self.queued_total -= picked;
    }

    fn sched_timer_tick(
        &mut self,
        tasks: &mut TaskTable,
        cpu: CoreId,
        current: TaskId,
        ran: Nanos,
        _now: Nanos,
    ) -> bool {
        // Account the running task's vruntime since the last tick.
        let (cur_vr, slice_total) = {
            let task = tasks.get_mut(current);
            let delta = ran.saturating_sub(task.pd.slice_used);
            task.pd.slice_used = ran;
            task.pd.vruntime += Self::calc_delta(delta, task.pd.weight);
            (task.pd.vruntime, ran)
        };
        let Some((left_vr, _)) = self.rqs[self.map.rq(cpu)].leftmost() else {
            return false;
        };
        // check_preempt_tick: preempt once the slice is used up, or if the
        // leftmost waiter is far behind in vruntime.
        let slice = self.slice(self.queued(cpu) + 1);
        if slice_total >= slice && left_vr < cur_vr {
            return true;
        }
        cur_vr > left_vr + self.params.sched_latency.0
    }

    fn check_wakeup_preempt(
        &mut self,
        tasks: &TaskTable,
        woken: TaskId,
        _cpu: CoreId,
        current: TaskId,
        _ran: Nanos,
        _now: Nanos,
    ) -> bool {
        // check_preempt_wakeup: preempt if the woken task's vruntime is
        // ahead (smaller) by more than the wakeup granularity.
        let wakeup_gran = self.params.wakeup_gran.0;
        let wv = tasks.get(woken).pd.vruntime;
        let cv = tasks.get(current).pd.vruntime;
        wv + wakeup_gran < cv
    }

    fn sched_balance(&mut self, tasks: &mut TaskTable, cpu: CoreId, _now: Nanos) -> Option<TaskId> {
        let victim = self
            .cores
            .iter()
            .copied()
            .filter(|&c| c != cpu)
            .max_by_key(|&c| self.rqs[self.map.rq(c)].tree.len())?;
        // Steal the *last* (largest-vruntime) entity: it would have run
        // latest on its own queue, so migrating it costs the least locality.
        let tree = &mut self.rqs[self.map.rq(victim)].tree;
        let (_, t) = tree.remove(tree.last()?);
        self.queued_total -= 1;
        // Re-normalize to the thief's queue.
        let rq_min = self.rqs[self.map.rq(cpu)].min_vruntime;
        let task = tasks.get_mut(t);
        task.pd.vruntime = task.pd.vruntime.max(rq_min);
        task.pd.slice_used = Nanos::ZERO;
        Some(t)
    }

    fn queue_delay(&self, tasks: &TaskTable, now: Nanos) -> Option<Nanos> {
        // Contract (`Policy::queue_delay`): sojourn of the oldest waiting
        // task across all runqueues, by `runnable_since`. The trees order
        // by vruntime, so the oldest arrival requires a scan.
        self.rqs
            .iter()
            .flat_map(|rq| rq.tree.tasks())
            .map(|t| tasks.get(t).runnable_since)
            .min()
            .map(|since| now.saturating_sub(since))
    }

    fn queue_len(&self) -> Option<usize> {
        Some(self.total_queued())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyloft::task::Task;

    fn setup(n: usize) -> (Cfs, TaskTable) {
        let mut p = Cfs::new(SchedParams::SKYLOFT_CFS);
        p.sched_init(&SchedEnv {
            worker_cores: (0..n).collect(),
            dispatcher: None,
        });
        (p, TaskTable::new())
    }

    fn mk(p: &mut Cfs, tasks: &mut TaskTable) -> TaskId {
        let t = tasks.insert(|id| Task::bare(id, 0));
        p.task_init(tasks, t, Nanos::ZERO);
        t
    }

    #[test]
    fn picks_min_vruntime() {
        let (mut p, mut tasks) = setup(1);
        let a = mk(&mut p, &mut tasks);
        let b = mk(&mut p, &mut tasks);
        tasks.get_mut(a).pd.vruntime = 5_000;
        tasks.get_mut(b).pd.vruntime = 1_000;
        p.task_enqueue(&mut tasks, a, Some(0), EnqueueFlags::Preempted, Nanos::ZERO);
        p.task_enqueue(&mut tasks, b, Some(0), EnqueueFlags::Preempted, Nanos::ZERO);
        assert_eq!(p.task_dequeue(&mut tasks, 0, Nanos::ZERO), Some(b));
        assert_eq!(p.task_dequeue(&mut tasks, 0, Nanos::ZERO), Some(a));
    }

    #[test]
    fn min_vruntime_monotone() {
        let (mut p, mut tasks) = setup(1);
        let a = mk(&mut p, &mut tasks);
        tasks.get_mut(a).pd.vruntime = 10_000;
        p.task_enqueue(&mut tasks, a, Some(0), EnqueueFlags::Preempted, Nanos::ZERO);
        p.task_dequeue(&mut tasks, 0, Nanos::ZERO);
        assert_eq!(p.rqs[0].min_vruntime, 10_000);
        // A later dequeue of a smaller vruntime cannot lower the floor.
        let b = mk(&mut p, &mut tasks);
        tasks.get_mut(b).pd.vruntime = 3_000;
        p.task_enqueue(&mut tasks, b, Some(0), EnqueueFlags::Preempted, Nanos::ZERO);
        p.task_dequeue(&mut tasks, 0, Nanos::ZERO);
        assert_eq!(p.rqs[0].min_vruntime, 10_000);
    }

    #[test]
    fn sleeper_gets_bounded_credit() {
        let (mut p, mut tasks) = setup(1);
        p.rqs[0].min_vruntime = 1_000_000;
        let a = mk(&mut p, &mut tasks);
        p.task_enqueue(&mut tasks, a, Some(0), EnqueueFlags::Wakeup, Nanos::ZERO);
        let vr = tasks.get(a).pd.vruntime;
        // Credit = half the 50 us latency target.
        assert_eq!(vr, 1_000_000 - 25_000);
    }

    #[test]
    fn tick_accounts_weighted_vruntime() {
        let (mut p, mut tasks) = setup(1);
        let cur = mk(&mut p, &mut tasks);
        let other = mk(&mut p, &mut tasks);
        tasks.get_mut(other).pd.vruntime = u64::MAX / 2; // far behind queue head? no: far ahead
        p.task_enqueue(
            &mut tasks,
            other,
            Some(0),
            EnqueueFlags::Preempted,
            Nanos::ZERO,
        );
        // Nice-0 task: vruntime advances 1:1 with wall time.
        p.sched_timer_tick(&mut tasks, 0, cur, Nanos(10_000), Nanos(10_000));
        assert_eq!(tasks.get(cur).pd.vruntime, 10_000);
        // Heavier task (weight 2048) advances at half rate.
        let heavy = mk(&mut p, &mut tasks);
        tasks.get_mut(heavy).pd.weight = 2048;
        p.sched_timer_tick(&mut tasks, 0, heavy, Nanos(10_000), Nanos(10_000));
        assert_eq!(tasks.get(heavy).pd.vruntime, 5_000);
    }

    #[test]
    fn slice_expiry_preempts_when_behind() {
        let (mut p, mut tasks) = setup(1);
        let cur = mk(&mut p, &mut tasks);
        let waiter = mk(&mut p, &mut tasks);
        p.task_enqueue(&mut tasks, waiter, Some(0), EnqueueFlags::New, Nanos::ZERO);
        // Two runnable: slice = max(50us/2, 12.5us) = 25 us.
        assert!(!p.sched_timer_tick(&mut tasks, 0, cur, Nanos(10_000), Nanos(10_000)));
        assert!(p.sched_timer_tick(&mut tasks, 0, cur, Nanos(26_000), Nanos(26_000)));
    }

    #[test]
    fn wakeup_preemption_respects_granularity() {
        let (mut p, mut tasks) = setup(1);
        let cur = mk(&mut p, &mut tasks);
        let woken = mk(&mut p, &mut tasks);
        tasks.get_mut(cur).pd.vruntime = 100_000;
        tasks.get_mut(woken).pd.vruntime = 80_000;
        // 20 us behind < the 25 us wakeup granularity: no preemption.
        assert!(!p.check_wakeup_preempt(&tasks, woken, 0, cur, Nanos::ZERO, Nanos::ZERO));
        tasks.get_mut(woken).pd.vruntime = 50_000;
        assert!(p.check_wakeup_preempt(&tasks, woken, 0, cur, Nanos::ZERO, Nanos::ZERO));
    }

    #[test]
    fn balance_renormalizes_vruntime() {
        let (mut p, mut tasks) = setup(2);
        let a = mk(&mut p, &mut tasks);
        tasks.get_mut(a).pd.vruntime = 50;
        p.task_enqueue(&mut tasks, a, Some(0), EnqueueFlags::Preempted, Nanos::ZERO);
        p.rqs[1].min_vruntime = 9_999;
        let stolen = p.sched_balance(&mut tasks, 1, Nanos::ZERO).unwrap();
        assert_eq!(stolen, a);
        assert_eq!(tasks.get(a).pd.vruntime, 9_999);
    }

    #[test]
    fn sparse_core_list_uses_dense_runqueues() {
        let mut p = Cfs::new(SchedParams::SKYLOFT_CFS);
        p.sched_init(&SchedEnv {
            worker_cores: vec![5, 40],
            dispatcher: None,
        });
        assert_eq!(p.rqs.len(), 2, "no dead queues for core-id holes");
        let mut tasks = TaskTable::new();
        let a = tasks.insert(|id| Task::bare(id, 0));
        p.task_init(&mut tasks, a, Nanos::ZERO);
        p.task_enqueue(&mut tasks, a, Some(40), EnqueueFlags::New, Nanos::ZERO);
        assert_eq!(p.queue_len(), Some(1));
        assert_eq!(p.task_dequeue(&mut tasks, 40, Nanos::ZERO), Some(a));
        assert_eq!(p.queue_len(), Some(0));
    }
}
