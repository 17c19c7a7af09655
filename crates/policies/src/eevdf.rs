//! Earliest Eligible Virtual Deadline First (Skyloft EEVDF, §5.1; 579 LoC
//! in Table 4).
//!
//! EEVDF (Stoica & Abdel-Wahab, 1995; Linux v6.6's CFS replacement)
//! replaces CFS's heuristics with a principled rule: among *eligible*
//! tasks — those whose vruntime is at or before the queue's weighted
//! average virtual time `V` (equivalently, whose lag is non-negative) —
//! pick the one with the earliest *virtual deadline* `vd = ve +
//! slice/weight`. A task that sleeps keeps its lag, so a woken
//! latency-sensitive task with positive lag gets a near-immediate, but
//! bounded, claim to the CPU — the mechanism behind EEVDF's lower wakeup
//! latencies in Figure 5.
//!
//! # Hot-path structure
//!
//! This implementation follows Linux's incremental scheme rather than
//! recomputing aggregates per pick:
//!
//! * `V` comes from two accumulators maintained at enqueue/dequeue —
//!   `avg_load = Σ wᵢ` and `avg_vruntime = Σ (vᵢ − min_vruntime)·wᵢ`,
//!   the latter *rebased* on `min_vruntime` so the products stay small
//!   and a signed `i128` cannot overflow even at `u64`-limit vruntimes.
//!   `V = min_vruntime + ⌊avg_vruntime / avg_load⌋`, identical to the
//!   direct `⌊Σ vᵢwᵢ / Σ wᵢ⌋` because `min_vruntime·avg_load` is a
//!   multiple of the divisor. Eligibility needs no division at all:
//!   `v ≤ V ⟺ (v − min_vruntime)·avg_load ≤ avg_vruntime`.
//! * Queued tasks sit in an [`RqTree`] keyed by `(deadline, id)` whose
//!   nodes carry the vruntime each task was queued with and the minimum
//!   of it over their subtree. Eligibility is monotone in vruntime, so
//!   one descent finds the minimum `(vd, id)` pair among eligible tasks
//!   — the reference scan's exact result, including the `TaskId`
//!   tie-break — visiting one node per level: O(log n) expected,
//!   whatever deadlines and vruntimes are queued, and no allocation.
//!   The earliest deadline is checked first in O(1): it is usually
//!   eligible.
//! * A task's `pd.rq_slot` is its node index, stable while others come
//!   and go, so dequeuing a specific task is O(log n) expected. The
//!   tree's arrival list gives `sched_balance` the newest arrival in
//!   O(1).
//!
//! Decisions are bit-identical to [`crate::reference::Eevdf`]; the
//! differential proptests in `tests/differential.rs` hold the two to
//! pick-for-pick equality.

use skyloft::ops::{CoreId, EnqueueFlags, Policy, PolicyKind, SchedEnv};
use skyloft::task::{PolicyData, TaskId, TaskTable};
use skyloft::SchedParams;
use skyloft_sim::Nanos;

use crate::cfs::NICE0_WEIGHT;
use crate::coremap::CoreMap;
use crate::rqtree::RqTree;

struct EevdfRq {
    /// Queued tasks keyed by `(virtual deadline, id)`, each node valued
    /// with the task's vruntime; `pd.rq_slot` is a task's node index.
    tree: RqTree,
    /// Monotonic floor tracking the queue's virtual time; also the base
    /// the `avg_vruntime` accumulator is rebased on.
    min_vruntime: u64,
    /// Σ weight over queued tasks.
    avg_load: u64,
    /// Σ (vruntime − min_vruntime)·weight over queued tasks. Signed:
    /// wakeup placement `V − lag` can land below the floor.
    avg_vruntime: i128,
}

impl EevdfRq {
    fn new() -> Self {
        EevdfRq {
            tree: RqTree::default(),
            min_vruntime: 0,
            avg_load: 0,
            avg_vruntime: 0,
        }
    }

    /// Weighted average virtual time `V`, from the accumulators.
    fn v(&self) -> Option<u64> {
        if self.tree.is_empty() {
            return None;
        }
        if self.avg_load == 0 {
            // Degenerate all-zero-weight queue: Σ vᵢwᵢ / max(Σwᵢ, 1) = 0.
            return Some(0);
        }
        let v = self.min_vruntime as i128 + self.avg_vruntime.div_euclid(self.avg_load as i128);
        Some(v as u64)
    }

    /// Division-free eligibility: `v ≤ V`.
    fn eligible(&self, vruntime: u64) -> bool {
        if self.avg_load == 0 {
            return Some(vruntime) <= self.v();
        }
        (vruntime as i128 - self.min_vruntime as i128) * self.avg_load as i128 <= self.avg_vruntime
    }

    /// Queues a task and folds it into the accumulators.
    fn attach(&mut self, t: TaskId, pd: &mut PolicyData) {
        pd.rq_slot = self.tree.insert((pd.deadline, t), pd.vruntime);
        self.avg_vruntime += (pd.vruntime as i128 - self.min_vruntime as i128) * pd.weight as i128;
        self.avg_load += pd.weight as u64;
    }

    /// Dequeues a task and subtracts it from the accumulators. `pd` must
    /// be the exact values it was attached with: the tree's key and
    /// subtree minima, and the accumulators, were built from them.
    fn detach(&mut self, t: TaskId, pd: &PolicyData) {
        debug_assert_eq!(
            (self.tree.key(pd.rq_slot), self.tree.val(pd.rq_slot)),
            ((pd.deadline, t), pd.vruntime),
            "queued task's deadline or vruntime changed while queued"
        );
        self.tree.remove(pd.rq_slot);
        self.avg_vruntime -= (pd.vruntime as i128 - self.min_vruntime as i128) * pd.weight as i128;
        self.avg_load -= pd.weight as u64;
    }

    /// Raises the floor to `candidate` (if higher) and rebases the
    /// accumulator: Σ(vᵢ − m₁)wᵢ = Σ(vᵢ − m₀)wᵢ − (m₁ − m₀)·Σwᵢ.
    fn update_min(&mut self, candidate: u64) {
        let new_min = self.min_vruntime.max(candidate);
        if new_min != self.min_vruntime {
            self.avg_vruntime -= (new_min - self.min_vruntime) as i128 * self.avg_load as i128;
            self.min_vruntime = new_min;
        }
    }

    /// The most recently enqueued task (balance's steal victim).
    fn newest(&self) -> Option<TaskId> {
        self.tree.newest().map(|n| self.tree.key(n).1)
    }

    /// EEVDF pick: the earliest virtual deadline among eligible tasks.
    fn pick(&self) -> Option<TaskId> {
        let n = self.tree.first_where(|v| self.eligible(v));
        // The weighted average guarantees at least one eligible task.
        debug_assert!(
            n.is_some() || self.tree.is_empty(),
            "no eligible task despite non-empty queue"
        );
        n.map(|n| self.tree.key(n).1)
    }
}

/// EEVDF policy state.
pub struct Eevdf {
    rqs: Vec<EevdfRq>,
    map: CoreMap,
    cores: Vec<CoreId>,
    params: SchedParams,
}

impl Eevdf {
    /// Creates the policy; `params.min_granularity` is the base slice.
    pub fn new(params: SchedParams) -> Self {
        Eevdf {
            rqs: Vec::new(),
            map: CoreMap::default(),
            cores: Vec::new(),
            params,
        }
    }

    /// Weighted average virtual time `V` of the tasks queued on `cpu`,
    /// read from the incremental accumulators in O(1). The task table is
    /// unused (the direct-summation oracle needs it; the shared signature
    /// keeps the two interchangeable in differential tests).
    pub fn avg_vruntime(&self, _tasks: &TaskTable, cpu: CoreId) -> Option<u64> {
        self.rqs[self.map.rq(cpu)].v()
    }

    /// Virtual deadline of a task: `ve + base_slice * 1024/weight`.
    fn deadline(&self, vruntime: u64, weight: u32) -> u64 {
        vruntime + self.params.min_granularity.0 * NICE0_WEIGHT / weight.max(1) as u64
    }

    /// Total queued tasks across all cores.
    pub fn total_queued(&self) -> usize {
        self.rqs.iter().map(|r| r.tree.len()).sum()
    }
}

impl Policy for Eevdf {
    fn name(&self) -> &'static str {
        "skyloft-eevdf"
    }

    fn kind(&self) -> PolicyKind {
        PolicyKind::PerCpu
    }

    fn sched_init(&mut self, env: &SchedEnv) {
        self.map = CoreMap::new(&env.worker_cores);
        self.rqs = (0..self.map.len()).map(|_| EevdfRq::new()).collect();
        self.cores = env.worker_cores.clone();
    }

    fn task_init(&mut self, tasks: &mut TaskTable, t: TaskId, _now: Nanos) {
        let task = tasks.get_mut(t);
        task.pd.vruntime = 0;
        task.pd.lag = 0;
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
        let cpu = cpu.unwrap_or(self.cores[0]);
        let rqi = self.map.rq(cpu);
        let v = self.rqs[rqi].v().unwrap_or(self.rqs[rqi].min_vruntime);
        let task = tasks.get_mut(t);
        match flags {
            EnqueueFlags::New => {
                // New tasks join with zero lag.
                task.pd.vruntime = v;
            }
            EnqueueFlags::Wakeup => {
                // place_entity: re-enter at V minus the preserved lag,
                // so sleeping neither gains nor loses service.
                let lag = task.pd.lag.clamp(
                    -(self.params.min_granularity.0 as i64),
                    self.params.min_granularity.0 as i64,
                );
                task.pd.vruntime = (v as i128 - lag as i128).max(0) as u64;
            }
            EnqueueFlags::Preempted | EnqueueFlags::Yield => {
                // Keep vruntime: the deadline carries over.
            }
        }
        task.pd.deadline = self.deadline(task.pd.vruntime, task.pd.weight);
        self.rqs[rqi].attach(t, &mut task.pd);
    }

    fn task_dequeue(&mut self, tasks: &mut TaskTable, cpu: CoreId, _now: Nanos) -> Option<TaskId> {
        let rqi = self.map.rq(cpu);
        let t = self.rqs[rqi].pick()?;
        let pd = tasks.get(t).pd;
        self.rqs[rqi].detach(t, &pd);
        self.rqs[rqi].update_min(pd.vruntime);
        tasks.get_mut(t).pd.slice_used = Nanos::ZERO;
        Some(t)
    }

    fn enqueue_batch(
        &mut self,
        tasks: &mut TaskTable,
        batch: &[(TaskId, Option<CoreId>, EnqueueFlags)],
        now: Nanos,
    ) {
        // The fused path needs the whole burst on one runqueue; mixed-hint
        // bursts (rare) fall back to the serial loop.
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
        // One aggregate update per batch: the accumulators live in locals
        // across the burst and are stored back once. Each task still sees
        // the V produced by its predecessors (same math as the serial
        // loop, minus the per-task field round-trips).
        let base_slice = self.params.min_granularity.0;
        let lag_clamp = self.params.min_granularity.0 as i64;
        let rq = &mut self.rqs[rqi];
        let min = rq.min_vruntime;
        let mut load = rq.avg_load;
        let mut avg = rq.avg_vruntime;
        for &(t, _, flags) in batch {
            let v = if rq.tree.is_empty() {
                min
            } else if load == 0 {
                0
            } else {
                (min as i128 + avg.div_euclid(load as i128)) as u64
            };
            let task = tasks.get_mut(t);
            match flags {
                EnqueueFlags::New => {
                    task.pd.vruntime = v;
                }
                EnqueueFlags::Wakeup => {
                    let lag = task.pd.lag.clamp(-lag_clamp, lag_clamp);
                    task.pd.vruntime = (v as i128 - lag as i128).max(0) as u64;
                }
                EnqueueFlags::Preempted | EnqueueFlags::Yield => {}
            }
            task.pd.deadline =
                task.pd.vruntime + base_slice * NICE0_WEIGHT / task.pd.weight.max(1) as u64;
            task.pd.rq_slot = rq.tree.insert((task.pd.deadline, t), task.pd.vruntime);
            avg += (task.pd.vruntime as i128 - min as i128) * task.pd.weight as i128;
            load += task.pd.weight as u64;
        }
        rq.avg_load = load;
        rq.avg_vruntime = avg;
    }

    fn pick_batch(
        &mut self,
        tasks: &mut TaskTable,
        cpu: CoreId,
        max: usize,
        _now: Nanos,
        out: &mut Vec<TaskId>,
    ) {
        // The serial dequeue rebases `min_vruntime` after every pick; the
        // eligibility test and V are exactly invariant under that rebase
        // (both sides shift by Δ·load), so one rebase to the max picked
        // vruntime after the batch yields the identical pick sequence.
        let rq = &mut self.rqs[self.map.rq(cpu)];
        let mut floor = rq.min_vruntime;
        for _ in 0..max {
            let Some(t) = rq.pick() else {
                break;
            };
            let pd = tasks.get(t).pd;
            rq.detach(t, &pd);
            floor = floor.max(pd.vruntime);
            tasks.get_mut(t).pd.slice_used = Nanos::ZERO;
            out.push(t);
        }
        rq.update_min(floor);
    }

    fn task_block(&mut self, tasks: &mut TaskTable, t: TaskId, cpu: CoreId, _now: Nanos) {
        // Preserve the task's lag across the sleep.
        let rq = &self.rqs[self.map.rq(cpu)];
        let v = rq.v().unwrap_or(rq.min_vruntime);
        let task = tasks.get_mut(t);
        task.pd.lag = v as i64 - task.pd.vruntime as i64;
    }

    fn sched_timer_tick(
        &mut self,
        tasks: &mut TaskTable,
        cpu: CoreId,
        current: TaskId,
        ran: Nanos,
        _now: Nanos,
    ) -> bool {
        let slice_done = {
            let task = tasks.get_mut(current);
            let delta = ran.saturating_sub(task.pd.slice_used);
            task.pd.slice_used = ran;
            task.pd.vruntime += delta.0 * NICE0_WEIGHT / task.pd.weight.max(1) as u64;
            ran >= self.params.min_granularity
        };
        // Once the current request (base slice) is fulfilled, the task
        // would issue a new request with a later deadline; if any waiter is
        // queued, the eligible-earliest-deadline pick goes to the queue.
        slice_done && !self.rqs[self.map.rq(cpu)].tree.is_empty()
    }

    fn check_wakeup_preempt(
        &mut self,
        tasks: &TaskTable,
        woken: TaskId,
        cpu: CoreId,
        current: TaskId,
        _ran: Nanos,
        _now: Nanos,
    ) -> bool {
        // Preempt if the woken task is eligible with an earlier deadline.
        let Some(v) = self.rqs[self.map.rq(cpu)].v() else {
            return false;
        };
        let w = &tasks.get(woken).pd;
        w.vruntime <= v && w.deadline < tasks.get(current).pd.deadline
    }

    fn sched_balance(&mut self, tasks: &mut TaskTable, cpu: CoreId, _now: Nanos) -> Option<TaskId> {
        let victim = self
            .cores
            .iter()
            .copied()
            .filter(|&c| c != cpu)
            .max_by_key(|&c| self.rqs[self.map.rq(c)].tree.len())?;
        let vi = self.map.rq(victim);
        let t = self.rqs[vi].newest()?;
        let pd = tasks.get(t).pd;
        self.rqs[vi].detach(t, &pd);
        let rq_min = self.rqs[self.map.rq(cpu)].min_vruntime;
        let task = tasks.get_mut(t);
        task.pd.vruntime = task.pd.vruntime.max(rq_min);
        task.pd.deadline = self.deadline(task.pd.vruntime, task.pd.weight);
        task.pd.slice_used = Nanos::ZERO;
        Some(t)
    }

    fn queue_delay(&self, tasks: &TaskTable, now: Nanos) -> Option<Nanos> {
        // Contract (`Policy::queue_delay`): sojourn of the oldest waiting
        // task across all runqueues, by `runnable_since`, which nothing
        // here orders by, so it takes a scan.
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

    fn setup(n: usize) -> (Eevdf, TaskTable) {
        let mut p = Eevdf::new(SchedParams::SKYLOFT_EEVDF);
        p.sched_init(&SchedEnv {
            worker_cores: (0..n).collect(),
            dispatcher: None,
        });
        (p, TaskTable::new())
    }

    fn mk(p: &mut Eevdf, tasks: &mut TaskTable) -> TaskId {
        let t = tasks.insert(|id| Task::bare(id, 0));
        p.task_init(tasks, t, Nanos::ZERO);
        t
    }

    #[test]
    fn picks_eligible_earliest_deadline() {
        let (mut p, mut tasks) = setup(1);
        let a = mk(&mut p, &mut tasks);
        let b = mk(&mut p, &mut tasks);
        let c = mk(&mut p, &mut tasks);
        // b is far ahead in vruntime with a huge weight, which drags V just
        // below its vruntime: b gets the earliest virtual deadline
        // (100_012) yet is ineligible. Among the eligible pair, c's
        // deadline (102_500) beats a's (107_500).
        tasks.get_mut(a).pd.vruntime = 95_000;
        tasks.get_mut(b).pd.vruntime = 100_000;
        tasks.get_mut(b).pd.weight = 1_048_576;
        tasks.get_mut(c).pd.vruntime = 90_000;
        p.task_enqueue(&mut tasks, a, Some(0), EnqueueFlags::Preempted, Nanos::ZERO);
        p.task_enqueue(&mut tasks, b, Some(0), EnqueueFlags::Preempted, Nanos::ZERO);
        p.task_enqueue(&mut tasks, c, Some(0), EnqueueFlags::Preempted, Nanos::ZERO);
        assert_eq!(p.avg_vruntime(&tasks, 0), Some(99_985));
        assert_eq!(tasks.get(b).pd.deadline, 100_012);
        assert_eq!(p.task_dequeue(&mut tasks, 0, Nanos::ZERO), Some(c));
    }

    #[test]
    fn always_one_eligible() {
        let (mut p, mut tasks) = setup(1);
        // A single task with a huge vruntime is still eligible because it
        // defines V.
        let a = mk(&mut p, &mut tasks);
        tasks.get_mut(a).pd.vruntime = 10_000_000;
        p.task_enqueue(&mut tasks, a, Some(0), EnqueueFlags::Preempted, Nanos::ZERO);
        assert_eq!(p.task_dequeue(&mut tasks, 0, Nanos::ZERO), Some(a));
    }

    #[test]
    fn lag_preserved_across_sleep() {
        let (mut p, mut tasks) = setup(1);
        let sleeper = mk(&mut p, &mut tasks);
        let other = mk(&mut p, &mut tasks);
        tasks.get_mut(other).pd.vruntime = 100_000;
        p.task_enqueue(
            &mut tasks,
            other,
            Some(0),
            EnqueueFlags::Preempted,
            Nanos::ZERO,
        );
        // The sleeper is behind (vruntime 40_000 < V=100_000): positive lag.
        tasks.get_mut(sleeper).pd.vruntime = 40_000;
        p.task_block(&mut tasks, sleeper, 0, Nanos::ZERO);
        let lag = tasks.get(sleeper).pd.lag;
        assert_eq!(lag, 60_000);
        // On wakeup the lag is honored but clamped to one base slice.
        p.task_enqueue(
            &mut tasks,
            sleeper,
            Some(0),
            EnqueueFlags::Wakeup,
            Nanos::ZERO,
        );
        let vr = tasks.get(sleeper).pd.vruntime;
        assert_eq!(vr, 100_000 - 12_500);
    }

    #[test]
    fn tick_preempts_after_base_slice_with_earlier_deadline() {
        let (mut p, mut tasks) = setup(1);
        let cur = mk(&mut p, &mut tasks);
        tasks.get_mut(cur).pd.deadline = 50_000;
        let w = mk(&mut p, &mut tasks);
        p.task_enqueue(&mut tasks, w, Some(0), EnqueueFlags::New, Nanos::ZERO);
        // Before the base slice (12.5 us): never preempt.
        assert!(!p.sched_timer_tick(&mut tasks, 0, cur, Nanos(10_000), Nanos(10_000)));
        // After the base slice: preempt (waiter deadline <= current's).
        assert!(p.sched_timer_tick(&mut tasks, 0, cur, Nanos(13_000), Nanos(13_000)));
    }

    #[test]
    fn wakeup_preempt_needs_eligibility_and_deadline() {
        let (mut p, mut tasks) = setup(1);
        let cur = mk(&mut p, &mut tasks);
        tasks.get_mut(cur).pd.deadline = 100_000;
        let w = mk(&mut p, &mut tasks);
        p.task_enqueue(&mut tasks, w, Some(0), EnqueueFlags::Wakeup, Nanos::ZERO);
        // Woken at V with deadline V + base_slice: earlier than current's.
        assert!(p.check_wakeup_preempt(&tasks, w, 0, cur, Nanos::ZERO, Nanos::ZERO));
        tasks.get_mut(cur).pd.deadline = 1;
        assert!(!p.check_wakeup_preempt(&tasks, w, 0, cur, Nanos::ZERO, Nanos::ZERO));
    }

    #[test]
    fn weighted_average_is_exact() {
        let (mut p, mut tasks) = setup(1);
        let a = mk(&mut p, &mut tasks);
        let b = mk(&mut p, &mut tasks);
        tasks.get_mut(a).pd.vruntime = 1_000;
        tasks.get_mut(a).pd.weight = 1024;
        tasks.get_mut(b).pd.vruntime = 3_000;
        tasks.get_mut(b).pd.weight = 3072;
        p.task_enqueue(&mut tasks, a, Some(0), EnqueueFlags::Preempted, Nanos::ZERO);
        p.task_enqueue(&mut tasks, b, Some(0), EnqueueFlags::Preempted, Nanos::ZERO);
        // V = (1000*1024 + 3000*3072) / 4096 = 2500.
        assert_eq!(p.avg_vruntime(&tasks, 0), Some(2_500));
    }

    #[test]
    fn accumulators_match_direct_sum_after_churn() {
        let (mut p, mut tasks) = setup(1);
        let mut queued = Vec::new();
        for i in 0..10u64 {
            let t = mk(&mut p, &mut tasks);
            tasks.get_mut(t).pd.vruntime = i * 1_000;
            tasks.get_mut(t).pd.weight = 1024 + (i as u32) * 512;
            p.task_enqueue(&mut tasks, t, Some(0), EnqueueFlags::Preempted, Nanos::ZERO);
            queued.push(t);
        }
        for _ in 0..4 {
            let t = p.task_dequeue(&mut tasks, 0, Nanos::ZERO).unwrap();
            queued.retain(|&x| x != t);
        }
        // The incremental V must equal the direct weighted average of the
        // survivors, with the same truncating division as the oracle.
        let mut num: u128 = 0;
        let mut den: u128 = 0;
        for &t in &queued {
            let pd = &tasks.get(t).pd;
            num += pd.vruntime as u128 * pd.weight as u128;
            den += pd.weight as u128;
        }
        assert_eq!(p.avg_vruntime(&tasks, 0), Some((num / den) as u64));
    }

    #[test]
    fn rebased_accumulators_survive_u64_limit_vruntimes() {
        let (mut p, mut tasks) = setup(1);
        let a = mk(&mut p, &mut tasks);
        let b = mk(&mut p, &mut tasks);
        tasks.get_mut(a).pd.vruntime = u64::MAX - 100_000;
        tasks.get_mut(b).pd.vruntime = u64::MAX - 300_000;
        p.task_enqueue(&mut tasks, a, Some(0), EnqueueFlags::Preempted, Nanos::ZERO);
        p.task_enqueue(&mut tasks, b, Some(0), EnqueueFlags::Preempted, Nanos::ZERO);
        assert_eq!(p.avg_vruntime(&tasks, 0), Some(u64::MAX - 200_000));
        // a is ahead of V (ineligible); b must be picked despite a key
        // far above the queue's floor.
        assert_eq!(p.task_dequeue(&mut tasks, 0, Nanos::ZERO), Some(b));
        // After the floor jumps to b's vruntime the lone survivor still
        // averages exactly.
        assert_eq!(p.avg_vruntime(&tasks, 0), Some(u64::MAX - 100_000));
    }

    #[test]
    fn balance_steals_newest_from_longest_queue() {
        let (mut p, mut tasks) = setup(2);
        let mut ids = Vec::new();
        for i in 0..3u64 {
            let t = mk(&mut p, &mut tasks);
            tasks.get_mut(t).pd.vruntime = 10_000 + i;
            p.task_enqueue(&mut tasks, t, Some(1), EnqueueFlags::Preempted, Nanos::ZERO);
            ids.push(t);
        }
        // Core 0 is empty: it steals the most recent arrival on core 1.
        assert_eq!(p.sched_balance(&mut tasks, 0, Nanos::ZERO), Some(ids[2]));
        assert_eq!(p.total_queued(), 2);
    }

    #[test]
    fn adversarial_pick_visits_logarithmically_many_nodes() {
        // Half the queue is ineligible with the earliest deadlines: heavy
        // tasks ahead of V (a huge weight puts the deadline 12 ns past the
        // vruntime) and light ones behind it. A walk in deadline order
        // would pass all 32 768 heavy tasks before the first eligible one.
        const N: usize = 65_536;
        let (mut p, mut tasks) = setup(1);
        let mut lights = Vec::new();
        for i in 0..N {
            let t = mk(&mut p, &mut tasks);
            let pd = &mut tasks.get_mut(t).pd;
            if i % 2 == 0 {
                pd.vruntime = 100_000;
                pd.weight = 1 << 20;
            } else {
                pd.vruntime = 90_000 + (i as u64 / 2) % 1000;
                lights.push(t);
            }
            p.task_enqueue(&mut tasks, t, Some(0), EnqueueFlags::Preempted, Nanos::ZERO);
        }
        let v = p.avg_vruntime(&tasks, 0).unwrap();
        assert!((90_999..100_000).contains(&v), "V = {v}");
        let rq = &p.rqs[0];
        let (hit, visits) = rq.tree.descend(|vr| rq.eligible(vr));
        let bound = 2 * (N as f64).log2().ceil() as usize + 2;
        assert!(visits <= bound, "{visits} visits, bound {bound}");
        // The earliest light deadline (90 000 + 12 500) is shared by every
        // 1000th light task; the id breaks the tie.
        assert_eq!(hit.map(|n| rq.tree.key(n)), Some((102_500, lights[0])));
        assert_eq!(p.task_dequeue(&mut tasks, 0, Nanos::ZERO), Some(lights[0]));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "changed while queued")]
    fn a_queued_task_must_keep_its_vruntime() {
        let (mut p, mut tasks) = setup(1);
        let a = mk(&mut p, &mut tasks);
        p.task_enqueue(&mut tasks, a, Some(0), EnqueueFlags::New, Nanos::ZERO);
        tasks.get_mut(a).pd.vruntime += 1;
        p.task_dequeue(&mut tasks, 0, Nanos::ZERO);
    }

    #[test]
    fn node_reuse_keeps_picks_and_balance_consistent() {
        let (mut p, mut tasks) = setup(2);
        // Interleave enqueue/dequeue churn on core 0 so tree nodes are
        // freed and reused, then verify structural integrity by draining
        // everything in both directions.
        let mut live = Vec::new();
        for round in 0..6u64 {
            for i in 0..4u64 {
                let t = mk(&mut p, &mut tasks);
                tasks.get_mut(t).pd.vruntime = round * 100 + i;
                p.task_enqueue(&mut tasks, t, Some(0), EnqueueFlags::Preempted, Nanos::ZERO);
                live.push(t);
            }
            for _ in 0..3 {
                let t = p.task_dequeue(&mut tasks, 0, Nanos::ZERO).unwrap();
                live.retain(|&x| x != t);
            }
        }
        assert_eq!(p.total_queued(), live.len());
        // Drain half by stealing (newest-first), half by picking.
        for _ in 0..3 {
            let t = p.sched_balance(&mut tasks, 1, Nanos::ZERO).unwrap();
            assert_eq!(t, *live.last().unwrap());
            live.pop();
        }
        while let Some(t) = p.task_dequeue(&mut tasks, 0, Nanos::ZERO) {
            live.retain(|&x| x != t);
        }
        assert!(live.is_empty());
        assert_eq!(p.total_queued(), 0);
    }
}
