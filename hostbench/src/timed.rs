//! `TimedPolicy`: a forwarding [`Policy`] wrapper for the traced pass.
//!
//! It forwards *every* trait method to the wrapped policy — the batch
//! overrides and the `queue_delay`/`queue_len` probes included — so the
//! wrapped policy runs exactly the code it runs unwrapped. A method left
//! to its trait default here would silently turn one batched call into a
//! loop of single calls and shift cost between layers; the forwarding
//! test at the bottom of this file pins that down.
//!
//! The twelve Table 2 operations are timed and counted into a shared
//! [`Profile`]; the cheap accessors (`name`, `kind`, `quantum`, the
//! probes) and `sched_init` are forwarded untimed, so their host time
//! stays with the caller's span.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use skyloft::ops::{CoreId, EnqueueFlags, Policy, PolicyKind, SchedEnv};
use skyloft::task::{TaskId, TaskTable};
use skyloft_sim::Nanos;

use crate::alloc;

/// The timed policy operations, in report order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Enqueue,
    Dequeue,
    EnqueueBatch,
    PickBatch,
    Wakeup,
    Block,
    Tick,
    Balance,
    Poll,
    WakeupPreempt,
    Init,
    Terminate,
}

impl Op {
    /// Every operation, indexed by `op as usize`.
    pub const ALL: [Op; 12] = [
        Op::Enqueue,
        Op::Dequeue,
        Op::EnqueueBatch,
        Op::PickBatch,
        Op::Wakeup,
        Op::Block,
        Op::Tick,
        Op::Balance,
        Op::Poll,
        Op::WakeupPreempt,
        Op::Init,
        Op::Terminate,
    ];

    /// The metric name fragment (`policy.<name>_per_req`).
    pub fn name(self) -> &'static str {
        match self {
            Op::Enqueue => "enqueue",
            Op::Dequeue => "dequeue",
            Op::EnqueueBatch => "enqueue_batch",
            Op::PickBatch => "pick_batch",
            Op::Wakeup => "wakeup",
            Op::Block => "block",
            Op::Tick => "tick",
            Op::Balance => "balance",
            Op::Poll => "poll",
            Op::WakeupPreempt => "wakeup_preempt",
            Op::Init => "init",
            Op::Terminate => "terminate",
        }
    }
}

/// Per-operation counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct OpStat {
    /// Calls made.
    pub calls: u64,
    /// Host ns spent inside the wrapped policy.
    pub ns: u64,
    /// Heap allocations made inside the wrapped policy.
    pub allocs: u64,
    /// Useful outcomes: a task returned (`dequeue`, `balance`), tasks
    /// placed or picked (`poll`, `pick_batch`), or `true` returned
    /// (`tick`, `wakeup_preempt`).
    pub hits: u64,
}

/// What the traced pass reads back after the run.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// Indexed by `Op as usize`.
    pub ops: [OpStat; 12],
    /// Sum of `ops[..].ns`: the parent span subtracts its change to get
    /// its self time.
    pub ns: u64,
    /// Sum of `ops[..].allocs`.
    pub allocs: u64,
}

impl Profile {
    /// Counters of one operation.
    pub fn op(&self, op: Op) -> &OpStat {
        &self.ops[op as usize]
    }
}

/// Handle shared between the wrapper (owned by the machine) and the
/// benchmark that reads it.
pub type SharedProfile = Rc<RefCell<Profile>>;

/// The forwarding, timing wrapper.
pub struct TimedPolicy {
    inner: Box<dyn Policy>,
    prof: SharedProfile,
}

impl TimedPolicy {
    /// Wraps `inner`; counters accumulate into `prof`.
    pub fn new(inner: Box<dyn Policy>, prof: SharedProfile) -> Self {
        TimedPolicy { inner, prof }
    }

    /// Runs `f` on the wrapped policy as one timed call of `op`; `hits`
    /// reads the useful-outcome count off the result.
    #[inline]
    fn timed<R>(
        &mut self,
        op: Op,
        f: impl FnOnce(&mut dyn Policy) -> R,
        hits: impl FnOnce(&R) -> u64,
    ) -> R {
        let a0 = alloc::count();
        let t0 = Instant::now();
        let r = f(&mut *self.inner);
        let ns = t0.elapsed().as_nanos() as u64;
        let allocs = alloc::count() - a0;
        let mut p = self.prof.borrow_mut();
        let s = &mut p.ops[op as usize];
        s.calls += 1;
        s.ns += ns;
        s.allocs += allocs;
        s.hits += hits(&r);
        p.ns += ns;
        p.allocs += allocs;
        r
    }
}

impl Policy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn kind(&self) -> PolicyKind {
        self.inner.kind()
    }

    fn sched_init(&mut self, env: &SchedEnv) {
        self.inner.sched_init(env);
    }

    fn task_init(&mut self, tasks: &mut TaskTable, t: TaskId, now: Nanos) {
        self.timed(Op::Init, |p| p.task_init(tasks, t, now), |_| 0);
    }

    fn task_terminate(&mut self, tasks: &mut TaskTable, t: TaskId, now: Nanos) {
        self.timed(Op::Terminate, |p| p.task_terminate(tasks, t, now), |_| 0);
    }

    fn task_enqueue(
        &mut self,
        tasks: &mut TaskTable,
        t: TaskId,
        cpu_hint: Option<CoreId>,
        flags: EnqueueFlags,
        now: Nanos,
    ) {
        self.timed(
            Op::Enqueue,
            |p| p.task_enqueue(tasks, t, cpu_hint, flags, now),
            |_| 0,
        );
    }

    fn task_dequeue(&mut self, tasks: &mut TaskTable, cpu: CoreId, now: Nanos) -> Option<TaskId> {
        self.timed(
            Op::Dequeue,
            |p| p.task_dequeue(tasks, cpu, now),
            |r| u64::from(r.is_some()),
        )
    }

    fn enqueue_batch(
        &mut self,
        tasks: &mut TaskTable,
        batch: &[(TaskId, Option<CoreId>, EnqueueFlags)],
        now: Nanos,
    ) {
        self.timed(
            Op::EnqueueBatch,
            |p| p.enqueue_batch(tasks, batch, now),
            |_| 0,
        );
    }

    fn pick_batch(
        &mut self,
        tasks: &mut TaskTable,
        cpu: CoreId,
        max: usize,
        now: Nanos,
        out: &mut Vec<TaskId>,
    ) {
        let before = out.len();
        self.timed(
            Op::PickBatch,
            |p| p.pick_batch(tasks, cpu, max, now, out),
            |_| 0,
        );
        self.prof.borrow_mut().ops[Op::PickBatch as usize].hits += (out.len() - before) as u64;
    }

    fn task_block(&mut self, tasks: &mut TaskTable, t: TaskId, cpu: CoreId, now: Nanos) {
        self.timed(Op::Block, |p| p.task_block(tasks, t, cpu, now), |_| 0);
    }

    fn task_wakeup(&mut self, tasks: &mut TaskTable, t: TaskId, hint: Option<CoreId>, now: Nanos) {
        self.timed(Op::Wakeup, |p| p.task_wakeup(tasks, t, hint, now), |_| 0);
    }

    fn sched_timer_tick(
        &mut self,
        tasks: &mut TaskTable,
        cpu: CoreId,
        current: TaskId,
        ran: Nanos,
        now: Nanos,
    ) -> bool {
        self.timed(
            Op::Tick,
            |p| p.sched_timer_tick(tasks, cpu, current, ran, now),
            |r| u64::from(*r),
        )
    }

    fn sched_balance(&mut self, tasks: &mut TaskTable, cpu: CoreId, now: Nanos) -> Option<TaskId> {
        self.timed(
            Op::Balance,
            |p| p.sched_balance(tasks, cpu, now),
            |r| u64::from(r.is_some()),
        )
    }

    fn sched_poll(
        &mut self,
        tasks: &mut TaskTable,
        idle_workers: &[CoreId],
        now: Nanos,
        out: &mut Vec<(CoreId, TaskId)>,
    ) {
        let before = out.len();
        self.timed(
            Op::Poll,
            |p| p.sched_poll(tasks, idle_workers, now, out),
            |_| 0,
        );
        self.prof.borrow_mut().ops[Op::Poll as usize].hits += (out.len() - before) as u64;
    }

    fn quantum(&self) -> Option<Nanos> {
        self.inner.quantum()
    }

    fn check_wakeup_preempt(
        &mut self,
        tasks: &TaskTable,
        woken: TaskId,
        cpu: CoreId,
        current: TaskId,
        ran: Nanos,
        now: Nanos,
    ) -> bool {
        self.timed(
            Op::WakeupPreempt,
            |p| p.check_wakeup_preempt(tasks, woken, cpu, current, ran, now),
            |r| u64::from(*r),
        )
    }

    fn queue_delay(&self, tasks: &TaskTable, now: Nanos) -> Option<Nanos> {
        self.inner.queue_delay(tasks, now)
    }

    fn queue_len(&self) -> Option<usize> {
        self.inner.queue_len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyloft::task::Task;

    /// Records every call with its arguments and answers with fixed,
    /// non-default values, so a call that fell back to a trait default
    /// (instead of reaching this policy) shows up in the log or in a
    /// return value.
    struct Recorder {
        log: Rc<RefCell<Vec<String>>>,
        tasks: Vec<TaskId>,
    }

    impl Recorder {
        fn note(&self, s: String) {
            self.log.borrow_mut().push(s);
        }
    }

    impl Policy for Recorder {
        fn name(&self) -> &'static str {
            "recorder"
        }
        fn kind(&self) -> PolicyKind {
            PolicyKind::Centralized
        }
        fn sched_init(&mut self, env: &SchedEnv) {
            self.note(format!("init {:?} {:?}", env.worker_cores, env.dispatcher));
        }
        fn task_init(&mut self, _tasks: &mut TaskTable, t: TaskId, now: Nanos) {
            self.note(format!("task_init {t:?} {now:?}"));
        }
        fn task_terminate(&mut self, _tasks: &mut TaskTable, t: TaskId, now: Nanos) {
            self.note(format!("task_terminate {t:?} {now:?}"));
        }
        fn task_enqueue(
            &mut self,
            _tasks: &mut TaskTable,
            t: TaskId,
            cpu_hint: Option<CoreId>,
            flags: EnqueueFlags,
            now: Nanos,
        ) {
            self.note(format!("enqueue {t:?} {cpu_hint:?} {flags:?} {now:?}"));
        }
        fn task_dequeue(
            &mut self,
            _tasks: &mut TaskTable,
            cpu: CoreId,
            now: Nanos,
        ) -> Option<TaskId> {
            self.note(format!("dequeue {cpu} {now:?}"));
            Some(self.tasks[1])
        }
        fn enqueue_batch(
            &mut self,
            _tasks: &mut TaskTable,
            batch: &[(TaskId, Option<CoreId>, EnqueueFlags)],
            now: Nanos,
        ) {
            self.note(format!("enqueue_batch {batch:?} {now:?}"));
        }
        fn pick_batch(
            &mut self,
            _tasks: &mut TaskTable,
            cpu: CoreId,
            max: usize,
            now: Nanos,
            out: &mut Vec<TaskId>,
        ) {
            self.note(format!("pick_batch {cpu} {max} {now:?} {out:?}"));
            out.push(self.tasks[0]);
            out.push(self.tasks[1]);
        }
        fn task_block(&mut self, _tasks: &mut TaskTable, t: TaskId, cpu: CoreId, now: Nanos) {
            self.note(format!("block {t:?} {cpu} {now:?}"));
        }
        fn task_wakeup(
            &mut self,
            _tasks: &mut TaskTable,
            t: TaskId,
            hint: Option<CoreId>,
            now: Nanos,
        ) {
            self.note(format!("wakeup {t:?} {hint:?} {now:?}"));
        }
        fn sched_timer_tick(
            &mut self,
            _tasks: &mut TaskTable,
            cpu: CoreId,
            current: TaskId,
            ran: Nanos,
            now: Nanos,
        ) -> bool {
            self.note(format!("tick {cpu} {current:?} {ran:?} {now:?}"));
            true
        }
        fn sched_balance(
            &mut self,
            _tasks: &mut TaskTable,
            cpu: CoreId,
            now: Nanos,
        ) -> Option<TaskId> {
            self.note(format!("balance {cpu} {now:?}"));
            Some(self.tasks[0])
        }
        fn sched_poll(
            &mut self,
            _tasks: &mut TaskTable,
            idle_workers: &[CoreId],
            now: Nanos,
            out: &mut Vec<(CoreId, TaskId)>,
        ) {
            self.note(format!("poll {idle_workers:?} {now:?} {out:?}"));
            out.push((idle_workers[0], self.tasks[1]));
        }
        fn quantum(&self) -> Option<Nanos> {
            Some(Nanos(30_000))
        }
        fn check_wakeup_preempt(
            &mut self,
            _tasks: &TaskTable,
            woken: TaskId,
            cpu: CoreId,
            current: TaskId,
            ran: Nanos,
            now: Nanos,
        ) -> bool {
            self.note(format!(
                "wakeup_preempt {woken:?} {cpu} {current:?} {ran:?} {now:?}"
            ));
            true
        }
        fn queue_delay(&self, _tasks: &TaskTable, now: Nanos) -> Option<Nanos> {
            self.note(format!("queue_delay {now:?}"));
            Some(Nanos(777))
        }
        fn queue_len(&self) -> Option<usize> {
            self.note("queue_len".to_string());
            Some(5)
        }
    }

    #[test]
    fn every_method_reaches_the_inner_policy_unchanged() {
        let mut tasks = TaskTable::new();
        let a = tasks.insert(|id| Task::bare(id, 0));
        let b = tasks.insert(|id| Task::bare(id, 0));
        let log = Rc::new(RefCell::new(Vec::new()));
        let prof = SharedProfile::default();
        let mut p = TimedPolicy::new(
            Box::new(Recorder {
                log: Rc::clone(&log),
                tasks: vec![a, b],
            }),
            Rc::clone(&prof),
        );
        let now = Nanos(1_234);
        let ran = Nanos(56);

        assert_eq!(p.name(), "recorder");
        assert_eq!(p.kind(), PolicyKind::Centralized);
        assert_eq!(p.quantum(), Some(Nanos(30_000)));
        p.sched_init(&SchedEnv {
            worker_cores: vec![1, 2],
            dispatcher: Some(0),
        });
        p.task_init(&mut tasks, a, now);
        p.task_terminate(&mut tasks, b, now);
        p.task_enqueue(&mut tasks, a, Some(3), EnqueueFlags::Preempted, now);
        assert_eq!(p.task_dequeue(&mut tasks, 4, now), Some(b));
        let batch = [
            (a, Some(1), EnqueueFlags::New),
            (b, None, EnqueueFlags::Yield),
        ];
        p.enqueue_batch(&mut tasks, &batch, now);
        let mut picked = vec![b];
        p.pick_batch(&mut tasks, 2, 7, now, &mut picked);
        assert_eq!(picked, vec![b, a, b]);
        p.task_block(&mut tasks, a, 5, now);
        p.task_wakeup(&mut tasks, b, Some(6), now);
        assert!(p.sched_timer_tick(&mut tasks, 7, a, ran, now));
        assert_eq!(p.sched_balance(&mut tasks, 8, now), Some(a));
        let mut placed = Vec::new();
        p.sched_poll(&mut tasks, &[9, 10], now, &mut placed);
        assert_eq!(placed, vec![(9, b)]);
        assert!(p.check_wakeup_preempt(&tasks, b, 11, a, ran, now));
        assert_eq!(p.queue_delay(&tasks, now), Some(Nanos(777)));
        assert_eq!(p.queue_len(), Some(5));

        let expected = vec![
            "init [1, 2] Some(0)".to_string(),
            format!("task_init {a:?} {now:?}"),
            format!("task_terminate {b:?} {now:?}"),
            format!("enqueue {a:?} Some(3) Preempted {now:?}"),
            format!("dequeue 4 {now:?}"),
            format!("enqueue_batch {batch:?} {now:?}"),
            format!("pick_batch 2 7 {now:?} {:?}", vec![b]),
            format!("block {a:?} 5 {now:?}"),
            format!("wakeup {b:?} Some(6) {now:?}"),
            format!("tick 7 {a:?} {ran:?} {now:?}"),
            format!("balance 8 {now:?}"),
            format!("poll [9, 10] {now:?} []"),
            format!("wakeup_preempt {b:?} 11 {a:?} {ran:?} {now:?}"),
            format!("queue_delay {now:?}"),
            "queue_len".to_string(),
        ];
        assert_eq!(*log.borrow(), expected);

        // One timed call per operation, with the useful outcomes counted.
        let prof = prof.borrow();
        for op in Op::ALL {
            assert_eq!(prof.op(op).calls, 1, "{op:?}");
        }
        let hits: Vec<u64> = Op::ALL.iter().map(|&op| prof.op(op).hits).collect();
        // enqueue, dequeue, enqueue_batch, pick_batch, wakeup, block,
        // tick, balance, poll, wakeup_preempt, init, terminate.
        assert_eq!(hits, vec![0, 1, 0, 2, 0, 0, 1, 1, 1, 1, 0, 0]);
        let total: u64 = prof.ops.iter().map(|s| s.ns).sum();
        assert_eq!(prof.ns, total);
    }
}
