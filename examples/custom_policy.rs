//! Writing a custom scheduler on Skyloft's operations (§3.4).
//!
//! ```sh
//! cargo run --release --example custom_policy
//! ```
//!
//! The paper's pitch is that the Table 2 operations make new schedulers a
//! few-hundred-line exercise. This example implements one from scratch —
//! a two-level *shortest-expected-class-first* policy: requests carry a
//! class hint (0 = interactive, 1 = batch), interactive requests always
//! dequeue first, and the timer handler preempts any batch request as
//! soon as an interactive one is waiting. The whole policy is ~60 lines;
//! everything else (timers, UINTR delegation, switching) comes from the
//! framework.

use std::collections::VecDeque;

use skyloft::machine::{AppKind, Machine, MachineConfig};
use skyloft::ops::{CoreId, EnqueueFlags, Policy, PolicyKind, SchedEnv};
use skyloft::task::{TaskId, TaskTable};
use skyloft::Platform;
use skyloft_hw::Topology;
use skyloft_sim::{EventQueue, Nanos, Rng};

/// Two priority bands with preemption of the lower band.
struct ClassFirst {
    interactive: Vec<VecDeque<TaskId>>,
    batch: Vec<VecDeque<TaskId>>,
}

impl ClassFirst {
    fn new() -> Self {
        ClassFirst {
            interactive: Vec::new(),
            batch: Vec::new(),
        }
    }
}

impl Policy for ClassFirst {
    fn name(&self) -> &'static str {
        "class-first"
    }
    fn kind(&self) -> PolicyKind {
        PolicyKind::PerCpu
    }
    fn sched_init(&mut self, env: &SchedEnv) {
        let n = env.worker_cores.iter().max().copied().unwrap_or(0) + 1;
        self.interactive = vec![VecDeque::new(); n];
        self.batch = vec![VecDeque::new(); n];
    }
    fn task_init(&mut self, _t: &mut TaskTable, _id: TaskId, _now: Nanos) {}
    fn task_terminate(&mut self, _t: &mut TaskTable, _id: TaskId, _now: Nanos) {}
    fn task_enqueue(
        &mut self,
        tasks: &mut TaskTable,
        id: TaskId,
        cpu: Option<CoreId>,
        _flags: EnqueueFlags,
        _now: Nanos,
    ) {
        let cpu = cpu.unwrap_or(0);
        // The request class rides in the shared request metadata.
        let class = tasks.get(id).req.map_or(0, |r| r.class);
        if class == 0 {
            self.interactive[cpu].push_back(id);
        } else {
            self.batch[cpu].push_back(id);
        }
    }
    fn task_dequeue(&mut self, _t: &mut TaskTable, cpu: CoreId, _now: Nanos) -> Option<TaskId> {
        self.interactive[cpu]
            .pop_front()
            .or_else(|| self.batch[cpu].pop_front())
    }
    fn sched_timer_tick(
        &mut self,
        tasks: &mut TaskTable,
        cpu: CoreId,
        current: TaskId,
        _ran: Nanos,
        _now: Nanos,
    ) -> bool {
        // Preempt batch work the moment interactive work waits.
        let cur_class = tasks.get(current).req.map_or(0, |r| r.class);
        cur_class == 1 && !self.interactive[cpu].is_empty()
    }
    fn sched_balance(&mut self, _t: &mut TaskTable, cpu: CoreId, _now: Nanos) -> Option<TaskId> {
        let n = self.interactive.len();
        (0..n)
            .filter(|&c| c != cpu)
            .find_map(|c| self.interactive[c].pop_back())
            .or_else(|| {
                (0..n)
                    .filter(|&c| c != cpu)
                    .find_map(|c| self.batch[c].pop_back())
            })
    }
}

fn main() {
    let cfg = MachineConfig {
        plat: Platform::skyloft_percpu(Topology::single(2), 100_000),
        n_workers: 2,
        seed: 1,
        core_alloc: None,
        utimer_period: None,
    };
    let mut m = Machine::new(cfg, Box::new(ClassFirst::new()));
    m.add_app("svc", AppKind::Lc);
    let mut q = EventQueue::new();
    m.start(&mut q);

    // 30% interactive 20 us requests mixed with 70% batch 1 ms requests.
    let mut rng = Rng::seed_from_u64(3);
    let mut at = Nanos::ZERO;
    for _ in 0..1_000 {
        at += Nanos(rng.next_below(150_000));
        let interactive = rng.chance(0.3);
        let (service, class) = if interactive {
            (Nanos::from_us(20), 0u8)
        } else {
            (Nanos::from_ms(1), 1u8)
        };
        q.schedule(
            at,
            skyloft::Event::Call(skyloft::Call::Fn(Box::new(move |m, q| {
                m.spawn_request(q, 0, service, class, None);
            }))),
        );
    }
    m.run(&mut q, Nanos::from_secs(2));
    let s = &m.stats;
    println!("completed            : {}", s.completed);
    println!(
        "interactive p99      : {:>9.1} us",
        s.resp_by_class[0].percentile(99.0) as f64 / 1e3
    );
    println!(
        "batch p99            : {:>9.1} us",
        s.resp_by_class[1].percentile(99.0) as f64 / 1e3
    );
    println!("preemptions          : {}", s.preemptions);
    println!();
    println!("Interactive requests hold μs-scale tails although 70% of the");
    println!("offered work is millisecond batch requests — a policy written");
    println!("in ~60 lines against the Table 2 operations.");
    assert!(s.resp_by_class[0].percentile(99.0) < 200_000);
}
