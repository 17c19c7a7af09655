//! Differential suite: the optimized policy implementations against the
//! frozen pre-optimization oracles in `skyloft_policies::reference`
//! (DESIGN.md §14).
//!
//! Each test drives two copies of the same policy — the optimized one via
//! its module path (module paths always name the optimized versions) and
//! the reference one — through an identical randomized trace of
//! enqueue/dequeue/tick/block/wakeup/balance/poll/terminate operations on
//! mirrored task tables, asserting *exact* decision equality at every
//! step: same picks (including `(vd, TaskId)` tie-breaks), same preempt
//! verdicts, same steal choices, same queue telemetry. This is what lets
//! the incremental EEVDF accumulators, the indexed runqueues, and the
//! compact core→rq map ship without moving a single golden.

use std::collections::HashMap;

use proptest::prelude::*;

use skyloft::ops::{CoreId, EnqueueFlags, Policy, SchedEnv};
use skyloft::task::{Task, TaskId, TaskTable};
use skyloft::SchedParams;
use skyloft_policies::{cfs, eevdf, reference, rr, shinjuku, shinjuku_shenango, work_stealing};
use skyloft_sim::Nanos;

/// Nice-level spread: nice 0, lighter, heavier, and the heaviest weight in
/// Linux's `sched_prio_to_weight` table (nice -20) to stress the weighted
/// accumulator math.
const WEIGHTS: [u32; 4] = [1024, 423, 2048, 88761];

/// Builds the (optimized, oracle) pair for a policy selector.
fn pair(which: u8) -> (Box<dyn Policy>, Box<dyn Policy>) {
    let q = Some(Nanos::from_us(20));
    match which % 6 {
        0 => (
            Box::new(eevdf::Eevdf::new(SchedParams::SKYLOFT_EEVDF)) as Box<dyn Policy>,
            Box::new(reference::Eevdf::new(SchedParams::SKYLOFT_EEVDF)) as Box<dyn Policy>,
        ),
        1 => (
            Box::new(cfs::Cfs::new(SchedParams::SKYLOFT_CFS)),
            Box::new(reference::Cfs::new(SchedParams::SKYLOFT_CFS)),
        ),
        2 => (
            Box::new(rr::RoundRobin::new(q)),
            Box::new(reference::RoundRobin::new(q)),
        ),
        3 => (
            Box::new(work_stealing::WorkStealing::new(q)),
            Box::new(reference::WorkStealing::new(q)),
        ),
        4 => (
            Box::new(shinjuku::Shinjuku::new(q)),
            Box::new(reference::Shinjuku::new(q)),
        ),
        _ => (
            Box::new(shinjuku_shenango::ShinjukuShenango::new(q)),
            Box::new(reference::ShinjukuShenango::new(q)),
        ),
    }
}

/// Worker-core layouts, including sparse two-socket-style id spreads (the
/// compact core→rq map must behave exactly like the old dense vectors).
fn core_set(sel: u8) -> Vec<CoreId> {
    match sel % 4 {
        0 => vec![0, 1, 2, 3],
        1 => vec![0, 1],
        2 => vec![3, 47],
        _ => vec![5, 6, 40, 63],
    }
}

/// Drives one `(op, sel, amt)` trace through both policies, asserting
/// decision equality after every step, then drains both to empty and
/// asserts the drain sequences match pick for pick. With `prefill`, each
/// core's runqueue first gets that many requeued tasks of mixed weights
/// and clustered vruntimes, so the trace churns deep runqueues.
fn run_trace(
    which: u8,
    cores_sel: u8,
    ops: Vec<(u8, usize, u64)>,
    seed_vruntime: Option<u64>,
    prefill: Option<(usize, u64)>,
) {
    let (mut opt, mut oracle) = pair(which);
    let cores = core_set(cores_sel);
    let env = SchedEnv {
        worker_cores: cores.clone(),
        dispatcher: None,
    };
    opt.sched_init(&env);
    oracle.sched_init(&env);
    let mut ta = TaskTable::new();
    let mut tb = TaskTable::new();
    // Which task runs on each core, and since when — identical on both
    // sides by construction (every divergence would trip an assert first).
    let mut running: HashMap<CoreId, (TaskId, Nanos)> = HashMap::new();
    let mut blocked: Vec<TaskId> = Vec::new();
    let mut now = Nanos::ZERO;
    if let Some((per_core, mut seed)) = prefill {
        for i in 0..per_core * cores.len() {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = ta.insert(|id| Task::bare(id, 0));
            let b = tb.insert(|id| Task::bare(id, 0));
            prop_assert_eq!(a, b, "mirrored tables diverged on insert");
            opt.task_init(&mut ta, a, now);
            oracle.task_init(&mut tb, b, now);
            for pd in [&mut ta.get_mut(a).pd, &mut tb.get_mut(b).pd] {
                pd.weight = WEIGHTS[(seed >> 60) as usize % WEIGHTS.len()];
                // Within a few base slices of each other, so the earliest
                // deadline is often ineligible and picks take the descent.
                pd.vruntime = (seed >> 20) % 40_000;
            }
            let cpu = Some(cores[i % cores.len()]);
            opt.task_enqueue(&mut ta, a, cpu, EnqueueFlags::Preempted, now);
            oracle.task_enqueue(&mut tb, b, cpu, EnqueueFlags::Preempted, now);
        }
    }
    for (op, sel, amt) in ops {
        now += Nanos(1 + amt % 9_973);
        let cpu = cores[sel % cores.len()];
        match op % 11 {
            // Spawn a fresh task and enqueue it (two opcodes: keep the
            // population growing faster than terminate shrinks it).
            0 | 1 => {
                let a = ta.insert(|id| Task::bare(id, 0));
                let b = tb.insert(|id| Task::bare(id, 0));
                prop_assert_eq!(a, b, "mirrored tables diverged on insert");
                opt.task_init(&mut ta, a, now);
                oracle.task_init(&mut tb, b, now);
                let w = WEIGHTS[sel % WEIGHTS.len()];
                ta.get_mut(a).pd.weight = w;
                tb.get_mut(b).pd.weight = w;
                if let Some(base) = seed_vruntime {
                    let vr = base + amt % 100_000;
                    ta.get_mut(a).pd.vruntime = vr;
                    tb.get_mut(b).pd.vruntime = vr;
                    ta.get_mut(a).pd.deadline = vr + 1 + amt % 50_000;
                    tb.get_mut(b).pd.deadline = ta.get(a).pd.deadline;
                }
                // Stamp the wait anchor as the machine would (queue_delay
                // contract: sojourns are measured from `runnable_since`).
                ta.get_mut(a).runnable_since = now;
                tb.get_mut(b).runnable_since = now;
                let hint = (amt % 4 != 0).then_some(cpu);
                opt.task_enqueue(&mut ta, a, hint, EnqueueFlags::New, now);
                oracle.task_enqueue(&mut tb, b, hint, EnqueueFlags::New, now);
            }
            // Pick the next task on an idle core.
            2 => {
                if running.contains_key(&cpu) {
                    continue;
                }
                let x = opt.task_dequeue(&mut ta, cpu, now);
                let y = oracle.task_dequeue(&mut tb, cpu, now);
                prop_assert_eq!(x, y, "dequeue diverged on core {}", cpu);
                if let Some(t) = x {
                    running.insert(cpu, (t, now));
                }
            }
            // Timer tick on a busy core; requeue on preempt.
            3 => {
                let Some(&(t, since)) = running.get(&cpu) else {
                    continue;
                };
                let ran = now.saturating_sub(since);
                let x = opt.sched_timer_tick(&mut ta, cpu, t, ran, now);
                let y = oracle.sched_timer_tick(&mut tb, cpu, t, ran, now);
                prop_assert_eq!(x, y, "tick verdict diverged on core {}", cpu);
                if x {
                    running.remove(&cpu);
                    ta.get_mut(t).runnable_since = now;
                    tb.get_mut(t).runnable_since = now;
                    opt.task_enqueue(&mut ta, t, Some(cpu), EnqueueFlags::Preempted, now);
                    oracle.task_enqueue(&mut tb, t, Some(cpu), EnqueueFlags::Preempted, now);
                }
            }
            // The running task blocks (or voluntarily yields).
            4 => {
                let Some((t, _)) = running.remove(&cpu) else {
                    continue;
                };
                if amt % 3 == 0 {
                    ta.get_mut(t).runnable_since = now;
                    tb.get_mut(t).runnable_since = now;
                    opt.task_enqueue(&mut ta, t, Some(cpu), EnqueueFlags::Yield, now);
                    oracle.task_enqueue(&mut tb, t, Some(cpu), EnqueueFlags::Yield, now);
                } else {
                    opt.task_block(&mut ta, t, cpu, now);
                    oracle.task_block(&mut tb, t, cpu, now);
                    blocked.push(t);
                }
            }
            // A blocked task wakes; compare the wakeup-preempt verdict
            // against whatever runs on the hint core.
            5 => {
                if blocked.is_empty() {
                    continue;
                }
                let t = blocked.swap_remove(amt as usize % blocked.len());
                let hint = (amt % 5 != 0).then_some(cpu);
                ta.get_mut(t).runnable_since = now;
                tb.get_mut(t).runnable_since = now;
                opt.task_wakeup(&mut ta, t, hint, now);
                oracle.task_wakeup(&mut tb, t, hint, now);
                if let Some(&(cur, since)) = running.get(&cpu) {
                    let ran = now.saturating_sub(since);
                    let x = opt.check_wakeup_preempt(&ta, t, cpu, cur, ran, now);
                    let y = oracle.check_wakeup_preempt(&tb, t, cpu, cur, ran, now);
                    prop_assert_eq!(x, y, "wakeup-preempt verdict diverged");
                }
            }
            // Work stealing / load balance from an idle core.
            6 => {
                if running.contains_key(&cpu) {
                    continue;
                }
                let x = opt.sched_balance(&mut ta, cpu, now);
                let y = oracle.sched_balance(&mut tb, cpu, now);
                prop_assert_eq!(x, y, "balance diverged on core {}", cpu);
                if let Some(t) = x {
                    running.insert(cpu, (t, now));
                }
            }
            // The running task completes.
            7 => {
                let Some((t, _)) = running.remove(&cpu) else {
                    continue;
                };
                opt.task_terminate(&mut ta, t, now);
                oracle.task_terminate(&mut tb, t, now);
                ta.remove(t);
                tb.remove(t);
            }
            // Burst spawn via `enqueue_batch`: the optimized policy's fused
            // batch path (single aggregate update) against the oracle's
            // loop-of-singles default. Hints vary per task so the
            // mixed-runqueue fallback is exercised too.
            8 => {
                let n = 1 + amt as usize % 5;
                let mut batch_a = Vec::new();
                let mut batch_b = Vec::new();
                for i in 0..n {
                    let a = ta.insert(|id| Task::bare(id, 0));
                    let b = tb.insert(|id| Task::bare(id, 0));
                    prop_assert_eq!(a, b, "mirrored tables diverged on insert");
                    opt.task_init(&mut ta, a, now);
                    oracle.task_init(&mut tb, b, now);
                    let w = WEIGHTS[(sel + i) % WEIGHTS.len()];
                    ta.get_mut(a).pd.weight = w;
                    tb.get_mut(b).pd.weight = w;
                    if let Some(base) = seed_vruntime {
                        let vr = base + (amt + i as u64) % 100_000;
                        ta.get_mut(a).pd.vruntime = vr;
                        tb.get_mut(b).pd.vruntime = vr;
                    }
                    let hint = match amt % 3 {
                        0 => Some(cpu),
                        1 => Some(cores[(sel + i) % cores.len()]),
                        _ => None,
                    };
                    let flags = if amt % 2 == 0 {
                        EnqueueFlags::New
                    } else {
                        EnqueueFlags::Wakeup
                    };
                    ta.get_mut(a).runnable_since = now;
                    tb.get_mut(b).runnable_since = now;
                    batch_a.push((a, hint, flags));
                    batch_b.push((b, hint, flags));
                }
                opt.enqueue_batch(&mut ta, &batch_a, now);
                oracle.enqueue_batch(&mut tb, &batch_b, now);
            }
            // Burst pick via `pick_batch` on an idle core: the optimized
            // deferred-rebase path against the oracle's repeated
            // `task_dequeue`. Picked tasks terminate (centralized-drain
            // shape) so both tables stay mirrored.
            9 => {
                if running.contains_key(&cpu) {
                    continue;
                }
                let max = 1 + amt as usize % 4;
                let mut out_a = Vec::new();
                let mut out_b = Vec::new();
                opt.pick_batch(&mut ta, cpu, max, now, &mut out_a);
                oracle.pick_batch(&mut tb, cpu, max, now, &mut out_b);
                prop_assert_eq!(&out_a, &out_b, "pick_batch diverged on core {}", cpu);
                for t in out_a {
                    opt.task_terminate(&mut ta, t, now);
                    oracle.task_terminate(&mut tb, t, now);
                    ta.remove(t);
                    tb.remove(t);
                }
            }
            // Centralized dispatch to every idle worker (a no-op default
            // for per-CPU policies — trivially equal there).
            _ => {
                let idle: Vec<CoreId> = cores
                    .iter()
                    .copied()
                    .filter(|c| !running.contains_key(c))
                    .collect();
                let mut out_a = Vec::new();
                let mut out_b = Vec::new();
                opt.sched_poll(&mut ta, &idle, now, &mut out_a);
                oracle.sched_poll(&mut tb, &idle, now, &mut out_b);
                prop_assert_eq!(&out_a, &out_b, "poll placements diverged");
                for (c, t) in out_a {
                    running.insert(c, (t, now));
                }
            }
        }
        prop_assert_eq!(opt.queue_len(), oracle.queue_len(), "queue_len diverged");
        prop_assert_eq!(
            opt.queue_delay(&ta, now),
            oracle.queue_delay(&tb, now),
            "queue_delay diverged"
        );
    }
    // Drain both sides to empty and require pick-for-pick identical
    // sequences (dequeue first, then steal/balance, per core in order).
    for _ in 0..4096 {
        now += Nanos(11);
        let mut progressed = false;
        for &cpu in &cores {
            let x = opt
                .task_dequeue(&mut ta, cpu, now)
                .or_else(|| opt.sched_balance(&mut ta, cpu, now));
            let y = oracle
                .task_dequeue(&mut tb, cpu, now)
                .or_else(|| oracle.sched_balance(&mut tb, cpu, now));
            prop_assert_eq!(x, y, "drain diverged on core {}", cpu);
            if let Some(t) = x {
                opt.task_terminate(&mut ta, t, now);
                oracle.task_terminate(&mut tb, t, now);
                ta.remove(t);
                tb.remove(t);
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    prop_assert_eq!(opt.queue_len(), oracle.queue_len());
}

proptest! {
    /// All six policies, dense and sparse core layouts: every scheduling
    /// decision of the optimized implementation matches the frozen
    /// reference oracle over arbitrary operation traces.
    #[test]
    fn policies_match_reference_oracle(
        which in 0u8..6,
        cores_sel in 0u8..4,
        ops in prop::collection::vec((0u8..11, 0usize..64, 0u64..50_000), 1..300),
    ) {
        run_trace(which, cores_sel, ops, None, None);
    }

    /// EEVDF with vruntimes seeded near the `u64` limit: the rebased
    /// incremental accumulators must keep agreeing with the full-scan
    /// u128 reference right up against overflow territory.
    #[test]
    fn eevdf_matches_reference_near_u64_vruntime_limit(
        cores_sel in 0u8..4,
        ops in prop::collection::vec((0u8..11, 0usize..64, 0u64..50_000), 1..200),
    ) {
        // Headroom keeps per-tick vruntime charging from wrapping while
        // the *accumulator* math (sum of v·w over a queue) would overflow
        // u64 arithmetic many times over without the min_vruntime rebase.
        let base = u64::MAX - Nanos::from_secs(40).0;
        run_trace(0, cores_sel, ops, Some(base), None);
    }

    /// CFS across sparse core layouts with weight spread: the cached
    /// queue counter and compact core→rq map never change a decision.
    #[test]
    fn cfs_matches_reference_on_sparse_layouts(
        cores_sel in 2u8..4,
        ops in prop::collection::vec((0u8..11, 0usize..64, 0u64..50_000), 1..250),
    ) {
        run_trace(1, cores_sel, ops, None, None);
    }

    /// EEVDF and CFS on two cores whose runqueues start 1000 tasks deep,
    /// then take thousands of mixed operations: tree splits and merges at
    /// depth, node reuse and steals of the newest arrival, pick for pick
    /// against the oracles.
    #[test]
    fn eevdf_and_cfs_match_reference_on_deep_runqueues(
        which in 0u8..2,
        seed in 0u64..u64::MAX,
        ops in prop::collection::vec((0u8..11, 0usize..64, 0u64..50_000), 2000..3000),
    ) {
        run_trace(which, 1, ops, None, Some((1000, seed)));
    }
}
