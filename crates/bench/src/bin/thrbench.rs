//! Threading-substrate benchmark: lock-free runqueues vs the mutex oracle,
//! plus runtime-level operation costs (ISSUE 4's acceptance numbers).
//!
//! Both substrates always compile (`crossbeam::deque::lockfree` and
//! `crossbeam::deque::reference`), so ONE binary measures the Chase-Lev
//! deque and sharded injector against their mutex-backed stand-ins live,
//! at 1..=4 workers, and reports the speedup directly. On top of that it
//! times the runtime-level operations (spawn/yield/mutex/condvar, plus a
//! multi-worker spawn-churn throughput) on whichever substrate the binary
//! was built with (lock-free unless `--features reference-deque`).
//!
//! Results go to `results/thrbench.csv`; `--write` records them in the
//! repo-root `BENCH_thread.json` (`pre_change` = the mutex oracle,
//! measured live; `current` = the lock-free substrate; canonical runs
//! only, see [`skyloft_bench::baseline::Gate`]). `--check` compares
//! against the committed baseline and exits non-zero on a >30%
//! throughput regression — the CI smoke gate. The ≥2× lock-free speedup
//! criterion at 4+ workers is asserted only when the host actually has
//! 4+ hardware threads (an oversubscribed single-core runner measures
//! scheduler interleaving, not the substrate).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use skyloft_bench::baseline::{best_of, Gate};
use skyloft_bench::{out, threadops, Flags};
use skyloft_metrics::Table;
use skyloft_uthread::spawn;

fn hw_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Iteration counts divided by `SKYLOFT_FAST` (the throughput *rate* is
/// what is recorded, so shorter runs measure the same quantity).
fn scaled_iters(n: u64) -> u64 {
    skyloft_bench::fast_factor().map_or(n, |f| (n / f).max(1_000))
}

// ---------------------------------------------------------------------------
// Substrate level: identical drivers over both deque implementations.
// ---------------------------------------------------------------------------

/// Generates a pair of benchmark drivers over one substrate module. The
/// code is a macro (not a generic) because the two modules expose
/// identical but unrelated types.
macro_rules! substrate_benches {
    ($deque_fn:ident, $inj_fn:ident, $m:ident) => {
        /// 1 owner pushing/popping its deque + (workers-1) thieves
        /// stealing from the top. Returns ops/sec (one op = one element
        /// through the deque).
        fn $deque_fn(workers: usize, items: u64) -> f64 {
            use crossbeam::deque::$m::{Stealer, Worker};
            use crossbeam::deque::Steal;

            let w = Worker::new_fifo();
            if workers <= 1 {
                let t0 = Instant::now();
                let mut got = 0u64;
                for i in 0..items {
                    w.push(i);
                    if i % 2 == 0 {
                        if w.pop().is_some() {
                            got += 1;
                        }
                    }
                }
                while w.pop().is_some() {
                    got += 1;
                }
                assert_eq!(got, items);
                return items as f64 / t0.elapsed().as_secs_f64();
            }

            let done = AtomicBool::new(false);
            let taken = AtomicU64::new(0);

            fn thief(s: Stealer<u64>, done: &AtomicBool, taken: &AtomicU64) {
                let mut got = 0u64;
                loop {
                    match s.steal() {
                        Steal::Success(_) => got += 1,
                        Steal::Retry => continue,
                        Steal::Empty => {
                            if done.load(Ordering::Acquire) && s.is_empty() {
                                break;
                            }
                            // Oversubscribed hosts need the yield; spinning
                            // here would serialize everything behind the
                            // OS scheduler's quantum.
                            std::thread::yield_now();
                        }
                    }
                }
                taken.fetch_add(got, Ordering::AcqRel);
            }

            let t0 = Instant::now();
            std::thread::scope(|scope| {
                let (d, tk) = (&done, &taken);
                for _ in 0..workers - 1 {
                    let s = w.stealer();
                    scope.spawn(move || thief(s, d, tk));
                }
                let mut got = 0u64;
                for i in 0..items {
                    w.push(i);
                    if i % 4 == 0 {
                        if w.pop().is_some() {
                            got += 1;
                        }
                    }
                }
                done.store(true, Ordering::Release);
                while let Some(_) = w.pop() {
                    got += 1;
                }
                taken.fetch_add(got, Ordering::AcqRel);
            });
            let wall = t0.elapsed().as_secs_f64();
            assert_eq!(taken.load(Ordering::Acquire), items, "lost elements");
            items as f64 / wall
        }

        /// MPMC through the injector: half the workers produce, half
        /// batch-steal into local deques. Returns ops/sec.
        fn $inj_fn(workers: usize, items: u64) -> f64 {
            use crossbeam::deque::$m::{Injector, Worker};
            use crossbeam::deque::Steal;

            let inj: Injector<u64> = Injector::new();
            if workers <= 1 {
                let w = Worker::new_fifo();
                let t0 = Instant::now();
                let mut got = 0u64;
                for i in 0..items {
                    inj.push(i);
                }
                loop {
                    match inj.steal_batch_and_pop(&w) {
                        Steal::Success(_) => {
                            got += 1;
                            while w.pop().is_some() {
                                got += 1;
                            }
                        }
                        Steal::Empty => break,
                        Steal::Retry => continue,
                    }
                }
                assert_eq!(got, items);
                return items as f64 / t0.elapsed().as_secs_f64();
            }

            let producers = (workers / 2).max(1) as u64;
            let consumers = (workers - producers as usize).max(1);
            let per = items / producers;
            let total = per * producers;
            let done = AtomicBool::new(false);
            let taken = AtomicU64::new(0);

            let t0 = Instant::now();
            std::thread::scope(|scope| {
                let (inj, d, tk) = (&inj, &done, &taken);
                for _ in 0..consumers {
                    scope.spawn(move || {
                        let w = Worker::new_fifo();
                        let mut got = 0u64;
                        loop {
                            match inj.steal_batch_and_pop(&w) {
                                Steal::Success(_) => {
                                    got += 1;
                                    while w.pop().is_some() {
                                        got += 1;
                                    }
                                }
                                Steal::Retry => continue,
                                Steal::Empty => {
                                    if d.load(Ordering::Acquire) && inj.is_empty() {
                                        break;
                                    }
                                    std::thread::yield_now();
                                }
                            }
                        }
                        tk.fetch_add(got, Ordering::AcqRel);
                    });
                }
                let prods: Vec<_> = (0..producers)
                    .map(|p| {
                        scope.spawn(move || {
                            for i in 0..per {
                                inj.push(p * per + i);
                            }
                        })
                    })
                    .collect();
                for p in prods {
                    p.join().unwrap();
                }
                done.store(true, Ordering::Release);
            });
            let wall = t0.elapsed().as_secs_f64();
            assert_eq!(taken.load(Ordering::Acquire), total, "lost elements");
            total as f64 / wall
        }
    };
}

substrate_benches!(deque_lockfree, injector_lockfree, lockfree);
substrate_benches!(deque_reference, injector_reference, reference);

// ---------------------------------------------------------------------------
// Runtime level: operation costs on the compiled-in substrate.
// ---------------------------------------------------------------------------

/// Spawn-churn throughput with `workers` OS workers: a spawner green
/// thread creates tasks in batches and joins them, exercising the
/// injector, stealing, eventcount wakeups and the stack caches together.
fn rt_spawn_throughput(workers: usize, total: u64) -> f64 {
    threadops::in_runtime(workers, move || {
        const BATCH: u64 = 512;
        let t0 = Instant::now();
        let mut left = total;
        while left > 0 {
            let n = left.min(BATCH);
            let handles: Vec<_> = (0..n).map(|_| spawn(|| {})).collect();
            for h in handles {
                h.join();
            }
            left -= n;
        }
        total as f64 / t0.elapsed().as_secs_f64()
    })
}

fn main() {
    let flags = Flags::parse();
    let mut gate = Gate::new("thrbench", "BENCH_thread.json", flags);

    let deque_items = scaled_iters(400_000);
    let inj_items = scaled_iters(400_000);
    let gate_workers = 4usize;
    let worker_counts = [1usize, 2, 4];

    let mut t = Table::new(&[
        "benchmark",
        "workers",
        "mutex oracle (ops/s)",
        "lock-free (ops/s)",
        "speedup",
    ]);

    // Best-of-2 per point: oversubscribed hosts make single runs noisy
    // (the OS scheduler's quantum dominates the tail of a run).
    let best_of_2 = |f: &dyn Fn() -> f64| best_of(2, f, |&v| v);
    let (mut deque_ref, mut deque_lf, mut inj_ref, mut inj_lf) = (0.0, 0.0, 0.0, 0.0);
    for &w in &worker_counts {
        eprintln!("[thrbench] deque spawn+steal, {w} worker(s)");
        let r = best_of_2(&|| deque_reference(w, deque_items));
        let l = best_of_2(&|| deque_lockfree(w, deque_items));
        if w == gate_workers {
            (deque_ref, deque_lf) = (r, l);
        }
        t.row_owned(vec![
            "deque_steal".into(),
            w.to_string(),
            format!("{r:.0}"),
            format!("{l:.0}"),
            format!("{:.2}x", l / r.max(1.0)),
        ]);
    }
    for &w in &worker_counts {
        eprintln!("[thrbench] injector MPMC, {w} worker(s)");
        let r = best_of_2(&|| injector_reference(w, inj_items));
        let l = best_of_2(&|| injector_lockfree(w, inj_items));
        if w == gate_workers {
            (inj_ref, inj_lf) = (r, l);
        }
        t.row_owned(vec![
            "injector".into(),
            w.to_string(),
            format!("{r:.0}"),
            format!("{l:.0}"),
            format!("{:.2}x", l / r.max(1.0)),
        ]);
    }

    eprintln!("[thrbench] runtime ops (compiled substrate)");
    let yield_ns = threadops::yield_ns(scaled_iters(200_000));
    let spawn_ns = threadops::spawn_ns(scaled_iters(50_000));
    let mutex_ns = threadops::mutex_ns(scaled_iters(1_000_000));
    let condvar_ns = threadops::condvar_ns(scaled_iters(50_000));
    let churn_workers = gate_workers.min(hw_threads().max(2));
    let spawn_tput = rt_spawn_throughput(churn_workers, scaled_iters(60_000));

    let mut rt = Table::new(&["operation", "ns/op (compiled substrate)"]);
    for (name, v) in [
        ("yield", yield_ns),
        ("spawn", spawn_ns),
        ("mutex lock+unlock", mutex_ns),
        ("condvar signal+wake", condvar_ns),
    ] {
        rt.row_owned(vec![name.into(), format!("{v:.0}")]);
    }
    rt.row_owned(vec![
        format!("spawn churn @{churn_workers} workers (spawns/s)"),
        format!("{spawn_tput:.0}"),
    ]);

    out::emit(
        "thrbench",
        "Threading substrate: lock-free vs mutex oracle",
        &t,
    );
    out::emit("thrbench_runtime", "Runtime operation costs", &rt);
    println!(
        "deque@{gw}w: {deque_ref:.0} -> {deque_lf:.0} ops/s ({:.2}x)  \
         injector@{gw}w: {inj_ref:.0} -> {inj_lf:.0} ops/s ({:.2}x)",
        deque_lf / deque_ref.max(1.0),
        inj_lf / inj_ref.max(1.0),
        gw = gate_workers,
    );

    // `pre_change` = the mutex oracle, measured live; `current` = the
    // lock-free substrate.
    gate.upsert(
        "pre_change",
        format!(
            "    \"deque_steal_ops_per_sec\": {deque_ref:.0},\n    \
             \"injector_ops_per_sec\": {inj_ref:.0}"
        ),
    );
    gate.upsert(
        "current",
        format!(
            "    \"deque_steal_ops_per_sec\": {deque_lf:.0},\n    \
             \"injector_ops_per_sec\": {inj_lf:.0},\n    \
             \"spawn_ns\": {spawn_ns:.1},\n    \
             \"yield_ns\": {yield_ns:.1},\n    \
             \"mutex_ns\": {mutex_ns:.1},\n    \
             \"condvar_ns\": {condvar_ns:.1},\n    \
             \"spawn_throughput_per_sec\": {spawn_tput:.0}"
        ),
    );

    // The substrate's speedup criterion: lock-free ≥2× the mutex oracle
    // on spawn+steal at 4+ workers. Only meaningful with real parallelism.
    let ratio = deque_lf / deque_ref.max(1.0);
    if hw_threads() >= 4 {
        gate.require(
            ratio >= 2.0,
            format_args!(
                "lock-free deque speedup {ratio:.2}x (need >= 2x) at {gate_workers} workers"
            ),
        );
    } else {
        eprintln!(
            "thrbench: host has {} hardware thread(s); speedup gate skipped \
             (measured {ratio:.2}x at {gate_workers} oversubscribed workers)",
            hw_threads(),
        );
    }
    for (key, measured) in [
        ("deque_steal_ops_per_sec", deque_lf),
        ("injector_ops_per_sec", inj_lf),
        ("spawn_throughput_per_sec", spawn_tput),
    ] {
        gate.at_least("current", key, measured, 0.7);
    }
    gate.finish();
}
