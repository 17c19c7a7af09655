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
//! measured live; `current` = the lock-free substrate). `--check`
//! compares against the committed baseline and exits non-zero on a >30%
//! throughput regression — the CI smoke gate. The ISSUE's ≥2× speedup
//! criterion at 4+ workers is asserted only when the host actually has
//! 4+ hardware threads (an oversubscribed single-core runner measures
//! scheduler interleaving, not the substrate).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex as StdMutex};
use std::time::Instant;

use skyloft_bench::out;
use skyloft_metrics::Table;
use skyloft_uthread::{spawn, yield_now, Condvar, Mutex, Runtime};

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

fn timed_in_runtime(workers: usize, f: impl FnOnce() -> f64 + Send + 'static) -> f64 {
    let out = Arc::new(StdMutex::new(0.0));
    let o = out.clone();
    Runtime::run(workers, move || {
        *o.lock().unwrap() = f();
    });
    let v = *out.lock().unwrap();
    v
}

fn ns_per(total: std::time::Duration, iters: u64) -> f64 {
    total.as_nanos() as f64 / iters as f64
}

fn rt_yield_ns(iters: u64) -> f64 {
    timed_in_runtime(1, move || {
        let t0 = Instant::now();
        for _ in 0..iters {
            yield_now();
        }
        ns_per(t0.elapsed(), iters)
    })
}

fn rt_spawn_ns(iters: u64) -> f64 {
    timed_in_runtime(1, move || {
        let warm: Vec<_> = (0..64).map(|_| spawn(|| {})).collect();
        for h in warm {
            h.join();
        }
        let t0 = Instant::now();
        let mut handles = Vec::with_capacity(iters as usize);
        for _ in 0..iters {
            handles.push(spawn(|| {}));
        }
        let d = t0.elapsed();
        for h in handles {
            h.join();
        }
        ns_per(d, iters)
    })
}

fn rt_mutex_ns(iters: u64) -> f64 {
    timed_in_runtime(1, move || {
        let m = Mutex::new(0u64);
        let t0 = Instant::now();
        for _ in 0..iters {
            *m.lock() += 1;
        }
        ns_per(t0.elapsed(), iters)
    })
}

fn rt_condvar_ns(iters: u64) -> f64 {
    timed_in_runtime(1, move || {
        let m = Arc::new(Mutex::new(false));
        let cv = Arc::new(Condvar::new());
        let (m2, cv2) = (m.clone(), cv.clone());
        let pong = spawn(move || {
            for _ in 0..iters {
                let mut g = m2.lock();
                while !*g {
                    g = cv2.wait(g);
                }
                *g = false;
                drop(g);
                cv2.notify_one();
            }
        });
        let t0 = Instant::now();
        for _ in 0..iters {
            let mut g = m.lock();
            *g = true;
            drop(g);
            cv.notify_one();
            let mut g = m.lock();
            while *g {
                g = cv.wait(g);
            }
            drop(g);
        }
        let d = t0.elapsed();
        pong.join();
        ns_per(d, iters * 2)
    })
}

/// Spawn-churn throughput with `workers` OS workers: a spawner green
/// thread creates tasks in batches and joins them, exercising the
/// injector, stealing, eventcount wakeups and the stack caches together.
fn rt_spawn_throughput(workers: usize, total: u64) -> f64 {
    timed_in_runtime(workers, move || {
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

// ---------------------------------------------------------------------------
// Baseline file (BENCH_thread.json), simbench-style flat JSON.
// ---------------------------------------------------------------------------

fn baseline_path() -> std::path::PathBuf {
    std::path::PathBuf::from(format!(
        "{}/../../BENCH_thread.json",
        env!("CARGO_MANIFEST_DIR")
    ))
}

fn extract(json: &str, section: &str, key: &str) -> Option<f64> {
    let at = json.find(&format!("\"{section}\""))?;
    let rest = &json[at..];
    let at = rest.find(&format!("\"{key}\""))?;
    let rest = &rest[at..];
    let colon = rest.find(':')?;
    let num: String = rest[colon + 1..]
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    num.parse().ok()
}

struct Results {
    gate_workers: usize,
    deque_ref: f64,
    deque_lf: f64,
    inj_ref: f64,
    inj_lf: f64,
    spawn_ns: f64,
    yield_ns: f64,
    mutex_ns: f64,
    condvar_ns: f64,
    spawn_tput: f64,
}

fn write_baseline(r: &Results) {
    let path = baseline_path();
    let json = format!(
        "{{\n  \"schema\": 1,\n  \"bench\": \"thrbench\",\n  \"gate_workers\": {gw},\n  \
         \"pre_change\": {{\n    \
         \"deque_steal_ops_per_sec\": {dr:.0},\n    \
         \"injector_ops_per_sec\": {ir:.0}\n  }},\n  \
         \"current\": {{\n    \
         \"deque_steal_ops_per_sec\": {dl:.0},\n    \
         \"injector_ops_per_sec\": {il:.0},\n    \
         \"spawn_ns\": {sn:.1},\n    \
         \"yield_ns\": {yn:.1},\n    \
         \"mutex_ns\": {mn:.1},\n    \
         \"condvar_ns\": {cn:.1},\n    \
         \"spawn_throughput_per_sec\": {st:.0}\n  }}\n}}\n",
        gw = r.gate_workers,
        dr = r.deque_ref,
        ir = r.inj_ref,
        dl = r.deque_lf,
        il = r.inj_lf,
        sn = r.spawn_ns,
        yn = r.yield_ns,
        mn = r.mutex_ns,
        cn = r.condvar_ns,
        st = r.spawn_tput,
    );
    match std::fs::write(&path, json) {
        Ok(()) => eprintln!("thrbench: wrote {}", path.display()),
        Err(e) => eprintln!("thrbench: failed to write {}: {e}", path.display()),
    }
}

fn check_baseline(r: &Results) -> bool {
    let mut ok = true;

    // The ISSUE's speedup criterion: lock-free ≥2× the mutex oracle on
    // spawn+steal at 4+ workers. Only meaningful with real parallelism.
    let ratio = r.deque_lf / r.deque_ref.max(1.0);
    if hw_threads() >= 4 {
        if ratio < 2.0 {
            eprintln!(
                "thrbench: FAIL: lock-free deque speedup {ratio:.2}x < 2x at {} workers",
                r.gate_workers
            );
            ok = false;
        } else {
            eprintln!(
                "thrbench: lock-free deque speedup {ratio:.2}x at {} workers — ok",
                r.gate_workers
            );
        }
    } else {
        eprintln!(
            "thrbench: host has {} hardware thread(s); speedup gate skipped \
             (measured {ratio:.2}x at {} oversubscribed workers)",
            hw_threads(),
            r.gate_workers
        );
    }

    let path = baseline_path();
    let Ok(json) = std::fs::read_to_string(&path) else {
        eprintln!(
            "thrbench: no baseline at {} — nothing to check against",
            path.display()
        );
        return ok;
    };
    for (key, measured) in [
        ("deque_steal_ops_per_sec", r.deque_lf),
        ("injector_ops_per_sec", r.inj_lf),
        ("spawn_throughput_per_sec", r.spawn_tput),
    ] {
        let Some(base) = extract(&json, "current", key) else {
            continue;
        };
        let floor = base * 0.7;
        if measured < floor {
            eprintln!(
                "thrbench: REGRESSION on {key}: measured {measured:.0} < 70% of baseline {base:.0}"
            );
            ok = false;
        } else {
            eprintln!("thrbench: {key} {measured:.0} vs baseline {base:.0} — ok");
        }
    }
    ok
}

fn main() {
    let args = skyloft_bench::positional_args();
    let write = args.iter().any(|a| a == "--write");
    let check = args.iter().any(|a| a == "--check");

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

    let mut results = Results {
        gate_workers,
        deque_ref: 0.0,
        deque_lf: 0.0,
        inj_ref: 0.0,
        inj_lf: 0.0,
        spawn_ns: 0.0,
        yield_ns: 0.0,
        mutex_ns: 0.0,
        condvar_ns: 0.0,
        spawn_tput: 0.0,
    };

    // Best-of-2 per point: oversubscribed hosts make single runs noisy
    // (the OS scheduler's quantum dominates the tail of a run).
    fn best_of(n: usize, f: impl Fn() -> f64) -> f64 {
        (0..n).map(|_| f()).fold(0.0f64, f64::max)
    }

    for &w in &worker_counts {
        eprintln!("[thrbench] deque spawn+steal, {w} worker(s)");
        let r = best_of(2, || deque_reference(w, deque_items));
        let l = best_of(2, || deque_lockfree(w, deque_items));
        if w == gate_workers {
            results.deque_ref = r;
            results.deque_lf = l;
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
        let r = best_of(2, || injector_reference(w, inj_items));
        let l = best_of(2, || injector_lockfree(w, inj_items));
        if w == gate_workers {
            results.inj_ref = r;
            results.inj_lf = l;
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
    results.yield_ns = rt_yield_ns(scaled_iters(200_000));
    results.spawn_ns = rt_spawn_ns(scaled_iters(50_000));
    results.mutex_ns = rt_mutex_ns(scaled_iters(1_000_000));
    results.condvar_ns = rt_condvar_ns(scaled_iters(50_000));
    results.spawn_tput =
        rt_spawn_throughput(gate_workers.min(hw_threads().max(2)), scaled_iters(60_000));

    let mut rt = Table::new(&["operation", "ns/op (compiled substrate)"]);
    for (name, v) in [
        ("yield", results.yield_ns),
        ("spawn", results.spawn_ns),
        ("mutex lock+unlock", results.mutex_ns),
        ("condvar signal+wake", results.condvar_ns),
    ] {
        rt.row_owned(vec![name.into(), format!("{v:.0}")]);
    }
    rt.row_owned(vec![
        format!(
            "spawn churn @{} workers (spawns/s)",
            gate_workers.min(hw_threads().max(2))
        ),
        format!("{:.0}", results.spawn_tput),
    ]);

    out::emit(
        "thrbench",
        "Threading substrate: lock-free vs mutex oracle",
        &t,
    );
    out::emit("thrbench_runtime", "Runtime operation costs", &rt);
    println!(
        "deque@{gw}w: {:.0} -> {:.0} ops/s ({:.2}x)  injector@{gw}w: {:.0} -> {:.0} ops/s ({:.2}x)",
        results.deque_ref,
        results.deque_lf,
        results.deque_lf / results.deque_ref.max(1.0),
        results.inj_ref,
        results.inj_lf,
        results.inj_lf / results.inj_ref.max(1.0),
        gw = gate_workers,
    );

    if write {
        write_baseline(&results);
    }
    if check && !check_baseline(&results) {
        std::process::exit(1);
    }
}
