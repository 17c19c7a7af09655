//! User-level threading operation kernels on the `skyloft-uthread`
//! runtime, shared by Table 7 (`tab7_threadops`) and the substrate
//! benchmark (`thrbench`). Each returns nanoseconds per operation; the
//! caller picks the iteration count.

use std::sync::{Arc, Mutex as StdMutex};
use std::time::{Duration, Instant};

use skyloft_uthread::{spawn, yield_now, Condvar, Mutex, Runtime};

/// `total` spread over `iters` operations, in nanoseconds.
pub fn ns_per(total: Duration, iters: u64) -> f64 {
    total.as_nanos() as f64 / iters as f64
}

/// Runs `f` as the main green thread of a `workers`-wide runtime and
/// returns its result.
pub fn in_runtime(workers: usize, f: impl FnOnce() -> f64 + Send + 'static) -> f64 {
    let out = Arc::new(StdMutex::new(0.0));
    let o = out.clone();
    Runtime::run(workers, move || {
        *o.lock().unwrap() = f();
    });
    let v = *out.lock().unwrap();
    v
}

/// One `yield_now` with nothing else runnable.
pub fn yield_ns(iters: u64) -> f64 {
    in_runtime(1, move || {
        let t0 = Instant::now();
        for _ in 0..iters {
            yield_now();
        }
        ns_per(t0.elapsed(), iters)
    })
}

/// One `spawn` of an empty green thread (joins are not timed).
pub fn spawn_ns(iters: u64) -> f64 {
    in_runtime(1, move || {
        // Warm the stack pool so the steady-state (recycled-stack) spawn
        // cost is measured, as in the paper's pooled runtime.
        let warm: Vec<_> = (0..64).map(|_| spawn(|| {})).collect();
        for h in warm {
            h.join();
        }
        let t0 = Instant::now();
        let mut handles = Vec::with_capacity(iters as usize);
        for _ in 0..iters {
            handles.push(spawn(|| {}));
        }
        let spawn_time = t0.elapsed();
        for h in handles {
            h.join();
        }
        ns_per(spawn_time, iters)
    })
}

/// One uncontended lock+unlock.
pub fn mutex_ns(iters: u64) -> f64 {
    in_runtime(1, move || {
        let m = Mutex::new(0u64);
        let t0 = Instant::now();
        for _ in 0..iters {
            *m.lock() += 1;
        }
        ns_per(t0.elapsed(), iters)
    })
}

/// One condvar signal+wake handoff in a two-thread ping-pong.
pub fn condvar_ns(iters: u64) -> f64 {
    in_runtime(1, move || {
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
        // Two signal+wake handoffs per round.
        ns_per(d, iters * 2)
    })
}
