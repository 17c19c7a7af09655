//! Table 7: threading-operation costs, measured for real on this host.
//!
//! Skyloft's user-level threading (the `skyloft-uthread` runtime with its
//! assembly context switch and pooled stacks) against `std::thread`
//! (pthread). Go is unavailable offline; the paper's Go column is printed
//! for reference. Absolute numbers depend on this host's CPU — the shape
//! to check is uthread yield/spawn/condvar being orders of magnitude below
//! pthread, with mutex near parity (both are one uncontended CAS).
//!
//! Run this alone: the pthread ping-pongs bounce between OS threads, so a
//! busy single-CPU host starves them (iteration counts are sized for that).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex};
use std::time::Instant;

use skyloft_bench::out;
use skyloft_bench::threadops::{self, ns_per};
use skyloft_metrics::Table;

fn pthread_yield_ns(iters: u64) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        std::thread::yield_now();
    }
    ns_per(t0.elapsed(), iters)
}

fn pthread_spawn_ns(iters: u64) -> f64 {
    let t0 = Instant::now();
    let handles: Vec<_> = (0..iters).map(|_| std::thread::spawn(|| {})).collect();
    let spawn_time = t0.elapsed();
    for h in handles {
        h.join().unwrap();
    }
    ns_per(spawn_time, iters)
}

fn pthread_mutex_ns(iters: u64) -> f64 {
    let m = StdMutex::new(0u64);
    let t0 = Instant::now();
    for _ in 0..iters {
        *m.lock().unwrap() += 1;
    }
    ns_per(t0.elapsed(), iters)
}

fn pthread_condvar_ns(iters: u64) -> f64 {
    // NOTE: waits are timed. On this machine's kernel, untimed
    // `Condvar::wait` ping-pongs occasionally lose a wakeup and deadlock
    // (both threads parked in `futex_wait` with the token set — observed
    // repeatedly on 6.18.x; the protocol is the textbook two-phase
    // predicate loop). A 2 ms timeout converts that into a bounded retry
    // and fires only when a wakeup was lost, so it does not skew the
    // common-case measurement.
    const PATIENCE: std::time::Duration = std::time::Duration::from_millis(2);
    let pair = Arc::new((StdMutex::new(false), StdCondvar::new()));
    let p2 = pair.clone();
    let stop = Arc::new(AtomicBool::new(false));
    let s2 = stop.clone();
    let pong = std::thread::spawn(move || {
        let (m, cv) = &*p2;
        loop {
            let mut g = m.lock().unwrap();
            while !*g {
                let (guard, _timed_out) = cv.wait_timeout(g, PATIENCE).unwrap();
                g = guard;
                if s2.load(Ordering::Acquire) {
                    return;
                }
            }
            *g = false;
            drop(g);
            cv.notify_one();
        }
    });
    let (m, cv) = &*pair;
    let t0 = Instant::now();
    for _ in 0..iters {
        let mut g = m.lock().unwrap();
        *g = true;
        drop(g);
        cv.notify_one();
        let mut g = m.lock().unwrap();
        while *g {
            let (guard, _timed_out) = cv.wait_timeout(g, PATIENCE).unwrap();
            g = guard;
        }
        drop(g);
    }
    let d = t0.elapsed();
    stop.store(true, Ordering::Release);
    cv.notify_all();
    pong.join().unwrap();
    ns_per(d, iters * 2)
}

fn main() {
    let mut t = Table::new(&[
        "operation",
        "pthread (ns)",
        "Skyloft uthread (ns)",
        "paper pthread/Go/Skyloft",
    ]);
    eprintln!("[tab7] pthread yield");
    let y_p = pthread_yield_ns(30_000);
    eprintln!("[tab7] uthread yield");
    let y_u = threadops::yield_ns(200_000);
    t.row_owned(vec![
        "Yield".into(),
        format!("{y_p:.0}"),
        format!("{y_u:.0}"),
        "898 / 108 / 37".into(),
    ]);
    eprintln!("[tab7] pthread spawn");
    let s_p = pthread_spawn_ns(1_000);
    eprintln!("[tab7] uthread spawn");
    let s_u = threadops::spawn_ns(50_000);
    t.row_owned(vec![
        "Spawn".into(),
        format!("{s_p:.0}"),
        format!("{s_u:.0}"),
        "15418 / 503 / 191".into(),
    ]);
    eprintln!("[tab7] pthread mutex");
    let m_p = pthread_mutex_ns(1_000_000);
    eprintln!("[tab7] uthread mutex");
    let m_u = threadops::mutex_ns(1_000_000);
    t.row_owned(vec![
        "Mutex".into(),
        format!("{m_p:.0}"),
        format!("{m_u:.0}"),
        "28 / 25 / 27".into(),
    ]);
    eprintln!("[tab7] pthread condvar");
    let c_p = pthread_condvar_ns(5_000);
    eprintln!("[tab7] uthread condvar");
    let c_u = threadops::condvar_ns(50_000);
    t.row_owned(vec![
        "Condvar".into(),
        format!("{c_p:.0}"),
        format!("{c_u:.0}"),
        "2532 / 262 / 86".into(),
    ]);
    out::emit(
        "tab7_threadops",
        "Table 7: threading operations (host-measured)",
        &t,
    );

    assert!(s_u < s_p / 5.0, "uthread spawn must be far below pthread");
    assert!(c_u < c_p / 2.0, "uthread condvar must beat pthread");
    println!("Shape checks passed: uthread spawn/condvar ≪ pthread; mutex comparable.");
}
