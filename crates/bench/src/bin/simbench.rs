//! Simulator self-benchmark: engine throughput (events/sec) and hot-path
//! allocation pressure (allocs/event) on the two workloads that dominate
//! every figure — the §5.2 dispersive open-loop sweep and schbench.
//!
//! Results go to `results/simbench.csv`; `--write` also records them as
//! the `current` engine in the repo-root `BENCH_sim.json` (canonical runs
//! only; the `pre_change` section keeps the perf trajectory vs the
//! original `BinaryHeap` engine on record). `--check` compares the
//! measured events/sec of both workloads against `BENCH_sim.json`'s
//! `current` entry and exits non-zero on a >30% regression — that is the
//! CI smoke gate.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use skyloft_apps::harness::trace_arg;
use skyloft_apps::schbench;
use skyloft_apps::synthetic::{dispersive, dispersive_threshold, install_open_loop, Placement};
use skyloft_bench::baseline::{best_of, Gate};
use skyloft_bench::{build, out, scaled, setup::FIG7_QUANTUM, Flags};
use skyloft_metrics::Table;
use skyloft_net::loadgen::OpenLoop;
use skyloft_policies::RoundRobin;
use skyloft_sim::Nanos;

/// Counts every heap allocation (alloc + realloc) made by the process.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

struct Sample {
    events: u64,
    wall_secs: f64,
    allocs: u64,
}

impl Sample {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_secs
    }

    fn allocs_per_event(&self) -> f64 {
        self.allocs as f64 / self.events.max(1) as f64
    }
}

fn measure(run: impl FnOnce() -> u64) -> Sample {
    let a0 = ALLOCS.load(Ordering::Relaxed);
    let t0 = Instant::now();
    let events = run();
    let wall_secs = t0.elapsed().as_secs_f64();
    let allocs = ALLOCS.load(Ordering::Relaxed) - a0;
    Sample {
        events,
        wall_secs,
        allocs,
    }
}

/// Dispersive open-loop load on Skyloft-Shinjuku (the Figure 7a hot
/// path): arrivals, placement, segment completions, quantum checks and
/// user-IPIs all churn through the event queue.
fn run_dispersive() -> Sample {
    measure(|| {
        let (mut m, mut q) = build::skyloft_shinjuku(8, Some(FIG7_QUANTUM), false);
        // Measure the engine, not the trace recorder: the ring-buffer
        // write per event is diagnostic overhead a production build
        // compiles out entirely (`--no-default-features`).
        m.tracer.set_active(false);
        let horizon = scaled(Nanos::from_ms(400));
        let gen = OpenLoop::new(120_000.0, dispersive(), dispersive_threshold(), 0x51);
        install_open_loop(&mut q, gen, 0, Placement::Queue, horizon);
        m.run(&mut q, horizon + Nanos::from_ms(20))
    })
}

/// schbench on a per-CPU round-robin Skyloft (the Figure 5/6 hot path):
/// dominated by 100 kHz timer ticks and wakeup/preemption traffic.
fn run_schbench() -> Sample {
    measure(|| {
        let (mut m, mut q) = build::skyloft_percpu(
            24,
            100_000,
            Box::new(RoundRobin::new(Some(Nanos::from_us(50)))),
        );
        m.tracer.set_active(false);
        schbench::spawn(&mut m, &mut q, 0, 64, schbench::DEFAULT_WORK);
        m.run(&mut q, scaled(Nanos::from_ms(400)))
    })
}

fn main() {
    // `--trace` is accepted (and ignored) for CLI uniformity with the
    // figure binaries.
    let _ = trace_arg();
    let flags = Flags::parse();
    let mut gate = Gate::new("simbench", "BENCH_sim.json", flags);

    // Five samples per workload: the recorded figure is the engine's
    // peak, and on a shared box the scheduler-noise floor swallows two
    // samples too often for best-of-2 to find it.
    eprintln!("simbench: measuring dispersive workload...");
    let disp = best_of(5, run_dispersive, Sample::events_per_sec);
    eprintln!("simbench: measuring schbench workload...");
    let sch = best_of(5, run_schbench, Sample::events_per_sec);

    let mut t = Table::new(&[
        "workload",
        "events",
        "wall_ms",
        "events_per_sec",
        "allocs",
        "allocs_per_event",
    ]);
    for (name, s) in [("dispersive", &disp), ("schbench", &sch)] {
        t.row_owned(vec![
            name.to_string(),
            s.events.to_string(),
            format!("{:.1}", s.wall_secs * 1e3),
            format!("{:.0}", s.events_per_sec()),
            s.allocs.to_string(),
            format!("{:.3}", s.allocs_per_event()),
        ]);
    }
    out::emit("simbench", "Simulator self-benchmark", &t);
    println!(
        "events/sec: dispersive={:.0} schbench={:.0}",
        disp.events_per_sec(),
        sch.events_per_sec()
    );

    gate.upsert(
        "current",
        format!(
            "    \"dispersive_events_per_sec\": {:.0},\n    \
             \"dispersive_allocs_per_event\": {:.3},\n    \
             \"schbench_events_per_sec\": {:.0},\n    \
             \"schbench_allocs_per_event\": {:.3}",
            disp.events_per_sec(),
            disp.allocs_per_event(),
            sch.events_per_sec(),
            sch.allocs_per_event()
        ),
    );
    gate.at_least(
        "current",
        "dispersive_events_per_sec",
        disp.events_per_sec(),
        0.7,
    );
    gate.at_least(
        "current",
        "schbench_events_per_sec",
        sch.events_per_sec(),
        0.7,
    );
    gate.finish();
}
