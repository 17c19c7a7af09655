//! Allocation gate for the three ingress paths the benchmarks measure:
//! once warm, each must handle requests without touching the heap.
//!
//! * **NIC data plane** (`Placement::Rss`, full overload stack): wire
//!   transits, poll-round handoffs, client timeouts and indirection
//!   restores are typed plane events parked in a slab, the poll round's
//!   scratch is reused, and the runqueue AQM keeps its scan scratch.
//! * **Teleport** (Shinjuku, `Placement::Queue`, dispersive load):
//!   centralized placement, quantum checks and IPIs.
//! * **Deep-runqueue schbench** on per-CPU EEVDF and on CFS: ~128 tasks
//!   per runqueue in slab-backed trees that reuse their nodes.
//!
//! A regression that brings back a per-packet box, a per-round `Vec` or
//! a node-allocating runqueue shows up here as a sizeable fraction of an
//! allocation per request or more.
//!
//! The binary installs its own counting global allocator and runs its
//! phases one after another in one test, so no other test thread's
//! allocations are counted: `cargo test -p skyloft-bench --test allocs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use skyloft::builtin::GlobalFifo;
use skyloft::conf::{RunqueueAqmConfig, SloClass};
use skyloft::machine::{AppKind, Event, Machine, MachineConfig};
use skyloft::{Platform, Policy, SchedParams};
use skyloft_apps::schbench;
use skyloft_apps::synthetic::{
    dispersive, dispersive_threshold, install_open_loop, install_tenants, OverloadControl,
    Placement, Tenant,
};
use skyloft_bench::build;
use skyloft_hw::Topology;
use skyloft_net::dataplane::NicConfig;
use skyloft_net::loadgen::OpenLoop;
use skyloft_net::overload::MAX_CLASSES;
use skyloft_net::{AdmissionConfig, CodelConfig, RetryPolicy};
use skyloft_policies::{cfs, eevdf};
use skyloft_sim::{Distribution, EventQueue, Nanos};

/// Counts every `alloc` and `realloc` the process makes.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter update has no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` and the caller upholds
        // `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `slo_sweep`'s machine and tenants at its 2x point: a 200 µs LC tenant
/// at 1M rps and a 5 ms batch tenant offering the remaining 6 of the 4
/// workers' 8 cores of demand (120k rps of 50 µs requests).
const WORKERS: usize = 4;
const LC_SLO: Nanos = Nanos::from_us(200);
const BATCH_SLO: Nanos = Nanos::from_ms(5);
const BATCH_RATE: f64 = 120_000.0;

/// The most heap allocations per request a warm path may make (one boxed
/// closure per packet and per poll round made ~4 on the NIC path; the
/// B-tree runqueues made ~0.35 on schbench).
const MAX_ALLOCS_PER_REQ: f64 = 0.01;

/// Runs `m` to `warmup`, then to `end`, and checks the allocations per
/// request (as counted by `requests`) over the second span.
fn assert_warm_allocs(
    path: &str,
    m: &mut Machine,
    q: &mut EventQueue<Event>,
    warmup: Nanos,
    end: Nanos,
    requests: impl Fn(&Machine) -> u64,
) {
    m.run(q, warmup);
    let (a0, r0) = (ALLOCS.load(Ordering::Relaxed), requests(m));
    m.run(q, end);
    let (a1, r1) = (ALLOCS.load(Ordering::Relaxed), requests(m));
    let n = r1 - r0;
    assert!(n > 10_000, "{path}: window saw only {n} requests");
    let per_req = (a1 - a0) as f64 / n as f64;
    eprintln!("{path}: {} allocations over {n} requests", a1 - a0);
    assert!(
        per_req <= MAX_ALLOCS_PER_REQ,
        "{path}: {} allocations over {n} requests: {per_req:.4} per request \
         (gate {MAX_ALLOCS_PER_REQ})",
        a1 - a0
    );
}

#[test]
fn warm_paths_allocate_nothing_per_request() {
    nic_plane();
    teleport();
    schbench_deep("schbench_deep eevdf", || {
        Box::new(eevdf::Eevdf::new(SchedParams::SKYLOFT_EEVDF))
    });
    schbench_deep("schbench_deep cfs", || {
        Box::new(cfs::Cfs::new(SchedParams::SKYLOFT_CFS))
    });
}

/// Teleport: hostbench's `teleport_dispersive` shape — 20 workers and a
/// dispatcher, a 30 µs quantum, 280 kRPS of dispersive load.
fn teleport() {
    let (mut m, mut q) = build::skyloft_shinjuku(20, Some(Nanos::from_us(30)), false);
    let end = Nanos::from_ms(400);
    let gen = OpenLoop::new(280_000.0, dispersive(), dispersive_threshold(), 1);
    install_open_loop(&mut q, gen, 0, Placement::Queue, end);
    assert_warm_allocs("teleport", &mut m, &mut q, Nanos::from_ms(200), end, |m| {
        m.stats.completed
    });
}

/// Deep-runqueue schbench: hostbench's `schbench_deep` shape — 8 workers
/// at a 100 kHz user timer, one messenger and 1024 workers of 50 µs work
/// (~128 runnable tasks per runqueue). Requests are recorded wakeups.
fn schbench_deep(path: &str, policy: fn() -> Box<dyn Policy>) {
    let (mut m, mut q) = build::skyloft_percpu(8, 100_000, policy());
    schbench::spawn(&mut m, &mut q, 0, 1024, Nanos::from_us(50));
    assert_warm_allocs(
        path,
        &mut m,
        &mut q,
        Nanos::from_ms(100),
        Nanos::from_ms(200),
        |m| m.stats.wakeup_hist.count(),
    );
}

/// The NIC plane at `slo_sweep`'s 2x point.
fn nic_plane() {
    let cfg = MachineConfig {
        plat: Platform::skyloft_percpu(Topology::single(WORKERS), 100_000),
        n_workers: WORKERS,
        seed: 1,
        core_alloc: None,
        utimer_period: None,
    };
    let mut m = Machine::new(cfg, Box::new(GlobalFifo::new()));
    m.add_app("lc", AppKind::Lc);
    m.add_app("batch", AppKind::Lc);
    m.set_slo_class(0, SloClass::latency_critical(LC_SLO));
    m.set_slo_class(1, SloClass::batch(BATCH_SLO));
    m.set_runqueue_aqm(RunqueueAqmConfig {
        interval: Nanos::from_us(100),
        ..Default::default()
    });
    let mut q = EventQueue::new();
    m.start(&mut q);

    // Ring CoDel, per-class admission and per-class retry budgets.
    let mut adm = AdmissionConfig::default();
    adm.class_slo[0] = Some(LC_SLO);
    adm.class_slo[1] = Some(BATCH_SLO);
    let mut frac = [None; MAX_CLASSES];
    frac[0] = Some(SloClass::latency_critical(LC_SLO).retry_frac);
    frac[1] = Some(SloClass::batch(BATCH_SLO).retry_frac);
    let ctl = OverloadControl {
        codel: Some(CodelConfig::default()),
        admission: Some(adm),
        retry: Some(RetryPolicy::default()),
        retry_frac: Some(frac),
    };
    let tenant = |rate: f64, service: Nanos, app: usize, seed: u64| Tenant {
        gen: OpenLoop::new(
            rate,
            Distribution::Constant(service),
            Nanos::from_us(100),
            seed,
        ),
        app,
        class: Some(app as u8),
    };
    let lc = tenant(1_000_000.0, Nanos::from_us(2), 0, 1 ^ 0x1C);
    let batch = tenant(BATCH_RATE, Nanos::from_us(50), 1, 1 ^ 0xBA7C);
    // The warm-up lets the plane's slab and burst pool, and the event
    // wheel's buckets, grow to their high-water marks: after 5 ms the
    // wheel alone still adds ~0.008 allocations per request, after 40 ms
    // under 0.001.
    let warmup = Nanos::from_ms(40);
    let end = warmup + Nanos::from_ms(10);
    let mut nic = NicConfig::for_workers(WORKERS);
    nic.client_timeout = Nanos::from_ms(1);
    install_tenants(&mut q, vec![lc, batch], nic, end, None, ctl);

    assert_warm_allocs("nic", &mut m, &mut q, warmup, end, |m| {
        m.stats.net_generated - m.stats.retries_spent
    });
    assert!(
        m.stats.admission_sheds + m.stats.rq_sheds > 0,
        "the 2x point must exercise the shed paths"
    );
}
