//! Quickstart: build a Skyloft machine, run a workload, read the results.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! This sets up the paper's per-CPU configuration — user-space timer
//! interrupts at 100 kHz driving a round-robin policy — fires a burst of
//! requests with a heavy-tailed mix at it, and prints latency percentiles.
//! Flip `PREEMPTIVE` to `false` to watch head-of-line blocking appear.

use skyloft::machine::{AppKind, Machine, MachineConfig};
use skyloft::{Platform, SchedParams};
use skyloft_hw::Topology;
use skyloft_policies::RoundRobin;
use skyloft_sim::{Distribution, EventQueue, Nanos, Rng};

const PREEMPTIVE: bool = true;

fn main() {
    // 1. A 4-core Skyloft machine with 100 kHz user-space timers.
    let cfg = MachineConfig {
        plat: Platform::skyloft_percpu(Topology::single(4), 100_000),
        n_workers: 4,
        seed: 42,
        core_alloc: None,
        utimer_period: None,
    };
    // 2. A policy from the paper: round-robin with a 50 us slice
    //    (Table 5). `None` would disable preemption entirely.
    let slice = PREEMPTIVE.then_some(SchedParams::SKYLOFT_RR.time_slice);
    let mut machine = Machine::new(cfg, Box::new(RoundRobin::new(slice)));
    machine.add_app("quickstart", AppKind::Lc);

    // 3. Start: this performs the §3.2 UINTR timer delegation (UINV set to
    //    the timer vector, PIR armed by an SN self-post) on every core.
    let mut q = EventQueue::new();
    machine.start(&mut q);

    // 4. Offer a bursty, heavy-tailed workload: 98% short (10 us), 2% long
    //    (2 ms) requests.
    let mix = Distribution::Bimodal {
        p_long: 0.02,
        short: Nanos::from_us(10),
        long: Nanos::from_ms(2),
    };
    let mut rng = Rng::seed_from_u64(7);
    let mut at = Nanos::ZERO;
    for _ in 0..2_000 {
        at += Nanos(rng.next_below(40_000)); // ~50 kRPS
        let service = mix.sample(&mut rng);
        let class = u8::from(service > Nanos::from_us(100));
        q.schedule(
            at,
            skyloft::Event::Call(skyloft::Call::Fn(Box::new(move |m, q| {
                m.spawn_request(q, 0, service, class, None);
            }))),
        );
    }

    // 5. Run and report.
    machine.run(&mut q, Nanos::from_secs(1));
    let s = &machine.stats;
    println!("requests completed : {}", s.completed);
    println!(
        "short-request p50  : {:>8.1} us",
        s.resp_by_class[0].percentile(50.0) as f64 / 1e3
    );
    println!(
        "short-request p99  : {:>8.1} us",
        s.resp_by_class[0].percentile(99.0) as f64 / 1e3
    );
    println!(
        "long-request  p99  : {:>8.1} us",
        s.resp_by_class[1].percentile(99.0) as f64 / 1e3
    );
    println!("preemptions        : {}", s.preemptions);
    println!(
        "timer interrupts   : {} delivered, {} lost",
        s.timer_delivered, s.timer_lost
    );
    println!();
    if PREEMPTIVE {
        println!("With the 50 us slice, short requests dodge the 2 ms longs.");
        println!("Set PREEMPTIVE = false and watch short p99 jump ~100x.");
    } else {
        println!("Without preemption, short requests queue behind 2 ms longs.");
    }
}
