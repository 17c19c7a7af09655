//! Multi-application core sharing (§3.3 + §5.2 at example scale).
//!
//! ```sh
//! cargo run --release --example colocation
//! ```
//!
//! A latency-critical service and a best-effort batch application share
//! 8 cores. The Shenango-style allocator grants idle cores to the batch
//! app and revokes them with user IPIs when the LC queue congests; every
//! hand-off goes through the kernel-module model, which enforces the
//! Single Binding Rule. The load alternates between quiet and bursty
//! phases so both directions of the allocator are visible.

use skyloft::machine::{AppKind, Machine, MachineConfig};
use skyloft::{Call, CoreAllocConfig, Event, Platform};
use skyloft_hw::Topology;
use skyloft_policies::ShinjukuShenango;
use skyloft_sim::{EventQueue, Nanos, Rng};

const WORKERS: usize = 8;

fn main() {
    let cfg = MachineConfig {
        plat: Platform::skyloft_centralized(Topology::single(WORKERS + 1)),
        n_workers: WORKERS,
        seed: 4,
        core_alloc: Some(CoreAllocConfig::default()),
        utimer_period: None,
    };
    let mut m = Machine::new(
        cfg,
        Box::new(ShinjukuShenango::new(Some(Nanos::from_us(30)))),
    );
    let lc = m.add_app("latency-critical", AppKind::Lc);
    let be = m.add_app("batch", AppKind::Be);
    let mut q = EventQueue::new();
    m.start(&mut q);

    // Alternate 10 ms phases: quiet (5 kRPS) and bursty (100 kRPS) of
    // 40 us requests.
    let mut rng = Rng::seed_from_u64(9);
    let mut at = Nanos::ZERO;
    let horizon = Nanos::from_ms(100);
    while at < horizon {
        let phase = (at.0 / 10_000_000) % 2;
        let gap = if phase == 0 { 200_000 } else { 10_000 };
        at += Nanos(rng.next_below(2 * gap) + 1);
        q.schedule(
            at,
            Event::Call(Call::Fn(Box::new(|m, q| {
                m.spawn_request(q, 0, Nanos::from_us(40), 0, None);
            }))),
        );
    }
    m.run(&mut q, horizon);
    let now = q.now();
    println!("LC requests completed : {}", m.stats.completed);
    println!(
        "LC p99                : {:.1} us",
        m.stats.resp_hist.percentile(99.0) as f64 / 1e3
    );
    println!(
        "LC core share         : {:>5.1}%",
        m.app_share(lc, now) * 100.0
    );
    println!(
        "batch core share      : {:>5.1}%",
        m.app_share(be, now) * 100.0
    );
    println!("allocator grants      : {}", m.stats.be_grants);
    println!("allocator revokes     : {}", m.stats.be_revokes);
    println!("inter-app switches    : {}", m.stats.app_switches);
    m.kmod
        .check_binding_rule()
        .expect("single binding rule held");
    println!("single binding rule   : held for the whole run");
    assert!(m.stats.be_grants > 0 && m.stats.be_revokes > 0);
    assert!(
        m.app_share(be, now) > 0.2,
        "batch should reclaim idle capacity"
    );
}
