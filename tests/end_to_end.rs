//! Cross-crate integration tests: small-scale versions of the paper's
//! claims, run end to end through the full stack (workloads → framework →
//! policies → hardware model).

use skyloft::builtin::GlobalFifo;
use skyloft::machine::{AppKind, Event, Machine, MachineConfig};
use skyloft::{CoreAllocConfig, Platform, SchedParams};
use skyloft_apps::harness::{run_point, SweepSpec};
use skyloft_apps::synthetic::{dispersive, dispersive_threshold, Placement};
use skyloft_hw::Topology;
use skyloft_policies::{Cfs, RoundRobin, Shinjuku, WorkStealing};
use skyloft_sim::{Distribution, EventQueue, Nanos};

fn centralized(
    workers: usize,
    quantum: Option<Nanos>,
    core_alloc: Option<CoreAllocConfig>,
    be: bool,
) -> (Machine, EventQueue<Event>) {
    let cfg = MachineConfig {
        plat: Platform::skyloft_centralized(Topology::single(workers + 1)),
        n_workers: workers,
        seed: 7,
        core_alloc,
        utimer_period: None,
    };
    let mut m = Machine::new(cfg, Box::new(Shinjuku::new(quantum)));
    m.add_app("lc", AppKind::Lc);
    if be {
        m.add_app("batch", AppKind::Be);
    }
    let mut q = EventQueue::new();
    m.start(&mut q);
    (m, q)
}

fn spec(rate: f64) -> SweepSpec {
    SweepSpec {
        class_threshold: dispersive_threshold(),
        placement: Placement::Queue,
        warmup: Nanos::from_ms(20),
        measure: Nanos::from_ms(120),
        ..SweepSpec::new("test", vec![rate], dispersive())
    }
}

/// §5.2's core claim at small scale: with the dispersive workload, the
/// preemptive Shinjuku policy keeps short-request p99 orders of magnitude
/// below non-preemptive FCFS.
#[test]
fn preemption_beats_fcfs_on_dispersive_load() {
    let rate = 120_000.0; // ~87% of an 8-worker machine's capacity
    let preemptive = run_point(&spec(rate), rate, &|| {
        centralized(8, Some(Nanos::from_us(30)), None, false)
    });
    let fcfs = run_point(&spec(rate), rate, &|| centralized(8, None, None, false));
    assert!(
        preemptive.p99_us * 5.0 < fcfs.p99_us,
        "preemptive p99 {:.0}us vs FCFS {:.0}us",
        preemptive.p99_us,
        fcfs.p99_us
    );
}

/// The Single Binding Rule (§3.3) holds through a full multi-application
/// run with the core allocator granting and revoking cores.
#[test]
fn binding_rule_survives_core_allocation_churn() {
    let (mut m, mut q) = centralized(
        4,
        Some(Nanos::from_us(30)),
        Some(CoreAllocConfig::default()),
        true,
    );
    // Alternate idle and busy phases to force grants and revokes.
    for phase in 0..4u64 {
        let start = Nanos::from_ms(phase * 20);
        if phase % 2 == 1 {
            for i in 0..600 {
                q.schedule(
                    start + Nanos(i * 30_000),
                    Event::Call(skyloft::Call::Fn(Box::new(|m, q| {
                        m.spawn_request(q, 0, Nanos::from_us(50), 0, None);
                    }))),
                );
            }
        }
    }
    m.run(&mut q, Nanos::from_ms(90));
    m.kmod.check_binding_rule().expect("binding rule intact");
    assert!(m.stats.be_grants > 0, "allocator granted cores");
    assert!(m.stats.be_revokes > 0, "allocator revoked cores");
    assert!(m.stats.completed >= 1000, "LC work completed");
}

/// Work conservation: at moderate load no task waits while a core idles
/// (throughput equals offered load, well below capacity).
#[test]
fn work_conserving_under_moderate_load() {
    let rate = 50_000.0;
    let p = run_point(&spec(rate), rate, &|| {
        centralized(8, Some(Nanos::from_us(30)), None, false)
    });
    assert!(
        (p.achieved_rps - rate).abs() / rate < 0.05,
        "achieved {:.0} vs offered {rate}",
        p.achieved_rps
    );
}

/// The user-timer delegation stays armed across a whole run: every timer
/// interrupt is recognized (no §3.2 losses) and preemption works.
#[test]
fn timer_delegation_never_loses_interrupts() {
    let cfg = MachineConfig {
        plat: Platform::skyloft_percpu(Topology::single(2), 100_000),
        n_workers: 2,
        seed: 3,
        core_alloc: None,
        utimer_period: None,
    };
    let mut m = Machine::new(cfg, Box::new(RoundRobin::new(Some(Nanos::from_us(50)))));
    m.add_app("a", AppKind::Lc);
    let mut q = EventQueue::new();
    m.start(&mut q);
    for _ in 0..8 {
        m.spawn_request(&mut q, 0, Nanos::from_ms(2), 0, None);
    }
    m.run(&mut q, Nanos::from_ms(20));
    assert_eq!(m.stats.completed, 8);
    assert!(m.stats.timer_delivered > 1000);
    assert_eq!(m.stats.timer_lost, 0, "PIR re-arm must never be missed");
    assert!(m.stats.preemptions > 10);
    assert!(m.uintr.stats.sends_suppressed > 0, "SN self-posts happened");
}

/// Work stealing balances a skewed arrival pattern across cores.
#[test]
fn work_stealing_balances_skewed_arrivals() {
    let cfg = MachineConfig {
        plat: Platform::skyloft_percpu(Topology::single(4), 100_000),
        n_workers: 4,
        seed: 5,
        core_alloc: None,
        utimer_period: None,
    };
    let mut m = Machine::new(cfg, Box::new(WorkStealing::new(None)));
    m.add_app("kv", AppKind::Lc);
    let mut q = EventQueue::new();
    m.start(&mut q);
    // All requests pinned to core 0's queue; thieves must spread them.
    for i in 0..400u64 {
        q.schedule(
            Nanos(i * 2_000),
            Event::Call(skyloft::Call::Fn(Box::new(|m, q| {
                m.spawn_request(q, 0, Nanos::from_us(30), 0, Some(0));
            }))),
        );
    }
    m.run(&mut q, Nanos::from_ms(20));
    assert_eq!(m.stats.completed, 400);
    // 400 x 30 us = 12 ms of work arriving within ~0.8 ms: one core alone
    // would need ~12 ms, four balanced cores ~3 ms. Stealing must finish
    // well under the single-core bound.
    assert!(
        m.stats.last_completion < Nanos::from_ms(6),
        "work did not spread: finished at {:?}",
        m.stats.last_completion
    );
}

/// Identical seeds give bit-identical experiment results (the determinism
/// the harness depends on).
#[test]
fn full_machine_runs_are_deterministic() {
    let run = || {
        let rate = 90_000.0;
        run_point(&spec(rate), rate, &|| {
            centralized(8, Some(Nanos::from_us(30)), None, false)
        })
    };
    assert_eq!(run(), run());
}

/// CFS gives a low-weight batch task a proportional share while LC
/// requests keep flowing (the per-CPU half of §5.2).
#[test]
fn cfs_weight_proportional_sharing() {
    let cfg = MachineConfig {
        plat: Platform::skyloft_percpu(Topology::single(2), 100_000),
        n_workers: 2,
        seed: 11,
        core_alloc: None,
        utimer_period: None,
    };
    let mut m = Machine::new(cfg, Box::new(Cfs::new(SchedParams::SKYLOFT_CFS)));
    m.add_app("lc", AppKind::Lc);
    let be = m.add_app("batch", AppKind::Be);
    let mut q = EventQueue::new();
    m.start(&mut q);
    skyloft_apps::batch::spawn_percpu_batch(
        &mut m,
        &mut q,
        be,
        Nanos::from_us(50),
        skyloft_apps::batch::NICE19_WEIGHT,
    );
    for i in 0..500u64 {
        q.schedule(
            Nanos(i * 40_000),
            Event::Call(skyloft::Call::Fn(Box::new(|m, q| {
                m.spawn_request(q, 0, Nanos::from_us(25), 0, None);
            }))),
        );
    }
    m.run(&mut q, Nanos::from_ms(25));
    assert_eq!(m.stats.completed, 500);
    let lc_share = m.app_share(0, q.now());
    let be_share = m.app_share(be, q.now());
    // LC demand is ~25% of two cores; batch soaks most of the rest.
    assert!((0.15..=0.45).contains(&lc_share), "lc share {lc_share}");
    assert!(be_share > 0.5, "batch share {be_share}");
    // And the requests were not starved by the spinning batch.
    assert!(
        m.stats.resp_hist.percentile(99.0) < 3_000_000,
        "p99 {}",
        m.stats.resp_hist.percentile(99.0)
    );
}

/// The cross-application switch path charges the measured 1905 ns and the
/// kernel module sees every switch.
#[test]
fn inter_app_switching_cost_is_charged() {
    let cfg = MachineConfig {
        plat: Platform::skyloft_percpu(Topology::single(1), 100_000),
        n_workers: 1,
        seed: 13,
        core_alloc: None,
        utimer_period: None,
    };
    let mut m = Machine::new(cfg, Box::new(GlobalFifo::new()));
    m.add_app("a", AppKind::Lc);
    m.add_app("b", AppKind::Lc);
    let mut q = EventQueue::new();
    m.start(&mut q);
    for i in 0..100 {
        m.spawn_request(&mut q, i % 2, Nanos::from_us(5), 0, Some(0));
    }
    m.run(&mut q, Nanos::from_ms(5));
    assert_eq!(m.stats.completed, 100);
    assert_eq!(m.stats.app_switches, 99);
    assert_eq!(m.kmod.stats.switches, 99);
    // End-to-end must include ~99 x 1868ns of kernel switching.
    let total = m.stats.last_completion;
    assert!(
        total > Nanos(100 * 5_000 + 99 * 1_800),
        "total {total:?} too fast for 99 inter-app switches"
    );
}

/// Shenango's model (no preemption) head-of-line blocks the bimodal
/// workload while Skyloft's 5 μs quantum does not — Figure 8b's mechanism
/// at unit-test scale.
#[test]
fn shenango_hol_blocks_bimodal_skyloft_does_not() {
    let bimodal = Distribution::Bimodal {
        p_long: 0.5,
        short: Nanos(950),
        long: Nanos::from_us(591),
    };
    let mut sp = SweepSpec {
        class_threshold: Nanos::from_us(10),
        placement: Placement::Rss(skyloft_net::NicConfig::for_workers(4)),
        warmup: Nanos::from_ms(20),
        measure: Nanos::from_ms(150),
        ..SweepSpec::new("t", vec![10_000.0], bimodal)
    };
    sp.seed = 99;
    let sky = run_point(&sp, 10_000.0, &|| {
        let cfg = MachineConfig {
            plat: Platform::skyloft_percpu(Topology::single(4), 200_000),
            n_workers: 4,
            seed: 9,
            core_alloc: None,
            utimer_period: None,
        };
        let mut m = Machine::new(cfg, Box::new(WorkStealing::new(Some(Nanos::from_us(5)))));
        m.add_app("kv", AppKind::Lc);
        let mut q = EventQueue::new();
        m.start(&mut q);
        (m, q)
    });
    let shen = run_point(&sp, 10_000.0, &|| {
        let cfg = MachineConfig {
            plat: skyloft_baselines::shenango::platform(Topology::single(4)),
            n_workers: 4,
            seed: 9,
            core_alloc: None,
            utimer_period: None,
        };
        let mut m = Machine::new(cfg, Box::new(skyloft_baselines::shenango::work_stealing()));
        m.add_app("kv", AppKind::Lc);
        let mut q = EventQueue::new();
        m.start(&mut q);
        (m, q)
    });
    let sky_slow = sky.slowdown_p999.unwrap();
    let shen_slow = shen.slowdown_p999.unwrap();
    assert!(
        sky_slow * 2.0 < shen_slow,
        "skyloft p999 slowdown {sky_slow:.0}x vs shenango {shen_slow:.0}x"
    );
}
