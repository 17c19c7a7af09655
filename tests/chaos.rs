//! Chaos-layer regression tests (DESIGN.md §9): recovery survives each
//! injected fault class, validated end to end through the invariant
//! checker (enabled and panicking by default in debug builds, so every
//! `m.run` below doubles as an invariant sweep through the faults).

use skyloft::machine::{AppKind, Call, Event, Machine, MachineConfig};
use skyloft::{CoreAllocConfig, FaultPlan, Platform, RecoveryConfig};
use skyloft_apps::synthetic::{dispersive, dispersive_threshold, install_open_loop, Placement};
use skyloft_hw::Topology;
use skyloft_net::OpenLoop;
use skyloft_policies::{RoundRobin, WorkStealing};
use skyloft_sim::{EventQueue, Nanos};

/// A per-CPU Skyloft machine (user timers at 100 kHz) with `apps`
/// latency-critical applications; the plan, if any, is installed before
/// start so the recovery machinery activates with it.
fn percpu(
    workers: usize,
    apps: usize,
    plan: Option<FaultPlan>,
    recovery_on: bool,
) -> (Machine, EventQueue<Event>) {
    let cfg = MachineConfig {
        plat: Platform::skyloft_percpu(Topology::single(workers + 1), 100_000),
        n_workers: workers,
        seed: 42,
        core_alloc: None,
        utimer_period: None,
    };
    let mut m = Machine::new(cfg, Box::new(WorkStealing::new(Some(Nanos::from_us(30)))));
    for i in 0..apps {
        m.add_app(&format!("app{i}"), AppKind::Lc);
    }
    if !recovery_on {
        m.recovery = RecoveryConfig::disabled();
    }
    if let Some(p) = plan {
        m.install_fault_plan(p);
    }
    let mut q = EventQueue::new();
    m.start(&mut q);
    (m, q)
}

/// Keeps every worker core busy so user timers keep firing.
fn busy_all_cores(m: &mut Machine, q: &mut EventQueue<Event>, service: Nanos) {
    let cores: Vec<_> = m.worker_cores.clone();
    for core in cores {
        m.spawn_request(q, 0, service, 1, Some(core));
    }
}

#[test]
fn watchdog_rearms_lost_timer_armings() {
    // Every §3.2 re-arm self-IPI is dropped; the watchdog must restore
    // delivery within one period, keeping `timer_lost` inside the
    // checker's fault budget.
    let plan = FaultPlan::seeded(7).drop_arming(1.0);
    let (mut m, mut q) = percpu(2, 1, Some(plan), true);
    busy_all_cores(&mut m, &mut q, Nanos::from_ms(10));
    m.run(&mut q, Nanos::from_ms(5));
    assert!(m.stats.timer_rearms > 0, "watchdog never re-armed");
    // Far more deliveries than the one pre-drop fire per core: recovery
    // keeps the timer alive at roughly one fire per watchdog period.
    assert!(
        m.stats.timer_delivered > 2 * 10,
        "deliveries stopped: {}",
        m.stats.timer_delivered
    );
    assert!(
        m.stats.timer_lost <= m.tracer.checker.allowed_timer_lost,
        "lost {} exceeds the injected-fault budget {}",
        m.stats.timer_lost,
        m.tracer.checker.allowed_timer_lost
    );
    // Each drop is recovered within one watchdog period (25 us = 2.5 tick
    // periods), so losses are a bounded multiple of the drops.
    let dropped = m.chaos.as_ref().unwrap().stats.armings_dropped;
    assert!(
        m.stats.timer_lost <= 4 * dropped,
        "lost {} not bounded by one watchdog period per drop ({dropped} drops)",
        m.stats.timer_lost
    );
}

#[test]
fn without_recovery_a_lost_arming_is_permanent() {
    let plan = FaultPlan::seeded(7).drop_arming(1.0);
    let (mut m, mut q) = percpu(2, 1, Some(plan), false);
    busy_all_cores(&mut m, &mut q, Nanos::from_ms(10));
    m.run(&mut q, Nanos::from_ms(5));
    // One delivered fire per core, then silence: the handler's re-arm was
    // dropped and nothing ever restores it.
    assert_eq!(m.stats.timer_rearms, 0);
    assert_eq!(
        m.stats.timer_delivered, 2,
        "run-to-completion degradation should freeze deliveries"
    );
    assert!(m.worker_cores.iter().any(|&c| m.core_arming_lost(c)));
}

#[test]
fn fault_substitution_rotates_three_apps_on_one_core() {
    // Three applications share one worker core; page faults knock out the
    // active kernel thread three times. Each fault must wake a parked
    // substitute (§6) without ever violating the Single Binding Rule —
    // the debug-build invariant checker panics on any violation mid-run.
    let (mut m, mut q) = percpu(1, 3, Some(FaultPlan::seeded(3)), true);
    for app in 0..3 {
        for _ in 0..20 {
            m.spawn_request(&mut q, app, Nanos::from_us(20), 0, None);
        }
    }
    for t in [100, 300, 500] {
        q.schedule(
            Nanos::from_us(t),
            Event::Call(Call::Fn(Box::new(|m: &mut Machine, q| {
                let injected = m.inject_page_fault(q, 0, Nanos::from_us(50));
                assert!(injected, "core 0 had no active thread to fault");
            }))),
        );
    }
    m.run(&mut q, Nanos::from_ms(20));
    assert!(
        m.stats.fault_substitutions >= 3,
        "substitutions {}",
        m.stats.fault_substitutions
    );
    assert_eq!(m.stats.fault_blocks, 3);
    assert_eq!(m.stats.fault_resolves, 3);
    assert_eq!(m.stats.completed, 60, "all requests finish despite faults");
    m.kmod.check_binding_rule().unwrap();
}

#[test]
fn stalled_worker_runqueue_migrates_to_healthy_siblings() {
    // RoundRobin keeps strictly per-core queues (no stealing), so work
    // queued behind a stalled core is stuck unless the watchdog migrates
    // it.
    let cfg = MachineConfig {
        plat: Platform::skyloft_percpu(Topology::single(3), 100_000),
        n_workers: 2,
        seed: 42,
        core_alloc: None,
        utimer_period: None,
    };
    let mut m = Machine::new(cfg, Box::new(RoundRobin::new(Some(Nanos::from_us(30)))));
    m.add_app("app0", AppKind::Lc);
    m.install_fault_plan(FaultPlan::seeded(5));
    let mut q = EventQueue::new();
    m.start(&mut q);
    m.spawn_request(&mut q, 0, Nanos::from_ms(3), 1, Some(0));
    m.spawn_request(&mut q, 0, Nanos::from_ms(3), 1, Some(1));
    for _ in 0..5 {
        m.spawn_request(&mut q, 0, Nanos::from_us(100), 0, Some(0));
    }
    q.schedule(
        Nanos::from_us(50),
        Event::Call(Call::Fn(Box::new(|m: &mut Machine, q| {
            assert!(m.inject_stall(q, 0, Nanos::from_ms(1)));
        }))),
    );
    m.run(&mut q, Nanos::from_ms(10));
    assert!(m.stats.stalls_detected >= 1, "stall never detected");
    assert!(
        m.stats.tasks_migrated >= 1,
        "queued work stayed behind the stalled core"
    );
    assert_eq!(m.stats.completed, 7);
}

#[test]
fn revoke_retries_survive_dropped_ipis() {
    // Centralized policy + core allocator: when the LC app floods after an
    // idle phase, the allocator revokes BE cores via IPIs — half of which
    // the plan drops. Bounded retries must still complete the revokes.
    let alloc = CoreAllocConfig {
        interval: Nanos::from_us(5),
        congestion_delay: Nanos::from_us(10),
        grant_after_idle_checks: 2,
    };
    let cfg = MachineConfig {
        plat: Platform::skyloft_centralized(Topology::single(3)),
        n_workers: 2,
        seed: 42,
        core_alloc: Some(alloc),
        utimer_period: None,
    };
    let mut m = Machine::new(
        cfg,
        Box::new(skyloft::builtin::CentralizedFcfs::new(Some(
            Nanos::from_us(30),
        ))),
    );
    m.add_app("lc", AppKind::Lc);
    m.add_app("batch", AppKind::Be);
    m.install_fault_plan(FaultPlan::seeded(9).drop_revoke(0.5));
    let mut q = EventQueue::new();
    m.start(&mut q);
    // Idle LC: cores flow to the BE app.
    m.run(&mut q, Nanos::from_ms(1));
    assert!(m.stats.be_grants >= 1, "grants {}", m.stats.be_grants);
    // Flood: cores must come back despite dropped revoke IPIs.
    for _ in 0..500 {
        m.spawn_request(&mut q, 0, Nanos::from_us(100), 0, None);
    }
    m.run(&mut q, Nanos::from_ms(60));
    let dropped = m.chaos.as_ref().unwrap().stats.revokes_dropped;
    assert!(dropped >= 1, "plan never dropped a revoke");
    assert!(m.stats.ipi_retries >= 1, "no retries despite drops");
    assert!(m.stats.be_revokes >= 1, "revokes never completed");
    assert!(m.stats.completed >= 500, "completed {}", m.stats.completed);
    m.kmod.check_binding_rule().unwrap();
}

/// Dispersive p99 of a short fig7a-shaped run; `faulty` installs the
/// acceptance plan (1% arming loss + page faults) with a standby app for
/// substitution.
fn dispersive_p99(faulty: bool, recovery_on: bool) -> Nanos {
    let plan = faulty.then(|| {
        FaultPlan::seeded(0xFA_1175)
            .drop_arming(0.01)
            .page_faults(Nanos::from_ms(2), Nanos::from_us(100))
    });
    let (mut m, mut q) = percpu(8, 2, plan, recovery_on);
    let warmup = Nanos::from_ms(10);
    let end = warmup + Nanos::from_ms(40);
    let gen = OpenLoop::new(100_000.0, dispersive(), dispersive_threshold(), 0x0D15);
    install_open_loop(&mut q, gen, 0, Placement::Queue, end);
    m.run(&mut q, warmup);
    m.reset_stats(q.now());
    m.run(&mut q, end);
    assert!(m.stats.completed > 1_000, "completed {}", m.stats.completed);
    Nanos(m.stats.resp_hist.percentile(99.0))
}

#[test]
fn recovered_p99_stays_within_2x_of_fault_free() {
    let base = dispersive_p99(false, true);
    let faulted = dispersive_p99(true, true);
    assert!(
        faulted <= Nanos(base.0 * 2),
        "p99 under recovered faults {} us vs fault-free {} us",
        faulted.as_us(),
        base.as_us()
    );
}

mod dataplane_plans {
    use super::*;
    use proptest::prelude::*;
    use skyloft_apps::synthetic::{install_tenants, OverloadControl, Tenant};
    use skyloft_net::{LossModel, NicConfig};

    proptest! {
        /// Conservation invariant #8 (DESIGN.md §13): every datagram the
        /// client generated lands in exactly one terminal bucket —
        /// delivered, ring tail-drop, AQM shed, admission shed, or a
        /// retry replacing a lost attempt — no matter what the
        /// data-plane fault plan does to the polling core (dropped or
        /// delayed poll rounds) or the RSS indirection table (wedged
        /// entries), with or without the overload-control layers armed,
        /// and with or without wire loss feeding the retry client.
        #[test]
        fn net_ledger_balances_under_random_fault_plans(
            seed in 0u64..u64::MAX,
            drop_poll_bp in 0u32..2_000,
            delay_poll_bp in 0u32..3_000,
            sticks in prop::bool::ANY,
            wire_loss_bp in 0u32..1_500,
            rate_krps in 200u64..2_000,
            full_ctl in prop::bool::ANY,
        ) {
            let mut plan = FaultPlan::seeded(seed)
                .drop_rx_polls(drop_poll_bp as f64 / 10_000.0)
                .delay_rx_polls(delay_poll_bp as f64 / 10_000.0, Nanos::from_us(3));
            if sticks {
                plan = plan.stuck_indirections(Nanos::from_ms(1), Nanos::from_us(200));
            }
            // 3 workers x 2 us saturate at 1.5M rps; rates span 0.13x
            // to 1.33x so both regimes (drained and shedding) occur.
            let (mut m, mut q) = percpu(3, 1, Some(plan), true);
            let gen = OpenLoop::new(
                rate_krps as f64 * 1_000.0,
                skyloft_sim::Distribution::Constant(Nanos::from_us(2)),
                dispersive_threshold(),
                seed ^ 0x5EED,
            );
            let net = (wire_loss_bp > 0).then(|| LossModel::new(
                seed ^ 9,
                wire_loss_bp as f64 / 10_000.0,
                0.0,
            ));
            let ctl = if full_ctl {
                OverloadControl::full()
            } else {
                OverloadControl::default()
            };
            let mut nic = NicConfig::for_workers(3);
            nic.client_timeout = Nanos::from_ms(1);
            let tenant = Tenant { gen, app: 0, class: None };
            install_tenants(&mut q, vec![tenant], nic, Nanos::from_ms(4), net, ctl);
            // Run far past the last timeout + backoff so every attempt
            // resolves: the ledger must balance with nothing in flight.
            m.run(&mut q, Nanos::from_ms(40));
            let s = &m.stats;
            prop_assert!(s.net_generated > 0, "generator never offered load");
            prop_assert_eq!(s.net_in_flight, 0, "datagrams still in flight after drain");
            prop_assert!(
                s.ledger_violations().is_empty(),
                "ledger out of balance: {:?}",
                s.ledger_violations()
            );
            prop_assert!(m.tracer.checker.violations().is_empty());
        }
    }

    proptest! {
        /// Conservation invariant #9 (DESIGN.md §16): under multi-tenant
        /// load every per-class ledger balances on its own *and* the
        /// class arrays sum to the global counters, no matter what the
        /// data-plane fault plan injects. Classes are where overload
        /// *policy* differs (batch is shed first), so attribution, not
        /// just totals, must survive chaos — a shed billed to the wrong
        /// class would silently break every isolation claim downstream.
        #[test]
        fn class_ledgers_balance_under_random_fault_plans(
            seed in 0u64..u64::MAX,
            drop_poll_bp in 0u32..2_000,
            delay_poll_bp in 0u32..3_000,
            sticks in prop::bool::ANY,
            wire_loss_bp in 0u32..1_500,
            lc_krps in 100u64..900,
            batch_krps in 10u64..120,
            with_retry in prop::bool::ANY,
        ) {
            use skyloft_net::{AdmissionConfig, CodelConfig, RetryPolicy};

            let mut plan = FaultPlan::seeded(seed)
                .drop_rx_polls(drop_poll_bp as f64 / 10_000.0)
                .delay_rx_polls(delay_poll_bp as f64 / 10_000.0, Nanos::from_us(3));
            if sticks {
                plan = plan.stuck_indirections(Nanos::from_ms(1), Nanos::from_us(200));
            }
            let (mut m, mut q) = percpu(3, 2, Some(plan), true);
            let lc = Tenant {
                gen: OpenLoop::new(
                    lc_krps as f64 * 1_000.0,
                    skyloft_sim::Distribution::Constant(Nanos::from_us(2)),
                    dispersive_threshold(),
                    seed ^ 0x1C,
                ),
                app: 0,
                class: Some(0),
            };
            let batch = Tenant {
                gen: OpenLoop::new(
                    batch_krps as f64 * 1_000.0,
                    skyloft_sim::Distribution::Constant(Nanos::from_us(20)),
                    dispersive_threshold(),
                    seed ^ 0xBA,
                ),
                app: 1,
                class: Some(1),
            };
            let net = (wire_loss_bp > 0).then(|| LossModel::new(
                seed ^ 9,
                wire_loss_bp as f64 / 10_000.0,
                0.0,
            ));
            let mut adm = AdmissionConfig::default();
            adm.class_slo[0] = Some(Nanos::from_us(200));
            adm.class_slo[1] = Some(Nanos::from_ms(2));
            let ctl = skyloft_apps::synthetic::OverloadControl {
                codel: Some(CodelConfig::default()),
                admission: Some(adm),
                retry: with_retry.then(RetryPolicy::default),
                retry_frac: with_retry.then(|| {
                    let mut f = [None; skyloft_net::overload::MAX_CLASSES];
                    f[0] = Some(80);
                    f[1] = Some(20);
                    f
                }),
            };
            let mut nic = NicConfig::for_workers(3);
            nic.client_timeout = Nanos::from_ms(1);
            install_tenants(&mut q, vec![lc, batch], nic, Nanos::from_ms(3), net, ctl);
            m.run(&mut q, Nanos::from_ms(30));
            let s = &m.stats;
            prop_assert!(s.net_generated > 0, "generators never offered load");
            prop_assert_eq!(s.net_in_flight, 0, "datagrams still in flight after drain");
            prop_assert!(s.in_flight_by_class.iter().all(|&c| c == 0));
            // The class arrays tile the global counters exactly, and each
            // class's ledger balances independently: per-class
            // conservation is what proves one tenant's losses are never
            // laundered through another's counters.
            prop_assert!(
                s.ledger_violations().is_empty(),
                "class ledger out of balance: {:?}",
                s.ledger_violations()
            );
            prop_assert!(m.tracer.checker.violations().is_empty());
        }
    }
}

mod scoped_plans {
    use super::*;

    /// The stats a fault plan can perturb, in one comparable bundle.
    fn fingerprint(m: &Machine) -> (u64, u64, u64, u64, u64) {
        (
            m.stats.completed,
            m.stats.timer_delivered,
            m.stats.timer_lost,
            m.stats.timer_rearms,
            m.stats.resp_hist.count(),
        )
    }

    /// Scoping a plan to an app that never runs suppresses every fault
    /// *effect* — the run must replay the fault-free twin exactly — while
    /// still consuming the injection RNG draw-then-filter style, so the
    /// suppressed schedule is the one a matching app would have seen.
    #[test]
    fn fault_scope_to_an_idle_app_replays_the_fault_free_run() {
        let run = |plan: Option<FaultPlan>| {
            let (mut m, mut q) = percpu(2, 2, plan, true);
            busy_all_cores(&mut m, &mut q, Nanos::from_us(400));
            for _ in 0..50 {
                m.spawn_request(&mut q, 0, Nanos::from_us(100), 0, None);
            }
            m.run(&mut q, Nanos::from_ms(5));
            m
        };
        // Probability faults only: they draw inside existing machine
        // paths without scheduling events of their own, so the replay
        // claim is exact, not approximate.
        let plan = FaultPlan::seeded(21)
            .drop_arming(1.0)
            .drop_preempt(0.8)
            .drop_revoke(0.8)
            .scope_to_app(1);
        let scoped = run(Some(plan));
        let clean = run(None);
        assert_eq!(fingerprint(&scoped), fingerprint(&clean));
        let cs = scoped.chaos.as_ref().unwrap().stats;
        assert_eq!(
            cs.armings_dropped, 0,
            "idle-app scope must suppress effects"
        );
        assert_eq!(cs.preempts_dropped + cs.revokes_dropped, 0);
        assert!(scoped
            .worker_cores
            .iter()
            .all(|&c| !scoped.core_arming_lost(c)));
        assert_eq!(scoped.stats.completed, 52, "all work finishes fault-free");
    }

    /// The other end of draw-then-filter: when the scope matches every
    /// core the faults would have hit anyway (one app, all cores busy on
    /// it), the scoped plan replays the unscoped plan bit-identically —
    /// adding a scope never re-seeds or re-orders the injection RNG.
    #[test]
    fn fault_scope_matching_every_active_core_replays_the_unscoped_run() {
        let run = |scoped: bool| {
            let mut plan = FaultPlan::seeded(77).drop_arming(0.5);
            if scoped {
                plan = plan.scope_to_app(0);
            }
            let (mut m, mut q) = percpu(2, 1, Some(plan), true);
            // Every core stays busy on app 0 for the whole run, so
            // `cur_app` always matches the scope and no draw is filtered.
            busy_all_cores(&mut m, &mut q, Nanos::from_ms(10));
            m.run(&mut q, Nanos::from_ms(5));
            m
        };
        let unscoped = run(false);
        let scoped = run(true);
        assert_eq!(fingerprint(&unscoped), fingerprint(&scoped));
        let (u, s) = (
            unscoped.chaos.as_ref().unwrap().stats,
            scoped.chaos.as_ref().unwrap().stats,
        );
        assert_eq!(u.armings_dropped, s.armings_dropped);
        assert!(
            u.armings_dropped > 0,
            "plan never fired; replay claim vacuous"
        );
    }
}

mod random_plans {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// With recovery on, any plan drawn from the fault space leaves the
        /// machine invariant-clean (the debug checker panics mid-run
        /// otherwise) and all work completes. Probabilities are drawn in
        /// basis points (the vendored proptest has integer strategies).
        #[test]
        fn machine_invariants_hold_under_random_fault_plans(
            seed in 0u64..u64::MAX,
            arming_bp in 0u32..500,
            preempt_bp in 0u32..3_000,
            revoke_bp in 0u32..3_000,
            page_faults in prop::bool::ANY,
            stalls in prop::bool::ANY,
            workers in 2usize..5,
            rate_krps in 40u64..120,
        ) {
            let mut plan = FaultPlan::seeded(seed)
                .drop_arming(arming_bp as f64 / 10_000.0)
                .drop_preempt(preempt_bp as f64 / 10_000.0)
                .delay_preempt(0.2, Nanos::from_us(5))
                .drop_revoke(revoke_bp as f64 / 10_000.0);
            if page_faults {
                plan = plan.page_faults(Nanos::from_ms(1), Nanos::from_us(80));
            }
            if stalls {
                plan = plan.stalls(Nanos::from_ms(2), Nanos::from_us(150));
            }
            let (mut m, mut q) = percpu(workers, 2, Some(plan), true);
            let end = Nanos::from_ms(6);
            let gen = OpenLoop::new(
                rate_krps as f64 * 1_000.0,
                skyloft_sim::Distribution::Constant(Nanos::from_us(15)),
                dispersive_threshold(),
                seed ^ 0xABCD,
            );
            install_open_loop(&mut q, gen, 0, Placement::Queue, end);
            m.run(&mut q, Nanos::from_ms(12));
            prop_assert!(m.tracer.checker.checks_run() > 0, "checker never ran");
            prop_assert!(m.tracer.checker.violations().is_empty());
            prop_assert!(m.stats.completed > 0);
            m.kmod.check_binding_rule().unwrap();
        }
    }
}
