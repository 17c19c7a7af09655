//! Chaos sweep: tail latency vs injected fault rate, with and without
//! recovery (DESIGN.md §9).
//!
//! A per-CPU Skyloft machine (user-space timers, work stealing) runs the
//! §5.2 dispersive workload while a seeded [`FaultPlan`] drops §3.2
//! timer-arming self-IPIs at the swept probability and periodically
//! page-faults and stalls running kernel threads. Each fault rate is
//! measured twice: with the recovery layer on (watchdog re-arm, fault
//! substitution, stall migration) and with [`RecoveryConfig::disabled`].
//!
//! The shape this binary asserts is the PR's acceptance bar: with
//! recovery, a 1% arming-loss + page-fault plan keeps p99 within 2x the
//! fault-free baseline and the invariant checker stays clean; without
//! recovery, cores silently lose their timers, preemption dies, and the
//! dispersive tail collapses toward the 10 ms long requests.
//!
//! Flags: `--smoke` (short windows, checker force-enabled — the CI
//! configuration), `--seed <n>` (fault-plan seed; CI runs a fixed seed
//! matrix). Results: `results/chaos_sweep.csv`.

use skyloft::machine::{AppKind, Event, Machine, MachineConfig};
use skyloft::{FaultPlan, Platform, RecoveryConfig};
use skyloft_apps::synthetic::{dispersive, dispersive_threshold, install_open_loop, Placement};
use skyloft_bench::{out, scaled, setup, Flags};
use skyloft_hw::Topology;
use skyloft_metrics::Table;
use skyloft_net::OpenLoop;
use skyloft_policies::WorkStealing;
use skyloft_sim::{EventQueue, Nanos};

/// Worker cores. Capacity = 8 / 53.98 us ~= 148 kRPS.
const WORKERS: usize = 8;
/// User-space timer frequency (Table 5's 100 kHz).
const TIMER_HZ: u64 = 100_000;
/// Offered load: ~two-thirds of capacity, the fig7a knee region.
const RATE: f64 = 100_000.0;
/// Preemption quantum (the paper's best value for dispersive loads).
const QUANTUM: Nanos = setup::FIG7_QUANTUM;

/// One measured (fault rate, recovery mode) cell.
struct Cell {
    p99: Nanos,
    achieved_rps: f64,
    timer_rearms: u64,
    page_faults: u64,
    substitutions: u64,
    migrations: u64,
    violations: usize,
    checked: bool,
}

struct RunCfg {
    seed: u64,
    warmup: Nanos,
    measure: Nanos,
    check: bool,
}

fn build(arming_drop_p: f64, recovery_on: bool, cfg: &RunCfg) -> (Machine, EventQueue<Event>) {
    let machine_cfg = MachineConfig {
        plat: Platform::skyloft_percpu(Topology::single(WORKERS), TIMER_HZ),
        n_workers: WORKERS,
        seed: setup::SEED,
        core_alloc: None,
        utimer_period: None,
    };
    let mut m = Machine::new(machine_cfg, Box::new(WorkStealing::new(Some(QUANTUM))));
    m.add_app("lc", AppKind::Lc);
    // A standby application: its kernel threads park on every worker core
    // so §6 fault substitution has something to wake when the primary's
    // thread page-faults mid-run.
    m.add_app("standby", AppKind::Lc);
    if !recovery_on {
        m.recovery = RecoveryConfig::disabled();
    }
    if arming_drop_p > 0.0 {
        m.install_fault_plan(
            FaultPlan::seeded(cfg.seed ^ (arming_drop_p * 1e6) as u64)
                .drop_arming(arming_drop_p)
                .page_faults(Nanos::from_ms(2), Nanos::from_us(100))
                .stalls(Nanos::from_ms(10), Nanos::from_us(200)),
        );
    }
    if cfg.check {
        m.tracer.checker.enabled = true;
        m.tracer.checker.panic_on_violation = false;
    }
    let mut q = EventQueue::new();
    m.start(&mut q);
    (m, q)
}

fn run_cell(arming_drop_p: f64, recovery_on: bool, cfg: &RunCfg) -> Cell {
    let (mut m, mut q) = build(arming_drop_p, recovery_on, cfg);
    let end = cfg.warmup + cfg.measure;
    let gen = OpenLoop::new(
        RATE,
        dispersive(),
        dispersive_threshold(),
        cfg.seed ^ 0x0D15_9E25,
    );
    install_open_loop(&mut q, gen, 0, Placement::Queue, end);
    m.run(&mut q, cfg.warmup);
    m.reset_stats(q.now());
    m.run(&mut q, end);
    let now = q.now();
    skyloft_bench::dump_trace(
        &m,
        &format!(
            "chaos loss {:.1}%, recovery {}",
            arming_drop_p * 100.0,
            if recovery_on { "on" } else { "off" }
        ),
    );
    let (page_faults, _) = m
        .chaos
        .as_ref()
        .map(|e| (e.stats.page_faults_injected, e.stats.stalls_injected))
        .unwrap_or((0, 0));
    Cell {
        p99: Nanos(m.stats.resp_hist.percentile(99.0)),
        achieved_rps: m.stats.achieved_rps(now),
        timer_rearms: m.stats.timer_rearms,
        page_faults,
        substitutions: m.stats.fault_substitutions,
        migrations: m.stats.tasks_migrated,
        violations: m.tracer.checker.violations().len(),
        checked: m.tracer.checker.enabled,
    }
}

/// Data-plane fault phase: the NIC path (bounded RX rings + polling
/// core) under dropped and delayed RX poll rounds plus periodically
/// wedged RSS indirection entries, with the full overload-control stack
/// armed. What this asserts is conservation invariant #8 (DESIGN.md
/// §13): whatever the faults do to poll timing and flow steering, every
/// generated datagram still lands in exactly one terminal bucket, and
/// the invariant checker stays clean.
fn dataplane_phase(cfg: &RunCfg) {
    use skyloft_apps::synthetic::{install_tenants, OverloadControl, Tenant};
    use skyloft_net::dataplane::NicConfig;

    const DP_WORKERS: usize = 4;
    let machine_cfg = MachineConfig {
        plat: Platform::skyloft_percpu(Topology::single(DP_WORKERS), TIMER_HZ),
        n_workers: DP_WORKERS,
        seed: setup::SEED,
        core_alloc: None,
        utimer_period: None,
    };
    let mut m = Machine::new(machine_cfg, Box::new(WorkStealing::new(Some(QUANTUM))));
    m.add_app("lc", AppKind::Lc);
    m.install_fault_plan(
        FaultPlan::seeded(cfg.seed ^ 0xDA7A)
            .drop_rx_polls(0.01)
            .delay_rx_polls(0.05, Nanos::from_us(3))
            .stuck_indirections(Nanos::from_ms(1), Nanos::from_us(200)),
    );
    if cfg.check {
        m.tracer.checker.enabled = true;
        m.tracer.checker.panic_on_violation = false;
    }
    let mut q = EventQueue::new();
    m.start(&mut q);
    // 4 workers x 2 us saturate at 2 M rps; offer 1.5x so the faults hit
    // a shedding data plane, not an idle one.
    let end = cfg.warmup + cfg.measure;
    let gen = OpenLoop::new(
        3_000_000.0,
        skyloft_sim::Distribution::Constant(Nanos::from_us(2)),
        dispersive_threshold(),
        cfg.seed ^ 0x0D15_DA7A,
    );
    let tenant = Tenant {
        gen,
        app: 0,
        class: None,
    };
    install_tenants(
        &mut q,
        vec![tenant],
        NicConfig::for_workers(DP_WORKERS),
        end,
        None,
        OverloadControl::full(),
    );
    // Run past the last retry timeout so the ledger closes drained.
    m.run(&mut q, end + Nanos::from_ms(20));
    let s = &m.stats;
    let cs = m.chaos.as_ref().expect("plan installed").stats;
    assert!(
        cs.rx_polls_dropped > 0 && cs.rx_polls_delayed > 0 && cs.indirection_sticks > 0,
        "data-plane plan never fired (dropped {}, delayed {}, sticks {})",
        cs.rx_polls_dropped,
        cs.rx_polls_delayed,
        cs.indirection_sticks
    );
    assert!(
        s.ledger_violations().is_empty(),
        "ledger violated under data-plane faults: {:?}",
        s.ledger_violations()
    );
    assert_eq!(s.net_in_flight, 0, "rings never drained");
    assert!(s.completed > 0, "nothing completed under data-plane faults");
    if m.tracer.checker.enabled {
        assert_eq!(
            m.tracer.checker.violations().len(),
            0,
            "invariant violations under data-plane faults"
        );
    }
    let mut t = Table::new(&[
        "polls dropped",
        "polls delayed",
        "sticks",
        "ring drops",
        "aqm drops",
        "adm sheds",
        "retries",
        "completed",
    ]);
    t.row_owned(vec![
        cs.rx_polls_dropped.to_string(),
        cs.rx_polls_delayed.to_string(),
        cs.indirection_sticks.to_string(),
        s.rx_ring_drops.to_string(),
        s.aqm_drops.to_string(),
        s.admission_sheds.to_string(),
        s.retries_spent.to_string(),
        s.completed.to_string(),
    ]);
    out::emit(
        "chaos_sweep_dataplane",
        "Chaos sweep: NIC data plane under poll/steering faults (ledger closed)",
        &t,
    );
}

fn main() {
    let flags = Flags::parse();
    let (smoke, seed) = (flags.smoke, flags.seed.unwrap_or(setup::SEED));

    let cfg = if smoke {
        RunCfg {
            seed,
            warmup: Nanos::from_ms(10),
            measure: Nanos::from_ms(60),
            check: true,
        }
    } else {
        RunCfg {
            seed,
            warmup: scaled(Nanos::from_ms(50)),
            measure: scaled(Nanos::from_ms(300)),
            check: cfg!(debug_assertions),
        }
    };
    let fault_rates: &[f64] = if smoke {
        &[0.0, 0.01]
    } else {
        &[0.0, 0.001, 0.01, 0.05]
    };

    let mut t = Table::new(&[
        "arming loss %",
        "recovery p99 (us)",
        "no-recovery p99 (us)",
        "rearms",
        "page faults",
        "substitutions",
        "migrations",
        "violations",
    ]);
    let mut cells = Vec::new();
    for &p in fault_rates {
        let on = run_cell(p, true, &cfg);
        let off = run_cell(p, false, &cfg);
        eprintln!(
            "chaos_sweep: loss {:.1}% -> p99 {:.1} us (recovery) / {:.1} us (none), \
             achieved {:.0} / {:.0} rps",
            p * 100.0,
            on.p99.as_us(),
            off.p99.as_us(),
            on.achieved_rps,
            off.achieved_rps
        );
        t.row_owned(vec![
            format!("{:.1}", p * 100.0),
            format!("{:.1}", on.p99.as_us()),
            format!("{:.1}", off.p99.as_us()),
            format!("{}", on.timer_rearms),
            format!("{}", on.page_faults),
            format!("{}", on.substitutions),
            format!("{}", on.migrations),
            format!("{}", on.violations),
        ]);
        cells.push((p, on, off));
    }
    out::emit(
        "chaos_sweep",
        "Chaos sweep: dispersive p99 vs timer-arming loss rate (recovery on/off)",
        &t,
    );

    // Shape assertions (the PR's acceptance bar). All runs are seeded, so
    // these are deterministic for a given seed and window.
    let baseline = cells.iter().find(|(p, ..)| *p == 0.0).expect("baseline");
    let onepct = cells.iter().find(|(p, ..)| *p == 0.01).expect("1% point");
    let base_p99 = baseline.1.p99;
    assert!(
        onepct.1.timer_rearms > 0,
        "recovery run never re-armed a lost timer"
    );
    assert!(
        onepct.1.page_faults > 0 && onepct.1.substitutions > 0,
        "page-fault plan should trigger §6 substitutions (faults {}, subs {})",
        onepct.1.page_faults,
        onepct.1.substitutions
    );
    for (p, on, _) in &cells {
        if on.checked {
            assert_eq!(
                on.violations,
                0,
                "invariant violations with recovery at {}% loss",
                p * 100.0
            );
        }
    }
    assert!(
        onepct.1.p99 <= Nanos(base_p99.0 * 2),
        "recovery p99 {} us exceeds 2x fault-free baseline {} us",
        onepct.1.p99.as_us(),
        base_p99.as_us()
    );
    assert!(
        onepct.2.p99 >= Nanos(base_p99.0 * 5),
        "expected collapse without recovery: p99 {} us vs baseline {} us",
        onepct.2.p99.as_us(),
        base_p99.as_us()
    );
    assert_eq!(
        onepct.2.timer_rearms, 0,
        "disabled recovery must not re-arm"
    );
    println!(
        "shape ok: baseline p99 {:.1} us, 1% loss p99 {:.1} us with recovery, {:.1} us without",
        base_p99.as_us(),
        onepct.1.p99.as_us(),
        onepct.2.p99.as_us()
    );

    dataplane_phase(&cfg);
    println!("data-plane faults ok: conservation ledger closed under poll/steering chaos");
}
