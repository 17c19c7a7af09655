//! Multi-tenant SLO-class isolation sweep (DESIGN.md §16): a 200 µs
//! latency-critical tenant co-located with a 5 ms batch tenant on one
//! 4-worker machine, total offered work swept from 0.5x to 3x capacity
//! while the LC tenant's own rate stays fixed at half the machine. The
//! full class stack is armed: per-class deadline admission at the polling
//! core, the runqueue AQM (batch's loose SLO makes it the sheddable
//! class), displacement (each LC admission shed condemns the oldest
//! queued batch request), and per-class retry provisioning.
//!
//! The shape this binary records is the PR's acceptance bar: under mixed
//! overload the batch class pays for the congestion — it is shed first,
//! at the scheduler and the NIC — and the LC tenant's goodput at 2x-3x
//! holds at least 90% of its *solo* plateau (the same machine with the
//! batch tenant absent). The 0.5x point offers zero batch load, pinning
//! the degenerate empty-schedule path through the tenant installer.
//!
//! Results go to `results/slo_sweep.csv`; `--write` records the gate
//! metrics as the `slo_sweep` section of the repo-root `BENCH_net.json`
//! (canonical runs only);
//! `--check` gates CI on the isolation shape plus a regression bound
//! against the stored LC goodput; `--smoke` shortens the windows to the
//! CI configuration; `--seed N` reseeds machine and generators (CI runs
//! seeds 1, 7 and 2024).

use skyloft::builtin::GlobalFifo;
use skyloft::conf::{RunqueueAqmConfig, SloClass};
use skyloft::machine::{AppKind, Event, Machine, MachineConfig};
use skyloft::Platform;
use skyloft_apps::harness::{par_map, sweep_threads, trace_arg};
use skyloft_apps::synthetic::{install_tenants, OverloadControl, Tenant};
use skyloft_bench::baseline::Gate;
use skyloft_bench::{out, scaled, Flags};
use skyloft_hw::Topology;
use skyloft_metrics::Table;
use skyloft_net::dataplane::NicConfig;
use skyloft_net::loadgen::OpenLoop;
use skyloft_net::{AdmissionConfig, CodelConfig, RetryPolicy};
use skyloft_sim::{Distribution, EventQueue, Nanos};

const WORKERS: usize = 4;
/// The latency-critical tenant: 2 µs requests against a 200 µs deadline,
/// at a fixed 1M rps — half the machine's work capacity.
const LC_SLO: Nanos = Nanos::from_us(200);
const LC_SERVICE: Nanos = Nanos::from_us(2);
const LC_RATE: f64 = 1_000_000.0;
/// The batch tenant: 50 µs requests against a 5 ms deadline; its rate is
/// what the sweep varies.
const BATCH_SLO: Nanos = Nanos::from_ms(5);
const BATCH_SERVICE: Nanos = Nanos::from_us(50);
const TIMEOUT: Nanos = Nanos::from_ms(1);

/// Total offered work as a multiple of machine capacity. LC holds 2 of
/// the 4 cores' worth; batch supplies the rest (zero at 0.5x).
fn mults() -> Vec<f64> {
    vec![0.5, 0.75, 1.0, 1.5, 2.0, 2.5, 3.0]
}

/// Indices of the overload gate points (2x and 3x total load).
const TWO_X: usize = 4;
const THREE_X: usize = 6;

/// Batch rps for a total-load multiple: the cores of demand left after
/// the LC tenant's fixed two, divided by the batch service time.
fn batch_rate(mult: f64) -> f64 {
    let batch_cores = (mult * WORKERS as f64 - 2.0).max(0.0);
    batch_cores / BATCH_SERVICE.as_secs()
}

/// A machine with the full class stack armed: registered SLO classes,
/// and the runqueue AQM with a CoDel interval tightened for
/// microsecond-scale services (the shed rate scales as
/// sqrt(count)/interval, and at ~1M rps the 500 µs default cannot shed
/// excess batch work as fast as it arrives).
fn build(seed: u64) -> (Machine, EventQueue<Event>) {
    let cfg = MachineConfig {
        plat: Platform::skyloft_percpu(Topology::single(WORKERS), 100_000),
        n_workers: WORKERS,
        seed,
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
    (m, q)
}

/// The controller under test: per-class deadline admission, ring CoDel,
/// and retry budgets provisioned per class from each [`SloClass`]'s
/// `retry_frac` (LC's larger share survives a batch timeout storm).
fn controller() -> OverloadControl {
    let mut adm = AdmissionConfig::default();
    adm.class_slo[0] = Some(LC_SLO);
    adm.class_slo[1] = Some(BATCH_SLO);
    let mut frac = [None; skyloft_net::overload::MAX_CLASSES];
    frac[0] = Some(SloClass::latency_critical(LC_SLO).retry_frac);
    frac[1] = Some(SloClass::batch(BATCH_SLO).retry_frac);
    OverloadControl {
        codel: Some(CodelConfig::default()),
        admission: Some(adm),
        retry: Some(RetryPolicy::default()),
        retry_frac: Some(frac),
    }
}

/// One measured sweep point (per-class goodput over the post-warmup
/// window; shed counters are window-scoped by subtracting the warmup
/// snapshot, since conservation ledgers survive `reset_stats`).
struct SloPoint {
    mult: f64,
    lc_offered: f64,
    batch_offered: f64,
    lc_goodput_rps: f64,
    batch_goodput_rps: f64,
    lc_p99_us: f64,
    lc_loss_frac: f64,
    batch_loss_frac: f64,
    rq_sheds: u64,
    lc_rq_sheds: u64,
    adm_sheds: [u64; 2],
    aqm_drops: u64,
    ring_drops: u64,
}

fn run_point(mult: f64, solo: bool, seed: u64, smoke: bool) -> SloPoint {
    let (mut m, mut q) = build(seed);
    let (warm_ms, run_ms) = if smoke { (5, 20) } else { (20, 100) };
    let warmup = scaled(Nanos::from_ms(warm_ms));
    let end = warmup + scaled(Nanos::from_ms(run_ms));
    let lc = Tenant {
        gen: OpenLoop::new(
            LC_RATE,
            Distribution::Constant(LC_SERVICE),
            Nanos::from_us(100),
            seed ^ 0x1C,
        ),
        app: 0,
        class: Some(0),
    };
    let batch_rps = if solo { 0.0 } else { batch_rate(mult) };
    let batch = Tenant {
        gen: OpenLoop::new(
            batch_rps,
            Distribution::Constant(BATCH_SERVICE),
            Nanos::from_us(100),
            seed ^ 0xBA7C,
        ),
        app: 1,
        class: Some(1),
    };
    let mut nic = NicConfig::for_workers(WORKERS);
    nic.client_timeout = TIMEOUT;
    install_tenants(&mut q, vec![lc, batch], nic, end, None, controller());
    m.run(&mut q, warmup);
    let warm = (
        m.stats.rq_sheds,
        m.stats.rq_sheds_by_class,
        m.stats.sheds_by_class,
        m.stats.aqm_drops,
        m.stats.rx_ring_drops,
        m.stats.generated_by_class,
        m.stats.delivered_by_class,
    );
    m.reset_stats(q.now());
    // Run far past `end` so retries resolve and the rings drain before
    // the ledger is read.
    m.run(&mut q, end + Nanos::from_ms(20));
    let s = &m.stats;
    // Conservation on every point: invariants #8 and #9, globally and
    // class by class.
    assert!(
        s.ledger_violations().is_empty(),
        "ledger violated at {mult}x (solo {solo}): {:?}",
        s.ledger_violations()
    );
    assert_eq!(s.net_in_flight, 0, "rings not drained at {mult}x");
    let dt = (end - s.since).as_secs();
    let lost = |c: usize| {
        (s.sheds_by_class[c] - warm.2[c])
            + (s.rx_drops_by_class[c])
            + (s.rq_sheds_by_class[c] - warm.1[c])
    };
    let gen_win = |c: usize| s.generated_by_class[c].saturating_sub(warm.5[c]).max(1);
    SloPoint {
        mult,
        lc_offered: LC_RATE,
        batch_offered: batch_rps,
        lc_goodput_rps: s.resp_by_class[0].count_le(LC_SLO.0) as f64 / dt,
        batch_goodput_rps: s.resp_by_class[1].count_le(BATCH_SLO.0) as f64 / dt,
        lc_p99_us: s.resp_by_class[0].percentile(99.0) as f64 / 1000.0,
        lc_loss_frac: lost(0) as f64 / gen_win(0) as f64,
        batch_loss_frac: lost(1) as f64 / gen_win(1) as f64,
        rq_sheds: s.rq_sheds - warm.0,
        lc_rq_sheds: s.rq_sheds_by_class[0] - warm.1[0],
        adm_sheds: [
            s.sheds_by_class[0] - warm.2[0],
            s.sheds_by_class[1] - warm.2[1],
        ],
        aqm_drops: s.aqm_drops - warm.3,
        ring_drops: s.rx_ring_drops - warm.4,
    }
}

fn series_json(solo: &SloPoint, points: &[SloPoint], indent: &str) -> String {
    let p2 = &points[TWO_X];
    let p3 = &points[THREE_X];
    format!(
        "{indent}\"lc_solo_goodput_rps\": {:.0},\n\
         {indent}\"lc_goodput_2x_rps\": {:.0},\n\
         {indent}\"lc_goodput_3x_rps\": {:.0},\n\
         {indent}\"batch_goodput_2x_rps\": {:.0},\n\
         {indent}\"lc_p99_2x_us\": {:.1},\n\
         {indent}\"rq_sheds_2x\": {},\n\
         {indent}\"admission_sheds_2x\": {}",
        solo.lc_goodput_rps,
        p2.lc_goodput_rps,
        p3.lc_goodput_rps,
        p2.batch_goodput_rps,
        p2.lc_p99_us,
        p2.rq_sheds,
        p2.adm_sheds[0] + p2.adm_sheds[1],
    )
}

/// The gate: (1)-(4) are the isolation shape, (5) a regression bound
/// vs the stored LC goodput.
fn check(gate: &mut Gate, solo: &SloPoint, points: &[SloPoint]) {
    // (1) The solo plateau is a real plateau: alone at half capacity,
    // nearly every offered LC request completes inside its SLO.
    gate.require(
        solo.lc_goodput_rps >= 0.9 * LC_RATE,
        format_args!(
            "solo LC goodput {:.0} rps >= 90% of the {LC_RATE:.0} rps offered",
            solo.lc_goodput_rps
        ),
    );
    // (2) Class isolation: under 2x and 3x mixed overload the LC tenant
    // keeps at least 90% of its solo plateau.
    for (name, p) in [("2x", &points[TWO_X]), ("3x", &points[THREE_X])] {
        gate.require(
            p.lc_goodput_rps >= 0.90 * solo.lc_goodput_rps,
            format_args!(
                "LC goodput at {name} {:.0} rps >= 90% of solo {:.0} rps",
                p.lc_goodput_rps, solo.lc_goodput_rps
            ),
        );
        // (3) The overload is paid by the batch class: batch requests are
        // shed (at admission or by the scheduler-side AQM backstop),
        // never the LC class, and batch's loss fraction dominates LC's.
        gate.require(
            p.adm_sheds[1] + p.rq_sheds > 0,
            format_args!(
                "batch requests shed at {name} ({} admission, {} runqueue)",
                p.adm_sheds[1], p.rq_sheds
            ),
        );
        gate.require(
            p.lc_rq_sheds == 0,
            format_args!(
                "{} LC requests scheduler-shed at {name}; LC is never sheddable",
                p.lc_rq_sheds
            ),
        );
        gate.require(
            p.batch_loss_frac > p.lc_loss_frac,
            format_args!(
                "batch shed first at {name}: batch loss {:.3} vs lc {:.3}",
                p.batch_loss_frac, p.lc_loss_frac
            ),
        );
    }
    // (4) Below saturation nothing is scheduler-shed: the class stack is
    // inert when there is no overload to degrade gracefully.
    gate.require(
        points[0].rq_sheds == 0,
        format_args!(
            "{} runqueue sheds at 0.5x (no overload to shed)",
            points[0].rq_sheds
        ),
    );
    // (5) Regression bound vs the stored LC goodput.
    gate.at_least(
        "slo_sweep",
        "lc_goodput_2x_rps",
        points[TWO_X].lc_goodput_rps,
        0.9,
    );
}

fn main() {
    let _ = trace_arg();
    let flags = Flags::parse();
    let (smoke, seed) = (flags.smoke, flags.seed.unwrap_or(0x510_C1A5)); // "slo-clas"
    let mut gate = Gate::new("slo_sweep", "BENCH_net.json", flags);

    eprintln!("slo_sweep: measuring the LC tenant's solo plateau (seed {seed})...");
    let solo = run_point(0.5, true, seed, smoke);
    eprintln!("slo_sweep: sweeping co-located total load 0.5x-3x...");
    let ms = mults();
    let points = par_map(&ms, sweep_threads(), &|&mult| {
        run_point(mult, false, seed, smoke)
    });

    let mut t = Table::new(&[
        "total load",
        "lc kRPS",
        "batch kRPS",
        "lc goodput kRPS",
        "batch goodput kRPS",
        "lc p99 (us)",
        "lc loss",
        "batch loss",
        "rq sheds",
        "adm sheds lc",
        "adm sheds batch",
        "aqm drops",
        "ring drops",
    ]);
    let mut rows: Vec<(String, &SloPoint)> = vec![("solo".to_string(), &solo)];
    for p in &points {
        rows.push((format!("{:.2}x", p.mult), p));
    }
    for (label, p) in rows {
        t.row_owned(vec![
            label,
            format!("{:.0}", p.lc_offered / 1000.0),
            format!("{:.0}", p.batch_offered / 1000.0),
            format!("{:.0}", p.lc_goodput_rps / 1000.0),
            format!("{:.0}", p.batch_goodput_rps / 1000.0),
            format!("{:.1}", p.lc_p99_us),
            format!("{:.3}", p.lc_loss_frac),
            format!("{:.3}", p.batch_loss_frac),
            p.rq_sheds.to_string(),
            p.adm_sheds[0].to_string(),
            p.adm_sheds[1].to_string(),
            p.aqm_drops.to_string(),
            p.ring_drops.to_string(),
        ]);
    }
    out::emit(
        "slo_sweep",
        "SLO classes: per-tenant goodput vs total load, LC fixed at 0.5x capacity",
        &t,
    );
    let p2 = &points[TWO_X];
    println!(
        "2x total load: LC goodput {:.0} kRPS ({:.0}% of solo {:.0} kRPS), batch goodput {:.0} kRPS, \
         {} scheduler sheds (all batch), lc p99 {:.0} us",
        p2.lc_goodput_rps / 1000.0,
        100.0 * p2.lc_goodput_rps / solo.lc_goodput_rps.max(1.0),
        solo.lc_goodput_rps / 1000.0,
        p2.batch_goodput_rps / 1000.0,
        p2.rq_sheds,
        p2.lc_p99_us
    );

    gate.upsert("slo_sweep", series_json(&solo, &points, "    "));
    check(&mut gate, &solo, &points);
    gate.finish();
}
