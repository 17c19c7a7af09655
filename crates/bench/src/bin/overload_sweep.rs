//! End-to-end overload-control sweep (DESIGN.md §13): goodput and served
//! tail vs offered load for the memcached USR workload, run twice per
//! rate — once with plain tail-drop rings (the PR-5 data plane,
//! [`OverloadControl::default`]) and once with the full overload-control
//! stack armed: CoDel AQM on the RX rings, deadline-aware admission at
//! the polling core, the retrying client with a global retry budget, and
//! the machine's LC/BE brownout controller fed by poll-round sojourns.
//!
//! The shape this binary records is the PR's acceptance bar: past
//! saturation the tail-drop path serves requests that waited out a full
//! 256-deep ring (~half a millisecond of head sojourn), so almost
//! nothing it serves lands inside the SLO and goodput collapses; the
//! controller sheds early instead — goodput plateaus near capacity and
//! the served p99 hugs the SLO out to 3x offered load.
//!
//! Results go to `results/overload_sweep.csv`; `--write` splices the two
//! series into the repo-root `BENCH_net.json` (sections `overload_ctl` /
//! `overload_tail_drop`, leaving netbench's sections untouched; canonical
//! runs only);
//! `--check` re-runs the sweep and gates CI on the semantic shape
//! (goodput plateau, SLO-bounded served tail, tail-drop collapse) plus a
//! regression bound against the stored goodput. `--smoke` shortens the
//! windows to the CI configuration.

use skyloft::BrownoutConfig;
use skyloft_apps::harness::{par_map, sweep_threads, trace_arg};
use skyloft_apps::memcached::{usr_distribution, usr_threshold};
use skyloft_apps::synthetic::{install_tenants, OverloadControl, Tenant};
use skyloft_bench::baseline::Gate;
use skyloft_bench::{build, out, scaled, Flags};
use skyloft_metrics::Table;
use skyloft_net::dataplane::NicConfig;
use skyloft_net::loadgen::OpenLoop;
use skyloft_net::AdmissionConfig;
use skyloft_sim::Nanos;

const WORKERS: usize = 4;
/// End-to-end latency SLO: goodput = completions inside this budget.
const SLO: Nanos = Nanos::from_us(200);
/// Client abandon timeout for the tail-drop series (the retry series
/// carries its own per-attempt timeout in [`OverloadControl::full`]).
const TIMEOUT: Nanos = Nanos::from_ms(1);
const SEED: u64 = 0x6F76_6572; // "over"

/// Offered rates in rps. 4 workers x (1.5 us GET + ~0.5 us stack) put
/// capacity near 2.0 M rps; the sweep spans 0.5x to 3x saturation.
fn rates() -> Vec<f64> {
    vec![
        1_000_000.0,
        1_500_000.0,
        2_000_000.0,
        3_000_000.0,
        4_000_000.0,
        6_000_000.0,
    ]
}

/// Index of the 2x-saturation point the acceptance gates key on.
const TWO_X: usize = 4;

/// The controller configuration under test. The admission deadline
/// carries headroom below the client SLO: its backlog model covers ring
/// wait plus the worker queue, and the slack absorbs what it cannot see
/// (poll hand-off, return wire, scheduling jitter). Shedding at 75% of
/// the budget keeps admitted requests inside the real deadline.
fn controller() -> OverloadControl {
    let mut ctl = OverloadControl::full();
    ctl.admission = Some(AdmissionConfig {
        slo: Nanos(SLO.0 * 3 / 4),
        ..Default::default()
    });
    ctl
}

/// One measured sweep point.
struct OverPoint {
    rate: f64,
    goodput_rps: f64,
    served_rps: f64,
    p50_us: f64,
    p99_us: f64,
    aqm_drops: u64,
    admission_sheds: u64,
    retries_spent: u64,
    ring_drops: u64,
    brownouts: u64,
}

fn run_point(rate: f64, ctl_on: bool, smoke: bool) -> OverPoint {
    let (mut m, mut q) = build::skyloft_ws(WORKERS, Some(Nanos::from_us(30)));
    if ctl_on {
        m.set_brownout(BrownoutConfig::default());
    }
    let gen = OpenLoop::new(
        rate,
        usr_distribution(),
        usr_threshold(),
        SEED ^ (rate as u64),
    );
    let (warm_ms, run_ms) = if smoke { (5, 20) } else { (20, 100) };
    let warmup = scaled(Nanos::from_ms(warm_ms));
    let end = warmup + scaled(Nanos::from_ms(run_ms));
    let mut nic = NicConfig::for_workers(WORKERS);
    nic.client_timeout = TIMEOUT;
    let ctl = if ctl_on {
        controller()
    } else {
        OverloadControl::default()
    };
    let tenant = Tenant {
        gen,
        app: 0,
        class: None,
    };
    install_tenants(&mut q, vec![tenant], nic, end, None, ctl);
    m.run(&mut q, warmup);
    m.reset_stats(q.now());
    // Run far past `end` so every retry attempt resolves and the rings
    // drain before the ledger is read.
    m.run(&mut q, end + Nanos::from_ms(20));
    // Conservation invariants #8 and #9 on every point: each generated
    // datagram lands in exactly one terminal bucket, class by class.
    let s = &m.stats;
    assert!(
        s.ledger_violations().is_empty(),
        "ledger violated at {rate} rps (ctl {ctl_on}): {:?}",
        s.ledger_violations()
    );
    assert_eq!(s.net_in_flight, 0, "rings not drained at {rate} rps");
    // Rate denominators use the generation window, not the drain tail.
    let dt = (end - s.since).as_secs();
    let h = &s.served_hist;
    OverPoint {
        rate,
        goodput_rps: h.count_le(SLO.0) as f64 / dt,
        served_rps: h.count() as f64 / dt,
        p50_us: h.percentile(50.0) as f64 / 1000.0,
        p99_us: h.percentile(99.0) as f64 / 1000.0,
        aqm_drops: s.aqm_drops,
        admission_sheds: s.admission_sheds,
        retries_spent: s.retries_spent,
        ring_drops: s.rx_ring_drops,
        brownouts: m.brownout_transitions(),
    }
}

fn run_series(ctl_on: bool, smoke: bool) -> Vec<OverPoint> {
    let rs = rates();
    par_map(&rs, sweep_threads(), &|&rate| {
        run_point(rate, ctl_on, smoke)
    })
}

/// The metrics a series contributes to the baseline: the 2x-saturation
/// gate point plus the series' peak goodput.
fn series_json(points: &[OverPoint], indent: &str) -> String {
    let peak = points.iter().map(|p| p.goodput_rps).fold(0.0, f64::max);
    let p = &points[TWO_X];
    format!(
        "{indent}\"peak_goodput_rps\": {:.0},\n\
         {indent}\"goodput_2x_rps\": {:.0},\n\
         {indent}\"served_p99_2x_us\": {:.1},\n\
         {indent}\"aqm_drops_2x\": {},\n\
         {indent}\"admission_sheds_2x\": {},\n\
         {indent}\"retries_2x\": {},\n\
         {indent}\"ring_drops_2x\": {}",
        peak,
        p.goodput_rps,
        p.p99_us,
        p.aqm_drops,
        p.admission_sheds,
        p.retries_spent,
        p.ring_drops
    )
}

fn main() {
    let _ = trace_arg();
    let flags = Flags::parse();
    let smoke = flags.smoke;
    let mut gate = Gate::new("overload_sweep", "BENCH_net.json", flags);

    eprintln!("overload_sweep: sweeping tail-drop (controller off)...");
    let tail = run_series(false, smoke);
    eprintln!("overload_sweep: sweeping with overload control...");
    let ctl = run_series(true, smoke);

    let mut t = Table::new(&[
        "offered kRPS",
        "series",
        "goodput kRPS",
        "served kRPS",
        "p50 (us)",
        "p99 (us)",
        "aqm drops",
        "adm sheds",
        "retries",
        "ring drops",
        "brownouts",
    ]);
    for (name, series) in [("tail-drop", &tail), ("overload-ctl", &ctl)] {
        for p in series.iter() {
            t.row_owned(vec![
                format!("{:.0}", p.rate / 1000.0),
                name.to_string(),
                format!("{:.0}", p.goodput_rps / 1000.0),
                format!("{:.0}", p.served_rps / 1000.0),
                format!("{:.1}", p.p50_us),
                format!("{:.1}", p.p99_us),
                p.aqm_drops.to_string(),
                p.admission_sheds.to_string(),
                p.retries_spent.to_string(),
                p.ring_drops.to_string(),
                p.brownouts.to_string(),
            ]);
        }
    }
    out::emit(
        "overload_sweep",
        "Overload control: USR goodput + served p99 vs load, 0.5x-3x saturation",
        &t,
    );
    let at2x = &ctl[TWO_X];
    println!(
        "2x saturation ({:.1} M rps): goodput {:.0} kRPS (ctl) vs {:.0} kRPS (tail-drop), \
         served p99 {:.0} us, {} admission sheds, {} aqm drops, {} retries",
        at2x.rate / 1e6,
        at2x.goodput_rps / 1000.0,
        tail[TWO_X].goodput_rps / 1000.0,
        at2x.p99_us,
        at2x.admission_sheds,
        at2x.aqm_drops,
        at2x.retries_spent
    );

    gate.upsert("overload_ctl", series_json(&ctl, "    "));
    gate.upsert("overload_tail_drop", series_json(&tail, "    "));
    let slo_us = SLO.0 as f64 / 1000.0;
    let peak = ctl.iter().map(|p| p.goodput_rps).fold(0.0, f64::max);
    let tail2x = &tail[TWO_X];
    // (1) Goodput plateau: at 2x saturation the controller must hold at
    // least 85% of the series' peak goodput.
    gate.require(
        at2x.goodput_rps >= 0.85 * peak,
        format_args!(
            "goodput at 2x {:.0} rps holds >= 85% of peak {peak:.0} rps",
            at2x.goodput_rps
        ),
    );
    // (2) What the controller serves lands inside the SLO (15%
    // measurement slack, as netbench grants its timeout bound).
    gate.require(
        at2x.p99_us <= slo_us * 1.15,
        format_args!(
            "served p99 at 2x {:.1} us within the {slo_us:.0} us SLO (+15%)",
            at2x.p99_us
        ),
    );
    // (3) Overload must manifest as early sheds, not hidden queues.
    gate.require(
        at2x.admission_sheds > 0 && at2x.aqm_drops > 0,
        format_args!(
            "controller sheds at 2x (aqm {}, admission {})",
            at2x.aqm_drops, at2x.admission_sheds
        ),
    );
    // (4) The tail-drop path demonstrates the failure mode: its 2x
    // goodput collapses to a fraction of the controller's.
    gate.require(
        tail2x.goodput_rps <= 0.5 * at2x.goodput_rps,
        format_args!(
            "tail-drop goodput {:.0} rps collapses (<= 50%) vs controller {:.0} rps",
            tail2x.goodput_rps, at2x.goodput_rps
        ),
    );
    // (5) Regression bound vs the stored controller goodput.
    gate.at_least("overload_ctl", "goodput_2x_rps", at2x.goodput_rps, 0.9);
    gate.finish();
}
