//! Network data-plane saturation sweep (§3.5): p99 vs offered load for
//! the memcached USR workload, run twice per rate — once through the
//! multi-queue NIC model (`Placement::Rss`, bounded RX rings + polling
//! core) and once over the pre-change direct path (`Placement::RssDirect`,
//! flow-hash pinning with no rings).
//!
//! The shape this records is the PR's bugfix: past saturation the direct
//! path accumulates an unbounded in-simulator spawn queue, so its p99
//! grows with the measurement window; the NIC path tail-drops at the
//! rings, so delivered requests stay fast and dropped ones surface at the
//! client timeout — p99 is bounded by the timeout no matter how far past
//! saturation the sweep pushes.
//!
//! Results go to `results/netbench.csv`; `--write` records the direct
//! series as `pre_change` and the NIC series as `current` in the repo-root
//! `BENCH_net.json` (canonical runs only); `--check` re-runs the sweep and gates CI on the
//! semantic shape (NIC overload p99 bounded by the timeout, drops
//! observed, direct tail far worse) plus a regression bound against the
//! stored NIC numbers.

use skyloft_apps::harness::{par_map, sweep_threads, trace_arg};
use skyloft_apps::memcached::{usr_distribution, usr_threshold};
use skyloft_apps::synthetic::{install_open_loop, Placement};
use skyloft_bench::baseline::Gate;
use skyloft_bench::{build, out, scaled, Flags};
use skyloft_metrics::Table;
use skyloft_net::dataplane::NicConfig;
use skyloft_net::loadgen::OpenLoop;
use skyloft_sim::Nanos;

const WORKERS: usize = 4;
/// Client retransmission/abandon timeout: the bound the NIC path's tail
/// must respect past saturation.
const TIMEOUT: Nanos = Nanos::from_ms(1);
const SEED: u64 = 0x6E65_7462; // "netb"

/// Offered rates in rps. 4 workers x (1.5 us GET + ~0.5 us stack) put
/// capacity near 2.0 M rps; the last two points are past saturation.
fn rates() -> Vec<f64> {
    vec![
        600_000.0,
        1_000_000.0,
        1_400_000.0,
        1_800_000.0,
        2_200_000.0,
        2_600_000.0,
    ]
}

/// One measured sweep point, with the data-plane counters the stock
/// harness `LoadPoint` does not carry.
struct NetPoint {
    rate: f64,
    achieved_rps: f64,
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
    drops: u64,
    timeouts: u64,
    occ_max: u64,
}

fn run_net_point(rate: f64, placement: Placement) -> NetPoint {
    let (mut m, mut q) = build::skyloft_ws(WORKERS, Some(Nanos::from_us(30)));
    let gen = OpenLoop::new(
        rate,
        usr_distribution(),
        usr_threshold(),
        SEED ^ (rate as u64),
    );
    let warmup = scaled(Nanos::from_ms(50));
    let end = warmup + scaled(Nanos::from_ms(200));
    install_open_loop(&mut q, gen, 0, placement, end);
    m.run(&mut q, warmup);
    m.reset_stats(q.now());
    m.run(&mut q, end);
    let now = q.now();
    // The conservation ledger must hold on every NIC-routed point: no
    // datagram may vanish outside the ring-drop counter (no overload
    // layer is armed to shed or retry).
    let s = &m.stats;
    assert!(
        s.ledger_violations().is_empty(),
        "ledger violated at {rate} rps: {:?}",
        s.ledger_violations()
    );
    assert_eq!(s.aqm_drops + s.admission_sheds + s.retries_spent, 0);
    let h = &m.stats.resp_hist;
    NetPoint {
        rate,
        achieved_rps: m.stats.achieved_rps(now),
        p50_us: h.percentile(50.0) as f64 / 1000.0,
        p99_us: h.percentile(99.0) as f64 / 1000.0,
        p999_us: h.percentile(99.9) as f64 / 1000.0,
        drops: m.stats.rx_ring_drops,
        timeouts: m.stats.timeouts,
        occ_max: m.stats.rx_occ_hist.max(),
    }
}

fn run_series(placement: &Placement) -> Vec<NetPoint> {
    let rs = rates();
    par_map(&rs, sweep_threads(), &|&rate| {
        run_net_point(rate, placement.clone())
    })
}

/// The metrics a series contributes to the baseline file: the knee-side
/// point (last rate under nominal capacity) and the overload point (last
/// rate of the sweep).
fn series_json(points: &[NetPoint], indent: &str) -> String {
    let sat = &points[points.len() - 3]; // 1.8 M — just under capacity
    let over = points.last().expect("sweep has points");
    format!(
        "{indent}\"sat_p99_us\": {:.1},\n\
         {indent}\"overload_p99_us\": {:.1},\n\
         {indent}\"overload_p999_us\": {:.1},\n\
         {indent}\"overload_achieved_rps\": {:.0},\n\
         {indent}\"overload_drops\": {},\n\
         {indent}\"overload_occ_max\": {}",
        sat.p99_us, over.p99_us, over.p999_us, over.achieved_rps, over.drops, over.occ_max
    )
}

fn main() {
    let _ = trace_arg();
    let mut gate = Gate::new("netbench", "BENCH_net.json", Flags::parse());

    eprintln!("netbench: sweeping direct (pre-change) path...");
    let direct = run_series(&Placement::RssDirect { n: WORKERS });
    eprintln!("netbench: sweeping NIC data plane...");
    let mut nic = NicConfig::for_workers(WORKERS);
    nic.client_timeout = TIMEOUT;
    let nic = run_series(&Placement::Rss(nic));

    let mut t = Table::new(&[
        "offered kRPS",
        "series",
        "achieved kRPS",
        "p50 (us)",
        "p99 (us)",
        "p99.9 (us)",
        "rx drops",
        "timeouts",
        "ring occ max",
    ]);
    for (name, series) in [("direct", &direct), ("nic", &nic)] {
        for p in series.iter() {
            t.row_owned(vec![
                format!("{:.0}", p.rate / 1000.0),
                name.to_string(),
                format!("{:.0}", p.achieved_rps / 1000.0),
                format!("{:.1}", p.p50_us),
                format!("{:.1}", p.p99_us),
                format!("{:.1}", p.p999_us),
                p.drops.to_string(),
                p.timeouts.to_string(),
                p.occ_max.to_string(),
            ]);
        }
    }
    out::emit(
        "netbench",
        "NIC data plane: USR p99 vs load past saturation (direct vs rings)",
        &t,
    );
    let over = nic.last().expect("sweep has points");
    println!(
        "overload ({:.1} M rps): nic p99 {:.0} us ({} drops), direct p99 {:.0} us",
        over.rate / 1e6,
        over.p99_us,
        over.drops,
        direct.last().expect("sweep has points").p99_us
    );

    gate.upsert("pre_change", series_json(&direct, "    "));
    gate.upsert("current", series_json(&nic, "    "));
    let timeout_us = TIMEOUT.0 as f64 / 1000.0;
    let direct_over = direct.last().expect("sweep has points");
    // (1) Bounded tail past saturation: the NIC path's p99 may not exceed
    // the client timeout by more than measurement slack.
    gate.require(
        over.p99_us <= timeout_us * 1.15,
        format_args!(
            "NIC overload p99 {:.1} us within the {timeout_us:.0} us client timeout (+15%)",
            over.p99_us
        ),
    );
    // (2) Overload must manifest as tail-drops, not hidden queues.
    gate.require(
        over.drops > 0,
        format_args!("{} RX ring drops at {} rps", over.drops, over.rate),
    );
    // (3) The pre-change path demonstrates the bug: its overload tail is
    // an unbounded queue, far beyond the NIC path's timeout-bounded tail.
    gate.require(
        direct_over.p99_us >= 1.5 * over.p99_us,
        format_args!(
            "direct overload p99 {:.1} us dwarfs (>= 1.5x) NIC's {:.1} us",
            direct_over.p99_us, over.p99_us
        ),
    );
    // (4) Regression bound vs the stored NIC numbers.
    gate.at_most("current", "overload_p99_us", over.p99_us, 1.3);
    gate.finish();
}
