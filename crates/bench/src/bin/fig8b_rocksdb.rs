//! Figure 8b: the RocksDB server under the bimodal workload (50% GET at
//! 0.95 μs, 50% SCAN at 591 μs), 14 worker cores, 99.9th-percentile
//! slowdown as the SLO metric.
//!
//! Expected shape (§5.3): Shenango, lacking preemption, blows through the
//! 50× slowdown SLO early (GETs head-of-line block behind SCANs); Skyloft
//! with a 5 μs quantum sustains ~1.9× Shenango's load; larger quanta fall
//! in between; the utimer variant (a core burned to emulate timers) costs
//! ~13% against LAPIC timer delegation.

use skyloft_apps::harness::{run_sweep, SweepSpec};
use skyloft_apps::rocksdb::{bimodal_distribution, bimodal_threshold};
use skyloft_apps::synthetic::Placement;
use skyloft_bench::setup::FIG8B_WORKERS;
use skyloft_bench::{build, out, scaled};
use skyloft_metrics::Series;
use skyloft_net::dataplane::NicConfig;
use skyloft_sim::Nanos;

fn rates() -> Vec<f64> {
    [4, 8, 12, 16, 20, 24, 28, 32, 36, 38, 40, 41, 42, 43, 44]
        .iter()
        .map(|k| *k as f64 * 1000.0)
        .collect()
}

fn spec(name: &str, workers: usize) -> SweepSpec {
    SweepSpec {
        class_threshold: bimodal_threshold(),
        placement: Placement::Rss(NicConfig::for_workers(workers)),
        warmup: scaled(Nanos::from_ms(100)),
        measure: scaled(Nanos::from_ms(900)),
        ..SweepSpec::new(name, rates(), bimodal_distribution())
    }
}

fn main() {
    let mut all: Vec<Series> = Vec::new();
    for q_us in [5u64, 15, 30] {
        all.push(run_sweep(
            &spec(&format!("Skyloft ({q_us}us)"), FIG8B_WORKERS),
            &|| build::skyloft_ws(FIG8B_WORKERS, Some(Nanos::from_us(q_us))),
        ));
        eprintln!("  skyloft-{q_us} done");
    }
    all.push(run_sweep(&spec("Shenango", FIG8B_WORKERS), &|| {
        build::shenango_ws(FIG8B_WORKERS)
    }));
    eprintln!("  shenango done");
    // utimer: one core sacrificed to emulate timers with user IPIs.
    all.push(run_sweep(
        &spec("Skyloft-utimer (5us)", FIG8B_WORKERS - 1),
        &|| build::skyloft_ws_utimer(FIG8B_WORKERS - 1, Nanos::from_us(5)),
    ));
    eprintln!("  utimer done");

    let t = out::figure_table(
        "offered kRPS",
        |p| p.slowdown_p999.unwrap_or(f64::NAN),
        &all,
    );
    out::emit(
        "fig8b_rocksdb",
        "Figure 8b: 99.9% slowdown vs offered load",
        &t,
    );

    const SLO: f64 = 50.0;
    println!("max throughput at 99.9% slowdown <= {SLO}x:");
    let max: Vec<(String, f64)> = all
        .iter()
        .map(|s| (s.name.clone(), s.max_tput_under_slowdown_slo(SLO)))
        .collect();
    for (n, v) in &max {
        println!("  {n:<20} {:.1} kRPS", v / 1000.0);
    }
    let get = |n: &str| max.iter().find(|(x, _)| x == n).unwrap().1;
    let sky5 = get("Skyloft (5us)");
    let shen = get("Shenango");
    let utimer = get("Skyloft-utimer (5us)");
    assert!(
        sky5 > 1.4 * shen,
        "Skyloft 5us ({sky5:.0}) must sustain well above Shenango ({shen:.0}); paper: 1.9x"
    );
    assert!(
        utimer < 0.98 * sky5,
        "utimer ({utimer:.0}) must trail LAPIC timers ({sky5:.0}); paper: ~13% lower"
    );
    println!(
        "Shape checks passed: Skyloft(5us)/Shenango = {:.2}x (paper 1.9x); \
         utimer penalty = {:.0}% (paper ~13%).",
        sky5 / shen,
        100.0 * (1.0 - utimer / sky5)
    );
}
