//! Integration tests for the NIC data plane under the sweep harness
//! (§3.5): determinism across host threads, datagram conservation
//! through the warmup-reset boundary, and the bounded-tail contrast
//! against the direct (ringless) placement past saturation.

use skyloft_apps::harness::{run_point, run_sweep_threaded, SweepSpec};
use skyloft_apps::memcached::{usr_distribution, usr_threshold};
use skyloft_apps::synthetic::{install_open_loop, Placement};
use skyloft_bench::build;
use skyloft_net::dataplane::NicConfig;
use skyloft_net::loadgen::OpenLoop;
use skyloft_sim::Nanos;

const WORKERS: usize = 4;

/// The NIC plane with a 1 ms client timeout.
fn rss() -> Placement {
    let mut nic = NicConfig::for_workers(WORKERS);
    nic.client_timeout = Nanos::from_ms(1);
    Placement::Rss(nic)
}

fn spec(name: &str, rates: Vec<f64>, placement: Placement) -> SweepSpec {
    SweepSpec {
        class_threshold: usr_threshold(),
        placement,
        warmup: Nanos::from_ms(5),
        measure: Nanos::from_ms(40),
        ..SweepSpec::new(name, rates, usr_distribution())
    }
}

/// A `Placement::Rss` sweep is bit-identical whether its points run on
/// one host thread or eight: the data plane's wire RNG and poller are
/// seeded per point, never per thread.
#[test]
fn threaded_rss_sweep_is_bit_identical_to_serial() {
    let s = spec("nic", vec![400_000.0, 1_200_000.0, 2_400_000.0], rss());
    let build = &|| build::skyloft_ws(WORKERS, Some(Nanos::from_us(30)));
    let serial = run_sweep_threaded(&s, build, 1);
    let par = run_sweep_threaded(&s, build, 8);
    assert_eq!(serial.points, par.points);
}

/// The conservation ledger survives the harness's warmup `reset_stats`:
/// after the post-reset measurement window drains, generated still equals
/// delivered + ring-dropped, with nothing left in flight.
#[test]
fn conservation_holds_across_warmup_reset() {
    for &rate in &[800_000.0, 2_600_000.0] {
        let (mut m, mut q) = build::skyloft_ws(WORKERS, Some(Nanos::from_us(30)));
        let gen = OpenLoop::new(rate, usr_distribution(), usr_threshold(), 0x9e37);
        let warmup = Nanos::from_ms(5);
        let end = warmup + Nanos::from_ms(40);
        install_open_loop(&mut q, gen, 0, rss(), end);
        m.run(&mut q, warmup);
        m.reset_stats(q.now());
        // Run past the arrival horizon until the queue drains, so every
        // packet has settled into delivered or dropped.
        m.run(&mut q, end + Nanos::from_ms(20));
        assert!(m.stats.net_generated > 0, "plane saw no traffic at {rate}");
        assert!(
            m.stats.ledger_violations().is_empty(),
            "ledger broken at {rate} rps: {:?}",
            m.stats.ledger_violations()
        );
        let s = &m.stats;
        assert_eq!(s.aqm_drops + s.admission_sheds + s.retries_spent, 0);
        assert_eq!(m.stats.net_in_flight, 0, "packets stranded at {rate} rps");
    }
}

/// Past saturation the ring-backed plane bounds the tail at the client
/// timeout via tail-drops, while the direct path's tail grows with the
/// backlog — the bug this PR's data plane fixes.
#[test]
fn rings_bound_the_overload_tail_where_direct_does_not() {
    let overload = 2_600_000.0; // ~1.3x the 4-worker USR capacity
    let nic = run_point(&spec("nic", vec![overload], rss()), overload, &|| {
        build::skyloft_ws(WORKERS, Some(Nanos::from_us(30)))
    });
    let direct = run_point(
        &spec(
            "direct",
            vec![overload],
            Placement::RssDirect { n: WORKERS },
        ),
        overload,
        &|| build::skyloft_ws(WORKERS, Some(Nanos::from_us(30))),
    );
    // NIC path: p99 pinned at the 1 ms timeout (plus measurement slack).
    assert!(
        nic.p99_us <= 1_150.0,
        "NIC overload p99 must be timeout-bounded: {:.1} us",
        nic.p99_us
    );
    // Direct path: even this short window accumulates a multi-ms backlog.
    assert!(
        direct.p99_us > 2.0 * nic.p99_us,
        "direct overload p99 ({:.1} us) should dwarf the NIC path's ({:.1} us)",
        direct.p99_us,
        nic.p99_us
    );
}
