//! A RocksDB-style KV server under the §5.3 bimodal workload, with and
//! without μs-scale preemption.
//!
//! ```sh
//! cargo run --release --example kv_server
//! ```
//!
//! The server pieces are real: requests are encoded as UDP datagrams,
//! RSS-hashed to per-core rings, decoded, and executed against a sorted
//! store; the simulated machine charges the paper's service times (GET
//! 0.95 μs, SCAN 591 μs) and schedules with work stealing. The comparison
//! shows why Figure 8b needs the 5 μs quantum.

use bytes::Bytes;
use skyloft::machine::{AppKind, Machine, MachineConfig};
use skyloft::Platform;
use skyloft_apps::rocksdb::{bimodal_distribution, bimodal_threshold, SortedStore};
use skyloft_apps::synthetic::{install_open_loop, Placement};
use skyloft_hw::Topology;
use skyloft_net::dataplane::NicConfig;
use skyloft_net::loadgen::OpenLoop;
use skyloft_net::packet::{KvOp, KvRequest};
use skyloft_policies::WorkStealing;
use skyloft_sim::{EventQueue, Nanos};

const WORKERS: usize = 4;
const RATE: f64 = 11_000.0; // ~81% of 4 cores at the 296 us mean

fn run(quantum: Option<Nanos>) -> (f64, f64) {
    let hz = quantum.map_or(100_000, |q| 1_000_000_000 / q.0);
    let cfg = MachineConfig {
        plat: Platform::skyloft_percpu(Topology::single(WORKERS), hz),
        n_workers: WORKERS,
        seed: 77,
        core_alloc: None,
        utimer_period: None,
    };
    let mut m = Machine::new(cfg, Box::new(WorkStealing::new(quantum)));
    m.add_app("rocksdb", AppKind::Lc);
    let mut q = EventQueue::new();
    m.start(&mut q);
    let gen = OpenLoop::new(RATE, bimodal_distribution(), bimodal_threshold(), 5);
    install_open_loop(
        &mut q,
        gen,
        0,
        Placement::Rss(NicConfig::for_workers(WORKERS)),
        Nanos::from_secs(1),
    );
    m.run(&mut q, Nanos::from_secs(1) + Nanos::from_ms(50));
    let p999_slowdown = m.stats.slowdown_hist.percentile(99.9) as f64 / 1000.0;
    let get_p99 = m.stats.resp_by_class[0].percentile(99.0) as f64 / 1000.0;
    (p999_slowdown, get_p99)
}

fn main() {
    // First: exercise the actual wire + store path once, end to end.
    let mut store = SortedStore::new();
    store.populate(10_000);
    let get = KvRequest {
        id: 1,
        op: KvOp::Get,
        key: Bytes::from_static(b"key-004242"),
        value: Bytes::new(),
    };
    let dgram = get.encode_datagram(40_001, 6_379);
    let (_hdr, parsed) = KvRequest::decode_datagram(dgram).expect("valid datagram");
    assert_eq!(store.execute(&parsed), 1, "GET through the wire codec hit");
    let scan = KvRequest {
        id: 2,
        op: KvOp::Scan,
        key: Bytes::from_static(b"key-009000"),
        value: Bytes::new(),
    };
    assert_eq!(store.execute(&scan), 100, "SCAN returns a full range");
    println!("wire + store path OK ({} keys loaded)\n", store.len());

    // Then: the scheduling comparison at ~81% load.
    for (label, quantum) in [
        ("cooperative work stealing (Shenango-style)", None),
        (
            "preemptive, 5 us quantum (Skyloft, Fig. 8b)",
            Some(Nanos::from_us(5)),
        ),
    ] {
        let (p999_slowdown, get_p99) = run(quantum);
        println!("{label}:");
        println!("  GET p99            : {get_p99:>8.1} us");
        println!("  99.9% slowdown     : {p999_slowdown:>8.1}x\n");
    }
}
