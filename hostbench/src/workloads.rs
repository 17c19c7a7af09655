//! The three workloads, each a fixed-size batch job on the host side:
//! build the machine, install the load, warm up, then a timed window of
//! fixed virtual-time slices, then a drain that lets every request
//! generated in the window resolve.
//!
//! Each definition says why it was chosen and which layers it should and
//! should not move; README.md carries the same table per metric.

use skyloft::builtin::GlobalFifo;
use skyloft::conf::{RunqueueAqmConfig, SloClass};
use skyloft::machine::{AppKind, Event, Machine, MachineConfig};
use skyloft::{Platform, Policy, SchedParams};
use skyloft_apps::synthetic::{
    dispersive, dispersive_threshold, install_open_loop, install_tenants, OverloadControl,
    Placement, Tenant,
};
use skyloft_hw::Topology;
use skyloft_net::loadgen::OpenLoop;
use skyloft_net::overload::MAX_CLASSES;
use skyloft_net::{AdmissionConfig, CodelConfig, NicConfig, RetryPolicy};
use skyloft_policies::{Eevdf, Shinjuku};
use skyloft_sim::{Distribution, EventQueue, Nanos};

use crate::schbench;

/// Which workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Skyloft-Shinjuku on the §5.2 dispersive load, `Placement::Queue`.
    ///
    /// Why: the fig7a/7b hot path — centralized poll and placement,
    /// dispatcher quantum checks and preemption IPIs, one `Recur` arrival
    /// per request. It bypasses the NIC, so `net` changes must leave it
    /// unchanged.
    Teleport,
    /// `slo_sweep`'s 2x point: the full overload stack through
    /// `install_tenants`.
    ///
    /// Why: the LC tenant exercises the NIC admit path and the overloaded
    /// batch tenant the shed path, in one data plane; most events are
    /// `Call`/`Recur` closures. Its policy is a trivial global FIFO, so
    /// `policies` changes must leave it unchanged.
    NicSlo,
    /// schbench on per-CPU EEVDF with ~128-deep runqueues, each request's
    /// work drawn from the seed (see `schbench.rs`).
    ///
    /// Why: the policy- and timer-heavy path — per-CPU ticks, wakeups,
    /// enqueue/dequeue on deep runqueues, no NIC. Against `Teleport` it
    /// uses the `core` and `policies` layers differently.
    Schbench,
}

/// A workload: its machine, its load and its virtual timeline.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// Which machine and load.
    pub kind: Kind,
    /// Virtual warm-up before the timed window (part of set-up).
    pub warmup: Nanos,
    /// Virtual length of one timed slice.
    pub slice: Nanos,
    /// Timed slices per round.
    pub slices: usize,
    /// Virtual drain after the window, long enough for every request
    /// generated in the window to resolve.
    pub drain: Nanos,
    /// Latency limit of each request class: a request that completes
    /// above its class's limit fails. For `Schbench` entry 0 bounds the
    /// wakeup latency.
    pub limits: [Nanos; 2],
}

/// Every workload, in report order.
pub const ALL: [Workload; 3] = [
    Workload {
        name: "teleport_dispersive",
        kind: Kind::Teleport,
        warmup: Nanos::from_ms(100),
        slice: Nanos::from_us(187_500),
        slices: 8,
        drain: Nanos::from_ms(60),
        // Short class: fig7a's 350 µs p99 SLO. Long class (10 ms of
        // service): the same 350 µs of allowed delay on top of its
        // service.
        limits: [Nanos::from_us(350), Nanos::from_us(10_350)],
    },
    Workload {
        name: "nic_slo_2x",
        kind: Kind::NicSlo,
        warmup: Nanos::from_ms(20),
        slice: Nanos::from_ms(50),
        slices: 10,
        drain: Nanos::from_ms(30),
        limits: [LC_SLO, BATCH_SLO],
    },
    Workload {
        name: "schbench_deep",
        kind: Kind::Schbench,
        warmup: Nanos::from_ms(100),
        slice: Nanos::from_ms(200),
        slices: 10,
        drain: Nanos::ZERO,
        // Wakeup limit: four times a worker's mean 50 µs of work.
        limits: [Nanos::from_us(200), Nanos::from_us(200)],
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    ALL.iter().copied().find(|w| w.name == name)
}

// Teleport: 20 workers + dispatcher, 30 µs quantum, 280 kRPS (~76% of
// the machine's capacity for a 54 µs mean service; below fig7a's knee).
const TELEPORT_WORKERS: usize = 20;
const TELEPORT_QUANTUM: Nanos = Nanos::from_us(30);
const TELEPORT_RATE: f64 = 280_000.0;

// NIC: slo_sweep's machine at total load 2x capacity.
const NIC_WORKERS: usize = 4;
const LC_SLO: Nanos = Nanos::from_us(200);
const LC_SERVICE: Nanos = Nanos::from_us(2);
const LC_RATE: f64 = 1_000_000.0;
const BATCH_SLO: Nanos = Nanos::from_ms(5);
const BATCH_SERVICE: Nanos = Nanos::from_us(50);
/// (2 x 4 cores - the LC tenant's 2) / 50 µs.
const BATCH_RATE: f64 = 120_000.0;
/// The NIC clients' timeout: a request lost on the way enters the latency
/// histograms at its wait since the send, at least this.
pub const NIC_TIMEOUT: Nanos = Nanos::from_ms(1);

// schbench: 8 workers at a 100 kHz user timer, 1 messenger + 1024 workers
// of 50 µs work each (~128 runnable tasks per runqueue).
const SCH_WORKERS: usize = 8;
const SCH_THREADS: usize = 1024;
const SCH_WORK: Nanos = Nanos::from_us(50);
const TIMER_HZ: u64 = 100_000;

/// A built machine and its event queue.
pub struct Job {
    pub m: Machine,
    pub q: EventQueue<Event>,
}

/// SplitMix64 finalizer: spreads a seed into independent sub-seeds.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Workload {
    /// Virtual end of the timed window (generators stop here).
    pub fn window_end(&self) -> Nanos {
        self.slice_end(self.slices - 1)
    }

    /// Virtual end of slice `i`.
    pub fn slice_end(&self, i: usize) -> Nanos {
        self.warmup + self.slice * (i as u64 + 1)
    }

    /// Virtual end of the drain.
    pub fn drain_end(&self) -> Nanos {
        self.window_end() + self.drain
    }

    /// Virtual length of the timed window.
    pub fn window(&self) -> Nanos {
        self.slice * self.slices as u64
    }

    /// The open-loop generators (`None` for the closed-loop schbench),
    /// with the application and class each tenant's requests carry.
    pub fn generators(&self, seed: u64) -> Vec<Tenant> {
        match self.kind {
            Kind::Teleport => vec![Tenant {
                gen: OpenLoop::new(
                    TELEPORT_RATE,
                    dispersive(),
                    dispersive_threshold(),
                    mix(seed),
                ),
                app: 0,
                class: None,
            }],
            Kind::NicSlo => vec![
                Tenant {
                    gen: OpenLoop::new(
                        LC_RATE,
                        Distribution::Constant(LC_SERVICE),
                        Nanos::from_us(100),
                        mix(seed ^ 0x1C),
                    ),
                    app: 0,
                    class: Some(0),
                },
                Tenant {
                    gen: OpenLoop::new(
                        BATCH_RATE,
                        Distribution::Constant(BATCH_SERVICE),
                        Nanos::from_us(100),
                        mix(seed ^ 0xBA7C),
                    ),
                    app: 1,
                    class: Some(1),
                },
            ],
            Kind::Schbench => Vec::new(),
        }
    }

    /// Requests generated before the window and in each slice of it (the
    /// generators replayed on their own, outside any timed span). `None`
    /// for schbench, whose requests are the wakeups it records.
    pub fn arrivals(&self, seed: u64) -> Option<(u64, Vec<u64>)> {
        if self.kind == Kind::Schbench {
            return None;
        }
        let mut before = 0;
        let mut per_slice = vec![0u64; self.slices];
        for t in self.generators(seed) {
            for r in t.gen {
                if r.at >= self.window_end() {
                    break;
                }
                match r.at.0.checked_sub(self.warmup.0) {
                    None => before += 1,
                    Some(off) => per_slice[(off / self.slice.0) as usize] += 1,
                }
            }
        }
        Some((before, per_slice))
    }

    /// Builds the started machine with its load installed, at virtual
    /// time zero. `wrap` sees the policy before the machine does (the
    /// traced pass wraps it in a `TimedPolicy`).
    pub fn build(&self, seed: u64, wrap: &dyn Fn(Box<dyn Policy>) -> Box<dyn Policy>) -> Job {
        let (plat, workers, policy): (Platform, usize, Box<dyn Policy>) = match self.kind {
            Kind::Teleport => (
                Platform::skyloft_centralized(Topology::PAPER_SERVER),
                TELEPORT_WORKERS,
                Box::new(Shinjuku::new(Some(TELEPORT_QUANTUM))),
            ),
            Kind::NicSlo => (
                Platform::skyloft_percpu(Topology::single(NIC_WORKERS), TIMER_HZ),
                NIC_WORKERS,
                Box::new(GlobalFifo::new()),
            ),
            Kind::Schbench => (
                Platform::skyloft_percpu(Topology::PAPER_SERVER, TIMER_HZ),
                SCH_WORKERS,
                Box::new(Eevdf::new(SchedParams::SKYLOFT_EEVDF)),
            ),
        };
        let cfg = MachineConfig {
            plat,
            n_workers: workers,
            seed,
            core_alloc: None,
            utimer_period: None,
        };
        let mut m = Machine::new(cfg, wrap(policy));
        // The Chrome-trace ring is diagnostic output, not simulation; both
        // passes run with it off (the traced pass records its own spans).
        m.tracer.set_active(false);
        let mut q = EventQueue::new();
        match self.kind {
            Kind::Teleport => {
                m.add_app("lc", AppKind::Lc);
                m.start(&mut q);
                for t in self.generators(seed) {
                    install_open_loop(&mut q, t.gen, t.app, Placement::Queue, self.window_end());
                }
            }
            Kind::NicSlo => {
                m.add_app("lc", AppKind::Lc);
                m.add_app("batch", AppKind::Lc);
                m.set_slo_class(0, SloClass::latency_critical(LC_SLO));
                m.set_slo_class(1, SloClass::batch(BATCH_SLO));
                m.set_runqueue_aqm(RunqueueAqmConfig {
                    interval: Nanos::from_us(100),
                    ..Default::default()
                });
                m.start(&mut q);
                let mut nic = NicConfig::for_workers(NIC_WORKERS);
                nic.client_timeout = NIC_TIMEOUT;
                install_tenants(
                    &mut q,
                    self.generators(seed),
                    nic,
                    self.window_end(),
                    None,
                    nic_control(),
                );
            }
            Kind::Schbench => {
                m.add_app("schbench", AppKind::Lc);
                m.start(&mut q);
                schbench::spawn(&mut m, &mut q, 0, SCH_THREADS, SCH_WORK, mix(seed));
            }
        }
        Job { m, q }
    }
}

/// `slo_sweep`'s controller: ring CoDel, per-class deadline admission
/// and per-class retry budgets.
fn nic_control() -> OverloadControl {
    let mut adm = AdmissionConfig::default();
    adm.class_slo[0] = Some(LC_SLO);
    adm.class_slo[1] = Some(BATCH_SLO);
    let mut frac = [None; MAX_CLASSES];
    frac[0] = Some(SloClass::latency_critical(LC_SLO).retry_frac);
    frac[1] = Some(SloClass::batch(BATCH_SLO).retry_frac);
    OverloadControl {
        codel: Some(CodelConfig::default()),
        admission: Some(adm),
        retry: Some(RetryPolicy::default()),
        retry_frac: Some(frac),
    }
}
