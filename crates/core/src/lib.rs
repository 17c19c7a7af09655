//! # Skyloft: a general user-space scheduling framework
//!
//! Reproduction of the SOSP 2024 paper *"Skyloft: A General High-Efficient
//! Scheduling Framework in User Space"* (Jia, Tian, You, Chen, Chen).
//!
//! This crate is the framework itself: the user-thread model ([`task`]),
//! the Table 2 scheduling operations ([`ops::Policy`]), platform and
//! parameter configuration ([`conf`]), and the simulated machine that
//! executes policies over the mechanistic UINTR/APIC/kernel-module models
//! ([`machine`]). Concrete policies (RR, CFS, EEVDF, Shinjuku,
//! work-stealing, …) live in the `skyloft-policies` crate; comparator
//! system models live in `skyloft-baselines`.
//!
//! # Examples
//!
//! Run a FIFO workload on a 2-core Skyloft machine:
//!
//! ```
//! use skyloft::builtin::GlobalFifo;
//! use skyloft::machine::{AppKind, Machine, MachineConfig};
//! use skyloft::conf::Platform;
//! use skyloft_hw::Topology;
//! use skyloft_sim::{EventQueue, Nanos};
//!
//! let cfg = MachineConfig {
//!     plat: Platform::skyloft_percpu(Topology::single(2), 100_000),
//!     n_workers: 2,
//!     seed: 1,
//!     core_alloc: None,
//!     utimer_period: None,
//! };
//! let mut m = Machine::new(cfg, Box::new(GlobalFifo::new()));
//! m.add_app("demo", AppKind::Lc);
//! let mut q = EventQueue::new();
//! m.start(&mut q);
//! m.spawn_request(&mut q, 0, Nanos::from_us(10), 0, None);
//! m.run(&mut q, Nanos::from_ms(1));
//! assert_eq!(m.stats.completed, 1);
//! ```

#![warn(missing_docs)]

pub mod aqm;
pub mod builtin;
#[cfg(feature = "chaos")]
pub mod chaos;
pub mod conf;
pub mod machine;
pub mod ops;
pub mod stats;
pub mod task;
#[cfg(feature = "trace")]
pub mod trace;

pub use aqm::RunqueueAqm;
#[cfg(feature = "chaos")]
pub use chaos::FaultPlan;
pub use conf::{
    BrownoutConfig, CoreAllocConfig, Platform, PreemptMechanism, RecoveryConfig, RunqueueAqmConfig,
    SchedParams, SloClass,
};
pub use machine::{
    AppKind, Call, CallSink, Event, IpiPurpose, Machine, MachineConfig, NetTrace, Recur, SpawnOpts,
};
pub use ops::{CoreId, EnqueueFlags, Policy, PolicyKind, SchedEnv};
pub use stats::Stats;
pub use task::{AppId, Behavior, OneShot, RequestMeta, Step, Task, TaskId, TaskState, TaskTable};
