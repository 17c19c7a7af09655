//! Scheduling policies implemented on Skyloft's scheduling operations
//! (Table 2), mirroring the schedulers evaluated in §5 and their line
//! counts in Table 4:
//!
//! * [`rr::RoundRobin`] — per-CPU round-robin with time slicing (§5.1);
//!   an infinite slice gives the Skyloft-FIFO of Figure 6.
//! * [`cfs::Cfs`] — Completely Fair Scheduler with vruntime accounting,
//!   sleeper compensation and wakeup preemption (§5.1).
//! * [`eevdf::Eevdf`] — Earliest Eligible Virtual Deadline First, the
//!   lag-based fair scheduler merged in Linux v6.6 (§5.1).
//! * [`shinjuku::Shinjuku`] — the centralized preemptive-FCFS policy of
//!   Shinjuku (NSDI'19), driven by a dispatcher core (§5.2).
//! * [`shinjuku_shenango::ShinjukuShenango`] — the same policy co-located
//!   with a best-effort application under Shenango-style core allocation
//!   (§5.2, Figures 7b/7c).
//! * [`work_stealing::WorkStealing`] — Shenango-style per-CPU deques with
//!   stealing, optionally preemptive with a quantum (§5.3).
//!
//! Each policy is a few hundred lines including tests — the paper's claim
//! that Skyloft's operations make schedulers this small is directly
//! observable here (the `tab4_loc` bench target counts them).
//!
//! # The `reference-policy` feature
//!
//! [`reference`] holds frozen pre-optimization copies of every policy
//! (full-scan EEVDF averages, O(n) dequeues, dense runqueue vectors).
//! They are always compiled — differential tests drive both versions in
//! one binary — and the `reference-policy` feature additionally swaps the
//! crate-root re-exports ([`Cfs`], [`Eevdf`], …) to the reference
//! versions, so the entire test suite and every figure sweep can run
//! against the oracle (the `reference-queue`/`reference-deque` pattern).
//! Module paths (`eevdf::Eevdf`, …) always name the optimized versions.

#![warn(missing_docs)]

pub mod cfs;
pub mod coremap;
pub mod eevdf;
pub mod reference;
pub mod rqtree;
pub mod rr;
pub mod shinjuku;
pub mod shinjuku_shenango;
pub mod work_stealing;

#[cfg(not(feature = "reference-policy"))]
pub use cfs::Cfs;
#[cfg(not(feature = "reference-policy"))]
pub use eevdf::Eevdf;
#[cfg(not(feature = "reference-policy"))]
pub use rr::RoundRobin;
#[cfg(not(feature = "reference-policy"))]
pub use shinjuku::Shinjuku;
#[cfg(not(feature = "reference-policy"))]
pub use shinjuku_shenango::ShinjukuShenango;
#[cfg(not(feature = "reference-policy"))]
pub use work_stealing::WorkStealing;

#[cfg(feature = "reference-policy")]
pub use reference::{Cfs, Eevdf, RoundRobin, Shinjuku, ShinjukuShenango, WorkStealing};
