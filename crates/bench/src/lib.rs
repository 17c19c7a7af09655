//! Benchmark harness: machine builders for every evaluated system and
//! output helpers shared by the per-figure binaries.
//!
//! Each table/figure of the paper has a binary in `src/bin/` (see
//! DESIGN.md §5 for the index); run them with
//! `cargo run --release -p skyloft-bench --bin <id>`. Results are printed
//! as text tables and written as CSV under `results/` (canonical runs
//! only; see [`out::emit`]).

pub mod baseline;
pub mod build;
pub mod out;
pub mod schbench_util;

use skyloft_sim::Nanos;

/// Writes `m`'s scheduling trace (Chrome-trace JSON, loadable in
/// Perfetto / `chrome://tracing`) when a `--trace <path>` argument is on
/// the command line. `what` labels the dump: each machine writes its own
/// file, `<path>.<label>.json` (label = `what` sanitized to a slug), so a
/// binary that runs several machines keeps every trace instead of the
/// last machine overwriting the others — matching the sweep harness's
/// per-point `<path>.<system>.<rate>.json` naming.
pub fn dump_trace(m: &skyloft::machine::Machine, what: &str) {
    if let Some(base) = skyloft_apps::harness::trace_arg() {
        let slug: String = what
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '-'
                }
            })
            .collect();
        let path = std::path::PathBuf::from(format!("{}.{slug}.json", base.display()));
        match m.write_trace(&path) {
            Ok(()) => eprintln!("trace: wrote {} ({what})", path.display()),
            Err(e) => eprintln!("trace: failed to write {}: {e}", path.display()),
        }
    }
}

/// The binary's positional arguments (without the program name), with the
/// shared `--trace <path>` / `--trace=<path>` flag filtered out so
/// positional parsing is unaffected by it. A trailing bare `--trace`
/// (no path following it) is reported on stderr rather than silently
/// swallowing the dump the user asked for.
pub fn positional_args() -> Vec<String> {
    let mut out = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--trace" {
            if args.next().is_none() {
                eprintln!("warning: --trace given without a path; ignoring");
            }
        } else if !a.starts_with("--trace=") {
            out.push(a);
        }
    }
    out
}

/// The `SKYLOFT_FAST` shrink factor (e.g. `SKYLOFT_FAST=10` runs ten
/// times shorter windows), when one above 1 is set — used to smoke-test
/// the figure binaries.
pub fn fast_factor() -> Option<u64> {
    std::env::var("SKYLOFT_FAST")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .filter(|&f| f > 1)
}

/// Scales a duration down by [`fast_factor`].
pub fn scaled(d: Nanos) -> Nanos {
    fast_factor().map_or(d, |f| d / f)
}

/// Shared experiment constants (§5's setup).
pub mod setup {
    use super::*;

    /// Worker cores for the Figure 7 experiments (plus one dispatcher).
    pub const FIG7_WORKERS: usize = 20;
    /// Worker cores for Linux CFS in Figure 7 (no dispatcher needed).
    pub const FIG7_LINUX_WORKERS: usize = 21;
    /// Worker cores for Memcached (Figure 8a).
    pub const FIG8A_WORKERS: usize = 4;
    /// Worker cores for the RocksDB server (Figure 8b).
    pub const FIG8B_WORKERS: usize = 14;
    /// Isolated cores for schbench (Figure 5/6).
    pub const FIG5_CORES: usize = 24;
    /// The preemption quantum the paper finds best for Figure 7 (30 μs).
    pub const FIG7_QUANTUM: Nanos = Nanos::from_us(30);
    /// Default measurement seed.
    pub const SEED: u64 = 2024_1104;
}
