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
pub mod threadops;

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

/// The run-mode flags shared by the bench binaries: `--write` and
/// `--check` (the baseline gate, see [`baseline::Gate`]), `--smoke`
/// (shortened CI windows) and `--seed N` / `--seed=N`, plus the
/// [`fast_factor`] in force. Other arguments are left to the binary.
#[derive(Clone, Copy, Debug, Default)]
pub struct Flags {
    /// Record the measured numbers as the bench's baseline.
    pub(crate) write: bool,
    /// Gate on the bench's checks; a failure exits 1.
    pub(crate) check: bool,
    /// Shortened windows (the CI configuration).
    pub smoke: bool,
    /// An explicit seed in place of the binary's default.
    pub seed: Option<u64>,
    /// The `SKYLOFT_FAST` shrink factor, if one above 1 is set.
    pub(crate) fast: Option<u64>,
}

impl Flags {
    /// Parses the current process's arguments and environment. A `--seed`
    /// without a `u64` value is a usage error: the process exits 2 rather
    /// than silently running the default seed.
    pub fn parse() -> Flags {
        let args: Vec<String> = std::env::args().skip(1).collect();
        Flags::from_args(&args, fast_factor()).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        })
    }

    fn from_args(args: &[String], fast: Option<u64>) -> Result<Flags, String> {
        let mut f = Flags {
            fast,
            ..Flags::default()
        };
        let mut args = args.iter().map(String::as_str);
        while let Some(a) = args.next() {
            match a {
                "--write" => f.write = true,
                "--check" => f.check = true,
                "--smoke" => f.smoke = true,
                "--seed" => f.seed = Some(parse_seed(args.next())?),
                _ => {
                    if let Some(v) = a.strip_prefix("--seed=") {
                        f.seed = Some(parse_seed(Some(v))?);
                    }
                }
            }
        }
        Ok(f)
    }

    /// Whether this run reproduces the committed outputs: full windows
    /// (no `SKYLOFT_FAST`), the default seed and no `--smoke`. Only
    /// canonical runs write `results/` ([`out::emit`]) or the repo-root
    /// baselines ([`baseline::Gate::finish`]).
    pub fn canonical(&self) -> bool {
        !self.smoke && self.seed.is_none() && self.fast.is_none()
    }
}

fn parse_seed(v: Option<&str>) -> Result<u64, String> {
    let v = v.ok_or("--seed takes a value")?;
    v.parse()
        .map_err(|_| format!("--seed takes a u64, got {v:?}"))
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(v: &[&str], fast: Option<u64>) -> Result<Flags, String> {
        let args: Vec<String> = v.iter().map(|a| a.to_string()).collect();
        Flags::from_args(&args, fast)
    }

    #[test]
    fn seed_takes_both_forms_and_rejects_a_bad_value() {
        assert_eq!(parse(&["--seed", "7"], None).unwrap().seed, Some(7));
        assert_eq!(parse(&["--seed=7"], None).unwrap().seed, Some(7));
        let f = parse(&["--smoke", "--check", "--seed", "2024"], None).unwrap();
        assert!(f.smoke && f.check && !f.write);
        assert_eq!(f.seed, Some(2024));
        for bad in [&["--seed", "seven"][..], &["--seed=seven"], &["--seed"]] {
            let e = parse(bad, None).unwrap_err();
            assert!(e.starts_with("--seed takes a"), "{bad:?}: {e}");
        }
    }

    #[test]
    fn only_default_full_window_runs_are_canonical() {
        assert!(parse(&[], None).unwrap().canonical());
        assert!(parse(&["--write", "--check", "--trace", "t.json"], None)
            .unwrap()
            .canonical());
        assert!(!parse(&["--smoke"], None).unwrap().canonical());
        assert!(!parse(&["--seed", "7"], None).unwrap().canonical());
        assert!(!parse(&["--seed=7"], None).unwrap().canonical());
        assert!(!parse(&[], Some(10)).unwrap().canonical());
    }
}
