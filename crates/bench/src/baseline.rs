//! The repo-root `BENCH_*.json` baseline files and the [`Gate`] that the
//! `--write`/`--check` benches record into and check against.
//!
//! The baselines are hand-rolled flat JSON: a top of header scalars
//! (`"schema"`, `"bench"`) followed by named object sections, one per
//! recorded series. Several binaries share one file (netbench and
//! overload_sweep both record into `BENCH_net.json`), so writers must
//! splice their own sections in place instead of rewriting the file —
//! otherwise a `--write` from one bench silently discards the other's
//! stored numbers and its `--check` loses its regression bound.

use std::path::{Path, PathBuf};

use crate::Flags;

/// What a missing baseline file is (re)created from.
const EMPTY: &str = "{\n  \"schema\": 1\n}\n";

/// The sample with the highest `score` out of `n` runs of `run`.
pub fn best_of<T>(n: usize, mut run: impl FnMut() -> T, score: impl Fn(&T) -> f64) -> T {
    (0..n)
        .map(|_| run())
        .max_by(|a, b| score(a).total_cmp(&score(b)))
        .expect("at least one sample")
}

/// One bench's checks and baseline record. Bounds compare a measurement
/// against the baseline file as it was when the gate was built (read
/// once); [`require`](Gate::require) carries the bench's semantic checks.
/// Every check reports on stderr; [`finish`](Gate::finish) records the
/// queued sections on `--write` and exits 1 on `--check` if any failed.
pub struct Gate {
    bench: &'static str,
    path: PathBuf,
    json: Option<String>,
    flags: Flags,
    sections: Vec<(String, String)>,
    failed: usize,
}

impl Gate {
    /// A gate for `bench` over its baseline `file`, resolved against the
    /// repo root (an absolute `file` is kept as is).
    pub fn new(bench: &'static str, file: impl AsRef<Path>, flags: Flags) -> Gate {
        let path = Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join(file);
        let json = std::fs::read_to_string(&path).ok();
        Gate {
            bench,
            path,
            json,
            flags,
            sections: Vec::new(),
            failed: 0,
        }
    }

    /// Lower bound: `measured >= base * frac`, `base` being `key` in
    /// `section` of the baseline.
    pub fn at_least(&mut self, section: &str, key: &str, measured: f64, frac: f64) {
        self.bound(section, key, measured, frac, true);
    }

    /// Upper bound: `measured <= base * frac`.
    pub fn at_most(&mut self, section: &str, key: &str, measured: f64, frac: f64) {
        self.bound(section, key, measured, frac, false);
    }

    fn bound(&mut self, section: &str, key: &str, measured: f64, frac: f64, lower: bool) {
        let Some(base) = self.json.as_deref().and_then(|j| extract(j, section, key)) else {
            eprintln!(
                "{}: no {section}.{key} in {} — bound skipped",
                self.bench,
                self.path.display()
            );
            return;
        };
        let (ok, op) = if lower {
            (measured >= base * frac, ">=")
        } else {
            (measured <= base * frac, "<=")
        };
        self.require(
            ok,
            format!("{section}.{key} {measured:.1} (need {op} {frac} x baseline {base:.1})"),
        );
    }

    /// A semantic check: `msg` describes what was required.
    pub fn require(&mut self, ok: bool, msg: impl std::fmt::Display) {
        if ok {
            eprintln!("{}: ok — {msg}", self.bench);
        } else {
            eprintln!("{}: FAIL — {msg}", self.bench);
            self.failed += 1;
        }
    }

    /// Queues `body` (inner lines indented four spaces, see
    /// [`upsert_section`]) as section `name`, written by [`finish`](Gate::finish).
    pub fn upsert(&mut self, name: &str, body: String) {
        self.sections.push((name.to_string(), body));
    }

    /// On `--write`, records the queued sections; on `--check` with a
    /// failed check, exits 1.
    pub fn finish(self) {
        let code = self.settle();
        if code != 0 {
            std::process::exit(code);
        }
    }

    /// [`finish`](Gate::finish) without the exit: the exit code.
    fn settle(self) -> i32 {
        if self.flags.write {
            match self.write() {
                Ok(dest) => eprintln!("{}: wrote {}", self.bench, dest.display()),
                Err(e) => eprintln!("{}: failed to write its baseline: {e}", self.bench),
            }
        }
        if !(self.flags.check && self.failed > 0) {
            return 0;
        }
        eprintln!("{}: {} check(s) failed", self.bench, self.failed);
        1
    }

    /// Splices the queued sections into the committed baseline on a
    /// canonical run ([`Flags::canonical`]); any other run gets a copy of
    /// it under the scratch directory [`crate::out::emit`] uses, so a
    /// smoke or reseeded run can never overwrite a baseline.
    fn write(&self) -> std::io::Result<PathBuf> {
        let dest = if self.flags.canonical() {
            self.path.clone()
        } else {
            let dir = crate::out::csv_dir(false);
            std::fs::create_dir_all(&dir)?;
            let dest = dir.join(self.path.file_name().expect("baseline is a file"));
            std::fs::write(&dest, self.json.as_deref().unwrap_or(EMPTY))?;
            dest
        };
        for (name, body) in &self.sections {
            upsert_section(&dest, name, body)?;
        }
        Ok(dest)
    }
}

/// Pulls `"key": <number>` out of `section` of a baseline file.
pub fn extract(json: &str, section: &str, key: &str) -> Option<f64> {
    let at = json.find(&format!("\"{section}\""))?;
    let rest = &json[at..];
    let at = rest.find(&format!("\"{key}\""))?;
    let rest = &rest[at..];
    let colon = rest.find(':')?;
    let num: String = rest[colon + 1..]
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    num.parse().ok()
}

/// Replaces or appends the top-level object section `name`, leaving every
/// other section byte-identical. `body` is the section's inner lines,
/// already indented four spaces, without the surrounding braces or a
/// trailing newline. A missing or unreadable file is (re)created with a
/// schema header.
pub fn upsert_section(path: &Path, name: &str, body: &str) -> std::io::Result<()> {
    let json = std::fs::read_to_string(path).unwrap_or_else(|_| EMPTY.to_string());
    let updated = splice_section(&json, name, body);
    std::fs::write(path, updated)
}

fn splice_section(json: &str, name: &str, body: &str) -> String {
    let key = format!("\"{name}\"");
    if let Some(open) = json
        .find(&key)
        .and_then(|at| json[at..].find('{').map(|off| at + off))
    {
        // Replace the existing section body between its matched braces.
        let mut depth = 0usize;
        let mut close = open;
        for (i, c) in json[open..].char_indices() {
            match c {
                '{' => depth += 1,
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        close = open + i;
                        break;
                    }
                }
                _ => {}
            }
        }
        format!("{}{{\n{body}\n  {}", &json[..open], &json[close..])
    } else {
        // Append a new section before the file's final closing brace,
        // adding the comma the previous last entry now needs.
        let end = json.rfind('}').unwrap_or(json.len());
        let mut head = json[..end].trim_end().to_string();
        if !head.ends_with(',') && !head.ends_with('{') {
            head.push(',');
        }
        format!("{head}\n  \"{name}\": {{\n{body}\n  }}\n}}\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED_FILE: &str = "{\n  \"schema\": 1,\n  \"bench\": \"netbench\",\n  \"current\": {\n    \"p99_us\": 12.5\n  }\n}\n";

    #[test]
    fn append_preserves_existing_sections() {
        let out = splice_section(SEED_FILE, "overload_ctl", "    \"goodput\": 9");
        assert!(out.contains("\"current\""));
        assert!(out.contains("\"p99_us\": 12.5"));
        assert!(out.contains("\"overload_ctl\""));
        assert_eq!(extract(&out, "overload_ctl", "goodput"), Some(9.0));
        assert_eq!(extract(&out, "current", "p99_us"), Some(12.5));
    }

    #[test]
    fn replace_touches_only_the_named_section() {
        let with = splice_section(SEED_FILE, "overload_ctl", "    \"goodput\": 9");
        let out = splice_section(&with, "current", "    \"p99_us\": 99.0");
        assert_eq!(extract(&out, "current", "p99_us"), Some(99.0));
        assert_eq!(extract(&out, "overload_ctl", "goodput"), Some(9.0));
        // Replacing must not duplicate the section.
        assert_eq!(out.matches("\"current\"").count(), 1);
    }

    #[test]
    fn empty_file_gets_a_schema_header() {
        let out = splice_section("{\n  \"schema\": 1\n}\n", "fresh", "    \"x\": 1");
        assert_eq!(extract(&out, "fresh", "x"), Some(1.0));
        assert!(out.starts_with("{\n  \"schema\": 1,\n"));
    }

    /// A baseline file of its own under the system temp dir, removed
    /// (with its scratch copy) on drop.
    struct TempBaseline(PathBuf);

    impl TempBaseline {
        fn new(tag: &str, contents: Option<&str>) -> TempBaseline {
            let name = format!("BENCH_gate_{tag}_{}.json", std::process::id());
            let p = std::env::temp_dir().join(name);
            match contents {
                Some(c) => std::fs::write(&p, c).unwrap(),
                None => {
                    let _ = std::fs::remove_file(&p);
                }
            }
            TempBaseline(p)
        }

        fn scratch(&self) -> PathBuf {
            crate::out::csv_dir(false).join(self.0.file_name().unwrap())
        }

        fn gate(&self, flags: Flags) -> Gate {
            Gate::new("test", &self.0, flags)
        }
    }

    impl Drop for TempBaseline {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
            let _ = std::fs::remove_file(self.scratch());
        }
    }

    const CHECK: Flags = Flags {
        write: false,
        check: true,
        smoke: false,
        seed: None,
        fast: None,
    };

    #[test]
    fn bounds_pass_at_the_boundary_and_fail_just_past_it() {
        let b = TempBaseline::new("bounds", Some(SEED_FILE));
        let mut g = b.gate(CHECK);
        g.at_least("current", "p99_us", 12.5 * 0.5, 0.5);
        g.at_most("current", "p99_us", 12.5 * 1.25, 1.25);
        assert_eq!(g.failed, 0);
        g.at_least("current", "p99_us", 12.5 * 0.5 - 1e-9, 0.5);
        assert_eq!(g.failed, 1);
        g.at_most("current", "p99_us", 12.5 * 1.25 + 1e-9, 1.25);
        assert_eq!(g.failed, 2);
        assert_eq!(g.settle(), 1);
    }

    #[test]
    fn a_missing_file_skips_bounds_but_not_requirements() {
        let b = TempBaseline::new("missing", None);
        let mut g = b.gate(CHECK);
        g.at_least("current", "p99_us", 0.0, 0.7);
        g.at_most("current", "p99_us", f64::MAX, 1.3);
        assert_eq!(g.failed, 0);
        g.require(false, "semantic");
        assert_eq!(g.settle(), 1);
    }

    #[test]
    fn a_missing_key_is_skipped() {
        let b = TempBaseline::new("key", Some(SEED_FILE));
        let mut g = b.gate(CHECK);
        g.at_least("current", "absent", 0.0, 0.7);
        g.at_least("absent", "p99_us", 0.0, 0.7);
        assert_eq!(g.settle(), 0);
    }

    #[test]
    fn only_check_with_a_failure_exits_non_zero() {
        let b = TempBaseline::new("exit", Some(SEED_FILE));
        for (check, ok, code) in [(false, false, 0), (true, true, 0), (true, false, 1)] {
            let mut g = b.gate(Flags { check, ..CHECK });
            g.require(ok, "semantic");
            assert_eq!(g.settle(), code, "check {check}, ok {ok}");
        }
    }

    #[test]
    fn only_canonical_runs_write_the_committed_baseline() {
        let body = "    \"p99_us\": 99.0";
        for (tag, smoke, seed, fast) in [
            ("smoke", true, None, None),
            ("seed", false, Some(7), None),
            ("fast", false, None, Some(10)),
        ] {
            let b = TempBaseline::new(tag, Some(SEED_FILE));
            let flags = Flags {
                write: true,
                check: false,
                smoke,
                seed,
                fast,
            };
            let mut g = b.gate(flags);
            g.upsert("current", body.to_string());
            assert_eq!(g.settle(), 0);
            assert_eq!(std::fs::read_to_string(&b.0).unwrap(), SEED_FILE, "{tag}");
            let copy = std::fs::read_to_string(b.scratch()).unwrap();
            assert_eq!(copy, splice_section(SEED_FILE, "current", body), "{tag}");
        }
        let b = TempBaseline::new("canonical", Some(SEED_FILE));
        let mut g = b.gate(Flags {
            write: true,
            ..Flags::default()
        });
        g.upsert("current", body.to_string());
        assert_eq!(g.settle(), 0);
        let committed = std::fs::read_to_string(&b.0).unwrap();
        assert_eq!(committed, splice_section(SEED_FILE, "current", body));
        assert!(!b.scratch().exists());
    }

    #[test]
    fn best_of_keeps_the_top_scoring_sample() {
        let mut runs = [3.0, 9.0, 4.0].into_iter();
        assert_eq!(best_of(3, || runs.next().unwrap(), |&v| v), 9.0);
    }
}
