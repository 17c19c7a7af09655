//! Table 4: lines of code per scheduler.
//!
//! The paper's claim is that Skyloft's scheduling operations let complete
//! policies fit in a few hundred lines. This harness counts the *actual*
//! non-blank, non-comment, non-test lines of this reproduction's policy
//! modules and prints them next to the paper's numbers for the same
//! policies and for the systems they are compared against. CFS and EEVDF
//! each count the runqueue tree they share (`rqtree.rs`), as the paper's
//! counts include their runqueue code.

use std::path::Path;

use skyloft_bench::out;
use skyloft_metrics::Table;

/// Counts effective lines: skips blanks, `//` comment lines, and
/// everything from the `#[cfg(test)]` marker on (tests are not policy
/// logic).
fn count_loc(path: &Path) -> std::io::Result<usize> {
    let src = std::fs::read_to_string(path)?;
    let mut n = 0;
    for line in src.lines() {
        let t = line.trim();
        if t.starts_with("#[cfg(test)]") {
            break;
        }
        if t.is_empty() || t.starts_with("//") {
            continue;
        }
        n += 1;
    }
    Ok(n)
}

fn main() {
    let policies_dir = format!("{}/../policies/src", env!("CARGO_MANIFEST_DIR"));
    let rows: Vec<(&str, &[&str], &str)> = vec![
        // (display name, our files, paper's LoC for its counterpart)
        ("Skyloft Round-Robin", &["rr.rs"], "141"),
        ("Skyloft CFS", &["cfs.rs", "rqtree.rs"], "430"),
        ("Skyloft EEVDF", &["eevdf.rs", "rqtree.rs"], "579"),
        ("Skyloft Shinjuku", &["shinjuku.rs"], "192"),
        (
            "Skyloft Shinjuku-Shenango",
            &["shinjuku_shenango.rs"],
            "444",
        ),
        (
            "Skyloft Work-Stealing (preempt)",
            &["work_stealing.rs"],
            "150",
        ),
    ];
    let mut t = Table::new(&["scheduler", "this repo (LoC)", "paper (LoC)"]);
    for (name, files, paper) in rows {
        let loc = files
            .iter()
            .map(|f| count_loc(&Path::new(&policies_dir).join(f)))
            .sum::<std::io::Result<usize>>()
            .map(|n| n.to_string())
            .unwrap_or_else(|e| format!("error: {e}"));
        t.row(&[name, &loc, paper]);
    }
    // Reference systems the paper lists for contrast.
    for (name, loc) in [
        ("Linux CFS (kernel/sched/fair.c)", "6592"),
        ("Linux RT (kernel/sched/rt.c)", "1939"),
        ("Linux EEVDF (v6.8 fair.c)", "7102"),
        ("ghOSt Shinjuku", "710"),
        ("ghOSt Shinjuku-Shenango", "727"),
    ] {
        t.row(&[name, "-", loc]);
    }
    out::emit("tab4_loc", "Table 4: scheduler lines of code", &t);
    println!(
        "Shape check: every Skyloft policy above should be in the hundreds \
         of lines, an order of magnitude below the kernel schedulers."
    );
}
