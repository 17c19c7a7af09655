//! Output helpers: print a table and persist its CSV — under `results/`
//! for canonical runs only.

use std::fs;
use std::path::PathBuf;

use skyloft_metrics::{Series, Table};

/// Directory where canonical experiment CSVs (the goldens) are written.
pub fn results_dir() -> PathBuf {
    let root = std::env::var("SKYLOFT_RESULTS_DIR")
        .unwrap_or_else(|_| format!("{}/../../results", env!("CARGO_MANIFEST_DIR")));
    PathBuf::from(root)
}

/// Where [`emit`] writes: [`results_dir`] for canonical runs (see
/// [`crate::Flags::canonical`]), else a scratch directory under
/// `target/`, so a smoke or reseeded run can never overwrite a golden.
pub(crate) fn csv_dir(canonical: bool) -> PathBuf {
    if canonical {
        results_dir()
    } else {
        PathBuf::from(format!(
            "{}/../../target/results",
            env!("CARGO_MANIFEST_DIR")
        ))
    }
}

/// Prints the table under a heading and writes `<id>.csv` (see
/// [`csv_dir`] for where).
pub fn emit(id: &str, heading: &str, table: &Table) {
    println!("== {heading} ==");
    println!("{}", table.render());
    let dir = csv_dir(crate::Flags::parse().canonical());
    if fs::create_dir_all(&dir).is_ok() {
        let path = dir.join(format!("{id}.csv"));
        if let Err(e) = fs::write(&path, table.to_csv()) {
            eprintln!("warning: could not write {}: {e}", path.display());
        } else {
            println!("(csv: {})\n", path.display());
        }
    }
}

/// Renders a latency-vs-load figure as a table: one row per offered rate,
/// one column per series.
pub fn figure_table(
    x_label: &str,
    col: impl Fn(&skyloft_metrics::LoadPoint) -> f64,
    series: &[Series],
) -> Table {
    let mut header = vec![x_label.to_string()];
    header.extend(series.iter().map(|s| s.name.clone()));
    let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(&header_refs);
    let n = series.iter().map(|s| s.points.len()).max().unwrap_or(0);
    for i in 0..n {
        let mut row = Vec::with_capacity(header.len());
        let x = series
            .iter()
            .find_map(|s| s.points.get(i).map(|p| p.offered_rps))
            .unwrap_or(0.0);
        row.push(format!("{:.0}", x / 1000.0));
        for s in series {
            match s.points.get(i) {
                Some(p) => row.push(format!("{:.1}", col(p))),
                None => row.push(String::new()),
            }
        }
        t.row_owned(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use skyloft_metrics::LoadPoint;

    #[test]
    fn only_canonical_runs_write_results() {
        assert_eq!(csv_dir(true), results_dir());
        let scratch = csv_dir(false);
        assert_ne!(scratch, results_dir());
        assert!(scratch.ends_with("target/results"), "{}", scratch.display());
    }

    #[test]
    fn figure_table_shapes() {
        let mut a = Series::new("A");
        a.push(LoadPoint {
            offered_rps: 1000.0,
            achieved_rps: 990.0,
            p50_us: 5.0,
            p99_us: 9.0,
            p999_us: 12.0,
            slowdown_p999: None,
            be_share: None,
        });
        let t = figure_table("kRPS", |p| p.p99_us, &[a]);
        let s = t.render();
        assert!(s.contains("kRPS"));
        assert!(s.contains("9.0"));
    }
}
