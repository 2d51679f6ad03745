//! The experiment harness: declarative scenario grids, a parallel sweep
//! engine, machine-readable results, and the scenario-suite runner that
//! executes the committed `scenarios/*.scn` files (every `e01`–`e17`
//! experiment is such a file — data, not Rust). The `doall` binary is
//! the one entry point: `doall test --suite scenarios/` runs the suite,
//! `doall sweep` runs an ad-hoc grid.
//!
//! ```text
//! doall test --suite scenarios/ --only e05                 # one experiment
//! doall test --suite scenarios/ --smoke \
//!     --record --baseline bench-smoke.json                 # the CI artifact
//! ```
//!
//! The module split mirrors the pipeline: [`scenario`] (the `*.scn` file
//! format: grids + assertions) → [`grid`] (what to run) → [`sweep`] (run
//! it, in parallel, deterministically) → [`resultset`] (the record
//! schema and its deterministic JSON/CSV renderers), with [`suite`]
//! orchestrating discovery, assertion evaluation, and the pass/fail
//! report, and [`experiments`] holding the named derived-metric hooks.
//! [`mod@compare`] diffs two result sets: a run against a committed
//! baseline, cell by cell, at tolerance 0 by default. Throughput over
//! time is not tracked here; the separate `perfbench` package measures
//! it against the bounds in `BENCHMARK.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod experiments;
pub mod grid;
pub mod resultset;
pub mod scenario;
pub mod suite;
pub mod sweep;

pub use compare::{
    compare, compare_files, load_result_set, parse_result_set, preserve_measured_values,
    BaselineSet, CellDiff, CellKey, CellStatus, CompareError, Comparison, MetricDelta,
    DIFF_SCHEMA_VERSION,
};
pub use experiments::{derive_by_name, scenarios_dir, DeriveFn};
pub use grid::{AdversarySpec, AlgoSpec, Cell, CrashStagger, Grid, GridError};
pub use resultset::{
    canonical_adversary, parse_json, Json, Record, ResultSet, ResultSetError, SCHEMA_VERSION,
};
pub use scenario::{Assertion, Scenario, ScenarioError};
pub use suite::{
    load_dir, run_scenario, run_suite, AssertionFailure, ScenarioOutcome, SuiteConfig, SuiteReport,
};
pub use sweep::{
    effective_shard_size, run_cells, run_cells_with_stats, CellMeasurement, SweepConfig,
    SweepError, SweepStats,
};

/// A Markdown table accumulated row by row and printed to stdout.
#[derive(Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new<S: Into<String>>(headers: Vec<S>) -> Self {
        Self {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    ///
    /// # Panics
    ///
    /// Panics if the row width does not match the header width.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders the table as GitHub-flavoured Markdown (one trailing
    /// newline per row; deterministic for identical content).
    #[must_use]
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let line = |cells: &[String], out: &mut String| {
            let padded: Vec<String> = cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            out.push_str(&format!("| {} |\n", padded.join(" | ")));
        };
        line(&self.headers, &mut out);
        let dashes: Vec<String> = widths.iter().map(|w| format!("{:->w$}", "-")).collect();
        out.push_str(&format!("|-{}-|\n", dashes.join("-|-")));
        for row in &self.rows {
            line(row, &mut out);
        }
        out
    }

    /// Prints the table as GitHub-flavoured Markdown.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

/// Formats a float compactly for table cells.
#[must_use]
pub fn fmt(v: f64) -> String {
    if v >= 1000.0 {
        format!("{v:.0}")
    } else if v >= 10.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_roundtrip() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["1", "2"]);
        t.print(); // smoke: must not panic
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["1"]);
    }

    #[test]
    fn fmt_scales() {
        assert_eq!(fmt(0.5), "0.500");
        assert_eq!(fmt(42.123), "42.1");
        assert_eq!(fmt(12345.6), "12346");
    }
}
