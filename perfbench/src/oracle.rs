//! What makes a pass correct, cell by cell.
//!
//! A cell fails when its scenario run errs (a sweep error or an
//! incomplete replicate fails every cell), a scenario assertion is
//! violated on it, it did not complete every replicate, it differs from
//! the reference at tolerance 0, or its record differs from the first
//! pass of the same run.

use doall_bench::compare::CellStatus;
use doall_bench::suite::{cell_label, FailureKind};
use doall_bench::{compare, BaselineSet, CellKey, Comparison, ScenarioOutcome};
use std::collections::{BTreeMap, BTreeSet};

/// The products of one pass that correctness is judged on.
pub struct PassOutput {
    /// Records and assertion results of the scenario run.
    pub outcome: ScenarioOutcome,
    /// The result set as rendered JSON.
    pub json: String,
    /// The rendered JSON parsed back.
    pub parsed: BaselineSet,
    /// `parsed` against the reference, at tolerance 0.
    pub cmp: Comparison,
}

/// Judges passes against a reference and against the first pass.
pub struct Oracle {
    reference: BaselineSet,
    /// The reference holds this very seed's results, so every value must
    /// match it; for other seeds only its cell set must.
    exact: bool,
    first: Option<(String, BaselineSet)>,
}

impl Oracle {
    pub fn new(reference: BaselineSet, exact: bool) -> Self {
        Self {
            reference,
            exact,
            first: None,
        }
    }

    pub fn reference(&self) -> &BaselineSet {
        &self.reference
    }

    /// Failed cells of one pass, and a line on each problem found.
    /// `expected` is the number of cells the grids expand to; `also` are
    /// cells the caller already found wrong.
    pub fn judge(
        &mut self,
        expected: usize,
        pass: &Result<PassOutput, String>,
        also: &BTreeSet<CellKey>,
    ) -> (usize, Vec<String>) {
        let out = match pass {
            Ok(out) => out,
            Err(e) => return (expected, vec![e.clone()]),
        };
        let records = &out.outcome.records;
        let mut notes = Vec::new();
        let mut all = records.len() != expected;
        if all {
            notes.push(format!("{} cells, expected {expected}", records.len()));
        }
        let by_label: BTreeMap<String, CellKey> = records
            .iter()
            .map(|r| (cell_label(&r.cell), r.key()))
            .collect();
        let mut failing: BTreeSet<CellKey> = also.clone();
        for f in &out.outcome.failures {
            notes.push(f.to_string());
            match &f.kind {
                FailureKind::Violated {
                    cell: Some(label), ..
                } if by_label.contains_key(label) => {
                    failing.insert(by_label[label].clone());
                }
                _ => all = true,
            }
        }
        for r in records {
            if r.metrics.get("completed") != Some(&(r.cell.seeds as f64)) {
                notes.push(format!("{}: incomplete replicates", r.key()));
                failing.insert(r.key());
            }
        }
        if out.cmp.old_info.0 != out.cmp.new_info.0 {
            notes.push("schema differs from the reference".to_string());
            all = true;
        }
        for diff in &out.cmp.cells {
            if self.exact || diff.status != CellStatus::Drift {
                notes.push(format!(
                    "{}: {:?} against the reference",
                    diff.key, diff.status
                ));
                failing.insert(diff.key.clone());
            }
        }
        match &self.first {
            None => self.first = Some((out.json.clone(), out.parsed.clone())),
            Some((json, _)) if *json == out.json => {}
            Some((_, first)) => {
                let moved = compare(first, &out.parsed, 0.0);
                notes.push(format!(
                    "result set differs from the first pass ({} cells)",
                    moved.cells.len()
                ));
                all |= moved.cells.is_empty();
                failing.extend(moved.cells.into_iter().map(|d| d.key));
            }
        }
        let failed = if all {
            expected.max(records.len())
        } else {
            failing.len().min(records.len())
        };
        (failed, notes)
    }
}
