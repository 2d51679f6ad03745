//! Fixture-driven integration tests: every rule is demonstrated by a
//! violating fixture (with a clean counterpart beside it), suppression
//! markers behave as documented, and the report is byte-identical
//! across runs. The final test lints the real workspace — the same gate
//! CI runs — so a regression that dirties the tree fails here first.

use doall_lint::{lint_root, LintOptions, RuleId};
use std::path::{Path, PathBuf};

fn fixture_ws() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

#[test]
fn every_rule_fires_on_its_fixture_with_exact_anchors() {
    let report = lint_root(&fixture_ws(), &LintOptions::default()).unwrap();
    let got: Vec<(String, usize, RuleId)> = report
        .diagnostics
        .iter()
        .map(|d| (d.path.clone(), d.line, d.rule))
        .collect();
    // The full expected set: one firing fixture per rule, the suppression
    // fixture's single uncovered line — and nothing else, which is the
    // clean-counterpart assertion (d001_clean.rs, scheduler.rs,
    // d003_clean.rs, d004_clean.rs, h001_clean.rs, the bench driver's
    // sweep.rs, masked.rs, and the perms crate root all stay silent).
    let want = [
        (
            "crates/doall-bench/src/d003_violation.rs".to_string(),
            3,
            RuleId::D003,
        ),
        (
            "crates/doall-bench/src/d004_violation.rs".to_string(),
            7,
            RuleId::D004,
        ),
        (
            "crates/doall-bench/src/scenario.rs".to_string(),
            4,
            RuleId::H001,
        ),
        ("crates/doall-core/src/lib.rs".to_string(), 1, RuleId::H002),
        (
            "crates/doall-perms/src/h001_violation.rs".to_string(),
            3,
            RuleId::H001,
        ),
        (
            "crates/doall-runtime/src/d002_violation.rs".to_string(),
            3,
            RuleId::D002,
        ),
        (
            "crates/doall-sim/src/d001_violation.rs".to_string(),
            2,
            RuleId::D001,
        ),
        (
            "crates/doall-sim/src/suppressed.rs".to_string(),
            5,
            RuleId::D001,
        ),
        ("src/cli.rs".to_string(), 4, RuleId::H001),
    ];
    assert_eq!(got, want, "fixture diagnostics drifted");
    assert_eq!(report.files_scanned, 17);
    assert_eq!(
        report.suppressed, 3,
        "same-line + line-above + D004 drain markers"
    );
    assert!(!report.is_clean());
}

#[test]
fn only_filter_restricts_the_fixture_scan() {
    let report = lint_root(
        &fixture_ws(),
        &LintOptions {
            only: vec![RuleId::D001],
        },
    )
    .unwrap();
    assert!(report.diagnostics.iter().all(|d| d.rule == RuleId::D001));
    assert_eq!(report.diagnostics.len(), 2, "{:?}", report.diagnostics);
    assert_eq!(report.suppressed, 2, "suppressions count under --only too");
    let d002 = lint_root(
        &fixture_ws(),
        &LintOptions {
            only: vec![RuleId::D002],
        },
    )
    .unwrap();
    assert_eq!(d002.diagnostics.len(), 1, "{:?}", d002.diagnostics);
    assert_eq!(d002.diagnostics[0].rule, RuleId::D002);
    assert_eq!(d002.suppressed, 0, "D001 markers don't apply to D002");
}

#[test]
fn reports_are_byte_identical_across_runs() {
    let opts = LintOptions::default();
    let a = lint_root(&fixture_ws(), &opts).unwrap();
    let b = lint_root(&fixture_ws(), &opts).unwrap();
    assert_eq!(a.render_text(), b.render_text());
    assert_eq!(a.render_json(), b.render_json());
    // And the rendered text carries clickable path:line anchors.
    assert!(a
        .render_text()
        .contains("crates/doall-sim/src/d001_violation.rs:2: D001"));
    assert!(a.render_json().contains("\"rule\": \"H002\""));
}

#[test]
fn the_real_workspace_is_lint_clean() {
    // CARGO_MANIFEST_DIR = crates/doall-lint; two levels up is the repo.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap();
    let report = lint_root(&root, &LintOptions::default()).unwrap();
    assert!(
        report.is_clean(),
        "the workspace must stay lint-clean; fix or justify:\n{}",
        report.render_text()
    );
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned ({}) — walker broke?",
        report.files_scanned
    );
}
