//! Determinism-preserving static analysis for the doall workspace —
//! the machine-checked invariant layer behind `doall lint`.
//!
//! Every guarantee this reproduction makes (byte-exact baselines across
//! `--threads` × `--shard-size`, replayable adversary searches, the
//! 197-cell CI comparison at `--tolerance 0`) rests on project
//! invariants that used to live only in reviewers' heads. This crate
//! enforces them:
//!
//! | rule | invariant |
//! |------|-----------|
//! | `D001` | no `HashMap`/`HashSet` in deterministic crates |
//! | `D002` | wall-clock reads only in `doall-runtime`'s scheduler/transport/fault |
//! | `D003` | no `std::env`/`thread::current` in deterministic crates |
//! | `D004` | no float accumulation (`+=`, `.sum()`) over unordered iteration in deterministic crates |
//! | `H001` | no `unwrap()`/`expect()`/`panic!` in library-crate or input-parser non-test code |
//! | `H002` | every workspace crate root carries `#![forbid(unsafe_code)]` |
//!
//! The engine is hand-rolled in the repo's no-crates.io spirit (same as
//! the `.scn` parser): a [`walk`] pass discovers sources (skipping
//! `vendor/`, `target/`, and fixture corpora), a [`scan`] pass masks
//! comments, string/char literals, and `#[cfg(test)]`/`mod tests`
//! regions so rules only ever see shipped code, and the [`rules`]
//! registry produces diagnostics that are **sorted and byte-identical
//! across runs, machines, and file-discovery orders**. A finding is
//! silenced by a `// lint:allow(<RULE>) — justification` comment on the
//! offending line or the line above; CI separately enforces that every
//! in-tree suppression carries a written justification.
//!
//! Exit-code contract (via the `doall lint` subcommand): 0 clean,
//! 1 diagnostics, 2 errors — the same shape as `doall compare`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod report;
pub mod rules;
pub mod scan;
pub mod walk;

pub use report::LintReport;
pub use rules::{Diagnostic, RuleId};
pub use walk::find_workspace_root;

use std::fs;
use std::path::Path;

/// What to lint and which rules to run.
#[derive(Debug, Clone, Default)]
pub struct LintOptions {
    /// Restrict the run to these rules (empty = all).
    pub only: Vec<RuleId>,
}

/// Lints the workspace rooted at `root`: discover sources, then
/// [`lint_files`].
///
/// # Errors
///
/// Returns a message for I/O failures (unreadable root or file). A
/// *dirty* workspace is not an error — inspect
/// [`LintReport::is_clean`].
pub fn lint_root(root: &Path, opts: &LintOptions) -> Result<LintReport, String> {
    let files = walk::discover(root).map_err(|e| format!("cannot walk {}: {e}", root.display()))?;
    lint_files(root, &files, opts)
}

/// Lints an explicit file list (workspace-relative paths). The report is
/// independent of the order of `files`: each file is scanned in
/// isolation and diagnostics are sorted by `(path, line, rule)` at the
/// end — the property the discovery-order shuffle test pins down.
///
/// # Errors
///
/// Returns a message naming the first unreadable file.
pub fn lint_files(root: &Path, files: &[String], opts: &LintOptions) -> Result<LintReport, String> {
    let mut diagnostics = Vec::new();
    let mut suppressed = 0usize;
    for rel in files {
        let text =
            fs::read_to_string(root.join(rel)).map_err(|e| format!("cannot read {rel}: {e}"))?;
        let masked = scan::mask(&text);
        let mut raw = Vec::new();
        rules::scan_file(rel, &masked, &opts.only, &mut raw);
        for d in raw {
            if is_suppressed(&masked.raw_lines, d.line, d.rule) {
                suppressed += 1;
            } else {
                diagnostics.push(d);
            }
        }
    }
    diagnostics.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(LintReport {
        diagnostics,
        files_scanned: files.len(),
        suppressed,
    })
}

/// Is a diagnostic for `rule` at 1-based `line` silenced by a
/// `lint:allow(<rule>)` marker on that line or the one above?
///
/// The marker lives in a comment, so it is read from the *raw* line
/// view (the code view has comments blanked). Several rules may share
/// one marker: `lint:allow(D001, H001)`.
fn is_suppressed(raw_lines: &[String], line: usize, rule: RuleId) -> bool {
    let candidates = [line.checked_sub(2), line.checked_sub(1)];
    for idx in candidates.into_iter().flatten() {
        let Some(text) = raw_lines.get(idx) else {
            continue;
        };
        if allow_rules(text).contains(&rule) {
            return true;
        }
    }
    false
}

/// The rules named by a `lint:allow(...)` marker on `line` (empty if no
/// marker, or none parse).
fn allow_rules(line: &str) -> Vec<RuleId> {
    let Some(pos) = line.find("lint:allow(") else {
        return Vec::new();
    };
    let rest = &line[pos + "lint:allow(".len()..];
    let Some(close) = rest.find(')') else {
        return Vec::new();
    };
    rest[..close]
        .split(',')
        .filter_map(|s| RuleId::parse(s.trim()).ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(root: &Path, rel: &str, text: &str) {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(path, text).unwrap();
    }

    fn temp_ws(tag: &str) -> std::path::PathBuf {
        let root = std::env::temp_dir().join(format!("doall_lint_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).unwrap();
        root
    }

    #[test]
    fn lint_root_discovers_scans_and_sorts() {
        let root = temp_ws("root");
        write(
            &root,
            "crates/doall-sim/src/b.rs",
            "use std::collections::HashMap;\n",
        );
        write(
            &root,
            "crates/doall-sim/src/a.rs",
            "fn f() { let x: HashSet<u8> = make(); }\n",
        );
        let report = lint_root(&root, &LintOptions::default()).unwrap();
        assert_eq!(report.files_scanned, 2);
        assert_eq!(report.diagnostics.len(), 2);
        // Sorted by path: a.rs before b.rs.
        assert_eq!(report.diagnostics[0].path, "crates/doall-sim/src/a.rs");
        assert_eq!(report.diagnostics[1].path, "crates/doall-sim/src/b.rs");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn suppression_on_same_or_previous_line() {
        let root = temp_ws("suppress");
        write(
            &root,
            "crates/doall-sim/src/a.rs",
            "use std::collections::HashMap; // lint:allow(D001) — membership only\n\
             // lint:allow(D001) — scratch map, never iterated into results\n\
             fn f() { let x: HashMap<u8, u8> = make(); }\n\
             fn g() { let y: HashMap<u8, u8> = make(); }\n",
        );
        let report = lint_root(&root, &LintOptions::default()).unwrap();
        assert_eq!(report.suppressed, 2);
        assert_eq!(report.diagnostics.len(), 1, "{:?}", report.diagnostics);
        assert_eq!(report.diagnostics[0].line, 4, "g() is not covered");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn suppression_is_rule_specific() {
        let root = temp_ws("rulespec");
        write(
            &root,
            "crates/doall-sim/src/a.rs",
            "// lint:allow(D003) — wrong rule named\n\
             fn f() { let x: HashMap<u8, u8> = make(); }\n",
        );
        let report = lint_root(&root, &LintOptions::default()).unwrap();
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(report.suppressed, 0);
        // A multi-rule marker covers both.
        write(
            &root,
            "crates/doall-sim/src/a.rs",
            "// lint:allow(D001, D003) — fixture\n\
             fn f() { let x: HashMap<u8, u8> = std::env::var(\"X\").into(); }\n",
        );
        let report = lint_root(&root, &LintOptions::default()).unwrap();
        assert!(report.is_clean(), "{:?}", report.diagnostics);
        assert_eq!(report.suppressed, 2);
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn only_filter_and_unreadable_files() {
        let root = temp_ws("only");
        write(
            &root,
            "crates/doall-sim/src/a.rs",
            "fn f() { let x: HashMap<u8, u8> = make(); let h = std::env::var(\"H\"); }\n",
        );
        let all = lint_root(&root, &LintOptions::default()).unwrap();
        assert_eq!(all.diagnostics.len(), 2);
        let only = lint_root(
            &root,
            &LintOptions {
                only: vec![RuleId::D003],
            },
        )
        .unwrap();
        assert_eq!(only.diagnostics.len(), 1);
        assert_eq!(only.diagnostics[0].rule, RuleId::D003);
        let missing = lint_files(
            &root,
            &["crates/doall-sim/src/nope.rs".to_string()],
            &LintOptions::default(),
        );
        assert!(missing.is_err());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn allow_marker_parsing() {
        assert_eq!(allow_rules("// lint:allow(D001) — x"), vec![RuleId::D001]);
        assert_eq!(
            allow_rules("// lint:allow(D001,H001) — x"),
            vec![RuleId::D001, RuleId::H001]
        );
        assert!(allow_rules("// lint:allow(").is_empty());
        assert!(allow_rules("// lint:allow(BOGUS) — x").is_empty());
        assert!(allow_rules("no marker here").is_empty());
    }
}
