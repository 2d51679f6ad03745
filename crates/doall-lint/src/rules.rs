//! The rule registry: what each rule means, where it applies, and the
//! token patterns it fires on.
//!
//! Rules scan the *masked* code view of a file (comments, literals, and
//! test regions blanked — see [`crate::scan`]) and fire at most one
//! diagnostic per line per rule. Every diagnostic can be suppressed by a
//! `// lint:allow(<RULE>) — justification` comment on the same line or
//! the line directly above (CI separately enforces that every in-tree
//! suppression carries a written justification).
//!
//! # Scopes
//!
//! * **Deterministic crates** (D001/D003): `doall-sim`, `doall-bench`,
//!   `doall-algorithms`, `doall-perms`, `doall-bounds` — every byte of a
//!   result record is produced here, so iteration order and ambient
//!   process state must never influence them.
//! * **Library crates** (H001): the six crates other code builds on
//!   (`doall-core`, `doall-sim`, `doall-algorithms`, `doall-perms`,
//!   `doall-bounds`, `doall-runtime`). The harness (`doall-bench`), the
//!   CLI facade, and this linter are drivers: an invariant panic there
//!   surfaces as a process exit, which is the designed failure mode.
//!   The exception is the input parsers — the harness's `compare`,
//!   `grid`, `resultset`, `scenario` and `suite`, and the facade's
//!   `src/cli.rs`: they read files, grid specs and arguments a user
//!   writes, which must fail with an error, never a panic.
//! * Rules apply to `src/` code only — integration tests, benches, and
//!   examples are not shipped library code (and test regions inside
//!   `src/` are masked away before rules run).

use crate::scan::{is_ident, MaskedFile};
use std::fmt;

/// Crates whose result records must be bit-reproducible.
const DET_CRATES: &[&str] = &[
    "doall-algorithms",
    "doall-bench",
    "doall-bounds",
    "doall-perms",
    "doall-sim",
];

/// Library crates where panicking shortcuts are banned (H001).
const LIB_CRATES: &[&str] = &[
    "doall-algorithms",
    "doall-bounds",
    "doall-core",
    "doall-perms",
    "doall-runtime",
    "doall-sim",
];

/// Harness and facade modules that read user input (scenarios, grid
/// specs, result sets, command lines), held to H001 like a library
/// crate.
const H001_PARSERS: &[&str] = &[
    "crates/doall-bench/src/compare.rs",
    "crates/doall-bench/src/grid.rs",
    "crates/doall-bench/src/resultset.rs",
    "crates/doall-bench/src/scenario.rs",
    "crates/doall-bench/src/suite.rs",
    "src/cli.rs",
];

/// The only files allowed to read wall clocks (D002): the measured-only
/// metrics (`wall_clock_ms`, backlog gauges) of the threads backend are
/// produced here and are exempt from value comparison by the comparator.
const D002_ALLOWED: &[&str] = &[
    "crates/doall-runtime/src/fault.rs",
    "crates/doall-runtime/src/scheduler.rs",
    "crates/doall-runtime/src/transport.rs",
];

/// A lint rule identifier. `D` rules guard determinism, `H` rules guard
/// hygiene.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// No hash-ordered collections in deterministic crates.
    D001,
    /// Wall-clock reads fenced inside doall-runtime's measured modules.
    D002,
    /// No ambient process state in deterministic crates.
    D003,
    /// No float accumulation over non-deterministically-ordered
    /// iteration in deterministic crates.
    D004,
    /// No panicking shortcuts in library-crate or input-parser non-test
    /// code.
    H001,
    /// Every workspace crate root forbids `unsafe_code`.
    H002,
}

impl RuleId {
    /// Every rule, in diagnostic sort order.
    pub const ALL: [RuleId; 6] = [
        RuleId::D001,
        RuleId::D002,
        RuleId::D003,
        RuleId::D004,
        RuleId::H001,
        RuleId::H002,
    ];

    /// The canonical `D001`-style name.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::D001 => "D001",
            RuleId::D002 => "D002",
            RuleId::D003 => "D003",
            RuleId::D004 => "D004",
            RuleId::H001 => "H001",
            RuleId::H002 => "H002",
        }
    }

    /// Parses a rule name (case-sensitive, the canonical spelling only).
    ///
    /// # Errors
    ///
    /// Returns a message naming the known rules for anything else.
    pub fn parse(s: &str) -> Result<Self, String> {
        RuleId::ALL
            .into_iter()
            .find(|r| r.as_str() == s)
            .ok_or_else(|| {
                format!(
                    "unknown rule `{s}` (known: {})",
                    RuleId::ALL.map(RuleId::as_str).join(", ")
                )
            })
    }

    /// One-line rationale, rendered in `doall lint` headers and docs.
    #[must_use]
    pub fn summary(self) -> &'static str {
        match self {
            RuleId::D001 => "no HashMap/HashSet in deterministic crates",
            RuleId::D002 => "wall-clock reads only in doall-runtime scheduler/transport/fault",
            RuleId::D003 => "no ambient env/thread identity in deterministic crates",
            RuleId::D004 => {
                "no float accumulation over unordered iteration in deterministic crates"
            }
            RuleId::H001 => "no unwrap/expect/panic in library-crate or input-parser non-test code",
            RuleId::H002 => "crate roots must carry #![forbid(unsafe_code)]",
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One finding: a rule fired at `path:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// The rule that fired.
    pub rule: RuleId,
    /// Workspace-relative `/`-separated path.
    pub path: String,
    /// 1-based line number (line 1 for whole-file rules).
    pub line: usize,
    /// Human-readable explanation naming the offending token.
    pub message: String,
}

/// If `path` is inside a crate's `src/` tree, the crate's name
/// (`"doall-sim"`, …; the root facade package is `"doall"`).
fn src_crate(path: &str) -> Option<&str> {
    if path.starts_with("src/") {
        return Some("doall");
    }
    let rest = path.strip_prefix("crates/")?;
    let (name, tail) = rest.split_once('/')?;
    tail.starts_with("src/").then_some(name)
}

/// Is `path` the root module of a workspace crate?
fn is_crate_root(path: &str) -> bool {
    path == "src/lib.rs"
        || (path.starts_with("crates/")
            && path.ends_with("/src/lib.rs")
            && path.matches('/').count() == 3)
}

/// Token patterns per rule: `(needle, what)` where `what` names the
/// construct in the diagnostic message. Needles are matched with an
/// identifier boundary on each side (a leading `.`/`:` counts as a
/// boundary, so `core::panic!` fires and `dont_panic!` does not).
const D001_TOKENS: &[(&str, &str)] = &[
    ("HashMap", "hash-ordered `HashMap`"),
    ("HashSet", "hash-ordered `HashSet`"),
];
const D002_TOKENS: &[(&str, &str)] = &[
    ("Instant::now", "wall-clock read `Instant::now`"),
    ("SystemTime", "wall-clock type `SystemTime`"),
];
const D003_TOKENS: &[(&str, &str)] = &[
    ("std::env", "process environment `std::env`"),
    ("env::args", "process arguments `env::args`"),
    ("env::var", "environment variable read `env::var`"),
    ("thread::current", "thread identity `thread::current`"),
];
/// Iteration sources whose order is not reproducible (D004): hash-seed
/// lotteries, filesystem enumeration order, channel arrival order, and
/// parallel scheduling order. `f64` addition is not associative, so a
/// sum folded in any of these orders is a different number on the next
/// run — collect into a `Vec`, sort, then fold.
const D004_SOURCES: &[(&str, &str)] = &[
    ("HashMap", "hash-ordered `HashMap` iteration"),
    ("HashSet", "hash-ordered `HashSet` iteration"),
    ("read_dir", "directory-order `read_dir`"),
    ("try_iter", "channel-arrival-order `try_iter`"),
    ("recv", "channel-arrival-order `recv`"),
    ("par_iter", "scheduling-order `par_iter`"),
];
/// Accumulation tokens D004 flags inside a tainted loop body.
const D004_ACCUMULATORS: &[&str] = &["+=", ".sum("];

const H001_TOKENS: &[(&str, &str)] = &[
    (".unwrap()", "panicking shortcut `.unwrap()`"),
    (".expect(", "panicking shortcut `.expect(…)`"),
    ("panic!", "explicit `panic!`"),
    ("unreachable!", "explicit `unreachable!`"),
    ("todo!", "placeholder `todo!`"),
    ("unimplemented!", "placeholder `unimplemented!`"),
    (
        "thread::spawn",
        "`thread::spawn`, which panics when the OS refuses a thread (use `thread::Builder`)",
    ),
];

/// Does `needle` occur in `line` with identifier boundaries?
fn has_token(line: &str, needle: &str) -> bool {
    let chars: Vec<char> = line.chars().collect();
    let pat: Vec<char> = needle.chars().collect();
    if pat.is_empty() || chars.len() < pat.len() {
        return false;
    }
    for start in 0..=chars.len() - pat.len() {
        if chars[start..start + pat.len()] != pat[..] {
            continue;
        }
        // A needle that starts (ends) with a non-identifier char — the
        // `.` of `.unwrap()`, the `(` of `.expect(` — is its own
        // boundary on that side.
        let before_ok = !is_ident(pat[0]) || start == 0 || !is_ident(chars[start - 1]);
        let end = start + pat.len();
        let last_is_ident = is_ident(pat[pat.len() - 1]);
        let after_ok = !last_is_ident || end == chars.len() || !is_ident(chars[end]);
        if before_ok && after_ok {
            return true;
        }
    }
    false
}

/// Runs every (selected) rule over one masked file, appending raw
/// (unsuppressed) diagnostics to `out`. Suppression is applied by the
/// caller, which owns the raw line view.
pub fn scan_file(path: &str, masked: &MaskedFile, only: &[RuleId], out: &mut Vec<Diagnostic>) {
    let enabled = |r: RuleId| only.is_empty() || only.contains(&r);
    let in_det = src_crate(path).is_some_and(|c| DET_CRATES.contains(&c));
    let h001_scope = if H001_PARSERS.contains(&path) {
        Some("input parser".to_string())
    } else {
        src_crate(path)
            .filter(|c| LIB_CRATES.contains(c))
            .map(|c| format!("library crate `{c}`"))
    };
    let d002_applies = src_crate(path).is_some() && !D002_ALLOWED.contains(&path);

    // D004 loop-taint state: brace depth, a loop head seen but not yet
    // opened, and the stack of open blocks whose iteration order is not
    // reproducible (innermost last).
    let mut depth = 0usize;
    let mut pending: Option<&str> = None;
    let mut tainted: Vec<(usize, &str)> = Vec::new();

    for (idx, line) in masked.code_lines.iter().enumerate() {
        let lineno = idx + 1;
        let mut push = |rule: RuleId, what: &str, detail: String| {
            out.push(Diagnostic {
                rule,
                path: path.to_string(),
                line: lineno,
                message: format!("{what} {detail}"),
            });
        };
        if enabled(RuleId::D001) && in_det {
            if let Some((_, what)) = D001_TOKENS.iter().find(|(n, _)| has_token(line, n)) {
                push(
                    RuleId::D001,
                    what,
                    format!(
                        "in deterministic crate `{}` — iteration order is a hash-seed \
                         lottery; use BTreeMap/BTreeSet or a BitSet",
                        src_crate(path).unwrap_or_default()
                    ),
                );
            }
        }
        if enabled(RuleId::D002) && d002_applies {
            if let Some((_, what)) = D002_TOKENS.iter().find(|(n, _)| has_token(line, n)) {
                push(
                    RuleId::D002,
                    what,
                    "outside doall-runtime's measured-only modules \
                     (scheduler/transport/fault) — wall clocks may only feed \
                     measured metrics the comparator never value-checks"
                        .to_string(),
                );
            }
        }
        if enabled(RuleId::D003) && in_det {
            if let Some((_, what)) = D003_TOKENS.iter().find(|(n, _)| has_token(line, n)) {
                push(
                    RuleId::D003,
                    what,
                    format!(
                        "in deterministic crate `{}` — ambient process state must \
                         not influence result records",
                        src_crate(path).unwrap_or_default()
                    ),
                );
            }
        }
        if enabled(RuleId::D004) && in_det {
            let source = D004_SOURCES.iter().find(|(n, _)| has_token(line, n));
            let mut fired = false;
            if let Some((_, what)) = source {
                // Inline fold: the source and `.sum(` on one line.
                if has_token(line, ".sum(") {
                    push(
                        RuleId::D004,
                        "float `.sum()`",
                        format!(
                            "over {what} in deterministic crate `{}` — f64 addition is \
                             not associative, so the order *is* the result; collect \
                             into a Vec and sort before folding",
                            src_crate(path).unwrap_or_default()
                        ),
                    );
                    fired = true;
                }
                // A loop head over the source taints the block it opens.
                if has_token(line, "for") || has_token(line, "while") {
                    pending = Some(what);
                }
            }
            // The taint active on this line: innermost open tainted
            // block, or one opening on this very line (a one-line loop
            // closes again during the brace scan below).
            let mut active = tainted.last().map(|&(_, w)| w);
            for ch in line.chars() {
                match ch {
                    '{' => {
                        depth += 1;
                        if let Some(what) = pending.take() {
                            tainted.push((depth, what));
                            active = Some(what);
                        }
                    }
                    '}' => {
                        if tainted.last().is_some_and(|&(d, _)| d == depth) {
                            tainted.pop();
                        }
                        depth = depth.saturating_sub(1);
                    }
                    _ => {}
                }
            }
            if !fired {
                if let Some(what) = active {
                    if D004_ACCUMULATORS.iter().any(|n| has_token(line, n)) {
                        push(
                            RuleId::D004,
                            "float accumulation",
                            format!(
                                "inside a loop over {what} in deterministic crate `{}` — \
                                 f64 addition is not associative, so the order *is* the \
                                 result; collect into a Vec and sort before folding",
                                src_crate(path).unwrap_or_default()
                            ),
                        );
                    }
                }
            }
        }
        if let Some(scope) = h001_scope.as_ref().filter(|_| enabled(RuleId::H001)) {
            if let Some((_, what)) = H001_TOKENS.iter().find(|(n, _)| has_token(line, n)) {
                push(
                    RuleId::H001,
                    what,
                    format!(
                        "in {scope} non-test code — return an error or justify the \
                         invariant with lint:allow(H001)"
                    ),
                );
            }
        }
    }

    if enabled(RuleId::H002) && is_crate_root(path) {
        let has_forbid = masked
            .code_lines
            .iter()
            .any(|l| l.contains("#![forbid(unsafe_code)]"));
        if !has_forbid {
            out.push(Diagnostic {
                rule: RuleId::H002,
                path: path.to_string(),
                line: 1,
                message: "crate root does not carry `#![forbid(unsafe_code)]`".to_string(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::mask;

    fn run(path: &str, text: &str) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        scan_file(path, &mask(text), &[], &mut out);
        out
    }

    #[test]
    fn rule_ids_round_trip_and_reject_unknowns() {
        for rule in RuleId::ALL {
            assert_eq!(RuleId::parse(rule.as_str()).unwrap(), rule);
            assert!(!rule.summary().is_empty());
        }
        let e = RuleId::parse("D999").unwrap_err();
        assert!(e.contains("unknown rule"), "{e}");
        assert!(e.contains("D001"), "{e}");
        assert!(RuleId::parse("d001").is_err(), "case-sensitive");
    }

    #[test]
    fn src_crate_classifies_paths() {
        assert_eq!(src_crate("crates/doall-sim/src/sim.rs"), Some("doall-sim"));
        assert_eq!(src_crate("src/cli.rs"), Some("doall"));
        assert_eq!(src_crate("crates/doall-sim/tests/props.rs"), None);
        assert_eq!(src_crate("crates/doall-bench/benches/harness.rs"), None);
        assert_eq!(src_crate("examples/quickstart.rs"), None);
        assert_eq!(src_crate("tests/end_to_end.rs"), None);
    }

    #[test]
    fn crate_roots_are_lib_rs_only() {
        assert!(is_crate_root("src/lib.rs"));
        assert!(is_crate_root("crates/doall-core/src/lib.rs"));
        assert!(!is_crate_root("crates/doall-core/src/bitset.rs"));
        assert!(!is_crate_root("crates/doall-core/src/nested/lib.rs"));
        assert!(!is_crate_root("vendor/rand/src/lib.rs"));
    }

    #[test]
    fn token_boundaries() {
        assert!(has_token("let m: HashMap<u32, u32>;", "HashMap"));
        assert!(!has_token("let m = MyHashMap::new();", "HashMap"));
        assert!(!has_token("let m = HashMapLike::new();", "HashMap"));
        assert!(has_token("core::panic!(\"x\")", "panic!"));
        assert!(!has_token("dont_panic!()", "panic!"));
        assert!(has_token("x.unwrap()", ".unwrap()"));
        assert!(!has_token("x.unwrap_or(3)", ".unwrap()"));
        assert!(has_token("std::env::args()", "std::env"));
    }

    #[test]
    fn d001_fires_only_in_deterministic_crates() {
        let text = "use std::collections::HashMap;\n";
        let hits = run("crates/doall-sim/src/x.rs", text);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, RuleId::D001);
        assert_eq!(hits[0].line, 1);
        assert!(run("crates/doall-runtime/src/x.rs", text).is_empty());
        assert!(run("crates/doall-sim/tests/x.rs", text).is_empty());
    }

    #[test]
    fn d002_exempts_the_three_runtime_files() {
        let text = "let t0 = Instant::now();\n";
        assert!(run("crates/doall-runtime/src/scheduler.rs", text).is_empty());
        assert!(run("crates/doall-runtime/src/transport.rs", text).is_empty());
        assert!(run("crates/doall-runtime/src/fault.rs", text).is_empty());
        let hits = run("crates/doall-runtime/src/clock.rs", text);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].rule, RuleId::D002);
        assert_eq!(run("src/cli.rs", text)[0].rule, RuleId::D002);
    }

    #[test]
    fn d003_and_h001_scopes() {
        let env = "let home = std::env::var(\"HOME\");\n";
        assert_eq!(
            run("crates/doall-bench/src/x.rs", env)[0].rule,
            RuleId::D003
        );
        assert!(
            run("src/cli.rs", env).is_empty(),
            "facade is not a det crate"
        );
        let boom = "let v = x.unwrap();\n";
        assert_eq!(
            run("crates/doall-core/src/x.rs", boom)[0].rule,
            RuleId::H001
        );
        assert!(
            run("crates/doall-bench/src/x.rs", boom).is_empty(),
            "harness is a driver, not a library crate"
        );
        assert!(
            run("src/bin/doall.rs", boom).is_empty(),
            "the rest of the facade is out of scope"
        );
        assert_eq!(run("src/cli.rs", boom)[0].rule, RuleId::H001);
        let spawn = "let h = std::thread::spawn(work);\n";
        let hits = run("crates/doall-runtime/src/x.rs", spawn);
        assert!(
            hits[0].message.contains("thread::Builder"),
            "{}",
            hits[0].message
        );
        let built = "let h = std::thread::Builder::new().spawn(work)?;\n";
        assert!(run("crates/doall-runtime/src/x.rs", built).is_empty());
        let hits = run("crates/doall-bench/src/scenario.rs", boom);
        assert_eq!(hits[0].rule, RuleId::H001, "…except its input parsers");
        assert!(
            hits[0].message.contains("input parser"),
            "{}",
            hits[0].message
        );
        let hits = run("crates/doall-bench/src/grid.rs", boom);
        assert_eq!(hits[0].rule, RuleId::H001, "grid specs are user input");
    }

    #[test]
    fn d004_fires_on_accumulation_in_unordered_loops() {
        // A multi-line channel-drain loop: the `+=` inside is flagged.
        let multi = "pub fn total(rx: &Receiver<f64>) -> f64 {\n\
                     let mut total = 0.0;\n\
                     while let Ok(sample) = rx.recv() {\n\
                     total += sample;\n\
                     }\n\
                     total\n\
                     }\n";
        let hits = run("crates/doall-bench/src/x.rs", multi);
        assert_eq!(hits.len(), 1, "{hits:?}");
        assert_eq!((hits[0].rule, hits[0].line), (RuleId::D004, 4));
        // A one-line loop body still fires, on the loop line itself.
        let one = "while let Ok(s) = rx.recv() { total += s; }\n";
        assert_eq!(run("crates/doall-bench/src/x.rs", one).len(), 1);
        // Inline `.sum()` over a drain fires without any loop keyword.
        let inline = "let t: f64 = rx.try_iter().sum();\n";
        let hits = run("crates/doall-sim/src/x.rs", inline);
        assert_eq!(hits.len(), 1);
        assert!(hits[0].message.contains("try_iter"), "{}", hits[0].message);
        // Sorted-Vec accumulation is the blessed pattern: silent.
        let clean = "let mut samples: Vec<f64> = rx.try_iter().collect();\n\
                     samples.sort_by(f64::total_cmp);\n\
                     for s in &samples {\n\
                     total += s;\n\
                     }\n";
        assert!(run("crates/doall-bench/src/x.rs", clean).is_empty());
        // Accumulation after the tainted loop closed is clean too.
        let after = "for s in rx.try_iter() {\n\
                     v.push(s);\n\
                     }\n\
                     total += v[0];\n";
        assert!(run("crates/doall-bench/src/x.rs", after).is_empty());
        // Outside deterministic crates the rule does not apply.
        assert!(run("crates/doall-runtime/src/x.rs", multi).is_empty());
        assert!(run("src/cli.rs", multi).is_empty());
    }

    #[test]
    fn h002_wants_forbid_on_crate_roots_only() {
        let empty = "pub fn f() {}\n";
        let hits = run("crates/doall-core/src/lib.rs", empty);
        assert_eq!(hits.len(), 1);
        assert_eq!((hits[0].rule, hits[0].line), (RuleId::H002, 1));
        assert!(run("crates/doall-core/src/other.rs", empty).is_empty());
        let good = "#![forbid(unsafe_code)]\npub fn f() {}\n";
        assert!(run("crates/doall-core/src/lib.rs", good).is_empty());
        // A forbid mentioned in a comment does not count.
        let comment_only = "// #![forbid(unsafe_code)]\npub fn f() {}\n";
        assert_eq!(run("src/lib.rs", comment_only).len(), 1);
    }

    #[test]
    fn one_diagnostic_per_line_per_rule() {
        let text = "let (a, b): (HashMap<u8, u8>, HashSet<u8>);\n";
        let hits = run("crates/doall-perms/src/x.rs", text);
        assert_eq!(hits.len(), 1, "two tokens, one line, one diagnostic");
    }

    #[test]
    fn only_filter_restricts_rules() {
        let text = "use std::collections::HashMap;\nlet v = x.unwrap();\n";
        let mut out = Vec::new();
        scan_file(
            "crates/doall-sim/src/x.rs",
            &mask(text),
            &[RuleId::H001],
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, RuleId::H001);
    }

    #[test]
    fn masked_regions_never_fire() {
        let text = "// HashMap in a comment\n\
                    const DOC: &str = \"HashMap in a string\";\n\
                    #[cfg(test)]\n\
                    mod tests {\n\
                        use std::collections::HashMap;\n\
                        #[test]\n\
                        fn t() { let x: HashMap<u8, u8> = HashMap::new(); }\n\
                    }\n";
        assert!(run("crates/doall-sim/src/x.rs", text).is_empty());
    }
}
