//! The append-only performance ledger behind `doall trend`:
//! `HISTORY.jsonl`, one JSON object per line, one line per landed PR.
//!
//! A snapshot comparator (`doall compare`) can only see one step; the
//! ledger keeps the whole trajectory so trend analysis can catch
//! regressions that drift slowly *inside* per-step tolerance. Each entry
//! holds the commit id it describes, an externally supplied timestamp,
//! the harness throughput of the run, and the full smoke result set —
//! including the measured-only `wall_clock_ms`/runtime-stats series the
//! threads cells carry, which the comparator exempts but the ledger
//! deliberately retains as a timing series.
//!
//! Two invariants:
//!
//! * **Byte determinism** — rendering is sorted (`BTreeMap` cells and
//!   metrics) and float formatting is shortest-round-trip, so
//!   `render ∘ parse ∘ render ≡ render`: re-serializing a ledger never
//!   rewrites history. Appending only ever adds one line.
//! * **No clock reads** — lint rule D002 fences wall-clock access to the
//!   runtime crate, so the ledger never looks at a clock itself: the
//!   timestamp arrives via `doall trend --append … --timestamp`, and
//!   throughput via `--cells-per-sec`.

use crate::resultset::{
    err, json_escape, json_number, parse_json, record_from_json, render_key_record, BaselineSet,
    CellKey, Json, ResultSetError,
};
use std::collections::BTreeMap;
use std::fmt;

/// Version of the ledger line schema; bump on breaking layout changes.
pub const HISTORY_SCHEMA_VERSION: u64 = 1;

/// An error from reading, writing, or interpreting the history ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistoryError(String);

impl fmt::Display for HistoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for HistoryError {}

impl From<ResultSetError> for HistoryError {
    fn from(e: ResultSetError) -> Self {
        HistoryError(e.to_string())
    }
}

fn herr(msg: impl Into<String>) -> HistoryError {
    HistoryError(msg.into())
}

/// One ledger line: the perf record of one landed PR.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryEntry {
    /// The commit id the entry describes (ledger key; duplicates are
    /// rejected on append).
    pub commit: String,
    /// Externally supplied timestamp (opaque string; never read from a
    /// clock in here — see the module docs).
    pub timestamp: String,
    /// Harness throughput of the recorded run (cells per second,
    /// measured outside the deterministic core); `NaN` = not recorded,
    /// serialized as `null`.
    pub cells_per_sec: f64,
    /// Mode of the embedded result set (`"smoke"` for the committed
    /// ledger).
    pub mode: String,
    /// `schema_version` of the embedded result set.
    pub result_schema_version: u64,
    /// The run's cells, keyed canonically — same shape as
    /// [`BaselineSet::cells`].
    pub cells: BTreeMap<CellKey, BTreeMap<String, f64>>,
}

impl HistoryEntry {
    /// Builds an entry from a parsed result set plus the externally
    /// supplied provenance fields.
    #[must_use]
    pub fn from_result_set(
        commit: &str,
        timestamp: &str,
        cells_per_sec: f64,
        set: &BaselineSet,
    ) -> Self {
        Self {
            commit: commit.to_string(),
            timestamp: timestamp.to_string(),
            cells_per_sec,
            mode: set.mode.clone(),
            result_schema_version: set.schema_version,
            cells: set.cells.clone(),
        }
    }

    /// Renders the entry as one compact JSON line (no trailing newline).
    /// Deterministic: cells and metrics are sorted, floats print via
    /// shortest-round-trip `Display`, and `backend` is always explicit,
    /// as in every written record.
    #[must_use]
    pub fn render_line(&self) -> String {
        let mut out = format!(
            "{{\"history_schema_version\": {HISTORY_SCHEMA_VERSION}, \
             \"commit\": \"{}\", \"timestamp\": \"{}\", \"cells_per_sec\": {}, \
             \"mode\": \"{}\", \"result_schema_version\": {}, \"records\": [",
            json_escape(&self.commit),
            json_escape(&self.timestamp),
            json_number(self.cells_per_sec),
            json_escape(&self.mode),
            self.result_schema_version,
        );
        for (i, (key, metrics)) in self.cells.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&render_key_record(key, metrics));
        }
        out.push_str("]}");
        out
    }

    /// Reduces the entry's cells back to a [`BaselineSet`], so ledger
    /// entries can feed `doall compare` directly.
    #[must_use]
    pub fn to_baseline_set(&self) -> BaselineSet {
        BaselineSet {
            schema_version: self.result_schema_version,
            mode: self.mode.clone(),
            cells: self.cells.clone(),
        }
    }
}

/// Parses one ledger line.
///
/// # Errors
///
/// Returns a [`HistoryError`] for malformed JSON, a missing or
/// unsupported `history_schema_version`, structural record problems, or
/// duplicate cells.
pub fn parse_entry(line: &str) -> Result<HistoryEntry, HistoryError> {
    let root = parse_json(line)?;
    if !matches!(root, Json::Object(_)) {
        return Err(herr("history entry: top level is not an object"));
    }
    let get = |key: &str| -> Result<&Json, ResultSetError> {
        root.get(key)
            .ok_or_else(|| err(format!("history entry: missing `{key}`")))
    };
    let version = match get("history_schema_version")? {
        Json::Number(v) if *v == 1.0 => 1u64,
        other => {
            return Err(herr(format!(
                "history entry: unsupported history_schema_version {other:?} \
                 (this build reads version {HISTORY_SCHEMA_VERSION})"
            )));
        }
    };
    debug_assert_eq!(version, HISTORY_SCHEMA_VERSION);
    let as_str = |key: &str| -> Result<String, HistoryError> {
        match get(key)? {
            Json::String(s) => Ok(s.clone()),
            _ => Err(herr(format!("history entry: `{key}` is not a string"))),
        }
    };
    let cells_per_sec = match get("cells_per_sec")? {
        Json::Number(v) => *v,
        Json::Null => f64::NAN,
        _ => return Err(herr("history entry: `cells_per_sec` is not a number")),
    };
    let result_schema_version = match get("result_schema_version")? {
        Json::Number(v) if v.fract() == 0.0 && *v >= 0.0 => {
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            {
                *v as u64
            }
        }
        _ => {
            return Err(herr(
                "history entry: `result_schema_version` is not an integer",
            ));
        }
    };
    let records = match get("records")? {
        Json::Array(items) => items,
        _ => return Err(herr("history entry: `records` is not an array")),
    };
    let mut cells: BTreeMap<CellKey, BTreeMap<String, f64>> = BTreeMap::new();
    for (i, record) in records.iter().enumerate() {
        let what = format!("records[{i}]");
        let (key, metrics, raw_adversary) = record_from_json(record, &what)?;
        crate::resultset::insert_cell(&mut cells, key, metrics, &raw_adversary)?;
    }
    Ok(HistoryEntry {
        commit: as_str("commit")?,
        timestamp: as_str("timestamp")?,
        cells_per_sec,
        mode: as_str("mode")?,
        result_schema_version,
        cells,
    })
}

/// A parsed ledger: entries in file (= chronological append) order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct History {
    /// Entries in append order — oldest first.
    pub entries: Vec<HistoryEntry>,
}

/// Parses a whole ledger (JSONL: one entry per line; blank lines are
/// ignored).
///
/// # Errors
///
/// Returns a [`HistoryError`] naming the 1-based line of the first
/// malformed entry, or any duplicate commit id.
pub fn parse_history(text: &str) -> Result<History, HistoryError> {
    let mut entries = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let entry = parse_entry(line).map_err(|e| herr(format!("line {}: {e}", idx + 1)))?;
        if entries
            .iter()
            .any(|e: &HistoryEntry| e.commit == entry.commit)
        {
            return Err(herr(format!(
                "line {}: duplicate commit `{}` in ledger",
                idx + 1,
                entry.commit
            )));
        }
        entries.push(entry);
    }
    Ok(History { entries })
}

/// Reads and parses a ledger file.
///
/// # Errors
///
/// Returns a [`HistoryError`] for I/O problems or malformed content.
pub fn load_history(path: &str) -> Result<History, HistoryError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| herr(format!("cannot read {path}: {e}")))?;
    parse_history(&text).map_err(|e| herr(format!("{path}: {e}")))
}

/// Appends one entry to the ledger at `path`, creating the file when it
/// does not exist yet (the seeding flow). The existing content is parsed
/// first: a malformed ledger or a duplicate commit id is an error, and
/// nothing is written.
///
/// Returns the updated in-memory ledger (existing entries plus the new
/// one), so callers can analyze without re-reading the file.
///
/// # Errors
///
/// Returns a [`HistoryError`] for I/O problems, a malformed existing
/// ledger, or a duplicate commit id.
pub fn append_entry(path: &str, entry: &HistoryEntry) -> Result<History, HistoryError> {
    let existing = match std::fs::read_to_string(path) {
        Ok(text) => parse_history(&text).map_err(|e| herr(format!("{path}: {e}")))?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => History::default(),
        Err(e) => return Err(herr(format!("cannot read {path}: {e}"))),
    };
    if existing.entries.iter().any(|e| e.commit == entry.commit) {
        return Err(herr(format!(
            "{path}: commit `{}` is already in the ledger (one entry per landed PR)",
            entry.commit
        )));
    }
    use std::io::Write as _;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| herr(format!("cannot open {path} for append: {e}")))?;
    writeln!(file, "{}", entry.render_line())
        .map_err(|e| herr(format!("cannot append to {path}: {e}")))?;
    let mut updated = existing;
    updated.entries.push(entry.clone());
    Ok(updated)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entry(commit: &str, work: f64) -> HistoryEntry {
        let mut cells = BTreeMap::new();
        for (backend, wall) in [("sim", 0.0), ("threads", 3.25)] {
            let key = CellKey {
                experiment: "e01".to_string(),
                algo: "soloall".to_string(),
                adversary: "crash:7".to_string(),
                backend: backend.to_string(),
                p: 4,
                t: 16,
                d: 1,
                seeds: 2,
            };
            let mut metrics = BTreeMap::new();
            metrics.insert("mean_work".to_string(), work);
            metrics.insert("wall_clock_ms".to_string(), wall);
            cells.insert(key, metrics);
        }
        HistoryEntry {
            commit: commit.to_string(),
            timestamp: "2026-08-08T00:00:00Z".to_string(),
            cells_per_sec: 120.5,
            mode: "smoke".to_string(),
            result_schema_version: 1,
            cells,
        }
    }

    #[test]
    fn render_parse_round_trips_byte_exactly() {
        let entry = sample_entry("abc123", 64.0);
        let line = entry.render_line();
        let parsed = parse_entry(&line).unwrap();
        assert_eq!(parsed, entry);
        assert_eq!(parsed.render_line(), line, "render ∘ parse ≡ id");
        assert!(!line.contains('\n'), "one entry = one line");
    }

    #[test]
    fn unrecorded_throughput_renders_null_and_parses_nan() {
        let mut entry = sample_entry("abc123", 64.0);
        entry.cells_per_sec = f64::NAN;
        let line = entry.render_line();
        assert!(line.contains("\"cells_per_sec\": null"));
        let parsed = parse_entry(&line).unwrap();
        assert!(parsed.cells_per_sec.is_nan());
        assert_eq!(parsed.render_line(), line);
    }

    #[test]
    fn ledger_parses_in_order_and_skips_blank_lines() {
        let text = format!(
            "{}\n\n{}\n",
            sample_entry("aaa", 64.0).render_line(),
            sample_entry("bbb", 65.0).render_line()
        );
        let history = parse_history(&text).unwrap();
        assert_eq!(history.entries.len(), 2);
        assert_eq!(history.entries[0].commit, "aaa");
        assert_eq!(history.entries[1].commit, "bbb");
    }

    #[test]
    fn malformed_lines_carry_line_numbers() {
        let text = format!("{}\nnot json\n", sample_entry("aaa", 64.0).render_line());
        let e = parse_history(&text).unwrap_err().to_string();
        assert!(e.contains("line 2"), "{e}");
        let e = parse_history("{\"history_schema_version\": 99}")
            .unwrap_err()
            .to_string();
        assert!(e.contains("unsupported history_schema_version"), "{e}");
    }

    #[test]
    fn duplicate_commits_are_rejected_on_parse_and_append() {
        let line = sample_entry("aaa", 64.0).render_line();
        let e = parse_history(&format!("{line}\n{line}\n"))
            .unwrap_err()
            .to_string();
        assert!(e.contains("duplicate commit"), "{e}");

        let path = std::env::temp_dir().join(format!("doall_hist_{}.jsonl", std::process::id()));
        let path_s = path.to_string_lossy().into_owned();
        let _ = std::fs::remove_file(&path);
        let first = append_entry(&path_s, &sample_entry("aaa", 64.0)).unwrap();
        assert_eq!(first.entries.len(), 1);
        let second = append_entry(&path_s, &sample_entry("bbb", 65.0)).unwrap();
        assert_eq!(second.entries.len(), 2);
        let e = append_entry(&path_s, &sample_entry("aaa", 66.0)).unwrap_err();
        assert!(e.to_string().contains("already in the ledger"), "{e}");
        // The failed append wrote nothing.
        let on_disk = load_history(&path_s).unwrap();
        assert_eq!(on_disk, second);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn entries_adapt_from_and_back_to_baseline_sets() {
        let entry = sample_entry("aaa", 64.0);
        let set = entry.to_baseline_set();
        assert_eq!(set.mode, "smoke");
        assert_eq!(set.cells, entry.cells);
        let back = HistoryEntry::from_result_set("bbb", "ts", f64::NAN, &set);
        assert_eq!(back.cells, entry.cells);
        assert_eq!(back.commit, "bbb");
        // And the round trip through compare is clean.
        let cmp = crate::compare::compare(&set, &back.to_baseline_set(), 0.0);
        assert!(cmp.is_clean());
    }

    #[test]
    fn ledger_records_canonicalize_adversaries_like_result_sets() {
        // A hand-edited ledger line with a non-canonical spelling still
        // keys canonically — same single implementation as result sets.
        let line = sample_entry("aaa", 64.0)
            .render_line()
            .replace("crash:7", "crash:07");
        let parsed = parse_entry(&line).unwrap();
        assert!(parsed.cells.keys().all(|k| k.adversary == "crash:7"));
    }
}
