//! Trend analysis over the history ledger: per-cell metric series,
//! ASCII sparklines, least-squares slopes, and the cumulative band gate
//! behind `doall trend`.
//!
//! The comparator treats each step in isolation, so a metric that creeps
//! +0.4% per PR under a ±1% per-step tolerance never trips it — after
//! five PRs the cumulative +1.6% has sailed through five green gates.
//! The band check here compares the *window endpoints* instead: with
//! `--band metric=±1%` over the last N entries, cumulative drift beyond
//! the band fails (exit 1) even though every single step was within
//! tolerance.
//!
//! Determinism: everything rendered here is derived from the
//! deterministic (sim-backend, non-measured) slice of the ledger — the
//! same exemption rules the comparator applies. Threads-backend cells
//! and the measured-only metrics stay *in* the ledger as a timing
//! series, but trend output never renders or gates them, so
//! `doall trend` output is byte-identical across `--threads {1,8}`.

use crate::compare::{drifted, metric_exempt};
use crate::history::{History, HistoryEntry};
use crate::resultset::{json_escape, json_number, write_key_fields, CellKey};
use crate::Table;
use std::collections::BTreeSet;
use std::fmt::Write as _;

/// Version of the JSON document emitted by [`TrendReport::render_json`].
pub const TREND_SCHEMA_VERSION: u32 = 1;

/// One `--band metric=±X%` gate: fail when the metric's cumulative
/// window drift exceeds `fraction` (relative, with the same unit floor
/// as [`drifted`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Band {
    /// The gated metric name.
    pub metric: String,
    /// Allowed relative drift (`0.01` = ±1%).
    pub fraction: f64,
}

/// Parses a band spec: `metric=±X%`, `metric=X%`, or `metric=F` (a bare
/// fraction, `0.01` = 1%).
///
/// # Errors
///
/// Returns a message for a missing `=`, an empty metric name, or a
/// non-finite / negative width.
pub fn parse_band(spec: &str) -> Result<Band, String> {
    let (metric, raw) = spec
        .split_once('=')
        .ok_or_else(|| format!("band `{spec}` must look like metric=±X%"))?;
    if metric.is_empty() {
        return Err(format!("band `{spec}` has an empty metric name"));
    }
    let raw = raw.strip_prefix('±').unwrap_or(raw);
    let (number, percent) = match raw.strip_suffix('%') {
        Some(n) => (n, true),
        None => (raw, false),
    };
    let value: f64 = number
        .parse()
        .map_err(|_| format!("band `{spec}`: `{raw}` is not a number"))?;
    if !value.is_finite() || value < 0.0 {
        return Err(format!(
            "band `{spec}`: width must be finite and non-negative"
        ));
    }
    Ok(Band {
        metric: metric.to_string(),
        fraction: if percent { value / 100.0 } else { value },
    })
}

/// What to analyze: the window size and the gates.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TrendConfig {
    /// Analyze only the last N entries (`None` = the whole ledger).
    pub last: Option<usize>,
    /// Band gates; empty means render-only (always exit 0).
    pub bands: Vec<Band>,
}

/// Least-squares slope of `series` against entry index `0..n`, per
/// entry. `None` for fewer than two points or any non-finite point
/// (NaN rejection: a poisoned series has no meaningful slope).
#[must_use]
pub fn slope(series: &[f64]) -> Option<f64> {
    if series.len() < 2 || series.iter().any(|v| !v.is_finite()) {
        return None;
    }
    let n = series.len() as f64;
    let x_mean = (n - 1.0) / 2.0;
    let y_mean = series.iter().sum::<f64>() / n;
    let mut num = 0.0;
    let mut den = 0.0;
    for (i, y) in series.iter().enumerate() {
        let dx = i as f64 - x_mean;
        num += dx * (y - y_mean);
        den += dx * dx;
    }
    Some(num / den)
}

/// The pure-ASCII ramp sparklines draw from (8 levels, min→max).
const SPARK_RAMP: [char; 8] = ['.', ':', '-', '=', '+', '*', '#', '@'];

/// Renders a series as a pure-ASCII sparkline: one `SPARK_RAMP` char
/// (`.:-=+*#@`, min→max) per point, min-max normalized per series. A
/// flat series renders at the mid level (`=`); non-finite points render
/// as `?`.
#[must_use]
pub fn sparkline(series: &[f64]) -> String {
    let finite: Vec<f64> = series.iter().copied().filter(|v| v.is_finite()).collect();
    let (min, max) = finite
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
            (lo.min(*v), hi.max(*v))
        });
    series
        .iter()
        .map(|v| {
            if !v.is_finite() {
                '?'
            } else if max <= min {
                SPARK_RAMP[3]
            } else {
                let t = (v - min) / (max - min);
                #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
                let idx = ((t * 7.0).round() as usize).min(7);
                SPARK_RAMP[idx]
            }
        })
        .collect()
}

/// One gated (cell, metric) pair whose cumulative window drift crossed
/// its band.
#[derive(Debug, Clone, PartialEq)]
pub struct BandViolation {
    /// The cell.
    pub key: CellKey,
    /// The gated metric.
    pub metric: String,
    /// The metric's series across the window (`NaN` where absent).
    pub series: Vec<f64>,
    /// Value at the window's first entry (`NaN` if absent).
    pub first: f64,
    /// Value at the window's last entry (`NaN` if absent).
    pub last: f64,
    /// The band width the pair was gated at.
    pub fraction: f64,
}

impl BandViolation {
    /// Relative drift between the window endpoints, using the same
    /// normalizer as [`drifted`]: `(last − first) / max(1, |first|,
    /// |last|)`. `NaN` when an endpoint is non-finite.
    #[must_use]
    pub fn rel_drift(&self) -> f64 {
        (self.last - self.first) / self.first.abs().max(self.last.abs()).max(1.0)
    }
}

/// One metric's aggregate trajectory: per-entry mean over all included
/// (deterministic) cells that carry the metric.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricTrend {
    /// Metric name.
    pub name: String,
    /// One mean per window entry (`NaN` when no included cell carried
    /// the metric in that entry).
    pub series: Vec<f64>,
}

/// The outcome of analyzing a ledger window.
#[derive(Debug, Clone, PartialEq)]
pub struct TrendReport {
    /// Total entries in the ledger.
    pub entries: usize,
    /// Entries actually analyzed (`min(entries, --last)`).
    pub window: usize,
    /// Commit id of the window's first entry.
    pub first_commit: String,
    /// Commit id of the window's last (newest) entry.
    pub last_commit: String,
    /// Timestamp of the newest entry.
    pub last_timestamp: String,
    /// Mode of the newest entry.
    pub mode: String,
    /// Cell count of the newest entry (all backends).
    pub cells: usize,
    /// Harness throughput series across the window (`NaN` = not
    /// recorded).
    pub throughput: Vec<f64>,
    /// Aggregate per-metric trajectories, sorted by name.
    pub metrics: Vec<MetricTrend>,
    /// The gates the analysis ran with.
    pub bands: Vec<Band>,
    /// Gated (cell, metric) pairs evaluated.
    pub checked: usize,
    /// Gated pairs whose cumulative drift crossed their band, sorted by
    /// (cell, metric).
    pub violations: Vec<BandViolation>,
}

/// Extracts one (cell, metric) series across `window` (`NaN` where the
/// cell or metric is absent in an entry).
fn cell_series(window: &[&HistoryEntry], key: &CellKey, metric: &str) -> Vec<f64> {
    window
        .iter()
        .map(|e| {
            e.cells
                .get(key)
                .and_then(|m| m.get(metric))
                .copied()
                .unwrap_or(f64::NAN)
        })
        .collect()
}

/// Analyzes the last `cfg.last` entries of `history` (default: all) and
/// evaluates the configured bands.
///
/// # Errors
///
/// Returns a message when the ledger is empty.
pub fn analyze(history: &History, cfg: &TrendConfig) -> Result<TrendReport, String> {
    if history.entries.is_empty() {
        return Err("the ledger has no entries".to_string());
    }
    let window_len = match cfg.last {
        Some(0) => return Err("--last must be at least 1".to_string()),
        Some(n) => n.min(history.entries.len()),
        None => history.entries.len(),
    };
    let window: Vec<&HistoryEntry> = history.entries[history.entries.len() - window_len..]
        .iter()
        .collect();
    let first = window[0];
    let last = window[window.len() - 1];

    // Aggregate trajectories: the union of non-exempt metric names over
    // non-exempt cells, then one per-entry mean each. Everything here
    // iterates BTreeMaps, so order (and the rendered bytes) is fixed.
    let mut metric_names: BTreeSet<&String> = BTreeSet::new();
    for entry in &window {
        for (key, metrics) in &entry.cells {
            for name in metrics.keys() {
                if !metric_exempt(key, name) {
                    metric_names.insert(name);
                }
            }
        }
    }
    let metrics: Vec<MetricTrend> = metric_names
        .into_iter()
        .map(|name| {
            let series = window
                .iter()
                .map(|entry| {
                    let mut sum = 0.0;
                    let mut count = 0usize;
                    for (key, cell_metrics) in &entry.cells {
                        if metric_exempt(key, name) {
                            continue;
                        }
                        if let Some(v) = cell_metrics.get(name) {
                            sum += v;
                            count += 1;
                        }
                    }
                    if count == 0 {
                        f64::NAN
                    } else {
                        sum / count as f64
                    }
                })
                .collect();
            MetricTrend {
                name: name.clone(),
                series,
            }
        })
        .collect();

    // Band gate: compare window endpoints per (cell, metric) pair. A
    // pair counts as checked when either endpoint carries the metric;
    // one-sided presence is a violation (same rule as the comparator).
    let mut checked = 0usize;
    let mut violations = Vec::new();
    for band in &cfg.bands {
        for (key, first_metrics) in &first.cells {
            if metric_exempt(key, &band.metric) {
                continue;
            }
            let Some(last_metrics) = last.cells.get(key) else {
                continue;
            };
            let first_v = first_metrics.get(&band.metric).copied();
            let last_v = last_metrics.get(&band.metric).copied();
            if first_v.is_none() && last_v.is_none() {
                continue;
            }
            checked += 1;
            if drifted(first_v, last_v, band.fraction) {
                violations.push(BandViolation {
                    key: key.clone(),
                    metric: band.metric.clone(),
                    series: cell_series(&window, key, &band.metric),
                    first: first_v.unwrap_or(f64::NAN),
                    last: last_v.unwrap_or(f64::NAN),
                    fraction: band.fraction,
                });
            }
        }
    }
    violations.sort_by(|a, b| (&a.key, &a.metric).cmp(&(&b.key, &b.metric)));

    Ok(TrendReport {
        entries: history.entries.len(),
        window: window_len,
        first_commit: first.commit.clone(),
        last_commit: last.commit.clone(),
        last_timestamp: last.timestamp.clone(),
        mode: last.mode.clone(),
        cells: last.cells.len(),
        throughput: window.iter().map(|e| e.cells_per_sec).collect(),
        metrics,
        bands: cfg.bands.clone(),
        checked,
        violations,
    })
}

fn opt_number(v: Option<f64>) -> String {
    match v {
        Some(v) if v.is_finite() => json_number(v),
        _ => "—".to_string(),
    }
}

fn opt_slope(s: Option<f64>) -> String {
    match s {
        Some(v) => format!("{v:+.4}"),
        None => "—".to_string(),
    }
}

impl TrendReport {
    /// `true` when no band was violated (bands may also be empty).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Renders the deterministic human-readable trajectory: a header,
    /// the throughput series, one aggregate row per metric, and — when
    /// bands are configured — the gate verdict with one row per
    /// violating (cell, metric) pair.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "perf trajectory — {} of {} ledger entries ({} -> {})",
            self.window, self.entries, self.first_commit, self.last_commit
        );
        let _ = writeln!(
            out,
            "  latest: commit={} timestamp={} mode={} cells={}",
            self.last_commit, self.last_timestamp, self.mode, self.cells
        );
        let recorded = self.throughput.iter().any(|v| v.is_finite());
        if recorded {
            let _ = writeln!(
                out,
                "  throughput cells/s: {} first={} last={} slope={}",
                sparkline(&self.throughput),
                opt_number(self.throughput.first().copied()),
                opt_number(self.throughput.last().copied()),
                opt_slope(slope(&self.throughput)),
            );
        } else {
            let _ = writeln!(out, "  throughput cells/s: (not recorded)");
        }
        let mut table = Table::new(vec!["metric", "trend", "first", "last", "slope/entry"]);
        for m in &self.metrics {
            table.row(vec![
                m.name.clone(),
                sparkline(&m.series),
                opt_number(m.series.first().copied()),
                opt_number(m.series.last().copied()),
                opt_slope(slope(&m.series)),
            ]);
        }
        out.push_str(&table.render());
        if !self.bands.is_empty() {
            let bands = self
                .bands
                .iter()
                .map(|b| format!("{}=±{}%", b.metric, json_number(b.fraction * 100.0)))
                .collect::<Vec<_>>()
                .join(" ");
            let _ = writeln!(
                out,
                "band gate [{}]: {} violation(s) across {} checked pair(s)",
                bands,
                self.violations.len(),
                self.checked
            );
            if !self.violations.is_empty() {
                let mut table = Table::new(vec![
                    "cell", "metric", "trend", "first", "last", "drift", "band",
                ]);
                for v in &self.violations {
                    table.row(vec![
                        v.key.to_string(),
                        v.metric.clone(),
                        sparkline(&v.series),
                        json_number(v.first),
                        json_number(v.last),
                        format!("{:+.3}%", v.rel_drift() * 100.0),
                        format!("±{}%", json_number(v.fraction * 100.0)),
                    ]);
                }
                out.push_str(&table.render());
            }
        }
        out
    }

    /// Renders the deterministic machine-readable trajectory
    /// (`trend_schema_version` [`TREND_SCHEMA_VERSION`]).
    #[must_use]
    pub fn render_json(&self) -> String {
        let num = |v: f64| json_number(v);
        let series = |s: &[f64]| {
            let body = s.iter().map(|v| num(*v)).collect::<Vec<_>>().join(", ");
            format!("[{body}]")
        };
        let opt = |v: Option<f64>| match v {
            Some(v) => json_number(v),
            None => "null".to_string(),
        };
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"trend_schema_version\": {TREND_SCHEMA_VERSION},");
        let _ = writeln!(out, "  \"entries\": {},", self.entries);
        let _ = writeln!(out, "  \"window\": {},", self.window);
        let _ = writeln!(
            out,
            "  \"first_commit\": \"{}\",",
            json_escape(&self.first_commit)
        );
        let _ = writeln!(
            out,
            "  \"last_commit\": \"{}\",",
            json_escape(&self.last_commit)
        );
        let _ = writeln!(
            out,
            "  \"last_timestamp\": \"{}\",",
            json_escape(&self.last_timestamp)
        );
        let _ = writeln!(out, "  \"mode\": \"{}\",", json_escape(&self.mode));
        let _ = writeln!(out, "  \"cells\": {},", self.cells);
        let _ = writeln!(out, "  \"clean\": {},", self.is_clean());
        let _ = writeln!(
            out,
            "  \"throughput\": {{\"series\": {}, \"slope\": {}}},",
            series(&self.throughput),
            opt(slope(&self.throughput))
        );
        out.push_str("  \"metrics\": [\n");
        for (i, m) in self.metrics.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"name\": \"{}\", \"series\": {}, \"spark\": \"{}\", \"slope\": {}}}",
                json_escape(&m.name),
                series(&m.series),
                sparkline(&m.series),
                opt(slope(&m.series)),
            );
            out.push_str(if i + 1 == self.metrics.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("  ],\n");
        let bands = self
            .bands
            .iter()
            .map(|b| {
                format!(
                    "{{\"metric\": \"{}\", \"fraction\": {}}}",
                    json_escape(&b.metric),
                    num(b.fraction)
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(out, "  \"bands\": [{bands}],");
        let _ = writeln!(out, "  \"checked\": {},", self.checked);
        out.push_str("  \"violations\": [\n");
        for (i, v) in self.violations.iter().enumerate() {
            out.push_str("    {");
            write_key_fields(&mut out, &v.key);
            let _ = write!(
                out,
                ", \"metric\": \"{}\", \"series\": {}, \"first\": {}, \"last\": {}, \
                 \"rel_drift\": {}, \"band\": {}}}",
                json_escape(&v.metric),
                series(&v.series),
                num(v.first),
                num(v.last),
                num(v.rel_drift()),
                num(v.fraction),
            );
            out.push_str(if i + 1 == self.violations.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn entry(commit: &str, work: f64) -> HistoryEntry {
        let mut cells = BTreeMap::new();
        for (backend, wall) in [("sim", 0.0), ("threads", 2.5)] {
            let key = CellKey {
                experiment: "e01".to_string(),
                algo: "soloall".to_string(),
                adversary: "stage".to_string(),
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
            cells_per_sec: f64::NAN,
            mode: "smoke".to_string(),
            result_schema_version: 1,
            cells,
        }
    }

    fn ledger(values: &[f64]) -> History {
        History {
            entries: values
                .iter()
                .enumerate()
                .map(|(i, v)| entry(&format!("c{i}"), *v))
                .collect(),
        }
    }

    #[test]
    fn band_specs_parse_in_all_three_spellings() {
        for spec in ["mean_work=±1%", "mean_work=1%", "mean_work=0.01"] {
            let b = parse_band(spec).unwrap();
            assert_eq!(b.metric, "mean_work");
            assert!((b.fraction - 0.01).abs() < 1e-12, "{spec}");
        }
        for bad in ["mean_work", "=1%", "m=x%", "m=-1%", "m=inf"] {
            assert!(parse_band(bad).is_err(), "`{bad}` should fail");
        }
    }

    #[test]
    fn slope_handles_the_edge_cases() {
        // Single entry: no slope.
        assert_eq!(slope(&[5.0]), None);
        // All-equal series: slope exactly zero.
        assert_eq!(slope(&[3.0, 3.0, 3.0, 3.0]), Some(0.0));
        // NaN rejection: a poisoned series has no slope.
        assert_eq!(slope(&[1.0, f64::NAN, 3.0]), None);
        assert_eq!(slope(&[1.0, f64::INFINITY]), None);
        // A clean linear series recovers its slope exactly.
        assert_eq!(slope(&[10.0, 12.0, 14.0, 16.0]), Some(2.0));
        // Least squares through noisy symmetric points.
        let s = slope(&[0.0, 2.0, 1.0, 3.0]).unwrap();
        assert!((s - 0.8).abs() < 1e-12, "{s}");
    }

    #[test]
    fn sparklines_are_ascii_and_handle_flat_and_nan() {
        let s = sparkline(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
        assert_eq!(s, ".:-=+*#@");
        assert!(s.is_ascii());
        assert_eq!(sparkline(&[5.0, 5.0, 5.0]), "===", "flat series");
        assert_eq!(sparkline(&[1.0, f64::NAN, 2.0]), ".?@");
        assert_eq!(sparkline(&[]), "");
    }

    #[test]
    fn single_entry_windows_are_clean() {
        let report = analyze(
            &ledger(&[100.0]),
            &TrendConfig {
                last: None,
                bands: vec![parse_band("mean_work=1%").unwrap()],
            },
        )
        .unwrap();
        assert_eq!(report.window, 1);
        assert!(report.is_clean(), "first == last, nothing can drift");
        assert_eq!(report.checked, 1);
        // And an empty ledger is an error, not a silent pass.
        assert!(analyze(&History::default(), &TrendConfig::default()).is_err());
    }

    #[test]
    fn cumulative_drift_fails_even_when_every_step_passes() {
        // The acceptance scenario: +0.4%/entry for five entries. Every
        // adjacent step passes `doall compare` at 1% tolerance, but the
        // cumulative +1.6% crosses the ±1% band.
        let values = [100.0, 100.4, 100.8, 101.2, 101.6];
        let history = ledger(&values);
        for pair in history.entries.windows(2) {
            let cmp = crate::compare::compare(
                &pair[0].to_baseline_set(),
                &pair[1].to_baseline_set(),
                0.01,
            );
            assert!(cmp.is_clean(), "each step is inside per-step tolerance");
        }
        let report = analyze(
            &history,
            &TrendConfig {
                last: None,
                bands: vec![parse_band("mean_work=±1%").unwrap()],
            },
        )
        .unwrap();
        assert!(!report.is_clean(), "{}", report.render_text());
        assert_eq!(report.violations.len(), 1, "one sim cell gated");
        let v = &report.violations[0];
        assert_eq!(v.key.backend, "sim", "threads cells are never gated");
        assert_eq!(v.first, 100.0);
        assert_eq!(v.last, 101.6);
        assert!(report.render_text().contains("1 violation(s)"));
        // Restricting the window below the creep length hides it again.
        let short = analyze(
            &history,
            &TrendConfig {
                last: Some(2),
                bands: vec![parse_band("mean_work=±1%").unwrap()],
            },
        )
        .unwrap();
        assert!(short.is_clean(), "one step is inside the band");
        assert_eq!(short.window, 2);
    }

    #[test]
    fn exempt_data_never_renders_or_gates() {
        // wall_clock_ms varies wildly across entries, and the threads
        // cell's mean_work differs too — neither shows up anywhere.
        let mut history = ledger(&[100.0, 100.0]);
        for (i, e) in history.entries.iter_mut().enumerate() {
            for (key, metrics) in &mut e.cells {
                metrics.insert("wall_clock_ms".to_string(), 1000.0 * i as f64);
                if key.backend == "threads" {
                    metrics.insert("mean_work".to_string(), 7.0 + 90.0 * i as f64);
                }
            }
        }
        let report = analyze(
            &history,
            &TrendConfig {
                last: None,
                bands: vec![
                    parse_band("mean_work=0%").unwrap(),
                    parse_band("wall_clock_ms=0%").unwrap(),
                ],
            },
        )
        .unwrap();
        assert!(report.is_clean(), "{}", report.render_text());
        assert_eq!(report.checked, 1, "only the sim cell's mean_work");
        // The configured bands echo in the gate header, but no exempt
        // data row is ever rendered: no metric-table row, no series.
        assert!(!report.metrics.iter().any(|m| m.name == "wall_clock_ms"));
        assert!(!report.render_text().contains("| wall_clock_ms"));
        assert!(!report.render_json().contains("\"name\": \"wall_clock_ms\""));
        // The wildly varying threads-cell mean_work never moves the
        // aggregate: the sim cell's flat 100.0 is the whole series.
        let mw = report
            .metrics
            .iter()
            .find(|m| m.name == "mean_work")
            .unwrap();
        assert_eq!(mw.series, vec![100.0, 100.0]);
    }

    #[test]
    fn one_sided_metric_presence_violates_the_band() {
        let mut history = ledger(&[100.0, 100.0]);
        let last = history.entries.last_mut().unwrap();
        for (key, metrics) in &mut last.cells {
            if key.backend == "sim" {
                metrics.insert("completed".to_string(), 1.0);
            }
        }
        let report = analyze(
            &history,
            &TrendConfig {
                last: None,
                bands: vec![parse_band("completed=50%").unwrap()],
            },
        )
        .unwrap();
        assert_eq!(report.violations.len(), 1);
        assert!(report.violations[0].first.is_nan());
    }

    #[test]
    fn renders_are_deterministic_and_json_is_balanced() {
        let history = ledger(&[100.0, 100.4, 101.6]);
        let cfg = TrendConfig {
            last: None,
            bands: vec![parse_band("mean_work=1%").unwrap()],
        };
        let report = analyze(&history, &cfg).unwrap();
        assert_eq!(report.render_text(), report.render_text());
        let json = report.render_json();
        assert_eq!(json, report.render_json());
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        let doc = crate::resultset::parse_json(&json).unwrap();
        assert_eq!(doc.get("clean"), Some(&crate::resultset::Json::Bool(false)));
        assert_eq!(
            doc.get("window"),
            Some(&crate::resultset::Json::Number(3.0))
        );
    }
}
