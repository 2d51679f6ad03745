//! The traced run: the per-layer split of one workload.
//!
//! A traced pass does what a scenario pass does, but calls each layer's
//! public function itself — scenario parse, grid expansion, then per
//! replicate `build_algorithm`, `Algorithm::spawn`, `build_adversary` and
//! `Simulation::builder(..).build().run()`, then the derive hook, every
//! assertion check, the result-set render and re-parse, and the compare —
//! with a span around each call. Its `RunReport`s must summarise to
//! exactly what the sweep engine measured for every cell.

use crate::oracle::PassOutput;
use crate::stats::{median, ratio, tail};
use crate::trace::{layers_under, Layer, Tracer};
use crate::Metric;
use doall_bench::grid::{build_adversary, build_algorithm};
use doall_bench::suite::{cell_label, FailureKind};
use doall_bench::{
    compare, derive_by_name, parse_result_set, AssertionFailure, BaselineSet, Cell, CellKey,
    CellMeasurement, Record, ResultSet, Scenario, ScenarioOutcome,
};
use doall_core::{Instance, RunReport};
use doall_sim::analysis::{summarize, BatchSummary};
use doall_sim::{Simulation, DEFAULT_MAX_TICKS};
use std::collections::{BTreeMap, BTreeSet};

/// Simulator totals over a pass's replicates.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounters {
    /// Σ work (Definition 2.1): processor steps until σ.
    pub steps: u64,
    /// Σ messages (Definition 2.2).
    pub messages: u64,
    /// Σ σ, in ticks.
    pub ticks: u64,
    /// Replicates that hit the tick cutoff.
    pub incomplete: u64,
}

impl SimCounters {
    fn add(&mut self, r: &RunReport) {
        self.steps += r.work;
        self.messages += r.messages;
        self.ticks += r.sigma.unwrap_or(0);
        self.incomplete += u64::from(!r.completed);
    }
}

/// One traced pass's products.
pub struct TracedPass {
    pub out: PassOutput,
    /// Cells whose traced summary differs from the engine's.
    pub mismatched: BTreeSet<CellKey>,
    pub sim: SimCounters,
}

/// Runs one cell's replicates, a span around each layer call.
fn run_cell(
    t: &mut Tracer,
    cell: &Cell,
    max_ticks: u64,
    sim: &mut SimCounters,
) -> Result<BatchSummary, String> {
    let instance = Instance::new(cell.p, cell.t).map_err(|e| e.to_string())?;
    let mut reports = Vec::with_capacity(usize::try_from(cell.seeds).unwrap_or(0));
    for k in 0..cell.seeds {
        let seed = cell.run_seed(k);
        let algo = t
            .span("build", None, |_| {
                build_algorithm(&cell.algo, instance, seed)
            })
            .map_err(|e| e.to_string())?;
        let procs = t.span("spawn", None, |_| algo.spawn(instance));
        let adversary = t.span("adversary", None, |_| {
            build_adversary(&cell.adversary, cell.p, cell.t, cell.d, seed, max_ticks)
        });
        let report = t.span("sim", None, |_| {
            Simulation::builder(instance)
                .procs(procs)
                .adversary(adversary)
                .max_ticks(max_ticks)
                .build()
                .run()
        });
        sim.add(&report);
        reports.push(report);
    }
    Ok(summarize(&reports))
}

/// One traced pass over the scenario `text`. `engine` is the sweep
/// engine's measurement of the same cells.
pub fn traced_pass(
    t: &mut Tracer,
    text: &str,
    engine: &[CellMeasurement],
    reference: &BaselineSet,
) -> Result<TracedPass, String> {
    let scn = t
        .span("scenario", None, |_| Scenario::parse(text))
        .map_err(|e| e.to_string())?;
    let derive = match &scn.derive {
        Some(name) => Some(derive_by_name(name).ok_or(format!("unknown derive hook `{name}`"))?),
        None => None,
    };
    let cells = t.span("grid", None, |_| {
        let mut cells = Vec::new();
        for grid in &scn.grids {
            grid.validate().map_err(|e| e.to_string())?;
            cells.extend(grid.cells());
        }
        Ok::<_, String>(cells)
    })?;
    if cells.len() != engine.len() {
        return Err(format!(
            "{} cells, the engine ran {}",
            cells.len(),
            engine.len()
        ));
    }
    let max_ticks = scn.max_ticks.unwrap_or(DEFAULT_MAX_TICKS);
    let mut sim = SimCounters::default();
    let mut mismatched = BTreeSet::new();
    let mut records = Vec::with_capacity(cells.len());
    for (i, (cell, measured)) in cells.into_iter().zip(engine).enumerate() {
        let summary = t.span("cell", Some(i), |t| run_cell(t, &cell, max_ticks, &mut sim))?;
        let engine_agrees = measured.cell == cell && measured.summary.as_ref() == Some(&summary);
        let mut metrics = CellMeasurement {
            summary: Some(summary),
            ..measured.clone()
        }
        .metrics();
        if let Some(derive) = derive {
            t.span("derive", Some(i), |_| derive(&cell, &mut metrics));
        }
        let record = Record {
            experiment: scn.id.clone(),
            cell,
            metrics,
        };
        if !engine_agrees {
            mismatched.insert(record.key());
        }
        records.push(record);
    }
    let (checks, failures) = check_assertions(t, &scn, &records);
    let results = ResultSet {
        mode: "full".to_string(),
        records,
    };
    let json = t.span("resultset", None, |_| results.to_json());
    let parsed = t
        .span("resultset", None, |_| parse_result_set(&json))
        .map_err(|e| e.to_string())?;
    let cmp = t.span("compare", None, |_| compare(reference, &parsed, 0.0));
    let outcome = ScenarioOutcome {
        id: scn.id.clone(),
        cells: results.records.len(),
        checks,
        failures,
        records: results.records,
    };
    Ok(TracedPass {
        out: PassOutput {
            outcome,
            json,
            parsed,
            cmp,
        },
        mismatched,
        sim,
    })
}

/// Evaluates every assertion as `suite::run_scenario` does, a span around
/// each check.
fn check_assertions(
    t: &mut Tracer,
    scn: &Scenario,
    records: &[Record],
) -> (usize, Vec<AssertionFailure>) {
    let rows: Vec<(&Cell, &BTreeMap<String, f64>)> =
        records.iter().map(|r| (&r.cell, &r.metrics)).collect();
    let mut checks = 0;
    let mut failures = Vec::new();
    for assertion in &scn.asserts {
        let fail = |cell: Option<String>, (lhs, rhs): (f64, f64)| AssertionFailure {
            scenario: scn.id.clone(),
            assertion: assertion.to_string(),
            kind: FailureKind::Violated { cell, lhs, rhs },
        };
        let before = checks;
        if assertion.aggregate {
            if let Some(result) = t.span("assert", None, |_| assertion.check_agg(&rows)) {
                checks += 1;
                failures.extend(result.err().map(|v| fail(None, v)));
            }
        } else {
            for (i, &(cell, metrics)) in rows.iter().enumerate() {
                if let Some(result) =
                    t.span("assert", Some(i), |_| assertion.check_cell(cell, metrics))
                {
                    checks += 1;
                    failures.extend(result.err().map(|v| fail(Some(cell_label(cell)), v)));
                }
            }
        }
        if checks == before {
            failures.push(AssertionFailure {
                scenario: scn.id.clone(),
                assertion: assertion.to_string(),
                kind: FailureKind::NoMatch,
            });
        }
    }
    (checks, failures)
}

/// What the sweep engine did at the default thread count.
pub struct SweepRun {
    pub wall_s: f64,
    pub workers: usize,
    pub shards: usize,
    pub workers_engaged: usize,
}

/// The layers the sweep engine runs for each replicate (plus the traced
/// pass's per-cell glue): the serial work a parallel sweep divides.
const ENGINE_LAYERS: &[&str] = &["build", "spawn", "adversary", "sim", "cell"];

/// Duration of the traced pass whose layers are `l`, in seconds.
fn pass_len_s(l: &BTreeMap<&'static str, Layer>) -> f64 {
    l["pass"].durations_ns[0] as f64 / 1e9
}

/// The layers of each traced pass.
pub struct Passes {
    per_pass: Vec<BTreeMap<&'static str, Layer>>,
}

impl Passes {
    /// Groups the spans under each of the traced passes rooted at `roots`.
    pub fn new(tracer: &Tracer, roots: &[usize]) -> Self {
        Self {
            per_pass: roots
                .iter()
                .map(|&r| layers_under(tracer.spans(), r))
                .collect(),
        }
    }

    /// Summed self time of the `names` spans in each pass, in seconds.
    fn self_per_pass<'a>(&'a self, names: &'a [&str]) -> impl Iterator<Item = f64> + 'a {
        self.per_pass.iter().map(|l| {
            names
                .iter()
                .filter_map(|name| l.get(name))
                .fold(0.0, |sum, x| sum + x.self_ns as f64 / 1e9)
        })
    }

    /// Median over passes of the `names` spans' self time, in seconds.
    fn self_s(&self, names: &[&str]) -> f64 {
        median(&self.self_per_pass(names).collect::<Vec<_>>())
    }

    /// Median over passes of the `names` spans' share of the pass.
    fn share(&self, names: &[&str]) -> f64 {
        let shares: Vec<f64> = self
            .self_per_pass(names)
            .zip(&self.per_pass)
            .map(|(own, l)| own / pass_len_s(l))
            .collect();
        median(&shares)
    }

    /// Spans called `name` in the first pass.
    fn calls(&self, name: &str) -> usize {
        self.per_pass[0].get(name).map_or(0, |l| l.calls)
    }

    /// Median pass duration, in seconds.
    fn pass_s(&self) -> f64 {
        median(&self.per_pass.iter().map(pass_len_s).collect::<Vec<_>>())
    }

    /// Every span name's calls per pass, self time and share.
    pub fn split(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let names: BTreeSet<&'static str> = self
            .per_pass
            .iter()
            .flat_map(|l| l.keys().copied())
            .collect();
        names
            .into_iter()
            .map(|name| {
                (
                    name,
                    self.calls(name),
                    self.self_s(&[name]),
                    self.share(&[name]),
                )
            })
            .collect()
    }
}

/// Per-layer metrics of the traced passes.
pub fn layer_metrics(
    passes: &Passes,
    sims: &[SimCounters],
    last: &PassOutput,
    sweep: &SweepRun,
    serial_s: f64,
) -> Vec<Metric> {
    let n = format!("median of {} traced passes", passes.per_pass.len());
    let self_s = |names: &[&str]| passes.self_s(names);
    let share = |names: &[&str]| passes.share(names);
    let calls = |name: &str| passes.calls(name) as f64;
    let mut out = Vec::new();
    let mut push = |name: &str, value: f64, unit: &'static str, note: &str| {
        out.push(Metric::new(name, value, unit, note));
    };
    for (layer, timed) in [
        ("build", true),
        ("spawn", false),
        ("adversary", false),
        ("sim", true),
        ("derive", false),
    ] {
        push(&format!("{layer}.calls"), calls(layer), "count", "per pass");
        push(&format!("{layer}.self_s"), self_s(&[layer]), "s", &n);
        push(&format!("{layer}.share"), share(&[layer]), "ratio", &n);
        if timed {
            let ms: Vec<f64> = passes
                .per_pass
                .iter()
                .filter_map(|l| l.get(layer))
                .flat_map(|l| l.durations_ns.iter().map(|&d| d as f64 / 1e6))
                .collect();
            let samples = format!("{} calls", ms.len());
            push(&format!("{layer}.ms_p50"), median(&ms), "ms", &samples);
            // Too few calls for a tail leaves the maximum, at the 100th
            // percentile.
            let max = ms.iter().copied().fold(0.0, f64::max);
            let (value, pct) = tail(&ms).map_or((max, 100.0), |t| (t.value, t.pct));
            push(
                &format!("{layer}.ms_tail"),
                value,
                "ms",
                &format!("p{pct:.1} of {samples}"),
            );
            push(
                &format!("{layer}.ms_tail_pct"),
                pct,
                "pct",
                "percentile of ms_tail",
            );
            push(
                &format!("{layer}.ms_samples"),
                ms.len() as f64,
                "count",
                "over all passes",
            );
        }
    }
    let sim = sims[0];
    let sim_ns = self_s(&["sim"]) * 1e9;
    push("sim.steps", sim.steps as f64, "count", "Σ work per pass");
    push(
        "sim.messages",
        sim.messages as f64,
        "count",
        "Σ messages per pass",
    );
    push("sim.ticks", sim.ticks as f64, "ticks", "Σ σ per pass");
    push(
        "sim.ns_per_step",
        ratio(sim_ns, sim.steps as f64),
        "ns/step",
        "sim self time / steps",
    );
    push(
        "sim.ns_per_msg",
        ratio(sim_ns, sim.messages as f64),
        "ns/msg",
        "sim self time / messages",
    );
    push("sim.incomplete", sim.incomplete as f64, "count", "per pass");
    push(
        "assert.checks",
        last.outcome.checks as f64,
        "count",
        "per pass",
    );
    push(
        "assert.failures",
        last.outcome.failures.len() as f64,
        "count",
        "last pass",
    );
    push(
        "resultset.bytes",
        last.json.len() as f64,
        "bytes",
        "rendered JSON",
    );
    push(
        "compare.cells",
        (last.cmp.exact + last.cmp.cells.len()) as f64,
        "count",
        "per pass",
    );
    push(
        "compare.drift",
        last.cmp.cells.len() as f64,
        "count",
        "cells not exact vs the reference",
    );
    for (layer, spans) in [
        ("assert", &["assert"][..]),
        ("resultset", &["resultset"]),
        ("compare", &["compare"]),
        ("scenario", &["scenario", "grid"]),
    ] {
        push(&format!("{layer}.self_s"), self_s(spans), "s", &n);
        push(&format!("{layer}.share"), share(spans), "ratio", &n);
    }
    push(
        "sweep.wall_s",
        sweep.wall_s,
        "s",
        &format!("{} workers, {n}", sweep.workers),
    );
    let serial_engine_s = self_s(ENGINE_LAYERS);
    push(
        "sweep.parallel_eff",
        ratio(serial_engine_s, sweep.workers as f64 * sweep.wall_s),
        "ratio",
        "traced serial engine self time / (workers × wall)",
    );
    push("sweep.shards", sweep.shards as f64, "count", "one sweep");
    push(
        "sweep.workers_engaged",
        sweep.workers_engaged as f64,
        "count",
        "one sweep",
    );
    push(
        "trace.overhead_frac",
        passes.pass_s() / serial_s - 1.0,
        "ratio",
        "median traced pass vs median untraced single-thread pass",
    );
    out
}

/// Which end-to-end metric each layer metric should move, on which
/// workload, and where it should stay flat: `(layer metric, measured
/// metrics summed, should move, on workload, flat on)`. The traced run
/// prints these next to what it measured.
pub const PREDICTIONS: &[(&str, &[&str], &str, &str, &str)] = &[
    (
        "build.self_s",
        &["build.share"],
        "cells_per_s, cpu_s_per_cell",
        "schedule_search",
        "point_to_point",
    ),
    (
        "derive.self_s",
        &["derive.share"],
        "cells_per_s",
        "schedule_search",
        "broadcast_scale, point_to_point",
    ),
    (
        "spawn.self_s",
        &["spawn.share"],
        "cells_per_s, peak_rss_mb",
        "broadcast_scale",
        "schedule_search, point_to_point",
    ),
    (
        "sim.ns_per_step (bus path)",
        &["sim.share"],
        "cells_per_s",
        "broadcast_scale",
        "schedule_search",
    ),
    (
        "sim.ns_per_msg (mailbox path)",
        &["sim.share"],
        "cells_per_s, cpu_s_per_cell",
        "point_to_point",
        "schedule_search",
    ),
    (
        "sweep.parallel_eff",
        &["sweep.parallel_eff"],
        "cells_per_s only, not cpu_s_per_cell",
        "schedule_search",
        "none",
    ),
    (
        "assert, resultset, compare",
        &["assert.share", "resultset.share", "compare.share"],
        "nothing measurable (< 1%)",
        "all",
        "all",
    ),
    (
        "scenario/grid parse",
        &["scenario.share"],
        "setup_s",
        "all",
        "none",
    ),
];

/// The design each workload was chosen for, as `(workload, claim, holds)`
/// over its per-layer metrics.
pub fn design_checks(workload: &str, m: &BTreeMap<String, f64>) -> Vec<(String, bool)> {
    let get = |name: &str| m.get(name).copied().unwrap_or(f64::NAN);
    let mut out = Vec::new();
    match workload {
        "schedule_search" => {
            let v = get("build.share") + get("derive.share");
            out.push((
                format!("build.share + derive.share = {v:.3} >= 0.9"),
                v >= 0.9,
            ));
        }
        "point_to_point" => {
            let v = get("sim.share");
            out.push((format!("sim.share = {v:.3} >= 0.9"), v >= 0.9));
        }
        "broadcast_scale" => {
            for layer in ["build", "spawn", "sim"] {
                let v = get(&format!("{layer}.share"));
                out.push((format!("{layer}.share = {v:.3} >= 0.15"), v >= 0.15));
            }
        }
        _ => {}
    }
    let v = get("assert.share") + get("resultset.share") + get("compare.share");
    out.push((
        format!("assert + resultset + compare share = {v:.5} < 0.01"),
        v < 0.01,
    ));
    out
}
