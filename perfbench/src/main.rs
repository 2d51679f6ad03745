//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload schedule_search --seed 0 --seconds 30 --trace 0
//! ```
//!
//! `--trace 0` times full scenario passes with tracing off and reports
//! the end-to-end metrics; `--trace 1` is the separate traced run that
//! reports the per-layer split. `--workload all` runs every workload,
//! each in its own process. `--record` rewrites the committed reference
//! result sets from the default seed. See `README.md` for the metrics.

mod oracle;
mod procfs;
mod stats;
mod trace;
mod traced;
mod workload;

use doall_bench::sweep::default_threads;
use doall_bench::{
    compare, derive_by_name, load_result_set, parse_json, parse_result_set, run_cells_with_stats,
    run_scenario, BaselineSet, Cell, Json, ResultSet, Scenario, SuiteConfig, SweepConfig,
};
use doall_sim::DEFAULT_MAX_TICKS;
use oracle::{Oracle, PassOutput};
use stats::median;
use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{Workload, DEFAULT_SEED, WORKLOADS};

/// Set-ups timed together after each pass. Their mean is one `setup_s`
/// sample; spreading the samples over the run and over a few milliseconds
/// each exposes them to the machine as the passes are exposed.
const SETUPS_PER_SAMPLE: u32 = 50;

/// One reported number.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count or derivation, printed beside the value.
    pub note: String,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, note: &str) -> Self {
        Self {
            name: name.to_string(),
            value,
            unit,
            note: note.to_string(),
        }
    }
}

/// A run's result: the contract's closing JSON line.
struct Report {
    attempted: usize,
    failed: usize,
    metrics: Vec<Metric>,
}

impl Report {
    fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    fn print(&self) {
        for m in &self.metrics {
            println!("{:<24} {:>16.6} {:<8} {}", m.name, m.value, m.unit, m.note);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        );
    }
}

/// Everything a run needs before its first timed pass.
struct Setup {
    text: String,
    scenario: Scenario,
    cells: Vec<Cell>,
    reference: BaselineSet,
}

/// Generates the inputs from the seed, parses the scenario, expands and
/// validates its grids, and loads the reference.
fn set_up(w: &Workload, seed: u64) -> Result<Setup, String> {
    let text = w.scenario_text(seed);
    let scenario = Scenario::parse(&text).map_err(|e| format!("{}: {e}", w.name))?;
    if let Some(name) = &scenario.derive {
        derive_by_name(name).ok_or(format!("unknown derive hook `{name}`"))?;
    }
    let mut cells = Vec::new();
    for grid in &scenario.grids {
        grid.validate().map_err(|e| e.to_string())?;
        cells.extend(grid.cells());
    }
    let path = w.reference_path();
    let reference = load_result_set(&path.to_string_lossy()).map_err(|e| e.to_string())?;
    Ok(Setup {
        text,
        scenario,
        cells,
        reference,
    })
}

/// One full pass as `doall test` runs it: parse, sweep + derive +
/// assertions, render, re-parse, compare against the reference.
fn run_pass(
    text: &str,
    reference: &BaselineSet,
    threads: Option<usize>,
) -> Result<PassOutput, String> {
    let scn = Scenario::parse(text).map_err(|e| e.to_string())?;
    let cfg = SuiteConfig {
        threads,
        ..SuiteConfig::default()
    };
    let mut outcome = run_scenario(&scn, &cfg)?;
    let results = ResultSet {
        mode: "full".to_string(),
        records: std::mem::take(&mut outcome.records),
    };
    let json = results.to_json();
    outcome.records = results.records;
    let parsed = parse_result_set(&json).map_err(|e| e.to_string())?;
    let cmp = compare(reference, &parsed, 0.0);
    Ok(PassOutput {
        outcome,
        json,
        parsed,
        cmp,
    })
}

fn report_notes(pass: usize, notes: &[String]) {
    for note in notes.iter().take(5) {
        eprintln!("pass {pass}: {note}");
    }
}

/// The timed run: full passes at the default thread count, tracing off.
fn end_to_end(
    w: &Workload,
    seed: u64,
    seconds: Duration,
    start: Instant,
) -> Result<Report, String> {
    let first = set_up(w, seed)?;
    let mut setup_s = vec![start.elapsed().as_secs_f64()];
    let cells = first.cells.len();
    let mut oracle = Oracle::new(first.reference, seed == DEFAULT_SEED);
    let (mut rates, mut cpu, mut attempted, mut failed) = (Vec::new(), Vec::new(), 0, 0);
    let measuring = Instant::now();
    while rates.is_empty() || measuring.elapsed() < seconds {
        let cpu0 = procfs::cpu_seconds()?;
        let t = Instant::now();
        let pass = run_pass(&first.text, oracle.reference(), None);
        let wall = t.elapsed().as_secs_f64();
        let cpu_s = procfs::cpu_seconds()? - cpu0;
        let (bad, notes) = oracle.judge(cells, &pass, &BTreeSet::new());
        report_notes(rates.len(), &notes);
        eprintln!("pass {}: {wall:.4} s wall, {cpu_s:.2} s cpu", rates.len());
        rates.push(cells.saturating_sub(bad) as f64 / wall);
        cpu.push(cpu_s / cells as f64);
        attempted += cells;
        failed += bad;
        let t = Instant::now();
        for _ in 0..SETUPS_PER_SAMPLE {
            std::hint::black_box(set_up(w, seed)?);
        }
        setup_s.push(t.elapsed().as_secs_f64() / f64::from(SETUPS_PER_SAMPLE));
    }
    let passes = format!("median of {} passes", rates.len());
    println!(
        "workload {} seed {seed}: {cells} cells per pass, threads = {}",
        w.name,
        default_threads()
    );
    println!(
        "failed_frac = {} ratio ({failed} of {attempted} cells failed)",
        failed as f64 / attempted as f64
    );
    Ok(Report {
        attempted,
        failed,
        metrics: vec![
            Metric::new("cells_per_s", median(&rates), "cells/s", &passes),
            Metric::new("cpu_s_per_cell", median(&cpu), "s/cell", &passes),
            Metric::new(
                "setup_s",
                median(&setup_s),
                "s",
                &format!(
                    "median of {} samples, the first from process start ({:.6} s)",
                    setup_s.len(),
                    setup_s[0]
                ),
            ),
            Metric::new(
                "peak_rss_mb",
                procfs::peak_rss_mib()?,
                "MiB",
                "VmHWM of this process",
            ),
        ],
    })
}

/// The traced run. Each round runs an untraced single-thread pass, the
/// sweep engine at the default thread count, and a traced single-thread
/// pass, so that all three see the machine in the same state.
fn traced_run(w: &Workload, seed: u64, seconds: Duration) -> Result<Report, String> {
    let s = set_up(w, seed)?;
    let cells = s.cells.len();
    let mut oracle = Oracle::new(s.reference, seed == DEFAULT_SEED);
    let cfg = SweepConfig {
        threads: default_threads(),
        max_ticks: s.scenario.max_ticks.unwrap_or(DEFAULT_MAX_TICKS),
        trace: s.scenario.trace,
        shard_size: None,
    };
    let budget = Instant::now();
    let mut tracer = Tracer::new();
    let span_s = |t: &Tracer, i: usize| (t.spans()[i].end_ns - t.spans()[i].start_ns) as f64 / 1e9;
    let (mut attempted, mut failed) = (0, 0);
    let (mut serial_s, mut sweep_s, mut stats) = (Vec::new(), Vec::new(), None);
    let (mut roots, mut sims, mut last) = (Vec::new(), Vec::new(), None);
    while roots.is_empty() || budget.elapsed() < seconds {
        let round = roots.len();
        let root = tracer.spans().len();
        let serial = tracer.span("serial", None, |_| {
            run_pass(&s.text, oracle.reference(), Some(1))
        });
        serial_s.push(span_s(&tracer, root));
        let (bad, notes) = oracle.judge(cells, &serial, &BTreeSet::new());
        report_notes(round, &notes);
        let root = tracer.spans().len();
        let (engine, st) = tracer
            .span("sweep", None, |_| run_cells_with_stats(&s.cells, &cfg))
            .map_err(|e| e.to_string())?;
        sweep_s.push(span_s(&tracer, root));
        stats = Some(st);
        let root = tracer.spans().len();
        let pass = tracer.span("pass", None, |t| {
            traced::traced_pass(t, &s.text, &engine, oracle.reference())
        });
        let (pass, mismatched) = match pass {
            Ok(p) => {
                sims.push(p.sim);
                (Ok(p.out), p.mismatched)
            }
            Err(e) => (Err(e), BTreeSet::new()),
        };
        for key in &mismatched {
            eprintln!("round {round}: {key}: traced summary differs from the engine's");
        }
        let (traced_bad, notes) = oracle.judge(cells, &pass, &mismatched);
        report_notes(round, &notes);
        failed += bad + traced_bad;
        attempted += 2 * cells;
        roots.push(root);
        last = pass.ok().or(last);
    }
    let stats = stats.ok_or("the sweep engine never ran")?;
    let sweep = traced::SweepRun {
        wall_s: median(&sweep_s),
        workers: stats.workers,
        shards: stats.shards,
        workers_engaged: stats.workers_engaged,
    };
    let serial_s = median(&serial_s);
    let last = last.ok_or("no traced pass completed")?;
    write_spans(w, seed, &tracer)?;
    let passes = traced::Passes::new(&tracer, &roots);
    let metrics = traced::layer_metrics(&passes, &sims, &last, &sweep, serial_s);
    println!(
        "workload {} seed {seed}: traced split of {} single-thread passes ({cells} cells each)",
        w.name,
        roots.len()
    );
    println!("| span | calls/pass | self_s | share |\n|---|---|---|---|");
    for (name, calls, self_s, share) in passes.split() {
        println!("| {name} | {calls} | {self_s:.6} | {share:.4} |");
    }
    let by_name: BTreeMap<String, f64> =
        metrics.iter().map(|m| (m.name.clone(), m.value)).collect();
    print_predictions(&[(w.name, by_name.clone())]);
    for (claim, holds) in traced::design_checks(w.name, &by_name) {
        println!(
            "design check: {claim}: {}",
            if holds { "holds" } else { "DOES NOT HOLD" }
        );
    }
    Ok(Report {
        attempted,
        failed,
        metrics,
    })
}

/// Writes the run's spans, as JSON lines, under the build directory.
fn write_spans(w: &Workload, seed: u64, tracer: &Tracer) -> Result<(), String> {
    let dir = std::path::PathBuf::from(
        std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()),
    )
    .join("perfbench");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("spans-{}-seed{seed}.jsonl", w.name));
    std::fs::write(&path, tracer.to_json_lines())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("spans written to {}", path.display());
    Ok(())
}

/// The layer → end-to-end → workload table, with what each workload's
/// traced run measured.
fn print_predictions(runs: &[(&str, BTreeMap<String, f64>)]) {
    let names: Vec<&str> = runs.iter().map(|(w, _)| *w).collect();
    println!(
        "\n| layer metric | should move | on workload | should stay flat on | measured on {} |",
        names.join(" | measured on ")
    );
    println!("|---|---|---|---|{}", "---|".repeat(runs.len()));
    for (metric, measured, moves, on, flat) in traced::PREDICTIONS {
        let cols: Vec<String> = runs
            .iter()
            .map(|(_, m)| {
                let v: f64 = measured.iter().filter_map(|k| m.get(*k)).sum();
                format!("{} {v:.4}", measured.join(" + "))
            })
            .collect();
        println!(
            "| {metric} | {moves} | {on} | {flat} | {} |",
            cols.join(" | ")
        );
    }
}

/// Runs one pass of the default seed and writes its result set as the
/// workload's reference.
fn record(w: &Workload) -> Result<(), String> {
    let text = w.scenario_text(DEFAULT_SEED);
    let scn = Scenario::parse(&text).map_err(|e| e.to_string())?;
    let outcome = run_scenario(&scn, &SuiteConfig::default())?;
    if let Some(f) = outcome.failures.first() {
        return Err(format!("refusing to record a failing pass: {f}"));
    }
    let json = ResultSet {
        mode: "full".to_string(),
        records: outcome.records,
    }
    .to_json();
    let path = w.reference_path();
    std::fs::write(&path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("recorded {}", path.display());
    Ok(())
}

/// Runs each workload in a process of its own and prints their results,
/// then (traced) the combined layer table.
fn run_all(seed: u64, seconds: u64, trace: bool) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut ok = true;
    let mut runs = Vec::new();
    for w in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w.name, "--seed", &seed.to_string()])
            .args([
                "--seconds",
                &seconds.to_string(),
                "--trace",
                if trace { "1" } else { "0" },
            ])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        ok &= out.status.success();
        let last = stdout.lines().last().unwrap_or_default();
        let mut metrics = BTreeMap::new();
        if let Ok(result) = parse_json(last) {
            if let Some(Json::Object(ms)) = result.get("metrics") {
                for (name, m) in ms {
                    if let Some(Json::Number(v)) = m.get("value") {
                        metrics.insert(name.clone(), *v);
                    }
                }
            }
        }
        runs.push((w.name, metrics));
    }
    if trace {
        print_predictions(&runs);
    }
    Ok(ok)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    record: bool,
}

const USAGE: &str = "usage: doall-perfbench --workload <schedule_search|broadcast_scale|\
point_to_point|all> [--seed N] [--seconds N] [--trace 0|1] | --record";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 30,
        trace: false,
        record: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--record" {
            args.record = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a count"))
        };
        match flag.as_str() {
            "--workload" => args.workload.clone_from(&value),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if args.workload.is_empty() && !args.record {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if args.record {
        WORKLOADS.iter().try_for_each(record).map(|()| true)
    } else if args.workload == "all" {
        run_all(args.seed, args.seconds, args.trace)
    } else {
        let Some(w) = workload::by_name(&args.workload) else {
            eprintln!("unknown workload `{}`\n{USAGE}", args.workload);
            return ExitCode::from(2);
        };
        let seconds = Duration::from_secs(args.seconds);
        let report = if args.trace {
            traced_run(w, args.seed, seconds)
        } else {
            end_to_end(w, args.seed, seconds, start)
        };
        report.map(|r| {
            r.print();
            r.correct()
        })
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
