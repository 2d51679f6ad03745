//! Property tests for the PR's two "must not perturb results" claims:
//!
//! 1. **Tracing is an observer.** A run built with `TraceMode::Off`
//!    (the monomorphized trace-free loop) and the same run built with
//!    `TraceMode::Buffered` produce identical [`RunReport`]s, for random
//!    algorithm × adversary × shape draws across both delivery engines
//!    (bus and per-recipient).
//! 2. **The sweep engine's schedule is invisible.** A sweep is
//!    byte-identical across `--threads {1, 8}` × `--shard-size {1, auto}`,
//!    and a traced sweep measures exactly what the untraced one does,
//!    apart from the trace-only execution-profile means.

use doall_bench::grid::{build_adversary, build_algorithm, AdversarySpec, AlgoSpec, Grid};
use doall_bench::sweep::{run_cells, SweepConfig};
use doall_core::{Instance, RunReport};
use doall_sim::{Simulation, TraceMode};
use proptest::prelude::*;

/// Algorithm keys that exercise every messaging pattern: broadcast-free,
/// full broadcast, and partial multicast (gossip).
const ALGOS: &[&str] = &[
    "soloall", "oblido", "da:3", "paran1", "paran2", "padet", "gossip:2",
];

/// Adversaries covering both delivery engines: the first four declare
/// `UniformBroadcast` (bus), the rest stay per-recipient (stateful RNG,
/// mailbox-peeking lower-bound constructions, crash/straggler wrappers).
const ADVS: &[&str] = &[
    "unit",
    "fixed",
    "stage",
    "bursty:3",
    "random",
    "lbrand:4",
    "crash:25@burst",
    "straggler:50:2",
];

const MAX_TICKS: u64 = 200_000;

fn run_with(
    algo: &str,
    adv: &str,
    p: usize,
    t: usize,
    d: u64,
    seed: u64,
    trace: TraceMode,
) -> (RunReport, bool) {
    let instance = Instance::new(p, t).expect("valid shape");
    let algo = AlgoSpec::parse(algo).expect("valid algo key");
    let algorithm = build_algorithm(&algo, instance, seed).expect("buildable algo");
    let spec = AdversarySpec::parse(adv).expect("valid adversary key");
    let adversary = build_adversary(&spec, p, t, d, seed, MAX_TICKS);
    let (report, trace_out) = Simulation::builder(instance)
        .procs(algorithm.spawn(instance))
        .adversary(adversary)
        .max_ticks(MAX_TICKS)
        .trace(trace)
        .build()
        .run_traced();
    (report, trace_out.is_some())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Claim 1: `TraceMode::Off` and `TraceMode::Buffered` agree on every
    /// field of the report, whatever the algorithm, adversary, shape, and
    /// seed.
    #[test]
    fn trace_off_and_buffered_reports_identical(
        algo_idx in 0..ALGOS.len(),
        adv_idx in 0..ADVS.len(),
        p in 2usize..=12,
        t_mult in 1usize..=6,
        d in 1u64..=6,
        seed in 0u64..1_000,
    ) {
        let algo = ALGOS[algo_idx];
        let adv = ADVS[adv_idx];
        let t = p * t_mult;
        let (off, had_trace_off) = run_with(algo, adv, p, t, d, seed, TraceMode::Off);
        let (buffered, had_trace_buf) =
            run_with(algo, adv, p, t, d, seed, TraceMode::Buffered(1 << 20));
        prop_assert!(!had_trace_off);
        prop_assert!(had_trace_buf);
        prop_assert_eq!(off, buffered, "tracing perturbed {}/{}", algo, adv);
    }

    /// Claim 2b: the sweep engine is byte-identical across
    /// `--threads {1, 8}` × `--shard-size {1, auto}`, and with `trace` on
    /// it measures the same metrics plus the execution-profile means.
    #[test]
    fn sweep_identical_across_threads_and_shards(
        algo_idx in 0..ALGOS.len(),
        adv_idx in 0..ADVS.len(),
        d in 1u64..=4,
        seed in 0u64..1_000,
    ) {
        let algo = ALGOS[algo_idx];
        let adv = ADVS[adv_idx];
        let grid = Grid::parse(&format!(
            "algos={algo} advs={adv} shapes=6x24 ds={d} seeds=6 seed={seed}"
        ))
        .expect("valid grid");
        let cells = grid.cells();
        let mut results = Vec::new();
        for threads in [1usize, 8] {
            for shard_size in [Some(1), None] {
                let cfg = SweepConfig {
                    threads,
                    shard_size,
                    max_ticks: MAX_TICKS,
                    ..SweepConfig::default()
                };
                results.push(run_cells(&cells, &cfg).expect("sweep runs"));
            }
        }
        for other in &results[1..] {
            prop_assert_eq!(&results[0], other, "thread/shard config changed results");
        }
        let traced_cfg = SweepConfig {
            threads: 2,
            shard_size: Some(1),
            max_ticks: MAX_TICKS,
            trace: true,
        };
        let traced = run_cells(&cells, &traced_cfg).expect("traced sweep runs");
        prop_assert_eq!(traced.len(), results[0].len());
        for (traced, untraced) in traced.iter().zip(&results[0]) {
            let mut metrics = traced.metrics();
            prop_assert!(metrics.remove("mean_primary").is_some());
            prop_assert!(metrics.remove("mean_secondary").is_some());
            prop_assert_eq!(metrics, untraced.metrics(), "tracing changed {}/{}", algo, adv);
        }
    }
}
