//! The named derived-metric hooks of the committed experiment suite.
//!
//! Every `e01`–`e17` experiment is a `scenarios/*.scn` file run by
//! `doall test --suite` through [`crate::suite`]. Each file holds its
//! grids, smoke override, prose, and property assertions (see
//! [`crate::scenario`] for the format). What stays in Rust is the one
//! thing a text format cannot express: the derived-metric hooks that
//! restate the paper's closed-form bounds next to the measurements. A
//! scenario names its hook with `derive = <name>`; the name table is
//! [`DERIVE_HOOKS`], which also names the algorithms each hook can
//! handle ([`Accepts`]), so the scenario loader rejects a mismatched grid
//! before anything runs. The paper's inequality lemmas (4.2 and 6.1) are
//! declarative `assert` lines in the scenario files — a violation names
//! the exact offending cell instead of panicking the harness.

use crate::grid::{schedules_for_algo, AlgoSpec, Cell};
use doall_algorithms::Da;
use doall_bounds::{da_epsilon, da_upper_bound, lower_bound_work, oblivious_work, pa_upper_bound};
use doall_core::Instance;
use doall_perms::{contention_of_list, d_contention_of_list, dcont_threshold, search, Schedules};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The standard algorithm roster used by the headline sweeps.
pub const ROSTER: &[&str] = &["soloall", "da:2", "da:3", "paran1", "paran2", "padet"];

/// A derived-metric hook: reads a cell's measured metrics from the map
/// and inserts bounds/ratios next to them.
pub type DeriveFn = fn(&Cell, &mut BTreeMap<String, f64>);

/// The schedule list the cell's algorithm ran with in replicate 0, if
/// it runs with one.
fn list_of(cell: &Cell) -> Option<Schedules> {
    let instance = Instance::new(cell.p, cell.t).ok()?;
    schedules_for_algo(&cell.algo, instance, cell.run_seed(0))
}

fn quadratic(cell: &Cell) -> f64 {
    oblivious_work(cell.p, cell.t)
}

fn ratio_quadratic(cell: &Cell, m: &mut BTreeMap<String, f64>) {
    if let Some(&w) = m.get("mean_work") {
        m.insert("ratio_quadratic".to_string(), w / quadratic(cell));
    }
}

fn d_lower_bound(cell: &Cell, m: &mut BTreeMap<String, f64>) {
    let lb = lower_bound_work(cell.p, cell.t, cell.d);
    m.insert("lb_bound".to_string(), lb);
    if let Some(&w) = m.get("mean_work") {
        m.insert("ratio_lb".to_string(), w / lb);
    }
    ratio_quadratic(cell, m);
}

fn d_contention_lemmas(cell: &Cell, m: &mut BTreeMap<String, f64>) {
    let n = cell.t;
    if cell.algo == AlgoSpec::None {
        // Lemma 4.1: certified low-contention list search vs the 3nH_n bound.
        let (_, cont) = search::low_contention_list(n, 0);
        m.insert("cont_found".to_string(), cont.value as f64);
        m.insert("bound_3nHn".to_string(), search::lemma41_bound(n));
        m.insert("worst_list_nn".to_string(), (n * n) as f64);
    } else if let Some(sched) = list_of(cell) {
        // Lemma 4.2 data: ObliDo's primary executions vs Cont(Σ) of the
        // very list it ran with. The inequality itself is a scenario
        // `assert primary <= cont` line, not a panic here. An estimate
        // only bounds Cont(Σ) from below, so `cont` is left out beyond
        // the exact range and the assertion skips the cell.
        let cont = contention_of_list(sched.as_slice());
        if cont.exact {
            m.insert("cont".to_string(), cont.value as f64);
        }
        m.insert("total_nn".to_string(), (n * n) as f64);
    }
}

fn d_dcont_threshold(cell: &Cell, m: &mut BTreeMap<String, f64>) {
    // Theorem 4.4 / Corollary 4.5: (d)-Cont of a random list vs threshold.
    let sched = Schedules::random(cell.p, cell.t, cell.run_seed(0));
    let est = d_contention_of_list(sched.as_slice(), cell.d as usize);
    let th = dcont_threshold(cell.t, cell.p, cell.d as usize);
    m.insert("dcont".to_string(), est.value as f64);
    m.insert("dcont_exact".to_string(), f64::from(u8::from(est.exact)));
    m.insert("threshold".to_string(), th);
    m.insert("ratio_threshold".to_string(), est.value as f64 / th);
    m.insert("cap_np".to_string(), (cell.t * cell.p) as f64);
}

fn da_eps_of(cell: &Cell, m: &mut BTreeMap<String, f64>) -> Option<f64> {
    let AlgoSpec::Da { q } = cell.algo else {
        return None;
    };
    let da = Da::with_default_schedules(q, cell.run_seed(0));
    let cont = contention_of_list(da.schedules().as_slice()).value;
    let eps = da_epsilon(q, cont).max(0.05);
    m.insert("cont".to_string(), cont as f64);
    m.insert("epsilon".to_string(), eps);
    Some(eps)
}

fn d_da_bound(cell: &Cell, m: &mut BTreeMap<String, f64>) {
    if let Some(eps) = da_eps_of(cell, m) {
        let bound = da_upper_bound(cell.p, cell.t, cell.d, eps);
        m.insert("da_bound".to_string(), bound);
        if let Some(&w) = m.get("mean_work") {
            m.insert("ratio_bound".to_string(), w / bound);
        }
    }
    ratio_quadratic(cell, m);
}

fn msgs_over_p_work(cell: &Cell, m: &mut BTreeMap<String, f64>) {
    if let (Some(&msgs), Some(&w)) = (m.get("mean_messages"), m.get("mean_work")) {
        if w > 0.0 {
            m.insert("m_over_pw".to_string(), msgs / (cell.p as f64 * w));
        }
    }
}

fn d_pa_bound(cell: &Cell, m: &mut BTreeMap<String, f64>) {
    let bound = pa_upper_bound(cell.p, cell.t, cell.d);
    m.insert("pa_bound".to_string(), bound);
    if let Some(&w) = m.get("mean_work") {
        m.insert("ratio_bound".to_string(), w / bound);
    }
    ratio_quadratic(cell, m);
    msgs_over_p_work(cell, m);
}

fn d_dcont_lemma(cell: &Cell, m: &mut BTreeMap<String, f64>) {
    // Lemma 6.1 data: PaDet work vs (d)-Cont(Σ) of its own schedule
    // list. The exact-row inequality (small slack: the final tick may
    // charge idle steps of processors that have not yet learned
    // completion) is a scenario `assert work <= dcont + p when
    // dcont_exact == 1` line.
    let Some(sched) = list_of(cell) else {
        return;
    };
    let dc = d_contention_of_list(sched.as_slice(), cell.d as usize);
    m.insert("dcont".to_string(), dc.value as f64);
    m.insert("dcont_exact".to_string(), f64::from(u8::from(dc.exact)));
    if let Some(&w) = m.get("mean_work") {
        m.insert("ratio_dcont".to_string(), w / dc.value as f64);
    }
}

fn d_da_epsilon(cell: &Cell, m: &mut BTreeMap<String, f64>) {
    let _ = da_eps_of(cell, m);
    msgs_over_p_work(cell, m);
}

fn d_msgs_over_work(cell: &Cell, m: &mut BTreeMap<String, f64>) {
    if let (Some(&msgs), Some(&w)) = (m.get("mean_messages"), m.get("mean_work")) {
        if w > 0.0 {
            m.insert("m_over_w".to_string(), msgs / w);
        }
    }
    ratio_quadratic(cell, m);
}

fn d_dcont_list(cell: &Cell, m: &mut BTreeMap<String, f64>) {
    if let Some(sched) = list_of(cell) {
        let dc = d_contention_of_list(sched.as_slice(), cell.d as usize);
        m.insert("dcont".to_string(), dc.value as f64);
    }
    ratio_quadratic(cell, m);
}

/// The algorithms a derive hook can handle.
#[derive(Debug, Clone, Copy)]
pub struct Accepts {
    /// Names the accepted algorithms in error messages.
    pub what: &'static str,
    /// Whether the hook can handle an algorithm.
    pub admits: fn(&AlgoSpec) -> bool,
}

/// Hooks that read only the cell's shape and metrics.
const ANY: Accepts = Accepts {
    what: "any algorithm",
    admits: |_| true,
};
/// Hooks that rebuild DA's own schedules.
const DA: Accepts = Accepts {
    what: "da:<q>",
    admits: |algo| matches!(algo, AlgoSpec::Da { .. }),
};
/// Hooks that rebuild the schedule list the algorithm ran with.
const LISTS: Accepts = Accepts {
    what: "the algorithms that run with a schedule list",
    admits: AlgoSpec::has_schedule_list,
};
/// Lemma 4.1 (`none`) and Lemma 4.2 (the ObliDo lists).
const CONTENTION: Accepts = Accepts {
    what: "none, oblido, oblido-searched, oblido-worst",
    admits: |algo| {
        *algo == AlgoSpec::None
            || matches!(
                algo,
                AlgoSpec::Oblido | AlgoSpec::OblidoSearched | AlgoSpec::OblidoWorst
            )
    },
};

/// Every derived-metric hook a scenario file may name with
/// `derive = <name>`, sorted by name, with the algorithms it can handle.
pub const DERIVE_HOOKS: &[(&str, Accepts, DeriveFn)] = &[
    ("contention_lemmas", CONTENTION, d_contention_lemmas),
    ("da_bound", DA, d_da_bound),
    ("da_epsilon", DA, d_da_epsilon),
    ("dcont_lemma", LISTS, d_dcont_lemma),
    ("dcont_list", LISTS, d_dcont_list),
    ("dcont_threshold", ANY, d_dcont_threshold),
    ("lower_bound", ANY, d_lower_bound),
    ("msgs_over_p_work", ANY, msgs_over_p_work),
    ("msgs_over_work", ANY, d_msgs_over_work),
    ("pa_bound", ANY, d_pa_bound),
    ("ratio_quadratic", ANY, ratio_quadratic),
];

/// Resolves a scenario's `derive = <name>` hook.
#[must_use]
pub fn derive_by_name(name: &str) -> Option<DeriveFn> {
    DERIVE_HOOKS
        .iter()
        .find(|(n, _, _)| *n == name)
        .map(|&(_, _, f)| f)
}

/// Checks that derive hook `name` can handle algorithm `algo` — the
/// static check the scenario loader runs on every grid, so a hook never
/// meets a cell it cannot measure.
///
/// # Errors
///
/// Returns a message naming the unknown hook, or what the hook accepts.
pub fn check_derive_algo(name: &str, algo: &AlgoSpec) -> Result<(), String> {
    let Some(&(_, accepts, _)) = DERIVE_HOOKS.iter().find(|(n, _, _)| *n == name) else {
        return Err(format!("unknown derive hook `{name}`"));
    };
    if (accepts.admits)(algo) {
        Ok(())
    } else {
        Err(format!(
            "derive hook `{name}` cannot handle algorithm `{algo}` (it accepts {})",
            accepts.what
        ))
    }
}

/// The committed scenario directory: `./scenarios` when invoked from the
/// repository root (the CLI and CI case), else resolved relative to this
/// crate's manifest (the `cargo test` / `cargo run` case).
#[must_use]
pub fn scenarios_dir() -> PathBuf {
    let cwd = PathBuf::from("scenarios");
    if cwd.is_dir() {
        return cwd;
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;
    use crate::suite::{load_dir, run_scenario, run_suite, SuiteConfig};

    fn committed() -> Vec<Scenario> {
        load_dir(&scenarios_dir()).expect("committed scenarios load")
    }

    #[test]
    fn committed_suite_has_seventeen_unique_ids() {
        let scenarios = committed();
        assert_eq!(scenarios.len(), 17);
        let ids: std::collections::BTreeSet<&str> =
            scenarios.iter().map(|s| s.id.as_str()).collect();
        assert_eq!(ids.len(), 17);
        assert!(ids.contains("e01"));
        assert!(ids.contains("e17"));
        // Sorted-path discovery puts them in id order.
        let in_order: Vec<&str> = scenarios.iter().map(|s| s.id.as_str()).collect();
        let mut sorted = in_order.clone();
        sorted.sort_unstable();
        assert_eq!(in_order, sorted);
    }

    #[test]
    fn every_committed_scenario_is_fully_specified() {
        for scn in committed() {
            assert!(!scn.title.is_empty(), "{} needs a title", scn.id);
            assert!(!scn.setup.is_empty(), "{} needs a setup line", scn.id);
            assert!(!scn.notes.is_empty(), "{} needs notes", scn.id);
            assert!(
                !scn.smoke.is_empty(),
                "{} needs a smoke grid for CI",
                scn.id
            );
            assert!(!scn.asserts.is_empty(), "{} needs assertions", scn.id);
            // Grids are validated by load_dir; spot-check round-tripping.
            let rendered = scn.to_string();
            assert_eq!(Scenario::parse(&rendered).unwrap(), scn, "{}", scn.id);
        }
    }

    #[test]
    fn smoke_suite_covers_the_full_algorithm_and_adversary_matrix() {
        let mut algos = std::collections::BTreeSet::new();
        let mut advs = std::collections::BTreeSet::new();
        for scn in committed() {
            for grid in scn.grids_for(true) {
                algos.extend(grid.algos.iter().map(ToString::to_string));
                advs.extend(grid.adversaries.iter().map(ToString::to_string));
            }
        }
        for key in ROSTER {
            assert!(algos.contains(*key), "roster algo {key} missing from smoke");
        }
        for key in [
            "oblido",
            "oblido-searched",
            "oblido-worst",
            "padet-rot",
            "padet-affine",
        ] {
            assert!(algos.contains(key), "algo {key} missing from smoke");
        }
        assert!(algos.iter().any(|a| a.starts_with("gossip:")));
        for key in ["unit", "fixed", "random", "stage", "bursty", "lb", "lbrand"] {
            assert!(advs.contains(key), "adversary {key} missing from smoke");
        }
        assert!(advs.iter().any(|a| a.starts_with("crash:")));
        // The parameterized families: every knob axis is exercised by CI.
        assert!(
            advs.iter().any(|a| a.starts_with("bursty:")),
            "no bursty period knob in smoke: {advs:?}"
        );
        for stagger in ["@burst", "@front"] {
            assert!(
                advs.iter()
                    .any(|a| a.starts_with("crash:") && a.ends_with(stagger)),
                "no crash {stagger} stagger in smoke: {advs:?}"
            );
        }
        assert!(
            advs.iter().any(|a| a.starts_with("straggler:")),
            "no straggler cell in smoke: {advs:?}"
        );
    }

    #[test]
    fn smoke_e01_produces_expected_metrics_and_passes_its_assertions() {
        let scenarios = committed();
        let e01 = scenarios.iter().find(|s| s.id == "e01").unwrap();
        let cfg = SuiteConfig {
            smoke: true,
            threads: Some(2),
            ..SuiteConfig::default()
        };
        let outcome = run_scenario(e01, &cfg).unwrap();
        assert!(outcome.failures.is_empty(), "{:?}", outcome.failures);
        // roster × 1 shape × 2 ds
        assert_eq!(outcome.records.len(), ROSTER.len() * 2);
        for r in &outcome.records {
            assert!(r.metrics.contains_key("mean_work"));
            assert!(r.metrics.contains_key("median_work"));
            assert!(r.metrics.contains_key("max_messages"));
            // The quadratic-wall band is Θ(1), but the constant at tiny
            // smoke shapes can sit above 1 — only sanity-check the order
            // (the scenario's own assertions encode the same band).
            let ratio = r.metrics["ratio_quadratic"];
            assert!(ratio > 0.0 && ratio < 10.0, "{}: {ratio}", r.cell.algo);
        }
    }

    #[test]
    fn lemma_scenarios_pass_their_declarative_assertions_in_smoke() {
        let scenarios = committed();
        let cfg = SuiteConfig {
            smoke: true,
            threads: Some(2),
            ..SuiteConfig::default()
        };
        // e04 (Lemma 4.2) and e10 (Lemma 6.1) carry the paper's
        // inequalities as scenario asserts; a violation now names the
        // cell instead of panicking.
        let subset: Vec<Scenario> = scenarios
            .into_iter()
            .filter(|s| s.id == "e04" || s.id == "e10")
            .collect();
        assert_eq!(subset.len(), 2);
        let report = run_suite(&subset, &cfg).unwrap();
        assert!(report.is_clean(), "{}", report.render_table());
        assert!(report.scenarios.iter().all(|s| s.checks > 0));
    }

    #[test]
    fn derive_hooks_resolve_by_name() {
        for (name, _, _) in DERIVE_HOOKS {
            assert!(derive_by_name(name).is_some(), "{name}");
        }
        assert!(derive_by_name("frobnicate").is_none());
        // The table is sorted so the docs render predictably.
        let names: Vec<&str> = DERIVE_HOOKS.iter().map(|(n, _, _)| *n).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }

    #[test]
    fn schedule_keys_are_exactly_the_keys_that_carry_schedules() {
        // The (d)-Cont hooks admit exactly the algorithms whose list
        // `schedules_for_algo` rebuilds: the ObliDo and PaDet lists. The
        // min(p, t) = 5 units are prime, so padet-affine has its list too.
        let instance = Instance::new(5, 5).unwrap();
        for key in [
            "soloall",
            "oblido",
            "oblido-searched",
            "oblido-worst",
            "da:3",
            "paran1",
            "paran2",
            "padet",
            "padet-rot",
            "padet-affine",
            "gossip:2",
            "none",
        ] {
            let algo = AlgoSpec::parse(key).unwrap();
            let carries = schedules_for_algo(&algo, instance, 0).is_some();
            assert_eq!(
                carries,
                key.starts_with("oblido") || key.starts_with("padet"),
                "{key}"
            );
            for hook in ["dcont_lemma", "dcont_list"] {
                assert_eq!(
                    check_derive_algo(hook, &algo).is_ok(),
                    carries,
                    "{hook} {key}"
                );
            }
        }
    }
}
