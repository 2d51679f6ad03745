//! The three workloads, each a scenario generated from the workload seed.
//!
//! Shapes, algorithms, adversaries and replicate counts are fixed so the
//! length of a pass stays steady; the seed only sets each grid's `seed=`,
//! which moves every replicate's algorithm and adversary randomness.

/// One benchmark workload.
pub struct Workload {
    /// Workload name, as passed to `--workload`.
    pub name: &'static str,
    /// Why the workload exists: the layer it puts on top.
    pub why: &'static str,
    /// The grid, without its `seed=` field.
    grid: &'static str,
    /// Further scenario lines (derive hook, assertions).
    lines: &'static [&'static str],
}

/// The seed whose results are committed under `reference/`.
pub const DEFAULT_SEED: u64 = 0;

/// Every workload, in the order `--workload all` runs them.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "schedule_search",
        why: "DA(q) rebuilds its certified low-contention list by hill-climbing for every \
              replicate and again in the da_epsilon hook, so schedule search dominates",
        grid: "algos=da:4,da:5,da:6 advs=stage shapes=8x16,16x64 ds=1,4 seeds=4",
        lines: &[
            "derive = da_epsilon",
            "assert work >= t",
            "assert m_over_pw <= 1",
            "assert completed == seeds",
        ],
    },
    Workload {
        name: "broadcast_scale",
        why: "uniform delays send every broadcast through the coalescing BroadcastBus at \
              p = 4096, against large-p list building and per-processor state",
        grid: "algos=da:3,paran1,padet advs=unit,stage shapes=4096x4096 ds=4,64 seeds=2",
        lines: &["assert work >= t", "assert completed == seeds"],
    },
    Workload {
        name: "point_to_point",
        why: "per-recipient delays send every message through the Mailboxes path, the \
              simulator used the opposite way from broadcast_scale",
        grid: "algos=da:3,paran1 advs=random,crash:50,straggler:25:4 shapes=512x512 ds=4,16 \
               seeds=2",
        lines: &["assert work >= t", "assert completed == seeds"],
    },
];

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// The scenario file this workload runs under `seed`.
    pub fn scenario_text(&self, seed: u64) -> String {
        let mut text = format!(
            "id = {}\ntitle = benchmark workload {} ({})\ngrid = {} seed={seed}\n",
            self.name, self.name, self.why, self.grid
        );
        for line in self.lines {
            text.push_str(line);
            text.push('\n');
        }
        text
    }

    /// Where this workload's default-seed reference result set lives.
    pub fn reference_path(&self) -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("reference")
            .join(format!("{}.json", self.name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doall_bench::Scenario;

    #[test]
    fn the_same_seed_gives_byte_identical_inputs() {
        for w in WORKLOADS {
            for seed in [DEFAULT_SEED, 1, 7, u64::MAX] {
                assert_eq!(w.scenario_text(seed), w.scenario_text(seed));
            }
            assert_ne!(w.scenario_text(1), w.scenario_text(2), "{}", w.name);
        }
    }

    #[test]
    fn the_seed_sets_only_the_grid_seed() {
        for w in WORKLOADS {
            let a = Scenario::parse(&w.scenario_text(3)).unwrap();
            let b = Scenario::parse(&w.scenario_text(4)).unwrap();
            assert_eq!(a.grids.len(), 1);
            assert_eq!((a.grids[0].base_seed, b.grids[0].base_seed), (3, 4));
            let mut b_grid = b.grids[0].clone();
            b_grid.base_seed = 3;
            assert_eq!(a.grids[0], b_grid, "{}: shapes stay fixed", w.name);
            assert_eq!(a.asserts, b.asserts);
            assert_eq!(a.derive, b.derive);
        }
    }

    #[test]
    fn workloads_are_valid_scenarios_named_after_themselves() {
        for w in WORKLOADS {
            let scn = Scenario::parse(&w.scenario_text(DEFAULT_SEED)).unwrap();
            assert_eq!(scn.id, w.name);
            for grid in &scn.grids {
                grid.validate().unwrap();
            }
            assert!(by_name(w.name).is_some());
            assert!(!w.why.contains('\n'));
        }
        assert!(by_name("all").is_none());
    }
}
