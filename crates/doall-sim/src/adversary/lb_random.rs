//! The Theorem 3.4 adversary: forces any *randomized* algorithm to
//! `Ω(t + p·min{d, t}·log_{d+1}(d + t))` expected work.
//!
//! The deterministic dry-run of Theorem 3.1 does not apply to randomized
//! algorithms (an adaptive adversary cannot pre-commit to their coin
//! flips), so the proof replaces it with an *online* rule, illustrated in
//! the paper's Fig. 1:
//!
//! * stages of `L = min{d, max(⌊t/6⌋, 1)}` units, stage-boundary
//!   delivery (as in Theorem 3.1);
//! * at the start of stage `s`, the adversary fixes a defended set
//!   `J_s ⊆ U_s` of `⌈u_s/(L+1)⌉` unperformed tasks — Lemma 3.3 proves a
//!   good choice exists for *any* task distribution, and for the
//!   symmetric algorithms under attack (PaRan1/PaRan2 pick uniformly) all
//!   sets of this size are equivalent, so we sample uniformly;
//! * during the stage the adversary watches each running processor and
//!   **delays it the moment its next step would perform a task of `J_s`**
//!   (detected by a one-step peek on a clone: the clone carries the same
//!   RNG state, so the prediction is exact — this is precisely the
//!   omniscient adaptivity the model grants), keeping it frozen to the
//!   stage end.
//!
//! Lemma 3.3 guarantees that with probability `≥ 1 − e^{−p/512}` at least
//! `p/64` processors survive the stage unfrozen while all of `J_s` remains
//! unperformed.

use super::Adversary;
use crate::{Mailboxes, SimView};
use doall_core::{DoAllProcess, ProcId};
use rand::rngs::StdRng;
use rand::seq::index::sample;
use rand::SeedableRng;
use std::collections::BTreeSet;

/// Adaptive online lower-bound adversary for randomized algorithms
/// (Theorem 3.4).
#[derive(Debug)]
pub struct RandomizedLbAdversary {
    stage_len: u64,
    rng: StdRng,
    // BTreeSet, not HashSet: membership-only today, but a deterministic
    // container keeps any future iteration (debug dumps, tracing) stable
    // across processes — the D001 invariant.
    defended: BTreeSet<usize>,
    frozen: Vec<bool>,
    planned_stage: Option<u64>,
    stages: u64,
}

impl RandomizedLbAdversary {
    /// Creates the adversary for delay bound `d ≥ 1` and instance size
    /// `tasks`, with the given RNG seed for the `J_s` choices.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0` or `tasks == 0`.
    #[must_use]
    pub fn new(d: u64, tasks: usize, seed: u64) -> Self {
        let stage_len = d.min(((tasks as u64) / 6).max(1));
        Self::with_stage_len(d, tasks, stage_len, seed)
    }

    /// Creates the adversary with an explicit stage length `L` instead of
    /// the paper's `min{d, max(⌊t/6⌋, 1)}` — the knob behind the grid
    /// harness's `lbrand:<stage>` keys. Stage-boundary delivery means
    /// `L ≤ d` is required for the construction to remain a legal
    /// d-adversary.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`, `tasks == 0`, `stage_len == 0`, or
    /// `stage_len > d`.
    #[must_use]
    pub fn with_stage_len(d: u64, tasks: usize, stage_len: u64, seed: u64) -> Self {
        assert!(d >= 1, "message delay bound must be at least 1");
        assert!(tasks >= 1, "need at least one task");
        assert!(stage_len >= 1, "stage length must be at least 1");
        assert!(
            stage_len <= d,
            "stage length {stage_len} exceeds the delay bound {d}"
        );
        Self {
            stage_len,
            rng: StdRng::seed_from_u64(seed),
            defended: BTreeSet::new(),
            frozen: Vec::new(),
            planned_stage: None,
            stages: 0,
        }
    }

    /// The stage length `L = min{d, max(⌊t/6⌋, 1)}`.
    #[must_use]
    pub fn stage_len(&self) -> u64 {
        self.stage_len
    }

    /// Number of stages begun so far.
    #[must_use]
    pub fn stages_planned(&self) -> u64 {
        self.stages
    }

    fn begin_stage(&mut self, view: &SimView<'_>) {
        self.stages += 1;
        self.frozen = vec![false; view.processors];
        self.defended.clear();

        let undone: Vec<usize> = view.undone().collect();
        let us = undone.len();
        if us == 0 {
            return;
        }
        let l = self.stage_len as usize;
        // |J_s| = ⌈u_s/(L+1)⌉, uniformly sampled (Lemma 3.3 existence; all
        // sets equivalent for symmetric algorithms).
        let size = us.div_ceil(l + 1).max(1).min(us);
        // Keep at least one task undefended so the run can always progress;
        // defending everything would stall the simulation rather than
        // charging work (the proof never needs J_s = U_s either).
        let size = size.min(us - 1).max(if us > 1 { 1 } else { 0 });
        if size == 0 {
            return;
        }
        for idx in sample(&mut self.rng, us, size) {
            self.defended.insert(undone[idx]);
        }
    }
}

impl Adversary for RandomizedLbAdversary {
    fn name(&self) -> &str {
        "lower-bound(rand)"
    }

    fn schedule(
        &mut self,
        view: &SimView<'_>,
        procs: &[Box<dyn DoAllProcess>],
        mailboxes: &Mailboxes,
    ) -> Vec<bool> {
        let start = view.now / self.stage_len * self.stage_len;
        if self.planned_stage != Some(start) {
            self.begin_stage(view);
            self.planned_stage = Some(start);
        }
        if !self.defended.is_empty() {
            // Delay-on-touch: peek one step ahead of every running
            // processor; freeze it if it is about to perform a defended
            // task. The clone carries identical state (including RNG), so
            // the peek is an exact prediction of the real step.
            for (pid, proc_) in procs.iter().enumerate() {
                if self.frozen[pid] {
                    continue;
                }
                let inbox = mailboxes.peek_due(pid, view.now);
                let mut clone = proc_.clone_box();
                let outcome = clone.step(&inbox);
                if let Some(task) = outcome.performed {
                    if self.defended.contains(&task.index()) {
                        self.frozen[pid] = true;
                    }
                }
            }
        }
        if self.frozen.iter().all(|&f| f) {
            // Keep progress alive in degenerate tails (see the
            // deterministic adversary for the rationale).
            self.frozen[0] = false;
        }
        self.frozen.iter().map(|&f| !f).collect()
    }

    fn message_delay(&mut self, view: &SimView<'_>, _from: ProcId, _to: ProcId) -> u64 {
        (view.now / self.stage_len + 1) * self.stage_len - view.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doall_core::{BitSet, Message, StepOutcome, TaskId};
    use rand::Rng;

    /// A process that performs uniformly random tasks (a miniature
    /// PaRan2).
    #[derive(Clone)]
    struct RandomPicker {
        pid: ProcId,
        t: usize,
        rng: StdRng,
        done: usize,
    }

    impl DoAllProcess for RandomPicker {
        fn pid(&self) -> ProcId {
            self.pid
        }
        fn step(&mut self, _inbox: &[Message]) -> StepOutcome {
            let z = self.rng.random_range(0..self.t);
            self.done += 1;
            StepOutcome::perform(TaskId::new(z))
        }
        fn knows_all_done(&self) -> bool {
            false
        }
        fn clone_box(&self) -> Box<dyn DoAllProcess> {
            Box::new(self.clone())
        }
    }

    fn pickers(p: usize, t: usize) -> Vec<Box<dyn DoAllProcess>> {
        (0..p)
            .map(|i| {
                Box::new(RandomPicker {
                    pid: ProcId::new(i),
                    t,
                    rng: StdRng::seed_from_u64(i as u64),
                    done: 0,
                }) as Box<dyn DoAllProcess>
            })
            .collect()
    }

    #[test]
    fn freezes_processors_touching_defended_tasks() {
        let t = 60;
        let p = 8;
        let procs = pickers(p, t);
        let mut adv = RandomizedLbAdversary::new(6, t, 42);
        let done = BitSet::new(t);
        let view = SimView {
            now: 0,
            processors: p,
            tasks: t,
            tasks_done: &done,
        };
        let m = Mailboxes::new(p);
        let plan = adv.schedule(&view, &procs, &m);
        // The peek predicts each picker's first draw exactly; with
        // |J_s| = ⌈60/7⌉ = 9 defended of 60 tasks, freezing is possible
        // but not certain — just verify the invariants.
        assert_eq!(plan.len(), p);
        assert!(plan.iter().any(|&b| b), "someone keeps running");
        assert_eq!(adv.stages_planned(), 1);
    }

    #[test]
    fn peek_prediction_is_exact() {
        // A frozen processor must be exactly one that would have performed
        // a defended task: verify by replaying the real step.
        let t = 30;
        let p = 6;
        let mut procs = pickers(p, t);
        let mut adv = RandomizedLbAdversary::new(3, t, 7);
        let done = BitSet::new(t);
        let view = SimView {
            now: 0,
            processors: p,
            tasks: t,
            tasks_done: &done,
        };
        let m = Mailboxes::new(p);
        let plan = adv.schedule(&view, &procs, &m);
        for (pid, &stepping) in plan.iter().enumerate() {
            let outcome = procs[pid].step(&[]);
            let task = outcome.performed.unwrap().index();
            if !stepping {
                assert!(
                    adv.defended.contains(&task),
                    "frozen {pid} would indeed have performed defended task {task}"
                );
            } else {
                assert!(
                    !adv.defended.contains(&task),
                    "running {pid} does not touch the defended set on this step"
                );
            }
        }
    }

    #[test]
    fn defended_set_size_follows_lemma() {
        let t = 120;
        let mut adv = RandomizedLbAdversary::new(5, t, 1); // L = 5
        let done = BitSet::new(t);
        let view = SimView {
            now: 0,
            processors: 4,
            tasks: t,
            tasks_done: &done,
        };
        adv.begin_stage(&view);
        // ⌈120/6⌉ = 20 defended tasks.
        assert_eq!(adv.defended.len(), 20);
    }

    #[test]
    fn boundary_delivery() {
        let t = 600;
        let mut adv = RandomizedLbAdversary::new(10, t, 0);
        let done = BitSet::new(t);
        for now in 0..25u64 {
            let view = SimView {
                now,
                processors: 2,
                tasks: t,
                tasks_done: &done,
            };
            let delay = adv.message_delay(&view, ProcId::new(0), ProcId::new(1));
            assert!((1..=10).contains(&delay));
            assert_eq!((now + delay) % 10, 0);
        }
    }
}
