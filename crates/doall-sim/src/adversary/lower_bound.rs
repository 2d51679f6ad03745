//! The Theorem 3.1 adversary: forces any *deterministic* Do-All algorithm
//! to perform work `Ω(t + p·min{d, t}·log_{d+1}(d + t))`.
//!
//! Construction (following the proof):
//!
//! * Computation is partitioned into *stages* of
//!   `L = min{d, max(⌊t/6⌋, 1)}` time units. Every message submitted
//!   during a stage is delivered exactly at the stage's end, so no
//!   information crosses a stage boundary inward — legal for a
//!   d-adversary because `L ≤ d`.
//! * At the start of stage `s`, with `U_s` the still-unperformed tasks
//!   (`u_s = |U_s|`), the adversary *dry-runs* every processor for `L`
//!   steps (cloning its state machine and feeding it the messages that are
//!   due at the boundary, then nothing — exactly what the real stage will
//!   look like for an undelayed processor). The tasks of `U_s` the clone
//!   performs form the set `J_s(i)`.
//! * By the pigeonhole claim in the proof, at least `u_s/(3L)` tasks lie in
//!   at most `2pL/u_s` of the sets `J_s(i)`. The adversary picks such a
//!   low-coverage set `J_s` and freezes (delays for the whole stage) every
//!   processor whose `J_s(i)` meets `J_s`; at least `p/3` processors keep
//!   running, yet all of `J_s` stays unperformed — so at least
//!   `u_s/(3L)` tasks survive into stage `s + 1` while `Ω(p·L)` work is
//!   expended.
//!
//! The dry-run prediction is exact for deterministic algorithms (the
//! clone's trajectory equals the real one because frozen-out messages
//! cannot arrive mid-stage). For randomized algorithms use
//! [`super::RandomizedLbAdversary`].

use super::Adversary;
use crate::{Mailboxes, SimView};
use doall_core::{DoAllProcess, ProcId};

/// Adaptive lower-bound adversary for deterministic algorithms
/// (Theorem 3.1).
#[derive(Debug)]
pub struct LowerBoundAdversary {
    d: u64,
    stage_len: u64,
    /// Current stage's frozen set (`true` = delayed for the whole stage).
    frozen: Vec<bool>,
    /// First tick of the stage currently planned, or `None` before the
    /// first call.
    planned_stage: Option<u64>,
    /// Number of stages the adversary has constructed (for reporting).
    stages: u64,
}

impl LowerBoundAdversary {
    /// Creates the adversary for delay bound `d ≥ 1` and instance size
    /// `tasks`.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0` or `tasks == 0`.
    #[must_use]
    pub fn new(d: u64, tasks: usize) -> Self {
        let stage_len = d.min(((tasks as u64) / 6).max(1));
        Self::with_stage_len(d, tasks, stage_len)
    }

    /// Creates the adversary with an explicit stage length `L` instead of
    /// the paper's `min{d, max(⌊t/6⌋, 1)}` — the knob behind the grid
    /// harness's `lb:<stage>` keys. Messages submitted during a stage are
    /// delivered at its end, so `L ≤ d` is required for the construction
    /// to remain a legal d-adversary.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`, `tasks == 0`, `stage_len == 0`, or
    /// `stage_len > d`.
    #[must_use]
    pub fn with_stage_len(d: u64, tasks: usize, stage_len: u64) -> Self {
        assert!(d >= 1, "message delay bound must be at least 1");
        assert!(tasks >= 1, "need at least one task");
        assert!(stage_len >= 1, "stage length must be at least 1");
        assert!(
            stage_len <= d,
            "stage length {stage_len} exceeds the delay bound {d}"
        );
        Self {
            d,
            stage_len,
            frozen: Vec::new(),
            planned_stage: None,
            stages: 0,
        }
    }

    /// The delay bound `d` this adversary was constructed with.
    #[must_use]
    pub fn d(&self) -> u64 {
        self.d
    }

    /// The stage length `L = min{d, max(⌊t/6⌋, 1)}`.
    #[must_use]
    pub fn stage_len(&self) -> u64 {
        self.stage_len
    }

    /// Number of stages planned so far.
    #[must_use]
    pub fn stages_planned(&self) -> u64 {
        self.stages
    }

    fn stage_start(&self, now: u64) -> u64 {
        now / self.stage_len * self.stage_len
    }

    /// Builds the stage plan: dry-run every processor, pick `J_s`, freeze
    /// the processors that would touch it.
    fn plan_stage(
        &mut self,
        view: &SimView<'_>,
        procs: &[Box<dyn DoAllProcess>],
        mailboxes: &Mailboxes,
    ) {
        let p = view.processors;
        self.stages += 1;
        self.frozen = vec![false; p];

        let undone: Vec<usize> = view.undone().collect();
        let us = undone.len();
        if us == 0 {
            return; // completion is imminent; nothing to defend
        }
        let l = self.stage_len as usize;

        // Dry-run each processor for L steps: boundary inbox first, then
        // silence (exactly the real stage for an unfrozen processor).
        let mut sets: Vec<Vec<usize>> = Vec::with_capacity(p);
        let mut counts: Vec<u32> = vec![0; view.tasks];
        for (pid, proc_) in procs.iter().enumerate() {
            let mut clone = proc_.clone_box();
            let mut performed: Vec<usize> = Vec::new();
            let mut inbox = mailboxes.peek_due(pid, view.now);
            for _ in 0..l {
                let outcome = clone.step(&inbox);
                inbox.clear();
                if let Some(task) = outcome.performed {
                    let z = task.index();
                    if !view.tasks_done.contains(z) {
                        performed.push(z);
                    }
                }
                if clone.knows_all_done() {
                    break;
                }
            }
            performed.sort_unstable();
            performed.dedup();
            for &z in &performed {
                counts[z] += 1;
            }
            sets.push(performed);
        }

        // J_s: up to ⌈u_s/(3L)⌉ unperformed tasks with coverage
        // ≤ 2pL/u_s (the pigeonhole claim guarantees enough exist).
        let threshold = 2.0 * p as f64 * l as f64 / us as f64;
        let target = us.div_ceil(3 * l).max(1);
        let mut js: Vec<usize> = undone
            .iter()
            .copied()
            .filter(|&z| f64::from(counts[z]) <= threshold)
            .take(target)
            .collect();
        if js.is_empty() {
            // Degenerate tail (e.g. every remaining task is covered by
            // everyone): defend the single least-covered task.
            if let Some(&z) = undone.iter().min_by_key(|&&z| counts[z]) {
                js.push(z);
            }
        }
        let js_mask: std::collections::BTreeSet<usize> = js.into_iter().collect();

        for (pid, set) in sets.iter().enumerate() {
            if set.iter().any(|z| js_mask.contains(z)) {
                self.frozen[pid] = true;
            }
        }
        // The claim guarantees |P_s| ≥ p/3 in the regime of the proof; in
        // degenerate tails everyone might touch J_s, and freezing everyone
        // would stall the run without adding to the bound. Keep at least
        // one processor running — necessarily one that will perform J_s
        // tasks, ending the game, which is the right outcome at the tail.
        if self.frozen.iter().all(|&f| f) {
            self.frozen[0] = false;
        }
    }
}

impl Adversary for LowerBoundAdversary {
    fn name(&self) -> &str {
        "lower-bound(det)"
    }

    fn schedule(
        &mut self,
        view: &SimView<'_>,
        procs: &[Box<dyn DoAllProcess>],
        mailboxes: &Mailboxes,
    ) -> Vec<bool> {
        let start = self.stage_start(view.now);
        if self.planned_stage != Some(start) {
            self.plan_stage(view, procs, mailboxes);
            self.planned_stage = Some(start);
        }
        self.frozen.iter().map(|&f| !f).collect()
    }

    fn message_delay(&mut self, view: &SimView<'_>, _from: ProcId, _to: ProcId) -> u64 {
        // Deliver exactly at the next stage boundary: delay ≤ L ≤ d.
        (view.now / self.stage_len + 1) * self.stage_len - view.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doall_core::{BitSet, Message, StepOutcome, TaskId};

    /// A trivial deterministic process that sweeps tasks in index order.
    #[derive(Clone)]
    struct Sweep {
        pid: ProcId,
        next: usize,
        t: usize,
    }

    impl DoAllProcess for Sweep {
        fn pid(&self) -> ProcId {
            self.pid
        }
        fn step(&mut self, _inbox: &[Message]) -> StepOutcome {
            if self.next < self.t {
                let task = TaskId::new(self.next);
                self.next += 1;
                StepOutcome::perform(task)
            } else {
                StepOutcome::internal()
            }
        }
        fn knows_all_done(&self) -> bool {
            self.next >= self.t
        }
        fn clone_box(&self) -> Box<dyn DoAllProcess> {
            Box::new(self.clone())
        }
    }

    fn sweeps(p: usize, t: usize) -> Vec<Box<dyn DoAllProcess>> {
        (0..p)
            .map(|i| {
                Box::new(Sweep {
                    pid: ProcId::new(i),
                    next: 0,
                    t,
                }) as Box<dyn DoAllProcess>
            })
            .collect()
    }

    #[test]
    fn stage_len_is_min_of_d_and_t_over_6() {
        assert_eq!(LowerBoundAdversary::new(4, 60).stage_len(), 4);
        assert_eq!(LowerBoundAdversary::new(100, 60).stage_len(), 10);
        assert_eq!(LowerBoundAdversary::new(3, 2).stage_len(), 1);
    }

    #[test]
    fn freezes_identical_processors_but_keeps_one() {
        // All processors sweep identically, so every J_s(i) is the same;
        // everyone touches J_s and the keep-one fallback must fire.
        let mut adv = LowerBoundAdversary::new(2, 30);
        let procs = sweeps(4, 30);
        let done = BitSet::new(30);
        let view = SimView {
            now: 0,
            processors: 4,
            tasks: 30,
            tasks_done: &done,
        };
        let m = Mailboxes::new(4);
        let plan = adv.schedule(&view, &procs, &m);
        assert!(plan.iter().any(|&b| b), "progress is preserved");
        assert_eq!(adv.stages_planned(), 1);
    }

    #[test]
    fn replans_only_at_stage_boundaries() {
        let mut adv = LowerBoundAdversary::new(5, 60); // L = 5
        let procs = sweeps(3, 60);
        let done = BitSet::new(60);
        let m = Mailboxes::new(3);
        for now in 0..5 {
            let view = SimView {
                now,
                processors: 3,
                tasks: 60,
                tasks_done: &done,
            };
            adv.schedule(&view, &procs, &m);
        }
        assert_eq!(adv.stages_planned(), 1, "one plan for ticks 0..5");
        let view = SimView {
            now: 5,
            processors: 3,
            tasks: 60,
            tasks_done: &done,
        };
        adv.schedule(&view, &procs, &m);
        assert_eq!(adv.stages_planned(), 2);
    }

    #[test]
    fn delays_deliver_at_stage_boundary() {
        let mut adv = LowerBoundAdversary::new(4, 240); // L = 4
        let done = BitSet::new(240);
        for now in 0..12u64 {
            let view = SimView {
                now,
                processors: 2,
                tasks: 240,
                tasks_done: &done,
            };
            let delay = adv.message_delay(&view, ProcId::new(0), ProcId::new(1));
            assert!((1..=4).contains(&delay));
            assert_eq!((now + delay) % 4, 0, "lands on a boundary");
        }
    }

    #[test]
    fn diverse_processors_leave_majority_running() {
        // Processors sweeping from different offsets have disjoint J_s(i);
        // the adversary should freeze only a minority.
        #[derive(Clone)]
        struct OffsetSweep {
            pid: ProcId,
            next: usize,
            t: usize,
        }
        impl DoAllProcess for OffsetSweep {
            fn pid(&self) -> ProcId {
                self.pid
            }
            fn step(&mut self, _inbox: &[Message]) -> StepOutcome {
                let task = TaskId::new(self.next % self.t);
                self.next += 1;
                StepOutcome::perform(task)
            }
            fn knows_all_done(&self) -> bool {
                false
            }
            fn clone_box(&self) -> Box<dyn DoAllProcess> {
                Box::new(self.clone())
            }
        }
        let t = 120;
        let p = 6;
        let procs: Vec<Box<dyn DoAllProcess>> = (0..p)
            .map(|i| {
                Box::new(OffsetSweep {
                    pid: ProcId::new(i),
                    next: i * 20,
                    t,
                }) as Box<dyn DoAllProcess>
            })
            .collect();
        let mut adv = LowerBoundAdversary::new(4, t);
        let done = BitSet::new(t);
        let view = SimView {
            now: 0,
            processors: p,
            tasks: t,
            tasks_done: &done,
        };
        let plan = adv.schedule(&view, &procs, &Mailboxes::new(p));
        let running = plan.iter().filter(|&&b| b).count();
        assert!(
            running * 3 >= p,
            "at least p/3 processors keep running (got {running}/{p})"
        );
    }
}
