//! Crash-failure model: validated per-processor step budgets, the
//! fraction-of-`p` bridge the sweep grid's `crash:<pct>` axis uses, and
//! the engine-side accounting of what crashed processors cost a run.

use std::fmt;

/// Construction-time rejection of an invalid runtime setup.
///
/// Historically these conditions panicked mid-run (or not at all — a
/// crash *fraction* outside `[0, 1]` silently saturated); the builder
/// now refuses them before any thread is spawned.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// No processors: a run needs `p ≥ 1` state machines.
    NoProcessors,
    /// The state-machine list does not match the instance's `p`.
    ProcessCount {
        /// Processors in the instance.
        expected: usize,
        /// State machines supplied.
        got: usize,
    },
    /// A crash fraction outside `[0, 1]` (or NaN).
    CrashFraction(f64),
    /// A nonempty crash-budget list whose length is not `p`.
    CrashBudgetLength {
        /// Processors in the instance.
        expected: usize,
        /// Budget entries supplied.
        got: usize,
    },
    /// Every processor was scheduled to crash.
    AllCrashed,
    /// Both an explicit crash-budget list and a crash fraction were given.
    CrashConflict,
    /// A nonempty pace-override list whose length is not `p`.
    PaceLength {
        /// Processors in the instance.
        expected: usize,
        /// Override entries supplied.
        got: usize,
    },
    /// The operating system refused to start a worker or router thread
    /// (thread or memory limit). The threads already started are stopped
    /// and joined before this is returned.
    Spawn(String),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NoProcessors => write!(f, "runtime needs at least one processor (p = 0)"),
            Self::ProcessCount { expected, got } => write!(
                f,
                "need exactly one state machine per processor (instance has {expected}, got {got})"
            ),
            Self::CrashFraction(x) => {
                write!(f, "crash fraction {x} is outside [0, 1]")
            }
            Self::CrashBudgetLength { expected, got } => write!(
                f,
                "crash budget list must cover every processor (instance has {expected}, got {got})"
            ),
            Self::AllCrashed => write!(f, "at least one processor must survive"),
            Self::CrashConflict => write!(
                f,
                "give either explicit crash budgets or a crash fraction, not both"
            ),
            Self::PaceLength { expected, got } => write!(
                f,
                "pace override list must cover every processor (instance has {expected}, got {got})"
            ),
            Self::Spawn(reason) => write!(f, "could not start a thread: {reason}"),
        }
    }
}

impl std::error::Error for RuntimeError {}

/// A validated per-processor crash schedule: processor `i` stops stepping
/// after `budget(i)` steps (`None` = never). The crash-failure model
/// requires at least one survivor.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrashSchedule(Vec<Option<u64>>);

impl CrashSchedule {
    /// The empty schedule: nobody crashes.
    #[must_use]
    pub fn none() -> Self {
        Self(Vec::new())
    }

    /// Validates an explicit budget list against `p`. An empty list means
    /// "nobody crashes"; a nonempty one must cover every processor and
    /// leave at least one `None`.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::CrashBudgetLength`] on a length mismatch,
    /// [`RuntimeError::AllCrashed`] if no processor survives.
    pub fn from_budgets(budgets: Vec<Option<u64>>, p: usize) -> Result<Self, RuntimeError> {
        if budgets.is_empty() {
            return Ok(Self::none());
        }
        if budgets.len() != p {
            return Err(RuntimeError::CrashBudgetLength {
                expected: p,
                got: budgets.len(),
            });
        }
        if budgets.iter().all(Option::is_some) {
            return Err(RuntimeError::AllCrashed);
        }
        Ok(Self(budgets))
    }

    /// Derives a schedule crashing `round(fraction · p)` processors
    /// (capped at `p − 1`: processor 0 always survives). The crashed
    /// processors are the highest-indexed ones, with staggered budgets
    /// `2, 4, 6, …` so the failures land at distinct points of the run —
    /// the wall-clock analogue of the sweep grid's `crash:<pct>` axis.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::NoProcessors`] if `p == 0`;
    /// [`RuntimeError::CrashFraction`] if `fraction` is NaN or outside
    /// `[0, 1]`.
    pub fn from_fraction(p: usize, fraction: f64) -> Result<Self, RuntimeError> {
        if p == 0 {
            return Err(RuntimeError::NoProcessors);
        }
        if !fraction.is_finite() || !(0.0..=1.0).contains(&fraction) {
            return Err(RuntimeError::CrashFraction(fraction));
        }
        // Round half-up, like the simulator's crash adversary, capped so
        // at least one processor survives.
        #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
        #[allow(clippy::cast_possible_truncation)]
        let count = (((fraction * p as f64) + 0.5).floor() as usize).min(p - 1);
        if count == 0 {
            return Ok(Self::none());
        }
        let mut budgets = vec![None; p];
        for (rank, budget) in budgets.iter_mut().skip(p - count).enumerate() {
            *budget = Some(2 * (rank as u64 + 1));
        }
        Ok(Self(budgets))
    }

    /// Processor `pid`'s step budget (`None` = never crashes).
    #[must_use]
    pub fn budget(&self, pid: usize) -> Option<u64> {
        self.0.get(pid).copied().unwrap_or(None)
    }

    /// Whether any processor is scheduled to crash.
    #[must_use]
    pub fn any(&self) -> bool {
        self.0.iter().any(Option::is_some)
    }
}

/// Engine-side accounting of a threaded run — never part of the
/// `RunReport` (which must describe the algorithm, not the harness).
/// Exposed for tests and diagnostics, mirroring the sweep engine's
/// `run_cells_with_stats` pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RuntimeStats {
    /// Messages drained (and dropped) by crashed workers. A crashed
    /// processor is an infinitely delayed one, so its inbox keeps
    /// receiving; draining it bounds the channel's memory instead of
    /// letting the router grow it for the rest of the run.
    pub crashed_drained: u64,
    /// Largest batch a crashed worker drained in one wake — an upper
    /// bound on how big its inbox ever got after the crash.
    pub max_crashed_backlog: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fraction_zero_crashes_nobody() {
        let s = CrashSchedule::from_fraction(4, 0.0).unwrap();
        assert_eq!(s, CrashSchedule::none());
        assert!(!s.any());
    }

    #[test]
    fn fraction_one_spares_processor_zero() {
        let s = CrashSchedule::from_fraction(4, 1.0).unwrap();
        assert_eq!(s.budget(0), None, "processor 0 always survives");
        for pid in 1..4 {
            assert!(s.budget(pid).is_some(), "pid {pid} should crash");
        }
    }

    #[test]
    fn fraction_rounds_half_up() {
        // 10% of 5 = 0.5 → rounds up to one crash (the old truncating
        // behaviour crashed nobody).
        let s = CrashSchedule::from_fraction(5, 0.10).unwrap();
        assert_eq!((0..5).filter(|&i| s.budget(i).is_some()).count(), 1);
    }

    #[test]
    fn out_of_range_fractions_are_rejected() {
        for bad in [-0.01, 1.01, f64::NAN, f64::INFINITY] {
            let err = CrashSchedule::from_fraction(4, bad).unwrap_err();
            assert!(
                matches!(err, RuntimeError::CrashFraction(_)),
                "{bad} gave {err}"
            );
        }
    }

    #[test]
    fn zero_processors_is_rejected() {
        assert_eq!(
            CrashSchedule::from_fraction(0, 0.5).unwrap_err(),
            RuntimeError::NoProcessors
        );
    }

    #[test]
    fn explicit_budgets_validate_length_and_survivors() {
        assert!(matches!(
            CrashSchedule::from_budgets(vec![None, Some(1)], 3).unwrap_err(),
            RuntimeError::CrashBudgetLength {
                expected: 3,
                got: 2
            }
        ));
        assert_eq!(
            CrashSchedule::from_budgets(vec![Some(1), Some(2)], 2).unwrap_err(),
            RuntimeError::AllCrashed
        );
        let ok = CrashSchedule::from_budgets(vec![None, Some(2)], 2).unwrap();
        assert_eq!(ok.budget(1), Some(2));
        assert!(ok.any());
    }
}
