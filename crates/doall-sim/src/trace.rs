//! Optional structured execution traces.

use doall_core::{ProcId, TaskId};

/// One observable event in a simulated execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// Processor `pid` completed a local step at global time `now`.
    Step {
        /// Global time of the step.
        now: u64,
        /// The stepping processor.
        pid: ProcId,
        /// Task performed during the step, if any.
        performed: Option<TaskId>,
        /// Whether the step submitted a broadcast.
        broadcast: bool,
    },
    /// A broadcast from `from` was fanned out at time `now` (counted as
    /// `recipients` point-to-point messages).
    Send {
        /// Global time of submission.
        now: u64,
        /// The broadcasting processor.
        from: ProcId,
        /// Number of point-to-point messages charged.
        recipients: usize,
    },
    /// σ was reached: all tasks performed and `informed` knows it.
    Completed {
        /// σ — the completion time per Definition 2.1.
        now: u64,
        /// The first processor with complete knowledge.
        informed: ProcId,
    },
}

/// Whether a simulation records its event trace, and how many events
/// it keeps.
///
/// Chosen at build time via `SimulationBuilder::trace`. `Off` is not
/// merely "record nothing": the simulator monomorphizes its inner loop on
/// the recorder, so the trace-free instantiation contains no per-event
/// branches or event construction at all.
#[derive(Debug, Default)]
pub enum TraceMode {
    /// No trace. The default, and the fast path: the inner loop is
    /// compiled without any recording code.
    #[default]
    Off,
    /// Record into a fresh collector retaining at most this many events.
    Buffered(usize),
}

/// The compile-time recording hook the simulation loop is monomorphized
/// over: one instantiation per variant, so `TraceMode::Off` yields an
/// inner loop with no recording code at all (`ENABLED` is a constant the
/// optimizer folds away, together with the event construction feeding
/// `record`).
pub(crate) trait Recorder {
    /// Whether this recorder keeps events — `false` compiles recording
    /// sites out entirely.
    const ENABLED: bool;

    /// Consumes one event.
    fn record(&mut self, event: TraceEvent);
}

/// The `TraceMode::Off` recorder: a no-op the optimizer erases.
pub(crate) struct NoTrace;

impl Recorder for NoTrace {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _event: TraceEvent) {}
}

impl Recorder for Trace {
    const ENABLED: bool = true;

    #[inline]
    fn record(&mut self, event: TraceEvent) {
        Trace::record(self, event);
    }
}

/// A bounded in-memory trace collector.
///
/// Traces are for debugging and the examples; complexity measurements never
/// depend on them. The collector drops events beyond `capacity` (keeping
/// the earliest), recording how many were dropped.
#[derive(Debug, Clone)]
pub struct Trace {
    events: Vec<TraceEvent>,
    capacity: usize,
    dropped: usize,
}

impl Trace {
    /// Creates a collector retaining at most `capacity` events.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            events: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Records an event (or counts it as dropped when full).
    pub fn record(&mut self, event: TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push(event);
        } else {
            self.dropped += 1;
        }
    }

    /// The retained events, in order.
    #[must_use]
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of events that exceeded capacity and were dropped.
    #[must_use]
    pub fn dropped(&self) -> usize {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_until_capacity() {
        let mut t = Trace::with_capacity(2);
        for i in 0..4 {
            t.record(TraceEvent::Send {
                now: i,
                from: ProcId::new(0),
                recipients: 1,
            });
        }
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.dropped(), 2);
        assert!(matches!(t.events()[0], TraceEvent::Send { now: 0, .. }));
    }
}
