//! In-flight message storage with adversary-assigned delivery times.
//!
//! Two delivery engines live here. [`Mailboxes`] materializes one
//! in-flight message per recipient — the exact model, required whenever
//! the adversary assigns per-recipient delays or inspects pending
//! messages. [`BroadcastBus`] stores each full broadcast **once** and
//! coalesces broadcasts that share a delivery instant into a single
//! union payload — the engine behind
//! [`Delivery::UniformBroadcast`](crate::adversary::Delivery), turning
//! the per-tick delivery cost from `O(p²)` envelopes into `O(p)` cursor
//! advances. Payload coalescing is sound because payloads are monotone
//! bitmaps merged by union (the paper's Section 5.1.2 observation; see
//! the [`doall_core::DoAllProcess`] inbox contract).

use doall_core::{BitSet, Message, ProcId};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Per-processor mailboxes of in-flight messages, keyed by delivery time.
///
/// A message sent at global time `τ` with adversary-assigned delay `δ ≥ 1`
/// is *deliverable* from time `τ + δ` on: it enters the recipient's inbox at
/// the recipient's first completed step at a time `≥ τ + δ` (the paper:
/// "the receiver can process any such message later, according to its own
/// local clock"). Channels are reliable — nothing is lost or corrupted —
/// and this structure preserves per-sender FIFO order within a delivery
/// instant.
#[derive(Debug, Default)]
pub struct Mailboxes {
    boxes: Vec<BTreeMap<u64, Vec<Message>>>,
    /// Emptied per-instant vectors recycled between `drain_due_into` and
    /// `push`, so a steady message flow stops allocating once warm.
    spare: Vec<Vec<Message>>,
}

impl Mailboxes {
    /// Creates empty mailboxes for `p` processors.
    #[must_use]
    pub fn new(processors: usize) -> Self {
        Self {
            boxes: (0..processors).map(|_| BTreeMap::new()).collect(),
            spare: Vec::new(),
        }
    }

    /// Number of processors.
    #[must_use]
    pub fn processors(&self) -> usize {
        self.boxes.len()
    }

    /// Enqueues `msg` for processor `to`, deliverable at `deliver_at`.
    ///
    /// # Panics
    ///
    /// Panics if `to` is out of range.
    pub fn push(&mut self, to: usize, deliver_at: u64, msg: Message) {
        self.boxes[to]
            .entry(deliver_at)
            .or_insert_with(|| self.spare.pop().unwrap_or_default())
            .push(msg);
    }

    /// Removes and returns every message deliverable to `pid` at time
    /// `now` (delivery time `≤ now`), oldest delivery time first.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range.
    pub fn drain_due(&mut self, pid: usize, now: u64) -> Vec<Message> {
        let mut out = Vec::new();
        self.drain_due_into(pid, now, &mut out);
        out
    }

    /// Appends every message deliverable to `pid` at time `now` (delivery
    /// time `≤ now`) to `out`, oldest delivery time first, removing them
    /// from the mailbox. The allocation-free variant of
    /// [`drain_due`](Self::drain_due): the hot loop hands in one recycled
    /// scratch vector, and the emptied per-instant vectors are kept for
    /// reuse by [`push`](Self::push).
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range.
    pub fn drain_due_into(&mut self, pid: usize, now: u64, out: &mut Vec<Message>) {
        let mbox = &mut self.boxes[pid];
        while let Some(entry) = mbox.first_entry() {
            if *entry.key() > now {
                break;
            }
            let mut v = entry.remove();
            out.append(&mut v);
            self.spare.push(v);
        }
    }

    /// Copies (without removing) every message deliverable to `pid` at
    /// `now` — used by adversaries that peek at what a processor is about
    /// to receive.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range.
    #[must_use]
    pub fn peek_due(&self, pid: usize, now: u64) -> Vec<Message> {
        self.boxes[pid]
            .range(..=now)
            .flat_map(|(_, v)| v.iter().cloned())
            .collect()
    }

    /// Number of messages deliverable to `pid` at `now`.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range.
    #[must_use]
    pub fn due_count(&self, pid: usize, now: u64) -> usize {
        self.boxes[pid].range(..=now).map(|(_, v)| v.len()).sum()
    }

    /// Total number of in-flight messages (any delivery time).
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.boxes
            .iter()
            .map(|b| b.values().map(Vec::len).sum::<usize>())
            .sum()
    }
}

/// The zero-copy delivery engine for uniform-delay broadcasts.
///
/// Each full (everyone-but-the-sender) broadcast is stored **once**,
/// keyed by its delivery instant; broadcasts sharing an instant are
/// coalesced into one union payload at submission time. Every processor
/// keeps a cursor of the last instant it consumed, so delivering to a
/// stepping processor is a range walk handing out `Arc` clones of the
/// sealed group payloads — no per-recipient materialization ever happens.
///
/// Soundness: payloads are monotone bitmaps merged by union, so a
/// processor receiving the union of several concurrent broadcasts (even
/// one including its own payload reflected back, which unions to
/// nothing) reaches exactly the state it would have reached receiving
/// them individually — the inbox contract of
/// [`doall_core::DoAllProcess`]. The simulator only routes broadcasts
/// here when the adversary declares
/// [`Delivery::UniformBroadcast`](crate::adversary::Delivery); multicasts
/// and per-recipient-delay traffic stay in [`Mailboxes`].
///
/// A group is frozen once its delivery instant is reached (delays are
/// `≥ 1`, so nothing sent at time `τ` can join a group deliverable at
/// `τ`), which is what makes handing out shared references sound.
#[derive(Debug, Default)]
pub struct BroadcastBus {
    groups: BTreeMap<u64, BusGroup>,
    /// Per processor: the earliest delivery instant not yet consumed.
    cursors: Vec<u64>,
}

#[derive(Debug)]
struct BusGroup {
    /// Sender stamped on the delivered envelope: the first processor
    /// that broadcast into this instant (deterministic — submission
    /// order is the pid-ordered step loop).
    from: ProcId,
    payload: BusPayload,
}

#[derive(Debug)]
enum BusPayload {
    /// The single payload of a one-broadcast group (shared, never
    /// copied), or a coalesced union already handed out.
    Sealed(Arc<BitSet>),
    /// A union still accumulating concurrent broadcasts.
    Building(BitSet),
}

impl BroadcastBus {
    /// Creates an empty bus for `processors` processors.
    #[must_use]
    pub fn new(processors: usize) -> Self {
        Self {
            groups: BTreeMap::new(),
            cursors: vec![0; processors],
        }
    }

    /// Empties the bus for `processors` processors, reusing allocations.
    pub fn reset(&mut self, processors: usize) {
        self.groups.clear();
        self.cursors.clear();
        self.cursors.resize(processors, 0);
    }

    /// Submits a broadcast from `from` deliverable at `deliver_at`. The
    /// first broadcast of an instant is stored as-is (one refcount bump);
    /// later ones are unioned into a coalesced payload.
    ///
    /// # Panics
    ///
    /// Panics if payload capacities differ within one instant (all
    /// payloads of a run share one bit universe by construction).
    pub fn push(&mut self, from: ProcId, deliver_at: u64, bits: &Arc<BitSet>) {
        match self.groups.entry(deliver_at) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(BusGroup {
                    from,
                    payload: BusPayload::Sealed(Arc::clone(bits)),
                });
            }
            std::collections::btree_map::Entry::Occupied(mut e) => {
                let payload = &mut e.get_mut().payload;
                match payload {
                    BusPayload::Sealed(first) => {
                        let mut union = (**first).clone();
                        union.union_with(bits);
                        *payload = BusPayload::Building(union);
                    }
                    BusPayload::Building(union) => {
                        union.union_with(bits);
                    }
                }
            }
        }
    }

    /// Appends to `out` one envelope per unconsumed group deliverable to
    /// `pid` at time `now`, oldest instant first, and advances `pid`'s
    /// cursor. Each envelope shares the group's payload allocation.
    ///
    /// # Panics
    ///
    /// Panics if `pid` is out of range.
    pub fn deliver_into(&mut self, pid: usize, now: u64, out: &mut Vec<Message>) {
        let cursor = self.cursors[pid];
        if cursor > now {
            return;
        }
        for (_, group) in self.groups.range_mut(cursor..=now) {
            let sealed = match &mut group.payload {
                BusPayload::Sealed(a) => a,
                BusPayload::Building(union) => {
                    group.payload =
                        BusPayload::Sealed(Arc::new(std::mem::replace(union, BitSet::new(0))));
                    match &mut group.payload {
                        BusPayload::Sealed(a) => a,
                        // lint:allow(H001) — invariant: Sealed was assigned on the previous line
                        BusPayload::Building(_) => unreachable!("just sealed"),
                    }
                }
            };
            out.push(Message::new(group.from, Arc::clone(sealed)));
        }
        self.cursors[pid] = now + 1;
    }

    /// Number of broadcast groups still stored (all instants).
    #[must_use]
    pub fn groups(&self) -> usize {
        self.groups.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(from: usize) -> Message {
        Message::new(ProcId::new(from), BitSet::new(4))
    }

    #[test]
    fn drain_respects_delivery_time() {
        let mut m = Mailboxes::new(2);
        m.push(0, 5, msg(1));
        m.push(0, 7, msg(1));
        assert!(m.drain_due(0, 4).is_empty());
        assert_eq!(m.drain_due(0, 5).len(), 1);
        assert!(m.drain_due(0, 6).is_empty(), "already drained");
        assert_eq!(m.drain_due(0, 10).len(), 1);
    }

    #[test]
    fn drain_is_per_processor() {
        let mut m = Mailboxes::new(3);
        m.push(1, 1, msg(0));
        m.push(2, 1, msg(0));
        assert!(m.drain_due(0, 5).is_empty());
        assert_eq!(m.drain_due(1, 5).len(), 1);
        assert_eq!(m.drain_due(2, 5).len(), 1);
    }

    #[test]
    fn drain_returns_oldest_first() {
        let mut m = Mailboxes::new(1);
        m.push(0, 9, msg(2));
        m.push(0, 3, msg(1));
        m.push(0, 3, msg(3));
        let got = m.drain_due(0, 10);
        assert_eq!(got.len(), 3);
        assert_eq!(got[0].from(), ProcId::new(1));
        assert_eq!(got[1].from(), ProcId::new(3));
        assert_eq!(got[2].from(), ProcId::new(2));
    }

    #[test]
    fn peek_does_not_remove() {
        let mut m = Mailboxes::new(1);
        m.push(0, 2, msg(0));
        assert_eq!(m.peek_due(0, 3).len(), 1);
        assert_eq!(m.due_count(0, 3), 1);
        assert_eq!(m.peek_due(0, 1).len(), 0);
        assert_eq!(m.drain_due(0, 3).len(), 1, "peek left it in place");
    }

    #[test]
    fn in_flight_counts_everything() {
        let mut m = Mailboxes::new(2);
        m.push(0, 1, msg(1));
        m.push(1, 100, msg(0));
        assert_eq!(m.in_flight(), 2);
        m.drain_due(0, 1);
        assert_eq!(m.in_flight(), 1);
    }

    fn payload(bit: usize) -> Arc<BitSet> {
        let mut b = BitSet::new(8);
        b.insert(bit);
        Arc::new(b)
    }

    #[test]
    fn bus_single_broadcast_shares_payload() {
        let mut bus = BroadcastBus::new(3);
        let p = payload(1);
        bus.push(ProcId::new(0), 5, &p);
        let mut out = Vec::new();
        bus.deliver_into(1, 4, &mut out);
        assert!(out.is_empty(), "not due yet");
        bus.deliver_into(1, 5, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].from(), ProcId::new(0));
        assert!(
            Arc::ptr_eq(out[0].shared_bits(), &p),
            "one-broadcast groups are delivered without any copy"
        );
    }

    #[test]
    fn bus_coalesces_same_instant_by_union() {
        let mut bus = BroadcastBus::new(3);
        bus.push(ProcId::new(0), 4, &payload(0));
        bus.push(ProcId::new(2), 4, &payload(7));
        let mut out = Vec::new();
        bus.deliver_into(1, 4, &mut out);
        assert_eq!(out.len(), 1, "one envelope per instant");
        assert_eq!(out[0].from(), ProcId::new(0), "first sender stamps it");
        assert!(out[0].bits().contains(0) && out[0].bits().contains(7));
    }

    #[test]
    fn bus_cursor_never_redelivers() {
        let mut bus = BroadcastBus::new(2);
        bus.push(ProcId::new(0), 1, &payload(0));
        bus.push(ProcId::new(0), 3, &payload(1));
        let mut out = Vec::new();
        bus.deliver_into(1, 2, &mut out);
        assert_eq!(out.len(), 1);
        bus.deliver_into(1, 2, &mut out);
        assert_eq!(out.len(), 1, "instant 1 consumed, instant 3 not due");
        bus.deliver_into(1, 10, &mut out);
        assert_eq!(out.len(), 2);
        // A processor that skipped ticks still gets everything once.
        let mut late = Vec::new();
        bus.deliver_into(0, 10, &mut late);
        assert_eq!(late.len(), 2);
    }

    #[test]
    fn bus_reset_clears_groups_and_cursors() {
        let mut bus = BroadcastBus::new(2);
        bus.push(ProcId::new(0), 1, &payload(0));
        let mut out = Vec::new();
        bus.deliver_into(1, 5, &mut out);
        bus.reset(2);
        assert_eq!(bus.groups(), 0);
        bus.push(ProcId::new(1), 1, &payload(2));
        out.clear();
        // Cursor was rewound by reset: instant 1 is deliverable again.
        bus.deliver_into(1, 1, &mut out);
        assert_eq!(out.len(), 1);
    }
}
