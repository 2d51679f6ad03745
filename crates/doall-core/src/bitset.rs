//! A fixed-capacity monotone bitset.
//!
//! This is the only data structure processors ever communicate in the
//! algorithms of the paper: DA broadcasts its replicated progress tree
//! (a boolean array), PA algorithms broadcast their set of known-complete
//! tasks. Both are *monotone* — bits only ever go from 0 to 1 — so replicas
//! merge with a bitwise OR and "no issues of consistency arise"
//! (Section 5.1.2).

use core::fmt;

const WORD_BITS: usize = u64::BITS as usize;

/// A fixed-capacity set of bits with union (OR) merging.
///
/// The capacity is fixed at construction; out-of-range accesses panic, which
/// in this workspace always indicates a logic error (task/node indices are
/// validated at instance construction).
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    len: usize,
    words: Vec<u64>,
    /// Cached population count, maintained incrementally so `count()` and
    /// `is_full()` are O(1) — these run on every simulator step.
    ones: usize,
}

impl BitSet {
    /// Creates an empty bitset with capacity for `len` bits.
    #[must_use]
    pub fn new(len: usize) -> Self {
        Self {
            len,
            words: vec![0; len.div_ceil(WORD_BITS)],
            ones: 0,
        }
    }

    /// The capacity (number of addressable bits).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the capacity is zero.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The number of set bits.
    #[must_use]
    pub fn count(&self) -> usize {
        self.ones
    }

    /// Whether every bit is set.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.ones == self.len
    }

    /// Whether bit `i` is set.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    #[must_use]
    pub fn contains(&self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        self.words[i / WORD_BITS] >> (i % WORD_BITS) & 1 == 1
    }

    /// Sets bit `i`, returning `true` if it was previously clear.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len`.
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(
            i < self.len,
            "bit index {i} out of range (len {})",
            self.len
        );
        let word = &mut self.words[i / WORD_BITS];
        let mask = 1u64 << (i % WORD_BITS);
        if *word & mask == 0 {
            *word |= mask;
            self.ones += 1;
            true
        } else {
            false
        }
    }

    /// Merges `other` into `self` by bitwise OR, returning `true` if any new
    /// bit was gained.
    ///
    /// This is the lattice join used when a processor receives a broadcast
    /// replica: knowledge only grows.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        assert_eq!(
            self.len, other.len,
            "cannot union bitsets of different capacities"
        );
        // Word-parallel with a no-news fast path: gossip traffic is highly
        // redundant (most received replicas are subsets of what the
        // receiver already knows), so most words gain nothing. Testing the
        // diff first skips the popcount and the store — and lets the whole
        // word loop run branch-predicted-empty on a subset payload.
        let mut gained = 0usize;
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            let diff = *o & !*w;
            if diff != 0 {
                *w |= diff;
                gained += diff.count_ones() as usize;
            }
        }
        self.ones += gained;
        gained > 0
    }

    /// Removes every bit, keeping the capacity and the allocation, so one
    /// set can be reused without reallocating.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.ones = 0;
    }

    /// Whether `self` contains every bit of `other`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    #[must_use]
    pub fn is_superset(&self, other: &BitSet) -> bool {
        assert_eq!(
            self.len, other.len,
            "cannot compare bitsets of different capacities"
        );
        self.words
            .iter()
            .zip(&other.words)
            .all(|(w, o)| w & o == *o)
    }

    /// Iterator over the indices of set bits, in increasing order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(move |(wi, &w)| {
            let base = wi * WORD_BITS;
            let len = self.len;
            BitIter { word: w, base }.take_while(move |&i| i < len)
        })
    }

    /// Iterator over the indices of clear bits, in increasing order.
    pub fn iter_zeros(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.len).filter(move |&i| !self.contains(i))
    }

    /// The index of the first clear bit, if any.
    #[must_use]
    pub fn first_zero(&self) -> Option<usize> {
        for (wi, &w) in self.words.iter().enumerate() {
            if w != u64::MAX {
                let i = wi * WORD_BITS + (!w).trailing_zeros() as usize;
                if i < self.len {
                    return Some(i);
                }
            }
        }
        None
    }
}

struct BitIter {
    word: u64,
    base: usize,
}

impl Iterator for BitIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let tz = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + tz)
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitSet({}/{}: ", self.ones, self.len)?;
        let mut first = true;
        for i in self.iter_ones().take(16) {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{i}")?;
            first = false;
        }
        if self.ones > 16 {
            write!(f, ",…")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_is_empty() {
        let b = BitSet::new(130);
        assert_eq!(b.len(), 130);
        assert_eq!(b.count(), 0);
        assert!(!b.is_full());
        assert!(!b.contains(0));
        assert!(!b.contains(129));
    }

    #[test]
    fn insert_and_contains() {
        let mut b = BitSet::new(100);
        assert!(b.insert(63));
        assert!(b.insert(64));
        assert!(!b.insert(63), "double insert reports no change");
        assert!(b.contains(63));
        assert!(b.contains(64));
        assert!(!b.contains(65));
        assert_eq!(b.count(), 2);
    }

    #[test]
    fn union_gains_bits() {
        let mut a = BitSet::new(70);
        let mut b = BitSet::new(70);
        a.insert(1);
        b.insert(1);
        b.insert(69);
        assert!(a.union_with(&b));
        assert!(a.contains(69));
        assert_eq!(a.count(), 2);
        assert!(!a.union_with(&b), "idempotent union reports no change");
    }

    #[test]
    fn superset_relation() {
        let mut a = BitSet::new(10);
        let mut b = BitSet::new(10);
        a.insert(3);
        a.insert(7);
        b.insert(3);
        assert!(a.is_superset(&b));
        assert!(!b.is_superset(&a));
        assert!(a.is_superset(&a));
    }

    #[test]
    fn full_detection() {
        let mut b = BitSet::new(3);
        b.insert(0);
        b.insert(1);
        assert!(!b.is_full());
        b.insert(2);
        assert!(b.is_full());
    }

    #[test]
    fn iter_ones_in_order() {
        let mut b = BitSet::new(200);
        for i in [0, 5, 63, 64, 128, 199] {
            b.insert(i);
        }
        let ones: Vec<usize> = b.iter_ones().collect();
        assert_eq!(ones, vec![0, 5, 63, 64, 128, 199]);
    }

    #[test]
    fn iter_zeros_complements_ones() {
        let mut b = BitSet::new(9);
        b.insert(2);
        b.insert(8);
        let zeros: Vec<usize> = b.iter_zeros().collect();
        assert_eq!(zeros, vec![0, 1, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn first_zero_skips_full_words() {
        let mut b = BitSet::new(130);
        for i in 0..64 {
            b.insert(i);
        }
        assert_eq!(b.first_zero(), Some(64));
        for i in 64..130 {
            b.insert(i);
        }
        assert_eq!(b.first_zero(), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn contains_out_of_range_panics() {
        let b = BitSet::new(10);
        let _ = b.contains(10);
    }

    #[test]
    #[should_panic(expected = "different capacities")]
    fn union_capacity_mismatch_panics() {
        let mut a = BitSet::new(10);
        let b = BitSet::new(11);
        a.union_with(&b);
    }

    #[test]
    fn debug_is_nonempty() {
        let mut b = BitSet::new(5);
        b.insert(2);
        let s = format!("{b:?}");
        assert!(s.contains("BitSet"));
        assert!(s.contains('2'));
    }
}
