//! Fisher–Yates shuffles of `[n]` with the per-swap division replaced by
//! a multiply, for building many random permutations of one size.
//!
//! Every permutation of a list over `[n]` draws from the same span
//! sequence `n, n−1, …, 2`. [`ShuffleTable`] precomputes, once per `n`,
//! each span's Granlund–Montgomery reciprocal and the last draw its
//! rejection sampler accepts. A shuffle then consumes exactly the draws
//! `SliceRandom::shuffle` consumes and makes exactly its swaps, so
//! `ShuffleTable::new(n).permutation(rng)` equals
//! `Permutation::random(n, rng)` for every generator state — the
//! vendored `shuffle` is the test oracle.

use crate::Permutation;
use rand::RngCore;

/// One Fisher–Yates step: a draw `v ≤ last` is accepted and reduced to
/// `v mod span`.
#[derive(Debug, Clone, Copy)]
struct Span {
    span: u64,
    /// Granlund–Montgomery multiplier `⌊2⁶⁴·(2ˡ − span)/span⌋ + 1`,
    /// `l = ⌈log₂ span⌉`.
    magic: u64,
    /// `l − 1`.
    shift: u32,
    /// The largest accepted draw: all of them for a power of two, else
    /// one below the rejection zone `u64::MAX − (u64::MAX mod span)`.
    last: u64,
}

impl Span {
    fn new(span: u64) -> Self {
        debug_assert!(span >= 2);
        let l = 64 - (span - 1).leading_zeros();
        let wide = u128::from(span);
        let magic = ((((1u128 << l) - wide) << 64) / wide + 1) as u64;
        let last = if span.is_power_of_two() {
            u64::MAX
        } else {
            u64::MAX - (u64::MAX % span) - 1
        };
        Self {
            span,
            magic,
            shift: l - 1,
            last,
        }
    }

    /// `v mod span`, exact for every `v` (Granlund & Montgomery 1994,
    /// Fig. 4.1).
    fn rem(self, v: u64) -> u64 {
        let t1 = ((u128::from(v) * u128::from(self.magic)) >> 64) as u64;
        let q = (t1 + ((v - t1) >> 1)) >> self.shift;
        v - q * self.span
    }
}

/// The spans `2..=n` of a Fisher–Yates shuffle of `[n]`, with their
/// reciprocals and rejection thresholds precomputed.
#[derive(Debug, Clone)]
pub(crate) struct ShuffleTable {
    n: usize,
    /// `spans[k]` is span `k + 2`.
    spans: Vec<Span>,
}

impl ShuffleTable {
    /// The table for permutations of `[n]`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `n > 2³²` (images are `u32`).
    pub(crate) fn new(n: usize) -> Self {
        assert!(n > 0, "permutations must be nonempty");
        assert!(
            n as u64 <= 1 << 32,
            "permutations are over at most 2^32 elements"
        );
        Self {
            n,
            spans: (2..=n as u64).map(Span::new).collect(),
        }
    }

    /// A uniformly random permutation of `[n]`, identical to
    /// `Permutation::random(n, rng)` draw for draw.
    pub(crate) fn permutation<R: RngCore + ?Sized>(&self, rng: &mut R) -> Permutation {
        let mut image: Vec<u32> = (0..self.n as u32).collect();
        for (i, step) in self.spans.iter().enumerate().rev() {
            let mut v = rng.next_u64();
            while v > step.last {
                v = rng.next_u64();
            }
            image.swap(i + 1, step.rem(v) as usize);
        }
        Permutation::from_shuffled(image)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn rem_is_exact_at_the_edges() {
        let spans = (2u64..=300).chain([1 << 20, (1 << 20) + 1, u64::from(u32::MAX), 1 << 32]);
        for span in spans {
            let s = Span::new(span);
            for v in [
                0,
                1,
                span - 1,
                span,
                span + 1,
                u64::MAX - span,
                u64::MAX - 1,
                u64::MAX,
            ] {
                assert_eq!(s.rem(v), v % span, "{v} mod {span}");
            }
        }
    }

    #[test]
    fn last_accepted_draw_matches_the_rejection_zone() {
        for span in [2u64, 3, 5, 6, 7, 64, 100, 4095, 4096, 4097] {
            let s = Span::new(span);
            if span.is_power_of_two() {
                assert_eq!(s.last, u64::MAX);
            } else {
                assert_eq!(s.last + 1, u64::MAX - (u64::MAX % span));
            }
        }
    }

    /// Replays a fixed script of draws, counting how many were consumed.
    struct Scripted {
        draws: Vec<u64>,
        used: usize,
    }

    impl RngCore for Scripted {
        fn next_u64(&mut self) -> u64 {
            let v = self.draws[self.used % self.draws.len()];
            self.used += 1;
            v
        }
    }

    #[test]
    fn top_band_draws_are_rejected_like_the_oracle() {
        // Seeded generators practically never draw from the top `span`
        // values, where acceptance depends on the exact rejection zone.
        let mut draws: Vec<u64> = (0..8).map(|k| u64::MAX - k).collect();
        draws.push(987_654_321);
        for n in 1..=40 {
            let mut table_rng = Scripted {
                draws: draws.clone(),
                used: 0,
            };
            let mut oracle_rng = Scripted {
                draws: draws.clone(),
                used: 0,
            };
            assert_eq!(
                ShuffleTable::new(n).permutation(&mut table_rng),
                Permutation::random(n, &mut oracle_rng),
                "n = {n}"
            );
            assert_eq!(table_rng.used, oracle_rng.used, "n = {n}: draws consumed");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The table shuffle is the vendored `SliceRandom::shuffle`, draw
        /// for draw, over the whole range of list lengths PaDet uses at
        /// p = t = 4096.
        #[test]
        fn table_shuffle_equals_slice_shuffle(n in 1usize..=4096, seed in any::<u64>()) {
            let table = ShuffleTable::new(n);
            let mut a = StdRng::seed_from_u64(seed);
            let mut b = StdRng::seed_from_u64(seed);
            prop_assert_eq!(table.permutation(&mut a), Permutation::random(n, &mut b));
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }

        #[test]
        fn rem_is_exact(span in 2u64..=(1 << 32), v in any::<u64>()) {
            prop_assert_eq!(Span::new(span).rem(v), v % span);
        }
    }
}
