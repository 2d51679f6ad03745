//! The [`Permutation`] type: elements of the symmetric group `S_n`.

use core::fmt;
use rand::seq::SliceRandom;
use rand::Rng;

/// Error constructing a permutation from raw data.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PermError {
    /// The image vector was not a bijection on `0..n`.
    NotABijection,
    /// The permutation would be empty.
    Empty,
}

impl fmt::Display for PermError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NotABijection => write!(f, "image vector is not a bijection on 0..n"),
            Self::Empty => write!(f, "permutations must have at least one element"),
        }
    }
}

impl std::error::Error for PermError {}

/// A permutation `π ∈ S_n`, stored as its image vector:
/// `π.apply(i) = image[i]`.
///
/// The paper writes permutations one-based as `⟨π(1), …, π(n)⟩`; we are
/// zero-based throughout.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Permutation {
    image: Vec<u32>,
}

impl Permutation {
    /// The identity permutation `ι_n`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn identity(n: usize) -> Self {
        assert!(n > 0, "permutations must be nonempty");
        Self {
            image: (0..n as u32).collect(),
        }
    }

    /// The reversal `⟨n−1, n−2, …, 0⟩` — the unique schedule with a single
    /// left-to-right maximum (the Section 4 motivation: a reversed schedule
    /// minimizes redundant work between two processors).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn reversal(n: usize) -> Self {
        assert!(n > 0, "permutations must be nonempty");
        Self {
            image: (0..n as u32).rev().collect(),
        }
    }

    /// Builds a permutation from its image vector.
    ///
    /// # Errors
    ///
    /// Returns [`PermError::Empty`] for an empty vector and
    /// [`PermError::NotABijection`] if `image` is not a bijection on `0..n`.
    pub fn from_image(image: Vec<u32>) -> Result<Self, PermError> {
        if image.is_empty() {
            return Err(PermError::Empty);
        }
        let n = image.len();
        let mut seen = vec![false; n];
        for &v in &image {
            let v = v as usize;
            if v >= n || seen[v] {
                return Err(PermError::NotABijection);
            }
            seen[v] = true;
        }
        Ok(Self { image })
    }

    /// A uniformly random permutation (Fisher–Yates).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn random<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Self {
        assert!(n > 0, "permutations must be nonempty");
        let mut image: Vec<u32> = (0..n as u32).collect();
        image.shuffle(rng);
        Self { image }
    }

    /// Wraps an image vector a shuffle of `0..n` produced, which is a
    /// bijection by construction.
    pub(crate) fn from_shuffled(image: Vec<u32>) -> Self {
        debug_assert!(Self::from_image(image.clone()).is_ok());
        Self { image }
    }

    /// The size `n` of the underlying set.
    #[must_use]
    pub fn n(&self) -> usize {
        self.image.len()
    }

    /// Applies the permutation: `π(i)`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    #[must_use]
    pub fn apply(&self, i: usize) -> usize {
        self.image[i] as usize
    }

    /// The image vector as a slice.
    #[must_use]
    pub fn as_slice(&self) -> &[u32] {
        &self.image
    }

    /// Function composition `self ∘ other`: first apply `other`, then
    /// `self`, i.e. `(self ∘ other)(i) = self(other(i))`.
    ///
    /// # Panics
    ///
    /// Panics if the sizes differ.
    #[must_use]
    pub fn compose(&self, other: &Permutation) -> Permutation {
        assert_eq!(self.n(), other.n(), "composition requires equal sizes");
        Permutation {
            image: other
                .image
                .iter()
                .map(|&i| self.image[i as usize])
                .collect(),
        }
    }

    /// The inverse permutation `π⁻¹`.
    #[must_use]
    pub fn inverse(&self) -> Permutation {
        let mut inv = vec![0u32; self.n()];
        for (i, &v) in self.image.iter().enumerate() {
            inv[v as usize] = i as u32;
        }
        Permutation { image: inv }
    }

    /// Swaps the images at positions `i` and `j` (a local-search move used
    /// by the contention hill-climber).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn swap_positions(&mut self, i: usize, j: usize) {
        self.image.swap(i, j);
    }

    /// Iterator over all `n!` permutations of `[n]` in lexicographic order
    /// of image vectors.
    ///
    /// Intended for small `n` (`n ≤ 8` stays under 41k permutations): the
    /// exhaustive list search and brute-force test oracles. The iterator is
    /// lazy so callers may also take prefixes.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[must_use]
    pub fn all(n: usize) -> Permutations {
        assert!(n > 0, "permutations must be nonempty");
        Permutations {
            next: Some(Permutation::identity(n)),
        }
    }
}

impl fmt::Debug for Permutation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨")?;
        for (k, v) in self.image.iter().enumerate() {
            if k > 0 {
                write!(f, " ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "⟩")
    }
}

/// Lazy iterator over `S_n` in lexicographic order (see
/// [`Permutation::all`]).
#[derive(Debug, Clone)]
pub struct Permutations {
    next: Option<Permutation>,
}

impl Iterator for Permutations {
    type Item = Permutation;

    fn next(&mut self) -> Option<Permutation> {
        let current = self.next.take()?;
        // Standard next-lexicographic-permutation on the image vector.
        let mut img = current.image.clone();
        let n = img.len();
        let succ = (|| {
            if n < 2 {
                return None;
            }
            let mut i = n - 1;
            while i > 0 && img[i - 1] >= img[i] {
                i -= 1;
            }
            if i == 0 {
                return None;
            }
            let mut j = n - 1;
            while img[j] <= img[i - 1] {
                j -= 1;
            }
            img.swap(i - 1, j);
            img[i..].reverse();
            Some(Permutation { image: img })
        })();
        self.next = succ;
        Some(current)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_fixes_everything() {
        let id = Permutation::identity(5);
        for i in 0..5 {
            assert_eq!(id.apply(i), i);
        }
    }

    #[test]
    fn reversal_reverses() {
        let r = Permutation::reversal(4);
        assert_eq!(r.as_slice(), &[3, 2, 1, 0]);
    }

    #[test]
    fn from_image_validates() {
        assert!(Permutation::from_image(vec![1, 0, 2]).is_ok());
        assert_eq!(
            Permutation::from_image(vec![]).unwrap_err(),
            PermError::Empty
        );
        assert_eq!(
            Permutation::from_image(vec![0, 0, 1]).unwrap_err(),
            PermError::NotABijection
        );
        assert_eq!(
            Permutation::from_image(vec![0, 3]).unwrap_err(),
            PermError::NotABijection
        );
    }

    #[test]
    fn compose_applies_right_then_left() {
        // π = ⟨1,2,0⟩ (cycle), ϱ = ⟨2,1,0⟩ (reversal).
        let pi = Permutation::from_image(vec![1, 2, 0]).unwrap();
        let rho = Permutation::reversal(3);
        let c = pi.compose(&rho);
        // (π∘ϱ)(0) = π(2) = 0, (π∘ϱ)(1) = π(1) = 2, (π∘ϱ)(2) = π(0) = 1.
        assert_eq!(c.as_slice(), &[0, 2, 1]);
    }

    #[test]
    fn inverse_composes_to_identity() {
        let mut rng = StdRng::seed_from_u64(7);
        for n in [1, 2, 5, 16] {
            let p = Permutation::random(n, &mut rng);
            assert_eq!(p.compose(&p.inverse()), Permutation::identity(n));
            assert_eq!(p.inverse().compose(&p), Permutation::identity(n));
        }
    }

    #[test]
    fn random_is_seed_deterministic() {
        let a = Permutation::random(10, &mut StdRng::seed_from_u64(3));
        let b = Permutation::random(10, &mut StdRng::seed_from_u64(3));
        assert_eq!(a, b);
    }

    #[test]
    fn all_enumerates_factorial_many() {
        assert_eq!(Permutation::all(1).count(), 1);
        assert_eq!(Permutation::all(3).count(), 6);
        assert_eq!(Permutation::all(5).count(), 120);
    }

    #[test]
    fn all_is_lexicographic_and_distinct() {
        let perms: Vec<Permutation> = Permutation::all(4).collect();
        assert_eq!(perms.len(), 24);
        assert_eq!(perms[0], Permutation::identity(4));
        assert_eq!(perms[23], Permutation::reversal(4));
        for w in perms.windows(2) {
            assert!(w[0].as_slice() < w[1].as_slice(), "strictly increasing");
        }
    }

    #[test]
    fn debug_format() {
        let p = Permutation::from_image(vec![2, 0, 1]).unwrap();
        assert_eq!(format!("{p:?}"), "⟨2 0 1⟩");
    }
}
