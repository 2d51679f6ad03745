//! The delay-sensitive generalization: `d`-contention (Section 4.2).
//!
//! ```text
//! (d)-Cont(Σ, ϱ) = Σ_u (d)-lrm(ϱ⁻¹ ∘ π_u),
//! (d)-Cont(Σ)    = max_{ϱ ∈ S_n} (d)-Cont(Σ, ϱ).
//! ```
//!
//! Lemma 6.1 bridges combinatorics and executions: the work of the schedule
//! algorithms PaDet/PaRan1 against any `d`-adversary is at most
//! `(d)-Cont(Σ)`. Theorem 4.4 shows a random list of `p` schedules
//! satisfies, for **every** `d` simultaneously,
//! `(d)-Cont(Σ) ≤ n·ln n + 8·p·d·ln(e + n/d)` with probability at least
//! `1 − e^{−n ln n · ln(7/e²) − p}`, and Corollary 4.5 extracts the
//! deterministic lists used by PaDet.

use crate::contention::{max_over_rho_exact, maximize_over_rho, EXACT_MAX_N};
use crate::{d_lrm, Permutation};

/// `(d)-Cont(Σ, ϱ) = Σ_u (d)-lrm(ϱ⁻¹ ∘ π_u)`.
///
/// # Panics
///
/// Panics if `sigma` is empty or the sizes disagree.
#[must_use]
pub fn d_contention_wrt(sigma: &[Permutation], rho: &Permutation, d: usize) -> usize {
    assert!(
        !sigma.is_empty(),
        "contention of an empty list is undefined"
    );
    let rho_inv = rho.inverse();
    sigma
        .iter()
        .map(|pi| {
            assert_eq!(pi.n(), rho.n(), "schedule sizes must agree");
            d_lrm(&rho_inv.compose(pi), d)
        })
        .sum()
}

/// Exact `(d)-Cont(Σ)` by dynamic programming over the subsets of jobs
/// already ranked above the next one, in `Θ(2ⁿ · n · p)` time: job `x`
/// ranked below the set `S` is a `d`-left-to-right maximum of
/// `ϱ⁻¹ ∘ π_u` iff fewer than `d` of the jobs `π_u` runs before `x` are
/// in `S`.
///
/// # Panics
///
/// Panics if `sigma` is empty, the sizes disagree, or `n > 12`
/// (use [`d_contention_of_list`] for larger `n`).
#[must_use]
pub fn d_contention_exact(sigma: &[Permutation], d: usize) -> usize {
    max_over_rho_exact(sigma, d)
}

/// Result of a `d`-contention computation (value + exactness flag).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DContentionEstimate {
    /// The delay parameter `d` the value refers to.
    pub d: usize,
    /// The (estimated or exact) `d`-contention value.
    pub value: usize,
    /// `true` if `value` is the exact maximum over all of `S_n`.
    pub exact: bool,
}

/// Estimates `(d)-Cont(Σ)` from below by sampling reference permutations
/// and greedy swap ascent (see [`crate::contention_estimate`]).
///
/// # Panics
///
/// Panics if `sigma` is empty.
#[must_use]
pub fn d_contention_estimate(sigma: &[Permutation], d: usize, samples: usize, seed: u64) -> usize {
    maximize_over_rho(sigma, samples, seed, |s, rho| d_contention_wrt(s, rho, d))
}

/// `(d)-Cont(Σ)` with automatic exact/estimate decision (exact for
/// `n ≤ 12`).
///
/// # Panics
///
/// Panics if `sigma` is empty.
#[must_use]
pub fn d_contention_of_list(sigma: &[Permutation], d: usize) -> DContentionEstimate {
    assert!(
        !sigma.is_empty(),
        "contention of an empty list is undefined"
    );
    if sigma[0].n() <= EXACT_MAX_N {
        DContentionEstimate {
            d,
            value: d_contention_exact(sigma, d),
            exact: true,
        }
    } else {
        DContentionEstimate {
            d,
            value: d_contention_estimate(sigma, d, 64, 0),
            exact: false,
        }
    }
}

/// The Theorem 4.4 threshold `n·ln n + 8·p·d·ln(e + n/d)`: a random list of
/// `p` schedules from `S_n` stays below this for every `d` simultaneously
/// with overwhelming probability.
///
/// # Panics
///
/// Panics if `n == 0`, `p == 0`, or `d == 0`.
#[must_use]
pub fn dcont_threshold(n: usize, p: usize, d: usize) -> f64 {
    assert!(n > 0 && p > 0 && d > 0, "parameters must be positive");
    let (n, p, d) = (n as f64, p as f64, d as f64);
    n * n.ln() + 8.0 * p * d * (std::f64::consts::E + n / d).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn d_one_matches_plain_contention() {
        let sigma = vec![
            Permutation::identity(5),
            Permutation::reversal(5),
            Permutation::from_image(vec![1, 3, 0, 4, 2]).unwrap(),
        ];
        assert_eq!(
            d_contention_exact(&sigma, 1),
            crate::contention::contention_exact(&sigma)
        );
    }

    #[test]
    fn large_d_saturates_at_np() {
        let sigma = vec![Permutation::identity(4), Permutation::reversal(4)];
        assert_eq!(d_contention_exact(&sigma, 4), 8);
        assert_eq!(d_contention_exact(&sigma, 100), 8);
    }

    #[test]
    fn monotone_in_d() {
        let mut rng = StdRng::seed_from_u64(17);
        let sigma: Vec<Permutation> = (0..3).map(|_| Permutation::random(6, &mut rng)).collect();
        let mut prev = 0;
        for d in 1..=6 {
            let cur = d_contention_exact(&sigma, d);
            assert!(cur >= prev, "d-contention must grow with d");
            prev = cur;
        }
        assert_eq!(prev, 18);
    }

    #[test]
    fn estimate_lower_bounds_exact() {
        let mut rng = StdRng::seed_from_u64(23);
        let sigma: Vec<Permutation> = (0..4).map(|_| Permutation::random(6, &mut rng)).collect();
        for d in [1, 2, 3] {
            let exact = d_contention_exact(&sigma, d);
            let est = d_contention_estimate(&sigma, d, 32, 7);
            assert!(est <= exact, "d={d}: estimate {est} > exact {exact}");
        }
    }

    #[test]
    fn of_list_chooses_mode_by_n() {
        let sigma_small = vec![Permutation::identity(4)];
        assert!(d_contention_of_list(&sigma_small, 2).exact);
        let mut rng = StdRng::seed_from_u64(3);
        for n in [EXACT_MAX_N, EXACT_MAX_N + 1, 20] {
            let sigma: Vec<Permutation> =
                (0..2).map(|_| Permutation::random(n, &mut rng)).collect();
            assert_eq!(d_contention_of_list(&sigma, 2).exact, n <= EXACT_MAX_N);
        }
    }

    #[test]
    fn threshold_is_increasing_in_d_and_p() {
        let base = dcont_threshold(100, 10, 1);
        assert!(dcont_threshold(100, 10, 5) > base);
        assert!(dcont_threshold(100, 20, 1) > base);
        assert!(base > 100.0 * (100.0f64).ln());
    }

    #[test]
    fn wrt_identity_hand_check() {
        // Σ = ⟨⟨3 1 0 2⟩⟩, ϱ = identity: (d)-Cont = (d)-lrm of the schedule.
        let sigma = vec![Permutation::from_image(vec![3, 1, 0, 2]).unwrap()];
        let id = Permutation::identity(4);
        assert_eq!(d_contention_wrt(&sigma, &id, 1), 1);
        assert_eq!(d_contention_wrt(&sigma, &id, 2), 3);
        assert_eq!(d_contention_wrt(&sigma, &id, 3), 4);
    }
}
