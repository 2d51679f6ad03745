//! Contention of schedule lists (Anderson & Woll; Section 4 of the paper).
//!
//! For a list `Σ = ⟨π_0, …, π_{p−1}⟩` of permutations of `[n]` and a
//! reference permutation `ϱ ∈ S_n`,
//!
//! ```text
//! Cont(Σ, ϱ) = Σ_u lrm(ϱ⁻¹ ∘ π_u),      Cont(Σ) = max_{ϱ ∈ S_n} Cont(Σ, ϱ).
//! ```
//!
//! `Cont(Σ)` bounds the number of *primary* (first-time, possibly
//! concurrent) job executions of the oblivious algorithm ObliDo
//! (Lemma 4.2), and through the recursion of Lemma 5.3 drives the work of
//! DA(q). For any list, `n ≤ Cont(Σ) ≤ n·p` (each of the `p` schedules
//! contributes between 1 and `n` maxima); the paper states the `p = n`
//! special case `n ≤ Cont(Σ) ≤ n²`.

use crate::{lrm, Permutation};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `Cont(Σ, ϱ) = Σ_u lrm(ϱ⁻¹ ∘ π_u)`.
///
/// # Panics
///
/// Panics if `sigma` is empty or the sizes disagree.
#[must_use]
pub fn contention_wrt(sigma: &[Permutation], rho: &Permutation) -> usize {
    assert!(
        !sigma.is_empty(),
        "contention of an empty list is undefined"
    );
    let rho_inv = rho.inverse();
    sigma
        .iter()
        .map(|pi| {
            assert_eq!(pi.n(), rho.n(), "schedule sizes must agree");
            lrm(&rho_inv.compose(pi))
        })
        .sum()
}

/// Largest `n` for which contention is computed exactly. The subset DP
/// behind [`contention_exact`] keeps one `u32` per subset of `[n]`, so the
/// cap bounds what any user-written shape can cost: 16 KiB of table and
/// `2¹²·12 ≈ 49k` steps per schedule.
pub(crate) const EXACT_MAX_N: usize = 12;

/// Exact `Cont(Σ) = max_ϱ Cont(Σ, ϱ)`: the `d = 1` case of
/// [`crate::d_contention_exact`]'s subset DP.
///
/// Cost is `Θ(2ⁿ · n · p)` time and `2ⁿ` words of memory. The paper's
/// own list search is brute-force: "this costs only a constant number of
/// operations … (however, this cost might be of order `(n!)^n`)".
///
/// # Panics
///
/// Panics if `sigma` is empty, the sizes disagree, or `n > 12`
/// (use [`contention_of_list`] for larger `n`).
#[must_use]
pub fn contention_exact(sigma: &[Permutation]) -> usize {
    max_over_rho_exact(sigma, 1)
}

/// `max_ϱ (d)-Cont(Σ, ϱ)` by dynamic programming over subsets, without
/// enumerating the `n!` reference permutations.
///
/// Fill `ϱ`'s ranks from the top down, and let `S` be the set of jobs
/// already ranked above the next one. Job `x` ranked next is preceded in
/// `ϱ⁻¹ ∘ π_u` by exactly `|pred_u(x) ∩ S|` larger values, where
/// `pred_u(x)` is the set of jobs `π_u` runs before `x`. So `x` is a
/// `d`-left-to-right maximum there iff `|pred_u(x) ∩ S| < d`, which
/// depends on `S` and `x` only, and
///
/// ```text
/// f(S) = max_{x ∉ S} f(S ∪ {x}) + #{u : |pred_u(x) ∩ S| < d},   f([n]) = 0,
/// ```
///
/// with `(d)-Cont(Σ) = f(∅)`. `d = 1` is plain contention.
pub(crate) fn max_over_rho_exact(sigma: &[Permutation], d: usize) -> usize {
    assert!(
        !sigma.is_empty(),
        "contention of an empty list is undefined"
    );
    let n = sigma[0].n();
    assert!(
        n <= EXACT_MAX_N,
        "exact contention is capped at n ≤ {EXACT_MAX_N} (got n = {n})"
    );
    let p = sigma.len();
    // pred[x·p + u] = pred_u(x) as a bitmask over jobs.
    let mut pred = vec![0u32; n * p];
    for (u, pi) in sigma.iter().enumerate() {
        assert_eq!(pi.n(), n, "schedule sizes must agree");
        let mut before = 0u32;
        for &x in pi.as_slice() {
            pred[x as usize * p + u] = before;
            before |= 1 << x;
        }
    }
    let full = (1u32 << n) - 1;
    // Every S ∪ {x} exceeds S as an integer, so a descending sweep sees
    // each successor before its subset. f(full) = 0 is the initial value.
    let mut f = vec![0u32; 1 << n];
    for s in (0..full).rev() {
        let mut best = 0u32;
        let mut free = full & !s;
        while free != 0 {
            let x = free.trailing_zeros() as usize;
            free &= free - 1;
            let gain = pred[x * p..(x + 1) * p]
                .iter()
                .filter(|&&m| ((m & s).count_ones() as usize) < d)
                .count() as u32;
            best = best.max(f[(s | 1 << x) as usize] + gain);
        }
        f[s as usize] = best;
    }
    f[0] as usize
}

/// Result of a contention computation: the value and whether it is exact
/// (the maximum over all of `S_n`) or a lower-bound estimate (sampling +
/// local search over `ϱ`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContentionEstimate {
    /// The (estimated or exact) contention value.
    pub value: usize,
    /// `true` if `value` is the exact maximum over all of `S_n`.
    pub exact: bool,
}

/// Estimates `Cont(Σ)` from below: the max of `Cont(Σ, ϱ)` over `samples`
/// random `ϱ` plus a greedy swap ascent from the best sample.
///
/// This is only ever used for *reporting* on large `n` (DESIGN.md §2); the
/// algorithms rely on exact values for small `q` or on the probabilistic
/// bounds of Theorem 4.4.
///
/// # Panics
///
/// Panics if `sigma` is empty.
#[must_use]
pub fn contention_estimate(sigma: &[Permutation], samples: usize, seed: u64) -> usize {
    maximize_over_rho(sigma, samples, seed, contention_wrt)
}

/// `Cont(Σ)` with an automatic exact/estimate decision: exact for `n ≤ 12`,
/// sampled estimate (64 samples, seed 0) otherwise.
///
/// # Panics
///
/// Panics if `sigma` is empty.
#[must_use]
pub fn contention_of_list(sigma: &[Permutation]) -> ContentionEstimate {
    assert!(
        !sigma.is_empty(),
        "contention of an empty list is undefined"
    );
    if sigma[0].n() <= EXACT_MAX_N {
        ContentionEstimate {
            value: contention_exact(sigma),
            exact: true,
        }
    } else {
        ContentionEstimate {
            value: contention_estimate(sigma, 64, 0),
            exact: false,
        }
    }
}

/// Shared maximizer over reference permutations: random sampling followed
/// by first-improvement swap ascent (bounded proposal budget). Also used by
/// the d-contention estimator.
pub(crate) fn maximize_over_rho(
    sigma: &[Permutation],
    samples: usize,
    seed: u64,
    objective: impl Fn(&[Permutation], &Permutation) -> usize,
) -> usize {
    assert!(
        !sigma.is_empty(),
        "contention of an empty list is undefined"
    );
    let n = sigma[0].n();
    let mut rng = StdRng::seed_from_u64(seed);

    // The identity is the natural first guess: for schedule lists built from
    // "forward-leaning" permutations it is often the worst case.
    let mut best_rho = Permutation::identity(n);
    let mut best = objective(sigma, &best_rho);

    for _ in 0..samples {
        let rho = Permutation::random(n, &mut rng);
        let v = objective(sigma, &rho);
        if v > best {
            best = v;
            best_rho = rho;
        }
    }

    // Greedy ascent: propose random transpositions, keep improvements.
    let budget = (4 * n).max(128);
    let mut rho = best_rho;
    for _ in 0..budget {
        if n < 2 {
            break;
        }
        let i = rng.random_range(0..n);
        let j = rng.random_range(0..n);
        if i == j {
            continue;
        }
        rho.swap_positions(i, j);
        let v = objective(sigma, &rho);
        if v > best {
            best = v;
        } else {
            rho.swap_positions(i, j); // revert
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn perm(img: &[u32]) -> Permutation {
        Permutation::from_image(img.to_vec()).unwrap()
    }

    #[test]
    fn contention_wrt_identity_is_sum_of_lrm() {
        let sigma = vec![Permutation::identity(4), Permutation::reversal(4)];
        let id = Permutation::identity(4);
        assert_eq!(contention_wrt(&sigma, &id), 4 + 1);
    }

    #[test]
    fn single_identity_schedule_has_contention_n() {
        // Σ = ⟨ι⟩: Cont(Σ, ϱ) = lrm(ϱ⁻¹), maximized at ϱ = ι giving n.
        let sigma = vec![Permutation::identity(4)];
        assert_eq!(contention_exact(&sigma), 4);
    }

    #[test]
    fn identical_schedules_have_maximal_contention() {
        // p copies of the same permutation: worst ϱ aligns them all to the
        // identity, giving p·n.
        let sigma = vec![perm(&[2, 0, 1]); 3];
        assert_eq!(contention_exact(&sigma), 9);
    }

    #[test]
    fn contention_bounds_hold_for_all_lists_n3() {
        // Exhaustively check n ≤ Cont(Σ) ≤ n·p over all lists of 2
        // permutations of [3].
        let all: Vec<Permutation> = Permutation::all(3).collect();
        for a in &all {
            for b in &all {
                let sigma = vec![a.clone(), b.clone()];
                let c = contention_exact(&sigma);
                assert!((3..=6).contains(&c), "{a:?} {b:?}: {c}");
            }
        }
    }

    #[test]
    fn exact_beats_or_equals_estimate() {
        let sigma = vec![
            perm(&[0, 1, 2, 3]),
            perm(&[3, 2, 1, 0]),
            perm(&[1, 3, 0, 2]),
            perm(&[2, 0, 3, 1]),
        ];
        let exact = contention_exact(&sigma);
        let est = contention_estimate(&sigma, 16, 42);
        assert!(est <= exact);
        // With n = 4 the estimator nearly always finds the max; allow slack
        // but require it to be in range.
        assert!(est >= sigma[0].n());
    }

    #[test]
    fn of_list_is_exact_for_small_n() {
        let sigma = vec![Permutation::identity(5), Permutation::reversal(5)];
        let c = contention_of_list(&sigma);
        assert!(c.exact);
        assert_eq!(c.value, contention_exact(&sigma));
    }

    #[test]
    #[should_panic(expected = "capped at n ≤ 12")]
    fn exact_panics_above_the_cap() {
        let _ = contention_exact(&[Permutation::identity(13)]);
    }

    #[test]
    #[should_panic(expected = "sizes must agree")]
    fn exact_panics_on_size_mismatch() {
        let _ = contention_exact(&[Permutation::identity(3), Permutation::identity(4)]);
    }

    #[test]
    fn of_list_estimates_for_large_n() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let sigma: Vec<Permutation> = (0..4).map(|_| Permutation::random(16, &mut rng)).collect();
        let c = contention_of_list(&sigma);
        assert!(!c.exact);
        assert!(c.value >= 16, "at least n");
        assert!(c.value <= 64, "at most n·p");
    }

    #[test]
    #[should_panic(expected = "empty list")]
    fn empty_list_panics() {
        let _ = contention_exact(&[]);
    }
}
