//! Property-based tests for permutation algebra and contention laws.

use doall_perms::search::low_contention_list;
use doall_perms::{
    contention_exact, contention_wrt, d_contention_exact, d_contention_wrt, d_lrm, dcont_threshold,
    lrm, Permutation, Schedules,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn random_perm(n: usize, seed: u64) -> Permutation {
    Permutation::random(n, &mut StdRng::seed_from_u64(seed))
}

/// `Cont(Σ)` by its definition: the maximum of `Cont(Σ, ϱ)` over all `n!`
/// reference permutations. The library's subset DP must agree with it.
fn enumerated_contention(sigma: &[Permutation]) -> usize {
    Permutation::all(sigma[0].n())
        .map(|rho| contention_wrt(sigma, &rho))
        .max()
        .unwrap()
}

/// `(d)-Cont(Σ)` by its definition, enumerated like
/// [`enumerated_contention`].
fn enumerated_d_contention(sigma: &[Permutation], d: usize) -> usize {
    Permutation::all(sigma[0].n())
        .map(|rho| d_contention_wrt(sigma, &rho, d))
        .max()
        .unwrap()
}

/// Every list of two permutations of `[n]` for `n ≤ 4`, every `d` in
/// `0..=n+1`: the subset DP equals the enumeration, including the
/// degenerate lists (identical schedules, reversals) random draws rarely
/// produce.
#[test]
fn exact_dp_matches_enumeration_on_all_pairs() {
    for n in 1..=4 {
        let all: Vec<Permutation> = Permutation::all(n).collect();
        for a in &all {
            for b in &all {
                let sigma = vec![a.clone(), b.clone()];
                assert_eq!(contention_exact(&sigma), enumerated_contention(&sigma));
                for d in 0..=n + 1 {
                    assert_eq!(
                        d_contention_exact(&sigma, d),
                        enumerated_d_contention(&sigma, d),
                        "{sigma:?} d={d}"
                    );
                }
            }
        }
    }
}

/// The certificate `low_contention_list` hands out for DA(q) is the exact
/// contention of the list it returns, as the enumeration computes it.
#[test]
fn low_contention_certificate_matches_enumeration() {
    for q in 2..=8 {
        for seed in [0, 1, 7] {
            let (sched, cont) = low_contention_list(q, seed);
            assert!(cont.exact, "q={q} seed={seed}");
            assert_eq!(
                cont.value,
                enumerated_contention(sched.as_slice()),
                "q={q} seed={seed}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The subset DP behind `contention_exact` / `d_contention_exact`
    /// equals the `n!` enumeration for n ≤ 8, p ∈ 1..=8, d ∈ 0..=n+1.
    #[test]
    fn exact_dp_matches_enumeration(
        n in 1usize..=8,
        p in 1usize..=8,
        d_pick in 0usize..=9,
        seed in any::<u64>(),
    ) {
        let sigma: Vec<Permutation> =
            (0..p).map(|i| random_perm(n, seed.wrapping_add(i as u64))).collect();
        let d = d_pick % (n + 2);
        prop_assert_eq!(contention_exact(&sigma), enumerated_contention(&sigma));
        prop_assert_eq!(d_contention_exact(&sigma, d), enumerated_d_contention(&sigma, d));
    }
}

proptest! {
    /// π ∘ π⁻¹ = π⁻¹ ∘ π = identity.
    #[test]
    fn inverse_roundtrip(n in 1usize..40, seed in any::<u64>()) {
        let p = random_perm(n, seed);
        prop_assert_eq!(p.compose(&p.inverse()), Permutation::identity(n));
        prop_assert_eq!(p.inverse().compose(&p), Permutation::identity(n));
    }

    /// Composition is associative.
    #[test]
    fn compose_associative(n in 1usize..20, s1 in any::<u64>(), s2 in any::<u64>(), s3 in any::<u64>()) {
        let a = random_perm(n, s1);
        let b = random_perm(n, s2);
        let c = random_perm(n, s3);
        prop_assert_eq!(a.compose(&b).compose(&c), a.compose(&b.compose(&c)));
    }

    /// (a ∘ b)⁻¹ = b⁻¹ ∘ a⁻¹.
    #[test]
    fn inverse_antihomomorphism(n in 1usize..20, s1 in any::<u64>(), s2 in any::<u64>()) {
        let a = random_perm(n, s1);
        let b = random_perm(n, s2);
        prop_assert_eq!(a.compose(&b).inverse(), b.inverse().compose(&a.inverse()));
    }

    /// 1 ≤ lrm(π) ≤ n; lrm counts the first element always.
    #[test]
    fn lrm_range(n in 1usize..60, seed in any::<u64>()) {
        let p = random_perm(n, seed);
        let l = lrm(&p);
        prop_assert!(l >= 1);
        prop_assert!(l <= n);
    }

    /// d_lrm is monotone nondecreasing in d and hits n at d = n.
    #[test]
    fn d_lrm_monotone(n in 1usize..40, seed in any::<u64>()) {
        let p = random_perm(n, seed);
        let mut prev = 0usize;
        for d in 1..=n {
            let cur = d_lrm(&p, d);
            prop_assert!(cur >= prev);
            prop_assert!(cur >= d.min(n), "first d positions are always d-lrm");
            prev = cur;
        }
        prop_assert_eq!(prev, n);
    }

    /// d_lrm(π, 1) == lrm(π) — the generalization is conservative.
    #[test]
    fn d_lrm_generalizes_lrm(n in 1usize..40, seed in any::<u64>()) {
        let p = random_perm(n, seed);
        prop_assert_eq!(d_lrm(&p, 1), lrm(&p));
    }

    /// lrm(π) + lrm(reverse of π as value-complement) duality: the reversal
    /// permutation has exactly one maximum; composing with it flips order.
    #[test]
    fn reversal_conjugation_bounds(n in 2usize..30, seed in any::<u64>()) {
        let p = random_perm(n, seed);
        let rev = Permutation::reversal(n);
        // rev ∘ p replaces each value v by n−1−v, turning maxima into minima:
        // left-to-right minima count of p equals lrm(rev ∘ p).
        let lr_minima = {
            let s = p.as_slice();
            let mut m = u32::MAX;
            let mut c = 0;
            for &v in s {
                if v < m { c += 1; m = v; }
            }
            c
        };
        prop_assert_eq!(lrm(&rev.compose(&p)), lr_minima);
    }

    /// Contention w.r.t. any ϱ lies in [p, p·n]; p = #schedules.
    #[test]
    fn contention_wrt_range(
        n in 1usize..20,
        p in 1usize..6,
        seed in any::<u64>(),
        rho_seed in any::<u64>(),
    ) {
        let sigma: Vec<Permutation> =
            (0..p).map(|i| random_perm(n, seed.wrapping_add(i as u64))).collect();
        let rho = random_perm(n, rho_seed);
        let c = contention_wrt(&sigma, &rho);
        prop_assert!(c >= p);
        prop_assert!(c <= p * n);
    }

    /// d-contention w.r.t. ϱ is monotone in d and saturates at p·n.
    #[test]
    fn d_contention_wrt_monotone(
        n in 1usize..16,
        p in 1usize..5,
        seed in any::<u64>(),
        rho_seed in any::<u64>(),
    ) {
        let sigma: Vec<Permutation> =
            (0..p).map(|i| random_perm(n, seed.wrapping_add(i as u64))).collect();
        let rho = random_perm(n, rho_seed);
        let mut prev = 0usize;
        for d in 1..=n {
            let cur = d_contention_wrt(&sigma, &rho, d);
            prop_assert!(cur >= prev);
            prev = cur;
        }
        prop_assert_eq!(prev, p * n);
        // d = 1 case coincides with plain contention.
        prop_assert_eq!(d_contention_wrt(&sigma, &rho, 1), contention_wrt(&sigma, &rho));
    }

    /// Left-composition invariance: Cont(⟨ρ∘π_u⟩, ρ∘ϱ) = Cont(Σ, ϱ) — the
    /// symmetry the exhaustive search exploits.
    #[test]
    fn left_composition_invariance(
        n in 1usize..12,
        p in 1usize..4,
        seed in any::<u64>(),
        lift in any::<u64>(),
        rho_seed in any::<u64>(),
    ) {
        let sigma: Vec<Permutation> =
            (0..p).map(|i| random_perm(n, seed.wrapping_add(i as u64))).collect();
        let rho = random_perm(n, rho_seed);
        let lift = random_perm(n, lift);
        let lifted: Vec<Permutation> = sigma.iter().map(|s| lift.compose(s)).collect();
        prop_assert_eq!(
            contention_wrt(&lifted, &lift.compose(&rho)),
            contention_wrt(&sigma, &rho)
        );
    }

    /// The Thm 4.4 threshold dominates n ln n and is monotone in d.
    #[test]
    fn threshold_sane(n in 2usize..1000, p in 1usize..100, d in 1usize..500) {
        let th = dcont_threshold(n, p, d);
        prop_assert!(th > n as f64 * (n as f64).ln());
        prop_assert!(dcont_threshold(n, p, d + 1) > th);
    }

    /// Random schedule lists are valid and expose consistent dimensions.
    #[test]
    fn schedules_random_valid(count in 1usize..8, n in 1usize..30, seed in any::<u64>()) {
        let s = Schedules::random(count, n, seed);
        prop_assert_eq!(s.len(), count);
        prop_assert_eq!(s.n(), n);
        for u in 0..count {
            // each schedule is a genuine permutation: inverse roundtrips
            let p = s.get(u);
            prop_assert_eq!(p.compose(&p.inverse()), Permutation::identity(n));
        }
    }
}
