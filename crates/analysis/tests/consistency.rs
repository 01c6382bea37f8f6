//! Consistency tests between the analytical framework and Monte-Carlo
//! simulation of the balls-into-bins process it models.

use analysis::{binomial_pmf, exception_probabilities, expected_round_shares, TransitionMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Throw `x` balls into `n` bins once and report whether every ball landed
/// alone (the §2.2.1 "ideal case").
fn one_round_is_ideal(x: usize, n: usize, rng: &mut StdRng) -> bool {
    let mut bins = vec![0u32; n];
    for _ in 0..x {
        bins[rng.random_range(0..n)] += 1;
    }
    bins.iter().all(|&c| c <= 1)
}

#[test]
fn markov_success_probability_matches_simulation() {
    let (n, t, r) = (127usize, 10usize, 2u32);
    let matrix = TransitionMatrix::build(n, t);
    let analytic = matrix.success_probabilities(r);
    let mut rng = StdRng::seed_from_u64(7);
    for &x in &[3usize, 6, 10] {
        let trials = 4_000;
        let mut ok = 0;
        for _ in 0..trials {
            let mut remaining = x;
            for _ in 0..r {
                let mut bins = vec![0u32; n];
                for _ in 0..remaining {
                    bins[rng.random_range(0..n)] += 1;
                }
                remaining = bins.iter().filter(|&&c| c >= 2).map(|&c| c as usize).sum();
                if remaining == 0 {
                    break;
                }
            }
            if remaining == 0 {
                ok += 1;
            }
        }
        let empirical = ok as f64 / trials as f64;
        assert!(
            (empirical - analytic[x]).abs() < 0.03,
            "x = {x}: analytic {} vs empirical {empirical}",
            analytic[x]
        );
    }
}

#[test]
fn exception_probabilities_match_simulation() {
    let (d, n) = (5usize, 255usize);
    let exact = exception_probabilities(d, n);
    let mut rng = StdRng::seed_from_u64(11);
    let trials = 60_000;
    let (mut ideal, mut type_i, mut type_ii) = (0u32, 0u32, 0u32);
    for _ in 0..trials {
        let mut bins = vec![0u32; n];
        for _ in 0..d {
            bins[rng.random_range(0..n)] += 1;
        }
        if bins.iter().all(|&c| c <= 1) {
            ideal += 1;
        }
        if bins.iter().any(|&c| c >= 2 && c % 2 == 0) {
            type_i += 1;
        }
        if bins.iter().any(|&c| c >= 3 && c % 2 == 1) {
            type_ii += 1;
        }
    }
    let t = trials as f64;
    assert!((ideal as f64 / t - exact.ideal).abs() < 0.01);
    assert!((type_i as f64 / t - exact.type_i).abs() < 0.01);
    // Type II is a ~1.5e-4 event: just check the simulation count is small.
    assert!(type_ii as f64 / t < 0.002);
    assert!(exact.type_ii < 3e-4);
}

#[test]
fn round_shares_match_simulated_rounds() {
    // The analytical round shares imply an average number of rounds; compare
    // with a direct simulation of groups drawn from Binomial(d, 1/g).
    let (n, t, d, g) = (127usize, 13usize, 1_000usize, 200usize);
    let shares = expected_round_shares(n, t, d, g, 4);
    assert!(shares[0] > 0.93 && shares[0] < 0.99);

    let mut rng = StdRng::seed_from_u64(3);
    let trials = 3_000;
    let mut first_round_total = 0f64;
    let mut balls_total = 0f64;
    for _ in 0..trials {
        // Draw the group's ball count.
        let mut x = 0usize;
        for _ in 0..d {
            if rng.random_range(0..g) == 0 {
                x += 1;
            }
        }
        if x == 0 {
            continue;
        }
        let mut bins = vec![0u32; n];
        for _ in 0..x {
            bins[rng.random_range(0..n)] += 1;
        }
        let good: usize = bins.iter().filter(|&&c| c == 1).count();
        first_round_total += good as f64;
        balls_total += x as f64;
    }
    let empirical_first_share = first_round_total / balls_total;
    assert!(
        (empirical_first_share - shares[0]).abs() < 0.02,
        "analytic {} vs simulated {empirical_first_share}",
        shares[0]
    );
}

#[test]
fn ideal_case_formula_vs_matrix_vs_simulation() {
    let mut rng = StdRng::seed_from_u64(5);
    for &(d, n) in &[(5usize, 255usize), (8, 511), (4, 63)] {
        // §2.2.1: all d balls land alone with probability ∏_{k<d} (1 − k/n).
        let closed: f64 = (1..d).map(|k| 1.0 - k as f64 / n as f64).product();
        let matrix = TransitionMatrix::build(n, d);
        assert!((matrix.get(d, 0) - closed).abs() < 1e-12);
        let trials = 20_000;
        let ok = (0..trials)
            .filter(|_| one_round_is_ideal(d, n, &mut rng))
            .count();
        let empirical = ok as f64 / trials as f64;
        assert!(
            (empirical - closed).abs() < 0.02,
            "d={d}, n={n}: {empirical} vs {closed}"
        );
    }
}

#[test]
fn binomial_matches_simulation_tail() {
    // P(Binomial(1000, 1/200) > 13) is the §3.2 decode-failure probability
    // (6.7e-4); check the analytic tail lands in that ballpark.
    let tail: f64 = (14..=40).map(|k| binomial_pmf(1000, k, 1.0 / 200.0)).sum();
    assert!((tail - 6.7e-4).abs() < 1.5e-4, "tail = {tail}");
}
