//! The sparse client sampler draws exactly what the dense partial
//! Fisher–Yates shuffle of `(0..n)` draws — same indices, same order — for
//! any population, sample width and seed, so switching the server to it
//! moved no round's client set.

use frs_federation::sample_clients;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The dense reference: shuffle the first `k` positions of the full index
/// vector, then keep them.
fn dense_draw(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let k = k.min(n);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let pick = rng.gen_range(i..n);
        idx.swap(i, pick);
    }
    idx.truncate(k);
    idx
}

fn sparse_draw(n: usize, k: usize, seed: u64) -> Vec<usize> {
    sample_clients(n, k, &mut StdRng::seed_from_u64(seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn sparse_sampler_equals_dense_draw(n in 1usize..400, frac in 0.0f64..=1.0, seed in any::<u64>()) {
        let k = ((n as f64) * frac).round() as usize;
        prop_assert_eq!(sparse_draw(n, k, seed), dense_draw(n, k, seed));
    }

    #[test]
    fn full_and_majority_draws_match(n in 1usize..300, seed in any::<u64>()) {
        // k == n (a full permutation) and k just past n/2, where most
        // positions have been displaced at least once.
        for k in [n, n / 2 + 1] {
            let draw = sparse_draw(n, k, seed);
            prop_assert_eq!(&draw, &dense_draw(n, k, seed));
            let mut sorted = draw.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), k); // indices are distinct
        }
    }
}

#[test]
fn oversized_and_empty_requests_are_clamped() {
    assert_eq!(sparse_draw(5, 9, 3), dense_draw(5, 9, 3));
    assert_eq!(sparse_draw(5, 9, 3).len(), 5);
    assert!(sparse_draw(7, 0, 3).is_empty());
    assert!(sparse_draw(0, 4, 3).is_empty());
}

#[test]
fn million_client_draw_matches_dense() {
    assert_eq!(
        sparse_draw(1_000_000, 1024, 42),
        dense_draw(1_000_000, 1024, 42)
    );
}
