//! Determinism pins for the LP-valued network game:
//!
//! * warm-started coalition solves **bit-identical** to cold solves
//!   across the full coalition lattice up to n = 10 tenants;
//! * [`sampled_shapley_cached`] bit-identical run-to-run at a fixed seed
//!   and bit-identical to the uncached estimator (the cache may only skip
//!   work, never change a value — which holds because warm incremental
//!   replay reproduces cold values exactly on dyadic instances);
//! * [`parallel_sampled_shapley`] with batch-local coalition caches
//!   bit-identical at 1, 2, and 8 threads.
//!
//! All instances here use integer capacities/demands and integer link
//! prices, the exact-arithmetic regime documented in `fairco2-solver`.

use fairco2_shapley::netgame::{Link, Network, NetworkCarbonGame};
use fairco2_shapley::parallel::{parallel_sampled_shapley, ParallelConfig};
use fairco2_shapley::sampled::{sampled_shapley, sampled_shapley_cached, SampleConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A 5-node network (egress = 4) with shared bottleneck links, built so
/// larger coalitions actually contend for capacity.
fn bottleneck_network() -> Network {
    Network::new(
        5,
        4,
        vec![
            Link {
                from: 0,
                to: 2,
                capacity: 9.0,
                carbon_per_unit: 1.0,
            },
            Link {
                from: 1,
                to: 2,
                capacity: 7.0,
                carbon_per_unit: 2.0,
            },
            Link {
                from: 0,
                to: 3,
                capacity: 5.0,
                carbon_per_unit: 3.0,
            },
            Link {
                from: 1,
                to: 3,
                capacity: 6.0,
                carbon_per_unit: 1.0,
            },
            Link {
                from: 2,
                to: 4,
                capacity: 11.0,
                carbon_per_unit: 2.0,
            },
            Link {
                from: 3,
                to: 4,
                capacity: 8.0,
                carbon_per_unit: 1.0,
            },
            Link {
                from: 2,
                to: 3,
                capacity: 4.0,
                carbon_per_unit: 1.0,
            },
        ],
    )
}

/// `n` tenants with deterministic small integer demands at nodes 0/1.
fn tenants(n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|t| {
            let at0 = ((t * 7 + 3) % 4) as f64;
            let at1 = ((t * 5 + 1) % 3) as f64;
            vec![at0, at1, 0.0, 0.0, 0.0]
        })
        .collect()
}

fn game(n: usize) -> NetworkCarbonGame {
    NetworkCarbonGame::new(bottleneck_network(), tenants(n))
}

#[test]
fn warm_lattice_is_bit_identical_to_cold_up_to_ten_tenants() {
    for n in [2usize, 5, 10] {
        let g = game(n);
        let (cold, _) = g.fill_lattice_cold();
        let (warm, stats) = g.fill_lattice_warm();
        assert_eq!(cold.len(), 1 << n);
        for (mask, (c, w)) in cold.iter().zip(&warm).enumerate() {
            assert_eq!(
                c.to_bits(),
                w.to_bits(),
                "n={n} mask={mask:#b}: cold {c} vs warm {w}"
            );
        }
        // The warm fill must actually warm-start (not silently cold-solve
        // everything): every non-empty coalition whose parent was routed
        // gets an offer, and most offers must be served.
        assert!(stats.warm_attempts > 0, "n={n}: no warm starts attempted");
        assert!(
            stats.warm_hits * 2 > stats.warm_attempts,
            "n={n}: warm hits {} of {} attempts",
            stats.warm_hits,
            stats.warm_attempts
        );
    }
}

#[test]
fn sampled_shapley_cached_is_reproducible_and_cache_transparent() {
    let g = game(9);
    let config = SampleConfig {
        max_permutations: 200,
        target_stderr: 0.0,
        min_permutations: 200,
        antithetic: true,
    };
    let run = |seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed);
        sampled_shapley_cached(&g, &config, &mut rng)
    };
    // Same seed ⇒ bit-identical estimate.
    let a = run(42);
    let b = run(42);
    assert_eq!(a.values.len(), 9);
    for (x, y) in a.values.iter().zip(&b.values) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    // The cache may only skip work, never change a value: the cached
    // estimate matches the uncached one bit-for-bit (warm incremental
    // replay reproduces cold values exactly on this dyadic instance).
    let mut rng = StdRng::seed_from_u64(42);
    let uncached = sampled_shapley(&g, &config, &mut rng);
    for (x, y) in a.values.iter().zip(&uncached.values) {
        assert_eq!(x.to_bits(), y.to_bits());
    }
    assert!(a.counters.cache_hits > 0, "cache never hit");
}

#[test]
fn parallel_sampled_shapley_is_bit_identical_at_1_2_8_threads() {
    let g = game(9);
    let mut reference: Option<Vec<f64>> = None;
    for threads in [1usize, 2, 8] {
        let config = ParallelConfig {
            sample: SampleConfig {
                max_permutations: 192,
                target_stderr: 0.0,
                min_permutations: 192,
                antithetic: true,
            },
            batch_permutations: 16,
            round_batches: 8,
            threads,
            coalition_cache: true,
        };
        let est = parallel_sampled_shapley(&g, &config, 0xFA1C_0002);
        match &reference {
            None => reference = Some(est.estimate.values.clone()),
            Some(want) => {
                for (p, (a, b)) in want.iter().zip(&est.estimate.values).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "player {p} at {threads} threads: {a} vs {b}"
                    );
                }
            }
        }
    }
}
