//! Property tests pinning the exact solvers against each other: the
//! Gray-code solver ([`exact_shapley_fast`]) agrees with plain
//! enumeration ([`exact_shapley`]) within 1e-9 on random table games and
//! random peak-demand games (n ≤ 10, up to 96 time steps), and its
//! running-peak toggle state agrees with the dense re-scan reference
//! ([`ScanPeak`]).

use fairco2_shapley::exact::{exact_shapley, exact_shapley_fast};
use fairco2_shapley::game::{PeakDemandGame, ScanPeak, TableGame};
use proptest::prelude::*;

/// Builds a table game over `n` players from a pool of integer values
/// (`values[0]` is forced to 0 to satisfy the `v(∅) = 0` contract).
fn table_game(n: usize, pool: &[i32]) -> TableGame {
    let size = 1usize << n;
    let values: Vec<f64> = (0..size)
        .map(|mask| {
            if mask == 0 {
                0.0
            } else {
                pool[mask % pool.len()] as f64
            }
        })
        .collect();
    TableGame::new(n, values)
}

/// Builds an `n`-player, `steps`-step peak-demand game from a pool of
/// small non-negative integer demands.
fn peak_game(n: usize, steps: usize, pool: &[u8]) -> PeakDemandGame {
    let demand: Vec<Vec<f64>> = (0..n)
        .map(|p| {
            (0..steps)
                .map(|t| pool[(p * steps + t) % pool.len()] as f64)
                .collect()
        })
        .collect();
    PeakDemandGame::new(demand)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn gray_code_matches_plain_on_random_table_games(
        n in 1usize..=10,
        pool in prop::collection::vec(-1000i32..1000, 8..64),
    ) {
        let g = table_game(n, &pool);
        let plain = exact_shapley(&g).unwrap();
        let fast = exact_shapley_fast(&g).unwrap();
        for (a, b) in plain.iter().zip(&fast) {
            prop_assert!((a - b).abs() <= 1e-9, "plain {a} vs gray {b}");
        }
    }

    #[test]
    fn gray_code_matches_plain_on_random_peak_games(
        n in 1usize..=10,
        steps in 1usize..=96,
        pool in prop::collection::vec(0u8..20, 4..32),
    ) {
        let g = peak_game(n, steps, &pool);
        let plain = exact_shapley(&g).unwrap();
        let fast = exact_shapley_fast(&g).unwrap();
        for (a, b) in plain.iter().zip(&fast) {
            prop_assert!((a - b).abs() <= 1e-9, "plain {a} vs gray {b}");
        }
        // The running-peak toggle path must agree with the dense re-scan
        // path on the same game.
        let scan = exact_shapley_fast(&ScanPeak(g)).unwrap();
        for (a, b) in fast.iter().zip(&scan) {
            prop_assert!((a - b).abs() <= 1e-9, "running peak {a} vs scan {b}");
        }
    }
}
