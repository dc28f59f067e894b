//! Golden pins for the coalition cache's eviction regime.
//!
//! The cache's hits, misses and evictions are decided by its logical
//! probe geometry (SplitMix home slot, 16-slot linear probe, home-slot
//! displacement), not by how the occupied slots are stored. These pins
//! record estimates and cache counters of sampled runs whose tables fill
//! far enough to probe deeply and, in the 12-player batch-4096 run, to
//! displace entries: a cache that grows instead of evicting, or one that
//! evicts sooner, moves a hit or a miss here.
//!
//! The numbers were recorded from the dense-table implementation the
//! sparse store replaced.

use fairco2_shapley::game::PeakDemandGame;
use fairco2_shapley::parallel::{parallel_sampled_shapley, ParallelConfig};
use fairco2_shapley::sampled::{sampled_shapley_cached, SampleConfig, ShapleyEstimate};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// An estimate's bits and cache counters.
struct Golden {
    values: &'static [u64],
    std_errors: &'static [u64],
    hits: u64,
    misses: u64,
}

/// An 8-step peak game with real-valued demands in `[0, 96)`.
fn peak_game(n: usize, seed: u64) -> PeakDemandGame {
    let mut rng = StdRng::seed_from_u64(seed);
    PeakDemandGame::new(
        (0..n)
            .map(|_| (0..8).map(|_| rng.gen_range(0.0..96.0)).collect())
            .collect(),
    )
}

fn assert_golden(label: &str, e: &ShapleyEstimate, golden: &Golden) {
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&e.values), golden.values, "{label}: values");
    assert_eq!(
        bits(&e.std_errors),
        golden.std_errors,
        "{label}: std errors"
    );
    assert_eq!(e.counters.cache_hits, golden.hits, "{label}: cache hits");
    assert_eq!(
        e.counters.cache_misses, golden.misses,
        "{label}: cache misses"
    );
}

#[test]
fn whole_run_cache_matches_the_recorded_estimates() {
    for (n, golden) in [(18usize, &CACHED_N18), (20, &CACHED_N20)] {
        let config = SampleConfig {
            max_permutations: 20_000,
            target_stderr: 0.0,
            min_permutations: 1,
            antithetic: true,
        };
        let game = peak_game(n, 1800 + n as u64);
        let e = sampled_shapley_cached(&game, &config, &mut StdRng::seed_from_u64(n as u64));
        assert_golden(&format!("sampled_shapley_cached n={n}"), &e, golden);
    }
}

#[test]
fn batch_caches_match_the_recorded_estimates() {
    for (n, golden) in [(12usize, &PARALLEL_N12), (14, &PARALLEL_N14)] {
        let config = ParallelConfig {
            sample: SampleConfig {
                max_permutations: 3 * 4096,
                target_stderr: 0.0,
                min_permutations: 1,
                antithetic: true,
            },
            batch_permutations: 4096,
            round_batches: 4,
            threads: 2,
            coalition_cache: true,
        };
        let game = peak_game(n, 1200 + n as u64);
        let e = parallel_sampled_shapley(&game, &config, 31 + n as u64).estimate;
        assert_golden(&format!("parallel_sampled_shapley n={n}"), &e, golden);
    }
}

/// `sampled_shapley_cached n=18`.
const CACHED_N18: Golden = Golden {
    values: &[
        0x40492fd068c4a1af,
        0x404e29b5a2179a4b,
        0x403fd0f6ad5762d1,
        0x404a4e26b5b0cb5e,
        0x4045f4584ea1cb90,
        0x40431dc9d945665a,
        0x40533fb858c32b34,
        0x4054b51a5ca9c558,
        0x405194e81a54ae6f,
        0x4045ddd31a089864,
        0x404ff872d91d0c02,
        0x40496fafba1773b8,
        0x40379036cec863c0,
        0x404c9a5d29546814,
        0x403fc9b1886c6838,
        0x404cb1a6a6d1c1be,
        0x40488d2495aec732,
        0x40484c0e9f3d7edb,
    ],
    std_errors: &[
        0x3fb95de44c4a5c8b,
        0x3fb4e045a285d964,
        0x3fbcea0a36034f32,
        0x3fb631907c6836de,
        0x3fb485d1e6586982,
        0x3fbcce3703a3cb1b,
        0x3fb933284ef7f19f,
        0x3fb6d3dbc54275d3,
        0x3fb21c2e0929d01c,
        0x3fbf5866b1d3013b,
        0x3fb9bc6d2bf586eb,
        0x3fba8402c7481d81,
        0x3fc1552ed732f9f8,
        0x3fbea07a20c4d527,
        0x3fc051646883337a,
        0x3fb6ee89289c63df,
        0x3fc0243707ce46a1,
        0x3fbcadf55ec051a8,
    ],
    hits: 233_837,
    misses: 126_163,
};

/// `sampled_shapley_cached n=20`.
const CACHED_N20: Golden = Golden {
    values: &[
        0x404d66a1368a9f0c,
        0x40486c67baf3dfcc,
        0x404b9dc58bcebe63,
        0x40440080b580833a,
        0x4050750990b1fe7f,
        0x405145f42a5545ac,
        0x404b08c06147966a,
        0x40536400d309204b,
        0x40535454cca8cd2c,
        0x4048f79f9fca9c3d,
        0x40537f3cbf067527,
        0x404bc736af789c78,
        0x404f83fdeec72d2f,
        0x4041edae6034f3dd,
        0x404b8d34359ccc57,
        0x404afe918bb8e253,
        0x404bdbf138d7d93e,
        0x40457d80cd0763d6,
        0x404e785b6a7007da,
        0x4041bbbdde42b64f,
    ],
    std_errors: &[
        0x3fc0ca614ac403e5,
        0x3fbb1df07c9a3f85,
        0x3fb5b34503137fe3,
        0x3fbddca42bf77c15,
        0x3fc0a82c536859f7,
        0x3fb6bf53d2e22f16,
        0x3fb8eaf958ff07f6,
        0x3fc29b2615481c11,
        0x3fba27cf944ddfb3,
        0x3fb8f41c7500a6b2,
        0x3fbbd4858f478d52,
        0x3fb73552911cc998,
        0x3fa9ee2910f24a0e,
        0x3fbf66c087357b2d,
        0x3fbf79aac5cd488b,
        0x3fc1014f52fe9f69,
        0x3fbb570efdcf2887,
        0x3fc0c2848f8b614a,
        0x3fbd7c53abe11990,
        0x3fc09a1681e95f3c,
    ],
    hits: 204_947,
    misses: 195_053,
};

/// `parallel n=12`.
const PARALLEL_N12: Golden = Golden {
    values: &[
        0x4046d2592c4e9e6d,
        0x404ee18db221018c,
        0x4054f90b260a251c,
        0x4054ee49c02f8bd3,
        0x404687237cd949f7,
        0x404fad3c95a9f145,
        0x404444f2907ac9d7,
        0x404b053e33dae68d,
        0x40525eeb1810ede5,
        0x404efa834f977fc0,
        0x405069dde6a424bd,
        0x4040ff4d7c3d725d,
    ],
    std_errors: &[
        0x3fb7f018c16475e2,
        0x3fb270de3d02c83f,
        0x3fbca488b1670515,
        0x3fb953779698f2b2,
        0x3fc3791b0c5f127f,
        0x3fc1c0714160ae20,
        0x3fc1ba2263868b49,
        0x3fc038d2e32115d4,
        0x3fc141ba208bfc71,
        0x3fb969265b8d32ed,
        0x3fc28c54c191b478,
        0x3fc403dc4d42836d,
    ],
    hits: 135_195,
    misses: 12_261,
};

/// `parallel n=14`.
const PARALLEL_N14: Golden = Golden {
    values: &[
        0x4043bb00c0390867,
        0x4051ad6ce4e6d81b,
        0x40542a9c25035b65,
        0x40538d09d7bee44f,
        0x40453a931e668fb6,
        0x404a359dc8f88d17,
        0x404fc9f380f308c3,
        0x404f56a2c8819b50,
        0x4054fef27f251b21,
        0x404d524ed6d722c4,
        0x404dbef1b857bba4,
        0x4044a88011ce764b,
        0x40489e2371259d4c,
        0x405085d7d96e91a3,
    ],
    std_errors: &[
        0x3fcabce201875c3d,
        0x3fc0c91913cf89b9,
        0x3fc1beea7cc29f06,
        0x3fc76ed85e7b9cf8,
        0x3fbf939dcb65643f,
        0x3fc37a24a1c2e3cc,
        0x3fc224c1f0f0c17d,
        0x3fb4393b6411ddff,
        0x3fb42e41e54667e2,
        0x3fca4805ed7b0043,
        0x3fb3306eb87c4b0f,
        0x3fbf17138ced4be4,
        0x3fbde81cb08a6d8d,
        0x3fb968532c80d39c,
    ],
    hits: 132_329,
    misses: 39_703,
};
