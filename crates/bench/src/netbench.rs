//! Network-attribution benchmark: the LP-valued coalition game on the
//! vendored revised simplex, with every correctness gate asserted
//! in-binary **before** any timing runs.
//!
//! The study builds a deterministic leaf/spine fabric whose link prices
//! come from [`LinkCarbonModel`] (operational + embodied grams per GB,
//! snapped to the dyadic grid) and whose capacities and tenant demands
//! are small integers — the exact-arithmetic regime in which warm and
//! cold simplex solves are bit-identical.
//!
//! Gates (recorded in `gates_passed`):
//!
//! 1. **Duality gap** — every routed coalition solve across the full
//!    lattice passes the independent KKT certificate with a gap at most
//!    `gap_tolerance` (scaled);
//! 2. **Warm bit-identity** — the warm-started lattice fill (each
//!    coalition started from its parent's optimal basis) equals the cold
//!    fill bit for bit;
//! 3. **Iteration savings** — warm-starting strictly reduces total
//!    simplex iterations versus cold (the headline ratio in the JSON).
//!
//! Only after all three pass are the lattice fills and the exact Shapley
//! solve timed.

use std::time::Instant;

use serde::Serialize;

use fairco2_carbon::network::LinkCarbonModel;
use fairco2_carbon::units::CarbonIntensity;
use fairco2_shapley::coalition::Coalition;
use fairco2_shapley::exact::exact_shapley;
use fairco2_shapley::netgame::{CoalitionValue, Link, Network, NetworkCarbonGame};

/// Configuration of the network-attribution benchmark.
#[derive(Debug, Clone)]
pub struct NetworkStudy {
    /// Tenants in the game; the lattice has `2^tenants` coalitions.
    pub tenants: usize,
    /// Scaled duality-gap tolerance of gate 1.
    pub gap_tolerance: f64,
    /// Timing repetitions per measured path (best wall-clock wins).
    pub reps: usize,
}

impl Default for NetworkStudy {
    fn default() -> Self {
        Self {
            tenants: 12,
            gap_tolerance: 1e-9,
            reps: 3,
        }
    }
}

/// Grid intensities (gCO₂e/kWh) cycled across link classes so prices
/// differ per link but stay on the dyadic grid.
const LINK_INTENSITIES: [f64; 4] = [50.0, 125.0, 300.0, 475.0];

/// The benchmark fabric: five injection leaves, two spine aggregators,
/// one egress. Every leaf reaches both spines (contended, cheap) and
/// keeps an expensive direct backup to the egress, so every coalition
/// routes and the duality-gap gate covers the whole lattice.
pub fn benchmark_network() -> Network {
    const LEAVES: usize = 5;
    let spine_a = LEAVES; // node 5
    let spine_b = LEAVES + 1; // node 6
    let egress = LEAVES + 2; // node 7
    let price = |class: usize| {
        LinkCarbonModel::datacenter_default(CarbonIntensity::from_g_per_kwh(
            LINK_INTENSITIES[class % LINK_INTENSITIES.len()],
        ))
        .dyadic_grams_per_gb()
    };
    let mut links = Vec::new();
    for leaf in 0..LEAVES {
        links.push(Link {
            from: leaf,
            to: spine_a,
            capacity: (5 + (leaf * 3) % 4) as f64,
            carbon_per_unit: price(leaf),
        });
        links.push(Link {
            from: leaf,
            to: spine_b,
            capacity: (4 + (leaf * 5) % 5) as f64,
            carbon_per_unit: price(leaf + 1),
        });
        // Direct backup: generous capacity at roughly 8× the spine price
        // keeps the LP feasible while leaving it strictly worse than any
        // spine route.
        links.push(Link {
            from: leaf,
            to: egress,
            capacity: 64.0,
            carbon_per_unit: 8.0 * price(leaf + 2),
        });
    }
    // Spine downlinks are the shared bottlenecks coalitions contend for.
    links.push(Link {
        from: spine_a,
        to: egress,
        capacity: 13.0,
        carbon_per_unit: price(0),
    });
    links.push(Link {
        from: spine_b,
        to: egress,
        capacity: 11.0,
        carbon_per_unit: price(1),
    });
    // Cross link lets a loaded spine spill to the other.
    links.push(Link {
        from: spine_a,
        to: spine_b,
        capacity: 6.0,
        carbon_per_unit: price(2),
    });
    Network::new(LEAVES + 3, egress, links)
}

/// `tenants` demand vectors: small deterministic integer injections at
/// two leaves each, so coalitions overlap on the contended spines.
pub fn benchmark_demands(tenants: usize) -> Vec<Vec<f64>> {
    let nodes = 8;
    (0..tenants)
        .map(|t| {
            let mut d = vec![0.0f64; nodes];
            d[t % 5] += ((t * 7 + 3) % 3 + 1) as f64;
            d[(t * 3 + 1) % 5] += ((t * 5 + 1) % 2 + 1) as f64;
            d
        })
        .collect()
}

/// Machine-readable network benchmark results, written to
/// `results/BENCH_network.json`.
#[derive(Debug, Clone, Serialize)]
pub struct NetworkReport {
    /// Tenants in the game.
    pub tenants: usize,
    /// Coalitions in the lattice (`2^tenants`).
    pub coalitions: u64,
    /// Links in the fabric.
    pub links: usize,
    /// Scaled duality-gap tolerance the certificate gate enforced.
    pub gap_tolerance: f64,
    /// Largest certified duality gap over every routed solve.
    pub max_duality_gap: f64,
    /// Coalitions whose demand was unroutable (penalty-valued); zero on
    /// this fabric, so the certificate gate covers the whole lattice.
    pub unroutable_coalitions: u64,
    /// Warm fills offered a parent basis.
    pub warm_attempts: u64,
    /// Warm offers the dual simplex served without cold fallback.
    pub warm_hits: u64,
    /// `warm_hits / warm_attempts`.
    pub warm_hit_rate: f64,
    /// Total simplex iterations of the cold lattice fill.
    pub cold_iterations: u64,
    /// Total simplex iterations of the warm lattice fill.
    pub warm_iterations: u64,
    /// `1 − warm_iterations / cold_iterations` (the headline savings).
    pub iteration_savings_ratio: f64,
    /// Gate 2: warm lattice bit-identical to cold.
    pub warm_bit_identical: bool,
    /// All gates asserted before any timing run.
    pub gates_passed: bool,
    /// Cold lattice fill, best wall-clock.
    pub cold_lattice_secs: f64,
    /// Warm lattice fill, best wall-clock.
    pub warm_lattice_secs: f64,
    /// `cold_lattice_secs / warm_lattice_secs`.
    pub lattice_speedup: f64,
    /// Exact Shapley over the LP game, best wall-clock.
    pub serial_exact_secs: f64,
}

fn best_secs<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        std::hint::black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Runs the gates, then the timings. Panics if any gate fails.
pub fn run_network(study: &NetworkStudy) -> NetworkReport {
    assert!(study.tenants >= 2 && study.tenants <= 20, "2..=20 tenants");
    let network = benchmark_network();
    let links = network.links().len();
    let game = NetworkCarbonGame::new(network, benchmark_demands(study.tenants));
    let n = study.tenants;

    // Gate 1: every routed solve across the lattice passes the KKT
    // certificate with a duality gap within tolerance.
    let mut max_gap = 0.0f64;
    let mut unroutable = 0u64;
    for mask in 0..(1u64 << n) {
        let coalition = Coalition::from_mask(n, mask);
        match game.evaluate(&coalition) {
            CoalitionValue::Routed(sol) => {
                let gap = game.certified_gap(&coalition, &sol).abs();
                let scale = 1.0 + sol.objective.abs();
                assert!(
                    gap <= study.gap_tolerance * scale,
                    "duality gap {gap} above tolerance on mask {mask:#b}"
                );
                max_gap = max_gap.max(gap);
            }
            CoalitionValue::Unroutable { .. } => unroutable += 1,
        }
    }

    // Gate 2: warm lattice bit-identical to cold.
    let (cold_values, cold_stats) = game.fill_lattice_cold();
    let (warm_values, warm_stats) = game.fill_lattice_warm();
    for (mask, (c, w)) in cold_values.iter().zip(&warm_values).enumerate() {
        assert_eq!(
            c.to_bits(),
            w.to_bits(),
            "warm fill diverged from cold on mask {mask:#b}: {c} vs {w}"
        );
    }

    // Gate 3: warm-starting must strictly reduce total simplex
    // iterations — the point of carrying the parent basis around.
    assert!(
        warm_stats.iterations < cold_stats.iterations,
        "warm fill took {} iterations vs cold {}",
        warm_stats.iterations,
        cold_stats.iterations
    );

    // All gates held — now time.
    let cold_lattice_secs = best_secs(study.reps, || game.fill_lattice_cold());
    let warm_lattice_secs = best_secs(study.reps, || game.fill_lattice_warm());
    let serial_exact_secs = best_secs(study.reps, || exact_shapley(&game).unwrap());

    NetworkReport {
        tenants: n,
        coalitions: cold_stats.coalitions,
        links,
        gap_tolerance: study.gap_tolerance,
        max_duality_gap: max_gap,
        unroutable_coalitions: unroutable,
        warm_attempts: warm_stats.warm_attempts,
        warm_hits: warm_stats.warm_hits,
        warm_hit_rate: warm_stats.warm_hits as f64 / warm_stats.warm_attempts.max(1) as f64,
        cold_iterations: cold_stats.iterations,
        warm_iterations: warm_stats.iterations,
        iteration_savings_ratio: 1.0
            - warm_stats.iterations as f64 / cold_stats.iterations.max(1) as f64,
        warm_bit_identical: true,
        gates_passed: true,
        cold_lattice_secs,
        warm_lattice_secs,
        lattice_speedup: cold_lattice_secs / warm_lattice_secs,
        serial_exact_secs,
    }
}

/// Human-readable summary of a [`NetworkReport`].
pub fn print_network(report: &NetworkReport) {
    println!(
        "network    n={:<2} ({} coalitions, {} links)  max gap {:.2e}  warm hits {}/{} ({:.1}%)",
        report.tenants,
        report.coalitions,
        report.links,
        report.max_duality_gap,
        report.warm_hits,
        report.warm_attempts,
        100.0 * report.warm_hit_rate
    );
    println!(
        "           iterations cold {} → warm {} ({:.1}% saved)  lattice {:.4}s → {:.4}s ({:.2}x)",
        report.cold_iterations,
        report.warm_iterations,
        100.0 * report.iteration_savings_ratio,
        report.cold_lattice_secs,
        report.warm_lattice_secs,
        report.lattice_speedup
    );
    println!("           exact Shapley {:.4}s", report.serial_exact_secs);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduced_study_passes_all_gates() {
        let report = run_network(&NetworkStudy {
            tenants: 6,
            reps: 1,
            ..NetworkStudy::default()
        });
        assert!(report.gates_passed);
        assert_eq!(report.coalitions, 64);
        assert_eq!(report.unroutable_coalitions, 0);
        assert!(report.iteration_savings_ratio > 0.0);
    }

    #[test]
    fn benchmark_fabric_routes_every_singleton() {
        let game = NetworkCarbonGame::new(benchmark_network(), benchmark_demands(12));
        for t in 0..12 {
            let c = Coalition::from_mask(12, 1 << t);
            assert!(
                matches!(game.evaluate(&c), CoalitionValue::Routed(_)),
                "tenant {t} must route"
            );
        }
    }
}
