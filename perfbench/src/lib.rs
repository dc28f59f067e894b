//! The repository benchmark: three seeded workloads that drive the
//! Fair-CO2 pipeline through its public APIs the way its users do.
//!
//! * [`fleet`] — `fleet-month`: batch billing of a 30-day, ~4.3M-VM fleet;
//! * [`fairness`] — `fairness-study`: the paper's §6.3 Monte Carlo study
//!   (Figure 7 demand arm, Figure 8/9 colocation arm, sampled audit arm);
//! * [`live`] — `live-service`: one in-memory attribution service, first
//!   catching up on a backlog, then ingesting on an open-loop schedule
//!   while a tenant queries it.
//!
//! Each workload measures for a fixed wall-clock budget, checks its
//! outputs against the repository's documented contracts, and reports
//! either its end-to-end metrics (untraced) or its per-layer metrics
//! (traced: every call into a layer's public functions wrapped in a
//! [`trace::Tracer`] span).

mod fairness;
mod fleet;
mod live;
pub mod report;
mod trace;

use std::time::Duration;

pub use report::{Ledger, Outcome};

/// Which workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Batch billing of a fleet-month.
    FleetMonth,
    /// The §6.3 fairness study.
    FairnessStudy,
    /// The always-on attribution service.
    LiveService,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::FleetMonth,
        Workload::FairnessStudy,
        Workload::LiveService,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetMonth => "fleet-month",
            Workload::FairnessStudy => "fairness-study",
            Workload::LiveService => "live-service",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes of a run. [`Scale::full`] is the benchmark; [`Scale::tiny`]
/// keeps every code path but finishes in well under a second, for the
/// self-tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Expected short VMs over the fleet-month.
    pub fleet_vms: u64,
    /// Fewest set-ups timed per run; `setup_s` is their median.
    pub setups: usize,
    /// Set-ups repeat until this much time has passed, so a quick one is
    /// timed often enough for a steady median.
    pub setup_time: Duration,
    /// Exact-solver coalitions the demand arm's trials add up to per
    /// fairness round.
    pub demand_coalitions: u64,
    /// Candidate demand trials the set-up draws while sizing the demand
    /// arm (more if the coalitions need more).
    pub demand_window: usize,
    /// Colocation-arm trials per fairness round.
    pub colocation_trials: usize,
    /// Schedules audited per fairness round.
    pub audits: usize,
    /// Permutations per sampled audit.
    pub audit_permutations: usize,
    /// Windows replayed by each live-service backfill.
    pub backfill_windows: u64,
    /// Backfills timed per live-service run.
    pub backfills: usize,
    /// Open-loop window rate of the live phase (windows per second).
    pub live_windows_per_s: f64,
    /// Query batches audited against the rebuild per live run.
    pub audited_batches: usize,
}

impl Scale {
    /// The benchmark's sizes.
    pub fn full() -> Self {
        Self {
            fleet_vms: 4_300_000,
            setups: 5,
            setup_time: Duration::from_millis(500),
            demand_coalitions: 50_000_000,
            demand_window: 4_096,
            colocation_trials: 4_096,
            audits: 8,
            audit_permutations: 4_096,
            backfill_windows: 8_192,
            backfills: 5,
            live_windows_per_s: 100.0,
            audited_batches: 256,
        }
    }

    /// Self-test sizes: every path runs, nothing takes long.
    #[cfg(test)]
    pub fn tiny() -> Self {
        Self {
            fleet_vms: 20_000,
            setups: 2,
            setup_time: Duration::ZERO,
            demand_coalitions: 20_000_000,
            demand_window: 64,
            colocation_trials: 48,
            audits: 3,
            audit_permutations: 128,
            backfill_windows: 64,
            backfills: 2,
            live_windows_per_s: 400.0,
            audited_batches: 16,
        }
    }
}

/// One run's parameters.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Wall-clock measurement budget.
    pub budget: Duration,
    /// Report per-layer metrics from a traced run instead of end-to-end
    /// metrics.
    pub traced: bool,
    /// Worker threads for the parallel layers (the study engine, the
    /// sampler): the host's available parallelism.
    pub threads: usize,
    /// Input sizes.
    pub scale: Scale,
}

/// Runs one workload and returns its ledger and metrics.
pub fn run(workload: Workload, cfg: &RunConfig) -> Outcome {
    match workload {
        Workload::FleetMonth => fleet::run(cfg),
        Workload::FairnessStudy => fairness::run(cfg),
        Workload::LiveService => live::run(cfg),
    }
}

/// The host's available parallelism (at least 1).
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// SplitMix64 step: the benchmark's own seeded generator for inputs the
/// library does not generate itself.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `true` when `a` and `b` agree to `rel` relative to the larger
/// magnitude (and exactly when both are zero).
pub fn close(a: f64, b: f64, rel: f64) -> bool {
    (a - b).abs() <= rel * a.abs().max(b.abs())
}
