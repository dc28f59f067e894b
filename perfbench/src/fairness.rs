//! `fairness-study`: the paper's §6.3 evaluation as researchers run it.
//!
//! One round runs three arms one after another, so each arm's throughput
//! isolates its own layers:
//!
//! 1. the Figure-7 demand study through the streaming engine (exact
//!    Gray-code ground truth for up to 22 workloads);
//! 2. the Figure-8/9 colocation study through the engine (matching-game
//!    ground truth);
//! 3. sampled-Shapley audits (`sample_schedule`: the parallel sampler
//!    with the coalition cache) of seeded schedules above the exact
//!    solver's 24-player cap, each one a researcher's request.
//!
//! The engine runs at the host's available parallelism. Each audit runs
//! on one worker: the sampler splits a round's batches statically, so at
//! two workers an audit waits for the slower one, and on a shared host
//! that made its latency swing threefold with the neighbours' load. The
//! traced run replays the arms' trials serially through the same public
//! calls the engine makes, one span per call.
//!
//! Rounds are timed in process CPU time, summed over the engine's
//! workers, which leaves out the time the hypervisor took a core away
//! and any wait for a worker that lost its core.

use std::path::PathBuf;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use fairco2::colocation::{
    ColocationAttributor, FairCo2Colocation, GroundTruthMatching, RupColocation,
};
use fairco2::demand::{
    DemandAttributor, DemandProportional, GroundTruthShapley, RupBaseline, TemporalFairCo2,
};
use fairco2::metrics::summarize;
use fairco2::schedule::Schedule;
use fairco2_bench::sampling::{sample_schedule, SamplingReport};
use fairco2_carbon::units::CarbonIntensity;
use fairco2_montecarlo::checkpoint::demand_fingerprint;
use fairco2_montecarlo::colocations::PerWorkloadDeviation;
use fairco2_montecarlo::schedules::random_schedule;
use fairco2_montecarlo::{
    stream_colocation_study, stream_demand_study, stream_demand_study_resumable, CheckpointSpec,
    ColocationStudy, ColocationStudySummary, ColocationTrial, DemandSnapshot, DemandStudy,
    DemandStudySummary, DemandTrial, EngineConfig, StudyOptions, TrialScratch, WriteFault,
};
use fairco2_shapley::exact::{ExactScratch, MAX_EXACT_PLAYERS};
use fairco2_shapley::game::PeakDemandGame;
use fairco2_shapley::{parallel_sampled_shapley, Coalition, Game, ParallelConfig, SampleConfig};
use fairco2_workloads::history::sampled_profile_from_population;
use fairco2_workloads::NodeAccounting;

use crate::report::{
    median, peak_rss_mib, quantile, set_setup, set_work, timed_setups, Outcome, Stopwatch, Times,
};
use crate::trace::{report_totals, span, Tracer};
use crate::{close, splitmix, RunConfig};

/// Largest game the coalition cache handles.
const CACHE_PLAYERS: usize = 64;
/// Carbon pool of the demand trials (cancels in percentage deviations).
const POOL: f64 = 1000.0;

/// The generated inputs of one study round.
pub struct Study {
    /// Figure-7 demand study.
    pub demand: DemandStudy,
    /// Figure-8/9 colocation study.
    pub colocation: ColocationStudy,
    /// Schedules the sampling arm audits, each with its sampler seed.
    pub audits: Vec<(Schedule, u64)>,
    /// Permutations per audit.
    pub permutations: usize,
}

impl Study {
    /// The round's inputs for `seed`.
    pub fn generate(seed: u64, scale: &crate::Scale) -> Self {
        let mut rng = seed ^ 0x5AFE_57D1;
        // Exact ground truth costs 2^n per schedule, so a fixed trial
        // count would make a round's work swing with how many 20–22
        // workload schedules a seed draws. The arm instead runs as many
        // trials as it takes to reach a fixed number of coalitions,
        // counted over a fixed window of candidate trials: the set-up
        // then draws as many schedules for every seed.
        let mut demand = DemandStudy {
            trials: 0,
            base_seed: splitmix(&mut rng),
            ..DemandStudy::default()
        };
        let mut scratch = TrialScratch::new();
        let mut coalitions = 0u64;
        let mut candidate = 0;
        while candidate < scale.demand_window || coalitions < scale.demand_coalitions {
            let schedule = demand.generate_schedule_with(candidate, &mut scratch);
            if coalitions < scale.demand_coalitions {
                coalitions += 1 << schedule.workloads().len();
                demand.trials += 1;
            }
            candidate += 1;
        }
        let colocation = ColocationStudy {
            trials: scale.colocation_trials,
            base_seed: splitmix(&mut rng),
            ..ColocationStudy::default()
        };
        // The paper's schedule generator over horizons long enough that
        // it stops at the workload cap, so each audit's size is fixed:
        // evenly spread from just above exact enumeration to the cache's
        // limit.
        let mut sched_rng = StdRng::seed_from_u64(splitmix(&mut rng));
        let audits = (0..scale.audits)
            .map(|i| {
                let span = CACHE_PLAYERS - MAX_EXACT_PLAYERS - 1;
                let players = MAX_EXACT_PLAYERS + 1 + span * i / (scale.audits - 1).max(1);
                loop {
                    let s = random_schedule(&mut sched_rng, 48, 64, players);
                    if s.workloads().len() == players {
                        break (s, splitmix(&mut rng));
                    }
                }
            })
            .collect();
        Self {
            demand,
            colocation,
            audits,
            permutations: scale.audit_permutations,
        }
    }

    /// Trials and audits in one round.
    fn operations(&self) -> u64 {
        (self.demand.trials + self.colocation.trials + self.audits.len()) as u64
    }
}

/// What one round produced, rendered for bit-for-bit comparison.
#[derive(Debug, Clone, PartialEq)]
struct RoundResult {
    demand: String,
    colocation: String,
    audits: Vec<AuditKey>,
}

/// An audit report's deterministic part (its timing fields vary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AuditKey {
    permutations: usize,
    max_std_error_bits: u64,
    coalition_evals: u64,
    marginal_updates: u64,
    cache_hits: u64,
    cache_misses: u64,
}

impl AuditKey {
    fn of(r: &SamplingReport) -> Self {
        Self {
            permutations: r.permutations,
            max_std_error_bits: r.max_std_error.to_bits(),
            coalition_evals: r.counters.coalition_evals,
            marginal_updates: r.counters.marginal_updates,
            cache_hits: r.counters.cache_hits,
            cache_misses: r.counters.cache_misses,
        }
    }
}

/// CPU seconds of each arm of a round.
#[derive(Debug, Clone, Copy, Default)]
struct ArmTimes {
    demand_s: f64,
    colocation_s: f64,
    sampling_s: f64,
}

/// One round: the studies through the engine at `threads` workers, then
/// the audits, one worker each; `audit_us` receives each audit's
/// latency.
fn engine_round(study: &Study, threads: usize, audit_us: &mut Vec<f64>) -> (RoundResult, ArmTimes) {
    let watch = Stopwatch::start();
    let (demand, _, _) = stream_demand_study(&study.demand, EngineConfig::new(threads));
    let demand_s = watch.cpu_s();
    let (colocation, _, _) = stream_colocation_study(&study.colocation, EngineConfig::new(threads));
    let colocation_s = watch.cpu_s() - demand_s;
    let mut audits = Vec::with_capacity(study.audits.len());
    for (schedule, seed) in &study.audits {
        let a0 = Instant::now();
        let report = sample_schedule(schedule, study.permutations, 1, *seed);
        audit_us.push(a0.elapsed().as_secs_f64() * 1e6);
        audits.push(AuditKey::of(&report));
    }
    let sampling_s = watch.cpu_s() - demand_s - colocation_s;
    (
        RoundResult {
            demand: format!("{demand:?}"),
            colocation: format!("{colocation:?}"),
            audits,
        },
        ArmTimes {
            demand_s,
            colocation_s,
            sampling_s,
        },
    )
}

/// Counters of a traced round.
#[derive(Debug, Default, Clone, Copy)]
struct RoundCounts {
    exact_coalitions: u64,
    coalition_evals: u64,
    cache_hits: u64,
    cache_misses: u64,
}

/// One round replayed serially through the public calls the engine's
/// trial functions make, each a span when traced; the summaries are
/// folded exactly as the engine folds them, so they must equal the
/// engine's bit for bit.
fn replay_round(study: &Study, tracer: Option<&Tracer>, counts: &mut RoundCounts) -> RoundResult {
    let batch = EngineConfig::new(1).batch_trials;
    let mut scratch = TrialScratch::new();
    let mut exact = ExactScratch::for_players(study.demand.max_workloads);
    let (mut truth, mut shares, mut fair) = (Vec::new(), Vec::new(), Vec::new());

    let mut demand_trials = Vec::with_capacity(study.demand.trials);
    for trial in 0..study.demand.trials {
        let schedule = span(tracer, "montecarlo.generate", || {
            study.demand.generate_schedule_with(trial, &mut scratch)
        });
        span(tracer, "shapley.exact", || {
            GroundTruthShapley.attribute_with_scratch(&schedule, POOL, &mut exact, &mut truth)
        })
        .expect("generated schedules are solvable");
        counts.exact_coalitions += 1 << schedule.workloads().len();
        let mut baseline = |method: &dyn DemandAttributor| {
            span(tracer, "core.baselines", || {
                method
                    .attribute_into(&schedule, POOL, &mut shares)
                    .expect("generated schedules are attributable");
                summarize(&shares, &truth).expect("ground truth has non-zero shares")
            })
        };
        let rup = baseline(&RupBaseline);
        let demand_proportional = baseline(&DemandProportional);
        let fair_co2 = baseline(&TemporalFairCo2::per_step());
        demand_trials.push(DemandTrial {
            trial,
            time_slices: schedule.steps(),
            workloads: schedule.workloads().len(),
            rup,
            demand_proportional,
            fair_co2,
        });
    }
    let demand = DemandStudySummary::from_trials(&study.demand, &demand_trials, batch);

    let colo = &study.colocation;
    let mut colocation_trials = Vec::with_capacity(colo.trials);
    let mut kinds = Vec::new();
    let mut profiles = Vec::new();
    for trial in 0..colo.trials {
        let (scenario, grid_ci, samples) = span(tracer, "montecarlo.generate", || {
            colo.generate_with(trial, &mut scratch)
        });
        let ctx = NodeAccounting::paper_default(CarbonIntensity::from_g_per_kwh(grid_ci));
        span(tracer, "shapley.matching", || {
            GroundTruthMatching.attribute_into(&scenario, &ctx, &mut truth)
        })
        .expect("scenario is non-empty");
        span(tracer, "core.baselines", || {
            RupColocation.attribute_into(&scenario, &ctx, &mut shares)
        })
        .expect("scenario is non-empty");
        // Each workload samples its history from the scenario's other
        // members, seeded per trial as the study does.
        let placed = scenario.workloads();
        kinds.clear();
        kinds.extend(placed.iter().map(|w| w.kind));
        let mut rng =
            StdRng::seed_from_u64(colo.base_seed.wrapping_add(trial as u64) ^ 0x5A5A_5A5A);
        span(tracer, "workloads.profile_sampling", || {
            profiles.clear();
            for (i, w) in placed.iter().enumerate() {
                let mut pool = kinds.clone();
                pool.swap_remove(i);
                profiles.push(sampled_profile_from_population(
                    ctx.interference(),
                    w.kind,
                    &pool,
                    samples,
                    &mut rng,
                ));
            }
        });
        span(tracer, "core.fairco2_colocation", || {
            FairCo2Colocation::with_full_history()
                .attribute_profiles_into(&scenario, &ctx, &profiles, &mut fair)
        })
        .expect("profiles are aligned");
        let per_workload = placed
            .iter()
            .zip(truth.iter().zip(shares.iter().zip(&fair)))
            .map(|(w, (&t, (&r, &f)))| PerWorkloadDeviation {
                kind: w.kind,
                partner: w.partner,
                rup_pct: 100.0 * (r - t) / t,
                fair_pct: 100.0 * (f - t) / t,
            })
            .collect();
        colocation_trials.push(ColocationTrial {
            trial,
            workloads: placed.len(),
            grid_ci,
            samples,
            rup: summarize(&shares, &truth).expect("non-zero truth shares"),
            fair_co2: summarize(&fair, &truth).expect("non-zero truth shares"),
            per_workload,
        });
    }
    let colocation = ColocationStudySummary::from_trials(colo, &colocation_trials, batch);

    let mut audits = Vec::with_capacity(study.audits.len());
    for (schedule, seed) in &study.audits {
        let report = span(tracer, "shapley.sampled", || {
            sample_schedule(schedule, study.permutations, 1, *seed)
        });
        counts.coalition_evals += report.counters.coalition_evals;
        counts.cache_hits += report.counters.cache_hits;
        counts.cache_misses += report.counters.cache_misses;
        audits.push(AuditKey::of(&report));
    }
    RoundResult {
        demand: format!("{demand:?}"),
        colocation: format!("{colocation:?}"),
        audits,
    }
}

/// Checks a round against the first round, bit for bit.
fn check_round(out: &mut Outcome, what: &str, r: &RoundResult, first: &RoundResult) {
    out.ledger.check(r.demand == first.demand, || {
        format!("{what}: demand summary differs from the first round's")
    });
    out.ledger.check(r.colocation == first.colocation, || {
        format!("{what}: colocation summary differs from the first round's")
    });
    for (i, (a, b)) in r.audits.iter().zip(&first.audits).enumerate() {
        out.ledger.check(a == b, || {
            format!("{what}: audit {i} reads {a:?}, first round {b:?}")
        });
    }
}

/// The sampled values behind every audit: the same computation
/// `sample_schedule` runs, at 1 and `threads` workers, must agree bit
/// for bit and satisfy Σφ = v(N). Runs outside the timed rounds.
fn check_audits(out: &mut Outcome, study: &Study, first: &RoundResult, threads: usize) {
    for (i, (schedule, seed)) in study.audits.iter().enumerate() {
        let game = PeakDemandGame::new(schedule.demand_matrix());
        let config = |threads| ParallelConfig {
            sample: SampleConfig {
                max_permutations: study.permutations,
                ..SampleConfig::default()
            },
            threads,
            coalition_cache: true,
            ..ParallelConfig::default()
        };
        let many = parallel_sampled_shapley(&game, &config(threads), *seed).estimate;
        let one = parallel_sampled_shapley(&game, &config(1), *seed).estimate;
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        out.ledger
            .check(bits(&many.values) == bits(&one.values), || {
                format!("audit {i}: sampled values differ between 1 and {threads} workers")
            });
        let key = first.audits[i];
        out.ledger.check(
            many.permutations == key.permutations
                && many.max_std_error().to_bits() == key.max_std_error_bits,
            || format!("audit {i}: the direct sampler differs from sample_schedule"),
        );
        let n = schedule.workloads().len();
        let grand = game.value(&Coalition::grand(n));
        let sum: f64 = many.values.iter().sum();
        out.ledger.check(close(sum, grand, 1e-9), || {
            format!("audit {i}: Σφ = {sum} but v(N) = {grand}")
        });
    }
}

/// Where the traced run writes its checkpoint: beside the benchmark's
/// executable, inside the build directory.
fn io_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("own executable path");
    let dir = exe
        .parent()
        .expect("executable has a directory")
        .join("perfbench-io");
    std::fs::create_dir_all(&dir).expect("create the checkpoint directory");
    dir
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let (study, setup) = timed_setups(cfg.scale.setups, cfg.scale.setup_time, || {
        Study::generate(cfg.seed, &cfg.scale)
    });
    let deadline = Instant::now() + cfg.budget;

    if cfg.traced {
        run_traced(cfg, &study, deadline, &mut out);
        return out;
    }

    let mut audit_us = Vec::new();
    let mut rounds = Times::default();
    let mut arm_times = Vec::new();
    let mut first: Option<RoundResult> = None;
    while rounds.len() < 3 || Instant::now() < deadline {
        let watch = Stopwatch::start();
        let (r, arms) = engine_round(&study, cfg.threads, &mut audit_us);
        rounds.record(&watch);
        arm_times.push(arms);
        out.ledger.attempt(study.operations());
        let first = first.get_or_insert_with(|| r.clone());
        check_round(&mut out, "round", &r, first);
    }
    let first = first.expect("at least one round");
    // Thread invariance: the engine's summaries at one worker.
    let (demand, _, _) = stream_demand_study(&study.demand, EngineConfig::new(1));
    let (colocation, _, _) = stream_colocation_study(&study.colocation, EngineConfig::new(1));
    out.ledger.check(format!("{demand:?}") == first.demand, || {
        format!(
            "demand summary differs between 1 and {} workers",
            cfg.threads
        )
    });
    out.ledger
        .check(format!("{colocation:?}") == first.colocation, || {
            format!(
                "colocation summary differs between 1 and {} workers",
                cfg.threads
            )
        });
    check_audits(&mut out, &study, &first, cfg.threads);

    let arm = |f: fn(&ArmTimes) -> f64| median(&arm_times.iter().map(f).collect::<Vec<_>>());
    let perms = (study.permutations * study.audits.len()) as f64;
    set_setup(&mut out, &setup);
    out.set("peak_rss_mib", peak_rss_mib());
    set_work(&mut out, &rounds);
    out.detail(
        "demand_trials_per_cpu_s",
        study.demand.trials as f64 / arm(|a| a.demand_s),
        "1/s",
    );
    out.detail(
        "colocation_trials_per_cpu_s",
        study.colocation.trials as f64 / arm(|a| a.colocation_s),
        "1/s",
    );
    out.detail(
        "sampling_perms_per_cpu_s",
        perms / arm(|a| a.sampling_s),
        "1/s",
    );
    out.detail("round_median_s", median(&rounds.wall_s), "s");
    out.detail("audit_p50_us", median(&audit_us), "us");
    out.detail("audit_p99_us", quantile(&audit_us, 0.99), "us");
    out.detail("rounds", rounds.len() as f64, "count");
    out.detail("audits", audit_us.len() as f64, "count");
    out.detail("threads", cfg.threads as f64, "count");
    out
}

/// The traced run: serial replayed rounds, traced and untraced in turn,
/// then one engine run that checkpoints, for the engine's counters and
/// the snapshot's write and restore times.
fn run_traced(cfg: &RunConfig, study: &Study, deadline: Instant, out: &mut Outcome) {
    let tracer = Tracer::new();
    let mut counts = RoundCounts::default();
    let (mut traced_s, mut untraced_s) = (Vec::new(), Vec::new());
    let mut first = None;
    while traced_s.is_empty() || Instant::now() < deadline {
        let t0 = Instant::now();
        let r = replay_round(study, None, &mut RoundCounts::default());
        untraced_s.push(t0.elapsed().as_secs_f64());
        let first = first.get_or_insert_with(|| r.clone());
        check_round(out, "replayed round", &r, first);
        let t0 = Instant::now();
        let r = tracer.span("perfbench.harness", || {
            replay_round(study, Some(&tracer), &mut counts)
        });
        traced_s.push(t0.elapsed().as_secs_f64());
        check_round(out, "traced round", &r, first);
        out.ledger.attempt(2 * study.operations());
    }
    let first = first.expect("at least one round");

    // The engine, checkpointing after every batch: its summary must equal
    // the serial replay's.
    let path = io_dir().join(format!("demand-{}.ckpt", cfg.seed));
    let engine = EngineConfig::new(cfg.threads);
    let opts = StudyOptions {
        checkpoint: Some(CheckpointSpec::new(&path, 1)),
        ..StudyOptions::default()
    };
    let (summary, _, stats) =
        stream_demand_study_resumable(&study.demand, engine, &opts, |_, _| {})
            .expect("study completes");
    out.ledger
        .check(format!("{summary:?}") == first.demand, || {
            "engine demand summary differs from the serial replay".to_owned()
        });
    let fingerprint = demand_fingerprint(&study.demand, engine.batch_trials);
    let t0 = Instant::now();
    let snapshot =
        DemandSnapshot::load(&path, &fingerprint).expect("the study's own snapshot loads");
    let restore_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = Instant::now();
    snapshot
        .save(&path, WriteFault::None)
        .expect("snapshot saves");
    let write_ms = t0.elapsed().as_secs_f64() * 1e3;
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    out.ledger.check(
        DemandSnapshot::load(&path, &fingerprint).ok().as_ref() == Some(&snapshot),
        || "rewritten snapshot does not round-trip".to_owned(),
    );
    let _ = std::fs::remove_file(&path);

    let rounds = traced_s.len() as f64;
    let p = tracer.profile();
    let per_round = |name: &str| p.self_ms(name) / rounds;
    out.set("montecarlo.generate_ms", per_round("montecarlo.generate"));
    out.set("shapley.exact_ms", per_round("shapley.exact"));
    out.set(
        "shapley.exact_coalitions",
        counts.exact_coalitions as f64 / rounds,
    );
    out.set("core.baselines_ms", per_round("core.baselines"));
    out.set("shapley.matching_ms", per_round("shapley.matching"));
    out.set(
        "workloads.profile_sampling_ms",
        per_round("workloads.profile_sampling"),
    );
    out.set(
        "core.fairco2_colocation_ms",
        per_round("core.fairco2_colocation"),
    );
    out.set("shapley.sampled_ms", per_round("shapley.sampled"));
    out.set(
        "shapley.coalition_evals",
        counts.coalition_evals as f64 / rounds,
    );
    let lookups = counts.cache_hits + counts.cache_misses;
    out.set(
        "shapley.cache_hit_ratio",
        counts.cache_hits as f64 / (lookups.max(1)) as f64,
    );
    out.set("montecarlo.retries", stats.retries as f64);
    out.set("montecarlo.requeued_batches", stats.requeued_batches as f64);
    out.set(
        "montecarlo.scratch_table_grows",
        stats.scratch.table_grows as f64,
    );
    out.set("montecarlo.checkpoint_write_ms", write_ms);
    out.set("montecarlo.checkpoint_restore_ms", restore_ms);
    out.set("montecarlo.checkpoint_bytes", bytes as f64);
    report_totals(out, &p, &traced_s, &untraced_s);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::tests::assert_reports_every_metric;
    use crate::{Scale, Workload};
    use std::time::Duration;

    fn tiny(traced: bool) -> RunConfig {
        RunConfig {
            seed: 4,
            budget: Duration::ZERO,
            traced,
            threads: 2,
            scale: Scale::tiny(),
        }
    }

    #[test]
    fn replay_matches_the_engine_and_a_wrong_answer_is_counted() {
        let study = Study::generate(4, &Scale::tiny());
        assert!(study
            .audits
            .iter()
            .all(|(s, _)| (MAX_EXACT_PLAYERS + 1..=CACHE_PLAYERS).contains(&s.workloads().len())));
        let (engine, _) = engine_round(&study, 2, &mut Vec::new());
        let replay = replay_round(&study, None, &mut RoundCounts::default());
        let mut out = Outcome::default();
        check_round(&mut out, "replay", &replay, &engine);
        assert_eq!(out.ledger.failed, 0, "{:?}", out.ledger.failures);

        let mut wrong = engine.clone();
        wrong.audits[0].max_std_error_bits ^= 1;
        check_round(&mut out, "tampered", &wrong, &engine);
        assert_eq!(out.ledger.failed, 1);
        check_audits(&mut out, &study, &wrong, 2);
        assert_eq!(
            out.ledger.failed, 2,
            "the sampler no longer matches the tampered report"
        );
    }

    #[test]
    fn workload_reports_every_metric() {
        assert_reports_every_metric(Workload::FairnessStudy, &tiny(false));
        assert_reports_every_metric(Workload::FairnessStudy, &tiny(true));
    }
}
