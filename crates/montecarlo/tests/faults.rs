//! Fault-plan proptests for the study engine's containment layer.
//!
//! The contract: any [`FaultPlan`] whose failures stay within the retry
//! budget yields a summary bit-identical to a fault-free run, with the
//! retry/requeue counters accounting for every injected failure; a plan
//! that exceeds the budget surfaces [`EngineError::BatchAbandoned`] —
//! the run always terminates, never silently short.

use std::sync::OnceLock;

use fairco2_montecarlo::streaming::{ColocationStudySummary, DemandStudySummary};
use fairco2_montecarlo::{
    run_study, stream_demand_study_resumable, BatchFault, ColocationStudy, DemandStudy,
    EngineConfig, EngineError, FaultKind, FaultPlan, StudyOptions, TrialFault,
};
use fairco2_shapley::parallel::panic_message;
use proptest::prelude::*;

const BATCH: usize = 4;
const THREAD_CHOICES: [usize; 3] = [1, 2, 8];
const KINDS: [FaultKind; 2] = [FaultKind::Panic, FaultKind::Error];

fn small_demand() -> DemandStudy {
    DemandStudy {
        trials: 33,
        max_workloads: 8,
        ..DemandStudy::default()
    }
}

fn cfg(threads: usize, batch_trials: usize) -> EngineConfig {
    EngineConfig {
        threads,
        batch_trials,
    }
}

/// Silences the default panic hook for the panics this suite injects on
/// purpose (the engine catches them; the hook would still print).
fn quiet_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !panic_message(info.payload()).contains("injected") {
                default(info);
            }
        }));
    });
}

fn demand_reference() -> &'static DemandStudySummary {
    static REF: OnceLock<DemandStudySummary> = OnceLock::new();
    REF.get_or_init(|| {
        let (summary, _, _) = stream_demand_study_resumable(
            &small_demand(),
            cfg(1, BATCH),
            &StudyOptions::default(),
            |_, _| {},
        )
        .expect("fault-free run");
        summary
    })
}

fn bits(s: &DemandStudySummary) -> String {
    serde_json::to_string(s).expect("summaries serialize")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A batch fault plus a trial fault (panic or error, possibly in the
    /// same batch), each firing up to twice under a retry budget of two:
    /// the study completes, the summary is bit-identical to the
    /// fault-free run, and the counters account for every failure.
    #[test]
    fn faults_under_budget_preserve_summary_bits(
        fault_batch in 0usize..9,
        batch_times in 1u32..=2,
        fault_trial in 0usize..33,
        trial_times in 1u32..=2,
        batch_kind in 0usize..2,
        trial_kind in 0usize..2,
        threads_sel in 0usize..3,
    ) {
        quiet_injected_panics();
        let study = small_demand();
        let threads = THREAD_CHOICES[threads_sel];
        let plan = FaultPlan {
            batches: vec![BatchFault {
                batch: fault_batch,
                kind: KINDS[batch_kind],
                times: batch_times,
            }],
            trials: vec![TrialFault {
                trial: fault_trial,
                kind: KINDS[trial_kind],
                times: trial_times,
            }],
            ..FaultPlan::default()
        };
        let opts = StudyOptions {
            retry_budget: 2,
            faults: plan,
            ..StudyOptions::default()
        };
        let (summary, _, stats) =
            stream_demand_study_resumable(&study, cfg(threads, BATCH), &opts, |_, _| {})
                .expect("faults stay under the retry budget");

        prop_assert_eq!(&summary, demand_reference());
        prop_assert_eq!(bits(&summary), bits(demand_reference()));

        // Both faults key off the batch's attempt number, so two faults
        // in the same batch overlap (an attempt fails if either fires)
        // while faults in different batches fail independently.
        let same_batch = fault_trial / BATCH == fault_batch;
        let expected_retries = if same_batch {
            batch_times.max(trial_times)
        } else {
            batch_times + trial_times
        } as u64;
        let expected_requeues = if same_batch { 1 } else { 2 };
        prop_assert_eq!(stats.retries, expected_retries);
        prop_assert_eq!(stats.requeued_batches, expected_requeues);
        prop_assert!(stats.retries > 0, "plan must exercise the retry path");
        prop_assert_eq!(stats.trials, study.trials as u64);
    }

    /// A fault that outlives the budget abandons its batch with the
    /// documented typed error — deterministically naming the batch and
    /// the attempt count — instead of hanging or under-reporting trials.
    #[test]
    fn faults_over_budget_abandon_the_batch(
        fault_batch in 0usize..9,
        kind in 0usize..2,
        threads_sel in 0usize..3,
    ) {
        quiet_injected_panics();
        let study = small_demand();
        let threads = THREAD_CHOICES[threads_sel];
        let opts = StudyOptions {
            retry_budget: 1,
            faults: FaultPlan {
                batches: vec![BatchFault {
                    batch: fault_batch,
                    kind: KINDS[kind],
                    times: 2, // budget + 1 failures
                }],
                ..FaultPlan::default()
            },
            ..StudyOptions::default()
        };
        let err = stream_demand_study_resumable(&study, cfg(threads, BATCH), &opts, |_, _| {})
            .expect_err("budget must be exceeded");
        match err {
            EngineError::BatchAbandoned {
                batch,
                attempts,
                last_error,
            } => {
                prop_assert_eq!(batch, fault_batch);
                prop_assert_eq!(attempts, 2);
                prop_assert!(last_error.contains("injected fault"), "{}", last_error);
            }
            other => prop_assert!(false, "unexpected error {other:?}"),
        }
    }
}

/// The colocation engine shares the containment path; one end-to-end
/// check that a panicking batch recovers bit-identically there too.
#[test]
fn colocation_faults_under_budget_preserve_summary_bits() {
    quiet_injected_panics();
    let study = ColocationStudy {
        trials: 21,
        max_workloads: 12,
        ..ColocationStudy::default()
    };
    let reference: ColocationStudySummary =
        run_study(&study, cfg(1, 5), &StudyOptions::default(), |_, _| {}, None)
            .expect("fault-free run")
            .0;
    for threads in THREAD_CHOICES {
        let opts = StudyOptions {
            retry_budget: 1,
            faults: FaultPlan {
                batches: vec![BatchFault {
                    batch: 1,
                    kind: FaultKind::Panic,
                    times: 1,
                }],
                ..FaultPlan::default()
            },
            ..StudyOptions::default()
        };
        let (summary, stats) =
            run_study(&study, cfg(threads, 5), &opts, |_, _| {}, None).expect("within budget");
        assert_eq!(summary, reference, "threads = {threads}");
        assert_eq!(
            serde_json::to_string(&summary).unwrap(),
            serde_json::to_string(&reference).unwrap(),
            "threads = {threads}"
        );
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.requeued_batches, 1);
    }
}

/// Faults composed with checkpointing: a run that panics (within
/// budget), checkpoints, and is then killed still resumes to the
/// bit-identical summary, and the resumed totals keep the pre-kill
/// retry counts.
#[test]
fn faults_and_kill_compose_with_resume() {
    quiet_injected_panics();
    let study = small_demand();
    let dir = std::env::temp_dir().join("fairco2-checkpoint-tests");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("{}-faults-kill.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let spec = fairco2_montecarlo::CheckpointSpec::new(&path, 1);

    let killed = stream_demand_study_resumable(
        &study,
        cfg(2, BATCH),
        &StudyOptions {
            checkpoint: Some(spec.clone()),
            retry_budget: 2,
            faults: FaultPlan {
                batches: vec![BatchFault {
                    batch: 0,
                    kind: FaultKind::Panic,
                    times: 2,
                }],
                kill_after_writes: Some(3),
                ..FaultPlan::default()
            },
            ..StudyOptions::default()
        },
        |_, _| {},
    );
    assert!(
        matches!(killed, Err(EngineError::Killed { writes: 3 })),
        "{killed:?}"
    );

    let (resumed, _, stats) = stream_demand_study_resumable(
        &study,
        cfg(2, BATCH),
        &StudyOptions {
            checkpoint: Some(spec),
            resume: true,
            ..StudyOptions::default()
        },
        |_, _| {},
    )
    .expect("resume completes");
    assert_eq!(bits(&resumed), bits(demand_reference()));
    // Batch 0 merges first, so its two pre-kill retries are always in
    // the checkpointed stats the resumed run carries forward.
    assert_eq!(stats.retries, 2);
    assert_eq!(stats.requeued_batches, 1);
    let _ = std::fs::remove_file(&path);
}
