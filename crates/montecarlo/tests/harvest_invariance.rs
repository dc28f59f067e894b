//! Thread-invariance pins for the streaming harvest and trial-sink paths:
//! the JSONL byte stream and the observed trial order must be identical
//! at 1, 2, and 8 worker threads.

use fairco2_montecarlo::engine::{EngineConfig, StudyOptions};
use fairco2_montecarlo::harvest::harvest_demand_study_jsonl;
use fairco2_montecarlo::schedules::DemandStudy;
use fairco2_montecarlo::{run_study, ColocationStudy, ColocationTrial, DemandTrial};

fn small_demand() -> DemandStudy {
    DemandStudy {
        trials: 41,
        max_workloads: 8,
        ..DemandStudy::default()
    }
}

#[test]
fn harvest_jsonl_bytes_are_thread_invariant() {
    let study = small_demand();
    let mut baseline = Vec::new();
    harvest_demand_study_jsonl(&study, 1, 8, &mut baseline).expect("in-memory write");
    assert_eq!(
        baseline.iter().filter(|&&b| b == b'\n').count(),
        study.trials,
        "one JSONL line per trial"
    );
    for threads in [2usize, 8] {
        let mut buf = Vec::new();
        harvest_demand_study_jsonl(&study, threads, 8, &mut buf).expect("in-memory write");
        assert_eq!(buf, baseline, "harvest bytes differ at {threads} threads");
    }
}

#[test]
fn demand_sink_observes_trials_in_order_at_any_thread_count() {
    let study = small_demand();
    let observe = |threads: usize| {
        let mut seen: Vec<(usize, u64)> = Vec::new();
        let cfg = EngineConfig {
            threads,
            batch_trials: 8,
        };
        let (summary, _) = run_study(
            &study,
            cfg,
            &StudyOptions::default(),
            |_, _| {},
            Some(&mut |trial: DemandTrial| {
                seen.push((trial.trial, trial.rup.average_pct.to_bits()))
            }),
        )
        .expect("clean run");
        (summary, seen)
    };
    let (base_summary, base_seen) = observe(1);
    assert_eq!(base_seen.len(), study.trials);
    assert!(base_seen.windows(2).all(|w| w[0].0 + 1 == w[1].0));
    for threads in [2usize, 8] {
        let (summary, seen) = observe(threads);
        assert_eq!(
            summary, base_summary,
            "summary differs at {threads} threads"
        );
        assert_eq!(seen, base_seen, "trial stream differs at {threads} threads");
    }
}

#[test]
fn colocation_sink_observes_trials_in_order_at_any_thread_count() {
    let study = ColocationStudy {
        trials: 17,
        max_workloads: 12,
        ..ColocationStudy::default()
    };
    let observe = |threads: usize| {
        let mut seen: Vec<usize> = Vec::new();
        let cfg = EngineConfig {
            threads,
            batch_trials: 4,
        };
        run_study(
            &study,
            cfg,
            &StudyOptions::default(),
            |_, _| {},
            Some(&mut |trial: ColocationTrial| seen.push(trial.trial)),
        )
        .expect("clean run");
        seen
    };
    let base = observe(1);
    assert_eq!(base, (0..study.trials).collect::<Vec<_>>());
    for threads in [2usize, 8] {
        assert_eq!(observe(threads), base, "order differs at {threads} threads");
    }
}
