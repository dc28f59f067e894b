//! Golden pins of the checkpoint bytes on disk.
//!
//! A checkpoint written by one build must resume under the next, so the
//! envelope and the snapshot payloads are a format, not an
//! implementation detail. These tests write one snapshot of each
//! built-in study at a fixed study, batch size and cut, and pin the
//! FNV-1a digest of the file's text. The demand snapshot is cut by the
//! engine itself (one worker, a checkpoint after every batch, killed
//! after the third write), so the pin also covers what the engine puts
//! in a snapshot: frontier, merged summary and carried stats. The
//! colocation snapshot is built by hand with a batch parked ahead of
//! the frontier, which pins the reorder-buffer encoding.

use std::path::PathBuf;

use fairco2_montecarlo::checkpoint::{fnv1a_hex, PendingColocationBatch};
use fairco2_montecarlo::streaming::ColocationStudySummary;
use fairco2_montecarlo::{
    stream_demand_study_resumable, CheckpointSpec, ColocationSnapshot, ColocationStudy,
    DemandStudy, EngineConfig, EngineError, EngineStats, FaultPlan, StudyOptions, WriteFault,
    CHECKPOINT_VERSION,
};

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("fairco2-checkpoint-golden");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("{}-{name}.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

fn digest_of(path: &PathBuf) -> String {
    let text = std::fs::read_to_string(path).expect("checkpoint written");
    let _ = std::fs::remove_file(path);
    assert!(
        text.starts_with(&format!("{{\"version\":{CHECKPOINT_VERSION},")),
        "envelope changed shape"
    );
    fnv1a_hex(text.as_bytes())
}

#[test]
fn demand_snapshot_bytes_are_pinned() {
    assert_eq!(CHECKPOINT_VERSION, 1);
    let study = DemandStudy {
        trials: 30,
        max_workloads: 8,
        ..DemandStudy::default()
    };
    let path = tmp("demand");
    let killed = stream_demand_study_resumable(
        &study,
        EngineConfig {
            threads: 1,
            batch_trials: 4,
        },
        &StudyOptions {
            checkpoint: Some(CheckpointSpec::new(&path, 1)),
            faults: FaultPlan {
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
    assert_eq!(digest_of(&path), "3f1f1c067b7d0d7f");
}

#[test]
fn colocation_snapshot_bytes_are_pinned() {
    let study = ColocationStudy {
        trials: 20,
        max_workloads: 12,
        ..ColocationStudy::default()
    };
    let trials: Vec<_> = (0..study.trials).map(|t| study.run_trial(t)).collect();
    // Frontier after batches {0, 1} of 5 trials; batch 3 finished early
    // and sits in the reorder buffer.
    let snap = ColocationSnapshot {
        fingerprint: fairco2_montecarlo::checkpoint::colocation_fingerprint(&study, 5),
        frontier: 2,
        summary: ColocationStudySummary::from_trials(&study, &trials[0..10], 5),
        pending: vec![PendingColocationBatch {
            batch: 3,
            summary: ColocationStudySummary::from_trials(&study, &trials[15..20], 5),
        }],
        stats: EngineStats {
            trials: 10,
            batches: 2,
            threads: 2,
            retries: 1,
            requeued_batches: 1,
            ..EngineStats::default()
        },
    };
    let path = tmp("colocation");
    snap.save(&path, WriteFault::None).expect("save");
    assert_eq!(digest_of(&path), "274fb0b28ee205c6");
}
