//! Golden pin of the Azure-scale checkpoint bytes on disk.
//!
//! The engine cuts the snapshot itself (one worker, a checkpoint after
//! every batch, killed after the second write), so the pinned FNV-1a
//! digest of the file's text covers the envelope, the `ScaleSnapshot`
//! field encoding and what the engine records in it.

use fairco2_bench::scale::run_azure_scale;
use fairco2_bench::AzureScaleStudy;
use fairco2_montecarlo::checkpoint::fnv1a_hex;
use fairco2_montecarlo::{
    CheckpointSpec, EngineConfig, EngineError, FaultPlan, StudyOptions, CHECKPOINT_VERSION,
};

#[test]
fn scale_snapshot_bytes_are_pinned() {
    let study = AzureScaleStudy {
        vms: 3_000,
        days: 2,
        regions: 2,
        tenants: 4,
        seed: 7,
        ..AzureScaleStudy::default()
    };
    let path =
        std::env::temp_dir().join(format!("fairco2-scale-golden-{}.ckpt", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let killed = run_azure_scale(
        &study,
        EngineConfig {
            threads: 1,
            batch_trials: 360,
        },
        &StudyOptions {
            checkpoint: Some(CheckpointSpec::new(&path, 1)),
            faults: FaultPlan {
                kill_after_writes: Some(2),
                ..FaultPlan::default()
            },
            ..StudyOptions::default()
        },
    );
    assert!(
        matches!(killed, Err(EngineError::Killed { writes: 2 })),
        "{killed:?}"
    );
    let text = std::fs::read_to_string(&path).expect("checkpoint written");
    let _ = std::fs::remove_file(&path);
    assert!(
        text.starts_with(&format!("{{\"version\":{CHECKPOINT_VERSION},")),
        "envelope changed shape"
    );
    assert_eq!(fnv1a_hex(text.as_bytes()), "90bdf53557f06ef8");
}
