//! The streaming Monte Carlo study engine.
//!
//! Work is split into fixed-size batches of units — trials, or the
//! Azure-scale study's trace buckets (boundaries depend only on the batch
//! size, never on the thread count). Worker threads pull batch indices
//! from an atomic counter, run each batch through their own scratch
//! arena, and send the batch's accumulator down a channel. The caller's
//! thread reorders arrivals by batch index and merges them strictly in
//! order, so the merged summary is bit-identical to the serial
//! [`DemandStudySummary::from_trials`] fold at any thread count.
//!
//! Memory stays `O(threads)`: one scratch arena per worker (the 32 MiB
//! exact-solver table dominates), plus a reorder buffer that holds only
//! the batch accumulators that arrived ahead of order.
//!
//! # One checkpointed run
//!
//! [`run_study`] drives every study. A study supplies only its own parts
//! through [`CheckpointedStudy`]: unit count and fingerprint, the empty
//! accumulator and scratch constructor, the batch body, accumulator
//! merge, and conversion to and from its snapshot struct. The run owns
//! the rest, once: restore on resume, the batch-fault check, the in-order
//! merge with its per-trial sink and progress callback, the checkpoint
//! cadence, the torn-write and kill failpoints, and the stats carried
//! across a restart. [`DemandStudy`] and [`ColocationStudy`] implement
//! the trait here; the Azure-scale co-simulation in `fairco2-bench`
//! implements it too.
//!
//! # Fault containment and resume
//!
//! A batch that panics or returns an error is caught on the worker,
//! requeued on a **fresh scratch arena** (the old arena may be mid-update
//! and is retired, its counters preserved), and retried up to the
//! configured budget. Retries and requeues are counted in
//! [`EngineStats`]; a batch that exhausts its budget surfaces as
//! [`EngineError::BatchAbandoned`] — never a hang, never a silently
//! short study.
//!
//! Because every unit is a pure function of `(study config, unit
//! index)` and merges happen in strict batch order, the merged prefix is
//! a complete description of progress. [`StudyOptions::checkpoint`]
//! snapshots it every K merges; resuming re-runs nothing before the
//! frontier and is bit-identical to an uninterrupted run.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;

use fairco2_shapley::parallel::panic_message;
use serde::{Deserialize, Serialize};

use crate::checkpoint::{
    colocation_fingerprint, demand_fingerprint, load_snapshot, save_snapshot, CheckpointError,
    CheckpointSpec, ColocationSnapshot, DemandSnapshot, PendingColocationBatch, PendingDemandBatch,
    StudySnapshot, WriteFault,
};
use crate::colocations::{ColocationStudy, ColocationTrial};
use crate::faults::FaultPlan;
use crate::schedules::{DemandStudy, DemandTrial};
use crate::scratch::{EngineScratch, ScratchStats, TrialScratch};
use crate::streaming::{ColocationStudySummary, DemandStudySummary, DEFAULT_BATCH_TRIALS};

/// Engine knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads (0 clamps to 1).
    pub threads: usize,
    /// Trials per batch. Determinism contract: the same batch size always
    /// produces the same summary bits, at any thread count.
    pub batch_trials: usize,
}

impl EngineConfig {
    /// The default configuration at a given thread count.
    pub fn new(threads: usize) -> Self {
        Self {
            threads,
            batch_trials: DEFAULT_BATCH_TRIALS,
        }
    }
}

/// What a study run did, for perf reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Trials merged into the summary (includes checkpointed prefix
    /// trials on resumed runs).
    pub trials: u64,
    /// Batches in the study.
    pub batches: u64,
    /// Worker threads used.
    pub threads: u64,
    /// Aggregated scratch-reuse counters across workers. On resumed
    /// runs, counters from the interrupted run's workers are not
    /// recoverable; this covers completed runs only.
    pub scratch: ScratchStats,
    /// Deepest the reorder buffer got (batch accumulators held while
    /// waiting for an earlier batch).
    pub max_reorder_depth: u64,
    /// Failed batch attempts that were re-executed after a panic or
    /// error (fault containment).
    pub retries: u64,
    /// Distinct batches that failed at least once and were requeued on a
    /// fresh scratch arena.
    pub requeued_batches: u64,
}

/// A batch attempt's typed failure (the non-panic fault path).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchFailure {
    message: String,
}

impl BatchFailure {
    /// A failure carrying `message`.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }

    /// The failure message.
    pub fn message(&self) -> &str {
        &self.message
    }
}

/// Why a study run could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A batch kept failing after its retry budget was spent. The study
    /// is incomplete; no partial summary is returned.
    BatchAbandoned {
        /// The failing batch index.
        batch: usize,
        /// Attempts made (retry budget + 1).
        attempts: u32,
        /// Message of the final failure (panic text or batch error).
        last_error: String,
    },
    /// Writing or restoring a checkpoint failed.
    Checkpoint(CheckpointError),
    /// A [`FaultPlan::kill_after_writes`] failpoint stopped the run —
    /// the test harness's stand-in for SIGKILL.
    Killed {
        /// Checkpoint writes that had landed when the run stopped.
        writes: usize,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BatchAbandoned {
                batch,
                attempts,
                last_error,
            } => write!(
                f,
                "batch {batch} abandoned after {attempts} attempts: {last_error}"
            ),
            Self::Checkpoint(e) => write!(f, "{e}"),
            Self::Killed { writes } => {
                write!(
                    f,
                    "run killed by fault plan after {writes} checkpoint writes"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<CheckpointError> for EngineError {
    fn from(e: CheckpointError) -> Self {
        Self::Checkpoint(e)
    }
}

/// Where to pick a study back up: the merged-prefix frontier plus any
/// batches that had already finished ahead of it (the reorder buffer).
///
/// Invariant: every pending batch index is at least `frontier` (a
/// checkpoint cut mid-drain can park the frontier batch itself here;
/// anything below it has already been merged).
pub(crate) struct ResumeState<A> {
    /// Batches `0..frontier` are merged; execution restarts here.
    frontier: usize,
    /// Completed `(batch, accumulator)` pairs beyond the frontier; they
    /// are merged in order without re-execution.
    pending: Vec<(usize, A)>,
}

/// What the in-order merge callback can observe at each merge point —
/// enough to cut a complete checkpoint.
pub(crate) struct MergeCtx<'a, A> {
    /// The batch being merged; after this call the frontier is
    /// `batch + 1`.
    batch: usize,
    /// Completed batches still waiting in the reorder buffer (all
    /// indices are `> batch`).
    pending: &'a BTreeMap<usize, A>,
    /// Failed attempts re-executed so far (point-in-time).
    retries: u64,
    /// Distinct batches requeued so far (point-in-time).
    requeued_batches: u64,
}

/// Runs `units` units through per-worker scratch arenas, streaming
/// batch accumulators to `merge` strictly in batch-index order, with
/// fault containment and frontier resume.
///
/// `make_scratch` is called once per worker plus once per requeue;
/// `run_batch` folds one batch of unit indices through the worker's
/// scratch and may fail (panic or [`BatchFailure`]) — it receives the
/// 0-based attempt number so deterministic failpoints can key off it.
/// `merge` receives each accumulator exactly once, in ascending batch
/// order, on the calling thread; returning an error stops the run.
///
/// With `resume`, batches before the frontier are skipped entirely and
/// preloaded pending batches are merged without re-execution; the merged
/// stream is bit-identical to an uninterrupted run because batch
/// boundaries and unit seeds depend only on the study config.
///
/// # Errors
///
/// [`EngineError::BatchAbandoned`] when a batch fails more than
/// `retry_budget` times; whatever error `merge` returns, verbatim.
///
/// # Panics
///
/// Panics if a resume state is inconsistent with the batch count;
/// [`run_study`] rejects such a checkpoint before it gets here.
#[allow(clippy::too_many_arguments)]
pub(crate) fn stream_batches_resumable<A, C, S, F, M>(
    units: usize,
    threads: usize,
    batch_units: usize,
    retry_budget: u32,
    resume: Option<ResumeState<A>>,
    make_scratch: S,
    run_batch: F,
    mut merge: M,
) -> Result<EngineStats, EngineError>
where
    A: Send,
    C: EngineScratch,
    S: Fn() -> C + Sync,
    F: Fn(Range<usize>, &mut C, u32) -> Result<A, BatchFailure> + Sync,
    M: FnMut(MergeCtx<'_, A>, A) -> Result<(), EngineError>,
{
    let threads = threads.max(1);
    let batch_units = batch_units.max(1);
    let n_batches = units.div_ceil(batch_units);
    let ResumeState { frontier, pending } = resume.unwrap_or(ResumeState {
        frontier: 0,
        pending: Vec::new(),
    });
    // Indices the workers must not re-execute (already completed, parked
    // in the reorder buffer at checkpoint time).
    let mut done: Vec<usize> = pending.iter().map(|(b, _)| *b).collect();
    done.sort_unstable();
    assert!(
        frontier <= n_batches && done.iter().all(|b| (frontier..n_batches).contains(b)),
        "resume state outside the study's {n_batches} batches"
    );

    let next = AtomicUsize::new(frontier);
    let abort = AtomicBool::new(false);
    let retries = AtomicU64::new(0);
    let requeued = AtomicU64::new(0);
    let executed_trials = AtomicU64::new(0);
    let executed_batches = AtomicU64::new(0);
    let (tx, rx) = mpsc::channel::<(usize, Result<A, EngineError>)>();

    let (scratch, max_reorder_depth, error) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                let tx = tx.clone();
                let next = &next;
                let abort = &abort;
                let retries = &retries;
                let requeued = &requeued;
                let executed_trials = &executed_trials;
                let executed_batches = &executed_batches;
                let done = &done;
                let make_scratch = &make_scratch;
                let run_batch = &run_batch;
                scope.spawn(move || {
                    let mut scratch = make_scratch();
                    let mut retired = ScratchStats::default();
                    'batches: while !abort.load(Ordering::Relaxed) {
                        let b = next.fetch_add(1, Ordering::Relaxed);
                        if b >= n_batches {
                            break;
                        }
                        if done.binary_search(&b).is_ok() {
                            continue; // completed before the interruption
                        }
                        let start = b * batch_units;
                        let end = (start + batch_units).min(units);
                        let mut attempt = 0u32;
                        let outcome = loop {
                            let result =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    run_batch(start..end, &mut scratch, attempt)
                                }));
                            let failure = match result {
                                Ok(Ok(acc)) => break Ok(acc),
                                Ok(Err(f)) => f,
                                Err(payload) => BatchFailure::new(panic_message(payload.as_ref())),
                            };
                            // The arena may be mid-update from the failed
                            // attempt; retire it (keeping its counters)
                            // and requeue the batch on a fresh one.
                            retired.merge(&scratch.stats());
                            scratch = make_scratch();
                            if attempt == 0 {
                                requeued.fetch_add(1, Ordering::Relaxed);
                            }
                            if attempt >= retry_budget {
                                break Err(EngineError::BatchAbandoned {
                                    batch: b,
                                    attempts: attempt + 1,
                                    last_error: failure.message,
                                });
                            }
                            retries.fetch_add(1, Ordering::Relaxed);
                            attempt += 1;
                            if abort.load(Ordering::Relaxed) {
                                break 'batches;
                            }
                        };
                        match outcome {
                            Ok(acc) => {
                                executed_trials.fetch_add((end - start) as u64, Ordering::Relaxed);
                                executed_batches.fetch_add(1, Ordering::Relaxed);
                                if tx.send((b, Ok(acc))).is_err() {
                                    break;
                                }
                            }
                            Err(e) => {
                                abort.store(true, Ordering::Relaxed);
                                let _ = tx.send((b, Err(e)));
                                break;
                            }
                        }
                    }
                    retired.merge(&scratch.stats());
                    retired
                })
            })
            .collect();
        drop(tx);

        // Reorder arrivals so merges happen strictly in batch order —
        // this is what makes the summary thread-count invariant. Batches
        // restored from a checkpoint's reorder buffer start out parked
        // here and are consumed by the same in-order drain.
        let mut pending: BTreeMap<usize, A> = pending.into_iter().collect();
        let mut next_merge = frontier;
        let mut max_depth = pending.len();
        let mut error: Option<EngineError> = None;
        let mut arrivals = rx.into_iter();
        loop {
            // Merge everything eligible before waiting on arrivals: a
            // checkpoint cut mid-drain can park the frontier batch itself
            // in the reorder buffer, and workers never re-send it.
            while error.is_none() {
                let Some(acc) = pending.remove(&next_merge) else {
                    break;
                };
                let ctx = MergeCtx {
                    batch: next_merge,
                    pending: &pending,
                    retries: retries.load(Ordering::Relaxed),
                    requeued_batches: requeued.load(Ordering::Relaxed),
                };
                match merge(ctx, acc) {
                    Ok(()) => next_merge += 1,
                    Err(e) => {
                        error = Some(e);
                        abort.store(true, Ordering::Relaxed);
                    }
                }
            }
            let Some((idx, outcome)) = arrivals.next() else {
                break;
            };
            match outcome {
                Err(e) => {
                    error = Some(match error.take() {
                        // Deterministic report when several batches fail
                        // around the abort: the lowest batch index wins.
                        Some(cur) => prefer_error(cur, e),
                        None => e,
                    });
                    abort.store(true, Ordering::Relaxed);
                }
                Ok(acc) if error.is_none() => {
                    pending.insert(idx, acc);
                    max_depth = max_depth.max(pending.len());
                }
                Ok(_) => {}
            }
        }

        let mut total = ScratchStats::default();
        for w in workers {
            total.merge(&w.join().expect("study worker panicked"));
        }
        if error.is_none() {
            assert!(
                pending.is_empty() && next_merge == n_batches,
                "batch stream ended with unmerged batches"
            );
        }
        (total, max_depth, error)
    });

    if let Some(e) = error {
        return Err(e);
    }
    Ok(EngineStats {
        trials: executed_trials.load(Ordering::Relaxed),
        batches: executed_batches.load(Ordering::Relaxed),
        threads: threads as u64,
        scratch,
        max_reorder_depth: max_reorder_depth as u64,
        retries: retries.load(Ordering::Relaxed),
        requeued_batches: requeued.load(Ordering::Relaxed),
    })
}

fn prefer_error(cur: EngineError, new: EngineError) -> EngineError {
    match (&cur, &new) {
        (
            EngineError::BatchAbandoned { batch: a, .. },
            EngineError::BatchAbandoned { batch: b, .. },
        ) if b < a => new,
        _ => cur,
    }
}

/// Fault-tolerance and checkpointing knobs for a study run.
#[derive(Debug, Clone, Default)]
pub struct StudyOptions {
    /// Snapshot the merged prefix to this path every K merged batches.
    pub checkpoint: Option<CheckpointSpec>,
    /// Restore from [`Self::checkpoint`]'s path before running (a
    /// missing file starts fresh; an invalid one is an error).
    pub resume: bool,
    /// Re-run a failing batch up to this many extra times on a fresh
    /// scratch arena before abandoning the study.
    pub retry_budget: u32,
    /// Deterministic failpoints (tests only; default injects nothing).
    pub faults: FaultPlan,
}

impl StudyOptions {
    /// Options with a retry budget and no checkpointing.
    pub fn retrying(retry_budget: u32) -> Self {
        Self {
            retry_budget,
            ..Self::default()
        }
    }
}

/// A checkpoint cut in the engine's terms: what every study snapshot
/// struct holds, before the study gives the parts its own field names.
#[derive(Debug, Clone, PartialEq)]
pub struct Cut<A> {
    /// Fingerprint of the study and batch size the cut belongs to.
    pub fingerprint: String,
    /// Batches `0..frontier` are merged into [`Self::acc`].
    pub frontier: u64,
    /// The in-order merged accumulator.
    pub acc: A,
    /// Completed `(batch, accumulator)` pairs parked in the reorder
    /// buffer, in ascending batch order, all at or past the frontier.
    pub pending: Vec<(u64, A)>,
    /// Engine counters through the frontier. Scratch counters cover
    /// fully completed runs only (worker-local counters are not
    /// observable mid-run).
    pub stats: EngineStats,
}

/// A study [`run_study`] can drive: only the parts that differ between
/// studies. Everything else — restore, the batch-fault check, the merge,
/// checkpoint cadence, failpoints and stats — is the run's.
pub trait CheckpointedStudy: Sync {
    /// A batch's accumulator, and the merged accumulator of a prefix.
    type Acc: Clone + Send;
    /// One unit's record, handed to a trial sink in unit order.
    type Trial: Send;
    /// A worker's reusable arena.
    type Scratch: EngineScratch;
    /// The study's on-disk snapshot struct.
    type Snapshot: StudySnapshot;

    /// Units (trials, trace buckets) in the study.
    fn units(&self) -> usize;

    /// Binds checkpoints to this study at `batch_units` units per batch.
    fn fingerprint(&self, batch_units: usize) -> String;

    /// The accumulator of no units.
    fn empty(&self) -> Self::Acc;

    /// A fresh worker arena (once per worker, and once per requeue).
    fn scratch(&self) -> Self::Scratch;

    /// Folds `units` into `acc` through `scratch`, pushing each unit's
    /// record into `kept` when it is given, and fires the per-unit
    /// failpoints `faults` holds for this `attempt`.
    ///
    /// # Errors
    ///
    /// A [`BatchFailure`] (an injected one, or the study's own); the run
    /// retries the batch on a fresh arena.
    fn run_batch(
        &self,
        units: Range<usize>,
        scratch: &mut Self::Scratch,
        acc: &mut Self::Acc,
        kept: Option<&mut Vec<Self::Trial>>,
        faults: &FaultPlan,
        attempt: u32,
    ) -> Result<(), BatchFailure>;

    /// Folds the next batch's accumulator into `into`.
    fn merge(into: &mut Self::Acc, batch: &Self::Acc);

    /// The study's snapshot struct holding `cut`.
    fn to_snapshot(cut: Cut<Self::Acc>) -> Self::Snapshot;

    /// The cut a snapshot struct holds.
    fn from_snapshot(snap: Self::Snapshot) -> Cut<Self::Acc>;
}

/// Runs a study with fault containment, checkpointing and resume, and
/// returns its merged accumulator and the engine stats.
///
/// `on_progress(units_merged, &acc)` fires after every in-order merge.
/// `sink` observes every unit's record exactly once, in ascending unit
/// order, on the merge thread; the observed stream is identical at any
/// thread count. Records are dropped once the sink has them, so memory
/// stays `O(threads · batch)` — this backs the `--dump-trials` JSONL
/// harvests of full 10,000-trial studies. On resumed runs the sink sees
/// only the units executed after the restore point.
///
/// The accumulator is bit-identical to a serial fold at the same batch
/// size — at any thread count, across any checkpoint/resume boundary,
/// and under any fault plan whose failures stay within the retry budget.
///
/// # Errors
///
/// [`EngineError::Checkpoint`] for an invalid checkpoint (including a
/// digest-valid one whose frontier or reorder-buffer batches do not fit
/// the study) or a failed write, [`EngineError::BatchAbandoned`] when
/// faults exceed the retry budget, and [`EngineError::Killed`] from a
/// kill failpoint.
pub fn run_study<S: CheckpointedStudy>(
    study: &S,
    cfg: EngineConfig,
    opts: &StudyOptions,
    mut on_progress: impl FnMut(u64, &S::Acc),
    mut sink: Option<&mut dyn FnMut(S::Trial)>,
) -> Result<(S::Acc, EngineStats), EngineError> {
    let units = study.units();
    let batch_units = cfg.batch_trials.max(1);
    let n_batches = units.div_ceil(batch_units);
    let fingerprint = study.fingerprint(batch_units);

    let mut master = study.empty();
    let mut carried = EngineStats::default();
    let mut resume = None;
    let restore = opts.checkpoint.as_ref();
    if let Some(spec) = restore.filter(|spec| opts.resume && spec.path.exists()) {
        let cut = S::from_snapshot(load_snapshot(&spec.path, &fingerprint)?);
        check_cut(&cut, n_batches)?;
        master = cut.acc;
        carried = cut.stats;
        resume = Some(ResumeState {
            frontier: cut.frontier as usize,
            pending: cut
                .pending
                .into_iter()
                .map(|(batch, acc)| (batch as usize, (acc, None)))
                .collect(),
        });
    }

    let keep = sink.is_some();
    let faults = &opts.faults;
    let mut since_write = 0usize;
    let mut write_attempts = 0usize;
    let mut writes = 0usize;
    let stats = stream_batches_resumable(
        units,
        cfg.threads,
        batch_units,
        opts.retry_budget,
        resume,
        || study.scratch(),
        |range, scratch, attempt| {
            let batch = range.start / batch_units;
            if let Some(kind) = faults.batch_fault(batch, attempt) {
                FaultPlan::fire(kind, &format!("batch {batch}"))?;
            }
            let mut acc = study.empty();
            let mut kept = keep.then(|| Vec::with_capacity(range.len()));
            study.run_batch(range, scratch, &mut acc, kept.as_mut(), faults, attempt)?;
            Ok((acc, kept))
        },
        |ctx, (acc, kept): (S::Acc, Option<Vec<S::Trial>>)| {
            S::merge(&mut master, &acc);
            if let (Some(observe), Some(kept)) = (sink.as_deref_mut(), kept) {
                kept.into_iter().for_each(observe);
            }
            let merged = ((ctx.batch + 1) * batch_units).min(units) as u64;
            on_progress(merged, &master);
            let Some(spec) = &opts.checkpoint else {
                return Ok(());
            };
            since_write += 1;
            if since_write < spec.every_batches.max(1) {
                return Ok(());
            }
            since_write = 0;
            let cut = Cut {
                fingerprint: fingerprint.clone(),
                frontier: ctx.batch as u64 + 1,
                acc: master.clone(),
                pending: ctx
                    .pending
                    .iter()
                    .map(|(&batch, (acc, _))| (batch as u64, acc.clone()))
                    .collect(),
                stats: checkpoint_stats(&carried, &ctx, merged, cfg.threads),
            };
            let fault = if faults.fail_checkpoint_write(write_attempts) {
                WriteFault::TornTmp
            } else {
                WriteFault::None
            };
            write_attempts += 1;
            save_snapshot(&S::to_snapshot(cut), &spec.path, fault)?;
            writes += 1;
            if faults.should_kill(writes) {
                return Err(EngineError::Killed { writes });
            }
            Ok(())
        },
    )?;
    let stats = total_stats(stats, &carried, n_batches, units);
    Ok((master, stats))
}

/// Rejects a digest-valid cut that does not fit the study's batches
/// (the stream would otherwise abort on it): the frontier must lie in
/// `0..=n_batches`, and the reorder-buffer batches must ascend strictly
/// within `frontier..n_batches`.
fn check_cut<A>(cut: &Cut<A>, n_batches: usize) -> Result<(), CheckpointError> {
    let n = n_batches as u64;
    if cut.frontier > n {
        return Err(CheckpointError::Malformed(format!(
            "frontier {} beyond the study's {n} batches",
            cut.frontier
        )));
    }
    let mut floor = cut.frontier;
    for &(batch, _) in &cut.pending {
        if batch < floor || batch >= n {
            return Err(CheckpointError::Malformed(format!(
                "reorder-buffer batch {batch} out of order or outside [{}, {n})",
                cut.frontier
            )));
        }
        floor = batch + 1;
    }
    Ok(())
}

/// The stats to embed in a checkpoint cut at `ctx`: cumulative through
/// the frontier, with scratch counters carried from completed runs only
/// (live worker counters are not observable mid-run).
fn checkpoint_stats<A>(
    carried: &EngineStats,
    ctx: &MergeCtx<'_, A>,
    merged_units: u64,
    threads: usize,
) -> EngineStats {
    EngineStats {
        trials: merged_units,
        batches: ctx.batch as u64 + 1,
        threads: threads.max(1) as u64,
        scratch: carried.scratch,
        max_reorder_depth: carried.max_reorder_depth,
        retries: carried.retries + ctx.retries,
        requeued_batches: carried.requeued_batches + ctx.requeued_batches,
    }
}

/// Folds a run's stats with the checkpointed stats it resumed from into
/// whole-study totals. A completed run has merged every unit — executed,
/// carried, *and* reorder-buffer batches merged straight from the
/// checkpoint.
fn total_stats(
    mut stats: EngineStats,
    carried: &EngineStats,
    n_batches: usize,
    units: usize,
) -> EngineStats {
    stats.trials = units as u64;
    stats.batches = n_batches as u64;
    stats.retries += carried.retries;
    stats.requeued_batches += carried.requeued_batches;
    stats.scratch.merge(&carried.scratch);
    stats.max_reorder_depth = stats.max_reorder_depth.max(carried.max_reorder_depth);
    stats
}

/// The built-in trial studies differ only in their types, fingerprint
/// and scratch: one unit is one trial, recorded into the summary and kept
/// for the sink.
macro_rules! trial_study {
    ($study:ty, $summary:ty, $trial:ty, $snapshot:ident, $pending:ident, $fingerprint:ident, $scratch:expr) => {
        impl CheckpointedStudy for $study {
            type Acc = $summary;
            type Trial = $trial;
            type Scratch = TrialScratch;
            type Snapshot = $snapshot;

            fn units(&self) -> usize {
                self.trials
            }

            fn fingerprint(&self, batch_units: usize) -> String {
                $fingerprint(self, batch_units)
            }

            fn empty(&self) -> $summary {
                <$summary>::empty(self)
            }

            fn scratch(&self) -> TrialScratch {
                $scratch(self)
            }

            fn run_batch(
                &self,
                units: Range<usize>,
                scratch: &mut TrialScratch,
                acc: &mut $summary,
                mut kept: Option<&mut Vec<$trial>>,
                faults: &FaultPlan,
                attempt: u32,
            ) -> Result<(), BatchFailure> {
                for t in units {
                    if let Some(kind) = faults.trial_fault(t, attempt) {
                        FaultPlan::fire(kind, &format!("trial {t}"))?;
                    }
                    let trial = self.run_trial_with_scratch(t, scratch);
                    acc.record(&trial);
                    if let Some(kept) = kept.as_deref_mut() {
                        kept.push(trial);
                    }
                }
                Ok(())
            }

            fn merge(into: &mut $summary, batch: &$summary) {
                into.merge(batch);
            }

            fn to_snapshot(cut: Cut<$summary>) -> $snapshot {
                $snapshot {
                    fingerprint: cut.fingerprint,
                    frontier: cut.frontier,
                    summary: cut.acc,
                    pending: cut
                        .pending
                        .into_iter()
                        .map(|(batch, summary)| $pending { batch, summary })
                        .collect(),
                    stats: cut.stats,
                }
            }

            fn from_snapshot(snap: $snapshot) -> Cut<$summary> {
                Cut {
                    fingerprint: snap.fingerprint,
                    frontier: snap.frontier,
                    acc: snap.summary,
                    pending: snap
                        .pending
                        .into_iter()
                        .map(|p| (p.batch, p.summary))
                        .collect(),
                    stats: snap.stats,
                }
            }
        }
    };
}

trial_study!(
    DemandStudy,
    DemandStudySummary,
    DemandTrial,
    DemandSnapshot,
    PendingDemandBatch,
    demand_fingerprint,
    TrialScratch::for_demand
);
trial_study!(
    ColocationStudy,
    ColocationStudySummary,
    ColocationTrial,
    ColocationSnapshot,
    PendingColocationBatch,
    colocation_fingerprint,
    |_| TrialScratch::new()
);

/// [`run_study`] on the demand study with no checkpoint, no retries and
/// no sink. The middle element is always `None`; the three-element shape
/// is kept for existing callers.
///
/// # Panics
///
/// When a batch fails (the message contains `"study worker panicked"`).
pub fn stream_demand_study(
    study: &DemandStudy,
    cfg: EngineConfig,
) -> (DemandStudySummary, Option<Vec<DemandTrial>>, EngineStats) {
    let (summary, stats) = run_study(study, cfg, &StudyOptions::default(), |_, _| {}, None)
        .unwrap_or_else(|e| panic!("study worker panicked: {e}"));
    (summary, None, stats)
}

/// [`run_study`] on the colocation study with no checkpoint, no retries
/// and no sink. The middle element is always `None`.
///
/// # Panics
///
/// When a batch fails (the message contains `"study worker panicked"`).
pub fn stream_colocation_study(
    study: &ColocationStudy,
    cfg: EngineConfig,
) -> (
    ColocationStudySummary,
    Option<Vec<ColocationTrial>>,
    EngineStats,
) {
    let (summary, stats) = run_study(study, cfg, &StudyOptions::default(), |_, _| {}, None)
        .unwrap_or_else(|e| panic!("study worker panicked: {e}"));
    (summary, None, stats)
}

/// [`run_study`] on the demand study with no sink. The middle element
/// is always `None`.
///
/// # Errors
///
/// Same contract as [`run_study`].
pub fn stream_demand_study_resumable(
    study: &DemandStudy,
    cfg: EngineConfig,
    opts: &StudyOptions,
    on_progress: impl FnMut(u64, &DemandStudySummary),
) -> Result<(DemandStudySummary, Option<Vec<DemandTrial>>, EngineStats), EngineError> {
    let (summary, stats) = run_study(study, cfg, opts, on_progress, None)?;
    Ok((summary, None, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{BatchFault, FaultKind};

    fn small_demand() -> DemandStudy {
        DemandStudy {
            trials: 37,
            max_workloads: 8,
            ..DemandStudy::default()
        }
    }

    #[test]
    fn demand_stream_matches_serial_fold_bitwise() {
        let study = small_demand();
        let trials: Vec<DemandTrial> = (0..study.trials).map(|t| study.run_trial(t)).collect();
        let serial = DemandStudySummary::from_trials(&study, &trials, 8);
        let cfg = EngineConfig {
            threads: 3,
            batch_trials: 8,
        };
        let mut dump = Vec::new();
        let (streamed, stats) = run_study(
            &study,
            cfg,
            &StudyOptions::default(),
            |_, _| {},
            Some(&mut |trial| dump.push(trial)),
        )
        .expect("clean run");
        assert_eq!(streamed, serial);
        assert_eq!(stats.trials, 37);
        assert_eq!(stats.batches, 5);
        assert_eq!(stats.scratch.trials, 37);
        assert_eq!(stats.retries, 0);
        assert_eq!(stats.requeued_batches, 0);
        // The dump is the full trial stream, in trial order.
        assert_eq!(dump.len(), trials.len());
        for (a, b) in dump.iter().zip(&trials) {
            assert_eq!(a.trial, b.trial);
            assert_eq!(a.rup.average_pct.to_bits(), b.rup.average_pct.to_bits());
        }
    }

    #[test]
    fn progress_fires_after_every_in_order_merge() {
        let study = small_demand();
        let mut seen = Vec::new();
        let cfg = EngineConfig {
            threads: 2,
            batch_trials: 10,
        };
        let (summary, dump, _) =
            stream_demand_study_resumable(&study, cfg, &StudyOptions::default(), |n, s| {
                seen.push((n, s.trials))
            })
            .expect("clean run");
        assert!(dump.is_none());
        assert_eq!(seen, vec![(10, 10), (20, 20), (30, 30), (37, 37)]);
        assert_eq!(summary.trials, 37);
    }

    #[test]
    fn scratch_arena_is_reused_across_a_worker_run() {
        let study = small_demand();
        let cfg = EngineConfig {
            threads: 1,
            batch_trials: 64,
        };
        let (_, _, stats) = stream_demand_study(&study, cfg);
        // One pre-grown table, every solve served from it.
        assert_eq!(stats.scratch.table_grows, 1);
        assert_eq!(stats.scratch.table_reuses, 37);
    }

    #[test]
    fn zero_trials_produce_an_empty_summary() {
        let study = DemandStudy {
            trials: 0,
            ..small_demand()
        };
        let (summary, _, stats) = stream_demand_study(&study, EngineConfig::new(4));
        assert_eq!(summary.trials, 0);
        assert_eq!(stats.batches, 0);
    }

    #[test]
    fn colocation_stream_matches_serial_fold_bitwise() {
        let study = ColocationStudy {
            trials: 21,
            max_workloads: 16,
            ..ColocationStudy::default()
        };
        let trials: Vec<ColocationTrial> = (0..study.trials).map(|t| study.run_trial(t)).collect();
        let serial = ColocationStudySummary::from_trials(&study, &trials, 5);
        let cfg = EngineConfig {
            threads: 4,
            batch_trials: 5,
        };
        let (streamed, _, stats) = stream_colocation_study(&study, cfg);
        assert_eq!(streamed, serial);
        assert_eq!(stats.scratch.trials, 21);
    }

    #[test]
    fn requeued_batches_get_a_fresh_scratch_arena() {
        let study = small_demand();
        let cfg = EngineConfig {
            threads: 1,
            batch_trials: 8,
        };
        let opts = StudyOptions {
            retry_budget: 1,
            faults: FaultPlan {
                batches: vec![BatchFault {
                    batch: 2,
                    kind: FaultKind::Error,
                    times: 1,
                }],
                ..FaultPlan::default()
            },
            ..StudyOptions::default()
        };
        let (summary, _, stats) =
            stream_demand_study_resumable(&study, cfg, &opts, |_, _| {}).expect("within budget");
        assert_eq!(summary.trials, 37);
        assert_eq!(stats.retries, 1);
        assert_eq!(stats.requeued_batches, 1);
        // The failed attempt's arena was retired and a fresh one grown:
        // two table grows on a single worker instead of one.
        assert_eq!(stats.scratch.table_grows, 2);
    }
}
