//! The always-on service: single-writer ingestion, lock-free readers.
//!
//! One writer owns the [`IncrementalCascade`] and pushes 5-minute demand
//! samples as they arrive; any number of reader threads hold cloned
//! [`ServiceHandle`]s and query concurrently. The two sides meet at one
//! append-only, write-once window log shared by every epoch:
//!
//! * **Publish** (writer, once per closed window): fold the window's
//!   `cum_before`, write it into the log's next slot, then
//!   `store(Release)` the published count `k + 1`. Nothing earlier is
//!   copied, so publishing costs the same at any epoch.
//! * **Read** (any thread, every query): `load(Acquire)` the count and
//!   borrow the first `k` windows as an [`EpochSnapshot`]. No lock, no
//!   reference count traffic, no retry loop — the `Release`/`Acquire`
//!   pair makes every slot below the count visible.
//!
//! Slots are written once and never freed while the service is alive,
//! so every past epoch stays readable: [`ServiceHandle::epoch_at`] is
//! the audit trail — any recorded `(epoch, query, answer)` triple can be
//! re-checked later against the exact epoch that produced it.

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use fairco2_montecarlo::{write_durable_atomic, CheckpointError, WriteFault};
use fairco2_shapley::incremental::{IncrementalCascade, WindowAttribution};
use fairco2_trace::series::SeriesError;

use crate::epoch::{EpochSnapshot, WindowLog, WindowSegment};

/// Static configuration of an attribution service.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Unix timestamp (seconds) of the first sample.
    pub start: i64,
    /// Sampling step in seconds (the paper's grids use 300).
    pub step: u32,
    /// Hierarchy split ratios, coarsest first.
    pub splits: Vec<usize>,
    /// Samples per finest-level period; the window is
    /// `leaf_samples · Π splits` samples.
    pub leaf_samples: usize,
    /// Carbon attributed to each closed window (gCO₂e). A production
    /// deployment would meter this per window; the service treats it as
    /// an input.
    pub carbon_per_window: f64,
    /// When set, every closed window is persisted to
    /// `dir/window-<index>.json` with the checkpoint layer's durable
    /// write helper (tmp + fsync + rename + parent-directory fsync).
    pub persist_dir: Option<PathBuf>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            start: 0,
            step: 300,
            splits: vec![4, 3],
            leaf_samples: 4,
            carbon_per_window: 1000.0,
            persist_dir: None,
        }
    }
}

impl ServiceConfig {
    /// Samples per attribution window.
    pub fn window_samples(&self) -> usize {
        self.splits
            .iter()
            .fold(self.leaf_samples, |acc, &m| acc.saturating_mul(m))
    }
}

/// Everything that can go wrong running the service.
#[derive(Debug)]
pub enum ServeError {
    /// The configured hierarchy or grid is degenerate.
    Config(SeriesError),
    /// Persisting a closed window failed.
    Persist(CheckpointError),
    /// A demand sample was negative or non-finite; it was not ingested.
    InvalidSample(f64),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Config(e) => write!(f, "invalid service config: {e}"),
            ServeError::Persist(e) => write!(f, "window persistence failed: {e}"),
            ServeError::InvalidSample(v) => {
                write!(f, "demand samples must be non-negative and finite, got {v}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<CheckpointError> for ServeError {
    fn from(e: CheckpointError) -> Self {
        ServeError::Persist(e)
    }
}

/// State shared between the writer and every reader handle.
struct Shared {
    /// Every closed window; its published count is the latest epoch.
    log: WindowLog,
    /// Total samples ingested (monitoring).
    ingested: AtomicU64,
    /// Samples rejected as [`ServeError::InvalidSample`] (monitoring).
    quarantined: AtomicU64,
}

/// The always-on attribution service (the single writer).
pub struct AttributionService {
    config: ServiceConfig,
    engine: IncrementalCascade,
    /// `cum_before` of the next window to close: the left-to-right fold
    /// of every published window's total.
    next_cum_before: f64,
    shared: Arc<Shared>,
}

/// A cheaply cloneable reader handle; queries never lock.
#[derive(Clone)]
pub struct ServiceHandle {
    shared: Arc<Shared>,
}

impl AttributionService {
    /// Starts a service: validates the hierarchy, publishes the empty
    /// epoch 0, and creates the persistence directory if configured.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] for a degenerate hierarchy or step;
    /// [`ServeError::Persist`] if the persistence directory cannot be
    /// created.
    pub fn start(config: ServiceConfig) -> Result<Self, ServeError> {
        let engine = IncrementalCascade::new(&config.splits, config.leaf_samples, config.step)
            .map_err(ServeError::Config)?;
        if let Some(dir) = &config.persist_dir {
            fs::create_dir_all(dir)
                .map_err(|e| CheckpointError::Io(format!("create {}: {e}", dir.display())))?;
        }
        let shared = Arc::new(Shared {
            log: WindowLog::new(config.start, config.step, engine.window_samples()),
            ingested: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
        });
        Ok(Self {
            config,
            engine,
            next_cum_before: 0.0,
            shared,
        })
    }

    /// A reader handle; clone one per tenant thread.
    pub fn handle(&self) -> ServiceHandle {
        ServiceHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Ingests one demand sample. When the sample fills the current
    /// window, the window is closed, optionally persisted, and a new
    /// epoch is published; the new epoch number is returned.
    ///
    /// # Errors
    ///
    /// [`ServeError::InvalidSample`] if `value` is negative or
    /// non-finite — the sample is dropped (counted in
    /// [`ServiceHandle::quarantined`], not [`ServiceHandle::ingested`]),
    /// leaving the stream as if it had never arrived.
    /// [`ServeError::Persist`] if the configured durable write fails —
    /// the window is *not* published in that case (at-least-once
    /// persistence: nothing is queryable that is not on disk).
    pub fn ingest(&mut self, value: f64) -> Result<Option<u64>, ServeError> {
        if !(value.is_finite() && value >= 0.0) {
            self.shared.quarantined.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::InvalidSample(value));
        }
        let closed = self.engine.push(value);
        self.shared.ingested.fetch_add(1, Ordering::Relaxed);
        if !closed {
            return Ok(None);
        }
        let window_index = self.engine.windows_closed();
        let window = self.engine.close_window(self.config.carbon_per_window);
        if let Some(dir) = &self.config.persist_dir {
            let text = serde_json::to_string(&window).expect("window attributions serialize");
            let path = dir.join(format!("window-{window_index:08}.json"));
            write_durable_atomic(&path, &text, WriteFault::None)?;
        }
        Ok(Some(self.publish(window)))
    }

    /// Extends the segmented prefix by one left-to-right fold step and
    /// appends the window to the log, publishing the next epoch.
    fn publish(&mut self, window: WindowAttribution) -> u64 {
        let cum_before = self.next_cum_before;
        self.next_cum_before = cum_before + window.carbon_prefix[self.engine.window_samples()];
        self.shared.log.push(WindowSegment {
            attribution: window,
            cum_before,
        })
    }

    /// Samples ingested into the open window so far.
    pub fn open_window_fill(&self) -> usize {
        self.engine.filled()
    }

    /// Windows closed (== the latest epoch number).
    pub fn windows_closed(&self) -> u64 {
        self.engine.windows_closed()
    }

    /// The streaming engine's primitive-operation counter (the
    /// amortized-O(log n) pin; see [`IncrementalCascade::ops`]).
    pub fn engine_ops(&self) -> u64 {
        self.engine.ops()
    }

    /// Service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }
}

impl ServiceHandle {
    /// The latest published epoch. Lock-free: one `Acquire` load.
    pub fn epoch(&self) -> EpochSnapshot<'_> {
        let log = &self.shared.log;
        log.snapshot(log.published())
    }

    /// Epoch `k`: the first `k` windows, answering exactly as they did
    /// when `k` was the latest epoch; `None` if the writer has not
    /// published it yet. Lock-free, like [`ServiceHandle::epoch`].
    pub fn epoch_at(&self, k: u64) -> Option<EpochSnapshot<'_>> {
        let log = &self.shared.log;
        (k <= log.published()).then(|| log.snapshot(k))
    }

    /// Total samples ingested by the writer (monitoring; `Relaxed` — a
    /// freshness gauge, not a synchronization edge).
    pub fn ingested(&self) -> u64 {
        self.shared.ingested.load(Ordering::Relaxed)
    }

    /// Samples the writer rejected as [`ServeError::InvalidSample`]
    /// (monitoring; `Relaxed`, like [`ServiceHandle::ingested`]).
    pub fn quarantined(&self) -> u64 {
        self.shared.quarantined.load(Ordering::Relaxed)
    }
}

/// Reads back one persisted window attribution (the service's durable
/// unit), as written by [`AttributionService::ingest`].
///
/// # Errors
///
/// [`ServeError::Persist`] if the file is unreadable or malformed: not
/// a window, a carbon prefix that is not one entry longer than a
/// non-empty leaf intensity, or a non-finite value.
pub fn read_persisted_window(path: &std::path::Path) -> Result<WindowAttribution, ServeError> {
    let text = fs::read_to_string(path)
        .map_err(|e| CheckpointError::Io(format!("read {}: {e}", path.display())))?;
    let window: WindowAttribution =
        serde_json::from_str(&text).map_err(|e| CheckpointError::Malformed(e.0))?;
    let shaped = !window.leaf_intensity.is_empty()
        && window.carbon_prefix.len() == window.leaf_intensity.len() + 1;
    let finite = [window.total_carbon, window.stranded_carbon]
        .iter()
        .chain(&window.carbon_prefix)
        .chain(&window.leaf_intensity)
        .all(|v| v.is_finite());
    if !(shaped && finite) {
        return Err(CheckpointError::Malformed(format!(
            "{}: not a window attribution ({} prefix entries, {} leaf intensities, finite: {finite})",
            path.display(),
            window.carbon_prefix.len(),
            window.leaf_intensity.len()
        ))
        .into());
    }
    Ok(window)
}
