//! The window log and its epoch views: the read side of the service.
//!
//! Every closed attribution window advances the service by one *epoch*.
//! Closed windows go into one append-only, write-once window log
//! shared by every epoch, so epoch `k` is simply "the first `k` windows
//! of the log" and an [`EpochSnapshot`] is a borrowed view of that
//! prefix. Readers query it without any lock, and its answers never
//! change: the same query against the same epoch returns the same bits
//! forever, which is what makes concurrent answers auditable after the
//! fact.
//!
//! The cross-window carbon prefix is *segmented*: each window keeps its
//! own prefix exactly as the frozen cascade produced it, plus a
//! `cum_before` offset fixed at close time by one left-to-right fold
//! over window totals. Queries therefore decompose into per-window
//! charges combined by a deterministic rule — bit-identical to a
//! from-scratch rebuild of the same windows, at any thread count.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use fairco2_shapley::cascade::first_sample_at_or_after;
use fairco2_shapley::incremental::WindowAttribution;
use fairco2_shapley::{run_parallel, BillingQuery};

/// One closed window in the log: the frozen attribution plus the
/// segmented-prefix offset of everything before it.
#[derive(Debug, Clone)]
pub struct WindowSegment {
    /// The window's finalized attribution.
    pub attribution: WindowAttribution,
    /// Value of the service-wide carbon prefix at this window's first
    /// sample: the sum of all earlier windows' full-window charges,
    /// folded left to right in window order.
    pub cum_before: f64,
}

/// Bucket `b` of the log holds `2^b` slots, so the buckets never move
/// once allocated and 48 of them cover `2^48 − 1` windows.
const BUCKETS: usize = 48;

/// The append-only, write-once log of closed windows behind every
/// epoch. One writer appends; any number of readers look up slots below
/// the published count without a lock.
pub(crate) struct WindowLog {
    start: i64,
    step: u32,
    window_samples: usize,
    buckets: [OnceLock<Box<[OnceLock<WindowSegment>]>>; BUCKETS],
    /// Windows published so far. Only [`WindowLog::push`] stores it.
    published: AtomicU64,
}

impl std::fmt::Debug for WindowLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WindowLog")
            .field("published", &self.published())
            .finish_non_exhaustive()
    }
}

/// The bucket and slot of window `k`.
fn locate(k: usize) -> (usize, usize) {
    let i = k + 1;
    let bucket = i.ilog2() as usize;
    (bucket, i - (1 << bucket))
}

impl WindowLog {
    /// An empty log for a service whose first sample is at `start`.
    pub(crate) fn new(start: i64, step: u32, window_samples: usize) -> Self {
        Self {
            start,
            step,
            window_samples,
            buckets: [const { OnceLock::new() }; BUCKETS],
            published: AtomicU64::new(0),
        }
    }

    /// Windows published so far (the latest epoch number).
    pub(crate) fn published(&self) -> u64 {
        // Acquire: pairs with the Release store in `push`, so every slot
        // below the count is visible once the count is.
        self.published.load(Ordering::Acquire)
    }

    /// Appends the next window and publishes it; returns the new epoch
    /// number. Only the service's single writer calls this.
    pub(crate) fn push(&self, segment: WindowSegment) -> u64 {
        let k = self.published.load(Ordering::Relaxed);
        let (bucket, slot) = locate(usize::try_from(k).expect("window count fits usize"));
        let slots = self.buckets[bucket]
            .get_or_init(|| (0..1usize << bucket).map(|_| OnceLock::new()).collect());
        assert!(
            slots[slot].set(segment).is_ok(),
            "window {k} was written twice"
        );
        self.published.store(k + 1, Ordering::Release);
        k + 1
    }

    /// Window `k`, which must already be published.
    fn segment(&self, k: usize) -> &WindowSegment {
        let (bucket, slot) = locate(k);
        self.buckets[bucket]
            .get()
            .and_then(|slots| slots[slot].get())
            .expect("published windows are written before their epoch")
    }

    /// The view of the first `epoch` windows (`epoch ≤ published()`).
    pub(crate) fn snapshot(&self, epoch: u64) -> EpochSnapshot<'_> {
        EpochSnapshot {
            epoch,
            start: self.start,
            step: self.step,
            window_samples: self.window_samples,
            log: self,
        }
    }
}

/// An immutable, lock-free view of every window the service had closed
/// when this epoch was published: the first `epoch` windows of the
/// service's window log.
#[derive(Debug, Clone, Copy)]
pub struct EpochSnapshot<'a> {
    /// Epoch number: how many windows this snapshot contains.
    pub epoch: u64,
    /// Unix timestamp (seconds) of the service's first sample.
    pub start: i64,
    /// Sampling step in seconds.
    pub step: u32,
    /// Samples per window.
    pub window_samples: usize,
    log: &'a WindowLog,
}

impl<'a> EpochSnapshot<'a> {
    /// Attributed samples covered by this epoch
    /// (`epoch · window_samples`).
    pub fn samples(&self) -> usize {
        self.windows() * self.window_samples
    }

    /// Windows in this epoch, as an index bound.
    fn windows(&self) -> usize {
        usize::try_from(self.epoch).expect("window count fits usize")
    }

    /// Window `k` of this epoch, oldest first; `None` past the epoch.
    pub fn window(&self, k: usize) -> Option<&'a WindowSegment> {
        (k < self.windows()).then(|| self.log.segment(k))
    }

    /// The service-wide carbon prefix at sample index `i`
    /// (`0 ..= samples()`): the segment's `cum_before` plus its own
    /// frozen prefix — the canonical segmented-prefix rule every
    /// rebuild must reproduce bit for bit.
    // The query hot loop: without the hint the bucket lookup pushes
    // this out of line from `carbon`.
    #[inline(always)]
    pub fn prefix_at(&self, i: usize) -> f64 {
        if self.epoch == 0 {
            return 0.0;
        }
        let w = (i / self.window_samples).min(self.windows() - 1);
        let seg = self.log.segment(w);
        seg.cum_before + seg.attribution.carbon_prefix[i - w * self.window_samples]
    }

    /// Carbon attributed to a tenant holding `alloc` resource units over
    /// `[t0, t1)` — zero for empty, inverted, or out-of-range windows;
    /// endpoints anywhere in `i64` are clamped, never wrapped.
    pub fn carbon(&self, query: BillingQuery) -> f64 {
        let (t0, t1, alloc) = query;
        let n = self.samples();
        let lo = first_sample_at_or_after(self.start, i64::from(self.step), n, t0);
        let hi = first_sample_at_or_after(self.start, i64::from(self.step), n, t1);
        if hi <= lo {
            return 0.0;
        }
        alloc * (self.prefix_at(hi) - self.prefix_at(lo))
    }

    /// Answers a batch in order, appending to `out`.
    pub fn carbon_batch_into(&self, queries: &[BillingQuery], out: &mut Vec<f64>) {
        out.extend(queries.iter().map(|&q| self.carbon(q)));
    }

    /// Answers a batch sharded over `threads` worker threads with an
    /// in-order merge. Each query is independent, so the answers are
    /// bit-identical to [`EpochSnapshot::carbon_batch_into`] at any
    /// thread count.
    pub fn carbon_batch_sharded(&self, queries: &[BillingQuery], threads: usize) -> Vec<f64> {
        if queries.is_empty() {
            return Vec::new();
        }
        let threads = threads.clamp(1, queries.len());
        let chunk_len = queries.len().div_ceil(threads);
        let chunks: Vec<&[BillingQuery]> = queries.chunks(chunk_len).collect();
        let per_chunk = run_parallel(chunks.len(), threads, |c| {
            let mut out = Vec::with_capacity(chunks[c].len());
            self.carbon_batch_into(chunks[c], &mut out);
            out
        });
        per_chunk.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locate_fills_doubling_buckets_in_order() {
        let mut next = (0, 0);
        for k in 0..1 << 12 {
            assert_eq!(locate(k), next, "window {k}");
            next = if next.1 + 1 == 1 << next.0 {
                (next.0 + 1, 0)
            } else {
                (next.0, next.1 + 1)
            };
        }
        assert_eq!(
            locate((1 << BUCKETS) - 2),
            (BUCKETS - 1, (1 << (BUCKETS - 1)) - 1)
        );
    }
}
