//! Spans around the calls into each layer's public functions.
//!
//! A [`Tracer`] belongs to one thread. [`Tracer::span`] times a closure;
//! spans opened inside it (directly, or by a wrapper the closure calls)
//! are its children. On close each span adds its duration minus its
//! children's to its name's self time, so the self times of all spans
//! sum to the durations of the root spans; [`report_totals`] checks that
//! sum against the wall time of the traced units taken outside the
//! tracer.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

use crate::report::{median, Outcome};

/// Per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    inner: RefCell<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    /// Open spans: `(start_ns, children_ns)`.
    stack: Vec<(u64, u64)>,
    profile: Profile,
}

/// Aggregated self times and call counts by span name.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Profile {
    /// Self time (ns) by span name.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Closed spans by name.
    pub calls: BTreeMap<&'static str, u64>,
    /// Summed duration of root spans (ns).
    pub root_ns: u64,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            inner: RefCell::new(Inner::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).expect("run shorter than 584 years")
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.now_ns();
        self.inner.borrow_mut().stack.push((start, 0));
        let out = f();
        let end = self.now_ns();
        let mut inner = self.inner.borrow_mut();
        let (start, children) = inner.stack.pop().expect("span stack matches");
        let duration = end - start;
        *inner.profile.self_ns.entry(name).or_default() += duration - children.min(duration);
        *inner.profile.calls.entry(name).or_default() += 1;
        match inner.stack.last_mut() {
            Some(parent) => parent.1 += duration,
            None => inner.profile.root_ns += duration,
        }
        out
    }

    /// The profile recorded so far.
    ///
    /// # Panics
    ///
    /// Panics if a span is still open.
    pub fn profile(&self) -> Profile {
        let inner = self.inner.borrow();
        assert!(inner.stack.is_empty(), "profile taken inside a span");
        inner.profile.clone()
    }
}

impl Profile {
    /// Adds another thread's profile.
    pub fn merge(&mut self, other: &Profile) {
        for (name, ns) in &other.self_ns {
            *self.self_ns.entry(name).or_default() += ns;
        }
        for (name, n) in &other.calls {
            *self.calls.entry(name).or_default() += n;
        }
        self.root_ns += other.root_ns;
    }

    /// Self time of `name` in milliseconds (0 if never entered).
    pub fn self_ms(&self, name: &str) -> f64 {
        self.self_ns.get(name).copied().unwrap_or(0) as f64 / 1e6
    }

    /// Closed spans named `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.calls.get(name).copied().unwrap_or(0)
    }

    /// Sum of every span's self time, in ns.
    pub fn self_sum_ns(&self) -> u64 {
        self.self_ns.values().sum()
    }
}

/// Runs `f` in a span when tracing, or plainly otherwise.
pub fn span<T>(tracer: Option<&Tracer>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match tracer {
        Some(t) => t.span(name, f),
        None => f(),
    }
}

/// Largest gap, per traced unit, between the unit's wall time taken
/// outside the tracer and its spans' self times that timer overhead
/// explains: the two outer clock reads and the outermost span's own
/// bookkeeping.
const UNIT_OVERHEAD_S: f64 = 50e-6;

/// Relative share of the traced wall time also allowed as timer
/// overhead, for a preemption landing between an outer clock read and
/// the outermost span.
const WALL_OVERHEAD: f64 = 1e-3;

/// The tracing bookkeeping every traced workload reports, per unit of
/// work: the traced total (the sum of every span's self time), the wall
/// time of the same units taken outside the tracer, the harness's own
/// share, and the traced-minus-untraced overhead. `traced_s` and
/// `untraced_s` are the wall seconds of each traced and untraced unit;
/// the tracer's spans must cover exactly the traced units.
///
/// The self times must add up to the outside wall time within timer
/// overhead; a span lost, left open or counted twice fails the check.
pub fn report_totals(out: &mut Outcome, p: &Profile, traced_s: &[f64], untraced_s: &[f64]) {
    let units = traced_s.len() as f64;
    let self_s = p.self_sum_ns() as f64 / 1e9;
    let wall_s: f64 = traced_s.iter().sum();
    out.set("perfbench.traced_ms", self_s * 1e3 / units);
    out.set("perfbench.traced_wall_ms", wall_s * 1e3 / units);
    out.set(
        "perfbench.harness_ms",
        p.self_ms("perfbench.harness") / units,
    );
    let (traced, untraced) = (median(traced_s), median(untraced_s));
    out.set("perfbench.untraced_ms", untraced * 1e3);
    out.set("perfbench.tracing_overhead_ms", (traced - untraced) * 1e3);
    let allowed = UNIT_OVERHEAD_S * units + WALL_OVERHEAD * wall_s;
    out.ledger.check((self_s - wall_s).abs() <= allowed, || {
        format!(
            "self times sum to {self_s} s but the traced units took {wall_s} s \
             (timer overhead allows {allowed} s)"
        )
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_root_durations() {
        let t = Tracer::new();
        for _ in 0..3 {
            t.span("root", || {
                t.span("a", || {
                    t.span("b", || std::hint::black_box((0..1000).sum::<u64>()));
                });
                t.span("b", || std::hint::black_box((0..500).sum::<u64>()));
            });
        }
        let p = t.profile();
        assert_eq!(p.self_sum_ns(), p.root_ns);
        assert_eq!(p.calls("b"), 6);
        assert_eq!(p.calls("root"), 3);
    }

    #[test]
    fn totals_are_checked_against_the_outside_wall_time() {
        let t = Tracer::new();
        let mut traced_s = Vec::new();
        for _ in 0..3 {
            let t0 = Instant::now();
            t.span("perfbench.harness", || {
                t.span("a", || {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
            traced_s.push(t0.elapsed().as_secs_f64());
        }
        let p = t.profile();
        let mut out = Outcome::default();
        report_totals(&mut out, &p, &traced_s, &traced_s);
        assert_eq!(out.ledger.failed, 0, "{:?}", out.ledger.failures);

        // A profile counted twice reads twice the time the units took.
        let mut doubled = p.clone();
        doubled.merge(&p);
        report_totals(&mut out, &doubled, &traced_s, &traced_s);
        assert_eq!(out.ledger.failed, 1);
    }
}
