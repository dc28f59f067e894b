//! Metric registry, the failure ledger, summary statistics, and the
//! result lines the benchmark prints.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// End-to-end metrics: `(name, unit)`. Every workload reports every one;
/// what each means per workload is documented in `perfbench/README.md`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("work_cpu_s", "s"),
];

/// Per-layer metrics of the traced run: `(crate.metric, unit)`. Times
/// are self times per unit of work (fleet pass, study round, service
/// run); a layer a workload bypasses reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.demand_series_ms", "ms"),
    ("trace.vm_events", "count"),
    ("trace.bytes_computed", "bytes"),
    ("forecast.fit_ms", "ms"),
    ("forecast.predict_ms", "ms"),
    ("shapley.cascade_ms", "ms"),
    ("shapley.cascade_samples", "count"),
    ("shapley.billing_ms", "ms"),
    ("shapley.billing_queries", "count"),
    ("shapley.netgame_self_ms", "ms"),
    ("solver.lp_ms", "ms"),
    ("solver.lp_solves", "count"),
    ("solver.iterations", "count"),
    ("solver.unroutable", "count"),
    ("core.statement_ms", "ms"),
    ("montecarlo.generate_ms", "ms"),
    ("shapley.exact_ms", "ms"),
    ("shapley.exact_coalitions", "count"),
    ("core.baselines_ms", "ms"),
    ("shapley.matching_ms", "ms"),
    ("workloads.profile_sampling_ms", "ms"),
    ("core.fairco2_colocation_ms", "ms"),
    ("shapley.sampled_ms", "ms"),
    ("shapley.coalition_evals", "count"),
    ("shapley.cache_hit_ratio", "ratio"),
    ("montecarlo.retries", "count"),
    ("montecarlo.requeued_batches", "count"),
    ("montecarlo.scratch_table_grows", "count"),
    ("montecarlo.checkpoint_write_ms", "ms"),
    ("montecarlo.checkpoint_restore_ms", "ms"),
    ("montecarlo.checkpoint_bytes", "bytes"),
    ("shapley.push_ns", "ns"),
    ("shapley.close_window_us", "us"),
    ("shapley.ops_per_sample", "count"),
    ("serve.publish_self_us", "us"),
    ("serve.query_batch_us", "us"),
    ("serve.rss_kib_per_window", "KiB"),
    ("serve.ingest_lateness_ms", "ms"),
    ("serve.reader_epoch_lag", "count"),
    ("serve.query_mismatches", "count"),
    ("perfbench.traced_ms", "ms"),
    ("perfbench.traced_wall_ms", "ms"),
    ("perfbench.harness_ms", "ms"),
    ("perfbench.untraced_ms", "ms"),
    ("perfbench.tracing_overhead_ms", "ms"),
];

/// Operations attempted versus operations a check found wrong.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    /// Operations the workload performed.
    pub attempted: u64,
    /// Failed checks; each counts as one failed operation.
    pub failed: u64,
    /// The first few failure messages, for the log.
    pub failures: Vec<String>,
}

impl Ledger {
    /// Counts `n` performed operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Records one check: a false `ok` counts as a failed operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(what());
            }
        }
    }
}

/// A workload's result: its ledger, its metrics for the run's mode, and
/// informational figures printed ahead of the result line.
#[derive(Debug, Default, Clone)]
pub struct Outcome {
    /// Attempted and failed operations.
    pub ledger: Ledger,
    /// Metric values by name (end-to-end or per-layer, by mode).
    pub metrics: BTreeMap<&'static str, f64>,
    /// Workload-specific figures: `(name, value, unit)`.
    pub details: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    /// Sets a registered metric.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from both registries: a typo here would
    /// otherwise drop a metric silently.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the registry"
        );
        self.metrics.insert(name, value);
    }

    /// Adds an informational figure.
    pub fn detail(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.details.push((name, value, unit));
    }

    /// Renders the result line. In traced mode a per-layer metric the
    /// workload never set reads 0 (the layer did no work there).
    ///
    /// # Panics
    ///
    /// Panics if an end-to-end metric is missing in untraced mode.
    pub fn result_line(&self, traced: bool) -> String {
        let registry = if traced { PER_LAYER } else { END_TO_END };
        let mut metrics = String::new();
        for (i, (name, unit)) in registry.iter().enumerate() {
            let value = match self.metrics.get(name) {
                Some(&v) => v,
                None if traced => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            if i > 0 {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.ledger.failed == 0 && self.ledger.attempted > 0,
            self.ledger.attempted.max(1),
            self.ledger.failed
        )
    }

    /// Renders the informational line.
    pub fn details_line(&self) -> String {
        let mut out = String::from("{\"details\": {");
        for (i, (name, value, unit)) in self.details.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            );
        }
        out.push_str("}}");
        out
    }
}

/// The unit a registered metric is reported in.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// A number with every digit Rust's shortest round-trip formatting
/// gives it.
///
/// # Panics
///
/// Panics on a non-finite value, which JSON cannot carry and which only
/// a bug in a workload produces.
fn json_number(v: f64) -> String {
    assert!(v.is_finite(), "metric value {v} is not finite");
    format!("{v:?}")
}

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are not NaN"));
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank `q`-quantile of `values` (`q` in `(0, 1]`).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timings are not NaN"));
    assert!(!v.is_empty(), "quantile of nothing");
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// CPU time this process has used so far, summed over its threads
/// (running and exited), in seconds.
///
/// # Panics
///
/// Panics if the clock cannot be read, which Linux never refuses for
/// this clock.
pub fn cpu_seconds() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and clock_gettime writes only through
    // the pointer it is given.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "the process CPU clock is readable");
    t.tv_sec as f64 + t.tv_nsec as f64 * 1e-9
}

/// Sets `work_cpu_s`: the CPU seconds the run's units took, per unit.
///
/// The total over the run, not the median unit: the host's neighbours
/// slow every unit inside their load, in stretches of seconds to a
/// minute, and over eight 30-second fleet-month runs on a loaded host
/// the CPU time per unit spread by 4% of its median where the median
/// unit spread by 7% and the fastest tenth by 11%.
///
/// # Panics
///
/// Panics if no unit was timed.
pub fn set_work(out: &mut Outcome, units: &Times) {
    assert!(!units.is_empty(), "no unit of work was timed");
    let total: f64 = units.cpu_s.iter().sum();
    out.set("work_cpu_s", total / units.len() as f64);
}

/// Wall and process CPU time since it was started.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    wall: std::time::Instant,
    cpu: f64,
}

impl Stopwatch {
    /// Starts both clocks.
    pub fn start() -> Self {
        Self {
            wall: std::time::Instant::now(),
            cpu: cpu_seconds(),
        }
    }

    /// Wall seconds since the start.
    pub fn wall_s(&self) -> f64 {
        self.wall.elapsed().as_secs_f64()
    }

    /// CPU seconds the process used since the start, over all threads.
    pub fn cpu_s(&self) -> f64 {
        cpu_seconds() - self.cpu
    }
}

/// Per-repetition times of a repeated step.
#[derive(Debug, Default, Clone)]
pub struct Times {
    /// CPU seconds of each repetition.
    pub cpu_s: Vec<f64>,
    /// Wall seconds of each repetition.
    pub wall_s: Vec<f64>,
}

impl Times {
    /// Records one repetition timed by `watch`.
    pub fn record(&mut self, watch: &Stopwatch) {
        self.cpu_s.push(watch.cpu_s());
        self.wall_s.push(watch.wall_s());
    }

    /// Repetitions recorded.
    pub fn len(&self) -> usize {
        self.cpu_s.len()
    }

    /// `true` before the first repetition.
    pub fn is_empty(&self) -> bool {
        self.cpu_s.is_empty()
    }
}

/// Repeats a set-up at least `min_reps` times and until `min_total` has
/// passed; returns the last result and each repetition's times.
pub fn timed_setups<T>(
    min_reps: usize,
    min_total: std::time::Duration,
    mut setup: impl FnMut() -> T,
) -> (T, Times) {
    let started = std::time::Instant::now();
    let mut times = Times::default();
    let mut last = None;
    while times.len() < min_reps.max(1) || started.elapsed() < min_total {
        drop(last.take());
        let watch = Stopwatch::start();
        last = Some(setup());
        times.record(&watch);
    }
    (last.expect("at least one set-up"), times)
}

/// Sets `setup_s` (the median set-up's CPU seconds) and the set-up's
/// wall-clock median as a detail.
pub fn set_setup(out: &mut Outcome, setup: &Times) {
    out.set("setup_s", median(&setup.cpu_s));
    out.detail("setup_wall_s", median(&setup.wall_s), "s");
}

/// A `/proc/self/status` field in KiB (`VmHWM`, `VmRSS`).
pub fn status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:").unwrap_or(0) as f64 / 1024.0
}

/// FNV-1a, a word at a time, over a stream of 64-bit words: the digest used for the
/// "every pass is bit-identical" checks.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Folds one word.
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0 ^ w).wrapping_mul(0x0100_0000_01B3);
    }

    /// Folds the bits of every value.
    pub fn floats(&mut self, values: &[f64]) {
        self.word(values.len() as u64);
        for v in values {
            self.word(v.to_bits());
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// The host fingerprint stamped on every result: core count, CPU model,
/// compiler, and the revision of the code measured.
pub fn fingerprint_line(workload: &str, seed: u64, traced: bool, threads: usize) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_owned());
    // Only this checkout's own history names the commit; a checkout
    // without one (or nested in another repository) reads `none`.
    let commit = Path::new(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "--short=12", "HEAD"]))
        .flatten()
        .unwrap_or_else(|| "none".to_owned());
    let digest = source_digest(Path::new("crates"));
    format!(
        "{{\"fingerprint\": {{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {}, \
         \"nproc\": {threads}, \"cpu\": \"{}\", \"rustc\": \"{}\", \"commit\": \"{}\", \
         \"source_digest\": \"{digest:016x}\"}}}}",
        u8::from(traced),
        escape(&cpu),
        escape(&rustc),
        escape(&commit)
    )
}

/// The first line a command prints, if it runs and succeeds.
fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    Some(text.lines().next()?.trim().to_owned())
}

/// FNV-1a digest of every file under `root` (paths sorted), so runs of
/// a checkout without git history still name the code they measured.
fn source_digest(root: &Path) -> u64 {
    let mut files = Vec::new();
    collect_files(root, &mut files);
    files.sort();
    let mut d = Digest::default();
    for path in files {
        for b in path.to_string_lossy().bytes() {
            d.word(u64::from(b));
        }
        if let Ok(bytes) = std::fs::read(&path) {
            for chunk in bytes.chunks(8) {
                let mut w = [0u8; 8];
                w[..chunk.len()].copy_from_slice(chunk);
                d.word(u64::from_le_bytes(w));
            }
        }
    }
    d.finish()
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        match entry.file_type() {
            Ok(t) if t.is_dir() => collect_files(&path, out),
            Ok(t) if t.is_file() => out.push(path),
            _ => {}
        }
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{run, RunConfig, Workload};

    /// Runs `workload` and checks its result line: correct, every metric
    /// of the mode present once with its unit, end-to-end metrics
    /// positive, and (traced) self times summing to the wall time of the
    /// traced units.
    pub(crate) fn assert_reports_every_metric(workload: Workload, cfg: &RunConfig) {
        let out = run(workload, cfg);
        assert_eq!(out.ledger.failed, 0, "{:?}", out.ledger.failures);
        assert!(out.ledger.attempted > 0);
        let line = out.result_line(cfg.traced);
        assert!(line.starts_with("{\"correct\": true, "), "{line}");
        let registry = if cfg.traced { PER_LAYER } else { END_TO_END };
        for (name, unit) in registry {
            let field = format!("\"{name}\": {{\"value\": ");
            assert_eq!(line.matches(&field).count(), 1, "{name} in {line}");
            let rest = &line[line.find(&field).unwrap() + field.len()..];
            let (value, tail) = rest.split_once(',').unwrap();
            assert!(
                tail.starts_with(&format!(" \"unit\": \"{unit}\"}}")),
                "{name}: {tail}"
            );
            let value: f64 = value.parse().unwrap();
            assert!(value.is_finite(), "{name} = {value}");
            if !cfg.traced {
                assert!(value > 0.0, "{} {name} = {value}", workload.name());
            }
        }
        if cfg.traced {
            let traced = out.metrics["perfbench.traced_ms"];
            // The ledger check above covers the sum against the wall time.
            assert!(traced > 0.0 && out.metrics["perfbench.traced_wall_ms"] > 0.0);
        }
    }

    #[test]
    fn ledger_counts_failed_checks() {
        let mut l = Ledger::default();
        l.attempt(2);
        l.check(true, || unreachable!());
        l.check(false, || "wrong".to_owned());
        assert_eq!((l.attempted, l.failed), (2, 1));
        assert_eq!(l.failures, ["wrong"]);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.5);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&[3.0], 0.99), 3.0);
    }

    #[test]
    fn registries_have_unique_well_formed_names() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate metric names");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
            );
        }
    }
}
