//! `live-service`: one in-memory attribution service, in two phases.
//!
//! * **Backfill** — catching up after an outage: the writer replays a
//!   backlog of 48-sample windows of `demand_sample` flat out, with no
//!   readers, into a fresh service.
//! * **Live** — the writer keeps ingesting on an open-loop schedule at a
//!   fixed window rate well below backfill capacity; each sample is
//!   timed from its due time. One tenant thread meanwhile sends 256-query
//!   billing batches in a closed loop against the latest epoch, and a
//!   seeded sample of its (epoch, batch, answers) triples is re-derived
//!   afterwards from a from-scratch rebuild.
//!
//! Persistence stays off: durable writes are fsync-bound, so they would
//! time the disk rather than the service.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use fairco2_serve::{demand_sample, AttributionService, ServiceConfig, ServiceHandle};
use fairco2_shapley::cascade::first_sample_at_or_after;
use fairco2_shapley::incremental::IncrementalCascade;
use fairco2_shapley::temporal::TemporalShapley;
use fairco2_shapley::BillingQuery;
use fairco2_trace::TimeSeries;

use crate::report::{
    median, peak_rss_mib, quantile, set_setup, set_work, status_kib, timed_setups, Outcome,
    Stopwatch, Times,
};
use crate::trace::{report_totals, span, Profile, Tracer};
use crate::{splitmix, RunConfig};

/// Billing queries per tenant batch (the service's default).
pub const BATCH: usize = 256;

/// The service configuration: 48-sample windows (`4 · 4 · 3`).
pub fn service_config() -> ServiceConfig {
    ServiceConfig {
        start: 0,
        step: 300,
        splits: vec![4, 3],
        leaf_samples: 4,
        carbon_per_window: 1000.0,
        persist_dir: None,
    }
}

/// The generated inputs of a run: the demand stream.
pub struct Stream {
    /// Samples of the backfill backlog.
    pub backfill: usize,
    /// Every sample the run may ingest: the backlog, then the live feed.
    pub values: Vec<f64>,
}

impl Stream {
    /// The stream for `seed`: `backfill_windows` windows of backlog plus
    /// enough live samples for `live` at `windows_per_s`.
    pub fn generate(seed: u64, backfill_windows: u64, windows_per_s: f64, live: Duration) -> Self {
        let w = service_config().window_samples() as u64;
        let backfill = backfill_windows * w;
        let live_windows = (windows_per_s * live.as_secs_f64()).ceil() as u64 + 1;
        let values = (0..backfill + live_windows * w)
            .map(|i| demand_sample(i, seed))
            .collect();
        Self {
            backfill: usize::try_from(backfill).expect("backlog fits in memory"),
            values,
        }
    }
}

/// One audited tenant batch: the epoch it read, its queries, its answers.
struct Audit {
    epoch: u64,
    queries: Vec<BillingQuery>,
    answers: Vec<f64>,
}

/// What the tenant thread saw during the live phase.
#[derive(Default)]
struct ReaderLog {
    latency_us: Vec<f64>,
    /// Epochs published while each batch ran.
    epoch_lag: Vec<u64>,
    audits: Vec<Audit>,
    profile: Profile,
}

/// What the writer saw during the live phase.
#[derive(Default)]
struct WriterLog {
    /// Due time to visible epoch, per published window (µs).
    publish_us: Vec<f64>,
    /// How late the generator issued each sample (ms).
    lateness_ms: Vec<f64>,
    windows: u64,
    samples: usize,
}

/// Sleeps until shortly before `due`, then spins, so samples are issued
/// on time without burning the writer's core between them.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Replays the backlog into a fresh service flat out, on this thread
/// alone; returns the service and records the replay's time in
/// `times`. Traced, each
/// window's filling ingests and its closing ingest are spans, and the
/// closing ingest's duration is recorded.
fn backfill(
    stream: &Stream,
    tracer: Option<&Tracer>,
    closing_ns: &mut Vec<u64>,
    times: &mut Times,
) -> AttributionService {
    let mut service = AttributionService::start(service_config()).expect("valid configuration");
    let w = service.config().window_samples();
    let watch = Stopwatch::start();
    for window in stream.values[..stream.backfill].chunks_exact(w) {
        span(tracer, "serve.ingest", || {
            for &v in &window[..w - 1] {
                service.ingest(v).expect("in-memory ingest");
            }
        });
        let c0 = Instant::now();
        let epoch = span(tracer, "serve.publish", || {
            service.ingest(window[w - 1]).expect("in-memory ingest")
        });
        if tracer.is_some() {
            closing_ns.push(c0.elapsed().as_nanos() as u64);
        }
        debug_assert!(epoch.is_some());
    }
    times.record(&watch);
    service
}

/// The live phase: the writer on this thread, one tenant thread reading.
fn live_phase(
    service: &mut AttributionService,
    stream: &Stream,
    cfg: &RunConfig,
    duration: Duration,
    traced: bool,
) -> (WriterLog, ReaderLog) {
    let handle = service.handle();
    let stop = AtomicBool::new(false);
    let w = service.config().window_samples();
    let interval = Duration::from_secs_f64(1.0 / (cfg.scale.live_windows_per_s * w as f64));
    let feed = &stream.values[stream.backfill..];
    let mut writer = WriterLog::default();
    let reader = std::thread::scope(|scope| {
        let reader = scope.spawn(|| read_loop(&handle, &stop, cfg, traced));
        let tracer = traced.then(Tracer::new);
        let start = Instant::now();
        for (i, &v) in feed.iter().enumerate() {
            let due = start + interval * u32::try_from(i).expect("live feed fits u32");
            if due - start >= duration {
                break;
            }
            wait_until(due);
            writer
                .lateness_ms
                .push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
            let name = if (i + 1) % w == 0 {
                "serve.publish"
            } else {
                "serve.ingest"
            };
            let published = span(tracer.as_ref(), name, || {
                service.ingest(v).expect("in-memory ingest")
            });
            writer.samples += 1;
            if published.is_some() {
                writer.publish_us.push(due.elapsed().as_secs_f64() * 1e6);
                writer.windows += 1;
            }
        }
        stop.store(true, Ordering::Relaxed);
        let mut log = reader.join().expect("tenant thread completes");
        if let Some(t) = tracer {
            log.profile.merge(&t.profile());
        }
        log
    });
    (writer, reader)
}

/// The tenant: closed-loop batches against the latest epoch until
/// stopped; keeps a seeded uniform sample of them for the audit.
fn read_loop(
    handle: &ServiceHandle,
    stop: &AtomicBool,
    cfg: &RunConfig,
    traced: bool,
) -> ReaderLog {
    let tracer = traced.then(Tracer::new);
    let mut log = ReaderLog::default();
    let mut rng = cfg.seed ^ 0x7E4A_4715;
    let mut batch = Vec::with_capacity(BATCH);
    let mut answers = Vec::with_capacity(BATCH);
    let mut pick = cfg.seed ^ 0xA0D1_7000;
    let mut n = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let epoch = handle.epoch();
        let covered = (epoch.samples() as u64 + 1) * u64::from(epoch.step);
        batch.clear();
        for _ in 0..BATCH {
            let a = epoch.start + (splitmix(&mut rng) % covered) as i64;
            let b = epoch.start + (splitmix(&mut rng) % covered) as i64;
            let alloc = (splitmix(&mut rng) % 8 + 1) as f64 / 2.0;
            batch.push((a.min(b), a.max(b), alloc));
        }
        answers.clear();
        let t0 = Instant::now();
        span(tracer.as_ref(), "serve.query", || {
            epoch.carbon_batch_into(&batch, &mut answers);
        });
        log.latency_us.push(t0.elapsed().as_secs_f64() * 1e6);
        log.epoch_lag.push(handle.epoch().epoch - epoch.epoch);
        // Reservoir sampling: every batch of the phase is equally likely
        // to be among the audited ones.
        let slot = if log.audits.len() < cfg.scale.audited_batches {
            Some(log.audits.len())
        } else {
            let j = (splitmix(&mut pick) % (n + 1)) as usize;
            (j < log.audits.len()).then_some(j)
        };
        if let Some(slot) = slot {
            let audit = Audit {
                epoch: epoch.epoch,
                queries: batch.clone(),
                answers: answers.clone(),
            };
            if slot == log.audits.len() {
                log.audits.push(audit);
            } else {
                log.audits[slot] = audit;
            }
        }
        n += 1;
    }
    if let Some(t) = tracer {
        log.profile = t.profile();
    }
    log
}

/// Re-derives every audited answer from a from-scratch rebuild: each
/// window attributed on its own by the frozen cascade, joined by the
/// canonical segmented prefix. Returns the mismatching answers.
fn audit(stream: &Stream, audits: &[Audit]) -> u64 {
    let config = service_config();
    let w = config.window_samples();
    let windows = audits.iter().map(|a| a.epoch).max().unwrap_or(0) as usize;
    let frozen = TemporalShapley::new(config.splits.clone());
    let mut prefixes = Vec::with_capacity(windows);
    let mut cum_before = Vec::with_capacity(windows);
    let mut cum = 0.0;
    for k in 0..windows {
        let series = TimeSeries::from_values(
            config.start + (k * w) as i64 * i64::from(config.step),
            config.step,
            stream.values[k * w..(k + 1) * w].to_vec(),
        )
        .expect("non-empty window");
        let prefix = frozen
            .attribute(&series, config.carbon_per_window)
            .expect("hierarchy divides the window")
            .carbon_prefix()
            .to_vec();
        cum_before.push(cum);
        cum += prefix[w];
        prefixes.push(prefix);
    }
    let mut mismatches = 0;
    for a in audits {
        let epoch = a.epoch as usize;
        let samples = epoch * w;
        let prefix_at = |i: usize| {
            let k = (i / w).min(epoch - 1);
            cum_before[k] + prefixes[k][i - k * w]
        };
        for (&(t0, t1, alloc), answer) in a.queries.iter().zip(&a.answers) {
            let step = i64::from(config.step);
            let lo = first_sample_at_or_after(config.start, step, samples, t0);
            let hi = first_sample_at_or_after(config.start, step, samples, t1);
            let expected = if hi <= lo {
                0.0
            } else {
                alloc * (prefix_at(hi) - prefix_at(lo))
            };
            if expected.to_bits() != answer.to_bits() {
                mismatches += 1;
            }
        }
    }
    mismatches
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let live = cfg.budget / 3;
    let (stream, setup) = timed_setups(cfg.scale.setups, cfg.scale.setup_time, || {
        Stream::generate(
            cfg.seed,
            cfg.scale.backfill_windows,
            cfg.scale.live_windows_per_s,
            live,
        )
    });
    let windows = cfg.scale.backfill_windows;

    if cfg.traced {
        run_traced(cfg, &stream, live, &mut out);
        return out;
    }

    let mut backfills = Times::default();
    let mut service = None;
    for _ in 0..cfg.scale.backfills {
        drop(service.take());
        let s = backfill(&stream, None, &mut Vec::new(), &mut backfills);
        out.ledger.attempt(windows);
        out.ledger.check(s.windows_closed() == windows, || {
            format!(
                "backfill closed {} of {windows} windows",
                s.windows_closed()
            )
        });
        service = Some(s);
    }
    let mut service = service.expect("at least one backfill");
    let (writer, reader) = live_phase(&mut service, &stream, cfg, live, false);
    check_live(&mut out, &service, &stream, &writer, &reader);

    let live_s = live.as_secs_f64();
    set_setup(&mut out, &setup);
    out.set("peak_rss_mib", peak_rss_mib());
    set_work(&mut out, &backfills);
    out.detail(
        "backfill_samples_per_cpu_s",
        stream.backfill as f64 / out.metrics["work_cpu_s"],
        "1/s",
    );
    out.detail("backfill_median_s", median(&backfills.wall_s), "s");
    out.detail("publish_p50_us", median(&writer.publish_us), "us");
    out.detail("publish_p99_us", quantile(&writer.publish_us, 0.99), "us");
    out.detail("query_p50_us", median(&reader.latency_us), "us");
    out.detail("query_p99_us", quantile(&reader.latency_us, 0.99), "us");
    out.detail(
        "queries_per_s",
        (reader.latency_us.len() * BATCH) as f64 / live_s,
        "1/s",
    );
    out.detail(
        "ingest_lateness_p99_ms",
        quantile(&writer.lateness_ms, 0.99),
        "ms",
    );
    out.detail("live_windows", writer.windows as f64, "count");
    out.detail("query_batches", reader.latency_us.len() as f64, "count");
    out.detail("audited_batches", reader.audits.len() as f64, "count");
    out
}

/// The live phase's checks: every window published, every audited
/// answer re-derived bit for bit.
fn check_live(
    out: &mut Outcome,
    service: &AttributionService,
    stream: &Stream,
    writer: &WriterLog,
    reader: &ReaderLog,
) {
    let w = service.config().window_samples();
    out.ledger
        .attempt(writer.windows + reader.latency_us.len() as u64);
    out.ledger.check(
        service.windows_closed() == (stream.backfill + writer.samples) as u64 / w as u64,
        || {
            format!(
                "{} windows closed after the live phase",
                service.windows_closed()
            )
        },
    );
    out.ledger.check(!reader.audits.is_empty(), || {
        "no batch was audited".to_owned()
    });
    let mismatches = audit(stream, &reader.audits);
    out.ledger.check(mismatches == 0, || {
        format!("{mismatches} audited answers differ from the rebuild")
    });
}

/// The traced run: the backlog replayed through a bare cascade (push and
/// close timed), then through a service (filling and closing ingests
/// timed), then the live phase with the writer's ingests and the
/// tenant's batches as spans. The tracing totals cover the traced
/// service backfill alone, against an untraced one: the live phase
/// sleeps on its schedule and runs two threads at once, so its spans
/// have no single wall time to add up to.
fn run_traced(cfg: &RunConfig, stream: &Stream, live: Duration, out: &mut Outcome) {
    let config = service_config();
    let w = config.window_samples();
    let windows = stream.backfill / w;
    let tracer = Tracer::new();

    let mut engine =
        IncrementalCascade::new(&config.splits, config.leaf_samples, config.step).expect("valid");
    let mut close_ns = Vec::with_capacity(windows);
    for window in stream.values[..stream.backfill].chunks_exact(w) {
        tracer.span("shapley.push", || {
            for &v in window {
                engine.push(v);
            }
        });
        let c0 = Instant::now();
        tracer.span("shapley.close_window", || {
            engine.close_window(config.carbon_per_window)
        });
        close_ns.push(c0.elapsed().as_nanos() as u64);
    }
    let ops_per_sample = engine.ops() as f64 / stream.backfill as f64;

    let rss0 = status_kib("VmRSS:").unwrap_or(0);
    let backfill_tracer = Tracer::new();
    let mut closing_ns = Vec::with_capacity(windows);
    let t0 = Instant::now();
    let service = backfill_tracer.span("perfbench.harness", || {
        backfill(
            stream,
            Some(&backfill_tracer),
            &mut closing_ns,
            &mut Times::default(),
        )
    });
    let traced_s = [t0.elapsed().as_secs_f64()];
    let rss1 = status_kib("VmRSS:").unwrap_or(0);
    drop(service);
    let mut untraced = Times::default();
    let mut service = backfill(stream, None, &mut Vec::new(), &mut untraced);
    let publish_self: Vec<f64> = closing_ns
        .iter()
        .zip(&close_ns)
        .map(|(&ingest, &close)| (ingest as f64 - close as f64) / 1e3)
        .collect();

    let (writer, reader) = live_phase(&mut service, stream, cfg, live, true);
    check_live(out, &service, stream, &writer, &reader);

    let mut p = tracer.profile();
    p.merge(&reader.profile);
    let samples = stream.backfill as f64;
    out.set(
        "shapley.push_ns",
        p.self_ns["shapley.push"] as f64 / samples,
    );
    out.set(
        "shapley.close_window_us",
        p.self_ns["shapley.close_window"] as f64 / 1e3 / windows as f64,
    );
    out.set("shapley.ops_per_sample", ops_per_sample);
    out.set("serve.publish_self_us", median(&publish_self));
    out.set(
        "serve.query_batch_us",
        p.self_ms("serve.query") * 1e3 / p.calls("serve.query").max(1) as f64,
    );
    out.set(
        "serve.rss_kib_per_window",
        rss1.saturating_sub(rss0) as f64 / windows as f64,
    );
    out.set(
        "serve.ingest_lateness_ms",
        quantile(&writer.lateness_ms, 0.99),
    );
    let lag: u64 = reader.epoch_lag.iter().sum();
    out.set(
        "serve.reader_epoch_lag",
        lag as f64 / reader.epoch_lag.len().max(1) as f64,
    );
    out.set(
        "serve.query_mismatches",
        audit(stream, &reader.audits) as f64,
    );
    out.ledger.attempt(windows as u64);
    report_totals(out, &backfill_tracer.profile(), &traced_s, &untraced.wall_s);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::tests::assert_reports_every_metric;
    use crate::{Scale, Workload};

    fn tiny(traced: bool) -> RunConfig {
        RunConfig {
            seed: 6,
            budget: Duration::from_millis(400),
            traced,
            threads: 2,
            scale: Scale::tiny(),
        }
    }

    #[test]
    fn audit_rederives_answers_and_counts_a_wrong_one() {
        let stream = Stream::generate(6, 8, 100.0, Duration::ZERO);
        let service = backfill(&stream, None, &mut Vec::new(), &mut Times::default());
        let handle = service.handle();
        let epoch = handle.epoch();
        let queries: Vec<BillingQuery> = (0..64)
            .map(|i| (i * 700, i * 700 + 40_000, 1.5))
            .chain([(-5, 10, 1.0), (200_000, 100, 2.0), (0, i64::MAX, 1.0)])
            .collect();
        let mut answers = Vec::new();
        epoch.carbon_batch_into(&queries, &mut answers);
        let mut audits = vec![Audit {
            epoch: epoch.epoch,
            queries,
            answers,
        }];
        assert_eq!(audit(&stream, &audits), 0);
        audits[0].answers[3] *= 1.0 + 1e-12;
        assert_eq!(audit(&stream, &audits), 1);
    }

    #[test]
    fn workload_reports_every_metric() {
        assert_reports_every_metric(Workload::LiveService, &tiny(false));
        assert_reports_every_metric(Workload::LiveService, &tiny(true));
    }
}
