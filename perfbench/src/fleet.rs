//! `fleet-month`: batch billing of a 30-day fleet, single-threaded.
//!
//! Set-up generates the Azure-scale VM population, groups its VMs into
//! ten tenants by their stable per-VM tag (one billing query per VM), and
//! builds the colocation scenario and the network game. Each timed pass
//! then runs the month's pipeline in order: demand sweep, live signal
//! (forecast fit on days 1–21, 9-day projection), Temporal Shapley over
//! the month, one billing batch per tenant, the tenants' carbon
//! statement audited against the matching-game ground truth, and the
//! exact Shapley split of the network game.

use std::cell::Cell;
use std::time::Instant;

use fairco2::colocation::{ColocationScenario, FairCo2Colocation, GroundTruthMatching};
use fairco2::report::CarbonStatement;
use fairco2::signal::LiveSignal;
use fairco2_bench::netbench::{benchmark_demands, benchmark_network};
use fairco2_carbon::units::CarbonIntensity;
use fairco2_carbon::ServerSpec;
use fairco2_forecast::{split_at_day, SeasonalForecaster};
use fairco2_shapley::coalition::Coalition;
use fairco2_shapley::exact::exact_shapley;
use fairco2_shapley::game::Game;
use fairco2_shapley::netgame::{CoalitionValue, NetworkCarbonGame};
use fairco2_shapley::temporal::{TemporalAttribution, TemporalShapley};
use fairco2_shapley::BillingQuery;
use fairco2_trace::scale::ScaleVmConfig;
use fairco2_trace::vms::{VmEvent, VmPopulation};
use fairco2_trace::TimeSeries;
use fairco2_workloads::{NodeAccounting, ALL_WORKLOADS};

use crate::report::{
    median, peak_rss_mib, quantile, set_setup, set_work, timed_setups, Digest, Outcome, Stopwatch,
    Times,
};
use crate::trace::{report_totals, span, Profile, Tracer};
use crate::{close, splitmix, RunConfig};

/// Tenants the fleet is split into.
pub const TENANTS: usize = 10;
/// Horizon of the fleet-month in days.
const DAYS: u32 = 30;
/// Days of history the live signal's forecaster is fitted on.
const HISTORY_DAYS: u32 = 21;
/// Demand sampling step (seconds).
const STEP: u32 = 300;
/// Relative tolerance of the efficiency checks.
const REL: f64 = 1e-9;

/// The generated inputs of one fleet-month.
pub struct Fleet {
    /// Every VM of the month.
    pub population: VmPopulation,
    /// One billing query per VM, grouped by tenant.
    pub tenants: Vec<Vec<BillingQuery>>,
    /// Embodied carbon of the fleet's servers for the month (gCO₂e).
    pub monthly_embodied: f64,
    /// The tenants' colocation scenario for the statement.
    pub scenario: ColocationScenario,
    /// Accounting context of the statement.
    pub ctx: NodeAccounting,
    /// The tenants' network carbon game.
    pub game: NetworkCarbonGame,
}

impl Fleet {
    /// Generates the fleet-month for `seed` with about `vms` short VMs.
    pub fn generate(seed: u64, vms: u64) -> Self {
        let config = ScaleVmConfig {
            seed,
            ..ScaleVmConfig::for_total_vms(vms, DAYS)
        };
        let population = config.collect_events(1);
        // Long-running VMs come first in the population and carry no
        // bucket tag: deal them round-robin. Short VMs follow in bucket
        // order, which is the order `for_each_vm_in` streams their tags.
        let mut tenant_of: Vec<u8> = (0..config.long_vm_count)
            .map(|i| (i % TENANTS) as u8)
            .collect();
        tenant_of.reserve(population.vms().len());
        config.for_each_vm_in(0, config.buckets(), |bucket, k, _| {
            tenant_of.push((config.vm_tag(bucket, k) % TENANTS as u64) as u8);
        });
        assert_eq!(tenant_of.len(), population.vms().len(), "one tag per VM");
        let mut tenants: Vec<Vec<BillingQuery>> = vec![Vec::new(); TENANTS];
        for (vm, &t) in population.vms().iter().zip(&tenant_of) {
            tenants[usize::from(t)].push(query(vm));
        }

        let server = ServerSpec::xeon_6240r();
        let peak = population.demand_series(STEP).peak();
        let servers = (peak / f64::from(server.physical_cores())).ceil().max(1.0);
        let monthly_embodied = server.embodied_per_month().as_grams() * servers;

        let mut rng = seed ^ 0xF1EE_7000;
        let kinds: Vec<_> = (0..TENANTS)
            .map(|_| ALL_WORKLOADS[(splitmix(&mut rng) % ALL_WORKLOADS.len() as u64) as usize])
            .collect();
        let scenario = ColocationScenario::pair_in_order(&kinds).expect("ten tenants");
        let grid = 50.0 + (splitmix(&mut rng) % 900) as f64;
        let ctx = NodeAccounting::paper_default(CarbonIntensity::from_g_per_kwh(grid));
        let game = NetworkCarbonGame::new(benchmark_network(), benchmark_demands(TENANTS));
        Self {
            population,
            tenants,
            monthly_embodied,
            scenario,
            ctx,
            game,
        }
    }

    /// VMs in the month.
    pub fn vms(&self) -> usize {
        self.population.vms().len()
    }
}

fn query(vm: &VmEvent) -> BillingQuery {
    (vm.start, vm.end, vm.cores)
}

/// What one pass produced, reduced to what the checks need.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PassResult {
    /// Digest of every output bit of the pass.
    pub digest: u64,
    /// Statement total (gCO₂e).
    pub statement_total: f64,
    /// Carbon pool of the colocation scenario.
    pub pool_total: f64,
    /// Σφ of the network game.
    pub network_phi_sum: f64,
    /// Efficiency gap of the month's Temporal Shapley attribution:
    /// `|Σ demand·intensity·step + stranded − carbon| / carbon`.
    pub cascade_gap: f64,
}

/// Counters of the network game's LP solves in a traced pass.
#[derive(Debug, Default, Clone, Copy)]
pub struct LpCounts {
    /// Coalition LPs solved.
    pub solves: u64,
    /// Simplex iterations across them.
    pub iterations: u64,
    /// Coalitions whose demand could not be routed.
    pub unroutable: u64,
}

/// A [`Game`] that traces each coalition solve of the network game.
struct TimedGame<'a> {
    game: &'a NetworkCarbonGame,
    tracer: &'a Tracer,
    counts: Cell<LpCounts>,
}

impl Game for TimedGame<'_> {
    fn player_count(&self) -> usize {
        self.game.player_count()
    }

    fn value(&self, coalition: &Coalition) -> f64 {
        let value = self
            .tracer
            .span("solver.lp", || self.game.evaluate(coalition));
        let mut c = self.counts.get();
        c.solves += 1;
        if let Some(s) = value.stats() {
            c.iterations += s.iterations;
        }
        if let CoalitionValue::Unroutable { .. } = value {
            c.unroutable += 1;
        }
        self.counts.set(c);
        value.carbon()
    }
}

/// Carbon the attribution assigns to the demand it was computed on, plus
/// what it stranded, relative to what it was given.
fn efficiency_gap(demand: &TimeSeries, att: &TemporalAttribution, carbon: f64) -> f64 {
    let step = f64::from(demand.step());
    let assigned: f64 = demand
        .values()
        .iter()
        .zip(att.leaf_intensity().values())
        .map(|(d, y)| d * y * step)
        .sum();
    ((assigned + att.stranded_carbon() - carbon) / carbon).abs()
}

/// Everything one pass produced.
pub struct PassOutputs {
    demand: TimeSeries,
    live: TemporalAttribution,
    month: TemporalAttribution,
    statement: CarbonStatement,
    phi: Vec<f64>,
}

/// One pass of the month's pipeline. With a tracer, each layer call is a
/// span and the live signal is built from its public parts (fit,
/// predict, splice, attribute) so forecasting is timed on its own; the
/// outputs are bit-identical either way. Tenant `t`'s bill lands in
/// `bills[t]`; `billing_us` receives each tenant's billing latency.
pub fn pass(
    fleet: &Fleet,
    tracer: Option<&Tracer>,
    bills: &mut [Vec<f64>],
    billing_us: &mut Vec<f64>,
    lp: &mut LpCounts,
) -> PassOutputs {
    let demand = span(tracer, "trace.demand_series", || {
        fleet.population.demand_series(STEP)
    });

    let (history, holdout) = split_at_day(&demand, HISTORY_DAYS).expect("30-day series");
    let hierarchy = TemporalShapley::paper_hierarchy();
    let live = match tracer {
        None => LiveSignal::paper_default()
            .generate(&history, holdout.len(), fleet.monthly_embodied)
            .expect("live signal over a full month"),
        Some(t) => {
            let fitted = t.span("forecast.fit", || {
                SeasonalForecaster::default_daily_weekly()
                    .fit(&history)
                    .expect("21 days of history fit")
            });
            let forecast = t.span("forecast.predict", || fitted.predict(holdout.len()));
            let mut values = history.values().to_vec();
            values.extend_from_slice(forecast.values());
            let combined = TimeSeries::from_values(history.start(), history.step(), values)
                .expect("non-empty history");
            t.span("shapley.cascade", || {
                hierarchy.attribute(&combined, fleet.monthly_embodied)
            })
            .expect("paper hierarchy divides the month")
        }
    };

    let month = span(tracer, "shapley.cascade", || {
        hierarchy.attribute(&demand, fleet.monthly_embodied)
    })
    .expect("paper hierarchy divides the month");

    for (queries, bill) in fleet.tenants.iter().zip(bills.iter_mut()) {
        let t0 = Instant::now();
        span(tracer, "shapley.billing", || {
            month.workload_carbon_batch_into(queries, bill);
        });
        billing_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }

    let fair = FairCo2Colocation::with_full_history();
    let statement = span(tracer, "core.statement", || {
        CarbonStatement::for_scenario(
            &fleet.scenario,
            &fleet.ctx,
            &fair,
            Some(&GroundTruthMatching),
        )
    })
    .expect("non-empty scenario");

    let phi = match tracer {
        None => exact_shapley(&fleet.game),
        Some(t) => {
            let timed = TimedGame {
                game: &fleet.game,
                tracer: t,
                counts: Cell::new(LpCounts::default()),
            };
            let phi = t.span("shapley.netgame", || exact_shapley(&timed));
            let c = timed.counts.get();
            lp.solves += c.solves;
            lp.iterations += c.iterations;
            lp.unroutable += c.unroutable;
            phi
        }
    }
    .expect("ten players");

    PassOutputs {
        demand,
        live,
        month,
        statement,
        phi,
    }
}

impl PassResult {
    /// Reduces a pass's outputs (after its timer stopped).
    fn of(fleet: &Fleet, o: &PassOutputs, bills: &[Vec<f64>]) -> Self {
        let mut digest = Digest::default();
        digest.floats(o.demand.values());
        digest.floats(o.live.carbon_prefix());
        digest.floats(o.month.carbon_prefix());
        for bill in bills {
            digest.floats(bill);
        }
        for line in &o.statement.lines {
            digest.floats(&[line.embodied_g, line.static_g, line.dynamic_g]);
            digest.floats(&[line.deviation_pct.unwrap_or(f64::NAN)]);
        }
        digest.floats(&o.phi);
        Self {
            digest: digest.finish(),
            statement_total: o.statement.total_g(),
            pool_total: fleet.scenario.carbon(&fleet.ctx).total(),
            network_phi_sum: o.phi.iter().sum(),
            cascade_gap: efficiency_gap(&o.demand, &o.month, fleet.monthly_embodied),
        }
    }
}

/// Checks one pass against the documented contracts and the first pass.
fn check_pass(out: &mut Outcome, r: &PassResult, first: &PassResult, v_grand: f64) {
    out.ledger.attempt(1);
    out.ledger.check(r.digest == first.digest, || {
        format!(
            "pass digest {:016x} differs from the first pass's {:016x}",
            r.digest, first.digest
        )
    });
    out.ledger
        .check(close(r.statement_total, r.pool_total, REL), || {
            format!(
                "statement total {} differs from the scenario pool {}",
                r.statement_total, r.pool_total
            )
        });
    out.ledger
        .check(close(r.network_phi_sum, v_grand, REL), || {
            format!(
                "network Σφ {} differs from v(N) {}",
                r.network_phi_sum, v_grand
            )
        });
    out.ledger.check(r.cascade_gap <= REL, || {
        format!("month attribution efficiency gap {}", r.cascade_gap)
    });
}

/// Batch answers must equal the single-query lookup bit for bit (the
/// batch API's documented contract), on a seeded sample of each tenant.
fn check_billing(out: &mut Outcome, fleet: &Fleet, seed: u64) {
    let demand = fleet.population.demand_series(STEP);
    let month = TemporalShapley::paper_hierarchy()
        .attribute(&demand, fleet.monthly_embodied)
        .expect("paper hierarchy divides the month");
    let mut rng = seed ^ 0xB111;
    let mut batch = Vec::new();
    for queries in &fleet.tenants {
        month.workload_carbon_batch_into(queries, &mut batch);
        for _ in 0..64.min(queries.len()) {
            let i = (splitmix(&mut rng) % queries.len() as u64) as usize;
            let (t0, t1, alloc) = queries[i];
            let single = month.workload_carbon(t0, t1, alloc);
            out.ledger
                .check(single.to_bits() == batch[i].to_bits(), || {
                    format!("billing query {i}: batch {} vs single {single}", batch[i])
                });
        }
    }
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    let (fleet, setup) = timed_setups(cfg.scale.setups, cfg.scale.setup_time, || {
        Fleet::generate(cfg.seed, cfg.scale.fleet_vms)
    });
    let v_grand = fleet.game.value(&Coalition::grand(TENANTS));
    let deadline = Instant::now() + cfg.budget;
    let mut bills = vec![Vec::new(); TENANTS];
    let mut billing_us = Vec::new();
    let mut first = None;
    let mut check = |out: &mut Outcome, o: &PassOutputs, bills: &[Vec<f64>]| {
        let r = PassResult::of(&fleet, o, bills);
        let first = *first.get_or_insert(r);
        check_pass(out, &r, &first, v_grand);
    };

    if cfg.traced {
        // Traced and untraced passes alternate, so tracing overhead is
        // the difference of their medians.
        let tracer = Tracer::new();
        let (mut traced_s, mut untraced_s) = (Vec::new(), Vec::new());
        let mut lp = LpCounts::default();
        while traced_s.len() < 2 || Instant::now() < deadline {
            let t0 = Instant::now();
            let o = pass(&fleet, None, &mut bills, &mut billing_us, &mut lp);
            untraced_s.push(t0.elapsed().as_secs_f64());
            check(&mut out, &o, &bills);
            let t0 = Instant::now();
            let o = tracer.span("perfbench.harness", || {
                pass(&fleet, Some(&tracer), &mut bills, &mut billing_us, &mut lp)
            });
            traced_s.push(t0.elapsed().as_secs_f64());
            check(&mut out, &o, &bills);
        }
        set_layers(
            &mut out,
            &fleet,
            &tracer.profile(),
            &lp,
            traced_s.len() as f64,
        );
        report_totals(&mut out, &tracer.profile(), &traced_s, &untraced_s);
        return out;
    }

    let mut passes = Times::default();
    while passes.len() < 3 || Instant::now() < deadline {
        let watch = Stopwatch::start();
        let o = pass(
            &fleet,
            None,
            &mut bills,
            &mut billing_us,
            &mut LpCounts::default(),
        );
        passes.record(&watch);
        check(&mut out, &o, &bills);
    }
    check_billing(&mut out, &fleet, cfg.seed);

    set_setup(&mut out, &setup);
    out.set("peak_rss_mib", peak_rss_mib());
    set_work(&mut out, &passes);
    out.detail("fleet_month_s", median(&passes.wall_s), "s");
    out.detail("passes", passes.len() as f64, "count");
    out.detail("vms", fleet.vms() as f64, "count");
    out.detail("billing_p50_us", median(&billing_us), "us");
    out.detail("billing_p99_us", quantile(&billing_us, 0.99), "us");
    out.detail("billing_requests", billing_us.len() as f64, "count");
    out
}

/// Per-layer metrics of the traced passes, per pass.
fn set_layers(out: &mut Outcome, fleet: &Fleet, p: &Profile, lp: &LpCounts, passes: f64) {
    let per_pass = |name: &str| p.self_ms(name) / passes;
    let samples = (u64::from(DAYS) * 86_400 / u64::from(STEP)) as f64;
    out.set("trace.demand_series_ms", per_pass("trace.demand_series"));
    out.set("trace.vm_events", fleet.vms() as f64);
    // The sweep reads every event and writes the delta and level arrays.
    out.set(
        "trace.bytes_computed",
        fleet.vms() as f64 * std::mem::size_of::<VmEvent>() as f64 + (2.0 * samples + 1.0) * 8.0,
    );
    out.set("forecast.fit_ms", per_pass("forecast.fit"));
    out.set("forecast.predict_ms", per_pass("forecast.predict"));
    out.set("shapley.cascade_ms", per_pass("shapley.cascade"));
    out.set("shapley.cascade_samples", 2.0 * samples);
    out.set("shapley.billing_ms", per_pass("shapley.billing"));
    out.set("shapley.billing_queries", fleet.vms() as f64);
    out.set("shapley.netgame_self_ms", per_pass("shapley.netgame"));
    out.set("solver.lp_ms", per_pass("solver.lp"));
    out.set("solver.lp_solves", lp.solves as f64 / passes);
    out.set("solver.iterations", lp.iterations as f64 / passes);
    out.set("solver.unroutable", lp.unroutable as f64 / passes);
    out.set("core.statement_ms", per_pass("core.statement"));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Scale, Workload};
    use std::time::Duration;

    fn tiny(traced: bool) -> RunConfig {
        RunConfig {
            seed: 3,
            budget: Duration::ZERO,
            traced,
            threads: 2,
            scale: Scale::tiny(),
        }
    }

    #[test]
    fn passes_are_correct_and_a_wrong_answer_is_counted() {
        let fleet = Fleet::generate(3, Scale::tiny().fleet_vms);
        let v_grand = fleet.game.value(&Coalition::grand(TENANTS));
        let mut bills = vec![Vec::new(); TENANTS];
        let o = pass(
            &fleet,
            None,
            &mut bills,
            &mut Vec::new(),
            &mut LpCounts::default(),
        );
        let good = PassResult::of(&fleet, &o, &bills);
        let mut out = Outcome::default();
        check_pass(&mut out, &good, &good, v_grand);
        assert_eq!(out.ledger.failed, 0, "{:?}", out.ledger.failures);

        let mut wrong = good;
        wrong.network_phi_sum *= 1.0 + 1e-6;
        check_pass(&mut out, &wrong, &good, v_grand);
        assert_eq!(out.ledger.failed, 1);
        bills[0][0] += 1.0;
        let tampered = PassResult::of(&fleet, &o, &bills);
        check_pass(&mut out, &tampered, &good, v_grand);
        assert_eq!(out.ledger.failed, 2, "a changed bill must break the digest");
        assert_eq!(out.ledger.attempted, 3);
    }

    #[test]
    fn traced_and_untraced_passes_are_bit_identical() {
        let fleet = Fleet::generate(5, Scale::tiny().fleet_vms);
        let mut bills = vec![Vec::new(); TENANTS];
        let plain = pass(
            &fleet,
            None,
            &mut bills,
            &mut Vec::new(),
            &mut LpCounts::default(),
        );
        let plain = PassResult::of(&fleet, &plain, &bills);
        let tracer = Tracer::new();
        let mut lp = LpCounts::default();
        let traced = pass(&fleet, Some(&tracer), &mut bills, &mut Vec::new(), &mut lp);
        assert_eq!(PassResult::of(&fleet, &traced, &bills), plain);
        assert_eq!(lp.solves, 1 << TENANTS);
    }

    #[test]
    fn workload_reports_every_metric() {
        crate::report::tests::assert_reports_every_metric(Workload::FleetMonth, &tiny(false));
        crate::report::tests::assert_reports_every_metric(Workload::FleetMonth, &tiny(true));
    }
}
