//! Pins for the flat Temporal Shapley cascade against the per-period
//! reference:
//!
//! * the cascade ([`TemporalShapley::attribute`]) matches the per-period
//!   reference ([`TemporalShapley::attribute_per_period`]) to a
//!   documented ulp-accumulation bound on random series and hierarchies
//!   (its sums are *reassociated* by the canonical lane reduction; shapes,
//!   zero/sign decisions — stranding, weight fallbacks — and the work
//!   counters stay exact);
//! * crafted exact-arithmetic vectors drive the φ·q → q → duration weight
//!   fallbacks and match the reference bit for bit;
//! * a reused [`CascadeScratch`] reproduces fresh results exactly, also
//!   when the hierarchy changes at the same sample count;
//! * both paths report the same typed errors;
//! * [`TemporalAttribution::workload_carbon_batch`] matches per-call
//!   [`TemporalAttribution::workload_carbon`] bit-for-bit.

use fairco2_shapley::cascade::{BillingQuery, CascadeScratch};
use fairco2_shapley::temporal::{TemporalAttribution, TemporalShapley};
use fairco2_trace::series::SeriesError;
use fairco2_trace::TimeSeries;
use proptest::prelude::*;

/// Asserts two attributions are bit-identical in every observable:
/// per-level intensity signals, stranded carbon, the billing prefix, and
/// the work counters.
fn assert_bits_eq(label: &str, a: &TemporalAttribution, b: &TemporalAttribution) {
    assert_eq!(
        a.level_intensity().len(),
        b.level_intensity().len(),
        "{label}: level count"
    );
    for (level, (la, lb)) in a
        .level_intensity()
        .iter()
        .zip(b.level_intensity())
        .enumerate()
    {
        assert_eq!(la.start(), lb.start(), "{label}: level {level} start");
        assert_eq!(la.step(), lb.step(), "{label}: level {level} step");
        assert_eq!(la.len(), lb.len(), "{label}: level {level} len");
        for (k, (va, vb)) in la.values().iter().zip(lb.values()).enumerate() {
            assert_eq!(
                va.to_bits(),
                vb.to_bits(),
                "{label}: level {level} sample {k}: {va} vs {vb}"
            );
        }
    }
    for (k, (va, vb)) in a.carbon_prefix().iter().zip(b.carbon_prefix()).enumerate() {
        assert_eq!(va.to_bits(), vb.to_bits(), "{label}: prefix entry {k}");
    }
    assert_eq!(
        a.stranded_carbon().to_bits(),
        b.stranded_carbon().to_bits(),
        "{label}: stranded"
    );
    assert_eq!(
        a.naive_subset_evaluations().to_bits(),
        b.naive_subset_evaluations().to_bits(),
        "{label}: naive counter"
    );
    assert_eq!(
        a.closed_form_operations(),
        b.closed_form_operations(),
        "{label}: ops counter"
    );
}

/// Asserts two attributions agree to a relative tolerance per element,
/// with the *discrete* observables (shapes, counters, and exact-zero
/// stranding decisions) still exact. Used to pin the cascade against
/// the per-period reference: each lane sum differs from the reference's
/// left-to-right fold only by reassociation, so the per-element error is bounded by
/// `O(n · ε)` relative — `n ≤ 8641` samples and `ε = 2⁻⁵²` put the true
/// bound near `2e-12`; `1e-9` leaves three orders of slack without
/// masking real bugs.
fn assert_close(label: &str, a: &TemporalAttribution, b: &TemporalAttribution, tol: f64) {
    let close = |x: f64, y: f64| (x - y).abs() <= tol * x.abs().max(y.abs()).max(f64::MIN_POSITIVE);
    assert_eq!(
        a.level_intensity().len(),
        b.level_intensity().len(),
        "{label}: level count"
    );
    for (level, (la, lb)) in a
        .level_intensity()
        .iter()
        .zip(b.level_intensity())
        .enumerate()
    {
        assert_eq!(la.len(), lb.len(), "{label}: level {level} len");
        for (k, (va, vb)) in la.values().iter().zip(lb.values()).enumerate() {
            assert!(
                close(*va, *vb),
                "{label}: level {level} sample {k}: {va} vs {vb}"
            );
            // Zero-demand decisions are exact in both kernels: a period
            // sum is zero iff every sample is zero, regardless of
            // association order over non-negative demand.
            assert_eq!(*va == 0.0, *vb == 0.0, "{label}: level {level} zero {k}");
        }
    }
    for (k, (va, vb)) in a.carbon_prefix().iter().zip(b.carbon_prefix()).enumerate() {
        assert!(close(*va, *vb), "{label}: prefix entry {k}: {va} vs {vb}");
    }
    assert!(
        close(a.stranded_carbon(), b.stranded_carbon()),
        "{label}: stranded {} vs {}",
        a.stranded_carbon(),
        b.stranded_carbon()
    );
    assert_eq!(
        a.naive_subset_evaluations().to_bits(),
        b.naive_subset_evaluations().to_bits(),
        "{label}: naive counter"
    );
    assert_eq!(
        a.closed_form_operations(),
        b.closed_form_operations(),
        "{label}: ops counter"
    );
}

/// Builds a demand series from raw values and a zero mask (mask value 0
/// forces the sample to zero so stranding paths get exercised).
fn masked_series(values: &[f64], mask: &[u8], start: i64, step: u32) -> TimeSeries {
    let samples: Vec<f64> = values
        .iter()
        .zip(mask)
        .map(|(&v, &m)| if m == 0 { 0.0 } else { v })
        .collect();
    TimeSeries::from_values(start, step, samples).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn flat_cascade_matches_the_per_period_reference(
        splits in prop::collection::vec(2usize..=4, 0..=3),
        chunk in 1usize..=6,
        slack in 0usize..=17,
        raw in prop::collection::vec(0.0f64..50.0, 512),
        mask in prop::collection::vec(0u8..=3, 512),
        start in -86_400i64..86_400,
        carbon in 0.0f64..5_000.0,
    ) {
        // len >= product(splits) keeps every level splittable (each
        // child is at least the product of the remaining ratios long).
        let product: usize = splits.iter().product();
        let len = product * chunk + slack;
        prop_assume!(len >= product.max(1) && len <= raw.len());
        let series = masked_series(&raw[..len], &mask[..len], start, 300);
        let h = TemporalShapley::new(splits);
        let reference = h.attribute_per_period(&series, carbon).unwrap();
        let flat = h.attribute(&series, carbon).unwrap();
        assert_close("flat vs reference", &reference, &flat, 1e-9);
    }

    #[test]
    fn reused_scratch_reproduces_fresh_results(
        first_len in 24usize..=96,
        second_len in 24usize..=96,
        same_len in 0u8..=1,
        second_pick in 0usize..5,
        raw in prop::collection::vec(0.0f64..50.0, 96),
        mask in prop::collection::vec(0u8..=3, 96),
        carbon in 0.0f64..5_000.0,
    ) {
        // Two attributions through one scratch, the second with its own
        // length and hierarchy — or the first run's length, so the
        // bounds cached on (samples, splits) must be re-derived exactly
        // when the splits change. The second run must match a fresh run
        // bit-for-bit (no state leaks).
        let second_splits: [&[usize]; 5] = [&[3, 2], &[2, 3], &[4], &[2, 2, 2], &[]];
        let h = TemporalShapley::new(vec![3, 2]);
        let h2 = TemporalShapley::new(second_splits[second_pick].to_vec());
        let second_len = if same_len == 1 { first_len } else { second_len };
        let a = masked_series(&raw[..first_len], &mask[..first_len], 0, 300);
        let b = masked_series(&raw[..second_len], &mask[..second_len], 900, 60);
        let mut scratch = CascadeScratch::new();
        h.attribute_with_scratch(&a, carbon, &mut scratch).unwrap();
        assert_bits_eq(
            "scratch first run",
            &h.attribute(&a, carbon).unwrap(),
            &scratch.to_attribution(),
        );
        h2.attribute_with_scratch(&b, carbon * 0.5, &mut scratch).unwrap();
        assert_bits_eq(
            "scratch after reuse",
            &h2.attribute(&b, carbon * 0.5).unwrap(),
            &scratch.to_attribution(),
        );
    }

    #[test]
    fn batched_billing_queries_match_per_call_lookups(
        raw in prop::collection::vec(0.0f64..50.0, 96),
        mask in prop::collection::vec(0u8..=3, 96),
        carbon in 0.0f64..5_000.0,
        queries in prop::collection::vec(
            (-40_000i64..40_000, -40_000i64..40_000, 0.0f64..8.0),
            1..=64,
        ),
    ) {
        let series = masked_series(&raw, &mask, -7_200, 300);
        let att = TemporalShapley::new(vec![4, 3])
            .attribute(&series, carbon)
            .unwrap();
        let batch: Vec<BillingQuery> = queries.clone();
        let answers = att.workload_carbon_batch(&batch);
        prop_assert_eq!(answers.len(), batch.len());
        for (answer, (t0, t1, alloc)) in answers.iter().zip(queries) {
            prop_assert_eq!(
                answer.to_bits(),
                att.workload_carbon(t0, t1, alloc).to_bits()
            );
        }
    }
}

/// The q-proportional fallback requires Σ φ·q ≤ 0 with Σ q > 0 — only
/// reachable with mixed-sign demand. This exact-arithmetic vector
/// (children [1, 3] and [9, −10]: φ = [1.5, 7.5], q = [1200, −300],
/// denom = −450, q_total = 900) pins the fallback on both paths.
#[test]
fn q_fallback_is_bit_identical_and_strands_negative_carbon() {
    let series = TimeSeries::from_values(0, 300, vec![1.0, 3.0, 9.0, -10.0]).unwrap();
    let h = TemporalShapley::new(vec![2]);
    let reference = h.attribute_per_period(&series, 90.0).unwrap();
    let flat = h.attribute(&series, 90.0).unwrap();
    assert_bits_eq("q fallback", &reference, &flat);
    // q weights are [4/3, −1/3]; the second child's q ≤ 0 strands its
    // (negative) share: 90 · (−1/3) = −30 exactly.
    assert_eq!(flat.stranded_carbon(), -30.0);
    assert_eq!(flat.leaf_intensity().value_at(0), Some(0.1));
}

/// All-zero demand exercises the duration-proportional fallback at every
/// level and strands the full carbon budget.
#[test]
fn duration_fallback_is_bit_identical_on_idle_series() {
    let series = TimeSeries::constant(0, 300, 36, 0.0).unwrap();
    let h = TemporalShapley::new(vec![3, 2]);
    let reference = h.attribute_per_period(&series, 64.0).unwrap();
    let flat = h.attribute(&series, 64.0).unwrap();
    assert_bits_eq("duration fallback", &reference, &flat);
    assert!((flat.stranded_carbon() - 64.0).abs() < 1e-12);
    assert!(flat.leaf_intensity().values().iter().all(|&v| v == 0.0));
}

/// Uneven splits (remainder-bearing periods) on the paper hierarchy:
/// the cascade matches the reference to the ulp bound.
#[test]
fn paper_hierarchy_matches_the_reference() {
    let series = TimeSeries::from_fn(0, 300, 8641, |t| {
        let x = t as f64 / 300.0;
        40.0 + 25.0 * (x / 288.0 * std::f64::consts::PI).sin().abs() + (x % 13.0)
    })
    .unwrap();
    let h = TemporalShapley::paper_hierarchy();
    let reference = h.attribute_per_period(&series, 12_000.0).unwrap();
    let flat = h.attribute(&series, 12_000.0).unwrap();
    assert_close("paper hierarchy", &reference, &flat, 1e-9);
}

/// The flat path reports the same error as the reference when a level
/// would split a period below one sample, when a leaf period's peak is
/// negative, and when both hold (the oversplit wins on both paths).
#[test]
fn oversplit_errors_match_the_reference() {
    let cases = [
        (vec![1.0; 6], vec![4, 3], SeriesError::OutOfRange),
        (
            vec![-1.0, -2.0, 3.0, 4.0],
            vec![2],
            SeriesError::NegativePeak,
        ),
        (
            vec![3.0, -1.0, -2.0, -4.0],
            vec![2, 2],
            SeriesError::NegativePeak,
        ),
        (vec![-1.0; 6], vec![4, 3], SeriesError::OutOfRange),
    ];
    for (values, splits, expected) in cases {
        let series = TimeSeries::from_values(0, 300, values).unwrap();
        let h = TemporalShapley::new(splits);
        let reference = h.attribute_per_period(&series, 10.0);
        let flat = h.attribute(&series, 10.0);
        assert_eq!(reference.unwrap_err(), expected);
        assert_eq!(flat.unwrap_err(), expected);
    }
    // Without a split no peak game is played: negative demand strands
    // the whole budget on both paths instead of erroring.
    let series = TimeSeries::from_values(0, 300, vec![-1.0, -2.0]).unwrap();
    let h = TemporalShapley::new(vec![]);
    let reference = h.attribute_per_period(&series, 10.0).unwrap();
    let flat = h.attribute(&series, 10.0).unwrap();
    assert_bits_eq("no split, negative demand", &reference, &flat);
    assert_eq!(flat.stranded_carbon(), 10.0);
}
