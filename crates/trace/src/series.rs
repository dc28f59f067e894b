//! Uniformly sampled time series and the operations Temporal Shapley needs.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Error returned by [`TimeSeries`] constructors and combinators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SeriesError {
    /// The series would contain no samples.
    Empty,
    /// The sampling step was zero seconds.
    ZeroStep,
    /// A sample was NaN or infinite.
    NonFinite {
        /// Index of the first offending sample.
        index: usize,
    },
    /// Two series were combined whose sampling grids do not match.
    GridMismatch {
        /// Step of the left operand in seconds.
        left_step: u32,
        /// Step of the right operand in seconds.
        right_step: u32,
    },
    /// A window or split did not intersect the series.
    OutOfRange,
    /// A period's peak demand was negative where a non-negative peak is
    /// required (the Temporal Shapley peak game).
    NegativePeak,
}

impl fmt::Display for SeriesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SeriesError::Empty => write!(f, "time series must contain at least one sample"),
            SeriesError::ZeroStep => write!(f, "sampling step must be at least one second"),
            SeriesError::NonFinite { index } => {
                write!(f, "sample {index} is NaN or infinite")
            }
            SeriesError::GridMismatch {
                left_step,
                right_step,
            } => write!(
                f,
                "sampling grids do not match ({left_step} s vs {right_step} s)"
            ),
            SeriesError::OutOfRange => write!(f, "requested window lies outside the series"),
            SeriesError::NegativePeak => write!(f, "a period's peak demand is negative"),
        }
    }
}

impl std::error::Error for SeriesError {}

/// A uniformly sampled time series.
///
/// Samples are interpreted as *left-aligned step functions*: sample `k`
/// holds over `[start + k·step, start + (k+1)·step)`. This matches how the
/// paper treats 5-minute demand readings — a level that persists for the
/// whole interval — and makes [`integral`](TimeSeries::integral) exact for
/// such signals.
///
/// # Example
///
/// ```
/// use fairco2_trace::TimeSeries;
///
/// let s = TimeSeries::from_values(0, 300, vec![1.0, 4.0, 2.0])?;
/// assert_eq!(s.peak(), 4.0);
/// assert_eq!(s.integral(), (1.0 + 4.0 + 2.0) * 300.0);
/// # Ok::<(), fairco2_trace::series::SeriesError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimeSeries {
    start: i64,
    step: u32,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates a series starting at UNIX second `start` with `step`-second
    /// sampling and the given sample values.
    ///
    /// # Errors
    ///
    /// Returns [`SeriesError::Empty`] if `values` is empty,
    /// [`SeriesError::ZeroStep`] if `step == 0`, and
    /// [`SeriesError::NonFinite`] if any sample is NaN or infinite.
    pub fn from_values(start: i64, step: u32, values: Vec<f64>) -> Result<Self, SeriesError> {
        if step == 0 {
            return Err(SeriesError::ZeroStep);
        }
        if values.is_empty() {
            return Err(SeriesError::Empty);
        }
        if let Some(index) = values.iter().position(|v| !v.is_finite()) {
            return Err(SeriesError::NonFinite { index });
        }
        Ok(Self {
            start,
            step,
            values,
        })
    }

    /// Creates a series by evaluating `f` at every sample timestamp.
    ///
    /// # Errors
    ///
    /// Returns [`SeriesError::Empty`] if `len == 0` and
    /// [`SeriesError::ZeroStep`] if `step == 0`.
    pub fn from_fn(
        start: i64,
        step: u32,
        len: usize,
        mut f: impl FnMut(i64) -> f64,
    ) -> Result<Self, SeriesError> {
        if step == 0 {
            return Err(SeriesError::ZeroStep);
        }
        if len == 0 {
            return Err(SeriesError::Empty);
        }
        let values = (0..len)
            .map(|k| f(start + k as i64 * i64::from(step)))
            .collect();
        Self::from_values(start, step, values)
    }

    /// Creates a constant series.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TimeSeries::from_fn`].
    pub fn constant(start: i64, step: u32, len: usize, value: f64) -> Result<Self, SeriesError> {
        Self::from_fn(start, step, len, |_| value)
    }

    /// First sample timestamp (UNIX seconds).
    pub fn start(&self) -> i64 {
        self.start
    }

    /// Sampling step in seconds.
    pub fn step(&self) -> u32 {
        self.step
    }

    /// One past the covered interval: `start + len·step`.
    pub fn end(&self) -> i64 {
        self.start + self.values.len() as i64 * i64::from(self.step)
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the series holds no samples. Construction forbids this, so
    /// it only returns `true` for series obtained through deserialization
    /// of corrupt data.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total covered duration in seconds.
    pub fn duration(&self) -> f64 {
        self.values.len() as f64 * f64::from(self.step)
    }

    /// Sample values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Consumes the series, returning its sample values.
    pub fn into_values(self) -> Vec<f64> {
        self.values
    }

    /// The value holding at time `t`, or `None` outside the series.
    pub fn value_at(&self, t: i64) -> Option<f64> {
        if t < self.start || t >= self.end() {
            return None;
        }
        let idx = (t - self.start) / i64::from(self.step);
        self.values.get(idx as usize).copied()
    }

    /// Iterates over `(timestamp, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (i64, f64)> + '_ {
        let start = self.start;
        let step = i64::from(self.step);
        self.values
            .iter()
            .enumerate()
            .map(move |(k, &v)| (start + k as i64 * step, v))
    }

    /// Maximum sample value (the *peak demand* of the paper's Eq. 2).
    pub fn peak(&self) -> f64 {
        self.values
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Minimum sample value.
    pub fn min(&self) -> f64 {
        self.values.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// Mean sample value.
    pub fn mean(&self) -> f64 {
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Integral over time: `Σ value·step`, in value·seconds.
    ///
    /// For a demand trace in cores this is the total *resource-time*
    /// (core-seconds) — the `qᵢ` of the paper's Eq. 5.
    pub fn integral(&self) -> f64 {
        self.values.iter().sum::<f64>() * f64::from(self.step)
    }

    /// Restricts the series to `[t0, t1)` (timestamps clamped to the grid).
    ///
    /// # Errors
    ///
    /// Returns [`SeriesError::OutOfRange`] if the window does not contain
    /// at least one full sample.
    pub fn window(&self, t0: i64, t1: i64) -> Result<Self, SeriesError> {
        let step = i64::from(self.step);
        let lo = ((t0 - self.start).max(0) + step - 1) / step; // first sample fully inside
        let hi = ((t1 - self.start) / step).min(self.values.len() as i64);
        if lo >= hi {
            return Err(SeriesError::OutOfRange);
        }
        Ok(Self {
            start: self.start + lo * step,
            step: self.step,
            values: self.values[lo as usize..hi as usize].to_vec(),
        })
    }

    /// Splits the series into `parts` contiguous chunks of near-equal
    /// length (earlier chunks get the remainder, so lengths differ by at
    /// most one). Used by the hierarchical Temporal Shapley attribution to
    /// successively divide 30 days → 3 days → 8 hours → ….
    ///
    /// # Errors
    ///
    /// Returns [`SeriesError::OutOfRange`] if `parts` is zero or exceeds
    /// the number of samples.
    pub fn split(&self, parts: usize) -> Result<Vec<Self>, SeriesError> {
        if parts == 0 || parts > self.values.len() {
            return Err(SeriesError::OutOfRange);
        }
        let base = self.values.len() / parts;
        let extra = self.values.len() % parts;
        let mut out = Vec::with_capacity(parts);
        let mut idx = 0usize;
        for k in 0..parts {
            let len = base + usize::from(k < extra);
            let start = self.start + idx as i64 * i64::from(self.step);
            out.push(Self {
                start,
                step: self.step,
                values: self.values[idx..idx + len].to_vec(),
            });
            idx += len;
        }
        Ok(out)
    }

    /// Downsamples by an integer `factor`, each coarse sample being the
    /// **mean** of the fine samples it covers (integral-preserving; a
    /// trailing partial bucket keeps the mean of its members).
    ///
    /// # Errors
    ///
    /// Returns [`SeriesError::ZeroStep`] if `factor == 0`.
    pub fn downsample_mean(&self, factor: usize) -> Result<Self, SeriesError> {
        self.downsample_with(factor, |chunk| {
            chunk.iter().sum::<f64>() / chunk.len() as f64
        })
    }

    /// Downsamples by an integer `factor`, each coarse sample being the
    /// **max** of the fine samples it covers (peak-preserving).
    ///
    /// # Errors
    ///
    /// Returns [`SeriesError::ZeroStep`] if `factor == 0`.
    pub fn downsample_max(&self, factor: usize) -> Result<Self, SeriesError> {
        self.downsample_with(factor, |chunk| {
            chunk.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        })
    }

    fn downsample_with(
        &self,
        factor: usize,
        agg: impl FnMut(&[f64]) -> f64,
    ) -> Result<Self, SeriesError> {
        if factor == 0 {
            return Err(SeriesError::ZeroStep);
        }
        let values: Vec<f64> = self.values.chunks(factor).map(agg).collect();
        Ok(Self {
            start: self.start,
            step: self.step * factor as u32,
            values,
        })
    }

    /// Adds another series sample-wise.
    ///
    /// # Errors
    ///
    /// Returns [`SeriesError::GridMismatch`] if steps differ, or
    /// [`SeriesError::OutOfRange`] if start/length differ.
    pub fn checked_add(&self, other: &Self) -> Result<Self, SeriesError> {
        self.zip_with(other, |a, b| a + b)
    }

    /// Subtracts another series sample-wise.
    ///
    /// # Errors
    ///
    /// Same conditions as [`TimeSeries::checked_add`].
    pub fn checked_sub(&self, other: &Self) -> Result<Self, SeriesError> {
        self.zip_with(other, |a, b| a - b)
    }

    /// Combines two grid-aligned series sample-wise with `f`.
    ///
    /// # Errors
    ///
    /// Returns [`SeriesError::GridMismatch`] if steps differ, or
    /// [`SeriesError::OutOfRange`] if start/length differ.
    pub fn zip_with(
        &self,
        other: &Self,
        mut f: impl FnMut(f64, f64) -> f64,
    ) -> Result<Self, SeriesError> {
        if self.step != other.step {
            return Err(SeriesError::GridMismatch {
                left_step: self.step,
                right_step: other.step,
            });
        }
        if self.start != other.start || self.values.len() != other.values.len() {
            return Err(SeriesError::OutOfRange);
        }
        let values = self
            .values
            .iter()
            .zip(&other.values)
            .map(|(&a, &b)| f(a, b))
            .collect();
        Ok(Self {
            start: self.start,
            step: self.step,
            values,
        })
    }

    /// Returns a copy with every sample multiplied by `factor`.
    pub fn scaled(&self, factor: f64) -> Self {
        Self {
            start: self.start,
            step: self.step,
            values: self.values.iter().map(|v| v * factor).collect(),
        }
    }

    /// Returns a copy with `f` applied to every sample.
    pub fn map(&self, mut f: impl FnMut(f64) -> f64) -> Self {
        Self {
            start: self.start,
            step: self.step,
            values: self.values.iter().map(|&v| f(v)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(values: &[f64]) -> TimeSeries {
        TimeSeries::from_values(0, 300, values.to_vec()).unwrap()
    }

    #[test]
    fn construction_rejects_empty_and_zero_step() {
        assert_eq!(
            TimeSeries::from_values(0, 300, vec![]),
            Err(SeriesError::Empty)
        );
        assert_eq!(
            TimeSeries::from_values(0, 0, vec![1.0]),
            Err(SeriesError::ZeroStep)
        );
    }

    #[test]
    fn construction_rejects_non_finite_samples() {
        assert_eq!(
            TimeSeries::from_values(0, 300, vec![1.0, f64::NAN]),
            Err(SeriesError::NonFinite { index: 1 })
        );
        assert_eq!(
            TimeSeries::from_fn(0, 300, 2, |t| if t == 0 { f64::INFINITY } else { 1.0 }),
            Err(SeriesError::NonFinite { index: 0 })
        );
    }

    #[test]
    fn basic_statistics() {
        let s = series(&[1.0, 4.0, 2.0, 3.0]);
        assert_eq!(s.peak(), 4.0);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.mean(), 2.5);
        assert_eq!(s.integral(), 10.0 * 300.0);
        assert_eq!(s.duration(), 1200.0);
        assert_eq!(s.end(), 1200);
    }

    #[test]
    fn value_at_respects_step_boundaries() {
        let s = series(&[1.0, 4.0]);
        assert_eq!(s.value_at(0), Some(1.0));
        assert_eq!(s.value_at(299), Some(1.0));
        assert_eq!(s.value_at(300), Some(4.0));
        assert_eq!(s.value_at(600), None);
        assert_eq!(s.value_at(-1), None);
    }

    #[test]
    fn window_extracts_aligned_samples() {
        let s = series(&[1.0, 2.0, 3.0, 4.0]);
        let w = s.window(300, 900).unwrap();
        assert_eq!(w.values(), &[2.0, 3.0]);
        assert_eq!(w.start(), 300);
        assert!(s.window(1200, 1500).is_err());
    }

    #[test]
    fn split_covers_all_samples_without_overlap() {
        let s = series(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]);
        let parts = s.split(3).unwrap();
        assert_eq!(parts.len(), 3);
        let total: usize = parts.iter().map(TimeSeries::len).sum();
        assert_eq!(total, 7);
        assert_eq!(parts[0].len(), 3); // remainder goes to the front
        assert_eq!(parts[0].start(), 0);
        assert_eq!(parts[1].start(), parts[0].end());
        assert_eq!(parts[2].start(), parts[1].end());
        assert!(s.split(0).is_err());
        assert!(s.split(8).is_err());
    }

    #[test]
    fn downsample_mean_preserves_integral() {
        let s = series(&[1.0, 3.0, 5.0, 7.0]);
        let d = s.downsample_mean(2).unwrap();
        assert_eq!(d.values(), &[2.0, 6.0]);
        assert_eq!(d.step(), 600);
        assert!((d.integral() - s.integral()).abs() < 1e-9);
    }

    #[test]
    fn downsample_max_preserves_peak() {
        let s = series(&[1.0, 3.0, 5.0, 2.0]);
        let d = s.downsample_max(2).unwrap();
        assert_eq!(d.values(), &[3.0, 5.0]);
        assert_eq!(d.peak(), s.peak());
    }

    #[test]
    fn zip_with_detects_mismatch() {
        let a = series(&[1.0, 2.0]);
        let b = TimeSeries::from_values(0, 600, vec![1.0, 2.0]).unwrap();
        assert!(matches!(
            a.checked_add(&b),
            Err(SeriesError::GridMismatch { .. })
        ));
        let c = TimeSeries::from_values(300, 300, vec![1.0, 2.0]).unwrap();
        assert_eq!(a.checked_add(&c), Err(SeriesError::OutOfRange));
        let sum = a.checked_add(&series(&[10.0, 20.0])).unwrap();
        assert_eq!(sum.values(), &[11.0, 22.0]);
    }

    #[test]
    fn scaled_and_map() {
        let s = series(&[1.0, 2.0]);
        assert_eq!(s.scaled(3.0).values(), &[3.0, 6.0]);
        assert_eq!(s.map(|v| v * v).values(), &[1.0, 4.0]);
    }
}
