//! Descriptive statistics and the paper's figure of merit: Pearson
//! correlation expressed as a percentage.

use crate::error::SignalError;

/// Arithmetic mean of a slice. Returns 0 for an empty slice.
pub fn mean(x: &[f64]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    x.iter().sum::<f64>() / x.len() as f64
}

/// Population variance. Returns 0 for slices shorter than 2.
pub fn variance(x: &[f64]) -> f64 {
    if x.len() < 2 {
        return 0.0;
    }
    let m = mean(x);
    x.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / x.len() as f64
}

/// Population standard deviation.
pub fn std_dev(x: &[f64]) -> f64 {
    variance(x).sqrt()
}

/// Root-mean-square value.
pub fn rms(x: &[f64]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    (x.iter().map(|v| v * v).sum::<f64>() / x.len() as f64).sqrt()
}

/// Average rectified value (mean of `|x|`), the muscle-force proxy the paper
/// reconstructs at the receiver.
pub fn arv(x: &[f64]) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    x.iter().map(|v| v.abs()).sum::<f64>() / x.len() as f64
}

/// Pearson correlation coefficient `r ∈ [-1, 1]` between two equally long
/// sequences.
///
/// Degenerate inputs (a constant sequence has zero variance) yield `0.0`
/// rather than NaN so that batch experiment code can aggregate safely.
///
/// # Errors
///
/// Returns [`SignalError::LengthMismatch`] when lengths differ and
/// [`SignalError::TooShort`] for fewer than 2 samples.
///
/// # Example
///
/// ```
/// # use datc_signal::stats::pearson;
/// let x = [1.0, 2.0, 3.0];
/// let y = [2.0, 4.0, 6.0];
/// assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
/// ```
pub fn pearson(x: &[f64], y: &[f64]) -> Result<f64, SignalError> {
    if x.len() != y.len() {
        return Err(SignalError::LengthMismatch {
            left: x.len(),
            right: y.len(),
        });
    }
    if x.len() < 2 {
        return Err(SignalError::TooShort {
            required: 2,
            available: x.len(),
        });
    }
    let mx = mean(x);
    let my = mean(y);
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        let dx = a - mx;
        let dy = b - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return Ok(0.0);
    }
    Ok(sxy / (sxx * syy).sqrt())
}

/// Normalised cross-correlation of `x` and `y` at integer lag `lag`
/// (positive lag delays `y`). Sequences must be equally long.
///
/// # Errors
///
/// Returns [`SignalError::LengthMismatch`] when lengths differ, and
/// [`SignalError::TooShort`] when the overlap at the requested lag is
/// shorter than 2 samples.
pub fn cross_correlation_at(x: &[f64], y: &[f64], lag: isize) -> Result<f64, SignalError> {
    if x.len() != y.len() {
        return Err(SignalError::LengthMismatch {
            left: x.len(),
            right: y.len(),
        });
    }
    let n = x.len() as isize;
    let overlap = n - lag.abs();
    if overlap < 2 {
        return Err(SignalError::TooShort {
            required: 2,
            available: overlap.max(0) as usize,
        });
    }
    let (xs, ys) = if lag >= 0 {
        (&x[lag as usize..], &y[..(n - lag) as usize])
    } else {
        (&x[..(n + lag) as usize], &y[(-lag) as usize..])
    };
    pearson(xs, ys)
}

/// Finds the lag in `[-max_lag, max_lag]` maximising the normalised
/// cross-correlation, returning `(best_lag, best_r)`.
///
/// Useful for aligning receiver reconstructions (which lag by the window
/// latency) before scoring correlation.
///
/// # Errors
///
/// Propagates errors from [`cross_correlation_at`] when the sequences are
/// unusable at every candidate lag.
pub fn best_alignment(x: &[f64], y: &[f64], max_lag: usize) -> Result<(isize, f64), SignalError> {
    let mut best: Option<(isize, f64)> = None;
    let mut last_err = None;
    for lag in -(max_lag as isize)..=(max_lag as isize) {
        match cross_correlation_at(x, y, lag) {
            Ok(r) => {
                if best.map(|(_, b)| r > b).unwrap_or(true) {
                    best = Some((lag, r));
                }
            }
            Err(e) => last_err = Some(e),
        }
    }
    best.ok_or_else(|| last_err.expect("at least one lag evaluated"))
}

/// Signal-to-noise ratio in dB given a clean reference and a noisy
/// observation of it: `10·log10(P_signal / P_error)`.
///
/// # Errors
///
/// Returns [`SignalError::LengthMismatch`] when lengths differ.
pub fn snr_db(reference: &[f64], observed: &[f64]) -> Result<f64, SignalError> {
    if reference.len() != observed.len() {
        return Err(SignalError::LengthMismatch {
            left: reference.len(),
            right: observed.len(),
        });
    }
    let p_sig: f64 = reference.iter().map(|v| v * v).sum();
    let p_err: f64 = reference
        .iter()
        .zip(observed)
        .map(|(&r, &o)| (r - o) * (r - o))
        .sum();
    if p_err == 0.0 {
        return Ok(f64::INFINITY);
    }
    Ok(10.0 * (p_sig / p_err).log10())
}

/// Root-mean-square error between two equally long sequences.
///
/// # Errors
///
/// Returns [`SignalError::LengthMismatch`] when lengths differ.
pub fn rmse(x: &[f64], y: &[f64]) -> Result<f64, SignalError> {
    if x.len() != y.len() {
        return Err(SignalError::LengthMismatch {
            left: x.len(),
            right: y.len(),
        });
    }
    if x.is_empty() {
        return Ok(0.0);
    }
    let se: f64 = x.iter().zip(y).map(|(&a, &b)| (a - b) * (a - b)).sum();
    Ok((se / x.len() as f64).sqrt())
}

/// Summary of a batch of scalar results (used for the 190-pattern sweeps).
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BatchSummary {
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
}

impl BatchSummary {
    /// Summarises a non-empty slice of values.
    ///
    /// # Panics
    ///
    /// Panics when `values` is empty.
    pub fn of(values: &[f64]) -> Self {
        assert!(!values.is_empty(), "cannot summarise an empty batch");
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &v in values {
            min = min.min(v);
            max = max.max(v);
        }
        BatchSummary {
            min,
            max,
            mean: mean(values),
            std_dev: std_dev(values),
        }
    }

    /// Spread (`max - min`) of the batch — the paper's robustness argument
    /// compares the correlation spread of ATC vs D-ATC.
    pub fn spread(&self) -> f64 {
        self.max - self.min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_basics() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert!((variance(&[1.0, 2.0, 3.0]) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[5.0]), 0.0);
    }

    #[test]
    fn pearson_perfectly_anticorrelated() {
        let x = [0.0, 1.0, 2.0, 3.0];
        let y = [3.0, 2.0, 1.0, 0.0];
        assert!((pearson(&x, &y).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_constant_input_yields_zero() {
        let x = [1.0, 1.0, 1.0];
        let y = [0.0, 2.0, 5.0];
        assert_eq!(pearson(&x, &y).unwrap(), 0.0);
    }

    #[test]
    fn pearson_is_scale_and_shift_invariant() {
        let x = [0.3, -0.2, 1.7, 0.9, -1.1];
        let y: Vec<f64> = x.iter().map(|v| 3.0 * v + 10.0).collect();
        assert!((pearson(&x, &y).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cross_correlation_finds_shift() {
        let n = 256;
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.2).sin()).collect();
        let mut y = vec![0.0; n];
        // y is x delayed by 5 samples
        y[5..n].copy_from_slice(&x[..n - 5]);
        let (lag, r) = best_alignment(&x, &y, 10).unwrap();
        assert_eq!(lag, -5);
        assert!(r > 0.99);
    }

    #[test]
    fn snr_of_identical_signals_is_infinite() {
        let x = [1.0, -1.0, 0.5];
        assert_eq!(snr_db(&x, &x).unwrap(), f64::INFINITY);
    }

    #[test]
    fn rmse_known_value() {
        let x = [0.0, 0.0];
        let y = [3.0, 4.0];
        assert!((rmse(&x, &y).unwrap() - (12.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn arv_is_mean_absolute() {
        assert_eq!(arv(&[-1.0, 1.0, -2.0, 2.0]), 1.5);
    }

    #[test]
    fn batch_summary_spread() {
        let s = BatchSummary::of(&[47.0, 95.2, 80.0]);
        assert_eq!(s.min, 47.0);
        assert_eq!(s.max, 95.2);
        assert!((s.spread() - 48.2).abs() < 1e-12);
    }

    #[test]
    fn length_mismatch_is_reported() {
        assert!(matches!(
            pearson(&[1.0], &[1.0, 2.0]),
            Err(SignalError::LengthMismatch { .. })
        ));
    }
}
