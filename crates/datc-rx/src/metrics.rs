//! Evaluation: the paper's correlation figure of merit.
//!
//! Fig. 3/5/6/7 score a reconstruction by its Pearson correlation (in %)
//! against the average-rectified-value envelope of the original sEMG.
//! Reconstructions lag the signal by the receiver window, so the
//! evaluation aligns the two sequences (bounded lag search) before
//! correlating — standard practice for windowed force estimates.

use datc_signal::resample::resample_linear;
use datc_signal::stats::{best_alignment, rmse};
use datc_signal::{Signal, SignalError};

/// The outcome of comparing a reconstruction against a reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CorrelationReport {
    /// Pearson correlation × 100 (the paper's unit).
    pub percent: f64,
    /// Lag (seconds) applied to maximise correlation; positive means the
    /// reconstruction trails the reference.
    pub lag_s: f64,
    /// Root-mean-square error after normalising both sequences to unit
    /// peak (scale-free shape error).
    pub shape_rmse: f64,
}

/// Compares `reconstruction` against the ground-truth `reference`
/// envelope.
///
/// Both signals are brought to the lower of the two sample rates, aligned
/// within `±max_lag_s`, and scored. Correlation is scale-invariant;
/// `shape_rmse` is computed after peak normalisation.
///
/// # Errors
///
/// Returns a [`SignalError`] when the overlapping region is too short to
/// correlate.
///
/// # Example
///
/// ```
/// use datc_rx::metrics::evaluate;
/// use datc_signal::Signal;
///
/// let reference = Signal::from_fn(100.0, 4.0, |t| (t * 1.5).sin().abs());
/// let delayed = Signal::from_fn(100.0, 4.0, |t| ((t - 0.1) * 1.5).sin().abs());
/// let report = evaluate(&delayed, &reference, 0.3)?;
/// assert!(report.percent > 99.0);
/// # Ok::<(), datc_signal::SignalError>(())
/// ```
pub fn evaluate(
    reconstruction: &Signal,
    reference: &Signal,
    max_lag_s: f64,
) -> Result<CorrelationReport, SignalError> {
    let fs = reconstruction.sample_rate().min(reference.sample_rate());
    let recon = resample_linear(reconstruction, fs)?;
    let refer = resample_linear(reference, fs)?;
    let n = recon.len().min(refer.len());
    if n < 2 {
        return Err(SignalError::TooShort {
            required: 2,
            available: n,
        });
    }
    let x = &refer.samples()[..n];
    let y = &recon.samples()[..n];
    let max_lag = ((max_lag_s * fs).round() as usize).min(n / 2);
    // best_alignment's lag is negative when y trails x; report the
    // intuitive sign (positive = reconstruction trails the reference).
    let (lag, r) = best_alignment(x, y, max_lag)?;

    // Overlap at the chosen lag for the shape error.
    let (xs, ys): (&[f64], &[f64]) = if lag >= 0 {
        (&x[lag as usize..], &y[..n - lag as usize])
    } else {
        (&x[..n - (-lag) as usize], &y[(-lag) as usize..])
    };
    let norm = |v: &[f64]| -> Vec<f64> {
        let peak = v.iter().cloned().fold(0.0f64, |a, b| a.max(b.abs()));
        if peak == 0.0 {
            v.to_vec()
        } else {
            v.iter().map(|&s| s / peak).collect()
        }
    };
    let shape_rmse = rmse(&norm(xs), &norm(ys))?;

    Ok(CorrelationReport {
        percent: r * 100.0,
        lag_s: -(lag as f64) / fs,
        shape_rmse,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_signals_score_100() {
        let s = Signal::from_fn(100.0, 2.0, |t| (3.0 * t).sin().abs());
        let r = evaluate(&s, &s, 0.1).unwrap();
        assert!((r.percent - 100.0).abs() < 1e-9);
        assert_eq!(r.lag_s, 0.0);
        assert!(r.shape_rmse < 1e-12);
    }

    #[test]
    fn alignment_recovers_known_lag() {
        let refer = Signal::from_fn(200.0, 4.0, |t| (2.0 * t).sin().abs());
        let recon = Signal::from_fn(200.0, 4.0, |t| (2.0 * (t - 0.15)).sin().abs());
        let r = evaluate(&recon, &refer, 0.3).unwrap();
        assert!(r.percent > 99.0, "percent {}", r.percent);
        assert!((r.lag_s - 0.15).abs() < 0.03, "lag {}", r.lag_s);
    }

    #[test]
    fn mixed_rates_are_handled() {
        let refer = Signal::from_fn(2500.0, 4.0, |t| (1.5 * t).sin().abs());
        let recon = Signal::from_fn(100.0, 4.0, |t| (1.5 * t).sin().abs());
        let r = evaluate(&recon, &refer, 0.1).unwrap();
        assert!(r.percent > 99.5, "percent {}", r.percent);
    }

    #[test]
    fn anti_correlated_signals_score_negative() {
        let refer = Signal::from_fn(100.0, 2.0, |t| (3.0 * t).sin());
        let recon = Signal::from_fn(100.0, 2.0, |t| -(3.0 * t).sin());
        let r = evaluate(&recon, &refer, 0.0).unwrap();
        assert!(r.percent < -99.0);
    }

    #[test]
    fn too_short_signals_error() {
        let a = Signal::from_samples(vec![1.0, 2.0], 10.0);
        let b = Signal::from_samples(vec![1.0, 2.0], 10.0);
        // resample to min rate keeps 2 samples; evaluation needs ≥ 2 for
        // pearson but lag search shrinks the overlap — expect either a
        // result or a clean error, never a panic.
        let _ = evaluate(&a, &b, 0.0);
    }
}
