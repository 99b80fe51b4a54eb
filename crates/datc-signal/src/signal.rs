//! The [`Signal`] type: a uniformly sampled real-valued waveform.

use crate::error::SignalError;
use serde::{Deserialize, Serialize};

/// A uniformly sampled real-valued signal together with its sample rate.
///
/// `Signal` is the common currency between the sEMG generators, the DSP
/// blocks and the encoders. Samples are stored as `f64` volts (after the
/// front-end amplifier, the paper's signals live in roughly 0–1 V).
///
/// # Example
///
/// ```
/// use datc_signal::Signal;
///
/// let s = Signal::from_samples(vec![0.0, 1.0, 0.0, -1.0], 2500.0);
/// assert_eq!(s.len(), 4);
/// assert!((s.duration() - 4.0 / 2500.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Signal {
    samples: Vec<f64>,
    sample_rate: f64,
}

impl Signal {
    /// Creates a signal from raw samples at `sample_rate` Hz.
    ///
    /// # Panics
    ///
    /// Panics if `sample_rate` is not strictly positive and finite.
    pub fn from_samples(samples: Vec<f64>, sample_rate: f64) -> Self {
        assert!(
            sample_rate.is_finite() && sample_rate > 0.0,
            "sample rate must be positive and finite, got {sample_rate}"
        );
        Signal {
            samples,
            sample_rate,
        }
    }

    /// Creates an all-zero signal of `n` samples.
    pub fn zeros(n: usize, sample_rate: f64) -> Self {
        Signal::from_samples(vec![0.0; n], sample_rate)
    }

    /// Builds a signal by evaluating `f(t)` at each sample instant of a
    /// `duration`-second window.
    ///
    /// # Example
    ///
    /// ```
    /// use datc_signal::Signal;
    /// let tone = Signal::from_fn(1000.0, 0.01, |t| (2.0 * std::f64::consts::PI * 100.0 * t).sin());
    /// assert_eq!(tone.len(), 10);
    /// ```
    pub fn from_fn<F: FnMut(f64) -> f64>(sample_rate: f64, duration: f64, mut f: F) -> Self {
        let n = (duration * sample_rate).round() as usize;
        let samples = (0..n).map(|i| f(i as f64 / sample_rate)).collect();
        Signal::from_samples(samples, sample_rate)
    }

    /// The sample rate in Hz.
    pub fn sample_rate(&self) -> f64 {
        self.sample_rate
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` when the signal holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Duration in seconds (`len / sample_rate`).
    pub fn duration(&self) -> f64 {
        self.samples.len() as f64 / self.sample_rate
    }

    /// Borrows the sample buffer.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Mutably borrows the sample buffer.
    pub fn samples_mut(&mut self) -> &mut [f64] {
        &mut self.samples
    }

    /// Consumes the signal, returning the sample buffer.
    pub fn into_samples(self) -> Vec<f64> {
        self.samples
    }

    /// Full-wave rectified copy (`|x|`), the first step of the paper's
    /// front-end before thresholding.
    pub fn to_rectified(&self) -> Signal {
        Signal {
            samples: self.samples.iter().map(|x| x.abs()).collect(),
            sample_rate: self.sample_rate,
        }
    }

    /// Copy scaled by `gain` (models the programmable preamplifier gain).
    pub fn to_scaled(&self, gain: f64) -> Signal {
        Signal {
            samples: self.samples.iter().map(|x| x * gain).collect(),
            sample_rate: self.sample_rate,
        }
    }

    /// Copy with every sample clamped to `[lo, hi]` (amplifier saturation).
    pub fn to_clamped(&self, lo: f64, hi: f64) -> Signal {
        Signal {
            samples: self.samples.iter().map(|x| x.clamp(lo, hi)).collect(),
            sample_rate: self.sample_rate,
        }
    }

    /// Extracts the sub-signal covering `[start, start + len)` samples.
    ///
    /// # Errors
    ///
    /// Returns [`SignalError::TooShort`] when the range exceeds the signal.
    pub fn slice(&self, start: usize, len: usize) -> Result<Signal, SignalError> {
        let end = start.checked_add(len).ok_or(SignalError::TooShort {
            required: usize::MAX,
            available: self.samples.len(),
        })?;
        if end > self.samples.len() {
            return Err(SignalError::TooShort {
                required: end,
                available: self.samples.len(),
            });
        }
        Ok(Signal {
            samples: self.samples[start..end].to_vec(),
            sample_rate: self.sample_rate,
        })
    }

    /// Adds another signal sample-wise (used to mix artifacts into sEMG).
    ///
    /// # Errors
    ///
    /// Returns [`SignalError::LengthMismatch`] when lengths differ.
    pub fn add(&mut self, other: &Signal) -> Result<(), SignalError> {
        if self.samples.len() != other.samples.len() {
            return Err(SignalError::LengthMismatch {
                left: self.samples.len(),
                right: other.samples.len(),
            });
        }
        for (a, b) in self.samples.iter_mut().zip(&other.samples) {
            *a += b;
        }
        Ok(())
    }

    /// Iterates over `(time_seconds, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let fs = self.sample_rate;
        self.samples
            .iter()
            .enumerate()
            .map(move |(i, &v)| (i as f64 / fs, v))
    }
}

impl AsRef<[f64]> for Signal {
    fn as_ref(&self) -> &[f64] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_fn_builds_expected_length_and_values() {
        let s = Signal::from_fn(10.0, 1.0, |t| t);
        assert_eq!(s.len(), 10);
        assert!((s.samples()[3] - 0.3).abs() < 1e-12);
    }

    #[test]
    fn rectify_makes_all_samples_non_negative() {
        let s = Signal::from_samples(vec![-1.0, 0.5, -0.25], 100.0);
        let r = s.to_rectified();
        assert!(r.samples().iter().all(|&x| x >= 0.0));
        assert_eq!(r.samples(), &[1.0, 0.5, 0.25]);
    }

    #[test]
    fn slice_out_of_range_errors() {
        let s = Signal::zeros(10, 100.0);
        let e = s.slice(5, 10).unwrap_err();
        assert_eq!(
            e,
            SignalError::TooShort {
                required: 15,
                available: 10
            }
        );
    }

    #[test]
    fn add_mismatched_lengths_errors() {
        let mut a = Signal::zeros(3, 1.0);
        let b = Signal::zeros(4, 1.0);
        assert!(a.add(&b).is_err());
    }

    #[test]
    fn add_sums_samplewise() {
        let mut a = Signal::from_samples(vec![1.0, 2.0], 1.0);
        let b = Signal::from_samples(vec![0.5, -2.0], 1.0);
        a.add(&b).unwrap();
        assert_eq!(a.samples(), &[1.5, 0.0]);
    }

    #[test]
    fn clamp_saturates() {
        let s = Signal::from_samples(vec![-2.0, 0.5, 3.0], 1.0);
        assert_eq!(s.to_clamped(0.0, 1.0).samples(), &[0.0, 0.5, 1.0]);
    }

    #[test]
    #[should_panic(expected = "sample rate must be positive")]
    fn zero_sample_rate_panics() {
        let _ = Signal::from_samples(vec![], 0.0);
    }
}
