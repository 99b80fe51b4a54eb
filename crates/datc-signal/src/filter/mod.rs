//! Digital filters: IIR biquads (RBJ cookbook), Butterworth cascades, a
//! power-line notch, windowed-sinc FIR, and O(1) moving statistics.
//!
//! These are the blocks the front-end and the receiver need: the sEMG
//! generator shapes noise through a 20–450 Hz Butterworth band-pass, and the
//! receiver smooths event rates with moving averages.

mod biquad;
mod butterworth;
mod fir;
mod moving;
mod notch;

pub use biquad::{Biquad, BiquadCoeffs, FirstOrder};
pub use butterworth::{butter_bandpass, butter_highpass, butter_lowpass, ButterworthFilter};
pub use fir::FirFilter;
pub use moving::{MovingAverage, MovingRms};
pub use notch::notch_filter;

/// A causal, stateful single-channel filter over `f64` samples.
///
/// All filters in this module process one sample at a time so they can sit
/// in streaming pipelines (the encoders are streaming by nature); batch
/// helpers are provided on top.
pub trait Filter {
    /// Processes one input sample and returns the output sample.
    fn process(&mut self, x: f64) -> f64;

    /// Resets the internal state to silence.
    fn reset(&mut self);

    /// Filters a whole slice, returning the output sequence.
    fn process_slice(&mut self, xs: &[f64]) -> Vec<f64> {
        xs.iter().map(|&x| self.process(x)).collect()
    }
}

/// Zero-phase filtering: forward pass, then backward pass (like MATLAB's
/// `filtfilt`). Doubles the filter order and removes group delay; used when
/// comparing envelopes where phase lag would bias correlation.
pub fn filtfilt<F: Filter>(filter: &mut F, xs: &[f64]) -> Vec<f64> {
    filter.reset();
    let mut fwd = filter.process_slice(xs);
    fwd.reverse();
    filter.reset();
    let mut back = filter.process_slice(&fwd);
    back.reverse();
    back
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::rms;

    #[test]
    fn filtfilt_removes_phase_lag() {
        // A slow sine through a lowpass should come back nearly unchanged
        // and aligned when filtered zero-phase.
        let fs = 1000.0;
        let xs: Vec<f64> = (0..2000)
            .map(|i| (2.0 * std::f64::consts::PI * 5.0 * i as f64 / fs).sin())
            .collect();
        let mut lp = butter_lowpass(4, 50.0, fs).unwrap();
        let ys = filtfilt(&mut lp, &xs);
        let err: Vec<f64> = xs.iter().zip(&ys).map(|(a, b)| a - b).collect();
        // ignore edge transients
        assert!(rms(&err[200..1800]) < 0.01);
    }
}
