//! The analog front-end (Fig. 1, "Amplifier" block): programmable gain,
//! supply-rail saturation and full-wave rectification ahead of the
//! comparator.

use datc_signal::Signal;
use serde::{Deserialize, Serialize};

/// Behavioural front-end model.
///
/// The paper's system-level argument is that a **fixed** threshold demands
/// per-subject gain trimming here, while D-ATC absorbs gain variation
/// digitally. The model exposes the gain explicitly so experiments can
/// sweep it.
///
/// # Example
///
/// ```
/// use datc_core::frontend::AnalogFrontEnd;
/// use datc_signal::Signal;
///
/// let fe = AnalogFrontEnd::unity();
/// let raw = Signal::from_samples(vec![-0.5, 0.25], 1000.0);
/// let out = fe.condition(&raw);
/// assert_eq!(out.samples(), &[0.5, 0.25]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnalogFrontEnd {
    gain: f64,
    supply_v: f64,
    rectify: bool,
}

impl AnalogFrontEnd {
    /// Unity-gain front-end with a 1.8 V supply (the chip's rail in
    /// Table I) and rectification enabled.
    pub fn unity() -> Self {
        AnalogFrontEnd {
            gain: 1.0,
            supply_v: 1.8,
            rectify: true,
        }
    }

    /// Sets the amplifier gain.
    pub fn with_gain(mut self, gain: f64) -> Self {
        self.gain = gain;
        self
    }

    /// Enables or disables full-wave rectification.
    pub fn with_rectification(mut self, rectify: bool) -> Self {
        self.rectify = rectify;
        self
    }

    /// The configured gain.
    pub fn gain(&self) -> f64 {
        self.gain
    }

    /// The configured supply rail in volts.
    pub fn supply_v(&self) -> f64 {
        self.supply_v
    }

    /// Conditions a raw sEMG signal: gain → rectify → saturate.
    pub fn condition(&self, raw: &Signal) -> Signal {
        let amplified = raw.to_scaled(self.gain);
        let rectified = if self.rectify {
            amplified.to_rectified()
        } else {
            amplified
        };
        let lo = if self.rectify { 0.0 } else { -self.supply_v };
        rectified.to_clamped(lo, self.supply_v)
    }
}

impl Default for AnalogFrontEnd {
    fn default() -> Self {
        AnalogFrontEnd::unity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gain_and_rectification_compose() {
        let fe = AnalogFrontEnd::unity().with_gain(2.0);
        let s = Signal::from_samples(vec![-0.3, 0.4], 100.0);
        assert_eq!(fe.condition(&s).samples(), &[0.6, 0.8]);
    }

    #[test]
    fn saturation_clamps_to_rail() {
        let fe = AnalogFrontEnd::unity().with_gain(10.0);
        let s = Signal::from_samples(vec![1.0], 100.0);
        assert_eq!(fe.condition(&s).samples(), &[1.8]);
    }

    #[test]
    fn bipolar_mode_keeps_sign() {
        let fe = AnalogFrontEnd::unity().with_rectification(false);
        let s = Signal::from_samples(vec![-0.5, 0.5], 100.0);
        assert_eq!(fe.condition(&s).samples(), &[-0.5, 0.5]);
    }

    #[test]
    fn bipolar_saturates_symmetrically() {
        let fe = AnalogFrontEnd::unity()
            .with_rectification(false)
            .with_gain(10.0);
        let s = Signal::from_samples(vec![-1.0, 1.0], 100.0);
        assert_eq!(fe.condition(&s).samples(), &[-1.8, 1.8]);
    }
}
