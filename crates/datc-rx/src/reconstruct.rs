//! Muscle-force reconstruction from event streams.
//!
//! Four estimators, in increasing order of side-information use:
//!
//! | Reconstructor | Uses | Scheme |
//! |---|---|---|
//! | [`RateReconstructor`] | event times | ATC (and D-ATC) |
//! | [`ThresholdTrackReconstructor`] | Vth codes | D-ATC only |
//! | [`HybridReconstructor`] | both | D-ATC only |
//! | [`RiceInversionReconstructor`] | both + bandwidth prior | D-ATC (or ATC with known Vth) |
//!
//! Reconstructions are scored by Pearson correlation against the ARV
//! envelope (see [`crate::metrics`]); correlation is scale-invariant, so
//! estimators need only be *proportional* to force, matching the paper's
//! methodology.

use crate::windowing::sliding_rate;
use datc_core::dac::Dac;
use datc_core::event::EventStream;
use datc_signal::filter::{Filter, MovingAverage};
use datc_signal::Signal;

/// A muscle-force reconstructor operating on a received event stream.
///
/// Implementors return an estimate sampled at `output_fs` Hz covering the
/// stream's full observation window. The absolute scale is arbitrary
/// (correlation-based evaluation); shapes must track force.
pub trait Reconstructor {
    /// Reconstructs a force-proportional envelope from `events`.
    fn reconstruct(&self, events: &EventStream, output_fs: f64) -> Signal;
}

/// Windowed event-rate reconstruction — the paper's ATC receiver
/// ("the average number of radiated pulses is … proportional to the
/// applied muscle force", Sec. I).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateReconstructor {
    window_s: f64,
}

impl RateReconstructor {
    /// Creates a rate reconstructor with the given sliding window
    /// (the experiments default to 250 ms).
    ///
    /// # Panics
    ///
    /// Panics when `window_s` is not positive.
    pub fn new(window_s: f64) -> Self {
        assert!(window_s > 0.0, "window must be positive");
        RateReconstructor { window_s }
    }

    /// The window length in seconds.
    pub fn window_s(&self) -> f64 {
        self.window_s
    }
}

impl Default for RateReconstructor {
    fn default() -> Self {
        RateReconstructor::new(0.25)
    }
}

impl Reconstructor for RateReconstructor {
    fn reconstruct(&self, events: &EventStream, output_fs: f64) -> Signal {
        sliding_rate(events, self.window_s, output_fs)
    }
}

/// Zero-order hold of the received threshold codes — D-ATC's unique side
/// channel. The DTC drives `Vth` to track the mean rectified signal, so
/// the code trajectory *is* a force estimate (quantised to the DAC's LSB
/// and the frame cadence).
#[derive(Debug, Clone, PartialEq)]
pub struct ThresholdTrackReconstructor {
    dac: Dac,
    smooth_window_s: f64,
}

impl ThresholdTrackReconstructor {
    /// Creates a threshold-track reconstructor decoding codes through
    /// `dac`, then smoothing over `smooth_window_s` seconds.
    ///
    /// # Panics
    ///
    /// Panics when the smoothing window is not positive.
    pub fn new(dac: Dac, smooth_window_s: f64) -> Self {
        assert!(smooth_window_s > 0.0, "window must be positive");
        ThresholdTrackReconstructor {
            dac,
            smooth_window_s,
        }
    }

    /// The paper's receiver: 4-bit 1 V DAC, 750 ms smoothing.
    ///
    /// The long window is deliberate: the DTC re-decides its code every
    /// frame, so the code track dithers between adjacent codes like a
    /// first-order ΔΣ modulator — averaging over several frames recovers
    /// sub-LSB amplitude resolution.
    pub fn paper() -> Self {
        ThresholdTrackReconstructor::new(Dac::paper(), 0.75)
    }

    /// The DAC decoding the received codes.
    pub fn dac(&self) -> &Dac {
        &self.dac
    }

    /// The moving-average smoothing window in seconds.
    pub fn smooth_window_s(&self) -> f64 {
        self.smooth_window_s
    }

    fn code_track(&self, events: &EventStream, output_fs: f64) -> Vec<f64> {
        let n_out = (events.duration_s() * output_fs).floor().max(0.0) as usize;
        let mut out = Vec::with_capacity(n_out);
        let evs = events.events();
        let mut idx = 0usize;
        // Before the first event the receiver knows nothing: hold 0
        // (threshold floor ≈ silence).
        let mut current = 0.0f64;
        for k in 0..n_out {
            let t = k as f64 / output_fs;
            while idx < evs.len() && evs[idx].time_s <= t {
                if let Some(code) = evs[idx].vth_code {
                    current = self.dac.voltage(u16::from(code)).unwrap_or(current);
                }
                idx += 1;
            }
            out.push(current);
        }
        out
    }
}

impl Reconstructor for ThresholdTrackReconstructor {
    fn reconstruct(&self, events: &EventStream, output_fs: f64) -> Signal {
        let track = self.code_track(events, output_fs);
        let n_win = ((self.smooth_window_s * output_fs).round() as usize).max(1);
        let mut ma = MovingAverage::new(n_win);
        let smoothed: Vec<f64> = track.iter().map(|&v| ma.process(v)).collect();
        Signal::from_samples(smoothed, output_fs)
    }
}

/// Threshold track refined by the event rate — the default D-ATC receiver
/// in the experiments.
///
/// The threshold code quantises amplitude to 62.5 mV steps; within one
/// code the crossing rate still varies with amplitude. The hybrid adds a
/// rate term scaled to the DAC LSB:
/// `est(t) = vth(t) + α·lsb·(rate(t)/rate₀ − ½)`, clamped at 0, with
/// `rate₀` the stream's mean rate.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridReconstructor {
    threshold: ThresholdTrackReconstructor,
    rate: RateReconstructor,
    alpha: f64,
}

impl HybridReconstructor {
    /// Combines the two estimators with rate-refinement weight `alpha`
    /// (in DAC-LSB units; 1.0 is a good default).
    pub fn new(
        threshold: ThresholdTrackReconstructor,
        rate: RateReconstructor,
        alpha: f64,
    ) -> Self {
        HybridReconstructor {
            threshold,
            rate,
            alpha,
        }
    }

    /// The experiments' default: paper DAC, 750 ms windows, α = 1.
    pub fn paper() -> Self {
        HybridReconstructor::new(
            ThresholdTrackReconstructor::paper(),
            RateReconstructor::new(0.75),
            1.0,
        )
    }
}

impl Reconstructor for HybridReconstructor {
    fn reconstruct(&self, events: &EventStream, output_fs: f64) -> Signal {
        let vth = self.threshold.reconstruct(events, output_fs);
        let rate = self.rate.reconstruct(events, output_fs);
        let mean_rate = events.mean_rate_hz().max(f64::MIN_POSITIVE);
        let lsb = self.threshold.dac.lsb();
        let data: Vec<f64> = vth
            .samples()
            .iter()
            .zip(rate.samples())
            .map(|(&v, &r)| (v + self.alpha * lsb * (r / mean_rate - 0.5)).max(0.0))
            .collect();
        Signal::from_samples(data, output_fs)
    }
}

/// Statistical inversion of Rice's level-crossing-rate formula.
///
/// For a band-limited Gaussian process with RMS `σ`, the expected rate of
/// positive crossings of level `v` by the *rectified* signal is
/// `r = 2·ν₀·exp(−v²/(2σ²))`, with `ν₀` the zero-crossing rate fixed by
/// the signal bandwidth (for a 20–450 Hz sEMG band, ν₀ ≈ 270 Hz).
/// Knowing `v` (the transmitted threshold) and measuring `r`, the receiver
/// solves for `σ(t) = v / √(2·ln(2ν₀/r))` and reports the Gaussian ARV
/// `σ·√(2/π)`.
///
/// This estimator exposes *why* ATC degrades: with `v` fixed and `σ ≪ v`
/// the rate collapses and the inversion loses conditioning, while D-ATC
/// keeps `v/σ` inside the well-conditioned region by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct RiceInversionReconstructor {
    dac: Dac,
    nu0_hz: f64,
    window_s: f64,
}

impl RiceInversionReconstructor {
    /// Creates an inverter for D-ATC streams (threshold taken from the
    /// received codes).
    ///
    /// # Panics
    ///
    /// Panics when `nu0_hz` or `window_s` is not positive.
    pub fn new(dac: Dac, nu0_hz: f64, window_s: f64) -> Self {
        assert!(nu0_hz > 0.0, "zero-crossing rate must be positive");
        assert!(window_s > 0.0, "window must be positive");
        RiceInversionReconstructor {
            dac,
            nu0_hz,
            window_s,
        }
    }

    /// The expected ν₀ for an ideal band-pass `[f_lo, f_hi]` Gaussian
    /// process: `ν₀ = sqrt((f_hi³ − f_lo³) / (3(f_hi − f_lo)))`.
    pub fn nu0_for_band(f_lo: f64, f_hi: f64) -> f64 {
        ((f_hi.powi(3) - f_lo.powi(3)) / (3.0 * (f_hi - f_lo))).sqrt()
    }
}

impl Reconstructor for RiceInversionReconstructor {
    fn reconstruct(&self, events: &EventStream, output_fs: f64) -> Signal {
        let rate = sliding_rate(events, self.window_s, output_fs);
        // Threshold trajectory at the same rate.
        let vth_track = ThresholdTrackReconstructor::new(self.dac.clone(), 1.0 / output_fs)
            .code_track(events, output_fs);
        let data: Vec<f64> = rate
            .samples()
            .iter()
            .zip(&vth_track)
            .map(|(&r, &v)| {
                if r <= 0.0 || v <= 0.0 {
                    return 0.0;
                }
                let ratio = (2.0 * self.nu0_hz / r).max(1.0 + 1e-9);
                let sigma = v / (2.0 * ratio.ln()).sqrt();
                sigma * (2.0 / std::f64::consts::PI).sqrt()
            })
            .collect();
        Signal::from_samples(data, output_fs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datc_core::atc::AtcEncoder;
    use datc_core::config::DatcConfig;
    use datc_core::datc::DatcEncoder;
    use datc_core::encoder::SpikeEncoder;
    use datc_signal::envelope::arv_envelope;
    use datc_signal::generator::{ForceProfile, SemgGenerator, SemgModel};
    use datc_signal::resample::resample_linear;
    use datc_signal::stats::pearson;

    fn reference_case(gain: f64) -> (Signal, Signal) {
        let fs = 2500.0;
        let force = ForceProfile::mvc_protocol().samples(fs, 20.0);
        let semg = SemgGenerator::new(SemgModel::modulated_noise(), fs)
            .generate(&force, 17)
            .to_scaled(gain)
            .to_rectified();
        let arv = arv_envelope(&semg, 0.25);
        (semg, arv)
    }

    fn corr_at(recon: &Signal, arv: &Signal) -> f64 {
        let arv_lo = resample_linear(arv, recon.sample_rate()).unwrap();
        let n = recon.len().min(arv_lo.len());
        pearson(&recon.samples()[..n], &arv_lo.samples()[..n]).unwrap()
    }

    #[test]
    fn rate_reconstruction_tracks_strong_signal() {
        let (semg, arv) = reference_case(0.8);
        let events = AtcEncoder::new(0.3).encode(&semg).events;
        let recon = RateReconstructor::default().reconstruct(&events, 100.0);
        let r = corr_at(&recon, &arv);
        assert!(r > 0.80, "ATC rate correlation {r}");
    }

    #[test]
    fn rate_reconstruction_fails_weak_signal() {
        // Signal far below the 0.3 V threshold: the ATC receiver goes
        // blind — the paper's Fig. 5 left tail. (Gaussian tails keep ATC
        // partially informative until the signal is well under Vth, so the
        // collapse is probed at the weakest subject gain.)
        let (semg, arv) = reference_case(0.12);
        let events = AtcEncoder::new(0.3).encode(&semg).events;
        let recon = RateReconstructor::default().reconstruct(&events, 100.0);
        let r = corr_at(&recon, &arv);
        assert!(r < 0.75, "ATC on weak signal unexpectedly good: {r}");
    }

    #[test]
    fn threshold_track_follows_weak_and_strong_signals() {
        for gain in [0.25, 0.8] {
            let (semg, arv) = reference_case(gain);
            let out = DatcEncoder::new(DatcConfig::paper()).encode(&semg);
            let recon = ThresholdTrackReconstructor::paper().reconstruct(&out.events, 100.0);
            let r = corr_at(&recon, &arv);
            assert!(r > 0.75, "threshold track at gain {gain}: {r}");
        }
    }

    #[test]
    fn hybrid_beats_or_matches_threshold_track() {
        let (semg, arv) = reference_case(0.8);
        let out = DatcEncoder::new(DatcConfig::paper()).encode(&semg);
        let tt = ThresholdTrackReconstructor::paper().reconstruct(&out.events, 100.0);
        let hy = HybridReconstructor::paper().reconstruct(&out.events, 100.0);
        let r_tt = corr_at(&tt, &arv);
        let r_hy = corr_at(&hy, &arv);
        assert!(r_hy > r_tt - 0.02, "hybrid {r_hy} vs track {r_tt}");
    }

    #[test]
    fn rice_inversion_recovers_amplitude_scale() {
        // Unlike the others, Rice inversion is absolutely calibrated:
        // check the reconstructed level is within 2× of the true ARV.
        let (semg, arv) = reference_case(0.8);
        let out = DatcEncoder::new(DatcConfig::paper()).encode(&semg);
        let nu0 = RiceInversionReconstructor::nu0_for_band(20.0, 450.0);
        let recon = RiceInversionReconstructor::new(Dac::paper(), nu0, 0.25)
            .reconstruct(&out.events, 100.0);
        let r = corr_at(&recon, &arv);
        assert!(r > 0.7, "rice correlation {r}");
        // amplitude sanity at the strongest contraction
        let peak_est = recon.samples().iter().cloned().fold(0.0f64, f64::max);
        let peak_ref = arv.samples().iter().cloned().fold(0.0f64, f64::max);
        assert!(
            peak_est > 0.4 * peak_ref && peak_est < 2.5 * peak_ref,
            "est {peak_est} vs ref {peak_ref}"
        );
    }

    #[test]
    fn nu0_formula_matches_flat_band_expectation() {
        // For a low-pass band [0, B]: nu0 = B/sqrt(3).
        let nu0 = RiceInversionReconstructor::nu0_for_band(1e-9, 300.0);
        assert!((nu0 - 300.0 / 3.0f64.sqrt()).abs() < 1.0);
    }

    #[test]
    fn empty_stream_reconstructs_to_silence() {
        let events = datc_core::event::EventStream::new(vec![], 2000.0, 1.0);
        for recon in [
            RateReconstructor::default().reconstruct(&events, 100.0),
            ThresholdTrackReconstructor::paper().reconstruct(&events, 100.0),
            HybridReconstructor::paper().reconstruct(&events, 100.0),
        ] {
            assert!(recon.samples().iter().all(|&x| x.abs() < 1e-6));
        }
    }
}
