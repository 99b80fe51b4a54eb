//! The complete D-ATC transmitter pipeline (Fig. 1): comparator + DAC +
//! DTC, producing the event stream (with threshold side information) that
//! the IR-UWB modulator radiates.
//!
//! [`DatcEncoder`] is the batch entry point of the unified
//! [`SpikeEncoder`] API; it is a thin driver over the streaming kernel in
//! [`stream`](crate::stream) — there is exactly one tick loop in this
//! crate.

use crate::comparator::Comparator;
use crate::config::DatcConfig;
use crate::dac::Dac;
use crate::encoder::{DatcOutputBuilder, EncodedOutput, SpikeEncoder};
use crate::error::CoreError;
use crate::event::EventStream;
use crate::stream::DatcStream;
use datc_signal::Signal;

/// Everything the D-ATC encoder produces for one input signal.
///
/// Which trace fields are populated is governed by the configuration's
/// [`TraceLevel`](crate::encoder::TraceLevel): at `Events` only the
/// event stream and the scalar counters are kept, at `Frames` the
/// per-frame codes come back, at `Full` (the default) every per-tick
/// trace the hardware exposes is materialised.
#[derive(Debug, Clone, PartialEq)]
pub struct DatcOutput {
    /// Threshold-crossing events, each tagged with the 4-bit code in force
    /// when it fired (Fig. 2-E: event marker + digitised threshold level).
    pub events: EventStream,
    /// The threshold code at every DTC clock tick (for plotting the
    /// dynamic threshold of Fig. 3-A and for receiver-side evaluation).
    /// Empty below [`TraceLevel::Full`](crate::encoder::TraceLevel).
    pub vth_code_trace: Vec<u8>,
    /// The threshold voltage at every tick (code through the DAC).
    /// Empty below [`TraceLevel::Full`](crate::encoder::TraceLevel).
    pub vth_volt_trace: Vec<f64>,
    /// The synchronised comparator bit at every tick (`D_out`).
    /// Empty below [`TraceLevel::Full`](crate::encoder::TraceLevel).
    pub d_out: Vec<bool>,
    /// The code decided at each frame boundary. Empty at
    /// [`TraceLevel::Events`](crate::encoder::TraceLevel).
    pub frame_codes: Vec<u8>,
    /// Ticks executed — always populated, at every trace level.
    pub ticks: u64,
    /// Ticks with `D_out = 1` — always populated, at every trace level.
    pub ones: u64,
}

impl DatcOutput {
    /// Fraction of ticks with `D_out = 1` (comparator duty cycle) — the
    /// quantity the DTC regulates toward the interval band. Computed from
    /// the scalar counters, so it is exact at every trace level.
    pub fn duty_cycle(&self) -> f64 {
        if self.ticks == 0 {
            return 0.0;
        }
        self.ones as f64 / self.ticks as f64
    }
}

impl EncodedOutput for DatcOutput {
    fn events(&self) -> &EventStream {
        &self.events
    }

    fn duty_cycle(&self) -> f64 {
        DatcOutput::duty_cycle(self)
    }
}

/// The D-ATC encoder.
///
/// Drives the cycle-accurate streaming kernel
/// ([`DatcStream`]) at its system clock,
/// re-sampling the input signal (zero-order hold, exact rational step) at
/// each tick exactly as the hardware's comparator + `In_reg` pair does.
///
/// # Example
///
/// ```
/// use datc_core::{DatcConfig, DatcEncoder, SpikeEncoder};
/// use datc_signal::Signal;
///
/// let semg = Signal::from_fn(2500.0, 2.0, |t| ((300.0 * t).sin() * (2.0 * t).sin()).abs());
/// let out = DatcEncoder::new(DatcConfig::paper()).encode(&semg);
/// assert_eq!(out.vth_code_trace.len(), 4000); // 2 s at 2 kHz
/// ```
#[derive(Debug, Clone)]
pub struct DatcEncoder {
    config: DatcConfig,
    comparator: Comparator,
}

impl DatcEncoder {
    /// Creates an encoder with an ideal comparator.
    ///
    /// # Panics
    ///
    /// Panics when the configuration is invalid; use
    /// [`DatcEncoder::try_new`] for fallible construction.
    pub fn new(config: DatcConfig) -> Self {
        DatcEncoder::try_new(config).expect("invalid D-ATC configuration")
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when the configuration fails
    /// validation.
    pub fn try_new(config: DatcConfig) -> Result<Self, CoreError> {
        config.validate()?;
        // Also validate that the DAC can be built.
        let _ = Dac::new(config.dac_bits, config.vref)?;
        Ok(DatcEncoder {
            config,
            comparator: Comparator::ideal(),
        })
    }

    /// Replaces the comparator model (offset / hysteresis / noise
    /// studies).
    pub fn with_comparator(mut self, comparator: Comparator) -> Self {
        self.comparator = comparator;
        self
    }

    /// The encoder configuration.
    pub fn config(&self) -> &DatcConfig {
        &self.config
    }

    /// A fresh streaming kernel with this encoder's configuration and
    /// comparator model — the engine [`encode`](SpikeEncoder::encode)
    /// drives, exposed for real-time consumers.
    pub fn streaming(&self) -> DatcStream {
        DatcStream::new(self.config)
            .expect("validated in constructor")
            .with_comparator(self.comparator.clone())
    }
}

impl SpikeEncoder for DatcEncoder {
    type Output = DatcOutput;

    /// Encodes a rectified, amplified sEMG signal.
    ///
    /// The signal may be at any sample rate; the kernel samples it with a
    /// zero-order hold at each DTC clock tick (the analog comparator sees
    /// a continuous waveform; ZOH at ≥ the signal rate is the faithful
    /// discrete stand-in).
    fn encode(&self, rectified: &Signal) -> DatcOutput {
        let mut stream = self.streaming();
        let expected = (rectified.duration() * self.config.clock_hz) as usize;
        let mut sink = DatcOutputBuilder::new(&self.config, expected);
        stream.push_signal(rectified, &mut sink);
        sink.finish(rectified.duration())
    }

    fn vth_bits(&self) -> u8 {
        self.config.dac_bits
    }

    fn scheme(&self) -> &'static str {
        "d-atc"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FrameSize;
    use datc_signal::generator::{ForceProfile, SemgGenerator, SemgModel};

    fn test_semg(gain: f64, seed: u64) -> Signal {
        let fs = 2500.0;
        let force = ForceProfile::mvc_protocol().samples(fs, 20.0);
        SemgGenerator::new(SemgModel::modulated_noise(), fs)
            .generate(&force, seed)
            .to_scaled(gain)
            .to_rectified()
    }

    #[test]
    fn threshold_adapts_to_signal_level() {
        let out_hi = DatcEncoder::new(DatcConfig::paper()).encode(&test_semg(0.9, 1));
        let out_lo = DatcEncoder::new(DatcConfig::paper()).encode(&test_semg(0.2, 1));
        let max_hi = *out_hi.vth_code_trace.iter().max().unwrap();
        let max_lo = *out_lo.vth_code_trace.iter().max().unwrap();
        assert!(
            max_hi > max_lo,
            "stronger signal should push the threshold higher ({max_hi} vs {max_lo})"
        );
    }

    #[test]
    fn event_count_is_stable_across_signal_gain_relative_to_atc() {
        // The paper's key robustness claim (Fig. 7): D-ATC's event count
        // varies far less across subject amplitudes than fixed-threshold
        // ATC's. (It is not absolutely constant — the 62.5 mV DAC floor
        // still mutes very quiet signals.)
        use crate::atc::AtcEncoder;
        let gains = [0.2, 0.4, 0.6, 0.9];
        let datc_counts: Vec<f64> = gains
            .iter()
            .map(|&g| {
                DatcEncoder::new(DatcConfig::paper())
                    .encode(&test_semg(g, 7))
                    .events
                    .len() as f64
            })
            .collect();
        let atc_counts: Vec<f64> = gains
            .iter()
            .map(|&g| {
                AtcEncoder::new(0.3)
                    .encode(&test_semg(g, 7))
                    .events
                    .len()
                    .max(1) as f64
            })
            .collect();
        let spread = |v: &[f64]| {
            v.iter().cloned().fold(f64::MIN, f64::max) / v.iter().cloned().fold(f64::MAX, f64::min)
        };
        let datc_spread = spread(&datc_counts);
        let atc_spread = spread(&atc_counts);
        assert!(
            datc_spread < 3.0 && atc_spread > 3.0 * datc_spread,
            "D-ATC spread {datc_spread:.2} (counts {datc_counts:?}) should be far \
             below ATC spread {atc_spread:.2} (counts {atc_counts:?})"
        );
    }

    #[test]
    fn events_carry_threshold_codes() {
        let out = DatcEncoder::new(DatcConfig::paper()).encode(&test_semg(0.8, 3));
        assert!(!out.events.is_empty());
        assert!(out.events.iter().all(|e| e.vth_code.is_some()));
        assert!(out
            .events
            .iter()
            .all(|e| e.vth_code.unwrap() >= 1 && e.vth_code.unwrap() <= 15));
        // 5 symbols per event (Sec. III-B)
        assert_eq!(out.events.symbol_count(4), 5 * out.events.len() as u64);
    }

    #[test]
    fn traces_have_expected_length() {
        let out = DatcEncoder::new(DatcConfig::paper()).encode(&test_semg(0.5, 9));
        assert_eq!(out.vth_code_trace.len(), 40_000); // 20 s × 2 kHz
        assert_eq!(out.d_out.len(), 40_000);
        assert_eq!(out.frame_codes.len(), 400); // 40 000 / 100
        assert_eq!(out.ticks, 40_000);
    }

    #[test]
    fn duty_cycle_is_regulated_into_the_interval_band() {
        // The controller aims the comparator duty cycle at the interval
        // band (3 %–48 % of a frame). For an active signal, the duty cycle
        // should sit well inside it.
        let out = DatcEncoder::new(DatcConfig::paper()).encode(&test_semg(0.8, 11));
        let duty = out.duty_cycle();
        assert!(
            (0.03..0.5).contains(&duty),
            "duty cycle {duty} left the regulated band"
        );
    }

    #[test]
    fn duty_cycle_counters_match_the_trace() {
        let out = DatcEncoder::new(DatcConfig::paper()).encode(&test_semg(0.6, 15));
        let from_trace = out.d_out.iter().filter(|&&b| b).count() as f64 / out.d_out.len() as f64;
        assert!((out.duty_cycle() - from_trace).abs() < 1e-15);
    }

    #[test]
    fn frame_size_trades_reactivity() {
        let semg = test_semg(0.8, 13);
        let fast =
            DatcEncoder::new(DatcConfig::paper().with_frame_size(FrameSize::F100)).encode(&semg);
        let slow =
            DatcEncoder::new(DatcConfig::paper().with_frame_size(FrameSize::F800)).encode(&semg);
        // Count threshold changes: the fast frame must re-decide more often.
        let changes = |codes: &[u8]| codes.windows(2).filter(|w| w[0] != w[1]).count();
        assert!(changes(&fast.frame_codes) > changes(&slow.frame_codes));
    }

    #[test]
    fn zero_signal_produces_no_events() {
        let s = Signal::zeros(5000, 2500.0);
        let out = DatcEncoder::new(DatcConfig::paper()).encode(&s);
        assert!(out.events.is_empty());
        assert!(out.vth_code_trace.iter().all(|&c| c == 1));
    }

    #[test]
    fn deterministic_encoding() {
        let s = test_semg(0.7, 21);
        let a = DatcEncoder::new(DatcConfig::paper()).encode(&s);
        let b = DatcEncoder::new(DatcConfig::paper()).encode(&s);
        assert_eq!(a, b);
    }

    #[test]
    fn try_new_rejects_bad_config() {
        let mut cfg = DatcConfig::paper();
        cfg.dac_bits = 0;
        assert!(DatcEncoder::try_new(cfg).is_err());
    }

    #[test]
    fn scheme_metadata() {
        let enc = DatcEncoder::new(DatcConfig::paper());
        assert_eq!(enc.scheme(), "d-atc");
        assert_eq!(enc.vth_bits(), 4);
    }
}
