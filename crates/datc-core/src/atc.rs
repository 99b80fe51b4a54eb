//! Fixed-threshold Average Threshold Crossing (ATC) — the baseline scheme
//! of Crepaldi et al. (BioCAS 2012, Ref. \[10\]) that D-ATC is compared
//! against.
//!
//! ATC radiates one bare IR-UWB pulse on every positive crossing of a
//! *fixed* threshold `Vth`. "The average number of radiated pulses is …
//! proportional to the applied muscle force" — but only when the signal
//! amplitude suits the chosen threshold, which is exactly the weakness the
//! paper demonstrates (Fig. 2-B/C, Fig. 5).
//!
//! Since the unified-API redesign, [`AtcEncoder`] implements
//! [`SpikeEncoder`] and returns an [`AtcOutput`] shaped like
//! [`DatcOutput`](crate::datc::DatcOutput) (events + duty cycle + opt-in
//! comparator trace) instead of the old bare
//! [`EventStream`].

use crate::comparator::Comparator;
use crate::encoder::{EncodedOutput, SpikeEncoder, TraceLevel};
use crate::event::{Event, EventStream};
use datc_signal::resample::ZohResampler;
use datc_signal::Signal;
use serde::{Deserialize, Serialize};

/// Everything the ATC encoder produces for one input signal — the same
/// shape as [`DatcOutput`](crate::datc::DatcOutput), minus the threshold
/// traces a fixed threshold does not have.
#[derive(Debug, Clone, PartialEq)]
pub struct AtcOutput {
    /// Threshold-crossing events (bare pulses: `vth_code` is `None`).
    pub events: EventStream,
    /// The comparator bit at every evaluated instant. Empty below
    /// [`TraceLevel::Full`].
    pub d_out: Vec<bool>,
    /// Instants evaluated — always populated, at every trace level.
    pub ticks: u64,
    /// Instants with the comparator high — always populated.
    pub ones: u64,
}

impl AtcOutput {
    /// Fraction of evaluated instants with the comparator high.
    pub fn duty_cycle(&self) -> f64 {
        if self.ticks == 0 {
            return 0.0;
        }
        self.ones as f64 / self.ticks as f64
    }
}

impl EncodedOutput for AtcOutput {
    fn events(&self) -> &EventStream {
        &self.events
    }

    fn duty_cycle(&self) -> f64 {
        AtcOutput::duty_cycle(self)
    }
}

/// Fixed-threshold ATC encoder.
///
/// # Example
///
/// ```
/// use datc_core::atc::AtcEncoder;
/// use datc_core::SpikeEncoder;
/// use datc_signal::Signal;
///
/// let s = Signal::from_fn(2500.0, 1.0, |t| (40.0 * t).sin().abs());
/// let out = AtcEncoder::new(0.3).encode(&s);
/// assert!(!out.events.is_empty());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AtcEncoder {
    vth: f64,
    hysteresis_v: f64,
    trace: TraceLevel,
}

impl AtcEncoder {
    /// Creates an encoder with fixed threshold `vth` volts.
    ///
    /// # Panics
    ///
    /// Panics when `vth` is not finite.
    pub fn new(vth: f64) -> Self {
        assert!(vth.is_finite(), "threshold must be finite");
        AtcEncoder {
            vth,
            hysteresis_v: 0.0,
            trace: TraceLevel::default(),
        }
    }

    /// Adds comparator hysteresis (volts).
    pub fn with_hysteresis(mut self, hysteresis_v: f64) -> Self {
        self.hysteresis_v = hysteresis_v.max(0.0);
        self
    }

    /// Selects how much trace data [`encode`](SpikeEncoder::encode)
    /// materialises.
    pub fn with_trace_level(mut self, trace: TraceLevel) -> Self {
        self.trace = trace;
        self
    }

    /// The fixed threshold in volts.
    pub fn vth(&self) -> f64 {
        self.vth
    }

    /// Shared edge-detection loop over an iterator of input samples.
    fn run<I: Iterator<Item = f64>>(&self, xs: I, tick_rate_hz: f64, duration_s: f64) -> AtcOutput {
        let mut comp = Comparator::ideal().with_hysteresis(self.hysteresis_v);
        let keep_trace = self.trace == TraceLevel::Full;
        let mut events = Vec::new();
        let mut d_out = Vec::new();
        let mut ticks = 0u64;
        let mut ones = 0u64;
        let mut prev = false;
        for (i, x) in xs.enumerate() {
            let now = comp.compare(x, self.vth);
            if now && !prev {
                events.push(Event {
                    tick: i as u64,
                    time_s: i as f64 / tick_rate_hz,
                    vth_code: None,
                });
            }
            prev = now;
            ticks += 1;
            ones += u64::from(now);
            if keep_trace {
                d_out.push(now);
            }
        }
        AtcOutput {
            events: EventStream::new(events, tick_rate_hz, duration_s.max(f64::MIN_POSITIVE)),
            d_out,
            ticks,
            ones,
        }
    }

    /// Clocked encoding: the comparator output is re-sampled at
    /// `clock_hz` before edge detection (for apples-to-apples comparisons
    /// with the clocked D-ATC), using the same exact rational zero-order
    /// hold as the D-ATC kernel.
    pub fn encode_clocked(&self, rectified: &Signal, clock_hz: f64) -> AtcOutput {
        let zoh = ZohResampler::new(rectified.sample_rate(), clock_hz);
        let n = rectified.len();
        let n_ticks = zoh.ticks_for_len(n);
        let samples = rectified.samples();
        let last = n.saturating_sub(1);
        self.run(
            (0..n_ticks).map(|k| samples[zoh.index(k).min(last)]),
            clock_hz,
            rectified.duration(),
        )
    }
}

impl SpikeEncoder for AtcEncoder {
    type Output = AtcOutput;

    /// Asynchronous encoding: one event per positive crossing of the
    /// rectified input, detected at the signal's own sample rate (the
    /// comparator in the original ATC chipset is not clocked).
    fn encode(&self, rectified: &Signal) -> AtcOutput {
        self.run(
            rectified.samples().iter().copied(),
            rectified.sample_rate(),
            rectified.duration(),
        )
    }

    fn vth_bits(&self) -> u8 {
        0
    }

    fn scheme(&self) -> &'static str {
        "atc"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_each_positive_crossing_once() {
        // |sin| at 10 Hz crosses 0.5 upward twice per period (two humps
        // per period of the underlying 10 Hz sine → 20 humps in 1 s).
        let s = Signal::from_fn(10_000.0, 1.0, |t| {
            (2.0 * std::f64::consts::PI * 10.0 * t).sin().abs()
        });
        let ev = AtcEncoder::new(0.5).encode(&s).events;
        assert_eq!(ev.len(), 20);
    }

    #[test]
    fn threshold_above_signal_yields_no_events() {
        let s = Signal::from_fn(2500.0, 1.0, |t| 0.2 * (t * 300.0).sin().abs());
        let out = AtcEncoder::new(0.3).encode(&s);
        assert!(out.events.is_empty());
        assert_eq!(out.duty_cycle(), 0.0);
    }

    #[test]
    fn lower_threshold_never_fires_less() {
        let s = Signal::from_fn(2500.0, 2.0, |t| {
            ((t * 97.0).sin() * (t * 13.0).cos()).abs() * 0.8
        });
        let hi = AtcEncoder::new(0.5).encode(&s).events.len();
        let lo = AtcEncoder::new(0.1).encode(&s).events.len();
        assert!(lo >= hi, "lo {lo} hi {hi}");
    }

    #[test]
    fn clocked_encoding_bounds_event_rate() {
        // At a 2 kHz clock, at most 1 kHz of rising edges are observable.
        let s = Signal::from_fn(20_000.0, 1.0, |t| {
            (2.0 * std::f64::consts::PI * 900.0 * t).sin().abs()
        });
        let out = AtcEncoder::new(0.5).encode_clocked(&s, 2000.0);
        assert!(out.events.len() as f64 <= 1000.0);
    }

    #[test]
    fn events_are_bare_pulses() {
        let s = Signal::from_fn(2500.0, 0.5, |t| (t * 200.0).sin().abs());
        let ev = AtcEncoder::new(0.3).encode(&s).events;
        assert!(ev.iter().all(|e| e.vth_code.is_none()));
        assert_eq!(ev.symbol_count(4), ev.len() as u64);
    }

    #[test]
    fn duty_cycle_tracks_time_above_threshold() {
        // |sin| spends a known fraction of time above 0.5: 2/3.
        let s = Signal::from_fn(10_000.0, 2.0, |t| {
            (2.0 * std::f64::consts::PI * 5.0 * t).sin().abs()
        });
        let out = AtcEncoder::new(0.5).encode(&s);
        assert!(
            (out.duty_cycle() - 2.0 / 3.0).abs() < 0.01,
            "{}",
            out.duty_cycle()
        );
        // counters agree with the materialised trace at TraceLevel::Full
        let from_trace = out.d_out.iter().filter(|&&b| b).count() as f64 / out.d_out.len() as f64;
        assert!((out.duty_cycle() - from_trace).abs() < 1e-15);
    }

    #[test]
    fn events_trace_level_skips_d_out() {
        let s = Signal::from_fn(2500.0, 1.0, |t| (t * 80.0).sin().abs());
        let lean = AtcEncoder::new(0.3)
            .with_trace_level(TraceLevel::Events)
            .encode(&s);
        let full = AtcEncoder::new(0.3).encode(&s);
        assert!(lean.d_out.is_empty());
        assert_eq!(full.d_out.len(), s.len());
        assert_eq!(lean.events, full.events);
        assert!((lean.duty_cycle() - full.duty_cycle()).abs() < 1e-15);
    }

    #[test]
    fn scheme_metadata() {
        let enc = AtcEncoder::new(0.3);
        assert_eq!(enc.scheme(), "atc");
        assert_eq!(enc.vth_bits(), 0);
    }

    #[test]
    fn hysteresis_reduces_chatter_on_noisy_signal() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let samples: Vec<f64> = (0..10_000)
            .map(|_| 0.3 + 0.01 * (rng.gen::<f64>() - 0.5))
            .collect();
        let s = Signal::from_samples(samples, 2500.0);
        let plain = AtcEncoder::new(0.3).encode(&s).events.len();
        let hyst = AtcEncoder::new(0.3)
            .with_hysteresis(0.05)
            .encode(&s)
            .events
            .len();
        assert!(hyst < plain / 10, "hyst {hyst} plain {plain}");
    }
}
