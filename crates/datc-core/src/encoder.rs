//! The unified encoder API: the [`SpikeEncoder`] trait, per-tick
//! [`TickSink`] consumers and opt-in trace capture via [`TraceLevel`].
//! Multi-channel encoding goes through `datc-engine`'s `FleetRunner`.
//!
//! Every spike-encoding scheme in the workspace — D-ATC
//! ([`DatcEncoder`](crate::datc::DatcEncoder)), fixed-threshold ATC
//! ([`AtcEncoder`](crate::atc::AtcEncoder)) and the packet/ADC baseline
//! (`PacketTx` in `datc-uwb`) — implements [`SpikeEncoder`], so links,
//! experiments and examples compose over any of them:
//!
//! ```
//! use datc_core::{DatcConfig, DatcEncoder, EncodedOutput, SpikeEncoder};
//! use datc_signal::Signal;
//!
//! fn air_symbols<E: SpikeEncoder>(enc: &E, s: &Signal) -> u64 {
//!     enc.encode(s).events().symbol_count(enc.vth_bits())
//! }
//!
//! let s = Signal::from_fn(2500.0, 1.0, |t| (t * 40.0).sin().abs() * 0.5);
//! assert!(air_symbols(&DatcEncoder::new(DatcConfig::paper()), &s) > 0);
//! ```

use crate::config::DatcConfig;
use crate::dac::Dac;
use crate::dtc::DtcStep;
use crate::event::{Event, EventStream};
use datc_signal::Signal;
use serde::{Deserialize, Serialize};

/// How much per-tick trace data an encoder materialises.
///
/// The full traces of [`DatcOutput`](crate::datc::DatcOutput) (threshold
/// code/voltage per tick, comparator bit per tick) are what the paper's
/// figures plot, but they cost four full-length `Vec`s per run. Hot paths
/// — links, sweeps, benches — opt down to [`TraceLevel::Events`] and
/// allocate nothing per tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum TraceLevel {
    /// Only the event stream (and scalar duty-cycle counters).
    Events,
    /// Events plus the per-frame threshold decisions (`frame_codes`).
    Frames,
    /// Everything the hardware exposes, per tick — the figure-plotting
    /// level, and the default for backwards compatibility.
    #[default]
    Full,
}

/// What every encoder run produces, regardless of scheme.
pub trait EncodedOutput {
    /// The threshold-crossing events, ready for the IR-UWB modulator.
    fn events(&self) -> &EventStream;

    /// Fraction of evaluated instants with the comparator high — the
    /// quantity the D-ATC controller regulates, and a cheap activity
    /// measure for every scheme.
    fn duty_cycle(&self) -> f64;
}

/// A spike encoder: rectified sEMG in, events (plus scheme-specific side
/// information) out.
///
/// Implementors must be pure in the signal: encoding the same signal
/// twice yields identical output (internal comparator state is cloned per
/// run, never shared).
pub trait SpikeEncoder {
    /// The scheme-specific rich output.
    type Output: EncodedOutput;

    /// Encodes a rectified, amplified sEMG signal.
    fn encode(&self, rectified: &Signal) -> Self::Output;

    /// Bits of threshold side information carried per event on air
    /// (0 for bare-pulse schemes).
    fn vth_bits(&self) -> u8;

    /// Short scheme name for reports ("d-atc", "atc", "packet").
    fn scheme(&self) -> &'static str;

    /// Symbol slots `output` occupies on air (Sec. III-B accounting:
    /// marker + side-information bits per event). Packetised schemes
    /// override this with their own framing cost.
    fn symbols_on_air(&self, output: &Self::Output) -> u64 {
        output.events().symbol_count(self.vth_bits())
    }

    /// OOK pulses actually radiated for `output` (energy is spent only on
    /// `1` symbols): the event marker plus one pulse per set code bit.
    fn pulses_on_air(&self, output: &Self::Output) -> u64 {
        let bits = self.vth_bits();
        let mask = if bits >= 8 {
            0xFF
        } else {
            (1u16 << bits) as u8 - 1
        };
        output
            .events()
            .iter()
            .map(|e| 1 + u64::from((e.vth_code.unwrap_or(0) & mask).count_ones()))
            .sum()
    }
}

/// Consumer of per-tick results from the streaming D-ATC kernel.
///
/// [`DatcStream::push_chunk`](crate::stream::DatcStream::push_chunk) and
/// [`push_signal`](crate::stream::DatcStream::push_signal) drive one of
/// these instead of returning per-tick structs, so the hot loop does no
/// per-tick allocation and sinks pay only for what they record.
pub trait TickSink {
    /// Called once per system-clock tick, in tick order.
    fn on_tick(&mut self, tick: u64, step: &DtcStep);
}

/// A sink recording only threshold-crossing events.
#[derive(Debug, Clone)]
pub struct EventSink {
    tick_period_s: f64,
    events: Vec<Event>,
}

impl EventSink {
    /// Creates a sink for a kernel clocked at `clock_hz`.
    pub fn new(clock_hz: f64) -> Self {
        EventSink {
            tick_period_s: 1.0 / clock_hz,
            events: Vec::new(),
        }
    }

    /// Events recorded so far.
    pub fn events(&self) -> &[Event] {
        &self.events
    }
}

impl TickSink for EventSink {
    #[inline]
    fn on_tick(&mut self, tick: u64, step: &DtcStep) {
        if step.event {
            self.events.push(Event {
                tick,
                time_s: tick as f64 * self.tick_period_s,
                vth_code: Some(step.sampled_code),
            });
        }
    }
}

/// A sink that only counts — the cheapest possible consumer, for duty
/// cycle estimation and throughput benches.
///
/// Every field update is a branch-free add of a bool-widened counter, so
/// the compiler fully inlines `on_tick` into the kernel loop and the
/// whole sink lives in four registers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingSink {
    /// Ticks observed.
    pub ticks: u64,
    /// Ticks with the comparator bit high.
    pub ones: u64,
    /// Events fired.
    pub events: u64,
    /// Frames closed.
    pub frames: u64,
}

impl CountingSink {
    /// Fraction of observed ticks with the comparator bit high.
    pub fn duty_cycle(&self) -> f64 {
        if self.ticks == 0 {
            return 0.0;
        }
        self.ones as f64 / self.ticks as f64
    }
}

impl TickSink for CountingSink {
    #[inline]
    fn on_tick(&mut self, _tick: u64, step: &DtcStep) {
        self.ticks += 1;
        self.ones += u64::from(step.d_out);
        self.events += u64::from(step.event);
        self.frames += u64::from(step.end_of_frame);
    }
}

/// The sink behind batch encoding: accumulates a
/// [`DatcOutput`](crate::datc::DatcOutput) with trace capture governed by
/// the configuration's [`TraceLevel`].
#[derive(Debug, Clone)]
pub struct DatcOutputBuilder {
    trace: TraceLevel,
    clock_hz: f64,
    tick_period_s: f64,
    vth_lut: Vec<f64>,
    events: Vec<Event>,
    vth_code_trace: Vec<u8>,
    vth_volt_trace: Vec<f64>,
    d_out: Vec<bool>,
    frame_codes: Vec<u8>,
    ticks: u64,
    ones: u64,
}

impl DatcOutputBuilder {
    /// Creates a builder for `config`, pre-sizing trace buffers for
    /// `expected_ticks` when the trace level materialises them.
    ///
    /// # Panics
    ///
    /// Panics when the configuration's DAC is invalid; encoders validate
    /// their configuration before reaching this point.
    pub fn new(config: &DatcConfig, expected_ticks: usize) -> Self {
        let trace = config.trace;
        let (tick_cap, frame_cap) = match trace {
            TraceLevel::Events => (0, 0),
            TraceLevel::Frames => (0, expected_ticks / config.frame_size.len() as usize + 1),
            TraceLevel::Full => (
                expected_ticks,
                expected_ticks / config.frame_size.len() as usize + 1,
            ),
        };
        DatcOutputBuilder {
            trace,
            clock_hz: config.clock_hz,
            tick_period_s: 1.0 / config.clock_hz,
            vth_lut: Dac::new(config.dac_bits, config.vref)
                .expect("validated configuration")
                .voltage_table(),
            events: Vec::new(),
            vth_code_trace: Vec::with_capacity(tick_cap),
            vth_volt_trace: Vec::with_capacity(tick_cap),
            d_out: Vec::with_capacity(tick_cap),
            frame_codes: Vec::with_capacity(frame_cap),
            ticks: 0,
            ones: 0,
        }
    }

    /// Finishes into a [`DatcOutput`](crate::datc::DatcOutput) covering
    /// `duration_s` seconds.
    pub fn finish(self, duration_s: f64) -> crate::datc::DatcOutput {
        crate::datc::DatcOutput {
            events: EventStream::new(
                self.events,
                self.clock_hz,
                duration_s.max(f64::MIN_POSITIVE),
            ),
            vth_code_trace: self.vth_code_trace,
            vth_volt_trace: self.vth_volt_trace,
            d_out: self.d_out,
            frame_codes: self.frame_codes,
            ticks: self.ticks,
            ones: self.ones,
        }
    }
}

impl TickSink for DatcOutputBuilder {
    #[inline]
    fn on_tick(&mut self, tick: u64, step: &DtcStep) {
        self.ticks += 1;
        self.ones += u64::from(step.d_out);
        if step.event {
            self.events.push(Event {
                tick,
                time_s: tick as f64 * self.tick_period_s,
                vth_code: Some(step.sampled_code),
            });
        }
        match self.trace {
            TraceLevel::Events => {}
            TraceLevel::Frames => {
                if step.end_of_frame {
                    self.frame_codes.push(step.set_vth);
                }
            }
            TraceLevel::Full => {
                if step.end_of_frame {
                    self.frame_codes.push(step.set_vth);
                }
                self.vth_code_trace.push(step.set_vth);
                self.vth_volt_trace
                    .push(self.vth_lut[usize::from(step.set_vth)]);
                self.d_out.push(step.d_out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datc::DatcEncoder;

    fn test_signal(gain: f64) -> Signal {
        Signal::from_fn(2500.0, 2.0, |t| {
            ((t * 97.0).sin() * (t * 7.0).cos()).abs() * gain
        })
    }

    #[test]
    fn trace_level_defaults_to_full() {
        assert_eq!(TraceLevel::default(), TraceLevel::Full);
        assert_eq!(DatcConfig::paper().trace, TraceLevel::Full);
    }

    #[test]
    fn events_level_materialises_no_traces() {
        let cfg = DatcConfig::paper().with_trace_level(TraceLevel::Events);
        let out = DatcEncoder::new(cfg).encode(&test_signal(0.6));
        assert!(!out.events.is_empty());
        assert!(out.vth_code_trace.is_empty());
        assert!(out.vth_volt_trace.is_empty());
        assert!(out.d_out.is_empty());
        assert!(out.frame_codes.is_empty());
        // duty cycle still available from the counters
        assert!(out.duty_cycle() > 0.0);
    }

    #[test]
    fn frames_level_keeps_frame_codes_only() {
        let cfg = DatcConfig::paper().with_trace_level(TraceLevel::Frames);
        let out = DatcEncoder::new(cfg).encode(&test_signal(0.6));
        assert_eq!(out.frame_codes.len(), 40); // 2 s × 2 kHz / 100
        assert!(out.vth_code_trace.is_empty());
        assert!(out.d_out.is_empty());
    }

    #[test]
    fn trace_levels_agree_on_events_and_duty() {
        let s = test_signal(0.5);
        let full = DatcEncoder::new(DatcConfig::paper()).encode(&s);
        let lean =
            DatcEncoder::new(DatcConfig::paper().with_trace_level(TraceLevel::Events)).encode(&s);
        assert_eq!(full.events, lean.events);
        assert!((full.duty_cycle() - lean.duty_cycle()).abs() < 1e-15);
    }

    #[test]
    fn pulses_on_air_follows_code_popcount() {
        let cfg = DatcConfig::paper();
        let enc = DatcEncoder::new(cfg);
        let out = enc.encode(&test_signal(0.7));
        assert!(!out.events.is_empty());
        let expected: u64 = out
            .events
            .iter()
            .map(|e| 1 + u64::from(e.vth_code.unwrap().count_ones()))
            .sum();
        assert_eq!(enc.pulses_on_air(&out), expected);
        // symbol accounting: marker + dac_bits per event
        assert_eq!(
            enc.symbols_on_air(&out),
            out.events.len() as u64 * (1 + u64::from(cfg.dac_bits))
        );
    }

    #[test]
    fn counting_sink_matches_output_counters() {
        use crate::stream::DatcStream;
        let s = test_signal(0.7);
        let out = DatcEncoder::new(DatcConfig::paper()).encode(&s);
        let mut stream = DatcStream::new(DatcConfig::paper()).unwrap();
        let mut count = CountingSink::default();
        stream.push_signal(&s, &mut count);
        assert_eq!(count.events as usize, out.events.len());
        assert_eq!(count.ones, out.ones);
        assert_eq!(count.ticks, out.ticks);
    }
}
