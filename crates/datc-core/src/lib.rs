//! # datc-core — ATC and D-ATC spike encoders
//!
//! This crate implements the primary contribution of Shahshahani et al.,
//! *DATE 2015*: **Dynamic Average Threshold Crossing (D-ATC)**, an
//! all-digital spike-based encoding of sEMG for IR-UWB muscle-force
//! transmission, together with the fixed-threshold **ATC** baseline it is
//! compared against — both behind the unified [`SpikeEncoder`] trait.
//!
//! ## The unified encoder API
//!
//! Every encoding scheme implements [`SpikeEncoder`]: rectified sEMG in,
//! an [`EncodedOutput`] (events + duty cycle + scheme-specific traces)
//! out. One cycle-accurate kernel ([`stream::DatcStream`]) backs every
//! D-ATC entry point:
//!
//! * batch [`DatcEncoder::encode`](encoder::SpikeEncoder::encode) — a
//!   thin driver over the kernel, with trace capture governed by
//!   [`TraceLevel`] in the [`DatcConfig`];
//! * per-tick [`stream::DatcStream::tick`] — the silicon-shaped
//!   real-time interface;
//! * chunked [`stream::DatcStream::push_chunk`] — clock-rate slices into
//!   a [`TickSink`](encoder::TickSink), the zero-per-tick-allocation
//!   fast path.
//!
//! Multi-channel encoding goes through `datc-engine`'s `FleetRunner`,
//! which feeds the AER merger of `datc-uwb`, and whole transmit→receive
//! chains compose with the `Link` builder in `datc-rx`.
//!
//! ## Throughput
//!
//! The hot path is integer-domain and LUT-folded: every entry point
//! converts threshold codes through a DAC table precomputed at
//! construction ([`Dac::voltage_table`](dac::Dac::voltage_table)) —
//! never the fallible per-tick `Dac::voltage` — and `1/clock_hz` and
//! the ZOH end clamp are hoisted out of the tick loops. For N-channel
//! workloads, [`bank::BankStream`] holds all per-channel state in
//! parallel arrays. Its one driver,
//! [`push_signals`](bank::BankStream::push_signals), runs one span
//! kernel that packs 64 comparator decisions per word, so `In_reg`
//! delay, edge detection and duty counting become shifts, masks and
//! popcounts (AVX-accelerated where the CPU allows, runtime-detected,
//! bit-identical either way). The
//! multi-threaded fleet driver over it lives in `datc-engine`;
//! measured rates are tracked in `BENCH_fleet.json` at the workspace
//! root.
//!
//! The hardware blocks mirror the paper's Fig. 1/Fig. 4:
//!
//! * [`frontend::AnalogFrontEnd`] — preamplifier gain, saturation and
//!   full-wave rectification;
//! * [`comparator::Comparator`] — the analog comparator (with optional
//!   offset, hysteresis and input-referred noise);
//! * [`dac::Dac`] — the 4-bit threshold DAC, `Vth = Vref·code/2^Nb`
//!   (Eqn. 3);
//! * [`dtc::Dtc`] — the Dynamic Threshold Controller: per-frame `'1'`
//!   counting, three-frame weighted history
//!   `AVR = (1.0·N₃ + 0.65·N₂ + 0.35·N₁)/2`, interval LUT
//!   `level_k = 0.03·(k+1)·frame_size` (Eqn. 2) and the threshold
//!   predictor (Listing 1) — in both floating-point reference and
//!   bit-accurate fixed-point (hardware) arithmetic.
//!
//! ## Quick example
//!
//! ```
//! use datc_core::{DatcConfig, DatcEncoder, SpikeEncoder};
//! use datc_signal::Signal;
//!
//! let signal = Signal::from_fn(2500.0, 1.0, |t| (t * 40.0).sin().abs() * 0.5);
//! let encoder = DatcEncoder::new(DatcConfig::paper());
//! let out = encoder.encode(&signal);
//! assert!(!out.events.is_empty());
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod atc;
pub mod bank;
pub mod comparator;
pub mod config;
pub mod dac;
pub mod datc;
pub mod dtc;
pub mod encoder;
pub mod error;
pub mod event;
pub mod frontend;
pub mod stream;

pub use bank::{BankEventSink, BankSink, BankStream};
pub use config::{DatcConfig, FrameSize};
pub use datc::{DatcEncoder, DatcOutput};
pub use encoder::{EncodedOutput, SpikeEncoder, TraceLevel};
pub use error::CoreError;
pub use event::{Event, EventStream};
