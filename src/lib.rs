//! # datc — Dynamic Average Threshold Crossing, reproduced
//!
//! A full Rust reproduction of *"An all-digital spike-based
//! ultra-low-power IR-UWB dynamic average threshold crossing scheme for
//! muscle force wireless transmission"* (Shahshahani et al., DATE 2015).
//!
//! This facade crate re-exports the workspace:
//!
//! * [`signal`] — sEMG synthesis, DSP, and the 190-pattern corpus;
//! * [`core`] — the unified [`SpikeEncoder`](core::SpikeEncoder) API:
//!   D-ATC and ATC encoders over one cycle-accurate streaming kernel,
//!   and opt-in trace capture ([`TraceLevel`](core::TraceLevel));
//! * [`uwb`] — IR-UWB pulses, OOK event patterns, channel, AER merging,
//!   and the packet/ADC baseline (also a
//!   [`SpikeEncoder`](core::SpikeEncoder));
//! * [`rx`] — receiver-side reconstruction, the correlation metric, and
//!   the composable [`Link`](rx::pipeline::Link) pipeline builder;
//! * [`wire`] — the AER wire format: packet codec, loss-tolerant
//!   [`StreamDecoder`](wire::StreamDecoder), streaming per-session
//!   receive pipeline (selectable rate / EWMA / threshold-track /
//!   hybrid reconstructors, bounded-memory sinks) and the
//!   multi-session [`TelemetryHub`](wire::TelemetryHub) TCP gateway
//!   plus its [`UdpTelemetryHub`](wire::UdpTelemetryHub) datagram
//!   counterpart;
//! * [`obs`] — the lock-light metrics layer: [`Registry`](obs::Registry),
//!   counters/gauges/log-scale histograms, and Prometheus-text and JSON
//!   exporters — every layer above publishes into it (`datc_fleet_*`
//!   from the engine, `datc_rx_*` / `datc_session_*` / `datc_hub_*` from
//!   the wire);
//! * [`rtl`] — the gate-level DTC, cell library, synthesis and power
//!   reports (Table I);
//! * [`experiments`] — runners regenerating every figure and table.
//!
//! ## Quickstart: one pipeline, end to end
//!
//! Everything between the electrode and the force estimate composes with
//! [`Link::builder`](rx::pipeline::Link::builder) — pick an encoder, a
//! channel, a reconstructor, and run:
//!
//! ```
//! use datc::core::{DatcConfig, DatcEncoder};
//! use datc::rx::pipeline::Link;
//! use datc::rx::HybridReconstructor;
//! use datc::signal::envelope::arv_envelope;
//! use datc::signal::generator::{ForceProfile, SemgGenerator, SemgModel};
//! use datc::uwb::channel::SymbolChannel;
//!
//! // synthesise 5 s of sEMG following a grip contraction
//! let fs = 2500.0;
//! let force = ForceProfile::mvc_protocol().samples(fs, 5.0);
//! let semg = SemgGenerator::new(SemgModel::modulated_noise(), fs)
//!     .generate(&force, 42)
//!     .to_scaled(0.4)
//!     .to_rectified();
//! let arv = arv_envelope(&semg, 0.25);
//!
//! // D-ATC encoder → lossy IR-UWB symbol link → hybrid receiver
//! let link = Link::builder()
//!     .encoder(DatcEncoder::new(DatcConfig::paper()))
//!     .channel(SymbolChannel::new(0.01, 0.0))
//!     .reconstructor(HybridReconstructor::paper())
//!     .build();
//! let (run, correlation) = link.run_scored(&semg, &arv, 0.3);
//! println!(
//!     "{} events, {} symbols on air, correlation {correlation:.1} %",
//!     run.transmission.encoded.events.len(),
//!     run.transmission.symbols_on_air,
//! );
//! assert!(correlation > 80.0);
//! ```
//!
//! ## Encoding only
//!
//! Encoders stand alone behind the [`SpikeEncoder`](core::SpikeEncoder)
//! trait; swap [`DatcEncoder`](core::DatcEncoder) for
//! [`AtcEncoder`](core::atc::AtcEncoder) or the packet baseline without
//! touching the call site:
//!
//! ```
//! use datc::core::{DatcConfig, DatcEncoder, SpikeEncoder, TraceLevel};
//! use datc::signal::Signal;
//!
//! let semg = Signal::from_fn(2500.0, 2.0, |t| ((300.0 * t).sin() * (2.0 * t).sin()).abs());
//! // events-only trace level: the zero-per-tick-allocation hot path
//! let cfg = DatcConfig::paper().with_trace_level(TraceLevel::Events);
//! let out = DatcEncoder::new(cfg).encode(&semg);
//! println!("{} events at duty {:.1} %", out.events.len(), out.duty_cycle() * 100.0);
//! ```
//!
//! Real-time consumers drive the streaming kernel directly — see
//! [`core::stream::DatcStream`] (`tick` for one sample at a time,
//! `push_chunk` for allocation-free chunked encoding).
//!
//! ## Fleet scale: many channels, many cores
//!
//! For whole electrode fleets, [`engine::FleetRunner`] shards channels
//! across worker threads, each running the struct-of-arrays
//! [`core::bank::BankStream`] kernel, bit-exact with per-channel
//! encoding and deterministic for any thread count.
//! [`encode_merged`](engine::FleetRunner::encode_merged) also puts every
//! channel onto one serial IR-UWB link through the
//! Address-Event-Representation merger:
//!
//! ```
//! use datc::core::DatcConfig;
//! use datc::engine::FleetRunner;
//! use datc::signal::Signal;
//!
//! let electrodes: Vec<Signal> = (0..16)
//!     .map(|c| Signal::from_fn(2500.0, 1.0, move |t| (t * (40.0 + c as f64)).sin().abs() * 0.5))
//!     .collect();
//! let fleet = FleetRunner::new(DatcConfig::paper(), 16).unwrap();
//! let (out, merged) = fleet.encode_merged(&electrodes, 5e-6);
//! assert_eq!(out.channels.len(), 16);
//! assert!(merged.merged.len() > 0);
//! ```
//!
//! ## Over the wire: stream a fleet into the telemetry gateway
//!
//! Fleet outputs don't have to stay in-process: [`wire::stream_fleet`]
//! packetises the merged AER stream (sync word, CRC, delta-tick varint
//! events) and pushes it through a TCP session into a
//! [`wire::TelemetryHub`], whose connection readers decode
//! incrementally and run streaming per-channel force reconstruction:
//!
//! ```
//! use datc::core::{DatcConfig, TraceLevel};
//! use datc::engine::FleetRunner;
//! use datc::signal::Signal;
//! use datc::wire::{stream_fleet, HubConfig, TelemetryHub};
//!
//! let electrodes: Vec<Signal> = (0..4)
//!     .map(|c| Signal::from_fn(2500.0, 1.0, move |t| (t * (40.0 + c as f64)).sin().abs() * 0.5))
//!     .collect();
//! let fleet = FleetRunner::new(
//!     DatcConfig::paper().with_trace_level(TraceLevel::Events), 4,
//! ).unwrap().encode(&electrodes);
//!
//! let hub = TelemetryHub::bind("127.0.0.1:0", HubConfig::default()).unwrap();
//! stream_fleet(hub.local_addr(), 1, &fleet, 25e-6).unwrap();
//! let sessions = hub.shutdown();
//! assert_eq!(sessions.len(), 1);
//! assert_eq!(sessions[0].report.stats.events_lost, 0);
//! ```

pub use datc_core as core;
pub use datc_engine as engine;
pub use datc_experiments as experiments;
pub use datc_obs as obs;
pub use datc_rtl as rtl;
pub use datc_rx as rx;
pub use datc_signal as signal;
pub use datc_uwb as uwb;
pub use datc_wire as wire;

/// Everything a typical consumer needs in scope.
pub mod prelude {
    pub use datc_core::{
        DatcConfig, DatcEncoder, DatcOutput, EncodedOutput, Event, EventStream, FrameSize,
        SpikeEncoder, TraceLevel,
    };
    pub use datc_engine::{FleetOutput, FleetRunner};
    pub use datc_obs::{render_json, render_prometheus, Registry};
    pub use datc_rx::pipeline::{Link, LinkBuilder, LinkRun};
    pub use datc_rx::{
        AnyOnlineReconstructor, HybridReconstructor, OnlineReconSelect, OnlineReconstructor, Rate0,
        RateReconstructor, Reconstructor, ThresholdTrackReconstructor,
    };
    pub use datc_signal::Signal;
    pub use datc_uwb::channel::SymbolChannel;
    pub use datc_uwb::link::{Transmission, UwbTx};
    pub use datc_wire::{
        Packetizer, SessionHeader, SessionRx, SessionSink, StreamDecoder, TelemetryHub,
        UdpTelemetryHub, WireStats,
    };
}
