//! # datc-wire — the AER wire format and streaming receive path
//!
//! The paper's argument is that D-ATC events are cheap enough to
//! *transmit*; this crate is the transmission. It turns
//! [`AddressedEvent`](datc_uwb::aer::AddressedEvent) streams into a
//! compact, loss-tolerant byte format and decodes them incrementally
//! into force estimates — the receiver half the batch pipelines in
//! `datc-rx` cannot provide:
//!
//! * [`frame`] — self-delimiting framing: sync word, sequence number,
//!   length, CRC-16, resynchronisation after corruption;
//! * [`varint`] — LEB128 integers for tick deltas and event indices,
//!   with a SWAR word-at-a-time decode fast path;
//! * [`batch`] — struct-of-arrays [`EventBatch`]es, the zero-copy
//!   currency the decode path appends into instead of allocating
//!   per-packet event vectors;
//! * [`packet`] — the HELLO / DATA / BYE payload codecs and the
//!   transmit-side [`Packetizer`]: delta-tick
//!   compression brings a typical D-ATC event to ~3–4 bytes on the
//!   wire;
//! * [`decode`] — the [`StreamDecoder`]:
//!   loss-, reorder- and duplication-tolerant, with *exact* per-channel
//!   event-loss accounting against the BYE totals;
//! * [`session`] — one receive session end-to-end
//!   ([`SessionRx`]): decode → demux → per-channel streaming
//!   reconstructor (rate, EWMA, threshold-track or hybrid, selected by
//!   [`OnlineReconSelect`](datc_rx::online::OnlineReconSelect)),
//!   emitting force samples with bounded latency;
//! * [`sink`] — the [`SessionSink`] callback API plus the bounded
//!   [`ForceRing`], keeping long-running sessions in `O(window)`
//!   memory;
//! * [`gateway`] — the [`TelemetryHub`]: a TCP
//!   loopback ingest gateway multiplexing many concurrent sensor
//!   sessions, fed by [`FleetRunner`](datc_engine::FleetRunner) via
//!   [`stream_fleet`] — plus what both transports share: one
//!   socket-free session lifecycle the hubs drive, and one sender core
//!   ([`Sender`](gateway::Sender) over a [`Transport`](gateway::Transport))
//!   behind [`SessionSender`] and [`UdpSessionSender`];
//! * [`udp`] — the same gateway over datagrams
//!   ([`UdpTelemetryHub`]): one framed packet per datagram, sessions
//!   keyed by peer address, loss/reorder/duplication handled by the
//!   selfsame [`StreamDecoder`] — and a [`SessionTable`] both hubs can
//!   share;
//! * [`obs`] — wire-layer instrumentation: stable metric names plus
//!   the sync helper ([`SessionObs`]) that publishes decoder books,
//!   per-session gauges and deterministic tick-domain latency
//!   histograms into a [`datc_obs::Registry`];
//! * [`chaos`] — deterministic fault injection ([`ChaosLink`]): a
//!   seeded hostile link (drop, duplication, bounded reorder, bit
//!   corruption, truncation, stall windows, mid-session disconnects)
//!   that replays any failure from its logged seed, wrapping both
//!   senders via `with_chaos`;
//! * [`flow`] — receiver-driven flow control: the UDP hub writes
//!   [`packet::FeedbackSummary`] frames back to the
//!   sender, whose [`AimdController`] adapts [`UdpPacing`] (additive
//!   increase, multiplicative decrease) and whose [`ReplayBuffer`]
//!   retransmits feedback-reported holes still inside a bounded
//!   window — loss *repair* on top of loss tolerance.
//!
//! ## Guarantees
//!
//! * **Exact round trip**: encode → packetize → decode reproduces the
//!   original addressed-event sequence bit-for-bit (timestamps
//!   included — the HELLO carries the transmitter's tick period as raw
//!   IEEE-754 bits), property-tested for any channel count ≤ 256 and
//!   arbitrary tick patterns.
//! * **Exact loss accounting**: every DATA packet carries the
//!   cumulative index of its first event, and the BYE carries
//!   per-channel sent totals, so the decoder reports precisely how many
//!   events each channel lost — not an estimate.
//! * **Bounded-latency decode**: reordering is absorbed by a bounded
//!   buffer; overflow declares the hole lost and moves on, so a lossy
//!   link degrades the force estimate instead of stalling it.
//!
//! ## Example: a lossy link, end to end
//!
//! ```
//! use datc_core::Event;
//! use datc_uwb::aer::AddressedEvent;
//! use datc_wire::packet::{Packetizer, SessionHeader};
//! use datc_wire::session::{SessionRx, SessionRxConfig};
//!
//! let header = SessionHeader::new(1, 2, 2000.0, 2.0);
//! let events: Vec<AddressedEvent> = (0..200)
//!     .map(|i| AddressedEvent {
//!         channel: (i % 2) as u8,
//!         event: Event::at_tick(i * 17, header.tick_period_s, Some(7)),
//!     })
//!     .collect();
//!
//! let mut tx = Packetizer::new(header).with_events_per_frame(20);
//! let mut rx = SessionRx::new(SessionRxConfig::default());
//! rx.push_bytes(&tx.hello());
//! for (i, frame) in tx.data_frames(&events).iter().enumerate() {
//!     if i != 3 {
//!         rx.push_bytes(frame); // packet 3 is lost on air
//!     }
//! }
//! rx.push_bytes(&tx.bye());
//!
//! let report = rx.finish();
//! assert_eq!(report.stats.events_lost, 20); // exactly one packet's worth
//! assert!(report.force_is_finite()); // the estimate degrades, never breaks
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod batch;
pub mod chaos;
pub mod decode;
pub mod flow;
pub mod frame;
pub mod gateway;
mod hub;
pub mod obs;
pub mod packet;
pub mod session;
pub mod sink;
pub mod udp;
pub mod varint;

pub use batch::EventBatch;
pub use chaos::{ChaosLink, ChaosProfile, ChaosStats, Fate, FaultPlan};
pub use decode::{ChannelWireStats, StreamDecoder, WireCounters, WireStats};
pub use flow::{AimdConfig, AimdController, FlowConfig, FlowSession, ReplayBuffer};
pub use gateway::{
    stream_fleet, ClientReport, HubConfig, HubHealth, HubSession, RetryPolicy, SessionSender,
    SessionTable, SinkFactory, TelemetryHub,
};
pub use obs::SessionObs;
pub use packet::{ByeSummary, FeedbackSummary, Packetizer, SessionHeader, WireEvent};
pub use session::{SessionReport, SessionRx, SessionRxConfig};
pub use sink::{capture_store, CaptureStore, ForceRing, MemorySink, SessionCapture, SessionSink};
pub use udp::{udp_stream_fleet, UdpPacing, UdpSessionSender, UdpTelemetryHub};
