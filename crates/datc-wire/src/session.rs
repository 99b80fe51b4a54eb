//! One receive session end-to-end: byte stream → [`StreamDecoder`] →
//! per-channel streaming reconstructors → force samples.
//!
//! This is the unit of work a hub runs per session, whether its peer
//! is a TCP connection or a UDP address; it is equally usable
//! standalone (e.g. replaying a capture file).
//!
//! ## Memory model
//!
//! Decoded events and determined force samples stream out through an
//! optional [`SessionSink`] the moment they exist; the session itself
//! retains only a bounded [`ForceRing`] tail per channel (capacity
//! [`force_window`](SessionRxConfig::force_window)), so a session that
//! runs for days holds `O(channels · window)` memory, not `O(duration)`.
//! The default `force_window` of `None` keeps whole traces — the right
//! call for replaying a bounded capture; the gateways default to a
//! bounded window (see [`HubConfig`](crate::gateway::HubConfig)).

use crate::batch::EventBatch;
use crate::decode::{StreamDecoder, WireStats};
use crate::obs::SessionObs;
use crate::packet::SessionHeader;
use crate::sink::{ForceRing, SessionSink};
use datc_rx::online::{AnyOnlineReconstructor, OnlineReconSelect, OnlineReconstructor};
use datc_uwb::aer::AddressedEvent;
use std::time::Instant;

/// Tuning for a receive session.
///
/// # Example
///
/// ```
/// use datc_rx::online::OnlineReconSelect;
/// use datc_wire::session::SessionRxConfig;
///
/// let cfg = SessionRxConfig::default();
/// assert_eq!(cfg.output_fs, 100.0);
/// assert_eq!(cfg.recon, OnlineReconSelect::Rate { window_s: 0.25 });
/// // the paper's D-ATC receiver instead:
/// let datc = SessionRxConfig {
///     recon: OnlineReconSelect::paper_threshold_track(),
///     ..SessionRxConfig::default()
/// };
/// assert!(matches!(datc.recon, OnlineReconSelect::ThresholdTrack { .. }));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRxConfig {
    /// Which streaming reconstructor every channel gets (rate, EWMA,
    /// threshold-track or hybrid — see [`OnlineReconSelect`]).
    pub recon: OnlineReconSelect,
    /// Force output rate per channel, Hz.
    pub output_fs: f64,
    /// Reorder-buffer depth handed to the [`StreamDecoder`].
    pub reorder_window: usize,
    /// Per-channel force samples retained for the closing report:
    /// `Some(n)` keeps the newest `n` (bounded memory), `None` keeps the
    /// whole trace.
    pub force_window: Option<usize>,
    /// Ceiling on bytes parked in the decoder's reorder buffer
    /// (`Some(bytes)` sheds the oldest parked packet on overflow — see
    /// [`StreamDecoder::with_parked_bytes_cap`]); `None` leaves parking
    /// bounded only by the reorder window. The default (1 MiB) keeps a
    /// hostile or badly reordered peer from ballooning session memory.
    pub parked_bytes_cap: Option<usize>,
    /// Cadence for [`feedback_due`](SessionRx::feedback_due) flow-control
    /// snapshots; `None` disables feedback production entirely. TCP hubs
    /// ignore it: a [`TelemetryHub`](crate::gateway::TelemetryHub) writes
    /// no FEEDBACK.
    pub feedback_every: Option<std::time::Duration>,
}

impl Default for SessionRxConfig {
    fn default() -> Self {
        SessionRxConfig {
            recon: OnlineReconSelect::default(),
            output_fs: 100.0,
            reorder_window: crate::decode::DEFAULT_REORDER_WINDOW,
            force_window: None,
            parked_bytes_cap: Some(1 << 20),
            feedback_every: Some(std::time::Duration::from_millis(50)),
        }
    }
}

/// Everything a finished session produced.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// The announced session header (absent when no HELLO ever arrived).
    pub header: Option<SessionHeader>,
    /// Final decoder counters.
    pub stats: WireStats,
    /// Per-channel force-trace *tails* at
    /// [`output_fs`](SessionRxConfig::output_fs): the whole trace when
    /// [`force_window`](SessionRxConfig::force_window) is `None`, else
    /// the newest `force_window` samples (older ones were delivered to
    /// the sink and evicted).
    pub force_tail: Vec<Vec<f64>>,
    /// Exact per-channel count of force samples ever emitted (tail plus
    /// evicted).
    pub force_emitted: Vec<usize>,
}

impl SessionReport {
    /// `true` when every retained force sample on every channel is
    /// finite — the loss-tolerance acceptance gate.
    pub fn force_is_finite(&self) -> bool {
        self.force_tail
            .iter()
            .all(|ch| ch.iter().all(|v| v.is_finite()))
    }

    /// Total force samples emitted across channels over the session's
    /// lifetime.
    pub fn force_samples(&self) -> usize {
        self.force_emitted.iter().sum()
    }
}

/// Streaming receive pipeline for one session.
///
/// # Example
///
/// ```
/// use datc_core::Event;
/// use datc_uwb::aer::AddressedEvent;
/// use datc_wire::packet::{encode_session, SessionHeader};
/// use datc_wire::session::{SessionRx, SessionRxConfig};
///
/// let header = SessionHeader::new(3, 2, 2000.0, 2.0);
/// let events: Vec<AddressedEvent> = (0..200)
///     .map(|i| AddressedEvent {
///         channel: (i % 2) as u8,
///         event: Event::at_tick(i * 19, header.tick_period_s, Some(5)),
///     })
///     .collect();
/// let wire = encode_session(header, &events);
///
/// let mut rx = SessionRx::new(SessionRxConfig::default());
/// for chunk in wire.chunks(256) {
///     rx.push_bytes(chunk);
/// }
/// let report = rx.finish();
/// assert_eq!(report.stats.events_lost, 0);
/// assert_eq!(report.force_tail.len(), 2);
/// assert_eq!(report.force_tail[0].len(), 200); // 2 s at 100 Hz
/// assert!(report.force_is_finite());
/// ```
pub struct SessionRx {
    config: SessionRxConfig,
    decoder: StreamDecoder,
    recon: Vec<AnyOnlineReconstructor>,
    rings: Vec<ForceRing>,
    sink: Option<Box<dyn SessionSink>>,
    obs: Option<SessionObs>,
    /// Reused drain arena: events flow decoder → reconstructors in
    /// struct-of-arrays form, never materialising `AddressedEvent`s on
    /// the hot path.
    scratch: EventBatch,
    /// Row-form staging for sinks (the only consumer that still takes
    /// `AddressedEvent`s).
    sink_scratch: Vec<AddressedEvent>,
    emit_scratch: Vec<f64>,
    /// When the last FEEDBACK frame went out (cadence limiter).
    feedback_last: Option<Instant>,
    /// Wrapping sequence counter for outgoing FEEDBACK frames.
    feedback_seq: u16,
    /// Total FEEDBACK frames produced over the session's lifetime.
    feedback_tx: u64,
}

impl std::fmt::Debug for SessionRx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionRx")
            .field("config", &self.config)
            .field("decoder", &self.decoder)
            .field("channels", &self.recon.len())
            .field("has_sink", &self.sink.is_some())
            .field("has_obs", &self.obs.is_some())
            .finish()
    }
}

impl SessionRx {
    /// Creates an idle session pipeline; channels materialise when the
    /// HELLO announces them.
    ///
    /// # Panics
    ///
    /// Panics when `force_window` or `parked_bytes_cap` is `Some(0)`
    /// (use `None` for unbounded). The hubs reject such configs at bind
    /// time instead, so the panic cannot reach a hub thread.
    pub fn new(config: SessionRxConfig) -> Self {
        assert!(
            config.force_window != Some(0),
            "force_window must be positive (use None for unbounded)"
        );
        let mut decoder = StreamDecoder::with_reorder_window(config.reorder_window);
        if let Some(cap) = config.parked_bytes_cap {
            decoder = decoder.with_parked_bytes_cap(cap);
        }
        SessionRx {
            config,
            decoder,
            recon: Vec::new(),
            rings: Vec::new(),
            sink: None,
            obs: None,
            scratch: EventBatch::new(),
            sink_scratch: Vec::new(),
            emit_scratch: Vec::new(),
            feedback_last: None,
            feedback_seq: 0,
            feedback_tx: 0,
        }
    }

    /// Attaches a [`SessionSink`] receiving events and force samples as
    /// they are determined.
    pub fn with_sink(mut self, sink: Box<dyn SessionSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Attaches per-session instrumentation: the session keeps the
    /// [`SessionObs`] series synced on every
    /// [`push_bytes`](SessionRx::push_bytes) (decode counters, reorder
    /// depth, force-ring residency, event-rate EWMA) and observes each
    /// released event's ingest→force-release latency in clock ticks —
    /// a deterministic function of the byte stream, so the histogram is
    /// bit-reproducible. An uninstrumented session skips all of it.
    pub fn with_metrics(mut self, obs: SessionObs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// The decoder's session header, once known.
    pub fn header(&self) -> Option<&SessionHeader> {
        self.decoder.session()
    }

    /// `true` once the BYE frame was processed (the books are closed, so
    /// a hub never parks the session for resume).
    pub fn is_closed(&self) -> bool {
        self.decoder.is_closed()
    }

    /// `true` when a BYE announcing `total_events` would find nothing
    /// left to wait for (see [`StreamDecoder::is_complete`]).
    pub(crate) fn is_complete(&self, total_events: u64) -> bool {
        self.decoder.is_complete(total_events)
    }

    /// Current decoder counters.
    pub fn stats(&self) -> WireStats {
        self.decoder.stats()
    }

    /// Cheap framing-garbage score (see
    /// [`StreamDecoder::framing_garbage`]) — what the hubs poll per
    /// read/datagram against
    /// [`HubConfig::malformed_budget`](crate::gateway::HubConfig::malformed_budget)
    /// without cloning per-channel stats.
    pub fn framing_garbage(&self) -> u64 {
        self.decoder.framing_garbage()
    }

    /// Produces a framed FEEDBACK report when one is due at `now`: the
    /// config's [`feedback_every`](SessionRxConfig::feedback_every)
    /// cadence has elapsed since the last report (the first call after
    /// the HELLO is always due) and the session knows its nonce. The
    /// report is the decoder's [`feedback`](StreamDecoder::feedback)
    /// snapshot with the hub's load level `pressure` (0 = idle … 255 =
    /// saturated) stamped in verbatim. Returns the complete wire frame
    /// ready to write back to the sender; `None` when feedback is
    /// disabled, the HELLO has not arrived, or the cadence has not
    /// elapsed. The session never reads a clock itself: the hubs pass
    /// the time of each tick — the cadence limiter makes a call per
    /// session per tick cheap.
    pub fn feedback_due(&mut self, pressure: u8, now: Instant) -> Option<Vec<u8>> {
        let every = self.config.feedback_every?;
        if let Some(last) = self.feedback_last {
            if now.duration_since(last) < every {
                return None;
            }
        }
        let fb = self.decoder.feedback(pressure)?;
        self.feedback_last = Some(now);
        let frame = crate::frame::encode_frame(
            crate::frame::FrameType::Feedback,
            self.feedback_seq,
            &fb.encode(),
        );
        self.feedback_seq = self.feedback_seq.wrapping_add(1);
        self.feedback_tx += 1;
        if let Some(obs) = &self.obs {
            obs.set_feedback_tx(self.feedback_tx);
        }
        Some(frame)
    }

    /// Feeds received bytes; decoded events flow straight into the
    /// per-channel reconstructors (and the sink, when attached).
    /// Returns events absorbed this call.
    pub fn push_bytes(&mut self, bytes: &[u8]) -> usize {
        self.decoder.push_bytes(bytes);
        if self.recon.is_empty() {
            if let Some(h) = self.decoder.session() {
                let mut per_channel = self.config.recon.build(self.config.output_fs);
                per_channel.cap_duration(h.duration_s);
                let n = usize::from(h.n_channels);
                self.recon = vec![per_channel; n];
                self.rings = vec![ForceRing::new(self.config.force_window); n];
            }
        }
        self.scratch.clear();
        self.decoder.drain_batch(&mut self.scratch);
        let absorbed = self.scratch.len();
        self.absorb_scratch();
        // Released events are time-ordered across channels, so the
        // newest timestamp is a watermark for every channel: all
        // determined samples stream out with bounded latency.
        let watermark = self.decoder.watermark_s();
        for r in &mut self.recon {
            r.advance_to(watermark);
        }
        self.emit();
        self.sync_obs(absorbed);
        self.scratch.clear();
        absorbed
    }

    /// Publishes the post-push state into the attached [`SessionObs`]:
    /// latency observations for the events still in `scratch`, then the
    /// decoder counters and the pipeline gauges. No-op without obs.
    fn sync_obs(&mut self, absorbed: usize) {
        let Some(obs) = &mut self.obs else {
            return;
        };
        let watermark = self.decoder.watermark_s();
        if let Some(h) = self.decoder.session() {
            // Released events became force-eligible at the current
            // watermark; their wait is watermark − timestamp. Both are
            // functions of the byte stream alone, so the tick-domain
            // histogram reproduces bit-exactly. The bucketing
            // partitions the batch's tick column directly.
            obs.observe_latency_batch(self.scratch.ticks(), watermark, h.tick_period_s);
        }
        obs.note_released(absorbed as u64, watermark);
        obs.sync(&self.decoder.counters());
        let ring_bytes: usize = self
            .rings
            .iter()
            .map(|r| r.len() * std::mem::size_of::<f64>())
            .sum();
        obs.set_force_ring_bytes(ring_bytes as u64);
    }

    /// Delivers `scratch` to the sink and the reconstructors.
    fn absorb_scratch(&mut self) {
        if self.scratch.is_empty() {
            return;
        }
        let Some(period) = self.decoder.session().map(|h| h.tick_period_s) else {
            return; // released events imply a decoded HELLO
        };
        if let Some(sink) = &mut self.sink {
            // Sinks keep the row-form API; materialise only for them.
            self.sink_scratch.clear();
            self.scratch
                .materialize_into(period, &mut self.sink_scratch);
            sink.on_events(&self.sink_scratch);
        }
        // `tick * period` is exactly the `time_s` the materialised
        // events would carry (the bit-exact timestamp contract).
        for i in 0..self.scratch.len() {
            let addr = usize::from(self.scratch.addrs()[i]);
            if let Some(r) = self.recon.get_mut(addr) {
                r.push_coded(
                    self.scratch.ticks()[i] as f64 * period,
                    self.scratch.code(i),
                );
            }
        }
    }

    /// Moves newly determined samples into the rings and the sink.
    fn emit(&mut self) {
        for (ch, r) in self.recon.iter_mut().enumerate() {
            self.emit_scratch.clear();
            r.drain_into(&mut self.emit_scratch);
            if self.emit_scratch.is_empty() {
                continue;
            }
            self.rings[ch].push_slice(&self.emit_scratch);
            if let Some(sink) = &mut self.sink {
                sink.on_force(ch, &self.emit_scratch);
            }
        }
    }

    /// Closes the session (transport EOF), flushing the decoder and the
    /// reconstructors, and returns the final report. The sink, when
    /// attached, sees the final deliveries and then
    /// [`on_close`](SessionSink::on_close).
    pub fn finish(mut self) -> SessionReport {
        self.decoder.finish();
        self.scratch.clear();
        self.decoder.drain_batch(&mut self.scratch);
        self.absorb_scratch();
        let duration = self
            .decoder
            .session()
            .map_or(0.0, |h| h.duration_s)
            .max(0.0);
        for r in &mut self.recon {
            r.finish(duration);
        }
        self.emit();
        let absorbed = self.scratch.len();
        self.sync_obs(absorbed);
        if let Some(obs) = &self.obs {
            if obs.retire_on_finish_set() {
                obs.retire();
            }
        }
        let report = SessionReport {
            header: self.decoder.session().copied(),
            stats: self.decoder.stats(),
            force_tail: self.rings.iter().map(ForceRing::to_vec).collect(),
            force_emitted: self.rings.iter().map(ForceRing::total).collect(),
        };
        if let Some(sink) = &mut self.sink {
            sink.on_close(&report);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Packetizer;
    use datc_core::event::EventStream;
    use datc_core::Event;
    use datc_rx::reconstruct::{Reconstructor, ThresholdTrackReconstructor};
    use datc_rx::windowing::sliding_rate;

    fn test_events(header: &SessionHeader, n: u64) -> Vec<AddressedEvent> {
        (0..n)
            .map(|i| AddressedEvent {
                channel: (i % u64::from(header.n_channels)) as u8,
                event: Event::at_tick(i * 23, header.tick_period_s, Some((i % 16) as u8)),
            })
            .collect()
    }

    fn demux(events: &[AddressedEvent], header: &SessionHeader) -> Vec<EventStream> {
        datc_uwb::aer::demux(
            events,
            usize::from(header.n_channels),
            header.tick_rate_hz,
            header.duration_s,
        )
    }

    #[test]
    fn lossless_session_matches_batch_reconstruction_bit_exactly() {
        let header = SessionHeader::new(1, 3, 2000.0, 5.0);
        let events = test_events(&header, 400);
        let wire = crate::packet::encode_session(header, &events);

        let mut rx = SessionRx::new(SessionRxConfig::default());
        for chunk in wire.chunks(64) {
            rx.push_bytes(chunk);
        }
        let report = rx.finish();
        assert_eq!(report.stats.events_lost, 0);

        // per-channel batch reference over the demuxed stream
        for (ch, stream) in demux(&events, &header).iter().enumerate() {
            let batch = sliding_rate(stream, 0.25, 100.0);
            assert_eq!(report.force_tail[ch], batch.samples(), "channel {ch}");
        }
    }

    #[test]
    fn threshold_track_session_matches_batch_bit_exactly() {
        let header = SessionHeader::new(4, 2, 2000.0, 4.0);
        let events = test_events(&header, 350);
        let wire = crate::packet::encode_session(header, &events);

        let mut rx = SessionRx::new(SessionRxConfig {
            recon: OnlineReconSelect::paper_threshold_track(),
            ..SessionRxConfig::default()
        });
        for chunk in wire.chunks(97) {
            rx.push_bytes(chunk);
        }
        let report = rx.finish();
        assert_eq!(report.stats.events_lost, 0);

        for (ch, stream) in demux(&events, &header).iter().enumerate() {
            let batch = ThresholdTrackReconstructor::paper().reconstruct(stream, 100.0);
            assert_eq!(report.force_tail[ch], batch.samples(), "channel {ch}");
        }
    }

    #[test]
    fn bounded_force_window_keeps_the_tail_and_exact_totals() {
        let header = SessionHeader::new(9, 2, 2000.0, 6.0);
        let events = test_events(&header, 300);
        let wire = crate::packet::encode_session(header, &events);

        let bounded = SessionRxConfig {
            force_window: Some(50),
            ..SessionRxConfig::default()
        };
        let mut rx = SessionRx::new(bounded);
        for chunk in wire.chunks(128) {
            rx.push_bytes(chunk);
        }
        let report = rx.finish();

        for (ch, stream) in demux(&events, &header).iter().enumerate() {
            let batch = sliding_rate(stream, 0.25, 100.0);
            let full = batch.samples();
            assert_eq!(report.force_emitted[ch], full.len(), "channel {ch}");
            assert_eq!(report.force_tail[ch].len(), 50);
            assert_eq!(
                report.force_tail[ch],
                full[full.len() - 50..].to_vec(),
                "tail is the newest 50 samples, channel {ch}"
            );
        }
    }

    #[test]
    fn sink_receives_every_event_and_sample_exactly_once() {
        use crate::sink::{capture_store, MemorySink};

        let header = SessionHeader::new(12, 3, 2000.0, 3.0);
        let events = test_events(&header, 240);
        let wire = crate::packet::encode_session(header, &events);

        let store = capture_store();
        let mut rx = SessionRx::new(SessionRxConfig {
            force_window: Some(10), // the ring is bounded…
            ..SessionRxConfig::default()
        })
        .with_sink(Box::new(MemorySink::new(store.clone())));
        for chunk in wire.chunks(33) {
            rx.push_bytes(chunk);
        }
        let report = rx.finish();

        let captures = store.lock().unwrap();
        assert_eq!(captures.len(), 1);
        let cap = &captures[0];
        assert_eq!(cap.session_id(), 12);
        assert_eq!(cap.events, events, "sink saw the exact event stream");
        // …but the sink still saw the *full* trace, bit-exact
        for (ch, stream) in demux(&events, &header).iter().enumerate() {
            let batch = sliding_rate(stream, 0.25, 100.0);
            assert_eq!(cap.force[ch], batch.samples(), "channel {ch}");
        }
        assert_eq!(cap.report.stats.events_decoded, report.stats.events_decoded);
    }

    #[test]
    fn lossy_session_still_produces_full_finite_traces() {
        let header = SessionHeader::new(2, 2, 2000.0, 4.0);
        let events = test_events(&header, 300);
        let mut tx = Packetizer::new(header).with_events_per_frame(16);
        let mut frames = vec![tx.hello()];
        frames.extend(tx.data_frames(&events));
        frames.push(tx.bye());

        let mut rx = SessionRx::new(SessionRxConfig::default());
        for (i, f) in frames.iter().enumerate() {
            if i % 5 == 2 && i > 0 && i < frames.len() - 1 {
                continue; // drop every fifth DATA frame
            }
            rx.push_bytes(f);
        }
        let report = rx.finish();
        assert!(report.stats.events_lost > 0);
        assert!(report.force_is_finite());
        for trace in &report.force_tail {
            assert_eq!(trace.len(), 400, "full 4 s at 100 Hz despite loss");
        }
    }

    #[test]
    fn feedback_frames_follow_the_cadence_and_carry_the_books() {
        use crate::frame::{parse_frame, FrameType, ParseOutcome};
        use crate::packet::FeedbackSummary;
        use std::time::Duration;

        let header = SessionHeader::new(5, 2, 2000.0, 2.0);
        let events = test_events(&header, 100);
        let mut tx = Packetizer::new(header).with_events_per_frame(20);

        let t0 = Instant::now();
        let mut rx = SessionRx::new(SessionRxConfig {
            feedback_every: Some(Duration::ZERO),
            ..SessionRxConfig::default()
        });
        assert!(rx.feedback_due(0, t0).is_none(), "no HELLO, no nonce yet");
        rx.push_bytes(&tx.hello());
        for f in &tx.data_frames(&events) {
            rx.push_bytes(f);
        }
        let frame = rx
            .feedback_due(42, t0)
            .expect("due immediately after HELLO");
        let ParseOutcome::Frame { frame, .. } = parse_frame(&frame) else {
            panic!("feedback_due produced an unparseable frame");
        };
        assert_eq!(frame.ftype, FrameType::Feedback);
        let fb = FeedbackSummary::decode(frame.payload).expect("payload decodes");
        assert_eq!(fb.nonce, header.nonce());
        assert_eq!(fb.next_index, 100);
        assert_eq!(fb.events_lost, 0);
        assert_eq!(fb.pressure, 42);

        // `None` disables production entirely (the cadence itself is
        // pinned by the test below)
        let mut off = SessionRx::new(SessionRxConfig {
            feedback_every: None,
            ..SessionRxConfig::default()
        });
        off.push_bytes(&tx.hello());
        assert!(off.feedback_due(0, t0).is_none());
    }

    #[test]
    fn feedback_cadence_boundary_runs_on_the_passed_in_clock() {
        use std::time::Duration;

        // No sleep anywhere: the clock is an argument, so the boundary
        // is pinned to the nanosecond.
        let every = Duration::from_millis(50);
        let header = SessionHeader::new(6, 1, 2000.0, 1.0);
        let mut rx = SessionRx::new(SessionRxConfig {
            feedback_every: Some(every),
            ..SessionRxConfig::default()
        });
        rx.push_bytes(&Packetizer::new(header).hello());
        let t0 = Instant::now();
        assert!(rx.feedback_due(0, t0).is_some(), "due at t0");
        let just_short = t0 + every - Duration::from_nanos(1);
        assert!(
            rx.feedback_due(0, just_short).is_none(),
            "not due 1 ns early"
        );
        assert!(
            rx.feedback_due(0, t0 + every).is_some(),
            "due at t0 + every"
        );
        // the cadence restarts from the report just produced
        assert!(rx.feedback_due(0, t0 + every).is_none());
        assert!(rx.feedback_due(0, t0 + 2 * every).is_some());
    }

    #[test]
    fn headerless_stream_yields_an_empty_report() {
        let rx = SessionRx::new(SessionRxConfig::default());
        let report = rx.finish();
        assert!(report.header.is_none());
        assert_eq!(report.force_samples(), 0);
        assert!(report.force_is_finite());
    }
}
