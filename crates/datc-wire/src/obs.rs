//! Wire-layer instrumentation: the stable metric names and the sync
//! helper that binds decoders and receive sessions to a
//! [`datc_obs::Registry`].
//!
//! The convention throughout is **sync, don't count**: the hot paths
//! keep their plain `u64` tallies (the decoder's books) and an obs
//! helper publishes them into the registry with [`Counter::store`] at
//! natural batch boundaries — one sync per socket read or per frame
//! batch, a handful of relaxed stores each. Even the session latency
//! histogram is batched: release batches leave the reorder buffer
//! time-ordered, so [`SessionObs::observe_latency_batch`] finds each
//! log-bucket boundary by binary search (`O(buckets · log n)` per
//! batch) instead of paying a divide and three `fetch_add`s per event —
//! and only when a [`SessionObs`] is attached; an uninstrumented
//! session pays nothing.
//!
//! ## Metric names
//!
//! | name | kind | labels | meaning |
//! |---|---|---|---|
//! | `datc_hub_sessions_started_total` | counter | — | sessions the hubs started serving |
//! | `datc_hub_sessions_finished_total` | counter | — | sessions that landed in the table |
//! | `datc_hub_sessions_resumed_total` | counter | — | reconnects that adopted a parked session |
//! | `datc_hub_sessions_shed_total` | counter | — | connections/peers turned away at the cap |
//! | `datc_hub_sessions_evicted_total` | counter | — | idle/stalled sessions force-retired |
//! | `datc_hub_sessions_quarantined_total` | counter | — | sessions over the framing-garbage budget |
//! | `datc_hub_foreign_frames_total` | counter | — | foreign-nonce frames over finished sessions |
//! | `datc_hub_decode_errors_total` | counter | — | CRC + malformed + orphan over finished sessions |
//! | `datc_hub_events_decoded_total` | counter | — | events decoded over finished sessions |
//! | `datc_hub_events_lost_total` | counter | — | events lost over finished sessions |
//! | `datc_hub_sessions_in_flight` | gauge | — | started − finished, updated live |
//! | `datc_rx_frames_total` | counter | `session` | valid frames accepted |
//! | `datc_rx_duplicate_frames_total` | counter | `session` | duplicate DATA frames dropped |
//! | `datc_rx_crc_failures_total` | counter | `session` | frame CRC failures |
//! | `datc_rx_resync_bytes_total` | counter | `session` | bytes skipped resynchronising |
//! | `datc_rx_malformed_frames_total` | counter | `session` | undecodable payloads |
//! | `datc_rx_orphan_frames_total` | counter | `session` | frames before any HELLO |
//! | `datc_rx_foreign_frames_total` | counter | `session` | foreign-nonce DATA-V2 frames |
//! | `datc_rx_events_decoded_total` | counter | `session` | events delivered in time order |
//! | `datc_rx_events_lost_total` | counter | `session` | events booked as lost |
//! | `datc_rx_gaps_total` | counter | `session` | distinct gap episodes |
//! | `datc_rx_parked_shed_events_total` | counter | `session` | parked events force-flushed at the byte cap |
//! | `datc_rx_reorder_depth` | gauge | `session` | events parked in the reorder buffer |
//! | `datc_session_force_ring_bytes` | gauge | `session` | bytes retained in the force rings |
//! | `datc_session_event_rate_ewma` | gauge | `session` | smoothed event rate, events/s (session time) |
//! | `datc_session_latency_ticks` | histogram | `session` | ingest→force-release latency, clock ticks |
//! | `datc_flow_feedback_tx_total` | counter | `session` | FEEDBACK frames the receiver wrote back |
//!
//! The tick-domain latency histogram is **deterministic**: latencies
//! are computed from event timestamps and the decoder watermark (both
//! functions of the byte stream alone), and the histogram's integer
//! bucket counts make its snapshot bit-reproducible across reruns of
//! the same stream.

use crate::decode::WireCounters;
use datc_obs::{Counter, Gauge, Histogram, Registry};

/// Smoothing factor for the per-session event-rate EWMA gauge.
const EVENT_RATE_ALPHA: f64 = 0.2;

/// Label key carried by every per-session metric.
pub const SESSION_LABEL: &str = "session";

macro_rules! names {
    ($($(#[$doc:meta])* $konst:ident = $name:literal;)*) => {
        $($(#[$doc])* pub const $konst: &str = $name;)*
    };
}

names! {
    /// Hub counter: sessions started (see [`HubHealth::sessions_started`](crate::gateway::HubHealth::sessions_started)).
    HUB_SESSIONS_STARTED = "datc_hub_sessions_started_total";
    /// Hub counter: sessions finished into the table.
    HUB_SESSIONS_FINISHED = "datc_hub_sessions_finished_total";
    /// Hub counter: reconnects that adopted a parked session.
    HUB_SESSIONS_RESUMED = "datc_hub_sessions_resumed_total";
    /// Hub counter: connections/peers shed at the session cap.
    HUB_SESSIONS_SHED = "datc_hub_sessions_shed_total";
    /// Hub counter: sessions force-retired with open books.
    HUB_SESSIONS_EVICTED = "datc_hub_sessions_evicted_total";
    /// Hub counter: sessions quarantined over the garbage budget.
    HUB_SESSIONS_QUARANTINED = "datc_hub_sessions_quarantined_total";
    /// Hub counter: foreign-nonce frames over finished sessions.
    HUB_FOREIGN_FRAMES = "datc_hub_foreign_frames_total";
    /// Hub counter: CRC + malformed + orphan frames over finished sessions.
    HUB_DECODE_ERRORS = "datc_hub_decode_errors_total";
    /// Hub counter: events decoded over finished sessions.
    HUB_EVENTS_DECODED = "datc_hub_events_decoded_total";
    /// Hub counter: events lost over finished sessions.
    HUB_EVENTS_LOST = "datc_hub_events_lost_total";
    /// Hub gauge: sessions currently in flight (started − finished).
    HUB_SESSIONS_IN_FLIGHT = "datc_hub_sessions_in_flight";
    /// Per-session counter: valid frames accepted.
    RX_FRAMES = "datc_rx_frames_total";
    /// Per-session counter: duplicate DATA frames dropped.
    RX_DUPLICATE_FRAMES = "datc_rx_duplicate_frames_total";
    /// Per-session counter: frame CRC failures.
    RX_CRC_FAILURES = "datc_rx_crc_failures_total";
    /// Per-session counter: bytes skipped hunting for a sync word.
    RX_RESYNC_BYTES = "datc_rx_resync_bytes_total";
    /// Per-session counter: frames with undecodable payloads.
    RX_MALFORMED_FRAMES = "datc_rx_malformed_frames_total";
    /// Per-session counter: DATA/BYE frames before any HELLO.
    RX_ORPHAN_FRAMES = "datc_rx_orphan_frames_total";
    /// Per-session counter: foreign-nonce DATA-V2 frames rejected.
    RX_FOREIGN_FRAMES = "datc_rx_foreign_frames_total";
    /// Per-session counter: events delivered in time order.
    RX_EVENTS_DECODED = "datc_rx_events_decoded_total";
    /// Per-session counter: events booked as lost.
    RX_EVENTS_LOST = "datc_rx_events_lost_total";
    /// Per-session counter: distinct gap episodes declared.
    RX_GAPS = "datc_rx_gaps_total";
    /// Per-session counter: parked events force-flushed when the
    /// parked-bytes cap overflowed.
    RX_PARKED_SHED = "datc_rx_parked_shed_events_total";
    /// Per-session gauge: events parked in the reorder buffer.
    RX_REORDER_DEPTH = "datc_rx_reorder_depth";
    /// Per-session gauge: bytes retained in the bounded force rings.
    SESSION_FORCE_RING_BYTES = "datc_session_force_ring_bytes";
    /// Per-session gauge: smoothed event rate in events per second of
    /// session time.
    SESSION_EVENT_RATE_EWMA = "datc_session_event_rate_ewma";
    /// Per-session histogram: ingest→force-release latency in clock
    /// ticks (deterministic; bit-reproducible per byte stream).
    SESSION_LATENCY_TICKS = "datc_session_latency_ticks";
    /// Per-session counter: FEEDBACK frames the receive session wrote
    /// back to its sender.
    FLOW_FEEDBACK_TX = "datc_flow_feedback_tx_total";
}

/// Every name in the per-session receive family — what
/// [`SessionObs::retire`] removes.
const RX_SERIES: [&str; 16] = [
    RX_FRAMES,
    RX_DUPLICATE_FRAMES,
    RX_CRC_FAILURES,
    RX_RESYNC_BYTES,
    RX_MALFORMED_FRAMES,
    RX_ORPHAN_FRAMES,
    RX_FOREIGN_FRAMES,
    RX_EVENTS_DECODED,
    RX_EVENTS_LOST,
    RX_GAPS,
    RX_PARKED_SHED,
    FLOW_FEEDBACK_TX,
    RX_REORDER_DEPTH,
    SESSION_FORCE_RING_BYTES,
    SESSION_EVENT_RATE_EWMA,
    SESSION_LATENCY_TICKS,
];

/// Per-session receive instrumentation: registry handles for one
/// session's decode books, pipeline gauges and latency histogram,
/// all labeled `session="<label>"`.
///
/// Attach one to a [`SessionRx`](crate::session::SessionRx) via
/// [`with_metrics`](crate::session::SessionRx::with_metrics) and the
/// session keeps it synced; or drive [`sync`](SessionObs::sync) /
/// [`observe_latency_ticks`](SessionObs::observe_latency_ticks)
/// yourself around a bare [`StreamDecoder`](crate::decode::StreamDecoder).
///
/// Handles are `Arc`-backed: clones publish into the *same* registered
/// series, so one registration can be reused across short-lived
/// sessions that should aggregate under one label.
///
/// # Example
///
/// ```
/// use datc_obs::Registry;
/// use datc_wire::obs::SessionObs;
/// use datc_wire::packet::{encode_session, SessionHeader};
/// use datc_wire::session::{SessionRx, SessionRxConfig};
///
/// let reg = Registry::new();
/// let mut rx = SessionRx::new(SessionRxConfig::default())
///     .with_metrics(SessionObs::register(&reg, "7"));
/// rx.push_bytes(&encode_session(SessionHeader::new(7, 1, 2000.0, 1.0), &[]));
/// rx.finish();
/// assert!(datc_obs::render_prometheus(&reg)
///     .contains("datc_rx_frames_total{session=\"7\"}"));
/// ```
#[derive(Clone, Debug)]
pub struct SessionObs {
    registry: Registry,
    label: String,
    frames: Counter,
    duplicate_frames: Counter,
    crc_failures: Counter,
    resync_bytes: Counter,
    malformed_frames: Counter,
    orphan_frames: Counter,
    foreign_frames: Counter,
    events_decoded: Counter,
    events_lost: Counter,
    gaps: Counter,
    parked_shed: Counter,
    feedback_tx: Counter,
    reorder_depth: Gauge,
    force_ring_bytes: Gauge,
    event_rate: Gauge,
    latency_ticks: Histogram,
    retire_on_finish: bool,
    ewma: Option<f64>,
    last_watermark_s: f64,
}

impl SessionObs {
    /// Registers the per-session series for `session` (the label
    /// value — a connection id or session id rendered as text).
    pub fn register(registry: &Registry, session: &str) -> SessionObs {
        let l = [(SESSION_LABEL, session)];
        SessionObs {
            frames: registry.counter_with(RX_FRAMES, &l),
            duplicate_frames: registry.counter_with(RX_DUPLICATE_FRAMES, &l),
            crc_failures: registry.counter_with(RX_CRC_FAILURES, &l),
            resync_bytes: registry.counter_with(RX_RESYNC_BYTES, &l),
            malformed_frames: registry.counter_with(RX_MALFORMED_FRAMES, &l),
            orphan_frames: registry.counter_with(RX_ORPHAN_FRAMES, &l),
            foreign_frames: registry.counter_with(RX_FOREIGN_FRAMES, &l),
            events_decoded: registry.counter_with(RX_EVENTS_DECODED, &l),
            events_lost: registry.counter_with(RX_EVENTS_LOST, &l),
            gaps: registry.counter_with(RX_GAPS, &l),
            parked_shed: registry.counter_with(RX_PARKED_SHED, &l),
            feedback_tx: registry.counter_with(FLOW_FEEDBACK_TX, &l),
            reorder_depth: registry.gauge_with(RX_REORDER_DEPTH, &l),
            force_ring_bytes: registry.gauge_with(SESSION_FORCE_RING_BYTES, &l),
            event_rate: registry.gauge_with(SESSION_EVENT_RATE_EWMA, &l),
            latency_ticks: registry.histogram_with(SESSION_LATENCY_TICKS, &l),
            retire_on_finish: false,
            ewma: None,
            last_watermark_s: 0.0,
            registry: registry.clone(),
            label: session.to_owned(),
        }
    }

    /// Makes [`SessionRx::finish`](crate::session::SessionRx::finish)
    /// retire this session's series after the final sync — how the
    /// hubs keep the registry bounded while sessions churn (the
    /// lifetime totals survive in the `datc_hub_*` roll-ups).
    pub fn with_retire_on_finish(mut self) -> SessionObs {
        self.retire_on_finish = true;
        self
    }

    pub(crate) fn retire_on_finish_set(&self) -> bool {
        self.retire_on_finish
    }

    /// Publishes a decoder's flat counters (a handful of relaxed
    /// stores — call once per read).
    pub fn sync(&self, c: &WireCounters) {
        self.frames.store(c.frames);
        self.duplicate_frames.store(c.duplicate_frames);
        self.crc_failures.store(c.crc_failures);
        self.resync_bytes.store(c.resync_bytes);
        self.malformed_frames.store(c.malformed_frames);
        self.orphan_frames.store(c.orphan_frames);
        self.foreign_frames.store(c.foreign_frames);
        self.events_decoded.store(c.events_decoded);
        self.events_lost.store(c.events_lost);
        self.gaps.store(c.gaps);
        self.parked_shed.store(c.parked_shed_events);
        self.reorder_depth.set(c.pending_events as f64);
    }

    /// Publishes the session's lifetime FEEDBACK-frame tally (the
    /// session calls this as each report goes out).
    pub fn set_feedback_tx(&self, frames: u64) {
        self.feedback_tx.store(frames);
    }

    /// Observes one event's ingest→force-release latency in clock
    /// ticks.
    pub fn observe_latency_ticks(&self, ticks: u64) {
        self.latency_ticks.observe(ticks);
    }

    /// Observes the ingest→release latency of a whole time-ordered
    /// batch of released events against `watermark_s`, in ticks of
    /// `tick_period_s` — without per-event bucketing work. The batch is
    /// the struct-of-arrays tick column; each event's timestamp is
    /// `tick * tick_period_s`, exactly the `time_s` a materialised event
    /// would carry.
    ///
    /// Released batches are time-ordered ascending, so the tick
    /// latency `round((watermark − t) / period)` is monotone
    /// non-increasing across the batch and every log-scale bucket
    /// boundary is a partition point found by binary search: the
    /// per-batch cost is O(buckets × log n) comparisons plus one
    /// vectorizable pass for the sum, instead of a divide, a round and
    /// three shared-cache atomics per event.
    ///
    /// The histogram `sum` is the truncated total of the *un-rounded*
    /// tick latencies (deterministic, and at least as accurate as
    /// summing per-event roundings).
    pub fn observe_latency_batch(&self, ticks: &[u64], watermark_s: f64, tick_period_s: f64) {
        if ticks.is_empty() || tick_period_s <= 0.0 {
            return;
        }
        debug_assert!(
            ticks.windows(2).all(|w| w[0] <= w[1]),
            "latency batches must be time-ordered (decoder release order)"
        );
        let inv = 1.0 / tick_period_s;
        let time = |tick: u64| tick as f64 * tick_period_s;
        // Pre-truncation latency; monotone non-increasing in t. For an
        // integer threshold V >= 1, trunc(x) >= V ⇔ x >= V, so the
        // prefix with x >= 2^k is exactly the events in buckets > k.
        let x = |t: f64| (watermark_s - t).max(0.0) * inv + 0.5;
        let mut counts = [0u64; datc_obs::BUCKETS];
        let n = ticks.len();
        // ge = events with latency >= 2^0, always a prefix
        let mut prev = ticks.partition_point(|&tk| x(time(tk)) >= 1.0);
        counts[0] = (n - prev) as u64;
        let mut k = 0usize;
        while prev > 0 && k < 63 {
            let threshold = (2u64 << k) as f64; // 2^(k+1)
            let next = ticks[..prev].partition_point(|&tk| x(time(tk)) >= threshold);
            counts[k + 1] = (prev - next) as u64;
            prev = next;
            k += 1;
        }
        // anything still >= 2^63 lands in the top bucket
        counts[datc_obs::BUCKETS - 1] += prev as u64;
        // Time order again: when the newest event is at or before the
        // watermark every wait is non-negative, so the batch total is
        // n·w − Σt — and Σt is a bare sum, four accumulators to break
        // the FP add latency chain. The clamped fallback only runs on
        // out-of-range batches.
        let newest = time(ticks[n - 1]);
        let total_wait_s = if newest <= watermark_s {
            let mut acc = [0.0f64; 4];
            let chunks = ticks.chunks_exact(4);
            let remainder = chunks.remainder();
            for c in chunks {
                for (a, &tk) in acc.iter_mut().zip(c) {
                    *a += time(tk);
                }
            }
            let mut t_sum = acc[0] + acc[1] + acc[2] + acc[3];
            for &tk in remainder {
                t_sum += time(tk);
            }
            n as f64 * watermark_s - t_sum
        } else {
            ticks
                .iter()
                .map(|&tk| (watermark_s - time(tk)).max(0.0))
                .sum()
        };
        self.latency_ticks
            .observe_bucketed(&counts, (total_wait_s * inv) as u64);
    }

    /// Sets the force-ring residency gauge.
    pub fn set_force_ring_bytes(&self, bytes: u64) {
        self.force_ring_bytes.set(bytes as f64);
    }

    /// Feeds the event-rate EWMA: `absorbed` events were released with
    /// the decoder watermark now at `watermark_s` (session time). The
    /// instantaneous rate over the watermark delta is folded in with
    /// smoothing factor 0.2; deterministic in the byte stream.
    pub fn note_released(&mut self, absorbed: u64, watermark_s: f64) {
        let dt = watermark_s - self.last_watermark_s;
        if absorbed == 0 || dt <= 0.0 {
            return;
        }
        let inst = absorbed as f64 / dt;
        let next = match self.ewma {
            None => inst,
            Some(prev) => EVENT_RATE_ALPHA * inst + (1.0 - EVENT_RATE_ALPHA) * prev,
        };
        self.ewma = Some(next);
        self.last_watermark_s = watermark_s;
        self.event_rate.set(next);
    }

    /// Removes this session's series from the registry (lifetime
    /// totals live on in the hub roll-ups).
    pub fn retire(&self) {
        let l = [(SESSION_LABEL, self.label.as_str())];
        for name in RX_SERIES {
            self.registry.remove(name, &l);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::SessionHeader;

    #[test]
    fn sync_publishes_decoder_counters_verbatim() {
        use crate::decode::StreamDecoder;
        use crate::packet::encode_session;
        use datc_obs::MetricValue;

        let reg = Registry::new();
        let obs = SessionObs::register(&reg, "9");
        let mut rx = StreamDecoder::new();
        let mut wire = encode_session(SessionHeader::new(9, 1, 2000.0, 1.0), &[]);
        wire.extend_from_slice(b"garbage bytes that force a resync");
        rx.push_bytes(&wire);
        obs.sync(&rx.counters());

        let c = rx.counters();
        let snap = reg.snapshot();
        let get = |name: &str| {
            snap.iter()
                .find(|(n, _, _)| n == name)
                .map(|(_, _, v)| match v {
                    MetricValue::Counter(v) => *v,
                    _ => panic!("expected counter"),
                })
                .expect("metric registered")
        };
        assert_eq!(get(RX_FRAMES), c.frames);
        assert_eq!(get(RX_RESYNC_BYTES), c.resync_bytes);
        assert!(c.resync_bytes > 0, "the garbage tail was skipped");
    }

    #[test]
    fn sorted_latency_batches_match_per_event_observation() {
        // Time-ordered release batches with ties, zero-latency tails
        // and wide dynamic range: the binary-searched bucketing must
        // agree bucket-for-bucket with the per-event reference — also
        // when the watermark lags the newest event (the clamped path).
        let period = 1.0 / 2000.0;
        let tick_runs: Vec<Vec<u64>> = vec![
            vec![],
            vec![1000],
            vec![200, 400, 400, 600, 1000, 1000],
            (0..500).map(|i| i * 13 / 5).collect(),
            (0..777).map(|i| i * i / 3).collect(),
        ];
        for ticks in tick_runs {
            let newest = ticks.last().map_or(0.0, |&tk| tk as f64 * period);
            for watermark in [newest + 0.25, newest * 0.5] {
                let reg = Registry::new();
                let fast = SessionObs::register(&reg, "fast");
                fast.observe_latency_batch(&ticks, watermark, period);
                let reference = SessionObs::register(&reg, "ref");
                for &tk in &ticks {
                    let wait_s = (watermark - tk as f64 * period).max(0.0);
                    reference.observe_latency_ticks((wait_s / period).round() as u64);
                }
                let what = format!("{} events, watermark {watermark}", ticks.len());
                assert_eq!(
                    fast.latency_ticks.snapshot().buckets,
                    reference.latency_ticks.snapshot().buckets,
                    "bucketing must match per-event observation ({what})"
                );
                assert_eq!(fast.latency_ticks.count(), reference.latency_ticks.count());
                // sums use the un-rounded total: within one tick per event
                let (a, b) = (fast.latency_ticks.sum(), reference.latency_ticks.sum());
                assert!(a.abs_diff(b) <= ticks.len() as u64, "sum slack ({what})");
            }
        }
    }

    #[test]
    fn ewma_converges_on_a_steady_rate() {
        let reg = Registry::new();
        let mut obs = SessionObs::register(&reg, "2");
        // 100 events per 0.1 s of session time = 1000 events/s.
        for i in 1..=50u64 {
            obs.note_released(100, i as f64 * 0.1);
        }
        let snap = reg.snapshot();
        let (_, _, v) = snap
            .iter()
            .find(|(n, _, _)| n == SESSION_EVENT_RATE_EWMA)
            .expect("gauge registered");
        match v {
            datc_obs::MetricValue::Gauge(g) => {
                assert!((g - 1000.0).abs() < 1e-6, "steady rate converges, got {g}")
            }
            _ => panic!("expected gauge"),
        }
    }

    #[test]
    fn retire_removes_every_per_session_series() {
        let reg = Registry::new();
        let obs = SessionObs::register(&reg, "5");
        assert!(!reg.is_empty());
        obs.retire();
        assert!(reg.is_empty(), "all series retired: {:?}", reg.snapshot());
    }

    #[test]
    fn two_sessions_share_names_but_not_series() {
        let reg = Registry::new();
        let a = SessionObs::register(&reg, "1");
        let b = SessionObs::register(&reg, "2");
        a.sync(&WireCounters {
            frames: 3,
            ..WireCounters::default()
        });
        b.sync(&WireCounters {
            frames: 8,
            ..WireCounters::default()
        });
        let text = datc_obs::render_prometheus(&reg);
        assert!(text.contains("datc_rx_frames_total{session=\"1\"} 3"));
        assert!(text.contains("datc_rx_frames_total{session=\"2\"} 8"));
    }
}
