//! Sender-side flow control: AIMD adaptive pacing and bounded loss
//! repair, driven by receiver FEEDBACK frames.
//!
//! The transport is loss-*tolerant* by design, but tolerance alone
//! leaves the rate loop open: a sender paced by a static
//! [`UdpPacing`] keeps firing into a congested hub, and an event lost
//! to a transient drop stays lost even though the sender still holds
//! the bytes. This module closes both loops with the receiver's own
//! books (the [`FeedbackSummary`] snapshots the UDP hub writes back on
//! the reverse path):
//!
//! * [`AimdController`] — classic additive-increase /
//!   multiplicative-decrease: every clean feedback (no new loss, hub
//!   pressure below threshold) adds a fixed rate increment; any
//!   feedback reporting fresh loss or high hub pressure multiplies the
//!   rate down. The rate is clamped to a validated floor/ceiling band
//!   and mapped onto [`UdpPacing`] burst scheduling.
//! * [`ReplayBuffer`] — a bounded byte-budgeted window of recently
//!   sent DATA frames, keyed by their cumulative event-index span.
//!   When feedback lists a hole that is still inside the window (a
//!   report names every missing span up to the end of the receiver's
//!   parked data, [`FeedbackSummary::holes`]), the original frames are
//!   retransmitted **byte-identical** — the receiver's existing
//!   duplicate/overlap dedup keeps the books exact no matter how often
//!   a span arrives.
//! * [`FlowSession`] — the per-session state machine senders embed:
//!   it filters foreign-nonce feedback, runs the AIMD step, decides
//!   repairs (every frame overlapping a listed hole is resent once, and
//!   again only when the receiver's release cursor visibly stalls on
//!   it; while draining, the unconfirmed tail too), and tallies
//!   [`ClientReport::repairs`](crate::gateway::ClientReport::repairs).
//!
//! One report therefore repairs every hole it lists, so a lossy
//! session closes in about one feedback round trip instead of one
//! round per lost frame.
//!
//! Retransmissions are *not* re-subjected to a sender's
//! [`ChaosLink`](crate::chaos::ChaosLink): the chaos fate schedule is
//! pure in `(seed, unit)` precisely so a logged seed replays the fault
//! plan bit-for-bit, and routing repairs through the link would let
//! the repair loop perturb its own fault schedule. The link models the
//! hostile forward path; repairs ride the real socket.

use crate::packet::FeedbackSummary;
use crate::udp::UdpPacing;
use std::collections::VecDeque;
use std::ops::Range;
use std::time::Duration;

/// AIMD rate-controller parameters. Validated by
/// [`AimdController::new`]; the defaults span the default
/// [`UdpPacing`] (32-datagram bursts at 160 k datagrams/s) down to a
/// 250 datagrams/s floor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AimdConfig {
    /// Lowest rate the controller will pace to, datagrams/s. A floor
    /// keeps a pressured sender *slow*, not silent — the session stays
    /// alive and the books stay closable.
    pub floor_datagrams_per_s: f64,
    /// Highest rate the controller will pace to, datagrams/s. Also the
    /// starting rate (optimistic start, decrease on evidence).
    pub ceiling_datagrams_per_s: f64,
    /// Rate added per clean feedback, datagrams/s (additive increase).
    pub additive_increase_per_s: f64,
    /// Factor applied on congestion evidence, in `(0, 1)`
    /// (multiplicative decrease).
    pub decrease_factor: f64,
    /// Hub pressure level (`FeedbackSummary::pressure`) at or above
    /// which a feedback counts as congestion even without loss.
    pub pressure_threshold: u8,
    /// Datagrams per pacing burst (the `UdpPacing::burst` the
    /// controller emits; clamped to at least 1).
    pub burst: u32,
}

impl Default for AimdConfig {
    fn default() -> Self {
        AimdConfig {
            floor_datagrams_per_s: 250.0,
            ceiling_datagrams_per_s: 160_000.0,
            additive_increase_per_s: 1_000.0,
            decrease_factor: 0.5,
            pressure_threshold: 192,
            burst: 32,
        }
    }
}

impl AimdConfig {
    /// `Err(reason)` when any parameter is out of range — the same
    /// checks [`AimdController::new`] panics on, in a form hubs and
    /// senders can surface as `io::ErrorKind::InvalidInput` instead.
    pub fn validate(&self) -> Result<(), String> {
        let positive = |v: f64| v > 0.0 && v.is_finite();
        if !positive(self.floor_datagrams_per_s) {
            return Err("AIMD floor must be positive and finite".into());
        }
        if !positive(self.ceiling_datagrams_per_s)
            || self.ceiling_datagrams_per_s < self.floor_datagrams_per_s
        {
            return Err("AIMD ceiling must be finite and at least the floor".into());
        }
        if !positive(self.additive_increase_per_s) {
            return Err("AIMD additive increase must be positive and finite".into());
        }
        if !(self.decrease_factor > 0.0 && self.decrease_factor < 1.0) {
            return Err("AIMD decrease factor must be in (0, 1)".into());
        }
        if self.burst == 0 {
            return Err("AIMD burst must be at least 1".into());
        }
        Ok(())
    }
}

/// Additive-increase / multiplicative-decrease rate controller mapping
/// receiver feedback onto [`UdpPacing`].
///
/// # Example
///
/// ```
/// use datc_wire::flow::{AimdConfig, AimdController};
/// use datc_wire::packet::FeedbackSummary;
///
/// let mut aimd = AimdController::new(AimdConfig::default());
/// let clean = FeedbackSummary {
///     nonce: 0, next_index: 100, events_lost: 0, reorder_depth: 0, pressure: 0,
///     holes: Vec::new(),
/// };
/// let before = aimd.rate_datagrams_per_s();
/// aimd.observe(&clean); // clean: rate already at ceiling, stays there
/// assert_eq!(aimd.rate_datagrams_per_s(), before);
/// let pressured = FeedbackSummary { pressure: 255, ..clean };
/// aimd.observe(&pressured); // congestion: multiplicative decrease
/// assert!(aimd.rate_datagrams_per_s() < before);
/// ```
#[derive(Debug, Clone)]
pub struct AimdController {
    config: AimdConfig,
    rate: f64,
    seen_lost: u64,
    throttles: u64,
}

impl AimdController {
    /// Creates a controller starting at the ceiling rate.
    ///
    /// # Panics
    ///
    /// Panics when the config is invalid (non-positive or non-finite
    /// floor/ceiling, ceiling below floor, decrease factor outside
    /// `(0, 1)`, zero burst). Validate with [`AimdConfig::validate`]
    /// first to get an error instead.
    pub fn new(config: AimdConfig) -> Self {
        if let Err(why) = config.validate() {
            panic!("invalid AIMD config: {why}");
        }
        AimdController {
            config,
            rate: config.ceiling_datagrams_per_s,
            seen_lost: 0,
            throttles: 0,
        }
    }

    /// The configuration this controller runs.
    pub fn config(&self) -> &AimdConfig {
        &self.config
    }

    /// Current target rate, datagrams/s.
    pub fn rate_datagrams_per_s(&self) -> f64 {
        self.rate
    }

    /// Multiplicative decreases applied so far.
    pub fn throttles(&self) -> u64 {
        self.throttles
    }

    /// The current rate as burst pacing for
    /// [`UdpSessionSender`](crate::udp::UdpSessionSender).
    pub fn pacing(&self) -> UdpPacing {
        UdpPacing {
            burst: self.config.burst.max(1),
            inter_burst: Duration::from_secs_f64(f64::from(self.config.burst.max(1)) / self.rate),
        }
    }

    /// Runs one AIMD step on a feedback report and returns the updated
    /// pacing. Congestion evidence = cumulative loss grew since the
    /// last report, or hub pressure at/above the threshold.
    pub fn observe(&mut self, fb: &FeedbackSummary) -> UdpPacing {
        let congested =
            fb.events_lost > self.seen_lost || fb.pressure >= self.config.pressure_threshold;
        self.seen_lost = self.seen_lost.max(fb.events_lost);
        if congested {
            self.rate =
                (self.rate * self.config.decrease_factor).max(self.config.floor_datagrams_per_s);
            self.throttles += 1;
        } else {
            self.rate = (self.rate + self.config.additive_increase_per_s)
                .min(self.config.ceiling_datagrams_per_s);
        }
        self.pacing()
    }
}

/// One retransmittable DATA frame held in the [`ReplayBuffer`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayEntry {
    /// Cumulative index of the frame's first event.
    pub first_index: u64,
    /// Events the frame carries.
    pub n_events: u64,
    /// The exact framed bytes as originally sent — retransmitting
    /// byte-identical frames is what lets the receiver's dedup keep
    /// the books exact.
    pub frame: Vec<u8>,
    /// Whether the frame was retransmitted already.
    repaired: bool,
}

impl ReplayEntry {
    /// One past the cumulative index of the frame's last event.
    fn end(&self) -> u64 {
        self.first_index + self.n_events
    }
}

/// Bounded byte-budgeted window of recently sent DATA frames, oldest
/// evicted first — the repair horizon: a hole still covered here can
/// be healed, one that aged out is permanent loss.
///
/// # Example
///
/// ```
/// use datc_wire::flow::ReplayBuffer;
/// let mut replay = ReplayBuffer::new(64);
/// replay.record(0, 10, &[0xAA; 40]);
/// replay.record(10, 10, &[0xBB; 40]); // evicts the first (80 > 64)
/// assert!(replay.covering(5).is_none());
/// assert_eq!(replay.covering(12).unwrap().first_index, 10);
/// ```
#[derive(Debug, Clone)]
pub struct ReplayBuffer {
    cap_bytes: usize,
    bytes: usize,
    entries: VecDeque<ReplayEntry>,
}

impl ReplayBuffer {
    /// Creates a buffer holding at most `cap_bytes` of framed bytes.
    ///
    /// # Panics
    ///
    /// Panics when `cap_bytes` is zero.
    pub fn new(cap_bytes: usize) -> Self {
        assert!(cap_bytes > 0, "replay budget must be at least 1 byte");
        ReplayBuffer {
            cap_bytes,
            bytes: 0,
            entries: VecDeque::new(),
        }
    }

    /// Records one sent DATA frame, evicting the oldest entries until
    /// the buffer fits its budget again. Frames arrive in send order,
    /// so `first_index` only increases.
    pub fn record(&mut self, first_index: u64, n_events: u64, frame: &[u8]) {
        debug_assert!(
            self.entries.back().is_none_or(|e| e.end() <= first_index),
            "replay spans must arrive in index order"
        );
        self.bytes += frame.len();
        self.entries.push_back(ReplayEntry {
            first_index,
            n_events,
            frame: frame.to_vec(),
            repaired: false,
        });
        while self.bytes > self.cap_bytes {
            let old = self.entries.pop_front().expect("bytes > 0 implies entries");
            self.bytes -= old.frame.len();
        }
    }

    /// Position of the first entry whose span ends past `index` — a
    /// binary search, since spans are held in index order.
    fn first_ending_after(&self, index: u64) -> usize {
        self.entries.partition_point(|e| e.end() <= index)
    }

    /// The entry whose event span covers `index`, when still in the
    /// window.
    pub fn covering(&self, index: u64) -> Option<&ReplayEntry> {
        let entry = self.entries.get(self.first_ending_after(index))?;
        (entry.first_index <= index).then_some(entry)
    }

    /// The entries whose event spans overlap `span`, oldest first (none
    /// when `span` is empty).
    fn overlapping(&mut self, span: Range<u64>) -> impl Iterator<Item = &mut ReplayEntry> {
        let from = self.first_ending_after(span.start);
        self.entries
            .range_mut(from..)
            .take_while(move |e| !span.is_empty() && e.first_index < span.end)
    }

    /// Frames currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no frames are held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes currently held (≤ the construction budget).
    pub fn bytes(&self) -> usize {
        self.bytes
    }
}

/// Sender-side flow configuration: the AIMD band plus the repair
/// window and close-of-session drain budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowConfig {
    /// Rate-controller parameters.
    pub aimd: AimdConfig,
    /// Replay-window budget, bytes of framed DATA (must be non-zero).
    pub replay_bytes: usize,
    /// How long [`finish`](crate::udp::UdpSessionSender::finish) keeps
    /// pumping feedback and repairing tail holes before sending the
    /// BYE. Zero disables the drain.
    pub drain: Duration,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            aimd: AimdConfig::default(),
            replay_bytes: 256 * 1024,
            drain: Duration::from_millis(250),
        }
    }
}

impl FlowConfig {
    /// `Err(reason)` when any parameter is out of range.
    pub fn validate(&self) -> Result<(), String> {
        self.aimd.validate()?;
        if self.replay_bytes == 0 {
            return Err("replay window must be at least 1 byte".into());
        }
        Ok(())
    }
}

/// What a [`FlowSession`] decided about one feedback report: the
/// pacing to apply from now on and any frames to retransmit.
#[derive(Debug, Clone)]
pub struct FlowDecision {
    /// Updated pacing (the AIMD step's output).
    pub pacing: UdpPacing,
    /// Byte-identical DATA frames to resend, oldest hole first.
    pub repairs: Vec<Vec<u8>>,
}

/// Per-session sender flow state: AIMD + replay window + stall
/// clock. Embedded by
/// [`UdpSessionSender::with_flow`](crate::udp::UdpSessionSender::with_flow).
#[derive(Debug, Clone)]
pub struct FlowSession {
    config: FlowConfig,
    aimd: AimdController,
    replay: ReplayBuffer,
    last_feedback: Option<FeedbackSummary>,
    feedback_rx: u64,
    repairs_frames: u64,
    repairs_events: u64,
    /// The hole at the release cursor the previous feedback reported
    /// without a resend, for stall detection: a hole reported twice in
    /// a row means its repair was lost and is worth re-sending.
    last_hole: Option<u64>,
}

impl FlowSession {
    /// Creates the per-session flow state.
    ///
    /// # Panics
    ///
    /// Panics when the config is invalid (see [`FlowConfig::validate`]).
    pub fn new(config: FlowConfig) -> Self {
        if let Err(why) = config.validate() {
            panic!("invalid flow config: {why}");
        }
        FlowSession {
            config,
            aimd: AimdController::new(config.aimd),
            replay: ReplayBuffer::new(config.replay_bytes),
            last_feedback: None,
            feedback_rx: 0,
            repairs_frames: 0,
            repairs_events: 0,
            last_hole: None,
        }
    }

    /// The configuration this session runs.
    pub fn config(&self) -> &FlowConfig {
        &self.config
    }

    /// The AIMD controller (rate, throttle tally).
    pub fn aimd(&self) -> &AimdController {
        &self.aimd
    }

    /// Records one sent DATA frame into the replay window.
    pub fn record_sent(&mut self, first_index: u64, n_events: u64, frame: &[u8]) {
        self.replay.record(first_index, n_events, frame);
    }

    /// The most recent feedback accepted, if any.
    pub fn last_feedback(&self) -> Option<&FeedbackSummary> {
        self.last_feedback.as_ref()
    }

    /// Feedback reports accepted so far.
    pub fn feedback_rx(&self) -> u64 {
        self.feedback_rx
    }

    /// DATA frames retransmitted so far (what
    /// [`ClientReport::repairs`](crate::gateway::ClientReport::repairs)
    /// reports).
    pub fn repairs_frames(&self) -> u64 {
        self.repairs_frames
    }

    /// Events those retransmitted frames carry, summed.
    pub fn repairs_events(&self) -> u64 {
        self.repairs_events
    }

    /// Processes one feedback report. `nonce` is this session's — a
    /// report carrying any other nonce is ignored.
    ///
    /// Every replayed frame overlapping a listed hole is resent once; a
    /// frame at the release cursor is resent again when the cursor
    /// stalls on it (the same hole in two reports in a row with no
    /// resend in between). `events_sent` is the packetizer's cumulative
    /// count: during the close-of-session `drain` the frames past the
    /// end of the receiver's parked data (`next_index` plus the listed
    /// holes plus `reorder_depth`) up to `events_sent` are resent too,
    /// since nothing parks behind a lost tail to make it a hole.
    pub fn on_feedback(
        &mut self,
        fb: FeedbackSummary,
        nonce: u8,
        events_sent: u64,
        drain: bool,
    ) -> FlowDecision {
        if fb.nonce != nonce {
            return FlowDecision {
                pacing: self.aimd.pacing(),
                repairs: Vec::new(),
            };
        }
        self.feedback_rx += 1;
        let pacing = self.aimd.observe(&fb);
        let cursor = fb.next_index;
        let stalled = self.last_hole == Some(cursor);
        let tail = drain.then(|| {
            let listed = fb
                .holes
                .iter()
                .fold(0u64, |n, h| n.saturating_add(h.end.saturating_sub(h.start)));
            cursor
                .saturating_add(listed)
                .saturating_add(fb.reorder_depth)..events_sent
        });
        let mut repairs = Vec::new();
        let mut resent_cursor = false;
        for span in fb.holes.iter().cloned().chain(tail) {
            for entry in self.replay.overlapping(span) {
                let at_cursor = entry.first_index <= cursor && cursor < entry.end();
                if entry.repaired && !(stalled && at_cursor) {
                    continue;
                }
                entry.repaired = true;
                repairs.push(entry.frame.clone());
                self.repairs_frames += 1;
                self.repairs_events += entry.n_events;
                resent_cursor |= at_cursor;
            }
        }
        // A resend restarts the stall clock: it needs a full report
        // cycle to land before the hole persisting counts as a stall.
        let cursor_hole =
            fb.holes.first().is_some_and(|h| h.start == cursor) || (drain && cursor < events_sent);
        self.last_hole = (cursor_hole && !resent_cursor).then_some(cursor);
        self.last_feedback = Some(fb);
        FlowDecision { pacing, repairs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fb(next_index: u64, events_lost: u64, reorder_depth: u64, pressure: u8) -> FeedbackSummary {
        FeedbackSummary {
            nonce: 0x42,
            next_index,
            events_lost,
            reorder_depth,
            pressure,
            holes: Vec::new(),
        }
    }

    /// A report listing `holes` (as `(start, end)` pairs) in front of
    /// `reorder_depth` parked events.
    fn report(next_index: u64, reorder_depth: u64, holes: &[(u64, u64)]) -> FeedbackSummary {
        FeedbackSummary {
            holes: holes.iter().map(|&(a, b)| a..b).collect(),
            ..fb(next_index, 0, reorder_depth, 0)
        }
    }

    /// A session holding `n` sent frames of 8 events, frame `k` filled
    /// with byte `k`.
    fn sent_frames(n: u8) -> FlowSession {
        let mut flow = FlowSession::new(FlowConfig::default());
        for k in 0..n {
            flow.record_sent(u64::from(k) * 8, 8, &[k; 30]);
        }
        flow
    }

    #[test]
    #[should_panic(expected = "invalid AIMD config")]
    fn ceiling_below_floor_is_rejected_at_construction() {
        let _ = AimdController::new(AimdConfig {
            floor_datagrams_per_s: 1000.0,
            ceiling_datagrams_per_s: 100.0,
            ..AimdConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "invalid AIMD config")]
    fn non_finite_floor_is_rejected_at_construction() {
        let _ = AimdController::new(AimdConfig {
            floor_datagrams_per_s: f64::NAN,
            ..AimdConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "decrease factor")]
    fn decrease_factor_of_one_is_rejected() {
        let _ = AimdController::new(AimdConfig {
            decrease_factor: 1.0,
            ..AimdConfig::default()
        });
    }

    #[test]
    fn aimd_decreases_multiplicatively_to_the_floor_and_recovers_additively() {
        let config = AimdConfig {
            floor_datagrams_per_s: 100.0,
            ceiling_datagrams_per_s: 1600.0,
            additive_increase_per_s: 50.0,
            decrease_factor: 0.5,
            ..AimdConfig::default()
        };
        let mut aimd = AimdController::new(config);
        assert_eq!(aimd.rate_datagrams_per_s(), 1600.0, "optimistic start");

        // fresh loss every report: 1600 → 800 → 400 → 200 → 100 → 100
        for (i, expected) in [800.0, 400.0, 200.0, 100.0, 100.0].iter().enumerate() {
            aimd.observe(&fb(0, (i as u64 + 1) * 10, 0, 0));
            assert_eq!(aimd.rate_datagrams_per_s(), *expected, "step {i}");
        }
        assert_eq!(aimd.throttles(), 5);

        // stale (unchanged) loss is clean: additive recovery
        aimd.observe(&fb(100, 50, 0, 0));
        aimd.observe(&fb(200, 50, 0, 0));
        assert_eq!(aimd.rate_datagrams_per_s(), 200.0);

        // pressure at the threshold counts as congestion without loss
        aimd.observe(&fb(300, 50, 0, AimdConfig::default().pressure_threshold));
        assert_eq!(aimd.rate_datagrams_per_s(), 100.0);

        // the pacing mapping: rate = burst / inter_burst
        let pacing = aimd.pacing();
        let per_s = pacing.datagrams_per_s();
        assert!((per_s - 100.0).abs() < 1e-6, "pacing rate {per_s}");
    }

    #[test]
    fn replay_buffer_evicts_oldest_first_and_reports_occupancy() {
        let mut replay = ReplayBuffer::new(100);
        replay.record(0, 8, &[1; 40]);
        replay.record(8, 8, &[2; 40]);
        assert_eq!((replay.len(), replay.bytes()), (2, 80));
        replay.record(16, 8, &[3; 40]); // 120 > 100: evict span 0..8
        assert_eq!((replay.len(), replay.bytes()), (2, 80));
        assert!(replay.covering(3).is_none(), "oldest span aged out");
        assert_eq!(replay.covering(8).unwrap().frame, vec![2; 40]);
        assert_eq!(replay.covering(23).unwrap().first_index, 16);
        assert!(replay.covering(24).is_none(), "past the newest span");
    }

    #[test]
    #[should_panic(expected = "replay budget")]
    fn zero_replay_budget_is_rejected() {
        let _ = ReplayBuffer::new(0);
    }

    #[test]
    fn replay_lookup_finds_every_span_by_binary_search() {
        let flow = sent_frames(50);
        for index in 0..400 {
            let entry = flow.replay.covering(index).expect("in the window");
            assert_eq!(entry.first_index, index / 8 * 8, "index {index}");
        }
        assert!(flow.replay.covering(400).is_none());
    }

    #[test]
    fn confirmed_hole_is_repaired_once_then_again_only_on_stall() {
        let mut flow = sent_frames(3);

        // cursor at 8 with parked data behind: span 8..16 is missing
        let d = flow.on_feedback(report(8, 8, &[(8, 16)]), 0x42, 24, false);
        assert_eq!(d.repairs, vec![vec![1; 30]]);
        assert_eq!(flow.repairs_events(), 8);

        // same hole reported again immediately: already repaired, the
        // cursor has not stalled twice yet → no duplicate resend
        let d = flow.on_feedback(report(8, 8, &[(8, 16)]), 0x42, 24, false);
        assert!(d.repairs.is_empty(), "repair in flight, not yet a stall");

        // …but hold on — that second report *was* the stall signal
        // (two consecutive reports pinned at 8), so the third resends.
        let d = flow.on_feedback(report(8, 8, &[(8, 16)]), 0x42, 24, false);
        assert_eq!(d.repairs, vec![vec![1; 30]], "stall re-repairs");
        assert_eq!(flow.repairs_frames(), 2);
    }

    #[test]
    fn one_report_repairs_every_listed_hole_once() {
        let mut flow = sent_frames(8);
        // frames 1, 3 and 4 lost, the rest parked; the second hole
        // spans two frames
        let holes = [(8, 16), (24, 40)];
        let d = flow.on_feedback(report(8, 32, &holes), 0x42, 64, false);
        assert_eq!(d.repairs, vec![vec![1; 30], vec![3; 30], vec![4; 30]]);
        assert_eq!((flow.repairs_frames(), flow.repairs_events()), (3, 24));

        // the same report again resends nothing; once the cursor stalls,
        // only the frame at the cursor goes again
        let d = flow.on_feedback(report(8, 32, &holes), 0x42, 64, false);
        assert!(d.repairs.is_empty(), "every listed frame was resent");
        let d = flow.on_feedback(report(8, 32, &holes), 0x42, 64, false);
        assert_eq!(
            d.repairs,
            vec![vec![1; 30]],
            "the stall re-repairs the cursor"
        );

        // a hole further on appears later: still repaired at once
        let d = flow.on_feedback(report(16, 16, &[(24, 40), (48, 56)]), 0x42, 64, false);
        assert_eq!(d.repairs, vec![vec![6; 30]]);
    }

    #[test]
    fn drain_mode_repairs_tail_holes_with_an_empty_reorder_buffer() {
        let mut flow = sent_frames(2);

        // the LAST frame was dropped: nothing parks behind it, so
        // reorder_depth is 0 and streaming mode sees no hole…
        let d = flow.on_feedback(fb(8, 0, 0, 0), 0x42, 16, false);
        assert!(d.repairs.is_empty());
        // …but the finish drain knows 16 were sent and repairs it.
        let d = flow.on_feedback(fb(8, 0, 0, 0), 0x42, 16, true);
        assert_eq!(d.repairs, vec![vec![1; 30]]);
    }

    #[test]
    fn drain_mode_resends_the_tail_past_the_parked_data() {
        let mut flow = sent_frames(8);
        // frame 1 missing, frames 2 and 3 parked, frames 4.. not
        // confirmed: the hole and the whole tail go in one round
        let d = flow.on_feedback(report(8, 16, &[(8, 16)]), 0x42, 64, true);
        let expected: Vec<Vec<u8>> = [1, 4, 5, 6, 7].iter().map(|&k| vec![k; 30]).collect();
        assert_eq!(d.repairs, expected);
        // the streaming rule alone would have resent frame 1 only
        let mut streaming = sent_frames(8);
        let d = streaming.on_feedback(report(8, 16, &[(8, 16)]), 0x42, 64, false);
        assert_eq!(d.repairs, vec![vec![1; 30]]);
    }

    #[test]
    fn a_hole_spanning_the_whole_window_resends_each_frame_at_most_once() {
        let mut flow = sent_frames(40);
        let hostile = report(0, 0, &[(0, u64::MAX)]);
        for drain in [false, true, false, true] {
            flow.on_feedback(hostile.clone(), 0x42, u64::MAX, drain);
        }
        // every frame once, plus the cursor's frame on each stall
        assert!(flow.repairs_frames() <= 40 + 2, "{}", flow.repairs_frames());
        assert!(flow.repairs_frames() >= 40);
    }

    #[test]
    fn foreign_nonce_feedback_is_ignored() {
        let mut flow = FlowSession::new(FlowConfig::default());
        flow.record_sent(0, 8, &[0xC0; 30]);
        let before = flow.aimd().rate_datagrams_per_s();
        let d = flow.on_feedback(fb(0, 999, 8, 255), 0x99, 8, false);
        assert!(d.repairs.is_empty());
        assert_eq!(flow.feedback_rx(), 0);
        assert_eq!(
            flow.aimd().rate_datagrams_per_s(),
            before,
            "foreign feedback must not steer the rate"
        );
    }

    #[test]
    fn out_of_window_holes_cannot_be_repaired() {
        let mut flow = FlowSession::new(FlowConfig {
            replay_bytes: 64,
            ..FlowConfig::default()
        });
        flow.record_sent(0, 8, &[0xD0; 40]);
        flow.record_sent(8, 8, &[0xD1; 40]); // evicts span 0..8
        let d = flow.on_feedback(report(0, 8, &[(0, 8)]), 0x42, 16, false);
        assert!(d.repairs.is_empty(), "span 0..8 aged out of the window");
        assert_eq!(flow.repairs_frames(), 0);
    }
}
