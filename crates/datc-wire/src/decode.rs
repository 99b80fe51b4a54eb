//! Receive-side streaming decode: byte stream in, time-ordered
//! addressed events out, with exact loss accounting.
//!
//! [`StreamDecoder`] survives everything a lossy link throws at it:
//!
//! * **corruption / partial reads** — frames are re-synchronised on the
//!   sync word and CRC-checked (see [`crate::frame`]);
//! * **loss** — every DATA packet carries the cumulative index of its
//!   first event, so a missing packet is a visible hole whose exact
//!   event count is known the moment the next packet arrives;
//! * **reordering** — out-of-order packets wait in a bounded reorder
//!   buffer and are released in sequence; when the buffer overflows, the
//!   hole is declared lost and the stream moves on (bounded latency
//!   beats completeness, exactly as the paper's "artifacts effect is
//!   similar to pulse missing" argument goes);
//! * **duplication** — a packet whose index span was already delivered
//!   is counted and dropped;
//! * **session misattribution** — DATA-V2 frames carry a one-byte
//!   session nonce (a CRC-8 of the HELLO, see
//!   [`SessionHeader::nonce`]); a frame whose nonce disagrees with the
//!   decoded HELLO is counted as *foreign* and dropped instead of
//!   polluting the stream.
//!
//! The BYE frame closes the books: it carries per-channel sent totals,
//! turning the receiver's tallies into exact per-channel loss figures.

use crate::batch::EventBatch;
use crate::frame::{parse_frame, FrameType, ParseOutcome, SYNC};
use crate::packet::{
    decode_data_into_with, ByeSummary, FeedbackSummary, SessionHeader, MAX_FEEDBACK_HOLES,
};
use crate::varint::VarintPolicy;
use datc_uwb::aer::AddressedEvent;
use std::collections::BTreeMap;

/// Default reorder-buffer depth (packets), ≈ 2k events of slack at the
/// default packetisation.
pub const DEFAULT_REORDER_WINDOW: usize = 32;

/// Approximate resident cost of one parked event in the reorder
/// buffer's struct-of-arrays columns: 1 address byte + 8 tick bytes +
/// 2 code bytes. The [`StreamDecoder::with_parked_bytes_cap`] budget is
/// accounted in these units.
pub const PARKED_EVENT_BYTES: usize = 11;

/// Per-channel receive/loss tallies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChannelWireStats {
    /// Events this channel delivered to the application.
    pub received: u64,
    /// Events the transmitter reports having sent (known after BYE).
    pub sent: Option<u64>,
    /// Exact events lost on this channel (known after BYE).
    pub lost: Option<u64>,
}

/// Snapshot of a decoder's health counters.
///
/// # Example
///
/// ```
/// use datc_wire::decode::StreamDecoder;
/// use datc_wire::packet::{encode_session, SessionHeader};
///
/// let mut rx = StreamDecoder::new();
/// rx.push_bytes(&encode_session(SessionHeader::new(1, 1, 2000.0, 1.0), &[]));
/// let stats = rx.stats();
/// assert!(stats.closed);
/// assert_eq!(stats.events_lost, 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireStats {
    // NOTE: the flat counters mirror `WireCounters`, the decoder's own
    // books; keep them and `WireStats::merge` in sync with it.
    /// Valid frames accepted (all types).
    pub frames: u64,
    /// DATA frames dropped as duplicates (index span already covered or
    /// already waiting in the reorder buffer).
    pub duplicate_frames: u64,
    /// Frame-shaped byte runs that failed their CRC.
    pub crc_failures: u64,
    /// Bytes skipped hunting for a sync word.
    pub resync_bytes: u64,
    /// Frames with undecodable payloads (truncated varints, bad
    /// addresses, trailing garbage).
    pub malformed_frames: u64,
    /// DATA/BYE frames that arrived before any HELLO.
    pub orphan_frames: u64,
    /// DATA-V2 frames whose session nonce did not match this session's
    /// HELLO — traffic from another session leaking in over a reused
    /// transport address.
    pub foreign_frames: u64,
    /// Events delivered to the application, in time order.
    pub events_decoded: u64,
    /// Events known lost: declared gaps, plus — once the BYE closes the
    /// session — everything the transmitter sent that never arrived.
    pub events_lost: u64,
    /// Distinct gap episodes declared.
    pub gaps: u64,
    /// Events currently parked in the reorder buffer.
    pub pending_events: u64,
    /// Events force-flushed out of the reorder buffer by the
    /// parked-bytes cap ([`StreamDecoder::with_parked_bytes_cap`]) —
    /// hostile reorder pushing the buffer past its memory budget. The
    /// holes in front of them are declared lost through the normal gap
    /// path, so the books stay exact.
    pub parked_shed_events: u64,
    /// `true` once the BYE frame was processed.
    pub closed: bool,
    /// Per-channel tallies (empty before the HELLO arrives).
    pub per_channel: Vec<ChannelWireStats>,
}

impl WireStats {
    /// Folds `other` into `self`, summing every counter — how a hub
    /// aggregates per-session books into fleet totals (see
    /// [`SessionTable::wire_totals`](crate::gateway::SessionTable::wire_totals)).
    ///
    /// Aggregate semantics: `closed` stays `true` only while every
    /// merged session closed cleanly, and per-channel tallies sum
    /// index-wise (a channel's `sent`/`lost` goes unknown — `None` —
    /// when any contributing session left it unknown).
    pub fn merge(&mut self, other: &WireStats) {
        self.frames += other.frames;
        self.duplicate_frames += other.duplicate_frames;
        self.crc_failures += other.crc_failures;
        self.resync_bytes += other.resync_bytes;
        self.malformed_frames += other.malformed_frames;
        self.orphan_frames += other.orphan_frames;
        self.foreign_frames += other.foreign_frames;
        self.events_decoded += other.events_decoded;
        self.events_lost += other.events_lost;
        self.gaps += other.gaps;
        self.pending_events += other.pending_events;
        self.parked_shed_events += other.parked_shed_events;
        self.closed &= other.closed;
        if self.per_channel.len() < other.per_channel.len() {
            // Extend with the additive identity — `Some(0)`, not the
            // `None` default, so a channel first seen in `other` keeps
            // its known totals instead of going unknown.
            self.per_channel.resize(
                other.per_channel.len(),
                ChannelWireStats {
                    received: 0,
                    sent: Some(0),
                    lost: Some(0),
                },
            );
        }
        for (mine, theirs) in self.per_channel.iter_mut().zip(&other.per_channel) {
            mine.received += theirs.received;
            mine.sent = match (mine.sent, theirs.sent) {
                (Some(a), Some(b)) => Some(a + b),
                _ => None,
            };
            mine.lost = match (mine.lost, theirs.lost) {
                (Some(a), Some(b)) => Some(a + b),
                _ => None,
            };
        }
    }

    /// An all-zero accumulator to [`merge`](WireStats::merge) into.
    /// (`closed` starts `true`: the AND-identity, so an aggregate over
    /// only cleanly closed sessions reads closed.)
    pub fn zero() -> WireStats {
        WireStats {
            frames: 0,
            duplicate_frames: 0,
            crc_failures: 0,
            resync_bytes: 0,
            malformed_frames: 0,
            orphan_frames: 0,
            foreign_frames: 0,
            events_decoded: 0,
            events_lost: 0,
            gaps: 0,
            pending_events: 0,
            parked_shed_events: 0,
            closed: true,
            per_channel: Vec::new(),
        }
    }
}

/// The flat decoder counters as one `Copy` value — the decoder's own
/// books, and what instrumentation syncs into a metrics registry every
/// read without paying [`stats`](StreamDecoder::stats)'s per-channel
/// clone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WireCounters {
    /// Valid frames accepted (all types).
    pub frames: u64,
    /// DATA frames dropped as duplicates.
    pub duplicate_frames: u64,
    /// Frame-shaped byte runs that failed their CRC.
    pub crc_failures: u64,
    /// Bytes skipped hunting for a sync word.
    pub resync_bytes: u64,
    /// Frames with undecodable payloads.
    pub malformed_frames: u64,
    /// DATA/BYE frames that arrived before any HELLO.
    pub orphan_frames: u64,
    /// DATA-V2 frames rejected for a foreign session nonce.
    pub foreign_frames: u64,
    /// Events delivered to the application.
    pub events_decoded: u64,
    /// Events known lost.
    pub events_lost: u64,
    /// Distinct gap episodes declared.
    pub gaps: u64,
    /// Events currently parked in the reorder buffer.
    pub pending_events: u64,
    /// Events force-flushed by the parked-bytes cap.
    pub parked_shed_events: u64,
}

struct PendingPacket {
    batch: EventBatch,
}

/// Incremental decoder for one session's byte stream.
///
/// Feed arbitrary byte chunks with
/// [`push_bytes`](StreamDecoder::push_bytes), collect events with
/// [`drain_events`](StreamDecoder::drain_events), close with
/// [`finish`](StreamDecoder::finish) (or let a BYE frame do it), read
/// the books with [`stats`](StreamDecoder::stats).
///
/// # Example
///
/// ```
/// use datc_core::Event;
/// use datc_uwb::aer::AddressedEvent;
/// use datc_wire::decode::StreamDecoder;
/// use datc_wire::packet::{encode_session, SessionHeader};
///
/// let header = SessionHeader::new(1, 2, 2000.0, 1.0);
/// let events: Vec<AddressedEvent> = (0..10)
///     .map(|i| AddressedEvent {
///         channel: (i % 2) as u8,
///         event: Event::at_tick(i * 50, header.tick_period_s, Some(3)),
///     })
///     .collect();
/// let wire = encode_session(header, &events);
///
/// let mut rx = StreamDecoder::new();
/// // bytes may arrive in any fragmentation
/// for chunk in wire.chunks(7) {
///     rx.push_bytes(chunk);
/// }
/// let mut decoded = Vec::new();
/// rx.drain_events(&mut decoded);
/// assert_eq!(decoded, events); // exact round trip
/// assert_eq!(rx.stats().events_lost, 0);
/// ```
#[derive(Debug)]
pub struct StreamDecoder {
    buf: Vec<u8>,
    consumed: usize,
    session: Option<SessionHeader>,
    /// The session nonce (derived from the HELLO) DATA-V2 frames must
    /// carry.
    nonce: Option<u8>,
    bye: Option<ByeSummary>,
    /// Reorder buffer keyed by first event index.
    pending: BTreeMap<u64, PendingPacket>,
    reorder_window: usize,
    /// Memory budget for parked packets, in [`PARKED_EVENT_BYTES`]
    /// units (`None` = bounded only by the packet-count window).
    parked_bytes_cap: Option<usize>,
    /// Next cumulative event index expected on the in-order path.
    next_index: u64,
    /// Released events waiting for `drain_batch`/`drain_events`,
    /// column-wise.
    out: EventBatch,
    /// Reused per-packet decode arena — the zero-copy path: payload
    /// bytes land here column-wise with no per-packet allocation.
    scratch: EventBatch,
    /// Varint decode selection (SWAR fast path vs scalar reference).
    varint: VarintPolicy,
    watermark_s: f64,
    counters: WireCounters,
    closed: bool,
    per_channel_received: Vec<u64>,
}

impl std::fmt::Debug for PendingPacket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PendingPacket({} events)", self.batch.len())
    }
}

impl Default for StreamDecoder {
    fn default() -> Self {
        StreamDecoder::new()
    }
}

impl StreamDecoder {
    /// Creates a decoder with the default reorder window.
    pub fn new() -> Self {
        StreamDecoder::with_reorder_window(DEFAULT_REORDER_WINDOW)
    }

    /// Creates a decoder holding at most `window` out-of-order packets
    /// before declaring the missing span lost (minimum 1).
    pub fn with_reorder_window(window: usize) -> Self {
        StreamDecoder {
            buf: Vec::new(),
            consumed: 0,
            session: None,
            nonce: None,
            bye: None,
            pending: BTreeMap::new(),
            reorder_window: window.max(1),
            parked_bytes_cap: None,
            next_index: 0,
            out: EventBatch::new(),
            scratch: EventBatch::new(),
            varint: VarintPolicy::default(),
            watermark_s: 0.0,
            counters: WireCounters::default(),
            closed: false,
            per_channel_received: Vec::new(),
        }
    }

    /// Caps the total bytes parked in the reorder buffer (accounted at
    /// [`PARKED_EVENT_BYTES`] per event). When hostile reorder would
    /// push the buffer past the cap, the oldest parked packets are
    /// force-flushed — their leading holes booked as exact loss, the
    /// evicted events counted in
    /// [`WireStats::parked_shed_events`] — so a malicious sender cannot
    /// balloon RX memory no matter how wide the packet-count window is.
    ///
    /// # Panics
    ///
    /// Panics when `cap` is zero (hubs validate this at bind and return
    /// `InvalidInput` instead).
    pub fn with_parked_bytes_cap(mut self, cap: usize) -> Self {
        assert!(cap > 0, "parked-bytes cap must be at least 1");
        self.parked_bytes_cap = Some(cap);
        self
    }

    /// Pins the varint decode implementation (see
    /// [`VarintPolicy`]) — `ForceScalar` rules the SWAR fast path out,
    /// for equivalence tests and fault isolation. The default `Auto`
    /// takes the word-at-a-time path on 64-bit machines.
    pub fn with_varint_policy(mut self, policy: VarintPolicy) -> Self {
        self.varint = policy;
        self
    }

    /// The session header, once a HELLO has been decoded.
    pub fn session(&self) -> Option<&SessionHeader> {
        self.session.as_ref()
    }

    /// The transmitter's close-of-session totals, once a BYE arrived.
    pub fn bye(&self) -> Option<&ByeSummary> {
        self.bye.as_ref()
    }

    /// `true` once the BYE frame was processed (cheaper than
    /// [`stats`](StreamDecoder::stats) for per-datagram polling).
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Cheap framing-garbage score for quarantine budgeting: CRC
    /// failures plus malformed frames plus one point per 64 bytes
    /// skipped resynchronising. Honest lossy links score near zero;
    /// a garbage flood scores at least one point per read/datagram
    /// (see [`HubConfig::malformed_budget`](crate::gateway::HubConfig::malformed_budget)).
    pub fn framing_garbage(&self) -> u64 {
        self.counters.crc_failures
            + self.counters.malformed_frames
            + self.counters.resync_bytes / 64
    }

    /// Highest event timestamp released so far — a valid watermark for
    /// downstream [`OnlineReconstructor`](datc_rx::OnlineReconstructor)s
    /// because released events are time-ordered.
    pub fn watermark_s(&self) -> f64 {
        self.watermark_s
    }

    /// Highest-contiguous event index: every event below it was either
    /// released to the application or booked as exact loss. The
    /// flow-control anchor FEEDBACK frames report to the sender.
    pub fn next_index(&self) -> u64 {
        self.next_index
    }

    /// `true` when a BYE announcing `total_events` finds nothing left to
    /// wait for: the HELLO arrived, every event below `total_events` was
    /// released or booked as lost, and nothing is parked.
    pub(crate) fn is_complete(&self, total_events: u64) -> bool {
        self.session.is_some() && self.pending.is_empty() && self.next_index >= total_events
    }

    /// Snapshots this decoder's books as a flow-control report, ready
    /// to frame as FEEDBACK. `pressure` is the hub-supplied load level
    /// (0 for a standalone receiver). The holes are read off the reorder
    /// buffer, up to [`MAX_FEEDBACK_HOLES`]. `None` before the HELLO
    /// arrives — there is no session (or nonce) to report on yet.
    pub fn feedback(&self, pressure: u8) -> Option<FeedbackSummary> {
        let nonce = self.nonce?;
        let mut holes = Vec::new();
        let mut end = self.next_index;
        for (&first, parked) in &self.pending {
            if first > end {
                if holes.len() == MAX_FEEDBACK_HOLES {
                    break;
                }
                holes.push(end..first);
            }
            end = end.max(first + parked.batch.len() as u64);
        }
        Some(FeedbackSummary {
            nonce,
            next_index: self.next_index,
            events_lost: self.counters.events_lost,
            reorder_depth: self.counters.pending_events,
            pressure,
            holes,
        })
    }

    /// Feeds a chunk of received bytes; returns how many events became
    /// available (drain them with
    /// [`drain_events`](StreamDecoder::drain_events)).
    pub fn push_bytes(&mut self, bytes: &[u8]) -> usize {
        let before = self.out.len();
        self.buf.extend_from_slice(bytes);
        self.parse_buffered();
        // Compact the receive buffer once the dead prefix grows.
        if self.consumed > 8192 {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        self.out.len() - before
    }

    /// Parses every complete frame buffered past `consumed`, stopping at
    /// a partial one.
    fn parse_buffered(&mut self) {
        loop {
            match parse_frame(&self.buf[self.consumed..]) {
                ParseOutcome::NeedMore => break,
                ParseOutcome::Skip { skip, crc_failure } => {
                    self.consumed += skip;
                    self.counters.resync_bytes += skip as u64;
                    if crc_failure {
                        self.counters.crc_failures += 1;
                    }
                }
                ParseOutcome::Frame { frame, consumed } => {
                    // The parsed payload borrows `self.buf`; hand the
                    // handlers its index range instead so they can take
                    // `&mut self`.
                    let ftype = frame.ftype;
                    let payload_start = self.consumed + crate::frame::HEADER_LEN;
                    let payload = payload_start..payload_start + frame.payload.len();
                    self.consumed += consumed;
                    self.counters.frames += 1;
                    match ftype {
                        FrameType::Hello => self.on_hello(payload),
                        FrameType::DataV2 => self.on_data_v2(payload),
                        FrameType::Bye => self.on_bye(payload),
                        // FEEDBACK travels receiver→sender; one looping
                        // back into a data-direction decoder (a peer
                        // echoing traffic) is harmless — drop it.
                        FrameType::Feedback => {}
                    }
                }
            }
        }
    }

    /// Moves all released events (time-ordered) into `out` in
    /// struct-of-arrays form, appending — the zero-copy drain. When
    /// `out` is empty this swaps the columns instead of copying them.
    pub fn drain_batch(&mut self, out: &mut EventBatch) {
        self.out.drain_into(out);
    }

    /// Moves all released events (time-ordered) into `out`, appending.
    ///
    /// Compatibility drain: materialises
    /// [`AddressedEvent`]s (with their
    /// bit-exact `tick * tick_period_s` timestamps) from the internal
    /// column batch. Hot consumers use
    /// [`drain_batch`](StreamDecoder::drain_batch) instead.
    pub fn drain_events(&mut self, out: &mut Vec<AddressedEvent>) {
        if let Some(h) = self.session {
            self.out.materialize_into(h.tick_period_s, out);
        }
        self.out.clear();
    }

    /// Closes the stream at transport EOF: rescans a partial frame that
    /// can no longer complete, flushes the reorder buffer (declaring the
    /// remaining holes lost) and, when a BYE was seen, reconciles
    /// against the transmitter's totals.
    pub fn finish(&mut self) {
        // A frame truncated within its declared length of the end waits
        // for bytes that never come, and the frames inside that length
        // (a BYE) with it. Skip its sync word and parse on; the skipped
        // bytes are resync.
        while self.consumed < self.buf.len() {
            let skip = SYNC.len().min(self.buf.len() - self.consumed);
            self.consumed += skip;
            self.counters.resync_bytes += skip as u64;
            self.parse_buffered();
        }
        self.close_books();
    }

    /// Flushes the reorder buffer and, when a BYE was seen, books the
    /// tail loss.
    fn close_books(&mut self) {
        while !self.pending.is_empty() {
            self.pop_parked(true);
        }
        if let Some(bye) = &self.bye {
            // Tail loss: everything sent after the last released event.
            if bye.total_events > self.next_index {
                self.counters.events_lost += bye.total_events - self.next_index;
                self.counters.gaps += 1;
                self.next_index = bye.total_events;
            }
        }
    }

    /// Current counters (cheap clone of the tallies).
    pub fn stats(&self) -> WireStats {
        let per_channel = self
            .per_channel_received
            .iter()
            .enumerate()
            .map(|(ch, &received)| {
                let sent = self
                    .bye
                    .as_ref()
                    .and_then(|b| b.per_channel.get(ch).copied());
                ChannelWireStats {
                    received,
                    sent,
                    lost: sent.map(|s| s.saturating_sub(received)),
                }
            })
            .collect();
        let c = self.counters;
        WireStats {
            frames: c.frames,
            duplicate_frames: c.duplicate_frames,
            crc_failures: c.crc_failures,
            resync_bytes: c.resync_bytes,
            malformed_frames: c.malformed_frames,
            orphan_frames: c.orphan_frames,
            foreign_frames: c.foreign_frames,
            events_decoded: c.events_decoded,
            events_lost: c.events_lost,
            gaps: c.gaps,
            pending_events: c.pending_events,
            parked_shed_events: c.parked_shed_events,
            closed: self.closed,
            per_channel,
        }
    }

    /// The flat counters as a `Copy` view — no allocation, suitable for
    /// an instrumentation sync on every read (unlike
    /// [`stats`](StreamDecoder::stats), which clones per-channel
    /// tallies).
    pub fn counters(&self) -> WireCounters {
        self.counters
    }

    fn on_hello(&mut self, payload: std::ops::Range<usize>) {
        let Some(header) = SessionHeader::decode(&self.buf[payload]) else {
            self.counters.malformed_frames += 1;
            return;
        };
        match &self.session {
            None => {
                self.per_channel_received = vec![0; usize::from(header.n_channels)];
                self.nonce = Some(header.nonce());
                self.session = Some(header);
            }
            Some(existing) if *existing == header => self.counters.duplicate_frames += 1,
            Some(_) => self.counters.malformed_frames += 1, // conflicting re-handshake
        }
    }

    fn on_data(&mut self, payload: std::ops::Range<usize>) {
        let Some(session) = self.session else {
            self.counters.orphan_frames += 1;
            return;
        };
        // Decode straight into the reused scratch arena — column-wise,
        // no per-packet event vector. The full syntactic decode runs
        // before any span check so the malformed/duplicate counter
        // ordering matches the wire contract.
        self.scratch.clear();
        let Some(first) = decode_data_into_with(&self.buf[payload], &mut self.scratch, self.varint)
        else {
            self.counters.malformed_frames += 1;
            return;
        };
        if self.scratch.is_empty() {
            return;
        }
        if self
            .scratch
            .addrs()
            .iter()
            .any(|&addr| u16::from(addr) >= session.n_channels)
        {
            self.counters.malformed_frames += 1;
            return;
        }
        let n = self.scratch.len() as u64;
        let Some(end) = first.checked_add(n) else {
            self.counters.malformed_frames += 1;
            return;
        };

        if end <= self.next_index {
            // Entirely before the release point: duplicate or too late.
            self.counters.duplicate_frames += 1;
        } else if first < self.next_index {
            // Partial overlap cannot come from an honest transmitter
            // (gaps are declared on packet boundaries).
            self.counters.malformed_frames += 1;
        } else if first == self.next_index {
            self.release_scratch(first, session.tick_period_s);
            self.flush_pending();
        } else {
            // A hole before this packet: park it. Parking surrenders
            // the scratch buffers to the reorder entry (the rare path
            // pays the allocation, not the in-order path).
            use std::collections::btree_map::Entry;
            match self.pending.entry(first) {
                Entry::Occupied(_) => self.counters.duplicate_frames += 1,
                Entry::Vacant(slot) => {
                    slot.insert(PendingPacket {
                        batch: self.scratch.take(),
                    });
                    self.counters.pending_events += n;
                }
            }
            while self.pending.len() > self.reorder_window {
                // Bounded latency: give up on the oldest hole.
                self.pop_parked(true);
                self.flush_pending();
            }
            // Bounded memory: the byte cap force-flushes the oldest
            // parked packets even when the packet-count window would
            // hold them (hostile reorder with huge packets).
            if let Some(cap) = self.parked_bytes_cap {
                while self.counters.pending_events as usize * PARKED_EVENT_BYTES > cap
                    && !self.pending.is_empty()
                {
                    let oldest = self
                        .pending
                        .values()
                        .next()
                        .map_or(0, |p| p.batch.len() as u64);
                    self.counters.parked_shed_events += oldest;
                    self.pop_parked(true);
                    self.flush_pending();
                }
            }
        }
    }

    /// Removes the oldest parked packet and releases it if its span is
    /// still ahead of the release point — packets whose span was
    /// already (partially) delivered are dropped as duplicates or
    /// malformed instead, so CRC-valid packets with overlapping index
    /// spans can never corrupt the release cursor. `declare_gap`
    /// permits skipping a hole (window overflow / end of stream).
    fn pop_parked(&mut self, declare_gap: bool) {
        let Some((&first, _)) = self.pending.iter().next() else {
            return;
        };
        let pkt = self.pending.remove(&first).expect("key just read");
        let n = pkt.batch.len() as u64;
        self.counters.pending_events -= n;
        if first + n <= self.next_index {
            self.counters.duplicate_frames += 1;
        } else if first < self.next_index {
            // Overlaps delivered events: no honest transmitter emits
            // this (gaps align with packet boundaries).
            self.counters.malformed_frames += 1;
        } else {
            if declare_gap {
                self.declare_gap_to(first);
            }
            debug_assert_eq!(first, self.next_index, "caller checked contiguity");
            let period = self
                .session
                .expect("parked packets require a decoded HELLO")
                .tick_period_s;
            self.release(first, &pkt.batch, period);
        }
    }

    /// DATA-V2: the leading nonce byte must match this session's before
    /// the rest of the payload goes to [`on_data`](Self::on_data).
    fn on_data_v2(&mut self, payload: std::ops::Range<usize>) {
        let Some(expected) = self.nonce else {
            self.counters.orphan_frames += 1;
            return;
        };
        let Some(&nonce) = self.buf[payload.clone()].first() else {
            self.counters.malformed_frames += 1;
            return;
        };
        if nonce != expected {
            self.counters.foreign_frames += 1;
            return;
        }
        self.on_data(payload.start + 1..payload.end);
    }

    fn on_bye(&mut self, payload: std::ops::Range<usize>) {
        let Some(session) = self.session else {
            self.counters.orphan_frames += 1;
            return;
        };
        let Some(bye) = ByeSummary::decode(&self.buf[payload]) else {
            self.counters.malformed_frames += 1;
            return;
        };
        if bye.per_channel.len() != usize::from(session.n_channels) {
            self.counters.malformed_frames += 1;
            return;
        }
        if self.closed {
            self.counters.duplicate_frames += 1;
            return;
        }
        self.bye = Some(bye);
        self.closed = true;
        self.close_books();
    }

    fn flush_pending(&mut self) {
        while let Some((&first, _)) = self.pending.iter().next() {
            if first > self.next_index {
                break; // a hole remains; keep waiting
            }
            // Contiguous, duplicate or overlapping: pop_parked decides.
            self.pop_parked(false);
        }
    }

    fn declare_gap_to(&mut self, first: u64) {
        if first > self.next_index {
            self.counters.events_lost += first - self.next_index;
            self.counters.gaps += 1;
            self.next_index = first;
        }
    }

    /// Releases the scratch arena's packet and hands the (emptied)
    /// buffers back to the arena so the next packet reuses them.
    fn release_scratch(&mut self, first: u64, tick_period_s: f64) {
        let batch = self.scratch.take();
        self.release(first, &batch, tick_period_s);
        self.scratch = batch;
        self.scratch.clear();
    }

    fn release(&mut self, first: u64, batch: &EventBatch, tick_period_s: f64) {
        debug_assert_eq!(first, self.next_index);
        let n = batch.len() as u64;
        self.next_index = first + n;
        self.counters.events_decoded += n;
        for &addr in batch.addrs() {
            if let Some(c) = self.per_channel_received.get_mut(usize::from(addr)) {
                *c += 1;
            }
        }
        // Ticks are non-decreasing within one packet (the delta
        // encoding cannot step backwards), so the last tick carries the
        // packet's maximum timestamp: `tick * period` here is exactly
        // the `time_s` the materialised events would report.
        if let Some(&last) = batch.ticks().last() {
            let t = last as f64 * tick_period_s;
            if t > self.watermark_s {
                self.watermark_s = t;
            }
        }
        self.out.append(batch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Packetizer;
    use datc_core::Event;

    fn session_frames(
        n_events: u64,
        per_frame: usize,
    ) -> (SessionHeader, Vec<Vec<u8>>, Vec<AddressedEvent>) {
        let header = SessionHeader::new(11, 4, 2000.0, 30.0);
        let events: Vec<AddressedEvent> = (0..n_events)
            .map(|i| AddressedEvent {
                channel: (i % 4) as u8,
                event: Event::at_tick(i * 13, header.tick_period_s, Some((i % 16) as u8)),
            })
            .collect();
        let mut tx = Packetizer::new(header).with_events_per_frame(per_frame);
        let mut frames = vec![tx.hello()];
        frames.extend(tx.data_frames(&events));
        frames.push(tx.bye());
        (header, frames, events)
    }

    fn decoded(rx: &mut StreamDecoder) -> Vec<AddressedEvent> {
        let mut out = Vec::new();
        rx.drain_events(&mut out);
        out
    }

    #[test]
    fn lossless_feed_round_trips_exactly() {
        let (_, frames, events) = session_frames(257, 16);
        let mut rx = StreamDecoder::new();
        for f in &frames {
            rx.push_bytes(f);
        }
        assert_eq!(decoded(&mut rx), events);
        let s = rx.stats();
        assert_eq!(s.events_decoded, 257);
        assert_eq!(s.events_lost, 0);
        assert_eq!(s.duplicate_frames, 0);
        assert!(s.closed);
        for (ch, c) in s.per_channel.iter().enumerate() {
            assert_eq!(c.lost, Some(0), "channel {ch}");
        }
    }

    #[test]
    fn dropped_packet_loss_is_counted_exactly() {
        let (_, frames, events) = session_frames(100, 10);
        // drop the third DATA frame (frames[0] is hello): events 20..30
        let mut rx = StreamDecoder::new();
        for (i, f) in frames.iter().enumerate() {
            if i != 3 {
                rx.push_bytes(f);
            }
        }
        let out = decoded(&mut rx);
        assert_eq!(out.len(), 90);
        let expected: Vec<AddressedEvent> =
            events[..20].iter().chain(&events[30..]).copied().collect();
        assert_eq!(out, expected);
        let s = rx.stats();
        assert_eq!(s.events_lost, 10);
        assert_eq!(s.gaps, 1);
        let lost_per_channel: u64 = s.per_channel.iter().map(|c| c.lost.unwrap()).sum();
        assert_eq!(lost_per_channel, 10);
    }

    #[test]
    fn reordered_packets_are_released_in_order() {
        let (_, mut frames, events) = session_frames(60, 10);
        // swap two mid-stream DATA frames
        frames.swap(2, 4);
        let mut rx = StreamDecoder::new();
        for f in &frames {
            rx.push_bytes(f);
        }
        assert_eq!(decoded(&mut rx), events, "order restored");
        let s = rx.stats();
        assert_eq!(s.events_lost, 0);
        assert_eq!(s.duplicate_frames, 0);
    }

    #[test]
    fn duplicated_packets_are_dropped_and_counted() {
        let (_, frames, events) = session_frames(40, 10);
        let mut rx = StreamDecoder::new();
        for f in &frames {
            rx.push_bytes(f);
            rx.push_bytes(f); // everything twice
        }
        assert_eq!(decoded(&mut rx), events);
        let s = rx.stats();
        assert_eq!(s.events_lost, 0);
        assert_eq!(s.duplicate_frames, frames.len() as u64);
    }

    #[test]
    fn reorder_window_overflow_declares_the_gap_and_moves_on() {
        let (_, frames, events) = session_frames(200, 10);
        // drop DATA frame 1 (events 0..10), deliver the rest in order:
        // once more than 2 packets are parked the window forces the gap.
        let mut rx = StreamDecoder::with_reorder_window(2);
        rx.push_bytes(&frames[0]); // hello
        for f in frames.iter().skip(2) {
            rx.push_bytes(f);
        }
        let out = decoded(&mut rx);
        assert_eq!(out, events[10..].to_vec());
        let s = rx.stats();
        assert_eq!(s.events_lost, 10);
        assert!(s.closed);
    }

    #[test]
    fn parked_bytes_cap_bounds_memory_and_keeps_books_exact() {
        let (_, frames, events) = session_frames(100, 10);
        // Drop the first DATA frame (events 0..10): every later packet
        // parks behind the hole. A 300-byte cap admits two 10-event
        // packets (220 units) but not three (330), so the third arrival
        // force-flushes the oldest and the stream recovers.
        let mut rx = StreamDecoder::new().with_parked_bytes_cap(300);
        rx.push_bytes(&frames[0]); // hello
        for f in frames.iter().skip(2) {
            rx.push_bytes(f);
        }
        let out = decoded(&mut rx);
        assert_eq!(out, events[10..].to_vec(), "everything parked releases");
        let s = rx.stats();
        assert_eq!(s.events_lost, 10, "the hole is booked exactly");
        assert_eq!(s.parked_shed_events, 10, "one packet force-flushed");
        assert_eq!(s.events_decoded + s.events_lost, 100, "books closed");
        assert!(s.closed);

        // Without the cap the same feed parks three packets deep and
        // sheds nothing (the count window alone would hold them).
        let mut rx = StreamDecoder::new();
        rx.push_bytes(&frames[0]);
        for f in frames.iter().skip(2) {
            rx.push_bytes(f);
        }
        assert_eq!(rx.stats().parked_shed_events, 0);
    }

    #[test]
    fn feedback_snapshot_tracks_the_release_cursor() {
        let (header, frames, _) = session_frames(40, 10);
        let mut rx = StreamDecoder::new();
        assert_eq!(rx.feedback(0), None, "no session yet");
        rx.push_bytes(&frames[0]); // hello
        rx.push_bytes(&frames[1]); // events 0..10
        rx.push_bytes(&frames[3]); // events 20..30 — parks behind a hole
        let fb = rx.feedback(7).expect("session decoded");
        assert_eq!(fb.nonce, header.nonce());
        assert_eq!(fb.next_index, 10);
        assert_eq!(fb.events_lost, 0);
        assert_eq!(fb.reorder_depth, 10);
        assert_eq!(fb.pressure, 7);
        assert_eq!(fb.holes.len(), 1);
        assert_eq!(fb.holes[0], 10..20);
        assert_eq!(rx.next_index(), 10);
    }

    #[test]
    fn feedback_lists_the_reorder_holes_in_order_up_to_the_cap() {
        let (_, frames, _) = session_frames(10 * 60, 10);
        let data = &frames[1..frames.len() - 1];
        let mut rx = StreamDecoder::with_reorder_window(64);
        rx.push_bytes(&frames[0]); // hello
                                   // frames 0, 2, 3, 5 missing; 1 and 4 parked
        rx.push_bytes(&data[4]);
        rx.push_bytes(&data[1]);
        let fb = rx.feedback(0).expect("session decoded");
        assert_eq!((fb.next_index, fb.reorder_depth), (0, 20));
        assert_eq!(fb.holes, vec![0..10, 20..40]);
        assert!(!rx.is_complete(50));

        // every other frame of the rest parks: one hole per frame
        // missing, but a report lists only the first MAX_FEEDBACK_HOLES
        for f in data[6..].iter().step_by(2) {
            rx.push_bytes(f);
        }
        let fb = rx.feedback(0).expect("session decoded");
        let mut expected = vec![0..10, 20..40, 50..60];
        let more = (0..).map(|k| 70 + 20 * k..80 + 20 * k);
        expected.extend(more.take(MAX_FEEDBACK_HOLES - expected.len()));
        assert_eq!(fb.holes, expected);
        assert_eq!(FeedbackSummary::decode(&fb.encode()), Some(fb));
    }

    #[test]
    fn is_complete_once_every_announced_event_is_released_and_nothing_parks() {
        let (_, frames, _) = session_frames(30, 10);
        let mut rx = StreamDecoder::new();
        assert!(!rx.is_complete(0), "no HELLO yet");
        rx.push_bytes(&frames[0]);
        rx.push_bytes(&frames[1]);
        rx.push_bytes(&frames[3]);
        assert!(!rx.is_complete(10), "events 20..30 still parked");
        rx.push_bytes(&frames[2]);
        assert!(rx.is_complete(30) && !rx.is_complete(31));
    }

    #[test]
    fn a_frame_truncated_into_the_bye_is_rescanned_at_end_of_stream() {
        // The last DATA frame lost its tail: its declared length reaches
        // past the BYE behind it, so the BYE waits inside the partial
        // frame until end of stream rescans it.
        let (_, frames, events) = session_frames(30, 10);
        let n = frames.len();
        let truncated = &frames[n - 2][..crate::frame::HEADER_LEN + 3];
        assert!(truncated.len() + frames[n - 1].len() < frames[n - 2].len());
        let mut rx = StreamDecoder::new();
        for f in &frames[..n - 2] {
            rx.push_bytes(f);
        }
        rx.push_bytes(truncated);
        rx.push_bytes(&frames[n - 1]); // the BYE
        assert!(!rx.is_closed(), "the BYE sits inside the declared length");
        let resync_before = rx.stats().resync_bytes;
        rx.finish();
        let s = rx.stats();
        assert!(s.closed, "the rescan found the BYE");
        assert_eq!((s.events_decoded, s.events_lost), (20, 10));
        assert_eq!(
            s.resync_bytes - resync_before,
            truncated.len() as u64,
            "the partial frame's bytes count as resync"
        );
        assert_eq!(decoded(&mut rx), events[..20].to_vec());
    }

    #[test]
    fn corrupted_frame_is_skipped_and_the_rest_survives() {
        let (_, frames, events) = session_frames(50, 10);
        let mut wire: Vec<u8> = Vec::new();
        for (i, f) in frames.iter().enumerate() {
            let mut f = f.clone();
            if i == 2 {
                let n = f.len();
                f[n / 2] ^= 0xFF; // corrupt one DATA frame mid-payload
            }
            wire.extend_from_slice(&f);
        }
        let mut rx = StreamDecoder::new();
        // push in awkward chunk sizes to exercise reassembly
        for chunk in wire.chunks(11) {
            rx.push_bytes(chunk);
        }
        let out = decoded(&mut rx);
        let expected: Vec<AddressedEvent> =
            events[..10].iter().chain(&events[20..]).copied().collect();
        assert_eq!(out, expected);
        let s = rx.stats();
        assert!(s.crc_failures >= 1);
        assert_eq!(s.events_lost, 10);
    }

    #[test]
    fn eof_without_bye_leaves_exact_gap_accounting() {
        let (_, frames, _) = session_frames(100, 10);
        let mut rx = StreamDecoder::new();
        // hello + first 3 data frames, then the link dies
        for f in &frames[..4] {
            rx.push_bytes(f);
        }
        rx.finish();
        let s = rx.stats();
        assert!(!s.closed);
        assert_eq!(s.events_decoded, 30);
        assert_eq!(s.events_lost, 0); // nothing *known* lost
    }

    #[test]
    fn overlapping_index_spans_cannot_corrupt_the_release_cursor() {
        // CRC-valid packets with overlapping cumulative-index spans are
        // something no honest transmitter emits, but the decoder must
        // survive them (a gateway worker dying on a forged packet is a
        // denial of service). Cases: overlap between two parked
        // packets, and overlap between a parked packet and the
        // in-order path.
        use crate::frame::{encode_frame, FrameType};
        use crate::packet::{encode_data_v2, WireEvent};

        let header = SessionHeader::new(1, 1, 2000.0, 10.0);
        let forged = |seq: u16, first: u64, ticks: std::ops::Range<u64>| {
            let events: Vec<WireEvent> = ticks
                .map(|t| WireEvent {
                    addr: 0,
                    tick: t * 10,
                    code: None,
                })
                .collect();
            let payload = encode_data_v2(header.nonce(), first, &events);
            encode_frame(FrameType::DataV2, seq, &payload)
        };

        // parked-vs-parked overlap, resolved at end-of-stream
        let mut rx = StreamDecoder::new();
        rx.push_bytes(&encode_frame(FrameType::Hello, 0, &header.encode()));
        rx.push_bytes(&forged(1, 10, 0..10)); // parked (hole 0..10)
        rx.push_bytes(&forged(2, 15, 10..20)); // overlaps the parked span
        rx.finish();
        let s = rx.stats();
        assert_eq!(s.events_decoded, 10, "one span released after the gap");
        assert_eq!(s.malformed_frames, 1, "the overlapping span is rejected");
        assert_eq!(s.pending_events, 0);

        // parked-vs-in-order overlap
        let mut rx = StreamDecoder::new();
        rx.push_bytes(&encode_frame(FrameType::Hello, 0, &header.encode()));
        rx.push_bytes(&forged(1, 15, 0..10)); // parked
        rx.push_bytes(&forged(2, 0, 0..10)); // in-order: next_index -> 10
        rx.push_bytes(&forged(3, 10, 10..20)); // in-order: next_index -> 20
        rx.finish();
        let s = rx.stats();
        assert_eq!(s.events_decoded, 20);
        assert_eq!(s.malformed_frames, 1, "parked overlap dropped, no panic");
        // released events stayed time-ordered (the watermark contract)
        let mut out = Vec::new();
        rx.drain_events(&mut out);
        assert!(out
            .windows(2)
            .all(|w| w[0].event.time_s <= w[1].event.time_s));
    }

    #[test]
    fn retired_revision_1_data_frame_is_skipped_whole() {
        // A CRC-valid 0x02 frame (the retired nonce-less DATA revision)
        // carrying a plausible payload lands between V2 frames: it
        // decodes no events, and the V2 books around it close exactly.
        use crate::frame::encode_frame;
        use crate::packet::{encode_data, WireEvent};

        let (_, frames, events) = session_frames(40, 10);
        let stray = WireEvent {
            addr: 0,
            tick: 5,
            code: None,
        };
        let mut rev1 = encode_frame(FrameType::DataV2, 99, &encode_data(10, &[stray]));
        rev1[2] = 0x02;
        let n = rev1.len();
        let crc = datc_uwb::crc::crc16_ccitt(&rev1[2..n - 2]);
        rev1[n - 2..].copy_from_slice(&crc.to_le_bytes());
        assert!(matches!(
            parse_frame(&rev1),
            ParseOutcome::Skip {
                skip,
                crc_failure: false
            } if skip == n
        ));

        let mut rx = StreamDecoder::new();
        for (i, f) in frames.iter().enumerate() {
            rx.push_bytes(f);
            if i == 1 {
                rx.push_bytes(&rev1);
            }
        }
        assert_eq!(decoded(&mut rx), events, "no event from the 0x02 frame");
        let s = rx.stats();
        assert_eq!(s.events_decoded, 40);
        assert_eq!(s.events_lost, 0);
        assert_eq!((s.crc_failures, s.malformed_frames), (0, 0));
        assert_eq!(s.duplicate_frames, 0);
        assert_eq!(s.frames, frames.len() as u64, "only V2 frames accepted");
        assert!(s.closed);
        for (ch, c) in s.per_channel.iter().enumerate() {
            assert_eq!(c.lost, Some(0), "channel {ch}");
        }
    }

    #[test]
    fn foreign_session_nonce_is_dropped_and_counted() {
        // A second session's DATA-V2 frames leak into this decoder (the
        // reused-transport-address corner): every one is dropped as
        // foreign, the real stream is untouched, and loss accounting
        // stays exact.
        let (_, frames, events) = session_frames(40, 10);
        let foreign_header = SessionHeader::new(99, 4, 2000.0, 30.0);
        let mut foreign_tx = Packetizer::new(foreign_header).with_events_per_frame(10);
        let foreign_events: Vec<AddressedEvent> = (0..20)
            .map(|i| AddressedEvent {
                channel: (i % 4) as u8,
                event: Event::at_tick(i * 17, foreign_header.tick_period_s, None),
            })
            .collect();
        let foreign_frames = foreign_tx.data_frames(&foreign_events);

        let mut rx = StreamDecoder::new();
        rx.push_bytes(&frames[0]); // hello
        for (own, foreign) in frames[1..frames.len() - 1].iter().zip(
            foreign_frames
                .iter()
                .chain(std::iter::repeat(&foreign_frames[0])),
        ) {
            rx.push_bytes(foreign);
            rx.push_bytes(own);
        }
        rx.push_bytes(&frames[frames.len() - 1]); // bye
        assert_eq!(decoded(&mut rx), events);
        let s = rx.stats();
        assert_eq!(s.events_lost, 0);
        assert_eq!(s.foreign_frames, (frames.len() - 2) as u64);
        assert_eq!(s.malformed_frames, 0);
        assert_eq!(s.duplicate_frames, 0);
    }

    #[test]
    fn empty_v2_payload_is_malformed_and_v2_before_hello_is_orphaned() {
        use crate::frame::encode_frame;
        let mut rx = StreamDecoder::new();
        rx.push_bytes(&encode_frame(FrameType::DataV2, 0, &[0x5A]));
        assert_eq!(rx.stats().orphan_frames, 1);

        let (_, frames, _) = session_frames(0, 10);
        let mut rx = StreamDecoder::new();
        rx.push_bytes(&frames[0]); // hello
        rx.push_bytes(&encode_frame(FrameType::DataV2, 1, &[]));
        assert_eq!(rx.stats().malformed_frames, 1);
    }

    #[test]
    fn drain_batch_and_drain_events_agree() {
        let (header, frames, events) = session_frames(123, 16);
        let mut rx_batch = StreamDecoder::new();
        let mut rx_events = StreamDecoder::new();
        for f in &frames {
            rx_batch.push_bytes(f);
            rx_events.push_bytes(f);
        }
        let mut batch = EventBatch::new();
        rx_batch.drain_batch(&mut batch);
        let mut materialized = Vec::new();
        batch.materialize_into(header.tick_period_s, &mut materialized);
        assert_eq!(materialized, decoded(&mut rx_events));
        assert_eq!(materialized, events);
        assert_eq!(rx_batch.stats(), rx_events.stats());
    }

    #[test]
    fn scalar_varint_policy_decodes_identically() {
        // Large tick gaps force multi-byte delta varints through both
        // the SWAR fast path (Auto) and the scalar reference.
        let header = SessionHeader::new(21, 2, 2000.0, 3600.0);
        let events: Vec<AddressedEvent> = (0..200u64)
            .map(|i| AddressedEvent {
                channel: (i % 2) as u8,
                event: Event::at_tick(i * i * 9973, header.tick_period_s, Some((i % 32) as u8)),
            })
            .collect();
        let mut tx = Packetizer::new(header).with_events_per_frame(13);
        let mut wire = tx.hello();
        for f in tx.data_frames(&events) {
            wire.extend_from_slice(&f);
        }
        wire.extend_from_slice(&tx.bye());

        let mut auto = StreamDecoder::new();
        let mut scalar = StreamDecoder::new().with_varint_policy(VarintPolicy::ForceScalar);
        for chunk in wire.chunks(23) {
            auto.push_bytes(chunk);
            scalar.push_bytes(chunk);
        }
        assert_eq!(decoded(&mut auto), decoded(&mut scalar));
        assert_eq!(auto.stats(), scalar.stats());
        assert_eq!(auto.watermark_s().to_bits(), scalar.watermark_s().to_bits());
    }

    #[test]
    fn data_before_hello_is_orphaned_not_crashed() {
        let (_, frames, _) = session_frames(20, 10);
        let mut rx = StreamDecoder::new();
        rx.push_bytes(&frames[1]);
        assert_eq!(rx.stats().orphan_frames, 1);
        assert_eq!(rx.stats().events_decoded, 0);
    }
}
