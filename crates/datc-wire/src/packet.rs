//! Payload codecs and the transmit-side [`Packetizer`].
//!
//! Three payload formats ride inside the [`crate::frame`] framing:
//!
//! **HELLO** (30 bytes, fixed): `session_id:u32 LE`, `n_channels:u16 LE`
//! (1–256), then the session timebase as raw IEEE-754 bit patterns —
//! `tick_rate_hz`, `tick_period_s`, `duration_s` (each `u64 LE`).
//! Carrying the period *bits* (not recomputing `1/rate` at the receiver)
//! is what makes decoded timestamps bit-identical to the encoder's.
//!
//! **DATA** (variable): `first_index:varint` (cumulative event index of
//! the first event in the session — the loss-accounting backbone),
//! `n_events:varint`, then per event:
//!
//! ```text
//!  addr:u8   key:u8   [delta_ext:varint]   [code:u8]
//!  key: bit7 = code present, bit6 = delta_ext follows,
//!       bits 5..0 = low 6 bits of the tick delta
//!  delta = low6 | delta_ext << 6
//! ```
//!
//! The first event's delta is its *absolute* tick (packets are
//! self-contained — losing one never corrupts the next); later deltas
//! are relative to the previous event in the same packet. A typical
//! D-ATC event costs 3 bytes (address + key + code) plus one
//! `delta_ext` byte when the gap exceeds 63 ticks.
//!
//! **DATA-V2** (variable): one `nonce:u8` byte, then the DATA payload
//! unchanged. The nonce is [`SessionHeader::nonce`] — a CRC-8 of the
//! encoded HELLO — computed independently by both ends, so the HELLO
//! format itself never changes. It pins every DATA frame to its
//! session: a receiver that sees a stale or foreign frame arrive over a
//! reused transport address drops it instead of misattributing its
//! events. DATA-V2 is the only DATA revision: the nonce-less
//! revision-1 frame type (0x02) is retired, and decoders skip it whole
//! as an unknown type.
//!
//! **BYE** (variable): `total_events:varint`, `n_channels:varint`, then
//! one sent-count varint per channel — the receiver subtracts its own
//! tallies for exact per-channel loss.
//!
//! **FEEDBACK** (variable): `nonce:u8` (the same CRC-8 session nonce
//! DATA-V2 carries, so a sender on a reused address never applies a
//! foreign session's feedback), `next_index:varint` (highest-contiguous
//! event index the receiver has released), `events_lost:varint`
//! (cumulative exact loss booked so far), `reorder_depth:varint`
//! (events parked in the reorder buffer), `pressure:u8` (hub load
//! level, 0 = idle … 255 = saturated), then `n_holes:varint` (at most
//! [`MAX_FEEDBACK_HOLES`]) and per hole `gap:varint` `len:varint`: the
//! missing event spans between `next_index` and the end of the parked
//! data, in order, each gap counted from the previous hole's end (the
//! first from `next_index`). The only frame that travels
//! receiver→sender; see [`FeedbackSummary`].

use crate::batch::EventBatch;
use crate::frame::{encode_frame, FrameType, HEADER_LEN, MAX_PAYLOAD};
use crate::varint::{read_varint, read_varint_with, write_varint, VarintPolicy, MAX_VARINT_LEN};
use datc_uwb::aer::AddressedEvent;
use std::ops::Range;

/// Everything a receiver needs to turn tick-domain events back into
/// timestamped [`Event`](datc_core::Event)s, announced once per session.
///
/// # Example
///
/// ```
/// use datc_wire::packet::SessionHeader;
/// let h = SessionHeader::new(7, 4, 2000.0, 20.0);
/// assert_eq!(h.tick_period_s, 1.0 / 2000.0);
/// let bytes = h.encode();
/// assert_eq!(SessionHeader::decode(&bytes), Some(h));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionHeader {
    /// Session identifier (unique per sensor connection).
    pub session_id: u32,
    /// Number of AER channels multiplexed in this session (1–256).
    pub n_channels: u16,
    /// The tick rate the `tick` fields count at, Hz.
    pub tick_rate_hz: f64,
    /// Seconds per tick — the *exact* factor the transmitter multiplied
    /// ticks by, so `time = tick * tick_period_s` reproduces its
    /// timestamps bit-for-bit.
    pub tick_period_s: f64,
    /// Observation-window length, seconds.
    pub duration_s: f64,
}

/// Encoded HELLO payload length.
pub const HELLO_LEN: usize = 30;

impl SessionHeader {
    /// Builds a header with the canonical period `1 / tick_rate_hz`.
    ///
    /// # Panics
    ///
    /// Panics when `n_channels` is outside 1–256 or the rate/duration is
    /// not positive and finite.
    pub fn new(session_id: u32, n_channels: u16, tick_rate_hz: f64, duration_s: f64) -> Self {
        assert!(
            (1..=256).contains(&n_channels),
            "AER sessions carry 1–256 channels, got {n_channels}"
        );
        assert!(
            tick_rate_hz > 0.0 && tick_rate_hz.is_finite(),
            "tick rate must be positive and finite"
        );
        assert!(
            duration_s > 0.0 && duration_s.is_finite(),
            "duration must be positive and finite"
        );
        SessionHeader {
            session_id,
            n_channels,
            tick_rate_hz,
            tick_period_s: 1.0 / tick_rate_hz,
            duration_s,
        }
    }

    /// Serialises the HELLO payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HELLO_LEN);
        out.extend_from_slice(&self.session_id.to_le_bytes());
        out.extend_from_slice(&self.n_channels.to_le_bytes());
        out.extend_from_slice(&self.tick_rate_hz.to_bits().to_le_bytes());
        out.extend_from_slice(&self.tick_period_s.to_bits().to_le_bytes());
        out.extend_from_slice(&self.duration_s.to_bits().to_le_bytes());
        out
    }

    /// Parses a HELLO payload; `None` on wrong length or invalid fields.
    pub fn decode(payload: &[u8]) -> Option<SessionHeader> {
        if payload.len() != HELLO_LEN {
            return None;
        }
        let u64_at = |o: usize| u64::from_le_bytes(payload[o..o + 8].try_into().unwrap());
        let header = SessionHeader {
            session_id: u32::from_le_bytes(payload[0..4].try_into().unwrap()),
            n_channels: u16::from_le_bytes(payload[4..6].try_into().unwrap()),
            tick_rate_hz: f64::from_bits(u64_at(6)),
            tick_period_s: f64::from_bits(u64_at(14)),
            duration_s: f64::from_bits(u64_at(22)),
        };
        let valid = (1..=256).contains(&header.n_channels)
            && header.tick_rate_hz > 0.0
            && header.tick_rate_hz.is_finite()
            && header.tick_period_s > 0.0
            && header.tick_period_s.is_finite()
            && header.duration_s > 0.0
            && header.duration_s.is_finite();
        valid.then_some(header)
    }

    /// The one-byte session nonce DATA-V2 frames carry: a CRC-8 of the
    /// encoded HELLO payload. Both ends derive it independently from
    /// the header they already hold, so the handshake format is
    /// untouched. Distinct sessions on a reused transport address
    /// almost surely disagree in at least one header field, giving the
    /// receiver a cheap per-frame session check (an 8-bit check — a
    /// misattribution guard, not an authenticator).
    ///
    /// # Example
    ///
    /// ```
    /// use datc_wire::packet::SessionHeader;
    /// let a = SessionHeader::new(1, 4, 2000.0, 20.0);
    /// let b = SessionHeader::new(2, 4, 2000.0, 20.0);
    /// assert_ne!(a.nonce(), b.nonce());
    /// ```
    pub fn nonce(&self) -> u8 {
        datc_uwb::crc::crc8(&self.encode())
    }
}

/// One event as it travels on the wire: address + absolute tick +
/// optional threshold code. Time is *derived* at the receiver from the
/// session timebase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireEvent {
    /// AER channel address.
    pub addr: u8,
    /// Absolute clock tick.
    pub tick: u64,
    /// Threshold code, when the event carries one (D-ATC).
    pub code: Option<u8>,
}

const KEY_HAS_CODE: u8 = 0x80;
const KEY_EXT: u8 = 0x40;
const KEY_DELTA_MASK: u8 = 0x3F;

/// Serialises one DATA payload from a tick-ordered event run.
///
/// # Panics
///
/// Panics when `events` is not tick-ordered (deltas would be negative).
///
/// # Example
///
/// ```
/// use datc_wire::batch::EventBatch;
/// use datc_wire::packet::{decode_data_into, encode_data, WireEvent};
/// let events = vec![
///     WireEvent { addr: 0, tick: 1000, code: Some(7) },
///     WireEvent { addr: 3, tick: 1010, code: None },
/// ];
/// let payload = encode_data(42, &events);
/// let mut batch = EventBatch::new();
/// assert_eq!(decode_data_into(&payload, &mut batch), Some(42));
/// assert_eq!(batch.iter().collect::<Vec<_>>(), events);
/// ```
pub fn encode_data(first_index: u64, events: &[WireEvent]) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 + 4 * events.len());
    write_varint(first_index, &mut out);
    write_varint(events.len() as u64, &mut out);
    let mut prev_tick: Option<u64> = None;
    for e in events {
        let delta = match prev_tick {
            None => e.tick, // self-contained: absolute tick
            Some(p) => e
                .tick
                .checked_sub(p)
                .expect("events must be tick-ordered within a packet"),
        };
        prev_tick = Some(e.tick);
        out.push(e.addr);
        let low = (delta & u64::from(KEY_DELTA_MASK)) as u8;
        let ext = delta >> 6;
        let mut key = low;
        if ext > 0 {
            key |= KEY_EXT;
        }
        if e.code.is_some() {
            key |= KEY_HAS_CODE;
        }
        out.push(key);
        if ext > 0 {
            write_varint(ext, &mut out);
        }
        if let Some(c) = e.code {
            out.push(c);
        }
    }
    out
}

/// Parses a DATA payload *into* a caller-supplied [`EventBatch`] arena,
/// appending the decoded events column-wise and returning the packet's
/// `first_index` (the cumulative index of its first event within the
/// session). On truncation, trailing garbage or varint overflow the
/// batch is rolled back to its pre-call length and `None` is returned —
/// a failed decode never leaks partial events into the arena.
///
/// This is the zero-copy decode entry point: event fields go straight
/// from the receive buffer into the arena's columns with no per-packet
/// `Vec<WireEvent>` and no intermediate event structs.
///
/// # Example
///
/// ```
/// use datc_wire::batch::EventBatch;
/// use datc_wire::packet::{decode_data_into, encode_data, WireEvent};
/// let payload = encode_data(42, &[WireEvent { addr: 1, tick: 70, code: Some(3) }]);
/// let mut arena = EventBatch::new();
/// assert_eq!(decode_data_into(&payload, &mut arena), Some(42));
/// assert_eq!(arena.ticks(), &[70]);
/// ```
pub fn decode_data_into(payload: &[u8], batch: &mut EventBatch) -> Option<u64> {
    decode_data_into_with(payload, batch, VarintPolicy::Auto)
}

/// [`decode_data_into`] with an explicit varint decode policy
/// (`ForceScalar` pins the reference LEB128 path for equivalence
/// testing).
pub fn decode_data_into_with(
    payload: &[u8],
    batch: &mut EventBatch,
    policy: VarintPolicy,
) -> Option<u64> {
    let restore = batch.len();
    let decoded = decode_data_append(payload, batch, policy);
    if decoded.is_none() {
        batch.truncate(restore);
    }
    decoded
}

#[inline]
fn decode_data_append(payload: &[u8], batch: &mut EventBatch, policy: VarintPolicy) -> Option<u64> {
    let (first_index, mut off) = read_varint_with(payload, policy)?;
    let (n, used) = read_varint_with(&payload[off..], policy)?;
    off += used;
    // Every event costs at least two payload bytes, so clamping the
    // reservation keeps a forged count from ballooning the arena.
    batch.reserve(n.min(payload.len() as u64 / 2 + 1) as usize);
    let mut prev_tick: Option<u64> = None;
    for _ in 0..n {
        if payload.len() - off < 2 {
            return None;
        }
        // SAFETY: the bound check above guarantees `off + 1` is in
        // range (`off <= payload.len()` is a loop invariant: every
        // advance below is validated before it happens).
        let (addr, key) = unsafe { (*payload.get_unchecked(off), *payload.get_unchecked(off + 1)) };
        off += 2;
        let mut delta = u64::from(key & KEY_DELTA_MASK);
        if key & KEY_EXT != 0 {
            let (ext, used) = read_varint_with(&payload[off..], policy)?;
            off += used;
            delta |= ext.checked_shl(6).filter(|&v| v >> 6 == ext)?;
        }
        let code = if key & KEY_HAS_CODE != 0 {
            let c = *payload.get(off)?;
            off += 1;
            Some(c)
        } else {
            None
        };
        let tick = match prev_tick {
            None => delta,
            Some(p) => p.checked_add(delta)?,
        };
        prev_tick = Some(tick);
        batch.push(addr, tick, code);
    }
    (off == payload.len()).then_some(first_index)
}

/// Serialises one DATA-V2 payload: the session nonce, then the DATA
/// payload unchanged.
///
/// # Example
///
/// ```
/// use datc_wire::batch::EventBatch;
/// use datc_wire::packet::{decode_data_into, encode_data_v2, WireEvent};
/// let events = vec![WireEvent { addr: 0, tick: 70, code: Some(3) }];
/// let payload = encode_data_v2(0x5A, 7, &events);
/// assert_eq!(payload[0], 0x5A); // the nonce leads
/// let mut batch = EventBatch::new();
/// assert_eq!(decode_data_into(&payload[1..], &mut batch), Some(7));
/// assert_eq!(batch.iter().collect::<Vec<_>>(), events);
/// ```
pub fn encode_data_v2(nonce: u8, first_index: u64, events: &[WireEvent]) -> Vec<u8> {
    let mut out = Vec::with_capacity(3 + 4 * events.len());
    out.push(nonce);
    out.extend_from_slice(&encode_data(first_index, events));
    out
}

/// Per-channel sent totals announced at session close.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ByeSummary {
    /// Events sent over the whole session.
    pub total_events: u64,
    /// Events sent per channel (`n_channels` entries).
    pub per_channel: Vec<u64>,
}

impl ByeSummary {
    /// Serialises the BYE payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(2 + 2 * self.per_channel.len());
        write_varint(self.total_events, &mut out);
        write_varint(self.per_channel.len() as u64, &mut out);
        for &c in &self.per_channel {
            write_varint(c, &mut out);
        }
        out
    }

    /// Parses a BYE payload; `None` on truncation or trailing garbage.
    ///
    /// # Example
    ///
    /// ```
    /// use datc_wire::packet::ByeSummary;
    /// let bye = ByeSummary { total_events: 10, per_channel: vec![4, 6] };
    /// assert_eq!(ByeSummary::decode(&bye.encode()), Some(bye));
    /// ```
    pub fn decode(payload: &[u8]) -> Option<ByeSummary> {
        let (total_events, mut off) = read_varint(payload)?;
        let (n, used) = read_varint(&payload[off..])?;
        off += used;
        if n > 256 {
            return None;
        }
        let mut per_channel = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let (c, used) = read_varint(&payload[off..])?;
            off += used;
            per_channel.push(c);
        }
        (off == payload.len()).then_some(ByeSummary {
            total_events,
            per_channel,
        })
    }
}

/// Most missing event spans one FEEDBACK report lists (see
/// [`FeedbackSummary::holes`]).
pub const MAX_FEEDBACK_HOLES: usize = 16;

/// Upper bound on an encoded FEEDBACK payload: the five fixed fields,
/// the hole count and [`MAX_FEEDBACK_HOLES`] gap/length varint pairs.
/// A FEEDBACK frame is at most this plus [`HEADER_LEN`] and the CRC.
pub const MAX_FEEDBACK_PAYLOAD: usize =
    2 + 3 * MAX_VARINT_LEN + 1 + MAX_FEEDBACK_HOLES * 2 * MAX_VARINT_LEN;

/// A receiver→sender flow-control report, the FEEDBACK frame payload.
///
/// Snapshotted from the receiver's exact books at a configurable
/// cadence and written back by the UDP hub in a datagram to the peer
/// address (a TCP hub writes none). The sender's
/// [`flow`](crate::flow) module turns these into AIMD pacing decisions
/// and gap-repair retransmissions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeedbackSummary {
    /// Session nonce ([`SessionHeader::nonce`]) — lets the sender drop
    /// feedback that belongs to another session on a reused address.
    pub nonce: u8,
    /// Highest-contiguous event index released by the decoder: every
    /// event below this index was either delivered or booked as lost.
    pub next_index: u64,
    /// Cumulative exact event loss booked so far.
    pub events_lost: u64,
    /// Events currently parked in the reorder buffer.
    pub reorder_depth: u64,
    /// Hub pressure level: 0 = idle, 255 = saturated (derived from
    /// in-flight sessions vs capacity plus shed/quarantine activity).
    pub pressure: u8,
    /// The missing event spans between `next_index` and the end of the
    /// parked data, in order and non-empty: the first starts at
    /// `next_index` whenever `reorder_depth > 0`. At most
    /// [`MAX_FEEDBACK_HOLES`]; a report at the cap may leave later holes
    /// out.
    pub holes: Vec<Range<u64>>,
}

impl FeedbackSummary {
    /// Serialises the FEEDBACK payload.
    ///
    /// # Panics
    ///
    /// Panics when the report lists more than [`MAX_FEEDBACK_HOLES`]
    /// holes, or a hole that is empty or not after the previous one.
    pub fn encode(&self) -> Vec<u8> {
        assert!(
            self.holes.len() <= MAX_FEEDBACK_HOLES,
            "a FEEDBACK report lists at most {MAX_FEEDBACK_HOLES} holes"
        );
        let mut out = Vec::with_capacity(MAX_FEEDBACK_PAYLOAD);
        out.push(self.nonce);
        write_varint(self.next_index, &mut out);
        write_varint(self.events_lost, &mut out);
        write_varint(self.reorder_depth, &mut out);
        out.push(self.pressure);
        write_varint(self.holes.len() as u64, &mut out);
        let mut end = self.next_index;
        for hole in &self.holes {
            assert!(
                end <= hole.start && hole.start < hole.end,
                "FEEDBACK holes must be non-empty and in order"
            );
            write_varint(hole.start - end, &mut out);
            write_varint(hole.end - hole.start, &mut out);
            end = hole.end;
        }
        out
    }

    /// Parses a FEEDBACK payload; `None` on truncation, trailing
    /// garbage, more than [`MAX_FEEDBACK_HOLES`] holes, or a hole that
    /// is empty or ends past `u64::MAX`.
    ///
    /// # Example
    ///
    /// ```
    /// use datc_wire::packet::FeedbackSummary;
    /// let fb = FeedbackSummary {
    ///     nonce: 0x5A,
    ///     next_index: 1000,
    ///     events_lost: 12,
    ///     reorder_depth: 64,
    ///     pressure: 0,
    ///     holes: vec![1000..1064, 1128..1192],
    /// };
    /// assert_eq!(FeedbackSummary::decode(&fb.encode()), Some(fb));
    /// ```
    pub fn decode(payload: &[u8]) -> Option<FeedbackSummary> {
        let (&nonce, rest) = payload.split_first()?;
        let (next_index, mut off) = read_varint(rest)?;
        let (events_lost, used) = read_varint(&rest[off..])?;
        off += used;
        let (reorder_depth, used) = read_varint(&rest[off..])?;
        off += used;
        let &pressure = rest.get(off)?;
        off += 1;
        let (n_holes, used) = read_varint(&rest[off..])?;
        off += used;
        if n_holes > MAX_FEEDBACK_HOLES as u64 {
            return None;
        }
        let mut holes = Vec::with_capacity(n_holes as usize);
        let mut end = next_index;
        for _ in 0..n_holes {
            let (gap, used) = read_varint(&rest[off..])?;
            off += used;
            let (len, used) = read_varint(&rest[off..])?;
            off += used;
            let start = end.checked_add(gap)?;
            end = start.checked_add(len)?;
            if len == 0 {
                return None;
            }
            holes.push(start..end);
        }
        (off == rest.len()).then_some(FeedbackSummary {
            nonce,
            next_index,
            events_lost,
            reorder_depth,
            pressure,
            holes,
        })
    }
}

/// Transmit-side state machine: splits an addressed-event stream into
/// framed HELLO / DATA / BYE byte chunks, tracking sequence numbers,
/// cumulative indices and the per-channel totals the BYE announces.
///
/// # Example
///
/// ```
/// use datc_core::Event;
/// use datc_uwb::aer::AddressedEvent;
/// use datc_wire::packet::{Packetizer, SessionHeader};
///
/// let header = SessionHeader::new(1, 2, 2000.0, 1.0);
/// let mut tx = Packetizer::new(header);
/// let events: Vec<AddressedEvent> = (0..100)
///     .map(|i| AddressedEvent {
///         channel: (i % 2) as u8,
///         event: Event::at_tick(i * 7, header.tick_period_s, Some(3)),
///     })
///     .collect();
/// let mut wire = tx.hello();
/// for frame in tx.data_frames(&events) {
///     wire.extend_from_slice(&frame);
/// }
/// wire.extend_from_slice(&tx.bye());
/// assert_eq!(tx.events_sent(), 100);
/// assert!(tx.bytes_emitted() as usize >= wire.len());
/// ```
#[derive(Debug, Clone)]
pub struct Packetizer {
    header: SessionHeader,
    nonce: u8,
    seq: u16,
    next_index: u64,
    last_tick: Option<u64>,
    per_channel_sent: Vec<u64>,
    max_events_per_frame: usize,
    frames: u64,
    bytes: u64,
}

/// Default events per DATA frame (a full frame stays ~300 bytes).
pub const DEFAULT_EVENTS_PER_FRAME: usize = 64;

impl Packetizer {
    /// Creates a packetizer for one session.
    pub fn new(header: SessionHeader) -> Self {
        Packetizer {
            header,
            nonce: header.nonce(),
            seq: 0,
            next_index: 0,
            last_tick: None,
            per_channel_sent: vec![0; usize::from(header.n_channels)],
            max_events_per_frame: DEFAULT_EVENTS_PER_FRAME,
            frames: 0,
            bytes: 0,
        }
    }

    /// Overrides the events-per-DATA-frame cap (clamped to at least 1;
    /// the frame's worst-case encoding must fit `MAX_PAYLOAD`).
    pub fn with_events_per_frame(mut self, n: usize) -> Self {
        // addr + key + 10-byte delta ext + code = 13 bytes worst case,
        // plus ~22 bytes of indices and the V2 nonce byte.
        let cap = (MAX_PAYLOAD - 23) / 13;
        self.max_events_per_frame = n.clamp(1, cap);
        self
    }

    /// The session header this packetizer announces.
    pub fn header(&self) -> &SessionHeader {
        &self.header
    }

    /// Events packed into each DATA frame (the chunking
    /// [`data_frames`](Packetizer::data_frames) applies) — what a
    /// sender needs to reconstruct per-frame index spans, e.g. when
    /// recording frames into a [`ReplayBuffer`](crate::flow::ReplayBuffer).
    pub fn events_per_frame(&self) -> usize {
        self.max_events_per_frame
    }

    /// Builds the framed HELLO chunk (send first).
    pub fn hello(&mut self) -> Vec<u8> {
        self.frame(FrameType::Hello, &self.header.encode())
    }

    /// Splits `events` into framed DATA chunks. Call repeatedly with
    /// successive runs of the (tick-ordered) session stream.
    ///
    /// # Panics
    ///
    /// Panics when an event address is outside the announced channel
    /// count or ticks run backwards across/within calls.
    pub fn data_frames(&mut self, events: &[AddressedEvent]) -> Vec<Vec<u8>> {
        let mut frames = Vec::with_capacity(events.len() / self.max_events_per_frame + 1);
        for chunk in events.chunks(self.max_events_per_frame) {
            let wire_events: Vec<WireEvent> = chunk
                .iter()
                .map(|ae| {
                    assert!(
                        usize::from(ae.channel) < self.per_channel_sent.len(),
                        "event address {} outside the session's {} channels",
                        ae.channel,
                        self.per_channel_sent.len()
                    );
                    assert!(
                        self.last_tick.is_none_or(|t| ae.event.tick >= t),
                        "events must be tick-ordered across the session"
                    );
                    self.last_tick = Some(ae.event.tick);
                    self.per_channel_sent[usize::from(ae.channel)] += 1;
                    WireEvent {
                        addr: ae.channel,
                        tick: ae.event.tick,
                        code: ae.event.vth_code,
                    }
                })
                .collect();
            let payload = encode_data_v2(self.nonce, self.next_index, &wire_events);
            self.next_index += wire_events.len() as u64;
            frames.push(self.frame(FrameType::DataV2, &payload));
        }
        frames
    }

    /// Builds the framed BYE chunk (send last).
    pub fn bye(&mut self) -> Vec<u8> {
        let bye = ByeSummary {
            total_events: self.next_index,
            per_channel: self.per_channel_sent.clone(),
        };
        self.frame(FrameType::Bye, &bye.encode())
    }

    /// Events packetised so far.
    pub fn events_sent(&self) -> u64 {
        self.next_index
    }

    /// Frames emitted so far (all types).
    pub fn frames_emitted(&self) -> u64 {
        self.frames
    }

    /// Total wire bytes emitted so far, framing included.
    pub fn bytes_emitted(&self) -> u64 {
        self.bytes
    }

    fn frame(&mut self, ftype: FrameType, payload: &[u8]) -> Vec<u8> {
        let bytes = encode_frame(ftype, self.seq, payload);
        self.seq = self.seq.wrapping_add(1);
        self.frames += 1;
        self.bytes += bytes.len() as u64;
        bytes
    }
}

/// Convenience: packetises a whole session (HELLO + DATA + BYE) into one
/// contiguous wire image — the shape a lossless transport like the TCP
/// gateway sends.
///
/// # Example
///
/// ```
/// use datc_wire::packet::{encode_session, SessionHeader};
/// let header = SessionHeader::new(9, 1, 2000.0, 1.0);
/// let wire = encode_session(header, &[]);
/// assert!(wire.len() > 30); // hello + empty-session bye
/// ```
pub fn encode_session(header: SessionHeader, events: &[AddressedEvent]) -> Vec<u8> {
    let mut tx = Packetizer::new(header);
    let mut out = tx.hello();
    for f in tx.data_frames(events) {
        out.extend_from_slice(&f);
    }
    let bye = tx.bye();
    out.extend_from_slice(&bye);
    out
}

/// Rough per-event wire cost of a run of events, in bytes (framing
/// amortised over `DEFAULT_EVENTS_PER_FRAME`-event packets) — the
/// number the README's bytes-per-event table reports.
pub fn bytes_per_event(events: &[AddressedEvent], header: SessionHeader) -> f64 {
    if events.is_empty() {
        return 0.0;
    }
    let mut tx = Packetizer::new(header);
    let total: usize = tx.data_frames(events).iter().map(Vec::len).sum();
    total as f64 / events.len() as f64
}

// keep HEADER_LEN linked for the doc comment above
const _: usize = HEADER_LEN;

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(addr: u8, tick: u64, code: Option<u8>) -> WireEvent {
        WireEvent { addr, tick, code }
    }

    /// A DATA payload's first index and events, through a fresh arena.
    fn decode(payload: &[u8]) -> Option<(u64, Vec<WireEvent>)> {
        let mut batch = EventBatch::new();
        let first_index = decode_data_into(payload, &mut batch)?;
        Some((first_index, batch.iter().collect()))
    }

    #[test]
    fn data_round_trip_with_mixed_codes_and_gaps() {
        let events = vec![
            ev(0, 0, None),
            ev(255, 0, Some(255)),
            ev(3, 63, None),
            ev(3, 64, Some(0)),
            ev(7, 1_000_000, Some(15)),
            ev(7, u64::MAX, None),
        ];
        let payload = encode_data(999, &events);
        assert_eq!(decode(&payload), Some((999, events)));
    }

    #[test]
    fn small_delta_coded_event_is_three_bytes() {
        // addr + key + code, no extension byte for deltas < 64
        let payload = encode_data(0, &[ev(1, 0, Some(9)), ev(1, 63, Some(9))]);
        let index_overhead = 2; // two 1-byte varints
        assert_eq!(payload.len(), index_overhead + 3 + 3);
    }

    #[test]
    fn truncated_or_padded_data_rejected() {
        let payload = encode_data(0, &[ev(0, 100, Some(3)), ev(1, 200, None)]);
        for cut in 1..payload.len() {
            assert_eq!(decode(&payload[..cut]), None, "cut {cut}");
        }
        let mut padded = payload.clone();
        padded.push(0);
        assert_eq!(decode(&padded), None);
    }

    #[test]
    #[should_panic(expected = "tick-ordered")]
    fn backwards_ticks_rejected() {
        let _ = encode_data(0, &[ev(0, 10, None), ev(0, 9, None)]);
    }

    #[test]
    fn hello_rejects_corrupt_fields() {
        let h = SessionHeader::new(1, 256, 2000.0, 20.0);
        let good = h.encode();
        assert_eq!(SessionHeader::decode(&good), Some(h));
        let mut bad = good.clone();
        bad[4] = 0x00;
        bad[5] = 0x00; // zero channels
        assert_eq!(SessionHeader::decode(&bad), None);
        assert_eq!(SessionHeader::decode(&good[..29]), None);
    }

    #[test]
    fn packetizer_splits_and_accounts() {
        let header = SessionHeader::new(5, 3, 2000.0, 2.0);
        let mut tx = Packetizer::new(header).with_events_per_frame(10);
        let events: Vec<AddressedEvent> = (0..25)
            .map(|i| AddressedEvent {
                channel: (i % 3) as u8,
                event: datc_core::Event::at_tick(i * 11, header.tick_period_s, None),
            })
            .collect();
        let frames = tx.data_frames(&events);
        assert_eq!(frames.len(), 3); // 10 + 10 + 5
        assert_eq!(tx.events_sent(), 25);
        let bye = tx.bye();
        let parsed = match crate::frame::parse_frame(&bye) {
            crate::frame::ParseOutcome::Frame { frame, .. } => {
                ByeSummary::decode(frame.payload).unwrap()
            }
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(parsed.total_events, 25);
        assert_eq!(parsed.per_channel, vec![9, 8, 8]);
    }

    fn feedback(holes: Vec<Range<u64>>) -> FeedbackSummary {
        FeedbackSummary {
            nonce: 0xA7,
            next_index: 1 << 63,
            events_lost: u64::MAX,
            reorder_depth: u64::MAX,
            pressure: 255,
            holes,
        }
    }

    #[test]
    fn feedback_round_trips_and_rejects_truncation_and_padding() {
        let big = 1u64 << 57;
        let at_cap = (0..MAX_FEEDBACK_HOLES as u64)
            .map(|k| (1 << 63) + (2 * k + 1) * big..(1 << 63) + (2 * k + 2) * big)
            .collect();
        for fb in [
            feedback(Vec::new()),
            feedback(std::iter::once(u64::MAX - 64..u64::MAX).collect()),
            feedback(at_cap),
        ] {
            let payload = fb.encode();
            assert!(payload.len() <= MAX_FEEDBACK_PAYLOAD, "{fb:?}");
            assert_eq!(FeedbackSummary::decode(&payload), Some(fb));
            for cut in 0..payload.len() {
                assert_eq!(FeedbackSummary::decode(&payload[..cut]), None, "cut {cut}");
            }
            let mut padded = payload.clone();
            padded.push(0);
            assert_eq!(FeedbackSummary::decode(&padded), None);
        }
    }

    #[test]
    fn feedback_rejects_empty_overflowing_and_over_cap_hole_lists() {
        // the fixed fields of `feedback(..)`, then a raw hole list
        let with_holes = |count: u64, varints: &[u64]| {
            let mut payload = feedback(Vec::new()).encode();
            payload.pop(); // the zero hole count
            write_varint(count, &mut payload);
            for &v in varints {
                write_varint(v, &mut payload);
            }
            FeedbackSummary::decode(&payload)
        };
        assert!(with_holes(1, &[0, 1]).is_some(), "the raw builder is sound");
        assert_eq!(with_holes(1, &[0, 0]), None, "an empty span");
        assert_eq!(with_holes(2, &[0, 5, 3, 0]), None, "an empty later span");
        assert_eq!(with_holes(1, &[1 << 63, 1]), None, "a start past u64::MAX");
        assert_eq!(with_holes(1, &[0, 1 << 63]), None, "an end past u64::MAX");
        let over_cap = vec![1; 2 * (MAX_FEEDBACK_HOLES + 1)];
        assert_eq!(
            with_holes(MAX_FEEDBACK_HOLES as u64 + 1, &over_cap),
            None,
            "a count above the cap"
        );
        assert_eq!(with_holes(u64::MAX, &[]), None, "a count that cannot fit");
    }

    #[test]
    fn bytes_per_event_is_compact() {
        let header = SessionHeader::new(1, 8, 2000.0, 2.0);
        let events: Vec<AddressedEvent> = (0..512)
            .map(|i| AddressedEvent {
                channel: (i % 8) as u8,
                event: datc_core::Event::at_tick(i * 20, header.tick_period_s, Some(7)),
            })
            .collect();
        let bpe = bytes_per_event(&events, header);
        assert!(bpe < 5.0, "bytes/event {bpe}");
    }
}
