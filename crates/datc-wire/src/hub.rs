//! The hub session lifecycle, once for both transports: a socket-free
//! state machine (the sans-IO pattern of quinn-proto and h11).
//!
//! A [`HubCore`] owns every in-flight session of one hub. Its shell —
//! the TCP acceptor, readers and ticking worker in
//! [`gateway`](crate::gateway), the UDP receive loop in
//! [`udp`](crate::udp) — reads the socket, tells the core what
//! happened and when (`on_open`, `on_bytes`, `on_close` of a peer, and
//! `tick` as time passes), then executes the [`Action`]s the core
//! answers with: write these FEEDBACK bytes to a peer (only the UDP hub
//! runs with feedback on), close a peer. The core reads no clock and
//! touches no socket, so every rule below runs on a synthetic clock in
//! the tests.
//!
//! The rules are the [session lifecycle](crate::gateway#session-lifecycle)
//! the gateway documents, plus one only a reconnect can reach: a first
//! HELLO naming a session still live on another connection holds its
//! bytes until that session parks (*handoff*), for at most
//! [`RESUME_HANDOFF`].
//!
//! Where the transports differ, the shell supplies the difference: only
//! a connection has an accept and an EOF, so only the TCP shell calls
//! `on_open` and `on_close`. Hence only TCP peers are tracked before
//! their first frame (a HELLO split across reads waits for its rest),
//! only TCP sessions park, and only UDP addresses stay in the straggler
//! filter: a connection id is never reused, and its close clears it.

use crate::frame::{parse_frame, Frame, FrameType, ParseOutcome, HEADER_LEN, SYNC};
use crate::gateway::{HubConfig, HubSession, SessionTable, SinkFactory};
use crate::obs::SessionObs;
use crate::packet::{ByeSummary, SessionHeader};
use crate::session::SessionRx;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a connection whose first HELLO names a session still live
/// on another connection waits for that session to park (a reconnect
/// races the old connection's EOF).
pub(crate) const RESUME_HANDOFF: Duration = Duration::from_secs(2);

/// Bytes a connection may hold during a handoff before it stops waiting.
const HOLD_CAP: usize = 64 * 1024;

/// Minimum lifetime of a straggler-filter entry: generous against any
/// realistic reorder/duplicate delay, yet bounding the filter to the
/// sessions retired in the last minute (or
/// [`idle_timeout`](HubConfig::idle_timeout), whichever is longer).
const RETIRED_TTL: Duration = Duration::from_secs(60);

/// How often [`HubCore::tick`] prunes the straggler filter.
const PRUNE_EVERY: Duration = Duration::from_secs(1);

/// Why a hub retired an in-flight session: decides which [`HubHealth`]
/// counter [`Session::finish`] bumps besides `sessions_finished`.
///
/// [`HubHealth`]: crate::gateway::HubHealth
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EndReason {
    /// The session ended on its own: BYE, a close after its BYE, a
    /// takeover by the peer's next session, or hub shutdown.
    Closed,
    /// Force-retired with open books: an idle peer, or a parked session
    /// whose resume window expired or that a newer park displaced.
    Evicted,
    /// Over the framing-garbage budget.
    Quarantined,
}

/// What the core asks its shell to do.
#[derive(Debug)]
pub(crate) enum Action<P> {
    /// Write these FEEDBACK frame bytes to the peer (best effort).
    Send(P, Vec<u8>),
    /// Close the peer's connection, then report it with `on_close`. A
    /// datagram peer has nothing to close.
    Close(P),
}

/// A session identity: the HELLO's session id and DATA-V2 nonce.
type Identity = (u32, u8);

fn identity(header: &SessionHeader) -> Identity {
    (header.session_id, header.nonce())
}

/// A BYE that arrived on its own, held while its session still misses
/// events.
struct HeldBye {
    frame: Vec<u8>,
    /// The events the BYE announces (`None` when its payload is
    /// malformed: only the grace ends the wait).
    total_events: Option<u64>,
    /// The end of the grace window.
    until: Instant,
}

/// One in-flight hub session.
struct Session {
    conn_id: u64,
    rx: SessionRx,
    /// Bytes read off the transport.
    bytes_received: u64,
    held_bye: Option<HeldBye>,
    /// When the peer last delivered bytes — the idle-eviction clock.
    last_activity: Instant,
}

impl Session {
    /// Feeds a read or datagram: a lone BYE frame is held (a duplicate
    /// of a held BYE is dropped), everything else reaches the decoder.
    /// Answers why the session ends now, if it does: quarantined over
    /// its framing-garbage budget, or closed because a held BYE finds
    /// every event it announces released and nothing parked. Otherwise
    /// a held BYE waits out the grace window for what is missing.
    fn feed(&mut self, bytes: &[u8], now: Instant, config: &HubConfig) -> Option<EndReason> {
        self.last_activity = now;
        self.bytes_received += bytes.len() as u64;
        match leading(bytes, FrameType::Bye) {
            Some((bye, len)) if len == bytes.len() => {
                self.held_bye.get_or_insert_with(|| HeldBye {
                    frame: bytes.to_vec(),
                    total_events: ByeSummary::decode(bye.payload).map(|b| b.total_events),
                    until: now + config.bye_grace,
                });
            }
            _ => {
                self.rx.push_bytes(bytes);
                let budget = config.malformed_budget;
                if budget.is_some_and(|b| self.rx.framing_garbage() > b) {
                    return Some(EndReason::Quarantined);
                }
            }
        }
        let total = self.held_bye.as_ref().and_then(|bye| bye.total_events);
        total
            .is_some_and(|total| self.rx.is_complete(total))
            .then_some(EndReason::Closed)
    }

    /// Retires the session: flushes a held BYE into the decoder, closes
    /// the books, bumps the health counter `reason` names and lands the
    /// session in the table. Returns its header for the straggler filter.
    fn finish(mut self, reason: EndReason, table: &SessionTable) -> Option<SessionHeader> {
        if let Some(bye) = self.held_bye.take() {
            self.rx.push_bytes(&bye.frame);
        }
        match reason {
            EndReason::Closed => {}
            EndReason::Evicted => table.health.evicted.inc(),
            EndReason::Quarantined => table.health.quarantined.inc(),
        }
        let report = self.rx.finish();
        let header = report.header;
        table.insert(
            self.conn_id,
            HubSession {
                session_id: header.map_or(0, |h| h.session_id),
                bytes_received: self.bytes_received,
                report,
            },
        );
        header
    }
}

/// An open connection not bound to a session yet.
struct Pending {
    /// Bytes short of a complete first frame, or held for a handoff.
    bytes: Vec<u8>,
    last_activity: Instant,
    /// Set once a complete first frame arrived: the end of the handoff
    /// wait.
    deadline: Option<Instant>,
}

/// The session lifecycle of one hub, keyed by peer `P` (a connection
/// number or a source address). See the [module docs](self).
pub(crate) struct HubCore<P> {
    config: HubConfig,
    table: Arc<SessionTable>,
    sinks: Option<SinkFactory>,
    live: HashMap<P, Session>,
    pending: HashMap<P, Pending>,
    /// Sessions whose connection closed mid-session, awaiting a resume
    /// until their expiry.
    parked: HashMap<Identity, (Session, Instant)>,
    /// The straggler filter: retired peers with their session's header
    /// and retirement time. A late duplicate or reordered frame is
    /// dropped instead of resurrecting a ghost session; a CRC-valid
    /// HELLO with another header reopens the peer. Entries past the
    /// straggler horizon are pruned while eviction is enabled.
    retired: HashMap<P, (Option<SessionHeader>, Instant)>,
    actions: Vec<Action<P>>,
    next_prune: Option<Instant>,
}

impl<P: Copy + Eq + Hash> HubCore<P> {
    /// A core serving sessions into `table`, attaching a sink from
    /// `sinks` to every session it opens.
    pub(crate) fn new(
        config: HubConfig,
        table: Arc<SessionTable>,
        sinks: Option<SinkFactory>,
    ) -> HubCore<P> {
        HubCore {
            config,
            table,
            sinks,
            live: HashMap::new(),
            pending: HashMap::new(),
            parked: HashMap::new(),
            retired: HashMap::new(),
            actions: Vec::new(),
            next_prune: None,
        }
    }

    /// Moves the actions produced so far onto `out`.
    pub(crate) fn take_actions(&mut self, out: &mut Vec<Action<P>>) {
        out.append(&mut self.actions);
    }

    /// A connection was accepted: from now on it counts against the cap
    /// and runs on the idle clock. Shed when the hub is full.
    pub(crate) fn on_open(&mut self, peer: P, now: Instant) {
        if self.full() {
            return self.shed(peer);
        }
        let pending = Pending {
            bytes: Vec::new(),
            last_activity: now,
            deadline: None,
        };
        self.pending.insert(peer, pending);
    }

    /// A peer delivered `bytes` (one read, or one datagram).
    pub(crate) fn on_bytes(&mut self, peer: P, bytes: &[u8], now: Instant) {
        let hello = hello_header(bytes);
        match self.live.get_mut(&peer) {
            // A HELLO with another header is the peer's next session
            // taking over (the old one in BYE grace, or live because its
            // BYE was lost; one whose HELLO never arrived adopts it).
            Some(live) if hello.is_some_and(|h| live.rx.header().is_some_and(|o| *o != h)) => {
                let old = self.live.remove(&peer).expect("looked up above");
                old.finish(EndReason::Closed, &self.table);
            }
            Some(session) => {
                if let Some(reason) = session.feed(bytes, now, &self.config) {
                    let session = self.live.remove(&peer).expect("looked up above");
                    self.retire(peer, session, reason, now);
                }
                return;
            }
            None => {
                if let Some(&(closed, _)) = self.retired.get(&peer) {
                    if hello.is_none() || hello == closed {
                        return; // a straggler of the retired session
                    }
                    self.retired.remove(&peer);
                }
            }
        }
        if let Some(pending) = self.pending.get_mut(&peer) {
            pending.bytes.extend_from_slice(bytes);
            pending.last_activity = now;
            return self.settle(peer, now);
        }
        // A peer without a connection: the datagram alone must carry a
        // CRC-valid frame, or it allocates nothing.
        let Ok(start) = first_frame(bytes) else {
            return;
        };
        if self.full() {
            return self.shed(peer);
        }
        self.open(peer, &bytes[start..], now);
    }

    /// A connection reached EOF, or the shell closed it. A session that
    /// ended without its BYE parks for resume; anything else retires
    /// now. Nothing of the peer stays behind but a park.
    pub(crate) fn on_close(&mut self, peer: P, now: Instant) {
        if let Some(p) = self.pending.remove(&peer) {
            if p.deadline.is_none() {
                return; // no complete frame: no session
            }
            // a held handoff resolves now, then closes like any session
            self.open(peer, &p.bytes, now);
        }
        // after the open above, which may quarantine
        self.retired.remove(&peer);
        let Some(session) = self.live.remove(&peer) else {
            return;
        };
        let key = session.rx.header().map(identity);
        let resumable = session.held_bye.is_none() && !session.rx.is_closed();
        match (key, self.config.resume_window) {
            (Some(key), Some(window)) if resumable => {
                if let Some((displaced, _)) = self.parked.insert(key, (session, now + window)) {
                    displaced.finish(EndReason::Evicted, &self.table);
                }
            }
            _ => drop(session.finish(EndReason::Closed, &self.table)),
        }
    }

    /// Time passed: writes the FEEDBACK reports that came due, retires
    /// peers whose BYE grace ran out or that went idle, closes idle
    /// connections that never sent a frame, settles handoffs and expires
    /// parks.
    pub(crate) fn tick(&mut self, now: Instant) {
        let pressure = self.table.pressure_level(self.config.max_sessions);
        let idle = self.config.idle_timeout;
        let actions = &mut self.actions;
        let done: Vec<(P, Session)> = self
            .live
            .extract_if(|&peer, s| {
                if let Some(fb) = s.rx.feedback_due(pressure, now) {
                    actions.push(Action::Send(peer, fb));
                }
                s.held_bye.as_ref().is_some_and(|bye| bye.until <= now)
                    || idle.is_some_and(|t| now.duration_since(s.last_activity) >= t)
            })
            .collect();
        for (peer, session) in done {
            let reason = match session.held_bye {
                Some(_) => EndReason::Closed,
                None => EndReason::Evicted,
            };
            self.retire(peer, session, reason, now);
        }
        let pending: Vec<P> = self.pending.keys().copied().collect();
        for peer in pending {
            self.settle(peer, now);
        }
        for (_, (session, _)) in self.parked.extract_if(|_, &mut (_, at)| at <= now) {
            session.finish(EndReason::Evicted, &self.table);
        }
        if let Some(t) = idle {
            if self.next_prune.is_none_or(|at| now >= at) {
                let horizon = t.max(RETIRED_TTL);
                self.retired
                    .retain(|_, &mut (_, at)| now.duration_since(at) < horizon);
                self.next_prune = Some(now + PRUNE_EVERY);
            }
        }
    }

    /// Hub shutdown: held handoffs and live sessions finish now (held
    /// BYEs flushed, every decoded event delivered exactly once), and
    /// parked sessions, with nobody left to resume them, are evicted.
    pub(crate) fn shutdown(mut self, now: Instant) {
        for (peer, p) in std::mem::take(&mut self.pending) {
            if p.deadline.is_some() {
                self.open(peer, &p.bytes, now);
            }
        }
        for (_, session) in self.live.drain() {
            session.finish(EndReason::Closed, &self.table);
        }
        for (_, (session, _)) in self.parked.drain() {
            session.finish(EndReason::Evicted, &self.table);
        }
    }

    /// Closes a connection idle past the timeout; otherwise binds it to
    /// a session once its bytes hold a complete frame — unless its HELLO
    /// names a session still live on another connection: then the bytes
    /// wait (settled again on every `tick`) until that session parks, is
    /// gone, the handoff deadline passes or the hold outgrows its cap.
    fn settle(&mut self, peer: P, now: Instant) {
        let Some(pending) = self.pending.get_mut(&peer) else {
            return;
        };
        let idle = self.config.idle_timeout;
        if idle.is_some_and(|t| now.duration_since(pending.last_activity) >= t) {
            self.pending.remove(&peer);
            return self.actions.push(Action::Close(peer));
        }
        match first_frame(&pending.bytes) {
            Ok(start) => drop(pending.bytes.drain(..start)),
            Err(partial) => {
                // junk goes, a split frame stays
                pending.bytes.drain(..partial);
                return;
            }
        }
        let deadline = *pending.deadline.get_or_insert(now + RESUME_HANDOFF);
        let key = hello_header(&pending.bytes).as_ref().map(identity);
        if let Some(key) = key {
            let racing = self.config.resume_window.is_some()
                && !self.parked.contains_key(&key)
                && self
                    .live
                    .values()
                    .any(|s| s.rx.header().map(identity) == Some(key));
            if racing && now < deadline && pending.bytes.len() <= HOLD_CAP {
                return;
            }
        }
        let pending = self.pending.remove(&peer).expect("looked up above");
        self.open(peer, &pending.bytes, now);
    }

    /// Binds `peer` to the parked session the HELLO that `bytes` start
    /// with names (a resume), or to a fresh one — counted started, with
    /// its per-session series registered (retired when it finishes) and
    /// its sink attached — and feeds it.
    fn open(&mut self, peer: P, bytes: &[u8], now: Instant) {
        let key = hello_header(bytes).as_ref().map(identity);
        let table = &self.table;
        let mut session = match key.and_then(|k| self.parked.remove(&k)) {
            Some((session, _)) => {
                table.health.resumed.inc();
                session
            }
            None => {
                let conn_id = table.next_conn_id();
                table.health.started.inc();
                table.health.update_in_flight();
                let obs = SessionObs::register(table.registry(), &conn_id.to_string());
                let mut rx = SessionRx::new(self.config.session.clone())
                    .with_metrics(obs.with_retire_on_finish());
                if let Some(sinks) = &self.sinks {
                    rx = rx.with_sink(sinks(conn_id));
                }
                Session {
                    conn_id,
                    rx,
                    bytes_received: 0,
                    held_bye: None,
                    last_activity: now,
                }
            }
        };
        match session.feed(bytes, now, &self.config) {
            Some(reason) => self.retire(peer, session, reason, now),
            None => {
                self.live.insert(peer, session);
            }
        }
    }

    fn retire(&mut self, peer: P, session: Session, reason: EndReason, now: Instant) {
        let header = session.finish(reason, &self.table);
        self.retired.insert(peer, (header, now));
        self.actions.push(Action::Close(peer));
    }

    fn full(&self) -> bool {
        let held = self.live.len() + self.pending.len() + self.parked.len();
        self.config.max_sessions.is_some_and(|cap| held >= cap)
    }

    /// Turns a new peer away at the cap: counted, closed, never served.
    fn shed(&mut self, peer: P) {
        self.table.health.shed.inc();
        self.actions.push(Action::Close(peer));
    }
}

/// The CRC-valid `ftype` frame `bytes` start with, and its length. The
/// type byte is peeked first, so the steady-state DATA path pays only
/// the decoder's own parse.
fn leading(bytes: &[u8], ftype: FrameType) -> Option<(Frame<'_>, usize)> {
    if bytes.len() <= HEADER_LEN || bytes[..2] != SYNC || bytes[2] != ftype.to_byte() {
        return None;
    }
    match parse_frame(bytes) {
        ParseOutcome::Frame { frame, consumed } => Some((frame, consumed)),
        _ => None,
    }
}

/// The header of `bytes` when they start with a CRC-valid HELLO.
fn hello_header(bytes: &[u8]) -> Option<SessionHeader> {
    leading(bytes, FrameType::Hello).and_then(|(frame, _)| SessionHeader::decode(frame.payload))
}

/// Where the first CRC-valid frame of `bytes` starts, or `Err` with
/// where a trailing partial frame starts (`bytes.len()` when none) —
/// everything before either is junk.
fn first_frame(bytes: &[u8]) -> Result<usize, usize> {
    let mut at = 0;
    loop {
        match parse_frame(&bytes[at..]) {
            ParseOutcome::Frame { .. } => return Ok(at),
            ParseOutcome::NeedMore => return Err(at),
            ParseOutcome::Skip { skip, .. } => at += skip,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosLink, ChaosProfile};
    use crate::gateway::HubHealth;
    use crate::packet::Packetizer;
    use crate::sink::SessionSink;
    use datc_core::Event;
    use datc_uwb::aer::AddressedEvent;

    const MS: Duration = Duration::from_millis(1);
    const NS: Duration = Duration::from_nanos(1);

    fn header(id: u32) -> SessionHeader {
        SessionHeader::new(id, 1, 2000.0, 2.0)
    }

    fn events(h: &SessionHeader, n: u64) -> Vec<AddressedEvent> {
        (0..n)
            .map(|i| AddressedEvent {
                channel: (i % u64::from(h.n_channels)) as u8,
                event: Event::at_tick(i * 21, h.tick_period_s, Some((i % 16) as u8)),
            })
            .collect()
    }

    /// Session `id`'s HELLO, its `n` events in DATA frames of
    /// `per_frame`, and its BYE.
    fn frames(id: u32, n: u64, per_frame: usize) -> (Vec<u8>, Vec<Vec<u8>>, Vec<u8>) {
        let h = header(id);
        let mut tx = Packetizer::new(h).with_events_per_frame(per_frame);
        let hello = tx.hello();
        let data = tx.data_frames(&events(&h, n));
        (hello, data, tx.bye())
    }

    fn core(config: HubConfig) -> HubCore<u32> {
        HubCore::new(config, SessionTable::shared(), None)
    }

    fn actions(core: &mut HubCore<u32>) -> Vec<Action<u32>> {
        let mut out = Vec::new();
        core.take_actions(&mut out);
        out
    }

    fn closes(core: &mut HubCore<u32>) -> Vec<u32> {
        let mut out: Vec<u32> = actions(core)
            .into_iter()
            .filter_map(|a| match a {
                Action::Close(peer) => Some(peer),
                Action::Send(..) => None,
            })
            .collect();
        out.sort_unstable();
        out
    }

    fn landed(core: &HubCore<u32>, id: u32) -> crate::decode::WireStats {
        let sessions = core.table.snapshot();
        let s = sessions.iter().find(|s| s.session_id == id);
        s.expect("session landed").report.stats.clone()
    }

    fn health(core: &HubCore<u32>) -> HubHealth {
        core.table.health()
    }

    /// A CRC-broken DATA frame.
    fn bad_frame() -> Vec<u8> {
        let mut bad = crate::frame::encode_frame(FrameType::DataV2, 1, &[0u8; 16]);
        *bad.last_mut().unwrap() ^= 0xFF;
        bad
    }

    #[test]
    fn each_end_reason_bumps_its_own_counter_and_lands_one_session() {
        let mut core = core(HubConfig {
            malformed_budget: Some(0),
            ..HubConfig::default()
        });
        let table = Arc::clone(&core.table);
        let wire = crate::packet::encode_session(header(8), &[]);
        let reasons = [
            (EndReason::Closed, (0, 0)),
            (EndReason::Evicted, (1, 0)),
            (EndReason::Quarantined, (0, 1)),
        ];
        for (i, (reason, (evicted, quarantined))) in reasons.into_iter().enumerate() {
            core.open(1, &wire, Instant::now());
            let session = core.live.remove(&1).expect("clean bytes stay in budget");
            let before = table.health();
            session.finish(reason, &table);
            assert_eq!(table.len(), i + 1, "{reason:?} lands exactly one session");
            let landed = table.snapshot().into_iter().last().expect("just landed");
            assert_eq!(landed.bytes_received, wire.len() as u64);
            let expected = HubHealth {
                sessions_finished: before.sessions_finished + 1,
                in_flight: before.in_flight - 1,
                evicted: before.evicted + evicted,
                quarantined: before.quarantined + quarantined,
                ..before
            };
            assert_eq!(table.health(), expected, "{reason:?}");
        }
    }

    #[test]
    fn a_bye_retires_after_its_grace_and_stragglers_stay_filtered() {
        let mut core = core(HubConfig::default());
        let grace = core.config.bye_grace;
        let t0 = Instant::now();
        let (hello, data, bye) = frames(55, 30, 10);
        core.on_bytes(1, &hello, t0);
        // data[1] is lost: the BYE finds a hole and waits out its grace
        for f in [&data[0], &data[2]] {
            core.on_bytes(1, f, t0);
        }
        core.on_bytes(1, &bye, t0);
        core.tick(t0 + grace - NS);
        assert!(core.table.is_empty(), "the BYE is still in grace");
        core.tick(t0 + grace);
        assert_eq!(core.table.len(), 1, "grace over: the session landed");
        assert_eq!(closes(&mut core), vec![1]);
        let s = landed(&core, 55);
        assert!(s.closed && s.events_decoded == 20 && s.events_lost == 10);

        // a duplicate DATA and BYE, and a duplicate of the old HELLO,
        // cannot resurrect the address
        for f in [&data[0], &bye, &hello] {
            core.on_bytes(1, f, t0 + grace);
        }
        core.tick(t0 + 2 * grace);
        assert_eq!(core.table.len(), 1, "stragglers resurrect nothing");
        assert!(core.live.is_empty());

        // a HELLO with another header is the sensor's next session
        let (hello_b, data_b, bye_b) = frames(56, 10, 10);
        for f in [&hello_b, &data_b[0], &bye_b] {
            core.on_bytes(1, f, t0 + 3 * grace);
        }
        core.tick(t0 + 4 * grace);
        assert_eq!(core.table.len(), 2);
        assert_eq!(landed(&core, 56).events_decoded, 10);
    }

    #[test]
    fn whole_books_at_the_bye_land_the_session_with_no_tick() {
        let mut core = core(HubConfig::default());
        let t0 = Instant::now();
        let (hello, data, bye) = frames(57, 30, 10);
        core.on_bytes(1, &hello, t0);
        data.iter().for_each(|f| core.on_bytes(1, f, t0));
        core.on_bytes(1, &bye, t0);
        assert_eq!(core.table.len(), 1, "landed on the BYE itself");
        assert_eq!(closes(&mut core), vec![1]);
        let s = landed(&core, 57);
        assert!(s.closed && s.events_decoded == 30 && s.events_lost == 0);
        core.on_bytes(1, &bye, t0 + MS);
        assert!(core.live.is_empty(), "a duplicate BYE is a straggler");

        // a connection whose read is the lone BYE is closed at once
        let (hello, data, bye) = frames(58, 30, 10);
        core.on_open(7, t0);
        core.on_bytes(7, &[hello, data.concat()].concat(), t0);
        core.on_bytes(7, &bye, t0);
        assert_eq!(closes(&mut core), vec![7]);
        core.on_close(7, t0);
        let s = landed(&core, 58);
        assert!(s.closed && s.events_decoded == 30 && s.events_lost == 0);
        assert_eq!(core.table.len(), 2);
        assert!(core.live.is_empty() && core.pending.is_empty() && core.parked.is_empty());
        let h = health(&core);
        assert_eq!((h.sessions_finished, h.evicted, h.in_flight), (2, 0, 0));
    }

    #[test]
    fn a_late_tail_during_the_grace_lands_the_session_on_that_datagram() {
        let mut core = core(HubConfig::default());
        let t0 = Instant::now();
        let (hello, data, bye) = frames(60, 30, 10);
        // the BYE overtakes the last two DATA frames, which come back
        // out of order
        for (f, at) in [(&hello, 0), (&data[0], 1), (&bye, 2), (&data[2], 3)] {
            core.on_bytes(1, f, t0 + at * MS);
        }
        assert!(core.table.is_empty(), "data[1] is still missing");
        core.on_bytes(1, &data[1], t0 + 4 * MS);
        assert_eq!(core.table.len(), 1, "the tail completed the books");
        assert_eq!(closes(&mut core), vec![1]);
        let s = landed(&core, 60);
        assert_eq!((s.events_decoded, s.events_lost), (30, 0), "tail absorbed");
        assert!(s.closed);
    }

    #[test]
    fn a_new_hello_during_bye_grace_retires_the_old_session_at_once() {
        let mut core = core(HubConfig::default());
        let t0 = Instant::now();
        let (hello_a, data_a, bye_a) = frames(70, 25, 10);
        let (hello_b, data_b, bye_b) = frames(71, 15, 10);
        core.on_bytes(1, &hello_a, t0);
        // data_a[1] is lost, so A's BYE waits in its grace
        for f in [&data_a[0], &data_a[2]] {
            core.on_bytes(1, f, t0);
        }
        core.on_bytes(1, &bye_a, t0);
        assert!(core.table.is_empty(), "A is in its grace");
        core.on_bytes(1, &hello_b, t0 + MS);
        assert_eq!(
            core.table.len(),
            1,
            "A retired by the takeover, no tick needed"
        );
        let a = landed(&core, 70);
        assert!(a.closed && a.events_decoded == 15 && a.events_lost == 10);
        assert!(
            actions(&mut core).is_empty(),
            "the address stays open for B"
        );
        data_b.iter().for_each(|f| core.on_bytes(1, f, t0 + MS));
        core.on_bytes(1, &bye_b, t0 + MS);
        core.tick(t0 + MS + core.config.bye_grace);
        let b = landed(&core, 71);
        assert!(b.closed && b.events_decoded == 15 && b.events_lost == 0);
    }

    #[test]
    fn a_lost_bye_is_taken_over_by_the_next_hello_with_open_books() {
        let mut core = core(HubConfig::default());
        let t0 = Instant::now();
        let (hello_a, data_a, _lost_bye) = frames(80, 20, 10);
        core.on_bytes(1, &hello_a, t0);
        data_a.iter().for_each(|f| core.on_bytes(1, f, t0));
        let (hello_b, data_b, bye_b) = frames(81, 10, 10);
        core.on_bytes(1, &hello_b, t0);
        let a = landed(&core, 80);
        assert!(
            !a.closed && a.events_decoded == 20,
            "A retired, its BYE lost"
        );
        core.on_bytes(1, &data_b[0], t0);
        core.on_bytes(1, &bye_b, t0);
        core.shutdown(t0);
    }

    #[test]
    fn a_tail_reordered_past_the_next_hello_is_foreign_not_misattributed() {
        let mut core = core(HubConfig::default());
        let t0 = Instant::now();
        let (hello_a, data_a, _lost_bye) = frames(90, 20, 10);
        let (hello_b, data_b, bye_b) = frames(91, 10, 10);
        for f in [
            &hello_a, &data_a[0], &hello_b, &data_a[1], &data_b[0], &bye_b,
        ] {
            core.on_bytes(1, f, t0);
        }
        core.tick(t0 + core.config.bye_grace);
        assert_eq!(landed(&core, 90).events_decoded, 10);
        let b = landed(&core, 91);
        assert_eq!(b.foreign_frames, 1, "A's straggler dropped as foreign");
        assert_eq!((b.events_decoded, b.events_lost, b.gaps), (10, 0, 0));
    }

    #[test]
    fn junk_allocates_nothing() {
        let made = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let sinks: SinkFactory = {
            let made = Arc::clone(&made);
            Arc::new(move |_| {
                made.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                struct Null;
                impl SessionSink for Null {}
                Box::new(Null)
            })
        };
        let mut core: HubCore<u32> =
            HubCore::new(HubConfig::default(), SessionTable::shared(), Some(sinks));
        let t0 = Instant::now();
        let (hello, _, _) = frames(1, 0, 10);
        for i in 0..20u8 {
            core.on_bytes(u32::from(i), &[i, 0xFF, i ^ 0x55, 0x00, i], t0);
            core.on_bytes(u32::from(i), &hello[..hello.len() - 1], t0); // truncated
            core.on_bytes(u32::from(i), &bad_frame(), t0);
        }
        core.tick(t0);
        assert!(core.live.is_empty() && core.pending.is_empty() && core.retired.is_empty());
        core.shutdown(t0 + MS);
        assert_eq!(
            made.load(std::sync::atomic::Ordering::SeqCst),
            0,
            "no sink built"
        );
    }

    #[test]
    fn idle_peers_are_evicted_and_active_ones_outlive_the_timeout() {
        let idle = 60 * MS;
        let mut core = core(HubConfig {
            idle_timeout: Some(idle),
            ..HubConfig::default()
        });
        let t0 = Instant::now();
        let (hello, data, _lost_bye) = frames(90, 25, 5);
        let (hello_b, data_b, bye_b) = frames(95, 40, 5);
        core.on_bytes(1, &hello, t0);
        data.iter().for_each(|f| core.on_bytes(1, f, t0));
        // peer 2 sends every 50 ms: slow, but alive
        core.on_bytes(2, &hello_b, t0);
        for (k, f) in data_b.iter().enumerate() {
            let at = t0 + (k as u32 + 1) * 50 * MS;
            core.on_bytes(2, f, at);
            core.tick(at);
            if at < t0 + idle {
                assert!(core.table.is_empty(), "peer 1 still inside its timeout");
            }
        }
        let s = landed(&core, 90);
        assert!(
            !s.closed && s.events_decoded == 25,
            "evicted with open books"
        );
        assert_eq!(health(&core).evicted, 1);
        assert_eq!(closes(&mut core), vec![1]);
        let end = t0 + 400 * MS;
        core.on_bytes(2, &bye_b, end);
        core.on_bytes(1, &data[0], end); // a straggler of the evicted session
        core.tick(end + core.config.bye_grace);
        assert_eq!(core.table.len(), 2, "one session each, never split");
        let b = landed(&core, 95);
        assert!(b.closed && b.events_decoded == 40 && b.events_lost == 0);
    }

    #[test]
    fn a_lost_bye_session_is_flushed_at_shutdown() {
        let mut core = core(HubConfig::default());
        let t0 = Instant::now();
        let (hello, data, _lost_bye) = frames(77, 40, 10);
        core.on_bytes(1, &hello, t0);
        data.iter().for_each(|f| core.on_bytes(1, f, t0));
        let table = Arc::clone(&core.table);
        core.shutdown(t0);
        let s = &table.snapshot()[0].report.stats;
        assert!(!s.closed && s.events_decoded == 40, "flushed, books open");
    }

    #[test]
    fn a_full_hub_sheds_new_peers_and_keeps_known_ones_flowing() {
        let mut core = core(HubConfig {
            max_sessions: Some(1),
            ..HubConfig::default()
        });
        let t0 = Instant::now();
        let (hello, data, bye) = frames(1, 60, 10);
        let (hello_b, data_b, _) = frames(2, 20, 10);
        core.on_bytes(1, &hello, t0);
        core.on_bytes(2, &hello_b, t0);
        core.on_bytes(2, &data_b[0], t0);
        assert_eq!(closes(&mut core), vec![2, 2], "every frame of B is shed");
        data.iter().for_each(|f| core.on_bytes(1, f, t0));
        // a connection at the cap is shed at accept
        core.on_open(3, t0);
        assert_eq!(closes(&mut core), vec![3]);
        core.on_bytes(1, &bye, t0);
        assert_eq!(core.table.len(), 1, "only peer 1 got a session");
        assert_eq!(landed(&core, 1).events_decoded, 60);
        let h = health(&core);
        assert_eq!((h.shed, h.sessions_started), (3, 1));
    }

    #[test]
    fn a_garbage_flood_is_quarantined_and_its_peer_filtered() {
        let mut core = core(HubConfig {
            malformed_budget: Some(4),
            ..HubConfig::default()
        });
        let t0 = Instant::now();
        let (hello, _, _) = frames(6, 0, 10);
        core.on_open(7, t0);
        for peer in [1, 7] {
            core.on_bytes(peer, &hello, t0);
            for _ in 0..64 {
                core.on_bytes(peer, &bad_frame(), t0);
            }
        }
        assert_eq!(closes(&mut core), vec![1, 7]);
        assert_eq!(core.table.len(), 2, "each flood quarantined once");
        core.on_close(7, t0);
        assert!(core.live.is_empty() && core.pending.is_empty());
        assert_eq!(core.retired.len(), 1, "only the address stays filtered");
        let crc = core.table.snapshot()[0].report.stats.crc_failures;
        assert!(
            crc >= 4,
            "the decoder counted the garbage before the cutoff"
        );
        assert_eq!(health(&core).quarantined, 2);
    }

    #[test]
    fn stalled_and_silent_connections_close_on_the_idle_clock() {
        let idle = 60 * MS;
        let mut core = core(HubConfig {
            idle_timeout: Some(idle),
            ..HubConfig::default()
        });
        let t0 = Instant::now();
        let (hello, _, _) = frames(9, 0, 10);
        core.on_open(1, t0);
        core.on_bytes(1, &hello, t0); // …then says nothing, forever
        core.on_open(2, t0); // never says anything
        core.tick(t0 + idle - NS);
        assert!(closes(&mut core).is_empty());
        core.tick(t0 + idle);
        assert_eq!(closes(&mut core), vec![1, 2]);
        core.on_close(1, t0 + idle);
        core.on_close(2, t0 + idle);
        assert_eq!(core.table.len(), 1, "the silent one never had a session");
        assert!(!landed(&core, 9).closed, "books stay open: no BYE arrived");
        assert!(core.live.is_empty() && core.pending.is_empty() && core.retired.is_empty());
        let h = health(&core);
        assert_eq!((h.sessions_started, h.evicted), (1, 1));
    }

    #[test]
    fn tick_writes_feedback_on_the_session_cadence() {
        let every = 50 * MS;
        let mut core = core(HubConfig::default());
        assert_eq!(core.config.session.feedback_every, Some(every));
        let t0 = Instant::now();
        let (hello, data, _) = frames(4, 20, 10);
        core.on_bytes(1, &hello, t0);
        data.iter().for_each(|f| core.on_bytes(1, f, t0));
        let sends = |core: &mut HubCore<u32>| {
            let out = actions(core);
            assert!(out.iter().all(|a| matches!(a, Action::Send(1, _))));
            out.len()
        };
        core.tick(t0);
        assert_eq!(sends(&mut core), 1, "due at t0");
        core.tick(t0 + every - NS);
        assert_eq!(sends(&mut core), 0, "not due 1 ns early");
        core.tick(t0 + every);
        assert_eq!(sends(&mut core), 1, "due at t0 + every");
    }

    #[test]
    fn a_dropped_connection_parks_and_its_reconnect_resumes() {
        let mut core = core(HubConfig::default());
        let t0 = Instant::now();
        let (hello, data, bye) = frames(77, 40, 10);
        core.on_open(1, t0);
        core.on_bytes(1, &[hello.clone(), data[0].clone()].concat(), t0);
        core.on_close(1, t0 + MS); // no BYE: park
        assert!(core.table.is_empty() && core.parked.len() == 1);
        core.on_open(2, t0 + 2 * MS);
        // the re-HELLO split across reads waits for its rest
        core.on_bytes(2, &hello[..5], t0 + 2 * MS);
        assert!(core.live.is_empty(), "no session before the first frame");
        core.on_bytes(2, &hello[5..], t0 + 3 * MS);
        assert!(core.parked.is_empty(), "the reconnect adopted the park");
        // data[1] was lost in the outage
        core.on_bytes(2, &[data[2].clone(), data[3].clone()].concat(), t0 + 3 * MS);
        core.on_bytes(2, &bye, t0 + 3 * MS);
        core.on_close(2, t0 + 4 * MS);
        let s = landed(&core, 77);
        assert!(s.closed && s.events_decoded == 30 && s.events_lost == 10);
        assert_eq!(core.table.len(), 1, "one session, not two");
        assert!(core.live.is_empty() && core.pending.is_empty() && core.retired.is_empty());
        let h = health(&core);
        assert_eq!((h.sessions_started, h.resumed, h.in_flight), (1, 1, 0));
    }

    #[test]
    fn a_reconnect_racing_its_old_connection_holds_until_the_park() {
        let mut core = core(HubConfig::default());
        let t0 = Instant::now();
        let (hello, data, bye) = frames(12, 30, 10);
        core.on_open(1, t0);
        core.on_bytes(1, &[hello.clone(), data[0].clone()].concat(), t0);
        // the reconnect lands before the old connection's EOF
        core.on_open(2, t0 + MS);
        core.on_bytes(2, &[hello.clone(), data[1].clone()].concat(), t0 + MS);
        core.tick(t0 + 2 * MS);
        assert_eq!(core.live.len(), 1, "held, not opened");
        core.on_close(1, t0 + 3 * MS);
        core.tick(t0 + 4 * MS);
        assert!(
            core.parked.is_empty() && core.pending.is_empty(),
            "adopted on tick"
        );
        core.on_bytes(2, &[data[2].clone(), bye.clone()].concat(), t0 + 4 * MS);
        core.on_close(2, t0 + 5 * MS);
        let s = landed(&core, 12);
        assert!(s.closed && s.events_decoded == 30 && s.events_lost == 0);
        let h = health(&core);
        assert_eq!((h.sessions_started, h.resumed), (1, 1));
    }

    #[test]
    fn a_handoff_gives_up_at_its_deadline_and_a_second_park_displaces_the_first() {
        let mut core = core(HubConfig::default());
        let t0 = Instant::now();
        let (hello, data, _) = frames(13, 20, 10);
        core.on_open(1, t0);
        core.on_bytes(1, &[hello.clone(), data[0].clone()].concat(), t0);
        core.on_open(2, t0);
        core.on_bytes(2, &hello, t0);
        core.tick(t0 + RESUME_HANDOFF - NS);
        assert_eq!(core.live.len(), 1, "still waiting");
        core.tick(t0 + RESUME_HANDOFF);
        assert_eq!(core.live.len(), 2, "the deadline opened a fresh session");
        let later = t0 + RESUME_HANDOFF;
        core.on_close(1, later);
        core.on_close(2, later);
        assert_eq!(core.parked.len(), 1, "same identity: one park");
        assert_eq!(core.table.len(), 1, "the displaced park landed");
        assert_eq!(landed(&core, 13).events_decoded, 10);
        let h = health(&core);
        assert_eq!((h.sessions_started, h.evicted), (2, 1));
    }

    #[test]
    fn a_handoff_stops_holding_past_its_byte_cap() {
        let mut core = core(HubConfig::default());
        let t0 = Instant::now();
        let (hello, data, _) = frames(15, 40_000, 64);
        core.on_open(1, t0);
        core.on_bytes(1, &hello, t0);
        core.on_open(2, t0);
        core.on_bytes(2, &hello, t0);
        let mut held = hello.len();
        let mut data = data.iter();
        while held <= HOLD_CAP {
            assert_eq!(core.pending.len(), 1, "held at {held} bytes");
            let f = data.next().expect("enough data to pass the cap");
            core.on_bytes(2, f, t0);
            held += f.len();
        }
        assert!(core.pending.is_empty(), "past the cap: opened");
        assert_eq!(core.live.len(), 2, "as a fresh session");
    }

    #[test]
    fn a_handoff_closed_over_budget_leaves_no_straggler_entry() {
        let mut core = core(HubConfig {
            malformed_budget: Some(0),
            ..HubConfig::default()
        });
        let t0 = Instant::now();
        let (hello, _, _) = frames(14, 0, 10);
        core.on_open(1, t0);
        core.on_bytes(1, &hello, t0);
        core.on_open(2, t0);
        core.on_bytes(2, &[hello, bad_frame()].concat(), t0);
        assert_eq!(core.pending.len(), 1, "held for the handoff");
        core.on_close(2, t0 + MS);
        assert_eq!(closes(&mut core), vec![2], "quarantined as it resolved");
        assert!(core.retired.is_empty(), "a connection id is never filtered");
        assert_eq!(core.live.len(), 1, "the racing session is untouched");
        let h = health(&core);
        assert_eq!((h.sessions_started, h.quarantined), (2, 1));
    }

    #[test]
    fn parks_expire_after_the_resume_window_and_at_shutdown() {
        let window = core(HubConfig::default()).config.resume_window.unwrap();
        for at_shutdown in [false, true] {
            let mut core = core(HubConfig::default());
            let t0 = Instant::now();
            let (hello, data, _) = frames(21, 10, 10);
            core.on_open(1, t0);
            core.on_bytes(1, &[hello, data[0].clone()].concat(), t0);
            core.on_close(1, t0);
            core.tick(t0 + window - NS);
            assert_eq!(core.parked.len(), 1);
            let table = Arc::clone(&core.table);
            if at_shutdown {
                core.shutdown(t0 + window - NS);
            } else {
                core.tick(t0 + window);
                assert!(core.parked.is_empty());
            }
            let s = &table.snapshot()[0].report.stats;
            assert!(!s.closed && s.events_decoded == 10);
            assert_eq!(table.health().evicted, 1);
        }
    }

    /// splitmix64: the soak's schedule dice.
    struct Dice(u64);

    impl Dice {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// One step of a soak peer's schedule.
    enum Step {
        Open(u32),
        Bytes(u32, Vec<u8>),
        Close(u32),
    }

    /// What a soak peer sent, for the books.
    struct Sent {
        id: u32,
        events: u64,
        /// Events on units the chaos link never delivered intact.
        fate_lost: u64,
        exact: bool,
        reconnects: u64,
    }

    /// Peer `id`'s session through a seeded chaos link: as datagrams
    /// (keyed by `id`), or as a byte stream in random reads over
    /// connections (numbered from `next_conn`), where a chaos disconnect
    /// closes the connection and the next one re-sends the HELLO, as
    /// `SessionSender` does.
    fn peer_schedule(dice: &mut Dice, id: u32, next_conn: &mut u32) -> (Vec<Step>, Sent) {
        let profiles = [
            ChaosProfile::ideal(),
            ChaosProfile::lossy(),
            ChaosProfile::bursty(),
            ChaosProfile::mangler(),
            ChaosProfile::outage(6, 2),
        ];
        let profile = profiles[dice.below(profiles.len() as u64) as usize];
        let h = SessionHeader::new(id, 1 + dice.below(3) as u16, 2000.0, 2.0);
        let evs = events(&h, 20 + dice.below(130));
        let per_frame = 8;
        let mut tx = Packetizer::new(h).with_events_per_frame(per_frame);
        let mut link = ChaosLink::new(dice.next(), profile);
        let hello = tx.hello();
        // the wire units in order; `None` marks a disconnect
        let mut units = vec![Some(hello.clone())];
        let mut out = Vec::new();
        for frame in tx.data_frames(&evs) {
            link.push(&frame, &mut out);
            if link.take_disconnect() {
                units.push(None);
            }
            units.extend(out.drain(..).map(Some));
        }
        link.flush(&mut out);
        units.extend(out.drain(..).map(Some));
        units.push(Some(tx.bye()));
        let fate_lost = link
            .fates()
            .iter()
            .zip(evs.chunks(per_frame))
            .filter(|(f, _)| f.is_lost())
            .map(|(_, c)| c.len() as u64)
            .sum();
        let mut sent = Sent {
            id,
            events: evs.len() as u64,
            fate_lost,
            exact: profile.is_byte_exact(),
            reconnects: 0,
        };
        if dice.below(2) == 0 {
            let steps = units.into_iter().flatten().map(|u| Step::Bytes(id, u));
            return (steps.collect(), sent);
        }
        let mut steps = Vec::new();
        let mut stream = Vec::new();
        let mut conn = *next_conn;
        steps.push(Step::Open(conn));
        for unit in units {
            let Some(unit) = unit else {
                read_chunks(dice, conn, &mut stream, &mut steps);
                steps.push(Step::Close(conn));
                *next_conn += 1;
                conn = *next_conn;
                steps.push(Step::Open(conn));
                stream.extend_from_slice(&hello);
                sent.reconnects += 1;
                continue;
            };
            stream.extend_from_slice(&unit);
        }
        read_chunks(dice, conn, &mut stream, &mut steps);
        steps.push(Step::Close(conn));
        *next_conn += 1;
        (steps, sent)
    }

    /// Cuts a byte stream into reads of 1–256 bytes.
    fn read_chunks(dice: &mut Dice, conn: u32, stream: &mut Vec<u8>, steps: &mut Vec<Step>) {
        while !stream.is_empty() {
            let n = (1 + dice.below(256) as usize).min(stream.len());
            steps.push(Step::Bytes(conn, stream.drain(..n).collect()));
        }
    }

    /// One soak schedule: 1–4 peers interleaved at random, the clock
    /// stepping by up to 3 ms with an occasional jump of up to 200 ms,
    /// ticks at random.
    fn soak(seed: u64) {
        let mut dice = Dice(seed);
        let mut core = core(HubConfig {
            idle_timeout: Some(Duration::from_secs(10)),
            ..HubConfig::default()
        });
        let n_peers = 1 + dice.below(4) as u32;
        let mut next_conn = 100;
        let (mut queues, sent): (Vec<std::collections::VecDeque<Step>>, Vec<Sent>) = (1..=n_peers)
            .map(|id| {
                let (steps, sent) = peer_schedule(&mut dice, id, &mut next_conn);
                (steps.into(), sent)
            })
            .unzip();
        let mut now = Instant::now();
        let mut closed = std::collections::HashSet::new();
        loop {
            let live: Vec<usize> = (0..queues.len())
                .filter(|&i| !queues[i].is_empty())
                .collect();
            if live.is_empty() {
                break;
            }
            let queue = &mut queues[live[dice.below(live.len() as u64) as usize]];
            match queue.pop_front().expect("non-empty") {
                Step::Open(conn) => core.on_open(conn, now),
                Step::Bytes(peer, bytes) if !closed.contains(&peer) => {
                    core.on_bytes(peer, &bytes, now);
                }
                Step::Close(conn) if closed.insert(conn) => core.on_close(conn, now),
                _ => {}
            }
            if dice.below(3) == 0 {
                core.tick(now);
            }
            for action in actions(&mut core) {
                // closing a datagram peer is a no-op
                if let Action::Close(conn @ 100..) = action {
                    if closed.insert(conn) {
                        core.on_close(conn, now);
                    }
                }
            }
            let h = health(&core);
            let open = core.live.len() + core.parked.len();
            assert_eq!(h.in_flight, open as u64, "seed {seed:#x}: in flight");
            assert_eq!(h.sessions_started, h.sessions_finished + h.in_flight);
            now += Duration::from_micros(dice.below(3000));
            if dice.below(64) == 0 {
                now += Duration::from_millis(dice.below(200));
            }
        }
        assert!(
            core.pending.is_empty(),
            "seed {seed:#x}: every connection closed"
        );
        let table = Arc::clone(&core.table);
        core.shutdown(now);
        let sessions = table.snapshot();
        assert_eq!(
            sessions.len(),
            sent.len(),
            "seed {seed:#x}: one session per peer"
        );
        for s in &sent {
            let got = sessions.iter().find(|x| x.session_id == s.id);
            let st = &got.expect("landed").report.stats;
            let what = format!("seed {seed:#x}, session {}", s.id);
            assert!(st.closed, "{what}: books closed by the BYE");
            assert_eq!(st.events_decoded + st.events_lost, s.events, "{what}");
            if s.exact {
                assert_eq!(st.events_lost, s.fate_lost, "{what}: exact books");
            }
        }
        let h = table.health();
        let reconnects: u64 = sent.iter().map(|s| s.reconnects).sum();
        let peers = sent.len() as u64;
        assert_eq!(
            (h.sessions_started, h.in_flight),
            (peers, 0),
            "seed {seed:#x}"
        );
        assert_eq!(
            h.resumed, reconnects,
            "seed {seed:#x}: every reconnect resumed"
        );
    }

    #[test]
    fn seeded_soak_keeps_the_books_under_random_schedules_and_clock_jumps() {
        // Any failure, a panic inside the core included, names its seed;
        // `soak(seed)` replays it.
        for seed in 0..1024 {
            if std::panic::catch_unwind(|| soak(seed)).is_err() {
                panic!("soak schedule failed: replay with soak({seed:#x})");
            }
        }
    }
}
