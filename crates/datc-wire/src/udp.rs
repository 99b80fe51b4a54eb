//! Datagram transport: one framed packet per UDP datagram.
//!
//! TCP hides the lossy link the wire format was built for; UDP exposes
//! it. Every datagram carries exactly one framed HELLO / DATA / BYE
//! chunk, so the network's failure modes map one-to-one onto the
//! machinery [`StreamDecoder`](crate::decode::StreamDecoder) already
//! has:
//!
//! * a **dropped** datagram is a hole in the cumulative event index —
//!   declared lost, with the exact event count, the moment the next
//!   index arrives (or at session close);
//! * a **reordered** datagram parks in the bounded reorder buffer and
//!   is released in sequence;
//! * a **duplicated** datagram covers an already-delivered index span —
//!   counted and dropped.
//!
//! No per-datagram state is added on top: the session-level byte-stream
//! decoder consumes each datagram as a self-delimiting frame — parsed
//! in place and drained as struct-of-arrays
//! [`EventBatch`](crate::batch::EventBatch)es, so the datagram path
//! allocates nothing per packet. This is the same address-event
//! discipline neuromorphic AER buses use over unreliable links — events
//! are self-describing, so transport loss degrades the estimate instead
//! of corrupting it.
//!
//! ## Sessions without connections
//!
//! UDP has no accept/EOF, so the [`UdpTelemetryHub`] keys sessions by
//! peer address and runs the gateway's
//! [session lifecycle](crate::gateway#session-lifecycle) on it: a
//! session retires when its BYE finds whole books (at once) or its
//! grace window ends, when it goes idle (a lost BYE, a dead sensor), or
//! when a HELLO with another header takes the address over (sensors
//! reuse one socket for successive sessions); its late stragglers are
//! dropped, never resurrected as a ghost. Shutdown drains the socket,
//! so every datagram received before the stop request is decoded and
//! delivered exactly once.
//!
//! ## Closing a lossy session
//!
//! With flow control installed
//! ([`with_flow`](UdpSessionSender::with_flow)), `finish` drains before
//! the BYE: it sleeps on the socket until the next FEEDBACK lands,
//! resends every hole the report lists plus the unconfirmed tail, and
//! stops once a report confirms every event sent. The BYE then finds
//! whole books and the hub retires the session on it, so a lossy
//! session closes in about one feedback round trip.
//!
//! ## Known limits
//!
//! * Per-peer decoder state is allocated for any **CRC-valid** frame
//!   from a new source address. Random junk is rejected before
//!   allocation, but the frame format is not authenticated — a hub
//!   exposed to untrusted networks should sit behind address
//!   filtering.
//! * DATA-V2 frames carry a one-byte session nonce (a CRC-8 of the
//!   HELLO, [`SessionHeader::nonce`]): when a reused address hands over
//!   from session A to session B, an A-tail datagram reordered *past*
//!   B's HELLO is counted as a **foreign frame** and dropped instead of
//!   being misattributed to B's books. The 8-bit nonce is a
//!   misattribution guard, not an authenticator (1/256 collision odds
//!   between unrelated sessions).
//! * A session whose HELLO never arrives is unidentifiable: its DATA
//!   is booked as orphan frames, and the first HELLO that does reach
//!   the address is adopted by that decoder (indistinguishable from
//!   the session's own HELLO arriving reordered). Header-based
//!   takeover therefore only protects sessions whose HELLO was
//!   decoded.

use crate::flow::FlowSession;
use crate::frame::{parse_frame, FrameType, ParseOutcome, CRC_LEN, HEADER_LEN};
use crate::gateway::{
    fleet_header, ClientReport, Hub, HubConfig, Sender, SenderCore, SessionTable, SinkFactory,
    Transport, POLL,
};
use crate::hub::{Action, HubCore};
use crate::packet::{SessionHeader, MAX_FEEDBACK_PAYLOAD};
use datc_engine::FleetOutput;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Transport marker of [`UdpTelemetryHub`].
#[derive(Debug)]
pub enum Udp {}

/// A telemetry ingest gateway bound to a local UDP address.
///
/// Shares [`HubConfig`], [`HubSession`](crate::gateway::HubSession) and (optionally) the
/// [`SessionTable`] with the TCP [`TelemetryHub`](crate::gateway::TelemetryHub),
/// so a deployment can serve both transports into one operator view:
///
/// ```
/// use datc_wire::gateway::{HubConfig, SessionTable, TelemetryHub};
/// use datc_wire::udp::UdpTelemetryHub;
///
/// let table = SessionTable::shared();
/// let tcp = TelemetryHub::bind_with("127.0.0.1:0", HubConfig::default(), table.clone(), None)
///     .unwrap();
/// let udp = UdpTelemetryHub::bind_with("127.0.0.1:0", HubConfig::default(), table.clone(), None)
///     .unwrap();
/// // … sensors connect over either transport …
/// udp.shutdown();
/// let all = tcp.shutdown(); // one table, both transports
/// assert_eq!(all.len(), table.len());
/// ```
pub type UdpTelemetryHub = Hub<Udp>;

impl UdpTelemetryHub {
    /// Binds a UDP socket (use port 0 for an ephemeral port) and starts
    /// receiving sessions into a fresh private table, with no sink.
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures.
    pub fn bind<A: ToSocketAddrs>(addr: A, config: HubConfig) -> std::io::Result<UdpTelemetryHub> {
        UdpTelemetryHub::bind_with(addr, config, SessionTable::shared(), None)
    }

    /// Binds a UDP socket recording finished sessions into `table`
    /// (shareable with a TCP hub) and attaching a sink from
    /// `sink_factory` to every new peer session.
    ///
    /// # Errors
    ///
    /// Propagates socket bind/configure failures.
    pub fn bind_with<A: ToSocketAddrs>(
        addr: A,
        config: HubConfig,
        table: Arc<SessionTable>,
        sink_factory: Option<SinkFactory>,
    ) -> std::io::Result<UdpTelemetryHub> {
        crate::gateway::validate_config(&config)?;
        let socket = UdpSocket::bind(addr)?;
        let addr = socket.local_addr()?;
        socket.set_read_timeout(Some(POLL))?;
        Ok(Hub::spawn(addr, table, move |table, stop| {
            receive_loop(socket, HubCore::new(config, table, sink_factory), stop)
        }))
    }
}

/// The UDP shell around the hub's [`HubCore`]: one receive loop feeding
/// every datagram to the core and sending the FEEDBACK it answers with.
fn receive_loop(socket: UdpSocket, mut core: HubCore<SocketAddr>, stop: Arc<AtomicBool>) {
    // One datagram = one frame ≤ HEADER + MAX_PAYLOAD + CRC bytes; a
    // 64 KiB buffer holds any datagram the socket can deliver (an
    // oversized/truncated one fails its CRC and is skipped).
    let mut buf = vec![0u8; 64 * 1024];
    let mut actions = Vec::new();
    loop {
        match socket.recv_from(&mut buf) {
            Ok((n, from)) => core.on_bytes(from, &buf[..n], Instant::now()),
            // A full poll interval with an empty socket *after* the
            // stop request means the backlog is drained.
            Err(_) if stop.load(Ordering::SeqCst) => break,
            Err(_) => {}
        }
        // Read after the datagram is ingested, so feedback cadence and
        // BYE grace run on the newest time.
        core.tick(Instant::now());
        core.take_actions(&mut actions);
        for action in actions.drain(..) {
            // Best effort; an address has nothing to close.
            if let Action::Send(peer, frame) = action {
                let _ = socket.send_to(&frame, peer);
            }
        }
    }
    core.shutdown(Instant::now());
}

/// Transmit pacing for [`UdpSessionSender`]: up to `burst` datagrams go
/// out back to back, then the sender pauses for `inter_burst` — a
/// static token-bucket stand-in for real congestion feedback, so a fast
/// encoder cannot trivially overrun a receive buffer.
///
/// The sustained rate is `burst / inter_burst` datagrams per second
/// (bursts themselves are sent as fast as the socket accepts them).
///
/// # Example
///
/// ```
/// use datc_wire::udp::UdpPacing;
/// use std::time::Duration;
/// let pacing = UdpPacing::default();
/// assert_eq!(pacing.burst, 32);
/// let gentle = UdpPacing { burst: 4, inter_burst: Duration::from_micros(500) };
/// assert!(gentle.datagrams_per_s() < pacing.datagrams_per_s());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpPacing {
    /// Datagrams sent back-to-back before the pause (≥ 1; 0 is clamped
    /// to 1 at connect).
    pub burst: u32,
    /// Pause inserted after each burst ([`Duration::ZERO`] disables
    /// pacing entirely — loss experiments on real links may want the
    /// firehose).
    pub inter_burst: Duration,
}

impl Default for UdpPacing {
    /// The historical built-in pacing: 32-datagram bursts, 200 µs apart.
    fn default() -> Self {
        UdpPacing {
            burst: 32,
            inter_burst: Duration::from_micros(200),
        }
    }
}

impl UdpPacing {
    /// The sustained datagram rate this pacing allows (infinite when the
    /// pause is zero).
    pub fn datagrams_per_s(&self) -> f64 {
        if self.inter_burst.is_zero() {
            f64::INFINITY
        } else {
            f64::from(self.burst.max(1)) / self.inter_burst.as_secs_f64()
        }
    }
}

/// One transmit session over UDP: each framed chunk is sent as one
/// datagram from a dedicated ephemeral socket (the source address is
/// what the hub demuxes sessions on).
///
/// Sends are paced per [`UdpPacing`] (default: a sub-millisecond pause
/// every 32 datagrams) so a fast sender cannot trivially overrun a
/// loopback receive buffer; real-loss experiments should inject loss
/// deliberately, not depend on kernel buffer luck. Tune or disable via
/// [`connect_with`](UdpSessionSender::connect_with).
///
/// # Example
///
/// ```no_run
/// use datc_wire::packet::SessionHeader;
/// use datc_wire::udp::UdpSessionSender;
///
/// let header = SessionHeader::new(1, 4, 2000.0, 20.0);
/// let mut tx = UdpSessionSender::connect("127.0.0.1:9000", header).unwrap();
/// tx.send_events(&[]).unwrap();
/// let report = tx.finish().unwrap();
/// assert_eq!(report.events_sent, 0);
/// ```
/// A refused datagram counts as loss; any other send failure ends the
/// session with [`ClientReport::gave_up`] set. A
/// [`ChaosLink`](crate::chaos::ChaosLink) installed via
/// [`with_chaos`](Sender::with_chaos) subjects every DATA
/// datagram to deterministic fault injection before it reaches the
/// socket (HELLO and BYE bypass chaos so the receiver's books stay
/// decidable).
pub type UdpSessionSender = Sender<UdpTransport>;

/// The UDP [`Transport`]: a connected datagram socket, paced per
/// [`UdpPacing`], counting refused datagrams as transport loss, with
/// optional receiver-driven flow control and loss repair.
#[derive(Debug)]
pub struct UdpTransport {
    socket: UdpSocket,
    pacing: UdpPacing,
    sent_since_pause: u32,
    refused: u64,
    flow: Option<FlowSession>,
}

impl Transport for UdpTransport {
    fn write(&mut self, core: &mut SenderCore, frame: &[u8]) -> std::io::Result<()> {
        // A connected UDP socket surfaces the peer's ICMP port
        // unreachable as ConnectionRefused on a *later* send. For a
        // loss-tolerant AER sender that is transport loss (receiver
        // gone or restarting — exactly what the wire format's exact
        // loss accounting absorbs), not a session-fatal error: count it
        // and keep going. Real failures (socket shut down locally, no
        // route) still propagate.
        match self.socket.send(frame) {
            Ok(_) => {}
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionRefused => self.refused += 1,
            Err(e) => {
                core.gave_up = true;
                return Err(e);
            }
        }
        self.sent_since_pause += 1;
        if self.sent_since_pause >= self.pacing.burst {
            self.sent_since_pause = 0;
            if !self.pacing.inter_burst.is_zero() {
                std::thread::sleep(self.pacing.inter_burst);
            }
        }
        Ok(())
    }

    /// Records each frame's event span into the replay window (the
    /// frames are the pristine originals, whatever the chaos link did
    /// to the copies it sent), then pumps feedback.
    fn sent(
        &mut self,
        core: &mut SenderCore,
        first_index: u64,
        frames: &[Vec<u8>],
    ) -> std::io::Result<()> {
        if let Some(flow) = self.flow.as_mut() {
            let per_frame = core.packetizer.events_per_frame() as u64;
            let end = core.packetizer.events_sent();
            let mut index = first_index;
            for frame in frames {
                let n = per_frame.min(end - index);
                flow.record_sent(index, n, frame);
                index += n;
            }
        }
        self.pump_feedback(core, false)
    }

    /// Tail drain: the last DATA frames have nothing behind them to
    /// park, so only drain-mode feedback comparison against
    /// `events_sent` can confirm (or repair) them before the BYE closes
    /// the books. Between reports the drain sleeps on the socket, so
    /// it wakes the moment the next FEEDBACK lands.
    fn drain(&mut self, core: &mut SenderCore) -> std::io::Result<()> {
        let Some(budget) = self.flow.as_ref().map(|f| f.config().drain) else {
            return Ok(());
        };
        let deadline = Instant::now() + budget;
        loop {
            self.pump_feedback(core, true)?;
            let confirmed = self
                .flow
                .as_ref()
                .and_then(FlowSession::last_feedback)
                .is_some_and(|fb| fb.next_index >= core.packetizer.events_sent());
            let now = Instant::now();
            if confirmed || now >= deadline {
                return Ok(());
            }
            self.await_datagram(deadline - now);
        }
    }

    fn annotate(&self, report: &mut ClientReport) {
        report.datagrams_refused = self.refused;
        report.repairs = self.flow.as_ref().map_or(0, FlowSession::repairs_frames);
    }
}

impl UdpTransport {
    /// Drains any FEEDBACK datagrams the hub has written back and — when
    /// flow control is installed — applies each report: one AIMD pacing
    /// step plus any replay-window repairs. Repairs go straight to the
    /// socket (never through the chaos link). Without flow control the
    /// datagrams are read and dropped, keeping the socket buffer clean.
    fn pump_feedback(&mut self, core: &mut SenderCore, drain: bool) -> std::io::Result<()> {
        if self.socket.set_nonblocking(true).is_err() {
            return Ok(());
        }
        let mut repairs: Vec<Vec<u8>> = Vec::new();
        let mut buf = [0u8; HEADER_LEN + MAX_FEEDBACK_PAYLOAD + CRC_LEN];
        // WouldBlock = drained; any other error (e.g. a refused ICMP
        // surfacing on the read side) also ends the pump — feedback is
        // advisory, never session-fatal.
        while let Ok(n) = self.socket.recv(&mut buf) {
            let Some(flow) = self.flow.as_mut() else {
                continue;
            };
            if let ParseOutcome::Frame { frame, .. } = parse_frame(&buf[..n]) {
                if frame.ftype == FrameType::Feedback {
                    if let Some(fb) = crate::packet::FeedbackSummary::decode(frame.payload) {
                        let decision = flow.on_feedback(
                            fb,
                            core.packetizer.header().nonce(),
                            core.packetizer.events_sent(),
                            drain,
                        );
                        self.pacing = UdpPacing {
                            burst: decision.pacing.burst.max(1),
                            ..decision.pacing
                        };
                        repairs.extend(decision.repairs);
                    }
                }
            }
        }
        let _ = self.socket.set_nonblocking(false);
        for frame in &repairs {
            self.write(core, frame)?;
        }
        Ok(())
    }

    /// Blocks until a datagram is waiting on the socket, for at most
    /// `wait`, leaving it for [`pump_feedback`](Self::pump_feedback).
    /// A socket error (a refused ICMP surfacing on the read side) sleeps
    /// out one poll quantum instead, so a failing socket cannot spin the
    /// drain.
    fn await_datagram(&self, wait: Duration) {
        let error = match self.socket.set_read_timeout(Some(wait)) {
            Ok(()) => self.socket.peek(&mut [0u8; 1]).err(),
            Err(e) => Some(e),
        };
        // The timeout running out reads as WouldBlock or TimedOut.
        let timed_out = |e: &std::io::Error| {
            matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            )
        };
        if error.is_some_and(|e| !timed_out(&e)) {
            std::thread::sleep(POLL.min(wait));
        }
    }
}

impl UdpSessionSender {
    /// Binds an ephemeral local socket, connects it to `addr` and sends
    /// the HELLO datagram, with the default [`UdpPacing`].
    ///
    /// # Errors
    ///
    /// Propagates socket/send failures.
    pub fn connect<A: ToSocketAddrs>(
        addr: A,
        header: SessionHeader,
    ) -> std::io::Result<UdpSessionSender> {
        UdpSessionSender::connect_with(addr, header, UdpPacing::default())
    }

    /// [`connect`](UdpSessionSender::connect) with explicit pacing
    /// (burst size clamped to ≥ 1).
    ///
    /// # Errors
    ///
    /// Propagates socket/send failures.
    pub fn connect_with<A: ToSocketAddrs>(
        addr: A,
        header: SessionHeader,
        pacing: UdpPacing,
    ) -> std::io::Result<UdpSessionSender> {
        let target = addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "no address to connect to")
        })?;
        // Bind in the target's address family, or the connect fails.
        let bind_addr: SocketAddr = if target.is_ipv4() {
            "0.0.0.0:0".parse().expect("valid v4 wildcard")
        } else {
            "[::]:0".parse().expect("valid v6 wildcard")
        };
        let socket = UdpSocket::bind(bind_addr)?;
        socket.connect(target)?;
        let transport = UdpTransport {
            socket,
            pacing: UdpPacing {
                burst: pacing.burst.max(1),
                ..pacing
            },
            sent_since_pause: 0,
            refused: 0,
            flow: None,
        };
        Sender::open(transport, header)
    }

    /// Installs receiver-driven flow control: the sender drains the
    /// FEEDBACK datagrams the hub writes back, runs every report
    /// through an [`AimdController`](crate::flow::AimdController) that
    /// re-paces the socket (additive increase on clean feedback,
    /// multiplicative decrease on fresh loss or hub pressure), and
    /// retransmits the holes each report lists that its
    /// [`ReplayBuffer`](crate::flow::ReplayBuffer) still covers.
    /// Repairs are byte-identical originals — the receiver's
    /// duplicate/overlap dedup keeps the books exact — and bypass any
    /// installed [`ChaosLink`](crate::chaos::ChaosLink), so a pinned
    /// fate schedule stays pinned.
    ///
    /// The installed config's AIMD band replaces the connect-time
    /// [`UdpPacing`] from the first feedback onward (pacing starts at
    /// the band's ceiling).
    ///
    /// # Panics
    ///
    /// Panics when the config is invalid (see
    /// [`FlowConfig::validate`](crate::flow::FlowConfig::validate)).
    #[must_use]
    pub fn with_flow(mut self, config: crate::flow::FlowConfig) -> UdpSessionSender {
        let flow = FlowSession::new(config);
        self.transport.pacing = flow.aimd().pacing();
        self.transport.flow = Some(flow);
        self
    }

    /// The flow-control state, when installed via
    /// [`with_flow`](UdpSessionSender::with_flow) — rate, throttle
    /// tally, repair counts, last accepted feedback.
    pub fn flow(&self) -> Option<&FlowSession> {
        self.transport.flow.as_ref()
    }

    /// The active pacing.
    pub fn pacing(&self) -> UdpPacing {
        self.transport.pacing
    }
}

/// Streams a whole fleet encode through one UDP session — the datagram
/// counterpart of [`stream_fleet`](crate::gateway::stream_fleet).
///
/// # Errors
///
/// Propagates socket/send failures.
///
/// # Panics
///
/// Panics when the fleet is empty or has more than 256 channels.
pub fn udp_stream_fleet<A: ToSocketAddrs>(
    addr: A,
    session_id: u32,
    fleet: &FleetOutput,
    dead_time_s: f64,
) -> std::io::Result<ClientReport> {
    let header = fleet_header(session_id, fleet);
    let merged = fleet.merge_aer(dead_time_s);
    let mut tx = UdpSessionSender::connect(addr, header)?;
    tx.send_events(&merged.merged)?;
    tx.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::Packetizer;
    use datc_core::Event;
    use datc_uwb::aer::AddressedEvent;

    fn test_events(header: &SessionHeader, n: u64) -> Vec<AddressedEvent> {
        (0..n)
            .map(|i| AddressedEvent {
                channel: (i % u64::from(header.n_channels)) as u8,
                event: Event::at_tick(i * 21, header.tick_period_s, Some((i % 16) as u8)),
            })
            .collect()
    }

    #[test]
    fn single_udp_session_round_trips() {
        let hub = UdpTelemetryHub::bind("127.0.0.1:0", HubConfig::default()).unwrap();
        let header = SessionHeader::new(31, 2, 2000.0, 2.0);
        let events = test_events(&header, 180);
        let mut tx = UdpSessionSender::connect(hub.local_addr(), header).unwrap();
        tx.send_events(&events).unwrap();
        let client = tx.finish().unwrap();
        assert_eq!(client.events_sent, 180);

        // BYE-triggered retirement: the session lands without shutdown.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while hub.session_count() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let sessions = hub.shutdown();
        assert_eq!(sessions.len(), 1);
        let s = &sessions[0];
        assert_eq!(s.session_id, 31);
        assert_eq!(s.bytes_received, client.bytes_sent);
        assert_eq!(s.report.stats.events_decoded, 180);
        assert_eq!(s.report.stats.events_lost, 0);
        assert!(s.report.stats.closed, "BYE reconciled the books");
    }

    #[test]
    fn concurrent_udp_sessions_demux_by_peer_address() {
        let hub = UdpTelemetryHub::bind("127.0.0.1:0", HubConfig::default()).unwrap();
        let addr = hub.local_addr();
        let handles: Vec<_> = (0..4u32)
            .map(|id| {
                std::thread::spawn(move || {
                    let header = SessionHeader::new(id, 1, 2000.0, 1.0);
                    let events: Vec<AddressedEvent> = (0..50)
                        .map(|i| AddressedEvent {
                            channel: 0,
                            event: Event::at_tick(i * 37, header.tick_period_s, None),
                        })
                        .collect();
                    let mut tx = UdpSessionSender::connect(addr, header).unwrap();
                    tx.send_events(&events).unwrap();
                    tx.finish().unwrap()
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let sessions = hub.shutdown();
        assert_eq!(sessions.len(), 4);
        for s in &sessions {
            assert_eq!(
                s.report.stats.events_decoded, 50,
                "session {}",
                s.session_id
            );
            assert_eq!(s.report.stats.events_lost, 0);
        }
    }

    #[test]
    fn configs_that_would_panic_in_the_receive_thread_are_rejected_at_bind() {
        use crate::session::SessionRxConfig;
        use datc_rx::online::{OnlineReconSelect, Rate0};

        let session = |recon: OnlineReconSelect| SessionRxConfig {
            recon,
            ..Default::default()
        };
        let bad_configs = vec![
            HubConfig {
                session: SessionRxConfig {
                    force_window: Some(0),
                    ..Default::default()
                },
                ..HubConfig::default()
            },
            HubConfig {
                session: SessionRxConfig {
                    output_fs: 0.0,
                    ..Default::default()
                },
                ..HubConfig::default()
            },
            HubConfig {
                session: session(OnlineReconSelect::Rate { window_s: 0.0 }),
                ..HubConfig::default()
            },
            HubConfig {
                session: session(OnlineReconSelect::Ewma { tau_s: -1.0 }),
                ..HubConfig::default()
            },
            HubConfig {
                session: session(OnlineReconSelect::ThresholdTrack {
                    dac: datc_core::dac::Dac::paper(),
                    smooth_window_s: 0.0,
                }),
                ..HubConfig::default()
            },
            HubConfig {
                session: session(OnlineReconSelect::Hybrid {
                    dac: datc_core::dac::Dac::paper(),
                    smooth_window_s: 0.75,
                    rate_window_s: 0.75,
                    alpha: 1.0,
                    rate0: Rate0::Pinned(0.0),
                }),
                ..HubConfig::default()
            },
            HubConfig {
                session: session(OnlineReconSelect::Hybrid {
                    dac: datc_core::dac::Dac::paper(),
                    smooth_window_s: 0.75,
                    rate_window_s: 0.75,
                    alpha: 1.0,
                    rate0: Rate0::Calibrate(-1.0),
                }),
                ..HubConfig::default()
            },
            HubConfig {
                bye_grace: Duration::ZERO,
                ..HubConfig::default()
            },
            HubConfig {
                session: SessionRxConfig {
                    parked_bytes_cap: Some(0),
                    ..Default::default()
                },
                ..HubConfig::default()
            },
            HubConfig {
                session: SessionRxConfig {
                    feedback_every: Some(Duration::ZERO),
                    ..Default::default()
                },
                ..HubConfig::default()
            },
        ];
        for bad in bad_configs {
            let err = UdpTelemetryHub::bind("127.0.0.1:0", bad.clone());
            assert_eq!(
                err.err().map(|e| e.kind()),
                Some(std::io::ErrorKind::InvalidInput),
                "udp bind must reject {bad:?}"
            );
            let err = crate::gateway::TelemetryHub::bind("127.0.0.1:0", bad.clone());
            assert_eq!(
                err.err().map(|e| e.kind()),
                Some(std::io::ErrorKind::InvalidInput),
                "tcp bind must reject {bad:?}"
            );
        }
    }

    #[test]
    fn udp_feedback_round_trips_and_the_aimd_band_takes_over_pacing() {
        use crate::flow::{AimdConfig, FlowConfig};
        use crate::session::SessionRxConfig;

        let config = HubConfig {
            session: SessionRxConfig {
                feedback_every: Some(Duration::from_millis(1)),
                ..Default::default()
            },
            ..HubConfig::default()
        };
        let hub = UdpTelemetryHub::bind("127.0.0.1:0", config).unwrap();
        let header = SessionHeader::new(40, 2, 2000.0, 2.0);
        let events = test_events(&header, 300);
        let flow = FlowConfig {
            aimd: AimdConfig {
                ceiling_datagrams_per_s: 10_000.0,
                ..AimdConfig::default()
            },
            ..FlowConfig::default()
        };
        let mut tx = UdpSessionSender::connect(hub.local_addr(), header)
            .unwrap()
            .with_flow(flow);
        assert!(
            (tx.pacing().datagrams_per_s() - 10_000.0).abs() < 1e-6,
            "flow install re-paces to the AIMD ceiling"
        );
        for chunk in events.chunks(30) {
            tx.send_events(chunk).unwrap();
            std::thread::sleep(Duration::from_millis(3));
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while tx.flow().unwrap().last_feedback().is_none() && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(3));
            tx.send_events(&[]).unwrap(); // keep pumping feedback
        }
        let flow = tx.flow().unwrap();
        assert!(flow.feedback_rx() >= 1, "hub wrote feedback back");
        let fb = flow.last_feedback().expect("waited for feedback above");
        assert_eq!(fb.nonce, header.nonce(), "report pinned to this session");
        assert_eq!(fb.events_lost, 0, "clean loopback loses nothing");
        assert_eq!(flow.aimd().throttles(), 0, "no congestion evidence");
        assert!(
            (tx.pacing().datagrams_per_s() - 10_000.0).abs() < 1e-6,
            "clean feedback holds the rate at the ceiling"
        );

        let client = tx.finish().unwrap();
        assert_eq!(client.events_sent, 300);
        assert_eq!(client.repairs, 0, "nothing to repair on a clean link");
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while hub.session_count() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let sessions = hub.shutdown();
        assert_eq!(sessions.len(), 1);
        assert_eq!(sessions[0].report.stats.events_decoded, 300);
        assert_eq!(sessions[0].report.stats.events_lost, 0);
        assert!(sessions[0].report.stats.closed);
    }

    #[test]
    fn drain_repairs_a_tail_hole_the_reorder_buffer_cannot_see() {
        use crate::flow::FlowConfig;
        use crate::session::SessionRxConfig;

        // Drop the LAST DATA datagram by hand: nothing parks behind it,
        // so only the finish() drain can notice (cursor short of
        // everything sent) and repair it from the replay window.
        let config = HubConfig {
            session: SessionRxConfig {
                feedback_every: Some(Duration::from_millis(1)),
                ..Default::default()
            },
            ..HubConfig::default()
        };
        let hub = UdpTelemetryHub::bind("127.0.0.1:0", config).unwrap();
        let header = SessionHeader::new(41, 1, 2000.0, 1.0);
        let events = test_events(&header, 30);

        // A raw socket stands in for the sender's wire so the test can
        // lose exactly one datagram; the FlowSession on the side is the
        // same state machine UdpSessionSender embeds.
        let mut flow = crate::flow::FlowSession::new(FlowConfig::default());
        let mut packetizer = Packetizer::new(header).with_events_per_frame(10);
        let socket = UdpSocket::bind("0.0.0.0:0").unwrap();
        socket.connect(hub.local_addr()).unwrap();
        socket.send(&packetizer.hello()).unwrap();
        let data = packetizer.data_frames(&events);
        assert_eq!(data.len(), 3);
        let per_frame = packetizer.events_per_frame() as u64;
        for (i, frame) in data.iter().enumerate() {
            flow.record_sent(i as u64 * per_frame, per_frame, frame);
            if i != 2 {
                socket.send(frame).unwrap(); // the last frame is lost
            }
        }

        // Pump feedback the way finish() would, repairing what the
        // receiver reports missing.
        socket
            .set_read_timeout(Some(Duration::from_millis(20)))
            .unwrap();
        let mut buf = [0u8; 256];
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        let repaired = loop {
            assert!(
                std::time::Instant::now() < deadline,
                "drain never converged"
            );
            let Ok(n) = socket.recv(&mut buf) else {
                continue;
            };
            let crate::frame::ParseOutcome::Frame { frame, .. } =
                crate::frame::parse_frame(&buf[..n])
            else {
                continue;
            };
            assert_eq!(frame.ftype, crate::frame::FrameType::Feedback);
            let fb = crate::packet::FeedbackSummary::decode(frame.payload).unwrap();
            let confirmed = fb.next_index >= 30;
            let decision = flow.on_feedback(fb, header.nonce(), 30, true);
            for repair in &decision.repairs {
                socket.send(repair).unwrap();
            }
            if confirmed {
                break flow.repairs_frames();
            }
        };
        // ≥ 1, not == 1: a stale feedback racing the first repair can
        // legitimately trip the stall detector and resend once more —
        // the receiver's dedup keeps the books exact either way.
        assert!(repaired >= 1, "the lost tail frame was resent");
        socket.send(&packetizer.bye()).unwrap();

        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while hub.session_count() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let sessions = hub.shutdown();
        assert_eq!(sessions.len(), 1);
        assert_eq!(
            sessions[0].report.stats.events_decoded, 30,
            "the dropped tail was repaired"
        );
        assert_eq!(sessions[0].report.stats.events_lost, 0);
        assert!(sessions[0].report.stats.closed);
    }

    #[test]
    fn a_report_at_the_hole_cap_reaches_the_flow_session_whole() {
        use crate::packet::{FeedbackSummary, MAX_FEEDBACK_HOLES};

        // A stand-in hub answers the HELLO with the largest report the
        // codec admits: u64-scale indices and every hole slot used.
        let hub = UdpSocket::bind("127.0.0.1:0").unwrap();
        let header = SessionHeader::new(42, 1, 2000.0, 1.0);
        let mut tx = UdpSessionSender::connect(hub.local_addr().unwrap(), header)
            .unwrap()
            .with_flow(crate::flow::FlowConfig::default());
        let mut buf = [0u8; 64];
        let (_, sender) = hub.recv_from(&mut buf).unwrap();
        let step = 1u64 << 57;
        let report = FeedbackSummary {
            nonce: header.nonce(),
            next_index: 1 << 63,
            events_lost: u64::MAX,
            reorder_depth: u64::MAX,
            pressure: 255,
            holes: (0..MAX_FEEDBACK_HOLES as u64)
                .map(|k| (1 << 63) + (2 * k + 1) * step..(1 << 63) + (2 * k + 2) * step)
                .collect(),
        };
        let frame = crate::frame::encode_frame(FrameType::Feedback, 0, &report.encode());
        assert!(frame.len() > 256, "larger than the old receive buffer");
        hub.send_to(&frame, sender).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while tx.flow().unwrap().feedback_rx() == 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
            tx.send_events(&[]).unwrap(); // pumps feedback
        }
        assert_eq!(tx.flow().unwrap().last_feedback(), Some(&report));
    }

    #[test]
    fn zero_idle_timeout_rejected_at_bind() {
        let bad = HubConfig {
            idle_timeout: Some(Duration::ZERO),
            ..HubConfig::default()
        };
        let err = UdpTelemetryHub::bind("127.0.0.1:0", bad);
        assert_eq!(
            err.err().map(|e| e.kind()),
            Some(std::io::ErrorKind::InvalidInput)
        );
    }
}
