//! The multi-session telemetry gateway: a TCP loopback ingest point
//! multiplexing many concurrent sensor sessions, and what both hubs
//! share.
//!
//! Architecture: one acceptor thread blocks in `accept` and gives each
//! connection a blocking reader thread; all of them drive the hub's one
//! socket-free session core behind a lock. Readers feed it their reads,
//! each running through its session's
//! [`SessionRx`](crate::session::SessionRx) pipeline (decode → demux →
//! online reconstruct); the hub's worker thread ticks it every poll
//! quantum, closes the connections it retires and, on shutdown, wakes
//! the acceptor with a connection of its own. A TCP hub writes nothing
//! back: FEEDBACK is a UDP matter, where it drives the sender's pacing
//! and repair. Finished sessions land in a shared [`SessionTable`] the
//! owner inspects with [`TelemetryHub::snapshot`]. The same table (and
//! the same conn-id space) can be shared with a
//! [`UdpTelemetryHub`](crate::udp::UdpTelemetryHub), so one operator
//! view covers both transports. The transmit side is [`SessionSender`]
//! (one session per connection) plus the [`stream_fleet`] convenience
//! that pushes a whole [`FleetOutput`] through one session.
//!
//! ## Session lifecycle
//!
//! Both hubs run one lifecycle, written once without socket code and
//! tested on a simulated clock. It assumes a hostile fleet:
//!
//! * a session opens on its peer's first CRC-valid frame (junk before it
//!   allocates nothing); at the [`HubConfig::max_sessions`] cap a new
//!   connection or peer is shed and counted;
//! * a datagram or read opening with a HELLO with another header is the
//!   sensor's next session, which takes the peer over;
//! * a lone BYE frame retires its session at once when every event it
//!   announces is released and nothing is parked; otherwise it is held
//!   for [`HubConfig::bye_grace`], so frames reordered behind it still
//!   count, and the session retires as soon as a late tail completes
//!   its books;
//! * a peer silent for [`HubConfig::idle_timeout`] is evicted and one
//!   over the [`HubConfig::malformed_budget`] quarantined: a connection
//!   is closed, an address drops stragglers until a HELLO with another
//!   header reopens it;
//! * a connection dropped mid-session (no BYE) parks its session for
//!   [`HubConfig::resume_window`]: a sender that reconnects and re-sends
//!   its HELLO **resumes** it, the decoder keeps its cumulative event
//!   index, so the outage is booked as exactly-counted loss;
//! * shutdown finishes every session in flight.
//!
//! All of it is surfaced in the [`HubHealth`] snapshot both hubs share.
//! TCP senders carry a [`RetryPolicy`] (capped exponential backoff,
//! decorrelated jitter), and [`chaos`] links
//! ([`SessionSender::with_chaos`]) exercise it deterministically.
//!
//! ## Memory model
//!
//! Sessions run in `O(channels · force_window)` memory each: the
//! per-session report keeps only a bounded force tail
//! ([`DEFAULT_HUB_FORCE_WINDOW`] samples per channel by default), and
//! consumers that need every sample attach a
//! [`SessionSink`] via [`TelemetryHub::bind_with`]'s sink factory.
//!
//! One reconstructor selection opts out of the bound: a
//! [`Hybrid`](datc_rx::online::OnlineReconSelect::Hybrid) with
//! [`Rate0::Deferred`](datc_rx::online::Rate0::Deferred) *defers*
//! emission to session close (that is what makes it bit-exact with the
//! batch hybrid), staging `O(duration · output_fs)` samples per channel
//! and delivering no force to the sink until the session ends. For
//! long-running hub sessions, use `Rate0::Pinned`, or `Rate0::Calibrate`
//! to auto-calibrate `rate₀` from each session's first seconds
//! (staging stays bounded by the calibration window); pure deferred
//! mode is for bounded replays.

use crate::chaos::{self, ChaosLink, ChaosStats};
use crate::decode::WireStats;
use crate::hub::{Action, HubCore};
use crate::obs;
use crate::packet::{Packetizer, SessionHeader};
use crate::session::{SessionReport, SessionRxConfig};
use crate::sink::SessionSink;
use datc_engine::FleetOutput;
use datc_obs::{Counter, Gauge, Registry};
use datc_uwb::aer::AddressedEvent;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::marker::PhantomData;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-channel force samples a hub session retains by default (≈ 20 s
/// at the default 100 Hz output) — the bounded-memory guarantee for
/// long-running sessions. Attach a sink for the full stream.
pub const DEFAULT_HUB_FORCE_WINDOW: usize = 2048;

/// How long a peer may stay silent before the hub evicts it
/// (see [`HubConfig::idle_timeout`]).
pub const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_secs(30);

/// Default framing-garbage budget before a session is quarantined
/// (see [`HubConfig::malformed_budget`]). Generous: honest lossy links
/// score a handful of points, a framing-garbage flood scores one or
/// more per datagram/read.
pub const DEFAULT_MALFORMED_BUDGET: u64 = 1024;

/// How long a disconnected-but-unclosed session stays parked waiting for
/// the sender to reconnect and resume it
/// (see [`HubConfig::resume_window`]).
pub const DEFAULT_RESUME_WINDOW: Duration = Duration::from_secs(5);

/// How long a hub keeps serving a session whose BYE found events still
/// missing, absorbing reordered tail frames (see
/// [`HubConfig::bye_grace`]).
pub const DEFAULT_BYE_GRACE: Duration = Duration::from_millis(10);

/// Poll quantum of both hub shells: the TCP worker's tick (and the
/// longest its shutdown wake waits to connect, retried next tick), the
/// TCP acceptor's back-off after a failed accept, and the UDP receive
/// timeout (also its post-stop drain quantum: the receive loop keeps
/// decoding until one full quantum passes with the socket empty); also
/// the UDP sender's back-off when its drain cannot wait on the socket.
pub(crate) const POLL: Duration = Duration::from_millis(2);

/// Gateway tuning.
///
/// # Example
///
/// ```
/// use datc_wire::gateway::{HubConfig, DEFAULT_HUB_FORCE_WINDOW};
/// let cfg = HubConfig::default();
/// assert_eq!(cfg.session.output_fs, 100.0);
/// assert_eq!(cfg.session.force_window, Some(DEFAULT_HUB_FORCE_WINDOW));
/// assert!(cfg.session.feedback_every.is_some());
/// assert!(cfg.idle_timeout.is_some());
/// assert!(cfg.max_sessions.is_none());
/// assert!(cfg.malformed_budget.is_some());
/// assert!(cfg.resume_window.is_some());
/// assert!(!cfg.bye_grace.is_zero());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HubConfig {
    /// Per-session receive pipeline settings.
    pub session: SessionRxConfig,
    /// A peer that has sent nothing for this long is evicted: its
    /// decoded events are delivered, its session lands in the table with
    /// the books left open (no BYE) and a connection is closed. This
    /// bounds the in-flight table when a sensor dies or its BYE is lost,
    /// and retires stalled (slowloris) connections, including ones that
    /// never sent a frame. `None` disables eviction: a silent peer stays
    /// in flight until hub shutdown. Default: [`DEFAULT_IDLE_TIMEOUT`].
    pub idle_timeout: Option<Duration>,
    /// Global cap on concurrently *in-flight* sessions (parked ones and
    /// connections awaiting their first frame included). At the cap a
    /// new connection or peer is shed — closed or ignored, and counted
    /// in [`HubHealth::shed`] — instead of growing without bound.
    /// `Some(0)` sheds everything (drain mode). `None` (the default)
    /// accepts unboundedly.
    pub max_sessions: Option<usize>,
    /// Per-session framing-garbage budget: when a session's
    /// [`framing garbage score`](crate::decode::StreamDecoder::framing_garbage)
    /// (CRC failures + malformed frames + resync volume) exceeds this,
    /// the hub quarantines it — the partial session lands in the table,
    /// the connection is closed or the address drops stragglers, and
    /// [`HubHealth::quarantined`] is bumped. Protects decoder throughput
    /// from framing-garbage floods. `None` disables the budget.
    /// Default: [`DEFAULT_MALFORMED_BUDGET`].
    pub malformed_budget: Option<u64>,
    /// How long a session whose connection dropped *without* a BYE stays
    /// parked awaiting a sender reconnect. A reconnect whose first frame
    /// is a HELLO with the same session identity (`session_id` +
    /// DATA-V2 nonce) adopts the parked decoder, so the outage is booked
    /// as exactly-counted loss instead of a second session. Expired
    /// parks are evicted. Only connections park: a UDP address has no
    /// close. `None` disables resume. Default: [`DEFAULT_RESUME_WINDOW`].
    pub resume_window: Option<Duration>,
    /// How long a session keeps being served after a BYE frame arrives
    /// on its own (one datagram, or one read) while events it announces
    /// are still missing. Frames reordered past the BYE are still
    /// attributed to the session during the grace window instead of
    /// being dropped as stragglers, keeping the books exact on
    /// reordering links. The wait ends early when the books complete
    /// (a BYE that finds every event released and nothing parked
    /// retires its session at once) or on a close. Must be positive.
    /// Default: [`DEFAULT_BYE_GRACE`].
    pub bye_grace: Duration,
}

impl Default for HubConfig {
    fn default() -> Self {
        HubConfig {
            session: SessionRxConfig {
                force_window: Some(DEFAULT_HUB_FORCE_WINDOW),
                ..SessionRxConfig::default()
            },
            idle_timeout: Some(DEFAULT_IDLE_TIMEOUT),
            max_sessions: None,
            malformed_budget: Some(DEFAULT_MALFORMED_BUDGET),
            resume_window: Some(DEFAULT_RESUME_WINDOW),
            bye_grace: DEFAULT_BYE_GRACE,
        }
    }
}

/// A finished session as recorded in the hub's session table.
#[derive(Debug, Clone)]
pub struct HubSession {
    /// The session id from the HELLO (0 when none arrived).
    pub session_id: u32,
    /// Bytes read off the transport.
    pub bytes_received: u64,
    /// The full session report (stats + force tails).
    pub report: SessionReport,
}

/// An operator-facing health snapshot aggregated across every hub
/// sharing one [`SessionTable`]: how many sessions are in flight, how
/// many were turned away or force-retired, and the decode-quality
/// counters rolled up from every finished session. Cheap to read
/// (atomic counters, no table lock) — poll it from a watchdog.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HubHealth {
    /// Sessions the hubs started serving, each on its peer's first
    /// CRC-valid frame (resume adoptions do not count twice).
    pub sessions_started: u64,
    /// Sessions that finished and landed in the table.
    pub sessions_finished: u64,
    /// Sessions currently being served (started − finished; TCP
    /// sessions parked for resume count as in flight).
    pub in_flight: u64,
    /// TCP reconnects that successfully adopted a parked session.
    pub resumed: u64,
    /// Connections/peers turned away at the [`HubConfig::max_sessions`]
    /// cap.
    pub shed: u64,
    /// Sessions force-retired with open books: idle/stalled peers and
    /// parked sessions whose resume window expired or that a newer park
    /// displaced.
    pub evicted: u64,
    /// Sessions quarantined for exceeding the
    /// [`HubConfig::malformed_budget`] framing-garbage budget.
    pub quarantined: u64,
    /// DATA-V2 frames rejected for a foreign session nonce, summed
    /// over finished sessions.
    pub foreign_frames: u64,
    /// CRC failures + malformed + orphan frames, summed over finished
    /// sessions.
    pub decode_errors: u64,
    /// Events decoded, summed over finished sessions.
    pub events_decoded: u64,
    /// Events booked as lost, summed over finished sessions.
    pub events_lost: u64,
}

/// The shared tallies behind [`HubHealth`] — registry counters, so the
/// same relaxed atomics serve both the typed
/// [`health`](SessionTable::health) view and the exporters. Each
/// [`Counter`] is one relaxed `AtomicU64`, exactly what lived here
/// before the registry migration, so `HubHealth` values are
/// bit-identical to the pre-migration implementation.
#[derive(Debug)]
pub(crate) struct HealthCounters {
    pub(crate) started: Counter,
    finished: Counter,
    pub(crate) resumed: Counter,
    pub(crate) shed: Counter,
    pub(crate) evicted: Counter,
    pub(crate) quarantined: Counter,
    foreign_frames: Counter,
    decode_errors: Counter,
    events_decoded: Counter,
    events_lost: Counter,
    in_flight: Gauge,
}

impl HealthCounters {
    fn register(reg: &Registry) -> HealthCounters {
        HealthCounters {
            started: reg.counter(obs::HUB_SESSIONS_STARTED),
            finished: reg.counter(obs::HUB_SESSIONS_FINISHED),
            resumed: reg.counter(obs::HUB_SESSIONS_RESUMED),
            shed: reg.counter(obs::HUB_SESSIONS_SHED),
            evicted: reg.counter(obs::HUB_SESSIONS_EVICTED),
            quarantined: reg.counter(obs::HUB_SESSIONS_QUARANTINED),
            foreign_frames: reg.counter(obs::HUB_FOREIGN_FRAMES),
            decode_errors: reg.counter(obs::HUB_DECODE_ERRORS),
            events_decoded: reg.counter(obs::HUB_EVENTS_DECODED),
            events_lost: reg.counter(obs::HUB_EVENTS_LOST),
            in_flight: reg.gauge(obs::HUB_SESSIONS_IN_FLIGHT),
        }
    }

    /// Refreshes the in-flight gauge from the started/finished
    /// counters (the typed view computes the same difference).
    pub(crate) fn update_in_flight(&self) {
        let in_flight = self.started.get().saturating_sub(self.finished.get());
        self.in_flight.set(in_flight as f64);
    }
}

/// The finished-session table, shareable between hubs (TCP + UDP) so a
/// mixed-transport deployment has one operator view, one
/// connection-id space — and one metrics [`Registry`]: the health
/// tallies are registry counters (`datc_hub_*`), every hub session
/// gets per-session `datc_rx_*` / `datc_session_*` series while in
/// flight (retired when it finishes; the lifetime totals stay in the
/// roll-ups), and [`registry`](SessionTable::registry) hands the whole
/// thing to an exporter.
#[derive(Debug)]
pub struct SessionTable {
    sessions: Mutex<HashMap<u64, HubSession>>,
    // Connection ids key the table so two sessions announcing the same
    // session id cannot overwrite each other; the counter lives here so
    // hubs sharing the table also share the id space.
    next_conn_id: AtomicU64,
    registry: Registry,
    pub(crate) health: HealthCounters,
}

impl Default for SessionTable {
    fn default() -> Self {
        let registry = Registry::new();
        let health = HealthCounters::register(&registry);
        SessionTable {
            sessions: Mutex::new(HashMap::new()),
            next_conn_id: AtomicU64::new(0),
            registry,
            health,
        }
    }
}

impl SessionTable {
    /// Creates an empty shared table.
    pub fn shared() -> Arc<SessionTable> {
        Arc::default()
    }

    /// The metrics registry every hub sharing this table publishes
    /// into — render it with [`datc_obs::render_prometheus`] or
    /// [`datc_obs::render_json`].
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Allocates the next connection id.
    pub fn next_conn_id(&self) -> u64 {
        self.next_conn_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished session and rolls its decode-quality
    /// counters into the shared [`HubHealth`] tallies.
    pub fn insert(&self, conn_id: u64, session: HubSession) {
        let stats = &session.report.stats;
        let h = &self.health;
        h.finished.inc();
        h.foreign_frames.add(stats.foreign_frames);
        h.decode_errors
            .add(stats.crc_failures + stats.malformed_frames + stats.orphan_frames);
        h.events_decoded.add(stats.events_decoded);
        h.events_lost.add(stats.events_lost);
        h.update_in_flight();
        self.sessions
            .lock()
            .expect("session table poisoned")
            .insert(conn_id, session);
    }

    /// Aggregated health snapshot across every hub sharing this table.
    pub fn health(&self) -> HubHealth {
        let h = &self.health;
        let started = h.started.get();
        let finished = h.finished.get();
        HubHealth {
            sessions_started: started,
            sessions_finished: finished,
            in_flight: started.saturating_sub(finished),
            resumed: h.resumed.get(),
            shed: h.shed.get(),
            evicted: h.evicted.get(),
            quarantined: h.quarantined.get(),
            foreign_frames: h.foreign_frames.get(),
            decode_errors: h.decode_errors.get(),
            events_decoded: h.events_decoded.get(),
            events_lost: h.events_lost.get(),
        }
    }

    /// Sums the per-session [`WireStats`] of every *finished* session
    /// in the table — the wire-level companion to [`health`]
    /// (which carries only the rolled-up quality counters).
    ///
    /// [`health`]: SessionTable::health
    pub fn wire_totals(&self) -> WireStats {
        let table = self.sessions.lock().expect("session table poisoned");
        let mut totals = WireStats::zero();
        for session in table.values() {
            totals.merge(&session.report.stats);
        }
        totals
    }

    /// The hub pressure level stamped into FEEDBACK frames, derived
    /// from the shared health tallies: occupancy of the session cap
    /// (in-flight vs `max_sessions`, scaled 0–255) plus a boost of 16
    /// per session shed or quarantined over the table's lifetime,
    /// capped at 64. An uncapped hub reports the boost alone — it has
    /// no occupancy to measure. Cheap (relaxed atomic reads), called on
    /// every hub tick.
    pub fn pressure_level(&self, max_sessions: Option<usize>) -> u8 {
        let h = &self.health;
        let boost = 16u64
            .saturating_mul(h.shed.get().saturating_add(h.quarantined.get()))
            .min(64);
        let occupancy = match max_sessions {
            Some(cap) if cap > 0 => {
                let in_flight = h.started.get().saturating_sub(h.finished.get());
                (in_flight.saturating_mul(255) / cap as u64).min(255)
            }
            Some(_) => 255, // cap 0: drain mode, saturated by definition
            None => 0,
        };
        occupancy.saturating_add(boost).min(255) as u8
    }

    /// Number of finished sessions recorded.
    pub fn len(&self) -> usize {
        self.sessions.lock().expect("session table poisoned").len()
    }

    /// `true` when no session has finished yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clones the table's sessions, sorted by session id.
    pub fn snapshot(&self) -> Vec<HubSession> {
        let table = self.sessions.lock().expect("session table poisoned");
        let mut all: Vec<HubSession> = table.values().cloned().collect();
        all.sort_by_key(|s| s.session_id);
        all
    }
}

/// Builds one [`SessionSink`] per accepted session; the argument is the
/// hub-assigned connection id.
pub type SinkFactory = Arc<dyn Fn(u64) -> Box<dyn SessionSink> + Send + Sync>;

/// A telemetry ingest gateway bound to a local address: a background
/// thread (the TCP worker with its acceptor and per-connection readers,
/// or the UDP receive loop) serves sessions into a [`SessionTable`] until
/// [`shutdown`](Hub::shutdown). Use it as [`TelemetryHub`] (TCP) or
/// [`UdpTelemetryHub`](crate::udp::UdpTelemetryHub); `K` is the
/// transport marker ([`Tcp`] or [`Udp`](crate::udp::Udp)).
#[derive(Debug)]
pub struct Hub<K> {
    addr: SocketAddr,
    table: Arc<SessionTable>,
    stop: Arc<AtomicBool>,
    worker: Option<JoinHandle<()>>,
    kind: PhantomData<K>,
}

/// Transport marker of [`TelemetryHub`].
#[derive(Debug)]
pub enum Tcp {}

/// A telemetry ingest gateway bound to a local TCP address.
///
/// # Example
///
/// ```
/// use datc_core::Event;
/// use datc_uwb::aer::AddressedEvent;
/// use datc_wire::gateway::{HubConfig, SessionSender, TelemetryHub};
/// use datc_wire::packet::SessionHeader;
///
/// let hub = TelemetryHub::bind("127.0.0.1:0", HubConfig::default()).unwrap();
/// let header = SessionHeader::new(77, 1, 2000.0, 1.0);
/// let events: Vec<AddressedEvent> = (0..40)
///     .map(|i| AddressedEvent {
///         channel: 0,
///         event: Event::at_tick(i * 50, header.tick_period_s, Some(3)),
///     })
///     .collect();
/// let mut tx = SessionSender::connect(hub.local_addr(), header).unwrap();
/// tx.send_events(&events).unwrap();
/// tx.finish().unwrap();
/// let sessions = hub.shutdown();
/// assert_eq!(sessions.len(), 1);
/// assert_eq!(sessions[0].report.stats.events_decoded, 40);
/// assert_eq!(sessions[0].report.stats.events_lost, 0);
/// ```
pub type TelemetryHub = Hub<Tcp>;

impl<K> Hub<K> {
    /// Starts `serve(table, stop)` on the hub's background thread.
    pub(crate) fn spawn(
        addr: SocketAddr,
        table: Arc<SessionTable>,
        serve: impl FnOnce(Arc<SessionTable>, Arc<AtomicBool>) + Send + 'static,
    ) -> Hub<K> {
        let stop = Arc::new(AtomicBool::new(false));
        let worker = {
            let table = Arc::clone(&table);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || serve(table, stop))
        };
        Hub {
            addr,
            table,
            stop,
            worker: Some(worker),
            kind: PhantomData,
        }
    }

    /// The bound address (the port to point senders at).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared session table (hand it to a hub of the other
    /// transport for a mixed-transport deployment).
    pub fn session_table(&self) -> Arc<SessionTable> {
        Arc::clone(&self.table)
    }

    /// Number of *finished* sessions in the table (a session lands once
    /// its BYE finds whole books, its grace window ends or its
    /// connection closes, when it is evicted or quarantined, or when the
    /// hub shuts down).
    pub fn session_count(&self) -> usize {
        self.table.len()
    }

    /// Aggregated [`HubHealth`] snapshot, shared with every hub using
    /// the same session table (so it covers both transports when the
    /// table is shared).
    pub fn health(&self) -> HubHealth {
        self.table.health()
    }

    /// The shared metrics registry (hub roll-ups plus the per-session
    /// series of every in-flight session) — render it with
    /// [`datc_obs::render_prometheus`] or [`datc_obs::render_json`].
    pub fn registry(&self) -> Registry {
        self.table.registry().clone()
    }

    /// Clones the current session table (finished sessions only).
    pub fn snapshot(&self) -> Vec<HubSession> {
        self.table.snapshot()
    }

    /// Stops accepting new sessions, serves every session already in
    /// flight to completion — established TCP connections run to their
    /// end, datagrams already delivered to the UDP socket are drained
    /// and every in-flight peer is finished — and returns the final
    /// session table. Each decoded event reaches its sink exactly once.
    pub fn shutdown(mut self) -> Vec<HubSession> {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.worker.take() {
            let _ = h.join();
        }
        self.snapshot()
    }
}

impl<K> Drop for Hub<K> {
    fn drop(&mut self) {
        if let Some(h) = self.worker.take() {
            self.stop.store(true, Ordering::SeqCst);
            let _ = h.join();
        }
    }
}

impl TelemetryHub {
    /// Binds a listener (use port 0 for an ephemeral port) and starts
    /// accepting sessions into a fresh private table, with no sink.
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures.
    pub fn bind<A: ToSocketAddrs>(addr: A, config: HubConfig) -> std::io::Result<TelemetryHub> {
        TelemetryHub::bind_with(addr, config, SessionTable::shared(), None)
    }

    /// Binds a listener recording finished sessions into `table`
    /// (shareable with other hubs) and attaching a sink from
    /// `sink_factory` to every accepted session. The hub writes no
    /// FEEDBACK, whatever
    /// [`feedback_every`](SessionRxConfig::feedback_every) says.
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures.
    pub fn bind_with<A: ToSocketAddrs>(
        addr: A,
        mut config: HubConfig,
        table: Arc<SessionTable>,
        sink_factory: Option<SinkFactory>,
    ) -> std::io::Result<TelemetryHub> {
        validate_config(&config)?;
        config.session.feedback_every = None;
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        Ok(Hub::spawn(addr, table, move |table, stop| {
            let core = HubCore::new(config, table, sink_factory);
            tick_loop(listener, addr, core, stop)
        }))
    }
}

/// The TCP hub's [`HubCore`] and a handle on every open connection to
/// close it by, shared by the worker, the acceptor and the connection
/// readers.
struct Shared {
    core: HubCore<u64>,
    conns: HashMap<u64, TcpStream>,
    actions: Vec<Action<u64>>,
}

impl Shared {
    /// Executes the core's closes, each reported back to the core at
    /// once, so nothing the connection's reader still holds reaches the
    /// core. The core sends nothing: the hub runs with FEEDBACK off.
    fn execute(&mut self) {
        self.core.take_actions(&mut self.actions);
        for action in self.actions.drain(..) {
            if let Action::Close(conn) = action {
                if let Some(socket) = self.conns.remove(&conn) {
                    let _ = socket.shutdown(std::net::Shutdown::Both);
                    self.core.on_close(conn, Instant::now());
                }
            }
        }
    }
}

/// The TCP shell's worker: starts the acceptor, ticks the core every
/// poll quantum and runs shutdown. On a stop request it wakes the
/// acceptor out of its blocking accept, then serves the established
/// connections to their end.
fn tick_loop(listener: TcpListener, addr: SocketAddr, core: HubCore<u64>, stop: Arc<AtomicBool>) {
    let shared = Arc::new(Mutex::new(Shared {
        core,
        conns: HashMap::new(),
        actions: Vec::new(),
    }));
    let wake_peer = Arc::new(Mutex::new(None));
    let mut acceptor = Some({
        let shared = Arc::clone(&shared);
        let wake_peer = Arc::clone(&wake_peer);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || accept_loop(&listener, &shared, &wake_peer, &stop))
    });
    let mut readers = Vec::new();
    let mut wake = None;
    loop {
        let pass = Instant::now();
        if let Some(done) = acceptor.take_if(|h| h.is_finished()) {
            readers = done.join().expect("hub acceptor panicked");
        }
        {
            let mut guard = shared.lock().expect("hub core poisoned");
            // Established connections run to their end after a stop
            // request.
            if acceptor.is_none() && guard.conns.is_empty() {
                break;
            }
            guard.core.tick(Instant::now());
            guard.execute();
        }
        if acceptor.is_some() && wake.is_none() && stop.load(Ordering::SeqCst) {
            wake = wake_acceptor(addr, &wake_peer);
        }
        // Waiting for the lock must not stretch the tick past its
        // quantum.
        std::thread::sleep(POLL.saturating_sub(pass.elapsed()));
    }
    for h in readers {
        let _ = h.join();
    }
    let shared = Arc::try_unwrap(shared).ok().expect("every reader joined");
    let shared = shared.into_inner().expect("hub core poisoned");
    shared.core.shutdown(Instant::now());
}

/// Connects to the hub's own address (the loopback of its family when
/// it is bound to an unspecified one) to wake the acceptor. The slot
/// stays locked from the connect to the store of the wake's address, so
/// the acceptor, which compares under the same lock, always finds it
/// there. `None` when the connect failed; the next tick retries.
fn wake_acceptor(mut addr: SocketAddr, wake_peer: &Mutex<Option<SocketAddr>>) -> Option<TcpStream> {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let mut slot = wake_peer.lock().expect("wake slot poisoned");
    let wake = TcpStream::connect_timeout(&addr, POLL).ok()?;
    *slot = Some(wake.local_addr().ok()?);
    Some(wake)
}

/// The TCP hub's acceptor: blocks in `accept`, opens each connection in
/// the core and starts its reader. The worker's wake connection ends the
/// blocking phase; the connections queued behind it are drained without
/// blocking, and the wake itself never reaches the core, where a hub at
/// its session cap would count it as shed. Returns the readers it
/// started.
fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Mutex<Shared>>,
    wake_peer: &Mutex<Option<SocketAddr>>,
    stop: &AtomicBool,
) -> Vec<JoinHandle<()>> {
    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    let mut next_conn = 0u64;
    let mut draining = false;
    loop {
        let (socket, peer) = match listener.accept() {
            Ok(accepted) => accepted,
            // the backlog is drained, or a failed accept ends the drain
            Err(_) if draining || stop.load(Ordering::SeqCst) => break,
            Err(_) => {
                // e.g. out of file descriptors: back off instead of
                // spinning on the error
                std::thread::sleep(POLL);
                continue;
            }
        };
        if *wake_peer.lock().expect("wake slot poisoned") == Some(peer) {
            // the worker's wake: drain the backlog behind it, then stop
            if listener.set_nonblocking(true).is_err() {
                break;
            }
            draining = true;
            continue;
        }
        // Readers block regardless of what the accepted socket inherited.
        let Ok(handle) = socket.try_clone() else {
            continue;
        };
        if socket.set_nonblocking(false).is_err() {
            continue;
        }
        let conn = next_conn;
        next_conn += 1;
        let served = {
            let mut guard = shared.lock().expect("hub core poisoned");
            guard.conns.insert(conn, handle);
            guard.core.on_open(conn, Instant::now());
            guard.execute();
            guard.conns.contains_key(&conn)
        };
        if served {
            // not shed: reap finished readers, start this one
            readers.retain(|h| !h.is_finished());
            let shared = Arc::clone(shared);
            readers.push(std::thread::spawn(move || {
                read_connection(conn, socket, &shared)
            }));
        }
    }
    readers
}

/// One connection's reader: feeds every read to the core, then the EOF
/// (a read error ends the connection the same way).
fn read_connection(conn: u64, mut socket: TcpStream, shared: &Mutex<Shared>) {
    let mut buf = [0u8; 4096];
    loop {
        let read = socket.read(&mut buf);
        if matches!(&read, Err(e) if e.kind() == std::io::ErrorKind::Interrupted) {
            continue;
        }
        let mut guard = shared.lock().expect("hub core poisoned");
        if !guard.conns.contains_key(&conn) {
            return; // the hub closed it
        }
        let Ok(n @ 1..) = read else {
            guard.conns.remove(&conn);
            guard.core.on_close(conn, Instant::now());
            guard.execute();
            return;
        };
        guard.core.on_bytes(conn, &buf[..n], Instant::now());
        guard.execute();
    }
}

/// When and how often a TCP sender retries a failed connect or write:
/// capped exponential backoff with decorrelated jitter, deterministic
/// in `(jitter_seed, attempt)` so a replayed failure schedules the
/// same waits.
///
/// # Example
///
/// ```
/// use datc_wire::gateway::RetryPolicy;
/// use std::time::Duration;
/// let policy = RetryPolicy {
///     max_retries: 6,
///     base_delay: Duration::from_millis(5),
///     max_delay: Duration::from_millis(250),
///     jitter_seed: 0x5EED,
/// };
/// // Delays grow roughly exponentially and never exceed the cap.
/// for attempt in 0..10 {
///     assert!(policy.delay(attempt) <= policy.max_delay);
/// }
/// assert_eq!(RetryPolicy::none().delay(0), Duration::ZERO);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries after the first failure before giving up (0 = fail
    /// fast, the pre-resilience behaviour).
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
    /// Seed for the deterministic decorrelated jitter.
    pub jitter_seed: u64,
}

impl RetryPolicy {
    /// No retries: any connect/write failure is immediately fatal.
    /// [`SessionSender::connect`] uses it, preserving fail-fast
    /// semantics for senders that never opted into resilience.
    pub fn none() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            base_delay: Duration::ZERO,
            max_delay: Duration::ZERO,
            jitter_seed: 0,
        }
    }

    /// The backoff before retry number `attempt` (0-based): capped
    /// exponential, jittered into the upper half of the exponential
    /// step so synchronized senders decorrelate.
    pub fn delay(&self, attempt: u32) -> Duration {
        if self.base_delay.is_zero() {
            return Duration::ZERO;
        }
        let exp = self
            .base_delay
            .saturating_mul(2u32.saturating_pow(attempt.min(16)))
            .min(self.max_delay)
            .max(self.base_delay);
        let j = chaos::unit_f64(chaos::lane(self.jitter_seed, u64::from(attempt), 0xB0FF));
        exp / 2 + exp.mul_f64(0.5 * j)
    }
}

/// Client-side counters a finished sender reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientReport {
    /// Events packetised and written.
    pub events_sent: u64,
    /// Frames the packetizer emitted (HELLO + DATA + BYE, reconnect
    /// re-HELLOs included). Under a chaos link this counts what the
    /// sender *produced*, not what survived the link.
    pub frames_sent: u64,
    /// Wire bytes the packetizer emitted, framing included.
    pub bytes_sent: u64,
    /// UDP only: datagrams the peer actively refused (ICMP port
    /// unreachable on a connected socket — the receiver is gone or
    /// restarting). Counted as transport loss, not as a send failure;
    /// always 0 over TCP.
    pub datagrams_refused: u64,
    /// TCP only: write/connect attempts that failed and were retried
    /// under the sender's [`RetryPolicy`]. Always 0 over UDP.
    pub retries: u64,
    /// TCP only: successful reconnect-and-resume cycles (each re-sent
    /// the HELLO so the hub could adopt the parked session).
    pub reconnects: u64,
    /// UDP only: DATA frames retransmitted from the sender's
    /// [`ReplayBuffer`](crate::flow::ReplayBuffer) in response to
    /// feedback-reported holes (see
    /// [`UdpSessionSender::with_flow`](crate::udp::UdpSessionSender::with_flow)).
    /// The receiver duplicate-drops any repair that raced the original,
    /// so the books stay exact. Always 0 over TCP, which retransmits at
    /// the transport layer instead.
    pub repairs: u64,
    /// `true` when the sender exhausted its retry budget and abandoned
    /// the session (the corresponding call also returned an error).
    pub gave_up: bool,
}

/// The transport-independent half of a sender: the packetizer, the
/// optional chaos link and whether the sender gave up. A
/// [`Transport`]'s write path books its give-ups here.
#[derive(Debug)]
pub struct SenderCore {
    pub(crate) packetizer: Packetizer,
    chaos: Option<ChaosLink>,
    pub(crate) gave_up: bool,
}

/// The write path a [`Sender`] runs over: [`TcpTransport`] behind
/// [`SessionSender`], [`UdpTransport`](crate::udp::UdpTransport) behind
/// [`UdpSessionSender`](crate::udp::UdpSessionSender). Packetizing,
/// chaos routing and the client report belong to the sender, once for
/// both; retrying is the transport's own business. The hooks below
/// default to doing nothing.
pub trait Transport {
    /// Writes one framed chunk, booking a give-up in `core`.
    fn write(&mut self, core: &mut SenderCore, frame: &[u8]) -> std::io::Result<()>;

    /// The chaos link declared the connection dead at this point.
    fn disconnect(&mut self) {}

    /// A batch of DATA frames went out, the first one carrying
    /// cumulative event index `first_index`.
    fn sent(
        &mut self,
        _core: &mut SenderCore,
        _first_index: u64,
        _frames: &[Vec<u8>],
    ) -> std::io::Result<()> {
        Ok(())
    }

    /// Runs after the last DATA frame, before the BYE.
    fn drain(&mut self, _core: &mut SenderCore) -> std::io::Result<()> {
        Ok(())
    }

    /// Runs after the BYE went out.
    fn close(&mut self) -> std::io::Result<()> {
        Ok(())
    }

    /// Fills in the transport's own [`ClientReport`] counters.
    fn annotate(&self, _report: &mut ClientReport) {}
}

/// One transmit session over a [`Transport`] — use it as
/// [`SessionSender`] (TCP) or
/// [`UdpSessionSender`](crate::udp::UdpSessionSender).
#[derive(Debug)]
pub struct Sender<T> {
    pub(crate) core: SenderCore,
    pub(crate) transport: T,
}

impl<T: Transport> Sender<T> {
    /// Wraps a connected transport and sends the HELLO through it.
    pub(crate) fn open(transport: T, header: SessionHeader) -> std::io::Result<Sender<T>> {
        let mut tx = Sender {
            core: SenderCore {
                packetizer: Packetizer::new(header),
                chaos: None,
                gave_up: false,
            },
            transport,
        };
        let hello = tx.core.packetizer.hello();
        tx.transport.write(&mut tx.core, &hello)?;
        Ok(tx)
    }

    /// Routes every DATA frame through a deterministic [`ChaosLink`]:
    /// frames are dropped, duplicated, reordered, damaged, or delayed
    /// per the link's plan. A disconnect boundary tears a TCP socket
    /// down mid-session (exercising the retry/resume path); on UDP it
    /// is just the outage window of drops the link already applied.
    /// HELLO, BYE and flow-control repairs bypass the link so the
    /// session books stay decidable.
    #[must_use]
    pub fn with_chaos(mut self, link: ChaosLink) -> Self {
        self.core.chaos = Some(link);
        self
    }

    /// The chaos link's counters, when one is attached.
    pub fn chaos_stats(&self) -> Option<ChaosStats> {
        self.core.chaos.as_ref().map(ChaosLink::stats)
    }

    /// The chaos link itself (fate log, replay seed), when attached.
    pub fn chaos_link(&self) -> Option<&ChaosLink> {
        self.core.chaos.as_ref()
    }

    /// Client-side counter snapshot; valid at any point in the
    /// session, including after a send error (check
    /// [`ClientReport::gave_up`]).
    pub fn report(&self) -> ClientReport {
        let core = &self.core;
        let mut report = ClientReport {
            events_sent: core.packetizer.events_sent(),
            frames_sent: core.packetizer.frames_emitted(),
            bytes_sent: core.packetizer.bytes_emitted(),
            datagrams_refused: 0,
            retries: 0,
            reconnects: 0,
            repairs: 0,
            gave_up: core.gave_up,
        };
        self.transport.annotate(&mut report);
        report
    }

    /// Packetises and writes a run of (tick-ordered) events; over UDP
    /// each DATA frame is one datagram.
    ///
    /// # Errors
    ///
    /// Propagates write failures once the retry budget (if any) is
    /// spent.
    pub fn send_events(&mut self, events: &[AddressedEvent]) -> std::io::Result<()> {
        let first_index = self.core.packetizer.events_sent();
        let frames = self.core.packetizer.data_frames(events);
        let mut out: Vec<Vec<u8>> = Vec::new();
        for frame in &frames {
            let Some(link) = self.core.chaos.as_mut() else {
                self.transport.write(&mut self.core, frame)?;
                continue;
            };
            out.clear();
            link.push(frame, &mut out);
            if link.take_disconnect() {
                self.transport.disconnect();
            }
            for unit in &out {
                self.transport.write(&mut self.core, unit)?;
            }
        }
        self.transport.sent(&mut self.core, first_index, &frames)
    }

    /// Flushes any frames the chaos link still holds, runs the
    /// transport's drain (UDP with flow control: wait on feedback and
    /// repair the holes and the tail it reports until the receiver
    /// confirms everything sent or the
    /// [`FlowConfig::drain`](crate::flow::FlowConfig::drain) budget
    /// runs out), sends the BYE, closes (TCP: flush and half-close) and
    /// reports the client-side counters.
    ///
    /// # Errors
    ///
    /// Propagates write/shutdown failures once the retry budget (if
    /// any) is spent.
    pub fn finish(mut self) -> std::io::Result<ClientReport> {
        let mut tail: Vec<Vec<u8>> = Vec::new();
        if let Some(link) = self.core.chaos.as_mut() {
            link.flush(&mut tail);
        }
        for unit in &tail {
            self.transport.write(&mut self.core, unit)?;
        }
        self.transport.drain(&mut self.core)?;
        let bye = self.core.packetizer.bye();
        self.transport.write(&mut self.core, &bye)?;
        self.transport.close()?;
        Ok(self.report())
    }
}

/// One transmit session over one TCP connection.
///
/// # Example
///
/// ```no_run
/// use datc_wire::gateway::SessionSender;
/// use datc_wire::packet::SessionHeader;
///
/// let header = SessionHeader::new(1, 4, 2000.0, 20.0);
/// let mut tx = SessionSender::connect("127.0.0.1:9000", header).unwrap();
/// tx.send_events(&[]).unwrap();
/// let report = tx.finish().unwrap();
/// assert_eq!(report.events_sent, 0);
/// ```
pub type SessionSender = Sender<TcpTransport>;

/// The TCP [`Transport`]: one connection, reconnected with the HELLO
/// re-sent when a write fails, under a [`RetryPolicy`].
#[derive(Debug)]
pub struct TcpTransport {
    socket: TcpStream,
    addrs: Vec<SocketAddr>,
    retry: RetryPolicy,
    retries: u64,
    reconnects: u64,
}

fn connect_any(addrs: &[SocketAddr]) -> std::io::Result<TcpStream> {
    let mut last = std::io::Error::new(
        std::io::ErrorKind::InvalidInput,
        "no address resolved for sender",
    );
    for addr in addrs {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => last = e,
        }
    }
    Err(last)
}

impl Transport for TcpTransport {
    /// Writes one frame, retrying with backoff + reconnect under the
    /// transport's policy. On reconnect the HELLO is re-sent first (same
    /// header, same DATA-V2 nonce), which is what lets the hub adopt
    /// the parked session and the decoder book the outage as loss.
    fn write(&mut self, core: &mut SenderCore, frame: &[u8]) -> std::io::Result<()> {
        let mut attempt = 0u32;
        loop {
            match self.socket.write_all(frame) {
                Ok(()) => return Ok(()),
                Err(e) => {
                    if attempt >= self.retry.max_retries {
                        core.gave_up = true;
                        return Err(e);
                    }
                    std::thread::sleep(self.retry.delay(attempt));
                    attempt += 1;
                    self.retries += 1;
                    if let Ok(socket) = connect_any(&self.addrs) {
                        self.socket = socket;
                        self.reconnects += 1;
                        let hello = core.packetizer.hello();
                        // A failed re-HELLO falls through to the next
                        // attempt (the write above fails again).
                        let _ = self.socket.write_all(&hello);
                    }
                }
            }
        }
    }

    /// Half-closes our side so the next write takes the
    /// reconnect-and-resume path. Write-only shutdown (not `Both`,
    /// whose SHUT_RD would make our own reads return EOF immediately)
    /// lets us then drain the peer's FIN — the hub closes its end only
    /// after parking the session, so once the drain completes the park
    /// deterministically exists and the reconnect adopts it instead of
    /// racing the old connection's EOF.
    fn disconnect(&mut self) {
        let _ = self.socket.shutdown(std::net::Shutdown::Write);
        let _ = self
            .socket
            .set_read_timeout(Some(crate::hub::RESUME_HANDOFF));
        let mut drain = [0u8; 512];
        while matches!(self.socket.read(&mut drain), Ok(n) if n > 0) {}
    }

    fn close(&mut self) -> std::io::Result<()> {
        self.socket.flush()?;
        self.socket.shutdown(std::net::Shutdown::Write)
    }

    fn annotate(&self, report: &mut ClientReport) {
        report.retries = self.retries;
        report.reconnects = self.reconnects;
    }
}

impl SessionSender {
    /// Connects and sends the HELLO, failing fast on any error
    /// ([`RetryPolicy::none`]).
    ///
    /// # Errors
    ///
    /// Propagates connection/write failures.
    pub fn connect<A: ToSocketAddrs>(
        addr: A,
        header: SessionHeader,
    ) -> std::io::Result<SessionSender> {
        SessionSender::connect_with(addr, header, RetryPolicy::none())
    }

    /// Connects and sends the HELLO under a [`RetryPolicy`]: failed
    /// connects and writes back off and retry; once connected, a write
    /// failure reconnects and re-sends the HELLO so the hub can adopt
    /// the parked session (resume — the outage is booked as
    /// exactly-counted loss, not a second session).
    ///
    /// # Errors
    ///
    /// Propagates the last failure once the retry budget is spent.
    pub fn connect_with<A: ToSocketAddrs>(
        addr: A,
        header: SessionHeader,
        retry: RetryPolicy,
    ) -> std::io::Result<SessionSender> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let mut attempt = 0u32;
        let socket = loop {
            match connect_any(&addrs) {
                Ok(s) => break s,
                Err(e) => {
                    if attempt >= retry.max_retries {
                        return Err(e);
                    }
                    std::thread::sleep(retry.delay(attempt));
                    attempt += 1;
                }
            }
        };
        let transport = TcpTransport {
            socket,
            addrs,
            retry,
            retries: u64::from(attempt),
            reconnects: 0,
        };
        Sender::open(transport, header)
    }
}

/// Rejects hub configs that would panic lazily inside a hub thread
/// (where a panic means silently lost sessions, not an error): the
/// hub's own settings, the [`ForceRing`](crate::sink::ForceRing) assert
/// and the reconstructor's
/// [`validate`](datc_rx::online::OnlineReconSelect::validate) rule, all
/// of which first bite on a session's HELLO.
pub(crate) fn validate_config(config: &HubConfig) -> std::io::Result<()> {
    let invalid = |what: &str| {
        Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!("invalid hub config: {what}"),
        ))
    };

    if config.session.force_window == Some(0) {
        return invalid("force_window must be positive (use None for unbounded)");
    }
    if config.idle_timeout == Some(Duration::ZERO) {
        return invalid("idle_timeout must be positive (use None to disable eviction)");
    }
    if config.resume_window == Some(Duration::ZERO) {
        return invalid("resume_window must be positive (use None to disable resume)");
    }
    if config.bye_grace.is_zero() {
        return invalid("bye_grace must be positive");
    }
    if config.session.parked_bytes_cap == Some(0) {
        return invalid("parked_bytes_cap must be positive (use None for unbounded)");
    }
    if config.session.feedback_every == Some(Duration::ZERO) {
        return invalid("feedback_every must be positive (use None to disable feedback)");
    }
    config
        .session
        .recon
        .validate(config.session.output_fs)
        .or_else(|reason| invalid(&reason))
}

/// Builds the session header a fleet encode announces.
pub(crate) fn fleet_header(session_id: u32, fleet: &FleetOutput) -> SessionHeader {
    let first = fleet
        .channels
        .first()
        .expect("fleet must have at least one channel");
    SessionHeader::new(
        session_id,
        u16::try_from(fleet.channel_count()).expect("≤ 256 channels per AER session"),
        first.events.tick_rate_hz(),
        first.events.duration_s(),
    )
}

/// Streams a whole fleet encode through one gateway session: merges the
/// per-channel streams onto one AER order (dead time `dead_time_s`) and
/// sends the result.
///
/// # Errors
///
/// Propagates connection/write failures.
///
/// # Panics
///
/// Panics when the fleet is empty or has more than 256 channels.
pub fn stream_fleet<A: ToSocketAddrs>(
    addr: A,
    session_id: u32,
    fleet: &FleetOutput,
    dead_time_s: f64,
) -> std::io::Result<ClientReport> {
    let header = fleet_header(session_id, fleet);
    let merged = fleet.merge_aer(dead_time_s);
    let mut tx = SessionSender::connect(addr, header)?;
    tx.send_events(&merged.merged)?;
    tx.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{capture_store, MemorySink};
    use datc_core::{DatcConfig, Event, TraceLevel};
    use datc_engine::FleetRunner;
    use datc_signal::Signal;
    use std::io::ErrorKind;

    fn hub() -> TelemetryHub {
        TelemetryHub::bind("127.0.0.1:0", HubConfig::default()).expect("bind loopback")
    }

    #[test]
    fn single_session_round_trips_through_the_hub() {
        let hub = hub();
        let header = SessionHeader::new(42, 2, 2000.0, 2.0);
        let events: Vec<AddressedEvent> = (0..150)
            .map(|i| AddressedEvent {
                channel: (i % 2) as u8,
                event: Event::at_tick(i * 17, header.tick_period_s, Some((i % 16) as u8)),
            })
            .collect();
        let mut tx = SessionSender::connect(hub.local_addr(), header).unwrap();
        tx.send_events(&events).unwrap();
        let client = tx.finish().unwrap();
        assert_eq!(client.events_sent, 150);

        let sessions = hub.shutdown();
        assert_eq!(sessions.len(), 1);
        let s = &sessions[0];
        assert_eq!(s.session_id, 42);
        assert_eq!(s.bytes_received, client.bytes_sent);
        assert_eq!(s.report.stats.events_decoded, 150);
        assert_eq!(s.report.stats.events_lost, 0);
        assert!(s.report.stats.closed);
        assert!(s.report.force_is_finite());
    }

    #[test]
    fn many_concurrent_sessions_all_land_in_the_table() {
        let hub = hub();
        let addr = hub.local_addr();
        let n_sessions = 8u32;
        let handles: Vec<_> = (0..n_sessions)
            .map(|id| {
                std::thread::spawn(move || {
                    let header = SessionHeader::new(id, 1, 2000.0, 1.0);
                    let events: Vec<AddressedEvent> = (0..60)
                        .map(|i| AddressedEvent {
                            channel: 0,
                            event: Event::at_tick(
                                i * 31 + u64::from(id),
                                header.tick_period_s,
                                None,
                            ),
                        })
                        .collect();
                    let mut tx = SessionSender::connect(addr, header).unwrap();
                    tx.send_events(&events).unwrap();
                    tx.finish().unwrap()
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let sessions = hub.shutdown();
        assert_eq!(sessions.len(), n_sessions as usize);
        for s in &sessions {
            assert_eq!(
                s.report.stats.events_decoded, 60,
                "session {}",
                s.session_id
            );
            assert_eq!(s.report.stats.events_lost, 0);
        }
    }

    #[test]
    fn a_tcp_sender_gets_no_bytes_back_and_eof_after_its_bye() {
        let config = HubConfig {
            session: SessionRxConfig {
                feedback_every: Some(Duration::from_millis(1)),
                ..HubConfig::default().session
            },
            ..HubConfig::default()
        };
        let hub = TelemetryHub::bind("127.0.0.1:0", config).unwrap();
        let header = SessionHeader::new(21, 1, 2000.0, 2.0);
        let events: Vec<AddressedEvent> = (0..400)
            .map(|i| AddressedEvent {
                channel: 0,
                event: Event::at_tick(i * 9, header.tick_period_s, Some(2)),
            })
            .collect();
        let mut tx = Packetizer::new(header);
        let mut client = TcpStream::connect(hub.local_addr()).unwrap();
        client.write_all(&tx.hello()).unwrap();
        client.write_all(&tx.data_frames(&events).concat()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while hub.health().sessions_started == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(hub.health().in_flight, 1, "the session is in flight");
        // ten ticks of the core, twenty feedback periods
        std::thread::sleep(10 * POLL);
        client
            .set_read_timeout(Some(Duration::from_millis(50)))
            .unwrap();
        let mut buf = [0u8; 64];
        match client.read(&mut buf) {
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            other => panic!("the hub wrote back to a TCP sender: {other:?}"),
        }

        // whole books: the BYE retires the session and closes the
        // connection, with still nothing written before the EOF
        client.write_all(&tx.bye()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut rest = Vec::new();
        assert!(matches!(client.read_to_end(&mut rest), Ok(0)), "{rest:?}");
        let sessions = hub.shutdown();
        assert_eq!(sessions.len(), 1);
        assert!(sessions[0].report.stats.closed);
        assert_eq!(sessions[0].report.stats.events_decoded, 400);
    }

    #[test]
    fn shutdown_at_the_session_cap_sheds_nothing() {
        let config = HubConfig {
            max_sessions: Some(1),
            ..HubConfig::default()
        };
        let hub = TelemetryHub::bind("127.0.0.1:0", config).unwrap();
        let table = hub.session_table();
        let header = SessionHeader::new(31, 1, 2000.0, 1.0);
        let events: Vec<AddressedEvent> = (0..100)
            .map(|i| AddressedEvent {
                channel: 0,
                event: Event::at_tick(i * 13, header.tick_period_s, Some(1)),
            })
            .collect();
        let mut tx = Packetizer::new(header);
        let mut client = TcpStream::connect(hub.local_addr()).unwrap();
        client.write_all(&tx.hello()).unwrap();
        client.write_all(&tx.data_frames(&events).concat()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        while table.health().sessions_started == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(table.health().in_flight, 1, "the hub is at its cap");

        // The stop request wakes the acceptor while the session holds the
        // cap's one slot; the session ends only after that.
        let stopping = std::thread::spawn(move || hub.shutdown());
        std::thread::sleep(20 * POLL);
        client.write_all(&tx.bye()).unwrap();
        client.shutdown(std::net::Shutdown::Write).unwrap();
        let sessions = stopping.join().unwrap();
        assert_eq!(sessions.len(), 1);
        assert_eq!(sessions[0].report.stats.events_decoded, 100);
        assert!(sessions[0].report.stats.closed);
        assert_eq!(table.health().shed, 0, "the wake is not a session");
    }

    #[test]
    fn an_idle_hub_dropped_without_shutdown_returns() {
        let hub = hub();
        let (done, returned) = std::sync::mpsc::channel();
        let dropping = std::thread::spawn(move || {
            drop(hub);
            done.send(()).unwrap();
        });
        assert!(
            returned.recv_timeout(Duration::from_secs(10)).is_ok(),
            "dropping the hub left its acceptor blocked in accept"
        );
        dropping.join().unwrap();
    }

    #[test]
    fn a_hub_bound_to_the_unspecified_address_serves_and_shuts_down() {
        let hub = TelemetryHub::bind("0.0.0.0:0", HubConfig::default()).unwrap();
        assert!(hub.local_addr().ip().is_unspecified());
        let addr = SocketAddr::from((Ipv4Addr::LOCALHOST, hub.local_addr().port()));
        let header = SessionHeader::new(8, 1, 2000.0, 1.0);
        let events: Vec<AddressedEvent> = (0..50)
            .map(|i| AddressedEvent {
                channel: 0,
                event: Event::at_tick(i * 20, header.tick_period_s, None),
            })
            .collect();
        let mut tx = SessionSender::connect(addr, header).unwrap();
        tx.send_events(&events).unwrap();
        tx.finish().unwrap();
        let sessions = hub.shutdown();
        assert_eq!(sessions.len(), 1);
        assert_eq!(sessions[0].report.stats.events_decoded, 50);
        assert_eq!(sessions[0].report.stats.events_lost, 0);
    }

    #[test]
    fn fleet_output_streams_through_one_session() {
        let signals: Vec<Signal> = (0..4)
            .map(|c| {
                Signal::from_fn(2500.0, 1.0, move |t| {
                    ((t * (40.0 + 9.0 * c as f64)).sin()).abs() * 0.4
                })
            })
            .collect();
        let fleet = FleetRunner::new(DatcConfig::paper().with_trace_level(TraceLevel::Events), 4)
            .unwrap()
            .encode(&signals);
        let merged_events = fleet.merge_aer(25e-6).merged.len() as u64;

        let hub = hub();
        let client = stream_fleet(hub.local_addr(), 7, &fleet, 25e-6).unwrap();
        assert_eq!(client.events_sent, merged_events);

        let sessions = hub.shutdown();
        assert_eq!(sessions.len(), 1);
        assert_eq!(sessions[0].report.stats.events_decoded, merged_events);
        assert_eq!(sessions[0].report.stats.events_lost, 0);
        assert_eq!(sessions[0].report.force_tail.len(), 4);
        assert!(sessions[0].report.force_is_finite());
    }

    #[test]
    fn hub_sessions_run_in_bounded_memory_with_full_stream_via_sink() {
        // A session twice the default window long: the table keeps only
        // the bounded tail, the sink sees every sample.
        let long_s = 2.0 * DEFAULT_HUB_FORCE_WINDOW as f64 / 100.0;
        let header = SessionHeader::new(5, 1, 2000.0, long_s);
        let tick_max = (long_s * 2000.0) as u64;
        let events: Vec<AddressedEvent> = (0..tick_max)
            .step_by(40)
            .map(|t| AddressedEvent {
                channel: 0,
                event: Event::at_tick(t, header.tick_period_s, Some((t % 16) as u8)),
            })
            .collect();

        let store = capture_store();
        let factory: SinkFactory = {
            let store = store.clone();
            Arc::new(move |_conn_id| Box::new(MemorySink::new(store.clone())) as Box<_>)
        };
        let hub = TelemetryHub::bind_with(
            "127.0.0.1:0",
            HubConfig::default(),
            SessionTable::shared(),
            Some(factory),
        )
        .unwrap();
        let mut tx = SessionSender::connect(hub.local_addr(), header).unwrap();
        tx.send_events(&events).unwrap();
        tx.finish().unwrap();
        let sessions = hub.shutdown();

        let n_out = (long_s * 100.0).floor() as usize;
        assert_eq!(sessions.len(), 1);
        let report = &sessions[0].report;
        assert_eq!(report.force_emitted[0], n_out, "exact emitted total");
        assert_eq!(
            report.force_tail[0].len(),
            DEFAULT_HUB_FORCE_WINDOW,
            "table holds only the bounded tail"
        );
        let captures = store.lock().unwrap();
        assert_eq!(captures.len(), 1);
        assert_eq!(captures[0].force[0].len(), n_out, "sink saw every sample");
        assert_eq!(
            &captures[0].force[0][n_out - DEFAULT_HUB_FORCE_WINDOW..],
            report.force_tail[0].as_slice(),
            "tail is the suffix of the sink's full trace"
        );
    }

    #[test]
    fn two_hubs_share_one_table_without_conn_id_collisions() {
        let table = SessionTable::shared();
        let hub_a =
            TelemetryHub::bind_with("127.0.0.1:0", HubConfig::default(), table.clone(), None)
                .unwrap();
        let hub_b =
            TelemetryHub::bind_with("127.0.0.1:0", HubConfig::default(), table.clone(), None)
                .unwrap();
        for (id, addr) in [(1u32, hub_a.local_addr()), (2, hub_b.local_addr())] {
            let header = SessionHeader::new(id, 1, 2000.0, 1.0);
            let mut tx = SessionSender::connect(addr, header).unwrap();
            tx.send_events(&[]).unwrap();
            tx.finish().unwrap();
        }
        hub_a.shutdown();
        let all = hub_b.shutdown();
        assert_eq!(all.len(), 2, "both transports land in the one table");
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn mid_session_disconnect_resumes_and_books_outage_as_loss() {
        let hub = hub();
        let table = hub.session_table();
        let header = SessionHeader::new(77, 2, 2000.0, 2.0);
        let events: Vec<AddressedEvent> = (0..2000)
            .map(|i| AddressedEvent {
                channel: (i % 2) as u8,
                event: Event::at_tick(i * 17, header.tick_period_s, Some((i % 16) as u8)),
            })
            .collect();
        let retry = RetryPolicy {
            max_retries: 8,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(10),
            jitter_seed: 1,
        };
        let mut tx = SessionSender::connect_with(hub.local_addr(), header, retry)
            .unwrap()
            .with_chaos(ChaosLink::new(
                0xC0FFEE,
                crate::chaos::ChaosProfile::outage(8, 2),
            ));
        // One 16-event chunk per send ⇒ one DATA frame ⇒ one chaos
        // unit, so chunk k maps onto fates()[k] exactly.
        for chunk in events.chunks(16) {
            tx.send_events(chunk).unwrap();
        }
        let expected_lost: u64 = tx
            .chaos_link()
            .expect("chaos installed")
            .fates()
            .iter()
            .zip(events.chunks(16))
            .filter(|(f, _)| f.is_lost())
            .map(|(_, chunk)| chunk.len() as u64)
            .sum();
        assert!(expected_lost > 0, "the outage profile must cost something");
        let client = tx.finish().unwrap();
        assert!(client.reconnects >= 1, "disconnects forced reconnects");
        assert!(
            client.retries >= client.reconnects,
            "every reconnect follows a failed write"
        );
        assert!(!client.gave_up);
        assert_eq!(client.events_sent, 2000);

        let sessions = hub.shutdown();
        assert_eq!(sessions.len(), 1, "resume stitched one session, not many");
        let s = &sessions[0];
        assert_eq!(s.session_id, 77);
        assert!(s.report.stats.closed, "BYE decoded after the reconnects");
        assert_eq!(s.report.stats.events_lost, expected_lost);
        assert_eq!(s.report.stats.events_decoded + expected_lost, 2000);
        assert!(s.report.force_is_finite());

        let health = table.health();
        assert_eq!(health.sessions_started, 1, "adoptions never double-count");
        assert_eq!(health.resumed, client.reconnects);
        assert_eq!(health.in_flight, 0);
        assert_eq!(health.events_lost, expected_lost);
    }
}
