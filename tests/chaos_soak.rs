//! Chaos soak (the CI gate for the resilience subsystem): drive
//! motor-fleet traffic through hostile links under pinned seeds and
//! assert the books stay *exact* — every injected fault is either
//! survived or counted, never smeared.
//!
//! Every failure message carries the chaos seed: rerun with the same
//! seed and the whole fault schedule replays bit-for-bit
//! (`ChaosLink::new(seed, profile)` is pure in its arguments).
//!
//! Profile coverage:
//!
//! * `lossy` (drop + duplicate + reorder) over TCP and over UDP;
//! * `bursty` (drop + stall windows) over TCP;
//! * `mangler` (drop + bit corruption + truncation) over TCP;
//! * `outage` (periodic disconnects) over TCP with sender retries and
//!   hub-side session resume;
//! * `outage+stall` (disconnect windows × stall windows, combined)
//!   over UDP;
//! * `lossy` over UDP with receiver-driven flow control: FEEDBACK
//!   frames drive replay-window repairs (in-window losses recovered,
//!   books still exact) and a pressured hub throttles a compliant
//!   sender via AIMD instead of quarantining it.

use std::sync::Arc;

use datc::core::{DatcConfig, TraceLevel};
use datc::engine::{FleetOutput, FleetRunner};
use datc::rx::reconstruct::{Reconstructor, ThresholdTrackReconstructor};
use datc::signal::generator::semg_fleet;
use datc::uwb::aer::AddressedEvent;
use datc::wire::chaos::{DisconnectPlan, StallWindow};
use datc::wire::flow::{AimdConfig, FlowConfig};
use datc::wire::udp::{UdpSessionSender, UdpTelemetryHub};
use datc::wire::{
    capture_store, ChaosLink, ChaosProfile, Fate, HubConfig, HubSession, MemorySink, RetryPolicy,
    SessionSender, SessionTable, SinkFactory, TelemetryHub,
};

const CHANNELS: usize = 3;
const DEAD_TIME: f64 = 25e-6;
/// One DATA frame per chunk ⇒ chunk `k` is chaos unit `k`, which is
/// what makes the fate log translate into an exact expected-loss
/// number (the default events-per-frame cap is far above this). Small
/// enough that a 2 s session spans ~90 units — past the bursty
/// profile's first stall window.
const CHUNK: usize = 8;

fn encode_fleet(seed: u64) -> FleetOutput {
    let config = DatcConfig::paper().with_trace_level(TraceLevel::Events);
    let signals = semg_fleet(CHANNELS, 2.0, seed);
    FleetRunner::new(config, CHANNELS)
        .expect("valid fleet")
        .encode(&signals)
}

/// Expected exact loss implied by a fate log: total and per channel.
/// `fates()[k]` is the fate of the DATA frame carrying `chunks[k]`; a
/// lost fate (drop, outage drop, corruption, truncation) costs exactly
/// that chunk's events.
fn expected_loss(fates: &[Fate], events: &[AddressedEvent]) -> (u64, Vec<u64>) {
    let mut total = 0u64;
    let mut per_channel = vec![0u64; CHANNELS];
    for (fate, chunk) in fates.iter().zip(events.chunks(CHUNK)) {
        if fate.is_lost() {
            total += chunk.len() as u64;
            for ae in chunk {
                per_channel[usize::from(ae.channel)] += 1;
            }
        }
    }
    (total, per_channel)
}

/// Asserts a finished session's books match the fate log exactly and
/// that the streamed reconstruction is bit-identical to the batch
/// reconstruction of the events that actually survived (from a sink
/// capture).
fn assert_exact_books(
    s: &HubSession,
    survivors: &[AddressedEvent],
    total_sent: u64,
    expected_total: u64,
    expected_per_channel: &[u64],
    seed: u64,
    what: &str,
) {
    assert!(
        s.report.stats.closed,
        "{what}: BYE must close the books (seed {seed:#x})"
    );
    assert_eq!(
        s.report.stats.events_lost, expected_total,
        "{what}: exact injected loss (seed {seed:#x})"
    );
    assert_eq!(
        s.report.stats.events_decoded + s.report.stats.events_lost,
        total_sent,
        "{what}: decoded + lost == sent (seed {seed:#x})"
    );
    for (ch, expected) in expected_per_channel.iter().enumerate() {
        assert_eq!(
            s.report.stats.per_channel[ch].lost,
            Some(*expected),
            "{what}: channel {ch} exact loss (seed {seed:#x})"
        );
    }
    assert_eq!(
        survivors.len() as u64,
        s.report.stats.events_decoded,
        "{what}: sink saw each decoded event exactly once (seed {seed:#x})"
    );
    assert!(s.report.force_is_finite());
    // Bit-exactness of the degraded reconstruction: streaming over the
    // survivors equals batch over the survivors, channel for channel.
    let header = s.report.header.expect("hello processed");
    let demuxed =
        datc::uwb::aer::demux(survivors, CHANNELS, header.tick_rate_hz, header.duration_s);
    for (ch, stream) in demuxed.iter().enumerate() {
        let batch = ThresholdTrackReconstructor::paper().reconstruct(stream, 100.0);
        assert_eq!(
            s.report.force_tail[ch],
            batch.samples(),
            "{what}: channel {ch} bit-exact on survivors (seed {seed:#x})"
        );
    }
}

fn sink_hub() -> (
    TelemetryHub,
    Arc<std::sync::Mutex<Vec<datc::wire::SessionCapture>>>,
) {
    let store = capture_store();
    let factory: SinkFactory = {
        let store = store.clone();
        Arc::new(move |_conn| Box::new(MemorySink::new(store.clone())) as Box<_>)
    };
    let hub = TelemetryHub::bind_with(
        "127.0.0.1:0",
        threshold_track_config(),
        SessionTable::shared(),
        Some(factory),
    )
    .expect("bind loopback");
    (hub, store)
}

/// The paper's D-ATC receiver with unbounded traces (sessions are
/// seconds long, well inside test memory).
fn threshold_track_config() -> HubConfig {
    HubConfig {
        session: datc::wire::SessionRxConfig {
            recon: datc::rx::online::OnlineReconSelect::paper_threshold_track(),
            force_window: None,
            ..datc::wire::SessionRxConfig::default()
        },
        ..HubConfig::default()
    }
}

/// Everything a soak assertion needs from one chaos session over TCP.
struct SoakRun {
    session: HubSession,
    /// The events the sink actually captured (the survivors).
    survivors: Vec<AddressedEvent>,
    /// The full merged stream the sender offered.
    merged: Vec<AddressedEvent>,
    /// The chaos fate log, one entry per DATA frame.
    fates: Vec<Fate>,
    client: datc::wire::ClientReport,
    health: datc::wire::HubHealth,
}

fn soak_tcp(seed: u64, profile: ChaosProfile, retry: RetryPolicy, session_id: u32) -> SoakRun {
    let (hub, store) = sink_hub();
    let table = hub.session_table();
    let fleet = encode_fleet(4242 + u64::from(session_id));
    let merged = fleet.merge_aer(DEAD_TIME).merged;
    let header = datc::wire::SessionHeader::new(
        session_id,
        CHANNELS as u16,
        fleet.channels[0].events.tick_rate_hz(),
        fleet.channels[0].events.duration_s(),
    );
    let mut tx = SessionSender::connect_with(hub.local_addr(), header, retry)
        .expect("connect")
        .with_chaos(ChaosLink::new(seed, profile));
    for chunk in merged.chunks(CHUNK) {
        tx.send_events(chunk).expect("send under chaos");
    }
    let fates_before_flush = tx.chaos_link().expect("chaos installed").fates().to_vec();
    let client = tx.finish().expect("finish under chaos");
    // Health is read *after* shutdown joins the worker threads, so the
    // counters have settled (the table outlives the hub).
    let sessions = hub.shutdown();
    let health = table.health();
    assert_eq!(
        sessions.len(),
        1,
        "one stitched session under {} (seed {seed:#x})",
        profile.name
    );
    let captures = store.lock().unwrap();
    let survivors = captures[0].events.clone();
    SoakRun {
        session: sessions.into_iter().next().unwrap(),
        survivors,
        merged,
        fates: fates_before_flush,
        client,
        health,
    }
}

#[test]
fn lossy_profile_over_tcp_books_every_fault_exactly() {
    const SEED: u64 = 0xA5A5_0001;
    let run = soak_tcp(SEED, ChaosProfile::lossy(), RetryPolicy::none(), 1);
    let (expected_total, expected_per_channel) = expected_loss(&run.fates, &run.merged);
    assert!(expected_total > 0, "lossy profile must cost something");
    assert_eq!(run.client.events_sent, run.merged.len() as u64);
    assert_eq!(run.client.reconnects, 0);
    assert!(!run.client.gave_up);
    assert_exact_books(
        &run.session,
        &run.survivors,
        run.merged.len() as u64,
        expected_total,
        &expected_per_channel,
        SEED,
        "lossy/tcp",
    );
}

#[test]
fn bursty_profile_over_tcp_stall_windows_cost_latency_not_loss() {
    const SEED: u64 = 0xA5A5_0002;
    let run = soak_tcp(SEED, ChaosProfile::bursty(), RetryPolicy::none(), 2);
    let (expected_total, expected_per_channel) = expected_loss(&run.fates, &run.merged);
    assert!(!run.client.gave_up);
    assert_exact_books(
        &run.session,
        &run.survivors,
        run.merged.len() as u64,
        expected_total,
        &expected_per_channel,
        SEED,
        "bursty/tcp",
    );
    // Stalled units were buffered, never lost: only dice drops cost.
    let stalled = run.fates.iter().filter(|f| **f == Fate::Stall).count();
    assert!(stalled > 0, "the stall window engaged (seed {SEED:#x})");
}

#[test]
fn mangler_profile_over_tcp_corruption_is_counted_not_smeared() {
    const SEED: u64 = 0xA5A5_0003;
    let run = soak_tcp(SEED, ChaosProfile::mangler(), RetryPolicy::none(), 3);
    let (expected_total, expected_per_channel) = expected_loss(&run.fates, &run.merged);
    assert!(!run.client.gave_up);
    // Pinned seed: this exact fault schedule was validated once to hit
    // no CRC false-accept (~2⁻¹⁶ per damaged frame on arbitrary seeds)
    // and replays deterministically forever after.
    assert!(
        run.session.report.stats.crc_failures > 0,
        "the mangler damaged frames on the wire (seed {SEED:#x})"
    );
    assert_exact_books(
        &run.session,
        &run.survivors,
        run.merged.len() as u64,
        expected_total,
        &expected_per_channel,
        SEED,
        "mangler/tcp",
    );
}

#[test]
fn outage_profile_over_tcp_retries_resume_and_book_the_outage_as_loss() {
    const SEED: u64 = 0xA5A5_0004;
    let retry = RetryPolicy {
        max_retries: 8,
        base_delay: std::time::Duration::from_millis(1),
        max_delay: std::time::Duration::from_millis(10),
        jitter_seed: SEED,
    };
    let run = soak_tcp(SEED, ChaosProfile::outage(16, 3), retry, 4);
    let (expected_total, expected_per_channel) = expected_loss(&run.fates, &run.merged);
    assert!(
        expected_total > 0,
        "outage must cost events (seed {SEED:#x})"
    );
    assert!(
        run.client.reconnects >= 1,
        "disconnects forced reconnects (seed {SEED:#x})"
    );
    assert!(
        run.client.retries >= run.client.reconnects,
        "every reconnect follows a failed write (seed {SEED:#x})"
    );
    assert!(!run.client.gave_up);
    assert_exact_books(
        &run.session,
        &run.survivors,
        run.merged.len() as u64,
        expected_total,
        &expected_per_channel,
        SEED,
        "outage/tcp",
    );
    // HubHealth reconciles with the client's story: one logical
    // session, every reconnect adopted, nothing in flight after close.
    assert_eq!(run.health.sessions_started, 1, "seed {SEED:#x}");
    assert_eq!(run.health.resumed, run.client.reconnects, "seed {SEED:#x}");
    assert_eq!(run.health.in_flight, 0, "seed {SEED:#x}");
    assert_eq!(run.health.events_lost, expected_total, "seed {SEED:#x}");
}

#[test]
fn lossy_profile_over_udp_books_every_fault_exactly() {
    const SEED: u64 = 0xA5A5_0005;
    let store = capture_store();
    let factory: SinkFactory = {
        let store = store.clone();
        Arc::new(move |_conn| Box::new(MemorySink::new(store.clone())) as Box<_>)
    };
    let hub = UdpTelemetryHub::bind_with(
        "127.0.0.1:0",
        threshold_track_config(),
        SessionTable::shared(),
        Some(factory),
    )
    .expect("bind loopback");
    let fleet = encode_fleet(5555);
    let merged = fleet.merge_aer(DEAD_TIME).merged;
    let header = datc::wire::SessionHeader::new(
        5,
        CHANNELS as u16,
        fleet.channels[0].events.tick_rate_hz(),
        fleet.channels[0].events.duration_s(),
    );
    let mut tx = UdpSessionSender::connect(hub.local_addr(), header)
        .expect("connect")
        .with_chaos(ChaosLink::new(SEED, ChaosProfile::lossy()));
    for chunk in merged.chunks(CHUNK) {
        tx.send_events(chunk).expect("send under chaos");
    }
    let fates = tx.chaos_link().expect("chaos installed").fates().to_vec();
    let client = tx.finish().expect("finish under chaos");
    let (expected_total, expected_per_channel) = expected_loss(&fates, &merged);
    assert!(expected_total > 0, "lossy profile must cost something");
    assert_eq!(client.events_sent, merged.len() as u64);

    // BYE-triggered retirement (grace window) — wait for the books.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while hub.session_count() == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let sessions = hub.shutdown();
    assert_eq!(sessions.len(), 1, "seed {SEED:#x}");
    let captures = store.lock().unwrap();
    let survivors = captures[0].events.clone();
    assert_exact_books(
        &sessions[0],
        &survivors,
        merged.len() as u64,
        expected_total,
        &expected_per_channel,
        SEED,
        "lossy/udp",
    );
}

/// A UDP hub with a sink capture and a given feedback cadence.
fn udp_sink_hub(
    config: HubConfig,
) -> (
    UdpTelemetryHub,
    Arc<std::sync::Mutex<Vec<datc::wire::SessionCapture>>>,
) {
    let store = capture_store();
    let factory: SinkFactory = {
        let store = store.clone();
        Arc::new(move |_conn| Box::new(MemorySink::new(store.clone())) as Box<_>)
    };
    let hub =
        UdpTelemetryHub::bind_with("127.0.0.1:0", config, SessionTable::shared(), Some(factory))
            .expect("bind loopback");
    (hub, store)
}

#[test]
fn outage_and_stall_combined_over_udp_books_every_fault_exactly() {
    const SEED: u64 = 0xA5A5_0006;
    // Disconnect windows superimposed on stall windows, plus a little
    // background drop/duplicate/reorder: the combined profile the
    // individual soaks only cover separately. On a datagram transport
    // a disconnect boundary is purely its outage window of drops.
    let profile = ChaosProfile {
        name: "outage+stall/udp",
        drop: 0.02,
        corrupt: 0.0,
        truncate: 0.0,
        duplicate: 0.03,
        reorder: 0.05,
        reorder_span: 3,
        stall: Some(StallWindow {
            period: 24,
            hold: 6,
        }),
        disconnect: Some(DisconnectPlan {
            every: 40,
            outage: 4,
        }),
    };
    let (hub, store) = udp_sink_hub(threshold_track_config());
    let fleet = encode_fleet(6666);
    let merged = fleet.merge_aer(DEAD_TIME).merged;
    let header = datc::wire::SessionHeader::new(
        6,
        CHANNELS as u16,
        fleet.channels[0].events.tick_rate_hz(),
        fleet.channels[0].events.duration_s(),
    );
    let mut tx = UdpSessionSender::connect(hub.local_addr(), header)
        .expect("connect")
        .with_chaos(ChaosLink::new(SEED, profile));
    for chunk in merged.chunks(CHUNK) {
        tx.send_events(chunk).expect("send under chaos");
    }
    let fates = tx.chaos_link().expect("chaos installed").fates().to_vec();
    let stats = tx.chaos_stats().expect("chaos installed");
    let client = tx.finish().expect("finish under chaos");
    let (expected_total, expected_per_channel) = expected_loss(&fates, &merged);
    assert!(
        expected_total > 0,
        "outage windows must cost events (seed {SEED:#x})"
    );
    assert!(
        stats.stalled > 0,
        "the stall window engaged (seed {SEED:#x})"
    );
    assert!(
        stats.disconnects >= 1,
        "outage windows engaged (seed {SEED:#x})"
    );
    assert_eq!(client.events_sent, merged.len() as u64);

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while hub.session_count() == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let sessions = hub.shutdown();
    assert_eq!(sessions.len(), 1, "seed {SEED:#x}");
    let captures = store.lock().unwrap();
    let survivors = captures[0].events.clone();
    assert_exact_books(
        &sessions[0],
        &survivors,
        merged.len() as u64,
        expected_total,
        &expected_per_channel,
        SEED,
        "outage+stall/udp",
    );
}

#[test]
fn lossy_udp_with_flow_control_repairs_in_window_losses() {
    const SEED: u64 = 0xA5A5_0007;
    let mut config = threshold_track_config();
    config.session.feedback_every = Some(std::time::Duration::from_millis(1));
    // Enough parking slack to ride out a repair round trip: with the
    // default 32-packet window the paced sender can overflow the
    // reorder buffer (declaring the hole lost) before the repaired
    // frame's feedback→resend cycle completes.
    config.session.reorder_window = 256;
    let (hub, store) = udp_sink_hub(config);
    let fleet = encode_fleet(7777);
    let merged = fleet.merge_aer(DEAD_TIME).merged;
    let header = datc::wire::SessionHeader::new(
        7,
        CHANNELS as u16,
        fleet.channels[0].events.tick_rate_hz(),
        fleet.channels[0].events.duration_s(),
    );
    // Replay budget far above the whole session: every loss the fate
    // log pins is in-window and therefore repairable. A modest AIMD
    // band keeps the sender slow enough that each repaired hole gets
    // its feedback round trip while later frames are still parked.
    let flow = FlowConfig {
        aimd: AimdConfig {
            floor_datagrams_per_s: 500.0,
            ceiling_datagrams_per_s: 4_000.0,
            ..AimdConfig::default()
        },
        replay_bytes: 1 << 20,
        drain: std::time::Duration::from_secs(5),
    };
    let mut tx = UdpSessionSender::connect(hub.local_addr(), header)
        .expect("connect")
        .with_chaos(ChaosLink::new(SEED, ChaosProfile::lossy()))
        .with_flow(flow);
    for chunk in merged.chunks(CHUNK) {
        tx.send_events(chunk).expect("send under chaos");
    }
    // Repairs bypass the chaos link, so the fate log is identical to a
    // repair-off run under the same seed: what it says was dropped is
    // exactly what repair had to win back.
    let fates = tx.chaos_link().expect("chaos installed").fates().to_vec();
    let client = tx.finish().expect("finish under chaos");
    let (dropped_events, _) = expected_loss(&fates, &merged);
    assert!(
        dropped_events > 0,
        "lossy profile must cost something (seed {SEED:#x})"
    );
    assert!(
        client.repairs >= 1,
        "feedback drove replay-window repairs (seed {SEED:#x})"
    );
    assert_eq!(client.events_sent, merged.len() as u64);

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while hub.session_count() == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let sessions = hub.shutdown();
    assert_eq!(sessions.len(), 1, "seed {SEED:#x}");
    let s = &sessions[0];
    assert!(s.report.stats.closed, "seed {SEED:#x}");
    // The books stay exact under repair: every offered event is either
    // decoded (once) or still counted lost — duplicates of repaired
    // spans are dropped, never double-booked.
    assert_eq!(
        s.report.stats.events_decoded + s.report.stats.events_lost,
        merged.len() as u64,
        "decoded + repaired + lost reconciles with sent (seed {SEED:#x})"
    );
    let recovered = dropped_events - s.report.stats.events_lost;
    assert!(
        recovered * 10 >= dropped_events * 9,
        "repair must recover >= 90% of in-window losses: \
         {recovered}/{dropped_events} recovered, {} still lost (seed {SEED:#x})",
        s.report.stats.events_lost
    );
    let captures = store.lock().unwrap();
    let survivors = captures[0].events.clone();
    assert_eq!(
        survivors.len() as u64,
        s.report.stats.events_decoded,
        "sink saw each decoded event exactly once (seed {SEED:#x})"
    );
    assert!(s.report.force_is_finite());
}

#[test]
fn pressured_hub_throttles_a_compliant_sender_instead_of_quarantining_it() {
    // A hub at its session cap stamps saturated pressure into every
    // FEEDBACK frame; a flow-controlled sender on a *clean* link must
    // be slowed to the AIMD floor — and never shed or quarantined.
    let mut config = threshold_track_config();
    config.max_sessions = Some(1);
    config.session.feedback_every = Some(std::time::Duration::from_millis(1));
    let (hub, store) = udp_sink_hub(config);
    let table = hub.session_table();
    let fleet = encode_fleet(8888);
    let merged = fleet.merge_aer(DEAD_TIME).merged;
    let header = datc::wire::SessionHeader::new(
        8,
        CHANNELS as u16,
        fleet.channels[0].events.tick_rate_hz(),
        fleet.channels[0].events.duration_s(),
    );
    let floor = 400.0;
    let flow = FlowConfig {
        aimd: AimdConfig {
            floor_datagrams_per_s: floor,
            ceiling_datagrams_per_s: 50_000.0,
            ..AimdConfig::default()
        },
        ..FlowConfig::default()
    };
    let mut tx = UdpSessionSender::connect(hub.local_addr(), header)
        .expect("connect")
        .with_flow(flow);
    for chunk in merged.chunks(CHUNK) {
        tx.send_events(chunk).expect("send");
        // Cadence room: the 1 ms feedback clock needs wall time to
        // tick often enough for the multiplicative decrease to bite.
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    let aimd = tx.flow().expect("flow installed").aimd();
    assert!(
        aimd.throttles() >= 1,
        "saturated hub pressure must throttle the sender"
    );
    assert!(
        (aimd.rate_datagrams_per_s() - floor).abs() < 1e-6,
        "repeated pressure reports drive the rate to the floor, got {}",
        aimd.rate_datagrams_per_s()
    );
    let client = tx.finish().expect("finish");
    assert_eq!(client.events_sent, merged.len() as u64);
    assert_eq!(client.repairs, 0, "clean link: throttled, not repaired");

    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while hub.session_count() == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let health = table.health();
    let sessions = hub.shutdown();
    assert_eq!(sessions.len(), 1);
    let s = &sessions[0];
    assert!(s.report.stats.closed);
    assert_eq!(s.report.stats.events_decoded, merged.len() as u64);
    assert_eq!(s.report.stats.events_lost, 0);
    assert_eq!(health.quarantined, 0, "compliance was never punished");
    assert_eq!(health.shed, 0, "the in-cap peer was never shed");
    let captures = store.lock().unwrap();
    assert_eq!(
        captures[0].events.len() as u64,
        s.report.stats.events_decoded
    );
}
