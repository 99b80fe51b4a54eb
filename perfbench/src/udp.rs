//! `udp_lossy`: a closed loop of one `UdpSessionSender` into a
//! `UdpTelemetryHub`. Sessions are 16 channels × 60 s of ramp-and-hold
//! motor-pool traffic. Every DATA datagram passes a seeded `ChaosLink`
//! with the lossy profile; flow control (AIMD pacing inside a fixed
//! band, plus replay repair) is on. A session lasts from `connect`
//! until the hub reports it finished: a send phase, then a close phase
//! (repair drain, BYE, the hub's BYE grace).
//!
//! The hub keeps finished sessions (with whole force traces) in its
//! table, so the measured phase drains it every [`EPOCH`] sessions.

use std::sync::Arc;
use std::time::{Duration, Instant};

use datc_rx::online::OnlineReconSelect;
use datc_signal::motor::WorkloadScenario;
use datc_uwb::aer::AddressedEvent;
use datc_wire::chaos::{ChaosLink, ChaosProfile, Fate};
use datc_wire::flow::{AimdConfig, FlowConfig};
use datc_wire::gateway::{HubConfig, SessionTable};
use datc_wire::packet::{SessionHeader, DEFAULT_EVENTS_PER_FRAME};
use datc_wire::session::SessionRxConfig;
use datc_wire::udp::{UdpPacing, UdpSessionSender, UdpTelemetryHub};

use crate::inputs::{self, mix, OUTPUT_FS};
use crate::report::{no_problems, LayerCounts, Outcome, Traced, ROOT};
use crate::trace::Tracer;
use crate::transport::{
    encode_pool, epoch_health, packetize, replay, score_pool, Completions, PoolSession,
};
use crate::Args;

/// Channels per session.
const CHANNELS: usize = 16;
/// Session length, s.
const SECONDS: f64 = 60.0;
/// Distinct pre-encoded recordings; session `k` sends entry `k % POOL`
/// through its own chaos seed.
const POOL: usize = 2;
/// Sessions served by one hub before it is drained and rebound.
const EPOCH: usize = 16;
/// Events per `send_events` call: one DATA frame each, so chaos unit
/// `k` carries chunk `k` and the fate log converts to exact event loss.
const CHUNK: usize = DEFAULT_EVENTS_PER_FRAME;
/// Auto-rate₀ calibration window, s: one ramp-and-hold cycle.
const CALIB_S: f64 = 5.5;
/// Floor of the fixed AIMD band, datagrams/s.
const FLOOR_DGRAMS_PER_S: f64 = 10_000.0;
/// Ceiling of the fixed AIMD band (and the starting rate), datagrams/s.
const CEILING_DGRAMS_PER_S: f64 = 20_000.0;
/// Budget of the close-phase repair drain. The drain ends as soon as the
/// hub confirms every event, which a clean session does in tens of ms.
/// The budget matters only when the host itself drops a burst of
/// datagrams (a receive buffer overflowing while the hub thread waits
/// for a core): repair resends one frame per feedback round, about 2 ms
/// each, so 500 ms left a burst of a few hundred frames booked as loss
/// that the fate log never ordered.
const DRAIN: Duration = Duration::from_secs(5);
/// Longest a sender waits for the hub to finish its session.
const HUB_WAIT: Duration = Duration::from_secs(5);
/// Sessions whose fault schedule the `chaos.*` counts cover.
const CHAOS_PREFIX: u64 = 8;
/// Lowest acceptable mean correlation, %.
const CORR_FLOOR_PCT: f64 = 80.0;

/// Everything set up before the measured phase.
pub struct Setup {
    seed: u64,
    pool: Vec<PoolSession>,
    config: HubConfig,
    flow: FlowConfig,
    hub: Option<(UdpTelemetryHub, Arc<Completions>)>,
}

fn hub_config() -> HubConfig {
    let mut config = HubConfig::default();
    config.session = SessionRxConfig {
        recon: OnlineReconSelect::paper_hybrid_auto_rate0(CALIB_S),
        output_fs: OUTPUT_FS,
        // Whole traces, for scoring; the epoch drain bounds the table.
        force_window: None,
        // Parking slack for a repair round trip at the band's ceiling.
        reorder_window: 1024,
        feedback_every: Some(Duration::from_millis(1)),
        ..config.session
    };
    config
}

fn bind(config: &HubConfig) -> (UdpTelemetryHub, Arc<Completions>) {
    let done = Completions::new(POOL as u32);
    let hub = UdpTelemetryHub::bind_with(
        "127.0.0.1:0",
        config.clone(),
        SessionTable::shared(),
        Some(done.factory()),
    )
    .expect("bind the loopback hub");
    (hub, done)
}

/// Generates and encodes the recordings, then binds the hub.
pub fn setup(seed: u64, threads: usize) -> Setup {
    let recordings = inputs::motor_sessions(
        WorkloadScenario::ramp_and_hold(),
        POOL,
        CHANNELS,
        (0.0, SECONDS),
        seed,
        threads,
    );
    let pool = encode_pool(recordings, threads);
    let aimd = AimdConfig {
        floor_datagrams_per_s: FLOOR_DGRAMS_PER_S,
        ceiling_datagrams_per_s: CEILING_DGRAMS_PER_S,
        ..AimdConfig::default()
    };
    let flow = FlowConfig {
        aimd,
        replay_bytes: 4 << 20,
        drain: DRAIN,
    };
    let config = hub_config();
    let hub = Some(bind(&config));
    Setup {
        seed,
        pool,
        config,
        flow,
        hub,
    }
}

/// The chaos seed of session `k`.
fn chaos_seed(seed: u64, k: u64) -> u64 {
    mix(seed ^ 0x0C4A_0500, k)
}

/// Events the fate log says never arrived intact.
fn fated_loss(fates: &[Fate], events: &[AddressedEvent]) -> u64 {
    fates
        .iter()
        .zip(events.chunks(CHUNK))
        .filter(|(f, _)| f.is_lost())
        .map(|(_, c)| c.len() as u64)
        .sum()
}

/// Runs sessions back to back for `seconds`.
pub fn measure(setup: &mut Setup, seconds: f64, traced: bool) -> Outcome {
    let mut o = Outcome::default();
    let mut t = Tracer::new(Instant::now(), traced);
    let mut c = LayerCounts::default();
    let mut scored: Vec<(usize, Vec<Vec<f64>>)> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut health_bad: Vec<String> = Vec::new();
    let pacing = {
        let a = &setup.flow.aimd;
        UdpPacing {
            burst: a.burst,
            inter_burst: Duration::from_secs_f64(f64::from(a.burst) / a.ceiling_datagrams_per_s),
        }
    };
    let start = Instant::now();
    let mut next_k: u64 = 0;
    let mut current = setup.hub.take().unwrap_or_else(|| bind(&setup.config));
    'epochs: loop {
        let (hub, done) = current;
        let addr = hub.local_addr();
        let mut started = 0u64;
        for _ in 0..EPOCH {
            if start.elapsed().as_secs_f64() >= seconds {
                break;
            }
            let k = next_k;
            next_k += 1;
            let s = &setup.pool[k as usize % POOL];
            let id = k as u32;
            let header = SessionHeader::new(id, CHANNELS as u16, s.tick_rate_hz, s.duration_s);
            let sent = s.merged.len() as u64;
            let chaos = chaos_seed(setup.seed, k);
            started += 1;
            o.events_sent += sent;
            let root = t.open(ROOT, None, k);
            let t0 = Instant::now();
            let result = (|| {
                let mut tx = t
                    .time("udp.connect", root, k, || {
                        UdpSessionSender::connect_with(addr, header, pacing)
                    })
                    .map_err(|e| format!("connect: {e}"))?
                    .with_chaos(ChaosLink::new(chaos, ChaosProfile::lossy()))
                    .with_flow(setup.flow);
                t.time("udp.send", root, k, || {
                    s.merged.chunks(CHUNK).try_for_each(|ch| tx.send_events(ch))
                })
                .map_err(|e| format!("send: {e}"))?;
                let fates = tx.chaos_link().expect("chaos installed").fates().to_vec();
                let flow = tx.flow().expect("flow installed");
                let before_close = (
                    flow.aimd().throttles(),
                    flow.feedback_rx(),
                    flow.repairs_frames(),
                    flow.repairs_events(),
                );
                let close = t.open("udp.close", root, k);
                let report = t
                    .time("flow.drain", close, k, || tx.finish())
                    .map_err(|e| format!("finish: {e}"))?;
                let fin = done.wait(id, HUB_WAIT);
                t.close(close);
                let fin = fin.ok_or("hub never finished the session")?;
                Ok::<_, String>((fates, before_close, report, fin))
            })();
            t.close(root);
            let Ok((fates, (throttles, feedback_rx, frames_before, events_before), report, fin)) =
                result
            else {
                o.times.failed();
                failures.push(format!(
                    "session {id}: {}",
                    result.err().unwrap_or_default()
                ));
                continue;
            };
            let st = &fin.stats;
            o.events_decoded += st.events_decoded;
            let dropped = fated_loss(&fates, &s.merged);
            let books = st.closed && st.events_decoded + st.events_lost == sent;
            let reconciled = st.events_lost <= dropped && report.events_sent == sent;
            if books && reconciled {
                o.times.done(fin.at.duration_since(t0).as_secs_f64() * 1e3);
                o.samples += (CHANNELS as f64 * SECONDS * inputs::FS) as u64;
            } else {
                o.times.failed();
                failures.push(format!(
                    "session {id}: decoded {} + lost {} vs sent {sent}, fate log dropped {dropped}",
                    st.events_decoded, st.events_lost
                ));
            }
            if let Some(force) = fin.force {
                scored.push((k as usize, force));
            }
            c.sessions += 1;
            c.packet_frames += report.frames_sent;
            c.packet_bytes += report.bytes_sent;
            c.packet_events += report.events_sent;
            c.decode_events += st.events_decoded;
            c.decode_lost += st.events_lost;
            c.decode_duplicates += st.duplicate_frames;
            c.force_samples += fin.force_samples as u64;
            c.udp_refused += report.datagrams_refused;
            let on_air: u64 = fates
                .iter()
                .map(|f| match f {
                    Fate::Drop | Fate::OutageDrop => 0,
                    Fate::Duplicate => 2,
                    _ => 1,
                })
                .sum();
            c.udp_datagrams += 2 + on_air + report.repairs;
            c.flow_repairs += report.repairs;
            // Repairs resent during the close drain are whole frames of
            // CHUNK events (only the session's last frame is shorter).
            c.flow_resent_events += events_before + (report.repairs - frames_before) * CHUNK as u64;
            c.flow_recovered += dropped.saturating_sub(st.events_lost);
            c.flow_throttles += throttles;
            c.flow_feedback_rx += feedback_rx;
            if k < CHAOS_PREFIX {
                c.chaos_sessions += 1;
                for f in &fates {
                    match f {
                        Fate::Drop | Fate::OutageDrop => c.chaos_dropped += 1,
                        Fate::Duplicate => c.chaos_duplicated += 1,
                        Fate::Hold(_) => c.chaos_reordered += 1,
                        _ => {}
                    }
                }
            }
            if t.enabled() {
                replay_hub_side(&mut t, setup, header, &s.merged, chaos, k);
            }
        }
        let table = hub.session_table();
        let sessions = hub.shutdown();
        let h = table.health();
        health_bad.extend(epoch_health(&h, sessions.len(), started));
        c.gateway_shed += h.shed;
        c.gateway_evicted += h.evicted;
        if start.elapsed().as_secs_f64() >= seconds {
            break 'epochs;
        }
        current = bind(&setup.config);
    }
    o.measured_s = start.elapsed().as_secs_f64();
    setup.hub = Some(bind(&setup.config));

    o.checks.push(no_problems(
        "books reconcile with the fate log",
        &failures,
        format!(
            "{} sessions: decoded + lost == sent, lost <= fate-log loss",
            o.times.attempted()
        ),
    ));
    o.checks.push(no_problems(
        "hub health clean",
        &health_bad,
        "shed 0, evicted 0, quarantined 0 in every epoch".to_string(),
    ));
    o.corr_pct = score_pool(&setup.pool, &scored, CORR_FLOOR_PCT, &mut o.checks);
    if traced {
        o.traced = Some(Traced {
            spans: t.into_spans(),
            counts: c,
            ..Traced::default()
        });
    }
    o
}

/// Replays what the hub received (the chaos-mangled DATA units between
/// HELLO and BYE, rebuilt from the same seed; repairs excluded) to time
/// the packetizer, decoder and online layers as side spans.
fn replay_hub_side(
    t: &mut Tracer,
    setup: &Setup,
    header: SessionHeader,
    events: &[AddressedEvent],
    chaos: u64,
    sid: u64,
) {
    let p0 = t.now_ns();
    let wire = packetize(header, events, CHUNK);
    let p1 = t.now_ns();
    t.record("packet", p0, p1, None, sid);
    let mut link = ChaosLink::new(chaos, ChaosProfile::lossy());
    let n = wire.frames.len();
    let mut units: Vec<Vec<u8>> = vec![wire.frames[0].clone()];
    for f in &wire.frames[1..n - 1] {
        link.push(f, &mut units);
    }
    link.flush(&mut units);
    units.push(wire.frames[n - 1].clone());
    let p2 = t.now_ns();
    replay(units.iter().map(Vec::as_slice), &setup.config.session).record(t, p2, None, sid);
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let (mut setup, setup_s) = crate::set_up(|| setup(args.seed, args.threads));
    let mut o = crate::phases(args, |secs, traced| measure(&mut setup, secs, traced));
    o.setup_s = setup_s;
    if let Some((hub, _)) = setup.hub.take() {
        hub.shutdown();
    }
    o
}
