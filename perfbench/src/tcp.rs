//! `tcp_ingest`: a closed loop of `nproc` `SessionSender` connections
//! into one `TelemetryHub`. Each connection sends short sessions back
//! to back (8 channels × 2 s of ballistic motor-pool traffic,
//! pre-encoded at set-up from a pool of seeded sessions); the hub runs
//! the paper hybrid receiver in streaming auto-rate₀ mode. A session
//! lasts from `connect` until the hub reports it finished.
//!
//! The hub keeps every finished session in its table, so the measured
//! phase drains it every [`EPOCH`] sessions (shutdown, check, rebind)
//! to keep memory bounded; the rebind is outside every session's time.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use datc_rx::online::OnlineReconSelect;
use datc_signal::motor::WorkloadScenario;
use datc_uwb::aer::AddressedEvent;
use datc_wire::gateway::{HubConfig, SessionSender, SessionTable, TelemetryHub};
use datc_wire::packet::SessionHeader;
use datc_wire::session::SessionRxConfig;

use crate::inputs::{self, OUTPUT_FS};
use crate::report::{no_problems, LayerCounts, Outcome, Traced, ROOT};
use crate::stats::SessionTimes;
use crate::trace::Tracer;
use crate::transport::{
    encode_pool, epoch_health, packetize, replay, score_pool, Completions, PoolSession,
};
use crate::Args;

/// Channels per session.
const CHANNELS: usize = 8;
/// Session length, s.
const SECONDS: f64 = 2.0;
/// Pool output skipped before a session starts, s: sessions open in the
/// rest between two bursts instead of on a burst's leading edge.
const LEAD_S: f64 = 0.5;
/// Distinct pre-encoded sessions; session `k` sends pool entry `k % POOL`.
const POOL: usize = 128;
/// Sessions served by one hub before it is drained and rebound.
const EPOCH: usize = 256;
/// Auto-rate₀ calibration window, s.
const CALIB_S: f64 = 0.5;
/// Longest a sender waits for the hub to finish its session.
const HUB_WAIT: Duration = Duration::from_secs(5);
/// Lowest acceptable mean correlation, % (ballistic bursts are the
/// receiver's documented breakdown regime, so the floor is low).
const CORR_FLOOR_PCT: f64 = 10.0;

/// Everything set up before the measured phase.
pub struct Setup {
    pool: Vec<PoolSession>,
    config: HubConfig,
    hub: Option<(TelemetryHub, Arc<Completions>)>,
}

fn hub_config() -> HubConfig {
    let mut config = HubConfig::default();
    config.session = SessionRxConfig {
        recon: OnlineReconSelect::paper_hybrid_auto_rate0(CALIB_S),
        output_fs: OUTPUT_FS,
        ..config.session
    };
    config
}

fn bind(config: &HubConfig) -> (TelemetryHub, Arc<Completions>) {
    let done = Completions::new(POOL as u32);
    let hub = TelemetryHub::bind_with(
        "127.0.0.1:0",
        config.clone(),
        SessionTable::shared(),
        Some(done.factory()),
    )
    .expect("bind the loopback hub");
    (hub, done)
}

/// Generates and encodes the session pool, then binds the hub.
pub fn setup(seed: u64, threads: usize) -> Setup {
    let recordings = inputs::motor_sessions(
        WorkloadScenario::ballistic(),
        POOL,
        CHANNELS,
        (LEAD_S, SECONDS),
        seed,
        threads,
    );
    let pool = encode_pool(recordings, threads);
    let config = hub_config();
    let hub = Some(bind(&config));
    Setup { pool, config, hub }
}

/// What one sender connection produced.
#[derive(Default)]
struct ClientOut {
    times: SessionTimes,
    samples: u64,
    sent: u64,
    decoded: u64,
    counts: LayerCounts,
    /// Failed sessions, with why.
    failures: Vec<String>,
    /// Force traces of the first pass over the pool, by pool index.
    scored: Vec<(usize, Vec<Vec<f64>>)>,
    tracer: Option<Tracer>,
}

/// One sender connection's closed loop: take the next session id, run
/// it, wait for the hub, repeat until the epoch or the time is up.
fn client(
    setup: &Setup,
    addr: std::net::SocketAddr,
    done: &Completions,
    next: &AtomicUsize,
    epoch_end: usize,
    deadline: Instant,
    mut t: Tracer,
) -> ClientOut {
    let mut out = ClientOut::default();
    loop {
        if Instant::now() >= deadline {
            break;
        }
        let k = next.fetch_add(1, Ordering::Relaxed);
        if k >= epoch_end {
            break;
        }
        let s = &setup.pool[k % POOL];
        let id = k as u32;
        let sid = k as u64;
        let header = SessionHeader::new(id, CHANNELS as u16, s.tick_rate_hz, s.duration_s);
        let root = t.open(ROOT, None, sid);
        let start = Instant::now();
        let result = (|| {
            let mut tx = t
                .time("gateway.connect", root, sid, || {
                    SessionSender::connect(addr, header)
                })
                .map_err(|e| format!("connect: {e}"))?;
            t.time("gateway.send", root, sid, || tx.send_events(&s.merged))
                .map_err(|e| format!("send: {e}"))?;
            let report = t
                .time("gateway.finish", root, sid, || tx.finish())
                .map_err(|e| format!("finish: {e}"))?;
            let fin = t
                .time("gateway.hub_wait", root, sid, || done.wait(id, HUB_WAIT))
                .ok_or("hub never finished the session")?;
            Ok::<_, String>((report, fin))
        })();
        t.close(root);
        let sent = s.merged.len() as u64;
        out.sent += sent;
        match result {
            Ok((report, fin)) => {
                let st = &fin.stats;
                out.decoded += st.events_decoded;
                let ok = st.closed
                    && st.events_lost == 0
                    && st.events_decoded == sent
                    && report.events_sent == sent;
                if ok {
                    out.times
                        .done(fin.at.duration_since(start).as_secs_f64() * 1e3);
                    out.samples += (CHANNELS as f64 * SECONDS * inputs::FS) as u64;
                } else {
                    out.times.failed();
                    out.failures.push(format!(
                        "session {id}: decoded {} lost {} of {sent}",
                        st.events_decoded, st.events_lost
                    ));
                }
                if let Some(force) = fin.force {
                    out.scored.push((k, force));
                }
                let c = &mut out.counts;
                c.sessions += 1;
                c.packet_frames += report.frames_sent;
                c.packet_bytes += report.bytes_sent;
                c.packet_events += report.events_sent;
                c.decode_events += st.events_decoded;
                c.decode_lost += st.events_lost;
                c.decode_duplicates += st.duplicate_frames;
                c.force_samples += fin.force_samples as u64;
                c.gateway_retries += report.retries;
                if t.enabled() {
                    replay_hub_side(&mut t, setup, header, &s.merged, sid);
                }
            }
            Err(why) => {
                out.times.failed();
                out.failures.push(format!("session {id}: {why}"));
            }
        }
    }
    out.tracer = Some(t);
    out
}

/// The hub decodes and reconstructs on its own threads, out of the
/// sender's sight; replay the session's bytes to time the packetizer,
/// decoder and online layers as side spans of the session.
fn replay_hub_side(
    t: &mut Tracer,
    setup: &Setup,
    header: SessionHeader,
    events: &[AddressedEvent],
    sid: u64,
) {
    let p0 = t.now_ns();
    let wire = packetize(header, events, events.len());
    let p1 = t.now_ns();
    t.record("packet", p0, p1, None, sid);
    replay(wire.frames.iter().map(Vec::as_slice), &setup.config.session).record(t, p1, None, sid);
}

/// Runs epochs of the closed loop for `seconds`.
pub fn measure(setup: &mut Setup, seconds: f64, traced: bool, threads: usize) -> Outcome {
    let mut o = Outcome::default();
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin, traced);
    let mut counts = LayerCounts::default();
    let mut scored: Vec<(usize, Vec<Vec<f64>>)> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut health_bad: Vec<String> = Vec::new();
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut current = setup.hub.take().unwrap_or_else(|| bind(&setup.config));
    loop {
        let (hub, done) = current;
        let addr = hub.local_addr();
        let epoch_end = next.load(Ordering::Relaxed) + EPOCH;
        let outs: Vec<ClientOut> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    let (setup, done, next) = (&*setup, &*done, &next);
                    let t = Tracer::new(origin, traced);
                    scope.spawn(move || client(setup, addr, done, next, epoch_end, deadline, t))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sender thread panicked"))
                .collect()
        });
        let table = hub.session_table();
        let sessions = hub.shutdown();
        let h = table.health();
        let started: u64 = outs.iter().map(|c| c.times.attempted() as u64).sum();
        health_bad.extend(epoch_health(&h, sessions.len(), started));
        counts.gateway_shed += h.shed;
        counts.gateway_evicted += h.evicted;
        for c in outs {
            o.times.merge(c.times);
            o.samples += c.samples;
            o.events_sent += c.sent;
            o.events_decoded += c.decoded;
            add_counts(&mut counts, &c.counts);
            failures.extend(c.failures);
            scored.extend(c.scored);
            if let Some(ct) = c.tracer {
                tracer.absorb(ct);
            }
        }
        if Instant::now() >= deadline {
            break;
        }
        current = bind(&setup.config);
    }
    o.measured_s = start.elapsed().as_secs_f64();
    // Leave a bound hub behind for the next phase.
    setup.hub = Some(bind(&setup.config));

    o.checks.push(no_problems(
        "sessions lossless and complete",
        &failures,
        format!(
            "{} sessions, events_lost 0, decoded == sent",
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
            spans: tracer.into_spans(),
            counts,
            ..Traced::default()
        });
    }
    o
}

fn add_counts(into: &mut LayerCounts, c: &LayerCounts) {
    into.sessions += c.sessions;
    into.packet_frames += c.packet_frames;
    into.packet_bytes += c.packet_bytes;
    into.packet_events += c.packet_events;
    into.decode_events += c.decode_events;
    into.decode_lost += c.decode_lost;
    into.decode_duplicates += c.decode_duplicates;
    into.force_samples += c.force_samples;
    into.gateway_retries += c.gateway_retries;
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let (mut setup, setup_s) = crate::set_up(|| setup(args.seed, args.threads));
    let threads = args.threads;
    let mut o = crate::phases(args, |secs, traced| {
        measure(&mut setup, secs, traced, threads)
    });
    o.setup_s = setup_s;
    if let Some((hub, _)) = setup.hub.take() {
        hub.shutdown();
    }
    o
}
