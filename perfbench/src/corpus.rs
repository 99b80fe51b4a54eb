//! `corpus_inproc`: the paper's own evaluation as a batch job with no
//! sockets. The 190-pattern corpus is cut into ≤16-channel fleets; one
//! session is one fleet through `FleetRunner::encode`, the AER merge,
//! the `Packetizer` and a `SessionRx` running the paper hybrid
//! receiver.

use std::time::Instant;

use datc_core::config::DatcConfig;
use datc_core::encoder::TraceLevel;
use datc_engine::FleetRunner;
use datc_rx::online::OnlineReconSelect;
use datc_rx::reconstruct::{HybridReconstructor, Reconstructor};
use datc_signal::Signal;
use datc_uwb::aer::{demux, AddressedEvent};
use datc_wire::packet::SessionHeader;
use datc_wire::session::{SessionReport, SessionRx, SessionRxConfig};
use datc_wire::StreamDecoder;

use crate::inputs::{self, DEAD_TIME_S, OUTPUT_FS};
use crate::report::{Check, LayerCounts, Outcome, Traced, ROOT};
use crate::stats::median;
use crate::trace::{coverage, Tracer};
use crate::transport::{mean_corr, packetize, replay, Wire};
use crate::Args;

/// Channels per fleet (one AER link, one session).
const FLEET: usize = 16;
/// Lowest acceptable mean correlation, %.
const CORR_FLOOR_PCT: f64 = 90.0;
/// How far the layer self-times of a traced session may miss its
/// total.
const COVERAGE_TOLERANCE: f64 = 0.05;

/// One fleet of the corpus.
struct Fleet {
    signals: Vec<Signal>,
    force: Vec<Signal>,
    runner: FleetRunner,
}

/// Everything set up before the measured phase.
pub struct Setup {
    fleets: Vec<Fleet>,
    rx: SessionRxConfig,
}

/// Generates the corpus and builds one fleet runner per fleet.
pub fn setup(seed: u64, threads: usize) -> Setup {
    let config = DatcConfig::paper().with_trace_level(TraceLevel::Events);
    let mut channels = inputs::corpus(seed, threads).into_iter().peekable();
    let mut fleets = Vec::new();
    while channels.peek().is_some() {
        let (signals, force): (Vec<Signal>, Vec<Signal>) = channels
            .by_ref()
            .take(FLEET)
            .map(|c| (c.rectified, c.force))
            .unzip();
        let runner = FleetRunner::new(config, signals.len())
            .expect("paper configuration is valid")
            .with_threads(threads);
        fleets.push(Fleet {
            signals,
            force,
            runner,
        });
    }
    Setup {
        fleets,
        rx: SessionRxConfig {
            recon: OnlineReconSelect::paper_hybrid(),
            output_fs: OUTPUT_FS,
            ..SessionRxConfig::default()
        },
    }
}

/// One session's results, kept for the checks.
struct Session {
    fleet: usize,
    sent: Vec<AddressedEvent>,
    wire: Wire,
    report: SessionReport,
    /// Traced runs: whether the decode/online replay reproduced the
    /// session's books and sample count.
    replay_ok: Option<bool>,
}

/// Runs one fleet end to end; returns the session time in ms.
fn session(setup: &Setup, fi: usize, id: u32, t: &mut Tracer) -> (f64, Session) {
    let fleet = &setup.fleets[fi];
    let sid = u64::from(id);
    let root = t.open(ROOT, None, sid);
    let start = Instant::now();
    let out = t.time("engine", root, sid, || fleet.runner.encode(&fleet.signals));
    let merged = t.time("aer", root, sid, || out.merge_aer(DEAD_TIME_S).merged);
    let wire = t.time("packet", root, sid, || {
        let first = &out.channels[0].events;
        let header = SessionHeader::new(
            id,
            out.channel_count() as u16,
            first.tick_rate_hz(),
            first.duration_s(),
        );
        packetize(header, &merged, merged.len())
    });
    let rx_span = t.open("session", root, sid);
    let rx_start = t.now_ns();
    let mut rx = SessionRx::new(setup.rx.clone());
    for frame in &wire.frames {
        rx.push_bytes(frame);
    }
    let report = rx.finish();
    t.close(rx_span);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    t.close(root);
    let mut replay_ok = None;
    if t.enabled() {
        // Split the SessionRx span: replay the same bytes through the
        // decoder and the online reconstructors, and project the two
        // measured durations into the span, decode first.
        let rep = replay(wire.frames.iter().map(Vec::as_slice), &setup.rx);
        rep.record(t, rx_start, rx_span, sid);
        replay_ok = Some(rep.stats == report.stats && rep.force_samples == report.force_samples());
    }
    let s = Session {
        fleet: fi,
        sent: merged,
        wire,
        report,
        replay_ok,
    };
    (ms, s)
}

/// Runs whole passes over the corpus for `seconds` (at least one full
/// pass, so every fleet is scored).
pub fn measure(setup: &Setup, seconds: f64, traced: bool) -> Outcome {
    let mut o = Outcome::default();
    let mut t = Tracer::new(Instant::now(), traced);
    let mut counts = LayerCounts::default();
    let mut first_pass: Vec<Session> = Vec::new();
    let mut replay_mismatches = 0usize;
    let start = Instant::now();
    let mut id: u32 = 0;
    'passes: for pass in 0.. {
        for fi in 0..setup.fleets.len() {
            if pass > 0 && start.elapsed().as_secs_f64() >= seconds {
                break 'passes;
            }
            let (ms, s) = session(setup, fi, id, &mut t);
            id += 1;
            let stats = &s.report.stats;
            let sent = s.sent.len() as u64;
            o.events_sent += sent;
            o.events_decoded += stats.events_decoded;
            let ok = stats.closed && stats.events_lost == 0 && stats.events_decoded == sent;
            let same = first_pass.get(fi).is_none_or(|f| {
                f.report.force_emitted == s.report.force_emitted && f.sent.len() == s.sent.len()
            });
            if ok && same {
                o.times.done(ms);
                let fleet = &setup.fleets[fi];
                o.samples += (fleet.signals.len() * fleet.signals[0].len()) as u64;
            } else {
                o.times.failed();
            }
            if s.replay_ok == Some(false) {
                replay_mismatches += 1;
            }
            counts.sessions += 1;
            counts.aer_events += sent;
            counts.packet_frames += s.wire.frames_emitted;
            counts.packet_bytes += s.wire.bytes_emitted;
            counts.packet_events += sent;
            counts.decode_events += stats.events_decoded;
            counts.decode_lost += stats.events_lost;
            counts.decode_duplicates += stats.duplicate_frames;
            counts.force_samples += s.report.force_samples() as u64;
            if pass == 0 {
                first_pass.push(s);
            }
        }
    }
    o.measured_s = start.elapsed().as_secs_f64();
    o.corr_pct = score(setup, &first_pass, &mut o.checks);
    check_bit_exact(&first_pass, &mut o.checks);
    if traced {
        o.checks.push(Check::new(
            "replay mirrors SessionRx",
            replay_mismatches == 0,
            format!(
                "{replay_mismatches} of {} sessions differ in books or samples",
                counts.sessions
            ),
        ));
        // One session's layers must account for its total; a session
        // preempted during its replay can miss, so the median session
        // is the one checked and the misses are counted.
        let cov = coverage(t.spans(), ROOT);
        let off: Vec<f64> = cov.iter().map(|c| (c - 1.0).abs()).collect();
        let within = off.iter().filter(|&&d| d <= COVERAGE_TOLERANCE).count();
        let median_off = (!off.is_empty()).then(|| median(&off));
        o.checks.push(Check::new(
            "layer self-times sum to the session",
            median_off.is_some_and(|d| d <= COVERAGE_TOLERANCE),
            format!(
                "median session off by {:.3} %, {within} of {} within {:.0} %",
                median_off.unwrap_or(0.0) * 100.0,
                off.len(),
                COVERAGE_TOLERANCE * 100.0
            ),
        ));
        o.traced = Some(Traced {
            spans: t.into_spans(),
            counts,
            ..Traced::default()
        });
    }
    o
}

/// Mean correlation of every pattern's reconstruction against its
/// force trajectory, with the floor check.
fn score(setup: &Setup, sessions: &[Session], checks: &mut Vec<Check>) -> f64 {
    let (corr, n) = mean_corr(sessions.iter().flat_map(|s| {
        s.report
            .force_tail
            .iter()
            .map(Vec::as_slice)
            .zip(&setup.fleets[s.fleet].force)
    }));
    checks.push(Check::new(
        "corr_pct above floor",
        corr > CORR_FLOOR_PCT,
        format!("{corr:.3} % over {n} patterns (floor {CORR_FLOOR_PCT} %)"),
    ));
    corr
}

/// The online force traces of the first pass must be bit-exact with the
/// batch `HybridReconstructor` on the demuxed decoded stream, and the
/// decoded stream must be the merged stream that was sent.
fn check_bit_exact(sessions: &[Session], checks: &mut Vec<Check>) {
    let mut mismatched = Vec::new();
    let mut channels = 0;
    for s in sessions {
        let mut decoder = StreamDecoder::new();
        for frame in &s.wire.frames {
            decoder.push_bytes(frame);
        }
        decoder.finish();
        let mut decoded = Vec::new();
        decoder.drain_events(&mut decoded);
        let Some(h) = s.report.header else {
            mismatched.push(format!("fleet {} has no header", s.fleet));
            continue;
        };
        let lossless = decoded.len() == s.sent.len()
            && decoded.iter().zip(&s.sent).all(|(d, e)| {
                d.channel == e.channel
                    && d.event.tick == e.event.tick
                    && d.event.vth_code == e.event.vth_code
            });
        if !lossless {
            mismatched.push(format!("fleet {} decode differs from sent", s.fleet));
        }
        let streams = demux(
            &decoded,
            usize::from(h.n_channels),
            h.tick_rate_hz,
            h.duration_s,
        );
        for (ch, stream) in streams.iter().enumerate() {
            channels += 1;
            let batch = HybridReconstructor::paper().reconstruct(stream, OUTPUT_FS);
            if s.report.force_tail[ch] != batch.samples() {
                mismatched.push(format!("fleet {} channel {ch}", s.fleet));
            }
        }
    }
    checks.push(Check::new(
        "online == batch hybrid, bit-exact",
        mismatched.is_empty() && channels > 0,
        if mismatched.is_empty() {
            format!("{channels} channels of {} sessions", sessions.len())
        } else {
            format!("mismatch: {}", mismatched.join(", "))
        },
    ));
}

/// Runs the workload.
pub fn run(args: &Args) -> Outcome {
    let (setup, setup_s) = crate::set_up(|| setup(args.seed, args.threads));
    let mut o = crate::phases(args, |secs, traced| measure(&setup, secs, traced));
    o.setup_s = setup_s;
    o
}
