//! Pieces the workloads share: scoring against ground truth, the
//! pre-encoded session pool of the transport workloads, the hub-side
//! completion signal, the wire image of a session, and the replay that
//! splits receive time into its decode and online-reconstruction
//! layers.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use datc_core::config::DatcConfig;
use datc_core::encoder::TraceLevel;
use datc_engine::FleetRunner;
use datc_rx::metrics::evaluate;
use datc_rx::online::{AnyOnlineReconstructor, OnlineReconstructor};
use datc_signal::Signal;
use datc_uwb::aer::AddressedEvent;
use datc_wire::gateway::{HubHealth, SinkFactory};
use datc_wire::packet::{Packetizer, SessionHeader};
use datc_wire::session::{SessionReport, SessionRxConfig};
use datc_wire::sink::SessionSink;
use datc_wire::{EventBatch, StreamDecoder, WireStats};

use crate::inputs::{Channel, DEAD_TIME_S, OUTPUT_FS};
use crate::report::Check;
use crate::trace::{SpanId, Tracer};

/// Lag search when scoring against a force trajectory, s.
pub const MAX_LAG_S: f64 = 0.3;

/// Mean correlation (%) of reconstructed force traces against their
/// ground truth, and how many traces were scored. A trace that cannot
/// be scored (too short, or flat so that the correlation is undefined)
/// counts as 0 %.
pub fn mean_corr<'a>(pairs: impl IntoIterator<Item = (&'a [f64], &'a Signal)>) -> (f64, usize) {
    let mut sum = 0.0;
    let mut n = 0usize;
    for (trace, truth) in pairs {
        let recon = Signal::from_samples(trace.to_vec(), OUTPUT_FS);
        sum += evaluate(&recon, truth, MAX_LAG_S)
            .map(|r| r.percent)
            .ok()
            .filter(|p| p.is_finite())
            .unwrap_or(0.0);
        n += 1;
    }
    (if n > 0 { sum / n as f64 } else { 0.0 }, n)
}

/// One pre-encoded session a transport sender replays.
#[derive(Debug)]
pub struct PoolSession {
    /// The merged AER stream to send.
    pub merged: Vec<AddressedEvent>,
    /// Encoder tick rate, Hz.
    pub tick_rate_hz: f64,
    /// Recording length, s.
    pub duration_s: f64,
    /// Per-channel ground-truth force.
    pub force: Vec<Signal>,
}

/// Encodes and merges each recording with one fleet runner of
/// `threads` workers.
pub fn encode_pool(recordings: Vec<Vec<Channel>>, threads: usize) -> Vec<PoolSession> {
    let Some(channels) = recordings.first().map(Vec::len) else {
        return Vec::new();
    };
    let runner = FleetRunner::new(
        DatcConfig::paper().with_trace_level(TraceLevel::Events),
        channels,
    )
    .expect("paper configuration is valid")
    .with_threads(threads);
    recordings
        .into_iter()
        .map(|channels| {
            let (signals, force): (Vec<Signal>, Vec<Signal>) =
                channels.into_iter().map(|c| (c.rectified, c.force)).unzip();
            let out = runner.encode(&signals);
            let first = &out.channels[0].events;
            PoolSession {
                tick_rate_hz: first.tick_rate_hz(),
                duration_s: first.duration_s(),
                merged: out.merge_aer(DEAD_TIME_S).merged,
                force,
            }
        })
        .collect()
}

/// Scores the hub's traces of the first pass over `pool` (`scored`
/// pairs a pool index with its per-channel traces) and checks the mean
/// against `floor_pct`; every pool entry must have been scored.
pub fn score_pool(
    pool: &[PoolSession],
    scored: &[(usize, Vec<Vec<f64>>)],
    floor_pct: f64,
    checks: &mut Vec<Check>,
) -> f64 {
    let (corr, n) = mean_corr(scored.iter().flat_map(|(k, traces)| {
        traces
            .iter()
            .map(Vec::as_slice)
            .zip(&pool[*k % pool.len()].force)
    }));
    checks.push(Check::new(
        "corr_pct above floor",
        corr > floor_pct && scored.len() == pool.len(),
        format!(
            "{corr:.3} % over {n} channels of {} sessions (floor {floor_pct} %)",
            scored.len()
        ),
    ));
    corr
}

/// Why a drained hub's epoch was unhealthy, if it was: anything shed,
/// evicted or quarantined, or a table that misses a session sent.
pub fn epoch_health(h: &HubHealth, in_table: usize, started: u64) -> Option<String> {
    (h.shed + h.evicted + h.quarantined > 0 || in_table as u64 != started).then(|| {
        format!(
            "shed {} evicted {} quarantined {}, {in_table} sessions in the table for {started} sent",
            h.shed, h.evicted, h.quarantined
        )
    })
}

/// A session the hub finished, as its sink saw it close.
#[derive(Debug, Clone)]
pub struct Finished {
    /// When the hub closed the session.
    pub at: Instant,
    /// The receiver's final books.
    pub stats: WireStats,
    /// Force samples emitted across channels.
    pub force_samples: usize,
    /// The per-channel force traces, kept only for sessions whose
    /// correlation is scored.
    pub force: Option<Vec<Vec<f64>>>,
}

/// Sessions the hub has finished, keyed by session id, with a condvar
/// a sender can wait on. Installed into a hub through
/// [`factory`](Completions::factory): a hub reports a session finished
/// when its sink sees it close.
#[derive(Debug)]
pub struct Completions {
    finished: Mutex<HashMap<u32, Finished>>,
    changed: Condvar,
    keep_force_below: u32,
}

impl Completions {
    /// A fresh table; force traces are kept for session ids below
    /// `keep_force_below`.
    pub fn new(keep_force_below: u32) -> Arc<Completions> {
        Arc::new(Completions {
            finished: Mutex::new(HashMap::new()),
            changed: Condvar::new(),
            keep_force_below,
        })
    }

    /// A sink factory whose sinks report into this table.
    pub fn factory(self: &Arc<Self>) -> SinkFactory {
        let done = Arc::clone(self);
        Arc::new(move |_conn| {
            Box::new(CompletionSink {
                done: Arc::clone(&done),
            }) as Box<dyn SessionSink>
        })
    }

    /// Waits up to `timeout` for session `id` to finish and takes its
    /// record.
    pub fn wait(&self, id: u32, timeout: Duration) -> Option<Finished> {
        let guard = self.finished.lock().expect("completion table poisoned");
        let (mut guard, _) = self
            .changed
            .wait_timeout_while(guard, timeout, |m| !m.contains_key(&id))
            .expect("completion table poisoned");
        guard.remove(&id)
    }
}

struct CompletionSink {
    done: Arc<Completions>,
}

impl SessionSink for CompletionSink {
    fn on_close(&mut self, report: &SessionReport) {
        let at = Instant::now();
        let Some(header) = report.header else {
            return; // no HELLO: nothing a sender could be waiting for
        };
        let keep = header.session_id < self.done.keep_force_below;
        let record = Finished {
            at,
            stats: report.stats.clone(),
            force_samples: report.force_samples(),
            force: keep.then(|| report.force_tail.clone()),
        };
        self.done
            .finished
            .lock()
            .expect("completion table poisoned")
            .insert(header.session_id, record);
        self.done.changed.notify_all();
    }
}

/// One packetized session: its frames in send order, HELLO first and
/// BYE last.
#[derive(Debug, Clone)]
pub struct Wire {
    /// HELLO, DATA frames, BYE.
    pub frames: Vec<Vec<u8>>,
    /// Frames the packetizer emitted.
    pub frames_emitted: u64,
    /// Wire bytes the packetizer emitted.
    pub bytes_emitted: u64,
}

/// Packetizes `events` for `header`, `chunk` events per
/// `data_frames` call (one DATA frame per chunk up to the frame cap).
pub fn packetize(header: SessionHeader, events: &[AddressedEvent], chunk: usize) -> Wire {
    let mut tx = Packetizer::new(header);
    let mut frames = vec![tx.hello()];
    for c in events.chunks(chunk.max(1)) {
        frames.extend(tx.data_frames(c));
    }
    frames.push(tx.bye());
    Wire {
        frames,
        frames_emitted: tx.frames_emitted(),
        bytes_emitted: tx.bytes_emitted(),
    }
}

/// What a replay measured.
#[derive(Debug, Clone)]
pub struct Replay {
    /// Time the decode pass took, ns.
    pub decode_ns: u64,
    /// Time the online-reconstruction pass took, ns.
    pub online_ns: u64,
    /// The decoder's books after the replay.
    pub stats: WireStats,
    /// Force samples the online pass emitted.
    pub force_samples: usize,
}

impl Replay {
    /// Records the two passes as back-to-back `decode` and `online`
    /// spans from `start_ns` under `parent`.
    pub fn record(&self, t: &mut Tracer, start_ns: u64, parent: Option<SpanId>, session: u64) {
        let decode_end = start_ns + self.decode_ns;
        t.record("decode", start_ns, decode_end, parent, session);
        t.record(
            "online",
            decode_end,
            decode_end + self.online_ns,
            parent,
            session,
        );
    }
}

/// Replays the byte units a receiver got, one `push_bytes` per unit,
/// in two timed passes that split `SessionRx` into its layers: first
/// the `StreamDecoder` alone, then the decoded events through one
/// online reconstructor per channel, driven exactly as `SessionRx`
/// drives them (advance to the watermark after every push, finish at
/// the session duration).
pub fn replay<'a>(units: impl IntoIterator<Item = &'a [u8]>, config: &SessionRxConfig) -> Replay {
    let t0 = Instant::now();
    let mut decoder = StreamDecoder::with_reorder_window(config.reorder_window);
    if let Some(cap) = config.parked_bytes_cap {
        decoder = decoder.with_parked_bytes_cap(cap);
    }
    let mut batch = EventBatch::new();
    // (events released so far, watermark) after every push
    let mut marks: Vec<(usize, f64)> = Vec::new();
    for unit in units {
        decoder.push_bytes(unit);
        decoder.drain_batch(&mut batch);
        marks.push((batch.len(), decoder.watermark_s()));
    }
    decoder.finish();
    decoder.drain_batch(&mut batch);
    let released = batch.len();
    let header = decoder.session().copied();
    let decode_ns = t0.elapsed().as_nanos() as u64;

    let t1 = Instant::now();
    let mut force_samples = 0;
    if let Some(h) = header {
        let mut proto = config.recon.build(config.output_fs);
        proto.cap_duration(h.duration_s);
        let mut recon = vec![proto; usize::from(h.n_channels)];
        let mut out = Vec::new();
        let mut fed = 0;
        for &(end, watermark) in &marks {
            feed(&mut recon, &batch, fed..end, h.tick_period_s);
            fed = end;
            for r in recon.iter_mut() {
                r.advance_to(watermark);
            }
            force_samples += drain(&mut recon, &mut out);
        }
        feed(&mut recon, &batch, fed..released, h.tick_period_s);
        for r in recon.iter_mut() {
            r.finish(h.duration_s.max(0.0));
        }
        force_samples += drain(&mut recon, &mut out);
    }
    Replay {
        decode_ns,
        online_ns: t1.elapsed().as_nanos() as u64,
        stats: decoder.stats(),
        force_samples,
    }
}

/// Pushes the released events `range` into their channels'
/// reconstructors, as `SessionRx` absorbs a drained batch.
fn feed(
    recon: &mut [AnyOnlineReconstructor],
    batch: &EventBatch,
    range: Range<usize>,
    period: f64,
) {
    for k in range {
        if let Some(r) = recon.get_mut(usize::from(batch.addrs()[k])) {
            r.push_coded(batch.ticks()[k] as f64 * period, batch.code(k));
        }
    }
}

/// Drains every channel's determined samples; returns how many.
fn drain(recon: &mut [AnyOnlineReconstructor], out: &mut Vec<f64>) -> usize {
    let mut n = 0;
    for r in recon {
        out.clear();
        r.drain_into(out);
        n += out.len();
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use datc_core::Event;
    use datc_wire::session::SessionRx;

    fn events(header: &SessionHeader, n: u64) -> Vec<AddressedEvent> {
        (0..n)
            .map(|i| AddressedEvent {
                channel: (i % u64::from(header.n_channels)) as u8,
                event: Event::at_tick(i * 31, header.tick_period_s, Some((i % 16) as u8)),
            })
            .collect()
    }

    #[test]
    fn replay_reproduces_the_session_books_and_sample_count() {
        let header = SessionHeader::new(9, 3, 2000.0, 3.0);
        let ev = events(&header, 150);
        let wire = packetize(header, &ev, 16);
        assert_eq!(wire.frames.len() as u64, wire.frames_emitted);
        let config = SessionRxConfig::default();
        let mut rx = SessionRx::new(config.clone());
        for f in &wire.frames {
            rx.push_bytes(f);
        }
        let report = rx.finish();
        let rep = replay(wire.frames.iter().map(Vec::as_slice), &config);
        assert_eq!(rep.stats, report.stats);
        assert_eq!(rep.force_samples, report.force_samples());
        assert_eq!(rep.stats.events_decoded, 150);
    }

    #[test]
    fn completions_hand_a_finished_session_to_its_waiter() {
        let done = Completions::new(10);
        let factory = done.factory();
        let header = SessionHeader::new(4, 1, 2000.0, 1.0);
        let wire = packetize(header, &events(&header, 20), 64);
        let mut rx = SessionRx::new(SessionRxConfig::default()).with_sink(factory(0));
        for f in &wire.frames {
            rx.push_bytes(f);
        }
        rx.finish();
        let fin = done
            .wait(4, Duration::from_millis(10))
            .expect("session 4 finished");
        assert_eq!(fin.stats.events_decoded, 20);
        assert!(fin.force.is_some(), "id 4 is below the keep threshold");
        assert!(done.wait(5, Duration::from_millis(1)).is_none());
    }
}
