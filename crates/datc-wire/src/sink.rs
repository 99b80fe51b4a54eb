//! Streaming delivery: the [`SessionSink`] callback API and the
//! bounded [`ForceRing`] that together keep long-running sessions in
//! `O(window)` memory.
//!
//! A [`SessionRx`](crate::session::SessionRx) used to accumulate every
//! force sample of every channel until the session closed — fine for a
//! 20 s recording, fatal for a sensor that streams for days. The fix is
//! the classic telemetry split:
//!
//! * **push**: a [`SessionSink`] receives decoded events and force
//!   samples *as they are determined*, so downstream consumers (files,
//!   databases, control loops) see bounded-latency data and the session
//!   itself retains nothing;
//! * **pull**: a [`ForceRing`] keeps only the most recent
//!   `force_window` samples per channel for the closing
//!   [`SessionReport`] — the "what was
//!   the force just before the link died" view — plus exact emitted
//!   totals.

use crate::session::SessionReport;
use datc_uwb::aer::AddressedEvent;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Receives a session's decoded data incrementally.
///
/// All methods default to no-ops so a sink implements only what it
/// consumes. Methods are called from the hub thread driving the
/// session at the time (a TCP connection's reader or the hub's ticking
/// worker, under the hub's core lock, or the UDP hub's receive
/// thread), never concurrently for one session.
pub trait SessionSink: Send {
    /// Called with every run of decoded events, in release (time)
    /// order, each event exactly once.
    fn on_events(&mut self, events: &[AddressedEvent]) {
        let _ = events;
    }

    /// Called with newly determined force samples for `channel`
    /// (appending to that channel's trace), each sample exactly once.
    fn on_force(&mut self, channel: usize, samples: &[f64]) {
        let _ = (channel, samples);
    }

    /// Called once when the session closes, after the final
    /// [`on_events`](SessionSink::on_events) /
    /// [`on_force`](SessionSink::on_force) deliveries.
    fn on_close(&mut self, report: &SessionReport) {
        let _ = report;
    }
}

/// A bounded tail buffer over one channel's force trace: keeps the most
/// recent `cap` samples plus the exact count ever pushed.
///
/// # Example
///
/// ```
/// use datc_wire::sink::ForceRing;
/// let mut ring = ForceRing::new(Some(3));
/// ring.push_slice(&[1.0, 2.0, 3.0, 4.0, 5.0]);
/// assert_eq!(ring.to_vec(), vec![3.0, 4.0, 5.0]);
/// assert_eq!(ring.total(), 5);
/// ```
#[derive(Debug, Clone)]
pub struct ForceRing {
    /// `None` = unbounded (keep the whole trace).
    cap: Option<usize>,
    buf: VecDeque<f64>,
    total: usize,
}

impl ForceRing {
    /// Creates a ring keeping the last `cap` samples (`None` keeps
    /// everything — the standalone-replay default).
    ///
    /// # Panics
    ///
    /// Panics when `cap` is `Some(0)`.
    pub fn new(cap: Option<usize>) -> Self {
        assert!(cap != Some(0), "ring capacity must be positive");
        ForceRing {
            cap,
            buf: VecDeque::new(),
            total: 0,
        }
    }

    /// Appends samples, evicting from the front past the capacity.
    pub fn push_slice(&mut self, samples: &[f64]) {
        self.total += samples.len();
        match self.cap {
            None => self.buf.extend(samples.iter().copied()),
            Some(cap) => {
                // Only the tail of a large append can survive.
                let keep = &samples[samples.len().saturating_sub(cap)..];
                while self.buf.len() + keep.len() > cap {
                    self.buf.pop_front();
                }
                self.buf.extend(keep.iter().copied());
            }
        }
    }

    /// Samples currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Samples ever pushed (retained or evicted).
    pub fn total(&self) -> usize {
        self.total
    }

    /// The retained tail as a contiguous vector.
    pub fn to_vec(&self) -> Vec<f64> {
        self.buf.iter().copied().collect()
    }
}

/// Everything one session delivered through a [`MemorySink`]: the full
/// event stream, the full per-channel force traces, and the closing
/// report.
#[derive(Debug, Clone)]
pub struct SessionCapture {
    /// Every decoded event, in release order.
    pub events: Vec<AddressedEvent>,
    /// Full per-channel force traces (unbounded — test-sized sessions).
    pub force: Vec<Vec<f64>>,
    /// The closing report.
    pub report: SessionReport,
}

impl SessionCapture {
    /// The session id from the closing report (0 when no HELLO arrived).
    pub fn session_id(&self) -> u32 {
        self.report.header.map_or(0, |h| h.session_id)
    }
}

/// Shared store finished [`MemorySink`] captures land in.
pub type CaptureStore = Arc<Mutex<Vec<SessionCapture>>>;

/// Creates an empty [`CaptureStore`] to hand to
/// [`MemorySink::new`] instances.
pub fn capture_store() -> CaptureStore {
    Arc::default()
}

/// A [`SessionSink`] that records everything in memory and publishes
/// the capture to a shared store at session close — the test and
/// short-recording workhorse (it deliberately re-introduces the
/// unbounded buffering the ring removed, so use it only where the
/// session length is known to be small).
///
/// # Example
///
/// ```
/// use datc_wire::packet::{encode_session, SessionHeader};
/// use datc_wire::session::{SessionRx, SessionRxConfig};
/// use datc_wire::sink::{capture_store, MemorySink};
///
/// let store = capture_store();
/// let mut rx = SessionRx::new(SessionRxConfig::default())
///     .with_sink(Box::new(MemorySink::new(store.clone())));
/// rx.push_bytes(&encode_session(SessionHeader::new(3, 1, 2000.0, 1.0), &[]));
/// rx.finish();
/// let captures = store.lock().unwrap();
/// assert_eq!(captures.len(), 1);
/// assert_eq!(captures[0].session_id(), 3);
/// assert_eq!(captures[0].force[0].len(), 100); // 1 s at 100 Hz
/// ```
#[derive(Debug)]
pub struct MemorySink {
    store: CaptureStore,
    events: Vec<AddressedEvent>,
    force: Vec<Vec<f64>>,
}

impl MemorySink {
    /// Creates a sink publishing into `store` at session close.
    pub fn new(store: CaptureStore) -> Self {
        MemorySink {
            store,
            events: Vec::new(),
            force: Vec::new(),
        }
    }
}

impl SessionSink for MemorySink {
    fn on_events(&mut self, events: &[AddressedEvent]) {
        self.events.extend_from_slice(events);
    }

    fn on_force(&mut self, channel: usize, samples: &[f64]) {
        if channel >= self.force.len() {
            self.force.resize(channel + 1, Vec::new());
        }
        self.force[channel].extend_from_slice(samples);
    }

    fn on_close(&mut self, report: &SessionReport) {
        self.store
            .lock()
            .expect("capture store poisoned")
            .push(SessionCapture {
                events: std::mem::take(&mut self.events),
                force: std::mem::take(&mut self.force),
                report: report.clone(),
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unbounded_ring_keeps_everything() {
        let mut ring = ForceRing::new(None);
        for i in 0..1000 {
            ring.push_slice(&[i as f64]);
        }
        assert_eq!(ring.len(), 1000);
        assert_eq!(ring.total(), 1000);
    }

    #[test]
    fn bounded_ring_memory_is_o_window() {
        let mut ring = ForceRing::new(Some(64));
        for chunk in 0..1000 {
            let xs: Vec<f64> = (0..7).map(|i| (chunk * 7 + i) as f64).collect();
            ring.push_slice(&xs);
        }
        assert_eq!(ring.len(), 64);
        assert_eq!(ring.total(), 7000);
        let tail = ring.to_vec();
        assert_eq!(tail[63], 6999.0, "retains exactly the newest samples");
        assert_eq!(tail[0], 6936.0);
    }

    #[test]
    fn oversized_append_keeps_only_the_tail() {
        let mut ring = ForceRing::new(Some(4));
        let big: Vec<f64> = (0..100).map(|i| i as f64).collect();
        ring.push_slice(&big);
        assert_eq!(ring.to_vec(), vec![96.0, 97.0, 98.0, 99.0]);
        assert_eq!(ring.total(), 100);
    }

    #[test]
    #[should_panic(expected = "ring capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = ForceRing::new(Some(0));
    }
}
