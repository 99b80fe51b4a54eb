//! The metrics registry and its three instrument kinds.
//!
//! A [`Registry`] is a cheaply clonable handle (an `Arc` inside) over a
//! name → metric map. Handles returned by registration
//! ([`Counter`], [`Gauge`], [`Histogram`]) are themselves clonable
//! `Arc`-backed views onto the stored atomics: the registry lock is
//! taken only at registration/removal/snapshot time, never on the
//! update path.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

const RELAXED: Ordering = Ordering::Relaxed;

/// A monotonically increasing tally (relaxed atomic `u64`).
///
/// Besides [`inc`](Counter::inc)/[`add`](Counter::add), counters
/// support [`store`](Counter::store) for the sync-a-local-tally
/// convention: hot paths keep a plain `u64` and publish the running
/// total at batch boundaries with one relaxed store.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    v: Arc<AtomicU64>,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, RELAXED);
    }

    /// Publishes an externally maintained monotonic total (overwrites).
    pub fn store(&self, total: u64) {
        self.v.store(total, RELAXED);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(RELAXED)
    }
}

/// A point-in-time value (an `f64` stored in a relaxed atomic `u64`).
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    bits: Arc<AtomicU64>,
}

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), RELAXED);
    }

    /// Current value (0.0 until first set).
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(RELAXED))
    }
}

/// Number of histogram buckets: one per power of two of `u64` plus the
/// zero bucket. Bucket `0` holds exactly 0; bucket `i >= 1` holds
/// `2^(i-1) <= v < 2^i` (see [`Histogram`]).
pub const BUCKETS: usize = 65;

#[derive(Debug)]
struct HistogramInner {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for HistogramInner {
    fn default() -> Self {
        HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// A fixed-bucket log-scale histogram over `u64` observations.
///
/// Bucket `i` holds values `v` with `2^(i-1) <= v < 2^i` (bucket 0
/// holds exactly 0), so an observation costs one `leading_zeros` and
/// two relaxed `fetch_add`s. Counts are exact integers: filling a
/// histogram from a deterministic measurement (e.g. tick-domain
/// latencies) yields a bit-reproducible [`HistogramSnapshot`].
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    inner: Arc<HistogramInner>,
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, value: u64) {
        let bucket = (64 - value.leading_zeros()) as usize;
        self.inner.buckets[bucket].fetch_add(1, RELAXED);
        self.inner.count.fetch_add(1, RELAXED);
        self.inner.sum.fetch_add(value, RELAXED);
    }

    /// Merges a pre-bucketed batch: `counts[i]` observations landing in
    /// bucket `i` of the [`BUCKETS`] log-scale layout `observe` uses,
    /// with `sum` the batch's total observed value. For hot paths that
    /// can bucket analytically — e.g. monotone data partitioned by
    /// binary-searched thresholds — without touching every value.
    pub fn observe_bucketed(&self, counts: &[u64; BUCKETS], sum: u64) {
        let mut total = 0u64;
        for (bucket, &n) in counts.iter().enumerate() {
            if n > 0 {
                self.inner.buckets[bucket].fetch_add(n, RELAXED);
                total += n;
            }
        }
        if total == 0 {
            return;
        }
        self.inner.count.fetch_add(total, RELAXED);
        self.inner.sum.fetch_add(sum, RELAXED);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.inner.count.load(RELAXED)
    }

    /// Sum of all observed values (wrapping at `u64::MAX`).
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(RELAXED)
    }

    /// A consistent-enough copy of the bucket state (relaxed loads;
    /// exact when no concurrent writer is active). Only populated
    /// buckets appear.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        for (i, b) in self.inner.buckets.iter().enumerate() {
            let count = b.load(RELAXED);
            if count > 0 {
                buckets.push(BucketCount {
                    le: bucket_upper_bound(i),
                    count,
                });
            }
        }
        HistogramSnapshot {
            buckets,
            count: self.count(),
            sum: self.sum(),
        }
    }
}

/// Inclusive upper bound of bucket `i`.
fn bucket_upper_bound(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// One populated histogram bucket: `count` observations at most `le`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BucketCount {
    /// Inclusive upper bound of the bucket.
    pub le: u64,
    /// Observations that landed in this bucket (non-cumulative).
    pub count: u64,
}

/// A point-in-time copy of a [`Histogram`]'s state.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Populated buckets, ascending by bound, non-cumulative counts.
    pub buckets: Vec<BucketCount>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

/// A snapshot of one metric's value, as handed to the exporters.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter total.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram state.
    Histogram(HistogramSnapshot),
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// The metric identity: a name plus a pre-rendered label body
/// (`key="value",…`, empty for unlabeled metrics). Ordering the map by
/// this pair is what makes exporter output deterministic.
type Key = (String, String);

#[derive(Debug, Default)]
struct Inner {
    metrics: Mutex<BTreeMap<Key, Metric>>,
}

/// A shareable collection of named metrics.
///
/// Cloning a `Registry` clones a handle to the same underlying map, so
/// every component of a process (or a hub's worker threads) can
/// register and update metrics against one registry.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    inner: Arc<Inner>,
}

/// `true` for names the exporters can emit verbatim:
/// `[a-zA-Z_][a-zA-Z0-9_]*`.
fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn render_labels(labels: &[(&str, &str)]) -> String {
    let mut out = String::new();
    for (i, (k, v)) in labels.iter().enumerate() {
        assert!(valid_name(k), "invalid label name {k:?}");
        assert!(
            !v.contains('"') && !v.contains('\\') && !v.contains('\n'),
            "label value {v:?} needs no escaping by contract"
        );
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        out.push_str(v);
        out.push('"');
    }
    out
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn register_with<T: Clone>(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        wrap: impl Fn(T) -> Metric,
        unwrap: impl Fn(&Metric) -> Option<T>,
        fresh: impl Fn() -> T,
    ) -> T {
        assert!(valid_name(name), "invalid metric name {name:?}");
        let key = (name.to_owned(), render_labels(labels));
        let mut map = self.inner.metrics.lock().expect("registry poisoned");
        if let Some(existing) = map.get(&key) {
            return unwrap(existing).unwrap_or_else(|| {
                panic!(
                    "metric {name}{{{}}} already registered as a {}",
                    key.1,
                    existing.kind()
                )
            });
        }
        let value = fresh();
        map.insert(key, wrap(value.clone()));
        value
    }

    /// Registers (or fetches) an unlabeled counter.
    ///
    /// # Panics
    ///
    /// Panics on an invalid metric name or when the name is already
    /// registered as a different metric kind (same for every
    /// registration method).
    pub fn counter(&self, name: &str) -> Counter {
        self.counter_with(name, &[])
    }

    /// Registers (or fetches) a labeled counter.
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        self.register_with(
            name,
            labels,
            Metric::Counter,
            |m| match m {
                Metric::Counter(c) => Some(c.clone()),
                _ => None,
            },
            Counter::default,
        )
    }

    /// Registers (or fetches) an unlabeled gauge.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.gauge_with(name, &[])
    }

    /// Registers (or fetches) a labeled gauge.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        self.register_with(
            name,
            labels,
            Metric::Gauge,
            |m| match m {
                Metric::Gauge(g) => Some(g.clone()),
                _ => None,
            },
            Gauge::default,
        )
    }

    /// Registers (or fetches) an unlabeled histogram.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.histogram_with(name, &[])
    }

    /// Registers (or fetches) a labeled histogram.
    pub fn histogram_with(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        self.register_with(
            name,
            labels,
            Metric::Histogram,
            |m| match m {
                Metric::Histogram(h) => Some(h.clone()),
                _ => None,
            },
            Histogram::default,
        )
    }

    /// Removes one metric; `true` when it existed. Outstanding handles
    /// keep working but are no longer exported — how a bounded-memory
    /// deployment retires per-session metrics.
    pub fn remove(&self, name: &str, labels: &[(&str, &str)]) -> bool {
        let key = (name.to_owned(), render_labels(labels));
        self.inner
            .metrics
            .lock()
            .expect("registry poisoned")
            .remove(&key)
            .is_some()
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.inner.metrics.lock().expect("registry poisoned").len()
    }

    /// `true` when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshots every metric as `(name, label_body, value)`, sorted by
    /// name then label body — the deterministic order both exporters
    /// render in.
    pub fn snapshot(&self) -> Vec<(String, String, MetricValue)> {
        let map = self.inner.metrics.lock().expect("registry poisoned");
        map.iter()
            .map(|((name, labels), metric)| {
                let value = match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                };
                (name.clone(), labels.clone(), value)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_share_by_identity() {
        let reg = Registry::new();
        let a = reg.counter("datc_test_total");
        let b = reg.counter("datc_test_total");
        a.inc();
        b.add(4);
        assert_eq!(a.get(), 5, "same identity, same tally");
        let other = reg.counter_with("datc_test_total", &[("k", "v")]);
        other.inc();
        assert_eq!(a.get(), 5, "labels distinguish identities");
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn batched_observation_paths_match_observe() {
        let values: Vec<u64> = vec![0, 1, 1, 2, 3, 7, 8, 1023, 1024, u64::MAX];
        let reference = Histogram::default();
        for &v in &values {
            reference.observe(v);
        }

        let bucketed = Histogram::default();
        let mut counts = [0u64; BUCKETS];
        let mut sum = 0u64;
        for &v in &values {
            counts[(64 - v.leading_zeros()) as usize] += 1;
            sum = sum.wrapping_add(v);
        }
        bucketed.observe_bucketed(&counts, sum);
        assert_eq!(
            bucketed.snapshot(),
            reference.snapshot(),
            "observe_bucketed"
        );

        // empty batches must not touch count/sum
        bucketed.observe_bucketed(&[0u64; BUCKETS], 999);
        assert_eq!(bucketed.count(), reference.count());
        assert_eq!(bucketed.sum(), reference.sum());
    }

    #[test]
    fn counter_store_publishes_local_tallies() {
        let reg = Registry::new();
        let c = reg.counter("datc_synced_total");
        let mut local = 0u64;
        for _ in 0..100 {
            local += 3;
        }
        c.store(local);
        assert_eq!(c.get(), 300);
    }

    #[test]
    fn gauges_hold_floats() {
        let reg = Registry::new();
        let g = reg.gauge("datc_rate");
        assert_eq!(g.get(), 0.0);
        g.set(12.5);
        assert_eq!(g.get(), 12.5);
        g.set(-3.0);
        assert_eq!(g.get(), -3.0);
    }

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        let reg = Registry::new();
        let h = reg.histogram("datc_lat_ticks");
        for v in [0, 1, 2, 3, 4, 63, 64, u64::MAX] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 8);
        assert_eq!(
            snap.sum,
            0u64.wrapping_add(1 + 2 + 3 + 4 + 63 + 64)
                .wrapping_add(u64::MAX)
        );
        let by_le: Vec<(u64, u64)> = snap.buckets.iter().map(|b| (b.le, b.count)).collect();
        assert_eq!(
            by_le,
            vec![
                (0, 1),        // 0
                (1, 1),        // 1
                (3, 2),        // 2, 3
                (7, 1),        // 4
                (63, 1),       // 63
                (127, 1),      // 64
                (u64::MAX, 1)  // u64::MAX
            ]
        );
    }

    #[test]
    fn histogram_snapshots_are_reproducible() {
        let fill = || {
            let h = Histogram::default();
            for v in 0..1000u64 {
                h.observe(v * v % 977);
            }
            h.snapshot()
        };
        assert_eq!(fill(), fill());
    }

    #[test]
    fn remove_retires_a_metric() {
        let reg = Registry::new();
        let g = reg.gauge_with("datc_session_bytes", &[("session", "9")]);
        g.set(1.0);
        assert!(reg.remove("datc_session_bytes", &[("session", "9")]));
        assert!(!reg.remove("datc_session_bytes", &[("session", "9")]));
        assert!(reg.is_empty());
        g.set(2.0); // handle still works, just unexported
        assert_eq!(g.get(), 2.0);
    }

    #[test]
    #[should_panic(expected = "already registered as a counter")]
    fn kind_mismatch_panics() {
        let reg = Registry::new();
        let _ = reg.counter("datc_thing");
        let _ = reg.gauge("datc_thing");
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_rejected() {
        let _ = Registry::new().counter("datc thing");
    }

    #[test]
    fn registry_clones_share_state() {
        let reg = Registry::new();
        let alias = reg.clone();
        reg.counter("datc_shared_total").add(7);
        assert_eq!(alias.counter("datc_shared_total").get(), 7);
    }
}
