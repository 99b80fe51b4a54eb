//! Unified observability for the datc stack: a lock-light metrics
//! registry and two exporters.
//!
//! Every operational number the workspace produces — hub health, decode
//! books, fleet throughput, per-session latency — flows through one
//! [`Registry`]:
//!
//! * [`Counter`] / [`Gauge`] — a single relaxed atomic each; updating
//!   one is a handful of nanoseconds and never takes a lock, so handles
//!   are safe to touch from hot paths. The heavier convention used by
//!   the instrumented crates is cheaper still: keep plain local tallies
//!   on the hot path and *sync* them into the registry at natural
//!   boundaries (per socket read, per encode), so the steady-state cost
//!   is a few relaxed stores per batch.
//! * [`Histogram`] — fixed power-of-two (log-scale) buckets over `u64`
//!   observations; one relaxed `fetch_add` per observation, and the
//!   bucket counts are exact integers, so a histogram filled from a
//!   deterministic tick-domain measurement is bit-reproducible.
//!
//! Two exporters render a registry snapshot with stable, documented
//! names: [`render_prometheus`] (text scrape format) and
//! [`render_json`] (flat JSON object). Both sort by metric identity, so
//! their output is deterministic and golden-testable.
//!
//! Registration is idempotent: asking for an existing `(name, labels)`
//! pair returns a handle to the same metric, so independent components
//! can share tallies without coordination.
//!
//! # Example
//!
//! ```
//! use datc_obs::{render_prometheus, Registry};
//!
//! let reg = Registry::new();
//! let frames = reg.counter("datc_rx_frames_total");
//! frames.add(3);
//! let lat = reg.histogram_with("datc_session_latency_ticks", &[("session", "7")]);
//! lat.observe(12);
//! let text = render_prometheus(&reg);
//! assert!(text.contains("datc_rx_frames_total 3"));
//! assert!(text.contains("datc_session_latency_ticks_count{session=\"7\"} 1"));
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod export;
pub mod registry;

pub use export::{render_json, render_prometheus};
pub use registry::{
    BucketCount, Counter, Gauge, Histogram, HistogramSnapshot, MetricValue, Registry, BUCKETS,
};
