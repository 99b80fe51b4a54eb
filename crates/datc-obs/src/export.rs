//! Exporters: Prometheus text scrape format and a flat JSON snapshot.
//!
//! Both render a [`Registry::snapshot`] in metric-identity order
//! (name, then label body), so output for the same metric state is
//! byte-identical run to run — the property the golden-format tests
//! pin down.
//!
//! ## Prometheus text format
//!
//! ```text
//! # TYPE datc_rx_frames_total counter
//! datc_rx_frames_total 3
//! # TYPE datc_session_latency_ticks histogram
//! datc_session_latency_ticks_bucket{session="7",le="15"} 1
//! datc_session_latency_ticks_bucket{session="7",le="+Inf"} 1
//! datc_session_latency_ticks_sum{session="7"} 12
//! datc_session_latency_ticks_count{session="7"} 1
//! ```
//!
//! Histogram `_bucket` lines are cumulative (Prometheus convention) and
//! only populated bucket bounds are emitted, followed by the mandatory
//! `+Inf` bucket. A `# TYPE` line precedes each distinct metric name
//! once.
//!
//! ## JSON snapshot
//!
//! One flat object keyed by `name` or `name{labels}`; counters render
//! as integers, gauges as floats, histograms as
//! `{"count": …, "sum": …, "buckets": [{"le": …, "count": …}, …]}`
//! with non-cumulative per-bucket counts (`"le": null` marks the
//! top bucket, whose bound exceeds JSON's exact-integer range).

use crate::registry::{HistogramSnapshot, MetricValue, Registry};

/// Renders a gauge value the same way in both exporters: integral
/// values without a trailing `.0` (Rust's default `f64` Display), which
/// both Prometheus and JSON accept.
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_owned()
    } else {
        format!("{v}")
    }
}

/// Renders the registry in the Prometheus text exposition format.
pub fn render_prometheus(registry: &Registry) -> String {
    let mut out = String::new();
    let mut last_name: Option<String> = None;
    for (name, labels, value) in registry.snapshot() {
        if last_name.as_deref() != Some(name.as_str()) {
            let kind = match value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram(_) => "histogram",
            };
            out.push_str(&format!("# TYPE {name} {kind}\n"));
            last_name = Some(name.clone());
        }
        let ident = |suffix: &str, extra: &str| -> String {
            let mut body = labels.clone();
            if !extra.is_empty() {
                if !body.is_empty() {
                    body.push(',');
                }
                body.push_str(extra);
            }
            if body.is_empty() {
                format!("{name}{suffix}")
            } else {
                format!("{name}{suffix}{{{body}}}")
            }
        };
        match value {
            MetricValue::Counter(v) => out.push_str(&format!("{} {v}\n", ident("", ""))),
            MetricValue::Gauge(v) => out.push_str(&format!("{} {}\n", ident("", ""), fmt_f64(v))),
            MetricValue::Histogram(h) => {
                let mut cumulative = 0u64;
                for b in &h.buckets {
                    cumulative += b.count;
                    out.push_str(&format!(
                        "{} {cumulative}\n",
                        ident("_bucket", &format!("le=\"{}\"", b.le))
                    ));
                }
                out.push_str(&format!(
                    "{} {}\n",
                    ident("_bucket", "le=\"+Inf\""),
                    h.count
                ));
                out.push_str(&format!("{} {}\n", ident("_sum", ""), h.sum));
                out.push_str(&format!("{} {}\n", ident("_count", ""), h.count));
            }
        }
    }
    out
}

fn json_histogram(h: &HistogramSnapshot) -> String {
    let mut buckets = String::from("[");
    for (i, b) in h.buckets.iter().enumerate() {
        if i > 0 {
            buckets.push_str(", ");
        }
        // u64::MAX exceeds JSON's exactly-representable integer range;
        // null marks "the rest of the u64 axis".
        let le = if b.le == u64::MAX {
            "null".to_owned()
        } else {
            b.le.to_string()
        };
        buckets.push_str(&format!("{{\"le\": {le}, \"count\": {}}}", b.count));
    }
    buckets.push(']');
    format!(
        "{{\"count\": {}, \"sum\": {}, \"buckets\": {buckets}}}",
        h.count, h.sum
    )
}

/// Renders the registry as one flat, sorted JSON object.
pub fn render_json(registry: &Registry) -> String {
    let mut out = String::from("{\n");
    let snapshot = registry.snapshot();
    for (i, (name, labels, value)) in snapshot.iter().enumerate() {
        let key = if labels.is_empty() {
            name.clone()
        } else {
            format!("{name}{{{}}}", labels.replace('"', "\\\""))
        };
        let rendered = match value {
            MetricValue::Counter(v) => v.to_string(),
            MetricValue::Gauge(v) => fmt_f64(*v),
            MetricValue::Histogram(h) => json_histogram(h),
        };
        out.push_str(&format!("  \"{key}\": {rendered}"));
        out.push_str(if i + 1 < snapshot.len() { ",\n" } else { "\n" });
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A registry with one of everything, in fixed state — the shared
    /// fixture both golden tests render.
    fn golden_registry() -> Registry {
        let reg = Registry::new();
        reg.counter("datc_rx_frames_total").add(42);
        reg.counter_with("datc_rx_frames_total", &[("session", "3")])
            .add(7);
        reg.gauge("datc_hub_sessions_in_flight").set(2.0);
        reg.gauge_with("datc_session_event_rate_ewma", &[("session", "3")])
            .set(150.25);
        let h = reg.histogram_with("datc_session_latency_ticks", &[("session", "3")]);
        for v in [0u64, 1, 5, 5, 200] {
            h.observe(v);
        }
        reg
    }

    /// The scrape format is pinned byte for byte: any change to metric
    /// naming, ordering, or histogram rendering must show up here as a
    /// deliberate golden update.
    #[test]
    fn prometheus_golden_format() {
        let expected = "\
# TYPE datc_hub_sessions_in_flight gauge
datc_hub_sessions_in_flight 2
# TYPE datc_rx_frames_total counter
datc_rx_frames_total 42
datc_rx_frames_total{session=\"3\"} 7
# TYPE datc_session_event_rate_ewma gauge
datc_session_event_rate_ewma{session=\"3\"} 150.25
# TYPE datc_session_latency_ticks histogram
datc_session_latency_ticks_bucket{session=\"3\",le=\"0\"} 1
datc_session_latency_ticks_bucket{session=\"3\",le=\"1\"} 2
datc_session_latency_ticks_bucket{session=\"3\",le=\"7\"} 4
datc_session_latency_ticks_bucket{session=\"3\",le=\"255\"} 5
datc_session_latency_ticks_bucket{session=\"3\",le=\"+Inf\"} 5
datc_session_latency_ticks_sum{session=\"3\"} 211
datc_session_latency_ticks_count{session=\"3\"} 5
";
        assert_eq!(render_prometheus(&golden_registry()), expected);
    }

    #[test]
    fn json_golden_format() {
        let expected = "\
{
  \"datc_hub_sessions_in_flight\": 2,
  \"datc_rx_frames_total\": 42,
  \"datc_rx_frames_total{session=\\\"3\\\"}\": 7,
  \"datc_session_event_rate_ewma{session=\\\"3\\\"}\": 150.25,
  \"datc_session_latency_ticks{session=\\\"3\\\"}\": {\"count\": 5, \"sum\": 211, \
\"buckets\": [{\"le\": 0, \"count\": 1}, {\"le\": 1, \"count\": 1}, \
{\"le\": 7, \"count\": 2}, {\"le\": 255, \"count\": 1}]}
}
";
        assert_eq!(render_json(&golden_registry()), expected);
    }

    #[test]
    fn empty_registry_renders_empty_documents() {
        let reg = Registry::new();
        assert_eq!(render_prometheus(&reg), "");
        assert_eq!(render_json(&reg), "{\n}\n");
    }

    #[test]
    fn rendering_is_deterministic_regardless_of_registration_order() {
        let a = Registry::new();
        a.counter("datc_b_total").add(1);
        a.gauge("datc_a").set(2.0);
        let b = Registry::new();
        b.gauge("datc_a").set(2.0);
        b.counter("datc_b_total").add(1);
        assert_eq!(render_prometheus(&a), render_prometheus(&b));
        assert_eq!(render_json(&a), render_json(&b));
    }
}
