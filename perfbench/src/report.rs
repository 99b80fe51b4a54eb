//! What one run reports: the end-to-end metrics (untraced run), the
//! per-layer metrics (traced run), the correctness checks, and the
//! final one-line JSON result.

use crate::stats::{median, SessionTimes, MIN_BEYOND, TAIL_PERCENTILE};
use crate::trace::{by_layer, coverage, Span};

/// `(name, unit)` of every end-to-end metric, in print order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("samples_per_s", "1/s"),
    ("session_p50_ms", "ms"),
    ("session_tail_ms", "ms"),
    ("delivered_pct", "%"),
    ("corr_pct", "%"),
    ("peak_rss_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric, in print order.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("engine.busy_ms", "ms"),
    ("engine.share", "%"),
    ("aer.busy_ms", "ms"),
    ("aer.events", "count"),
    ("aer.share", "%"),
    ("packet.busy_ms", "ms"),
    ("packet.frames", "count"),
    ("packet.bytes_per_event", "B/event"),
    ("packet.share", "%"),
    ("decode.busy_ms", "ms"),
    ("decode.events", "count"),
    ("decode.events_lost", "count"),
    ("decode.duplicates", "count"),
    ("decode.share", "%"),
    ("online.busy_ms", "ms"),
    ("online.force_samples", "count"),
    ("online.share", "%"),
    ("session.self_ms", "ms"),
    ("session.share", "%"),
    ("gateway.connect_ms", "ms"),
    ("gateway.send_ms", "ms"),
    ("gateway.finish_ms", "ms"),
    ("gateway.hub_wait_ms", "ms"),
    ("gateway.shed", "count"),
    ("gateway.evicted", "count"),
    ("gateway.retries", "count"),
    ("udp.send_ms", "ms"),
    ("udp.close_ms", "ms"),
    ("udp.datagrams", "count"),
    ("udp.refused", "count"),
    ("flow.drain_ms", "ms"),
    ("flow.repairs", "count"),
    ("flow.repair_yield", "ratio"),
    ("flow.throttles", "count"),
    ("flow.feedback_rx", "count"),
    ("chaos.dropped", "count"),
    ("chaos.duplicated", "count"),
    ("chaos.reordered", "count"),
    ("trace.coverage_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// Name of the root span that covers one session end to end.
pub const ROOT: &str = "e2e";

/// One correctness check; a failed check is a failed operation.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: String,
    /// Whether it held.
    pub ok: bool,
    /// Evidence, printed either way.
    pub detail: String,
}

impl Check {
    /// A check that holds when `ok`.
    pub fn new(name: impl Into<String>, ok: bool, detail: impl Into<String>) -> Check {
        Check {
            name: name.into(),
            ok,
            detail: detail.into(),
        }
    }
}

/// A check that holds when `problems` is empty; its detail is
/// `ok_detail`, or the first few problems.
pub fn no_problems(name: &str, problems: &[String], ok_detail: String) -> Check {
    let detail = if problems.is_empty() {
        ok_detail
    } else {
        problems
            .iter()
            .take(5)
            .cloned()
            .collect::<Vec<_>>()
            .join("; ")
    };
    Check::new(name, problems.is_empty(), detail)
}

/// Counts the traced run reports per layer. Session-level counts are
/// sums over the traced sessions and are reported per session; the
/// `chaos_*` counts cover a fixed prefix of sessions so that two
/// commits compare on the identical fault schedule.
#[derive(Debug, Default, Clone)]
pub struct LayerCounts {
    /// Sessions the counts below cover.
    pub sessions: u64,
    /// Events merged onto the AER link.
    pub aer_events: u64,
    /// Frames the packetizer emitted.
    pub packet_frames: u64,
    /// Wire bytes the packetizer emitted.
    pub packet_bytes: u64,
    /// Events the packetizer framed.
    pub packet_events: u64,
    /// Events decoded at the receiver.
    pub decode_events: u64,
    /// Events the receiver booked lost.
    pub decode_lost: u64,
    /// DATA frames the receiver dropped as duplicates.
    pub decode_duplicates: u64,
    /// Force samples reconstructed.
    pub force_samples: u64,
    /// Connections the hub shed (run total).
    pub gateway_shed: u64,
    /// Sessions the hub evicted (run total).
    pub gateway_evicted: u64,
    /// Sender retries (run total).
    pub gateway_retries: u64,
    /// Datagrams put on the wire.
    pub udp_datagrams: u64,
    /// Datagrams the hub refused (run total).
    pub udp_refused: u64,
    /// Repair frames resent.
    pub flow_repairs: u64,
    /// Events resent by repairs.
    pub flow_resent_events: u64,
    /// Events the chaos link dropped that repairs won back.
    pub flow_recovered: u64,
    /// AIMD throttle steps.
    pub flow_throttles: u64,
    /// FEEDBACK reports the sender accepted.
    pub flow_feedback_rx: u64,
    /// Sessions the chaos counts cover.
    pub chaos_sessions: u64,
    /// Units the chaos link dropped.
    pub chaos_dropped: u64,
    /// Units the chaos link duplicated.
    pub chaos_duplicated: u64,
    /// Units the chaos link reordered.
    pub chaos_reordered: u64,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Seconds taken by each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Per-session times of the measured phase.
    pub times: SessionTimes,
    /// sEMG input samples of the sessions whose reconstruction completed.
    pub samples: u64,
    /// Wall seconds of the measured phase.
    pub measured_s: f64,
    /// Events the senders put on the link.
    pub events_sent: u64,
    /// Events the receivers decoded.
    pub events_decoded: u64,
    /// Mean correlation against the ground-truth force, %.
    pub corr_pct: f64,
    /// Run-level correctness checks.
    pub checks: Vec<Check>,
    /// Traced run only: the spans and the per-layer counts.
    pub traced: Option<Traced>,
}

/// The traced run's raw material.
#[derive(Debug, Default)]
pub struct Traced {
    /// Every span of the traced phase.
    pub spans: Vec<Span>,
    /// Layer counts of the traced phase.
    pub counts: LayerCounts,
    /// Median session time of the untraced phase, ms.
    pub untraced_p50_ms: f64,
    /// Median session time of the traced phase, ms.
    pub traced_p50_ms: f64,
}

/// A metric as printed: name, value (absent when it could not be
/// measured), unit and the sample count it rests on.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Value; `None` prints as JSON `null`.
    pub value: Option<f64>,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value, with what they count.
    pub samples: String,
}

/// Peak resident set size of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

fn fmt_ms(v: Option<f64>) -> String {
    v.map_or("-".to_string(), |v| format!("{v:.3}"))
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(o: &Outcome) -> Vec<Metric> {
    let n = o.times.attempted();
    let sessions = format!("{n} sessions");
    let tail = o.times.tail();
    let unit = |name: &str| {
        END_TO_END
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, u)| *u)
            .expect("known metric")
    };
    let m = |name: &'static str, value: Option<f64>, samples: String| Metric {
        name,
        value,
        unit: unit(name),
        samples,
    };
    vec![
        m(
            "setup_s",
            (!o.setup_s.is_empty()).then(|| median(&o.setup_s)),
            format!(
                "median of {} set-ups: {}",
                o.setup_s.len(),
                o.setup_s
                    .iter()
                    .map(|s| format!("{s:.3}"))
                    .collect::<Vec<_>>()
                    .join(" ")
            ),
        ),
        m(
            "samples_per_s",
            (o.measured_s > 0.0).then(|| o.samples as f64 / o.measured_s),
            format!("{} samples over {:.3} s", o.samples, o.measured_s),
        ),
        m("session_p50_ms", o.times.p50(), sessions.clone()),
        m(
            "session_tail_ms",
            tail.and_then(|t| t.value_ms),
            match tail {
                Some(t) => format!(
                    "p{TAIL_PERCENTILE} of {n} sessions, {} beyond; for reference p99 {}, p99.9 {}",
                    t.beyond,
                    fmt_ms(o.times.percentile(99.0)),
                    fmt_ms(o.times.percentile(99.9)),
                ),
                None => format!(
                    "omitted: {n} sessions leave fewer than {MIN_BEYOND} beyond p{TAIL_PERCENTILE}"
                ),
            },
        ),
        m(
            "delivered_pct",
            (o.events_sent > 0).then(|| o.events_decoded as f64 / o.events_sent as f64 * 100.0),
            format!("{} of {} events", o.events_decoded, o.events_sent),
        ),
        m("corr_pct", Some(o.corr_pct), sessions),
        m("peak_rss_mb", peak_rss_mb(), "VmHWM".to_string()),
    ]
}

/// The per-layer metrics of a traced run.
pub fn per_layer(t: &Traced) -> Vec<Metric> {
    let layers = by_layer(&t.spans);
    let c = &t.counts;
    let sessions = c.sessions.max(1) as f64;
    let root_ns = layers.get(ROOT).map_or(0, |l| l.total_ns) as f64;
    let self_ms = |name: &str| layers.get(name).map_or(0.0, |l| l.self_ns as f64) / sessions / 1e6;
    let share = |name: &str| {
        let s = layers.get(name).map_or(0.0, |l| l.self_ns as f64);
        if root_ns > 0.0 {
            s / root_ns * 100.0
        } else {
            0.0
        }
    };
    let span_ms = |name: &str| {
        layers
            .get(name)
            .filter(|l| l.count > 0)
            .map_or(0.0, |l| l.total_ns as f64 / l.count as f64 / 1e6)
    };
    let per = |v: u64| v as f64 / sessions;
    let ratio = |a: u64, b: u64| if b > 0 { a as f64 / b as f64 } else { 0.0 };
    let chaos = |v: u64| v as f64 / c.chaos_sessions.max(1) as f64;
    let cov = coverage(&t.spans, ROOT);
    let value = |name: &str| -> f64 {
        match name {
            "engine.busy_ms" => self_ms("engine"),
            "engine.share" => share("engine"),
            "aer.busy_ms" => self_ms("aer"),
            "aer.events" => per(c.aer_events),
            "aer.share" => share("aer"),
            "packet.busy_ms" => self_ms("packet"),
            "packet.frames" => per(c.packet_frames),
            "packet.bytes_per_event" => ratio(c.packet_bytes, c.packet_events),
            "packet.share" => share("packet"),
            "decode.busy_ms" => self_ms("decode"),
            "decode.events" => per(c.decode_events),
            "decode.events_lost" => per(c.decode_lost),
            "decode.duplicates" => per(c.decode_duplicates),
            "decode.share" => share("decode"),
            "online.busy_ms" => self_ms("online"),
            "online.force_samples" => per(c.force_samples),
            "online.share" => share("online"),
            "session.self_ms" => self_ms("session"),
            "session.share" => share("session"),
            "gateway.connect_ms" => span_ms("gateway.connect"),
            "gateway.send_ms" => span_ms("gateway.send"),
            "gateway.finish_ms" => span_ms("gateway.finish"),
            "gateway.hub_wait_ms" => span_ms("gateway.hub_wait"),
            "gateway.shed" => c.gateway_shed as f64,
            "gateway.evicted" => c.gateway_evicted as f64,
            "gateway.retries" => c.gateway_retries as f64,
            "udp.send_ms" => span_ms("udp.send"),
            "udp.close_ms" => span_ms("udp.close"),
            "udp.datagrams" => per(c.udp_datagrams),
            "udp.refused" => c.udp_refused as f64,
            "flow.drain_ms" => span_ms("flow.drain"),
            "flow.repairs" => per(c.flow_repairs),
            "flow.repair_yield" => ratio(c.flow_recovered, c.flow_resent_events),
            "flow.throttles" => per(c.flow_throttles),
            "flow.feedback_rx" => per(c.flow_feedback_rx),
            "chaos.dropped" => chaos(c.chaos_dropped),
            "chaos.duplicated" => chaos(c.chaos_duplicated),
            "chaos.reordered" => chaos(c.chaos_reordered),
            "trace.coverage_pct" => {
                if cov.is_empty() {
                    0.0
                } else {
                    median(&cov) * 100.0
                }
            }
            "trace.overhead_pct" => {
                if t.untraced_p50_ms > 0.0 {
                    (t.traced_p50_ms / t.untraced_p50_ms - 1.0) * 100.0
                } else {
                    0.0
                }
            }
            other => unreachable!("no rule for per-layer metric {other}"),
        }
    };
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            value: Some(value(name)),
            unit,
            samples: if name.starts_with("chaos.") {
                format!("mean of the first {} sessions", c.chaos_sessions)
            } else {
                format!("{} traced sessions", c.sessions)
            },
        })
        .collect()
}

/// Prints the human-readable report and, as the last line, the JSON
/// result. A failed check counts as one failed operation.
pub fn print(workload: &str, o: &Outcome, metrics: &[Metric]) {
    println!("workload {workload}");
    for c in &o.checks {
        let mark = if c.ok { "ok  " } else { "FAIL" };
        println!("  check {mark} {:<34} {}", c.name, c.detail);
    }
    for m in metrics {
        let v = m.value.map_or("null".to_string(), |v| format!("{v:.4}"));
        println!("  {:<24} {:>16} {:<8} ({})", m.name, v, m.unit, m.samples);
    }
    let failed_checks = o.checks.iter().filter(|c| !c.ok).count();
    let attempted = o.times.attempted() + o.checks.len();
    let failed = o.times.failures() + failed_checks;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = m
                .value
                .filter(|v| v.is_finite())
                .map_or("null".to_string(), |v| format!("{v:?}"));
            format!("\"{}\":{{\"value\":{v},\"unit\":\"{}\"}}", m.name, m.unit)
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0 && attempted > 0,
        body.join(",")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pulls every `"name": "..."` inside one top-level array of
    /// BENCHMARK.json (the file is small and flat, so a scan suffices).
    fn declared(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let end = body.find(']').expect("section closes");
        body[..end]
            .split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_metrics_the_program_prints() {
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        let layers: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(declared("end_to_end"), e2e);
        assert_eq!(declared("per_layer"), layers);
    }

    #[test]
    fn every_per_layer_metric_has_a_rule() {
        let traced = Traced::default();
        assert_eq!(per_layer(&traced).len(), PER_LAYER.len());
    }

    #[test]
    fn end_to_end_reports_every_metric_with_its_unit() {
        let mut o = Outcome {
            setup_s: vec![0.5, 0.4, 0.6],
            samples: 1000,
            measured_s: 2.0,
            events_sent: 10,
            events_decoded: 9,
            corr_pct: 95.0,
            ..Outcome::default()
        };
        for i in 0..200 {
            o.times.done(f64::from(i));
        }
        let m = end_to_end(&o);
        let names: Vec<&str> = m.iter().map(|m| m.name).collect();
        assert_eq!(names, END_TO_END.map(|(n, _)| n));
        assert_eq!(m[0].value, Some(0.5));
        assert_eq!(m[1].value, Some(500.0));
        assert_eq!(m[4].value, Some(90.0));
        assert_eq!(m[3].value, Some(179.0));
        assert!(m[3].samples.starts_with("p90 of 200 sessions, 20 beyond"));
    }
}
