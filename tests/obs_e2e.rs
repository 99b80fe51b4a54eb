//! Hub-level observability gates: per-session wire books must sum to
//! the hub aggregates under chaos, the migrated `HubHealth` must read
//! bit-identically through the typed view and the registry, and a real
//! instrumented hub must render a non-empty, well-formed metrics
//! snapshot (the CI metrics smoke).

use datc::core::{DatcConfig, TraceLevel};
use datc::engine::FleetRunner;
use datc::obs::{render_json, render_prometheus, MetricValue, Registry};
use datc::signal::generator::semg_fleet;
use datc::wire::obs;
use datc::wire::udp::{udp_stream_fleet, UdpTelemetryHub};
use datc::wire::{
    ChaosLink, ChaosProfile, HubConfig, RetryPolicy, SessionSender, TelemetryHub, WireStats,
};

const CHANNELS: usize = 3;
const DEAD_TIME: f64 = 25e-6;
const CHUNK: usize = 8;

fn counter(reg: &Registry, name: &str) -> u64 {
    reg.snapshot()
        .into_iter()
        .find_map(|(n, _, v)| match (n == name, v) {
            (true, MetricValue::Counter(c)) => Some(c),
            _ => None,
        })
        .unwrap_or_else(|| panic!("{name} registered"))
}

/// Satellite gate: drive several chaos sessions through one TCP hub and
/// assert the per-session `WireStats` in each `SessionReport` sum
/// exactly to `SessionTable::wire_totals()` and to the `HubHealth`
/// roll-ups — and that `HubHealth` reads bit-identically through the
/// registry counters backing it.
#[test]
fn chaos_session_stats_sum_to_hub_totals_and_health() {
    let hub = TelemetryHub::bind("127.0.0.1:0", HubConfig::default()).expect("bind loopback");
    let table = hub.session_table();
    let addr = hub.local_addr();

    let profiles = [
        ChaosProfile::ideal(),
        ChaosProfile::lossy(),
        ChaosProfile::bursty(),
        ChaosProfile::lossy(),
    ];
    for (id, profile) in profiles.iter().enumerate() {
        let config = DatcConfig::paper().with_trace_level(TraceLevel::Events);
        let signals = semg_fleet(CHANNELS, 1.5, 9000 + id as u64 * 31);
        let fleet = FleetRunner::new(config, CHANNELS)
            .expect("valid fleet")
            .encode(&signals);
        let merged = fleet.merge_aer(DEAD_TIME).merged;
        let header = datc::wire::SessionHeader::new(
            id as u32,
            CHANNELS as u16,
            fleet.channels[0].events.tick_rate_hz(),
            fleet.channels[0].events.duration_s(),
        );
        let mut tx = SessionSender::connect_with(addr, header, RetryPolicy::none())
            .expect("connect")
            .with_chaos(ChaosLink::new(0xB0B0 + id as u64, *profile));
        for chunk in merged.chunks(CHUNK) {
            tx.send_events(chunk).expect("send under chaos");
        }
        tx.finish().expect("finish under chaos");
    }

    let sessions = hub.shutdown();
    assert_eq!(sessions.len(), profiles.len(), "every session lands");

    // Per-session books sum exactly to the table aggregate.
    let mut manual = WireStats::zero();
    for s in &sessions {
        manual.merge(&s.report.stats);
    }
    assert_eq!(table.wire_totals(), manual, "sessions sum to hub totals");
    assert!(manual.events_decoded > 0, "traffic actually flowed");

    // ... and to the HubHealth roll-ups.
    let health = table.health();
    assert_eq!(health.sessions_started, profiles.len() as u64);
    assert_eq!(health.sessions_finished, profiles.len() as u64);
    assert_eq!(health.in_flight, 0);
    assert_eq!(health.events_decoded, manual.events_decoded);
    assert_eq!(health.events_lost, manual.events_lost);
    assert_eq!(health.foreign_frames, manual.foreign_frames);
    assert_eq!(
        health.decode_errors,
        manual.crc_failures + manual.malformed_frames + manual.orphan_frames
    );

    // The registry counters ARE the health tallies (same atomics), so
    // the typed view and the exporter view agree bit for bit.
    let reg = table.registry();
    assert_eq!(
        counter(reg, obs::HUB_SESSIONS_STARTED),
        health.sessions_started
    );
    assert_eq!(
        counter(reg, obs::HUB_SESSIONS_FINISHED),
        health.sessions_finished
    );
    assert_eq!(counter(reg, obs::HUB_EVENTS_DECODED), health.events_decoded);
    assert_eq!(counter(reg, obs::HUB_EVENTS_LOST), health.events_lost);
    assert_eq!(counter(reg, obs::HUB_DECODE_ERRORS), health.decode_errors);

    // Every per-session series was retired at finish: lifetime totals
    // live on in the datc_hub_* roll-ups, the registry stays bounded.
    for (name, _, _) in reg.snapshot() {
        assert!(
            !name.starts_with("datc_rx_") && !name.starts_with("datc_session_"),
            "per-session series {name} must be retired after finish"
        );
    }
}

/// The CI metrics smoke: a real instrumented UDP hub end-to-end, then
/// assert the rendered snapshot is non-empty and well-formed in both
/// exporter formats.
#[test]
fn udp_hub_renders_well_formed_metrics_snapshot() {
    let hub =
        UdpTelemetryHub::bind("127.0.0.1:0", HubConfig::default()).expect("bind loopback udp");
    let addr = hub.local_addr();
    let config = DatcConfig::paper().with_trace_level(TraceLevel::Events);
    let signals = semg_fleet(CHANNELS, 1.5, 777);
    let fleet = FleetRunner::new(config, CHANNELS)
        .expect("valid fleet")
        .encode(&signals);
    udp_stream_fleet(addr, 1, &fleet, DEAD_TIME).expect("stream");

    let registry = hub.registry();
    let sessions = hub.shutdown();
    assert_eq!(sessions.len(), 1);

    // Prometheus text: non-empty, every line either a `# TYPE` comment
    // or `name[{labels}] value` with a parseable value.
    let prom = render_prometheus(&registry);
    assert!(!prom.is_empty(), "snapshot must not be empty");
    for line in prom.lines() {
        if let Some(rest) = line.strip_prefix("# ") {
            assert!(rest.starts_with("TYPE "), "unknown comment: {line}");
            continue;
        }
        let (ident, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("sample line needs an identifier and a value: {line:?}"));
        assert!(!ident.is_empty(), "empty identifier: {line:?}");
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf",
            "unparseable value {value:?} in {line:?}"
        );
    }
    // The hub roll-ups made it out, with the finished session counted.
    assert!(prom.contains(&format!("{} 1\n", obs::HUB_SESSIONS_FINISHED)));
    assert!(prom.contains(obs::HUB_EVENTS_DECODED));
    assert!(prom.contains(obs::HUB_SESSIONS_IN_FLIGHT));

    // JSON: one flat object keyed by series identifier.
    let json = render_json(&registry);
    assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    assert!(json.contains(&format!("\"{}\": 1", obs::HUB_SESSIONS_FINISHED)));

    // And the health totals agree with the decode books, end to end.
    let health = registry_health(&registry);
    assert_eq!(health, sessions[0].report.stats.events_decoded);
}

/// Reads the decoded-events roll-up back out of a registry snapshot.
fn registry_health(reg: &Registry) -> u64 {
    counter(reg, obs::HUB_EVENTS_DECODED)
}
