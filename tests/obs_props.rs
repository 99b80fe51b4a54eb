//! Telemetry reconciliation properties: for arbitrary chaos seeds and
//! fault mixes, the metrics registry must agree *exactly* with the
//! ground truth the rest of the system keeps — the chaos fate log, the
//! decoder's `WireStats` books, and the hub's `HubHealth` roll-ups.
//! Observability that drifts from the books is worse than none.
//!
//! Also pins the determinism claim: the tick-domain latency histograms
//! (and every other series) are a pure function of the
//! delivered byte stream, so two identical chaos runs render
//! byte-identical Prometheus snapshots.

use datc::core::Event;
use datc::obs::{render_prometheus, MetricValue, Registry};
use datc::uwb::aer::AddressedEvent;
use datc::wire::obs::{self, SessionObs};
use datc::wire::{
    ChaosLink, ChaosProfile, ChaosStats, HubSession, Packetizer, SessionHeader, SessionReport,
    SessionRx, SessionRxConfig, SessionTable,
};
use proptest::prelude::*;

/// Arbitrary fault mixes: the named profiles plus free-form blends of
/// drop / duplicate / reorder / corrupt / truncate (probability sum
/// kept well under the model's budget of 1).
fn arb_profile() -> impl Strategy<Value = ChaosProfile> {
    (
        (0u8..5, 1u32..6),
        (
            0.0f64..0.2,
            0.0f64..0.1,
            0.0f64..0.2,
            0.0f64..0.05,
            0.0f64..0.05,
        ),
    )
        .prop_map(
            |((kind, span), (drop, duplicate, reorder, corrupt, truncate))| match kind {
                0 => ChaosProfile::ideal(),
                1 => ChaosProfile::lossy(),
                2 => ChaosProfile::bursty(),
                3 => ChaosProfile::mangler(),
                _ => ChaosProfile {
                    name: "blend",
                    drop,
                    duplicate,
                    reorder,
                    reorder_span: span,
                    corrupt,
                    truncate,
                    ..ChaosProfile::ideal()
                },
            },
        )
}

struct SessionRun {
    report: SessionReport,
    chaos: ChaosStats,
    bytes_received: u64,
    registry: Registry,
}

/// One full tx → chaos → instrumented rx pass, pure in its arguments.
fn run_session(
    seed: u64,
    profile: ChaosProfile,
    n_events: usize,
    channels: u8,
    events_per_frame: usize,
) -> SessionRun {
    let tick_rate = 2000.0;
    let duration = (n_events as f64 * 13.0 + 2.0) / tick_rate;
    let header = SessionHeader::new(42, channels.into(), tick_rate, duration);
    let events: Vec<AddressedEvent> = (0..n_events)
        .map(|i| AddressedEvent {
            channel: (i % channels as usize) as u8,
            event: Event::at_tick(i as u64 * 13 + 1, header.tick_period_s, Some(5)),
        })
        .collect();

    let mut tx = Packetizer::new(header).with_events_per_frame(events_per_frame);
    let mut units: Vec<Vec<u8>> = vec![tx.hello()];
    units.extend(tx.data_frames(&events));
    units.push(tx.bye());

    let mut link = ChaosLink::new(seed, profile);
    let mut delivered: Vec<Vec<u8>> = Vec::new();
    for unit in &units {
        link.push(unit, &mut delivered);
    }
    link.flush(&mut delivered);

    let registry = Registry::new();
    let mut rx = SessionRx::new(SessionRxConfig::default())
        .with_metrics(SessionObs::register(&registry, "p"));
    let mut bytes_received = 0u64;
    for unit in &delivered {
        bytes_received += unit.len() as u64;
        rx.push_bytes(unit);
    }
    SessionRun {
        report: rx.finish(),
        chaos: link.stats(),
        bytes_received,
        registry,
    }
}

fn counter(reg: &Registry, name: &str) -> u64 {
    reg.snapshot()
        .into_iter()
        .find_map(|(n, labels, v)| match (n == name, v) {
            (true, MetricValue::Counter(c)) => {
                assert_eq!(labels, "session=\"p\"", "{name} carries the session label");
                Some(c)
            }
            _ => None,
        })
        .unwrap_or_else(|| panic!("{name} registered"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The chaos fate log self-reconciles, the per-session registry
    /// counters equal the decoder's books field for field, and feeding
    /// the finished session to a hub table reproduces both in the
    /// `HubHealth` roll-ups and the `wire_totals` aggregate.
    #[test]
    fn registry_reconciles_with_chaos_books_and_hub_health(
        seed in any::<u64>(),
        profile in arb_profile(),
        n_events in 40usize..300,
        channels in 1u8..5,
        events_per_frame in 4usize..32,
    ) {
        let run = run_session(seed, profile, n_events, channels, events_per_frame);
        let c = run.chaos;

        // The chaos link's own books balance once flushed.
        prop_assert_eq!(
            c.delivered, c.units - c.dropped + c.duplicated,
            "fate log reconciles (seed {:#x})", seed
        );
        prop_assert_eq!(c.units, (2 + n_events.div_ceil(events_per_frame)) as u64);

        // Every per-session counter equals the decoder's book verbatim.
        let s = &run.report.stats;
        let reg = &run.registry;
        prop_assert_eq!(counter(reg, obs::RX_FRAMES), s.frames);
        prop_assert_eq!(counter(reg, obs::RX_DUPLICATE_FRAMES), s.duplicate_frames);
        prop_assert_eq!(counter(reg, obs::RX_CRC_FAILURES), s.crc_failures);
        prop_assert_eq!(counter(reg, obs::RX_RESYNC_BYTES), s.resync_bytes);
        prop_assert_eq!(counter(reg, obs::RX_MALFORMED_FRAMES), s.malformed_frames);
        prop_assert_eq!(counter(reg, obs::RX_ORPHAN_FRAMES), s.orphan_frames);
        prop_assert_eq!(counter(reg, obs::RX_EVENTS_DECODED), s.events_decoded);
        prop_assert_eq!(counter(reg, obs::RX_EVENTS_LOST), s.events_lost);
        prop_assert_eq!(counter(reg, obs::RX_GAPS), s.gaps);

        // On a byte-exact link the wire books also reconcile with the
        // fate log: every event was either decoded or booked lost, and
        // frame arrivals match delivered units (duplicates included).
        if profile.is_byte_exact() && s.closed {
            prop_assert_eq!(
                s.events_decoded + s.events_lost, n_events as u64,
                "decoded + lost == sent (seed {:#x})", seed
            );
            // `frames` counts every CRC-valid arrival, duplicate DATA
            // copies included (they are additionally booked under
            // `duplicate_frames`), so it matches delivered units 1:1.
            prop_assert_eq!(
                s.frames, c.delivered,
                "every delivered unit is booked (seed {:#x})", seed
            );
        }

        // Hub roll-ups: inserting the finished session reproduces the
        // same numbers through HubHealth and wire_totals.
        let table = SessionTable::shared();
        let session_id = run.report.header.map_or(0, |h| h.session_id);
        table.insert(0, HubSession {
            session_id,
            bytes_received: run.bytes_received,
            report: run.report.clone(),
        });
        let health = table.health();
        prop_assert_eq!(health.sessions_finished, 1);
        prop_assert_eq!(health.events_decoded, s.events_decoded);
        prop_assert_eq!(health.events_lost, s.events_lost);
        prop_assert_eq!(health.foreign_frames, s.foreign_frames);
        prop_assert_eq!(
            health.decode_errors,
            s.crc_failures + s.malformed_frames + s.orphan_frames
        );
        prop_assert_eq!(&table.wire_totals(), s, "single-session aggregate is the session");
    }

    /// Same seed, same profile → byte-identical rendered snapshot:
    /// the latency histograms (and everything else deterministic) are
    /// pure functions of the delivered byte stream.
    #[test]
    fn snapshots_are_bit_reproducible_per_seed(
        seed in any::<u64>(),
        profile in arb_profile(),
        n_events in 40usize..200,
    ) {
        let a = run_session(seed, profile, n_events, 3, 16);
        let b = run_session(seed, profile, n_events, 3, 16);
        prop_assert_eq!(
            render_prometheus(&a.registry),
            render_prometheus(&b.registry),
            "snapshot must replay bit-for-bit (seed {:#x})", seed
        );
    }
}
