//! Cross-crate integration tests: the full transmitter → link → receiver
//! pipeline assembled from the unified `SpikeEncoder` / `Link` API.

use datc::core::atc::AtcEncoder;
use datc::core::{DatcConfig, DatcEncoder, SpikeEncoder, TraceLevel};
use datc::engine::FleetRunner;
use datc::rx::pipeline::Link;
use datc::rx::{HybridReconstructor, RateReconstructor, Reconstructor};
use datc::signal::dataset::{Dataset, DatasetConfig};
use datc::signal::envelope::arv_envelope;
use datc::signal::generator::{ForceProfile, SemgGenerator, SemgModel};
use datc::uwb::aer::{demux, merge_channels};
use datc::uwb::channel::SymbolChannel;
use datc::uwb::energy::TxEnergyModel;

fn test_signal(gain: f64, seed: u64) -> datc::signal::Signal {
    let fs = 2500.0;
    let force = ForceProfile::mvc_protocol().samples(fs, 20.0);
    SemgGenerator::new(SemgModel::modulated_noise(), fs)
        .generate(&force, seed)
        .to_scaled(gain)
        .to_rectified()
}

#[test]
fn full_datc_pipeline_recovers_force() {
    let semg = test_signal(0.5, 1);
    let arv = arv_envelope(&semg, 0.25);

    let link = Link::builder()
        .encoder(DatcEncoder::new(DatcConfig::paper()))
        .channel(SymbolChannel::ideal())
        .reconstructor(HybridReconstructor::paper())
        .build();
    let (run, pct) = link.run_scored(&semg, &arv, 0.3);
    assert!(pct > 90.0, "end-to-end correlation {pct:.1}");
    assert_eq!(run.transmission.transport.dropped, 0);
}

#[test]
fn lossy_link_degrades_gracefully() {
    let semg = test_signal(0.5, 2);
    let arv = arv_envelope(&semg, 0.25);
    let encoder = DatcEncoder::new(DatcConfig::paper().with_trace_level(TraceLevel::Events));

    let mut last = 101.0f64;
    let mut scores = Vec::new();
    for p_miss in [0.0, 0.2, 0.6] {
        let link = Link::builder()
            .encoder(encoder.clone())
            .channel(SymbolChannel::new(p_miss, 0.0))
            .seed(5)
            .reconstructor(HybridReconstructor::paper())
            .build();
        let (_, pct) = link.run_scored(&semg, &arv, 0.3);
        scores.push(pct);
        last = last.min(pct);
    }
    // mild loss barely hurts; heavy loss hurts but never catastrophically
    assert!(
        scores[1] > scores[0] - 6.0,
        "20% loss dropped too much: {scores:?}"
    );
    assert!(last > 55.0, "60% loss collapsed: {scores:?}");
}

#[test]
fn symbolized_codes_roundtrip_through_patterns() {
    use datc::uwb::modulator::symbolize_events;
    let semg = test_signal(0.7, 3);
    let tx = DatcEncoder::new(DatcConfig::paper()).encode(&semg);
    let patterns = symbolize_events(&tx.events, 4);
    assert_eq!(patterns.len(), tx.events.len());
    for (ev, pat) in tx.events.iter().zip(&patterns) {
        assert_eq!(
            pat.decode_code(),
            ev.vth_code,
            "code corrupted in serialisation"
        );
    }
}

#[test]
fn multichannel_fleet_aer_preserves_per_channel_force() {
    let fs = 2500.0;
    let force_a = ForceProfile::mvc_protocol().samples(fs, 20.0);
    let force_b: Vec<f64> = force_a.iter().rev().copied().collect();
    let gen = SemgGenerator::new(SemgModel::modulated_noise(), fs);

    let signals = [
        gen.generate(&force_a, 10).to_scaled(0.5).to_rectified(),
        gen.generate(&force_b, 11).to_scaled(0.5).to_rectified(),
    ];

    let cfg = DatcConfig::paper().with_trace_level(TraceLevel::Events);
    let (_, merged) = FleetRunner::new(cfg, 2)
        .unwrap()
        .encode_merged(&signals, 5e-6);
    // the fleet's merge is the merge of one standalone encoder per channel
    let standalone: Vec<_> = signals
        .iter()
        .map(|s| DatcEncoder::new(cfg).encode(s).events)
        .collect();
    assert_eq!(merged, merge_channels(&standalone, 5e-6));
    let streams = demux(&merged.merged, 2, 2000.0, 20.0);

    let recon = HybridReconstructor::paper();
    let arv_a = arv_envelope(&signals[0], 0.25);
    let arv_b = arv_envelope(&signals[1], 0.25);
    let score_a = datc::rx::evaluate(&recon.reconstruct(&streams[0], 100.0), &arv_a, 0.3).unwrap();
    let score_b = datc::rx::evaluate(&recon.reconstruct(&streams[1], 100.0), &arv_b, 0.3).unwrap();
    assert!(score_a.percent > 85.0, "channel A {:.1}", score_a.percent);
    assert!(score_b.percent > 85.0, "channel B {:.1}", score_b.percent);
}

#[test]
fn dataset_patterns_encode_deterministically_across_crates() {
    let ds = Dataset::new(DatasetConfig::small());
    let p = ds.pattern(7);
    let a = DatcEncoder::new(DatcConfig::paper()).encode(&p.rectified());
    let b = DatcEncoder::new(DatcConfig::paper()).encode(&p.rectified());
    assert_eq!(a.events, b.events);
    assert_eq!(a.vth_code_trace, b.vth_code_trace);
}

#[test]
fn atc_and_datc_disagree_most_on_weak_signals() {
    // the architectural claim, end to end: the weaker the signal, the
    // larger D-ATC's advantage — both schemes running through the same
    // Link builder, differing only in the encoder/reconstructor slots.
    let mut gaps = Vec::new();
    for (gain, seed) in [(0.15, 21u64), (0.8, 22)] {
        let semg = test_signal(gain, seed);
        let arv = arv_envelope(&semg, 0.25);
        let atc_link = Link::builder()
            .encoder(AtcEncoder::new(0.3))
            .reconstructor(RateReconstructor::default())
            .build();
        let datc_link = Link::builder()
            .encoder(DatcEncoder::new(DatcConfig::paper()))
            .reconstructor(HybridReconstructor::paper())
            .build();
        let (_, r_atc) = atc_link.run_scored(&semg, &arv, 0.3);
        let (_, r_datc) = datc_link.run_scored(&semg, &arv, 0.3);
        gaps.push(r_datc - r_atc);
    }
    assert!(
        gaps[0] > gaps[1],
        "weak-signal advantage {:.1} should exceed strong-signal {:.1}",
        gaps[0],
        gaps[1]
    );
    assert!(gaps[0] > 3.0, "weak-signal advantage only {:.1}", gaps[0]);
}

#[test]
fn packet_baseline_composes_and_costs_more_symbols() {
    use datc::uwb::packet::PacketTx;
    let semg = test_signal(0.5, 30);
    let arv = arv_envelope(&semg, 0.25);

    let packet_link = Link::builder()
        .encoder(PacketTx::baseline())
        .energy_model(TxEnergyModel::paper_class())
        .reconstructor(RateReconstructor::default())
        .build();
    let datc_link = Link::builder()
        .encoder(DatcEncoder::new(
            DatcConfig::paper().with_trace_level(TraceLevel::Events),
        ))
        .energy_model(TxEnergyModel::paper_class())
        .reconstructor(HybridReconstructor::paper())
        .build();

    let packet_run = packet_link.run(&semg);
    let (datc_run, datc_pct) = datc_link.run_scored(&semg, &arv, 0.3);

    // the paper's headline economy: 600 000 packet symbols vs tens of
    // thousands for D-ATC, at an order of magnitude more TX power
    assert_eq!(packet_run.transmission.symbols_on_air, 600_000);
    assert!(datc_run.transmission.symbols_on_air < 60_000);
    let p_packet = packet_run.transmission.energy.unwrap().average_power_w;
    let p_datc = datc_run.transmission.energy.unwrap().average_power_w;
    assert!(
        p_packet > 5.0 * p_datc,
        "packet {p_packet} vs datc {p_datc}"
    );
    assert!(datc_pct > 85.0, "D-ATC correlation {datc_pct:.1}");
}
