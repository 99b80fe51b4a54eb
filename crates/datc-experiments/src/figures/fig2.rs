//! Fig. 2 — the concept figure: a framed toy sEMG thresholded three ways.
//!
//! (A) a simple sEMG burst split into frames; (B) ATC with a **high**
//! fixed `Vth` misses low-amplitude frames; (C) ATC with a **low** fixed
//! `Vth` floods on strong frames; (D) D-ATC keeps firing balanced across
//! frames; (E) each D-ATC event is a 5-symbol pattern.

use crate::report::{comparison_table, Row};
use datc_core::atc::AtcEncoder;
use datc_core::config::DatcConfig;
use datc_core::datc::DatcEncoder;
use datc_core::encoder::SpikeEncoder;
use datc_signal::generator::{ForceProfile, SemgGenerator, SemgModel};
use datc_uwb::modulator::symbolize_events;
use serde::Serialize;

/// Result of the Fig. 2 demonstration.
#[derive(Debug, Clone, Serialize)]
pub struct Fig2Result {
    /// Per-frame event counts for ATC with the high threshold (B).
    pub atc_high_per_frame: Vec<usize>,
    /// Per-frame event counts for ATC with the low threshold (C).
    pub atc_low_per_frame: Vec<usize>,
    /// Per-frame event counts for D-ATC (D).
    pub datc_per_frame: Vec<usize>,
    /// Symbols per D-ATC event (E) — 5 in the paper.
    pub symbols_per_event: usize,
}

impl Fig2Result {
    /// Coefficient of variation of per-frame counts (lower = more
    /// balanced firing — D-ATC's goal).
    pub fn balance(counts: &[usize]) -> f64 {
        let vals: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
        let m = datc_signal::stats::mean(&vals);
        if m == 0.0 {
            return f64::INFINITY;
        }
        datc_signal::stats::std_dev(&vals) / m
    }
}

/// Runs the Fig. 2 demonstration.
pub fn run() -> Fig2Result {
    let fs = 2500.0;
    // A toy signal with alternating weak and strong contractions.
    let profile = ForceProfile::builder()
        .contraction(0.15, 1.2)
        .rest(0.3)
        .contraction(0.65, 1.2)
        .rest(0.3)
        .contraction(0.25, 1.2)
        .rest(0.3)
        .contraction(0.5, 1.2)
        .rest(0.3)
        .build();
    let duration = profile.duration();
    let force = profile.samples(fs, duration);
    let semg = SemgGenerator::new(SemgModel::modulated_noise(), fs)
        .generate(&force, 2015)
        .to_scaled(0.6)
        .to_rectified();

    let frame_s = duration / 8.0;
    let count_frames = |events: &datc_core::event::EventStream| -> Vec<usize> {
        (0..8)
            .map(|i| events.count_in_window(i as f64 * frame_s, (i + 1) as f64 * frame_s))
            .collect()
    };

    let atc_high = AtcEncoder::new(0.35).encode(&semg).events;
    let atc_low = AtcEncoder::new(0.06).encode(&semg).events;
    let datc = DatcEncoder::new(DatcConfig::paper()).encode(&semg);
    let patterns = symbolize_events(&datc.events, 4);
    let symbols_per_event = patterns.first().map(|p| p.len()).unwrap_or(0);

    Fig2Result {
        atc_high_per_frame: count_frames(&atc_high),
        atc_low_per_frame: count_frames(&atc_low),
        datc_per_frame: count_frames(&datc.events),
        symbols_per_event,
    }
}

/// Text report for Fig. 2.
pub fn report() -> String {
    let r = run();
    let fmt = |v: &[usize]| {
        v.iter()
            .map(|c| format!("{c:>4}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    comparison_table(
        "Fig. 2 — constant vs dynamic thresholding (events per frame)",
        &[
            Row::new(
                "ATC high Vth (B)",
                "misses weak frames",
                fmt(&r.atc_high_per_frame),
            ),
            Row::new(
                "ATC low Vth (C)",
                "floods strong frames",
                fmt(&r.atc_low_per_frame),
            ),
            Row::new("D-ATC (D)", "balanced", fmt(&r.datc_per_frame)),
            Row::new("symbols/event (E)", "5", r.symbols_per_event.to_string()),
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn high_threshold_misses_weak_contractions() {
        let r = run();
        // the weak contraction frames should see (almost) nothing under
        // the high fixed threshold while D-ATC still fires there
        let weak_frame_atc: usize = r.atc_high_per_frame[0];
        let weak_frame_datc: usize = r.datc_per_frame[0];
        assert!(
            weak_frame_datc > 5 * weak_frame_atc.max(1),
            "atc {weak_frame_atc} datc {weak_frame_datc}"
        );
    }

    #[test]
    fn low_threshold_floods() {
        let r = run();
        let total_low: usize = r.atc_low_per_frame.iter().sum();
        let total_datc: usize = r.datc_per_frame.iter().sum();
        assert!(
            total_low as f64 > 1.5 * total_datc as f64,
            "low {total_low} datc {total_datc}"
        );
    }

    #[test]
    fn datc_firing_is_more_balanced_than_atc() {
        let r = run();
        let active = |v: &[usize]| -> Vec<usize> { v.to_vec() };
        let b_datc = Fig2Result::balance(&active(&r.datc_per_frame));
        let b_atc = Fig2Result::balance(&active(&r.atc_high_per_frame));
        assert!(b_datc < b_atc, "datc CV {b_datc} vs atc CV {b_atc}");
    }

    #[test]
    fn event_pattern_is_five_symbols() {
        assert_eq!(run().symbols_per_event, 5);
    }

    #[test]
    fn report_renders() {
        let s = report();
        assert!(s.contains("Fig. 2"));
        assert!(s.contains("D-ATC"));
    }
}
