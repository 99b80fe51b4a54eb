//! Physiological workload traffic: event-rate burstiness of the
//! Fuglevand motor-pool scenarios (`datc_signal::motor`) against the
//! stationary filtered-noise baseline, plus encode throughput on motor
//! traffic and the sustained-vs-cold `FleetEncoder` recycling win.
//!
//! The D-ATC link budget in the paper assumes sEMG-shaped traffic; the
//! motor scenarios stress the opposite regime — rest-dominated ballistic
//! bursts, fatigue-compensating drives, tracking oscillations — so the
//! numbers that matter here are *traffic shape*, not just throughput:
//! per-window event-rate coefficient of variation (CoV) and
//! peak-to-mean rate per scenario, against a constant-force
//! modulated-noise fleet whose rate is flat by construction.
//!
//! Hand-rolled harness (plain `main`, `harness = false`) like
//! `bench_fleet`: every run rewrites `BENCH_workload.json` (or
//! `BENCH_workload.quick.json` with `--quick`) at the workspace root.
//! Per-scenario `*_events_per_s` keys are **deterministic** (seeded
//! generators, deterministic encoder) and sit in the regression gate;
//! the CoV / peak-to-mean keys are deterministic too but describe the
//! workload rather than the implementation, so they are named outside
//! the gated `*_per_s` / `*speedup*` / `bytes_per_event*` patterns.
//! `motor_encode_samples_per_s` is the one host-dependent gated figure,
//! mirroring the fleet bench's throughput keys.

use std::hint::black_box;

use datc_bench::timing::{interleaved_ratio, measure};
use datc_core::config::DatcConfig;
use datc_core::encoder::TraceLevel;
use datc_engine::{FleetOutput, FleetRunner};
use datc_signal::generator::{ForceProfile, SemgGenerator, SemgModel};
use datc_signal::motor::{motor_fleet, WorkloadScenario};
use datc_signal::resample::ZohResampler;
use datc_signal::Signal;

/// The stationary filtered-noise reference fleet: constant 40 % MVC
/// through the modulated-noise sEMG model, same 2.5 kHz / subject-gain
/// spread / rectification as [`motor_fleet`], so any CoV difference is
/// traffic shape, not preprocessing.
fn stationary_fleet(channels: usize, seconds: f64, base_seed: u64) -> Vec<Signal> {
    let fs = 2500.0;
    let force = ForceProfile::builder()
        .hold(0.4, seconds)
        .build()
        .samples(fs, seconds);
    (0..channels)
        .map(|c| {
            SemgGenerator::new(SemgModel::modulated_noise(), fs)
                .generate(&force, base_seed + c as u64)
                .to_scaled(0.3 + 0.3 * (c as f64 / channels.max(1) as f64))
                .to_rectified()
        })
        .collect()
}

/// Fleet-aggregate event-rate statistics over fixed windows: events per
/// second, per-window rate CoV (population std / mean) and peak-to-mean
/// window rate.
struct RateStats {
    events_per_s: f64,
    cov: f64,
    peak_to_mean: f64,
}

fn rate_stats(out: &FleetOutput, seconds: f64, window_s: f64) -> RateStats {
    let n_bins = ((seconds / window_s).round() as usize).max(1);
    let mut bins = vec![0u64; n_bins];
    for ch in &out.channels {
        for e in ch.events.iter() {
            let bin = ((e.time_s / window_s) as usize).min(n_bins - 1);
            bins[bin] += 1;
        }
    }
    let total: u64 = bins.iter().sum();
    let mean = total as f64 / n_bins as f64;
    let var = bins.iter().map(|&b| (b as f64 - mean).powi(2)).sum::<f64>() / n_bins as f64;
    let peak = bins.iter().copied().max().unwrap_or(0) as f64;
    RateStats {
        events_per_s: total as f64 / seconds,
        cov: if mean > 0.0 { var.sqrt() / mean } else { 0.0 },
        peak_to_mean: if mean > 0.0 { peak / mean } else { 0.0 },
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (seconds, samples, target_ms) = if quick { (4.0, 2, 30) } else { (20.0, 5, 60) };
    let rounds = if quick { 7 } else { 25 };
    let channels = 8;
    let window_s = 0.25;
    let config = DatcConfig::paper().with_trace_level(TraceLevel::Events);
    let runner = FleetRunner::new(config, channels).unwrap().with_threads(4);

    eprintln!("generating stationary {channels} x {seconds} s filtered-noise baseline...");
    let stationary = stationary_fleet(channels, seconds, 100);
    let zoh = ZohResampler::new(stationary[0].sample_rate(), config.clock_hz);
    let ticks_per_channel = zoh.ticks_for_len(stationary[0].len());
    let base = rate_stats(&runner.encode(&stationary), seconds, window_s);
    println!(
        "{:<16} {:>10.0} events/s  cov {:>5.3}  peak/mean {:>5.2}",
        "stationary", base.events_per_s, base.cov, base.peak_to_mean
    );

    // --- traffic shape per motor scenario -------------------------------
    let mut rows: Vec<(&'static str, RateStats, f64)> = Vec::new();
    let mut ballistic_signals: Option<Vec<Signal>> = None;
    for scenario in WorkloadScenario::all() {
        eprintln!(
            "generating {} {channels} x {seconds} s motor fleet...",
            scenario.name()
        );
        let signals = motor_fleet(scenario, channels, seconds, 700);
        let stats = rate_stats(&runner.encode(&signals), seconds, window_s);
        let cov_ratio = if base.cov > 0.0 {
            stats.cov / base.cov
        } else {
            0.0
        };
        println!(
            "{:<16} {:>10.0} events/s  cov {:>5.3}  peak/mean {:>5.2}  ({:.1}x stationary cov)",
            scenario.name(),
            stats.events_per_s,
            stats.cov,
            stats.peak_to_mean,
            cov_ratio
        );
        if scenario.name() == "ballistic" {
            ballistic_signals = Some(signals);
        }
        rows.push((scenario.name(), stats, cov_ratio));
    }
    let max_cov_ratio = rows.iter().map(|r| r.2).fold(0.0_f64, f64::max);
    println!("max scenario cov / stationary cov: {max_cov_ratio:.2} (acceptance floor: 2.0)");

    // --- encode throughput on bursty motor traffic ----------------------
    let ballistic = ballistic_signals.expect("ballistic is in WorkloadScenario::all()");
    let encode_secs = measure(
        || runner.encode(&ballistic).total_events() as u64,
        samples,
        target_ms,
        1 << 16,
    );
    let encode_rate = (channels as u64 * ticks_per_channel) as f64 / encode_secs;
    println!(
        "motor encode {channels} ch x 4 threads      {:>12.0} ch*samples/s",
        encode_rate
    );

    // --- cold FleetRunner::encode vs recycled FleetEncoder --------------
    // The sustained encoder keeps the shard kernels alive across
    // encodes; its output is bit-identical, so this ratio is the cost of
    // building them. Interleaved medians cancel host drift.
    let mut sustained = runner.sustained();
    black_box(sustained.encode(&ballistic).total_events());
    let (cold_vs_sustained, _, _) = interleaved_ratio(
        || runner.encode(&ballistic).total_events() as u64,
        || sustained.encode(&ballistic).total_events() as u64,
        rounds,
    );
    println!(
        "cold encode vs sustained FleetEncoder: {cold_vs_sustained:.2}x \
         (interleaved median; > 1.0 means recycling wins)"
    );

    // --- machine-readable trajectory ------------------------------------
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"bench_workload\",\n");
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(
        "  \"comment\": \"*_events_per_s keys are deterministic (seeded) and gated; \
         *_rate_cov / *_peak_to_mean / *cov_vs_stationary* describe traffic shape and are \
         intentionally outside the gated key patterns; motor_encode_samples_per_s and the \
         cold-vs-sustained ratio are host-dependent\",\n",
    );
    json.push_str(&format!("  \"channels\": {channels},\n"));
    json.push_str(&format!("  \"window_s\": {window_s},\n"));
    json.push_str(&format!(
        "  \"stationary_events_per_s\": {:.1},\n",
        base.events_per_s
    ));
    json.push_str(&format!("  \"stationary_rate_cov\": {:.4},\n", base.cov));
    json.push_str(&format!(
        "  \"stationary_peak_to_mean\": {:.3},\n",
        base.peak_to_mean
    ));
    for (name, stats, cov_ratio) in &rows {
        json.push_str(&format!(
            "  \"{name}_events_per_s\": {:.1},\n",
            stats.events_per_s
        ));
        json.push_str(&format!("  \"{name}_rate_cov\": {:.4},\n", stats.cov));
        json.push_str(&format!(
            "  \"{name}_peak_to_mean\": {:.3},\n",
            stats.peak_to_mean
        ));
        json.push_str(&format!(
            "  \"{name}_cov_vs_stationary\": {cov_ratio:.3},\n"
        ));
    }
    json.push_str(&format!(
        "  \"max_scenario_cov_over_stationary\": {max_cov_ratio:.3},\n"
    ));
    json.push_str(&format!(
        "  \"motor_encode_samples_per_s\": {encode_rate:.0},\n"
    ));
    json.push_str(&format!(
        "  \"cold_vs_sustained_encode_ratio\": {cold_vs_sustained:.3}\n"
    ));
    json.push_str("}\n");

    let name = if quick {
        "BENCH_workload.quick.json"
    } else {
        "BENCH_workload.json"
    };
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(&path, &json).expect("write bench json");
    println!("wrote {path}");
}
