//! Fleet-scale encoder throughput: the sharded multi-threaded
//! `FleetRunner` (SoA bank kernel) against N serial `DatcEncoder::encode`
//! calls, swept over channels × threads — plus the kernel-layer ratios
//! of PR 5: AVX2 fused gather+compare vs the scalar span kernel, cache
//! tiling vs none at 64 channels, 64-channel vs 16-channel per-sample
//! throughput, and the SoA non-ideal comparator path vs the per-channel
//! `DatcStream` fallback it replaced.
//!
//! Hand-rolled harness (plain `main`, `harness = false`) because the
//! results feed a machine-readable perf trajectory: every run rewrites
//! `BENCH_fleet.json` at the workspace root with aggregate
//! channels·samples/s for each operating point. Historical full
//! baselines are preserved as `BENCH_fleet.pr<N>.json` (see the
//! `"comment"` field) rather than overwritten.
//!
//! All headline ratios are measured **interleaved** (alternating
//! back-to-back rounds, median of per-round ratios) because the shared
//! vCPU host drifts ±20 % between independent measurements; a ratio of
//! two interleaved timings cancels the drift.
//!
//! Modes:
//! * full (default): 20 s recordings, channels {1, 4, 16, 64} × threads
//!   {1, 2, 4}, all ratios;
//! * `--quick` (CI smoke): 4 s recordings, 16 channels × threads {1, 4},
//!   the 16-channel ratios only, and the JSON is written next to the
//!   full one (same schema, flagged `"quick": true`) without clobbering
//!   a committed full baseline — quick runs write
//!   `BENCH_fleet.quick.json` instead.

use std::hint::black_box;
use std::time::Instant;

use datc_bench::timing::{interleaved_ratio, measure, median};
use datc_core::bank::{BankEventSink, BankStream, SimdPolicy, TilePolicy};
use datc_core::comparator::Comparator;
use datc_core::config::DatcConfig;
use datc_core::datc::DatcEncoder;
use datc_core::encoder::{CountingSink, EventSink, SpikeEncoder, TraceLevel};
use datc_core::stream::DatcStream;
use datc_engine::FleetRunner;
use datc_obs::Registry;
use datc_signal::generator::semg_fleet;
use datc_signal::resample::ZohResampler;
use datc_signal::Signal;

/// The mixed non-ideal comparator population the noisy-fleet
/// measurements use: offsets, hysteresis and noise in realistic analog
/// magnitudes, different per channel.
fn nonideal_comparators(n: usize) -> Vec<Comparator> {
    (0..n)
        .map(|c| match c % 4 {
            0 => Comparator::ideal().with_offset(0.010),
            1 => Comparator::ideal().with_hysteresis(0.03),
            2 => Comparator::ideal().with_noise(0.015, 101 + c as u64),
            _ => Comparator::ideal()
                .with_offset(-0.005)
                .with_hysteresis(0.02)
                .with_noise(0.010, 211 + c as u64),
        })
        .collect()
}

/// One bank encode over `signals` with the given policies, counting
/// events (the `u64` the timing harness black-boxes).
fn bank_encode(
    config: DatcConfig,
    signals: &[Signal],
    simd: SimdPolicy,
    tiling: TilePolicy,
    comparators: Option<&[Comparator]>,
) -> u64 {
    let mut bank = BankStream::new(config, signals.len())
        .unwrap()
        .with_simd_policy(simd)
        .with_tiling(tiling);
    if let Some(comps) = comparators {
        bank = bank.with_comparators(comps).unwrap();
    }
    let mut sink = BankEventSink::new(config.clock_hz, signals.len());
    bank.push_signals(signals, &mut sink);
    sink.into_parts().0.iter().map(|e| e.len() as u64).sum()
}

struct FleetPoint {
    channels: usize,
    threads: usize,
    samples_per_s: f64,
}

#[cfg(target_arch = "x86_64")]
fn simd_label() -> &'static str {
    if std::arch::is_x86_feature_detected!("avx2") {
        "avx2"
    } else if std::arch::is_x86_feature_detected!("avx") {
        "avx"
    } else {
        "scalar"
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn simd_label() -> &'static str {
    "scalar"
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (seconds, samples, target_ms) = if quick { (4.0, 2, 30) } else { (20.0, 5, 60) };
    let config = DatcConfig::paper().with_trace_level(TraceLevel::Events);

    let channel_sweep: &[usize] = if quick { &[16] } else { &[1, 4, 16, 64] };
    let thread_sweep: &[usize] = if quick { &[1, 4] } else { &[1, 2, 4] };
    let max_channels = *channel_sweep.iter().max().unwrap();

    eprintln!("generating {max_channels} x {seconds} s sEMG channels...");
    let signals = semg_fleet(max_channels, seconds, 100);
    let zoh = ZohResampler::new(signals[0].sample_rate(), config.clock_hz);
    let ticks_per_channel = zoh.ticks_for_len(signals[0].len());
    let simd_label = simd_label();
    println!("simd (runtime-detected)              {simd_label}");

    // --- single-channel chunked hot path (non-regression vs bench_chunked)
    let clocked: Vec<f64> = (0..ticks_per_channel)
        .map(|k| signals[0].samples()[zoh.index(k)])
        .collect();
    let single_chunk = measure(
        || {
            let mut stream = DatcStream::new(config).unwrap();
            let mut sink = CountingSink::default();
            stream.push_chunk(&clocked, &mut sink);
            sink.events
        },
        samples,
        target_ms,
        1 << 16,
    );
    let single_chunk_rate = ticks_per_channel as f64 / single_chunk;
    println!(
        "single-channel push_chunk            {:>12.0} samples/s",
        single_chunk_rate
    );

    // --- serial baselines: 16 independent DatcEncoder::encode calls,
    // once with the out-of-the-box configuration (full trace capture,
    // the default) and once trimmed to events-only like the fleet.
    let serial_channels = 16.min(max_channels);
    let serial_signals = &signals[..serial_channels];
    let encoder_default = DatcEncoder::new(DatcConfig::paper());
    let serial_default = measure(
        || {
            let mut events = 0u64;
            for s in serial_signals {
                events += encoder_default.encode(s).events.len() as u64;
            }
            events
        },
        samples,
        target_ms,
        1 << 16,
    );
    let serial_default_rate = (serial_channels as u64 * ticks_per_channel) as f64 / serial_default;
    println!(
        "serial encode x{serial_channels:<2} (default, full)    {:>12.0} ch*samples/s",
        serial_default_rate
    );
    let encoder = DatcEncoder::new(config);
    let serial = measure(
        || {
            let mut events = 0u64;
            for s in serial_signals {
                events += encoder.encode(s).events.len() as u64;
            }
            events
        },
        samples,
        target_ms,
        1 << 16,
    );
    let serial_rate = (serial_channels as u64 * ticks_per_channel) as f64 / serial;
    println!(
        "serial encode x{serial_channels:<2} (events only)      {:>12.0} ch*samples/s",
        serial_rate
    );

    // --- fleet sweep: channels x threads
    let mut points: Vec<FleetPoint> = Vec::new();
    for &n in channel_sweep {
        let subset = &signals[..n];
        for &threads in thread_sweep {
            if threads > n {
                continue;
            }
            let runner = FleetRunner::new(config, n).unwrap().with_threads(threads);
            let secs = measure(
                || runner.encode(subset).total_events() as u64,
                samples,
                target_ms,
                1 << 16,
            );
            let rate = (n as u64 * ticks_per_channel) as f64 / secs;
            println!(
                "fleet {n:>3} ch x {threads} threads            {:>12.0} ch*samples/s  ({:.2}x serial)",
                rate,
                rate / serial_rate
            );
            points.push(FleetPoint {
                channels: n,
                threads,
                samples_per_s: rate,
            });
        }
    }

    let rounds = if quick { 3 } else { 9 };
    // The kernel-level ratios time single encodes (a few ms each), so
    // many more alternating rounds are affordable and stabilise the
    // medians on the drifting shared host.
    let kernel_rounds = if quick { 7 } else { 25 };

    // --- headline ratio, interleaved ------------------------------------
    // Shared-tenancy hosts drift by tens of percent between measurements,
    // which poisons a ratio of two independently-timed quantities. The
    // acceptance ratio is therefore measured in back-to-back rounds —
    // serial then fleet inside each round, median of per-round ratios —
    // so frequency drift cancels.
    let fleet_16_4 = FleetRunner::new(config, serial_channels)
        .unwrap()
        .with_threads(4);
    let mut ratios_default: Vec<f64> = Vec::with_capacity(rounds);
    let mut ratios_events: Vec<f64> = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let t0 = Instant::now();
        let mut events = 0u64;
        for s in serial_signals {
            events += encoder_default.encode(s).events.len() as u64;
        }
        black_box(events);
        let serial_default_t = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let mut events = 0u64;
        for s in serial_signals {
            events += encoder.encode(s).events.len() as u64;
        }
        black_box(events);
        let serial_events_t = t1.elapsed().as_secs_f64();
        let t2 = Instant::now();
        black_box(fleet_16_4.encode(serial_signals).total_events());
        let fleet_t = t2.elapsed().as_secs_f64();
        ratios_default.push(serial_default_t / fleet_t);
        ratios_events.push(serial_events_t / fleet_t);
    }
    let speedup_16_4 = median(&mut ratios_default);
    let speedup_16_4_events = median(&mut ratios_events);
    println!(
        "fleet {serial_channels} ch / 4 threads vs serial (interleaved medians): \
         {speedup_16_4:.2}x vs default encode, {speedup_16_4_events:.2}x vs events-only encode"
    );

    // --- AVX2 fused gather+compare vs restructured scalar, interleaved --
    let (scalar_over_fused, _, _) = interleaved_ratio(
        || {
            bank_encode(
                config,
                serial_signals,
                SimdPolicy::ForceScalar,
                TilePolicy::auto(),
                None,
            )
        },
        || {
            bank_encode(
                config,
                serial_signals,
                SimdPolicy::Auto,
                TilePolicy::auto(),
                None,
            )
        },
        kernel_rounds,
    );
    println!(
        "fused gather+compare ({simd_label}) vs scalar span kernel: {scalar_over_fused:.2}x \
         (interleaved median, {serial_channels} ch)"
    );

    // --- non-ideal comparators: SoA bank vs the per-channel
    // DatcStream fallback it replaced, interleaved --------------------
    let comps = nonideal_comparators(serial_channels);
    let (streams_over_bank, _, bank_t) = interleaved_ratio(
        || {
            // the pre-PR-5 fallback: one DatcStream per channel
            let mut events = 0u64;
            for (s, comp) in serial_signals.iter().zip(&comps) {
                let mut stream = DatcStream::new(config)
                    .unwrap()
                    .with_comparator(comp.clone());
                let mut sink = EventSink::new(config.clock_hz);
                stream.push_signal(s, &mut sink);
                events += sink.events().len() as u64;
            }
            events
        },
        || {
            bank_encode(
                config,
                serial_signals,
                SimdPolicy::Auto,
                TilePolicy::auto(),
                Some(&comps),
            )
        },
        kernel_rounds,
    );
    let nonideal_rate = (serial_channels as u64 * ticks_per_channel) as f64 / bank_t;
    println!(
        "non-ideal {serial_channels} ch bank        {nonideal_rate:>12.0} ch*samples/s  \
         ({streams_over_bank:.2}x vs per-channel DatcStreams, interleaved median)"
    );

    // --- observability overhead: metrics-on vs metrics-off, sustained --
    // The same recycled sustained encoder with and without a `FleetObs`
    // publishing into a registry. Instrumentation syncs a handful of
    // relaxed atomics once per encode (never per sample), so the
    // speedup should sit at ~1.0 (acceptance: within 3 %).
    let registry = Registry::new();
    let mut sustained_off = FleetRunner::new(config, serial_channels)
        .unwrap()
        .with_threads(1)
        .sustained();
    let mut sustained_on = FleetRunner::new(config, serial_channels)
        .unwrap()
        .with_threads(1)
        .with_metrics(&registry)
        .sustained();
    black_box(sustained_off.encode(serial_signals).total_events());
    black_box(sustained_on.encode(serial_signals).total_events());
    let (metrics_speedup, _, _) = interleaved_ratio(
        || sustained_off.encode(serial_signals).total_events() as u64,
        || sustained_on.encode(serial_signals).total_events() as u64,
        kernel_rounds,
    );
    let metrics_overhead_pct = (1.0 / metrics_speedup - 1.0) * 100.0;
    println!(
        "metrics-on sustained encode: {metrics_speedup:.3}x metrics-off \
         ({metrics_overhead_pct:+.2} % overhead, interleaved median)"
    );

    // --- 64-channel measurements (full mode only) -----------------------
    let mut ratio_64_vs_16 = None;
    let mut ratio_64_vs_16_cold = None;
    let mut tiled_over_untiled = None;
    if max_channels >= 64 {
        // per-sample throughput: 64 channels vs 16, sustained — the
        // kernel and its storage recycled across encodes
        // (`BankStream::reset` + `BankEventSink::clear`), the way a
        // long-running fleet service actually operates. Cold encodes
        // re-fault several MB of event storage per call, which measures
        // the allocator, not the kernel; the sustained figure is the
        // cache-cliff acceptance number. Back-to-back rounds, median of
        // ratios.
        let sustained = |n: usize| {
            let mut bank = BankStream::new(config, n)
                .unwrap()
                .with_tiling(TilePolicy::auto());
            let mut sink = BankEventSink::new(config.clock_hz, n);
            sink.reserve_events((ticks_per_channel / 14).min(1 << 15) as usize);
            move |signals: &[Signal]| -> u64 {
                bank.reset();
                sink.clear();
                bank.push_signals(signals, &mut sink);
                sink.ticks()
            }
        };
        let mut run64 = sustained(64);
        let mut run16 = sustained(16);
        // warm both recycled kernels once before timing
        black_box(run64(&signals[..64]));
        black_box(run16(&signals[..16]));
        let (t64_over_t16, _, _) = interleaved_ratio(
            || run64(&signals[..64]),
            || run16(&signals[..16]),
            kernel_rounds,
        );
        // t64 processes 4x the channel*samples; per-sample ratio is
        // 4 / (t64/t16).
        let per_sample = 4.0 / t64_over_t16;
        ratio_64_vs_16 = Some(per_sample);
        println!(
            "64 ch vs 16 ch per-sample throughput ratio (sustained): {per_sample:.2} \
             (interleaved median; >= 1.0 means the L2 cliff is closed)"
        );

        // the cold product path for reference: FleetRunner fresh
        // allocations + output assembly per encode, single worker
        let fleet_16 = FleetRunner::new(config, 16).unwrap().with_threads(1);
        let fleet_64 = FleetRunner::new(config, 64).unwrap().with_threads(1);
        let (t64_cold, _, _) = interleaved_ratio(
            || fleet_64.encode(&signals[..64]).total_events() as u64,
            || fleet_16.encode(&signals[..16]).total_events() as u64,
            kernel_rounds,
        );
        let cold = 4.0 / t64_cold;
        ratio_64_vs_16_cold = Some(cold);
        println!(
            "64 ch vs 16 ch per-sample throughput ratio (cold encode): {cold:.2} \
             (interleaved median; allocator-bound)"
        );

        let fleet_64_untiled = FleetRunner::new(config, 64)
            .unwrap()
            .with_threads(1)
            .with_tiling(TilePolicy::none());
        let (untiled_over_tiled, _, _) = interleaved_ratio(
            || fleet_64_untiled.encode(&signals[..64]).total_events() as u64,
            || fleet_64.encode(&signals[..64]).total_events() as u64,
            kernel_rounds,
        );
        tiled_over_untiled = Some(untiled_over_tiled);
        println!(
            "cache tiling at 64 ch: {untiled_over_tiled:.2}x vs untiled \
             (interleaved median)"
        );
    }

    // --- machine-readable trajectory
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"bench_fleet\",\n");
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str(
        "  \"comment\": \"full baselines are preserved across PRs: BENCH_fleet.pr2.json is \
         the pre-fused-gather/pre-tiling artifact this PR's kernels are measured against; \
         *_ratio fields are interleaved medians (host-dependent, informational, not gated)\",\n",
    );
    json.push_str(&format!("  \"simd\": \"{simd_label}\",\n"));
    json.push_str(&format!("  \"ticks_per_channel\": {ticks_per_channel},\n"));
    json.push_str(&format!(
        "  \"single_channel_push_chunk_samples_per_s\": {:.0},\n",
        single_chunk_rate
    ));
    json.push_str(&format!(
        "  \"serial_encode_channels\": {serial_channels},\n"
    ));
    json.push_str(&format!(
        "  \"serial_encode_default_full_trace_samples_per_s\": {:.0},\n",
        serial_default_rate
    ));
    json.push_str(&format!(
        "  \"serial_encode_events_only_samples_per_s\": {:.0},\n",
        serial_rate
    ));
    json.push_str(&format!(
        "  \"fleet_{serial_channels}ch_4t_speedup_vs_serial\": {speedup_16_4:.3},\n"
    ));
    json.push_str(&format!(
        "  \"fleet_{serial_channels}ch_4t_speedup_vs_serial_events_only\": {speedup_16_4_events:.3},\n"
    ));
    json.push_str(&format!(
        "  \"fused_gather_vs_scalar_ratio\": {scalar_over_fused:.3},\n"
    ));
    json.push_str(&format!(
        "  \"nonideal_{serial_channels}ch_bank_samples_per_s\": {nonideal_rate:.0},\n"
    ));
    json.push_str(&format!(
        "  \"nonideal_bank_vs_per_channel_streams_ratio\": {streams_over_bank:.3},\n"
    ));
    json.push_str(&format!(
        "  \"sustained_encode_with_metrics_speedup\": {metrics_speedup:.4},\n"
    ));
    json.push_str(&format!(
        "  \"metrics_overhead_pct\": {metrics_overhead_pct:.3},\n"
    ));
    if let Some(r) = ratio_64_vs_16 {
        json.push_str(&format!(
            "  \"fleet_64ch_vs_16ch_per_sample_ratio\": {r:.3},\n"
        ));
    }
    if let Some(r) = ratio_64_vs_16_cold {
        json.push_str(&format!(
            "  \"fleet_64ch_vs_16ch_cold_encode_ratio\": {r:.3},\n"
        ));
    }
    if let Some(r) = tiled_over_untiled {
        json.push_str(&format!("  \"tiled_vs_untiled_64ch_ratio\": {r:.3},\n"));
    }
    json.push_str("  \"fleet\": [\n");
    for (i, p) in points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"channels\": {}, \"threads\": {}, \"samples_per_s\": {:.0}, \"speedup_vs_serial\": {:.3}}}{}\n",
            p.channels,
            p.threads,
            p.samples_per_s,
            p.samples_per_s / serial_rate,
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    let name = if quick {
        "BENCH_fleet.quick.json"
    } else {
        "BENCH_fleet.json"
    };
    let path = format!("{}/../../{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::write(&path, &json).expect("write bench json");
    println!("wrote {path}");
}
