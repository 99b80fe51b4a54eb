//! Workspace-level property tests: invariants that must hold for
//! arbitrary signals, event streams and bit streams.

use datc::core::atc::AtcEncoder;
use datc::core::bank::{BankEventSink, BankStream, SimdPolicy, TilePolicy};
use datc::core::comparator::Comparator;
use datc::core::config::{Arithmetic, DatcConfig, FrameSize};
use datc::core::dtc::Dtc;
use datc::core::encoder::{EventSink, SpikeEncoder, TraceLevel};
use datc::core::stream::DatcStream;
use datc::core::{DatcEncoder, Event, EventStream};
use datc::engine::FleetRunner;
use datc::rtl::verify::lockstep;
use datc::rx::{HybridReconstructor, RateReconstructor, Reconstructor};
use datc::signal::resample::ZohResampler;
use datc::signal::Signal;
use datc::uwb::aer::{demux, merge_channels};
use proptest::prelude::*;

fn arb_config() -> impl Strategy<Value = DatcConfig> {
    (
        prop_oneof![
            Just(FrameSize::F100),
            Just(FrameSize::F200),
            Just(FrameSize::F400),
            Just(FrameSize::F800),
        ],
        2u8..=6, // DAC resolution
        prop_oneof![Just(1000.0f64), Just(2000.0), Just(2500.0), Just(4000.0)],
        prop_oneof![Just(Arithmetic::Fixed), Just(Arithmetic::Float)],
        prop_oneof![
            Just(TraceLevel::Events),
            Just(TraceLevel::Frames),
            Just(TraceLevel::Full),
        ],
    )
        .prop_map(|(frame, bits, clock, arith, trace)| {
            DatcConfig::paper()
                .with_frame_size(frame)
                .with_dac_bits(bits)
                .with_clock_hz(clock)
                .with_arithmetic(arith)
                .with_trace_level(trace)
        })
}

fn arb_comparator() -> impl Strategy<Value = Comparator> {
    // ideal, offset-only, hysteresis, noise, and the full combination —
    // the populations the SoA non-ideal bank path must reproduce
    (
        -0.08f64..0.08,
        0.0f64..0.15,
        0.0f64..0.05,
        any::<u64>(),
        0u8..5,
    )
        .prop_map(|(offset, hyst, sigma, seed, kind)| match kind {
            0 => Comparator::ideal(),
            1 => Comparator::ideal().with_offset(offset),
            2 => Comparator::ideal().with_hysteresis(hyst),
            3 => Comparator::ideal().with_noise(sigma, seed),
            _ => Comparator::ideal()
                .with_offset(offset)
                .with_hysteresis(hyst)
                .with_noise(sigma, seed),
        })
}

fn arb_tiling() -> impl Strategy<Value = TilePolicy> {
    (0u8..3, 1usize..5, 1024usize..32768).prop_map(|(kind, ch, bytes)| match kind {
        0 => TilePolicy::auto(),
        1 => TilePolicy::none(),
        _ => TilePolicy {
            max_tile_channels: ch,
            target_tile_bytes: bytes,
        },
    })
}

fn arb_signal() -> impl Strategy<Value = Signal> {
    // piecewise-amplitude noise bursts, 0.5–2 s at 2.5 kHz
    (
        proptest::collection::vec(0.0f64..1.0, 2..6),
        any::<u64>(),
        1250usize..5000,
    )
        .prop_map(|(amps, seed, n)| {
            let mut g = datc::signal::noise::GaussianNoise::new(seed);
            let seg = n / amps.len().max(1);
            let data: Vec<f64> = (0..n)
                .map(|i| {
                    let a = amps[(i / seg.max(1)).min(amps.len() - 1)];
                    (a * g.standard()).abs()
                })
                .collect();
            Signal::from_samples(data, 2500.0)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn batch_tick_and_chunk_encodings_are_identical(
        config in arb_config(),
        signal in arb_signal(),
    ) {
        // The trait-level contract of the unified kernel: batch
        // `SpikeEncoder::encode`, per-tick `DatcStream::tick` and chunked
        // `DatcStream::push_chunk` see the same resampled input and
        // produce identical events, traces and duty counters.
        let batch = DatcEncoder::new(config).encode(&signal);

        // per-tick drive through the public resampler
        let zoh = ZohResampler::new(signal.sample_rate(), config.clock_hz);
        let n_ticks = zoh.ticks_for_len(signal.len());
        let last = signal.len() - 1;
        let mut by_tick = DatcStream::new(config).unwrap();
        let mut tick_events = Vec::new();
        let mut tick_codes = Vec::new();
        for k in 0..n_ticks {
            let out = by_tick.tick(signal.samples()[zoh.index(k).min(last)]);
            if let Some(e) = out.event {
                tick_events.push(e);
            }
            tick_codes.push(out.set_vth);
        }
        prop_assert_eq!(&tick_events[..], batch.events.events());
        if config.trace == TraceLevel::Full {
            prop_assert_eq!(&tick_codes[..], &batch.vth_code_trace[..]);
        }

        // chunked drive: resample explicitly, split at awkward boundaries
        let resampled: Vec<f64> = (0..n_ticks)
            .map(|k| signal.samples()[zoh.index(k).min(last)])
            .collect();
        let mut by_chunk = DatcStream::new(config).unwrap();
        let mut sink = EventSink::new(config.clock_hz);
        for chunk in resampled.chunks(257) {
            by_chunk.push_chunk(chunk, &mut sink);
        }
        prop_assert_eq!(sink.events(), batch.events.events());
        prop_assert_eq!(by_chunk.ticks(), batch.ticks);
    }

    #[test]
    fn bank_kernel_is_bit_exact_with_independent_streams(
        config in arb_config(),
        signals in proptest::collection::vec(arb_signal(), 1..5),
    ) {
        // The SoA multi-channel kernel must reproduce N independent
        // single-channel streams exactly: same events (ticks, times,
        // codes), same duty counters — for any configuration.
        let n = signals.len();
        // push_signals requires a common length; trim to the shortest.
        let len = signals.iter().map(datc::signal::Signal::len).min().unwrap();
        let signals: Vec<datc::signal::Signal> = signals
            .iter()
            .map(|s| s.slice(0, len).unwrap())
            .collect();

        let mut bank = BankStream::new(config, n).unwrap();
        let mut sink = BankEventSink::new(config.clock_hz, n);
        let bank_ticks = bank.push_signals(&signals, &mut sink);

        for (c, s) in signals.iter().enumerate() {
            let mut solo = DatcStream::new(config).unwrap();
            let mut es = EventSink::new(config.clock_hz);
            let solo_ticks = solo.push_signal(s, &mut es);
            prop_assert_eq!(solo_ticks, bank_ticks);
            prop_assert_eq!(sink.events(c), es.events(), "channel {}", c);
        }
    }

    #[test]
    fn bank_paths_are_bit_exact_with_solo_streams_under_any_comparator(
        config in arb_config(),
        signals in proptest::collection::vec(arb_signal(), 1..5),
        comparators in proptest::collection::vec(arb_comparator(), 5..6),
        tiling in arb_tiling(),
    ) {
        // The PR-5 acceptance property: SIMD and scalar kernels, any
        // tile shape, ideal AND non-ideal (offset/hysteresis/noise)
        // comparators — the bank reproduces N independent DatcStreams
        // carrying the same comparator configs bit for bit (events,
        // codes, duty counters).
        let n = signals.len();
        let len = signals.iter().map(datc::signal::Signal::len).min().unwrap();
        let signals: Vec<datc::signal::Signal> = signals
            .iter()
            .map(|s| s.slice(0, len).unwrap())
            .collect();
        let comparators = &comparators[..n];

        // reference: independent per-channel streams
        let mut solo_events = Vec::new();
        let mut solo_ones = Vec::new();
        for (s, comp) in signals.iter().zip(comparators) {
            let mut stream = DatcStream::new(config).unwrap().with_comparator(comp.clone());
            let mut count = datc::core::encoder::CountingSink::default();
            let mut probe = DatcStream::new(config).unwrap().with_comparator(comp.clone());
            let mut es = EventSink::new(config.clock_hz);
            stream.push_signal(s, &mut count);
            probe.push_signal(s, &mut es);
            solo_events.push(es.events().to_vec());
            solo_ones.push(count.ones);
        }

        for simd in [SimdPolicy::Auto, SimdPolicy::ForceScalar] {
            let mut bank = BankStream::new(config, n)
                .unwrap()
                .with_comparators(comparators)
                .unwrap()
                .with_simd_policy(simd)
                .with_tiling(tiling);
            let mut sink = BankEventSink::new(config.clock_hz, n);
            bank.push_signals(&signals, &mut sink);
            let (events, ones, _) = sink.into_parts();
            for c in 0..n {
                prop_assert_eq!(&events[c], &solo_events[c], "events ch {} {:?}", c, simd);
                prop_assert_eq!(ones[c], solo_ones[c], "ones ch {} {:?}", c, simd);
            }
        }
    }

    #[test]
    fn fleet_output_is_invariant_under_thread_count(
        signal in arb_signal(),
        channels in 1usize..7,
        threads_a in 1usize..9,
        threads_b in 1usize..9,
    ) {
        // Sharding is an execution detail: any worker count (and any
        // shard boundary placement it implies) yields identical output.
        let config = DatcConfig::paper().with_trace_level(TraceLevel::Events);
        let signals: Vec<datc::signal::Signal> = (0..channels)
            .map(|c| {
                let mut s = signal.clone();
                for v in s.samples_mut() {
                    *v *= 0.5 + 0.1 * c as f64;
                }
                s
            })
            .collect();
        let a = FleetRunner::new(config, channels).unwrap().with_threads(threads_a).encode(&signals);
        let b = FleetRunner::new(config, channels).unwrap().with_threads(threads_b).encode(&signals);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn fleet_aer_link_demuxes_to_each_standalone_encoder(
        signal in arb_signal(),
        channels in 1usize..7,
        threads in 1usize..5,
        dead_time_us in 0.0f64..50.0,
    ) {
        // N electrodes share one AER link: the fleet's merge is the merge
        // of one standalone encoder per channel, every event is either on
        // the link or booked as a collision, and with no dead time the
        // receiver's demux gives back each channel's stream exactly.
        let config = DatcConfig::paper().with_trace_level(TraceLevel::Events);
        let signals: Vec<datc::signal::Signal> = (0..channels)
            .map(|c| {
                let mut s = signal.clone();
                for v in s.samples_mut() {
                    *v *= 0.5 + 0.1 * c as f64;
                }
                s
            })
            .collect();
        let standalone: Vec<EventStream> = signals
            .iter()
            .map(|s| DatcEncoder::new(config).encode(s).events)
            .collect();
        let total: usize = standalone.iter().map(EventStream::len).sum();

        let dead_time_s = dead_time_us * 1e-6;
        let fleet = FleetRunner::new(config, channels).unwrap().with_threads(threads);
        let (out, merged) = fleet.encode_merged(&signals, dead_time_s);
        prop_assert_eq!(&merged, &merge_channels(&standalone, dead_time_s));
        prop_assert_eq!(merged.merged.len() + merged.collisions, total);

        let lossless = out.merge_aer(0.0);
        prop_assert_eq!(lossless.collisions, 0);
        let timebase = &standalone[0];
        let streams = demux(
            &lossless.merged,
            channels,
            timebase.tick_rate_hz(),
            timebase.duration_s(),
        );
        prop_assert_eq!(streams, standalone);
    }

    #[test]
    fn datc_codes_always_within_dac_range(signal in arb_signal()) {
        let out = DatcEncoder::new(DatcConfig::paper()).encode(&signal);
        prop_assert!(out.vth_code_trace.iter().all(|&c| (1..=15).contains(&c)));
        let codes_ok = out
            .events
            .iter()
            .all(|e| e.vth_code.map(|c| (1..=15).contains(&c)).unwrap_or(false));
        prop_assert!(codes_ok);
    }

    #[test]
    fn datc_events_are_strictly_ordered(signal in arb_signal()) {
        let out = DatcEncoder::new(DatcConfig::paper()).encode(&signal);
        let evs = out.events.events();
        prop_assert!(evs.windows(2).all(|w| w[0].tick < w[1].tick));
    }

    #[test]
    fn atc_event_count_bounded_by_half_samples(signal in arb_signal()) {
        // a rising edge needs at least one below-sample between events
        let ev = AtcEncoder::new(0.3).encode(&signal).events;
        prop_assert!(ev.len() <= signal.len() / 2 + 1);
    }

    #[test]
    fn atc_decays_in_the_threshold_tail(signal in arb_signal()) {
        // Crossing counts peak near v ≈ σ and decay Rice-style beyond it:
        // in the tail (thresholds above the loudest segment's RMS) higher
        // thresholds must fire less, and a threshold above the peak fires
        // never.
        let peak = signal.samples().iter().cloned().fold(0.0f64, f64::max);
        let sigma_max = datc::signal::stats::rms(signal.samples()).max(1e-6);
        let mid = AtcEncoder::new(1.5 * sigma_max).encode(&signal).events.len();
        let far = AtcEncoder::new(3.0 * sigma_max).encode(&signal).events.len();
        prop_assert!(mid + 5 >= far, "tail decay violated: {mid} vs {far}");
        let above = AtcEncoder::new(peak + 1e-9).encode(&signal).events.len();
        prop_assert_eq!(above, 0);
    }

    #[test]
    fn fixed_and_float_dtc_stay_within_one_code(
        bits in proptest::collection::vec(any::<bool>(), 500..3000),
        frame in prop_oneof![
            Just(FrameSize::F100),
            Just(FrameSize::F200),
            Just(FrameSize::F400),
            Just(FrameSize::F800),
        ],
    ) {
        let mut fx = Dtc::new(DatcConfig::paper().with_frame_size(frame)).unwrap();
        let mut fl = Dtc::new(
            DatcConfig::paper()
                .with_frame_size(frame)
                .with_arithmetic(Arithmetic::Float),
        )
        .unwrap();
        for &b in &bits {
            let a = fx.step(b);
            let c = fl.step(b);
            prop_assert!(
                (i16::from(a.set_vth) - i16::from(c.set_vth)).abs() <= 1,
                "codes diverged: {} vs {}", a.set_vth, c.set_vth
            );
        }
    }

    #[test]
    fn rtl_matches_behavioural_on_random_streams(
        bits in proptest::collection::vec(any::<bool>(), 200..1200),
    ) {
        let mismatch = lockstep(DatcConfig::paper(), bits).unwrap();
        prop_assert_eq!(mismatch, None);
    }

    #[test]
    fn reconstructions_cover_the_observation_window(
        times in proptest::collection::vec(0.0f64..10.0, 0..200),
    ) {
        let mut sorted = times;
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let events: Vec<Event> = sorted
            .iter()
            .enumerate()
            .map(|(i, &t)| Event {
                tick: (t * 2000.0) as u64 + i as u64, // keep ticks ordered
                time_s: t,
                vth_code: Some((i % 15 + 1) as u8),
            })
            .collect();
        let stream = EventStream::new(events, 2000.0, 10.0);
        for recon in [
            RateReconstructor::default().reconstruct(&stream, 50.0),
            HybridReconstructor::paper().reconstruct(&stream, 50.0),
        ] {
            prop_assert_eq!(recon.len(), 500);
            prop_assert!(recon.samples().iter().all(|v| v.is_finite() && *v >= 0.0));
        }
    }

    #[test]
    fn recruitment_is_monotone_in_excitation(
        n_units in 20usize..90,
        level in 0.2f64..0.95,
        seed in any::<u64>(),
    ) {
        // The size principle, as an invariant of the generated trains:
        // whenever a higher-threshold unit fires at all, every
        // lower-threshold unit fires too, and is recruited no later.
        use datc::signal::motor::{generate_spike_trains, MotorUnitPool, PoolParams};
        let pool = MotorUnitPool::new(PoolParams::with_units(n_units));
        let fs = 2000.0;
        // ramp up to `level` then hold — recruitment order plays out on
        // the ramp
        let n = (1.5 * fs) as usize;
        let drive: Vec<f64> = (0..n)
            .map(|k| level * (3.0 * k as f64 / n as f64).min(1.0))
            .collect();
        let trains = generate_spike_trains(&pool, &drive, fs, seed);
        for i in 1..n_units {
            let (lower, higher) = (trains.train(i - 1), trains.train(i));
            if let Some(&h_first) = higher.first() {
                let l_first = lower.first().copied();
                prop_assert!(
                    l_first.is_some_and(|l| l <= h_first),
                    "unit {} fired (first {}) while smaller unit {} had {:?}",
                    i, h_first, i - 1, l_first
                );
            }
        }
    }

    #[test]
    fn generated_force_tracks_the_target(
        n_units in 40usize..120,
        level in 0.25f64..0.85,
        seed in any::<u64>(),
    ) {
        // Open-loop drive inversion: holding a target produces that much
        // summed twitch force, for any pool size and seed.
        use datc::signal::motor::{
            generate_spike_trains, synthesize_force, FatigueModel, MotorUnitPool, PoolParams,
        };
        let pool = MotorUnitPool::new(PoolParams::with_units(n_units));
        let fs = 2000.0;
        let target = vec![level; (4.0 * fs) as usize];
        let drive = pool.excitation_drive(&target);
        let trains = generate_spike_trains(&pool, &drive, fs, seed);
        let force = synthesize_force(&pool, &trains, FatigueModel::none());
        let half = force.len() / 2;
        let mean =
            force.samples()[half..].iter().sum::<f64>() / (force.len() - half) as f64;
        prop_assert!(
            (mean - level).abs() < 0.15,
            "steady force {mean} vs target {level} ({n_units} units, seed {seed})"
        );
    }

    #[test]
    fn identical_seeds_give_bit_identical_semg(
        scenario_idx in 0usize..4,
        seed in any::<u64>(),
    ) {
        use datc::signal::motor::{MotorWorkload, WorkloadScenario};
        let scenario = WorkloadScenario::all()[scenario_idx]; // Copy
        let a = MotorWorkload::new(scenario, 2000.0).run(1.0, seed);
        let b = MotorWorkload::new(scenario, 2000.0).run(1.0, seed);
        prop_assert_eq!(a.semg.samples(), b.semg.samples());
        prop_assert_eq!(a.force.samples(), b.force.samples());
        prop_assert_eq!(a.trains.total_spikes(), b.trains.total_spikes());
    }

    #[test]
    fn crc8_detects_any_single_bit_flip(
        msg in proptest::collection::vec(any::<u8>(), 1..32),
        byte_idx in any::<prop::sample::Index>(),
        bit in 0u8..8,
    ) {
        let good = datc::uwb::crc::crc8(&msg);
        let mut bad = msg.clone();
        let idx = byte_idx.index(bad.len());
        bad[idx] ^= 1 << bit;
        prop_assert_ne!(datc::uwb::crc::crc8(&bad), good);
    }
}

/// A time-ordered coded event stream that hits the streaming
/// reconstructors' edge cases: uniform times mixed with times exactly on
/// the output grid `t_k` and on `t_k − window` (the two comparisons of
/// the sliding window), coincident events, and codes that miss the 4-bit
/// DAC (16..=19) or are absent (20). Each event keeps its schedule byte.
fn edge_case_stream(
    raw: &[(u8, f64, u32, u8, u8)],
    fs: f64,
    duration: f64,
    windows: [f64; 2],
) -> (EventStream, Vec<u8>) {
    let n_out = (duration * fs).floor() as u32;
    let mut timed: Vec<(f64, Option<u8>, u8)> = Vec::with_capacity(raw.len());
    for &(kind, u, k, code, step) in raw {
        let t_k = f64::from(k % (n_out + 1)) / fs;
        let time = match kind {
            0 | 1 => u * duration,
            2 => t_k,
            3 => (t_k - windows[(k % 2) as usize]).max(0.0),
            _ => timed.last().map_or(0.0, |&(t, _, _)| t),
        };
        timed.push((time, (code < 20).then_some(code), step));
    }
    timed.sort_by(|a, b| a.0.total_cmp(&b.0));
    let events = timed
        .iter()
        .enumerate()
        .map(|(i, &(time_s, vth_code, _))| Event {
            tick: i as u64,
            time_s,
            vth_code,
        })
        .collect();
    let schedule = timed.iter().map(|&(_, _, step)| step).collect();
    (EventStream::new(events, 2000.0, duration), schedule)
}

/// Streams `stream` through `select` as `SessionRx` does: the duration
/// cap from the header, then pushes with a watermark advance and a drain
/// wherever the schedule says, a watermark past the observation window,
/// and `finish`.
fn stream_through(
    select: &datc::rx::online::OnlineReconSelect,
    stream: &EventStream,
    schedule: &[u8],
    fs: f64,
) -> Vec<f64> {
    use datc::rx::online::OnlineReconstructor;
    let mut rx = select.build(fs);
    rx.cap_duration(stream.duration_s());
    let mut out = Vec::new();
    for (e, &step) in stream.iter().zip(schedule) {
        rx.push_coded(e.time_s, e.vth_code);
        if step & 1 == 1 {
            rx.advance_to(e.time_s);
        }
        if step & 2 == 2 {
            rx.drain_into(&mut out);
        }
    }
    rx.advance_to(stream.duration_s() + 1.0);
    rx.drain_into(&mut out);
    rx.finish(stream.duration_s());
    rx.drain_into(&mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn streaming_reconstruction_is_bit_exact_with_batch(
        fs_idx in 0usize..3,
        duration in 0.3f64..3.0,
        window in 0.05f64..0.8,
        tau in 0.05f64..0.5,
        raw in proptest::collection::vec((0u8..5, 0.0f64..1.0, 0u32..1000, 0u8..21, 0u8..4), 0..400),
    ) {
        use datc::rx::online::{OnlineReconSelect, Rate0};
        use datc::rx::windowing::{ewma_rate, sliding_rate};
        use datc::rx::ThresholdTrackReconstructor;
        let fs = [50.0, 100.0, 250.0][fs_idx];
        let (stream, schedule) = edge_case_stream(&raw, fs, duration, [window, 0.75]);
        let hybrid = HybridReconstructor::paper().reconstruct(&stream, fs);
        let pinned = match OnlineReconSelect::paper_hybrid() {
            OnlineReconSelect::Hybrid { dac, smooth_window_s, rate_window_s, alpha, .. } => {
                OnlineReconSelect::Hybrid {
                    dac,
                    smooth_window_s,
                    rate_window_s,
                    alpha,
                    rate0: Rate0::Pinned(stream.mean_rate_hz().max(f64::MIN_POSITIVE)),
                }
            }
            _ => unreachable!("paper_hybrid is a hybrid"),
        };
        let cases = [
            (OnlineReconSelect::Rate { window_s: window }, sliding_rate(&stream, window, fs)),
            (OnlineReconSelect::Ewma { tau_s: tau }, ewma_rate(&stream, tau, fs)),
            (
                OnlineReconSelect::paper_threshold_track(),
                ThresholdTrackReconstructor::paper().reconstruct(&stream, fs),
            ),
            (OnlineReconSelect::paper_hybrid(), hybrid.clone()),
            (pinned, hybrid),
        ];
        for (select, batch) in &cases {
            let online = stream_through(select, &stream, &schedule, fs);
            prop_assert_eq!(online.as_slice(), batch.samples(), "{:?}", select);
        }
    }
}
