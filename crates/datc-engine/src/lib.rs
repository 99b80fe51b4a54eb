//! # datc-engine — fleet-scale multi-channel D-ATC encoding
//!
//! The paper's point is that D-ATC is cheap enough to run per electrode
//! at scale; this crate is the scale. [`FleetRunner`] encodes N channels
//! by sharding them over `std::thread` workers, each worker driving one
//! struct-of-arrays [`BankStream`] kernel
//! over its contiguous slice of channels, and reassembling per-channel
//! outputs in channel order. No dependencies beyond the workspace.
//!
//! ## Guarantees
//!
//! * **Bit-exact**: every channel's events, duty counters and threshold
//!   trajectory are identical to a standalone
//!   [`DatcEncoder::encode`](datc_core::DatcEncoder) of that channel's
//!   signal (at [`TraceLevel::Events`](datc_core::TraceLevel)) — and
//!   with [`with_comparators`](FleetRunner::with_comparators), to a
//!   standalone encoder carrying the same offset/hysteresis/noise
//!   comparator model. Non-ideal fleets run through the same SoA bank
//!   kernels; there is no per-channel slow path.
//! * **Deterministic sharding**: the output is independent of the thread
//!   count, of where shard boundaries fall, and of the cache-tiling and
//!   SIMD policies — channels never interact during encoding; they only
//!   meet in the (ordered, deterministic) AER merge.
//!
//! ## Throughput
//!
//! The hot loop is the SoA bank kernel: one comparator compare, one
//! counter add and one LUT-refreshed threshold voltage per channel per
//! tick, with the frame countdown and interval ROM shared across the
//! shard. Measured numbers (channels·samples/s, sweep over channels ×
//! threads) are written to `BENCH_fleet.json` by the `bench_fleet`
//! benchmark in `datc-bench`.
//!
//! ## Example
//!
//! ```
//! use datc_core::{DatcConfig, TraceLevel};
//! use datc_engine::FleetRunner;
//! use datc_signal::Signal;
//!
//! let signals: Vec<Signal> = (0..8)
//!     .map(|c| {
//!         Signal::from_fn(2500.0, 1.0, move |t| {
//!             ((t * (40.0 + c as f64 * 7.0)).sin()).abs() * 0.5
//!         })
//!     })
//!     .collect();
//! let fleet = FleetRunner::new(DatcConfig::paper(), 8)?.with_threads(2);
//! let out = fleet.encode(&signals);
//! assert_eq!(out.channels.len(), 8);
//! let report = out.merge_aer(25e-6); // one serial AER link
//! assert!(report.merged.len() > 0);
//! # Ok::<(), datc_core::CoreError>(())
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod obs;

use crate::obs::FleetObs;
use datc_core::bank::{BankEventSink, BankStream, SimdPolicy, TilePolicy};
use datc_core::comparator::Comparator;
use datc_core::datc::DatcOutput;
use datc_core::error::CoreError;
use datc_core::event::EventStream;
use datc_core::DatcConfig;
use datc_signal::resample::ZohResampler;
use datc_signal::Signal;
use datc_uwb::aer::{merge_channel_refs, MergeReport};

/// Everything one fleet encode produces.
///
/// Each per-channel element is a plain
/// [`DatcOutput`] at the events-only trace
/// level, so fleet results plug directly into the single-channel
/// pipeline APIs — `UwbTx::transmit_encoded`, `Link::run_encoded` and
/// the batched `Link::run_encoded_batch` in `datc-rx`.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOutput {
    /// Per-channel encoder outputs, in channel order.
    pub channels: Vec<DatcOutput>,
    /// System-clock ticks executed per channel (channels run in
    /// lock-step).
    pub ticks: u64,
}

impl FleetOutput {
    /// Number of channels encoded.
    pub fn channel_count(&self) -> usize {
        self.channels.len()
    }

    /// Events summed over the whole fleet.
    pub fn total_events(&self) -> usize {
        self.channels.iter().map(|c| c.events.len()).sum()
    }

    /// Merges every channel onto one serial AER link with the given
    /// pattern dead time (see `datc_uwb::aer::merge_channels`).
    ///
    /// Every channel runs on the fleet's one clock and stamps its events
    /// `tick · period`, so the streams pass
    /// `datc_uwb::aer::shares_tick_clock` and merge on the tick-keyed
    /// winner tree rather than the stable sort.
    pub fn merge_aer(&self, dead_time_s: f64) -> MergeReport {
        let streams: Vec<&EventStream> = self.channels.iter().map(|c| &c.events).collect();
        merge_channel_refs(&streams, dead_time_s)
    }
}

/// Sharded multi-threaded driver over the SoA bank kernel.
///
/// Channels are split into `threads` contiguous shards; each worker owns
/// one [`BankStream`] for its shard and
/// streams its signals through it. Workers never share mutable state, so
/// the result is identical for any thread count — including 1, which
/// runs inline without spawning.
#[derive(Debug, Clone)]
pub struct FleetRunner {
    config: DatcConfig,
    channels: usize,
    threads: usize,
    tiling: TilePolicy,
    simd: SimdPolicy,
    comparators: Option<Vec<Comparator>>,
    obs: Option<FleetObs>,
}

impl FleetRunner {
    /// Creates a runner for `channels` identical-configuration encoders.
    /// The thread count defaults to the machine's available parallelism,
    /// capped by the channel count.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when the configuration fails
    /// validation or `channels` is zero.
    pub fn new(config: DatcConfig, channels: usize) -> Result<Self, CoreError> {
        // Validate eagerly (config + channel count) via a probe kernel.
        let _ = BankStream::new(config, channels)?;
        Ok(FleetRunner {
            config,
            channels,
            threads: available_parallelism().clamp(1, channels),
            tiling: TilePolicy::default(),
            simd: SimdPolicy::default(),
            comparators: None,
            obs: None,
        })
    }

    /// Attaches per-channel comparator models (offset / hysteresis /
    /// noise). Non-ideal fleets run through the same SoA
    /// [`BankStream`] kernels as ideal ones —
    /// there is no per-channel slow path — and stay bit-exact with N
    /// standalone encoders carrying the same configs.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when the vector length
    /// differs from the channel count or a parameter is non-finite
    /// (validated via a probe kernel).
    pub fn with_comparators(mut self, comparators: Vec<Comparator>) -> Result<Self, CoreError> {
        // Probe-validate against the bank kernel the shards will build.
        let _ = BankStream::new(self.config, self.channels)?.with_comparators(&comparators)?;
        self.comparators = Some(comparators);
        Ok(self)
    }

    /// Overrides the shard-internal cache-tiling policy (default
    /// [`TilePolicy::auto`]). Output is bit-identical for every policy;
    /// this is a locality knob for large banks.
    pub fn with_tiling(mut self, tiling: TilePolicy) -> Self {
        self.tiling = tiling;
        self
    }

    /// Overrides the SIMD policy forwarded to every shard kernel
    /// (default [`SimdPolicy::Auto`]); every policy is bit-identical.
    pub fn with_simd_policy(mut self, simd: SimdPolicy) -> Self {
        self.simd = simd;
        self
    }

    /// Publishes encode throughput and tiling occupancy into `registry`
    /// after every [`encode`](FleetRunner::encode) /
    /// [`encode_merged`](FleetRunner::encode_merged) call — and into the
    /// same series from any [`FleetEncoder`] built afterwards via
    /// [`sustained`](FleetRunner::sustained). Metric names are the
    /// `datc_fleet_*` constants in [`obs`]. Encoding itself is
    /// untouched: totals the encode already computed are synced with a
    /// handful of relaxed atomic adds per call, so the overhead is
    /// independent of fleet size and signal length.
    #[must_use]
    pub fn with_metrics(mut self, registry: &datc_obs::Registry) -> Self {
        self.obs = Some(FleetObs::register(registry));
        self
    }

    /// Overrides the worker thread count (clamped to `1..=channels`).
    ///
    /// This sets the shard count and the parallelism ceiling; at encode
    /// time the number of OS threads actually spawned is additionally
    /// capped by `std::thread::available_parallelism()`, with surplus
    /// shards processed serially — the output is bit-identical either
    /// way.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.clamp(1, self.channels);
        self
    }

    /// The shared encoder configuration.
    pub fn config(&self) -> &DatcConfig {
        &self.config
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Worker threads used per encode.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Encodes one signal per channel (all at a common sample rate and
    /// length) into per-channel outputs. This is a one-shot
    /// [`FleetEncoder`]: cold and recycled encodes run the same shard
    /// driver.
    ///
    /// # Panics
    ///
    /// Panics when the signal count differs from the channel count or the
    /// signals disagree on sample rate/length.
    pub fn encode(&self, signals: &[Signal]) -> FleetOutput {
        self.sustained().encode(signals)
    }

    /// Encodes the fleet and merges every channel onto one serial AER
    /// link in a single call.
    pub fn encode_merged(
        &self,
        signals: &[Signal],
        dead_time_s: f64,
    ) -> (FleetOutput, MergeReport) {
        let out = self.encode(signals);
        let report = out.merge_aer(dead_time_s);
        (out, report)
    }

    /// Builds a reusable [`FleetEncoder`] that keeps one bank kernel per
    /// shard alive across encodes.
    ///
    /// Each kernel is built on first use, by the thread that runs its
    /// shard. Later calls reset it to power-on state
    /// ([`BankStream::reset`]) instead of rebuilding it. Every call
    /// streams into a fresh event sink whose buffers become its output.
    pub fn sustained(&self) -> FleetEncoder {
        // `threads` is the parallelism ceiling; the worker count is
        // additionally capped by the machine's parallelism, because
        // oversubscribing a small core count only adds scheduling
        // overhead. Each worker runs ONE bank kernel over a contiguous
        // channel range — per-channel results are independent, so the
        // output is bit-identical for any worker count or boundary
        // placement (property-tested).
        let workers = self
            .threads
            .min(available_parallelism())
            .clamp(1, self.channels);
        let ranges = shard_ranges(self.channels, workers);
        let occupancy = obs::tile_occupancy(&ranges, self.tiling);
        FleetEncoder {
            runner: self.clone(),
            banks: ranges.iter().map(|_| None).collect(),
            ranges,
            occupancy,
        }
    }

    /// A fresh bank kernel for the channels in `range`.
    fn shard_bank(&self, range: &std::ops::Range<usize>) -> BankStream {
        let bank = BankStream::new(self.config, range.len())
            .expect("validated in FleetRunner::new")
            .with_tiling(self.tiling)
            .with_simd_policy(self.simd);
        match &self.comparators {
            Some(c) => bank
                .with_comparators(&c[range.clone()])
                .expect("validated in FleetRunner::with_comparators"),
            None => bank,
        }
    }
}

/// A long-lived fleet encoder that recycles one bank kernel per shard
/// across calls — see [`FleetRunner::sustained`].
#[derive(Debug)]
pub struct FleetEncoder {
    runner: FleetRunner,
    ranges: Vec<std::ops::Range<usize>>,
    /// One kernel per shard, built on the shard's first encode.
    banks: Vec<Option<BankStream>>,
    // The shard layout is fixed at build time, so the tile occupancy is
    // computed once here rather than per encode.
    occupancy: f64,
}

impl FleetEncoder {
    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.runner.channels
    }

    /// Encodes one signal per channel, recycling the shard kernels.
    /// Output is bit-identical to a fresh encoder's.
    ///
    /// # Panics
    ///
    /// Panics when the signal count differs from the channel count or
    /// the signals disagree on sample rate/length.
    pub fn encode(&mut self, signals: &[Signal]) -> FleetOutput {
        let runner = &self.runner;
        assert_eq!(signals.len(), runner.channels, "one signal per channel");
        // Enforce the rate/length contract across the WHOLE fleet here:
        // each shard only sees its own slice, so a cross-shard mismatch
        // would otherwise slip through with internally-consistent shards.
        if let Some(first) = signals.first() {
            assert!(
                signals
                    .iter()
                    .all(|s| s.sample_rate() == first.sample_rate()),
                "signals must share a sample rate"
            );
            assert!(
                signals.iter().all(|s| s.len() == first.len()),
                "signals must share a length"
            );
        }
        let duration = signals.first().map_or(0.0, Signal::duration);
        let clock_hz = runner.config.clock_hz;

        // The calling thread works the first shard itself; only
        // `shards - 1` threads are spawned.
        let mut per_shard: Vec<ShardResult> = Vec::with_capacity(self.ranges.len());
        if self.banks.len() == 1 {
            per_shard.push(encode_shard(
                runner,
                &self.ranges[0],
                &mut self.banks[0],
                signals,
            ));
        } else {
            let (first_range, rest_ranges) = self.ranges.split_first().expect("at least one shard");
            let (first_bank, rest_banks) = self.banks.split_first_mut().expect("shards");
            std::thread::scope(|scope| {
                let handles: Vec<_> = rest_ranges
                    .iter()
                    .zip(rest_banks)
                    .map(|(range, bank)| {
                        let shard_signals = &signals[range.clone()];
                        scope.spawn(move || encode_shard(runner, range, bank, shard_signals))
                    })
                    .collect();
                per_shard.push(encode_shard(
                    runner,
                    first_range,
                    first_bank,
                    &signals[first_range.clone()],
                ));
                for h in handles {
                    per_shard.push(h.join().expect("shard worker panicked"));
                }
            });
        }

        let ticks = per_shard.first().map_or(0, |s| s.ticks);
        let mut channels = Vec::with_capacity(runner.channels);
        for shard in per_shard {
            debug_assert_eq!(shard.ticks, ticks, "shards run in lock-step");
            for (events, ones) in shard.events.into_iter().zip(shard.ones) {
                channels.push(DatcOutput {
                    // Kernel emission order is tick order by construction;
                    // skip the O(events) ordering re-scan per channel.
                    events: EventStream::from_ordered(
                        events,
                        clock_hz,
                        duration.max(f64::MIN_POSITIVE),
                    ),
                    vth_code_trace: Vec::new(),
                    vth_volt_trace: Vec::new(),
                    d_out: Vec::new(),
                    frame_codes: Vec::new(),
                    ticks,
                    ones,
                });
            }
        }
        let out = FleetOutput { channels, ticks };
        if let Some(obs) = &runner.obs {
            obs.note_encode(
                runner.channels,
                signals.first().map_or(0, Signal::len),
                ticks,
                out.total_events(),
                self.occupancy,
            );
        }
        out
    }
}

struct ShardResult {
    events: Vec<Vec<datc_core::Event>>,
    ones: Vec<u64>,
    ticks: u64,
}

/// One shard's encode: build or reset its bank, stream `signals` into a
/// fresh event sink, and hand the sink's buffers out as the result.
fn encode_shard(
    runner: &FleetRunner,
    range: &std::ops::Range<usize>,
    bank: &mut Option<BankStream>,
    signals: &[Signal],
) -> ShardResult {
    let clock_hz = runner.config.clock_hz;
    // Built here, on the thread that runs the shard, so the kernel's
    // per-channel arrays come from that thread's allocations: kernels
    // built together on the calling thread put the shards' small arrays
    // side by side, which slows a cold 8-channel encode by about 10 %.
    let bank = bank.get_or_insert_with(|| runner.shard_bank(range));
    bank.reset();
    let mut sink = BankEventSink::new(clock_hz, signals.len());
    if let Some(first) = signals.first() {
        // Pre-size the event buffers so a realistic recording never
        // reallocates mid-encode (a growth wave across 64 channels
        // evicts the hot tile state); an active sEMG channel fires well
        // under one event per 14 clock ticks. The cap bounds the
        // up-front commitment for pathological durations.
        let expected_ticks =
            ZohResampler::new(first.sample_rate(), clock_hz).ticks_for_len(first.len());
        sink.reserve_events((expected_ticks / 14).min(1 << 15) as usize);
    }
    let ticks = bank.push_signals(signals, &mut sink);
    let (events, ones, _) = sink.into_parts();
    ShardResult {
        events,
        ones,
        ticks,
    }
}

fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Splits `n` channels into at most `t` contiguous, balanced ranges.
fn shard_ranges(n: usize, t: usize) -> Vec<std::ops::Range<usize>> {
    let t = t.clamp(1, n.max(1));
    let base = n / t;
    let rem = n % t;
    let mut ranges = Vec::with_capacity(t);
    let mut start = 0;
    for i in 0..t {
        let len = base + usize::from(i < rem);
        if len == 0 {
            break;
        }
        ranges.push(start..start + len);
        start += len;
    }
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use datc_core::encoder::SpikeEncoder;
    use datc_core::{DatcEncoder, TraceLevel};

    fn fleet_signals(n: usize, seconds: f64) -> Vec<Signal> {
        (0..n)
            .map(|c| {
                Signal::from_fn(2500.0, seconds, move |t| {
                    let f = 31.0 + 9.0 * c as f64;
                    ((t * f).sin() * (t * 2.3).cos()).abs() * (0.25 + 0.04 * c as f64)
                })
            })
            .collect()
    }

    #[test]
    fn shard_ranges_cover_and_balance() {
        for (n, t) in [(16, 4), (16, 3), (5, 8), (1, 1), (7, 2)] {
            let ranges = shard_ranges(n, t);
            assert!(ranges.len() <= t);
            let total: usize = ranges.iter().map(|r| r.len()).sum();
            assert_eq!(total, n);
            for w in ranges.windows(2) {
                assert_eq!(w[0].end, w[1].start, "contiguous");
                assert!(w[0].len() >= w[1].len(), "front-loaded balance");
            }
        }
    }

    #[test]
    fn fleet_matches_per_channel_batch_encoder() {
        let signals = fleet_signals(6, 2.0);
        let fleet = FleetRunner::new(DatcConfig::paper(), 6)
            .unwrap()
            .with_threads(3);
        let out = fleet.encode(&signals);
        let solo = DatcEncoder::new(DatcConfig::paper().with_trace_level(TraceLevel::Events));
        for (c, s) in signals.iter().enumerate() {
            let reference = solo.encode(s);
            assert_eq!(out.channels[c].events, reference.events, "channel {c}");
            assert_eq!(out.channels[c].ones, reference.ones);
            assert_eq!(out.channels[c].ticks, reference.ticks);
        }
    }

    #[test]
    fn nonideal_fleet_matches_per_channel_encoders_with_comparators() {
        use datc_core::comparator::Comparator;
        let signals = fleet_signals(7, 1.5);
        let comps: Vec<Comparator> = (0..7)
            .map(|c| match c % 4 {
                0 => Comparator::ideal().with_offset(0.011),
                1 => Comparator::ideal().with_hysteresis(0.04),
                2 => Comparator::ideal().with_noise(0.02, 5 + c as u64),
                _ => Comparator::ideal()
                    .with_offset(-0.006)
                    .with_hysteresis(0.02)
                    .with_noise(0.01, 31 + c as u64),
            })
            .collect();
        let fleet = FleetRunner::new(DatcConfig::paper(), 7)
            .unwrap()
            .with_comparators(comps.clone())
            .unwrap()
            .with_threads(3);
        let out = fleet.encode(&signals);
        for (c, s) in signals.iter().enumerate() {
            let solo = DatcEncoder::new(DatcConfig::paper().with_trace_level(TraceLevel::Events))
                .with_comparator(comps[c].clone());
            let reference = solo.encode(s);
            assert_eq!(out.channels[c].events, reference.events, "channel {c}");
            assert_eq!(out.channels[c].ones, reference.ones, "channel {c}");
            assert_eq!(out.channels[c].ticks, reference.ticks, "channel {c}");
        }

        // thread count and tiling stay execution details for non-ideal
        // fleets too
        for threads in [1, 2, 7] {
            let other = FleetRunner::new(DatcConfig::paper(), 7)
                .unwrap()
                .with_comparators(comps.clone())
                .unwrap()
                .with_threads(threads)
                .with_tiling(datc_core::bank::TilePolicy {
                    max_tile_channels: 2,
                    target_tile_bytes: 8192,
                })
                .encode(&signals);
            assert_eq!(other, out, "threads={threads}");
        }
    }

    #[test]
    fn comparator_count_mismatch_rejected() {
        use datc_core::comparator::Comparator;
        let err = FleetRunner::new(DatcConfig::paper(), 4)
            .unwrap()
            .with_comparators(vec![Comparator::ideal(); 3]);
        assert!(err.is_err());
    }

    #[test]
    fn output_is_independent_of_thread_count_and_shard_boundaries() {
        let signals = fleet_signals(13, 1.5);
        let reference = FleetRunner::new(DatcConfig::paper(), 13)
            .unwrap()
            .with_threads(1)
            .encode(&signals);
        for threads in [2, 3, 5, 13, 64] {
            let out = FleetRunner::new(DatcConfig::paper(), 13)
                .unwrap()
                .with_threads(threads)
                .encode(&signals);
            assert_eq!(out, reference, "threads={threads}");
        }
    }

    #[test]
    fn merged_aer_stream_is_deterministic() {
        let signals = fleet_signals(4, 1.0);
        let fleet = FleetRunner::new(DatcConfig::paper(), 4).unwrap();
        let (_, a) = fleet.encode_merged(&signals, 25e-6);
        let (_, b) = fleet.with_threads(2).encode_merged(&signals, 25e-6);
        assert_eq!(a, b);
        assert!(!a.merged.is_empty());
    }

    #[test]
    fn fleet_output_shares_the_tick_clock() {
        // One config, one clock: `merge_aer` takes the tick path.
        let out = FleetRunner::new(DatcConfig::paper(), 5)
            .unwrap()
            .with_threads(2)
            .encode(&fleet_signals(5, 1.0));
        let streams: Vec<&EventStream> = out.channels.iter().map(|c| &c.events).collect();
        assert!(streams.iter().all(|s| !s.is_empty()));
        assert!(datc_uwb::aer::shares_tick_clock(&streams));
    }

    #[test]
    fn fleet_outputs_drive_the_link_pipeline() {
        use datc_rx::pipeline::Link;
        use datc_rx::HybridReconstructor;
        use datc_uwb::channel::SymbolChannel;

        let signals = fleet_signals(3, 2.0);
        let out = FleetRunner::new(DatcConfig::paper(), 3)
            .unwrap()
            .encode(&signals);

        let link = Link::builder()
            .encoder(DatcEncoder::new(
                DatcConfig::paper().with_trace_level(TraceLevel::Events),
            ))
            .channel(SymbolChannel::new(0.05, 0.0))
            .seed(3)
            .reconstructor(HybridReconstructor::paper())
            .build();

        // batch entry point over the fleet's per-channel outputs
        let runs = link.run_encoded_batch(out.channels.clone());
        assert_eq!(runs.len(), 3);

        // identical to encoding each channel through the link itself
        for (run, s) in runs.iter().zip(&signals) {
            let direct = link.run(s);
            assert_eq!(
                run.transmission.transport.received,
                direct.transmission.transport.received
            );
            assert_eq!(
                run.reconstruction.samples(),
                direct.reconstruction.samples()
            );
        }
    }

    #[test]
    fn duty_cycle_survives_the_fleet_path() {
        let signals = fleet_signals(2, 2.0);
        let out = FleetRunner::new(DatcConfig::paper(), 2)
            .unwrap()
            .encode(&signals);
        for ch in &out.channels {
            let duty = ch.duty_cycle();
            assert!(duty > 0.0 && duty < 0.5, "duty {duty}");
        }
    }

    #[test]
    #[should_panic(expected = "signals must share a sample rate")]
    fn cross_shard_rate_mismatch_panics() {
        // two shards, each internally consistent, rates differing across
        // the shard boundary — must still be rejected up front
        let mut signals = fleet_signals(4, 1.0);
        signals[2] = Signal::from_fn(5000.0, 1.0, |t| (t * 40.0).sin().abs() * 0.4);
        signals[3] = Signal::from_fn(5000.0, 1.0, |t| (t * 50.0).sin().abs() * 0.4);
        let fleet = FleetRunner::new(DatcConfig::paper(), 4)
            .unwrap()
            .with_threads(2);
        let _ = fleet.encode(&signals);
    }

    #[test]
    #[should_panic(expected = "one signal per channel")]
    fn channel_count_mismatch_panics() {
        let fleet = FleetRunner::new(DatcConfig::paper(), 3).unwrap();
        let _ = fleet.encode(&fleet_signals(2, 0.5));
    }

    #[test]
    fn zero_channels_rejected() {
        assert!(FleetRunner::new(DatcConfig::paper(), 0).is_err());
    }

    #[test]
    fn sustained_encoder_is_bit_exact_with_cold_encode_across_calls() {
        let runner = FleetRunner::new(DatcConfig::paper(), 6)
            .unwrap()
            .with_threads(3);
        let mut sustained = runner.sustained();
        // repeated encodes over different signals: every call must match
        // a cold encode of the same input (reset/clear leaves no state)
        for round in 0..3 {
            let signals = fleet_signals(6, 1.0 + 0.4 * round as f64);
            assert_eq!(
                sustained.encode(&signals),
                runner.encode(&signals),
                "round {round}"
            );
        }
    }

    #[test]
    fn sustained_encoder_recycles_nonideal_fleets_bit_exactly() {
        use datc_core::comparator::Comparator;
        let comps: Vec<Comparator> = (0..5)
            .map(|c| {
                Comparator::ideal()
                    .with_offset(0.004 * c as f64)
                    .with_noise(0.015, 70 + c as u64)
            })
            .collect();
        let runner = FleetRunner::new(DatcConfig::paper(), 5)
            .unwrap()
            .with_comparators(comps)
            .unwrap()
            .with_threads(2);
        let signals = fleet_signals(5, 1.5);
        let cold = runner.encode(&signals);
        let mut sustained = runner.sustained();
        // same input twice: noise lanes rewind on reset, so the second
        // pass is identical to the first and to the cold path
        assert_eq!(sustained.encode(&signals), cold);
        assert_eq!(sustained.encode(&signals), cold);
    }

    #[test]
    fn metrics_accumulate_across_cold_and_sustained_encodes() {
        use datc_obs::MetricValue;
        let reg = datc_obs::Registry::new();
        let signals = fleet_signals(6, 1.0);
        let runner = FleetRunner::new(DatcConfig::paper(), 6)
            .unwrap()
            .with_threads(2)
            .with_metrics(&reg);
        let cold = runner.encode(&signals);
        let mut sustained = runner.sustained();
        let warm = sustained.encode(&signals);
        assert_eq!(cold, warm);

        let get = |name: &str| {
            reg.snapshot()
                .into_iter()
                .find_map(|(n, _, v)| (n == name).then_some(v))
                .expect("series registered")
        };
        // Both encodes land in the same series.
        assert_eq!(get(obs::FLEET_ENCODES), MetricValue::Counter(2));
        assert_eq!(
            get(obs::FLEET_SAMPLES),
            MetricValue::Counter(2 * 6 * signals[0].len() as u64)
        );
        assert_eq!(
            get(obs::FLEET_TICKS),
            MetricValue::Counter(2 * 6 * cold.ticks)
        );
        assert_eq!(
            get(obs::FLEET_EVENTS),
            MetricValue::Counter(2 * cold.total_events() as u64)
        );
        match get(obs::FLEET_TILE_OCCUPANCY) {
            MetricValue::Gauge(g) => assert!(g > 0.0 && g <= 1.0, "occupancy {g}"),
            other => panic!("gauge expected, got {other:?}"),
        }
        // An un-instrumented runner touches no registry.
        let silent = FleetRunner::new(DatcConfig::paper(), 6).unwrap();
        let before = reg.snapshot();
        let _ = silent.encode(&signals);
        assert_eq!(reg.snapshot(), before);
    }

    #[test]
    fn sustained_encoder_drives_motor_workloads() {
        use datc_signal::motor::{motor_fleet, WorkloadScenario};
        let runner = FleetRunner::new(DatcConfig::paper(), 3).unwrap();
        let mut sustained = runner.sustained();
        for (round, scenario) in WorkloadScenario::all().into_iter().take(2).enumerate() {
            let signals = motor_fleet(scenario, 3, 1.0, 50 + round as u64);
            let out = sustained.encode(&signals);
            assert_eq!(out, runner.encode(&signals), "{}", scenario.name());
            assert!(out.total_events() > 0, "{}", scenario.name());
        }
    }
}
