//! The struct-of-arrays multi-channel D-ATC kernel.
//!
//! [`BankStream`] advances N channels through the comparator → DTC →
//! DAC cycle in lock-step, one frame-bounded span at a time: all
//! per-channel state lives in parallel arrays (threshold voltages,
//! frame counters, comparator bits), the frame countdown and interval
//! ROM are shared scalars, and the code→voltage conversion is a LUT
//! index. It has one driver, [`BankStream::push_signals`], and one span
//! kernel. Within a span the threshold voltage is a loop constant (it
//! can only change at `End_of_frame`), so the kernel packs 64
//! comparator decisions into one word and turns `In_reg` delay, edge
//! detection and duty counting into shifts, masks and popcounts. Quiet
//! ticks never reach the [`BankSink`]; it hears events, frame decisions
//! and per-span counts. That is what lets a single core chew through
//! hundreds of millions of channel·ticks per second — see
//! `BENCH_fleet.json` at the workspace root for measured numbers.
//!
//! Three performance layers stack on the SoA state:
//!
//! * **Fused gather + compare**: the ZOH index mapping is resolved once
//!   per segment and each channel's samples are gathered *inside* the
//!   compare kernel — on AVX2 hosts with `vgatherqpd` + `cmp_pd` +
//!   `movmskpd` (runtime-detected), with a bit-identical scalar
//!   fallback (same masks, same strict-`>` tie behaviour, `false`
//!   against NaN).
//! * **Cache tiling** ([`TilePolicy`]): large banks process channels in
//!   L2-sized tiles over bounded time segments, so a 64-channel fleet
//!   streams a handful of input arrays at a time instead of thrashing
//!   the prefetcher with 64 concurrent streams.
//! * **SoA non-ideal comparators** ([`BankStream::with_comparators`]):
//!   per-channel offset / hysteresis / noise
//!   ([`Comparator`]) run vectorised — noise
//!   comes from the counter-based lane (a pure function of seed and
//!   tick), hysteresis is resolved 64 ticks at a time through a
//!   carry-propagation identity — so non-ideal fleets keep the bank
//!   speedup instead of falling back to per-channel streams.
//!
//! Results are **bit-exact** with N independent
//! [`DatcStream`](crate::stream::DatcStream)s carrying the same
//! comparator configs and fed the same per-channel signals —
//! property-tested in `tests/` at the workspace root across SIMD
//! policies, tile shapes and comparator models. The multi-threaded
//! sharding driver over this kernel is `FleetRunner` in the
//! `datc-engine` crate.
//!
//! # Example
//!
//! ```
//! use datc_core::bank::{BankEventSink, BankStream};
//! use datc_core::config::DatcConfig;
//! use datc_signal::Signal;
//!
//! let config = DatcConfig::paper();
//! // four phase-shifted channels at a common sample rate and length
//! let signals: Vec<Signal> = (0..4)
//!     .map(|c| {
//!         Signal::from_fn(2500.0, 1.0, move |t| {
//!             0.4 * (40.0 * t + 0.5 * f64::from(c)).sin().abs()
//!         })
//!     })
//!     .collect();
//! let mut bank = BankStream::new(config, 4)?;
//! let mut sink = BankEventSink::new(config.clock_hz, 4);
//! let ticks = bank.push_signals(&signals, &mut sink);
//! assert_eq!(ticks, 2000); // 1 s of the 2 kHz system clock
//! assert!(!sink.events(0).is_empty());
//! # Ok::<(), datc_core::CoreError>(())
//! ```

use crate::comparator::{gaussian_at, Comparator};
use crate::config::{Arithmetic, DatcConfig};
use crate::dac::Dac;
use crate::dtc::fixed_point::{
    avr_float, avr_scaled, predict_code_fixed, predict_code_float, quantize_weights,
};
use crate::dtc::intervals::IntervalTable;
use crate::error::CoreError;
use crate::event::Event;
use datc_signal::resample::ZohResampler;
use datc_signal::Signal;

/// Consumer of per-channel results from a [`BankStream`].
///
/// The kernel is event-sparse: quiet ticks never reach the sink. It
/// hears each rising edge through [`on_event`](BankSink::on_event),
/// each frame decision through [`on_frame`](BankSink::on_frame), and
/// the tick and ones counts of each span through
/// [`on_span`](BankSink::on_span). Within one channel, calls arrive in
/// tick order; the interleaving **across** channels is unspecified — the
/// driver runs each channel over a whole frame-bounded span
/// (registers-resident inner loop) before moving to the next channel,
/// and cache tiling additionally groups channels into tiles that each
/// replay a run of spans. Implementations should be `#[inline]`-friendly
/// — the kernel loop is monomorphised over the sink.
pub trait BankSink {
    /// A rising edge fired on `channel` at `tick` while threshold `code`
    /// was in force.
    fn on_event(&mut self, channel: usize, tick: u64, code: u8);

    /// `channel` closed a frame at `tick`, deciding `set_vth`.
    #[inline]
    fn on_frame(&mut self, _channel: usize, _tick: u64, _set_vth: u8) {}

    /// `channel` advanced `ticks` ticks of which `ones` had `D_out` high
    /// (events and frames are reported separately).
    fn on_span(&mut self, channel: usize, ticks: u64, ones: u64);
}

/// A [`BankSink`] recording per-channel event lists plus the duty-cycle
/// counters — everything `FleetRunner` needs to assemble per-channel
/// `DatcOutput`s.
#[derive(Debug, Clone)]
pub struct BankEventSink {
    tick_period_s: f64,
    events: Vec<Vec<Event>>,
    ones: Vec<u64>,
    ticks: u64,
}

impl BankEventSink {
    /// Creates a sink for `n` channels of a kernel clocked at `clock_hz`.
    pub fn new(clock_hz: f64, n: usize) -> Self {
        BankEventSink {
            tick_period_s: 1.0 / clock_hz,
            events: vec![Vec::new(); n],
            ones: vec![0; n],
            ticks: 0,
        }
    }

    /// Pre-reserves capacity for `per_channel` events on every channel,
    /// sparing the hot loop the growth-reallocation copies of long
    /// recordings.
    pub fn reserve_events(&mut self, per_channel: usize) {
        for evs in &mut self.events {
            evs.reserve(per_channel);
        }
    }

    /// Events recorded so far for `channel`.
    pub fn events(&self, channel: usize) -> &[Event] {
        &self.events[channel]
    }

    /// Ticks with the comparator high, per channel.
    pub fn ones(&self) -> &[u64] {
        &self.ones
    }

    /// Ticks observed per channel.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Consumes the sink into `(per-channel events, per-channel ones,
    /// ticks)` for callers assembling richer outputs.
    pub fn into_parts(self) -> (Vec<Vec<Event>>, Vec<u64>, u64) {
        (self.events, self.ones, self.ticks)
    }

    /// Clears all recorded events and counters while keeping the event
    /// buffers' capacity — lets a long-running driver recycle one sink
    /// across encodes instead of re-faulting fresh allocations each
    /// time.
    pub fn clear(&mut self) {
        for evs in &mut self.events {
            evs.clear();
        }
        self.ones.fill(0);
        self.ticks = 0;
    }
}

impl BankSink for BankEventSink {
    #[inline]
    fn on_event(&mut self, channel: usize, tick: u64, code: u8) {
        self.events[channel].push(Event {
            tick,
            time_s: tick as f64 * self.tick_period_s,
            vth_code: Some(code),
        });
    }

    #[inline]
    fn on_span(&mut self, channel: usize, ticks: u64, ones: u64) {
        self.ticks += if channel == 0 { ticks } else { 0 };
        self.ones[channel] += ones;
    }
}

/// Which word-packing compare implementation the bank may use.
///
/// The SIMD paths are **bit-identical** to the scalar fallback (strict
/// `>`, `false` against NaN — `_CMP_GT_OQ` semantics match Rust's `>`
/// exactly), so this knob exists for benchmarking the speedup and for
/// equivalence tests, not for correctness.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimdPolicy {
    /// Use whatever the CPU supports (runtime-detected AVX for packed
    /// compares, AVX2 for the fused gather + compare). The default.
    #[default]
    Auto,
    /// Always run the restructured scalar kernels.
    ForceScalar,
}

/// Cache-tiling policy for [`BankStream::push_signals`].
///
/// A bank with many channels cannot stream every channel's input
/// concurrently without spilling the combined working set out of L2 (and
/// past the prefetcher's stream-tracking budget). Tiling splits the
/// channels into tiles of at most
/// [`max_tile_channels`](TilePolicy::max_tile_channels) and replays each
/// input **segment** (a run of frame-bounded spans sized so one tile's
/// source bytes fit [`target_tile_bytes`](TilePolicy::target_tile_bytes))
/// tile by tile. Results are bit-identical for every policy — only the
/// traversal order over (channel, tick) changes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TilePolicy {
    /// Channels processed per tile (`usize::MAX` = all channels in one
    /// tile, i.e. no channel blocking).
    pub max_tile_channels: usize,
    /// Source-byte budget per tile per segment (`usize::MAX` = segments
    /// as long as the input allows).
    pub target_tile_bytes: usize,
}

impl TilePolicy {
    /// The default: 16-channel tiles over ≈ 256 KiB segments — sized for
    /// a conservative per-core L2 share and well inside hardware
    /// prefetcher stream budgets.
    pub fn auto() -> Self {
        TilePolicy {
            max_tile_channels: 16,
            target_tile_bytes: 256 * 1024,
        }
    }

    /// No tiling: every channel advances span by span across the whole
    /// input (the pre-tiling traversal; useful for measuring what tiling
    /// buys).
    pub fn none() -> Self {
        TilePolicy {
            max_tile_channels: usize::MAX,
            target_tile_bytes: usize::MAX,
        }
    }
}

impl Default for TilePolicy {
    fn default() -> Self {
        TilePolicy::auto()
    }
}

/// Resolved CPU capabilities for the packing kernels.
#[derive(Debug, Clone, Copy)]
struct SimdCaps {
    /// Packed `cmp_pd` + `movmskpd` over contiguous lanes.
    avx: bool,
    /// `vgatherqpd`-fused gather + compare.
    avx2: bool,
}

impl SimdCaps {
    fn detect(policy: SimdPolicy) -> SimdCaps {
        match policy {
            SimdPolicy::ForceScalar => SimdCaps {
                avx: false,
                avx2: false,
            },
            SimdPolicy::Auto => {
                #[cfg(target_arch = "x86_64")]
                {
                    SimdCaps {
                        avx: std::arch::is_x86_feature_detected!("avx"),
                        avx2: std::arch::is_x86_feature_detected!("avx2"),
                    }
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    SimdCaps {
                        avx: false,
                        avx2: false,
                    }
                }
            }
        }
    }
}

/// Struct-of-arrays non-ideal comparator parameters (one lane per
/// channel).
#[derive(Debug, Clone)]
struct BankComparators {
    offset: Vec<f64>,
    /// Half the hysteresis width — the quantity
    /// [`Comparator::compare`] actually adds/subtracts.
    half: Vec<f64>,
    sigma: Vec<f64>,
    seed: Vec<u64>,
}

/// One channel's comparator parameters, copied to registers for a span.
#[derive(Debug, Clone, Copy)]
struct ChannelComp {
    offset: f64,
    half: f64,
    sigma: f64,
    seed: u64,
}

impl BankComparators {
    /// Channel `c`'s parameters — `None` when the channel is effectively
    /// ideal (all-zero lane), so mixed banks keep the fused ideal kernel
    /// for their ideal majority. Bit-identical either way:
    /// `x + 0.0 > vth ± 0.0` is `x > vth` for every `x`.
    #[inline]
    fn channel(&self, c: usize) -> Option<ChannelComp> {
        let cc = ChannelComp {
            offset: self.offset[c],
            half: self.half[c],
            sigma: self.sigma[c],
            seed: self.seed[c],
        };
        (cc.offset != 0.0 || cc.half != 0.0 || cc.sigma > 0.0).then_some(cc)
    }
}

/// One span's comparator inputs, ZOH-gathered: `samples[idx[j]]` is the
/// input at span offset `j`. On AVX2 the gather and the compare fuse
/// into one `vgatherqpd` + `cmp_pd` + `movmskpd` pass with no
/// intermediate store.
struct GatherFeed<'a> {
    samples: &'a [f64],
    idx: &'a [i64],
}

impl GatherFeed<'_> {
    /// Number of ticks in the span.
    #[inline]
    fn len(&self) -> usize {
        self.idx.len()
    }

    /// Sample at tick offset `j` within the span.
    #[inline]
    fn get(&self, j: usize) -> f64 {
        self.samples[self.idx[j] as usize]
    }

    /// Packs `w ≤ 64` strict compare decisions starting at offset `i`
    /// (bit `j` = `get(i + j) > vth`).
    #[inline]
    fn pack(&self, i: usize, w: usize, vth: f64, caps: SimdCaps) -> u64 {
        #[cfg(target_arch = "x86_64")]
        if w == 64 && caps.avx2 {
            // SAFETY: AVX2 confirmed at runtime; every index is
            // validated against `samples.len()` by the driver (the ZOH
            // contract `ticks_for_len` ⇒ `index(k) < len`).
            return unsafe { pack64_gather_avx2(self.samples.as_ptr(), &self.idx[i..i + 64], vth) };
        }
        let mut cmp = 0u64;
        for (j, &ix) in self.idx[i..i + w].iter().enumerate() {
            cmp |= u64::from(self.samples[ix as usize] > vth) << j;
        }
        let _ = caps;
        cmp
    }

    /// Copies `dst.len()` samples starting at offset `i` into `dst`.
    #[inline]
    fn load(&self, i: usize, dst: &mut [f64]) {
        for (d, &ix) in dst.iter_mut().zip(&self.idx[i..]) {
            *d = self.samples[ix as usize];
        }
    }
}

/// N-channel streaming D-ATC encoder with struct-of-arrays state.
///
/// All channels share one configuration (clock, frame size, DAC, weights
/// — the realistic multi-electrode case) and advance in lock-step, so
/// the frame countdown, tick counter, interval ROM and voltage LUT are
/// shared scalars; only the genuinely per-channel state (comparator
/// bits, frame counts, history, threshold codes and voltages) is
/// replicated, each kind in its own parallel array.
///
/// Channels default to the **ideal** comparator (the paper's operating
/// point); per-channel offset/hysteresis/noise models attach through
/// [`with_comparators`](BankStream::with_comparators) and run inside the
/// same span kernel, bit-exact with N independent
/// [`DatcStream`](crate::stream::DatcStream)s carrying the same configs.
#[derive(Debug, Clone)]
pub struct BankStream {
    config: DatcConfig,
    table: IntervalTable,
    weights_q: (u64, u64, u64),
    vth_lut: Vec<f64>,
    frame_len: u32,
    max_code: u8,
    caps: SimdCaps,
    tiling: TilePolicy,
    comparators: Option<BankComparators>,
    // --- struct-of-arrays per-channel state ---
    /// Metastability register (`In_reg`) per channel — also the
    /// hysteresis state (both are "the comparator's last raw decision").
    in_reg: Vec<bool>,
    /// Previous `D_out` per channel, for rising-edge detection.
    d_prev: Vec<bool>,
    /// Ones counted in the current frame, per channel.
    counter: Vec<u32>,
    /// Previous-frame count (`N_one2`) per channel.
    n2: Vec<u32>,
    /// Frame-before-that count (`N_one1`) per channel.
    n1: Vec<u32>,
    /// Current threshold code per channel.
    set_vth: Vec<u8>,
    /// Current threshold voltage per channel (code through the LUT,
    /// refreshed only at frame boundaries).
    vth_volts: Vec<f64>,
    // --- shared lock-step scalars ---
    tick_in_frame: u32,
    tick: u64,
    frames: u64,
}

impl BankStream {
    /// Creates an `n`-channel bank kernel with ideal comparators.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when the configuration fails
    /// validation or `channels` is zero.
    pub fn new(config: DatcConfig, channels: usize) -> Result<Self, CoreError> {
        config.validate()?;
        if channels == 0 {
            return Err(CoreError::InvalidConfig {
                field: "channels",
                reason: "bank needs at least one channel".into(),
            });
        }
        let dac = Dac::new(config.dac_bits, config.vref)?;
        let vth_lut = dac.voltage_table();
        let initial_volts = vth_lut[usize::from(config.initial_code)];
        Ok(BankStream {
            table: IntervalTable::new(
                config.frame_size.len(),
                config.interval_step,
                1usize << config.dac_bits,
            ),
            weights_q: quantize_weights(config.weights),
            vth_lut,
            frame_len: config.frame_size.len(),
            max_code: config.max_code(),
            caps: SimdCaps::detect(SimdPolicy::Auto),
            tiling: TilePolicy::default(),
            comparators: None,
            in_reg: vec![false; channels],
            d_prev: vec![false; channels],
            counter: vec![0; channels],
            n2: vec![0; channels],
            n1: vec![0; channels],
            set_vth: vec![config.initial_code; channels],
            vth_volts: vec![initial_volts; channels],
            tick_in_frame: 0,
            tick: 0,
            frames: 0,
            config,
        })
    }

    /// Attaches per-channel comparator models (offset / hysteresis /
    /// noise). Each comparator's *configuration* is taken at power-on
    /// state — runtime hysteresis state and noise position restart from
    /// zero, exactly as a fresh
    /// [`DatcStream::with_comparator`](crate::stream::DatcStream::with_comparator)
    /// does. A slice of all-ideal comparators keeps the fused ideal
    /// compare.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] when the slice length
    /// differs from the channel count or a parameter is non-finite.
    pub fn with_comparators(mut self, comparators: &[Comparator]) -> Result<Self, CoreError> {
        if comparators.len() != self.channels() {
            return Err(CoreError::InvalidConfig {
                field: "comparators",
                reason: format!(
                    "need one comparator per channel ({}), got {}",
                    self.channels(),
                    comparators.len()
                ),
            });
        }
        if comparators.iter().any(|c| {
            !(c.offset_v().is_finite()
                && c.hysteresis_v().is_finite()
                && c.noise_sigma_v().is_finite())
        }) {
            return Err(CoreError::InvalidConfig {
                field: "comparators",
                reason: "offset, hysteresis and noise sigma must be finite".into(),
            });
        }
        if comparators.iter().all(Comparator::is_ideal) {
            self.comparators = None;
            return Ok(self);
        }
        self.comparators = Some(BankComparators {
            offset: comparators.iter().map(Comparator::offset_v).collect(),
            half: comparators.iter().map(|c| c.hysteresis_v() / 2.0).collect(),
            sigma: comparators.iter().map(Comparator::noise_sigma_v).collect(),
            seed: comparators.iter().map(Comparator::noise_seed).collect(),
        });
        Ok(self)
    }

    /// Overrides the SIMD policy (default
    /// [`Auto`](SimdPolicy::Auto)) — for benches and equivalence tests;
    /// every policy is bit-identical.
    pub fn with_simd_policy(mut self, policy: SimdPolicy) -> Self {
        self.caps = SimdCaps::detect(policy);
        self
    }

    /// Overrides the cache-tiling policy (default
    /// [`TilePolicy::auto`]) — bit-identical for every policy.
    pub fn with_tiling(mut self, tiling: TilePolicy) -> Self {
        self.tiling = tiling;
        self
    }

    /// The shared configuration.
    pub fn config(&self) -> &DatcConfig {
        &self.config
    }

    /// `true` when at least one channel runs a non-ideal comparator.
    pub fn has_nonideal_comparators(&self) -> bool {
        self.comparators.is_some()
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.set_vth.len()
    }

    /// Ticks executed (per channel — channels advance in lock-step).
    pub fn ticks(&self) -> u64 {
        self.tick
    }

    /// Frames completed.
    pub fn frames(&self) -> u64 {
        self.frames
    }

    /// Current threshold codes, one per channel.
    pub fn vth_codes(&self) -> &[u8] {
        &self.set_vth
    }

    /// Resets every channel to power-on state (comparator models keep
    /// their configuration; hysteresis state clears and noise lanes
    /// rewind, because noise is indexed by the tick counter).
    pub fn reset(&mut self) {
        let initial_volts = self.vth_lut[usize::from(self.config.initial_code)];
        self.in_reg.fill(false);
        self.d_prev.fill(false);
        self.counter.fill(0);
        self.n2.fill(0);
        self.n1.fill(0);
        self.set_vth.fill(self.config.initial_code);
        self.vth_volts.fill(initial_volts);
        self.tick_in_frame = 0;
        self.tick = 0;
        self.frames = 0;
    }

    /// Drives the bank over whole per-channel [`Signal`]s of a common
    /// sample rate and length, zero-order-holding them onto the system
    /// clock exactly as
    /// [`DatcStream::push_signal`](crate::stream::DatcStream::push_signal)
    /// does. Returns the number of ticks executed.
    ///
    /// Ticks are cut into segments, and each segment into spans at frame
    /// boundaries. The ZOH index mapping is computed **once per segment**
    /// and shared by every channel; within a span each channel runs a
    /// tight register-resident loop with the per-channel sample gather
    /// fused into the compare kernel (AVX2 `vgatherqpd` where available),
    /// so no intermediate resampled buffer is ever materialised. Large
    /// banks run channel tiles over bounded segments per the
    /// [`TilePolicy`].
    ///
    /// # Panics
    ///
    /// Panics when the signal count differs from the channel count or the
    /// signals disagree on rate/length.
    pub fn push_signals<S: BankSink>(&mut self, signals: &[Signal], sink: &mut S) -> u64 {
        let n = self.channels();
        assert_eq!(signals.len(), n, "one signal per channel");
        let Some(first) = signals.first() else {
            return 0;
        };
        let fs = first.sample_rate();
        let len = first.len();
        assert!(
            signals.iter().all(|s| s.sample_rate() == fs),
            "signals must share a sample rate"
        );
        assert!(
            signals.iter().all(|s| s.len() == len),
            "signals must share a length"
        );
        let zoh = ZohResampler::new(fs, self.config.clock_hz);
        let n_ticks = zoh.ticks_for_len(len);

        // Source bytes per channel per tick ≈ 8 · fs / clock (ZOH walks
        // the source monotonically), plus the shared index lane. The
        // segment index buffer is bounded even without a tile policy so
        // it stays cache-resident.
        let src_per_tick = 8.0 * (fs / self.config.clock_hz).max(1.0);
        let seg_cap = self
            .segment_ticks(src_per_tick, n_ticks as usize)
            .min((self.frame_len as usize).max(2048));
        let mut idx: Vec<i64> = Vec::with_capacity(seg_cap);
        let mut done = 0u64;
        while done < n_ticks {
            let seg = seg_cap.min((n_ticks - done) as usize);
            idx.clear();
            idx.extend((0..seg).map(|i| zoh.index(done + i as u64) as i64));
            debug_assert!(idx.iter().all(|&i| (i as usize) < len));
            self.run_segment(signals, &idx, sink);
            done += seg as u64;
        }
        n_ticks
    }

    /// Ticks per segment so one tile's source working set stays within
    /// the tiling byte budget.
    fn segment_ticks(&self, src_bytes_per_tick: f64, total: usize) -> usize {
        if self.tiling.target_tile_bytes == usize::MAX {
            return total.max(1);
        }
        let tile_ch = self.tiling.max_tile_channels.min(self.channels()).max(1);
        let per_tick = src_bytes_per_tick * tile_ch as f64;
        let ticks = (self.tiling.target_tile_bytes as f64 / per_tick) as usize;
        ticks.max(self.frame_len as usize)
    }

    /// One time segment (`idx` holds its ZOH source indices): each
    /// channel tile replays the segment's frame-bounded spans, and the
    /// shared lock-step counters commit once at the end. Traversal order
    /// is the only thing the tile policy changes — results are
    /// bit-identical.
    fn run_segment<S: BankSink>(&mut self, signals: &[Signal], idx: &[i64], sink: &mut S) {
        let n = self.channels();
        let tile_ch = self.tiling.max_tile_channels.min(n).max(1);
        let (mut end_tick, mut end_tif, mut closed) = (self.tick, self.tick_in_frame, 0u64);
        for c0 in (0..n).step_by(tile_ch) {
            let c1 = (c0 + tile_ch).min(n);
            // Replay the segment's spans for this tile. The span
            // boundaries depend only on the shared frame countdown, so
            // every tile sees the identical split.
            let (mut off, mut k0, mut tif) = (0usize, self.tick, self.tick_in_frame);
            closed = 0;
            while off < idx.len() {
                let remaining = (self.frame_len - tif) as usize;
                let span = remaining.min(idx.len() - off);
                let closes_frame = span == remaining;
                for (c, signal) in (c0..c1).zip(&signals[c0..c1]) {
                    let feed = GatherFeed {
                        samples: signal.samples(),
                        idx: &idx[off..off + span],
                    };
                    self.run_channel_span(c, k0, &feed, closes_frame, sink);
                }
                k0 += span as u64;
                tif = if closes_frame { 0 } else { tif + span as u32 };
                closed += u64::from(closes_frame);
                off += span;
            }
            (end_tick, end_tif) = (k0, tif);
        }
        self.tick = end_tick;
        self.tick_in_frame = end_tif;
        self.frames += closed;
    }

    /// One channel over one frame-bounded span. All mutable per-tick
    /// state lives in locals; the SoA arrays are read once on entry and
    /// written once on exit.
    ///
    /// Bit-parallel: 64 comparator decisions pack into one word,
    /// `D_out` (the one-tick `In_reg` delay) and the rising edges come
    /// out of shifts, ones out of popcount, and the sink is touched only
    /// where an event bit is set. No data-dependent branch per tick.
    #[inline]
    fn run_channel_span<S: BankSink>(
        &mut self,
        c: usize,
        k0: u64,
        feed: &GatherFeed<'_>,
        closes_frame: bool,
        sink: &mut S,
    ) {
        let vth = self.vth_volts[c];
        let code = self.set_vth[c];
        let comp = self.comparators.as_ref().and_then(|b| b.channel(c));
        let mut in_reg = self.in_reg[c];
        let mut d_prev = self.d_prev[c];
        let mut cnt = self.counter[c];
        let ones_before = cnt;

        let plain = feed.len() - usize::from(closes_frame);
        let mut k = k0;
        let caps = self.caps;
        let mut eff = [0.0f64; 64];
        let mut i = 0usize;
        while i < plain {
            let w = (plain - i).min(64);
            let cmp = match comp {
                None => feed.pack(i, w, vth, caps),
                Some(cc) => {
                    feed.load(i, &mut eff[..w]);
                    pack_nonideal(&mut eff[..w], vth, in_reg, k, cc, caps)
                }
            };
            let mask = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
            let d = ((cmp << 1) | u64::from(in_reg)) & mask;
            let prev = (d << 1) | u64::from(d_prev);
            cnt += d.count_ones();
            let mut rising = d & !prev;
            while rising != 0 {
                let j = rising.trailing_zeros();
                sink.on_event(c, k + u64::from(j), code);
                rising &= rising - 1;
            }
            in_reg = (cmp >> (w - 1)) & 1 == 1;
            d_prev = (d >> (w - 1)) & 1 == 1;
            i += w;
            k += w as u64;
        }

        if closes_frame {
            let d = in_reg;
            in_reg = compare_one(feed.get(plain), vth, in_reg, k, comp);
            cnt += u32::from(d);
            if d && !d_prev {
                sink.on_event(c, k, code);
            }
            d_prev = d;
            let new_code = self.decide_code(cnt, self.n2[c], self.n1[c]);
            sink.on_frame(c, k, new_code);
            sink.on_span(c, feed.len() as u64, u64::from(cnt - ones_before));
            // History shift of Listing 1.
            self.n1[c] = self.n2[c];
            self.n2[c] = cnt;
            cnt = 0;
            self.set_vth[c] = new_code;
            self.vth_volts[c] = self.vth_lut[usize::from(new_code)];
        } else {
            sink.on_span(c, feed.len() as u64, u64::from(cnt - ones_before));
        }

        self.in_reg[c] = in_reg;
        self.d_prev[c] = d_prev;
        self.counter[c] = cnt;
    }

    /// The frame-boundary threshold decision (Listing 1) for one
    /// channel's history.
    #[inline]
    fn decide_code(&self, n3: u32, n2: u32, n1: u32) -> u8 {
        match self.config.arithmetic {
            Arithmetic::Fixed => predict_code_fixed(
                avr_scaled(n3, n2, n1, self.weights_q),
                &self.table,
                self.max_code,
            ),
            Arithmetic::Float => predict_code_float(
                avr_float(n3, n2, n1, self.config.weights),
                &self.table,
                self.max_code,
            ),
        }
    }
}

/// One comparator decision, replicating
/// [`Comparator::compare`] expression for expression
/// (`state` is the last raw decision — which the bank stores in
/// `In_reg`; noise is drawn at lane position `k`, the absolute tick).
#[inline]
fn compare_one(x: f64, vth: f64, state: bool, k: u64, comp: Option<ChannelComp>) -> bool {
    match comp {
        None => x > vth,
        Some(cc) => {
            let noise = if cc.sigma > 0.0 {
                cc.sigma * gaussian_at(cc.seed, k)
            } else {
                0.0
            };
            let eff = x + cc.offset + noise;
            let threshold = if state { vth - cc.half } else { vth + cc.half };
            eff > threshold
        }
    }
}

/// Packs one block of ≤ 64 non-ideal comparator decisions. `block`
/// holds the raw samples on entry (they are rewritten in place into the
/// effective inputs `x + offset + noise`); the block's first tick is
/// absolute tick `k`, and `state` carries the hysteresis state in.
///
/// The two hysteresis thresholds become two packed compares, and the
/// sequential state recurrence `d_j = hi_j | (lo_j & d_{j-1})`
/// collapses into the carry chain of a single 64-bit add (see
/// [`hyst_resolve`]).
#[inline]
fn pack_nonideal(
    block: &mut [f64],
    vth: f64,
    state: bool,
    k: u64,
    cc: ChannelComp,
    caps: SimdCaps,
) -> u64 {
    let w = block.len();
    if cc.sigma > 0.0 {
        for (j, e) in block.iter_mut().enumerate() {
            let noise = cc.sigma * gaussian_at(cc.seed, k + j as u64);
            *e = *e + cc.offset + noise;
        }
    } else {
        for e in block.iter_mut() {
            *e = *e + cc.offset + 0.0;
        }
    }
    // `vth + half` with half = 0 is bit-comparable to `vth - half`, so
    // the hysteresis-free case needs only the one packed compare.
    let hi = pack_block(block, vth + cc.half, caps);
    if cc.half > 0.0 {
        let lo = pack_block(block, vth - cc.half, caps);
        hyst_resolve(hi, lo, state, w)
    } else {
        hi
    }
}

/// Resolves the hysteresis recurrence `d_j = hi_j | (lo_j & d_{j-1})`
/// (with `d_{-1}` = `carry_in`) for a whole word in O(1).
///
/// With `g = hi` (generate) and `p = lo` (propagate) — and `hi ⊆ lo`,
/// which holds because `vth + h/2 ≥ vth − h/2` — the recurrence is
/// exactly the carry chain of the addition `g + p + carry_in`:
/// `c_{j+1} = maj(g_j, p_j, c_j) = g_j | (p_j & c_j)`. One 64-bit add
/// recovers all 64 sequential decisions.
#[inline]
fn hyst_resolve(hi: u64, lo: u64, carry_in: bool, w: usize) -> u64 {
    debug_assert_eq!(hi & !lo, 0, "generate must imply propagate");
    let total = hi as u128 + lo as u128 + u128::from(carry_in);
    let sum = total as u64;
    // bit j of `carries` = carry INTO bit j = d_{j-1}
    let carries = sum ^ hi ^ lo;
    let carry_out = (total >> 64) as u64;
    let d = (carries >> 1) | (carry_out << 63);
    if w == 64 {
        d
    } else {
        d & ((1u64 << w) - 1)
    }
}

/// Packs `vals.len() ≤ 64` strict comparator decisions
/// (`vals[j] > vth`, bit `j` = tick `j`) into one word.
#[inline]
fn pack_block(vals: &[f64], vth: f64, caps: SimdCaps) -> u64 {
    debug_assert!(vals.len() <= 64);
    #[cfg(target_arch = "x86_64")]
    if caps.avx {
        if let Ok(chunk) = <&[f64; 64]>::try_from(vals) {
            // SAFETY: AVX support confirmed at runtime by `SimdCaps`.
            return unsafe { pack64_avx(chunk, vth) };
        }
    }
    let _ = caps;
    let mut cmp = 0u64;
    for (j, &x) in vals.iter().enumerate() {
        cmp |= u64::from(x > vth) << j;
    }
    cmp
}

/// AVX word-pack: 4-wide ordered-quiet greater-than compares folded into
/// a bitmask through `movmskpd`. `_CMP_GT_OQ` matches Rust's `>` exactly
/// (strict, `false` against NaN), so this is bit-identical to the scalar
/// path.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx")]
unsafe fn pack64_avx(chunk: &[f64; 64], vth: f64) -> u64 {
    use std::arch::x86_64::{_mm256_cmp_pd, _mm256_loadu_pd, _mm256_movemask_pd, _mm256_set1_pd};
    const GT_OQ: i32 = 0x1e; // _CMP_GT_OQ
    let t = _mm256_set1_pd(vth);
    let mut cmp = 0u64;
    let mut j = 0;
    while j < 64 {
        // SAFETY: `j + 4 <= 64`, so the load stays inside `chunk`.
        let v = _mm256_loadu_pd(chunk.as_ptr().add(j));
        let m = _mm256_cmp_pd::<GT_OQ>(v, t);
        cmp |= (_mm256_movemask_pd(m) as u64) << j;
        j += 4;
    }
    cmp
}

/// AVX2 fused gather + compare: 64 ZOH indices resolved through
/// `vgatherqpd` straight into `cmp_pd` + `movmskpd` bitmask lanes — the
/// samples never round-trip through a scratch buffer. Bit-identical to
/// the scalar gather (`_CMP_GT_OQ` = strict `>`, `false` against NaN).
///
/// # Safety
///
/// Caller must have verified AVX2 support and that every index in
/// `idx[..64]` is in bounds for `samples`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn pack64_gather_avx2(samples: *const f64, idx: &[i64], vth: f64) -> u64 {
    use std::arch::x86_64::{
        __m256i, _mm256_cmp_pd, _mm256_i64gather_pd, _mm256_loadu_si256, _mm256_movemask_pd,
        _mm256_set1_pd,
    };
    const GT_OQ: i32 = 0x1e; // _CMP_GT_OQ
    debug_assert!(idx.len() >= 64);
    let t = _mm256_set1_pd(vth);
    let mut cmp = 0u64;
    let mut j = 0;
    while j < 64 {
        // SAFETY: `j + 4 <= 64 <= idx.len()`; indices validated by the
        // caller against the sample buffer.
        let vi = _mm256_loadu_si256(idx.as_ptr().add(j) as *const __m256i);
        let v = _mm256_i64gather_pd::<8>(samples, vi);
        let m = _mm256_cmp_pd::<GT_OQ>(v, t);
        cmp |= (_mm256_movemask_pd(m) as u64) << j;
        j += 4;
    }
    cmp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FrameSize;
    use crate::encoder::CountingSink;
    use crate::stream::DatcStream;

    /// Everything the bank reports per channel: events `(tick, code)`,
    /// frame decisions `(tick, set_vth)`, ones and ticks.
    #[derive(Debug, PartialEq, Eq)]
    struct BankRec {
        events: Vec<Vec<(u64, u8)>>,
        frames: Vec<Vec<(u64, u8)>>,
        ones: Vec<u64>,
        ticks: Vec<u64>,
    }

    impl BankRec {
        fn new(channels: usize) -> Self {
            BankRec {
                events: vec![Vec::new(); channels],
                frames: vec![Vec::new(); channels],
                ones: vec![0; channels],
                ticks: vec![0; channels],
            }
        }

        /// The reference: N independent single-channel streams (carrying
        /// `comparators`, when given) over the same clock-rate samples,
        /// read through `tick` for events and frame decisions and through
        /// a [`CountingSink`] for ones and ticks.
        fn reference(
            config: DatcConfig,
            per_channel: &[Vec<f64>],
            comparators: Option<&[Comparator]>,
        ) -> Self {
            let stream = |c: usize| {
                let s = DatcStream::new(config).unwrap();
                match comparators {
                    Some(comps) => s.with_comparator(comps[c].clone()),
                    None => s,
                }
            };
            let mut rec = BankRec::new(per_channel.len());
            for (c, samples) in per_channel.iter().enumerate() {
                let mut s = stream(c);
                for (k, &x) in (0u64..).zip(samples) {
                    let step = s.tick(x);
                    if let Some(e) = step.event {
                        rec.events[c].push((e.tick, e.vth_code.unwrap()));
                    }
                    if step.end_of_frame {
                        rec.frames[c].push((k, step.set_vth));
                    }
                }
                let mut counts = CountingSink::default();
                stream(c).push_chunk(samples, &mut counts);
                (rec.ones[c], rec.ticks[c]) = (counts.ones, counts.ticks);
            }
            rec
        }
    }

    impl BankSink for BankRec {
        fn on_event(&mut self, channel: usize, tick: u64, code: u8) {
            self.events[channel].push((tick, code));
        }

        fn on_frame(&mut self, channel: usize, tick: u64, set_vth: u8) {
            self.frames[channel].push((tick, set_vth));
        }

        fn on_span(&mut self, channel: usize, ticks: u64, ones: u64) {
            self.ticks[channel] += ticks;
            self.ones[channel] += ones;
        }
    }

    /// `inputs` as clock-rate signals: at `fs = clock_hz` the ZOH maps
    /// tick `k` to sample `k`.
    fn clock_rate_signals(config: &DatcConfig, inputs: &[Vec<f64>]) -> Vec<Signal> {
        inputs
            .iter()
            .map(|samples| Signal::from_samples(samples.clone(), config.clock_hz))
            .collect()
    }

    fn test_inputs(channels: usize, ticks: usize) -> Vec<Vec<f64>> {
        (0..channels)
            .map(|c| {
                (0..ticks)
                    .map(|k| {
                        let t = k as f64 * 0.07 + c as f64;
                        (0.2 + 0.15 * c as f64) * (t.sin() * (t * 0.31).cos()).abs()
                    })
                    .collect()
            })
            .collect()
    }

    /// A mixed bag of non-ideal comparators: offset-only, hysteresis,
    /// noise, everything, and one ideal straggler.
    fn test_comparators(channels: usize) -> Vec<Comparator> {
        (0..channels)
            .map(|c| match c % 5 {
                0 => Comparator::ideal().with_offset(0.013),
                1 => Comparator::ideal().with_hysteresis(0.05),
                2 => Comparator::ideal().with_noise(0.02, 11 + c as u64),
                3 => Comparator::ideal()
                    .with_offset(-0.008)
                    .with_hysteresis(0.03)
                    .with_noise(0.015, 77 + c as u64),
                _ => Comparator::ideal(),
            })
            .collect()
    }

    #[test]
    fn bank_is_bit_exact_with_independent_streams() {
        for (frame, arith) in [
            (FrameSize::F100, Arithmetic::Fixed),
            (FrameSize::F200, Arithmetic::Float),
            (FrameSize::F400, Arithmetic::Fixed),
        ] {
            let config = DatcConfig::paper()
                .with_frame_size(frame)
                .with_arithmetic(arith);
            let inputs = test_inputs(5, 3000);
            let expected = BankRec::reference(config, &inputs, None);
            let signals = clock_rate_signals(&config, &inputs);
            // segment and tile boundaries that cut frames must not matter
            for tiling in [
                TilePolicy::auto(),
                TilePolicy::none(),
                TilePolicy {
                    max_tile_channels: 2,
                    target_tile_bytes: 4096,
                },
            ] {
                let mut bank = BankStream::new(config, 5).unwrap().with_tiling(tiling);
                let mut rec = BankRec::new(5);
                assert_eq!(bank.push_signals(&signals, &mut rec), 3000);
                assert_eq!(rec, expected, "frame {frame:?} arith {arith:?} {tiling:?}");
            }
        }
    }

    #[test]
    fn nonideal_bank_is_bit_exact_with_independent_streams() {
        let config = DatcConfig::paper();
        let inputs = test_inputs(5, 2700);
        let comps = test_comparators(5);
        let expected = BankRec::reference(config, &inputs, Some(&comps));
        let signals = clock_rate_signals(&config, &inputs);
        for simd in [SimdPolicy::Auto, SimdPolicy::ForceScalar] {
            let mut bank = BankStream::new(config, 5)
                .unwrap()
                .with_comparators(&comps)
                .unwrap()
                .with_simd_policy(simd);
            assert!(bank.has_nonideal_comparators());
            let mut rec = BankRec::new(5);
            bank.push_signals(&signals, &mut rec);
            assert_eq!(rec, expected, "{simd:?}");
        }
    }

    #[test]
    fn all_ideal_comparator_slice_keeps_the_ideal_kernel() {
        let bank = BankStream::new(DatcConfig::paper(), 3)
            .unwrap()
            .with_comparators(&vec![Comparator::ideal(); 3])
            .unwrap();
        assert!(!bank.has_nonideal_comparators());
        let err = BankStream::new(DatcConfig::paper(), 3)
            .unwrap()
            .with_comparators(&vec![Comparator::ideal(); 2]);
        assert!(err.is_err(), "length mismatch rejected");
        for bad in [
            Comparator::ideal().with_offset(f64::NAN),
            Comparator::ideal().with_hysteresis(f64::INFINITY),
            Comparator::ideal().with_noise(f64::INFINITY, 1),
        ] {
            let err = BankStream::new(DatcConfig::paper(), 1)
                .unwrap()
                .with_comparators(std::slice::from_ref(&bad));
            assert!(err.is_err(), "non-finite parameter rejected: {bad:?}");
        }
    }

    #[test]
    fn tiling_policies_are_bit_identical() {
        let config = DatcConfig::paper();
        let inputs = test_inputs(40, 2300);
        let signals = clock_rate_signals(&config, &inputs);
        let reference = {
            let mut bank = BankStream::new(config, 40)
                .unwrap()
                .with_tiling(TilePolicy::none());
            let mut sink = BankEventSink::new(config.clock_hz, 40);
            bank.push_signals(&signals, &mut sink);
            (bank.ticks(), bank.frames(), sink.into_parts())
        };
        for tiling in [
            TilePolicy::auto(),
            TilePolicy {
                max_tile_channels: 3,
                target_tile_bytes: 4096,
            },
            TilePolicy {
                max_tile_channels: 64,
                target_tile_bytes: 1 << 20,
            },
        ] {
            let mut bank = BankStream::new(config, 40).unwrap().with_tiling(tiling);
            let mut sink = BankEventSink::new(config.clock_hz, 40);
            bank.push_signals(&signals, &mut sink);
            assert_eq!(
                (bank.ticks(), bank.frames(), sink.into_parts()),
                reference,
                "{tiling:?}"
            );
        }
    }

    #[test]
    fn hyst_resolve_matches_the_sequential_recurrence() {
        let mut lo = 0x9E3779B97F4A7C15u64;
        for _ in 0..200 {
            // xorshift-scramble a propagate word, carve a generate subset
            lo ^= lo << 13;
            lo ^= lo >> 7;
            lo ^= lo << 17;
            let hi = lo & lo.rotate_left(11) & lo.rotate_right(5);
            for carry in [false, true] {
                for w in [1usize, 3, 63, 64] {
                    let fast = hyst_resolve(hi, lo, carry, w);
                    let mut state = carry;
                    let mut slow = 0u64;
                    for j in 0..w {
                        state = (hi >> j) & 1 == 1 || ((lo >> j) & 1 == 1 && state);
                        slow |= u64::from(state) << j;
                    }
                    assert_eq!(fast, slow, "hi {hi:#x} lo {lo:#x} carry {carry} w {w}");
                }
            }
        }
    }

    #[test]
    fn push_signals_matches_per_channel_push_signal() {
        use crate::encoder::EventSink;
        let config = DatcConfig::paper();
        let signals: Vec<Signal> = (0..4)
            .map(|c| {
                Signal::from_fn(2500.0, 3.0, |t| {
                    ((t * (40.0 + c as f64 * 13.0)).sin() * (t * 3.0).cos()).abs() * 0.5
                })
            })
            .collect();

        for simd in [SimdPolicy::Auto, SimdPolicy::ForceScalar] {
            let mut bank = BankStream::new(config, 4).unwrap().with_simd_policy(simd);
            let mut sink = BankEventSink::new(config.clock_hz, 4);
            let n_ticks = bank.push_signals(&signals, &mut sink);
            assert_eq!(n_ticks, bank.ticks());

            for (c, s) in signals.iter().enumerate() {
                let mut solo = DatcStream::new(config).unwrap();
                let mut es = EventSink::new(config.clock_hz);
                let solo_ticks = solo.push_signal(s, &mut es);
                assert_eq!(solo_ticks, n_ticks);
                assert_eq!(sink.events(c), es.events(), "channel {c} {simd:?}");
            }
        }
    }

    #[test]
    fn fused_gather_and_scalar_gather_agree_with_nonideal_comparators() {
        use crate::encoder::EventSink;
        let config = DatcConfig::paper();
        let comps = test_comparators(6);
        let signals: Vec<Signal> = (0..6)
            .map(|c| {
                Signal::from_fn(2500.0, 2.0, |t| {
                    ((t * (35.0 + c as f64 * 11.0)).sin() * (t * 2.1).cos()).abs() * 0.45
                })
            })
            .collect();

        let mut outputs = Vec::new();
        for simd in [SimdPolicy::Auto, SimdPolicy::ForceScalar] {
            let mut bank = BankStream::new(config, 6)
                .unwrap()
                .with_comparators(&comps)
                .unwrap()
                .with_simd_policy(simd);
            let mut sink = BankEventSink::new(config.clock_hz, 6);
            bank.push_signals(&signals, &mut sink);
            outputs.push(sink.into_parts());
        }
        assert_eq!(outputs[0], outputs[1], "fused vs scalar gather");

        // and both match the solo streams
        for (c, s) in signals.iter().enumerate() {
            let mut solo = DatcStream::new(config)
                .unwrap()
                .with_comparator(comps[c].clone());
            let mut es = EventSink::new(config.clock_hz);
            solo.push_signal(s, &mut es);
            assert_eq!(outputs[0].0[c], es.events(), "channel {c}");
        }
    }

    #[test]
    fn reset_restores_power_on_state() {
        let config = DatcConfig::paper();
        let mut bank = BankStream::new(config, 3).unwrap();
        let mut sink = BankEventSink::new(config.clock_hz, 3);
        let signals = clock_rate_signals(&config, &test_inputs(3, 900));
        bank.push_signals(&signals, &mut sink);
        assert!(bank.ticks() == 900);
        bank.reset();
        assert_eq!(bank.ticks(), 0);
        assert_eq!(bank.frames(), 0);
        assert!(bank.vth_codes().iter().all(|&c| c == config.initial_code));
    }

    #[test]
    fn reset_replays_noisy_banks_identically() {
        let config = DatcConfig::paper();
        let comps = test_comparators(4);
        let signals = clock_rate_signals(&config, &test_inputs(4, 1100));
        let mut bank = BankStream::new(config, 4)
            .unwrap()
            .with_comparators(&comps)
            .unwrap();
        let mut first = BankEventSink::new(config.clock_hz, 4);
        bank.push_signals(&signals, &mut first);
        bank.reset();
        let mut again = BankEventSink::new(config.clock_hz, 4);
        bank.push_signals(&signals, &mut again);
        assert_eq!(first.into_parts(), again.into_parts());
    }

    #[test]
    fn zero_channels_rejected() {
        assert!(BankStream::new(DatcConfig::paper(), 0).is_err());
    }

    #[test]
    fn simd_and_scalar_word_packing_agree() {
        let mut chunk = [0.0f64; 64];
        for (j, x) in chunk.iter_mut().enumerate() {
            *x = ((j as f64 * 0.37).sin() * 0.6).abs();
        }
        // exercise equality, boundaries and extremes
        chunk[7] = 0.5;
        chunk[8] = f64::INFINITY;
        chunk[9] = 0.0;
        chunk[10] = f64::NAN;
        let scalar_caps = SimdCaps {
            avx: false,
            avx2: false,
        };
        let auto_caps = SimdCaps::detect(SimdPolicy::Auto);
        for vth in [0.0, 0.062_5, 0.5, 0.937_5] {
            for w in [64usize, 63, 17, 1] {
                let scalar = pack_block(&chunk[..w], vth, scalar_caps);
                let dispatched = pack_block(&chunk[..w], vth, auto_caps);
                assert_eq!(scalar, dispatched, "vth {vth} w {w}");
            }
        }
        // fused gather against scalar gather on a strided index pattern
        let samples: Vec<f64> = (0..512).map(|i| ((i as f64) * 0.11).sin().abs()).collect();
        let idx: Vec<i64> = (0..64).map(|j| (j * 7 + 3) % 512).collect();
        let feed = GatherFeed {
            samples: &samples,
            idx: &idx,
        };
        for vth in [0.1, 0.5, 0.9] {
            assert_eq!(
                feed.pack(0, 64, vth, scalar_caps),
                feed.pack(0, 64, vth, auto_caps),
                "gather vth {vth}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "one signal per channel")]
    fn signal_count_mismatch_panics() {
        let config = DatcConfig::paper();
        let mut bank = BankStream::new(config, 3).unwrap();
        let mut sink = BankEventSink::new(config.clock_hz, 3);
        let signals = vec![Signal::from_samples(vec![0.0; 16], config.clock_hz); 2];
        bank.push_signals(&signals, &mut sink);
    }
}
