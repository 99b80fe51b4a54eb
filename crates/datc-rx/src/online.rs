//! Streaming (online) force reconstruction.
//!
//! The batch reconstructors in [`crate::reconstruct`] and the rate
//! estimators in [`crate::windowing`] need the whole
//! [`EventStream`](datc_core::event::EventStream)
//! before they produce a single sample. A telemetry receiver decoding a
//! live wire cannot wait 20 seconds: it gets events one at a time and
//! must emit force samples with bounded latency. This module provides
//! that: one streaming reconstructor, [`AnyOnlineReconstructor`], for
//! each of the four estimators [`OnlineReconSelect`] names — sliding
//! rate, EWMA rate, threshold-code track and hybrid.
//!
//! ## The watermark contract
//!
//! Output samples live on the grid `t_k = k / output_fs`. Sample `k` can
//! only be emitted once the receiver knows no future event will carry a
//! timestamp `<= t_k`; events alone cannot prove that (silence is
//! ambiguous), so progress is driven by [`advance_to`]: the caller
//! declares a *watermark* — a lower bound on every future event time —
//! and all samples with `t_k` strictly below it are emitted. A decoder
//! naturally advances the watermark to the timestamp of each decoded
//! event (events arrive in time order), so emission lags the newest
//! event by less than one output period plus the inter-event gap.
//!
//! [`advance_to`]: OnlineReconstructor::advance_to
//!
//! ## Equivalence
//!
//! On a lossless, in-order feed closed with
//! [`finish`](OnlineReconstructor::finish), the emitted samples are
//! bit-identical to [`sliding_rate`](crate::windowing::sliding_rate),
//! [`ewma_rate`](crate::windowing::ewma_rate),
//! [`ThresholdTrackReconstructor`](crate::reconstruct::ThresholdTrackReconstructor)
//! and [`HybridReconstructor`](crate::reconstruct::HybridReconstructor)
//! over the same stream. One per-sample loop absorbs every queued event
//! with `time <= t_k` — the batch comparison — and then computes the
//! sample with the batch loop's floating-point operations in the same
//! order (unit-tested here, property-tested at the workspace level). The
//! batch estimators keep loops of their own: they are the independent
//! reference those tests compare against.

use datc_core::dac::Dac;
use datc_signal::filter::{Filter, MovingAverage};
use std::collections::VecDeque;

/// A force reconstructor that accepts events incrementally and emits
/// output samples as soon as they are determined. Implemented by
/// [`AnyOnlineReconstructor`].
///
/// Lifecycle: [`push_coded`](OnlineReconstructor::push_coded) /
/// [`advance_to`](OnlineReconstructor::advance_to) interleaved freely,
/// then one [`finish`](OnlineReconstructor::finish); emitted samples are
/// collected with [`drain_into`](OnlineReconstructor::drain_into) at any
/// point (example on [`AnyOnlineReconstructor`]).
pub trait OnlineReconstructor {
    /// Feeds one event with its D-ATC threshold code (`None` for a plain
    /// ATC spike). Feed order defines the estimate, exactly as element
    /// order does for the batch versions. Estimators that only use event
    /// timing (rate, EWMA) ignore the code.
    fn push_coded(&mut self, time_s: f64, vth_code: Option<u8>);

    /// Declares that every future event will have `time > watermark_s`,
    /// releasing all samples on the output grid strictly below the
    /// watermark.
    fn advance_to(&mut self, watermark_s: f64);

    /// Closes the observation window at `duration_s` and emits every
    /// remaining sample: `floor(duration_s * output_fs)` in total, as the
    /// batch versions emit. Without the cap set up front by
    /// [`cap_duration`](AnyOnlineReconstructor::cap_duration), a
    /// watermark inside the last partial output period has already
    /// released sample `floor(duration_s * output_fs)`, and the trace
    /// ends with `floor(duration_s * output_fs) + 1` samples.
    fn finish(&mut self, duration_s: f64);

    /// Moves all samples emitted so far into `out` (appending), clearing
    /// the internal buffer.
    fn drain_into(&mut self, out: &mut Vec<f64>);

    /// Total samples emitted over the reconstructor's lifetime.
    fn emitted(&self) -> usize;
}

/// How a hybrid finds its normalisation rate `rate₀`.
///
/// The batch hybrid normalises by the stream's *mean* event rate, which
/// a streaming receiver only knows once the session closes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Rate0 {
    /// Combined samples are withheld until
    /// [`finish`](OnlineReconstructor::finish), where `rate₀` is computed
    /// from the exact event count and duration — **bit-identical** to
    /// the batch hybrid over the same feed, at the price of emission
    /// latency and `O(duration · output_fs)` staged samples.
    Deferred,
    /// A caller-supplied `rate₀` (events/s) — from calibration, the
    /// session header or a previous session: samples stream out with
    /// bounded latency.
    Pinned(f64),
    /// `rate₀` is measured over the first given seconds of the live
    /// session and pinned once the watermark passes them: emission lags
    /// by at most that window, then streams with bounded latency. On a
    /// non-stationary workload this tracks the session's own operating
    /// point where a rate pinned from a *different* workload would bias
    /// every sample; a session that ends inside the window falls back to
    /// the deferred exact mean.
    Calibrate(f64),
}

/// Declarative per-channel reconstructor choice — what a gateway stores
/// in its per-session config and [`build`](OnlineReconSelect::build)s
/// once the session header announces the channel count.
///
/// | Variant | Uses | Loss behaviour |
/// |---|---|---|
/// | `Rate` | event times | rate dips over the hole, recovers in one window |
/// | `Ewma` | event times | level decays over the hole, recovers in ~τ |
/// | `ThresholdTrack` | Vth codes | holds last code, re-locks on first surviving event |
/// | `Hybrid` | both | threshold hold + rate dip, weighted by α |
///
/// The threshold track's hold-last-code rule over a declared gap
/// (dropped datagram, reorder-window overflow) is the zero-order hold it
/// applies between events on a clean feed. The paper's own robustness
/// argument ("artifacts effect is similar to pulse missing") makes it
/// sound: the DTC re-transmits its absolute code with *every* event, so
/// the track re-locks on the first event after the hole and the error
/// never accumulates.
///
/// # Example
///
/// ```
/// use datc_rx::online::{OnlineReconSelect, OnlineReconstructor};
///
/// let mut rx = OnlineReconSelect::paper_threshold_track().build(100.0);
/// rx.push_coded(0.1, Some(8));
/// rx.finish(1.0);
/// assert_eq!(rx.emitted(), 100);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum OnlineReconSelect {
    /// Sliding-window event rate, the online
    /// [`sliding_rate`](crate::windowing::sliding_rate).
    Rate {
        /// Sliding-window length, seconds.
        window_s: f64,
    },
    /// Exponentially-weighted rate, the online
    /// [`ewma_rate`](crate::windowing::ewma_rate).
    Ewma {
        /// Smoothing time constant, seconds.
        tau_s: f64,
    },
    /// D-ATC threshold-code track, the online
    /// [`ThresholdTrackReconstructor`](crate::reconstruct::ThresholdTrackReconstructor).
    ThresholdTrack {
        /// DAC decoding the received codes.
        dac: Dac,
        /// Moving-average smoothing window, seconds.
        smooth_window_s: f64,
    },
    /// Threshold track + rate refinement
    /// `est = (vth + α·lsb·(rate/rate₀ − ½)).max(0)`, the online
    /// [`HybridReconstructor`](crate::reconstruct::HybridReconstructor).
    Hybrid {
        /// DAC decoding the received codes.
        dac: Dac,
        /// Moving-average smoothing window, seconds.
        smooth_window_s: f64,
        /// Rate sliding-window length, seconds.
        rate_window_s: f64,
        /// Rate-refinement weight, DAC-LSB units.
        alpha: f64,
        /// How the normalisation rate is found.
        rate0: Rate0,
    },
}

impl Default for OnlineReconSelect {
    /// The experiments' streaming default: 250 ms sliding rate.
    fn default() -> Self {
        OnlineReconSelect::Rate { window_s: 0.25 }
    }
}

impl OnlineReconSelect {
    /// The paper's D-ATC receiver: 4-bit 1 V DAC, 750 ms smoothing.
    pub fn paper_threshold_track() -> Self {
        OnlineReconSelect::ThresholdTrack {
            dac: Dac::paper(),
            smooth_window_s: 0.75,
        }
    }

    /// The experiments' default hybrid (deferred `rate₀`).
    pub fn paper_hybrid() -> Self {
        OnlineReconSelect::paper_hybrid_with(Rate0::Deferred)
    }

    /// The default hybrid with `rate₀` auto-calibrated from the first
    /// `calib_s` seconds of each session — the long-running-hub
    /// configuration: bounded staging, and the normalisation tracks
    /// each session's own workload.
    pub fn paper_hybrid_auto_rate0(calib_s: f64) -> Self {
        OnlineReconSelect::paper_hybrid_with(Rate0::Calibrate(calib_s))
    }

    /// Paper DAC, 750 ms windows, α = 1.
    fn paper_hybrid_with(rate0: Rate0) -> Self {
        OnlineReconSelect::Hybrid {
            dac: Dac::paper(),
            smooth_window_s: 0.75,
            rate_window_s: 0.75,
            alpha: 1.0,
            rate0,
        }
    }

    /// Checks everything [`build`](OnlineReconSelect::build) requires at
    /// `output_fs`: the output rate and every window, time constant,
    /// pinned `rate₀` and calibration window must be positive and
    /// finite.
    ///
    /// # Errors
    ///
    /// Names the first setting that is not.
    pub fn validate(&self, output_fs: f64) -> Result<(), String> {
        let check = |name: &str, v: f64| {
            if v > 0.0 && v.is_finite() {
                Ok(())
            } else {
                Err(format!("{name} must be positive and finite, got {v}"))
            }
        };
        check("output_fs", output_fs)?;
        match self {
            OnlineReconSelect::Rate { window_s } => check("rate window_s", *window_s),
            OnlineReconSelect::Ewma { tau_s } => check("ewma tau_s", *tau_s),
            OnlineReconSelect::ThresholdTrack {
                smooth_window_s, ..
            } => check("threshold-track smooth_window_s", *smooth_window_s),
            OnlineReconSelect::Hybrid {
                smooth_window_s,
                rate_window_s,
                rate0,
                ..
            } => {
                check("hybrid smooth_window_s", *smooth_window_s)?;
                check("hybrid rate_window_s", *rate_window_s)?;
                match rate0 {
                    Rate0::Deferred => Ok(()),
                    Rate0::Pinned(hz) => check("hybrid pinned rate0", *hz),
                    Rate0::Calibrate(s) => check("hybrid calibration window", *s),
                }
            }
        }
    }

    /// Instantiates one reconstructor emitting at `output_fs` Hz.
    ///
    /// # Panics
    ///
    /// Panics with the [`validate`](OnlineReconSelect::validate) error
    /// when a setting is not positive and finite.
    pub fn build(&self, output_fs: f64) -> AnyOnlineReconstructor {
        if let Err(reason) = self.validate(output_fs) {
            panic!("invalid reconstructor: {reason}");
        }
        let estimator = match self {
            OnlineReconSelect::Rate { window_s } => Estimator::Rate(Window::new(*window_s)),
            OnlineReconSelect::Ewma { tau_s } => Estimator::Ewma(Ewma {
                tau_s: *tau_s,
                decay: (-(1.0 / output_fs) / tau_s).exp(),
                level: 0.0,
                impulses: 0.0,
            }),
            OnlineReconSelect::ThresholdTrack {
                dac,
                smooth_window_s,
            } => Estimator::Track(Hold::new(dac, *smooth_window_s, output_fs)),
            OnlineReconSelect::Hybrid {
                dac,
                smooth_window_s,
                rate_window_s,
                alpha,
                rate0,
            } => Estimator::Hybrid(Box::new(Hybrid {
                hold: Hold::new(dac, *smooth_window_s, output_fs),
                window: Window::new(*rate_window_s),
                weight: alpha * dac.lsb(),
                rate0: *rate0,
                calib_events: 0,
                events_seen: 0,
                staged: Vec::new(),
            })),
        };
        AnyOnlineReconstructor {
            grid: Grid {
                fs: output_fs,
                next_k: 0,
                limit: usize::MAX,
                queue: VecDeque::new(),
                emitted: Vec::new(),
            },
            estimator,
        }
    }
}

/// The streaming reconstructor [`OnlineReconSelect::build`] returns:
/// the output grid, one queue of pushed events, the emission buffer and
/// the chosen estimator's state.
///
/// Memory is the queue of events not yet absorbed by a sample, the rate
/// window (`O(window · rate)`), the smoothing window (`O(window ·
/// output_fs)`) and, for a hybrid whose `rate₀` is not yet known, the
/// staged samples; every sample costs amortised `O(1)`.
///
/// # Example
///
/// ```
/// use datc_core::event::{Event, EventStream};
/// use datc_rx::online::{OnlineReconSelect, OnlineReconstructor};
/// use datc_rx::windowing::sliding_rate;
///
/// let ev: Vec<Event> = (0..90)
///     .map(|i| Event { tick: i, time_s: i as f64 * 0.02, vth_code: Some((i % 16) as u8) })
///     .collect();
/// let stream = EventStream::new(ev, 1000.0, 2.0);
/// let mut rx = OnlineReconSelect::Rate { window_s: 0.25 }.build(100.0);
/// let mut force = Vec::new();
/// for e in &stream {
///     rx.push_coded(e.time_s, e.vth_code);
///     rx.advance_to(e.time_s); // releases every sample before `e`
///     rx.drain_into(&mut force);
/// }
/// assert_eq!(force.len(), 178); // every t_k below the last event, 1.78 s
/// rx.finish(stream.duration_s());
/// rx.drain_into(&mut force);
/// assert_eq!(force, sliding_rate(&stream, 0.25, 100.0).samples()); // bit-exact
/// ```
#[derive(Debug, Clone)]
pub struct AnyOnlineReconstructor {
    grid: Grid,
    estimator: Estimator,
}

/// The output grid, the queue of pushed events and the emission buffer.
#[derive(Debug, Clone)]
struct Grid {
    fs: f64,
    /// Index of the next undetermined sample on the grid.
    next_k: usize,
    /// `floor(duration · fs)` once known; `usize::MAX` while streaming.
    limit: usize,
    /// Events `(time, code)` pushed but not yet absorbed by a sample.
    queue: VecDeque<(f64, Option<u8>)>,
    emitted: Vec<f64>,
}

/// The per-sample state of one estimator.
#[derive(Debug, Clone)]
enum Estimator {
    Rate(Window),
    Ewma(Ewma),
    Track(Hold),
    /// Boxed: it carries both other states and the `rate₀` bookkeeping.
    Hybrid(Box<Hybrid>),
}

/// One estimator's two steps inside [`Grid::run`].
trait Kernel {
    /// Takes one queued event with `time <= t_k`.
    fn absorb(&mut self, time: f64, code: Option<u8>);

    /// The sample at grid time `t` once every event at or before `t` is
    /// absorbed; `None` when a hybrid stages it for an unknown `rate₀`.
    fn sample(&mut self, t: f64) -> Option<f64>;
}

/// The absorbed event times inside the sliding window `(t − window_s, t]`.
#[derive(Debug, Clone)]
struct Window {
    window_s: f64,
    times: VecDeque<f64>,
}

impl Window {
    fn new(window_s: f64) -> Self {
        Window {
            window_s,
            times: VecDeque::new(),
        }
    }

    /// The rate at grid time `t`: drops the times `<= t − window_s`, the
    /// batch sweep's comparison, and counts the rest.
    fn rate(&mut self, t: f64) -> f64 {
        while self
            .times
            .front()
            .is_some_and(|&front| front <= t - self.window_s)
        {
            self.times.pop_front();
        }
        self.times.len() as f64 / self.window_s
    }
}

impl Kernel for Window {
    fn absorb(&mut self, time: f64, _: Option<u8>) {
        self.times.push_back(time);
    }

    fn sample(&mut self, t: f64) -> Option<f64> {
        Some(self.rate(t))
    }
}

/// The EWMA rate level and the events absorbed for the next sample.
#[derive(Debug, Clone)]
struct Ewma {
    tau_s: f64,
    /// The batch loop's per-sample decay `exp(−dt/τ)`.
    decay: f64,
    level: f64,
    impulses: f64,
}

impl Kernel for Ewma {
    fn absorb(&mut self, _: f64, _: Option<u8>) {
        self.impulses += 1.0;
    }

    fn sample(&mut self, _: f64) -> Option<f64> {
        self.level = self.decay * self.level + self.impulses / self.tau_s;
        self.impulses = 0.0;
        Some(self.level)
    }
}

/// Zero-order hold of the received threshold codes, then the moving
/// average.
#[derive(Debug, Clone)]
struct Hold {
    dac: Dac,
    /// The held DAC voltage (0 before the first coded event).
    volts: f64,
    ma: MovingAverage,
}

impl Hold {
    fn new(dac: &Dac, smooth_window_s: f64, fs: f64) -> Self {
        // Same rounding as the batch reconstructor builds its
        // MovingAverage with — part of the bit-exactness contract.
        let n_win = ((smooth_window_s * fs).round() as usize).max(1);
        Hold {
            dac: dac.clone(),
            volts: 0.0,
            ma: MovingAverage::new(n_win),
        }
    }
}

impl Kernel for Hold {
    /// A code moves the hold; an event without one, or with a code
    /// outside the DAC, leaves it, exactly like the batch code track.
    fn absorb(&mut self, _: f64, code: Option<u8>) {
        if let Some(code) = code {
            self.volts = self.dac.voltage(u16::from(code)).unwrap_or(self.volts);
        }
    }

    fn sample(&mut self, _: f64) -> Option<f64> {
        Some(self.ma.process(self.volts))
    }
}

/// The hybrid's two states plus its `rate₀` bookkeeping.
#[derive(Debug, Clone)]
struct Hybrid {
    hold: Hold,
    window: Window,
    /// `α·lsb`, the leading product of the batch expression.
    weight: f64,
    /// Becomes `Pinned` once a calibration window has passed.
    rate0: Rate0,
    /// Events pushed with a time inside the calibration window.
    calib_events: u64,
    events_seen: u64,
    /// `(vth, rate)` pairs computed while `rate₀` is unknown.
    staged: Vec<(f64, f64)>,
}

impl Hybrid {
    /// Pins `rate₀` from the calibration window once the watermark (or
    /// the session close) at `at_s` has passed it.
    fn calibrate(&mut self, at_s: f64) {
        if let Rate0::Calibrate(calib_s) = self.rate0 {
            if at_s >= calib_s {
                let rate0 = (self.calib_events as f64 / calib_s).max(f64::MIN_POSITIVE);
                self.rate0 = Rate0::Pinned(rate0);
            }
        }
    }

    /// Combines every staged pair with `rate0` into `out`.
    fn release(&mut self, rate0: f64, out: &mut Vec<f64>) {
        out.extend(
            self.staged
                .drain(..)
                .map(|pair| refine(self.weight, pair, rate0)),
        );
    }
}

/// The batch hybrid's expression, with the same operations in the same
/// order.
fn refine(weight: f64, (vth, rate): (f64, f64), rate0: f64) -> f64 {
    (vth + weight * (rate / rate0 - 0.5)).max(0.0)
}

impl Kernel for Hybrid {
    fn absorb(&mut self, time: f64, code: Option<u8>) {
        self.hold.absorb(time, code);
        self.window.absorb(time, code);
    }

    fn sample(&mut self, t: f64) -> Option<f64> {
        let pair = (self.hold.ma.process(self.hold.volts), self.window.rate(t));
        if let Rate0::Pinned(rate0) = self.rate0 {
            return Some(refine(self.weight, pair, rate0));
        }
        self.staged.push(pair);
        None
    }
}

impl Grid {
    /// Emits every sample with `t_k` strictly below `up_to`. Generic, so
    /// each estimator runs its own compiled copy of this one loop.
    fn run<K: Kernel>(&mut self, kernel: &mut K, up_to: f64) {
        while self.next_k < self.limit {
            let t = self.next_k as f64 / self.fs;
            if t >= up_to {
                break;
            }
            while let Some(&(time, code)) = self.queue.front() {
                if time <= t {
                    kernel.absorb(time, code);
                    self.queue.pop_front();
                } else {
                    break;
                }
            }
            if let Some(v) = kernel.sample(t) {
                self.emitted.push(v);
            }
            self.next_k += 1;
        }
    }
}

impl AnyOnlineReconstructor {
    /// Caps the output at `floor(duration_s * output_fs)` samples up
    /// front (e.g. from a session header), so no watermark — past the
    /// observation window or inside its last partial output period —
    /// can overshoot the batch trace (see
    /// [`finish`](OnlineReconstructor::finish)).
    pub fn cap_duration(&mut self, duration_s: f64) {
        let n_out = (duration_s * self.grid.fs).floor().max(0.0) as usize;
        self.grid.limit = self.grid.limit.min(n_out);
    }

    /// Emits every sample with `t_k` strictly below `up_to`.
    fn run(&mut self, up_to: f64) {
        let grid = &mut self.grid;
        match &mut self.estimator {
            Estimator::Rate(window) => grid.run(window, up_to),
            Estimator::Ewma(ewma) => grid.run(ewma, up_to),
            Estimator::Track(hold) => grid.run(hold, up_to),
            Estimator::Hybrid(h) => grid.run(h.as_mut(), up_to),
        }
        // Past the duration cap no event can reach an output sample;
        // dropping them keeps a capped reconstructor fed by a
        // misbehaving sender in bounded memory.
        if grid.next_k >= grid.limit {
            grid.queue.clear();
            match &mut self.estimator {
                Estimator::Rate(window) => window.times.clear(),
                Estimator::Hybrid(h) => h.window.times.clear(),
                Estimator::Ewma(_) | Estimator::Track(_) => {}
            }
        }
    }
}

impl OnlineReconstructor for AnyOnlineReconstructor {
    fn push_coded(&mut self, time_s: f64, vth_code: Option<u8>) {
        if let Estimator::Hybrid(h) = &mut self.estimator {
            h.events_seen += 1;
            if matches!(h.rate0, Rate0::Calibrate(calib_s) if time_s <= calib_s) {
                h.calib_events += 1;
            }
        }
        self.grid.queue.push_back((time_s, vth_code));
    }

    fn advance_to(&mut self, watermark_s: f64) {
        self.run(watermark_s);
        if let Estimator::Hybrid(h) = &mut self.estimator {
            h.calibrate(watermark_s);
            if let Rate0::Pinned(rate0) = h.rate0 {
                h.release(rate0, &mut self.grid.emitted);
            }
        }
    }

    fn finish(&mut self, duration_s: f64) {
        self.cap_duration(duration_s);
        self.run(f64::INFINITY);
        if let Estimator::Hybrid(h) = &mut self.estimator {
            h.calibrate(duration_s);
            let rate0 = match h.rate0 {
                Rate0::Pinned(rate0) => rate0,
                // The batch normalisation from exact session totals,
                // mean_rate_hz().max(MIN_POSITIVE); a session that closed
                // inside its calibration window lands here too.
                Rate0::Deferred | Rate0::Calibrate(_) => {
                    (h.events_seen as f64 / duration_s).max(f64::MIN_POSITIVE)
                }
            };
            h.release(rate0, &mut self.grid.emitted);
        }
    }

    fn drain_into(&mut self, out: &mut Vec<f64>) {
        out.append(&mut self.grid.emitted);
    }

    fn emitted(&self) -> usize {
        match &self.estimator {
            Estimator::Hybrid(h) => self.grid.next_k - h.staged.len(),
            _ => self.grid.next_k,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reconstruct::{HybridReconstructor, Reconstructor, ThresholdTrackReconstructor};
    use crate::windowing::{ewma_rate, sliding_rate};
    use datc_core::event::{Event, EventStream};

    /// Feeding shorthands the tests share.
    trait Feed {
        fn push_event(&mut self, time_s: f64);
        /// A whole stream through the streaming path, then `finish`.
        fn run_batch(self, events: &EventStream) -> Vec<f64>;
    }

    impl Feed for AnyOnlineReconstructor {
        fn push_event(&mut self, time_s: f64) {
            self.push_coded(time_s, None);
        }

        fn run_batch(mut self, events: &EventStream) -> Vec<f64> {
            for e in events {
                self.push_coded(e.time_s, e.vth_code);
            }
            self.finish(events.duration_s());
            let mut out = Vec::new();
            self.drain_into(&mut out);
            out
        }
    }

    fn bursty_stream(seed: u64, duration_s: f64) -> EventStream {
        // Deterministic irregular spacing without an RNG dependency.
        let mut t = 0.0f64;
        let mut x = seed | 1;
        let mut ev = Vec::new();
        let mut tick = 0u64;
        while t < duration_s {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            t += 1e-4 + (x % 1000) as f64 * 5e-5;
            if t >= duration_s {
                break;
            }
            ev.push(Event {
                tick,
                time_s: t,
                vth_code: Some((x % 16) as u8),
            });
            tick += 1;
        }
        EventStream::new(ev, 2000.0, duration_s)
    }

    fn rate(window_s: f64) -> AnyOnlineReconstructor {
        OnlineReconSelect::Rate { window_s }.build(100.0)
    }

    fn hybrid(rate0: Rate0) -> AnyOnlineReconstructor {
        OnlineReconSelect::paper_hybrid_with(rate0).build(100.0)
    }

    fn hybrid_state(rx: &AnyOnlineReconstructor) -> &Hybrid {
        match &rx.estimator {
            Estimator::Hybrid(h) => h,
            other => panic!("not a hybrid: {other:?}"),
        }
    }

    /// The hybrid's normalisation rate, once pinned.
    fn rate0_hz(rx: &AnyOnlineReconstructor) -> Option<f64> {
        match hybrid_state(rx).rate0 {
            Rate0::Pinned(rate0) => Some(rate0),
            Rate0::Deferred | Rate0::Calibrate(_) => None,
        }
    }

    #[test]
    fn online_rate_is_bit_exact_with_batch() {
        for seed in [3, 99, 1234] {
            let s = bursty_stream(seed, 2.3);
            let batch = sliding_rate(&s, 0.25, 100.0);
            let online = rate(0.25).run_batch(&s);
            assert_eq!(online, batch.samples(), "seed {seed}");
        }
    }

    #[test]
    fn online_ewma_is_bit_exact_with_batch() {
        for seed in [5, 42] {
            let s = bursty_stream(seed, 1.7);
            let batch = ewma_rate(&s, 0.1, 250.0);
            let online = OnlineReconSelect::Ewma { tau_s: 0.1 }
                .build(250.0)
                .run_batch(&s);
            assert_eq!(online, batch.samples(), "seed {seed}");
        }
    }

    #[test]
    fn incremental_watermarks_match_one_shot_finish() {
        let s = bursty_stream(77, 2.0);
        let mut incremental = rate(0.2);
        let mut trace = Vec::new();
        for e in &s {
            incremental.push_event(e.time_s);
            incremental.advance_to(e.time_s);
            incremental.drain_into(&mut trace); // drain mid-stream too
        }
        incremental.finish(s.duration_s());
        incremental.drain_into(&mut trace);
        let batch = sliding_rate(&s, 0.2, 100.0);
        assert_eq!(trace, batch.samples());
    }

    #[test]
    fn watermark_emission_has_bounded_latency() {
        let mut rx = rate(0.25);
        rx.push_event(0.5);
        rx.advance_to(0.5);
        // every sample strictly below the watermark is out already
        assert_eq!(rx.emitted(), 50);
    }

    #[test]
    fn duration_cap_stops_overshooting_watermarks() {
        let mut rx = rate(0.25);
        rx.cap_duration(1.0);
        rx.push_event(5.0); // event far past the observation window
        rx.advance_to(5.0);
        rx.finish(1.0);
        assert_eq!(rx.emitted(), 100);
    }

    #[test]
    fn events_past_the_duration_cap_do_not_accumulate() {
        // A capped reconstructor fed by a misbehaving sender must stay
        // in bounded memory: once the grid is exhausted, queued events
        // can never influence a sample and are dropped, and so are the
        // times the rate windows still hold.
        let mut all = [
            (rate(0.25), 100),
            (OnlineReconSelect::Ewma { tau_s: 0.25 }.build(100.0), 100),
            (OnlineReconSelect::paper_threshold_track().build(100.0), 100),
            (hybrid(Rate0::Pinned(100.0)), 100),
            (hybrid(Rate0::Deferred), 0),
        ];
        for (rx, released) in &mut all {
            rx.cap_duration(1.0);
            // Inside every rate window at the last grid time, 0.99 s.
            for t in [0.8, 0.85, 0.9, 0.95] {
                rx.push_coded(t, Some(5));
            }
            for k in 0..5_000u64 {
                let t = 1.0 + k as f64 * 1e-3;
                rx.push_coded(t, Some(3));
                if k % 100 == 0 {
                    rx.advance_to(t);
                }
            }
            rx.advance_to(10.0);
            assert!(rx.grid.queue.is_empty(), "queue must be drained: {rx:?}");
            match &rx.estimator {
                Estimator::Rate(window) => assert!(window.times.is_empty()),
                Estimator::Hybrid(h) => assert!(h.window.times.is_empty()),
                Estimator::Ewma(_) | Estimator::Track(_) => {}
            }
            // The watermark alone releases every capped sample; only the
            // deferred hybrid waits for finish.
            assert_eq!(rx.emitted(), *released, "{rx:?}");
            rx.finish(1.0);
            assert_eq!(rx.emitted(), 100);
        }
    }

    #[test]
    fn empty_feed_emits_silence() {
        let mut rx = OnlineReconSelect::Ewma { tau_s: 0.25 }.build(100.0);
        rx.finish(1.0);
        let mut out = Vec::new();
        rx.drain_into(&mut out);
        assert_eq!(out.len(), 100);
        assert!(out.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn online_threshold_track_is_bit_exact_with_batch() {
        for seed in [7, 55, 4242] {
            let s = bursty_stream(seed, 2.1);
            let batch = ThresholdTrackReconstructor::paper().reconstruct(&s, 100.0);
            let online = OnlineReconSelect::paper_threshold_track()
                .build(100.0)
                .run_batch(&s);
            assert_eq!(online, batch.samples(), "seed {seed}");
        }
    }

    #[test]
    fn online_threshold_track_incremental_matches_one_shot() {
        let s = bursty_stream(31, 1.9);
        let mut rx = OnlineReconSelect::paper_threshold_track().build(100.0);
        let mut trace = Vec::new();
        for e in &s {
            rx.push_coded(e.time_s, e.vth_code);
            rx.advance_to(e.time_s);
            rx.drain_into(&mut trace);
        }
        rx.finish(s.duration_s());
        rx.drain_into(&mut trace);
        let batch = ThresholdTrackReconstructor::paper().reconstruct(&s, 100.0);
        assert_eq!(trace, batch.samples());
    }

    #[test]
    fn threshold_track_holds_last_code_over_a_gap() {
        // Events up to t = 0.5, then silence (a declared gap): the track
        // holds the last decoded code's voltage (smoothed), it does not
        // decay to zero like the rate estimators.
        let mut rx = OnlineReconSelect::ThresholdTrack {
            dac: Dac::paper(),
            smooth_window_s: 0.01,
        }
        .build(100.0);
        rx.push_coded(0.1, Some(8)); // 0.5 V
        rx.finish(2.0);
        let mut out = Vec::new();
        rx.drain_into(&mut out);
        assert_eq!(out.len(), 200);
        assert!(
            (out[199] - 0.5).abs() < 1e-12,
            "held at 0.5 V: {}",
            out[199]
        );
    }

    #[test]
    fn online_hybrid_deferred_is_bit_exact_with_batch() {
        for seed in [9, 303] {
            let s = bursty_stream(seed, 2.4);
            let batch = HybridReconstructor::paper().reconstruct(&s, 100.0);
            let online = hybrid(Rate0::Deferred).run_batch(&s);
            assert_eq!(online, batch.samples(), "seed {seed}");
        }
    }

    #[test]
    fn online_hybrid_pinned_rate0_matches_batch_given_the_same_rate() {
        let s = bursty_stream(17, 2.0);
        let rate0 = s.mean_rate_hz().max(f64::MIN_POSITIVE);
        let batch = HybridReconstructor::paper().reconstruct(&s, 100.0);
        // Pinned mode emits incrementally; feed with interleaved
        // watermarks to prove mid-stream emission stays exact.
        let mut rx = hybrid(Rate0::Pinned(rate0));
        let mut trace = Vec::new();
        for e in &s {
            rx.push_coded(e.time_s, e.vth_code);
            rx.advance_to(e.time_s);
            rx.drain_into(&mut trace);
        }
        assert!(!trace.is_empty(), "pinned mode streams before finish");
        rx.finish(s.duration_s());
        rx.drain_into(&mut trace);
        assert_eq!(trace, batch.samples());
    }

    #[test]
    fn hybrid_auto_rate0_calibrates_then_streams_with_bounded_latency() {
        let s = bursty_stream(23, 3.0);
        let calib_s = 0.5;
        // Expected calibration: the rate over the first calib_s seconds.
        let calib_events = s.iter().filter(|e| e.time_s <= calib_s).count();
        let expected_rate0 = (calib_events as f64 / calib_s).max(f64::MIN_POSITIVE);

        let mut rx = hybrid(Rate0::Calibrate(calib_s));
        let mut trace = Vec::new();
        let mut streamed_before_finish = 0usize;
        for e in &s {
            rx.push_coded(e.time_s, e.vth_code);
            rx.advance_to(e.time_s);
            if e.time_s < calib_s {
                assert_eq!(rx.emitted(), 0, "holds back inside the calibration window");
                assert_eq!(rate0_hz(&rx), None);
            }
            rx.drain_into(&mut trace);
            streamed_before_finish = trace.len();
        }
        assert_eq!(rate0_hz(&rx), Some(expected_rate0));
        assert!(
            streamed_before_finish > 0,
            "auto mode streams once calibrated"
        );
        rx.finish(s.duration_s());
        rx.drain_into(&mut trace);

        // Identical to pinning the measured rate up front.
        let pinned = hybrid(Rate0::Pinned(expected_rate0)).run_batch(&s);
        assert_eq!(trace, pinned);
    }

    #[test]
    fn hybrid_auto_rate0_tracks_a_nonstationary_session_better_than_a_misfit_pin() {
        // A session whose operating point differs 8× from whatever a
        // previous session would have pinned: the deferred batch trace
        // is the reference; auto-calibration lands near it, the foreign
        // pin does not.
        let s = bursty_stream(61, 4.0);
        let reference = HybridReconstructor::paper().reconstruct(&s, 100.0);
        let auto = hybrid(Rate0::Calibrate(1.0)).run_batch(&s);
        let foreign_rate = s.mean_rate_hz() / 8.0;
        let pinned = hybrid(Rate0::Pinned(foreign_rate)).run_batch(&s);
        let rmse = |a: &[f64], b: &[f64]| {
            (a.iter().zip(b).map(|(x, y)| (x - y).powi(2)).sum::<f64>() / a.len() as f64).sqrt()
        };
        let auto_err = rmse(&auto, reference.samples());
        let pin_err = rmse(&pinned, reference.samples());
        assert!(
            auto_err < 0.2 * pin_err,
            "auto rmse {auto_err} vs misfit-pin rmse {pin_err}"
        );
    }

    #[test]
    fn hybrid_auto_rate0_falls_back_to_deferred_on_a_short_session() {
        let s = bursty_stream(13, 1.5);
        let batch = HybridReconstructor::paper().reconstruct(&s, 100.0);
        // Calibration window longer than the session: exact deferred
        // semantics, bit-identical to batch.
        let online = hybrid(Rate0::Calibrate(10.0)).run_batch(&s);
        assert_eq!(online, batch.samples());
    }

    #[test]
    fn recon_select_auto_hybrid_builds_the_auto_mode() {
        let rx = OnlineReconSelect::paper_hybrid_auto_rate0(0.5).build(100.0);
        assert_eq!(hybrid_state(&rx).rate0, Rate0::Calibrate(0.5));
        assert_eq!(rate0_hz(&rx), None);
    }

    #[test]
    fn hybrid_deferred_withholds_until_finish() {
        let mut rx = hybrid(Rate0::Deferred);
        rx.push_coded(0.3, Some(4));
        rx.advance_to(0.9);
        assert_eq!(rx.emitted(), 0, "deferred mode holds samples back");
        rx.finish(1.0);
        assert_eq!(rx.emitted(), 100);
    }

    #[test]
    fn recon_select_builds_every_variant_bit_exact() {
        let s = bursty_stream(88, 1.6);
        let cases: Vec<(OnlineReconSelect, Vec<f64>)> = vec![
            (
                OnlineReconSelect::Rate { window_s: 0.25 },
                sliding_rate(&s, 0.25, 100.0).samples().to_vec(),
            ),
            (
                OnlineReconSelect::Ewma { tau_s: 0.2 },
                ewma_rate(&s, 0.2, 100.0).samples().to_vec(),
            ),
            (
                OnlineReconSelect::paper_threshold_track(),
                ThresholdTrackReconstructor::paper()
                    .reconstruct(&s, 100.0)
                    .samples()
                    .to_vec(),
            ),
            (
                OnlineReconSelect::paper_hybrid(),
                HybridReconstructor::paper()
                    .reconstruct(&s, 100.0)
                    .samples()
                    .to_vec(),
            ),
        ];
        for (select, batch) in cases {
            let online = select.build(100.0).run_batch(&s);
            assert_eq!(online, batch, "{select:?}");
        }
    }

    #[test]
    fn validate_rejects_what_build_would_panic_on() {
        let hybrid = |rate0| OnlineReconSelect::paper_hybrid_with(rate0);
        for bad in [
            OnlineReconSelect::Rate { window_s: 0.0 },
            OnlineReconSelect::Ewma { tau_s: f64::NAN },
            OnlineReconSelect::ThresholdTrack {
                dac: Dac::paper(),
                smooth_window_s: -1.0,
            },
            hybrid(Rate0::Pinned(0.0)),
            hybrid(Rate0::Calibrate(f64::INFINITY)),
        ] {
            assert!(bad.validate(100.0).is_err(), "{bad:?}");
        }
        assert!(OnlineReconSelect::default().validate(0.0).is_err());
        assert!(OnlineReconSelect::paper_hybrid().validate(100.0).is_ok());
        assert!(hybrid(Rate0::Pinned(40.0)).validate(100.0).is_ok());
    }

    #[test]
    #[should_panic(expected = "rate window_s must be positive and finite")]
    fn build_rejects_an_infinite_window() {
        let _ = OnlineReconSelect::Rate {
            window_s: f64::INFINITY,
        }
        .build(100.0);
    }
}
