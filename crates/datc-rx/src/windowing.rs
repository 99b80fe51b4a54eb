//! Event-rate estimation: the receiver's "low-complexity windowing".

use datc_core::event::EventStream;
use datc_signal::Signal;

/// Causal sliding-window event rate in events/second, sampled at
/// `output_fs` Hz.
///
/// At output time `t` the estimate is the number of events inside
/// `(t - window_s, t]` divided by the window length, computed with a
/// two-pointer sweep (O(N + M)).
///
/// # Example
///
/// ```
/// use datc_core::event::{Event, EventStream};
/// use datc_rx::windowing::sliding_rate;
///
/// let ev: Vec<Event> = (0..100)
///     .map(|i| Event { tick: i, time_s: i as f64 * 0.01, vth_code: None })
///     .collect();
/// let s = EventStream::new(ev, 100.0, 1.0);
/// let rate = sliding_rate(&s, 0.2, 100.0);
/// // steady 100 ev/s once the window fills
/// assert!((rate.samples()[80] - 100.0).abs() < 11.0);
/// ```
pub fn sliding_rate(events: &EventStream, window_s: f64, output_fs: f64) -> Signal {
    assert!(window_s > 0.0, "window must be positive");
    assert!(output_fs > 0.0, "output rate must be positive");
    let n_out = (events.duration_s() * output_fs).floor().max(0.0) as usize;
    let times: Vec<f64> = events.iter().map(|e| e.time_s).collect();
    let mut out = Vec::with_capacity(n_out);
    let mut lo = 0usize; // first event inside the window
    let mut hi = 0usize; // one past the last event with time <= t
    for k in 0..n_out {
        let t = k as f64 / output_fs;
        while hi < times.len() && times[hi] <= t {
            hi += 1;
        }
        while lo < hi && times[lo] <= t - window_s {
            lo += 1;
        }
        out.push((hi - lo) as f64 / window_s);
    }
    Signal::from_samples(out, output_fs)
}

/// Exponentially weighted event-rate estimate (one-pole smoothing of the
/// inter-event intervals), an alternative receiver with O(1) memory.
pub fn ewma_rate(events: &EventStream, tau_s: f64, output_fs: f64) -> Signal {
    assert!(tau_s > 0.0, "time constant must be positive");
    let n_out = (events.duration_s() * output_fs).floor().max(0.0) as usize;
    let dt = 1.0 / output_fs;
    let alpha = (-dt / tau_s).exp();
    let mut out = Vec::with_capacity(n_out);
    let mut level = 0.0f64;
    let mut next_event = 0usize;
    let times: Vec<f64> = events.iter().map(|e| e.time_s).collect();
    for k in 0..n_out {
        let t = k as f64 / output_fs;
        let mut impulses = 0.0;
        while next_event < times.len() && times[next_event] <= t {
            impulses += 1.0;
            next_event += 1;
        }
        // impulse contributes 1/tau so that DC gain equals the rate
        level = alpha * level + impulses / tau_s;
        out.push(level);
    }
    Signal::from_samples(out, output_fs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use datc_core::event::Event;

    fn regular_stream(rate_hz: f64, duration_s: f64) -> EventStream {
        let n = (rate_hz * duration_s) as usize;
        let ev: Vec<Event> = (0..n)
            .map(|i| Event {
                tick: i as u64,
                time_s: i as f64 / rate_hz,
                vth_code: None,
            })
            .collect();
        EventStream::new(ev, 1000.0, duration_s)
    }

    #[test]
    fn sliding_rate_recovers_constant_rate() {
        let s = regular_stream(50.0, 2.0);
        let rate = sliding_rate(&s, 0.5, 100.0);
        let tail = &rate.samples()[100..];
        for &r in tail {
            assert!((r - 50.0).abs() <= 2.0 / 0.5, "rate {r}");
        }
    }

    #[test]
    fn sliding_rate_of_empty_stream_is_zero() {
        let s = EventStream::new(vec![], 1000.0, 1.0);
        let rate = sliding_rate(&s, 0.25, 100.0);
        assert!(rate.samples().iter().all(|&r| r == 0.0));
    }

    #[test]
    fn ewma_rate_converges_to_true_rate() {
        let s = regular_stream(80.0, 4.0);
        let rate = ewma_rate(&s, 0.25, 200.0);
        let tail = datc_signal::stats::mean(&rate.samples()[600..]);
        assert!((tail - 80.0).abs() < 8.0, "ewma tail {tail}");
    }

    #[test]
    fn rate_tracks_a_step_change() {
        // 20 ev/s for 1 s then 100 ev/s for 1 s
        let mut ev = Vec::new();
        let mut tick = 0u64;
        let mut push = |t: f64| {
            ev.push(Event {
                tick,
                time_s: t,
                vth_code: None,
            });
            tick += 1;
        };
        let mut t = 0.0;
        while t < 1.0 {
            push(t);
            t += 1.0 / 20.0;
        }
        while t < 2.0 {
            push(t);
            t += 1.0 / 100.0;
        }
        let s = EventStream::new(ev, 1000.0, 2.0);
        let rate = sliding_rate(&s, 0.2, 100.0);
        assert!(rate.samples()[80] < 40.0);
        assert!(rate.samples()[190] > 80.0);
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics() {
        let s = regular_stream(10.0, 1.0);
        let _ = sliding_rate(&s, 0.0, 100.0);
    }
}
