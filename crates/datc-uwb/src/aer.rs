//! Address-Event Representation (AER) for multi-channel systems.
//!
//! Ref. \[12\] (and the multi-channel force system of Ref. \[9\]) transmit
//! events from several sEMG channels over one link by prefixing each event
//! with a channel address. Asynchronous sources can collide; the merger
//! models a fixed dead time during which a second event is lost —
//! acceptable because "artifacts effect is similar to pulse missing".

use datc_core::event::{Event, EventStream};
use serde::{Deserialize, Serialize};

/// Ticks from here up are not merged on the tick clock. Below it,
/// distinct ticks stamped with one period have distinct times (see
/// [`shares_tick_clock`]), and `tick << 8 | channel` fits a `u64`.
const TICK_LIMIT: u64 = 1 << 52;

/// An event tagged with its source channel.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AddressedEvent {
    /// Source channel (the AER address).
    pub channel: u8,
    /// The underlying threshold-crossing event.
    pub event: Event,
}

/// Result of merging asynchronous channels onto one serial link.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeReport {
    /// Events that made it through, in time order.
    pub merged: Vec<AddressedEvent>,
    /// Events lost to link contention (arrived within the dead time of a
    /// previous event).
    pub collisions: usize,
}

/// Merges per-channel streams with a serial-link dead time.
///
/// `dead_time_s` models the pattern duration: while one event pattern is
/// on air (e.g. 5 symbols × symbol period), other channels' events are
/// dropped.
///
/// # Panics
///
/// Panics on a negative dead time or on more than 256 channels (the
/// [`AddressedEvent`] address is 8 bits) — see [`merge_channel_refs`].
///
/// # Example
///
/// ```
/// use datc_core::event::{Event, EventStream};
/// use datc_uwb::aer::merge_channels;
///
/// let period = 1.0 / 2000.0;
/// let ch0 = EventStream::new(vec![Event::at_tick(0, period, None)], 2000.0, 1.0);
/// let ch1 = EventStream::new(vec![Event::at_tick(1, period, None)], 2000.0, 1.0);
/// let report = merge_channels(&[ch0, ch1], 0.001);
/// assert_eq!(report.merged.len(), 1);
/// assert_eq!(report.collisions, 1);
/// ```
pub fn merge_channels(streams: &[EventStream], dead_time_s: f64) -> MergeReport {
    merge_channel_refs(&streams.iter().collect::<Vec<_>>(), dead_time_s)
}

/// [`merge_channels`] over borrowed streams — fleet-scale callers merge
/// per-channel outputs they still own without cloning every event list.
///
/// Streams that pass [`shares_tick_clock`] — the output of one
/// `FleetRunner` or of standalone `DatcEncoder`s with one clock — merge
/// on a winner tree over `tick << 8 | channel` keys. Any other input
/// (mixed tick rates, hand-built times) takes a stable sort by time. Both
/// paths give the same report: events in time order, ties by channel and
/// then by position within the channel.
///
/// # Panics
///
/// Panics on a negative dead time or on more than 256 channels (the
/// [`AddressedEvent`] address is 8 bits; larger fleets must split into
/// multiple AER links).
pub fn merge_channel_refs(streams: &[&EventStream], dead_time_s: f64) -> MergeReport {
    assert!(dead_time_s >= 0.0, "dead time must be non-negative");
    assert!(
        streams.len() <= 256,
        "AER addresses are 8 bits: {} channels exceed one link (split the fleet)",
        streams.len()
    );
    if shares_tick_clock(streams) {
        apply_dead_time(TickMerge::new(streams), streams, dead_time_s)
    } else {
        apply_dead_time(merge_by_sort(streams).into_iter(), streams, dead_time_s)
    }
}

/// Whether tick order is time order across `streams`, so that
/// [`merge_channel_refs`] can merge them on their tick clock. It holds
/// when every stream has the same finite, positive tick rate, every
/// event's `time_s` is bit-equal to `tick as f64 * (1.0 / rate)` (as
/// [`Event::at_tick`] and the encoders stamp it), ticks never fall within
/// a stream, and every tick is below 2^52.
///
/// Below 2^52, two distinct ticks are further apart than one rounding
/// step of their product with the period, so distinct ticks get distinct
/// times and equal times mean equal ticks.
pub fn shares_tick_clock(streams: &[&EventStream]) -> bool {
    let Some(first) = streams.first() else {
        return true;
    };
    let rate = first.tick_rate_hz();
    let period = 1.0 / rate;
    // A finite time at the tick limit bounds every time stamped below it.
    if !(rate > 0.0 && rate.is_finite() && (TICK_LIMIT as f64 * period).is_finite()) {
        return false;
    }
    streams.iter().all(|s| {
        let mut prev = 0;
        s.tick_rate_hz() == rate
            && s.events().iter().all(|e| {
                let on_clock = prev <= e.tick
                    && e.tick < TICK_LIMIT
                    && (e.tick as f64 * period).to_bits() == e.time_s.to_bits();
                prev = e.tick;
                on_clock
            })
    })
}

/// Serialises a time-ordered iterator of addressed events through the
/// link's dead-time contention model.
fn apply_dead_time(
    events: impl Iterator<Item = AddressedEvent>,
    streams: &[&EventStream],
    dead_time_s: f64,
) -> MergeReport {
    let total: usize = streams.iter().map(|s| s.len()).sum();
    let mut merged = Vec::with_capacity(total);
    let mut collisions = 0usize;
    let mut link_free_at = f64::NEG_INFINITY;
    for ae in events {
        if ae.event.time_s < link_free_at {
            collisions += 1;
            continue;
        }
        link_free_at = ae.event.time_s + dead_time_s;
        merged.push(ae);
    }
    MergeReport { merged, collisions }
}

/// Winner (tournament) tree over streams that share a tick clock. Each
/// channel's leaf holds the key `tick << 8 | channel` of its next event,
/// or `u64::MAX` once drained, and each inner node the smaller key of its
/// two children, so the root names the next event on the link. Taking it
/// refills the winner's leaf in place and replays the one path from that
/// leaf to the root.
struct TickMerge<'a> {
    /// Node `i`'s children are `2i` and `2i + 1`; the root is node 1 and
    /// channel `c`'s leaf is node `leaves + c`.
    nodes: Vec<u64>,
    leaves: usize,
    /// Each channel's events not yet taken.
    pending: Vec<&'a [Event]>,
}

impl<'a> TickMerge<'a> {
    fn new(streams: &[&'a EventStream]) -> Self {
        let leaves = streams.len().next_power_of_two();
        let pending: Vec<&[Event]> = streams.iter().map(|s| s.events()).collect();
        let mut nodes = vec![u64::MAX; 2 * leaves];
        for (channel, events) in pending.iter().enumerate() {
            nodes[leaves + channel] = next_key(events, channel);
        }
        for i in (1..leaves).rev() {
            nodes[i] = nodes[2 * i].min(nodes[2 * i + 1]);
        }
        TickMerge {
            nodes,
            leaves,
            pending,
        }
    }
}

/// The tree key of a channel's next event, `u64::MAX` when it has none.
fn next_key(pending: &[Event], channel: usize) -> u64 {
    pending
        .first()
        .map_or(u64::MAX, |e| e.tick << 8 | channel as u64)
}

impl Iterator for TickMerge<'_> {
    type Item = AddressedEvent;

    fn next(&mut self) -> Option<AddressedEvent> {
        let top = self.nodes[1];
        if top == u64::MAX {
            return None;
        }
        let channel = (top & 0xFF) as usize;
        let events = self.pending[channel];
        self.pending[channel] = &events[1..];
        let mut i = self.leaves + channel;
        let mut key = next_key(&events[1..], channel);
        self.nodes[i] = key;
        while i > 1 {
            key = key.min(self.nodes[i ^ 1]);
            i /= 2;
            self.nodes[i] = key;
        }
        Some(AddressedEvent {
            channel: channel as u8,
            event: events[0],
        })
    }
}

/// The collect-all-then-sort merge: the reference both paths equal, and
/// the path for streams that do not share a tick clock.
fn merge_by_sort(streams: &[&EventStream]) -> Vec<AddressedEvent> {
    let mut all: Vec<AddressedEvent> = Vec::new();
    for (ch, s) in streams.iter().enumerate() {
        for e in s.iter() {
            all.push(AddressedEvent {
                channel: ch as u8,
                event: *e,
            });
        }
    }
    all.sort_by(|a, b| {
        a.event
            .time_s
            .partial_cmp(&b.event.time_s)
            .expect("event times are finite")
    });
    all
}

/// Splits a merged AER stream back into per-channel [`EventStream`]s
/// (the receiver-side demultiplexer).
pub fn demux(
    merged: &[AddressedEvent],
    n_channels: usize,
    tick_rate_hz: f64,
    duration_s: f64,
) -> Vec<EventStream> {
    let mut per_channel: Vec<Vec<Event>> = vec![Vec::new(); n_channels];
    for ae in merged {
        if usize::from(ae.channel) < n_channels {
            per_channel[usize::from(ae.channel)].push(ae.event);
        }
    }
    per_channel
        .into_iter()
        .map(|evs| EventStream::new(evs, tick_rate_hz, duration_s))
        .collect()
}

/// Number of address bits needed for `n_channels`.
pub fn address_bits(n_channels: usize) -> u8 {
    if n_channels <= 1 {
        return 0;
    }
    (usize::BITS - (n_channels - 1).leading_zeros()) as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use datc_core::{DatcConfig, DatcEncoder, SpikeEncoder, TraceLevel};
    use datc_signal::Signal;
    use proptest::prelude::*;

    /// Hand-built times with `tick = index`: off any tick clock, so these
    /// streams take the sort path.
    fn stream(times: &[f64]) -> EventStream {
        let evs: Vec<Event> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| Event {
                tick: i as u64,
                time_s: t,
                vth_code: Some(3),
            })
            .collect();
        EventStream::new(evs, 2000.0, 1.0)
    }

    /// Events stamped by [`Event::at_tick`] on a `rate_hz` clock; the
    /// code numbers each event within its channel, so a reordered pair
    /// on one tick shows.
    fn on_clock(rate_hz: f64, ticks: &[u64]) -> EventStream {
        let evs = ticks
            .iter()
            .enumerate()
            .map(|(i, &t)| Event::at_tick(t, 1.0 / rate_hz, Some((i % 16) as u8)))
            .collect();
        EventStream::new(evs, rate_hz, 1.0)
    }

    /// A channel's ticks as the running sums of its tick steps.
    fn ticks_from_steps(steps: &[u64]) -> Vec<u64> {
        steps
            .iter()
            .scan(0, |tick, &step| {
                *tick += step;
                Some(*tick)
            })
            .collect()
    }

    /// `channels` streams on a `rate_hz` clock, channel `c` with `len(c)`
    /// events whose tick steps of 0–3 come from a xorshift generator, so
    /// that channels tie on a tick and a channel repeats a tick.
    fn xorshift_fleet(channels: u64, len: impl Fn(u64) -> u64, rate_hz: f64) -> Vec<EventStream> {
        let mut x = 0x9E37u64;
        (0..channels)
            .map(|c| {
                let steps: Vec<u64> = (0..len(c))
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        x % 4
                    })
                    .collect();
                on_clock(rate_hz, &ticks_from_steps(&steps))
            })
            .collect()
    }

    fn by_sort(refs: &[&EventStream], dead_time_s: f64) -> MergeReport {
        apply_dead_time(merge_by_sort(refs).into_iter(), refs, dead_time_s)
    }

    /// The inputs pass the clock check, so `merge_channel_refs` runs the
    /// tree, and its report is the sort reference's, bit for bit.
    fn assert_tick_path_matches_sort(streams: &[EventStream], dead_time_s: f64) {
        let refs: Vec<&EventStream> = streams.iter().collect();
        assert!(shares_tick_clock(&refs), "the tick path must run");
        assert_eq!(
            merge_channel_refs(&refs, dead_time_s),
            by_sort(&refs, dead_time_s),
            "dead_time {dead_time_s}"
        );
    }

    /// The inputs fail the clock check and still merge equal to the
    /// reference.
    fn assert_sort_path(streams: &[EventStream], dead_time_s: f64) {
        let refs: Vec<&EventStream> = streams.iter().collect();
        assert!(!shares_tick_clock(&refs), "the sort path must run");
        assert_eq!(
            merge_channel_refs(&refs, dead_time_s),
            by_sort(&refs, dead_time_s)
        );
    }

    #[test]
    fn non_overlapping_channels_merge_losslessly() {
        let a = stream(&[0.1, 0.3]);
        let b = stream(&[0.2, 0.4]);
        let rep = merge_channels(&[a, b], 0.01);
        assert_eq!(rep.merged.len(), 4);
        assert_eq!(rep.collisions, 0);
        // strictly time ordered
        assert!(rep
            .merged
            .windows(2)
            .all(|w| w[0].event.time_s <= w[1].event.time_s));
    }

    #[test]
    fn contention_drops_later_event() {
        let a = stream(&[0.100]);
        let b = stream(&[0.1001]);
        let rep = merge_channels(&[a, b], 0.01);
        assert_eq!(rep.merged.len(), 1);
        assert_eq!(rep.collisions, 1);
        assert_eq!(rep.merged[0].channel, 0);
    }

    #[test]
    fn zero_dead_time_never_collides() {
        let a = stream(&[0.1, 0.1, 0.1]);
        let rep = merge_channels(&[a], 0.0);
        assert_eq!(rep.collisions, 0);
        assert_eq!(rep.merged.len(), 3);
    }

    #[test]
    fn demux_restores_channels() {
        let a = stream(&[0.1, 0.5]);
        let b = stream(&[0.3]);
        let rep = merge_channels(&[a, b], 0.001);
        let back = demux(&rep.merged, 2, 2000.0, 1.0);
        assert_eq!(back[0].len(), 2);
        assert_eq!(back[1].len(), 1);
    }

    #[test]
    fn tick_merge_is_bit_identical_to_sort_merge() {
        // Many channels and ragged lengths: the tree must reproduce the
        // stable sort exactly, including tie order (channel, then
        // within-channel index).
        let streams = xorshift_fleet(24, |c| (c % 7) * 5, 2000.0);
        for dead_time in [0.0, 0.0005, 0.01] {
            assert_tick_path_matches_sort(&streams, dead_time);
        }
    }

    #[test]
    fn tick_merge_fills_a_256_channel_link() {
        let streams = xorshift_fleet(256, |c| (c * 7) % 13, 2500.0);
        for dead_time in [0.0, 1.0 / 2500.0, 25e-6] {
            assert_tick_path_matches_sort(&streams, dead_time);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn tick_merge_matches_the_sort_reference(
            steps in collection::vec(collection::vec(0u64..4, 0..40), 1..65),
            rate_pick in 0usize..4,
            dead_pick in 0usize..4,
        ) {
            let rate_hz = [1000.0, 2000.0, 2500.0, 3000.0][rate_pick];
            let period = 1.0 / rate_hz;
            let dead_time_s = [0.0, period, 2.5 * period, 25e-6][dead_pick];
            let streams: Vec<EventStream> = steps
                .iter()
                .map(|s| on_clock(rate_hz, &ticks_from_steps(s)))
                .collect();
            assert_tick_path_matches_sort(&streams, dead_time_s);
        }
    }

    #[test]
    fn standalone_encoders_share_the_tick_clock() {
        let encoder = DatcEncoder::new(DatcConfig::paper().with_trace_level(TraceLevel::Events));
        let streams: Vec<EventStream> = (0..4)
            .map(|c| {
                let signal = Signal::from_fn(2500.0, 1.0, move |t| {
                    ((t * (31.0 + 9.0 * c as f64)).sin()).abs() * (0.3 + 0.05 * c as f64)
                });
                encoder.encode(&signal).events
            })
            .collect();
        assert!(streams.iter().all(|s| !s.is_empty()));
        assert_tick_path_matches_sort(&streams, 25e-6);
    }

    #[test]
    fn off_clock_inputs_take_the_sort_path() {
        let ticks = [0, 2, 3, 3, 7];
        // A second tick rate: tick 3 at 3 kHz comes before tick 2 at 1 kHz.
        assert_sort_path(&[on_clock(1000.0, &ticks), on_clock(3000.0, &ticks)], 0.0);

        // One event's time moved by one ulp.
        let mut nudged = on_clock(2000.0, &ticks).events().to_vec();
        nudged[2].time_s = f64::from_bits(nudged[2].time_s.to_bits() + 1);
        let nudged = EventStream::new(nudged, 2000.0, 1.0);
        assert_sort_path(&[on_clock(2000.0, &ticks), nudged], 0.0);

        // A zero or non-finite tick rate. On an infinite rate every
        // event stamps at 0 s, so ticks no longer order times.
        let at = |rate_hz: f64, period: f64, ticks: &[u64]| {
            let evs = ticks
                .iter()
                .map(|&t| Event::at_tick(t, period, None))
                .collect();
            EventStream::new(evs, rate_hz, 1.0)
        };
        assert_sort_path(
            &[at(f64::INFINITY, 0.0, &[5]), at(f64::INFINITY, 0.0, &[1])],
            0.0,
        );
        assert_sort_path(
            &[at(0.0, f64::INFINITY, &[5]), at(0.0, f64::INFINITY, &[1])],
            0.0,
        );
        assert_sort_path(&[at(f64::NAN, 1e-3, &[5]), at(f64::NAN, 1e-3, &[1])], 0.0);

        // Ticks at 2^52 and up. From 2^53 on, `tick as f64` rounds, so
        // two ticks can share one time: the sort puts channel 0 first.
        assert_sort_path(&[on_clock(2000.0, &[TICK_LIMIT])], 0.0);
        let top = 1u64 << 53;
        assert_sort_path(
            &[on_clock(2000.0, &[top + 1]), on_clock(2000.0, &[top])],
            0.0,
        );
    }

    #[test]
    fn unsorted_stream_falls_back_to_the_sort_path() {
        // EventStream enforces tick order, not time order — build a
        // stream whose times run backwards and check both paths agree.
        let evs = vec![
            Event {
                tick: 0,
                time_s: 0.9,
                vth_code: None,
            },
            Event {
                tick: 1,
                time_s: 0.1,
                vth_code: None,
            },
        ];
        let weird = EventStream::new(evs, 1000.0, 1.0);
        let ordered = stream(&[0.2, 0.5]);
        let refs: Vec<&EventStream> = vec![&weird, &ordered];
        assert!(!shares_tick_clock(&refs));
        let merged = merge_channel_refs(&refs, 0.0);
        assert_eq!(merged, by_sort(&refs, 0.0));
        assert!(merged
            .merged
            .windows(2)
            .all(|w| w[0].event.time_s <= w[1].event.time_s));
    }

    #[test]
    #[should_panic(expected = "AER addresses are 8 bits")]
    fn more_than_256_channels_rejected() {
        let streams: Vec<EventStream> = (0..257).map(|_| stream(&[0.1])).collect();
        let _ = merge_channels(&streams, 0.001);
    }

    #[test]
    fn address_bits_formula() {
        assert_eq!(address_bits(1), 0);
        assert_eq!(address_bits(2), 1);
        assert_eq!(address_bits(3), 2);
        assert_eq!(address_bits(8), 3);
        assert_eq!(address_bits(9), 4);
    }
}
