//! Address-Event Representation (AER) for multi-channel systems.
//!
//! Ref. \[12\] (and the multi-channel force system of Ref. \[9\]) transmit
//! events from several sEMG channels over one link by prefixing each event
//! with a channel address. Asynchronous sources can collide; the merger
//! models a fixed dead time during which a second event is lost —
//! acceptable because "artifacts effect is similar to pulse missing".

use datc_core::event::{Event, EventStream};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

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
/// let ch0 = EventStream::new(vec![Event { tick: 0, time_s: 0.000, vth_code: None }], 2000.0, 1.0);
/// let ch1 = EventStream::new(vec![Event { tick: 1, time_s: 0.0001, vth_code: None }], 2000.0, 1.0);
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
    // Every encoder in the workspace produces time-ordered streams (a
    // tick-ordered stream with `time = tick · period` is time-ordered),
    // so the scalable path is a k-way heap merge: O(N log k) with k live
    // cursors instead of collecting and sorting all N events. A stream
    // that violates time order (hand-built test data can) falls back to
    // the original stable sort, which both paths are bit-identical to.
    let time_ordered = streams
        .iter()
        .all(|s| s.events().windows(2).all(|w| w[0].time_s <= w[1].time_s));
    if time_ordered {
        apply_dead_time(HeapMerge::new(streams), streams, dead_time_s)
    } else {
        apply_dead_time(merge_by_sort(streams).into_iter(), streams, dead_time_s)
    }
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

/// One per-channel cursor in the k-way merge. Ordering matches the
/// stable collect-then-sort reference exactly: by time, ties broken by
/// channel then by within-channel index (the order collection pushed
/// them in).
struct HeapEntry<'a> {
    current: &'a Event,
    channel: u8,
    index: usize,
    rest: &'a [Event],
}

impl PartialEq for HeapEntry<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for HeapEntry<'_> {}
impl PartialOrd for HeapEntry<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry<'_> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed on every key: BinaryHeap is a max-heap, the merge
        // needs the min.
        other
            .current
            .time_s
            .partial_cmp(&self.current.time_s)
            .expect("event times are finite")
            .then_with(|| other.channel.cmp(&self.channel))
            .then_with(|| other.index.cmp(&self.index))
    }
}

/// Streaming k-way merge over per-channel event slices: `O(N log k)`
/// with only k cursors live, instead of materialising and sorting all N
/// events.
struct HeapMerge<'a> {
    heap: BinaryHeap<HeapEntry<'a>>,
}

impl<'a> HeapMerge<'a> {
    fn new(streams: &[&'a EventStream]) -> Self {
        let mut heap = BinaryHeap::with_capacity(streams.len());
        for (ch, s) in streams.iter().enumerate() {
            if let Some((first, rest)) = s.events().split_first() {
                heap.push(HeapEntry {
                    current: first,
                    channel: ch as u8,
                    index: 0,
                    rest,
                });
            }
        }
        HeapMerge { heap }
    }
}

impl Iterator for HeapMerge<'_> {
    type Item = AddressedEvent;

    fn next(&mut self) -> Option<AddressedEvent> {
        let top = self.heap.pop()?;
        let out = AddressedEvent {
            channel: top.channel,
            event: *top.current,
        };
        if let Some((next, rest)) = top.rest.split_first() {
            self.heap.push(HeapEntry {
                current: next,
                channel: top.channel,
                index: top.index + 1,
                rest,
            });
        }
        Some(out)
    }
}

/// The original collect-all-then-sort merge, kept as the reference
/// implementation (and the fallback for non-time-ordered streams).
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
    fn heap_merge_is_bit_identical_to_sort_merge() {
        // Many channels, colliding timestamps, ragged lengths: the k-way
        // heap path must reproduce the stable sort exactly, including
        // tie order (channel, then within-channel index).
        let mut streams = Vec::new();
        let mut x = 0x9E37u64;
        for ch in 0..24u64 {
            let mut times = Vec::new();
            let mut t = 0.0f64;
            for _ in 0..(ch % 7) * 5 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // quantised steps force exact cross-channel ties
                t += ((x % 4) as f64) * 0.001;
                times.push(t);
            }
            streams.push(stream(&times));
        }
        let refs: Vec<&EventStream> = streams.iter().collect();
        for dead_time in [0.0, 0.0005, 0.01] {
            let sorted = apply_dead_time(merge_by_sort(&refs).into_iter(), &refs, dead_time);
            let merged = merge_channel_refs(&refs, dead_time);
            assert_eq!(merged, sorted, "dead_time {dead_time}");
        }
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
        let merged = merge_channel_refs(&refs, 0.0);
        let sorted = apply_dead_time(merge_by_sort(&refs).into_iter(), &refs, 0.0);
        assert_eq!(merged, sorted);
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
