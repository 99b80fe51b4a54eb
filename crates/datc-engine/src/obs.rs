//! Fleet-layer instrumentation: stable metric names plus the
//! [`FleetObs`] sync helper that publishes encode throughput and tiling
//! occupancy into a [`datc_obs::Registry`].
//!
//! The engine follows the workspace's "sync, don't count" convention:
//! the hot loop (the SoA bank kernel) is never touched. A fleet encode
//! already returns exact totals — ticks, per-channel event counts — so
//! [`FleetObs::note_encode`] publishes them with a handful of relaxed
//! atomic adds *per encode call*, not per sample. The instrumentation
//! cost is therefore independent of fleet size and signal length.
//!
//! | metric | kind | meaning |
//! |---|---|---|
//! | `datc_fleet_encodes_total` | counter | fleet encode calls completed |
//! | `datc_fleet_samples_total` | counter | input samples consumed (channels × samples per channel) |
//! | `datc_fleet_ticks_total` | counter | system-clock tick-channels executed (channels × ticks) |
//! | `datc_fleet_events_total` | counter | D-ATC events emitted across the fleet |
//! | `datc_fleet_channels` | gauge | channels in the most recent encode |
//! | `datc_fleet_tile_occupancy` | gauge | fraction of kernel tile lanes occupied (1.0 = every tile full) |

use datc_core::bank::TilePolicy;
use datc_obs::{Counter, Gauge, Registry};

/// Counter: fleet encode calls completed.
pub const FLEET_ENCODES: &str = "datc_fleet_encodes_total";
/// Counter: input samples consumed (channels × samples per channel).
pub const FLEET_SAMPLES: &str = "datc_fleet_samples_total";
/// Counter: system-clock tick-channels executed (channels × ticks).
pub const FLEET_TICKS: &str = "datc_fleet_ticks_total";
/// Counter: D-ATC events emitted across the fleet.
pub const FLEET_EVENTS: &str = "datc_fleet_events_total";
/// Gauge: channels in the most recent encode.
pub const FLEET_CHANNELS: &str = "datc_fleet_channels";
/// Gauge: fraction of kernel tile lanes occupied by real channels.
pub const FLEET_TILE_OCCUPANCY: &str = "datc_fleet_tile_occupancy";

/// Registered handles for the fleet metrics; attached to a
/// [`FleetRunner`](crate::FleetRunner) via
/// [`with_metrics`](crate::FleetRunner::with_metrics) and inherited by
/// sustained encoders built from it.
///
/// Handles are `Arc`-backed, so clones (runner → sustained encoder)
/// accumulate into the same series.
#[derive(Clone, Debug)]
pub struct FleetObs {
    encodes: Counter,
    samples: Counter,
    ticks: Counter,
    events: Counter,
    channels: Gauge,
    tile_occupancy: Gauge,
}

impl FleetObs {
    /// Registers (or re-attaches to) the fleet series in `registry`.
    pub fn register(registry: &Registry) -> FleetObs {
        FleetObs {
            encodes: registry.counter(FLEET_ENCODES),
            samples: registry.counter(FLEET_SAMPLES),
            ticks: registry.counter(FLEET_TICKS),
            events: registry.counter(FLEET_EVENTS),
            channels: registry.gauge(FLEET_CHANNELS),
            tile_occupancy: registry.gauge(FLEET_TILE_OCCUPANCY),
        }
    }

    /// Publishes one completed fleet encode: `channels` channels over
    /// `samples_per_channel` input samples each, executing `ticks`
    /// system-clock ticks and emitting `events` D-ATC events, with the
    /// kernels' tile lanes `occupancy`-full.
    pub fn note_encode(
        &self,
        channels: usize,
        samples_per_channel: usize,
        ticks: u64,
        events: usize,
        occupancy: f64,
    ) {
        self.encodes.inc();
        self.samples
            .add((channels as u64).saturating_mul(samples_per_channel as u64));
        self.ticks.add((channels as u64).saturating_mul(ticks));
        self.events.add(events as u64);
        self.channels.set(channels as f64);
        self.tile_occupancy.set(occupancy);
    }
}

/// Fraction of kernel tile lanes occupied by real channels, given the
/// shard layout and the tiling policy: each shard splits its channels
/// into tiles of at most
/// [`max_tile_channels`](TilePolicy::max_tile_channels), and a trailing
/// partial tile leaves lanes idle. 1.0 means every tile is full; lower
/// values flag shard/tile size combinations that waste kernel width.
pub(crate) fn tile_occupancy(ranges: &[std::ops::Range<usize>], tiling: TilePolicy) -> f64 {
    let mut lanes: u64 = 0;
    let mut occupied: u64 = 0;
    for range in ranges {
        let n = range.len();
        if n == 0 {
            continue;
        }
        let tile_ch = tiling.max_tile_channels.min(n).max(1);
        let tiles = n.div_ceil(tile_ch) as u64;
        lanes += tiles.saturating_mul(tile_ch as u64);
        occupied += n as u64;
    }
    if lanes == 0 {
        return 0.0;
    }
    occupied as f64 / lanes as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use datc_obs::MetricValue;

    fn counter_value(reg: &Registry, name: &str) -> u64 {
        reg.snapshot()
            .into_iter()
            .find_map(|(n, _, v)| match (n == name, v) {
                (true, MetricValue::Counter(c)) => Some(c),
                _ => None,
            })
            .expect("counter registered")
    }

    #[test]
    fn note_encode_publishes_throughput_totals() {
        let reg = Registry::new();
        let obs = FleetObs::register(&reg);
        obs.note_encode(8, 2500, 10_000, 42, 1.0);
        obs.note_encode(8, 2500, 10_000, 13, 1.0);
        assert_eq!(counter_value(&reg, FLEET_ENCODES), 2);
        assert_eq!(counter_value(&reg, FLEET_SAMPLES), 2 * 8 * 2500);
        assert_eq!(counter_value(&reg, FLEET_TICKS), 2 * 8 * 10_000);
        assert_eq!(counter_value(&reg, FLEET_EVENTS), 55);
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)] // a one-shard slice IS a single-range slice
    fn tile_occupancy_flags_partial_tiles() {
        let full = TilePolicy {
            max_tile_channels: 4,
            target_tile_bytes: usize::MAX,
        };
        // 8 channels in one shard, 4-wide tiles: two full tiles.
        assert_eq!(tile_occupancy(&[0..8], full), 1.0);
        // 9 channels: two full tiles + one lane of a third → 9/12.
        assert!((tile_occupancy(&[0..9], full) - 9.0 / 12.0).abs() < 1e-12);
        // Two shards of 5: each 4+1 → 10 occupied of 16 lanes.
        assert!((tile_occupancy(&[0..5, 5..10], full) - 10.0 / 16.0).abs() < 1e-12);
        // Untiled: every shard is one exactly-sized tile.
        assert_eq!(tile_occupancy(&[0..5, 5..10], TilePolicy::none()), 1.0);
        assert_eq!(tile_occupancy(&[], full), 0.0);
    }
}
