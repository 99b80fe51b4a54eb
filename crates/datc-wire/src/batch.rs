//! Struct-of-arrays event batches — the zero-copy decode currency.
//!
//! The streaming decoder used to materialise a `Vec<WireEvent>` per
//! packet and a `Vec<AddressedEvent>` per drain; at gateway rates that
//! allocation churn dominated the decode profile. [`EventBatch`] keeps
//! the three event fields in parallel arrays (`addrs[] / ticks[] /
//! codes[]`) inside caller-owned, reusable arenas:
//! [`crate::packet::decode_data_into`] appends straight from the
//! receive buffer, the reorder buffer parks whole batches, and
//! [`crate::session::SessionRx`] feeds reconstructors from the arrays
//! without ever building an
//! [`AddressedEvent`] — those are
//! materialised only at the compatibility seams (sinks, the legacy
//! drain).
//!
//! The column layout is also what keeps the batched observability
//! path cheap: latency bucketing partitions the tick array directly
//! (see `SessionObs::observe_latency_batch`).

use crate::packet::WireEvent;
use datc_core::Event;
use datc_uwb::aer::AddressedEvent;

/// Sentinel in the `codes` column for an event without a threshold
/// code (wire codes are 0–255, so any value with bit 8 set is free).
pub const CODE_NONE: u16 = 0x0100;

/// A run of decoded wire events in struct-of-arrays form.
///
/// Columns stay index-aligned: `addrs[i] / ticks[i] / codes[i]`
/// describe one event. Ticks are non-decreasing within a batch decoded
/// from one packet (the wire format's delta encoding cannot express a
/// backwards step), and the decoder's release path relies on that.
///
/// # Example
///
/// ```
/// use datc_wire::batch::EventBatch;
/// let mut batch = EventBatch::new();
/// batch.push(3, 1000, Some(7));
/// batch.push(5, 1010, None);
/// assert_eq!(batch.len(), 2);
/// assert_eq!(batch.addrs(), &[3, 5]);
/// assert_eq!(batch.ticks(), &[1000, 1010]);
/// assert_eq!(batch.code(0), Some(7));
/// assert_eq!(batch.code(1), None);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EventBatch {
    addrs: Vec<u8>,
    ticks: Vec<u64>,
    codes: Vec<u16>,
}

impl EventBatch {
    /// An empty batch (no allocation until the first push).
    pub fn new() -> Self {
        EventBatch::default()
    }

    /// An empty batch with room for `n` events per column.
    pub fn with_capacity(n: usize) -> Self {
        EventBatch {
            addrs: Vec::with_capacity(n),
            ticks: Vec::with_capacity(n),
            codes: Vec::with_capacity(n),
        }
    }

    /// Events in the batch.
    #[inline]
    pub fn len(&self) -> usize {
        self.addrs.len()
    }

    /// Whether the batch holds no events.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.addrs.is_empty()
    }

    /// Clears the columns, keeping their capacity (the arena pattern).
    #[inline]
    pub fn clear(&mut self) {
        self.addrs.clear();
        self.ticks.clear();
        self.codes.clear();
    }

    /// Reserves room for `n` more events per column.
    #[inline]
    pub fn reserve(&mut self, n: usize) {
        self.addrs.reserve(n);
        self.ticks.reserve(n);
        self.codes.reserve(n);
    }

    /// Appends one event.
    #[inline]
    pub fn push(&mut self, addr: u8, tick: u64, code: Option<u8>) {
        self.addrs.push(addr);
        self.ticks.push(tick);
        self.codes.push(code.map_or(CODE_NONE, u16::from));
    }

    /// Truncates all columns to `len` events (decode-failure rollback).
    #[inline]
    pub fn truncate(&mut self, len: usize) {
        self.addrs.truncate(len);
        self.ticks.truncate(len);
        self.codes.truncate(len);
    }

    /// The address column.
    #[inline]
    pub fn addrs(&self) -> &[u8] {
        &self.addrs
    }

    /// The absolute-tick column.
    #[inline]
    pub fn ticks(&self) -> &[u64] {
        &self.ticks
    }

    /// Event `i`'s threshold code, if it carries one.
    #[inline]
    pub fn code(&self, i: usize) -> Option<u8> {
        let c = self.codes[i];
        (c <= 0xFF).then_some(c as u8)
    }

    /// Event `i` in row form.
    #[inline]
    pub fn get(&self, i: usize) -> WireEvent {
        WireEvent {
            addr: self.addrs[i],
            tick: self.ticks[i],
            code: self.code(i),
        }
    }

    /// Row-form view of the batch.
    pub fn iter(&self) -> impl Iterator<Item = WireEvent> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Appends every event of `other`, column by column.
    pub fn append(&mut self, other: &EventBatch) {
        self.addrs.extend_from_slice(&other.addrs);
        self.ticks.extend_from_slice(&other.ticks);
        self.codes.extend_from_slice(&other.codes);
    }

    /// Moves this batch's events out, leaving it empty with its
    /// capacity intact — when `self` is empty the columns are swapped
    /// instead of copied, which is the drain hot path.
    pub fn drain_into(&mut self, out: &mut EventBatch) {
        if out.is_empty() {
            std::mem::swap(out, self);
        } else {
            out.append(self);
        }
        self.clear();
    }

    /// Takes the batch by value, leaving an empty one behind.
    pub fn take(&mut self) -> EventBatch {
        std::mem::take(self)
    }

    /// Materialises the batch as timestamped
    /// [`AddressedEvent`]s, deriving
    /// `time = tick * tick_period_s` exactly as the tick-exact decode
    /// contract requires.
    pub fn materialize_into(&self, tick_period_s: f64, out: &mut Vec<AddressedEvent>) {
        out.reserve(self.len());
        for i in 0..self.len() {
            out.push(AddressedEvent {
                channel: self.addrs[i],
                event: Event::at_tick(self.ticks[i], tick_period_s, self.code(i)),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn columns_stay_aligned_through_push_append_truncate() {
        let mut a = EventBatch::new();
        a.push(1, 10, Some(0xFF));
        a.push(2, 20, None);
        let mut b = EventBatch::with_capacity(4);
        b.push(3, 30, Some(0));
        b.append(&a);
        assert_eq!(b.len(), 3);
        assert_eq!(
            b.iter().collect::<Vec<_>>(),
            vec![
                WireEvent {
                    addr: 3,
                    tick: 30,
                    code: Some(0)
                },
                WireEvent {
                    addr: 1,
                    tick: 10,
                    code: Some(0xFF)
                },
                WireEvent {
                    addr: 2,
                    tick: 20,
                    code: None
                },
            ]
        );
        b.truncate(1);
        assert_eq!(b.len(), 1);
        assert_eq!(b.get(0).addr, 3);
    }

    #[test]
    fn drain_into_swaps_when_target_is_empty() {
        let mut src = EventBatch::new();
        src.push(7, 70, None);
        let mut dst = EventBatch::new();
        src.drain_into(&mut dst);
        assert!(src.is_empty());
        assert_eq!(dst.len(), 1);
        // Non-empty target: append path.
        let mut more = EventBatch::new();
        more.push(8, 80, Some(1));
        more.drain_into(&mut dst);
        assert_eq!(dst.len(), 2);
        assert!(more.is_empty());
        assert_eq!(
            dst.get(1),
            WireEvent {
                addr: 8,
                tick: 80,
                code: Some(1)
            }
        );
    }

    #[test]
    fn materialization_matches_at_tick_exactly() {
        let period = 1.0 / 2000.0;
        let mut batch = EventBatch::new();
        batch.push(4, 12345, Some(9));
        let mut out = Vec::new();
        batch.materialize_into(period, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].channel, 4);
        assert_eq!(
            out[0].event.time_s.to_bits(),
            Event::at_tick(12345, period, Some(9)).time_s.to_bits()
        );
        assert_eq!(out[0].event.vth_code, Some(9));
    }
}
