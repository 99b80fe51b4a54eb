//! End-to-end event transport: event stream in → (modulation → channel →
//! detection) → event stream out, at the symbol level so full 20-second
//! recordings are tractable.
//!
//! The paper's robustness remark — "artifacts effect is similar to pulse
//! missing" — is exercised here by injecting misses and false alarms and
//! re-scoring the reconstruction.
//!
//! Two layers:
//!
//! * [`EventLink`] — the raw symbol-level channel transport;
//! * [`UwbTx`] — the composable transmit chain of the unified API:
//!   any [`SpikeEncoder`] → symbol accounting/energy → [`EventLink`],
//!   producing a [`Transmission`]. The full builder (with the receiver
//!   side) is `Link` in `datc-rx`.

use crate::channel::SymbolChannel;
use crate::energy::TxEnergyModel;
use datc_core::encoder::{EncodedOutput, SpikeEncoder};
use datc_core::event::{Event, EventStream};
use datc_signal::noise::GaussianNoise;
use datc_signal::Signal;
use serde::{Deserialize, Serialize};

/// Outcome of transporting an event stream across a lossy link.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkReport {
    /// The stream as seen by the receiver.
    pub received: EventStream,
    /// Events dropped by the channel.
    pub dropped: usize,
    /// Spurious events inserted by the channel.
    pub inserted: usize,
    /// Events whose threshold code was corrupted (one bit flipped).
    pub corrupted_codes: usize,
}

/// Symbol-level event link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EventLink {
    channel: SymbolChannel,
    /// Bits of threshold code carried per event (0 for bare ATC).
    vth_bits: u8,
}

impl EventLink {
    /// Creates a link over `channel` carrying `vth_bits` of side
    /// information per event.
    pub fn new(channel: SymbolChannel, vth_bits: u8) -> Self {
        EventLink { channel, vth_bits }
    }

    /// The channel model in use.
    pub fn channel(&self) -> &SymbolChannel {
        &self.channel
    }

    /// Transports `events` across the link (deterministic in `seed`).
    ///
    /// * An event is lost when its **marker pulse** is missed
    ///   (probability `p_miss`).
    /// * Each code bit flips with probability `p_miss` (a missed pulse
    ///   reads as 0, a false alarm in a silence slot reads as 1 — both
    ///   modelled at the same order).
    /// * False events arrive at rate `p_false × slot_rate`, carrying
    ///   uniformly random codes.
    pub fn transport(&self, events: &EventStream, seed: u64) -> LinkReport {
        let mut g = GaussianNoise::new(seed);
        let mut out: Vec<Event> = Vec::with_capacity(events.len());
        let mut dropped = 0usize;
        let mut corrupted = 0usize;

        for e in events {
            if g.chance(self.channel.p_miss) {
                dropped += 1;
                continue;
            }
            let mut ev = *e;
            if let Some(code) = ev.vth_code {
                let mut new_code = code;
                let mut flipped = false;
                for b in 0..self.vth_bits {
                    let bit_is_one = code >> b & 1 == 1;
                    let p_err = if bit_is_one {
                        self.channel.p_miss
                    } else {
                        self.channel.p_false
                    };
                    if g.chance(p_err) {
                        new_code ^= 1 << b;
                        flipped = true;
                    }
                }
                if flipped {
                    corrupted += 1;
                    ev.vth_code = Some(new_code);
                }
            }
            out.push(ev);
        }

        // False events: thin a Poisson process over the observation
        // window. Slot rate = tick rate (one opportunity per tick).
        let mut inserted = 0usize;
        if self.channel.p_false > 0.0 {
            let expected = self.channel.p_false * events.tick_rate_hz() * events.duration_s();
            // Cap the work for pathological probabilities.
            let n_false = expected.min(1e6) as usize;
            for _ in 0..n_false {
                let t = g.uniform(0.0, events.duration_s());
                let code = if self.vth_bits > 0 {
                    Some(g.uniform_usize(0, 1 << self.vth_bits) as u8)
                } else {
                    None
                };
                out.push(Event {
                    tick: (t * events.tick_rate_hz()) as u64,
                    time_s: t,
                    vth_code: code,
                });
                inserted += 1;
            }
            out.sort_by_key(|a| a.tick);
        }

        LinkReport {
            received: EventStream::new(out, events.tick_rate_hz(), events.duration_s()),
            dropped,
            inserted,
            corrupted_codes: corrupted,
        }
    }
}

/// Transmitter-side energy spent on one transmission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TxEnergyReport {
    /// Pulses actually radiated.
    pub pulses: u64,
    /// Total energy over the observation window, joules.
    pub energy_j: f64,
    /// Average transmit power over the window, watts.
    pub average_power_w: f64,
}

/// Everything one pass through a [`UwbTx`] chain produced.
#[derive(Debug, Clone, PartialEq)]
pub struct Transmission<O> {
    /// The encoder's full output (events + scheme-specific traces).
    pub encoded: O,
    /// What the channel did to the event stream (received stream,
    /// drop/insert/corruption counts).
    pub transport: LinkReport,
    /// Symbol slots occupied on air (the paper's Sec. III-B accounting).
    pub symbols_on_air: u64,
    /// Energy accounting, when an energy model was attached.
    pub energy: Option<TxEnergyReport>,
}

impl<O> Transmission<O> {
    /// The event stream as seen by the receiver.
    pub fn received(&self) -> &EventStream {
        &self.transport.received
    }
}

/// The composable transmit chain: encoder → symbol/energy accounting →
/// lossy channel.
///
/// Works with any [`SpikeEncoder`] (D-ATC, ATC, the packet baseline, or
/// anything downstream crates define). Defaults to an ideal channel, no
/// energy model and seed 0; chain setters to deviate.
///
/// # Example
///
/// ```
/// use datc_core::{DatcConfig, DatcEncoder};
/// use datc_uwb::channel::SymbolChannel;
/// use datc_uwb::link::UwbTx;
/// use datc_signal::Signal;
///
/// let semg = Signal::from_fn(2500.0, 2.0, |t| ((t * 97.0).sin() * (t * 3.0).cos()).abs());
/// let tx = UwbTx::new(DatcEncoder::new(DatcConfig::paper()))
///     .channel(SymbolChannel::new(0.05, 0.0))
///     .seed(7);
/// let run = tx.transmit(&semg);
/// assert!(run.received().len() <= run.encoded.events.len());
/// ```
#[derive(Debug, Clone)]
pub struct UwbTx<E> {
    encoder: E,
    channel: SymbolChannel,
    energy_model: Option<TxEnergyModel>,
    seed: u64,
}

impl<E: SpikeEncoder> UwbTx<E> {
    /// Wraps `encoder` with an ideal channel.
    pub fn new(encoder: E) -> Self {
        UwbTx {
            encoder,
            channel: SymbolChannel::ideal(),
            energy_model: None,
            seed: 0,
        }
    }

    /// Replaces the symbol-level channel model.
    pub fn channel(mut self, channel: SymbolChannel) -> Self {
        self.channel = channel;
        self
    }

    /// Attaches a transmitter energy model (adds energy figures to every
    /// [`Transmission`]).
    pub fn energy_model(mut self, model: TxEnergyModel) -> Self {
        self.energy_model = Some(model);
        self
    }

    /// Sets the channel-noise seed (transport is deterministic in it).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The wrapped encoder.
    pub fn encoder(&self) -> &E {
        &self.encoder
    }

    /// Encodes `rectified` and transports the events across the channel.
    pub fn transmit(&self, rectified: &Signal) -> Transmission<E::Output> {
        self.transmit_encoded(self.encoder.encode(rectified))
    }

    /// Transports an already-encoded output across the channel —
    /// channel-parameter sweeps encode once and reuse the output.
    pub fn transmit_encoded(&self, encoded: E::Output) -> Transmission<E::Output> {
        let vth_bits = self.encoder.vth_bits();
        let symbols_on_air = self.encoder.symbols_on_air(&encoded);
        let energy = self.energy_model.map(|m| {
            let pulses = self.encoder.pulses_on_air(&encoded);
            let duration = encoded.events().duration_s();
            TxEnergyReport {
                pulses,
                energy_j: m.energy_j(pulses, duration),
                average_power_w: m.average_power_w(pulses, duration),
            }
        });
        let channel = self.unit_channel(&encoded, symbols_on_air);
        let transport = EventLink::new(channel, vth_bits).transport(encoded.events(), self.seed);
        Transmission {
            encoded,
            transport,
            symbols_on_air,
            energy,
        }
    }

    /// The channel seen by one transported *unit*.
    ///
    /// `EventLink` models a D-ATC/ATC event natively (marker miss +
    /// per-code-bit errors). Schemes whose events carry no code bits but
    /// occupy several symbols each — the packet baseline's 12-bit
    /// payloads — would otherwise be dropped with a single symbol's
    /// `p_miss`; their miss probability is compounded over the unit's
    /// symbol count so lossy-channel comparisons stay fair.
    fn unit_channel(&self, encoded: &E::Output, symbols_on_air: u64) -> SymbolChannel {
        let n_events = encoded.events().len() as u64;
        if self.encoder.vth_bits() == 0 && n_events > 0 {
            let unit_symbols = (symbols_on_air / n_events).max(1);
            if unit_symbols > 1 {
                let p_miss = 1.0 - (1.0 - self.channel.p_miss).powi(unit_symbols as i32);
                return SymbolChannel::new(p_miss, self.channel.p_false);
            }
        }
        self.channel
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(n: usize, with_codes: bool) -> EventStream {
        let ev: Vec<Event> = (0..n)
            .map(|i| Event {
                tick: i as u64 * 10,
                time_s: i as f64 * 0.005,
                vth_code: if with_codes {
                    Some((i % 16) as u8)
                } else {
                    None
                },
            })
            .collect();
        EventStream::new(ev, 2000.0, n as f64 * 0.005 + 0.1)
    }

    #[test]
    fn ideal_channel_is_transparent() {
        let link = EventLink::new(SymbolChannel::ideal(), 4);
        let s = stream(500, true);
        let rep = link.transport(&s, 1);
        assert_eq!(rep.received, s);
        assert_eq!(rep.dropped + rep.inserted + rep.corrupted_codes, 0);
    }

    #[test]
    fn losses_match_probability() {
        let link = EventLink::new(SymbolChannel::new(0.2, 0.0), 4);
        let s = stream(5000, true);
        let rep = link.transport(&s, 2);
        let loss_rate = rep.dropped as f64 / s.len() as f64;
        assert!((loss_rate - 0.2).abs() < 0.03, "loss {loss_rate}");
        assert_eq!(rep.inserted, 0);
    }

    #[test]
    fn false_alarms_insert_events() {
        let link = EventLink::new(SymbolChannel::new(0.0, 0.001), 4);
        let s = stream(100, true);
        let rep = link.transport(&s, 3);
        assert!(rep.inserted > 0);
        assert!(rep.received.len() > s.len());
        // received stream stays ordered
        let evs = rep.received.events();
        assert!(evs.windows(2).all(|w| w[0].tick <= w[1].tick));
    }

    #[test]
    fn code_corruption_is_counted_and_bounded() {
        let link = EventLink::new(SymbolChannel::new(0.05, 0.05), 4);
        let s = stream(5000, true);
        let rep = link.transport(&s, 4);
        assert!(rep.corrupted_codes > 0);
        // all surviving codes stay in DAC range
        assert!(rep
            .received
            .iter()
            .all(|e| e.vth_code.map(|c| c < 16).unwrap_or(true)));
    }

    #[test]
    fn transport_is_deterministic_in_seed() {
        let link = EventLink::new(SymbolChannel::new(0.1, 0.001), 4);
        let s = stream(1000, true);
        assert_eq!(
            link.transport(&s, 9).received,
            link.transport(&s, 9).received
        );
        assert_ne!(
            link.transport(&s, 9).received,
            link.transport(&s, 10).received
        );
    }

    #[test]
    fn bare_atc_events_have_no_codes_after_transport() {
        let link = EventLink::new(SymbolChannel::new(0.1, 0.0005), 0);
        let s = stream(1000, false);
        let rep = link.transport(&s, 5);
        assert!(rep.received.iter().all(|e| e.vth_code.is_none()));
    }

    #[test]
    fn packet_units_face_compounded_miss_probability() {
        use crate::packet::PacketTx;
        use datc_core::{DatcConfig, DatcEncoder};
        let semg = Signal::from_fn(2500.0, 4.0, |t| {
            ((t * 97.0).sin() * (t * 3.0).cos()).abs() * 0.6
        });
        let p_miss = 0.05;

        // 12-symbol packets: per-unit loss compounds to 1-(1-p)^12 ≈ 0.46
        let tx = UwbTx::new(PacketTx::baseline())
            .channel(SymbolChannel::new(p_miss, 0.0))
            .seed(11);
        let run = tx.transmit(&semg);
        let loss = run.transport.dropped as f64 / run.encoded.events.len() as f64;
        let expected = 1.0 - (1.0 - p_miss).powi(12);
        assert!(
            (loss - expected).abs() < 0.02,
            "packet loss {loss:.3} vs compounded {expected:.3}"
        );

        // single-symbol ATC events keep the bare per-symbol probability
        let atc = UwbTx::new(datc_core::atc::AtcEncoder::new(0.3))
            .channel(SymbolChannel::new(p_miss, 0.0))
            .seed(11);
        let run = atc.transmit(&semg);
        let loss = run.transport.dropped as f64 / run.encoded.events.len().max(1) as f64;
        assert!(loss < 0.1, "ATC loss {loss:.3} should stay near {p_miss}");

        // D-ATC keeps EventLink's native marker+code-bit model
        let datc = UwbTx::new(DatcEncoder::new(DatcConfig::paper()))
            .channel(SymbolChannel::new(p_miss, 0.0))
            .seed(11);
        let run = datc.transmit(&semg);
        let loss = run.transport.dropped as f64 / run.encoded.events.len() as f64;
        assert!(
            loss < 0.1,
            "D-ATC marker loss {loss:.3} should stay near {p_miss}"
        );
    }

    #[test]
    fn transmit_encoded_reuses_one_encode() {
        use datc_core::{DatcConfig, DatcEncoder, SpikeEncoder};
        let semg = Signal::from_fn(2500.0, 2.0, |t| {
            ((t * 97.0).sin() * (t * 3.0).cos()).abs() * 0.6
        });
        let encoder = DatcEncoder::new(DatcConfig::paper());
        let encoded = encoder.encode(&semg);
        let tx = UwbTx::new(encoder)
            .channel(SymbolChannel::new(0.1, 0.0))
            .seed(4);
        let a = tx.transmit_encoded(encoded.clone());
        let b = tx.transmit(&semg);
        assert_eq!(a.transport.received, b.transport.received);
        assert_eq!(a.encoded, encoded);
    }

    #[test]
    fn uwb_tx_is_transparent_on_an_ideal_channel() {
        use datc_core::{DatcConfig, DatcEncoder, SpikeEncoder};
        let semg = Signal::from_fn(2500.0, 2.0, |t| {
            ((t * 97.0).sin() * (t * 3.0).cos()).abs() * 0.6
        });
        let run = UwbTx::new(DatcEncoder::new(DatcConfig::paper())).transmit(&semg);
        let direct = DatcEncoder::new(DatcConfig::paper()).encode(&semg);
        assert_eq!(run.encoded.events, direct.events);
        assert_eq!(*run.received(), direct.events);
        assert_eq!(run.symbols_on_air, direct.events.symbol_count(4));
        assert!(run.energy.is_none());
    }

    #[test]
    fn uwb_tx_energy_accounting() {
        use datc_core::{DatcConfig, DatcEncoder};
        let semg = Signal::from_fn(2500.0, 2.0, |t| {
            ((t * 97.0).sin() * (t * 3.0).cos()).abs() * 0.6
        });
        let run = UwbTx::new(DatcEncoder::new(DatcConfig::paper()))
            .energy_model(TxEnergyModel::paper_class())
            .transmit(&semg);
        let e = run.energy.expect("model attached");
        assert!(e.pulses >= run.encoded.events.len() as u64);
        assert!(e.pulses <= run.symbols_on_air);
        assert!(e.energy_j > 0.0 && e.average_power_w < 1e-6);
    }

    #[test]
    fn uwb_tx_lossy_channel_is_deterministic_in_seed() {
        use datc_core::{DatcConfig, DatcEncoder};
        let semg = Signal::from_fn(2500.0, 2.0, |t| {
            ((t * 97.0).sin() * (t * 3.0).cos()).abs() * 0.6
        });
        let tx = UwbTx::new(DatcEncoder::new(DatcConfig::paper()))
            .channel(SymbolChannel::new(0.2, 0.0))
            .seed(9);
        let a = tx.transmit(&semg);
        let b = tx.transmit(&semg);
        assert_eq!(a.transport.received, b.transport.received);
        assert!(a.transport.dropped > 0);
    }
}
