//! The packet/ADC baseline the paper argues against (Sec. II):
//! "a standard system would require an A-to-D converter and communication
//! would be packet-based. Typically additional bits, e.g. header,
//! Start-Frame-Delimiter (SFD), identifier (ID) and Cyclic Redundancy
//! Code (CRC) are required".

use crate::adc::Adc;
use crate::crc::crc8;
use crate::error::UwbError;
use datc_core::encoder::{EncodedOutput, SpikeEncoder};
use datc_core::event::{Event, EventStream};
use datc_signal::Signal;
use serde::{Deserialize, Serialize};

/// Field layout of one sample packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PacketFormat {
    /// Preamble/header bits.
    pub header_bits: u8,
    /// Start-frame-delimiter bits.
    pub sfd_bits: u8,
    /// Node/channel identifier bits.
    pub id_bits: u8,
    /// ADC payload bits per sample.
    pub payload_bits: u8,
    /// CRC bits (8 → CRC-8 over the payload bytes).
    pub crc_bits: u8,
}

impl PacketFormat {
    /// A typical minimal WBAN packet: 8-bit header, 8-bit SFD, 8-bit ID,
    /// 12-bit payload, CRC-8 — 44 bits/sample.
    pub fn standard_12bit() -> Self {
        PacketFormat {
            header_bits: 8,
            sfd_bits: 8,
            id_bits: 8,
            payload_bits: 12,
            crc_bits: 8,
        }
    }

    /// Bits on air per transmitted sample, including all overhead.
    pub fn bits_per_packet(&self) -> u32 {
        u32::from(self.header_bits)
            + u32::from(self.sfd_bits)
            + u32::from(self.id_bits)
            + u32::from(self.payload_bits)
            + u32::from(self.crc_bits)
    }

    /// Payload-only bits per sample — the paper's accounting
    /// ("12 × 50000 = 600000 symbols") counts just these, which is the
    /// most charitable reading for the baseline.
    pub fn payload_bits_per_packet(&self) -> u32 {
        u32::from(self.payload_bits)
    }
}

/// One encoded packet.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Packet {
    /// Node identifier.
    pub id: u8,
    /// ADC code (right-aligned in `payload_bits`).
    pub payload: u32,
    /// CRC-8 over `[id, payload bytes]`.
    pub crc: u8,
}

/// The packet-based transmitter model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PacketTx {
    format: PacketFormat,
    adc: Adc,
    node_id: u8,
}

impl PacketTx {
    /// Creates a transmitter for `node_id` with the given packet format
    /// and converter.
    pub fn new(format: PacketFormat, adc: Adc, node_id: u8) -> Self {
        PacketTx {
            format,
            adc,
            node_id,
        }
    }

    /// The paper's baseline: 12-bit ADC, standard packet, node 0.
    pub fn baseline() -> Self {
        PacketTx::new(PacketFormat::standard_12bit(), Adc::baseline_12bit(), 0)
    }

    /// The packet format.
    pub fn format(&self) -> &PacketFormat {
        &self.format
    }

    /// Encodes every sample of `signal` into a packet.
    pub fn packets(&self, signal: &Signal) -> Vec<Packet> {
        self.adc
            .digitize(signal)
            .into_iter()
            .map(|code| {
                let bytes = [self.node_id, (code >> 8) as u8, (code & 0xFF) as u8];
                Packet {
                    id: self.node_id,
                    payload: code,
                    crc: crc8(&bytes),
                }
            })
            .collect()
    }

    /// Verifies and strips one packet back to its ADC code.
    ///
    /// # Errors
    ///
    /// Returns [`UwbError::CrcMismatch`] for corrupted packets.
    pub fn decode(&self, packet: &Packet) -> Result<u32, UwbError> {
        let bytes = [
            packet.id,
            (packet.payload >> 8) as u8,
            (packet.payload & 0xFF) as u8,
        ];
        let computed = crc8(&bytes);
        if computed != packet.crc {
            return Err(UwbError::CrcMismatch {
                computed: u16::from(computed),
                received: u16::from(packet.crc),
            });
        }
        Ok(packet.payload)
    }

    /// On-air symbol count for transmitting `n_samples` samples:
    /// `(payload_only, full_packet)` — the paper quotes the first.
    pub fn symbol_counts(&self, n_samples: u64) -> (u64, u64) {
        (
            n_samples * u64::from(self.format.payload_bits_per_packet()),
            n_samples * u64::from(self.format.bits_per_packet()),
        )
    }
}

/// Everything the packet baseline produces for one input signal: the
/// packets themselves, plus the uniform-API view of them (one "event"
/// per transmitted sample).
#[derive(Debug, Clone, PartialEq)]
pub struct PacketOutput {
    /// One packet per input sample.
    pub packets: Vec<Packet>,
    /// Uniform-API view: one bare event per packet slot.
    pub events: EventStream,
}

impl EncodedOutput for PacketOutput {
    fn events(&self) -> &EventStream {
        &self.events
    }

    /// Every sample slot transmits — the always-on strawman.
    fn duty_cycle(&self) -> f64 {
        1.0
    }
}

impl SpikeEncoder for PacketTx {
    type Output = PacketOutput;

    /// Packetises every sample. The uniform event view carries no
    /// threshold codes (the payload rides in
    /// [`PacketOutput::packets`]); channel transport treats each packet
    /// slot as one markable unit.
    fn encode(&self, rectified: &Signal) -> PacketOutput {
        let fs = rectified.sample_rate();
        let packets = self.packets(rectified);
        let events: Vec<Event> = (0..packets.len())
            .map(|i| Event {
                tick: i as u64,
                time_s: i as f64 / fs,
                vth_code: None,
            })
            .collect();
        PacketOutput {
            packets,
            events: EventStream::new(events, fs, rectified.duration().max(f64::MIN_POSITIVE)),
        }
    }

    fn vth_bits(&self) -> u8 {
        0
    }

    fn scheme(&self) -> &'static str {
        "packet"
    }

    /// Payload-only bits on air — the paper's charitable
    /// "12 × 50000 = 600000 symbols" accounting.
    fn symbols_on_air(&self, output: &Self::Output) -> u64 {
        self.symbol_counts(output.packets.len() as u64).0
    }

    /// Exact OOK pulse count: one pulse per `1` bit of each payload.
    fn pulses_on_air(&self, output: &Self::Output) -> u64 {
        output
            .packets
            .iter()
            .map(|p| u64::from(p.payload.count_ones()))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_symbol_count_is_600k() {
        let tx = PacketTx::baseline();
        let (payload, full) = tx.symbol_counts(50_000);
        assert_eq!(payload, 600_000); // the paper's bullet
        assert_eq!(full, 50_000 * 44);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let tx = PacketTx::baseline();
        let s = Signal::from_fn(2500.0, 0.1, |t| (t * 50.0).sin().abs());
        let packets = tx.packets(&s);
        assert_eq!(packets.len(), s.len());
        for p in &packets {
            let code = tx.decode(p).unwrap();
            assert_eq!(code, p.payload);
        }
    }

    #[test]
    fn corruption_is_detected() {
        let tx = PacketTx::baseline();
        let s = Signal::from_samples(vec![0.5], 2500.0);
        let mut p = tx.packets(&s).remove(0);
        p.payload ^= 0x004;
        assert!(matches!(tx.decode(&p), Err(UwbError::CrcMismatch { .. })));
    }

    #[test]
    fn spike_encoder_view_matches_paper_accounting() {
        let tx = PacketTx::baseline();
        let s = Signal::from_fn(2500.0, 0.2, |t| (t * 50.0).sin().abs());
        let out = tx.encode(&s);
        assert_eq!(out.packets.len(), s.len());
        assert_eq!(out.events.len(), s.len());
        assert_eq!(tx.symbols_on_air(&out), s.len() as u64 * 12);
        assert_eq!(out.duty_cycle(), 1.0);
        assert_eq!(tx.scheme(), "packet");
        // pulses = total set payload bits
        let ones: u64 = out
            .packets
            .iter()
            .map(|p| u64::from(p.payload.count_ones()))
            .sum();
        assert_eq!(tx.pulses_on_air(&out), ones);
    }

    #[test]
    fn format_bit_budget() {
        let f = PacketFormat::standard_12bit();
        assert_eq!(f.bits_per_packet(), 44);
        assert_eq!(f.payload_bits_per_packet(), 12);
    }
}
