//! Cyclic redundancy checks for the packet-based baseline and the wire
//! framing.
//!
//! [`crc8`] stays bitwise (table-free) — the baseline TX the paper
//! argues against must pay this logic in silicon, so the model keeps it
//! explicit. [`crc16_ccitt`] protects `datc-wire` frames and runs twice
//! on every frame (packetize and decode), so it is slicing-by-8: eight
//! 256-entry tables, built at compile time, fold eight bytes per step,
//! and the byte-at-a-time step of the first table finishes the tail
//! (bit-identical to the bytewise and bitwise forms).

/// CRC-8 with polynomial 0x07 (ATM HEC), init 0x00.
///
/// # Example
///
/// ```
/// use datc_uwb::crc::crc8;
/// assert_eq!(crc8(b"123456789"), 0xF4);
/// ```
pub fn crc8(data: &[u8]) -> u8 {
    let mut crc = 0u8;
    for &byte in data {
        crc ^= byte;
        for _ in 0..8 {
            crc = if crc & 0x80 != 0 {
                (crc << 1) ^ 0x07
            } else {
                crc << 1
            };
        }
    }
    crc
}

/// CRC-16/CCITT-FALSE: polynomial 0x1021, init 0xFFFF.
///
/// # Example
///
/// ```
/// use datc_uwb::crc::crc16_ccitt;
/// assert_eq!(crc16_ccitt(b"123456789"), 0x29B1);
/// ```
pub fn crc16_ccitt(data: &[u8]) -> u16 {
    let t = &CRC16_TABLES;
    let mut chunks = data.chunks_exact(8);
    let mut crc = 0xFFFFu16;
    for c in &mut chunks {
        // The register folds into the first two bytes; each byte then
        // contributes its table entry for the bytes that follow it.
        let [hi, lo] = crc.to_be_bytes();
        crc = t[7][usize::from(c[0] ^ hi)]
            ^ t[6][usize::from(c[1] ^ lo)]
            ^ t[5][usize::from(c[2])]
            ^ t[4][usize::from(c[3])]
            ^ t[3][usize::from(c[4])]
            ^ t[2][usize::from(c[5])]
            ^ t[1][usize::from(c[6])]
            ^ t[0][usize::from(c[7])];
    }
    chunks
        .remainder()
        .iter()
        .fold(crc, |crc, &byte| crc16_step(crc, byte))
}

/// One byte of CRC-16/CCITT through the first table.
fn crc16_step(crc: u16, byte: u8) -> u16 {
    (crc << 8) ^ CRC16_TABLES[0][usize::from((crc >> 8) as u8 ^ byte)]
}

/// Slicing-by-8 tables for polynomial 0x1021, computed at compile time:
/// `CRC16_TABLES[k][v]` is the CRC register, from zero, after byte `v`
/// and then `k` zero bytes. Table 0 is the standard per-byte table.
const CRC16_TABLES: [[u16; 256]; 8] = {
    let mut tables = [[0u16; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = (i as u16) << 8;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 0x8000 != 0 {
                (crc << 1) ^ 0x1021
            } else {
                crc << 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev << 8) ^ tables[0][(prev >> 8) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-serial loop slicing-by-8 replaced: the reference.
    fn crc16_bytewise(data: &[u8]) -> u16 {
        data.iter().fold(0xFFFF, |crc, &byte| crc16_step(crc, byte))
    }

    /// A seeded xorshift buffer.
    fn noise(len: usize) -> Vec<u8> {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn crc16_slicing_matches_the_bytewise_loop() {
        let buf = noise(64 + 8);
        for start in 0..8 {
            for len in 0..=64 {
                let data = &buf[start..start + len];
                assert_eq!(crc16_ccitt(data), crc16_bytewise(data), "{start}+{len}");
            }
        }
        // A full datc-wire frame's CRC span: the 5 header bytes after
        // the sync, then a MAX_PAYLOAD (4096-byte) payload.
        let frame = noise(5 + 4096);
        assert_eq!(crc16_ccitt(&frame), crc16_bytewise(&frame));
    }

    #[test]
    fn crc8_check_value() {
        assert_eq!(crc8(b"123456789"), 0xF4);
        assert_eq!(crc8(&[]), 0x00);
    }

    #[test]
    fn crc16_check_value() {
        assert_eq!(crc16_ccitt(b"123456789"), 0x29B1);
        assert_eq!(crc16_ccitt(&[]), 0xFFFF);
    }

    #[test]
    fn crc8_detects_all_single_bit_errors() {
        let msg = [0x42u8, 0x13, 0x37, 0xA5];
        let good = crc8(&msg);
        for byte in 0..msg.len() {
            for bit in 0..8 {
                let mut bad = msg;
                bad[byte] ^= 1 << bit;
                assert_ne!(crc8(&bad), good, "missed flip at {byte}:{bit}");
            }
        }
    }

    #[test]
    fn crc16_detects_all_single_and_double_bit_errors_in_short_msg() {
        let msg = [0xDEu8, 0xAD];
        let good = crc16_ccitt(&msg);
        let nbits = msg.len() * 8;
        for i in 0..nbits {
            for j in (i + 1)..nbits {
                let mut bad = msg;
                bad[i / 8] ^= 1 << (i % 8);
                bad[j / 8] ^= 1 << (j % 8);
                assert_ne!(crc16_ccitt(&bad), good, "missed flips {i},{j}");
            }
        }
    }

    #[test]
    fn crc_is_order_sensitive() {
        assert_ne!(crc8(&[1, 2]), crc8(&[2, 1]));
        assert_ne!(crc16_ccitt(&[1, 2]), crc16_ccitt(&[2, 1]));
    }
}
