//! Byte-level framing: sync word, type, sequence number, length, CRC.
//!
//! Every frame on the wire is self-delimiting and self-checking, so a
//! receiver can resynchronise mid-stream after corruption or a partial
//! read:
//!
//! ```text
//!  offset  size  field
//!  0       2     sync word 0xD4 0x7C
//!  2       1     frame type (0x01 HELLO, 0x03 BYE, 0x04 DATA-V2,
//!                0x05 FEEDBACK; 0x02, the retired revision-1 DATA,
//!                is skipped whole like any unknown type)
//!  3       2     sequence number, u16 LE (wraps)
//!  5       2     payload length, u16 LE
//!  7       n     payload
//!  7+n     2     CRC-16/CCITT-FALSE over bytes [2, 7+n), u16 LE
//! ```

use datc_uwb::crc::crc16_ccitt;

/// The two-byte frame sync word (`0xD47C` — "DATC").
pub const SYNC: [u8; 2] = [0xD4, 0x7C];

/// Frame header length (sync + type + seq + len).
pub const HEADER_LEN: usize = 7;

/// CRC trailer length.
pub const CRC_LEN: usize = 2;

/// Largest admissible payload (fits the u16 length field with room for
/// the header to stay well under one read buffer).
pub const MAX_PAYLOAD: usize = 4096;

/// Frame type discriminants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameType {
    /// Session handshake: timebase, channel count, duration.
    Hello,
    /// Session close: per-channel sent totals for exact loss accounting.
    Bye,
    /// A batch of delta-compressed addressed events behind a one-byte
    /// session nonce that pins every DATA frame to the HELLO it belongs
    /// to (closes the reused-transport-address misattribution corner).
    DataV2,
    /// Receiver→sender flow-control report: highest-contiguous event
    /// index, cumulative exact loss, reorder-buffer occupancy and a hub
    /// pressure level. Travels the *reverse* direction of every other
    /// frame; decoders that predate it skip it whole — CRC-valid
    /// unknown type — so the control channel is backward compatible.
    Feedback,
}

impl FrameType {
    /// The on-wire discriminant byte.
    pub fn to_byte(self) -> u8 {
        match self {
            FrameType::Hello => 0x01,
            FrameType::Bye => 0x03,
            FrameType::DataV2 => 0x04,
            FrameType::Feedback => 0x05,
        }
    }

    /// Parses a discriminant byte.
    pub fn from_byte(b: u8) -> Option<FrameType> {
        match b {
            0x01 => Some(FrameType::Hello),
            0x03 => Some(FrameType::Bye),
            0x04 => Some(FrameType::DataV2),
            0x05 => Some(FrameType::Feedback),
            _ => None,
        }
    }
}

/// A parsed frame, borrowing its payload from the receive buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// Frame type.
    pub ftype: FrameType,
    /// Sequence number (wrapping u16).
    pub seq: u16,
    /// Payload bytes.
    pub payload: &'a [u8],
}

/// Serialises one frame.
///
/// # Panics
///
/// Panics when the payload exceeds [`MAX_PAYLOAD`].
///
/// # Example
///
/// ```
/// use datc_wire::frame::{encode_frame, parse_frame, FrameType, ParseOutcome};
/// let bytes = encode_frame(FrameType::DataV2, 7, &[1, 2, 3]);
/// match parse_frame(&bytes) {
///     ParseOutcome::Frame { frame, consumed } => {
///         assert_eq!(frame.seq, 7);
///         assert_eq!(frame.payload, &[1, 2, 3]);
///         assert_eq!(consumed, bytes.len());
///     }
///     other => panic!("unexpected {other:?}"),
/// }
/// ```
pub fn encode_frame(ftype: FrameType, seq: u16, payload: &[u8]) -> Vec<u8> {
    assert!(
        payload.len() <= MAX_PAYLOAD,
        "payload {} exceeds MAX_PAYLOAD {MAX_PAYLOAD}",
        payload.len()
    );
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + CRC_LEN);
    out.extend_from_slice(&SYNC);
    out.push(ftype.to_byte());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u16).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc16_ccitt(&out[2..]);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Result of attempting to parse one frame from the front of a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseOutcome<'a> {
    /// A valid frame; `consumed` bytes can be dropped from the buffer.
    Frame {
        /// The parsed frame.
        frame: Frame<'a>,
        /// Total bytes the frame occupied.
        consumed: usize,
    },
    /// Not enough bytes yet — wait for more input.
    NeedMore,
    /// The buffer front is not a valid frame; skip `skip` bytes and
    /// retry (resynchronisation).
    Skip {
        /// Bytes to discard.
        skip: usize,
        /// `true` when a frame-shaped candidate failed its CRC (as
        /// opposed to a plain sync-word miss).
        crc_failure: bool,
    },
}

/// Tries to parse one frame from the front of `buf`.
///
/// Never consumes bytes itself — the caller drops `consumed`/`skip`
/// bytes according to the outcome, which makes the scanner trivially
/// restartable across partial reads.
///
/// # Example
///
/// ```
/// use datc_wire::frame::{parse_frame, ParseOutcome};
/// // garbage before a frame: the parser says how much to skip
/// match parse_frame(&[0x00, 0xD4]) {
///     ParseOutcome::Skip { skip, .. } => assert_eq!(skip, 1),
///     other => panic!("unexpected {other:?}"),
/// }
/// ```
pub fn parse_frame(buf: &[u8]) -> ParseOutcome<'_> {
    if buf.len() < HEADER_LEN {
        // A buffer that cannot even hold a header either starts with a
        // sync prefix (wait for more) or is garbage (skip to the next
        // candidate sync byte).
        let prefix = SYNC.len().min(buf.len());
        if buf[..prefix] == SYNC[..prefix] {
            return ParseOutcome::NeedMore;
        }
        return ParseOutcome::Skip {
            skip: skip_to_sync(buf),
            crc_failure: false,
        };
    }
    if buf[..2] != SYNC {
        return ParseOutcome::Skip {
            skip: skip_to_sync(buf),
            crc_failure: false,
        };
    }
    let len = usize::from(u16::from_le_bytes([buf[5], buf[6]]));
    if len > MAX_PAYLOAD {
        // Corrupt length field: this cannot be a real frame start.
        return ParseOutcome::Skip {
            skip: 2,
            crc_failure: false,
        };
    }
    let total = HEADER_LEN + len + CRC_LEN;
    if buf.len() < total {
        return ParseOutcome::NeedMore;
    }
    let crc_stored = u16::from_le_bytes([buf[total - 2], buf[total - 1]]);
    if crc16_ccitt(&buf[2..total - 2]) != crc_stored {
        return ParseOutcome::Skip {
            skip: 2,
            crc_failure: true,
        };
    }
    let Some(ftype) = FrameType::from_byte(buf[2]) else {
        // Valid CRC over an unknown type: a future protocol revision.
        // Skip the whole frame, not just the sync word.
        return ParseOutcome::Skip {
            skip: total,
            crc_failure: false,
        };
    };
    ParseOutcome::Frame {
        frame: Frame {
            ftype,
            seq: u16::from_le_bytes([buf[3], buf[4]]),
            payload: &buf[HEADER_LEN..total - 2],
        },
        consumed: total,
    }
}

/// Distance from the start of `buf` to the next plausible sync start
/// (position of the next `0xD4`, or the whole buffer).
fn skip_to_sync(buf: &[u8]) -> usize {
    buf.iter()
        .skip(1)
        .position(|&b| b == SYNC[0])
        .map_or(buf.len(), |p| p + 1)
        .max(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(bytes: &[u8]) -> (FrameType, u16, Vec<u8>, usize) {
        match parse_frame(bytes) {
            ParseOutcome::Frame { frame, consumed } => {
                (frame.ftype, frame.seq, frame.payload.to_vec(), consumed)
            }
            other => panic!("expected frame, got {other:?}"),
        }
    }

    #[test]
    fn round_trips_all_types() {
        for (ftype, seq) in [
            (FrameType::Hello, 0u16),
            (FrameType::Bye, u16::MAX),
            (FrameType::DataV2, 1000),
            (FrameType::Feedback, 12),
        ] {
            let payload: Vec<u8> = (0..37).collect();
            let bytes = encode_frame(ftype, seq, &payload);
            let (t, s, p, consumed) = parse_ok(&bytes);
            assert_eq!((t, s, p.as_slice()), (ftype, seq, payload.as_slice()));
            assert_eq!(consumed, bytes.len());
        }
    }

    #[test]
    fn partial_frame_waits_for_more() {
        let bytes = encode_frame(FrameType::DataV2, 3, &[9; 100]);
        for cut in [0, 1, 3, HEADER_LEN, bytes.len() - 1] {
            assert_eq!(parse_frame(&bytes[..cut]), ParseOutcome::NeedMore);
        }
    }

    #[test]
    fn corrupted_crc_is_flagged_and_skipped() {
        let mut bytes = encode_frame(FrameType::DataV2, 3, &[1, 2, 3]);
        let n = bytes.len();
        bytes[n - 1] ^= 0xFF;
        match parse_frame(&bytes) {
            ParseOutcome::Skip { crc_failure, skip } => {
                assert!(crc_failure);
                assert!(skip >= 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn resync_skips_garbage_to_next_candidate() {
        let mut stream = vec![0x00, 0x11, 0x22];
        stream.extend(encode_frame(FrameType::Hello, 0, &[5]));
        // three skips at most, then the frame parses
        let mut off = 0usize;
        loop {
            match parse_frame(&stream[off..]) {
                ParseOutcome::Skip { skip, .. } => off += skip,
                ParseOutcome::Frame { frame, .. } => {
                    assert_eq!(frame.ftype, FrameType::Hello);
                    break;
                }
                ParseOutcome::NeedMore => panic!("complete stream"),
            }
        }
        assert_eq!(off, 3);
    }

    #[test]
    fn insane_length_field_does_not_stall_the_scanner() {
        let mut bytes = encode_frame(FrameType::DataV2, 0, &[1]);
        bytes[5] = 0xFF;
        bytes[6] = 0xFF; // length 65535 > MAX_PAYLOAD
        assert!(matches!(
            parse_frame(&bytes),
            ParseOutcome::Skip {
                crc_failure: false,
                ..
            }
        ));
    }
}
