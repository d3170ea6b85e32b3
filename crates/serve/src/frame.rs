//! CRC32C frame codec shared by the journal and the checkpoint store.
//!
//! Both durable files use the same wire format — `[4-byte LE payload
//! length][4-byte LE CRC32C of the payload][payload]` — so they share
//! one encoder and one scanner, and the scanner's failure taxonomy is
//! identical everywhere:
//!
//! * **Torn tail** — the file ends mid-frame (short header, or the
//!   declared length overruns EOF). This is the signature of a crash
//!   mid-append; everything before the tear is authoritative and the
//!   tear itself carries no information. Owners truncate it on open.
//! * **Corrupt frame** — a frame is structurally complete but its CRC
//!   does not match the payload (silent bit corruption). Unlike a tear,
//!   the frame's *length* is still trustworthy, so the scanner skips
//!   exactly that frame and resynchronizes at the next frame boundary —
//!   records behind a corrupt frame are not walled off.
//!
//! The distinction matters for durability accounting: tears are
//! expected-and-healed (counted once per open), corrupt frames are
//! evidence of storage misbehavior (counted per frame, surfaced to
//! telemetry and post-mortems).

use dpml_shm::crc32c_bytes;

/// Largest accepted frame payload, on disk and on the wire
/// (`protocol::MAX_FRAME` is this constant). A corrupted length field
/// larger than this is treated as a tear, not an allocation request.
pub const MAX_FRAME: usize = 16 << 20;

/// Encode one payload as a `[len][crc][payload]` frame.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut frame = Vec::with_capacity(8 + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32c_bytes(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    frame
}

/// One structurally valid frame recovered by [`scan_frames`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScannedFrame {
    /// Byte offset of the frame header in the scanned bytes.
    pub offset: u64,
    /// The CRC-verified payload.
    pub payload: Vec<u8>,
}

/// Everything a frame scan learned.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct FrameScan {
    /// CRC-valid frames, in file order.
    pub frames: Vec<ScannedFrame>,
    /// Byte offset just past the last structurally complete frame
    /// (valid *or* corrupt) — truncating to this length removes exactly
    /// the torn tail and nothing else.
    pub valid_len: u64,
    /// True when the bytes end mid-frame.
    pub torn_tail: bool,
    /// Structurally complete frames whose CRC did not match; the
    /// scanner skipped them and resynchronized.
    pub corrupt_frames: u32,
}

/// Scan a byte buffer for frames, healing past corrupt frames and
/// stopping cleanly at a torn tail.
pub fn scan_frames(bytes: &[u8]) -> FrameScan {
    let mut out = FrameScan::default();
    let mut off = 0usize;
    loop {
        let rest = &bytes[off..];
        if rest.is_empty() {
            break;
        }
        if rest.len() < 8 {
            out.torn_tail = true;
            break;
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(rest[4..8].try_into().unwrap());
        if len > MAX_FRAME || rest.len() < 8 + len {
            out.torn_tail = true;
            break;
        }
        let payload = &rest[8..8 + len];
        if crc32c_bytes(payload) == crc {
            out.frames.push(ScannedFrame {
                offset: off as u64,
                payload: payload.to_vec(),
            });
        } else {
            out.corrupt_frames += 1;
        }
        off += 8 + len;
        out.valid_len = off as u64;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_and_offsets() {
        let mut bytes = encode_frame(b"alpha");
        bytes.extend_from_slice(&encode_frame(b"beta"));
        let scan = scan_frames(&bytes);
        assert_eq!(scan.frames.len(), 2);
        assert_eq!(scan.frames[0].payload, b"alpha");
        assert_eq!(scan.frames[1].payload, b"beta");
        assert_eq!(scan.frames[1].offset, (8 + 5) as u64);
        assert_eq!(scan.valid_len, bytes.len() as u64);
        assert!(!scan.torn_tail);
        assert_eq!(scan.corrupt_frames, 0);
    }

    #[test]
    fn corrupt_frame_is_skipped_not_a_wall() {
        let first = encode_frame(b"first");
        let mut bytes = first.clone();
        bytes.extend_from_slice(&encode_frame(b"second"));
        // Flip a payload bit of the first frame: its length header is
        // intact, so the scanner must resync and keep the second frame.
        bytes[9] ^= 0x01;
        let scan = scan_frames(&bytes);
        assert_eq!(scan.frames.len(), 1);
        assert_eq!(scan.frames[0].payload, b"second");
        assert_eq!(scan.corrupt_frames, 1);
        assert!(!scan.torn_tail);
        assert_eq!(scan.valid_len, bytes.len() as u64);
    }

    #[test]
    fn every_byte_prefix_is_a_valid_crash_state() {
        let mut bytes = encode_frame(b"one");
        bytes.extend_from_slice(&encode_frame(b"two"));
        bytes.extend_from_slice(&encode_frame(b"three"));
        let mut last_frames = 0usize;
        for cut in 0..=bytes.len() {
            let scan = scan_frames(&bytes[..cut]);
            assert!(
                scan.frames.len() >= last_frames,
                "prefix {cut} lost a frame"
            );
            last_frames = scan.frames.len();
            assert_eq!(scan.torn_tail, scan.valid_len != cut as u64);
            assert_eq!(scan.corrupt_frames, 0);
        }
        assert_eq!(last_frames, 3);
    }

    #[test]
    fn oversized_length_is_a_tear() {
        let mut bytes = encode_frame(b"ok");
        let mut bad = vec![0xffu8; 8];
        bad[0..4].copy_from_slice(&(u32::MAX).to_le_bytes());
        bytes.extend_from_slice(&bad);
        let scan = scan_frames(&bytes);
        assert_eq!(scan.frames.len(), 1);
        assert!(scan.torn_tail);
        assert_eq!(scan.valid_len, (8 + 2) as u64);
    }
}
