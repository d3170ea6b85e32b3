//! Data-integrity primitives for the real-threads runtime: a software
//! CRC32C and a seeded bit-flip injector.
//!
//! The simulator models corruption symbolically; this crate carries real
//! bytes, so detection has to be real too. Every mailbox frame and every
//! published shared-memory partition is covered by a CRC32C (Castagnoli
//! polynomial, the checksum iWARP/SCTP/NVMe use), and fault-injection
//! tests flip actual payload bits to prove the guards catch them —
//! mirroring the engine-side `DataFaults` wire model numerically.

/// CRC32C (Castagnoli) lookup table, reflected polynomial `0x82F63B78`.
const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0x82F6_3B78
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

const TABLE: [u32; 256] = build_table();

/// CRC32C of a byte slice.
pub fn crc32c_bytes(bytes: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// CRC32C of an `f64` payload (little-endian byte order, so a checksum
/// computed by the sender matches the receiver on the same machine).
pub fn crc32c(data: &[f64]) -> u32 {
    let mut crc = !0u32;
    for &x in data {
        for b in x.to_le_bytes() {
            crc = (crc >> 8) ^ TABLE[((crc ^ u32::from(b)) & 0xFF) as usize];
        }
    }
    !crc
}

/// Seeded single-bit-flip injection: which payloads to poison and how
/// hard. All draws are deterministic in `(seed, draw index)`, so a
/// poisoned run replays exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoisonPlan {
    /// Fault-stream seed.
    pub seed: u64,
    /// Per-payload probability of flipping one bit, `0.0..=1.0`.
    pub rate: f64,
}

impl PoisonPlan {
    /// Should payload number `draw` be poisoned?
    pub fn strikes(&self, draw: u64) -> bool {
        u01(self.seed, draw) < self.rate
    }

    /// Flip one deterministic bit of `data` (no-op on an empty payload).
    /// Uses a different draw stream than [`PoisonPlan::strikes`] so the
    /// strike decision and the flip position are decorrelated.
    pub fn flip_bit(&self, data: &mut [f64], draw: u64) {
        if data.is_empty() {
            return;
        }
        let r = splitmix(self.seed ^ 0xB17F_11B5_EEDF_00D5, draw);
        let idx = (r % data.len() as u64) as usize;
        let bit = (r >> 32) % 64;
        data[idx] = f64::from_bits(data[idx].to_bits() ^ (1u64 << bit));
    }
}

/// splitmix64 of `seed` advanced by `n`.
fn splitmix(seed: u64, n: u64) -> u64 {
    let mut z = seed
        .wrapping_add(n.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)` from `(seed, n)`.
fn u01(seed: u64, n: u64) -> f64 {
    (splitmix(seed, n) >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32c_known_vector() {
        // The canonical CRC32C check value.
        assert_eq!(crc32c_bytes(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c_bytes(b""), 0);
    }

    #[test]
    fn f64_crc_matches_byte_crc() {
        let v = [1.5f64, -2.25, 1e300, 0.0, -0.0];
        let bytes: Vec<u8> = v.iter().flat_map(|x| x.to_le_bytes()).collect();
        assert_eq!(crc32c(&v), crc32c_bytes(&bytes));
    }

    #[test]
    fn single_bit_flip_always_detected() {
        let plan = PoisonPlan { seed: 7, rate: 1.0 };
        for draw in 0..64 {
            let clean: Vec<f64> = (0..33).map(|i| i as f64 * 0.37 - 5.0).collect();
            let crc = crc32c(&clean);
            let mut dirty = clean.clone();
            plan.flip_bit(&mut dirty, draw);
            assert_ne!(dirty, clean, "draw {draw} must flip something");
            assert_ne!(crc32c(&dirty), crc, "draw {draw} must change the CRC");
        }
    }

    #[test]
    fn strikes_follow_rate_and_replay() {
        let never = PoisonPlan { seed: 3, rate: 0.0 };
        let always = PoisonPlan { seed: 3, rate: 1.0 };
        let half = PoisonPlan { seed: 3, rate: 0.5 };
        let hits = (0..1000).filter(|&d| half.strikes(d)).count();
        assert!((350..650).contains(&hits), "rate 0.5 hit {hits}/1000");
        for d in 0..100 {
            assert!(!never.strikes(d));
            assert!(always.strikes(d));
            assert_eq!(half.strikes(d), half.strikes(d), "draws must replay");
        }
    }

    #[test]
    fn flip_on_empty_payload_is_noop() {
        let plan = PoisonPlan { seed: 1, rate: 1.0 };
        let mut v: Vec<f64> = vec![];
        plan.flip_bit(&mut v, 0);
        assert!(v.is_empty());
    }
}
