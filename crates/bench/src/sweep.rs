//! Message-size sweeps matching the paper's figure panels.
//!
//! Figures 4–7 and 9 present three panels each: small (4B–2KB), medium
//! (4KB–64KB), and large (128KB–1MB) messages, on power-of-two sizes.

use serde::{Deserialize, Serialize};

/// Which panel of a figure a size belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SizeBand {
    /// 4B – 2KB.
    Small,
    /// 4KB – 64KB.
    Medium,
    /// 128KB – 1MB.
    Large,
}

impl SizeBand {
    /// The power-of-two sizes of this panel.
    pub fn sizes(&self) -> Vec<u64> {
        match self {
            SizeBand::Small => pow2_range(4, 2 * 1024),
            SizeBand::Medium => pow2_range(4 * 1024, 64 * 1024),
            SizeBand::Large => pow2_range(128 * 1024, 1 << 20),
        }
    }

    /// Panel label used in figure output.
    pub fn label(&self) -> &'static str {
        match self {
            SizeBand::Small => "small (4B-2KB)",
            SizeBand::Medium => "medium (4KB-64KB)",
            SizeBand::Large => "large (128KB-1MB)",
        }
    }

    /// All three panels in paper order.
    pub fn all() -> [SizeBand; 3] {
        [SizeBand::Small, SizeBand::Medium, SizeBand::Large]
    }

    /// The band containing `bytes`.
    pub fn of(bytes: u64) -> SizeBand {
        if bytes <= 2 * 1024 {
            SizeBand::Small
        } else if bytes <= 64 * 1024 {
            SizeBand::Medium
        } else {
            SizeBand::Large
        }
    }
}

/// Powers of two from `lo` to `hi` inclusive.
fn pow2_range(lo: u64, hi: u64) -> Vec<u64> {
    assert!(lo.is_power_of_two() && hi.is_power_of_two() && lo <= hi);
    let mut out = Vec::new();
    let mut s = lo;
    while s <= hi {
        out.push(s);
        s *= 2;
    }
    out
}

/// Every size the paper sweeps (union of the three panels).
pub fn paper_sizes() -> Vec<u64> {
    SizeBand::all().iter().flat_map(|b| b.sizes()).collect()
}

/// A thinned sweep for quick runs (one size per octave pair).
pub fn quick_sizes() -> Vec<u64> {
    paper_sizes().into_iter().step_by(2).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panels_cover_paper_axes() {
        assert_eq!(SizeBand::Small.sizes().first(), Some(&4));
        assert_eq!(SizeBand::Small.sizes().last(), Some(&2048));
        assert_eq!(
            SizeBand::Medium.sizes(),
            vec![4096, 8192, 16384, 32768, 65536]
        );
        assert_eq!(
            SizeBand::Large.sizes(),
            vec![131072, 262144, 524288, 1048576]
        );
    }

    #[test]
    fn paper_sizes_are_increasing_and_disjoint() {
        let s = paper_sizes();
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(s.len(), 10 + 5 + 4);
    }

    #[test]
    fn band_classification() {
        assert_eq!(SizeBand::of(4), SizeBand::Small);
        assert_eq!(SizeBand::of(2048), SizeBand::Small);
        assert_eq!(SizeBand::of(4096), SizeBand::Medium);
        assert_eq!(SizeBand::of(1 << 20), SizeBand::Large);
    }

    #[test]
    fn quick_sizes_subset() {
        let q = quick_sizes();
        let p = paper_sizes();
        assert!(q.iter().all(|s| p.contains(s)));
        assert!(q.len() < p.len());
    }
}
