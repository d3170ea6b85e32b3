//! Symbolic data tracking for collective verification.
//!
//! Every buffer in the simulator carries a [`CoverageMap`]: for each byte
//! range of the logical reduction vector, a checksum of the contributions
//! the buffer holds there. Rank `r` contributes
//! `h(r) = splitmix64(r · 0x9E37_79B9_7F4A_7C15)`, a segment holds the
//! wrapping sum of `h` over its contributors, and a reduction adds sums.
//! A correct allreduce ends with every rank holding [`Contrib::full`]`(p)`
//! over the whole vector `[0, n)`. Every instruction reads and writes the
//! same byte offsets in its source and destination, so the hash need not
//! depend on the offset.
//!
//! A schedule bug that leaves some byte range of some rank's result with
//! the wrong contributions — a missing wait, a partition copied to the
//! wrong leader, a skipped phase, a contribution folded in twice —
//! surfaces as a verification failure rather than silently producing
//! plausible timings.
//!
//! **False-pass bound.** `splitmix64` is a bijection on `u64` and the
//! multiplier is odd, so `h` is injective on ranks; it is also non-zero
//! for every rank below 65,536 (unit-tested). A result that differs from
//! `{0, ..., p-1}` by a single missing, extra or substituted contribution
//! is off by `h(r)` or `h(r) - h(s)`, never zero, so it always fails. Any
//! other wrong multiset, with `m_r` copies of rank `r`, passes only if
//! `Σ (m_r - 1) · h(r)` wraps to exactly 0 mod 2^64.

use dpml_faults::splitmix64;
use serde::{Deserialize, Serialize};
use std::ops::{Add, Range};

/// The wrapping sum of `h(r)` over a segment's contributors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Contrib(pub(crate) u64);

impl Contrib {
    /// Rank `rank`'s own contribution, `h(rank)`.
    pub fn rank(rank: u32) -> Self {
        Contrib(splitmix64(
            u64::from(rank).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ))
    }

    /// Every contribution of `ranks`, each once.
    pub fn ranks(ranks: Range<u32>) -> Self {
        ranks.map(Contrib::rank).fold(Contrib::default(), Add::add)
    }

    /// The fully-reduced value of a `p`-rank allreduce.
    pub fn full(p: u32) -> Self {
        Contrib::ranks(0..p)
    }
}

impl Add for Contrib {
    type Output = Contrib;

    fn add(self, other: Contrib) -> Contrib {
        Contrib(self.0.wrapping_add(other.0))
    }
}

/// Maps disjoint byte ranges of the logical vector to the sums of the
/// contributions they hold.
///
/// Invariants: segments are sorted, non-empty, pairwise disjoint, and
/// adjacent segments with equal sums are coalesced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct CoverageMap {
    segs: Vec<(u64, u64, Contrib)>,
}

impl CoverageMap {
    /// An empty buffer: holds nothing.
    pub fn empty() -> Self {
        CoverageMap { segs: Vec::new() }
    }

    /// A buffer holding a single rank's contribution over `[start, end)`.
    pub fn singleton(rank: u32, start: u64, end: u64) -> Self {
        CoverageMap::ranks(rank..rank + 1, start, end)
    }

    /// A buffer holding every contribution of `ranks`, each once, over
    /// `[start, end)`: `0..p` is a fully-reduced range.
    pub fn ranks(ranks: Range<u32>, start: u64, end: u64) -> Self {
        if start >= end {
            return CoverageMap::empty();
        }
        CoverageMap {
            segs: vec![(start, end, Contrib::ranks(ranks))],
        }
    }

    /// True if nothing is held.
    pub fn is_empty(&self) -> bool {
        self.segs.is_empty()
    }

    /// Index of the first segment whose end is past `at` (candidate
    /// overlap start — segments are sorted and disjoint).
    #[inline]
    fn lower(&self, at: u64) -> usize {
        self.segs.partition_point(|seg| seg.1 <= at)
    }

    /// Index of the first segment starting at or past `end` (one past the
    /// overlap window for a range ending at `end`).
    #[inline]
    fn upper(&self, end: u64) -> usize {
        self.segs.partition_point(|seg| seg.0 < end)
    }

    /// The sum held at byte offset `at`, if any.
    pub fn at(&self, at: u64) -> Option<Contrib> {
        let i = self.lower(at);
        match self.segs.get(i) {
            Some((s, _, sum)) if *s <= at => Some(*sum),
            _ => None,
        }
    }

    /// Extract the sub-map covering `[start, end)`.
    pub fn restrict(&self, start: u64, end: u64) -> CoverageMap {
        if start >= end {
            return CoverageMap::empty();
        }
        let (i, j) = (self.lower(start), self.upper(end));
        let mut out = Vec::with_capacity(j.saturating_sub(i));
        for (s, e, sum) in &self.segs[i..j] {
            out.push(((*s).max(start), (*e).min(end), *sum));
        }
        CoverageMap { segs: out }
    }

    /// Replace all coverage in `[start, end)` with `mid` — segments that
    /// must already lie within `[start, end)`, sorted, disjoint, and
    /// internally coalesced. Splices only the overlap window; boundary
    /// segments are split and the two joints re-coalesced, so cost is
    /// O(window + log n) rather than a full-map rebuild.
    fn splice_window(&mut self, start: u64, end: u64, mid: Vec<(u64, u64, Contrib)>) {
        let (i, j) = (self.lower(start), self.upper(end));
        let mut repl: Vec<(u64, u64, Contrib)> = Vec::with_capacity(mid.len() + 2);
        if i < j && self.segs[i].0 < start {
            repl.push((self.segs[i].0, start, self.segs[i].2));
        }
        for seg in mid {
            push_coalesced(&mut repl, seg);
        }
        if i < j && self.segs[j - 1].1 > end {
            push_coalesced(&mut repl, (end, self.segs[j - 1].1, self.segs[j - 1].2));
        }
        let len = repl.len();
        self.segs.splice(i..j, repl);
        // Re-coalesce the joints with the untouched neighbors: first the
        // right joint (higher index, so the left joint's indices survive a
        // merge), then the left.
        let right = i + len;
        if right > 0 {
            self.merge_joint(right - 1);
        }
        if i > 0 {
            self.merge_joint(i - 1);
        }
        self.assert_invariants();
    }

    /// Merge `segs[idx]` into `segs[idx + 1]`'s slot when they are
    /// adjacent and hold the same sum.
    fn merge_joint(&mut self, idx: usize) {
        if idx + 1 < self.segs.len()
            && self.segs[idx].1 == self.segs[idx + 1].0
            && self.segs[idx].2 == self.segs[idx + 1].2
        {
            self.segs[idx].1 = self.segs[idx + 1].1;
            self.segs.remove(idx + 1);
        }
    }

    /// Overwrite `[start, end)` with `src`'s contents over the same range
    /// (bytes `src` does not cover become uncovered). This is the semantics
    /// of a plain copy or a received message: payload *replaces* buffer
    /// content.
    pub fn overwrite(&mut self, src: &CoverageMap, start: u64, end: u64) {
        self.overwrite_owned(src.restrict(start, end), start, end);
    }

    /// [`CoverageMap::overwrite`] with the source taken by value: when
    /// `src` already lies inside `[start, end)` — as every engine payload
    /// does — its segments move in without a `restrict` copy.
    pub(crate) fn overwrite_owned(&mut self, src: CoverageMap, start: u64, end: u64) {
        if start >= end {
            return;
        }
        let inside = src.segs.first().is_none_or(|f| f.0 >= start)
            && src.segs.last().is_none_or(|l| l.1 <= end);
        let mid = if inside {
            src.segs
        } else {
            src.restrict(start, end).segs
        };
        self.splice_window(start, end, mid);
    }

    /// Pointwise-add `src`'s sums over `[start, end)` into this map — the
    /// semantics of a reduction: contributions combine, and one folded in
    /// twice counts twice.
    pub fn union_merge(&mut self, src: &CoverageMap, start: u64, end: u64) {
        if start >= end {
            return;
        }
        // `src`'s segments overlapping the window, read in place and
        // clamped to it on the fly rather than through a `restrict` copy.
        let add = &src.segs[src.lower(start)..src.upper(end)];
        let (Some(first), Some(last)) = (add.first(), add.last()) else {
            return;
        };
        // Sweep the cut points of both maps across the window `add` spans
        // (outside it the sum changes nothing), advancing a cursor into
        // each segment list — O(window), no per-cut linear scans.
        let lo = first.0.max(start);
        let hi = last.1.min(end);
        let (i0, j0) = (self.lower(lo), self.upper(hi));
        let mine = &self.segs[i0..j0];
        let mut cuts: Vec<u64> = Vec::with_capacity((mine.len() + add.len()) * 2);
        for (s, e, _) in mine.iter().chain(add) {
            cuts.push((*s).max(lo));
            cuts.push((*e).min(hi));
        }
        cuts.sort_unstable();
        cuts.dedup();
        let mut rebuilt: Vec<(u64, u64, Contrib)> = Vec::with_capacity(cuts.len());
        let (mut ai, mut bi) = (0usize, 0usize);
        for w in cuts.windows(2) {
            let (s, e) = (w[0], w[1]);
            while ai < mine.len() && mine[ai].1 <= s {
                ai += 1;
            }
            while bi < add.len() && add[bi].1 <= s {
                bi += 1;
            }
            let a = mine.get(ai).filter(|(ms, _, _)| *ms <= s).map(|seg| seg.2);
            let b = add.get(bi).filter(|(bs, _, _)| *bs <= s).map(|seg| seg.2);
            let sum = match (a, b) {
                (None, None) => continue,
                (Some(x), None) | (None, Some(x)) => x,
                (Some(x), Some(y)) => x + y,
            };
            push_coalesced(&mut rebuilt, (s, e, sum));
        }
        self.splice_window(lo, hi, rebuilt);
    }

    /// True when `[start, end)` is fully covered and every byte holds
    /// exactly `expected`.
    pub fn covers_exactly(&self, start: u64, end: u64, expected: Contrib) -> bool {
        if start >= end {
            return true;
        }
        let mut cursor = start;
        for (s, e, sum) in &self.segs[self.lower(start)..] {
            if *e <= cursor {
                continue;
            }
            if *s > cursor {
                return false; // gap
            }
            if *sum != expected {
                return false;
            }
            cursor = *e;
            if cursor >= end {
                return true;
            }
        }
        cursor >= end
    }

    #[inline]
    fn assert_invariants(&self) {
        debug_assert!(
            self.segs.windows(2).all(|w| w[0].1 <= w[1].0),
            "coverage segments overlap or unsorted"
        );
        debug_assert!(self.segs.iter().all(|(s, e, _)| s < e), "empty segment");
    }

    /// Iterate over `(start, end, sum)` segments.
    pub fn segments(&self) -> impl Iterator<Item = (u64, u64, Contrib)> + '_ {
        self.segs.iter().copied()
    }
}

/// Append `seg` to `out`, extending the last segment instead when the two
/// are adjacent with equal sums (the canonical-form invariant).
#[inline]
fn push_coalesced(out: &mut Vec<(u64, u64, Contrib)>, seg: (u64, u64, Contrib)) {
    if seg.0 >= seg.1 {
        return;
    }
    if let Some(last) = out.last_mut() {
        if last.1 == seg.0 && last.2 == seg.2 {
            last.1 = seg.1;
            return;
        }
    }
    out.push(seg);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Total bytes covered (by at least one contribution).
    fn covered_bytes(m: &CoverageMap) -> u64 {
        m.segments().map(|(s, e, _)| e - s).sum()
    }

    #[test]
    fn hash_is_nonzero_and_injective_below_65536() {
        let mut hs: Vec<u64> = (0..65_536).map(|r| Contrib::rank(r).0).collect();
        assert!(!hs.contains(&0));
        hs.sort_unstable();
        hs.dedup();
        assert_eq!(hs.len(), 65_536);
    }

    #[test]
    fn singleton_map_and_restrict() {
        let m = CoverageMap::singleton(2, 0, 100);
        let r = m.restrict(25, 75);
        assert_eq!(covered_bytes(&r), 50);
        assert!(r.covers_exactly(25, 75, Contrib::rank(2)));
        assert!(!r.covers_exactly(0, 75, Contrib::rank(2)));
    }

    #[test]
    fn empty_range_singleton_is_empty() {
        assert!(CoverageMap::singleton(0, 5, 5).is_empty());
        assert!(CoverageMap::singleton(0, 7, 5).is_empty());
    }

    #[test]
    fn overwrite_replaces_content() {
        let mut m = CoverageMap::ranks(0..3, 0, 100);
        let src = CoverageMap::singleton(1, 40, 60);
        m.overwrite(&src, 40, 60);
        assert!(m.covers_exactly(0, 40, Contrib::full(3)));
        assert!(m.covers_exactly(40, 60, Contrib::rank(1)));
        assert!(m.covers_exactly(60, 100, Contrib::full(3)));
        assert_eq!(covered_bytes(&m), 100);
    }

    #[test]
    fn overwrite_with_uncovered_src_clears() {
        let mut m = CoverageMap::singleton(0, 0, 100);
        m.overwrite(&CoverageMap::empty(), 10, 20);
        assert_eq!(covered_bytes(&m), 90);
        assert!(m.at(15).is_none());
    }

    #[test]
    fn union_merge_combines_contributions() {
        let mut m = CoverageMap::singleton(0, 0, 100);
        let src = CoverageMap::singleton(1, 0, 100);
        m.union_merge(&src, 0, 100);
        assert!(m.covers_exactly(0, 100, Contrib::full(2)));
        assert_eq!(m, CoverageMap::ranks(0..2, 0, 100));
    }

    #[test]
    fn double_union_differs_from_single() {
        let once = CoverageMap::ranks(0..2, 0, 64);
        let mut twice = once.clone();
        twice.union_merge(&CoverageMap::singleton(1, 0, 64), 0, 64);
        assert!(!twice.covers_exactly(0, 64, Contrib::full(2)));
        assert_eq!(twice.at(0), Some(Contrib::full(2) + Contrib::rank(1)));
        let mut m = CoverageMap::ranks(0..2, 0, 64);
        m.union_merge(&once, 0, 64);
        assert_ne!(m, once, "folding a reduced buffer into itself doubles it");
    }

    #[test]
    fn equal_neighbours_coalesce() {
        let mut m = CoverageMap::singleton(0, 0, 30);
        m.overwrite(&CoverageMap::singleton(0, 30, 60), 30, 60);
        assert_eq!(m, CoverageMap::singleton(0, 0, 60));
        // Sums reached in different orders are equal and coalesce too.
        let mut m = CoverageMap::ranks(0..2, 0, 40);
        let mut right = CoverageMap::singleton(1, 40, 80);
        right.union_merge(&CoverageMap::singleton(0, 40, 80), 40, 80);
        m.overwrite(&right, 40, 80);
        assert_eq!(m.segments().count(), 1);
        assert!(m.covers_exactly(0, 80, Contrib::full(2)));
    }

    #[test]
    fn union_merge_partial_overlap() {
        let mut m = CoverageMap::singleton(0, 0, 50);
        let src = CoverageMap::singleton(1, 25, 75);
        m.union_merge(&src, 0, 100);
        assert!(m.covers_exactly(0, 25, Contrib::rank(0)));
        assert!(m.covers_exactly(25, 50, Contrib::full(2)));
        assert!(m.covers_exactly(50, 75, Contrib::rank(1)));
        assert!(m.at(80).is_none());
    }

    #[test]
    fn union_merge_respects_range_restriction() {
        let mut m = CoverageMap::empty();
        let src = CoverageMap::singleton(1, 0, 100);
        m.union_merge(&src, 30, 40);
        assert_eq!(covered_bytes(&m), 10);
        assert!(m.covers_exactly(30, 40, Contrib::rank(1)));
    }

    #[test]
    fn covers_exactly_detects_gap_and_wrong_sum() {
        let mut m = CoverageMap::singleton(0, 0, 40);
        m.union_merge(&CoverageMap::singleton(0, 60, 100), 0, 100);
        let s0 = Contrib::rank(0);
        assert!(!m.covers_exactly(0, 100, s0)); // gap 40..60
        assert!(m.covers_exactly(0, 40, s0));
        assert!(!m.covers_exactly(0, 40, Contrib::rank(1)));
    }

    #[test]
    fn allreduce_style_accumulation() {
        // 4 ranks' contributions merged one by one, then checked.
        let p = 4;
        let n = 64;
        let mut acc = CoverageMap::singleton(0, 0, n);
        for r in 1..p {
            acc.union_merge(&CoverageMap::singleton(r, 0, n), 0, n);
        }
        assert!(acc.covers_exactly(0, n, Contrib::full(p)));
        assert_eq!(acc, CoverageMap::ranks(0..p, 0, n));
    }

    /// Naive per-byte reference model for property tests.
    #[derive(Clone, PartialEq, Debug)]
    struct NaiveMap {
        bytes: Vec<Option<Contrib>>,
    }

    impl NaiveMap {
        fn new(n: u64) -> Self {
            NaiveMap {
                bytes: vec![None; n as usize],
            }
        }
        fn from_cov(m: &CoverageMap, n: u64) -> Self {
            let mut out = NaiveMap::new(n);
            for (s, e, sum) in m.segments() {
                for b in s..e.min(n) {
                    out.bytes[b as usize] = Some(sum);
                }
            }
            out
        }
        fn overwrite(&mut self, src: &NaiveMap, start: u64, end: u64) {
            for b in start..end.min(self.bytes.len() as u64) {
                self.bytes[b as usize] = src.bytes[b as usize];
            }
        }
        fn union_merge(&mut self, src: &NaiveMap, start: u64, end: u64) {
            for b in start..end.min(self.bytes.len() as u64) {
                let (a, x) = (self.bytes[b as usize], src.bytes[b as usize]);
                self.bytes[b as usize] = match (a, x) {
                    (Some(a), Some(x)) => Some(a + x),
                    (a, x) => a.or(x),
                };
            }
        }
    }

    use proptest::prelude::*;

    const N: u64 = 48;

    /// Maps built from up to six singleton contributions drawn from
    /// `0..6`, repeats included, so some bytes hold a rank twice.
    fn arb_map() -> impl Strategy<Value = CoverageMap> {
        proptest::collection::vec((0u32..6, 0u64..N, 0u64..N), 0..6).prop_map(|ops| {
            let mut m = CoverageMap::empty();
            for (r, a, b) in ops {
                let (s, e) = if a <= b { (a, b) } else { (b, a) };
                m.union_merge(&CoverageMap::singleton(r, s, e), s, e);
            }
            m
        })
    }

    proptest! {
        #[test]
        fn prop_overwrite_matches_naive(a in arb_map(), b in arb_map(), x in 0u64..N, y in 0u64..N) {
            let (s, e) = if x <= y { (x, y) } else { (y, x) };
            let mut fast = a.clone();
            fast.overwrite(&b, s, e);
            let mut slow = NaiveMap::from_cov(&a, N);
            slow.overwrite(&NaiveMap::from_cov(&b, N), s, e);
            prop_assert_eq!(NaiveMap::from_cov(&fast, N), slow);
            let mut owned = a.clone();
            owned.overwrite_owned(b.clone(), s, e);
            prop_assert_eq!(owned, fast);
        }

        #[test]
        fn prop_union_matches_naive(a in arb_map(), b in arb_map(), x in 0u64..N, y in 0u64..N) {
            let (s, e) = if x <= y { (x, y) } else { (y, x) };
            let mut fast = a.clone();
            fast.union_merge(&b, s, e);
            let mut slow = NaiveMap::from_cov(&a, N);
            slow.union_merge(&NaiveMap::from_cov(&b, N), s, e);
            prop_assert_eq!(NaiveMap::from_cov(&fast, N), slow);
        }

        #[test]
        fn prop_segments_stay_canonical(a in arb_map(), b in arb_map()) {
            let mut m = a.clone();
            m.union_merge(&b, 0, N);
            let segs: Vec<_> = m.segments().collect();
            for w in segs.windows(2) {
                prop_assert!(w[0].1 <= w[1].0, "overlap: {:?}", segs);
                prop_assert!(w[0].1 < w[1].0 || w[0].2 != w[1].2, "not coalesced: {:?}", segs);
            }
            for (s, e, _) in &segs {
                prop_assert!(s < e);
            }
        }

        #[test]
        fn prop_union_is_commutative(a in arb_map(), b in arb_map()) {
            let mut ab = a.clone();
            ab.union_merge(&b, 0, N);
            let mut ba = b.clone();
            ba.union_merge(&a, 0, N);
            prop_assert_eq!(ab, ba);
        }
    }
}
