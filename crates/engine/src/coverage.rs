//! Symbolic data tracking for collective verification.
//!
//! Every buffer in the simulator carries a [`CoverageMap`]: for each byte
//! range of the logical reduction vector, *which ranks' contributions* the
//! buffer currently holds. A correct allreduce must end with every rank
//! holding the full set `{0..p}` over the whole vector `[0, n)`.
//!
//! Tracking is exact (byte-range granularity, bitset rank sets), so a
//! schedule bug that leaves some byte range of some rank's result without
//! a contribution — a missing wait, a partition copied to the wrong leader,
//! a skipped phase — surfaces as a verification failure rather than
//! silently producing plausible timings.
//!
//! A contribution folded in twice is *not* caught yet: a rank set records
//! membership, not multiplicity, and union is idempotent, so a
//! double-reduced segment holds the same set as a correct one and passes.

use serde::{Deserialize, Serialize, Value};
use std::sync::Arc;

/// A set of ranks, as an immutable bitset shared copy-on-write.
///
/// The words live in one reference-counted allocation, so a clone — every
/// buffer snapshot, message payload and SHArP fan-out — bumps a count
/// instead of copying `p / 64` words, and a set computed once is held by
/// every buffer it reaches. Operations that change the set install a new
/// allocation (or an operand's existing one, see `RankSet::union_with`).
/// The word-vector length is part of the value: `==`, `Hash` and the
/// serialized `{"words":[...]}` form all see it, while [`RankSet::set_eq`]
/// ignores trailing zero words. `Arc`'s `==` returns early on a shared
/// allocation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RankSet {
    words: Arc<[u64]>,
}

impl RankSet {
    /// The empty set.
    pub fn empty() -> Self {
        RankSet {
            words: Arc::new([]),
        }
    }

    /// A singleton set.
    pub fn singleton(rank: u32) -> Self {
        let w = (rank / 64) as usize;
        RankSet {
            words: (0..=w)
                .map(|i| if i == w { 1u64 << (rank % 64) } else { 0 })
                .collect(),
        }
    }

    /// The full set `{0, ..., p-1}`.
    pub fn full(p: u32) -> Self {
        RankSet {
            words: (0..p.div_ceil(64))
                .map(|i| match p - i * 64 {
                    left if left >= 64 => u64::MAX,
                    left => (1u64 << left) - 1,
                })
                .collect(),
        }
    }

    /// Insert a rank.
    pub fn insert(&mut self, rank: u32) {
        self.union_with(&RankSet::singleton(rank));
    }

    /// Membership test.
    pub fn contains(&self, rank: u32) -> bool {
        let w = (rank / 64) as usize;
        self.words
            .get(w)
            .is_some_and(|&word| word & (1u64 << (rank % 64)) != 0)
    }

    /// Union `other` into this set. The result is `self`'s or `other`'s
    /// existing allocation when that operand already contains the other
    /// one and is at least as wide; a fresh set is allocated only when
    /// neither does. The result is as wide as the wider operand.
    fn union_with(&mut self, other: &RankSet) {
        let (a, b) = (&*self.words, &*other.words);
        if Arc::ptr_eq(&self.words, &other.words) || (a.len() >= b.len() && contains_words(a, b)) {
            return;
        }
        if b.len() >= a.len() && contains_words(b, a) {
            self.words = Arc::clone(&other.words);
            return;
        }
        let word = |s: &[u64], i: usize| s.get(i).copied().unwrap_or(0);
        let words = (0..a.len().max(b.len()))
            .map(|i| word(a, i) | word(b, i))
            .collect();
        self.words = words;
    }

    /// Set cardinality.
    pub fn count(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Semantic equality (ignores trailing zero words). Allocation-free:
    /// compares the common word prefix and requires the longer set's tail
    /// to be all zero — this sits inside every coalesce step on the
    /// simulator's delivery hot path.
    pub fn set_eq(&self, other: &RankSet) -> bool {
        if Arc::ptr_eq(&self.words, &other.words) {
            return true;
        }
        let n = self.words.len().min(other.words.len());
        self.words[..n] == other.words[..n]
            && self.words[n..].iter().all(|&w| w == 0)
            && other.words[n..].iter().all(|&w| w == 0)
    }

    /// Iterate over members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            (0..64)
                .filter(move |b| w & (1u64 << b) != 0)
                .map(move |b| (wi as u32) * 64 + b)
        })
    }
}

/// True when every bit of `sub` is set in `sup` (`sup` at least as wide).
fn contains_words(sup: &[u64], sub: &[u64]) -> bool {
    sub.iter().zip(sup).all(|(s, p)| s & !p == 0)
}

impl Serialize for RankSet {
    fn to_value(&self) -> Value {
        let mut m = serde::Map::new();
        m.insert("words", self.words.to_value());
        Value::Object(m)
    }
}

impl Deserialize for RankSet {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let m = v
            .as_object()
            .ok_or_else(|| serde::Error::expected("object", "RankSet"))?;
        let words = m
            .get("words")
            .ok_or_else(|| serde::Error::missing_field("RankSet", "words"))?;
        Ok(RankSet {
            words: Vec::<u64>::from_value(words)?.into(),
        })
    }
}

/// A half-open byte range `[start, end)` of the logical vector.
pub type Seg = (u64, u64);

/// Maps disjoint byte ranges of the logical vector to the rank sets whose
/// contributions they hold.
///
/// Invariants: segments are sorted, non-empty, pairwise disjoint, and
/// adjacent segments with equal rank sets are coalesced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct CoverageMap {
    segs: Vec<(u64, u64, RankSet)>,
}

impl CoverageMap {
    /// An empty buffer: holds nothing.
    pub fn empty() -> Self {
        CoverageMap { segs: Vec::new() }
    }

    /// A buffer holding a single rank's contribution over `[start, end)`.
    pub fn singleton(rank: u32, start: u64, end: u64) -> Self {
        if start >= end {
            return CoverageMap::empty();
        }
        CoverageMap {
            segs: vec![(start, end, RankSet::singleton(rank))],
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

    /// The rank set held at byte offset `at`, if any.
    pub fn at(&self, at: u64) -> Option<&RankSet> {
        let i = self.lower(at);
        match self.segs.get(i) {
            Some((s, _, set)) if *s <= at => Some(set),
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
        for (s, e, set) in &self.segs[i..j] {
            out.push(((*s).max(start), (*e).min(end), set.clone()));
        }
        CoverageMap { segs: out }
    }

    /// Replace all coverage in `[start, end)` with `mid` — segments that
    /// must already lie within `[start, end)`, sorted, disjoint, and
    /// internally coalesced. Splices only the overlap window; boundary
    /// segments are split and the two joints re-coalesced, so cost is
    /// O(window + log n) rather than a full-map rebuild.
    fn splice_window(&mut self, start: u64, end: u64, mid: Vec<(u64, u64, RankSet)>) {
        let (i, j) = (self.lower(start), self.upper(end));
        let mut repl: Vec<(u64, u64, RankSet)> = Vec::with_capacity(mid.len() + 2);
        if i < j && self.segs[i].0 < start {
            repl.push((self.segs[i].0, start, self.segs[i].2.clone()));
        }
        for seg in mid {
            push_coalesced(&mut repl, seg);
        }
        if i < j && self.segs[j - 1].1 > end {
            push_coalesced(
                &mut repl,
                (end, self.segs[j - 1].1, self.segs[j - 1].2.clone()),
            );
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
    /// adjacent and hold the same set.
    fn merge_joint(&mut self, idx: usize) {
        if idx + 1 < self.segs.len()
            && self.segs[idx].1 == self.segs[idx + 1].0
            && self.segs[idx].2.set_eq(&self.segs[idx + 1].2)
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

    /// Pointwise-union `src`'s contents over `[start, end)` into this map —
    /// the semantics of a reduction: contributions combine.
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
        // (outside it the union changes nothing), advancing a cursor into
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
        let mut rebuilt: Vec<(u64, u64, RankSet)> = Vec::with_capacity(cuts.len());
        let (mut ai, mut bi) = (0usize, 0usize);
        for w in cuts.windows(2) {
            let (s, e) = (w[0], w[1]);
            while ai < mine.len() && mine[ai].1 <= s {
                ai += 1;
            }
            while bi < add.len() && add[bi].1 <= s {
                bi += 1;
            }
            let a = mine
                .get(ai)
                .filter(|(ms, _, _)| *ms <= s)
                .map(|(_, _, r)| r);
            let b = add.get(bi).filter(|(bs, _, _)| *bs <= s).map(|(_, _, r)| r);
            let set = match (a, b) {
                (None, None) => continue,
                (Some(x), None) => x.clone(),
                (None, Some(y)) => y.clone(),
                (Some(x), Some(y)) => {
                    let mut u = x.clone();
                    u.union_with(y);
                    u
                }
            };
            push_coalesced(&mut rebuilt, (s, e, set));
        }
        self.splice_window(lo, hi, rebuilt);
    }

    /// True when `[start, end)` is fully covered and every byte holds
    /// exactly `expected`.
    pub fn covers_exactly(&self, start: u64, end: u64, expected: &RankSet) -> bool {
        if start >= end {
            return true;
        }
        let mut cursor = start;
        for (s, e, set) in &self.segs[self.lower(start)..] {
            if *e <= cursor {
                continue;
            }
            if *s > cursor {
                return false; // gap
            }
            if !set.set_eq(expected) {
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

    /// Iterate over `(start, end, set)` segments.
    pub fn segments(&self) -> impl Iterator<Item = (u64, u64, &RankSet)> {
        self.segs.iter().map(|(s, e, set)| (*s, *e, set))
    }
}

/// Append `seg` to `out`, extending the last segment instead when the two
/// are adjacent with equal sets (the canonical-form invariant).
#[inline]
fn push_coalesced(out: &mut Vec<(u64, u64, RankSet)>, seg: (u64, u64, RankSet)) {
    if seg.0 >= seg.1 {
        return;
    }
    if let Some(last) = out.last_mut() {
        if last.1 == seg.0 && last.2.set_eq(&seg.2) {
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
    fn rankset_basics() {
        let mut s = RankSet::singleton(3);
        assert!(s.contains(3));
        assert!(!s.contains(4));
        s.insert(100);
        assert!(s.contains(100));
        assert_eq!(s.count(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 100]);
    }

    #[test]
    fn rankset_union_and_eq() {
        let mut a = RankSet::singleton(1);
        let b = RankSet::singleton(200);
        a.union_with(&b);
        assert_eq!(a.count(), 2);
        // Semantic equality ignores width.
        let mut wide = RankSet::singleton(1);
        wide.insert(200);
        assert!(a.set_eq(&wide));
        let narrow = RankSet::singleton(1);
        assert!(!a.set_eq(&narrow));
    }

    #[test]
    fn rankset_full() {
        let f = RankSet::full(130);
        assert_eq!(f.count(), 130);
        assert!(f.contains(0));
        assert!(f.contains(129));
        assert!(!f.contains(130));
    }

    #[test]
    fn singleton_map_and_restrict() {
        let m = CoverageMap::singleton(2, 0, 100);
        let r = m.restrict(25, 75);
        assert_eq!(covered_bytes(&r), 50);
        assert!(r.covers_exactly(25, 75, &RankSet::singleton(2)));
        assert!(!r.covers_exactly(0, 75, &RankSet::singleton(2)));
    }

    #[test]
    fn empty_range_singleton_is_empty() {
        assert!(CoverageMap::singleton(0, 5, 5).is_empty());
        assert!(CoverageMap::singleton(0, 7, 5).is_empty());
    }

    #[test]
    fn overwrite_replaces_content() {
        let mut m = CoverageMap::singleton(0, 0, 100);
        let src = CoverageMap::singleton(1, 40, 60);
        m.overwrite(&src, 40, 60);
        assert!(m.covers_exactly(0, 40, &RankSet::singleton(0)));
        assert!(m.covers_exactly(40, 60, &RankSet::singleton(1)));
        assert!(m.covers_exactly(60, 100, &RankSet::singleton(0)));
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
        let mut both = RankSet::singleton(0);
        both.insert(1);
        assert!(m.covers_exactly(0, 100, &both));
        assert_eq!(m.segments().count(), 1, "coalescing failed");
    }

    #[test]
    fn union_merge_partial_overlap() {
        let mut m = CoverageMap::singleton(0, 0, 50);
        let src = CoverageMap::singleton(1, 25, 75);
        m.union_merge(&src, 0, 100);
        assert!(m.covers_exactly(0, 25, &RankSet::singleton(0)));
        let mut both = RankSet::singleton(0);
        both.insert(1);
        assert!(m.covers_exactly(25, 50, &both));
        assert!(m.covers_exactly(50, 75, &RankSet::singleton(1)));
        assert!(m.at(80).is_none());
    }

    #[test]
    fn union_merge_respects_range_restriction() {
        let mut m = CoverageMap::empty();
        let src = CoverageMap::singleton(1, 0, 100);
        m.union_merge(&src, 30, 40);
        assert_eq!(covered_bytes(&m), 10);
        assert!(m.covers_exactly(30, 40, &RankSet::singleton(1)));
    }

    #[test]
    fn covers_exactly_detects_gap_and_wrong_set() {
        let mut m = CoverageMap::singleton(0, 0, 40);
        m.union_merge(&CoverageMap::singleton(0, 60, 100), 0, 100);
        let s0 = RankSet::singleton(0);
        assert!(!m.covers_exactly(0, 100, &s0)); // gap 40..60
        assert!(m.covers_exactly(0, 40, &s0));
        assert!(!m.covers_exactly(0, 40, &RankSet::singleton(1)));
    }

    #[test]
    fn allreduce_style_accumulation() {
        // Simulate: 4 ranks' contributions merged pairwise, then checked.
        let p = 4;
        let n = 64;
        let mut acc = CoverageMap::singleton(0, 0, n);
        for r in 1..p {
            acc.union_merge(&CoverageMap::singleton(r, 0, n), 0, n);
        }
        assert!(acc.covers_exactly(0, n, &RankSet::full(p)));
    }

    /// Naive per-byte reference model for property tests.
    #[derive(Clone, PartialEq, Debug)]
    struct NaiveMap {
        bytes: Vec<Option<RankSet>>,
    }

    impl NaiveMap {
        fn new(n: u64) -> Self {
            NaiveMap {
                bytes: vec![None; n as usize],
            }
        }
        fn from_cov(m: &CoverageMap, n: u64) -> Self {
            let mut out = NaiveMap::new(n);
            for (s, e, set) in m.segments() {
                for b in s..e.min(n) {
                    out.bytes[b as usize] = Some(set.clone());
                }
            }
            out
        }
        fn overwrite(&mut self, src: &NaiveMap, start: u64, end: u64) {
            for b in start..end.min(self.bytes.len() as u64) {
                self.bytes[b as usize] = src.bytes[b as usize].clone();
            }
        }
        fn union_merge(&mut self, src: &NaiveMap, start: u64, end: u64) {
            for b in start..end.min(self.bytes.len() as u64) {
                match (&mut self.bytes[b as usize], &src.bytes[b as usize]) {
                    (Some(a), Some(x)) => *a = naive_union(a, x),
                    (slot @ None, Some(x)) => *slot = Some(x.clone()),
                    _ => {}
                }
            }
        }
        fn semantically_eq(&self, other: &NaiveMap) -> bool {
            self.bytes
                .iter()
                .zip(other.bytes.iter())
                .all(|(a, b)| match (a, b) {
                    (None, None) => true,
                    (Some(x), Some(y)) => x.set_eq(y),
                    _ => false,
                })
        }
    }

    /// The plain-vector union the shared representation replaced: widen
    /// to the wider operand, then OR word by word into a fresh set.
    fn naive_union(a: &RankSet, b: &RankSet) -> RankSet {
        let mut words = a.words.to_vec();
        if words.len() < b.words.len() {
            words.resize(b.words.len(), 0);
        }
        for (x, y) in words.iter_mut().zip(b.words.iter()) {
            *x |= y;
        }
        RankSet {
            words: words.into(),
        }
    }

    /// `set` with `extra` trailing zero words (same members, wider).
    fn padded(set: &RankSet, extra: usize) -> RankSet {
        let mut words = set.words.to_vec();
        words.resize(words.len() + extra, 0);
        RankSet {
            words: words.into(),
        }
    }

    #[test]
    fn serde_bytes_are_pinned() {
        // A trailing zero word is part of the value: it round-trips, and
        // `==` (unlike `set_eq`) sees it.
        let wide: RankSet = serde_json::from_str(r#"{"words":[5,0]}"#).unwrap();
        assert_eq!(serde_json::to_string(&wide).unwrap(), r#"{"words":[5,0]}"#);
        let mut narrow = RankSet::singleton(0);
        narrow.insert(2);
        assert_eq!(serde_json::to_string(&narrow).unwrap(), r#"{"words":[5]}"#);
        assert!(wide.set_eq(&narrow));
        assert_ne!(wide, narrow);
        assert_eq!(
            serde_json::to_string(&RankSet::full(66)).unwrap(),
            r#"{"words":[18446744073709551615,3]}"#
        );

        let mut m = CoverageMap::singleton(0, 0, 40);
        m.union_merge(&CoverageMap::singleton(65, 20, 60), 0, 100);
        let json = serde_json::to_string(&m).unwrap();
        assert_eq!(
            json,
            r#"{"segs":[[0,20,{"words":[1]}],[20,40,{"words":[1,2]}],[40,60,{"words":[0,2]}]]}"#
        );
        assert_eq!(serde_json::from_str::<CoverageMap>(&json).unwrap(), m);
        assert!(serde_json::from_str::<RankSet>("[5]").is_err());
        assert!(serde_json::from_str::<RankSet>("{}").is_err());
    }

    #[test]
    fn union_reuses_the_containing_operand() {
        let big = RankSet::full(130);
        let small = RankSet::singleton(7);
        let mut u = small.clone();
        u.union_with(&big);
        assert!(Arc::ptr_eq(&u.words, &big.words), "superset adopted");
        let mut u = big.clone();
        u.union_with(&small);
        assert!(Arc::ptr_eq(&u.words, &big.words), "subset absorbed");
        // A narrower superset cannot stand in for a wider operand.
        let mut u = padded(&small, 3);
        u.union_with(&RankSet::full(64));
        assert_eq!(u, naive_union(&padded(&small, 3), &RankSet::full(64)));
        assert_eq!(u.words.len(), 4);
    }

    use proptest::prelude::*;

    const N: u64 = 48;

    /// Maps built from up to six singleton contributions drawn from
    /// `0..ranks` (ranks past 63 make multi-word sets).
    fn arb_map_over(ranks: u32) -> impl Strategy<Value = CoverageMap> {
        proptest::collection::vec((0u32..ranks, 0u64..N, 0u64..N), 0..6).prop_map(|ops| {
            let mut m = CoverageMap::empty();
            for (r, a, b) in ops {
                let (s, e) = if a <= b { (a, b) } else { (b, a) };
                m.union_merge(&CoverageMap::singleton(r, s, e), s, e);
            }
            m
        })
    }

    fn arb_map() -> impl Strategy<Value = CoverageMap> {
        arb_map_over(6)
    }

    /// A `(sup, sub)` pair with `sub` a subset of `sup`, each padded with
    /// up to two trailing zero words, in either order.
    fn arb_nested_sets() -> impl Strategy<Value = (RankSet, RankSet)> {
        (
            proptest::collection::vec((0u32..200, proptest::bool::ANY), 0..8),
            0usize..3,
            0usize..3,
            proptest::bool::ANY,
        )
            .prop_map(|(ranks, pad_sup, pad_sub, swap)| {
                let (mut sup, mut sub) = (RankSet::empty(), RankSet::empty());
                for (r, keep) in ranks {
                    sup.insert(r);
                    if keep {
                        sub.insert(r);
                    }
                }
                let (sup, sub) = (padded(&sup, pad_sup), padded(&sub, pad_sub));
                if swap {
                    (sub, sup)
                } else {
                    (sup, sub)
                }
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
            prop_assert!(NaiveMap::from_cov(&fast, N).semantically_eq(&slow));
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
            prop_assert!(NaiveMap::from_cov(&fast, N).semantically_eq(&slow));
        }

        #[test]
        fn prop_segments_stay_canonical(a in arb_map(), b in arb_map()) {
            let mut m = a.clone();
            m.union_merge(&b, 0, N);
            let segs: Vec<_> = m.segments().map(|(s, e, _)| (s, e)).collect();
            for w in segs.windows(2) {
                prop_assert!(w[0].1 <= w[1].0, "overlap: {:?}", segs);
            }
            for (s, e) in &segs {
                prop_assert!(s < e);
            }
        }

        #[test]
        fn prop_union_is_commutative(a in arb_map(), b in arb_map()) {
            let mut ab = a.clone();
            ab.union_merge(&b, 0, N);
            let mut ba = b.clone();
            ba.union_merge(&a, 0, N);
            prop_assert!(NaiveMap::from_cov(&ab, N).semantically_eq(&NaiveMap::from_cov(&ba, N)));
        }

        #[test]
        fn prop_subset_reuse_union_matches_naive(pair in arb_nested_sets()) {
            let (a, b) = &pair;
            let mut u = a.clone();
            u.union_with(b);
            prop_assert_eq!(&u, &naive_union(a, b));
            let mut v = b.clone();
            v.union_with(a);
            prop_assert_eq!(&v, &naive_union(b, a));
        }

        #[test]
        fn prop_multiword_union_matches_naive_exactly(
            a in arb_map_over(200),
            b in arb_map_over(200),
            x in 0u64..N,
            y in 0u64..N,
        ) {
            // Structural `==` per byte: word-vector widths must match the
            // naive model too, not just membership.
            let (s, e) = if x <= y { (x, y) } else { (y, x) };
            let mut fast = a.clone();
            fast.union_merge(&b, s, e);
            let mut slow = NaiveMap::from_cov(&a, N);
            slow.union_merge(&NaiveMap::from_cov(&b, N), s, e);
            prop_assert_eq!(NaiveMap::from_cov(&fast, N), slow);
        }

        #[test]
        fn prop_mutating_a_clone_leaves_the_original(
            a in arb_map_over(200),
            b in arb_map_over(200),
            r in 0u32..200,
            x in 0u64..N,
            y in 0u64..N,
        ) {
            // JSON bytes are a deep snapshot; a clone would share sets.
            let (a0, b0) = (serde_json::to_string(&a).unwrap(), serde_json::to_string(&b).unwrap());
            let (s, e) = if x <= y { (x, y) } else { (y, x) };
            let mut copy = a.clone();
            copy.union_merge(&b, 0, N);
            copy.overwrite(&b, s, e);
            copy.union_merge(&a, s, N);
            copy.overwrite_owned(b.clone(), 0, s);
            for (_, _, set) in a.segments().chain(b.segments()) {
                let mut c = set.clone();
                c.insert(r);
                c.union_with(&RankSet::full(r));
                prop_assert!(c.contains(r));
            }
            prop_assert_eq!(serde_json::to_string(&a).unwrap(), a0);
            prop_assert_eq!(serde_json::to_string(&b).unwrap(), b0);
        }
    }
}
