//! Intra-node multi-leader allreduce on real threads.
//!
//! Executes phases 1, 2, and 4 of the paper's Figure 2 (the intra-node
//! part of DPML) with genuine shared memory: each thread is a rank, slots
//! live in a [`SharedSlots`] bank, and phases are separated by a
//! [`SpinBarrier`]. With `leaders = 1` this is exactly the classic
//! single-leader design the paper improves upon.

use crate::barrier::{BarrierToken, SpinBarrier};
use crate::integrity::{crc32c, PoisonPlan};
use crate::kernels::{fold_slots, reduce_into};
use crate::metrics::{SHM_COPY_BYTES, SHM_CRC_FAIL, SHM_REDUCE_OPS, SHM_RETRANSMIT};
use crate::region::SharedSlots;
use std::sync::atomic::{AtomicU32, Ordering};

/// Split `n` elements into `parts` contiguous index ranges (earlier parts
/// take the remainder) — element-space mirror of the engine's
/// `ByteRange::partition`.
fn partition_elems(n: usize, parts: usize) -> Vec<(usize, usize)> {
    assert!(parts > 0);
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut cursor = 0;
    for i in 0..parts {
        let len = base + usize::from(i < extra);
        out.push((cursor, cursor + len));
        cursor += len;
    }
    out
}

/// Leader-local-rank for leader index `j` of `l` over `ppn` ranks —
/// the same even stride as `dpml_topology::LeaderPolicy::PerNode`.
fn leader_local(j: usize, l: usize, ppn: usize) -> usize {
    j * ppn / l
}

/// A single simulated node running `ppn` rank-threads.
#[derive(Debug, Clone, Copy)]
pub struct NodeRuntime {
    ppn: usize,
}

impl NodeRuntime {
    /// Runtime for `ppn` ranks.
    pub fn new(ppn: usize) -> Self {
        assert!(ppn >= 1);
        NodeRuntime { ppn }
    }

    /// Ranks per node.
    pub fn ppn(&self) -> usize {
        self.ppn
    }

    /// Allreduce (`MPI_SUM`) over `ppn` per-rank input vectors with
    /// `leaders` partition owners; returns each rank's result vector.
    /// Panics if `inputs.len() != ppn`, lengths differ, or `leaders` is
    /// outside `1..=ppn`.
    pub fn allreduce(&self, inputs: &[Vec<f64>], leaders: usize) -> Vec<Vec<f64>> {
        self.allreduce_checked(inputs, leaders, None)
    }

    /// [`NodeRuntime::allreduce`] with optional buffer poisoning:
    /// when `poison` strikes a partition, its leader flips one bit of
    /// the published result *after* checksumming it. Every phase-4
    /// reader verifies the publish checksum (`shm.crc_fail` on a miss)
    /// and re-reduces a poisoned partition from the intact phase-1
    /// gather deposits (`shm.retransmit`), so the returned vectors are
    /// correct regardless of the poison rate.
    pub fn allreduce_checked(
        &self,
        inputs: &[Vec<f64>],
        leaders: usize,
        poison: Option<PoisonPlan>,
    ) -> Vec<Vec<f64>> {
        assert_eq!(inputs.len(), self.ppn, "one input per rank");
        let n = inputs[0].len();
        assert!(
            inputs.iter().all(|v| v.len() == n),
            "inputs must be same length"
        );
        let l = leaders;
        assert!(
            l >= 1 && l <= self.ppn,
            "leaders {l} out of range 1..={}",
            self.ppn
        );

        let parts = partition_elems(n, l);
        let max_len = parts.iter().map(|(s, e)| e - s).max().unwrap_or(0);
        let gather = SharedSlots::new(l * self.ppn, max_len);
        let publish = SharedSlots::new(l, max_len);
        let barrier = SpinBarrier::new(self.ppn);
        // Publish guard words: leader j checksums its partition before
        // the phase-4 barrier, readers verify after it.
        let guards: Vec<AtomicU32> = (0..l).map(|_| AtomicU32::new(0)).collect();

        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.ppn)
                .map(|t| {
                    let gather = &gather;
                    let publish = &publish;
                    let barrier = &barrier;
                    let parts = &parts;
                    let guards = &guards;
                    let input = &inputs[t];
                    scope.spawn(move || {
                        let mut tok = BarrierToken::new();
                        // Phase 1: deposit each partition into the owning
                        // leader's region, slot index = writer rank.
                        for (j, &(s, e)) in parts.iter().enumerate() {
                            // SAFETY: slot (j, t) is written only by
                            // thread t this epoch.
                            let slot = unsafe { gather.slot_mut(j * self.ppn + t) };
                            slot[..e - s].copy_from_slice(&input[s..e]);
                        }
                        SHM_COPY_BYTES.add((n * size_of::<f64>()) as u64);
                        tok.wait(barrier);
                        // Phase 2: leaders fold their partition.
                        let mut folded_elems = 0usize;
                        for (j, &(s, e)) in parts.iter().enumerate() {
                            if leader_local(j, l, self.ppn) != t || e == s {
                                continue;
                            }
                            let plen = e - s;
                            // SAFETY: barrier separates phase-1 writers
                            // from these reads; publish slot j has this
                            // thread as unique writer.
                            unsafe {
                                let slots: Vec<&[f64]> = (0..self.ppn)
                                    .map(|i| &gather.slot(j * self.ppn + i)[..plen])
                                    .collect();
                                let dst = &mut publish.slot_mut(j)[..plen];
                                fold_slots(dst, &slots);
                                guards[j].store(crc32c(dst), Ordering::Release);
                                if let Some(plan) = poison {
                                    if plan.strikes(j as u64) {
                                        plan.flip_bit(dst, j as u64);
                                    }
                                }
                            }
                            folded_elems += plen * (self.ppn - 1);
                        }
                        if folded_elems > 0 {
                            SHM_REDUCE_OPS.add(folded_elems as u64);
                        }
                        tok.wait(barrier);
                        // Phase 4: copy all partitions out, verifying each
                        // against its publish guard word; a poisoned
                        // partition is re-reduced from the (intact)
                        // phase-1 gather deposits instead.
                        let mut out = vec![0.0; n];
                        for (j, &(s, e)) in parts.iter().enumerate() {
                            let plen = e - s;
                            if plen == 0 {
                                continue;
                            }
                            // SAFETY: publish and gather writers are
                            // barrier-separated; reads only from here on.
                            unsafe {
                                let slot = &publish.slot(j)[..plen];
                                if crc32c(slot) == guards[j].load(Ordering::Acquire) {
                                    out[s..e].copy_from_slice(slot);
                                } else {
                                    SHM_CRC_FAIL.inc();
                                    let slots: Vec<&[f64]> = (0..self.ppn)
                                        .map(|i| &gather.slot(j * self.ppn + i)[..plen])
                                        .collect();
                                    fold_slots(&mut out[s..e], &slots);
                                    SHM_RETRANSMIT.inc();
                                }
                            }
                        }
                        SHM_COPY_BYTES.add((n * size_of::<f64>()) as u64);
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank thread panicked"))
                .collect()
        })
    }

    /// Reference tree-free allreduce: serial sum broadcast to all ranks
    /// (for differential testing).
    pub fn serial(&self, inputs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let mut acc = vec![0.0; inputs[0].len()];
        for i in inputs {
            reduce_into(&mut acc, i);
        }
        vec![acc; self.ppn]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::assert_close;

    fn inputs(ppn: usize, n: usize) -> Vec<Vec<f64>> {
        (0..ppn)
            .map(|r| {
                (0..n)
                    .map(|i| ((r * 31 + i * 7) % 97) as f64 - 48.0)
                    .collect()
            })
            .collect()
    }

    fn check(ppn: usize, n: usize, leaders: usize) {
        let rt = NodeRuntime::new(ppn);
        let ins = inputs(ppn, n);
        let got = rt.allreduce(&ins, leaders);
        let expect = rt.serial(&ins);
        assert_eq!(got.len(), ppn);
        for (g, e) in got.iter().zip(expect.iter()) {
            assert_close(g, e, 1e-12);
        }
    }

    #[test]
    fn partition_elems_distributes_remainder() {
        assert_eq!(partition_elems(10, 3), vec![(0, 4), (4, 7), (7, 10)]);
        assert_eq!(partition_elems(2, 4), vec![(0, 1), (1, 2), (2, 2), (2, 2)]);
    }

    #[test]
    fn leader_stride_matches_topology_policy() {
        // ppn=28, l=4 → locals 0, 7, 14, 21 (same as LeaderPolicy).
        let locals: Vec<usize> = (0..4).map(|j| leader_local(j, 4, 28)).collect();
        assert_eq!(locals, vec![0, 7, 14, 21]);
    }

    #[test]
    fn single_leader_correct() {
        check(4, 1000, 1);
    }

    #[test]
    fn multi_leader_correct_all_counts() {
        for l in [1, 2, 3, 4, 7, 8] {
            check(8, 10_000, l);
        }
    }

    #[test]
    fn vector_shorter_than_leader_count() {
        check(8, 3, 8);
    }

    #[test]
    fn single_rank_node() {
        check(1, 64, 1);
    }

    #[test]
    fn empty_vector() {
        let rt = NodeRuntime::new(4);
        let ins = vec![vec![]; 4];
        let got = rt.allreduce(&ins, 2);
        assert!(got.iter().all(|v| v.is_empty()));
    }

    #[test]
    fn allreduce_records_live_metrics() {
        use crate::metrics::BARRIER_WAIT_NS;
        let before = [SHM_COPY_BYTES.get(), SHM_REDUCE_OPS.get()];
        let rt = NodeRuntime::new(4);
        let ins = inputs(4, 500);
        rt.allreduce(&ins, 2);
        // Each of 4 ranks copies 500 f64 in (phase 1) and out (phase 4).
        let copied = SHM_COPY_BYTES.get() - before[0];
        assert!(copied >= (2 * 4 * 500 * 8) as u64, "copied {copied}");
        // Leaders fold ppn-1 = 3 passes over the whole vector.
        let folded = SHM_REDUCE_OPS.get() - before[1];
        assert!(folded >= (500 * 3) as u64, "folded {folded}");
        // Barrier arrivals were timed.
        assert!(BARRIER_WAIT_NS.count() > 0);
    }

    #[test]
    fn checked_without_poison_matches_plain() {
        let rt = NodeRuntime::new(4);
        let ins = inputs(4, 777);
        let plain = rt.allreduce(&ins, 2);
        let checked = rt.allreduce_checked(&ins, 2, None);
        assert_eq!(plain, checked, "guards must not perturb the arithmetic");
    }

    #[test]
    fn poisoned_publish_detected_and_redone() {
        let before = [SHM_CRC_FAIL.get(), SHM_RETRANSMIT.get()];
        let rt = NodeRuntime::new(4);
        let ins = inputs(4, 1000);
        let clean = rt.allreduce(&ins, 2);
        let got = rt.allreduce_checked(&ins, 2, Some(PoisonPlan { seed: 5, rate: 1.0 }));
        // The redo folds the gather slots in the same order the leader
        // did, so recovery is bit-identical, not merely close.
        assert_eq!(got, clean, "poisoned partitions must be re-reduced exactly");
        let fails = SHM_CRC_FAIL.get() - before[0];
        let rtx = SHM_RETRANSMIT.get() - before[1];
        // Rate 1.0 poisons both partitions; all 4 readers detect both.
        assert!(fails >= 8, "expected >=8 detections, got {fails}");
        assert!(rtx >= 8, "expected >=8 redos, got {rtx}");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn too_many_leaders_panics() {
        let rt = NodeRuntime::new(2);
        rt.allreduce(&inputs(2, 8), 3);
    }

    #[test]
    #[should_panic(expected = "same length")]
    fn mismatched_inputs_panic() {
        let rt = NodeRuntime::new(2);
        rt.allreduce(&[vec![1.0], vec![1.0, 2.0]], 1);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_matches_serial(
            ppn in 1usize..9,
            n in 0usize..300,
            l_seed in 0usize..8,
            seed in 0u64..1000,
        ) {
            let l = 1 + l_seed % ppn;
            let ins: Vec<Vec<f64>> = (0..ppn)
                .map(|r| {
                    (0..n)
                        .map(|i| {
                            let x = seed
                                .wrapping_mul(6364136223846793005)
                                .wrapping_add((r * n + i) as u64);
                            ((x >> 33) % 1000) as f64 / 10.0 - 50.0
                        })
                        .collect()
                })
                .collect();
            let rt = NodeRuntime::new(ppn);
            let got = rt.allreduce(&ins, l);
            let expect = rt.serial(&ins);
            for (g, e) in got.iter().zip(expect.iter()) {
                assert_close(g, e, 1e-9);
            }
        }
    }
}
