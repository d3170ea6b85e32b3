//! Untimed interpreter: what a [`WorldProgram`] computes, with no clock.
//!
//! The simulator answers *when*; this module answers *what*. Both are
//! hosts of one instruction stepper, so matching and rendezvous follow
//! the same rules. Ranks run round-robin, each until it blocks (in
//! `WaitAll`, `Barrier` or `Sharp`) or ends; a sweep that resumes no rank
//! ends in [`ExecError::Deadlock`] instead of a hang. A send snapshots its
//! range when posted and never blocks.
//!
//! Values live in the *lanes* domain: one `u64` per byte. Rank `r`'s input
//! at byte `b` is `lane(r, b)`, a splitmix hash. `Reduce` is
//! `dst += Σ srcs` with wrapping addition; `Copy`, a matched `IRecv` and a
//! completed `Sharp` overwrite. Wrapping addition is exact under any
//! association order, so an allreduce is right exactly when every result
//! lane equals `Σ_r lane(r, b)`. A contribution lost or folded twice
//! shows as a wrong value. The simulator's coverage sums catch the same
//! defects (`lane(r, 0)` is its per-rank hash), but once per segment
//! rather than per byte; the lanes also see a byte moved to another
//! offset, which no instruction can do. A `preset_shared` entry becomes,
//! per byte of its range, the lane sum of its contributor ranks.

use crate::program::{BufKey, ByteRange, WorldProgram, BUF_INPUT, BUF_RESULT};
use crate::stepper::{
    Arrival, Host, Local, Meet, Outgoing, Sent, Status, Step, Stepper, UnknownGroup,
};
use crate::trace::Phase;
use dpml_faults::splitmix64;
use dpml_topology::{Rank, RankMap};
use std::collections::HashMap;

/// Rank `rank`'s input value at byte `byte`.
fn lane(rank: u32, byte: u64) -> u64 {
    splitmix64(
        u64::from(rank)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(byte),
    )
}

/// Why an interpretation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A full sweep moved no rank; these ranks had not finished.
    Deadlock {
        /// Unfinished ranks, ascending.
        blocked: Vec<u32>,
    },
    /// A `Barrier` or `Sharp` names an id the world never registered.
    UnknownGroup(&'static str, u32),
    /// `rank`'s result holds the wrong value at `byte` (the first one).
    Mismatch {
        /// The rank with the wrong result.
        rank: u32,
        /// First wrong byte.
        byte: u64,
    },
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Deadlock { blocked } => write!(f, "deadlock: ranks {blocked:?} blocked"),
            ExecError::UnknownGroup(kind, id) => write!(f, "unregistered {kind} id {id}"),
            ExecError::Mismatch { rank, byte } => {
                write!(f, "rank {rank} holds a wrong value at byte {byte}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

/// Every rank's result buffer after a finished run, `vector_bytes` lanes
/// each (bytes never written read as zero).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lanes {
    /// Result lanes indexed by rank.
    pub results: Vec<Vec<u64>>,
}

impl Lanes {
    /// Every rank must hold `Σ_r lane(r, b)` at every byte `b`.
    pub fn check_allreduce(&self) -> Result<(), ExecError> {
        let p = self.results.len() as u32;
        let n = self.results.first().map_or(0, Vec::len) as u64;
        let want: Vec<u64> = (0..n)
            .map(|b| (0..p).fold(0u64, |acc, r| acc.wrapping_add(lane(r, b))))
            .collect();
        for (rank, got) in self.results.iter().enumerate() {
            if let Some(byte) = got.iter().zip(&want).position(|(g, w)| g != w) {
                return Err(ExecError::Mismatch {
                    rank: rank as u32,
                    byte: byte as u64,
                });
            }
        }
        Ok(())
    }
}

/// Interpret `world` on `map` and check that it computes an allreduce.
pub fn check_allreduce(world: &WorldProgram, map: &RankMap) -> Result<(), ExecError> {
    run(world, map)?.check_allreduce()
}

/// Interpret `world` on `map` to completion and return the result lanes.
pub fn run(world: &WorldProgram, map: &RankMap) -> Result<Lanes, ExecError> {
    let mut steps = Stepper::new(world);
    let mut mem = Memory::new(world, map);
    let p = world.world_size();
    // Sweep the ranks round-robin until a sweep resumes none.
    let mut moved = true;
    while moved {
        moved = false;
        for r in 0..p {
            if std::mem::take(&mut mem.ready[r as usize]) && steps.live(r) {
                steps.resume(r, &mut mem)?;
                moved = true;
            }
        }
    }
    let blocked: Vec<u32> = (0..p)
        .filter(|&r| steps.status(r) != Status::Done)
        .collect();
    if !blocked.is_empty() {
        return Err(ExecError::Deadlock { blocked });
    }
    let n = world.vector_bytes;
    let results = (0..p)
        .map(|r| mem.read(r, BUF_RESULT, ByteRange::whole(n)))
        .collect();
    Ok(Lanes { results })
}

/// One SHArP occurrence: the running sum and the buffers it lands in.
#[derive(Default)]
struct SharpSum {
    range: Option<ByteRange>,
    accum: Vec<u64>,
    dsts: Vec<(u32, BufKey)>,
}

/// The untimed host: every buffer's lanes, and which ranks may run.
struct Memory<'w> {
    map: &'w RankMap,
    /// Lanes by buffer and owner: the rank for a private buffer, the node
    /// for a shared one.
    bufs: HashMap<(BufKey, u32), Vec<u64>>,
    /// Sent payloads, taken when matched.
    msgs: Vec<(ByteRange, Vec<u64>)>,
    /// Per SHArP occurrence.
    sums: Vec<SharpSum>,
    /// Ranks to resume in the next sweep.
    ready: Vec<bool>,
}

impl<'w> Memory<'w> {
    fn new(world: &WorldProgram, map: &'w RankMap) -> Self {
        let n = world.vector_bytes;
        let p = world.world_size();
        let mut bufs: HashMap<_, Vec<u64>> = (0..p)
            .map(|r| ((BUF_INPUT, r), (0..n).map(|b| lane(r, b)).collect()))
            .collect();
        for (node, id, range, ranks) in &world.preset_shared {
            let sum = |b| {
                ranks
                    .clone()
                    .fold(0u64, |acc, q| acc.wrapping_add(lane(q, b)))
            };
            let buf = (0..range.end)
                .map(|b| if b < range.start { 0 } else { sum(b) })
                .collect();
            bufs.insert((BufKey::Shared(*id), *node), buf);
        }
        Memory {
            map,
            bufs,
            msgs: Vec::new(),
            sums: Vec::new(),
            ready: vec![true; p as usize],
        }
    }

    /// Where rank `r`'s buffer `key` lives.
    fn at(&self, r: u32, key: BufKey) -> (BufKey, u32) {
        match key {
            BufKey::Priv(_) => (key, r),
            BufKey::Shared(_) => (key, self.map.node_of(Rank(r)).0),
        }
    }

    /// `key[range]` of rank `r`; absent or short buffers read as zero.
    fn read(&self, r: u32, key: BufKey, range: ByteRange) -> Vec<u64> {
        let mut out = vec![0; range.len() as usize];
        self.fold(&mut out, r, key, range);
        out
    }

    /// `acc += key[range]` of rank `r`, lane by lane.
    fn fold(&self, acc: &mut [u64], r: u32, key: BufKey, range: ByteRange) {
        let buf = self
            .bufs
            .get(&self.at(r, key))
            .map_or(&[][..], Vec::as_slice);
        let (s, e) = (range.start as usize, buf.len().min(range.end as usize));
        for (a, v) in acc.iter_mut().zip(buf.get(s..e).unwrap_or_default()) {
            *a = a.wrapping_add(*v);
        }
    }

    /// `key[range] = vals` on rank `r`, zero-extending the buffer.
    fn write(&mut self, r: u32, key: BufKey, range: ByteRange, vals: &[u64]) {
        let buf = self.bufs.entry(self.at(r, key)).or_default();
        if (buf.len() as u64) < range.end {
            buf.resize(range.end as usize, 0);
        }
        buf[range.start as usize..range.end as usize].copy_from_slice(vals);
    }
}

impl<'w> Host<'w> for Memory<'_> {
    type Msg = usize;
    type Error = ExecError;

    fn send(&mut self, r: u32, _: Phase, _: u32, (_, _, src, range): Outgoing) -> Sent<usize> {
        self.msgs.push((range, self.read(r, src, range)));
        Sent::Arrived(self.msgs.len() - 1)
    }

    fn recv(&mut self, r: u32, m: usize, dst: BufKey) {
        let (range, payload) = &mut self.msgs[m];
        let (range, payload) = (*range, std::mem::take(payload));
        self.write(r, dst, range, &payload);
    }

    fn local(&mut self, r: u32, _: Phase, op: Local<'w>, dst: BufKey, range: ByteRange) -> Step {
        let vals = match op {
            Local::Copy(src, _) => self.read(r, src, range),
            Local::Reduce(srcs) => {
                let mut acc = self.read(r, dst, range);
                for src in srcs {
                    self.fold(&mut acc, r, *src, range);
                }
                acc
            }
        };
        self.write(r, dst, range, &vals);
        Step::Next
    }

    fn compute(&mut self, _: u32, _: Phase, _: f64) -> Step {
        Step::Next
    }

    fn join(
        &mut self,
        r: u32,
        _: Phase,
        meet: Meet,
        arrival: Result<Arrival<'w>, UnknownGroup>,
    ) -> Result<(), ExecError> {
        let arrival =
            arrival.map_err(|UnknownGroup(kind, id)| ExecError::UnknownGroup(kind, id))?;
        let Meet::Sharp(_, src, dst, range) = meet else {
            if arrival.last {
                for m in arrival.members {
                    self.ready[m.index()] = true;
                }
            }
            return Ok(());
        };
        if arrival.occurrence == self.sums.len() {
            self.sums.push(SharpSum::default());
        }
        let mut sum = std::mem::take(&mut self.sums[arrival.occurrence]);
        let prev = *sum.range.get_or_insert(range);
        assert_eq!(prev, range, "sharp group members disagree on range");
        sum.accum.resize(range.len() as usize, 0);
        self.fold(&mut sum.accum, r, src, range);
        sum.dsts.push((r, dst));
        if !arrival.last {
            self.sums[arrival.occurrence] = sum;
            return Ok(());
        }
        for (m, dst) in sum.dsts {
            self.write(m, dst, range, &sum.accum);
            self.ready[m as usize] = true;
        }
        Ok(())
    }

    fn wait(&mut self, _: u32, _: Phase) {}

    fn wake(&mut self, r: u32, _: usize) {
        self.ready[r as usize] = true;
    }

    fn done(&mut self, _: u32) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::Contrib;
    use crate::report::{RunReport, VerifyError};
    use crate::sim::{SharpOracle, SimConfig, SimError, Simulator};
    use dpml_fabric::presets::cluster_b;
    use dpml_topology::ClusterSpec;

    fn map(nodes: u32, ppn: u32) -> RankMap {
        RankMap::block(&ClusterSpec::new(nodes, 2, 14, ppn).unwrap())
    }

    /// One SHArP op at a time, 1 µs each.
    struct Serial;
    impl SharpOracle for Serial {
        fn op_time(&self, _members: &[Rank], _bytes: u64) -> f64 {
            1e-6
        }
        fn max_concurrent_ops(&self) -> u32 {
            1
        }
    }

    /// The timed host's run of `w` on cluster B.
    fn simulate(w: &WorldProgram, m: &RankMap) -> Result<RunReport, SimError> {
        let preset = cluster_b();
        let cfg = SimConfig::new(m.clone(), preset.fabric, preset.switch).unwrap();
        Simulator::new(&cfg).with_sharp(&Serial).run(w)
    }

    /// Both hosts run `w` to the end and give the same allreduce verdict;
    /// returns it.
    fn agreed(w: &WorldProgram, m: &RankMap) -> bool {
        let lanes = check_allreduce(w, m).is_ok();
        let coverage = simulate(w, m).unwrap().verify_allreduce().is_ok();
        assert_eq!(lanes, coverage, "the hosts disagree");
        lanes
    }

    /// Two ranks on two nodes: copy the input to the result, exchange
    /// inputs, reduce the peer's in; with `double`, also fold the own
    /// input a second time and the received buffer twice.
    fn exchange(n: u64, double: bool) -> WorldProgram {
        let mut w = WorldProgram::new(2, n);
        let tmp = BufKey::Priv(2);
        for r in 0..2u32 {
            let p = w.rank(Rank(r));
            p.copy(BUF_INPUT, BUF_RESULT, ByteRange::whole(n), false);
            if double {
                p.reduce(vec![BUF_INPUT], BUF_RESULT, ByteRange::whole(n));
            }
            p.sendrecv(Rank(1 - r), 0, BUF_INPUT, ByteRange::whole(n), tmp);
            let srcs = if double { vec![tmp, tmp] } else { vec![tmp] };
            p.reduce(srcs, BUF_RESULT, ByteRange::whole(n));
        }
        w
    }

    #[test]
    fn exchange_sums_exactly() {
        let lanes = run(&exchange(64, false), &map(2, 1)).unwrap();
        for r in 0..2 {
            assert_eq!(lanes.results[r][5], lane(0, 5).wrapping_add(lane(1, 5)));
        }
        lanes.check_allreduce().unwrap();
    }

    #[test]
    fn lane_zero_is_the_coverage_hash() {
        for r in [0, 1, 63, 64, 10_239] {
            assert_eq!(Contrib::rank(r).0, lane(r, 0));
        }
    }

    #[test]
    fn double_fold_fails_lanes_and_coverage() {
        let (w, m) = (exchange(64, true), map(2, 1));
        let err = check_allreduce(&w, &m).unwrap_err();
        assert_eq!(err, ExecError::Mismatch { rank: 0, byte: 0 });
        // Coverage sums count multiplicity, so the simulator rejects it too.
        let preset = cluster_b();
        let cfg = SimConfig::new(m, preset.fabric, preset.switch).unwrap();
        let err = Simulator::new(&cfg)
            .run(&w)
            .unwrap()
            .verify_allreduce()
            .unwrap_err();
        assert!(matches!(
            err,
            VerifyError::WrongResult {
                rank: 0,
                correct_bytes: 0,
                ..
            }
        ));
    }

    #[test]
    fn mismatched_tags_deadlock() {
        let mut w = WorldProgram::new(2, 8);
        for r in 0..2u32 {
            w.rank(Rank(r))
                .sendrecv(Rank(1 - r), r, BUF_INPUT, ByteRange::whole(8), BUF_RESULT);
        }
        let err = run(&w, &map(2, 1)).unwrap_err();
        assert_eq!(
            err,
            ExecError::Deadlock {
                blocked: vec![0, 1]
            }
        );
        let Err(SimError::Deadlock { blocked }) = simulate(&w, &map(2, 1)) else {
            panic!("the engine must deadlock too");
        };
        let ranks: Vec<u32> = blocked.iter().map(|b| b.0).collect();
        assert_eq!(ranks, vec![0, 1]);
    }

    #[test]
    fn barrier_orders_shared_memory() {
        // One node, two ranks: deposit, barrier, fold both deposits. Rank
        // 0 reaches the fold first only if the barrier fails to hold it.
        let n = 32;
        let mut w = WorldProgram::new(2, n);
        w.register_barrier(0, vec![Rank(0), Rank(1)]);
        for r in 0..2u32 {
            let p = w.rank(Rank(r));
            p.copy(BUF_INPUT, BufKey::Shared(r), ByteRange::whole(n), false);
            p.barrier(0);
            p.reduce(
                vec![BufKey::Shared(0), BufKey::Shared(1)],
                BUF_RESULT,
                ByteRange::whole(n),
            );
        }
        assert!(agreed(&w, &map(1, 2)));
        // Barrier 0 again, twice: the first keeps each rank from
        // overwriting its deposit before the peer folded it, the second
        // from reading the peer's before it is written.
        for r in 0..2u32 {
            let p = w.rank(Rank(r));
            p.barrier(0);
            p.copy(BUF_RESULT, BufKey::Shared(r), ByteRange::whole(n), false);
            p.barrier(0);
            p.copy(
                BufKey::Shared(1 - r),
                BUF_RESULT,
                ByteRange::whole(n),
                false,
            );
        }
        assert!(agreed(&w, &map(1, 2)));
        w.rank(Rank(0)).barrier(7);
        assert_eq!(
            run(&w, &map(1, 2)),
            Err(ExecError::UnknownGroup("barrier", 7))
        );
        assert_eq!(
            simulate(&w, &map(1, 2)).unwrap_err(),
            SimError::UnknownGroup("barrier", 7)
        );
    }

    #[test]
    fn sharp_meets_once_per_occurrence() {
        let n = 16;
        let mut w = WorldProgram::new(3, n);
        w.register_sharp_group(0, (0..3).map(Rank).collect());
        for r in 0..3u32 {
            w.rank(Rank(r))
                .sharp(0, BUF_INPUT, BUF_RESULT, ByteRange::whole(n));
        }
        assert!(agreed(&w, &map(3, 1)));
        // A second occurrence sums the sums: three times the allreduce.
        for r in 0..3u32 {
            w.rank(Rank(r))
                .sharp(0, BUF_RESULT, BUF_RESULT, ByteRange::whole(n));
        }
        let lanes = run(&w, &map(3, 1)).unwrap();
        let sum = (0..3).fold(0u64, |a, r| a.wrapping_add(lane(r, 9)));
        assert_eq!(lanes.results[2][9], sum.wrapping_mul(3));
        assert!(!agreed(&w, &map(3, 1)));
        assert_eq!(simulate(&w, &map(3, 1)).unwrap().stats.sharp_ops, 2);
    }

    #[test]
    fn shared_presets_become_lane_sums() {
        let n = 24;
        let mut w = WorldProgram::new(2, n);
        w.preset_shared(0, 3, ByteRange::whole(n), 0..2);
        for r in 0..2u32 {
            w.rank(Rank(r))
                .copy(BufKey::Shared(3), BUF_RESULT, ByteRange::whole(n), false);
        }
        check_allreduce(&w, &map(1, 2)).unwrap();
    }
}
