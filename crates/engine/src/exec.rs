//! Untimed interpreter: what a [`WorldProgram`] computes, with no clock.
//!
//! The simulator answers *when*; this module answers *what*. Ranks run
//! round-robin, each until it blocks (in `WaitAll`, `Barrier` or `Sharp`)
//! or ends. A sweep in which no rank moves ends in
//! [`ExecError::Deadlock`] instead of a hang.
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
//! offset, which no instruction can do.
//!
//! Matching follows the simulator: messages match FIFO per (source, tag),
//! and a send snapshots its range when posted and never blocks. Barrier
//! `id` and SHArP group `g` rendezvous once per occurrence, keyed by the
//! id and how many times the rank has entered it before. A
//! `preset_shared` entry becomes, per byte of its range, the lane sum of
//! its contributor ranks.

use crate::program::{BufKey, ByteRange, Instr, Tag, WorldProgram, BUF_INPUT, BUF_RESULT};
use dpml_faults::splitmix64;
use dpml_topology::{Rank, RankMap};
use std::collections::{HashMap, VecDeque};

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
    let mut m = Machine::new(world, map);
    loop {
        let mut moved = false;
        for r in 0..m.ranks.len() {
            moved |= m.step(r)?;
        }
        let blocked: Vec<u32> = (0..m.ranks.len())
            .filter(|&r| !m.finished(r))
            .map(|r| r as u32)
            .collect();
        if blocked.is_empty() {
            break;
        }
        if !moved {
            return Err(ExecError::Deadlock { blocked });
        }
    }
    let n = world.vector_bytes;
    let results = (0..m.ranks.len())
        .map(|r| m.read(r, BUF_RESULT, ByteRange::whole(n)))
        .collect();
    Ok(Lanes { results })
}

/// Message matching key: (destination, source, tag).
type MsgKey = (u32, u32, Tag);

/// A barrier or SHArP occurrence: (group kind and id, occurrence number).
type MeetKey = (Meet, u32);

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Meet {
    Barrier(u32),
    Sharp(u32),
}

/// One rendezvous: how many arrived, and for SHArP the running sum and
/// the buffers it lands in.
#[derive(Default)]
struct MeetState {
    arrived: usize,
    dsts: Vec<(usize, BufKey)>,
    range: Option<ByteRange>,
    accum: Vec<u64>,
    done: bool,
}

#[derive(Default)]
struct RankState {
    pc: usize,
    bufs: HashMap<u32, Vec<u64>>,
    /// Completion flag per request, in issue order.
    reqs: Vec<bool>,
    /// Occurrences of each barrier / SHArP group entered so far.
    seen: HashMap<Meet, u32>,
    /// The rendezvous this rank is blocked in.
    waiting: Option<MeetKey>,
}

struct Machine<'w> {
    world: &'w WorldProgram,
    map: &'w RankMap,
    ranks: Vec<RankState>,
    shared: Vec<HashMap<u32, Vec<u64>>>,
    /// Sent, unmatched payloads, FIFO.
    inbox: HashMap<MsgKey, VecDeque<(ByteRange, Vec<u64>)>>,
    /// Posted, unmatched receives: (request, buffer), FIFO.
    posted: HashMap<MsgKey, VecDeque<(usize, BufKey)>>,
    meets: HashMap<MeetKey, MeetState>,
}

impl<'w> Machine<'w> {
    fn new(world: &'w WorldProgram, map: &'w RankMap) -> Self {
        let n = world.vector_bytes;
        let mut shared = vec![HashMap::new(); map.spec().num_nodes as usize];
        for (node, id, range, ranks) in &world.preset_shared {
            let Some(bufs) = shared.get_mut(*node as usize) else {
                continue;
            };
            let mut buf = Vec::new();
            grow(&mut buf, range.end);
            for b in range.start..range.end {
                buf[b as usize] = ranks.clone().fold(0, |acc, q| acc.wrapping_add(lane(q, b)));
            }
            bufs.insert(*id, buf);
        }
        let mut m = Machine {
            world,
            map,
            ranks: (0..world.world_size())
                .map(|_| RankState::default())
                .collect(),
            shared,
            inbox: HashMap::new(),
            posted: HashMap::new(),
            meets: HashMap::new(),
        };
        for r in 0..world.world_size() {
            let input: Vec<u64> = (0..n).map(|b| lane(r, b)).collect();
            m.write(r as usize, BUF_INPUT, ByteRange::whole(n), &input);
        }
        m
    }

    fn finished(&self, r: usize) -> bool {
        let st = &self.ranks[r];
        st.waiting.is_none() && st.pc >= self.world.programs[r].instrs.len()
    }

    fn buf_mut(&mut self, r: usize, key: BufKey) -> &mut Vec<u64> {
        match key {
            BufKey::Priv(id) => self.ranks[r].bufs.entry(id).or_default(),
            BufKey::Shared(id) => {
                let node = self.map.node_of(Rank(r as u32)).index();
                self.shared[node].entry(id).or_default()
            }
        }
    }

    /// `key[range]` of rank `r`; absent or short buffers read as zero.
    fn read(&self, r: usize, key: BufKey, range: ByteRange) -> Vec<u64> {
        let mut out = vec![0; range.len() as usize];
        self.fold(&mut out, r, key, range);
        out
    }

    /// `acc += key[range]` of rank `r`, lane by lane.
    fn fold(&self, acc: &mut [u64], r: usize, key: BufKey, range: ByteRange) {
        let buf = match key {
            BufKey::Priv(id) => self.ranks[r].bufs.get(&id),
            BufKey::Shared(id) => {
                let node = self.map.node_of(Rank(r as u32)).index();
                self.shared[node].get(&id)
            }
        };
        let buf = buf.map_or(&[][..], Vec::as_slice);
        let (s, e) = (range.start as usize, buf.len().min(range.end as usize));
        for (a, v) in acc.iter_mut().zip(buf.get(s..e).unwrap_or_default()) {
            *a = a.wrapping_add(*v);
        }
    }

    fn write(&mut self, r: usize, key: BufKey, range: ByteRange, vals: &[u64]) {
        let buf = self.buf_mut(r, key);
        grow(buf, range.end);
        buf[range.start as usize..range.end as usize].copy_from_slice(vals);
    }

    /// Run rank `r` until it blocks or ends; true when it moved.
    fn step(&mut self, r: usize) -> Result<bool, ExecError> {
        let world = self.world;
        let prog = &world.programs[r];
        let mut moved = false;
        loop {
            if let Some(key) = self.ranks[r].waiting {
                if !self.meets[&key].done {
                    return Ok(moved);
                }
                self.ranks[r].waiting = None;
                moved = true;
            }
            let Some(instr) = prog.instrs.get(self.ranks[r].pc) else {
                return Ok(moved);
            };
            match instr {
                Instr::WaitAll { reqs } => {
                    let st = &self.ranks[r];
                    if !reqs
                        .iter()
                        .all(|q| st.reqs.get(q.0 as usize) == Some(&true))
                    {
                        return Ok(moved);
                    }
                }
                Instr::ISend {
                    to,
                    tag,
                    src,
                    range,
                } => {
                    self.ranks[r].reqs.push(true);
                    let payload = self.read(r, *src, *range);
                    let key = (to.0, r as u32, *tag);
                    match self.posted.get_mut(&key).and_then(VecDeque::pop_front) {
                        Some((req, dst)) => {
                            self.write(to.index(), dst, *range, &payload);
                            self.ranks[to.index()].reqs[req] = true;
                        }
                        None => self
                            .inbox
                            .entry(key)
                            .or_default()
                            .push_back((*range, payload)),
                    }
                }
                Instr::IRecv { from, tag, dst } => {
                    let req = self.ranks[r].reqs.len();
                    let key = (r as u32, from.0, *tag);
                    match self.inbox.get_mut(&key).and_then(VecDeque::pop_front) {
                        Some((range, payload)) => {
                            self.write(r, *dst, range, &payload);
                            self.ranks[r].reqs.push(true);
                        }
                        None => {
                            self.ranks[r].reqs.push(false);
                            self.posted.entry(key).or_default().push_back((req, *dst));
                        }
                    }
                }
                Instr::Copy {
                    src, dst, range, ..
                } => {
                    let vals = self.read(r, *src, *range);
                    self.write(r, *dst, *range, &vals);
                }
                Instr::Reduce { srcs, dst, range } => {
                    let mut acc = self.read(r, *dst, *range);
                    for src in srcs {
                        self.fold(&mut acc, r, *src, *range);
                    }
                    self.write(r, *dst, *range, &acc);
                }
                Instr::Compute { .. } => {}
                Instr::Barrier { id } => self.arrive(r, Meet::Barrier(*id), None)?,
                Instr::Sharp {
                    group,
                    src,
                    dst,
                    range,
                } => self.arrive(r, Meet::Sharp(*group), Some((*src, *dst, *range)))?,
            }
            self.ranks[r].pc += 1;
            moved = true;
        }
    }

    /// Rank `r` enters its next occurrence of `meet`, contributing
    /// `src[range]` to a SHArP sum that overwrites every member's
    /// `dst[range]` once the last member arrives.
    fn arrive(
        &mut self,
        r: usize,
        meet: Meet,
        sharp: Option<(BufKey, BufKey, ByteRange)>,
    ) -> Result<(), ExecError> {
        let members = match meet {
            Meet::Barrier(id) => self
                .world
                .barriers
                .get(&id)
                .ok_or(ExecError::UnknownGroup("barrier", id)),
            Meet::Sharp(id) => self
                .world
                .sharp_groups
                .get(&id)
                .ok_or(ExecError::UnknownGroup("sharp group", id)),
        }?
        .len();
        let seq = self.ranks[r].seen.entry(meet).or_default();
        let key = (meet, *seq);
        *seq += 1;
        let contribution = sharp.map(|(src, dst, range)| (dst, range, self.read(r, src, range)));
        let st = self.meets.entry(key).or_default();
        if let Some((dst, range, vals)) = contribution {
            let prev = *st.range.get_or_insert(range);
            assert_eq!(prev, range, "sharp group members disagree on range");
            st.accum.resize(vals.len(), 0);
            for (a, v) in st.accum.iter_mut().zip(vals) {
                *a = a.wrapping_add(v);
            }
            st.dsts.push((r, dst));
        }
        st.arrived += 1;
        self.ranks[r].waiting = Some(key);
        if st.arrived == members {
            st.done = true;
            if let Some(range) = st.range {
                let (dsts, accum) = (std::mem::take(&mut st.dsts), std::mem::take(&mut st.accum));
                for (m, dst) in dsts {
                    self.write(m, dst, range, &accum);
                }
            }
        }
        Ok(())
    }
}

/// Extend `buf` with zero lanes to at least `len`.
fn grow(buf: &mut Vec<u64>, len: u64) {
    if (buf.len() as u64) < len {
        buf.resize(len as usize, 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::Contrib;
    use crate::report::VerifyError;
    use crate::sim::{SimConfig, Simulator};
    use dpml_fabric::presets::cluster_b;
    use dpml_topology::ClusterSpec;

    fn map(nodes: u32, ppn: u32) -> RankMap {
        RankMap::block(&ClusterSpec::new(nodes, 2, 14, ppn).unwrap())
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
        check_allreduce(&w, &map(1, 2)).unwrap();
        w.rank(Rank(0)).barrier(7);
        assert_eq!(
            run(&w, &map(1, 2)),
            Err(ExecError::UnknownGroup("barrier", 7))
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
        check_allreduce(&w, &map(3, 1)).unwrap();
        // A second occurrence sums the sums: three times the allreduce.
        for r in 0..3u32 {
            w.rank(Rank(r))
                .sharp(0, BUF_RESULT, BUF_RESULT, ByteRange::whole(n));
        }
        let lanes = run(&w, &map(3, 1)).unwrap();
        let sum = (0..3).fold(0u64, |a, r| a.wrapping_add(lane(r, 9)));
        assert_eq!(lanes.results[2][9], sum.wrapping_mul(3));
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
