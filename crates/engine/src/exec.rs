//! Untimed interpreter: what a [`WorldProgram`] computes, with no clock.
//!
//! The simulator answers *when*; this module answers *what*, and
//! [`crate::Simulator::run`] asks it once per run for
//! [`crate::RunReport::result_coverage`]. Both are hosts of one
//! instruction stepper, so matching and rendezvous follow the same rules.
//! Ranks run round-robin, each until it blocks (in `WaitAll`, `Barrier`
//! or `Sharp`) or ends; a sweep that resumes no rank ends in
//! [`ExecError::Deadlock`] instead of a hang. A send snapshots its range
//! when posted and never blocks.
//!
//! Values live in the coverage domain: every buffer is a
//! [`CoverageMap`], rank `r`'s input holds its own contribution over the
//! whole vector, and a `preset_shared` entry holds its contributor ranks'
//! over its range. `Copy`, a matched `IRecv` and a completed `Sharp`
//! overwrite; `Reduce` adds. [`crate::RunReport::verify_allreduce`] then
//! checks the result maps.
//!
//! One run is one legal order of the program, so its result is the
//! program's only if no other order could compute another. The race
//! check (see [`Race`]) flags the accesses that could.

use crate::coverage::CoverageMap;
use crate::program::{BufKey, ByteRange, ReqId, WorldProgram, BUF_INPUT, BUF_RESULT};
pub use crate::race::Race;
use crate::race::Races;
use crate::stepper::{
    Arrival, Host, IntMap, Local, Meet, Outgoing, Sent, Status, Step, Stepper, UnknownGroup,
};
use crate::trace::Phase;
use dpml_topology::{Rank, RankMap};

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
    /// The result may depend on the order the ranks run in.
    Race(Race),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Deadlock { blocked } => write!(f, "deadlock: ranks {blocked:?} blocked"),
            ExecError::UnknownGroup(kind, id) => write!(f, "unregistered {kind} id {id}"),
            ExecError::Race(race) => write!(f, "{race}"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Interpret `world` on `map` to completion and return every rank's
/// result buffer, indexed by rank.
pub fn run(world: &WorldProgram, map: &RankMap) -> Result<Vec<CoverageMap>, ExecError> {
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
    if let Some(race) = mem.races.found {
        return Err(ExecError::Race(race));
    }
    Ok((0..p)
        .map(|r| mem.bufs.get(&(BUF_RESULT, r)).cloned().unwrap_or_default())
        .collect())
}

/// One SHArP occurrence: the running sum and the buffers it lands in.
#[derive(Default)]
struct SharpSum {
    range: Option<ByteRange>,
    accum: CoverageMap,
    dsts: Vec<(u32, BufKey)>,
}

/// The untimed host: every buffer's coverage, and which ranks may run.
struct Memory<'w> {
    map: &'w RankMap,
    /// Coverage by buffer and owner: the rank for a private buffer, the
    /// node for a shared one.
    bufs: IntMap<(BufKey, u32), CoverageMap>,
    /// Sent payloads by message, until received.
    msgs: Vec<(ByteRange, CoverageMap)>,
    /// Slots of `msgs` already received, for reuse.
    free: Vec<usize>,
    /// Per SHArP occurrence.
    sums: Vec<SharpSum>,
    /// Ranks to resume in the next sweep.
    ready: Vec<bool>,
    races: Races<'w>,
}

impl<'w> Memory<'w> {
    fn new(world: &WorldProgram, map: &'w RankMap) -> Self {
        let n = world.vector_bytes;
        let p = world.world_size();
        let mut bufs: IntMap<_, _> = (0..p)
            .map(|r| ((BUF_INPUT, r), CoverageMap::singleton(r, 0, n)))
            .collect();
        for (node, id, range, ranks) in &world.preset_shared {
            let cov = CoverageMap::ranks(ranks.clone(), range.start, range.end);
            bufs.insert((BufKey::Shared(*id), *node), cov);
        }
        Memory {
            map,
            bufs,
            msgs: Vec::new(),
            free: Vec::new(),
            sums: Vec::new(),
            ready: vec![true; p as usize],
            races: Races::new(map),
        }
    }

    /// Where rank `r`'s buffer `key` lives.
    fn at(&self, r: u32, key: BufKey) -> (BufKey, u32) {
        match key {
            BufKey::Priv(_) => (key, r),
            BufKey::Shared(_) => (key, self.map.node_of(Rank(r)).0),
        }
    }

    /// `r` reads `key[range]`; an absent buffer reads as empty.
    fn read(&mut self, r: u32, key: BufKey, range: ByteRange) -> CoverageMap {
        self.races.access(r, key, range, false);
        self.bufs
            .get(&self.at(r, key))
            .map(|b| b.restrict(range.start, range.end))
            .unwrap_or_default()
    }

    /// `r` adds `key[range]` into `acc`.
    fn fold(&mut self, acc: &mut CoverageMap, r: u32, key: BufKey, range: ByteRange) {
        self.races.access(r, key, range, false);
        if let Some(b) = self.bufs.get(&self.at(r, key)) {
            acc.union_merge(b, range.start, range.end);
        }
    }

    /// `r` overwrites `key[range]` with `vals`, which lies inside `range`.
    fn write(&mut self, r: u32, key: BufKey, range: ByteRange, vals: CoverageMap) {
        self.races.access(r, key, range, true);
        let at = self.at(r, key);
        self.bufs
            .entry(at)
            .or_default()
            .overwrite_owned(vals, range.start, range.end);
    }
}

impl<'w> Host<'w> for Memory<'w> {
    type Msg = usize;
    type Error = ExecError;

    fn send(&mut self, r: u32, _: Phase, _: u32, (_, _, src, range): Outgoing) -> Sent<usize> {
        let msg = (range, self.read(r, src, range));
        Sent::Arrived(match self.free.pop() {
            Some(m) => {
                self.msgs[m] = msg;
                m
            }
            None => {
                self.msgs.push(msg);
                self.msgs.len() - 1
            }
        })
    }

    fn posted(&mut self, r: u32, req: u32, dst: BufKey) {
        self.races.posted(r, req, dst);
    }

    fn recv(&mut self, r: u32, req: u32, m: usize, dst: BufKey) {
        let range = self.msgs[m].0;
        let payload = std::mem::take(&mut self.msgs[m].1);
        self.free.push(m);
        self.races.delivered(r, req, dst, range);
        let at = self.at(r, dst);
        self.bufs
            .entry(at)
            .or_default()
            .overwrite_owned(payload, range.start, range.end);
    }

    fn waited(&mut self, r: u32, reqs: &[ReqId]) {
        self.races.waited(r, reqs);
    }

    fn local(&mut self, r: u32, _: Phase, op: Local<'w>, dst: BufKey, range: ByteRange) -> Step {
        match op {
            Local::Copy(src, _) => {
                let vals = self.read(r, src, range);
                self.write(r, dst, range, vals);
            }
            Local::Reduce(srcs) => {
                // Fold each source into `dst` in place, out of the map
                // while the sources are read, unless `dst` is one of them.
                let at = self.at(r, dst);
                let acc = if srcs.contains(&dst) {
                    self.bufs.get(&at).cloned()
                } else {
                    self.bufs.remove(&at)
                };
                let mut acc = acc.unwrap_or_default();
                for src in srcs {
                    self.fold(&mut acc, r, *src, range);
                }
                self.races.access(r, dst, range, true);
                self.bufs.insert(at, acc);
            }
        }
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
                self.races.sync(arrival.members);
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
        self.fold(&mut sum.accum, r, src, range);
        sum.dsts.push((r, dst));
        if !arrival.last {
            self.sums[arrival.occurrence] = sum;
            return Ok(());
        }
        self.races.sync(arrival.members);
        for (m, dst) in sum.dsts {
            self.write(m, dst, range, sum.accum.clone());
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
    use crate::report::{verify_allreduce, RunReport, VerifyError};
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

    /// `w` computes an allreduce, and the engine's report says the same.
    fn verifies(w: &WorldProgram, m: &RankMap) -> bool {
        let ok = verify_allreduce(&run(w, m).unwrap(), w.vector_bytes).is_ok();
        let engine = simulate(w, m).unwrap().verify_allreduce().is_ok();
        assert_eq!(ok, engine, "the engine reports another verdict");
        ok
    }

    /// The race `exec` finds in `w`, which the engine reports too.
    fn race(w: &WorldProgram, m: &RankMap) -> Race {
        let Err(ExecError::Race(race)) = run(w, m) else {
            panic!("no race found");
        };
        assert_eq!(simulate(w, m), Err(SimError::Race(race.clone())));
        race
    }

    /// Two ranks on two nodes: copy the input to the result, exchange
    /// inputs, reduce the peer's in; with `double`, also fold the result
    /// into itself and the received buffer in twice.
    fn exchange(n: u64, double: bool) -> WorldProgram {
        let mut w = WorldProgram::new(2, n);
        let tmp = BufKey::Priv(2);
        for r in 0..2u32 {
            let p = w.rank(Rank(r));
            p.copy(BUF_INPUT, BUF_RESULT, ByteRange::whole(n), false);
            if double {
                p.reduce(vec![BUF_RESULT], BUF_RESULT, ByteRange::whole(n));
            }
            p.sendrecv(Rank(1 - r), 0, BUF_INPUT, ByteRange::whole(n), tmp);
            let srcs = if double { vec![tmp, tmp] } else { vec![tmp] };
            p.reduce(srcs, BUF_RESULT, ByteRange::whole(n));
        }
        w
    }

    #[test]
    fn exchange_sums_exactly() {
        let results = run(&exchange(64, false), &map(2, 1)).unwrap();
        assert_eq!(results[1].at(5), Some(Contrib::full(2)));
        assert!(verifies(&exchange(64, false), &map(2, 1)));
    }

    #[test]
    fn double_fold_fails_verification() {
        let (w, m) = (exchange(64, true), map(2, 1));
        let results = run(&w, &m).unwrap();
        let full = Contrib::full(2);
        assert_eq!(results[0].at(0), Some(full + full));
        let err = verify_allreduce(&results, 64).unwrap_err();
        assert_eq!(
            err,
            VerifyError::WrongResult {
                rank: 0,
                correct_bytes: 0,
                expected_bytes: 64,
            }
        );
        // Coverage sums count multiplicity, so the engine's report, filled
        // by the same pass, rejects it too.
        assert!(!verifies(&w, &m));
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
        assert!(verifies(&w, &map(1, 2)));
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
        assert!(verifies(&w, &map(1, 2)));
        // Without the last barrier, rank 1 may overwrite its deposit while
        // rank 0 still reads it.
        let mut racy = w.clone();
        let last = racy.programs[1].instrs.len() - 2;
        racy.programs[1].instrs.remove(last);
        racy.programs[0].instrs.remove(last);
        let got = race(&racy, &map(1, 2));
        assert_eq!((got.rank, got.with, got.buf), (1, 0, BufKey::Shared(1)));
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
    fn unordered_reads_do_not_race() {
        // Both ranks read one preset shared buffer with nothing between.
        let n = 16;
        let mut w = WorldProgram::new(2, n);
        w.preset_shared(0, 3, ByteRange::whole(n), 0..2);
        for r in 0..2u32 {
            w.rank(Rank(r))
                .copy(BufKey::Shared(3), BUF_RESULT, ByteRange::whole(n), false);
        }
        assert!(verifies(&w, &map(1, 2)));
        // A write by one of them would race with the other's read.
        w.rank(Rank(1))
            .copy(BUF_INPUT, BufKey::Shared(3), ByteRange::new(4, 8), false);
        let got = race(&w, &map(1, 2));
        assert_eq!((got.rank, got.with), (1, 0));
        assert_eq!(got.range, ByteRange::new(4, 8));
    }

    #[test]
    fn touching_a_receive_before_its_wait_races() {
        // `exchange` with each rank's fold of the received buffer moved
        // before the `WaitAll` that completes the receive.
        let mut w = exchange(64, false);
        for prog in &mut w.programs {
            let n = prog.instrs.len();
            prog.instrs.swap(n - 2, n - 1);
        }
        let got = race(&w, &map(2, 1));
        assert_eq!((got.rank, got.with, got.buf), (0, 0, BufKey::Priv(2)));
        assert!(got.to_string().contains("before the WaitAll"));
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
        assert!(verifies(&w, &map(3, 1)));
        // A second occurrence sums the sums: three times the allreduce.
        for r in 0..3u32 {
            w.rank(Rank(r))
                .sharp(0, BUF_RESULT, BUF_RESULT, ByteRange::whole(n));
        }
        let full = Contrib::full(3);
        assert_eq!(
            run(&w, &map(3, 1)).unwrap()[2].at(9),
            Some(full + full + full)
        );
        assert!(!verifies(&w, &map(3, 1)));
        assert_eq!(simulate(&w, &map(3, 1)).unwrap().stats.sharp_ops, 2);
    }

    #[test]
    fn shared_presets_seed_coverage() {
        let n = 24;
        let mut w = WorldProgram::new(4, n);
        // Later entries replace earlier ones for the same buffer.
        w.preset_shared(0, 3, ByteRange::whole(n), 0..1);
        w.preset_shared(0, 3, ByteRange::whole(n), 0..4);
        w.preset_shared(1, 3, ByteRange::whole(n), 0..4);
        for r in 0..4u32 {
            w.rank(Rank(r))
                .copy(BufKey::Shared(3), BUF_RESULT, ByteRange::whole(n), false);
        }
        assert!(verifies(&w, &map(2, 2)));
    }
}
