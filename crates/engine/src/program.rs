//! The rank-program IR: what each simulated process executes.
//!
//! A collective algorithm compiles to one [`Program`] per rank plus shared
//! metadata (barrier membership, SHArP groups) bundled as a
//! [`WorldProgram`]. Instructions reference *buffers*: private per-rank
//! buffers or node-shared buffers (the simulated shared-memory regions DPML
//! phases 1/2/4 operate on).

use crate::coverage::CoverageMap;
use crate::trace::Phase;
use dpml_topology::Rank;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Message tag for send/recv matching.
pub type Tag = u32;

/// A request handle returned by nonblocking operations, local to one rank's
/// program (index in issue order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ReqId(pub u32);

/// A buffer reference, resolved relative to the executing rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BufKey {
    /// Private buffer `id` of the executing rank. Buffer 0 is the input
    /// (pre-initialized with the rank's own contribution over `[0, n)`),
    /// buffer 1 is the conventional result buffer; higher ids are scratch.
    Priv(u32),
    /// Shared buffer `id` on the executing rank's node, visible to all
    /// co-located ranks.
    Shared(u32),
}

/// The conventional input buffer (holds the rank's own contribution).
pub const BUF_INPUT: BufKey = BufKey::Priv(0);
/// The conventional result buffer checked by allreduce verification.
pub const BUF_RESULT: BufKey = BufKey::Priv(1);

/// A half-open byte range of the logical vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ByteRange {
    /// Inclusive start offset.
    pub start: u64,
    /// Exclusive end offset.
    pub end: u64,
}

impl ByteRange {
    /// Construct a range; `start > end` is a bug.
    pub fn new(start: u64, end: u64) -> Self {
        assert!(start <= end, "invalid range {start}..{end}");
        ByteRange { start, end }
    }

    /// The whole vector `[0, n)`.
    pub fn whole(n: u64) -> Self {
        ByteRange { start: 0, end: n }
    }

    /// Length in bytes.
    #[inline]
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// True when empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Split `[0, n)` into `parts` contiguous chunks, earlier chunks taking
    /// the remainder: the partitioning DPML applies per leader and
    /// DPML-Pipelined applies per sub-partition.
    pub fn partition(n: u64, parts: u32) -> Vec<ByteRange> {
        assert!(parts > 0);
        let parts64 = parts as u64;
        let base = n / parts64;
        let extra = n % parts64;
        let mut out = Vec::with_capacity(parts as usize);
        let mut cursor = 0;
        for i in 0..parts64 {
            let len = base + if i < extra { 1 } else { 0 };
            out.push(ByteRange {
                start: cursor,
                end: cursor + len,
            });
            cursor += len;
        }
        debug_assert_eq!(cursor, n);
        out
    }

    /// The `i`-th of `parts` partitions of this range.
    pub fn subrange(&self, parts: u32, i: u32) -> ByteRange {
        let inner = ByteRange::partition(self.len(), parts);
        let r = inner[i as usize];
        ByteRange {
            start: self.start + r.start,
            end: self.start + r.end,
        }
    }
}

/// One instruction of a rank program.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Instr {
    /// Post a nonblocking send: snapshot `src ∩ range` and ship
    /// `range.len()` bytes to `to`. Occupies the sending core for the
    /// NIC injection overhead.
    ISend {
        to: Rank,
        tag: Tag,
        src: BufKey,
        range: ByteRange,
    },
    /// Post a nonblocking receive from `from` with `tag`; on delivery the
    /// payload *overwrites* `dst` over the payload's range.
    IRecv { from: Rank, tag: Tag, dst: BufKey },
    /// Block until all listed requests complete.
    WaitAll { reqs: Vec<ReqId> },
    /// Shared-memory copy: `dst[range] = src[range]`. `cross_socket`
    /// selects the slower inter-socket path.
    Copy {
        src: BufKey,
        dst: BufKey,
        range: ByteRange,
        cross_socket: bool,
    },
    /// Reduction: `dst[range] ∪= each src[range]`, charging
    /// `passes × range.len()` bytes of streaming compute on this core
    /// (`passes` defaults to `srcs.len()`).
    Reduce {
        srcs: Vec<BufKey>,
        dst: BufKey,
        range: ByteRange,
    },
    /// Pure local computation (application work), in seconds.
    Compute { seconds: f64 },
    /// Synchronize with the other members of barrier `id` (membership is
    /// registered in the [`WorldProgram`]).
    Barrier { id: u32 },
    /// Participate in SHArP operation on group `id`: contributes
    /// `src ∩ range`, and on completion every member's `dst[range]` holds
    /// the union of all members' contributions.
    Sharp {
        group: u32,
        src: BufKey,
        dst: BufKey,
        range: ByteRange,
    },
}

/// The program of a single rank.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Program {
    /// Instructions in execution order.
    pub instrs: Vec<Instr>,
    next_req: u32,
    /// Phase tag of each instruction, parallel to `instrs` (instructions
    /// appended before any [`Program::set_phase`] call — or deserialized
    /// from pre-phase traces — default to [`Phase::Unknown`]).
    #[serde(default)]
    phases: Vec<Phase>,
    /// Phase applied to instructions pushed from now on.
    #[serde(default)]
    current_phase: Phase,
}

impl Program {
    /// An empty program.
    pub fn new() -> Self {
        Program::default()
    }

    /// Tag subsequently pushed instructions with `phase`.
    pub fn set_phase(&mut self, phase: Phase) {
        self.current_phase = phase;
    }

    /// The phase of instruction `pc` ([`Phase::Unknown`] when untagged).
    pub fn phase_at(&self, pc: usize) -> Phase {
        self.phases.get(pc).copied().unwrap_or_default()
    }

    fn push_instr(&mut self, i: Instr) {
        self.instrs.push(i);
        self.phases.push(self.current_phase);
    }

    fn push_req(&mut self, i: Instr) -> ReqId {
        let id = ReqId(self.next_req);
        self.next_req += 1;
        self.push_instr(i);
        id
    }

    /// Post a nonblocking send.
    pub fn isend(&mut self, to: Rank, tag: Tag, src: BufKey, range: ByteRange) -> ReqId {
        self.push_req(Instr::ISend {
            to,
            tag,
            src,
            range,
        })
    }

    /// Post a nonblocking receive.
    pub fn irecv(&mut self, from: Rank, tag: Tag, dst: BufKey) -> ReqId {
        self.push_req(Instr::IRecv { from, tag, dst })
    }

    /// Wait on a set of requests.
    pub fn wait_all(&mut self, reqs: Vec<ReqId>) {
        self.push_instr(Instr::WaitAll { reqs });
    }

    /// Blocking send = isend + wait.
    pub fn send(&mut self, to: Rank, tag: Tag, src: BufKey, range: ByteRange) {
        let r = self.isend(to, tag, src, range);
        self.wait_all(vec![r]);
    }

    /// Blocking receive = irecv + wait.
    pub fn recv(&mut self, from: Rank, tag: Tag, dst: BufKey) {
        let r = self.irecv(from, tag, dst);
        self.wait_all(vec![r]);
    }

    /// Blocking exchange: isend + irecv + waitall (the recursive-doubling
    /// step primitive; posting both before waiting avoids deadlock).
    pub fn sendrecv(
        &mut self,
        peer: Rank,
        tag: Tag,
        src: BufKey,
        send_range: ByteRange,
        dst: BufKey,
    ) {
        let s = self.isend(peer, tag, src, send_range);
        let r = self.irecv(peer, tag, dst);
        self.wait_all(vec![s, r]);
    }

    /// Shared-memory copy.
    pub fn copy(&mut self, src: BufKey, dst: BufKey, range: ByteRange, cross_socket: bool) {
        self.push_instr(Instr::Copy {
            src,
            dst,
            range,
            cross_socket,
        });
    }

    /// Local reduction.
    pub fn reduce(&mut self, srcs: Vec<BufKey>, dst: BufKey, range: ByteRange) {
        self.push_instr(Instr::Reduce { srcs, dst, range });
    }

    /// Application compute delay.
    pub fn compute(&mut self, seconds: f64) {
        self.push_instr(Instr::Compute { seconds });
    }

    /// Barrier participation.
    pub fn barrier(&mut self, id: u32) {
        self.push_instr(Instr::Barrier { id });
    }

    /// SHArP participation.
    pub fn sharp(&mut self, group: u32, src: BufKey, dst: BufKey, range: ByteRange) {
        self.push_instr(Instr::Sharp {
            group,
            src,
            dst,
            range,
        });
    }
}

/// A complete job: one program per rank plus group metadata.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct WorldProgram {
    /// Programs indexed by rank.
    pub programs: Vec<Program>,
    /// Barrier id → member ranks.
    pub barriers: HashMap<u32, Vec<Rank>>,
    /// SHArP group id → member ranks.
    pub sharp_groups: HashMap<u32, Vec<Rank>>,
    /// Logical vector size in bytes (used for verification and input
    /// initialization).
    pub vector_bytes: u64,
    /// Checkpointed private-buffer state applied before execution:
    /// `(rank, buffer id, coverage)`. Lets a continuation world resume
    /// from surviving state instead of empty buffers. Later entries
    /// replace earlier ones for the same buffer.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub preset_priv: Vec<(u32, u32, CoverageMap)>,
    /// Checkpointed shared-memory state: `(node, buffer id, coverage)`.
    /// The integrity ladder's partition re-reduce presets the phase-1
    /// deposits and the other partitions' published results here.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub preset_shared: Vec<(u32, u32, CoverageMap)>,
}

impl WorldProgram {
    /// Create a world of `p` empty programs over an `n`-byte vector.
    pub fn new(p: u32, vector_bytes: u64) -> Self {
        WorldProgram {
            programs: (0..p).map(|_| Program::new()).collect(),
            barriers: HashMap::new(),
            sharp_groups: HashMap::new(),
            vector_bytes,
            preset_priv: Vec::new(),
            preset_shared: Vec::new(),
        }
    }

    /// Number of ranks.
    pub fn world_size(&self) -> u32 {
        self.programs.len() as u32
    }

    /// Mutable access to one rank's program.
    pub fn rank(&mut self, r: Rank) -> &mut Program {
        &mut self.programs[r.index()]
    }

    /// Register a barrier's membership; returns its id.
    pub fn register_barrier(&mut self, id: u32, members: Vec<Rank>) {
        assert!(!members.is_empty(), "barrier needs members");
        let prev = self.barriers.insert(id, members);
        assert!(prev.is_none(), "barrier id {id} registered twice");
    }

    /// Register a SHArP group's membership.
    pub fn register_sharp_group(&mut self, id: u32, members: Vec<Rank>) {
        assert!(!members.is_empty(), "sharp group needs members");
        let prev = self.sharp_groups.insert(id, members);
        assert!(prev.is_none(), "sharp group id {id} registered twice");
    }

    /// Total instruction count across all ranks (diagnostics).
    pub fn total_instrs(&self) -> usize {
        self.programs.iter().map(|p| p.instrs.len()).sum()
    }

    /// The initial coverage of a rank's input buffer.
    pub fn initial_input(&self, r: Rank) -> CoverageMap {
        CoverageMap::singleton(r.0, 0, self.vector_bytes)
    }

    /// Start `rank`'s private buffer `buf` from `cov` instead of empty.
    pub fn preset_private(&mut self, rank: Rank, buf: u32, cov: CoverageMap) {
        self.preset_priv.push((rank.0, buf, cov));
    }

    /// Start `node`'s shared buffer `buf` from `cov` instead of empty.
    pub fn preset_shared(&mut self, node: u32, buf: u32, cov: CoverageMap) {
        self.preset_shared.push((node, buf, cov));
    }
}

/// Allocator for fresh barrier/group/tag identifiers while building
/// composite schedules.
#[derive(Debug)]
pub struct ProgramBuilder {
    next_barrier: u32,
    next_group: u32,
    next_tag: Tag,
    next_priv: u32,
    next_shared: u32,
}

impl Default for ProgramBuilder {
    fn default() -> Self {
        // Private ids 0 (input) and 1 (result) are reserved by convention.
        ProgramBuilder {
            next_barrier: 0,
            next_group: 0,
            next_tag: 0,
            next_priv: 2,
            next_shared: 0,
        }
    }
}

impl ProgramBuilder {
    /// Fresh builder.
    pub fn new() -> Self {
        ProgramBuilder::default()
    }

    /// Allocate `count` private scratch buffer ids; returns the first.
    /// Ids 0/1 (input/result) are never handed out.
    pub fn fresh_priv(&mut self, count: u32) -> u32 {
        let id = self.next_priv;
        self.next_priv += count;
        id
    }

    /// Allocate `count` node-shared buffer ids; returns the first.
    pub fn fresh_shared(&mut self, count: u32) -> u32 {
        let id = self.next_shared;
        self.next_shared += count;
        id
    }

    /// Allocate a barrier id.
    pub fn fresh_barrier(&mut self) -> u32 {
        let id = self.next_barrier;
        self.next_barrier += 1;
        id
    }

    /// Allocate a SHArP group id.
    pub fn fresh_group(&mut self) -> u32 {
        let id = self.next_group;
        self.next_group += 1;
        id
    }

    /// Allocate a block of `count` distinct tags and return the first.
    pub fn fresh_tags(&mut self, count: u32) -> Tag {
        let t = self.next_tag;
        self.next_tag += count;
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_distributes_remainder() {
        let parts = ByteRange::partition(10, 3);
        assert_eq!(
            parts,
            vec![
                ByteRange::new(0, 4),
                ByteRange::new(4, 7),
                ByteRange::new(7, 10)
            ]
        );
        assert_eq!(parts.iter().map(|r| r.len()).sum::<u64>(), 10);
    }

    #[test]
    fn partition_handles_tiny_vectors() {
        let parts = ByteRange::partition(2, 4);
        assert_eq!(parts.iter().map(|r| r.len()).sum::<u64>(), 2);
        assert_eq!(parts.iter().filter(|r| r.is_empty()).count(), 2);
    }

    #[test]
    fn subrange_nests() {
        let outer = ByteRange::new(100, 200);
        let s = outer.subrange(4, 1);
        assert_eq!(s, ByteRange::new(125, 150));
    }

    #[test]
    fn request_ids_are_issue_ordered() {
        let mut p = Program::new();
        let a = p.isend(Rank(1), 0, BUF_INPUT, ByteRange::new(0, 8));
        let b = p.irecv(Rank(1), 0, BUF_RESULT);
        assert_eq!(a, ReqId(0));
        assert_eq!(b, ReqId(1));
        p.wait_all(vec![a, b]);
        assert_eq!(p.instrs.len(), 3);
    }

    #[test]
    fn sendrecv_emits_three_instrs() {
        let mut p = Program::new();
        p.sendrecv(
            Rank(2),
            7,
            BUF_INPUT,
            ByteRange::new(0, 16),
            BufKey::Priv(2),
        );
        assert_eq!(p.instrs.len(), 3);
        assert!(matches!(p.instrs[2], Instr::WaitAll { ref reqs } if reqs.len() == 2));
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_barrier_id_panics() {
        let mut w = WorldProgram::new(4, 64);
        w.register_barrier(0, vec![Rank(0), Rank(1)]);
        w.register_barrier(0, vec![Rank(2)]);
    }

    #[test]
    fn builder_allocates_unique_ids() {
        let mut b = ProgramBuilder::new();
        assert_eq!(b.fresh_barrier(), 0);
        assert_eq!(b.fresh_barrier(), 1);
        assert_eq!(b.fresh_group(), 0);
        let t0 = b.fresh_tags(10);
        let t1 = b.fresh_tags(1);
        assert_eq!(t0, 0);
        assert_eq!(t1, 10);
    }

    #[test]
    fn builder_reserves_input_and_result_ids() {
        let mut b = ProgramBuilder::new();
        let s = b.fresh_priv(3);
        assert_eq!(s, 2); // 0 = input, 1 = result
        assert_eq!(b.fresh_priv(1), 5);
        assert_eq!(b.fresh_shared(4), 0);
        assert_eq!(b.fresh_shared(1), 4);
    }

    #[test]
    fn instructions_carry_the_active_phase() {
        let mut p = Program::new();
        p.copy(BUF_INPUT, BUF_RESULT, ByteRange::new(0, 8), false);
        p.set_phase(Phase::InterLeader);
        let s = p.isend(Rank(1), 0, BUF_RESULT, ByteRange::new(0, 8));
        p.wait_all(vec![s]);
        p.set_phase(Phase::Broadcast);
        p.barrier(0);
        assert_eq!(p.phase_at(0), Phase::Unknown);
        assert_eq!(p.phase_at(1), Phase::InterLeader);
        assert_eq!(p.phase_at(2), Phase::InterLeader);
        assert_eq!(p.phase_at(3), Phase::Broadcast);
        assert_eq!(p.phase_at(99), Phase::Unknown);
    }

    #[test]
    fn initial_input_is_own_contribution() {
        let w = WorldProgram::new(4, 128);
        let c = w.initial_input(Rank(3));
        assert!(c.covers_exactly(0, 128, &crate::coverage::RankSet::singleton(3)));
    }
}
