//! The interpreter's race check.
//!
//! [`crate::exec`] runs one legal order of a program, so its results are
//! the program's only if every legal order computes the same. Two kinds
//! of access could make them differ, and this module flags both:
//!
//! * two accesses to overlapping bytes of a `Shared` buffer, at least one
//!   a write, with no happens-before path between them. Happens-before is
//!   program order plus barrier and SHArP occurrences, kept as vector
//!   clocks over each node's own ranks (only they map a node's shared
//!   buffers). Message edges are not tracked, so the check is
//!   conservative: it may flag accesses that messages order, but it never
//!   passes two that nothing orders.
//! * a rank that touches bytes a posted `IRecv` writes before the
//!   `WaitAll` that completes it. `exec` delivers as soon as both sides
//!   are posted; a real run may deliver at any time up to the wait.

use crate::program::{BufKey, ByteRange, ReqId};
use crate::stepper::IntMap;
use dpml_topology::{LocalRank, NodeId, Rank, RankMap};

/// Two accesses to the same bytes that nothing orders.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Race {
    /// The rank whose access exposed the race.
    pub rank: u32,
    /// The rank of the unordered earlier access; `rank` itself when that
    /// is a receive `rank` has not yet waited for.
    pub with: u32,
    /// The buffer, as `rank` names it.
    pub buf: BufKey,
    /// The bytes `rank` accessed.
    pub range: ByteRange,
}

impl std::fmt::Display for Race {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Race {
            rank,
            with,
            buf,
            range,
        } = self;
        let bytes = format!("{buf:?} bytes {}..{}", range.start, range.end);
        if rank == with {
            write!(
                f,
                "race: rank {rank} touches {bytes} before the WaitAll of its receive into them"
            )
        } else {
            write!(f, "race: ranks {with} and {rank} access {bytes} unordered")
        }
    }
}

/// One access to a node's shared buffer: its bytes, the accessing rank's
/// local index and epoch (its own clock entry then), and whether it wrote.
struct Access {
    range: ByteRange,
    local: u32,
    epoch: u32,
    write: bool,
    /// The buffer's previous logged access, or [`NIL`].
    next: u32,
}

const NIL: u32 = u32::MAX;

/// One node's logged accesses to its shared buffers, in one vector with
/// a newest-first chain per buffer, so a check walks only its buffer's.
#[derive(Default)]
struct Log {
    accesses: Vec<Access>,
    /// Newest access per buffer id.
    heads: IntMap<u32, u32>,
}

/// A receive its rank has posted and not yet waited for.
struct Inbox {
    req: u32,
    dst: BufKey,
    /// The bytes it writes, once delivered.
    range: Option<ByteRange>,
    /// Length of the rank's touch log when it was posted.
    since: usize,
}

#[derive(Default)]
struct Pending {
    inbox: Vec<Inbox>,
    /// Every access of the rank to a buffer a pending receive writes.
    touched: Vec<(BufKey, ByteRange)>,
}

/// Race-check state of one interpretation.
pub(crate) struct Races<'w> {
    map: &'w RankMap,
    ppn: usize,
    /// Each rank's vector clock: `ppn` entries, by local rank on its node.
    clocks: Vec<u32>,
    /// Accesses to each node's shared buffers since a rendezvous of all
    /// the node's ranks last ordered them before everything after.
    logs: Vec<Log>,
    pending: Vec<Pending>,
    /// Scratch for [`Races::sync`]: (node, rank) of each member, and one
    /// node's joined clock.
    members: Vec<(NodeId, usize)>,
    join: Vec<u32>,
    /// The first race found.
    pub(crate) found: Option<Race>,
}

fn overlap(a: ByteRange, b: ByteRange) -> bool {
    a.start < b.end && b.start < a.end
}

impl<'w> Races<'w> {
    pub(crate) fn new(map: &'w RankMap) -> Self {
        let spec = map.spec();
        let ppn = spec.ppn as usize;
        let p = map.world_size();
        let mut clocks = vec![0; p as usize * ppn];
        // Each rank's own entry starts at 1, so its first epoch is after
        // what every other rank knows of it.
        for r in map.all_ranks() {
            clocks[r.index() * ppn + map.local_of(r).0 as usize] = 1;
        }
        Races {
            map,
            ppn,
            clocks,
            logs: (0..spec.num_nodes).map(|_| Log::default()).collect(),
            pending: (0..p).map(|_| Pending::default()).collect(),
            members: Vec::new(),
            join: vec![0; ppn],
            found: None,
        }
    }

    /// `r` reads or writes `buf[range]`.
    pub(crate) fn access(&mut self, r: u32, buf: BufKey, range: ByteRange, write: bool) {
        if range.is_empty() {
            return;
        }
        let with = self.touch(r, buf, range).or_else(|| match buf {
            BufKey::Shared(id) => self.order(r, id, range, write),
            BufKey::Priv(_) => None,
        });
        if let Some(with) = with {
            self.found.get_or_insert(Race {
                rank: r,
                with,
                buf,
                range,
            });
        }
    }

    /// `r` posts receive `req` into `dst`.
    pub(crate) fn posted(&mut self, r: u32, req: u32, dst: BufKey) {
        let pending = &mut self.pending[r as usize];
        pending.inbox.push(Inbox {
            req,
            dst,
            range: None,
            since: pending.touched.len(),
        });
    }

    /// `r`'s receive `req` writes `dst[range]`: nothing `r` touched since
    /// posting it may overlap those bytes.
    pub(crate) fn delivered(&mut self, r: u32, req: u32, dst: BufKey, range: ByteRange) {
        let pending = &mut self.pending[r as usize];
        let i = pending
            .inbox
            .iter()
            .position(|q| q.req == req)
            .expect("a delivered receive was posted");
        let early = pending.touched[pending.inbox[i].since..]
            .iter()
            .any(|&(buf, t)| buf == dst && overlap(t, range));
        if early {
            self.found.get_or_insert(Race {
                rank: r,
                with: r,
                buf: dst,
                range,
            });
        }
        self.access(r, dst, range, true);
        self.pending[r as usize].inbox[i].range = Some(range);
    }

    /// `r` passes a `WaitAll` on `reqs`.
    pub(crate) fn waited(&mut self, r: u32, reqs: &[ReqId]) {
        let pending = &mut self.pending[r as usize];
        pending.inbox.retain(|q| !reqs.contains(&ReqId(q.req)));
        if pending.inbox.is_empty() {
            pending.touched.clear();
        }
    }

    /// `members` leave a barrier or SHArP occurrence together: on each
    /// node, each now knows what the others did before arriving.
    pub(crate) fn sync(&mut self, members: &[Rank]) {
        let ppn = self.ppn;
        let map = self.map;
        self.members.clear();
        self.members
            .extend(members.iter().map(|&m| (map.node_of(m), m.index())));
        self.members.sort_unstable();
        for group in self.members.chunk_by(|a, b| a.0 == b.0) {
            if group.len() == ppn {
                // The whole node met: every logged access is before every
                // later one.
                let log = &mut self.logs[group[0].0.index()];
                log.accesses.clear();
                log.heads.clear();
            }
            self.join.fill(0);
            for &(_, m) in group {
                for (j, c) in self.join.iter_mut().zip(&self.clocks[m * ppn..][..ppn]) {
                    *j = (*j).max(*c);
                }
            }
            for &(_, m) in group {
                let own = map.local_of(Rank(m as u32)).0 as usize;
                let clock = &mut self.clocks[m * ppn..][..ppn];
                clock.copy_from_slice(&self.join);
                clock[own] += 1;
            }
        }
    }

    /// Check `r`'s access against its pending receives, and log it while
    /// one into `buf` is pending; returns `r` when a delivered one writes
    /// those bytes.
    fn touch(&mut self, r: u32, buf: BufKey, range: ByteRange) -> Option<u32> {
        let pending = &mut self.pending[r as usize];
        let mut into = pending.inbox.iter().filter(|q| q.dst == buf).peekable();
        into.peek()?;
        let hit = into.any(|q| q.range.is_some_and(|d| overlap(d, range)));
        pending.touched.push((buf, range));
        hit.then_some(r)
    }

    /// Check `r`'s access to its node's shared buffer `id` against every
    /// logged one, then log it; returns the rank of an unordered conflict.
    fn order(&mut self, r: u32, id: u32, range: ByteRange, write: bool) -> Option<u32> {
        let node = self.map.node_of(Rank(r));
        let local = self.map.local_of(Rank(r)).0;
        let clock = &self.clocks[r as usize * self.ppn..][..self.ppn];
        let Log { accesses, heads } = &mut self.logs[node.index()];
        let head = heads.entry(id).or_insert(NIL);
        let (mut link, mut prev) = (*head, NIL);
        while link != NIL {
            let a = &accesses[link as usize];
            if a.local != local
                && (write || a.write)
                && overlap(a.range, range)
                && a.epoch > clock[a.local as usize]
            {
                return Some(self.map.rank_at(node, LocalRank(a.local)).0);
            }
            // Every logged access inside a write's bytes happens before
            // it, so a later access ordered after the write is ordered
            // after them: unlink them.
            let (next, inside) = (
                a.next,
                range.start <= a.range.start && a.range.end <= range.end,
            );
            match (write && inside, prev) {
                (true, NIL) => *head = next,
                (true, p) => accesses[p as usize].next = next,
                (false, _) => prev = link,
            }
            link = next;
        }
        accesses.push(Access {
            range,
            local,
            epoch: clock[local as usize],
            write,
            next: *head,
        });
        *head = accesses.len() as u32 - 1;
        None
    }
}
