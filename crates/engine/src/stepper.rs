//! The instruction stepper: what a rank program does next, for both
//! interpreters of a [`WorldProgram`] (the timed engine and `exec`).
//!
//! It owns each rank's program counter, request flags and [`Status`], and
//! the two ways ranks meet. Messages match receives FIFO per (destination,
//! source, tag). Each barrier id and SHArP group has at most one open
//! occurrence: the last registered member to arrive closes it, and the
//! next arrival opens a new one. The [`Host`] owns the rest (time or
//! values) and is a generic parameter, so no call is dynamic. An effect
//! the host answers `Busy`, and a rendezvous, park the rank until the host
//! resumes it; `WaitAll` blocks until [`Stepper::complete`] or a matching
//! [`Stepper::arrive`] wakes it.

use crate::program::{BufKey, ByteRange, Instr, ReqId, Tag, WorldProgram};
use crate::trace::Phase;
use dpml_topology::Rank;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A hash map keyed by the program's own integers (ranks, tags, buffer
/// ids). They come from compiled programs, not from outside, so a
/// multiply-rotate hash stands in for SipHash, whose flood resistance
/// they do not need and whose cost both hosts pay per message.
pub(crate) type IntMap<K, V> = HashMap<K, V, BuildHasherDefault<IntHasher>>;

#[derive(Default)]
pub(crate) struct IntHasher(u64);

impl Hasher for IntHasher {
    fn finish(&self) -> u64 {
        // The table indexes by the low bits, which the multiply mixes
        // least.
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(b.into());
        }
    }

    fn write_u32(&mut self, i: u32) {
        self.write_u64(i.into());
    }

    fn write_u64(&mut self, i: u64) {
        self.0 = (self.0.rotate_left(5) ^ i).wrapping_mul(0xf135_7aea_2e62_a9c5);
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

/// Where a rank stands; the names appear in the engine's error text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum Status {
    #[default]
    Ready,
    Busy,
    OnWait,
    OnBarrier,
    OnSharp,
    Done,
    /// Fail-stop crashed: never runs again, never finishes.
    Dead,
}

/// A host's answer to a local op or compute.
pub(crate) enum Step {
    /// Done; step the next instruction.
    Next,
    /// Park the rank until the host resumes it.
    Busy,
}

/// A host's answer to a send.
pub(crate) enum Sent<M> {
    /// Park the rank until the host resumes it; the send request is
    /// complete from the start when `done`, else the host completes it.
    Busy { done: bool },
    /// The message arrived at once and the send is complete.
    Arrived(M),
}

/// A send `(to, tag, src, range)`: `src[range]` to `to` under `tag`.
pub(crate) type Outgoing = (Rank, Tag, BufKey, ByteRange);

/// A local op on `dst[range]`: `Copy(src, cross_socket)` overwrites it
/// with `src[range]`; `Reduce(srcs)` adds each `src[range]` to it.
pub(crate) enum Local<'w> {
    Copy(BufKey, bool),
    Reduce(&'w [BufKey]),
}

/// A rendezvous a rank arrives at.
pub(crate) enum Meet {
    /// Barrier `id`.
    Barrier(u32),
    /// SHArP `(group, src, dst, range)`: each member's `src[range]` is
    /// summed into every member's `dst[range]`.
    Sharp(u32, BufKey, BufKey, ByteRange),
}

/// A rank's arrival at the open occurrence of its rendezvous.
pub(crate) struct Arrival<'w> {
    /// The registered members.
    pub members: &'w [Rank],
    /// Occurrences of this kind (barrier or SHArP) opened before this one.
    pub occurrence: usize,
    /// This arrival closes the occurrence.
    pub last: bool,
}

/// A barrier or SHArP group the world never registered: (kind, id).
pub(crate) struct UnknownGroup(pub &'static str, pub u32);

/// The effects the stepper asks of its host, one call each; `phase` is
/// the instruction's.
pub(crate) trait Host<'w> {
    /// How the host names a message in flight.
    type Msg: Copy;
    /// Why the host stops a run.
    type Error;

    /// `r` posts `msg` as request `req`.
    fn send(&mut self, r: u32, phase: Phase, req: u32, msg: Outgoing) -> Sent<Self::Msg>;
    /// `r` posts a receive into `dst` as request `req`. A host that keeps
    /// no values ignores this and the next two calls.
    fn posted(&mut self, _r: u32, _req: u32, _dst: BufKey) {}
    /// Message `m` lands in `r`'s buffer `dst` through request `req`.
    fn recv(&mut self, _r: u32, _req: u32, _m: Self::Msg, _dst: BufKey) {}
    /// `r` passes a `WaitAll` on `reqs`: every one is complete.
    fn waited(&mut self, _r: u32, _reqs: &[ReqId]) {}
    /// `op` on `r`'s `dst[range]`.
    fn local(&mut self, r: u32, phase: Phase, op: Local<'w>, dst: BufKey, range: ByteRange)
        -> Step;
    /// `seconds` of local work on `r`.
    fn compute(&mut self, r: u32, phase: Phase, seconds: f64) -> Step;
    /// `r` arrives at `meet` and is parked.
    fn join(
        &mut self,
        r: u32,
        phase: Phase,
        meet: Meet,
        arrival: Result<Arrival<'w>, UnknownGroup>,
    ) -> Result<(), Self::Error>;
    /// `r` blocks in `WaitAll`.
    fn wait(&mut self, r: u32, phase: Phase);
    /// Delivering `m` unblocked `r` from its `WaitAll`: resume it.
    fn wake(&mut self, r: u32, m: Self::Msg);
    /// `r` ran its last instruction.
    fn done(&mut self, r: u32);
}

/// Matching key: (destination, source, tag).
type MsgKey = (u32, u32, Tag);

/// One FIFO queue per key, with no allocation per queue: `ends` holds
/// each non-empty queue's head and tail sequence numbers, `items` its
/// entries by (key, sequence number). A key leaves `ends` when its queue
/// empties.
struct Queues<T> {
    ends: IntMap<MsgKey, (u32, u32)>,
    items: IntMap<(MsgKey, u32), T>,
}

impl<T> Queues<T> {
    fn new() -> Self {
        Queues {
            ends: IntMap::default(),
            items: IntMap::default(),
        }
    }

    fn push(&mut self, key: MsgKey, item: T) {
        let (_, tail) = self.ends.entry(key).or_insert((0, 0));
        self.items.insert((key, *tail), item);
        *tail += 1;
    }

    /// The oldest entry under `key`.
    fn pop(&mut self, key: MsgKey) -> Option<T> {
        let Entry::Occupied(mut ends) = self.ends.entry(key) else {
            return None;
        };
        let (head, tail) = ends.get_mut();
        let item = self.items.remove(&(key, *head));
        *head += 1;
        if head == tail {
            ends.remove();
        }
        item
    }

    /// Drop every queue for destination `r`.
    fn drop_dst(&mut self, r: u32) {
        self.ends.retain(|key, _| key.0 != r);
        self.items.retain(|(key, _), _| key.0 != r);
    }
}

#[derive(Default)]
struct RankState {
    pc: usize,
    status: Status,
    /// Completion flag per request, in issue order.
    reqs: Vec<bool>,
}

/// Every rank's place in its program, matching and rendezvous.
pub(crate) struct Stepper<'w, M> {
    world: &'w WorldProgram,
    ranks: Vec<RankState>,
    /// Posted, unmatched receives: (request, buffer).
    recvs: Queues<(u32, BufKey)>,
    /// Arrived, unmatched messages.
    msgs: Queues<M>,
    /// Open occurrences by (is SHArP, id): (members joined, occurrence).
    open: IntMap<(bool, u32), (usize, usize)>,
    /// Occurrences opened so far: barriers, SHArP.
    opened: [usize; 2],
}

impl<'w, M: Copy> Stepper<'w, M> {
    pub(crate) fn new(world: &'w WorldProgram) -> Self {
        let ranks = world.programs.iter().map(|_| RankState::default());
        Stepper {
            world,
            ranks: ranks.collect(),
            recvs: Queues::new(),
            msgs: Queues::new(),
            open: IntMap::default(),
            opened: [0; 2],
        }
    }

    pub(crate) fn status(&self, r: u32) -> Status {
        self.ranks[r as usize].status
    }

    pub(crate) fn pc(&self, r: u32) -> usize {
        self.ranks[r as usize].pc
    }

    /// Neither done nor dead.
    pub(crate) fn live(&self, r: u32) -> bool {
        !matches!(self.status(r), Status::Done | Status::Dead)
    }

    /// Run rank `r` until it parks, blocks or ends.
    pub(crate) fn resume<H: Host<'w, Msg = M>>(
        &mut self,
        r: u32,
        host: &mut H,
    ) -> Result<(), H::Error> {
        let prog = &self.world.programs[r as usize];
        self.ranks[r as usize].status = Status::Ready;
        loop {
            let st = &mut self.ranks[r as usize];
            let pc = st.pc;
            let Some(instr) = prog.instrs.get(pc) else {
                st.status = Status::Done;
                host.done(r);
                return Ok(());
            };
            let phase = prog.phase_at(pc);
            // Every instruction but a blocking `WaitAll` retires here.
            st.pc += 1;
            let req = st.reqs.len() as u32;
            let step = match instr {
                &Instr::ISend {
                    to,
                    tag,
                    src,
                    range,
                } => match host.send(r, phase, req, (to, tag, src, range)) {
                    Sent::Busy { done } => {
                        self.ranks[r as usize].reqs.push(done);
                        Step::Busy
                    }
                    Sent::Arrived(m) => {
                        self.ranks[r as usize].reqs.push(true);
                        self.arrive(to.0, r, tag, m, host);
                        Step::Next
                    }
                },
                &Instr::IRecv { from, tag, dst } => {
                    host.posted(r, req, dst);
                    let matched = pair(
                        &mut self.msgs,
                        &mut self.recvs,
                        (r, from.0, tag),
                        (req, dst),
                    );
                    if let Some(m) = matched {
                        host.recv(r, req, m, dst);
                    }
                    self.ranks[r as usize].reqs.push(matched.is_some());
                    Step::Next
                }
                Instr::WaitAll { reqs } if !all_done(&st.reqs, reqs) => {
                    st.pc = pc;
                    st.status = Status::OnWait;
                    host.wait(r, phase);
                    return Ok(());
                }
                Instr::WaitAll { reqs } => {
                    host.waited(r, reqs);
                    Step::Next
                }
                &Instr::Copy {
                    src,
                    dst,
                    range,
                    cross_socket,
                } => host.local(r, phase, Local::Copy(src, cross_socket), dst, range),
                Instr::Reduce { srcs, dst, range } => {
                    host.local(r, phase, Local::Reduce(srcs), *dst, *range)
                }
                &Instr::Compute { seconds } => host.compute(r, phase, seconds),
                &Instr::Barrier { id } => return self.join(r, phase, Meet::Barrier(id), host),
                &Instr::Sharp {
                    group,
                    src,
                    dst,
                    range,
                } => return self.join(r, phase, Meet::Sharp(group, src, dst, range), host),
            };
            if let Step::Busy = step {
                self.ranks[r as usize].status = Status::Busy;
                return Ok(());
            }
        }
    }

    /// Message `m` from `src` under `tag` reaches `dst`: it fills the
    /// oldest posted receive, or waits for one.
    pub(crate) fn arrive<H: Host<'w, Msg = M>>(
        &mut self,
        dst: u32,
        src: u32,
        tag: Tag,
        m: M,
        host: &mut H,
    ) {
        if let Some((req, buf)) = pair(&mut self.recvs, &mut self.msgs, (dst, src, tag), m) {
            host.recv(dst, req, m, buf);
            self.complete(dst, req, m, host);
        }
    }

    /// Complete request `req` of rank `r` through message `m` (again: no
    /// change), and wake `r` if that unblocks its `WaitAll`.
    pub(crate) fn complete<H: Host<'w, Msg = M>>(&mut self, r: u32, req: u32, m: M, host: &mut H) {
        let st = &mut self.ranks[r as usize];
        if std::mem::replace(&mut st.reqs[req as usize], true) || st.status != Status::OnWait {
            return;
        }
        // A blocked rank's pc still points at its `WaitAll`.
        let Some(Instr::WaitAll { reqs }) = self.world.programs[r as usize].instrs.get(st.pc)
        else {
            unreachable!("ranks block only in WaitAll");
        };
        if all_done(&st.reqs, reqs) {
            st.status = Status::Ready;
            host.wake(r, m);
        }
    }

    /// Rank `r` crashed: it never runs again, and nothing matches to it.
    pub(crate) fn kill(&mut self, r: u32) {
        self.recvs.drop_dst(r);
        self.msgs.drop_dst(r);
        self.ranks[r as usize].status = Status::Dead;
    }

    /// Rank `r` arrives at `meet`'s open occurrence, opening one if none is.
    fn join<H: Host<'w, Msg = M>>(
        &mut self,
        r: u32,
        phase: Phase,
        meet: Meet,
        host: &mut H,
    ) -> Result<(), H::Error> {
        let world = self.world;
        let (sharp, id, groups, kind, status) = match meet {
            Meet::Barrier(id) => (false, id, &world.barriers, "barrier", Status::OnBarrier),
            Meet::Sharp(group, ..) => (
                true,
                group,
                &world.sharp_groups,
                "sharp group",
                Status::OnSharp,
            ),
        };
        self.ranks[r as usize].status = status;
        let arrival = groups
            .get(&id)
            .ok_or(UnknownGroup(kind, id))
            .map(|members| {
                let opened = &mut self.opened[sharp as usize];
                let open = self.open.entry((sharp, id)).or_insert((0, *opened));
                open.0 += 1;
                let (joined, occurrence) = *open;
                if joined == 1 {
                    *opened += 1;
                }
                let last = joined == members.len();
                if last {
                    self.open.remove(&(sharp, id));
                }
                Arrival {
                    members,
                    occurrence,
                    last,
                }
            });
        host.join(r, phase, meet, arrival)
    }
}

/// Take the oldest of `theirs` under `key`, or else queue `mine` in `ours`.
fn pair<A, B>(theirs: &mut Queues<A>, ours: &mut Queues<B>, key: MsgKey, mine: B) -> Option<A> {
    let oldest = theirs.pop(key);
    if oldest.is_none() {
        ours.push(key, mine);
    }
    oldest
}

/// Every request in `wait` is complete.
fn all_done(done: &[bool], wait: &[ReqId]) -> bool {
    wait.iter().all(|q| done.get(q.0 as usize) == Some(&true))
}
