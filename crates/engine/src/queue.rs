//! The simulator's event queue: an indexed binary min-heap with stable
//! `(time, seq)` tie-breaking.
//!
//! Two properties matter here (DESIGN.md §11):
//!
//! * **Ordering is bit-for-bit the old ordering.** Events pop by
//!   `(time, insertion sequence)` — ties at one timestamp drain in push
//!   order, exactly as the previous `BinaryHeap<Reverse<(SimTime, u64,
//!   Ev)>>` did (the sequence number is unique, so the payload was never
//!   consulted there either). Traces, `RunStats`, and critical-path
//!   attribution are therefore unchanged, and the golden-equivalence
//!   suite holds the swap to that.
//! * **The hot loop compares one integer.** [`SimTime`] is non-NaN and
//!   non-negative, so the IEEE-754 bit pattern of its seconds orders
//!   exactly like the number itself; packing `(time_bits << 64) | seq`
//!   into a `u128` makes every sift step a single integer compare. The
//!   heap stores only that key plus a slot index — payloads sit in a
//!   slab and never move during sifts, which is what "indexed" buys when
//!   events are fat enum variants.

use crate::time::SimTime;

/// Min-heap of `(SimTime, seq)`-keyed events; pop order is creation order
/// within a timestamp.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Binary heap of `(packed key, slot)`, 24 bytes per entry.
    heap: Vec<(u128, u32)>,
    /// Payload slab, indexed by the heap entries' slots.
    slots: Vec<Option<E>>,
    free: Vec<u32>,
    seq: u64,
}

#[inline]
fn pack(t: SimTime, seq: u64) -> u128 {
    // Non-negative, non-NaN f64s order identically to their bit patterns.
    ((t.seconds().to_bits() as u128) << 64) | seq as u128
}

#[inline]
fn unpack_time(key: u128) -> SimTime {
    SimTime::new(f64::from_bits((key >> 64) as u64))
}

impl<E> EventQueue<E> {
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            seq: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedule `ev` at `t`. Events pushed at equal times pop in push order.
    pub fn push(&mut self, t: SimTime, ev: E) {
        let key = pack(t, self.seq);
        self.seq += 1;
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(ev);
                s
            }
            None => {
                self.slots.push(Some(ev));
                self.slots.len() as u32 - 1
            }
        };
        self.heap.push((key, slot));
        self.sift_up(self.heap.len() - 1);
    }

    /// Timestamp of the next event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|&(key, _)| unpack_time(key))
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let &(key, slot) = self.heap.first()?;
        let last = self.heap.pop().expect("non-empty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.sift_down(0);
        }
        let ev = self.slots[slot as usize].take().expect("live slot");
        self.free.push(slot);
        Some((unpack_time(key), ev))
    }

    #[inline]
    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent].0 <= self.heap[i].0 {
                break;
            }
            self.heap.swap(parent, i);
            i = parent;
        }
    }

    #[inline]
    fn sift_down(&mut self, mut i: usize) {
        let n = self.heap.len();
        loop {
            let l = 2 * i + 1;
            if l >= n {
                break;
            }
            let r = l + 1;
            let child = if r < n && self.heap[r].0 < self.heap[l].0 {
                r
            } else {
                l
            };
            if self.heap[i].0 <= self.heap[child].0 {
                break;
            }
            self.heap.swap(i, child);
            i = child;
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q: EventQueue<&str> = EventQueue::new();
        q.push(SimTime::new(3.0), "c");
        q.push(SimTime::new(1.0), "a");
        q.push(SimTime::new(2.0), "b");
        assert_eq!(q.peek_time(), Some(SimTime::new(1.0)));
        assert_eq!(q.pop(), Some((SimTime::new(1.0), "a")));
        assert_eq!(q.pop(), Some((SimTime::new(2.0), "b")));
        assert_eq!(q.pop(), Some((SimTime::new(3.0), "c")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn ties_pop_in_insertion_order() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let t = SimTime::new(1.5e-6);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t, i)));
        }
    }

    #[test]
    fn interleaved_push_pop_keeps_stable_order() {
        let mut q: EventQueue<u32> = EventQueue::new();
        let t0 = SimTime::new(1.0);
        let t1 = SimTime::new(2.0);
        q.push(t1, 10);
        q.push(t0, 0);
        q.push(t0, 1);
        assert_eq!(q.pop(), Some((t0, 0)));
        q.push(t0, 2); // same time, later seq: after the earlier t0 push
        assert_eq!(q.pop(), Some((t0, 1)));
        assert_eq!(q.pop(), Some((t0, 2)));
        q.push(t1, 11);
        assert_eq!(q.pop(), Some((t1, 10)));
        assert_eq!(q.pop(), Some((t1, 11)));
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn matches_std_binary_heap_order() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        // Deterministic pseudo-random schedule, including many exact ties.
        let mut x: u64 = 0x9E3779B97F4A7C15;
        let mut times = Vec::new();
        for _ in 0..500 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            times.push(SimTime::new((x >> 40) as f64 * 1e-9));
        }
        let mut q: EventQueue<usize> = EventQueue::new();
        let mut std_heap: BinaryHeap<Reverse<(SimTime, u64, usize)>> = BinaryHeap::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(t, i);
            std_heap.push(Reverse((t, i as u64, i)));
        }
        while let Some(Reverse((t, _, i))) = std_heap.pop() {
            assert_eq!(q.pop(), Some((t, i)));
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn slab_slots_are_reused() {
        let mut q: EventQueue<u64> = EventQueue::new();
        for round in 0..10u64 {
            for i in 0..16 {
                q.push(SimTime::new(round as f64 + i as f64 * 0.01), round * 16 + i);
            }
            for i in 0..16 {
                assert_eq!(q.pop().unwrap().1, round * 16 + i);
            }
        }
        // All payload slots were recycled rather than grown per push.
        assert!(q.slots.len() <= 16);
    }
}
