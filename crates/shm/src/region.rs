//! Shared-memory slot regions.
//!
//! [`SharedSlots`] models the per-leader shared regions of DPML phase 1:
//! a matrix of fixed-size slots, each written by exactly one rank during a
//! phase and read by (possibly many) others *after a barrier*. Interior
//! mutability is via `UnsafeCell`; the unsafe accessors carry the access
//! discipline in their contracts, and the safe wrapper in `intranode`
//! upholds it with barriers (the same happens-before structure a real MPI
//! shared-memory window relies on).

use std::cell::UnsafeCell;

/// A bank of equally sized `f64` slots in (conceptually) shared memory.
pub struct SharedSlots {
    data: Vec<UnsafeCell<Box<[f64]>>>,
}

// SAFETY: concurrent access is governed by the documented discipline —
// a slot has at most one writer at a time, and readers are separated from
// writers by a barrier (callers' obligation on the unsafe accessors).
unsafe impl Sync for SharedSlots {}

impl SharedSlots {
    /// Allocate `slots` zeroed slots of `slot_len` f64s each.
    pub fn new(slots: usize, slot_len: usize) -> Self {
        SharedSlots {
            data: (0..slots)
                .map(|_| UnsafeCell::new(vec![0.0; slot_len].into_boxed_slice()))
                .collect(),
        }
    }

    /// Mutable access to one slot.
    ///
    /// # Safety
    /// Within a synchronization epoch (between two barriers), at most one
    /// thread may hold the mutable slice of slot `i`, and no thread may
    /// concurrently read it.
    #[allow(clippy::mut_from_ref)]
    pub unsafe fn slot_mut(&self, i: usize) -> &mut [f64] {
        // SAFETY: forwarded to the caller per the function contract.
        unsafe { &mut *self.data[i].get() }
    }

    /// Shared access to one slot.
    ///
    /// # Safety
    /// No thread may mutate slot `i` during the epoch in which this
    /// reference is used (writers of the previous epoch must be separated
    /// by a barrier).
    pub unsafe fn slot(&self, i: usize) -> &[f64] {
        // SAFETY: forwarded to the caller per the function contract.
        unsafe { &*self.data[i].get() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::barrier::{BarrierToken, SpinBarrier};
    use std::sync::Arc;

    #[test]
    fn shape() {
        let s = SharedSlots::new(6, 128);
        // SAFETY: single-threaded test, no concurrent access.
        unsafe {
            assert_eq!(s.slot(5).len(), 128);
            assert!(s.slot(3).iter().all(|&v| v == 0.0));
        }
    }

    #[test]
    fn single_writer_then_many_readers() {
        let slots = Arc::new(SharedSlots::new(4, 1024));
        let barrier = Arc::new(SpinBarrier::new(4));
        let handles: Vec<_> = (0..4usize)
            .map(|t| {
                let slots = Arc::clone(&slots);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut tok = BarrierToken::new();
                    // Epoch 1: thread t writes slot t.
                    // SAFETY: each thread writes only its own slot.
                    unsafe {
                        for v in slots.slot_mut(t).iter_mut() {
                            *v = t as f64 + 1.0;
                        }
                    }
                    tok.wait(&barrier);
                    // Epoch 2: everyone reads every slot.
                    // SAFETY: writers are barrier-separated.
                    let total: f64 = unsafe { (0..4).map(|i| slots.slot(i)[17]).sum() };
                    assert_eq!(total, 1.0 + 2.0 + 3.0 + 4.0);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }
}
