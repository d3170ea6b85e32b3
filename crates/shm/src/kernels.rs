//! Reduction kernels: the compute of DPML phase 2.
//!
//! The kernels are plain indexed loops over slices, written so LLVM
//! auto-vectorizes them (no bounds checks in the hot loop thanks to the
//! explicit `zip`). `reduce_into` is the `MPI_SUM`-style fold the paper
//! times; `fold_slots` is the `ppn - 1`-pass variant a leader runs over the
//! gathered shared-memory slots.

/// Element types reducible by these kernels.
pub trait Reducible: Copy + PartialEq + std::fmt::Debug + Send + Sync + 'static {
    /// Additive identity.
    const ZERO: Self;
    /// Element-wise combine (sum).
    fn combine(self, other: Self) -> Self;
}

impl Reducible for f64 {
    const ZERO: Self = 0.0;
    #[inline(always)]
    fn combine(self, other: Self) -> Self {
        self + other
    }
}

impl Reducible for f32 {
    const ZERO: Self = 0.0;
    #[inline(always)]
    fn combine(self, other: Self) -> Self {
        self + other
    }
}

impl Reducible for i32 {
    const ZERO: Self = 0;
    #[inline(always)]
    fn combine(self, other: Self) -> Self {
        self.wrapping_add(other)
    }
}

impl Reducible for i64 {
    const ZERO: Self = 0;
    #[inline(always)]
    fn combine(self, other: Self) -> Self {
        self.wrapping_add(other)
    }
}

/// `acc[i] = acc[i] ⊕ src[i]` — one reduction pass.
///
/// # Panics
/// When the slices differ in length.
#[inline]
pub fn reduce_into<T: Reducible>(acc: &mut [T], src: &[T]) {
    assert_eq!(acc.len(), src.len(), "operand length mismatch");
    for (a, s) in acc.iter_mut().zip(src.iter()) {
        *a = a.combine(*s);
    }
}

/// Fold `slots[1..]` into a copy of `slots[0]`, writing the result to
/// `out` — the leader-side reduction over gathered slots
/// (`slots.len() - 1` combine passes, exactly the paper's `ppn - 1`).
///
/// # Panics
/// When `slots` is empty or any length differs from `out`.
pub fn fold_slots<T: Reducible>(out: &mut [T], slots: &[&[T]]) {
    assert!(!slots.is_empty(), "need at least one slot");
    assert_eq!(out.len(), slots[0].len(), "output length mismatch");
    out.copy_from_slice(slots[0]);
    for s in &slots[1..] {
        reduce_into(out, s);
    }
}

/// Serial reference allreduce: element-wise sum of all inputs.
pub fn serial_reference<T: Reducible>(inputs: &[Vec<T>]) -> Vec<T> {
    assert!(!inputs.is_empty());
    let n = inputs[0].len();
    let mut out = vec![T::ZERO; n];
    for inp in inputs {
        assert_eq!(inp.len(), n);
        reduce_into(&mut out, inp);
    }
    out
}

/// Exact equality check for integer results; tolerance-based for floats
/// (summation order may differ between algorithms).
pub fn assert_close(a: &[f64], b: &[f64], rel_tol: f64) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        let scale = x.abs().max(y.abs()).max(1.0);
        assert!(
            (x - y).abs() <= rel_tol * scale,
            "mismatch at {i}: {x} vs {y} (tol {rel_tol})"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduce_into_sums() {
        let mut acc = vec![1.0f64, 2.0, 3.0];
        reduce_into(&mut acc, &[10.0, 20.0, 30.0]);
        assert_eq!(acc, vec![11.0, 22.0, 33.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn reduce_into_checks_lengths() {
        let mut acc = vec![0.0f64; 3];
        reduce_into(&mut acc, &[0.0; 4]);
    }

    #[test]
    fn fold_slots_counts_passes_correctly() {
        let s0 = vec![1i64; 8];
        let s1 = vec![2i64; 8];
        let s2 = vec![3i64; 8];
        let mut out = vec![0i64; 8];
        fold_slots(&mut out, &[&s0, &s1, &s2]);
        assert_eq!(out, vec![6i64; 8]);
    }

    #[test]
    fn integer_wrapping_is_deterministic() {
        let mut acc = vec![i32::MAX];
        reduce_into(&mut acc, &[1]);
        assert_eq!(acc, vec![i32::MIN]);
    }

    #[test]
    fn serial_reference_matches_hand_sum() {
        let inputs = vec![vec![1.0f64, 0.5], vec![2.0, 0.25], vec![4.0, 0.125]];
        assert_eq!(serial_reference(&inputs), vec![7.0, 0.875]);
    }

    #[test]
    fn assert_close_accepts_reordered_float_sums() {
        let a = [0.1 + 0.2, 1e18];
        let b = [0.2 + 0.1, 1e18 * (1.0 + 1e-14)];
        assert_close(&a, &b, 1e-12);
    }

    #[test]
    #[should_panic(expected = "mismatch at 0")]
    fn assert_close_rejects_real_differences() {
        assert_close(&[1.0], &[1.1], 1e-9);
    }

    #[test]
    fn f32_kernel() {
        let mut acc = vec![1.5f32; 100];
        reduce_into(&mut acc, &vec![2.5f32; 100]);
        assert!(acc.iter().all(|&v| v == 4.0));
    }
}
