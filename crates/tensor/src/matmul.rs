//! Matrix multiplication entry points.
//!
//! The whole stack funnels its heavy math through this module:
//! convolution lowers to [`matmul`] via im2col, the crossbar simulator's
//! "effective weight" fast path is a plain matrix product, and the
//! trainer's backward passes are `NT`/`TN` products. Since PR 2 the
//! arithmetic itself lives in [`crate::microkernel`] — a register-tiled,
//! panel-packed kernel family that the compiler autovectorizes — and this
//! module provides the shape-checked [`Tensor`] API plus slice entry
//! points over it (the layers call the `NT`/`TN` kernels directly).
//!
//! Above [`PAR_MIN_MACS`] multiply–accumulates, [`matmul_into`] engages
//! worker threads (`RDO_THREADS` controls the count; see
//! [`crate::parallel`]). The microkernel partitions output rows into
//! whole register tiles, so the product is **bitwise identical at every
//! thread count**.

use crate::error::{Result, TensorError};
use crate::microkernel::gemm_nn;
use crate::parallel::available_threads;
use crate::tensor::Tensor;

/// Multiply–accumulate count (`m·k·n`) above which the auto-threaded
/// entry points use worker threads. Below it, thread spawn/join overhead
/// dominates.
pub const PAR_MIN_MACS: usize = 1 << 21;

/// The worker-thread count the auto-threaded entry points use for an
/// `m·k·n` product: `RDO_THREADS` (via [`available_threads`]) once the
/// product exceeds [`PAR_MIN_MACS`] multiply–accumulates, serial below.
pub fn auto_threads(m: usize, k: usize, n: usize) -> usize {
    if m.saturating_mul(k).saturating_mul(n) >= PAR_MIN_MACS {
        available_threads()
    } else {
        1
    }
}

/// Multiplies two rank-2 tensors: `C = A (m×k) · B (k×n)`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if either operand is not a matrix
/// and [`TensorError::ShapeMismatch`] if the inner dimensions differ.
///
/// # Examples
///
/// ```
/// use rdo_tensor::{matmul, Tensor};
///
/// let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// let i = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2])?;
/// assert_eq!(matmul(&a, &i)?, a);
/// # Ok::<(), rdo_tensor::TensorError>(())
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    check_rank2("matmul", a)?;
    check_rank2("matmul", b)?;
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    if k != k2 {
        return Err(TensorError::ShapeMismatch {
            op: "matmul",
            lhs: a.dims().to_vec(),
            rhs: b.dims().to_vec(),
        });
    }
    let mut out = vec![0.0f32; m * n];
    matmul_into(a.data(), b.data(), &mut out, m, k, n);
    Tensor::from_vec(out, &[m, n])
}

/// Raw microkernel matmul on slices: `c += a (m×k) · b (k×n)`.
///
/// `c` must be zero-initialized by the caller if a pure product is wanted.
/// Exposed so callers that manage their own buffers (the trainer's backward
/// pass) avoid reallocation.
///
/// Products above [`PAR_MIN_MACS`] multiply–accumulates are partitioned
/// over worker threads (thread count from [`available_threads`], i.e. the
/// `RDO_THREADS` knob); results are bitwise identical to the serial kernel
/// either way. Use [`matmul_into_threads`] to force a specific thread
/// count.
///
/// # Panics
///
/// Panics if the slice lengths do not match `m*k`, `k*n` and `m*n`.
pub fn matmul_into(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    matmul_into_threads(a, b, c, m, k, n, auto_threads(m, k, n));
}

/// Microkernel matmul on up to `threads` pool workers (`0` and
/// `1` both mean serial): `c += a (m×k) · b (k×n)`.
///
/// The output rows are partitioned into whole register tiles anchored at
/// row 0, so every tile is computed in exactly the same operation order
/// whichever worker runs it — the result is **bitwise identical for any
/// thread count** (see [`crate::microkernel`]).
///
/// # Panics
///
/// Panics if the slice lengths do not match `m*k`, `k*n` and `m*n`.
pub fn matmul_into_threads(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    threads: usize,
) {
    gemm_nn(a, b, c, m, k, n, threads.max(1));
}

/// Vector–matrix product `y = x (m) · A (m×n)` — the orientation RRAM
/// crossbars compute natively (inputs on wordlines, weights in the
/// array) — through the microkernel's `m == 1` path.
///
/// # Errors
///
/// Returns a shape error if `A` is not a matrix or the lengths disagree.
pub fn vecmat(x: &Tensor, a: &Tensor) -> Result<Tensor> {
    check_rank2("vecmat", a)?;
    let (m, n) = (a.dims()[0], a.dims()[1]);
    if x.len() != m {
        return Err(TensorError::ShapeMismatch {
            op: "vecmat",
            lhs: x.dims().to_vec(),
            rhs: a.dims().to_vec(),
        });
    }
    let mut out = vec![0.0f32; n];
    matmul_into(x.data(), a.data(), &mut out, 1, m, n);
    Tensor::from_vec(out, &[n])
}

fn check_rank2(op: &'static str, t: &Tensor) -> Result<()> {
    if t.shape().rank() != 2 {
        return Err(TensorError::RankMismatch { op, expected: 2, actual: t.shape().rank() });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        Tensor::from_fn(&[m, n], |idx| {
            let (i, j) = (idx / n, idx % n);
            (0..k).map(|kk| a.data()[i * k + kk] * b.data()[kk * n + j]).sum()
        })
    }

    /// Cache block size (elements) of the legacy scalar kernel.
    const BLOCK: usize = 64;

    /// The pre-microkernel cache-blocked scalar kernel, kept as a test
    /// oracle: `c += a · b` in ikj order, always serial. Its operation
    /// order differs from the microkernel's, so the two agree within f32
    /// tolerance, not bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths do not match `m*k`, `k*n` and `m*n`.
    fn matmul_into_scalar(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
        assert_eq!(a.len(), m * k, "lhs length");
        assert_eq!(b.len(), k * n, "rhs length");
        assert_eq!(c.len(), m * n, "out length");
        for i0 in (0..m).step_by(BLOCK) {
            let i1 = (i0 + BLOCK).min(m);
            for k0 in (0..k).step_by(BLOCK) {
                let k1 = (k0 + BLOCK).min(k);
                for i in i0..i1 {
                    let crow = &mut c[i * n..(i + 1) * n];
                    for kk in k0..k1 {
                        let aik = a[i * k + kk];
                        if aik == 0.0 {
                            continue;
                        }
                        let brow = &b[kk * n..(kk + 1) * n];
                        for (cv, &bv) in crow.iter_mut().zip(brow) {
                            *cv += aik * bv;
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn small_known_product() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn blocked_matches_naive_beyond_block_size() {
        let (m, k, n) = (70, 65, 67); // > BLOCK to cross tile boundaries
        let a = Tensor::from_fn(&[m, k], |i| ((i * 7919) % 13) as f32 - 6.0);
        let b = Tensor::from_fn(&[k, n], |i| ((i * 104729) % 11) as f32 - 5.0);
        let fast = matmul(&a, &b).unwrap();
        let slow = naive(&a, &b);
        for (x, y) in fast.data().iter().zip(slow.data()) {
            assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    #[test]
    fn microkernel_matches_legacy_scalar_kernel() {
        let (m, k, n) = (33, 129, 21);
        let a: Vec<f32> = (0..m * k).map(|i| ((i * 7919) % 13) as f32 * 0.37 - 2.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i * 104729) % 11) as f32 * 0.21 - 1.0).collect();
        let mut new = vec![0.0f32; m * n];
        matmul_into_threads(&a, &b, &mut new, m, k, n, 1);
        let mut old = vec![0.0f32; m * n];
        matmul_into_scalar(&a, &b, &mut old, m, k, n);
        for (x, y) in new.iter().zip(&old) {
            assert!((x - y).abs() < 1e-3 * y.abs().max(1.0), "{x} vs {y}");
        }
    }

    #[test]
    fn inner_dim_mismatch_rejected() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        assert!(matmul(&a, &b).is_err());
    }

    #[test]
    fn vecmat_agrees_with_matmul() {
        let a = Tensor::from_fn(&[4, 5], |i| i as f32 * 0.5 - 3.0);
        let v = Tensor::from_fn(&[4], |i| 1.0 + i as f32);
        let z = vecmat(&v, &a).unwrap();
        let vm = v.reshape(&[1, 4]).unwrap();
        let z2 = matmul(&vm, &a).unwrap();
        assert_eq!(z.data(), z2.data(), "vecmat must share the kernel's m==1 path");
    }

    #[test]
    fn single_row_and_column_degenerate_shapes() {
        // single row / single column / single element matrices, through
        // the kernel's n==1 (matrix·column) and m==1 (vecmat) paths
        let a1 = Tensor::from_vec(vec![2.0, 3.0], &[1, 2]).unwrap();
        let y = matmul(&a1, &Tensor::from_vec(vec![4.0, 5.0], &[2, 1]).unwrap()).unwrap();
        assert_eq!(y.data(), &[23.0]);
        let a2 = Tensor::from_vec(vec![2.0, 3.0], &[2, 1]).unwrap();
        let y = matmul(&a2, &Tensor::from_vec(vec![4.0], &[1, 1]).unwrap()).unwrap();
        assert_eq!(y.data(), &[8.0, 12.0]);
        let z = vecmat(&Tensor::from_vec(vec![4.0], &[1]).unwrap(), &a1).unwrap();
        assert_eq!(z.data(), &[8.0, 12.0]);
        let z = vecmat(&Tensor::from_vec(vec![4.0, 5.0], &[2]).unwrap(), &a2).unwrap();
        assert_eq!(z.data(), &[23.0]);
        let one = Tensor::from_vec(vec![3.0], &[1, 1]).unwrap();
        assert_eq!(
            matmul(&one, &Tensor::from_vec(vec![2.0], &[1, 1]).unwrap()).unwrap().data(),
            &[6.0]
        );
        // shape mismatches still rejected
        assert!(matmul(&a1, &Tensor::zeros(&[3, 1])).is_err());
        assert!(vecmat(&Tensor::zeros(&[3]), &a1).is_err());
    }

    #[test]
    fn threaded_matches_serial_bitwise() {
        let (m, k, n) = (37, 29, 31); // awkward sizes, uneven chunks
        let a: Vec<f32> = (0..m * k).map(|i| ((i * 7919) % 13) as f32 * 0.37 - 2.0).collect();
        let b: Vec<f32> = (0..k * n).map(|i| ((i * 104729) % 11) as f32 * 0.21 - 1.0).collect();
        let mut serial = vec![0.0f32; m * n];
        matmul_into_threads(&a, &b, &mut serial, m, k, n, 1);
        for threads in [0, 1, 2, 3, 5, 8, 64] {
            let mut par = vec![0.0f32; m * n];
            matmul_into_threads(&a, &b, &mut par, m, k, n, threads);
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn threaded_accumulates_into_existing_output() {
        // the `c += A·B` contract must survive row partitioning
        let (m, k, n) = (5, 4, 3);
        let a: Vec<f32> = (0..m * k).map(|i| i as f32).collect();
        let b: Vec<f32> = (0..k * n).map(|i| (i as f32) * 0.5).collect();
        let mut serial = vec![1.0f32; m * n];
        matmul_into_threads(&a, &b, &mut serial, m, k, n, 1);
        let mut par = vec![1.0f32; m * n];
        matmul_into_threads(&a, &b, &mut par, m, k, n, 4);
        assert_eq!(par, serial);
    }

    #[test]
    fn threaded_single_row_and_degenerate_shapes() {
        let a = vec![1.0f32, 2.0];
        let b = vec![3.0f32, 4.0, 5.0, 6.0, 7.0, 8.0];
        let mut c = vec![0.0f32; 3];
        matmul_into_threads(&a, &b, &mut c, 1, 2, 3, 8);
        assert_eq!(c, vec![3.0 + 2.0 * 6.0, 4.0 + 2.0 * 7.0, 5.0 + 2.0 * 8.0]);
        // k = 0: nothing accumulated
        let mut c0 = vec![9.0f32; 4];
        matmul_into_threads(&[], &[], &mut c0, 2, 0, 2, 4);
        assert_eq!(c0, vec![9.0; 4]);
        // m = 0 / n = 0: no output, must not panic
        matmul_into_threads(&[], &[], &mut [], 0, 3, 0, 4);
    }

    #[test]
    fn identity_is_neutral() {
        let a = Tensor::from_fn(&[3, 3], |i| i as f32);
        let id = Tensor::from_fn(&[3, 3], |i| if i / 3 == i % 3 { 1.0 } else { 0.0 });
        assert_eq!(matmul(&a, &id).unwrap(), a);
        assert_eq!(matmul(&id, &a).unwrap(), a);
    }
}
