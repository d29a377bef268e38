//! Property tests for the tensor substrate: each runs a fixed number of
//! seeded cases, case `i` drawing its inputs from `seeded_rng(i)`.

use rdo_tensor::microkernel::{KC, MR, NR};
use rdo_tensor::rng::seeded_rng;
use rdo_tensor::rng::Rng;
use rdo_tensor::{col2im, im2col, matmul, matmul_into_threads, Conv2dGeometry, Tensor};

/// Dimensions that straddle the microkernel tile and panel boundaries:
/// one below, exactly on, and one above each multiple of the tile size.
fn around_multiples_of(tile: usize, max_mult: usize, rng: &mut Rng) -> usize {
    let (mult, off) = (rng.gen_range(1..=max_mult), rng.gen_range(-1i64..=1));
    ((mult * tile) as i64 + off).max(1) as usize
}

/// A matrix of 1..=`max_dim` rows and columns, entries in [-100, 100).
fn random_tensor(max_dim: usize, rng: &mut Rng) -> Tensor {
    let (r, c) = (rng.gen_range(1..=max_dim), rng.gen_range(1..=max_dim));
    let v = (0..r * c).map(|_| rng.gen_range(-100.0f32..100.0)).collect();
    Tensor::from_vec(v, &[r, c]).expect("consistent")
}

/// (A + B) + C == A + (B + C) up to float tolerance.
#[test]
fn add_is_associative() {
    for case in 0..64 {
        let mut rng = seeded_rng(case);
        let v: Vec<f32> = (0..12).map(|_| rng.gen_range(-1e3f32..1e3)).collect();
        let a = Tensor::from_vec(v[0..4].to_vec(), &[4]).unwrap();
        let b = Tensor::from_vec(v[4..8].to_vec(), &[4]).unwrap();
        let c = Tensor::from_vec(v[8..12].to_vec(), &[4]).unwrap();
        let l = a.add(&b).unwrap().add(&c).unwrap();
        let r = a.add(&b.add(&c).unwrap()).unwrap();
        for (x, y) in l.data().iter().zip(r.data()) {
            assert!((x - y).abs() <= 1e-2 * x.abs().max(1.0), "case {case}: {x} vs {y}");
        }
    }
}

/// Transposition is an involution on any matrix.
#[test]
fn transpose_involution() {
    for case in 0..64 {
        let t = random_tensor(12, &mut seeded_rng(case));
        assert_eq!(t.transpose2().unwrap().transpose2().unwrap(), t, "case {case}");
    }
}

/// (A·B)ᵀ == Bᵀ·Aᵀ.
#[test]
fn matmul_transpose_identity() {
    for case in 0..64 {
        let mut rng = seeded_rng(case);
        let a = random_tensor(10, &mut rng);
        let (bcols, seed) = (rng.gen_range(1usize..10), rng.gen_range(0u64..1000));
        let k = a.dims()[1];
        let b =
            Tensor::from_fn(&[k, bcols], |i| ((i as u64).wrapping_mul(seed + 1) % 17) as f32 - 8.0);
        let lhs = matmul(&a, &b).unwrap().transpose2().unwrap();
        let rhs = matmul(&b.transpose2().unwrap(), &a.transpose2().unwrap()).unwrap();
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            assert!((x - y).abs() <= 1e-2 * x.abs().max(1.0), "case {case}: {x} vs {y}");
        }
    }
}

/// Matmul distributes over addition: A·(B+C) == A·B + A·C.
#[test]
fn matmul_distributes() {
    for case in 0..64 {
        let mut rng = seeded_rng(case);
        let (a, seed) = (random_tensor(8, &mut rng), rng.gen_range(0u64..100));
        let k = a.dims()[1];
        let mk = |s: u64| {
            Tensor::from_fn(&[k, 5], |i| ((i as u64).wrapping_mul(s * 31 + 7) % 13) as f32 - 6.0)
        };
        let (b, c) = (mk(seed), mk(seed + 1));
        let lhs = matmul(&a, &b.add(&c).unwrap()).unwrap();
        let rhs = matmul(&a, &b).unwrap().add(&matmul(&a, &c).unwrap()).unwrap();
        for (x, y) in lhs.data().iter().zip(rhs.data()) {
            assert!((x - y).abs() <= 1e-2 * x.abs().max(1.0), "case {case}: {x} vs {y}");
        }
    }
}

/// Scaling commutes with summation: sum(αx) == α·sum(x).
#[test]
fn scale_sum_commute() {
    for case in 0..64 {
        let mut rng = seeded_rng(case);
        let (t, alpha) = (random_tensor(12, &mut rng), rng.gen_range(-10.0f32..10.0));
        let lhs = t.scale(alpha).sum();
        let rhs = alpha * t.sum();
        assert!((lhs - rhs).abs() <= 1e-2 * rhs.abs().max(1.0), "case {case}: {lhs} vs {rhs}");
    }
}

/// col2im is the adjoint of im2col for random geometries.
#[test]
fn im2col_adjoint() {
    for case in 0..64 {
        let mut rng = seeded_rng(case);
        // draw again until the kernel fits the padded input
        let (h, w, c, k, pad) = loop {
            let (h, w) = (rng.gen_range(3usize..8), rng.gen_range(3usize..8));
            let (c, k, pad) =
                (rng.gen_range(1usize..3), rng.gen_range(1usize..4), rng.gen_range(0usize..2));
            if h + 2 * pad >= k && w + 2 * pad >= k {
                break (h, w, c, k, pad);
            }
        };
        let (stride, seed) = (rng.gen_range(1usize..3), rng.gen_range(0u64..1000));
        let geom = Conv2dGeometry::new(c, 1, k, stride, pad);
        let x = Tensor::from_fn(&[1, c, h, w], |i| {
            ((i as u64).wrapping_mul(seed + 3) % 23) as f32 - 11.0
        });
        let cols = im2col(&x, &geom).unwrap();
        let g =
            Tensor::from_fn(cols.dims(), |i| ((i as u64).wrapping_mul(seed + 5) % 19) as f32 - 9.0);
        let back = col2im(&g, &geom, 1, h, w).unwrap();
        let lhs: f32 = cols.data().iter().zip(g.data()).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.data().iter().zip(back.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() <= 1e-2 * lhs.abs().max(1.0), "case {case}: {lhs} vs {rhs}");
    }
}

/// Reshape never alters data, only the shape.
#[test]
fn reshape_preserves_data() {
    for case in 0..64 {
        let t = random_tensor(12, &mut seeded_rng(case));
        let flat = t.reshape(&[t.len()]).unwrap();
        assert_eq!(flat.data(), t.data(), "case {case}");
    }
}

/// Row-partitioned parallel matmul is bitwise identical to the serial
/// kernel for every shape and thread count: each output row's
/// k-accumulation order is unchanged by the partitioning.
#[test]
fn parallel_matmul_matches_serial_bitwise() {
    for case in 0..64 {
        let mut rng = seeded_rng(case);
        let (m, k, n) =
            (rng.gen_range(1usize..24), rng.gen_range(1usize..16), rng.gen_range(1usize..16));
        let (threads, seed) = (rng.gen_range(1usize..5), rng.gen_range(0u64..1000));
        let a: Vec<f32> =
            (0..m * k).map(|i| ((i as u64).wrapping_mul(seed + 11) % 29) as f32 - 14.0).collect();
        let b: Vec<f32> =
            (0..k * n).map(|i| ((i as u64).wrapping_mul(seed + 13) % 31) as f32 - 15.0).collect();
        let mut serial = vec![0.0f32; m * n];
        let mut parallel = vec![0.0f32; m * n];
        matmul_into_threads(&a, &b, &mut serial, m, k, n, 1);
        matmul_into_threads(&a, &b, &mut parallel, m, k, n, threads);
        assert_eq!(serial, parallel, "case {case}");
    }
}

/// The tiled microkernel agrees with a naive f64-accumulated reference
/// on shapes chosen to straddle the MR/NR register-tile and KC panel
/// boundaries — the edge-tile and remainder paths, not just the happy
/// full-tile interior.
#[test]
fn microkernel_matches_naive_at_tile_boundaries() {
    for case in 0..64 {
        let mut rng = seeded_rng(case);
        let (m, k) = (around_multiples_of(MR, 5, &mut rng), around_multiples_of(KC, 2, &mut rng));
        let (n, seed) = (around_multiples_of(NR, 3, &mut rng), rng.gen_range(0u64..1000));
        let a: Vec<f32> = (0..m * k)
            .map(|i| ((i as u64).wrapping_mul(seed + 17) % 23) as f32 * 0.37 - 4.0)
            .collect();
        let b: Vec<f32> = (0..k * n)
            .map(|i| ((i as u64).wrapping_mul(seed + 19) % 29) as f32 * 0.29 - 4.0)
            .collect();
        let mut c = vec![0.0f32; m * n];
        matmul_into_threads(&a, &b, &mut c, m, k, n, 1);
        for i in 0..m {
            for j in 0..n {
                let want: f64 =
                    (0..k).map(|p| f64::from(a[i * k + p]) * f64::from(b[p * n + j])).sum();
                let got = f64::from(c[i * n + j]);
                assert!(
                    (got - want).abs() <= 1e-3 * want.abs().max(1.0),
                    "case {case} ({i}, {j}): {got} vs {want}"
                );
            }
        }
    }
}

/// Bitwise serial/threaded agreement at the documented thread counts,
/// including 0 (auto) and counts far beyond the row-tile count.
#[test]
fn thread_count_never_changes_bits() {
    for case in 0..64 {
        let mut rng = seeded_rng(case);
        let (m, k, n) =
            (rng.gen_range(1usize..30), rng.gen_range(1usize..20), rng.gen_range(1usize..20));
        let (tidx, seed) = (rng.gen_range(0..6), rng.gen_range(0u64..1000));
        let threads = [0usize, 1, 2, 3, 8, 64][tidx];
        let a: Vec<f32> =
            (0..m * k).map(|i| ((i as u64).wrapping_mul(seed + 23) % 31) as f32 - 15.0).collect();
        let b: Vec<f32> =
            (0..k * n).map(|i| ((i as u64).wrapping_mul(seed + 29) % 37) as f32 - 18.0).collect();
        let mut serial = vec![0.0f32; m * n];
        let mut threaded = vec![0.0f32; m * n];
        matmul_into_threads(&a, &b, &mut serial, m, k, n, 1);
        matmul_into_threads(&a, &b, &mut threaded, m, k, n, threads);
        assert_eq!(serial, threaded, "case {case}: threads={threads}");
    }
}
