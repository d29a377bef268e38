//! Register-tiled GEMM microkernel with operand panel packing.
//!
//! This module is the single canonical inner kernel behind every dense
//! product in the workspace: [`crate::matmul()`] and friends route here, the
//! `rdo-nn` layers call the layout-aware entry points directly (so forward
//! and backward passes never materialize a transposed weight matrix).
//!
//! # Kernel architecture
//!
//! The classic three-level blocking, written in safe Rust so the compiler
//! autovectorizes the innermost tile:
//!
//! 1. **Packing.** `B` is repacked once per product into panels of
//!    [`NR`] columns (`pack_b`): panel `j` stores rows `0..k` of columns
//!    `j·NR..(j+1)·NR` contiguously, zero-padded to a full panel. `A` is
//!    packed per [`KC`]-row block into micro-panels of [`MR`] rows
//!    (`pack_a_block`). Packing reads either a row-major or a transposed
//!    operand, which is how the `NT`/`TN` entry points avoid explicit
//!    transposes.
//! 2. **Register tile.** The microkernel accumulates an `MR × NR` tile of
//!    `C` in a fixed-size local array over one `KC` block; the fixed-size
//!    loops vectorize without any `unsafe` or intrinsics.
//! 3. **Threading.** Output rows are partitioned into whole `MR`-row
//!    tiles anchored at row 0, contiguous tile ranges per worker. Every
//!    tile is computed by exactly the same code on the same packed data
//!    whichever worker runs it, so the product is **bitwise identical for
//!    any thread count** — the same determinism contract the parallel
//!    experiment engine relies on.
//!
//! Shape-degenerate cases (`m == 1`, `n == 1`, `k ≤ 1`) dispatch to
//! dedicated vector kernels (`gevm`, `gemv`, rank-1 update) with the
//! same determinism guarantee, so matrix·column products, `vecmat` and
//! rank-1 updates share this path instead of bespoke loops.
//!
//! The operation order differs from the pre-microkernel scalar kernel
//! (lane-blocked reductions instead of strictly sequential `k`), so
//! absolute values may differ from it within normal f32 tolerance; the
//! legacy kernel is kept as a test oracle in the `matmul` module's
//! tests.

// The GEMM helpers take the conventional (a, b, c, m, k, n, threads)
// argument list plus operand layouts; bundling the dimensions into a
// struct would only obscure the BLAS-shaped API.
#![allow(clippy::too_many_arguments)]

use std::sync::Mutex;

use crate::pool;
use crate::scratch;

/// Whether the compile target has 256-bit (or wider) vector units; the
/// register tile is sized to the vector register file at compile time.
/// The tile size never changes results — every `C` element is always
/// accumulated in ascending `k` — so this is purely a throughput knob.
const WIDE_SIMD: bool = cfg!(any(target_feature = "avx2", target_feature = "avx512f"));

/// Rows per register tile. Four rows is the sweet spot for both targets:
/// the accumulator stays small enough for the compiler to promote it
/// entirely into registers (larger tiles fall off that cliff and
/// scalarize), while `4 × NR` still carries enough independent
/// accumulation chains to cover FP-add/FMA latency.
pub const MR: usize = 4;
/// Columns per register tile: a 4×16 tile (eight 256-bit accumulator
/// chains) on AVX2/AVX-512 targets, 4×8 (eight XMM chains) on the SSE2
/// baseline.
pub const NR: usize = if WIDE_SIMD { 16 } else { 8 };
/// `k`-block size: one packed `A` micro-panel (`MR × KC` f32) stays well
/// inside L1 while a `B` panel block streams through L2.
pub const KC: usize = 256;

/// Operand memory layout for the packing routines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layout {
    /// The operand is stored exactly as the product consumes it.
    RowMajor,
    /// The operand is stored transposed (the caller holds `Mᵀ`).
    Transposed,
}

/// `c += a · b` for row-major `a (m×k)`, `b (k×n)`, `c (m×n)`.
///
/// # Panics
///
/// Panics if slice lengths do not match the shape arguments.
pub fn gemm_nn(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize, threads: usize) {
    assert_eq!(a.len(), m * k, "lhs length");
    assert_eq!(b.len(), k * n, "rhs length");
    gemm_dispatch(a, Layout::RowMajor, b, Layout::RowMajor, c, m, k, n, threads);
}

/// `c += a · bᵗᵀ` for row-major `a (m×k)` and `bt (n×k)` — i.e. the
/// caller holds the right operand transposed, as `Linear`/`Conv2d`
/// forward passes do (`y = x · Wᵀ` with `W` stored `(out, in)`).
///
/// # Panics
///
/// Panics if slice lengths do not match the shape arguments.
pub fn gemm_nt(a: &[f32], bt: &[f32], c: &mut [f32], m: usize, k: usize, n: usize, threads: usize) {
    assert_eq!(a.len(), m * k, "lhs length");
    assert_eq!(bt.len(), n * k, "rhs length");
    gemm_dispatch(a, Layout::RowMajor, bt, Layout::Transposed, c, m, k, n, threads);
}

/// `c += atᵀ · b` for `at (k×m)` and row-major `b (k×n)` — the weight
/// gradient orientation of the backward passes (`dW = gᵀ · x`).
///
/// # Panics
///
/// Panics if slice lengths do not match the shape arguments.
pub fn gemm_tn(at: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize, threads: usize) {
    assert_eq!(at.len(), k * m, "lhs length");
    assert_eq!(b.len(), k * n, "rhs length");
    gemm_dispatch(at, Layout::Transposed, b, Layout::RowMajor, c, m, k, n, threads);
}

/// Shape-based dispatch shared by the three entry points. The chosen
/// path depends only on `(m, k, n)`, never on `threads`, so serial and
/// threaded calls always agree bitwise.
#[allow(clippy::too_many_arguments)]
fn gemm_dispatch(
    a: &[f32],
    a_layout: Layout,
    b: &[f32],
    b_layout: Layout,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    threads: usize,
) {
    assert_eq!(c.len(), m * n, "out length");
    if m == 0 || n == 0 {
        return;
    }
    if k == 0 {
        return; // nothing to accumulate
    }
    if rdo_obs::enabled() {
        rdo_obs::counter_add("tensor.gemm.calls", 1);
        rdo_obs::counter_add("tensor.gemm.flops", 2 * (m * k * n) as u64);
    }
    let threads = threads.clamp(1, m.max(1));
    match (m, k, n) {
        (1, _, _) => gevm(a, a_layout, b, b_layout, c, k, n, threads),
        (_, _, 1) => gemv(a, a_layout, b, b_layout, c, m, k, threads),
        (_, 1, _) => rank1(a, a_layout, b, b_layout, c, m, n, threads),
        _ => gemm_tiled(a, a_layout, b, b_layout, c, m, k, n, threads),
    }
}

/// Number of `NR`-column panels covering `n` columns.
fn panels(n: usize) -> usize {
    n.div_ceil(NR)
}

/// Packs `B` into column panels: for each `KC` block `k0` and panel `j`,
/// the `kc × NR` sub-block lives at `k0 * n_pad + j * (kc * NR)`,
/// element `(p, jj)` at offset `p * NR + jj`, zero-padded past column `n`.
fn pack_b(b: &[f32], layout: Layout, k: usize, n: usize, bpack: &mut [f32]) {
    let n_pad = panels(n) * NR;
    debug_assert_eq!(bpack.len(), k * n_pad);
    let mut k0 = 0;
    while k0 < k {
        let kc = KC.min(k - k0);
        let block = &mut bpack[k0 * n_pad..k0 * n_pad + kc * n_pad];
        for jp in 0..panels(n) {
            let j0 = jp * NR;
            let width = NR.min(n - j0);
            let panel = &mut block[jp * kc * NR..(jp + 1) * kc * NR];
            match layout {
                Layout::RowMajor => {
                    for (p, dst) in panel.chunks_exact_mut(NR).enumerate() {
                        let src = &b[(k0 + p) * n + j0..(k0 + p) * n + j0 + width];
                        dst[..width].copy_from_slice(src);
                        dst[width..].fill(0.0);
                    }
                }
                Layout::Transposed => {
                    // b holds Bᵀ as (n × k): column j of B is row j of b.
                    // Read each row contiguously, scatter into the panel
                    // (the panel itself stays L1-resident).
                    if width < NR {
                        panel.fill(0.0);
                    }
                    for jj in 0..width {
                        let src = &b[(j0 + jj) * k + k0..(j0 + jj) * k + k0 + kc];
                        for (p, &v) in src.iter().enumerate() {
                            panel[p * NR + jj] = v;
                        }
                    }
                }
            }
        }
        k0 += kc;
    }
}

/// Packs the `A` rows `rows.start..rows.end` of `k`-block `k0..k0+kc`
/// into `MR`-row micro-panels: tile `t` (anchored at absolute row
/// `rows.start + t·MR`) occupies `t * (MR * kc)`, element `(p, i)` at
/// `p * MR + i`, zero-padded past the last row.
fn pack_a_block(
    a: &[f32],
    layout: Layout,
    m: usize,
    k: usize,
    rows: core::ops::Range<usize>,
    k0: usize,
    kc: usize,
    apack: &mut [f32],
) {
    let tiles = (rows.end - rows.start).div_ceil(MR);
    debug_assert_eq!(apack.len(), tiles * MR * kc);
    for t in 0..tiles {
        let i0 = rows.start + t * MR;
        let height = MR.min(rows.end - i0);
        let panel = &mut apack[t * MR * kc..(t + 1) * MR * kc];
        match layout {
            Layout::RowMajor => {
                // read each source row contiguously, scatter into the
                // (L1-resident) micro-panel
                if height < MR {
                    panel.fill(0.0);
                }
                for i in 0..height {
                    let src = &a[(i0 + i) * k + k0..(i0 + i) * k + k0 + kc];
                    for (p, &v) in src.iter().enumerate() {
                        panel[p * MR + i] = v;
                    }
                }
            }
            Layout::Transposed => {
                // a holds Aᵀ as (k × m): row p of the block is contiguous
                for (p, dst) in panel.chunks_exact_mut(MR).enumerate() {
                    let src = &a[(k0 + p) * m + i0..(k0 + p) * m + i0 + height];
                    dst[..height].copy_from_slice(src);
                    dst[height..].fill(0.0);
                }
            }
        }
    }
}

/// The register tile: accumulates `MR × NR` products over one packed
/// `kc`-deep micro-panel pair. Fixed-size arrays and exact chunking let
/// the compiler keep `acc` in vector registers.
#[inline]
fn micro_tile(apanel: &[f32], bpanel: &[f32], kc: usize) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for (ap, bp) in apanel.chunks_exact(MR).zip(bpanel.chunks_exact(NR)).take(kc) {
        let b: &[f32; NR] = bp.try_into().expect("exact NR chunk");
        let a: &[f32; MR] = ap.try_into().expect("exact MR chunk");
        for i in 0..MR {
            let ai = a[i];
            for j in 0..NR {
                acc[i][j] += ai * b[j];
            }
        }
    }
    acc
}

/// [`micro_tile`] reading `B` in place instead of from a packed panel:
/// step `p` multiplies the `NR` values starting at `b[row(p)]`. For a
/// row-major matrix (`row(p) = (k0+p)·n + j0`) these are exactly the
/// values [`pack_b`] would have copied into panel offset `p * NR`, in the
/// same ascending-`k` order, so the accumulators match the packed path
/// bit for bit; [`gemm_windows`] passes a table of row starts instead.
#[inline]
fn micro_tile_direct(
    apanel: &[f32],
    b: &[f32],
    row: impl Fn(usize) -> usize,
    kc: usize,
) -> [[f32; NR]; MR] {
    let mut acc = [[0.0f32; NR]; MR];
    for (p, ap) in apanel.chunks_exact(MR).take(kc).enumerate() {
        let at = row(p);
        let bv: &[f32; NR] = b[at..at + NR].try_into().expect("exact NR chunk");
        let a: &[f32; MR] = ap.try_into().expect("exact MR chunk");
        for i in 0..MR {
            let ai = a[i];
            for j in 0..NR {
                acc[i][j] += ai * bv[j];
            }
        }
    }
    acc
}

/// How [`gemm_rows`] reads the right-hand operand.
#[derive(Clone, Copy)]
enum BSource<'a> {
    /// `B` repacked into `NR`-column panels by [`pack_b`].
    Packed(&'a [f32]),
    /// `B` read in place from the caller's row-major storage — only legal
    /// when `n` is a whole number of `NR` panels (no zero-padded columns).
    Direct(&'a [f32]),
}

impl BSource<'_> {
    /// The register tile of `apanel` against columns `jp·NR..(jp+1)·NR`
    /// of `k`-block `k0..k0+kc` of an `n`-column `B`.
    #[inline]
    fn tile(&self, apanel: &[f32], k0: usize, kc: usize, jp: usize, n: usize) -> [[f32; NR]; MR] {
        let j0 = jp * NR;
        match *self {
            BSource::Packed(bpack) => {
                let n_pad = panels(n) * NR;
                let bblock = &bpack[k0 * n_pad..k0 * n_pad + kc * n_pad];
                micro_tile(apanel, &bblock[jp * kc * NR..(jp + 1) * kc * NR], kc)
            }
            BSource::Direct(b) => micro_tile_direct(apanel, b, |p| (k0 + p) * n + j0, kc),
        }
    }
}

/// Row-major `B` operands up to this many elements skip [`pack_b`] and
/// stream straight from the source matrix: below it the whole matrix
/// stays cache-resident across row tiles, so packing is pure copy
/// overhead (it dominates the runtime of the small-batch products the
/// PWT tuning loop issues). Larger operands keep the packed layout for
/// its contiguity. Purely a throughput knob — both paths multiply the
/// same values in the same order.
const DIRECT_B_MAX: usize = 1 << 16;

/// Computes the tiles covering `c_rows` (a contiguous row range starting
/// at absolute row `r0`, tile grid anchored at row 0 of the full
/// product). One invocation per worker; also called directly when
/// serial.
#[allow(clippy::too_many_arguments)]
fn gemm_rows(
    a: &[f32],
    a_layout: Layout,
    bsrc: BSource<'_>,
    c_rows: &mut [f32],
    r0: usize,
    m: usize,
    k: usize,
    n: usize,
    apack: &mut [f32],
) {
    let rows = c_rows.len() / n;
    let n_panels = panels(n);
    let tiles = rows.div_ceil(MR);
    let mut k0 = 0;
    while k0 < k {
        let kc = KC.min(k - k0);
        pack_a_block(a, a_layout, m, k, r0..r0 + rows, k0, kc, &mut apack[..tiles * MR * kc]);
        for jp in 0..n_panels {
            let j0 = jp * NR;
            let width = NR.min(n - j0);
            for t in 0..tiles {
                let i0 = t * MR;
                let height = MR.min(rows - i0);
                let apanel = &apack[t * MR * kc..(t + 1) * MR * kc];
                let acc = bsrc.tile(apanel, k0, kc, jp, n);
                for (i, acc_row) in acc.iter().enumerate().take(height) {
                    let crow = &mut c_rows[(i0 + i) * n + j0..(i0 + i) * n + j0 + width];
                    for (cv, av) in crow.iter_mut().zip(acc_row) {
                        *cv += av;
                    }
                }
            }
        }
        k0 += kc;
    }
}

/// The general tiled path: pack `B` once (unless a small row-major `B`
/// can be read in place), then partition the output rows into
/// whole-`MR`-tile chunks across workers.
#[allow(clippy::too_many_arguments)]
fn gemm_tiled(
    a: &[f32],
    a_layout: Layout,
    b: &[f32],
    b_layout: Layout,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    threads: usize,
) {
    let direct_b = b_layout == Layout::RowMajor && n.is_multiple_of(NR) && k * n <= DIRECT_B_MAX;
    let bpack = if direct_b {
        Vec::new()
    } else {
        let n_pad = panels(n) * NR;
        let mut buf = scratch::take(k * n_pad);
        pack_b(b, b_layout, k, n, &mut buf);
        buf
    };
    let bsrc = if direct_b { BSource::Direct(b) } else { BSource::Packed(&bpack) };

    let tiles = m.div_ceil(MR);
    if rdo_obs::enabled() {
        rdo_obs::counter_add("tensor.gemm.tiles", (tiles * panels(n)) as u64);
    }
    let threads = threads.min(tiles);
    let tiles_per = tiles.div_ceil(threads);
    let rows_per = tiles_per * MR;
    let kc_max = KC.min(k);

    if threads <= 1 {
        let mut apack = scratch::take(tiles * MR * kc_max);
        gemm_rows(a, a_layout, bsrc, c, 0, m, k, n, &mut apack);
        scratch::recycle(apack);
    } else {
        // one shard per contiguous whole-tile row chunk; each shard owns
        // its (chunk, packing buffer) pair behind an uncontended mutex
        let shards: Vec<Mutex<(&mut [f32], Vec<f32>)>> = c
            .chunks_mut(rows_per * n)
            .map(|chunk| Mutex::new((chunk, scratch::take(tiles_per * MR * kc_max))))
            .collect();
        pool::run(shards.len(), |t| {
            let mut shard = shards[t].lock().expect("gemm shard poisoned");
            let (c_chunk, apack) = &mut *shard;
            gemm_rows(a, a_layout, bsrc, c_chunk, t * rows_per, m, k, n, apack);
        });
        for shard in shards {
            let (_, apack) = shard.into_inner().expect("gemm shard poisoned");
            scratch::recycle(apack);
        }
    }
    if !direct_b {
        scratch::recycle(bpack);
    }
}

/// A left operand packed once into `MR`-row micro-panels: the weight of
/// the stride-1 convolution (`conv2d_direct_into`), which every image's
/// [`gemm_windows`] product reads.
///
/// The layout is what `pack_a_block` writes when one pack covers rows
/// `0..m`: for each `KC` block `k0`, tile `t` lives at
/// `tiles · MR · k0 + t · (MR · kc)`, element `(p, i)` at `p · MR + i`,
/// zero-padded past row `m`.
pub(crate) struct PackedA {
    /// Micro-panel data, `tiles · MR · k` elements.
    data: Vec<f32>,
    m: usize,
    k: usize,
}

impl PackedA {
    /// Packs row-major `a (m×k)`.
    ///
    /// # Panics
    ///
    /// Panics if `a.len() != m * k`.
    pub(crate) fn pack(a: &[f32], m: usize, k: usize) -> Self {
        assert_eq!(a.len(), m * k, "lhs length");
        let tiles = m.div_ceil(MR);
        let mut data = vec![0.0f32; tiles * MR * k];
        let mut k0 = 0;
        while k0 < k {
            let kc = KC.min(k - k0);
            let off = tiles * MR * k0;
            pack_a_block(
                a,
                Layout::RowMajor,
                m,
                k,
                0..m,
                k0,
                kc,
                &mut data[off..off + tiles * MR * kc],
            );
            k0 += kc;
        }
        Self { data, m, k }
    }
}

/// `c += A · B` for a [`PackedA`] `A (m×k)` and a `B (k×n)` whose row
/// `p` is the window `b[rows[p]..rows[p] + n]` of one shared buffer —
/// the shifted zero-bordered image planes of the stride-1 convolution
/// (`conv2d_direct_into`). Serial. Each `c` element receives its
/// `KC`-block tile sums in ascending `k`, exactly as the tiled
/// [`gemm_nt`] path adds them, so the two agree bit for bit.
///
/// # Panics
///
/// Panics unless `n` is a whole number of [`NR`] panels,
/// `rows.len() == k`, `c.len() == m·n` and every window lies inside `b`.
pub(crate) fn gemm_windows(pa: &PackedA, b: &[f32], rows: &[usize], c: &mut [f32], n: usize) {
    let (m, k) = (pa.m, pa.k);
    assert!(n.is_multiple_of(NR), "window width must be whole NR panels");
    assert_eq!(rows.len(), k, "one window per k");
    assert_eq!(c.len(), m * n, "out length");
    let tiles = m.div_ceil(MR);
    let mut k0 = 0;
    while k0 < k {
        let kc = KC.min(k - k0);
        let block_off = tiles * MR * k0;
        for jp in 0..panels(n) {
            let j0 = jp * NR;
            for t in 0..tiles {
                let i0 = t * MR;
                let panel_off = block_off + t * MR * kc;
                let apanel = &pa.data[panel_off..panel_off + MR * kc];
                let acc = micro_tile_direct(apanel, b, |p| rows[k0 + p] + j0, kc);
                for (i, acc_row) in acc.iter().enumerate().take(MR.min(m - i0)) {
                    let crow = &mut c[(i0 + i) * n + j0..(i0 + i) * n + j0 + NR];
                    for (cv, av) in crow.iter_mut().zip(acc_row) {
                        *cv += av;
                    }
                }
            }
        }
        k0 += kc;
    }
}

/// Lane count of the blocked reductions in the vector kernels.
const LANES: usize = 8;

/// Lane-blocked dot product with a fixed reduction tree — the same
/// operation order for a given length however the caller threads.
#[inline]
fn dot(x: &[f32], y: &[f32]) -> f32 {
    debug_assert_eq!(x.len(), y.len());
    let mut lanes = [0.0f32; LANES];
    let xc = x.chunks_exact(LANES);
    let yc = y.chunks_exact(LANES);
    let tail: f32 =
        xc.remainder().iter().zip(yc.remainder()).fold(0.0, |acc, (&a, &b)| acc + a * b);
    for (xv, yv) in xc.zip(yc) {
        for l in 0..LANES {
            lanes[l] += xv[l] * yv[l];
        }
    }
    let mut half = LANES / 2;
    while half > 0 {
        for l in 0..half {
            lanes[l] += lanes[l + half];
        }
        half /= 2;
    }
    lanes[0] + tail
}

/// `m == 1` path: `c (n) += x (k) · B (k×n)` — the crossbar VMM
/// orientation. Workers split the output columns; every column `j` is
/// accumulated in ascending `i`, so partitioning never reorders math.
fn gevm(
    x: &[f32],
    x_layout: Layout,
    b: &[f32],
    b_layout: Layout,
    c: &mut [f32],
    k: usize,
    n: usize,
    threads: usize,
) {
    // a 1×k operand is identical in both layouts
    let _ = x_layout;
    if let Layout::Transposed = b_layout {
        // B is stored (n × k): each output is a dot product of rows
        gemv(b, Layout::RowMajor, x, Layout::RowMajor, c, n, k, threads);
        return;
    }
    let threads = threads.clamp(1, n);
    let cols_per = n.div_ceil(threads);
    let run = |c_cols: &mut [f32], j0: usize| {
        let width = c_cols.len();
        for (i, &xv) in x.iter().enumerate() {
            if xv == 0.0 {
                continue;
            }
            let brow = &b[i * n + j0..i * n + j0 + width];
            for (cv, &bv) in c_cols.iter_mut().zip(brow) {
                *cv += xv * bv;
            }
        }
    };
    if threads <= 1 {
        run(c, 0);
        return;
    }
    let shards: Vec<Mutex<&mut [f32]>> = c.chunks_mut(cols_per).map(Mutex::new).collect();
    pool::run(shards.len(), |t| {
        let mut chunk = shards[t].lock().expect("gevm shard poisoned");
        run(&mut chunk[..], t * cols_per);
    });
}

/// `n == 1` path: `c (m) += A (m×k) · x (k)` — per-row dot products,
/// workers split the rows.
fn gemv(
    a: &[f32],
    a_layout: Layout,
    x: &[f32],
    x_layout: Layout,
    c: &mut [f32],
    m: usize,
    k: usize,
    threads: usize,
) {
    let _ = x_layout; // a k×1 operand is identical in both layouts
    if let Layout::Transposed = a_layout {
        // A is stored (k × m): the product is x · At in gevm orientation
        gevm(x, Layout::RowMajor, a, Layout::RowMajor, c, k, m, threads);
        return;
    }
    let threads = threads.clamp(1, m);
    let rows_per = m.div_ceil(threads);
    let run = |c_rows: &mut [f32], r0: usize| {
        for (i, cv) in c_rows.iter_mut().enumerate() {
            let row = &a[(r0 + i) * k..(r0 + i + 1) * k];
            *cv += dot(row, x);
        }
    };
    if threads <= 1 {
        run(c, 0);
        return;
    }
    let shards: Vec<Mutex<&mut [f32]>> = c.chunks_mut(rows_per).map(Mutex::new).collect();
    pool::run(shards.len(), |t| {
        let mut chunk = shards[t].lock().expect("gemv shard poisoned");
        run(&mut chunk[..], t * rows_per);
    });
}

/// `k == 1` path: the rank-1 update `c (m×n) += a (m) ⊗ b (n)`, workers
/// split the rows.
fn rank1(
    a: &[f32],
    a_layout: Layout,
    b: &[f32],
    b_layout: Layout,
    c: &mut [f32],
    m: usize,
    n: usize,
    threads: usize,
) {
    // k == 1 operands are vectors; layout is irrelevant
    let _ = (a_layout, b_layout);
    let threads = threads.clamp(1, m);
    let rows_per = m.div_ceil(threads);
    let run = |c_rows: &mut [f32], r0: usize| {
        for (i, crow) in c_rows.chunks_exact_mut(n).enumerate() {
            let av = a[r0 + i];
            if av == 0.0 {
                continue;
            }
            for (cv, &bv) in crow.iter_mut().zip(b) {
                *cv += av * bv;
            }
        }
    };
    if threads <= 1 {
        run(c, 0);
        return;
    }
    let shards: Vec<Mutex<&mut [f32]>> = c.chunks_mut(rows_per * n).map(Mutex::new).collect();
    pool::run(shards.len(), |t| {
        let mut chunk = shards[t].lock().expect("rank1 shard poisoned");
        run(&mut chunk[..], t * rows_per);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(len: usize, seed: u64) -> Vec<f32> {
        (0..len).map(|i| ((i as u64).wrapping_mul(seed) % 23) as f32 * 0.37 - 4.0).collect()
    }

    fn naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f64; // f64 reference accumulator
                for p in 0..k {
                    acc += f64::from(a[i * k + p]) * f64::from(b[p * n + j]);
                }
                c[i * n + j] = acc as f32;
            }
        }
        c
    }

    fn assert_close(got: &[f32], want: &[f32], tol: f32) {
        for (x, y) in got.iter().zip(want) {
            assert!((x - y).abs() <= tol * y.abs().max(1.0), "{x} vs {y}");
        }
    }

    #[test]
    fn tiled_matches_naive_across_tile_boundaries() {
        // m, n straddle MR/NR multiples; k straddles the KC block size
        for &(m, k, n) in
            &[(1, 1, 1), (3, 5, 7), (MR, KC, NR), (MR + 1, KC + 3, NR + 1), (17, 70, 33)]
        {
            let a = fill(m * k, 7919);
            let b = fill(k * n, 104729);
            let mut c = vec![0.0f32; m * n];
            gemm_nn(&a, &b, &mut c, m, k, n, 1);
            assert_close(&c, &naive(&a, &b, m, k, n), 1e-4);
        }
    }

    #[test]
    fn direct_b_read_is_bitwise_packed() {
        // `n` a whole number of NR panels and `k·n` under DIRECT_B_MAX, so
        // gemm_nn streams B in place; the NT call on the explicitly
        // transposed operand always packs. Exact equality proves the
        // in-place read multiplies the same values in the same order,
        // including across the KC block boundary.
        for &(m, k, n) in &[(4, 128, NR * 8), (9, KC + 3, NR), (33, 40, NR * 2)] {
            assert!(
                k * n <= DIRECT_B_MAX && n.is_multiple_of(NR),
                "case must take the direct path"
            );
            let a = fill(m * k, 43);
            let b = fill(k * n, 71);
            let mut c_direct = vec![0.0f32; m * n];
            gemm_nn(&a, &b, &mut c_direct, m, k, n, 1);

            let mut bt = vec![0.0f32; n * k];
            for p in 0..k {
                for j in 0..n {
                    bt[j * k + p] = b[p * n + j];
                }
            }
            let mut c_packed = vec![0.0f32; m * n];
            gemm_nt(&a, &bt, &mut c_packed, m, k, n, 1);
            assert_eq!(c_direct, c_packed, "({m},{k},{n})");
        }
    }

    #[test]
    fn nt_and_tn_match_nn() {
        let (m, k, n) = (9, 21, 13);
        let a = fill(m * k, 31);
        let b = fill(k * n, 57);
        let mut c_nn = vec![0.0f32; m * n];
        gemm_nn(&a, &b, &mut c_nn, m, k, n, 1);

        // bt = Bᵀ stored (n × k)
        let mut bt = vec![0.0f32; n * k];
        for p in 0..k {
            for j in 0..n {
                bt[j * k + p] = b[p * n + j];
            }
        }
        let mut c_nt = vec![0.0f32; m * n];
        gemm_nt(&a, &bt, &mut c_nt, m, k, n, 1);
        assert_eq!(c_nn, c_nt, "NT packing must not change values");

        // at = Aᵀ stored (k × m)
        let mut at = vec![0.0f32; k * m];
        for i in 0..m {
            for p in 0..k {
                at[p * m + i] = a[i * k + p];
            }
        }
        let mut c_tn = vec![0.0f32; m * n];
        gemm_tn(&at, &b, &mut c_tn, m, k, n, 1);
        assert_eq!(c_nn, c_tn, "TN packing must not change values");
    }

    #[test]
    fn threaded_is_bitwise_serial_all_paths() {
        // general tile path, gevm (m=1), gemv (n=1) and rank-1 (k=1)
        for &(m, k, n) in &[(23, 37, 19), (1, 40, 33), (29, 40, 1), (21, 1, 18)] {
            let a = fill(m * k, 11);
            let b = fill(k * n, 13);
            let mut serial = vec![0.5f32; m * n];
            gemm_nn(&a, &b, &mut serial, m, k, n, 1);
            for threads in [2, 3, 8, 64] {
                let mut par = vec![0.5f32; m * n];
                gemm_nn(&a, &b, &mut par, m, k, n, threads);
                assert_eq!(par, serial, "({m},{k},{n}) threads={threads}");
            }
        }
    }

    #[test]
    fn accumulates_into_existing_output() {
        let (m, k, n) = (6, 10, 8);
        let a = fill(m * k, 3);
        let b = fill(k * n, 5);
        let mut base = vec![0.0f32; m * n];
        gemm_nn(&a, &b, &mut base, m, k, n, 1);
        let mut acc = vec![2.0f32; m * n];
        gemm_nn(&a, &b, &mut acc, m, k, n, 1);
        for (x, y) in acc.iter().zip(&base) {
            assert!((x - (y + 2.0)).abs() < 1e-5);
        }
    }

    #[test]
    fn degenerate_shapes_are_no_ops() {
        let mut c = vec![7.0f32; 6];
        gemm_nn(&[], &[], &mut c, 2, 0, 3, 4); // k == 0
        assert_eq!(c, vec![7.0; 6]);
        gemm_nn(&[], &[], &mut [], 0, 3, 0, 4); // m == n == 0
    }

    #[test]
    fn scratch_is_reused_across_calls() {
        // the packing buffers come from and go back to this thread's pool
        let (m, k, n) = (32, 48, 24);
        let a = fill(m * k, 17);
        let b = fill(k * n, 19);
        let mut c = vec![0.0f32; m * n];
        let cold = scratch::pooled_capacity();
        gemm_nn(&a, &b, &mut c, m, k, n, 1);
        let warm = scratch::pooled_capacity();
        assert!(warm > cold, "gemm should have pooled its packing buffers");
        c.fill(0.0);
        gemm_nn(&a, &b, &mut c, m, k, n, 1);
        assert_eq!(scratch::pooled_capacity(), warm, "steady state must not grow the pool");
    }
}
