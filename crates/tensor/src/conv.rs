//! 2-D convolution lowering: im2col / col2im, plus the im2col-free
//! stride-1 forward kernel.
//!
//! Convolutions in the `rdo-nn` crate are computed as matrix
//! products over im2col patch matrices. This mirrors how an RRAM accelerator
//! maps a convolution onto crossbars: each kernel becomes one column of a
//! weight matrix and each input patch one activation vector, which is exactly
//! the VMM the paper's crossbars execute.
//!
//! Stride-1 forward passes over wide images skip the patch matrix:
//! [`conv2d_direct_into`] streams the register tile straight from the
//! zero-bordered image and matches the lowered product bit for bit (see
//! [`Conv2dGeometry::direct_forward`] for when it applies). The same
//! kernel computes the input gradient of a stride-1 convolution, as a
//! convolution of dY with the [`transposed_kernel_into`] kernel.

use std::sync::Mutex;

use crate::error::{Result, TensorError};
use crate::microkernel::{gemm_nt, gemm_windows, PackedA, NR};
use crate::pool;
use crate::scratch;
use crate::tensor::Tensor;

/// Geometry of a 2-D convolution (single stride/padding for both axes).
///
/// # Examples
///
/// ```
/// use rdo_tensor::Conv2dGeometry;
///
/// let g = Conv2dGeometry::new(3, 8, 3, 1, 1); // 3→8 channels, 3×3, stride 1, pad 1
/// assert_eq!(g.output_hw(32, 32), (32, 32));
/// assert_eq!(g.patch_len(), 3 * 3 * 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dGeometry {
    /// Input channel count.
    pub in_channels: usize,
    /// Output channel count (number of kernels).
    pub out_channels: usize,
    /// Square kernel side length.
    pub kernel: usize,
    /// Stride along both axes.
    pub stride: usize,
    /// Zero padding along both axes.
    pub padding: usize,
}

impl Conv2dGeometry {
    /// Creates a geometry descriptor.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Self {
        Conv2dGeometry { in_channels, out_channels, kernel, stride, padding }
    }

    /// Output spatial size for an `h × w` input. The bordered input must
    /// cover the kernel and the stride must be positive, which
    /// [`Conv2dGeometry::check_input`] verifies.
    pub fn output_hw(&self, h: usize, w: usize) -> (usize, usize) {
        let oh = (h + 2 * self.padding - self.kernel) / self.stride + 1;
        let ow = (w + 2 * self.padding - self.kernel) / self.stride + 1;
        (oh, ow)
    }

    /// Length of one flattened input patch (`in_channels · kernel²`) —
    /// the inner dimension of the lowered matmul and the crossbar row count
    /// this layer needs.
    pub fn patch_len(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    /// Checks an NCHW input shape against this geometry and returns
    /// `[n, h, w]`, so that [`Conv2dGeometry::output_hw`] is defined.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] unless `dims` has rank 4,
    /// [`TensorError::ShapeMismatch`] if the channel count disagrees with
    /// the geometry, and [`TensorError::InvalidArgument`] for a zero
    /// kernel or stride or a bordered image smaller than the kernel.
    pub fn check_input(&self, op: &'static str, dims: &[usize]) -> Result<[usize; 3]> {
        if dims.len() != 4 {
            return Err(TensorError::RankMismatch { op, expected: 4, actual: dims.len() });
        }
        if dims[1] != self.in_channels {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: dims.to_vec(),
                rhs: vec![self.in_channels],
            });
        }
        self.check_hw(op, dims[2], dims[3])?;
        Ok([dims[0], dims[2], dims[3]])
    }

    /// The spatial half of [`Conv2dGeometry::check_input`].
    fn check_hw(&self, op: &'static str, h: usize, w: usize) -> Result<()> {
        let k = self.kernel;
        if k == 0 || self.stride == 0 {
            return Err(TensorError::InvalidArgument(format!(
                "{op}: kernel {k} and stride {} must be positive",
                self.stride
            )));
        }
        let (ph, pw) = (h + 2 * self.padding, w + 2 * self.padding);
        if ph.min(pw) < k {
            return Err(TensorError::InvalidArgument(format!(
                "{op}: bordered input {ph}×{pw} is smaller than the {k}×{k} kernel"
            )));
        }
        Ok(())
    }

    /// Whether a forward pass over a checked `(n, c, h, w)` input takes
    /// [`conv2d_direct_into`] instead of [`conv2d_lowered_into`]. The rule
    /// looks at the shape only:
    ///
    /// * stride 1, and the `pw − ow` border columns the direct kernel
    ///   computes and discards are at most a quarter of the bordered width
    ///   `pw` (`(pw − ow)·4 ≤ pw`);
    /// * the lowered product is a tiled GEMM: more than one output
    ///   position, patch and output channel. The degenerate shapes take
    ///   the vector kernels, whose sums are ordered differently.
    pub fn direct_forward(&self, n: usize, h: usize, w: usize) -> bool {
        let (oh, ow) = self.output_hw(h, w);
        let pw = w + 2 * self.padding;
        self.stride == 1
            && (pw - ow) * 4 <= pw
            && n * oh * ow > 1
            && self.patch_len() > 1
            && self.out_channels > 1
    }
}

/// Lowers a batch of images `(n, c, h, w)` to a patch matrix of shape
/// `(n · oh · ow, c · kernel²)`.
///
/// Row `b·oh·ow + y·ow + x` holds the flattened receptive field of output
/// pixel `(y, x)` of batch element `b`, so `im2col(x) · Wᵀ` computes the
/// convolution for kernel matrix `W` of shape `(out_channels, patch_len)`.
///
/// # Errors
///
/// Returns the errors of [`Conv2dGeometry::check_input`].
pub fn im2col(input: &Tensor, geom: &Conv2dGeometry) -> Result<Tensor> {
    let [n, h, w] = geom.check_input("im2col", input.dims())?;
    let (oh, ow) = geom.output_hw(h, w);
    let patch = geom.patch_len();
    let mut out = vec![0.0f32; n * oh * ow * patch];
    im2col_into(input, geom, &mut out)?;
    Tensor::from_vec(out, &[n * oh * ow, patch])
}

/// [`im2col`] into a caller-provided buffer of `n · oh · ow · patch_len`
/// elements. Every element is written, padding zeros included, so the
/// buffer's prior contents do not matter: `Conv2d` reuses one patch buffer
/// across batches via [`scratch::take`].
///
/// Each image is read through a zero-bordered copy (skipped when there is
/// no padding), so the copy loop has no per-element bounds tests; kernel
/// widths 1, 3 and 5 copy fixed-size rows.
///
/// # Errors
///
/// Returns the same shape errors as [`im2col`], plus a
/// [`TensorError::ShapeMismatch`] if `out` has the wrong length.
pub fn im2col_into(input: &Tensor, geom: &Conv2dGeometry, out: &mut [f32]) -> Result<()> {
    let [n, h, w] = geom.check_input("im2col_into", input.dims())?;
    let c = geom.in_channels;
    let (oh, ow) = geom.output_hw(h, w);
    let patch = geom.patch_len();
    if out.len() != n * oh * ow * patch {
        return Err(TensorError::ShapeMismatch {
            op: "im2col_into",
            lhs: vec![out.len()],
            rhs: vec![n * oh * ow * patch],
        });
    }
    let frame = Frame::new(geom, h, w);
    // borders are zeroed once here and never written again
    let mut padded = if frame.p == 0 { Vec::new() } else { vec![0.0f32; frame.len()] };
    let (img_len, cols_len) = (c * h * w, oh * ow * patch);
    for b in 0..n {
        let img = &input.data()[b * img_len..(b + 1) * img_len];
        let src = if frame.p == 0 {
            img
        } else {
            frame.pad(img, &mut padded);
            &padded
        };
        let dst = &mut out[b * cols_len..(b + 1) * cols_len];
        match geom.kernel {
            1 => frame.im2col::<1>(src, dst),
            3 => frame.im2col::<3>(src, dst),
            5 => frame.im2col::<5>(src, dst),
            _ => frame.im2col::<0>(src, dst),
        }
    }
    Ok(())
}

/// The lowered convolution forward pass: [`im2col_into`], `gemm_nt` of
/// the patches against `weight` (`oc × c·k²`) into a zeroed patch-major
/// buffer, then `+ bias` while reordering into the NCHW `out`. Returns
/// the patch matrix (`n·oh·ow × c·k²`), checked out of the thread's
/// [`scratch`] pool, for the backward pass. Every shape
/// [`Conv2dGeometry::direct_forward`] rejects runs this path, and it is
/// the reference [`conv2d_direct_into`] is pinned to.
///
/// # Errors
///
/// Returns the errors of [`Conv2dGeometry::check_input`] and a
/// [`TensorError::ShapeMismatch`] if `weight`, `bias` or `out` has the
/// wrong length.
pub fn conv2d_lowered_into(
    input: &Tensor,
    geom: &Conv2dGeometry,
    weight: &[f32],
    bias: &[f32],
    out: &mut [f32],
    threads: usize,
) -> Result<Vec<f32>> {
    let [n, oc, oh, ow] = check_forward("conv2d_lowered_into", input, geom, weight, bias, out)?;
    let (rows, patch, hw) = (n * oh * ow, geom.patch_len(), oh * ow);
    // im2col_into writes every element, padding zeros included
    let mut cols = scratch::take(rows * patch);
    im2col_into(input, geom, &mut cols)?;
    if out.is_empty() {
        return Ok(cols);
    }
    let mut yp = scratch::take_zeroed(rows * oc);
    gemm_nt(&cols, weight, &mut yp, rows, patch, oc, threads);
    // one output channel plane at a time, so `out` is written in order
    for (img, dst) in yp.chunks_exact(hw * oc).zip(out.chunks_exact_mut(oc * hw)) {
        for (o, (plane, &b)) in dst.chunks_exact_mut(hw).zip(bias).enumerate() {
            for (p, v) in plane.iter_mut().enumerate() {
                *v = img[p * oc + o] + b;
            }
        }
    }
    scratch::recycle(yp);
    Ok(cols)
}

/// The argument checks shared by the two forward passes; returns the
/// output shape `[n, oc, oh, ow]`.
fn check_forward(
    op: &'static str,
    input: &Tensor,
    geom: &Conv2dGeometry,
    weight: &[f32],
    bias: &[f32],
    out: &[f32],
) -> Result<[usize; 4]> {
    let [n, h, w] = geom.check_input(op, input.dims())?;
    let (oc, (oh, ow)) = (geom.out_channels, geom.output_hw(h, w));
    for (len, want) in
        [(weight.len(), oc * geom.patch_len()), (bias.len(), oc), (out.len(), n * oc * oh * ow)]
    {
        if len != want {
            return Err(TensorError::ShapeMismatch { op, lhs: vec![len], rhs: vec![want] });
        }
    }
    Ok([n, oc, oh, ow])
}

/// The stride-1 convolution forward pass without a patch matrix:
/// `out (n, oc, oh, ow) = conv(input, weight) + bias`, bitwise identical
/// to [`conv2d_lowered_into`] whenever its product is a tiled GEMM (see
/// [`Conv2dGeometry::direct_forward`]).
///
/// Per image it computes `W · B`, with `weight` (`oc × c·k²`) packed
/// once per call into `MR`-row panels. Row `(c, ky, kx)` of `B` is the
/// zero-bordered image read from offset `c·ph·pw + ky·pw + kx`: a
/// contiguous slice, so the register tile streams `NR` output positions
/// straight from the bordered copy. It covers `oh·pw` "wide-row"
/// positions and drops the `pw − ow` border columns of each row.
///
/// Each output element is accumulated per `KC` block into a zeroed
/// buffer and written as `(0 + Σ blocks) + bias`: the same products, in
/// the same ascending-`k` order and with the same additions as the
/// lowered path, hence the same bits.
///
/// Images are split across up to `threads` pool workers (serially when
/// already inside a pool job); each image is computed by the same code
/// whichever worker runs it, so results do not depend on `threads`.
/// Counts its useful FLOPs, `2·n·oh·ow·c·k²·oc`, in `tensor.gemm.flops`.
///
/// # Errors
///
/// Returns the errors of [`Conv2dGeometry::check_input`], a
/// [`TensorError::InvalidArgument`] if the stride is not 1, and a
/// [`TensorError::ShapeMismatch`] if `weight`, `bias` or `out` has the
/// wrong length.
pub fn conv2d_direct_into(
    input: &Tensor,
    geom: &Conv2dGeometry,
    weight: &[f32],
    bias: &[f32],
    out: &mut [f32],
    threads: usize,
) -> Result<()> {
    const OP: &str = "conv2d_direct_into";
    let [n, oc, oh, ow] = check_forward(OP, input, geom, weight, bias, out)?;
    if geom.stride != 1 {
        return Err(TensorError::InvalidArgument(format!("{OP}: stride {} is not 1", geom.stride)));
    }
    let (c, k, patch) = (geom.in_channels, geom.kernel, geom.patch_len());
    let (h, w) = (input.dims()[2], input.dims()[3]);
    if rdo_obs::enabled() {
        rdo_obs::counter_add("tensor.gemm.calls", 1);
        rdo_obs::counter_add("tensor.gemm.flops", 2 * (n * oh * ow * patch * oc) as u64);
    }
    if out.is_empty() {
        return Ok(());
    }
    let frame = Frame::new(geom, h, w);
    let (pw, plane) = (frame.pw, frame.ph * frame.pw);
    // positions per channel, border columns included, in whole NR panels
    let wide = (oh * pw).div_ceil(NR) * NR;
    let rows: Vec<usize> =
        (0..c).flat_map(|ch| (0..k * k).map(move |t| ch * plane + (t / k) * pw + t % k)).collect();
    // the last window runs up to `wide − oh·pw + k − 1` past the image;
    // the tail stays zero like the border
    let bordered_len = rows.last().map_or(0, |&r| r + wide).max(frame.len());
    let pa = PackedA::pack(weight, oc, patch);
    let (img_len, out_len) = (c * h * w, oc * oh * ow);
    let image = |b: usize, bordered: &mut [f32], acc: &mut [f32], dst: &mut [f32]| {
        frame.pad(&input.data()[b * img_len..(b + 1) * img_len], bordered);
        acc.fill(0.0);
        gemm_windows(&pa, bordered, &rows, acc, wide);
        for ((dst, acc), &bv) in dst.chunks_exact_mut(oh * ow).zip(acc.chunks_exact(wide)).zip(bias)
        {
            for (d, a) in dst.chunks_exact_mut(ow).zip(acc.chunks(pw)) {
                for (dv, &av) in d.iter_mut().zip(a) {
                    *dv = av + bv;
                }
            }
        }
    };
    // contiguous image ranges, one per worker, each with its own buffers
    // behind an uncontended mutex, as in the tiled GEMM; a single shard
    // runs inline
    let workers = if pool::in_job() { 1 } else { threads.clamp(1, n) };
    let per = n.div_ceil(workers);
    let shards: Vec<Mutex<ConvShard<'_>>> = out
        .chunks_mut(per * out_len)
        .map(|out| {
            let (bordered, acc) = (scratch::take_zeroed(bordered_len), scratch::take(oc * wide));
            Mutex::new(ConvShard { out, bordered, acc })
        })
        .collect();
    pool::run(shards.len(), |t| {
        let mut shard = shards[t].lock().expect("conv shard poisoned");
        let ConvShard { out, bordered, acc } = &mut *shard;
        for (i, dst) in out.chunks_exact_mut(out_len).enumerate() {
            image(t * per + i, bordered, acc, dst);
        }
    });
    for shard in shards {
        let shard = shard.into_inner().expect("conv shard poisoned");
        scratch::recycle(shard.bordered);
        scratch::recycle(shard.acc);
    }
    Ok(())
}

/// The kernel of the convolution of dY that yields this convolution's
/// input gradient: `weight` (`oc × c·k²`) flipped along both kernel axes
/// with its channels swapped, written to `out` (`c × oc·k²`) as
/// `out[ci, (o, ky, kx)] = weight[o, (ci, k−1−ky, k−1−kx)]`.
///
/// At stride 1, dX is the stride-1 convolution of dY with this kernel,
/// padded by `k − 1 − p`: geometry `(oc, c, k, 1, k − 1 − p)` and a zero
/// bias. `Conv2d` runs it through [`conv2d_direct_into`] for the
/// "same"-padded shapes that geometry admits.
///
/// # Errors
///
/// Returns a [`TensorError::ShapeMismatch`] if `weight` or `out` does
/// not hold `oc · c · k²` elements.
pub fn transposed_kernel_into(
    geom: &Conv2dGeometry,
    weight: &[f32],
    out: &mut [f32],
) -> Result<()> {
    let (c, oc, kk) = (geom.in_channels, geom.out_channels, geom.kernel * geom.kernel);
    for len in [weight.len(), out.len()] {
        if len != oc * c * kk {
            return Err(TensorError::ShapeMismatch {
                op: "transposed_kernel_into",
                lhs: vec![len],
                rhs: vec![oc * c * kk],
            });
        }
    }
    if oc * kk == 0 {
        // nothing to write, and chunks of 0 panic
        return Ok(());
    }
    for (ci, row) in out.chunks_exact_mut(oc * kk).enumerate() {
        for (o, taps) in row.chunks_exact_mut(kk).enumerate() {
            // flipping both kernel axes reverses the k² taps
            let src = &weight[(o * c + ci) * kk..(o * c + ci + 1) * kk];
            for (d, &v) in taps.iter_mut().zip(src.iter().rev()) {
                *d = v;
            }
        }
    }
    Ok(())
}

/// One worker's share of [`conv2d_direct_into`]: its output images and
/// its bordered-image and accumulator buffers.
struct ConvShard<'a> {
    out: &'a mut [f32],
    bordered: Vec<f32>,
    acc: Vec<f32>,
}

/// One image's lowering geometry: `c` planes of `ph × pw` (the input plus
/// its zero border of `p`) mapped to rows of `ow` patches.
struct Frame {
    c: usize,
    h: usize,
    w: usize,
    p: usize,
    ph: usize,
    pw: usize,
    ow: usize,
    k: usize,
    s: usize,
}

impl Frame {
    fn new(geom: &Conv2dGeometry, h: usize, w: usize) -> Self {
        let p = geom.padding;
        Frame {
            c: geom.in_channels,
            h,
            w,
            p,
            ph: h + 2 * p,
            pw: w + 2 * p,
            ow: geom.output_hw(h, w).1,
            k: geom.kernel,
            s: geom.stride,
        }
    }

    /// Length of one zero-bordered image.
    fn len(&self) -> usize {
        self.c * self.ph * self.pw
    }

    /// Copies `img` (`c × h × w`) into the interior of `padded`.
    fn pad(&self, img: &[f32], padded: &mut [f32]) {
        // `max(1)`: a zero-width image has no rows (and chunks of 0 panic)
        for (r, src) in img.chunks_exact(self.w.max(1)).enumerate() {
            let at = self.interior_row(r);
            padded[at..at + self.w].copy_from_slice(src);
        }
    }

    /// Copies the interior of `padded` back into `img`.
    fn unpad(&self, padded: &[f32], img: &mut [f32]) {
        for (r, dst) in img.chunks_exact_mut(self.w.max(1)).enumerate() {
            let at = self.interior_row(r);
            dst.copy_from_slice(&padded[at..at + self.w]);
        }
    }

    /// Offset in the bordered image of input row `r` (channel-major).
    fn interior_row(&self, r: usize) -> usize {
        let (ch, y) = (r / self.h, r % self.h);
        (ch * self.ph + y + self.p) * self.pw + self.p
    }

    /// Writes the `oh · ow` patch rows of one bordered image `src` to
    /// `cols`, one output-image row at a time. `K` is the kernel width when
    /// known at compile time, 0 for the generic fallback.
    fn im2col<const K: usize>(&self, src: &[f32], cols: &mut [f32]) {
        let k = if K == 0 { self.k } else { K };
        let (plane, patch) = (self.ph * self.pw, self.c * k * k);
        if patch == 0 {
            return;
        }
        for (oy, rows) in cols.chunks_exact_mut(self.ow * patch).enumerate() {
            let top = oy * self.s * self.pw;
            for (ox, row) in rows.chunks_exact_mut(patch).enumerate() {
                let corner = top + ox * self.s;
                for (ch, taps) in row.chunks_exact_mut(k * k).enumerate() {
                    let base = ch * plane + corner;
                    for (ky, dst) in taps.chunks_exact_mut(k).enumerate() {
                        let at = base + ky * self.pw;
                        dst.copy_from_slice(&src[at..at + k]);
                    }
                }
            }
        }
    }

    /// Adds to `acc` (`oh × ow`, row-major) the output-sized window of the
    /// bordered image `src` whose top-left tap sits at `corner`: element
    /// `(oy, ox)` reads `corner + (oy·pw + ox)·s`.
    fn add_window(&self, src: &[f32], corner: usize, acc: &mut [f32]) {
        for (oy, row) in acc.chunks_exact_mut(self.ow).enumerate() {
            let at = corner + oy * self.s * self.pw;
            if self.s == 1 {
                for (a, &v) in row.iter_mut().zip(&src[at..at + self.ow]) {
                    *a += v;
                }
            } else {
                for (a, &v) in row.iter_mut().zip(src[at..].iter().step_by(self.s)) {
                    *a += v;
                }
            }
        }
    }

    /// Adjoint of [`Frame::im2col`]: adds the patch rows `cols` into the
    /// bordered image `dst`. Contributions reach each pixel in (oy, ox)
    /// order, the order of the patch rows.
    fn col2im<const K: usize>(&self, cols: &[f32], dst: &mut [f32]) {
        let k = if K == 0 { self.k } else { K };
        let (plane, patch) = (self.ph * self.pw, self.c * k * k);
        if patch == 0 {
            return;
        }
        for (oy, rows) in cols.chunks_exact(self.ow * patch).enumerate() {
            let top = oy * self.s * self.pw;
            for (ox, row) in rows.chunks_exact(patch).enumerate() {
                let corner = top + ox * self.s;
                for (ch, taps) in row.chunks_exact(k * k).enumerate() {
                    let base = ch * plane + corner;
                    for (ky, src) in taps.chunks_exact(k).enumerate() {
                        let at = base + ky * self.pw;
                        for (d, &g) in dst[at..at + k].iter_mut().zip(src) {
                            *d += g;
                        }
                    }
                }
            }
        }
    }
}

/// Adjoint of [`im2col`]: scatters a patch-matrix gradient of shape
/// `(n · oh · ow, c · kernel²)` back to an image gradient `(n, c, h, w)`.
///
/// Overlapping patches accumulate, which is exactly the adjoint relation
/// `⟨im2col(x), g⟩ = ⟨x, col2im(g)⟩` the backward pass needs.
///
/// # Errors
///
/// Returns a shape error if `cols` does not match the geometry implied by
/// `geom` and `(n, h, w)`, and the spatial errors of
/// [`Conv2dGeometry::check_input`].
pub fn col2im(
    cols: &Tensor,
    geom: &Conv2dGeometry,
    n: usize,
    h: usize,
    w: usize,
) -> Result<Tensor> {
    geom.check_hw("col2im", h, w)?;
    let (oh, ow) = geom.output_hw(h, w);
    let patch = geom.patch_len();
    if cols.dims() != [n * oh * ow, patch] {
        return Err(TensorError::ShapeMismatch {
            op: "col2im",
            lhs: cols.dims().to_vec(),
            rhs: vec![n * oh * ow, patch],
        });
    }
    let mut out = vec![0.0f32; n * geom.in_channels * h * w];
    col2im_into(cols.data(), geom, n, h, w, &mut out)?;
    Tensor::from_vec(out, &[n, geom.in_channels, h, w])
}

/// [`col2im`] from a raw patch-gradient slice into a caller-provided
/// `(n · c · h · w)` buffer. Overlapping patches **accumulate into**
/// `out`, so zero it first for a pure adjoint.
///
/// Every pixel receives its contributions in the order of the patch rows
/// (output pixel `(oy, ox)`), added one by one to its value in `out`, so
/// the sums do not depend on how the loop is blocked. With padding, each
/// image is accumulated in a zero-bordered working copy that starts from
/// `out`'s values; the border cells collect the padding taps and are
/// dropped.
///
/// # Errors
///
/// Returns a shape error if either slice length disagrees with the
/// geometry implied by `geom` and `(n, h, w)`, and the spatial errors of
/// [`Conv2dGeometry::check_input`].
pub fn col2im_into(
    cols: &[f32],
    geom: &Conv2dGeometry,
    n: usize,
    h: usize,
    w: usize,
    out: &mut [f32],
) -> Result<()> {
    geom.check_hw("col2im_into", h, w)?;
    let (oh, ow) = geom.output_hw(h, w);
    let patch = geom.patch_len();
    if cols.len() != n * oh * ow * patch {
        return Err(TensorError::ShapeMismatch {
            op: "col2im_into",
            lhs: vec![cols.len()],
            rhs: vec![n * oh * ow * patch],
        });
    }
    let c = geom.in_channels;
    if out.len() != n * c * h * w {
        return Err(TensorError::ShapeMismatch {
            op: "col2im_into",
            lhs: vec![out.len()],
            rhs: vec![n * c * h * w],
        });
    }
    let frame = Frame::new(geom, h, w);
    let mut padded = if frame.p == 0 { Vec::new() } else { vec![0.0f32; frame.len()] };
    let (img_len, cols_len) = (c * h * w, oh * ow * patch);
    for b in 0..n {
        let src = &cols[b * cols_len..(b + 1) * cols_len];
        let img = &mut out[b * img_len..(b + 1) * img_len];
        let dst = if frame.p == 0 {
            &mut *img
        } else {
            frame.pad(img, &mut padded);
            &mut padded[..]
        };
        match geom.kernel {
            1 => frame.col2im::<1>(src, dst),
            3 => frame.col2im::<3>(src, dst),
            5 => frame.col2im::<5>(src, dst),
            _ => frame.col2im::<0>(src, dst),
        }
        if frame.p != 0 {
            frame.unpad(&padded, img);
        }
    }
    Ok(())
}

/// Column-group sums of the [`im2col`] patch matrix, without building it:
/// `out[p · G + g] = Σ_{r ∈ bounds[g]} im2col(input)[p, r]` for every
/// patch row `p` (`n · oh · ow` of them, in [`im2col`]'s order) and each
/// of the `G` half-open patch-column ranges in `bounds`.
///
/// Patch column `r = (c, ky, kx)` of output pixel `(oy, ox)` is the
/// zero-bordered image element at `c·ph·pw + ky·pw + kx + (oy·pw + ox)·s`,
/// so a group's sums over one image add `|g|` shifted `oh × ow` windows
/// of the bordered image (contiguous rows at stride 1): no patch matrix
/// and no per-tap bounds tests. Each sum starts from zero and adds its
/// columns in ascending `r`, so the result equals summing [`im2col`]'s
/// rows in order, bit for bit.
///
/// This is the `X_g` of the offset gradient: a shift `b` shared by the
/// kernel taps of one group enters every output as `b · X_g`.
///
/// # Errors
///
/// Returns the errors of [`Conv2dGeometry::check_input`], a
/// [`TensorError::InvalidArgument`] for a range that is reversed or runs
/// past `c · kernel²`, and a [`TensorError::ShapeMismatch`] if `out` does
/// not hold `n · oh · ow · G` elements.
pub fn patch_group_sums_into(
    input: &Tensor,
    geom: &Conv2dGeometry,
    bounds: &[(usize, usize)],
    out: &mut [f32],
) -> Result<()> {
    const OP: &str = "patch_group_sums_into";
    let [n, h, w] = geom.check_input(OP, input.dims())?;
    let (oh, ow) = geom.output_hw(h, w);
    let (hw, groups, patch) = (oh * ow, bounds.len(), geom.patch_len());
    if let Some(&(r0, r1)) = bounds.iter().find(|&&(r0, r1)| r0 > r1 || r1 > patch) {
        return Err(TensorError::InvalidArgument(format!(
            "{OP}: range {r0}..{r1} is not inside the {patch} patch columns"
        )));
    }
    if out.len() != n * hw * groups {
        return Err(TensorError::ShapeMismatch {
            op: OP,
            lhs: vec![out.len()],
            rhs: vec![n * hw * groups],
        });
    }
    if groups == 0 {
        return Ok(());
    }
    let frame = Frame::new(geom, h, w);
    let (k, plane) = (geom.kernel, frame.ph * frame.pw);
    let mut padded = if frame.p == 0 { Vec::new() } else { vec![0.0f32; frame.len()] };
    let mut acc = vec![0.0f32; hw];
    let img_len = geom.in_channels * h * w;
    for (b, dst) in out.chunks_exact_mut(hw * groups).enumerate() {
        let img = &input.data()[b * img_len..(b + 1) * img_len];
        let src = if frame.p == 0 {
            img
        } else {
            frame.pad(img, &mut padded);
            &padded
        };
        for (g, &(r0, r1)) in bounds.iter().enumerate() {
            acc.fill(0.0);
            for r in r0..r1 {
                let (ch, tap) = (r / (k * k), r % (k * k));
                frame.add_window(src, ch * plane + (tap / k) * frame.pw + tap % k, &mut acc);
            }
            for (row, &a) in dst.chunks_exact_mut(groups).zip(&acc) {
                row[g] = a;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::matmul;

    #[test]
    fn geometry_output_sizes() {
        let g = Conv2dGeometry::new(1, 1, 3, 1, 0);
        assert_eq!(g.output_hw(5, 5), (3, 3));
        let g = Conv2dGeometry::new(1, 1, 3, 1, 1);
        assert_eq!(g.output_hw(5, 5), (5, 5));
        let g = Conv2dGeometry::new(1, 1, 3, 2, 1);
        assert_eq!(g.output_hw(8, 8), (4, 4));
    }

    #[test]
    fn im2col_identity_kernel_reproduces_input() {
        // 1×1 kernel, stride 1, no padding: patches are just the pixels.
        let g = Conv2dGeometry::new(2, 1, 1, 1, 0);
        let x = Tensor::from_fn(&[1, 2, 3, 3], |i| i as f32);
        let cols = im2col(&x, &g).unwrap();
        assert_eq!(cols.dims(), &[9, 2]);
        // column 0 is channel 0, column 1 is channel 1
        for p in 0..9 {
            assert_eq!(cols.at(&[p, 0]).unwrap(), p as f32);
            assert_eq!(cols.at(&[p, 1]).unwrap(), (9 + p) as f32);
        }
    }

    #[test]
    fn convolution_via_im2col_matches_direct() {
        let g = Conv2dGeometry::new(1, 1, 3, 1, 1);
        let x = Tensor::from_fn(&[1, 1, 4, 4], |i| (i as f32) - 8.0);
        // Laplacian-like kernel
        let kern =
            Tensor::from_vec(vec![0.0, 1.0, 0.0, 1.0, -4.0, 1.0, 0.0, 1.0, 0.0], &[1, 9]).unwrap();
        let cols = im2col(&x, &g).unwrap();
        let y = matmul(&cols, &kern.transpose2().unwrap()).unwrap(); // (16,1)
                                                                     // direct convolution check for an interior pixel (1,1)
        let direct = |cy: isize, cx: isize| -> f32 {
            let mut acc = 0.0;
            let kv = [[0.0, 1.0, 0.0], [1.0, -4.0, 1.0], [0.0, 1.0, 0.0]];
            for dy in -1..=1isize {
                for dx in -1..=1isize {
                    let (iy, ix) = (cy + dy, cx + dx);
                    if (0..4).contains(&iy) && (0..4).contains(&ix) {
                        acc += kv[(dy + 1) as usize][(dx + 1) as usize]
                            * x.at(&[0, 0, iy as usize, ix as usize]).unwrap();
                    }
                }
            }
            acc
        };
        for cy in 0..4 {
            for cx in 0..4 {
                let got = y.at(&[(cy * 4 + cx) as usize, 0]).unwrap();
                assert!((got - direct(cy, cx)).abs() < 1e-4);
            }
        }
    }

    #[test]
    fn col2im_is_adjoint_of_im2col() {
        // ⟨im2col(x), g⟩ must equal ⟨x, col2im(g)⟩ for arbitrary x, g.
        let g = Conv2dGeometry::new(2, 3, 3, 2, 1);
        let x = Tensor::from_fn(&[2, 2, 5, 5], |i| ((i * 37) % 17) as f32 - 8.0);
        let cols = im2col(&x, &g).unwrap();
        let grad = Tensor::from_fn(cols.dims(), |i| ((i * 53) % 19) as f32 - 9.0);
        let back = col2im(&grad, &g, 2, 5, 5).unwrap();
        let lhs: f32 = cols.data().iter().zip(grad.data()).map(|(a, b)| a * b).sum();
        let rhs: f32 = x.data().iter().zip(back.data()).map(|(a, b)| a * b).sum();
        assert!((lhs - rhs).abs() / lhs.abs().max(1.0) < 1e-4, "{lhs} vs {rhs}");
    }

    /// The original per-pixel im2col loop, kept as the oracle the blocked
    /// lowering is pinned to. `out` must be zeroed: padding is skipped.
    fn im2col_oracle(data: &[f32], geom: &Conv2dGeometry, dims: [usize; 4], out: &mut [f32]) {
        let [n, c, h, w] = dims;
        let (oh, ow) = geom.output_hw(h, w);
        let (k, patch) = (geom.kernel, geom.patch_len());
        for b in 0..n {
            for oy in 0..oh {
                for ox in 0..ow {
                    let row = ((b * oh + oy) * ow + ox) * patch;
                    for ch in 0..c {
                        for ky in 0..k {
                            let iy = (oy * geom.stride + ky) as isize - geom.padding as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            let src = ((b * c + ch) * h + iy as usize) * w;
                            let dst = row + (ch * k + ky) * k;
                            for kx in 0..k {
                                let ix = (ox * geom.stride + kx) as isize - geom.padding as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                out[dst + kx] = data[src + ix as usize];
                            }
                        }
                    }
                }
            }
        }
    }

    /// The original per-pixel col2im loop: the accumulation-order oracle.
    fn col2im_oracle(cols: &[f32], geom: &Conv2dGeometry, dims: [usize; 4], out: &mut [f32]) {
        let [n, c, h, w] = dims;
        let (oh, ow) = geom.output_hw(h, w);
        let (k, patch) = (geom.kernel, geom.patch_len());
        for b in 0..n {
            for oy in 0..oh {
                for ox in 0..ow {
                    let row = ((b * oh + oy) * ow + ox) * patch;
                    for ch in 0..c {
                        for ky in 0..k {
                            let iy = (oy * geom.stride + ky) as isize - geom.padding as isize;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            let dst = ((b * c + ch) * h + iy as usize) * w;
                            let src = row + (ch * k + ky) * k;
                            for kx in 0..k {
                                let ix = (ox * geom.stride + kx) as isize - geom.padding as isize;
                                if ix < 0 || ix >= w as isize {
                                    continue;
                                }
                                out[dst + ix as usize] += cols[src + kx];
                            }
                        }
                    }
                }
            }
        }
    }

    /// Values of mixed sign spanning several decades, so that any change
    /// in summation order shows in the low bits.
    fn wiggle(i: usize, salt: u64) -> f32 {
        let z = (i as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
        let z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        let unit = (z >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
        unit * [1e-3, 1.0, 1e3][(z % 3) as usize]
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every geometry the lowering specialises or falls back on: kernel
    /// widths with and without a fixed-size copy, strides up to 3, padding
    /// up to the kernel width, non-square images and multi-image batches.
    fn pinned_cases() -> Vec<(Conv2dGeometry, [usize; 4])> {
        let mut cases = Vec::new();
        for k in [1, 2, 3, 5, 7] {
            for stride in [1, 2, 3] {
                for padding in 0..=k {
                    for n in [1, 3] {
                        let dims = [n, 2, k + 3, k + 1];
                        cases.push((Conv2dGeometry::new(2, 4, k, stride, padding), dims));
                    }
                }
            }
        }
        cases
    }

    #[test]
    fn im2col_into_matches_per_pixel_oracle_bitwise() {
        for (geom, dims) in pinned_cases() {
            let x = Tensor::from_fn(&dims, |i| wiggle(i, 1));
            let (oh, ow) = geom.output_hw(dims[2], dims[3]);
            let len = dims[0] * oh * ow * geom.patch_len();
            // NaN everywhere first: an element the lowering skips shows up
            let mut fast = vec![f32::NAN; len];
            im2col_into(&x, &geom, &mut fast).unwrap();
            let mut oracle = vec![0.0f32; len];
            im2col_oracle(x.data(), &geom, dims, &mut oracle);
            assert_eq!(bits(&fast), bits(&oracle), "{geom:?} dims {dims:?}");
        }
    }

    #[test]
    fn col2im_into_matches_per_pixel_oracle_bitwise() {
        for (geom, dims) in pinned_cases() {
            let (oh, ow) = geom.output_hw(dims[2], dims[3]);
            let cols: Vec<f32> =
                (0..dims[0] * oh * ow * geom.patch_len()).map(|i| wiggle(i, 2)).collect();
            // a non-zero start pins that contributions are added to `out`
            // itself, one by one in the oracle's order
            let start: Vec<f32> = (0..dims.iter().product()).map(|i| wiggle(i, 3)).collect();
            let mut fast = start.clone();
            col2im_into(&cols, &geom, dims[0], dims[2], dims[3], &mut fast).unwrap();
            let mut oracle = start;
            col2im_oracle(&cols, &geom, dims, &mut oracle);
            assert_eq!(bits(&fast), bits(&oracle), "{geom:?} dims {dims:?}");
        }
    }

    #[test]
    fn wrong_rank_rejected() {
        let g = Conv2dGeometry::new(1, 1, 3, 1, 1);
        assert!(im2col(&Tensor::zeros(&[3, 4, 4]), &g).is_err());
    }

    #[test]
    fn wrong_channels_rejected() {
        let g = Conv2dGeometry::new(3, 1, 3, 1, 1);
        assert!(im2col(&Tensor::zeros(&[1, 2, 4, 4]), &g).is_err());
    }

    /// The lowered forward pass the direct kernel is pinned to.
    fn lowered_forward(
        x: &Tensor,
        geom: &Conv2dGeometry,
        weight: &[f32],
        bias: &[f32],
    ) -> Vec<f32> {
        let [n, h, w] = geom.check_input("lowered_forward", x.dims()).unwrap();
        let (oh, ow) = geom.output_hw(h, w);
        let mut out = vec![f32::NAN; n * geom.out_channels * oh * ow];
        conv2d_lowered_into(x, geom, weight, bias, &mut out, 1).unwrap();
        out
    }

    /// Stride-1 geometries: kernel widths 1, 3 and 5, padding up to the
    /// kernel width, non-square images, one and three images, output
    /// channel counts around the `MR` tile, plus one patch longer than
    /// `KC` (32 channels × 3×3 = 288).
    fn direct_cases() -> Vec<(Conv2dGeometry, [usize; 4])> {
        let mut cases = Vec::new();
        for k in [1, 3, 5] {
            for padding in 0..=k {
                for n in [1, 3] {
                    for oc in [1, 3, 6, 8, 17] {
                        cases.push((
                            Conv2dGeometry::new(2, oc, k, 1, padding),
                            [n, 2, k + 4, k + 7],
                        ));
                    }
                }
            }
        }
        for padding in [0, 1] {
            cases.push((Conv2dGeometry::new(32, 6, 3, 1, padding), [2, 32, 6, 9]));
        }
        cases
    }

    /// Whether the lowered product of this case is a tiled GEMM — the
    /// shapes the direct kernel reproduces bit for bit.
    fn tiled_gemm(geom: &Conv2dGeometry, dims: [usize; 4]) -> bool {
        let (oh, ow) = geom.output_hw(dims[2], dims[3]);
        dims[0] * oh * ow > 1 && geom.patch_len() > 1 && geom.out_channels > 1
    }

    fn direct_operands(geom: &Conv2dGeometry, dims: [usize; 4]) -> (Tensor, Vec<f32>, Vec<f32>) {
        let x = Tensor::from_fn(&dims, |i| wiggle(i, 4));
        let weight = (0..geom.out_channels * geom.patch_len()).map(|i| wiggle(i, 5)).collect();
        // a non-zero bias: the kernel must add it after the block sums
        let bias = (0..geom.out_channels).map(|i| wiggle(i, 6) + 0.25).collect();
        (x, weight, bias)
    }

    fn direct(
        x: &Tensor,
        geom: &Conv2dGeometry,
        weight: &[f32],
        bias: &[f32],
        threads: usize,
    ) -> Vec<f32> {
        let [n, h, w] = geom.check_input("direct", x.dims()).unwrap();
        let (oh, ow) = geom.output_hw(h, w);
        // NaN everywhere first: an element the kernel skips shows up
        let mut out = vec![f32::NAN; n * geom.out_channels * oh * ow];
        conv2d_direct_into(x, geom, weight, bias, &mut out, threads).unwrap();
        out
    }

    #[test]
    fn direct_forward_is_bitwise_lowered_forward() {
        for (geom, dims) in direct_cases() {
            if !tiled_gemm(&geom, dims) {
                // the vector kernels sum in another order: dispatch must
                // keep these on the lowered path
                assert!(!geom.direct_forward(dims[0], dims[2], dims[3]), "{geom:?} {dims:?}");
                continue;
            }
            let (x, weight, bias) = direct_operands(&geom, dims);
            let want = lowered_forward(&x, &geom, &weight, &bias);
            for threads in [1, 3] {
                let got = direct(&x, &geom, &weight, &bias, threads);
                assert_eq!(bits(&got), bits(&want), "{geom:?} dims {dims:?} threads {threads}");
            }
        }
    }

    #[test]
    fn direct_forward_dispatch_follows_the_shape_rule() {
        // (geometry, h = w, direct?) for the LeNet and fast-scale ResNet layers
        let layers = [
            (Conv2dGeometry::new(1, 6, 5, 1, 2), 28, true), // LeNet conv1
            (Conv2dGeometry::new(6, 16, 5, 1, 0), 14, false), // LeNet conv2
            (Conv2dGeometry::new(3, 8, 3, 1, 1), 16, true), // ResNet stem
            (Conv2dGeometry::new(8, 8, 3, 1, 1), 16, true), // layer 1
            (Conv2dGeometry::new(16, 16, 3, 1, 1), 8, true), // layer 2
            (Conv2dGeometry::new(32, 32, 3, 1, 1), 4, false), // layer 3
            (Conv2dGeometry::new(64, 64, 3, 1, 1), 2, false), // layer 4
            (Conv2dGeometry::new(8, 16, 3, 2, 1), 16, false), // stride 2
            (Conv2dGeometry::new(8, 16, 1, 2, 0), 16, false), // projection shortcut
        ];
        for (geom, hw, want) in layers {
            assert_eq!(geom.direct_forward(32, hw, hw), want, "{geom:?} at {hw}×{hw}");
        }
    }

    #[test]
    fn direct_forward_rejects_bad_arguments() {
        let g = Conv2dGeometry::new(2, 3, 3, 1, 1);
        let x = Tensor::zeros(&[1, 2, 4, 4]);
        let (w, b) = (vec![0.0f32; 3 * 18], vec![0.0f32; 3]);
        let mut out = vec![0.0f32; 3 * 16];
        assert!(conv2d_direct_into(&x, &g, &w, &b, &mut out, 1).is_ok());
        assert!(conv2d_direct_into(&x, &g, &w[1..], &b, &mut out, 1).is_err());
        assert!(conv2d_direct_into(&x, &g, &w, &b[1..], &mut out, 1).is_err());
        assert!(conv2d_direct_into(&x, &g, &w, &b, &mut out[1..], 1).is_err());
        let strided = Conv2dGeometry::new(2, 3, 3, 2, 1);
        assert!(conv2d_direct_into(&x, &strided, &w, &b, &mut out[..12], 1).is_err());
    }

    #[test]
    fn check_input_rejects_bad_shapes_without_panicking() {
        let g = Conv2dGeometry::new(2, 3, 5, 1, 0);
        assert!(matches!(
            g.check_input("t", &[2, 4, 4]),
            Err(TensorError::RankMismatch { expected: 4, actual: 3, .. })
        ));
        assert!(matches!(
            g.check_input("t", &[1, 3, 8, 8]),
            Err(TensorError::ShapeMismatch { .. })
        ));
        // 4×8 without padding cannot hold a 5×5 kernel: `h − k` would underflow
        assert!(matches!(g.check_input("t", &[1, 2, 4, 8]), Err(TensorError::InvalidArgument(_))));
        assert_eq!(g.check_input("t", &[1, 2, 5, 8]).unwrap(), [1, 5, 8]);
        let zero_stride = Conv2dGeometry::new(2, 3, 3, 0, 1);
        assert!(matches!(
            zero_stride.check_input("t", &[1, 2, 8, 8]),
            Err(TensorError::InvalidArgument(_))
        ));
        assert!(im2col(&Tensor::zeros(&[1, 2, 4, 8]), &g).is_err());
        assert!(col2im_into(&[], &g, 1, 4, 8, &mut [0.0; 64]).is_err());
    }

    /// The window sums equal summing the patch matrix's columns in
    /// ascending order, bit for bit: strides 1 and 2, kernels 1/3/5 with
    /// and without padding, ranges that straddle channels, a short last
    /// range, one range over every column, and an empty range.
    #[test]
    fn patch_group_sums_match_summed_im2col_columns_bitwise() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (c, k, s, p, h, w) in [
            (1, 5, 1, 2, 12, 10),
            (3, 3, 1, 1, 9, 8),
            (3, 3, 1, 0, 7, 9),
            (4, 1, 1, 0, 5, 6),
            (2, 3, 2, 1, 9, 8),
            (3, 1, 2, 0, 7, 7),
            (2, 5, 2, 2, 11, 9),
            (2, 4, 1, 1, 6, 7),
        ] {
            let geom = Conv2dGeometry::new(c, 2, k, s, p);
            let patch = geom.patch_len();
            let x = Tensor::from_fn(&[2, c, h, w], |i| ((i * 37 + 11) % 23) as f32 * 0.31 - 3.1);
            let cols = im2col(&x, &geom).unwrap();
            let step = (patch / 3).max(1);
            let mut bounds: Vec<(usize, usize)> =
                (0..patch).step_by(step).map(|r| (r, (r + step).min(patch))).collect();
            bounds.push((0, patch));
            bounds.push((patch, patch));
            let groups = bounds.len();
            let rows = cols.dims()[0];
            let mut want = vec![0.0f32; rows * groups];
            for (row, dst) in cols.data().chunks_exact(patch).zip(want.chunks_exact_mut(groups)) {
                for (d, &(r0, r1)) in dst.iter_mut().zip(&bounds) {
                    *d = row[r0..r1].iter().fold(0.0, |a, &v| a + v);
                }
            }
            let mut got = vec![f32::NAN; rows * groups];
            patch_group_sums_into(&x, &geom, &bounds, &mut got).unwrap();
            assert_eq!(bits(&got), bits(&want), "c{c} k{k} s{s} p{p}");
        }
    }

    #[test]
    fn patch_group_sums_reject_bad_arguments() {
        let g = Conv2dGeometry::new(2, 3, 3, 1, 1);
        let x = Tensor::zeros(&[1, 2, 4, 4]);
        let mut out = vec![0.0f32; 16 * 2];
        assert!(patch_group_sums_into(&x, &g, &[(0, 9), (9, 18)], &mut out).is_ok());
        assert!(patch_group_sums_into(&x, &g, &[(0, 9), (9, 19)], &mut out).is_err());
        assert!(patch_group_sums_into(&x, &g, &[(5, 4), (9, 18)], &mut out).is_err());
        assert!(patch_group_sums_into(&x, &g, &[(0, 18)], &mut out).is_err());
        assert!(
            patch_group_sums_into(&Tensor::zeros(&[1, 3, 4, 4]), &g, &[(0, 18)], &mut out).is_err()
        );
    }

    #[test]
    fn transposed_kernel_flips_taps_and_swaps_channels() {
        let g = Conv2dGeometry::new(2, 3, 3, 1, 1);
        let (c, oc, k) = (2, 3, 3);
        let weight: Vec<f32> = (0..oc * c * k * k).map(|i| i as f32).collect();
        let mut out = vec![f32::NAN; weight.len()];
        transposed_kernel_into(&g, &weight, &mut out).unwrap();
        for ci in 0..c {
            for o in 0..oc {
                for ky in 0..k {
                    for kx in 0..k {
                        let want = weight[((o * c + ci) * k + k - 1 - ky) * k + k - 1 - kx];
                        assert_eq!(out[((ci * oc + o) * k + ky) * k + kx], want);
                    }
                }
            }
        }
        assert!(transposed_kernel_into(&g, &weight[1..], &mut out).is_err());
        assert!(transposed_kernel_into(&g, &weight, &mut out[1..]).is_err());
    }
}
