//! 2-D convolution layer (im2col-lowered, or direct for wide stride-1
//! forward passes and same-padded stride-1 input gradients).

use rdo_tensor::microkernel::{gemm_nn, gemm_tn};
use rdo_tensor::rng::Rng;
use rdo_tensor::{
    auto_threads, col2im_into, conv2d_direct_into, conv2d_lowered_into, im2col_into,
    patch_group_sums_into, rng::kaiming, scratch, transposed_kernel_into, Conv2dGeometry, Tensor,
};

use crate::error::{NnError, Result};
use crate::layer::{Layer, Param, ParamKind};
use crate::row_groups::{group_sums_into, RowGroups};

/// A 2-D convolution with square kernels, computed as an im2col matrix
/// product — the same lowering an RRAM accelerator applies when it unrolls
/// kernels into crossbar columns.
///
/// The weight is stored as `(out_channels, in_channels · kernel²)`.
///
/// Forward passes whose shape passes
/// [`Conv2dGeometry::direct_forward`] (stride 1 over wide images: LeNet
/// conv1, the ResNet stem and the first two stages) skip the patch matrix
/// and run [`conv2d_direct_into`], bitwise identical to the lowered
/// product. They cache the input instead. A backward pass that wants dW
/// lowers it, so dW is unchanged; forward-only passes never build a patch
/// matrix, and with [`RowGroups`] set backward reads the group sums
/// straight from the cached input and never lowers it at all.
///
/// The input gradient of a stride-1 "same"-padded conv (`2·p + 1 = k`) is
/// itself a stride-1 convolution of dY: the kernel flipped, its channels
/// swapped, padded by `k − 1 − p`. When that transposed shape passes
/// [`Conv2dGeometry::direct_forward`] (the stride-1 convs of ResNet
/// stages 1–2), backward computes dX with [`conv2d_direct_into`], with no
/// `rows × patch` buffer and no [`col2im_into`]; it sums in another order
/// than the lowered product. Every other shape (LeNet conv2, stride 2,
/// ResNet stages 3–4) takes `gemm_nn` + [`col2im_into`].
///
/// # Examples
///
/// ```
/// use rdo_nn::{Conv2d, Layer};
/// use rdo_tensor::rng::seeded_rng;
/// use rdo_tensor::Tensor;
///
/// let mut conv = Conv2d::new(3, 8, 3, 1, 1, &mut seeded_rng(0));
/// let x = Tensor::zeros(&[2, 3, 16, 16]);
/// let y = conv.forward(&x, false)?;
/// assert_eq!(y.dims(), &[2, 8, 16, 16]);
/// # Ok::<(), rdo_nn::NnError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    geom: Conv2dGeometry,
    weight: Tensor,
    bias: Tensor,
    weight_grad: Tensor,
    bias_grad: Tensor,
    cache: Option<ConvCache>,
    // when set, backward accumulates the row-group gradient instead of dW
    row_groups: RowGroups,
}

#[derive(Debug, Clone)]
struct ConvCache {
    /// The forward pass's operand as a raw buffer; returned to the
    /// scratch pool when the next forward pass replaces it.
    saved: Saved,
    rows: usize,
    n: usize,
    h: usize,
    w: usize,
}

/// What a forward pass leaves for backward.
#[derive(Debug, Clone)]
enum Saved {
    /// The im2col patch matrix `(rows × patch_len)`.
    Cols(Vec<f32>),
    /// The NCHW input of a direct forward pass, lowered on the first
    /// backward pass that needs dW.
    Input(Vec<f32>),
}

impl Saved {
    fn into_vec(self) -> Vec<f32> {
        match self {
            Saved::Cols(v) | Saved::Input(v) => v,
        }
    }
}

impl Conv2d {
    /// Creates a convolution layer with Kaiming-initialized kernels.
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut Rng,
    ) -> Self {
        let geom = Conv2dGeometry::new(in_channels, out_channels, kernel, stride, padding);
        let patch = geom.patch_len();
        Conv2d {
            geom,
            weight: kaiming(&[out_channels, patch], patch, rng),
            bias: Tensor::zeros(&[out_channels]),
            weight_grad: Tensor::zeros(&[out_channels, patch]),
            bias_grad: Tensor::zeros(&[out_channels]),
            cache: None,
            row_groups: RowGroups::new(patch, out_channels),
        }
    }

    /// The convolution geometry.
    pub fn geometry(&self) -> &Conv2dGeometry {
        &self.geom
    }

    /// The `(out_channels, patch_len)` kernel matrix.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// Replaces the kernel matrix (used by the crossbar mapper).
    ///
    /// # Errors
    ///
    /// Returns a shape error if `w` is not `(out_channels, patch_len)`.
    pub fn set_weight(&mut self, w: Tensor) -> Result<()> {
        if w.dims() != [self.geom.out_channels, self.geom.patch_len()] {
            return Err(NnError::Tensor(rdo_tensor::TensorError::ShapeMismatch {
                op: "Conv2d::set_weight",
                lhs: w.dims().to_vec(),
                rhs: vec![self.geom.out_channels, self.geom.patch_len()],
            }));
        }
        self.weight = w;
        Ok(())
    }

    /// The im2col-free forward pass; caches a copy of the input.
    fn forward_direct(&mut self, input: &Tensor, n: usize, h: usize, w: usize) -> Result<Tensor> {
        if rdo_obs::enabled() {
            rdo_obs::counter_add("nn.conv.direct", 1);
        }
        let (oh, ow) = self.geom.output_hw(h, w);
        let (patch, oc) = (self.geom.patch_len(), self.geom.out_channels);
        // conv2d_direct_into writes every element
        let mut out = vec![0.0f32; n * oc * oh * ow];
        conv2d_direct_into(
            input,
            &self.geom,
            self.weight.data(),
            self.bias.data(),
            &mut out,
            auto_threads(n * oh * ow, patch, oc),
        )?;
        let mut saved = scratch::take(input.len());
        saved.copy_from_slice(input.data());
        self.cache = Some(ConvCache { saved: Saved::Input(saved), rows: n * oh * ow, n, h, w });
        Ok(Tensor::from_vec(out, &[n, oc, oh, ow])?)
    }

    /// The im2col + `gemm_nt` forward pass; caches the patch matrix.
    fn forward_lowered(&mut self, input: &Tensor, n: usize, h: usize, w: usize) -> Result<Tensor> {
        if rdo_obs::enabled() {
            rdo_obs::counter_add("nn.conv.lowered", 1);
        }
        let (oh, ow) = self.geom.output_hw(h, w);
        let (rows, patch, oc) = (n * oh * ow, self.geom.patch_len(), self.geom.out_channels);
        // conv2d_lowered_into writes every element
        let mut out = vec![0.0f32; n * oc * oh * ow];
        let cols = conv2d_lowered_into(
            input,
            &self.geom,
            self.weight.data(),
            self.bias.data(),
            &mut out,
            auto_threads(rows, patch, oc),
        )?;
        self.cache = Some(ConvCache { saved: Saved::Cols(cols), rows, n, h, w });
        Ok(Tensor::from_vec(out, &[n, oc, oh, ow])?)
    }

    /// Accumulates the weight (or, with row groups set, row-group) and
    /// bias gradients for `grad_output` and returns the output gradient
    /// in patch-major `(n·oh·ow, oc)` form, checked out of the scratch
    /// pool, for the input-gradient product.
    fn accumulate_param_grads(&mut self, grad_output: &Tensor) -> Result<Vec<f32>> {
        if self.cache.is_none() {
            return Err(NnError::BackwardBeforeForward { layer: self.name() });
        }
        let cache = self.cache.as_mut().expect("checked above");
        let (rows, patch, oc) = (cache.rows, self.geom.patch_len(), self.geom.out_channels);
        let dims = [cache.n, self.geom.in_channels, cache.h, cache.w];
        let grouped = self.row_groups.is_set();
        if let (false, Saved::Input(x)) = (grouped, &mut cache.saved) {
            // a direct forward pass and dW wanted: lower its input now, once
            let x = Tensor::from_vec(std::mem::take(x), &dims)?;
            let mut cols = scratch::take(rows * patch);
            im2col_into(&x, &self.geom, &mut cols)?;
            scratch::recycle(x.into_vec());
            cache.saved = Saved::Cols(cols);
        }
        let mut gp = scratch::take(rows * oc); // (n·oh·ow, oc)
        nchw_to_patches_into(grad_output, &mut gp);
        if grouped {
            // Σ gp · X_g, X_g read from whichever operand forward cached
            let bounds = self.row_groups.bounds();
            let mut xg = scratch::take(rows * bounds.len());
            match &mut cache.saved {
                Saved::Cols(cols) => group_sums_into(cols, patch, bounds, &mut xg),
                Saved::Input(x) => {
                    // read the cached input as a tensor, then keep it cached
                    let input = Tensor::from_vec(std::mem::take(x), &dims)?;
                    let summed = patch_group_sums_into(&input, &self.geom, bounds, &mut xg);
                    *x = input.into_vec();
                    summed?;
                }
            }
            self.row_groups.accumulate(&xg, &gp);
            scratch::recycle(xg);
        } else {
            let Saved::Cols(cols) = &cache.saved else { unreachable!("lowered above") };
            // dW += gpᵀ · cols — the TN kernel reads gp as stored and
            // accumulates straight into the gradient; no transpose, no temp
            gemm_tn(
                &gp,
                cols,
                self.weight_grad.data_mut(),
                oc,
                rows,
                patch,
                auto_threads(oc, rows, patch),
            );
        }
        for row in gp.chunks_exact(oc) {
            for (b, &g) in self.bias_grad.data_mut().iter_mut().zip(row) {
                *b += g;
            }
        }
        Ok(gp)
    }

    /// The geometry of the stride-1 convolution of dY that yields dX for
    /// a batch of `n` `h × w` inputs, or `None` when dX is lowered. It
    /// is `(out → in channels, k, stride 1, pad k − 1 − p)`, used only
    /// for a stride-1 "same"-padded conv (`2·p + 1 = k`, so dY is `h × w`
    /// too) whose transposed shape passes
    /// [`Conv2dGeometry::direct_forward`]. LeNet's valid conv2 stays
    /// lowered: its full-padded transpose would do twice the FLOPs.
    fn windows_dx_geometry(&self, n: usize, h: usize, w: usize) -> Option<Conv2dGeometry> {
        let Conv2dGeometry { in_channels, out_channels, kernel: k, stride, padding: p } = self.geom;
        if stride != 1 || 2 * p + 1 != k {
            return None;
        }
        let t = Conv2dGeometry::new(out_channels, in_channels, k, 1, k - 1 - p);
        t.direct_forward(n, h, w).then_some(t)
    }

    /// dX as the stride-1 convolution `t` of `grad_output` through
    /// [`conv2d_direct_into`], with the [`transposed_kernel_into`] kernel
    /// `Wt[ci, (o, ky, kx)] = W[o, (ci, k−1−ky, k−1−kx)]` and a zero bias.
    fn input_grad_windows(
        &mut self,
        grad_output: &Tensor,
        t: &Conv2dGeometry,
        dx: &mut [f32],
        threads: usize,
    ) -> Result<()> {
        if rdo_obs::enabled() {
            rdo_obs::counter_add("nn.conv.dx_direct", 1);
        }
        let mut wt = scratch::take(self.weight.len());
        transposed_kernel_into(&self.geom, self.weight.data(), &mut wt)?;
        let bias = scratch::take_zeroed(self.geom.in_channels);
        let done = conv2d_direct_into(grad_output, t, &wt, &bias, dx, threads);
        scratch::recycle(wt);
        scratch::recycle(bias);
        Ok(done?)
    }

    /// dX as `gemm_nn` of the patch-major output gradient `gp` against
    /// the kernel into a `rows × patch` buffer, then [`col2im_into`].
    fn input_grad_lowered(
        &mut self,
        gp: &[f32],
        n: usize,
        h: usize,
        w: usize,
        dx: &mut [f32],
    ) -> Result<()> {
        if rdo_obs::enabled() {
            rdo_obs::counter_add("nn.conv.dx_lowered", 1);
        }
        let (patch, oc, (oh, ow)) =
            (self.geom.patch_len(), self.geom.out_channels, self.geom.output_hw(h, w));
        let rows = n * oh * ow;
        let mut dcols = scratch::take_zeroed(rows * patch);
        gemm_nn(gp, self.weight.data(), &mut dcols, rows, oc, patch, auto_threads(rows, oc, patch));
        let done = col2im_into(&dcols, &self.geom, n, h, w, dx);
        scratch::recycle(dcols);
        Ok(done?)
    }
}

/// Reorders an NCHW tensor into a patch-major matrix `(n·oh·ow, c)`,
/// writing every element of `out` in order (no zeroing required).
fn nchw_to_patches_into(t: &Tensor, out: &mut [f32]) {
    let [n, c, oh, ow] = [t.dims()[0], t.dims()[1], t.dims()[2], t.dims()[3]];
    debug_assert_eq!(out.len(), n * c * oh * ow);
    let hw = oh * ow;
    if hw * c == 0 {
        return;
    }
    for (img, dst) in t.data().chunks_exact(c * hw).zip(out.chunks_exact_mut(hw * c)) {
        for (p, row) in dst.chunks_exact_mut(c).enumerate() {
            for (ch, v) in row.iter_mut().enumerate() {
                *v = img[ch * hw + p];
            }
        }
    }
}

impl Layer for Conv2d {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor> {
        let [n, h, w] = self.geom.check_input("Conv2d::forward", input.dims())?;
        if let Some(stale) = self.cache.take() {
            // the previous batch's buffer becomes this batch's
            scratch::recycle(stale.saved.into_vec());
        }
        if self.geom.direct_forward(n, h, w) {
            self.forward_direct(input, n, h, w)
        } else {
            self.forward_lowered(input, n, h, w)
        }
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let gp = self.accumulate_param_grads(grad_output)?;
        let cache = self.cache.as_ref().expect("checked by accumulate_param_grads");
        let (n, h, w) = (cache.n, cache.h, cache.w);
        let mut dx = vec![0.0f32; n * self.geom.in_channels * h * w];
        match self.windows_dx_geometry(n, h, w) {
            Some(t) => {
                let threads = auto_threads(n * h * w, t.patch_len(), t.out_channels);
                self.input_grad_windows(grad_output, &t, &mut dx, threads)?;
            }
            None => self.input_grad_lowered(&gp, n, h, w, &mut dx)?,
        }
        scratch::recycle(gp);
        Ok(Tensor::from_vec(dx, &[n, self.geom.in_channels, h, w])?)
    }

    fn backward_params_only(&mut self, grad_output: &Tensor) -> Result<()> {
        // first layer of the network (LeNet conv1, the ResNet stem): dX
        // would feed nothing
        let gp = self.accumulate_param_grads(grad_output)?;
        scratch::recycle(gp);
        Ok(())
    }

    fn params(&mut self) -> Vec<Param<'_>> {
        vec![
            Param {
                value: &mut self.weight,
                grad: &mut self.weight_grad,
                kind: ParamKind::ConvWeight {
                    out_channels: self.geom.out_channels,
                    patch_len: self.geom.patch_len(),
                },
            },
            Param { value: &mut self.bias, grad: &mut self.bias_grad, kind: ParamKind::Bias },
        ]
    }

    fn visit_row_groups(&mut self, f: &mut dyn FnMut(&mut RowGroups)) {
        f(&mut self.row_groups);
    }

    fn clear_cache(&mut self) {
        // dropped, not recycled: a cleared cache is meant to leave the
        // memory altogether, not to sit in the thread's pool
        self.cache = None;
    }

    fn name(&self) -> String {
        format!(
            "Conv2d({}→{}, k{}, s{}, p{})",
            self.geom.in_channels,
            self.geom.out_channels,
            self.geom.kernel,
            self.geom.stride,
            self.geom.padding
        )
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdo_tensor::rng::{randn, seeded_rng};

    #[test]
    fn forward_shapes() {
        let mut rng = seeded_rng(0);
        let mut conv = Conv2d::new(2, 5, 3, 2, 1, &mut rng);
        let y = conv.forward(&Tensor::zeros(&[3, 2, 8, 8]), false).unwrap();
        assert_eq!(y.dims(), &[3, 5, 4, 4]);
    }

    #[test]
    fn transposes_match_index_formula() {
        let [n, c, oh, ow] = [2, 3, 4, 5];
        let t = Tensor::from_fn(&[n, c, oh, ow], |i| i as f32);
        let mut p = vec![f32::NAN; n * c * oh * ow];
        nchw_to_patches_into(&t, &mut p);
        for b in 0..n {
            for ch in 0..c {
                for q in 0..oh * ow {
                    let nchw = (b * c + ch) * oh * ow + q;
                    assert_eq!(p[(b * oh * ow + q) * c + ch], nchw as f32);
                }
            }
        }
    }

    #[test]
    fn backward_params_only_matches_backward_bitwise() {
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut rng = seeded_rng(17);
        for (k, stride, padding) in [(5, 1, 2), (3, 1, 1), (3, 2, 1), (1, 2, 0)] {
            let mut full = Conv2d::new(3, 4, k, stride, padding, &mut rng);
            let mut params_only = full.clone();
            let x = randn(&[2, 3, 9, 7], 0.0, 1.0, &mut rng);
            let y = full.forward(&x, false).unwrap();
            let g = randn(y.dims(), 0.0, 1.0, &mut rng);
            // the second batch accumulates on top of the first, as training does
            for _ in 0..2 {
                full.forward(&x, true).unwrap();
                full.backward(&g).unwrap();
                params_only.forward(&x, true).unwrap();
                params_only.backward_params_only(&g).unwrap();
            }
            for (a, b) in full.params().iter().zip(params_only.params().iter()) {
                assert_eq!(bits(a.grad), bits(b.grad), "k{k} s{stride} p{padding}");
            }
        }
    }

    #[test]
    fn scratch_reaches_steady_state_across_batches() {
        // repeated forward/backward must stop allocating once warm
        let mut rng = seeded_rng(3);
        let mut conv = Conv2d::new(2, 4, 3, 1, 1, &mut rng);
        let x = randn(&[2, 2, 6, 6], 0.0, 1.0, &mut rng);
        for _ in 0..2 {
            let y = conv.forward(&x, true).unwrap();
            conv.backward(&y).unwrap();
        }
        let warm = scratch::pooled_capacity();
        assert!(warm > 0, "conv should have pooled its buffers");
        for _ in 0..3 {
            let y = conv.forward(&x, true).unwrap();
            conv.backward(&y).unwrap();
        }
        assert_eq!(scratch::pooled_capacity(), warm, "steady-state batches must not grow the pool");
    }

    #[test]
    fn weight_gradient_matches_finite_difference() {
        let mut rng = seeded_rng(11);
        let mut conv = Conv2d::new(1, 2, 3, 1, 1, &mut rng);
        let x = randn(&[1, 1, 5, 5], 0.0, 1.0, &mut rng);
        let y = conv.forward(&x, true).unwrap();
        conv.zero_grad();
        conv.backward(&y).unwrap();
        let analytic = conv.params()[0].grad.clone();
        let base = conv.weight().clone();
        let eps = 1e-3;
        for idx in [0usize, 4, 8, 9, 17] {
            let mut wp = base.clone();
            wp.data_mut()[idx] += eps;
            conv.set_weight(wp).unwrap();
            let lp = conv.forward(&x, false).unwrap().norm_sq() / 2.0;
            let mut wm = base.clone();
            wm.data_mut()[idx] -= eps;
            conv.set_weight(wm).unwrap();
            let lm = conv.forward(&x, false).unwrap().norm_sq() / 2.0;
            let fd = (lp - lm) / (2.0 * eps);
            let an = analytic.data()[idx];
            assert!((fd - an).abs() < 3e-2 * an.abs().max(1.0), "{fd} vs {an}");
        }
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut rng = seeded_rng(13);
        let mut conv = Conv2d::new(2, 3, 3, 2, 1, &mut rng);
        let x = randn(&[1, 2, 6, 6], 0.0, 1.0, &mut rng);
        let y = conv.forward(&x, true).unwrap();
        let dx = conv.backward(&y).unwrap();
        assert_eq!(dx.dims(), x.dims());
        let eps = 1e-3;
        for idx in [0usize, 10, 35, 71] {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let lp = conv.forward(&xp, false).unwrap().norm_sq() / 2.0;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let lm = conv.forward(&xm, false).unwrap().norm_sq() / 2.0;
            let fd = (lp - lm) / (2.0 * eps);
            let an = dx.data()[idx];
            assert!((fd - an).abs() < 3e-2 * an.abs().max(1.0), "{fd} vs {an}");
        }
    }

    #[test]
    fn conv_equals_linear_for_1x1_full_coverage() {
        // A 1×1 conv on 1×1 images is exactly a Linear layer.
        let mut rng = seeded_rng(5);
        let mut conv = Conv2d::new(4, 3, 1, 1, 0, &mut rng);
        let x = randn(&[2, 4, 1, 1], 0.0, 1.0, &mut rng);
        let y = conv.forward(&x, false).unwrap();
        // manual: y[b][o] = Σ_c W[o][c]·x[b][c]
        for b in 0..2 {
            for o in 0..3 {
                let mut acc = 0.0;
                for c in 0..4 {
                    acc += conv.weight().at(&[o, c]).unwrap() * x.at(&[b, c, 0, 0]).unwrap();
                }
                assert!((acc - y.at(&[b, o, 0, 0]).unwrap()).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn forward_rejects_bad_input_without_panicking() {
        let mut rng = seeded_rng(1);
        let mut conv = Conv2d::new(2, 4, 5, 1, 0, &mut rng);
        for dims in [&[2, 16][..], &[2, 6, 6], &[1, 3, 8, 8], &[1, 2, 4, 9], &[1, 2, 9, 3]] {
            let err = conv.forward(&Tensor::zeros(dims), false).unwrap_err();
            assert!(matches!(err, NnError::Tensor(_)), "{dims:?}: {err:?}");
        }
        // a rejected batch leaves nothing for backward
        assert!(conv.backward(&Tensor::zeros(&[1, 4, 1, 1])).is_err());
        assert!(conv.forward(&Tensor::zeros(&[1, 2, 5, 9]), false).is_ok());
    }

    /// With row groups set, backward accumulates `Σ dY · X_g`: the
    /// row-group reduction of dW, within 1e-5 of its largest entry, on the
    /// direct and the lowered path, at strides 1 and 2, kernels 1/3/5 with
    /// and without padding, with a short last group, with one group over
    /// every row and at batch 1. Two batches accumulate; dX is unchanged
    /// bit for bit and no dW is computed. Inputs are non-negative, as a
    /// core layer's are after a ReLU, so `X_g` does not cancel to a value
    /// far below its rounding error.
    #[test]
    fn row_group_gradient_matches_reduced_weight_gradient() {
        use crate::row_groups::tests::{assert_close, reduce_weight_grad};
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut rng = seeded_rng(29);
        // (in, out, k, stride, pad, h, w)
        for (c, oc, k, s, pad, h, w) in [
            (1, 6, 5, 1, 2, 12, 14),
            (3, 4, 3, 1, 1, 9, 8),
            (3, 4, 3, 1, 0, 9, 10),
            (2, 5, 5, 1, 0, 12, 16),
            (8, 4, 1, 1, 0, 5, 6),
            (3, 4, 3, 2, 1, 9, 8),
            (4, 3, 1, 2, 0, 7, 7),
            (2, 4, 5, 2, 2, 11, 9),
        ] {
            let base = Conv2d::new(c, oc, k, s, pad, &mut rng);
            let patch = base.geom.patch_len();
            let by_eight: Vec<(usize, usize)> =
                (0..patch).step_by(8).map(|r| (r, (r + 8).min(patch))).collect();
            for batch in [1usize, 3] {
                let direct = base.geom.direct_forward(batch, h, w);
                let x = rdo_tensor::rng::rand_uniform(&[batch, c, h, w], 0.0, 1.0, &mut rng);
                let (oh, ow) = base.geom.output_hw(h, w);
                let g = randn(&[batch, oc, oh, ow], 0.0, 1.0, &mut rng);
                for bounds in [by_eight.clone(), vec![(0, patch)]] {
                    for lowered in if direct { vec![false, true] } else { vec![true] } {
                        let tag =
                            format!("c{c} k{k} s{s} p{pad} n{batch} lowered={lowered} {bounds:?}");
                        let (mut full, mut grouped) = (base.clone(), base.clone());
                        grouped.row_groups.set(&bounds).unwrap();
                        for _ in 0..2 {
                            for layer in [&mut full, &mut grouped] {
                                if lowered {
                                    layer.forward_lowered(&x, batch, h, w).unwrap();
                                } else {
                                    layer.forward(&x, true).unwrap();
                                }
                            }
                            let (df, dg) =
                                (full.backward(&g).unwrap(), grouped.backward(&g).unwrap());
                            assert_eq!(bits(&df), bits(&dg), "{tag}: dX");
                            if !lowered {
                                let saved = &grouped.cache.as_ref().unwrap().saved;
                                assert!(
                                    matches!(saved, Saved::Input(_)),
                                    "{tag}: lowered the input"
                                );
                            }
                        }
                        let want = reduce_weight_grad(full.weight_grad.data(), patch, &bounds);
                        assert_close(grouped.row_groups.grad(), &want, &tag);
                        assert!(grouped.weight_grad.data().iter().all(|&v| v == 0.0), "{tag}: dW");
                        assert_eq!(bits(&full.bias_grad), bits(&grouped.bias_grad), "{tag}: db");
                    }
                }
            }
        }
    }

    /// The backward pass of a direct-path conv with row groups set, both
    /// flavours, never builds a patch matrix: its cache stays the input.
    /// Clearing the groups restores the full dW, bit for bit.
    #[test]
    fn grouped_backward_on_the_direct_path_builds_no_patch_matrix() {
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut rng = seeded_rng(31);
        let mut conv = Conv2d::new(3, 4, 3, 1, 1, &mut rng);
        let never_grouped = conv.clone();
        let x = randn(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
        let g = randn(&[2, 4, 8, 8], 0.0, 1.0, &mut rng);
        conv.row_groups.set(&[(0, 16), (16, 27)]).unwrap();
        for params_only in [false, true] {
            conv.forward(&x, false).unwrap();
            if params_only {
                conv.backward_params_only(&g).unwrap();
            } else {
                conv.backward(&g).unwrap();
            }
            assert!(matches!(conv.cache.as_ref().unwrap().saved, Saved::Input(_)));
        }
        conv.row_groups.clear();
        conv.zero_grad();
        let mut reference = never_grouped;
        for layer in [&mut conv, &mut reference] {
            layer.forward(&x, false).unwrap();
            layer.backward(&g).unwrap();
        }
        assert_eq!(bits(&conv.weight_grad), bits(&reference.weight_grad));
    }

    /// A direct forward pass caches the input and lowers it on the first
    /// backward; every result must match a lowered forward pass bit for
    /// bit, for both backward flavours and for two accumulated batches.
    #[test]
    fn direct_forward_matches_lowered_forward_and_gradients_bitwise() {
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut rng = seeded_rng(23);
        // (in, out, k, pad, h, w): LeNet conv1, a ResNet stage, K > KC
        for (c, oc, k, pad, h, w) in
            [(1, 6, 5, 2, 12, 14), (3, 8, 3, 1, 9, 8), (4, 5, 1, 0, 5, 6), (32, 6, 3, 1, 6, 9)]
        {
            let mut direct = Conv2d::new(c, oc, k, 1, pad, &mut rng);
            direct.bias = randn(&[oc], 0.0, 1.0, &mut rng);
            assert!(direct.geom.direct_forward(3, h, w), "case must take the direct path");
            let mut lowered = direct.clone();
            let x = randn(&[3, c, h, w], 0.0, 1.0, &mut rng);
            let g = randn(&[3, oc, h + 2 * pad + 1 - k, w + 2 * pad + 1 - k], 0.0, 1.0, &mut rng);
            for params_only in [false, true] {
                direct.zero_grad();
                lowered.zero_grad();
                for _ in 0..2 {
                    let yd = direct.forward(&x, true).unwrap();
                    assert!(matches!(direct.cache.as_ref().unwrap().saved, Saved::Input(_)));
                    let yl = lowered.forward_lowered(&x, 3, h, w).unwrap();
                    assert_eq!(bits(&yd), bits(&yl), "forward c{c} k{k} p{pad}");
                    if params_only {
                        direct.backward_params_only(&g).unwrap();
                        lowered.backward_params_only(&g).unwrap();
                    } else {
                        let (dd, dl) =
                            (direct.backward(&g).unwrap(), lowered.backward(&g).unwrap());
                        assert_eq!(bits(&dd), bits(&dl), "dX c{c} k{k} p{pad}");
                    }
                }
                for (a, b) in direct.params().iter().zip(lowered.params().iter()) {
                    assert_eq!(bits(a.grad), bits(b.grad), "dW/db c{c} k{k} p{pad}");
                }
            }
        }
    }

    /// Same-padded stride-1 convs compute dX as a direct convolution of
    /// dY; it must stay within 1e-5 of the largest |dX| of the lowered
    /// `gemm_nn` + `col2im` product, be bitwise independent of the thread
    /// count, and be what `backward` returns. Kernels 1/3/5, batch 1 and
    /// 3, transposed patches (`oc·k²`) below and above `KC` = 256.
    #[test]
    fn windows_input_gradient_matches_lowered_input_gradient() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut rng = seeded_rng(37);
        // (in, out, k, pad, h, w)
        for (c, oc, k, pad, h, w) in [
            (3, 4, 3, 1, 9, 8),
            (8, 8, 3, 1, 16, 16),
            (6, 32, 3, 1, 6, 9),
            (4, 6, 5, 2, 12, 13),
            (2, 12, 5, 2, 11, 12),
            (5, 7, 1, 0, 7, 6),
            (3, 300, 1, 0, 5, 6),
        ] {
            let mut conv = Conv2d::new(c, oc, k, 1, pad, &mut rng);
            for n in [1usize, 3] {
                let tag = format!("c{c} oc{oc} k{k} p{pad} n{n}");
                let t = conv.windows_dx_geometry(n, h, w);
                let t = t.unwrap_or_else(|| panic!("{tag}: case must take the windows dX"));
                let x = randn(&[n, c, h, w], 0.0, 1.0, &mut rng);
                let g = randn(&[n, oc, h, w], 0.0, 1.0, &mut rng);
                let mut gp = vec![0.0f32; g.len()];
                nchw_to_patches_into(&g, &mut gp);
                let mut want = vec![0.0f32; x.len()];
                conv.input_grad_lowered(&gp, n, h, w, &mut want).unwrap();
                let windows = |conv: &mut Conv2d, threads: usize| {
                    let mut dx = vec![f32::NAN; x.len()];
                    conv.input_grad_windows(&g, &t, &mut dx, threads).unwrap();
                    dx
                };
                let got = windows(&mut conv, 1);
                assert_eq!(bits(&windows(&mut conv, 3)), bits(&got), "{tag}: threads");
                let scale = want.iter().fold(0.0f32, |m, v| m.max(v.abs()));
                for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                    assert!((a - b).abs() <= 1e-5 * scale, "{tag}: dX[{i}] {a} vs {b}");
                }
                conv.forward(&x, true).unwrap();
                assert_eq!(bits(conv.backward(&g).unwrap().data()), bits(&got), "{tag}: backward");
            }
        }
    }

    #[test]
    fn windows_input_gradient_dispatch_follows_the_shape_rule() {
        // (layer, h = w, windows dX?) for the LeNet and fast-scale ResNet
        // layers at batch 32
        let layers = [
            ((1, 6, 5, 1, 2), 28, false),  // LeNet conv1: one input channel
            ((6, 16, 5, 1, 0), 14, false), // LeNet conv2: valid, not same
            ((3, 8, 3, 1, 1), 16, true),   // ResNet stem
            ((8, 8, 3, 1, 1), 16, true),   // stage 1
            ((16, 16, 3, 1, 1), 8, true),  // stage 2
            ((32, 32, 3, 1, 1), 4, false), // stage 3: 4×4 maps
            ((64, 64, 3, 1, 1), 2, false), // stage 4: 2×2 maps
            ((8, 16, 3, 2, 1), 16, false), // stride 2
            ((8, 16, 1, 2, 0), 16, false), // projection shortcut
        ];
        let mut rng = seeded_rng(41);
        for ((c, oc, k, s, p), hw, want) in layers {
            let conv = Conv2d::new(c, oc, k, s, p, &mut rng);
            let got = conv.windows_dx_geometry(32, hw, hw).is_some();
            assert_eq!(got, want, "{} at {hw}×{hw}", conv.name());
        }
    }
}
