//! Fully-connected layer.

use rdo_tensor::microkernel::{gemm_nn, gemm_nt, gemm_nt_prepacked, gemm_tn};
use rdo_tensor::rng::Rng;
use rdo_tensor::{auto_threads, rng::kaiming, scratch, PackedA, Tensor};

use crate::error::{NnError, Result};
use crate::layer::{Layer, Param, ParamKind};
use crate::row_groups::{group_sums_into, RowGroups};

/// A fully-connected (dense) layer: `y = x·Wᵀ + b`.
///
/// The weight is stored as an `(out_features, in_features)` matrix — each
/// row is one output neuron — which is also the orientation the crossbar
/// mapper consumes (it transposes to fan-in × fan-out when tiling onto
/// 128-row arrays).
///
/// # Examples
///
/// ```
/// use rdo_nn::{Layer, Linear};
/// use rdo_tensor::rng::seeded_rng;
/// use rdo_tensor::Tensor;
///
/// let mut layer = Linear::new(3, 2, &mut seeded_rng(0));
/// let x = Tensor::ones(&[4, 3]); // batch of 4
/// let y = layer.forward(&x, false)?;
/// assert_eq!(y.dims(), &[4, 2]);
/// # Ok::<(), rdo_nn::NnError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Linear {
    weight: Tensor,
    bias: Tensor,
    weight_grad: Tensor,
    bias_grad: Tensor,
    cached_input: Option<Tensor>,
    in_features: usize,
    out_features: usize,
    // when set, backward accumulates the row-group gradient instead of dW
    row_groups: RowGroups,
}

impl Linear {
    /// Creates a layer with Kaiming-initialized weights and zero bias.
    pub fn new(in_features: usize, out_features: usize, rng: &mut Rng) -> Self {
        Linear {
            weight: kaiming(&[out_features, in_features], in_features, rng),
            bias: Tensor::zeros(&[out_features]),
            weight_grad: Tensor::zeros(&[out_features, in_features]),
            bias_grad: Tensor::zeros(&[out_features]),
            cached_input: None,
            in_features,
            out_features,
            row_groups: RowGroups::new(in_features, out_features),
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// The `(out_features, in_features)` weight matrix.
    pub fn weight(&self) -> &Tensor {
        &self.weight
    }

    /// Replaces the weight matrix (used by the crossbar mapper to inject
    /// effective weights).
    ///
    /// # Errors
    ///
    /// Returns a shape error if `w` is not `(out_features, in_features)`.
    pub fn set_weight(&mut self, w: Tensor) -> Result<()> {
        if w.dims() != [self.out_features, self.in_features] {
            return Err(NnError::Tensor(rdo_tensor::TensorError::ShapeMismatch {
                op: "Linear::set_weight",
                lhs: w.dims().to_vec(),
                rhs: vec![self.out_features, self.in_features],
            }));
        }
        self.weight = w;
        Ok(())
    }

    /// [`Layer::forward_packed`] body: the input micro-panels come from
    /// the pack, so repeated inference over the same batch (the
    /// multi-cycle evaluation loop) skips both the per-call `A` packing
    /// and — when not training — the cached-input clone.
    fn forward_packed_impl(&mut self, packed: &PackedA, train: bool) -> Result<Tensor> {
        if packed.k() != self.in_features {
            return Err(NnError::Tensor(rdo_tensor::TensorError::ShapeMismatch {
                op: "Linear::forward_packed",
                lhs: vec![packed.m(), packed.k()],
                rhs: vec![0, self.in_features],
            }));
        }
        if train {
            self.cached_input =
                Some(Tensor::from_vec(packed.raw().to_vec(), &[packed.m(), packed.k()])?);
        } else {
            // inference never runs backward; dropping the stale cache keeps
            // the backward-before-forward contract honest
            self.cached_input = None;
        }
        let (m, k, n) = (packed.m(), self.in_features, self.out_features);
        let mut y = vec![0.0f32; m * n];
        gemm_nt_prepacked(packed, self.weight.data(), &mut y, n, auto_threads(m, k, n));
        for row in y.chunks_exact_mut(n) {
            for (v, &b) in row.iter_mut().zip(self.bias.data()) {
                *v += b;
            }
        }
        Ok(Tensor::from_vec(y, &[m, n])?)
    }

    /// Shared half of the backward pass: `dW += gᵀ · x` (or, with row
    /// groups set, their `Σ g · X_g` instead) and `db += Σ_batch g`.
    /// Returns the batch size.
    fn accumulate_param_grads(&mut self, grad_output: &Tensor) -> Result<usize> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or_else(|| NnError::BackwardBeforeForward { layer: self.name() })?;
        let batch = grad_output.dims()[0];
        if self.row_groups.is_set() {
            let mut xg = scratch::take(batch * self.row_groups.bounds().len());
            group_sums_into(input.data(), self.in_features, self.row_groups.bounds(), &mut xg);
            self.row_groups.accumulate(&xg, grad_output.data());
            scratch::recycle(xg);
        } else {
            // the TN kernel reads g in its stored (batch, out) orientation
            // and accumulates straight into the gradient — no transpose
            gemm_tn(
                grad_output.data(),
                input.data(),
                self.weight_grad.data_mut(),
                self.out_features,
                batch,
                self.in_features,
                auto_threads(self.out_features, batch, self.in_features),
            );
        }
        for r in 0..batch {
            let row = grad_output.row(r)?;
            for (b, &g) in self.bias_grad.data_mut().iter_mut().zip(row) {
                *b += g;
            }
        }
        Ok(batch)
    }
}

impl Layer for Linear {
    fn forward(&mut self, input: &Tensor, _train: bool) -> Result<Tensor> {
        if input.shape().rank() != 2 || input.dims()[1] != self.in_features {
            return Err(NnError::Tensor(rdo_tensor::TensorError::ShapeMismatch {
                op: "Linear::forward",
                lhs: input.dims().to_vec(),
                rhs: vec![0, self.in_features],
            }));
        }
        self.cached_input = Some(input.clone());
        // y = x · Wᵀ — the weight is consumed in its stored (out, in)
        // orientation by the NT kernel; no transposed copy is made.
        let (m, k, n) = (input.dims()[0], self.in_features, self.out_features);
        let mut y = vec![0.0f32; m * n];
        gemm_nt(input.data(), self.weight.data(), &mut y, m, k, n, auto_threads(m, k, n));
        for row in y.chunks_exact_mut(n) {
            for (v, &b) in row.iter_mut().zip(self.bias.data()) {
                *v += b;
            }
        }
        Ok(Tensor::from_vec(y, &[m, n])?)
    }

    fn forward_packed(&mut self, packed: &PackedA, train: bool) -> Option<Result<Tensor>> {
        Some(self.forward_packed_impl(packed, train))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let batch = self.accumulate_param_grads(grad_output)?;
        // dx = g · W
        let (m, k, n) = (batch, self.out_features, self.in_features);
        let mut dx = vec![0.0f32; m * n];
        gemm_nn(grad_output.data(), self.weight.data(), &mut dx, m, k, n, auto_threads(m, k, n));
        Ok(Tensor::from_vec(dx, &[m, n])?)
    }

    fn backward_params_only(&mut self, grad_output: &Tensor) -> Result<()> {
        // first layer of the network: dx = g · W would feed nothing, so
        // only the parameter gradients are accumulated
        self.accumulate_param_grads(grad_output).map(|_| ())
    }

    fn params(&mut self) -> Vec<Param<'_>> {
        vec![
            Param {
                value: &mut self.weight,
                grad: &mut self.weight_grad,
                kind: ParamKind::LinearWeight {
                    out_features: self.out_features,
                    in_features: self.in_features,
                },
            },
            Param { value: &mut self.bias, grad: &mut self.bias_grad, kind: ParamKind::Bias },
        ]
    }

    fn visit_row_groups(&mut self, f: &mut dyn FnMut(&mut RowGroups)) {
        f(&mut self.row_groups);
    }

    fn clear_cache(&mut self) {
        self.cached_input = None;
    }

    fn name(&self) -> String {
        format!("Linear({}→{})", self.in_features, self.out_features)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdo_tensor::rng::seeded_rng;

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = seeded_rng(1);
        let mut l = Linear::new(4, 3, &mut rng);
        for p in l.params() {
            if p.kind == ParamKind::Bias {
                p.value.map_inplace(|_| 1.0);
            } else {
                p.value.map_inplace(|_| 0.0);
            }
        }
        let y = l.forward(&Tensor::ones(&[2, 4]), false).unwrap();
        assert_eq!(y.dims(), &[2, 3]);
        assert!(y.data().iter().all(|&v| (v - 1.0).abs() < 1e-6));
    }

    #[test]
    fn backward_before_forward_fails() {
        let mut l = Linear::new(2, 2, &mut seeded_rng(0));
        assert!(matches!(
            l.backward(&Tensor::zeros(&[1, 2])),
            Err(NnError::BackwardBeforeForward { .. })
        ));
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut rng = seeded_rng(7);
        let mut l = Linear::new(3, 2, &mut rng);
        let x = rdo_tensor::rng::randn(&[2, 3], 0.0, 1.0, &mut rng);
        // loss = sum(y²)/2, dL/dy = y
        let y = l.forward(&x, true).unwrap();
        l.zero_grad();
        l.backward(&y).unwrap();
        let analytic = l.params()[0].grad.clone();

        let eps = 1e-3f32;
        let base_w = l.weight().clone();
        for idx in [0usize, 3, 5] {
            let mut wp = base_w.clone();
            wp.data_mut()[idx] += eps;
            l.set_weight(wp).unwrap();
            let lp = l.forward(&x, false).unwrap().norm_sq() / 2.0;
            let mut wm = base_w.clone();
            wm.data_mut()[idx] -= eps;
            l.set_weight(wm).unwrap();
            let lm = l.forward(&x, false).unwrap().norm_sq() / 2.0;
            let fd = (lp - lm) / (2.0 * eps);
            let an = analytic.data()[idx];
            assert!((fd - an).abs() < 2e-2 * an.abs().max(1.0), "{fd} vs {an}");
        }
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut rng = seeded_rng(9);
        let mut l = Linear::new(3, 2, &mut rng);
        let x = rdo_tensor::rng::randn(&[1, 3], 0.0, 1.0, &mut rng);
        let y = l.forward(&x, true).unwrap();
        let dx = l.backward(&y).unwrap();
        let eps = 1e-3f32;
        for idx in 0..3 {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let lp = l.forward(&xp, false).unwrap().norm_sq() / 2.0;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let lm = l.forward(&xm, false).unwrap().norm_sq() / 2.0;
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - dx.data()[idx]).abs() < 2e-2 * fd.abs().max(1.0));
        }
    }

    /// With row groups set, backward accumulates `Σ dY · X_g`: the
    /// row-group reduction of dW within 1e-5 of its largest entry, with a
    /// short last group, one group over every row and at batch 1. Inputs
    /// are non-negative, as a core layer's are after a ReLU, so `X_g`
    /// does not cancel to a value far below its rounding error.
    #[test]
    fn row_group_gradient_matches_reduced_weight_gradient() {
        use crate::row_groups::tests::{assert_close, reduce_weight_grad};
        let mut rng = seeded_rng(19);
        let base = Linear::new(37, 6, &mut rng);
        for batch in [1usize, 5] {
            let x = rdo_tensor::rng::rand_uniform(&[batch, 37], 0.0, 1.0, &mut rng);
            let g = rdo_tensor::rng::randn(&[batch, 6], 0.0, 1.0, &mut rng);
            for bounds in [vec![(0, 16), (16, 32), (32, 37)], vec![(0, 37)]] {
                let (mut full, mut grouped) = (base.clone(), base.clone());
                grouped.row_groups.set(&bounds).unwrap();
                for _ in 0..2 {
                    full.forward(&x, true).unwrap();
                    grouped.forward(&x, true).unwrap();
                    let (df, dg) = (full.backward(&g).unwrap(), grouped.backward(&g).unwrap());
                    assert_eq!(df.data(), dg.data(), "dX");
                }
                let want = reduce_weight_grad(full.weight_grad.data(), 37, &bounds);
                assert_close(grouped.row_groups.grad(), &want, &format!("n{batch} {bounds:?}"));
                assert!(grouped.weight_grad.data().iter().all(|&v| v == 0.0), "no dW");
                grouped.zero_grad();
                assert!(grouped.row_groups.grad().iter().all(|&v| v == 0.0), "zero_grad");
            }
        }
    }

    #[test]
    fn set_weight_validates_shape() {
        let mut l = Linear::new(3, 2, &mut seeded_rng(0));
        assert!(l.set_weight(Tensor::zeros(&[2, 3])).is_ok());
        assert!(l.set_weight(Tensor::zeros(&[3, 2])).is_err());
    }

    #[test]
    fn wrong_input_width_rejected() {
        let mut l = Linear::new(3, 2, &mut seeded_rng(0));
        assert!(l.forward(&Tensor::zeros(&[1, 4]), false).is_err());
    }
}
