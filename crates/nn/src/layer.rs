//! The [`Layer`] trait and parameter plumbing shared by every layer.

use rdo_tensor::Tensor;

use crate::error::Result;
use crate::norm::BatchNorm2d;
use crate::row_groups::RowGroups;

/// What role a trainable parameter plays.
///
/// The crossbar mapping pipeline (in `rdo-core`) maps only *core* weights —
/// convolution kernels and fully-connected matrices — onto RRAM arrays;
/// biases and normalization parameters stay digital, as in ISAAC-style
/// accelerators. `ParamKind` lets that pipeline identify the core weights
/// and recover their matrix geometry without downcasting layer types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ParamKind {
    /// A convolution kernel stored as `(out_channels, patch_len)`.
    ConvWeight {
        /// Number of output channels (rows of the stored matrix).
        out_channels: usize,
        /// `in_channels · kernel²` (columns of the stored matrix).
        patch_len: usize,
    },
    /// A fully-connected weight stored as `(out_features, in_features)`.
    LinearWeight {
        /// Output features (rows of the stored matrix).
        out_features: usize,
        /// Input features (columns of the stored matrix).
        in_features: usize,
    },
    /// A bias vector (kept digital; never mapped to devices).
    Bias,
    /// A batch-norm scale vector.
    NormGamma,
    /// A batch-norm shift vector.
    NormBeta,
}

impl ParamKind {
    /// Returns `true` for parameters that the crossbar pipeline maps onto
    /// RRAM devices (convolution and linear weights).
    pub fn is_core_weight(&self) -> bool {
        matches!(self, ParamKind::ConvWeight { .. } | ParamKind::LinearWeight { .. })
    }
}

/// A mutable view of one trainable parameter: its value, its accumulated
/// gradient, and its role.
#[derive(Debug)]
pub struct Param<'a> {
    /// The parameter tensor.
    pub value: &'a mut Tensor,
    /// The gradient accumulated by the latest `backward` call.
    pub grad: &'a mut Tensor,
    /// Role of this parameter.
    pub kind: ParamKind,
}

/// A differentiable network layer.
///
/// Layers own their parameters and cache whatever activations they need
/// during [`Layer::forward`] so that [`Layer::backward`] can run without
/// re-seeing the input. The contract is strictly
/// `forward → backward → (optimizer step) → zero_grad`, batch by batch.
///
/// Layers are `Send + Sync` and clonable through
/// [`clone_box`](Layer::clone_box): the crossbar pipeline snapshots a
/// trained network before substituting noisy effective weights, and the
/// parallel experiment engine shares a trained network immutably across
/// the worker pool's threads, each of which clones it. Layers hold plain owned
/// data (no interior mutability), so both bounds are automatic.
pub trait Layer: std::fmt::Debug + Send + Sync {
    /// Runs the layer on `input`, caching activations when `train` is true
    /// (and whenever the layer needs them for backward).
    ///
    /// # Errors
    ///
    /// Returns a shape error if `input` does not match the layer geometry.
    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor>;

    /// Propagates `grad_output` backwards, accumulating parameter gradients
    /// and returning the gradient with respect to the layer input.
    ///
    /// # Errors
    ///
    /// Returns [`crate::NnError::BackwardBeforeForward`] if no forward pass
    /// has been cached, or a shape error if `grad_output` is inconsistent.
    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor>;

    /// [`Layer::backward`] for a layer whose input gradient nobody will
    /// consume — the first layer of a network. Accumulates parameter
    /// gradients exactly as `backward` would (bit for bit) but may skip
    /// computing the input gradient. The default falls back to the full
    /// backward pass and discards its result; layers where the input
    /// gradient is a separate product override it to save that work:
    /// [`crate::Linear`] skips its `dY · W` product, and [`crate::Conv2d`]
    /// (LeNet's conv1, the ResNet stem) skips both the patch-gradient
    /// product and its col2im scatter.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Layer::backward`].
    fn backward_params_only(&mut self, grad_output: &Tensor) -> Result<()> {
        self.backward(grad_output).map(|_| ())
    }

    /// Mutable views of every trainable parameter, in a stable order.
    ///
    /// Parameter-free layers return an empty vector (the default).
    fn params(&mut self) -> Vec<Param<'_>> {
        Vec::new()
    }

    /// Clears all accumulated gradients, row-group gradients included.
    fn zero_grad(&mut self) {
        for p in self.params() {
            // plain fill, not map_inplace: a write-only memset instead of
            // a read-modify-write pass (this runs once per batch over
            // every gradient in the network)
            p.grad.data_mut().fill(0.0);
        }
        self.visit_row_groups(&mut RowGroups::zero);
    }

    /// All persistent tensors: trainable parameters plus non-trainable
    /// state such as batch-norm running statistics, in a stable order.
    /// Used for checkpointing a trained network.
    fn state(&mut self) -> Vec<&mut Tensor> {
        self.params().into_iter().map(|p| p.value).collect()
    }

    /// Calls `f` on every [`BatchNorm2d`] inside this layer, in
    /// [`Layer::state`] order. Containers recurse; the default visits
    /// nothing.
    fn visit_batch_norms(&mut self, f: &mut dyn FnMut(&mut BatchNorm2d)) {
        let _ = f;
    }

    /// Calls `f` on the [`RowGroups`] of every core layer inside this
    /// layer ([`crate::Linear`], [`crate::Conv2d`]), in the
    /// [`Layer::params`] order of their core weights. Containers recurse;
    /// the default visits nothing.
    fn visit_row_groups(&mut self, f: &mut dyn FnMut(&mut RowGroups)) {
        let _ = f;
    }

    /// Drops whatever the last forward pass cached for backward, so a
    /// network kept only to be cloned and evaluated carries no
    /// batch-sized buffers into its clones. A following
    /// [`Layer::backward`] returns
    /// [`crate::NnError::BackwardBeforeForward`] until the next forward
    /// pass. Parameters, gradients and state are untouched. Containers
    /// recurse; the default (a layer that caches nothing) does nothing.
    fn clear_cache(&mut self) {}

    /// Whether a train-mode forward pass draws randomness, so that two
    /// passes over the same data see different activations
    /// ([`crate::Dropout`] with `p > 0`). Containers report whether any
    /// child does; the default is `false`.
    fn is_stochastic(&self) -> bool {
        false
    }

    /// A short human-readable layer name for error messages and summaries.
    fn name(&self) -> String;

    /// Clones the layer into a box — object-safe `Clone`.
    fn clone_box(&self) -> Box<dyn Layer>;
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_weight_classification() {
        assert!(ParamKind::ConvWeight { out_channels: 4, patch_len: 9 }.is_core_weight());
        assert!(ParamKind::LinearWeight { out_features: 4, in_features: 9 }.is_core_weight());
        assert!(!ParamKind::Bias.is_core_weight());
        assert!(!ParamKind::NormGamma.is_core_weight());
        assert!(!ParamKind::NormBeta.is_core_weight());
    }
}
