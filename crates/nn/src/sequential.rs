//! Sequential layer container.

use rdo_tensor::Tensor;

use crate::error::{NnError, Result};
use crate::layer::{Layer, Param};
use crate::norm::BatchNorm2d;
use crate::row_groups::RowGroups;

/// An ordered stack of layers applied one after another.
///
/// `Sequential` itself implements [`Layer`], so stacks nest (residual blocks
/// hold `Sequential` branches, whole networks are `Sequential`s of blocks).
///
/// # Examples
///
/// ```
/// use rdo_nn::{Linear, Relu, Sequential, Layer};
/// use rdo_tensor::rng::seeded_rng;
/// use rdo_tensor::Tensor;
///
/// let mut rng = seeded_rng(0);
/// let mut net = Sequential::new();
/// net.push(Linear::new(4, 8, &mut rng));
/// net.push(Relu::new());
/// net.push(Linear::new(8, 2, &mut rng));
/// let y = net.forward(&Tensor::ones(&[1, 4]), false)?;
/// assert_eq!(y.dims(), &[1, 2]);
/// # Ok::<(), rdo_nn::NnError>(())
/// ```
#[derive(Debug, Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Clone for Sequential {
    fn clone(&self) -> Self {
        Sequential { layers: self.layers.clone() }
    }
}

impl Sequential {
    /// Creates an empty stack.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer to the stack.
    pub fn push(&mut self, layer: impl Layer + 'static) {
        self.layers.push(Box::new(layer));
    }

    /// Appends an already-boxed layer.
    pub fn push_boxed(&mut self, layer: Box<dyn Layer>) {
        self.layers.push(layer);
    }

    /// Number of (direct) layers in the stack.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Returns `true` if the stack holds no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Iterates over the direct sub-layers.
    pub fn iter(&self) -> std::slice::Iter<'_, Box<dyn Layer>> {
        self.layers.iter()
    }

    /// Iterates mutably over the direct sub-layers.
    pub fn iter_mut(&mut self) -> std::slice::IterMut<'_, Box<dyn Layer>> {
        self.layers.iter_mut()
    }

    /// Runs inference (no caching beyond what backward needs) and returns
    /// the logits for a batch.
    ///
    /// # Errors
    ///
    /// Propagates any layer error.
    pub fn infer(&mut self, input: &Tensor) -> Result<Tensor> {
        self.forward(input, false)
    }

    /// Backward pass for a top-level network: identical parameter-gradient
    /// accumulation to [`Layer::backward`] (bit for bit), but the first
    /// layer runs [`Layer::backward_params_only`] since nothing consumes
    /// the gradient with respect to the network input. Training loops that
    /// only step parameters should prefer this over `backward`.
    ///
    /// # Errors
    ///
    /// Propagates any layer error.
    pub fn backward_weights_only(&mut self, grad_output: &Tensor) -> Result<()> {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return Ok(());
        };
        let mut g = grad_output.clone();
        for layer in rest.iter_mut().rev() {
            g = layer.backward(&g)?;
        }
        first.backward_params_only(&g)
    }
}

impl Layer for Sequential {
    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, train)?;
        }
        Ok(x)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let mut g = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g)?;
        }
        Ok(g)
    }

    fn backward_params_only(&mut self, grad_output: &Tensor) -> Result<()> {
        self.backward_weights_only(grad_output)
    }

    fn params(&mut self) -> Vec<Param<'_>> {
        self.layers.iter_mut().flat_map(|l| l.params()).collect()
    }

    fn state(&mut self) -> Vec<&mut Tensor> {
        self.layers.iter_mut().flat_map(|l| l.state()).collect()
    }

    fn visit_batch_norms(&mut self, f: &mut dyn FnMut(&mut BatchNorm2d)) {
        for layer in &mut self.layers {
            layer.visit_batch_norms(f);
        }
    }

    fn visit_row_groups(&mut self, f: &mut dyn FnMut(&mut RowGroups)) {
        for layer in &mut self.layers {
            layer.visit_row_groups(f);
        }
    }

    fn clear_cache(&mut self) {
        for layer in &mut self.layers {
            layer.clear_cache();
        }
    }

    fn name(&self) -> String {
        format!("Sequential[{}]", self.layers.len())
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

impl FromIterator<Box<dyn Layer>> for Sequential {
    fn from_iter<I: IntoIterator<Item = Box<dyn Layer>>>(iter: I) -> Self {
        Sequential { layers: iter.into_iter().collect() }
    }
}

/// An element-wise residual join: `y = f(x) + g(x)` where `f` is the main
/// branch and `g` the shortcut (identity when empty).
///
/// This is the building block of ResNet basic blocks. Backward splits the
/// incoming gradient into both branches and sums the input gradients.
#[derive(Debug, Clone)]
pub struct Residual {
    main: Sequential,
    shortcut: Sequential,
}

impl Residual {
    /// Creates a residual join with a main branch and a (possibly empty)
    /// shortcut branch. An empty shortcut is the identity.
    pub fn new(main: Sequential, shortcut: Sequential) -> Self {
        Residual { main, shortcut }
    }

    /// The main branch.
    pub fn main(&self) -> &Sequential {
        &self.main
    }

    /// The shortcut branch.
    pub fn shortcut(&self) -> &Sequential {
        &self.shortcut
    }
}

impl Layer for Residual {
    fn forward(&mut self, input: &Tensor, train: bool) -> Result<Tensor> {
        let main = self.main.forward(input, train)?;
        let short = if self.shortcut.is_empty() {
            input.clone()
        } else {
            self.shortcut.forward(input, train)?
        };
        main.add(&short).map_err(NnError::from)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let g_main = self.main.backward(grad_output)?;
        let g_short = if self.shortcut.is_empty() {
            grad_output.clone()
        } else {
            self.shortcut.backward(grad_output)?
        };
        g_main.add(&g_short).map_err(NnError::from)
    }

    fn params(&mut self) -> Vec<Param<'_>> {
        let mut p = self.main.params();
        p.extend(self.shortcut.params());
        p
    }

    fn state(&mut self) -> Vec<&mut Tensor> {
        let mut s = self.main.state();
        s.extend(self.shortcut.state());
        s
    }

    fn visit_batch_norms(&mut self, f: &mut dyn FnMut(&mut BatchNorm2d)) {
        self.main.visit_batch_norms(f);
        self.shortcut.visit_batch_norms(f);
    }

    fn visit_row_groups(&mut self, f: &mut dyn FnMut(&mut RowGroups)) {
        self.main.visit_row_groups(f);
        self.shortcut.visit_row_groups(f);
    }

    fn clear_cache(&mut self) {
        self.main.clear_cache();
        self.shortcut.clear_cache();
    }

    fn name(&self) -> String {
        "Residual".to_string()
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Relu;
    use crate::linear::Linear;
    use rdo_tensor::rng::{randn, seeded_rng};

    #[test]
    fn forward_chains_layers() {
        let mut rng = seeded_rng(0);
        let mut net = Sequential::new();
        net.push(Linear::new(3, 5, &mut rng));
        net.push(Relu::new());
        net.push(Linear::new(5, 2, &mut rng));
        let y = net.forward(&Tensor::ones(&[4, 3]), false).unwrap();
        assert_eq!(y.dims(), &[4, 2]);
        assert_eq!(net.len(), 3);
    }

    #[test]
    fn params_are_collected_from_all_layers() {
        let mut rng = seeded_rng(0);
        let mut net = Sequential::new();
        net.push(Linear::new(3, 5, &mut rng));
        net.push(Relu::new());
        net.push(Linear::new(5, 2, &mut rng));
        assert_eq!(net.params().len(), 4); // 2 weights + 2 biases
    }

    #[test]
    fn backward_through_stack_matches_fd() {
        let mut rng = seeded_rng(2);
        let mut net = Sequential::new();
        net.push(Linear::new(3, 4, &mut rng));
        net.push(Relu::new());
        net.push(Linear::new(4, 2, &mut rng));
        let x = randn(&[1, 3], 0.0, 1.0, &mut rng);
        let y = net.forward(&x, true).unwrap();
        let dx = net.backward(&y).unwrap();
        let eps = 1e-3;
        for idx in 0..3 {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let lp = net.forward(&xp, false).unwrap().norm_sq() / 2.0;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let lm = net.forward(&xm, false).unwrap().norm_sq() / 2.0;
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - dx.data()[idx]).abs() < 3e-2 * fd.abs().max(1.0));
        }
    }

    /// Runs `backward` on `net` and `backward_weights_only` on a clone, and
    /// asserts every parameter gradient agrees bit for bit.
    fn assert_weights_only_matches(net: Sequential, x: &Tensor, g: &Tensor) {
        let mut full = net.clone();
        let mut weights_only = net;
        full.forward(x, true).unwrap();
        full.backward(g).unwrap();
        weights_only.forward(x, true).unwrap();
        weights_only.backward_weights_only(g).unwrap();

        for (a, b) in full.params().iter().zip(weights_only.params().iter()) {
            assert_eq!(
                a.grad.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                b.grad.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "parameter gradients must be bitwise identical ({:?})",
                a.kind
            );
        }
    }

    #[test]
    fn backward_weights_only_matches_full_backward_bitwise() {
        let mut rng = seeded_rng(5);
        let mut mlp = Sequential::new();
        mlp.push(Linear::new(6, 8, &mut rng));
        mlp.push(Relu::new());
        mlp.push(Linear::new(8, 3, &mut rng));
        let x = randn(&[4, 6], 0.0, 1.0, &mut rng);
        let g = randn(&[4, 3], 0.0, 1.0, &mut rng);
        assert_weights_only_matches(mlp, &x, &g);

        // conv-first networks: LeNet's conv1 and the ResNet stem run
        // Conv2d::backward_params_only, which skips dX and its col2im
        let lenet = crate::LeNetConfig::scaled().build(&mut rng).unwrap();
        let x = randn(&[3, 1, 28, 28], 0.0, 1.0, &mut rng);
        let g = randn(&[3, 10], 0.0, 1.0, &mut rng);
        assert_weights_only_matches(lenet, &x, &g);

        let resnet = crate::ResNetConfig::resnet18_scaled(4).build(&mut rng).unwrap();
        let x = randn(&[2, 3, 8, 8], 0.0, 1.0, &mut rng);
        let g = randn(&[2, 10], 0.0, 1.0, &mut rng);
        assert_weights_only_matches(resnet, &x, &g);
    }

    #[test]
    fn residual_identity_shortcut() {
        let mut rng = seeded_rng(1);
        let mut main = Sequential::new();
        main.push(Linear::new(4, 4, &mut rng));
        let mut res = Residual::new(main, Sequential::new());
        let x = randn(&[2, 4], 0.0, 1.0, &mut rng);
        let y = res.forward(&x, true).unwrap();
        // y = Wx+b + x, so y - x = main(x)
        let mut main2 = Sequential::new();
        main2.push_boxed(res.main().iter().next().unwrap().clone());
        let m = main2.forward(&x, false).unwrap();
        let diff = y.sub(&x).unwrap();
        for (a, b) in diff.data().iter().zip(m.data()) {
            assert!((a - b).abs() < 1e-5);
        }
    }

    #[test]
    fn residual_backward_sums_branches() {
        let mut rng = seeded_rng(6);
        let mut main = Sequential::new();
        main.push(Linear::new(3, 3, &mut rng));
        let mut short = Sequential::new();
        short.push(Linear::new(3, 3, &mut rng));
        let mut res = Residual::new(main, short);
        let x = randn(&[1, 3], 0.0, 1.0, &mut rng);
        let y = res.forward(&x, true).unwrap();
        let dx = res.backward(&y).unwrap();
        let eps = 1e-3;
        for idx in 0..3 {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let lp = res.forward(&xp, false).unwrap().norm_sq() / 2.0;
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let lm = res.forward(&xm, false).unwrap().norm_sq() / 2.0;
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - dx.data()[idx]).abs() < 3e-2 * fd.abs().max(1.0));
        }
    }

    /// After `clear_cache`, every caching layer kind refuses backward
    /// until it sees another forward pass, and that pass backpropagates
    /// exactly as in a network that was never cleared.
    #[test]
    fn clear_cache_forgets_every_forward_pass() {
        use crate::{BatchNorm2d, Conv2d, Flatten, GlobalAvgPool, MaxPool2d};
        let mut rng = seeded_rng(9);
        let mut block = Sequential::new();
        block.push(Conv2d::new(4, 4, 3, 1, 1, &mut rng));
        let mut net = Sequential::new();
        net.push(Conv2d::new(2, 4, 3, 1, 1, &mut rng));
        net.push(BatchNorm2d::new(4));
        net.push(Relu::new());
        net.push(MaxPool2d::new(2));
        net.push(Residual::new(block, Sequential::new()));
        net.push(GlobalAvgPool::new());
        net.push(Flatten::new());
        net.push(Linear::new(4, 3, &mut rng));
        let x = randn(&[2, 2, 6, 6], 0.0, 1.0, &mut rng);
        let g = randn(&[2, 3], 0.0, 1.0, &mut rng);

        let mut never_cleared = net.clone();
        let mut outputs = Vec::new();
        let mut y = x.clone();
        for layer in net.iter_mut() {
            y = layer.forward(&y, false).unwrap();
            outputs.push(y.clone());
        }
        net.clear_cache();
        for (layer, out) in net.iter_mut().zip(&outputs) {
            assert!(
                matches!(layer.backward(out), Err(NnError::BackwardBeforeForward { .. })),
                "{} kept its forward cache",
                layer.name()
            );
        }

        let grads = |net: &mut Sequential| -> Vec<Vec<u32>> {
            // eval mode, as PWT runs it: no running-statistics update, so
            // both networks see the same pass
            net.zero_grad();
            net.forward(&x, false).unwrap();
            net.backward(&g).unwrap();
            net.params()
                .iter()
                .map(|p| p.grad.data().iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        assert_eq!(grads(&mut net), grads(&mut never_cleared));
    }

    #[test]
    fn cloning_snapshots_weights() {
        let mut rng = seeded_rng(3);
        let mut net = Sequential::new();
        net.push(Linear::new(2, 2, &mut rng));
        let snapshot = net.clone();
        // mutate original weights
        for p in net.params() {
            p.value.map_inplace(|v| v + 100.0);
        }
        let x = Tensor::ones(&[1, 2]);
        let y_orig = net.forward(&x, false).unwrap();
        let y_snap = snapshot.clone().forward(&x, false).unwrap();
        assert!((y_orig.data()[0] - y_snap.data()[0]).abs() > 1.0);
    }
}
