//! Mini-batch training loop.

use std::time::{Duration, Instant};

use rdo_tensor::rng::{permutation, seeded_rng};
use rdo_tensor::Tensor;

use crate::error::{NnError, Result};
use crate::layer::Layer;
use crate::loss::SoftmaxCrossEntropy;
use crate::metrics::accuracy;
use crate::noise::{perturb_core_weights, restore_core_weights};
use crate::optim::Sgd;
use crate::sequential::Sequential;

/// Hyper-parameters for [`fit`].
#[derive(Debug, Clone)]
pub struct TrainConfig {
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Initial learning rate.
    pub lr: f32,
    /// SGD momentum coefficient.
    pub momentum: f32,
    /// L2 weight decay on core weights.
    pub weight_decay: f32,
    /// Multiplicative factor applied to the learning rate after each epoch.
    pub lr_decay: f32,
    /// When set, injects multiplicative lognormal noise of this σ into the
    /// core weights on every forward/backward pass (the DVA baseline's
    /// variation-aware training).
    pub noise_sigma: Option<f32>,
    /// RNG seed for shuffling and noise.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 5,
            batch_size: 32,
            lr: 0.05,
            momentum: 0.9,
            weight_decay: 1e-4,
            lr_decay: 0.85,
            noise_sigma: None,
            seed: 0,
        }
    }
}

/// Summary of a training run, returned by [`fit`].
#[derive(Debug, Clone, Default)]
pub struct TrainReport {
    /// Mean loss per epoch.
    pub epoch_losses: Vec<f32>,
    /// Wall-clock time spent in the loop.
    pub wall_time: Duration,
    /// Accuracy on the training set after the last epoch.
    pub train_accuracy: f32,
}

/// Extracts samples `[start, end)` along the batch axis of an `(n, ...)`
/// tensor. Data is contiguous, so this is a cheap copy of a sub-range.
///
/// # Errors
///
/// Returns an index error if `start > end` or `end` exceeds the batch size.
pub fn batch_slice(t: &Tensor, start: usize, end: usize) -> Result<Tensor> {
    batch_slice_buf(t, start, end, &mut Vec::new())
}

/// [`batch_slice`] through a reusable buffer: `buf`'s storage (not its
/// contents) becomes the new tensor's backing memory, so a caller that
/// hands the storage back after use (`*buf = x.into_vec()`) slices every
/// batch of a loop with zero allocation. The training loops here use
/// exactly that round-trip.
///
/// # Errors
///
/// Returns an index error if `start > end` or `end` exceeds the batch size.
pub fn batch_slice_buf(t: &Tensor, start: usize, end: usize, buf: &mut Vec<f32>) -> Result<Tensor> {
    let dims = t.dims();
    if dims.is_empty() || start > end || end > dims[0] {
        return Err(NnError::Tensor(rdo_tensor::TensorError::IndexOutOfBounds {
            index: vec![start, end],
            shape: dims.to_vec(),
        }));
    }
    let stride: usize = dims[1..].iter().product();
    buf.clear();
    buf.extend_from_slice(&t.data()[start * stride..end * stride]);
    let mut new_dims = dims.to_vec();
    new_dims[0] = end - start;
    Ok(Tensor::from_vec(std::mem::take(buf), &new_dims)?)
}

/// Gathers the samples at `indices` along the batch axis.
///
/// # Errors
///
/// Returns an index error if any index exceeds the batch size.
pub fn batch_gather(t: &Tensor, indices: &[usize]) -> Result<Tensor> {
    batch_gather_buf(t, indices, &mut Vec::new())
}

/// [`batch_gather`] through a reusable buffer — same storage round-trip
/// contract as [`batch_slice_buf`].
///
/// # Errors
///
/// Returns an index error if any index exceeds the batch size.
pub fn batch_gather_buf(t: &Tensor, indices: &[usize], buf: &mut Vec<f32>) -> Result<Tensor> {
    let dims = t.dims();
    if dims.is_empty() {
        return Err(NnError::Tensor(rdo_tensor::TensorError::RankMismatch {
            op: "batch_gather",
            expected: 1,
            actual: 0,
        }));
    }
    let stride: usize = dims[1..].iter().product();
    buf.clear();
    buf.reserve(indices.len() * stride);
    for &i in indices {
        if i >= dims[0] {
            return Err(NnError::Tensor(rdo_tensor::TensorError::IndexOutOfBounds {
                index: vec![i],
                shape: dims.to_vec(),
            }));
        }
        buf.extend_from_slice(&t.data()[i * stride..(i + 1) * stride]);
    }
    let mut new_dims = dims.to_vec();
    new_dims[0] = indices.len();
    Ok(Tensor::from_vec(std::mem::take(buf), &new_dims)?)
}

/// Trains `net` on `(images, labels)` with softmax cross-entropy.
///
/// # Errors
///
/// Returns [`NnError::LabelMismatch`] if sizes disagree, or propagates any
/// layer error.
pub fn fit(
    net: &mut Sequential,
    images: &Tensor,
    labels: &[usize],
    cfg: &TrainConfig,
) -> Result<TrainReport> {
    let _span = rdo_obs::span("nn.fit");
    let n = images.dims()[0];
    if labels.len() != n {
        return Err(NnError::LabelMismatch { batch: n, labels: labels.len() });
    }
    if cfg.batch_size == 0 || cfg.epochs == 0 {
        return Err(NnError::InvalidConfig("batch_size and epochs must be positive".to_string()));
    }
    let start = Instant::now();
    let loss_fn = SoftmaxCrossEntropy::new();
    let mut opt = Sgd::new(cfg.lr).momentum(cfg.momentum).weight_decay(cfg.weight_decay);
    let mut rng = seeded_rng(cfg.seed);
    let mut report = TrainReport::default();

    let mut xbuf: Vec<f32> = Vec::new();
    let mut ybuf: Vec<usize> = Vec::new();
    for _ in 0..cfg.epochs {
        let order = permutation(n, &mut rng);
        let mut epoch_loss = 0.0f32;
        let mut batches = 0usize;
        for chunk in order.chunks(cfg.batch_size) {
            let x = batch_gather_buf(images, chunk, &mut xbuf)?;
            ybuf.clear();
            ybuf.extend(chunk.iter().map(|&i| labels[i]));

            let snapshot = cfg.noise_sigma.map(|sigma| perturb_core_weights(net, sigma, &mut rng));

            let logits = net.forward(&x, true)?;
            let (l, grad) = loss_fn.compute(&logits, &ybuf)?;
            net.zero_grad();
            // nothing reads the input gradient of the first layer
            net.backward_weights_only(&grad)?;

            if let Some(snap) = &snapshot {
                restore_core_weights(net, snap)?;
            }

            opt.step(net)?;
            epoch_loss += l;
            batches += 1;
            xbuf = x.into_vec(); // hand the batch storage back for reuse
        }
        let mean = epoch_loss / batches.max(1) as f32;
        report.epoch_losses.push(mean);
        opt.set_lr(opt.lr() * cfg.lr_decay);
    }

    report.train_accuracy = evaluate(net, images, labels, cfg.batch_size)?;
    // hand the network back holding no forward cache, so neither it nor
    // the copies made of it carry batch buffers
    net.clear_cache();
    report.wall_time = start.elapsed();
    Ok(report)
}

/// Re-estimates batch-norm running statistics by streaming `images`
/// through the network in training mode **without touching any weights**.
///
/// Used after crossbar mapping: the effective weights differ from the
/// trained ones, so the frozen normalization statistics no longer match
/// the activation distributions. Batch norm is a digital unit in
/// ISAAC-style accelerators, so recalibrating it post-writing is a pure
/// digital step, in the same spirit as post-writing tuning.
///
/// The running averages take two passes over the data, so they converge
/// toward the new statistics whatever their starting point. Only one
/// pass is streamed: a train-mode [`crate::BatchNorm2d`] normalizes with
/// the batch's own statistics and its running averages never feed its
/// output, so a second pass would recompute exactly the per-batch
/// `(mean, var)` sequence of the first. Each layer records that sequence
/// and then applies the same running-average updates a second time, in
/// the same order: bitwise the two-pass result at half the forward
/// passes. A network with a layer that is random in train mode
/// ([`Layer::is_stochastic`], e.g. [`crate::Dropout`] with `p > 0`)
/// draws different masks in each pass, so it still streams both.
///
/// # Errors
///
/// Propagates any layer error.
pub fn recalibrate_batchnorm(
    net: &mut Sequential,
    images: &Tensor,
    batch_size: usize,
) -> Result<()> {
    let mut has_norm = false;
    net.visit_batch_norms(&mut |_| has_norm = true);
    if !has_norm {
        // nothing to re-estimate, and the train-mode forwards would have
        // no lasting effect
        return Ok(());
    }
    if net.is_stochastic() {
        stream_train_mode(net, images, batch_size)?;
        return stream_train_mode(net, images, batch_size);
    }
    net.visit_batch_norms(&mut |bn| bn.start_recording());
    let streamed = stream_train_mode(net, images, batch_size);
    let replay = streamed.is_ok();
    net.visit_batch_norms(&mut |bn| bn.finish_recording(replay));
    streamed
}

/// One train-mode forward pass over `images` in `batch_size` batches,
/// outputs discarded.
fn stream_train_mode(net: &mut Sequential, images: &Tensor, batch_size: usize) -> Result<()> {
    let n = images.dims()[0];
    let bs = batch_size.max(1);
    let mut buf: Vec<f32> = Vec::new();
    let mut start = 0usize;
    while start < n {
        let end = (start + bs).min(n);
        let x = batch_slice_buf(images, start, end, &mut buf)?;
        let _ = net.forward(&x, true)?;
        start = end;
        buf = x.into_vec();
    }
    Ok(())
}

/// Uninhabited: no dataset is packed, and every dataset is evaluated by
/// [`evaluate`]. It and [`evaluate_packed`] stay only because the
/// `benchmark/` package names them; both go with that package's
/// declared change (ROADMAP item 5).
#[derive(Debug)]
pub enum PackedDataset {}

impl PackedDataset {
    /// Always `None`, so callers take [`evaluate`].
    pub fn pack(_images: &Tensor, _batch_size: usize) -> Option<PackedDataset> {
        None
    }
}

/// Cannot be called: no [`PackedDataset`] exists.
pub fn evaluate_packed(
    _net: &mut Sequential,
    packed: &PackedDataset,
    _labels: &[usize],
) -> Result<f32> {
    match *packed {}
}

/// Evaluates top-1 accuracy of `net` over a dataset, batched.
///
/// # Errors
///
/// Returns [`NnError::LabelMismatch`] if sizes disagree, or propagates any
/// layer error.
pub fn evaluate(
    net: &mut Sequential,
    images: &Tensor,
    labels: &[usize],
    batch_size: usize,
) -> Result<f32> {
    let _span = rdo_obs::span("nn.evaluate");
    let n = images.dims()[0];
    if labels.len() != n {
        return Err(NnError::LabelMismatch { batch: n, labels: labels.len() });
    }
    if n == 0 {
        return Ok(0.0);
    }
    let bs = batch_size.max(1);
    let mut correct = 0.0f32;
    let mut start = 0usize;
    let mut buf: Vec<f32> = Vec::new();
    while start < n {
        let end = (start + bs).min(n);
        let x = batch_slice_buf(images, start, end, &mut buf)?;
        let logits = net.infer(&x)?;
        correct += accuracy(&logits, &labels[start..end])? * (end - start) as f32;
        start = end;
        buf = x.into_vec();
    }
    Ok(correct / n as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::{Flatten, Relu};
    use crate::conv::Conv2d;
    use crate::linear::Linear;
    use rdo_tensor::rng::{randn, seeded_rng};

    fn toy_problem(n: usize, seed: u64) -> (Tensor, Vec<usize>) {
        let mut rng = seeded_rng(seed);
        let x = randn(&[n, 4], 0.0, 1.0, &mut rng);
        // label = quadrant sign pattern of the first two features
        let labels = (0..n)
            .map(|i| {
                let a = x.data()[i * 4] > 0.0;
                let b = x.data()[i * 4 + 1] > 0.0;
                (a as usize) * 2 + b as usize
            })
            .collect();
        (x, labels)
    }

    fn mlp(seed: u64) -> Sequential {
        let mut rng = seeded_rng(seed);
        let mut net = Sequential::new();
        net.push(Linear::new(4, 16, &mut rng));
        net.push(Relu::new());
        net.push(Linear::new(16, 4, &mut rng));
        net
    }

    #[test]
    fn fit_learns_toy_problem() {
        let (x, y) = toy_problem(256, 1);
        let mut net = mlp(2);
        let cfg = TrainConfig { epochs: 20, batch_size: 32, lr: 0.1, ..Default::default() };
        let report = fit(&mut net, &x, &y, &cfg).unwrap();
        assert!(report.train_accuracy > 0.9, "accuracy {}", report.train_accuracy);
        assert!(report.epoch_losses.last().unwrap() < &0.4);
        assert_eq!(report.epoch_losses.len(), 20);
    }

    /// `fit` hands its network back holding no forward cache, so neither
    /// it nor the copies made of it carry batch buffers.
    #[test]
    fn fitted_network_holds_no_forward_cache() {
        let mut rng = seeded_rng(21);
        let mut net = Sequential::new();
        net.push(Conv2d::new(1, 2, 3, 1, 1, &mut rng));
        net.push(Relu::new());
        net.push(Flatten::new());
        net.push(Linear::new(2 * 4 * 4, 3, &mut rng));
        let x = randn(&[6, 1, 4, 4], 0.0, 1.0, &mut rng);
        let labels: Vec<usize> = (0..6).map(|i| i % 3).collect();
        let cfg = TrainConfig { epochs: 1, batch_size: 4, ..Default::default() };
        fit(&mut net, &x, &labels, &cfg).unwrap();
        let grad = Tensor::zeros(&[6, 3]);
        for mut fitted in [net.clone(), net] {
            assert!(matches!(fitted.backward(&grad), Err(NnError::BackwardBeforeForward { .. })));
        }
    }

    #[test]
    fn noisy_training_still_learns() {
        let (x, y) = toy_problem(256, 3);
        let mut net = mlp(4);
        let cfg = TrainConfig {
            epochs: 25,
            batch_size: 32,
            lr: 0.1,
            noise_sigma: Some(0.3),
            ..Default::default()
        };
        let report = fit(&mut net, &x, &y, &cfg).unwrap();
        assert!(report.train_accuracy > 0.8, "accuracy {}", report.train_accuracy);
    }

    #[test]
    fn batch_slice_and_gather() {
        let t = Tensor::from_fn(&[4, 2], |i| i as f32);
        let s = batch_slice(&t, 1, 3).unwrap();
        assert_eq!(s.dims(), &[2, 2]);
        assert_eq!(s.data(), &[2.0, 3.0, 4.0, 5.0]);
        let g = batch_gather(&t, &[3, 0]).unwrap();
        assert_eq!(g.data(), &[6.0, 7.0, 0.0, 1.0]);
        assert!(batch_slice(&t, 2, 5).is_err());
        assert!(batch_gather(&t, &[9]).is_err());
    }

    #[test]
    fn evaluate_on_constant_net_is_chance_or_zero() {
        let (x, y) = toy_problem(64, 5);
        let mut net = mlp(6);
        let acc = evaluate(&mut net, &x, &y, 16).unwrap();
        assert!((0.0..=1.0).contains(&acc));
    }

    /// The `benchmark/` package falls back to [`evaluate`] on this `None`.
    #[test]
    fn pack_returns_none_for_every_rank() {
        let (x, _) = toy_problem(8, 15);
        assert!(PackedDataset::pack(&x, 4).is_none());
        assert!(PackedDataset::pack(&Tensor::zeros(&[4, 1, 2, 2]), 2).is_none());
    }

    #[test]
    fn invalid_config_rejected() {
        let (x, y) = toy_problem(8, 7);
        let mut net = mlp(8);
        let cfg = TrainConfig { epochs: 0, ..Default::default() };
        assert!(fit(&mut net, &x, &y, &cfg).is_err());
        let cfg = TrainConfig { batch_size: 0, ..Default::default() };
        assert!(fit(&mut net, &x, &y, &cfg).is_err());
    }

    #[test]
    fn label_mismatch_rejected() {
        let (x, _) = toy_problem(8, 9);
        let mut net = mlp(10);
        assert!(fit(&mut net, &x, &[0, 1], &TrainConfig::default()).is_err());
        assert!(evaluate(&mut net, &x, &[0, 1], 4).is_err());
    }

    /// The two-pass loop [`recalibrate_batchnorm`] replaces with one pass
    /// and a replay: the oracle it is pinned to.
    fn recalibrate_two_pass(net: &mut Sequential, images: &Tensor, bs: usize) -> Result<()> {
        stream_train_mode(net, images, bs)?;
        stream_train_mode(net, images, bs)
    }

    fn state_bits(net: &mut Sequential) -> Vec<u32> {
        net.state().iter().flat_map(|t| t.data().iter().map(|v| v.to_bits())).collect()
    }

    /// Recalibrates clones of `net` both ways (batches of 4 over 10
    /// images, so the last batch is short) and requires identical state.
    fn assert_recalibration_matches_two_passes(net: Sequential, dims: &[usize], seed: u64) {
        let mut rng = seeded_rng(seed);
        let mut net = net;
        // move the running statistics off their initial values first
        net.forward(&randn(dims, 1.0, 2.0, &mut rng), true).unwrap();
        let mut dims10 = dims.to_vec();
        dims10[0] = 10;
        let images = randn(&dims10, 0.5, 1.5, &mut rng);
        let (mut one, mut two) = (net.clone(), net.clone());
        recalibrate_batchnorm(&mut one, &images, 4).unwrap();
        recalibrate_two_pass(&mut two, &images, 4).unwrap();
        let got = state_bits(&mut one);
        assert_eq!(got, state_bits(&mut two), "one pass + replay differs from two passes");
        assert_ne!(got, state_bits(&mut net), "recalibration must move the statistics");
        // the recording is off again: a later train-mode pass updates once
        let x = randn(dims, 0.0, 1.0, &mut rng);
        one.forward(&x, true).unwrap();
        two.forward(&x, true).unwrap();
        assert_eq!(state_bits(&mut one), state_bits(&mut two));
    }

    #[test]
    fn one_pass_recalibration_is_bitwise_two_passes() {
        let mut rng = seeded_rng(41);
        let resnet = crate::ResNetConfig::resnet18_scaled(4).build(&mut rng).unwrap();
        assert!(!resnet.is_stochastic());
        assert_recalibration_matches_two_passes(resnet, &[3, 3, 8, 8], 42);
        let vgg = crate::VggConfig::vgg16_scaled(16, 8).build(&mut rng).unwrap();
        assert_recalibration_matches_two_passes(vgg, &[3, 3, 8, 8], 43);
    }

    #[test]
    fn dropout_network_still_matches_two_passes() {
        use crate::{BatchNorm2d, Conv2d, Dropout, Flatten};
        let mut rng = seeded_rng(44);
        for p in [0.5, 0.0] {
            let mut net = Sequential::new();
            net.push(Conv2d::new(2, 4, 3, 1, 1, &mut rng));
            net.push(BatchNorm2d::new(4));
            net.push(Relu::new());
            net.push(Dropout::new(p, 9));
            net.push(Conv2d::new(4, 3, 3, 1, 1, &mut rng));
            net.push(BatchNorm2d::new(3));
            net.push(Flatten::new());
            // only a drop probability above zero makes the passes differ
            assert_eq!(net.is_stochastic(), p > 0.0);
            assert_recalibration_matches_two_passes(net, &[2, 2, 6, 6], 45);
        }
    }

    #[test]
    fn recalibration_without_batch_norm_is_a_no_op() {
        let mut net = mlp(3);
        let before = state_bits(&mut net);
        recalibrate_batchnorm(&mut net, &Tensor::ones(&[5, 4]), 2).unwrap();
        assert_eq!(state_bits(&mut net), before);
    }
}
