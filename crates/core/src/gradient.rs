//! Core-weight access helpers and training-set gradient measurement.
//!
//! VAWO's objective (Eq. 5) weights each weight's write variance by the
//! squared loss gradient `(∂L/∂wᵢ)²`, "obtained by running inference on the
//! training dataset; it equals the mean of the gradients of all the
//! training samples" (§III-B). [`mean_core_gradients`] measures exactly
//! that.

use rdo_nn::{batch_slice, Layer, ParamKind, Sequential, SoftmaxCrossEntropy};
use rdo_tensor::Tensor;

use crate::error::{CoreError, Result};

/// Shape/role description of one core weight, in network storage
/// orientation (`(out, in)` matrices).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreWeightInfo {
    /// The parameter role (carries the matrix geometry).
    pub kind: ParamKind,
    /// Rows of the stored matrix (`out_channels` / `out_features`).
    pub rows: usize,
    /// Columns of the stored matrix (`patch_len` / `in_features`).
    pub cols: usize,
}

fn info_of(kind: ParamKind) -> Option<CoreWeightInfo> {
    match kind {
        ParamKind::ConvWeight { out_channels, patch_len } => {
            Some(CoreWeightInfo { kind, rows: out_channels, cols: patch_len })
        }
        ParamKind::LinearWeight { out_features, in_features } => {
            Some(CoreWeightInfo { kind, rows: out_features, cols: in_features })
        }
        _ => None,
    }
}

/// Lists every core weight of the network, in stable enumeration order.
pub fn core_weight_infos(net: &mut Sequential) -> Vec<CoreWeightInfo> {
    net.params().iter().filter_map(|p| info_of(p.kind)).collect()
}

/// Clones every core weight tensor, in enumeration order.
pub fn extract_core_weights(net: &mut Sequential) -> Vec<Tensor> {
    net.params().into_iter().filter(|p| p.kind.is_core_weight()).map(|p| p.value.clone()).collect()
}

/// Clones every core weight *gradient* tensor, in enumeration order: the
/// full weight gradient the PWT test oracle reduces over offset groups.
#[cfg(test)]
pub(crate) fn extract_core_gradients(net: &mut Sequential) -> Vec<Tensor> {
    net.params().into_iter().filter(|p| p.kind.is_core_weight()).map(|p| p.grad.clone()).collect()
}

/// Overwrites every core weight with the supplied tensors, in enumeration
/// order. Biases and normalization parameters are untouched.
///
/// # Errors
///
/// Returns [`CoreError::GradientMismatch`] if the count differs or
/// [`CoreError::InvalidConfig`] on a shape mismatch.
pub fn inject_core_weights(net: &mut Sequential, weights: &[Tensor]) -> Result<()> {
    let mut it = weights.iter();
    let mut injected = 0usize;
    for p in net.params() {
        if p.kind.is_core_weight() {
            let w = it
                .next()
                .ok_or(CoreError::GradientMismatch { expected: injected, actual: weights.len() })?;
            if w.dims() != p.value.dims() {
                return Err(CoreError::InvalidConfig(format!(
                    "weight {} shape {:?} does not match layer shape {:?}",
                    injected,
                    w.dims(),
                    p.value.dims()
                )));
            }
            *p.value = w.clone();
            injected += 1;
        }
    }
    if it.next().is_some() {
        return Err(CoreError::GradientMismatch { expected: injected, actual: weights.len() });
    }
    Ok(())
}

/// Measures the mean loss gradient of every core weight over a dataset —
/// the `∂L/∂wᵢ` of Eq. 5.
///
/// The network runs in evaluation mode (frozen batch-norm statistics),
/// because VAWO operates on the *trained* network about to be written to
/// the crossbar.
///
/// # Errors
///
/// Propagates any layer or loss error.
pub fn mean_core_gradients(
    net: &mut Sequential,
    images: &Tensor,
    labels: &[usize],
    batch_size: usize,
) -> Result<Vec<Tensor>> {
    let n = images.dims()[0];
    if labels.len() != n {
        return Err(CoreError::Nn(rdo_nn::NnError::LabelMismatch {
            batch: n,
            labels: labels.len(),
        }));
    }
    let loss = SoftmaxCrossEntropy::new();
    net.zero_grad();
    let bs = batch_size.max(1);
    let mut batches = 0usize;
    let mut start = 0usize;
    while start < n {
        let end = (start + bs).min(n);
        let x = batch_slice(images, start, end)?;
        let logits = net.forward(&x, false)?;
        let (_, grad) = loss.compute(&logits, &labels[start..end])?;
        // the first layer's input gradient feeds nothing
        net.backward_weights_only(&grad)?;
        batches += 1;
        start = end;
    }
    // the trained network goes on to be mapped and copied: it keeps no
    // forward cache
    net.clear_cache();
    // gradients accumulated over batches; average them
    let scale = 1.0 / batches.max(1) as f32;
    Ok(net
        .params()
        .into_iter()
        .filter(|p| p.kind.is_core_weight())
        .map(|p| p.grad.scale(scale))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdo_nn::{Conv2d, Flatten, Linear, Relu};
    use rdo_tensor::rng::{randn, seeded_rng};

    fn mlp(seed: u64) -> Sequential {
        let mut rng = seeded_rng(seed);
        let mut net = Sequential::new();
        net.push(Linear::new(3, 5, &mut rng));
        net.push(Relu::new());
        net.push(Linear::new(5, 2, &mut rng));
        net
    }

    #[test]
    fn infos_cover_core_weights() {
        let mut net = mlp(0);
        let infos = core_weight_infos(&mut net);
        assert_eq!(infos.len(), 2);
        assert_eq!((infos[0].rows, infos[0].cols), (5, 3));
        assert_eq!((infos[1].rows, infos[1].cols), (2, 5));
    }

    #[test]
    fn extract_inject_roundtrip() {
        let mut net = mlp(1);
        let before = extract_core_weights(&mut net);
        let doubled: Vec<Tensor> = before.iter().map(|w| w.scale(2.0)).collect();
        inject_core_weights(&mut net, &doubled).unwrap();
        let after = extract_core_weights(&mut net);
        for (a, b) in after.iter().zip(&before) {
            for (x, y) in a.data().iter().zip(b.data()) {
                assert!((x - 2.0 * y).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn inject_validates_count_and_shape() {
        let mut net = mlp(2);
        let w = extract_core_weights(&mut net);
        assert!(inject_core_weights(&mut net, &w[..1]).is_err());
        let mut wrong = w.clone();
        wrong[0] = Tensor::zeros(&[1, 1]);
        assert!(inject_core_weights(&mut net, &wrong).is_err());
        let mut too_many = w.clone();
        too_many.push(Tensor::zeros(&[1, 1]));
        assert!(inject_core_weights(&mut net, &too_many).is_err());
    }

    #[test]
    fn mean_gradients_match_manual_single_batch() {
        let mut net = mlp(3);
        let mut rng = seeded_rng(4);
        let x = randn(&[8, 3], 0.0, 1.0, &mut rng);
        let labels: Vec<usize> = (0..8).map(|i| i % 2).collect();
        let g_all = mean_core_gradients(&mut net, &x, &labels, 8).unwrap();

        // manual: single forward/backward
        let loss = SoftmaxCrossEntropy::new();
        net.zero_grad();
        let logits = net.forward(&x, false).unwrap();
        let (_, grad) = loss.compute(&logits, &labels).unwrap();
        net.backward(&grad).unwrap();
        let manual = extract_core_gradients(&mut net);
        for (a, b) in g_all.iter().zip(&manual) {
            for (x, y) in a.data().iter().zip(b.data()) {
                assert!((x - y).abs() < 1e-5);
            }
        }
    }

    /// A conv + linear net: the direct and the lowered conv paths, both
    /// taking part in the weights-only backward.
    fn conv_net(seed: u64) -> (Sequential, Tensor, Vec<usize>) {
        let mut rng = seeded_rng(seed);
        let mut net = Sequential::new();
        net.push(Conv2d::new(1, 3, 3, 1, 1, &mut rng));
        net.push(Relu::new());
        net.push(Conv2d::new(3, 4, 3, 2, 1, &mut rng));
        net.push(Relu::new());
        net.push(Flatten::new());
        net.push(Linear::new(4 * 4 * 4, 3, &mut rng));
        let x = randn(&[10, 1, 8, 8], 0.0, 1.0, &mut rng);
        let labels = (0..10).map(|i| i % 3).collect();
        (net, x, labels)
    }

    /// Skipping the first layer's dX leaves every accumulated gradient
    /// bit for bit what the full backward pass accumulates, over several
    /// batches (the last one short).
    #[test]
    fn mean_core_gradients_match_full_backward_bitwise() {
        let (mut net, x, labels) = conv_net(8);
        let mut full = net.clone();
        let got = mean_core_gradients(&mut net, &x, &labels, 4).unwrap();

        let loss = SoftmaxCrossEntropy::new();
        full.zero_grad();
        for start in (0..10).step_by(4) {
            let end = (start + 4).min(10);
            let logits = full.forward(&batch_slice(&x, start, end).unwrap(), false).unwrap();
            let (_, grad) = loss.compute(&logits, &labels[start..end]).unwrap();
            full.backward(&grad).unwrap();
        }
        let want: Vec<Tensor> =
            extract_core_gradients(&mut full).iter().map(|g| g.scale(1.0 / 3.0)).collect();
        assert_eq!(got.len(), want.len());
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (a, b) in got.iter().zip(&want) {
            assert_eq!(bits(a), bits(b));
        }
    }

    /// The measured network holds no forward cache afterwards, so neither
    /// it nor the copies mapping makes of it carry batch buffers.
    #[test]
    fn measured_network_holds_no_forward_cache() {
        let (mut net, x, labels) = conv_net(9);
        mean_core_gradients(&mut net, &x, &labels, 4).unwrap();
        let grad = Tensor::zeros(&[x.dims()[0], 3]);
        for mut measured in [net.clone(), net] {
            assert!(matches!(
                measured.backward(&grad),
                Err(rdo_nn::NnError::BackwardBeforeForward { .. })
            ));
        }
    }

    #[test]
    fn batching_does_not_change_mean_gradient_much() {
        // equal batch sizes ⇒ averaging over batches equals the full mean
        let mut net1 = mlp(5);
        let mut net2 = mlp(5);
        let mut rng = seeded_rng(6);
        let x = randn(&[16, 3], 0.0, 1.0, &mut rng);
        let labels: Vec<usize> = (0..16).map(|i| i % 2).collect();
        let g1 = mean_core_gradients(&mut net1, &x, &labels, 16).unwrap();
        let g2 = mean_core_gradients(&mut net2, &x, &labels, 4).unwrap();
        for (a, b) in g1.iter().zip(&g2) {
            for (p, q) in a.data().iter().zip(b.data()) {
                assert!((p - q).abs() < 1e-5, "{p} vs {q}");
            }
        }
    }

    #[test]
    fn label_mismatch_rejected() {
        let mut net = mlp(7);
        let x = Tensor::zeros(&[4, 3]);
        assert!(mean_core_gradients(&mut net, &x, &[0, 1], 2).is_err());
    }
}
