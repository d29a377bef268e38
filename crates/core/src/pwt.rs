//! Post-writing tuning (§III-D): training the digital offsets by
//! backpropagation after the actual conductances are known.
//!
//! Eq. 8 of the paper gives the offset gradient
//! `∂L/∂bᵢ = ∂L/∂z · Σⱼ x_{im+j}`: an offset shared by the `m` weights of
//! one crossbar column over a row group `g` needs only the group's input
//! sum. [`tune`] computes exactly that. It sets each core layer's
//! [`RowGroups`] to the layer's offset groups, so the backward pass
//! accumulates `Σ_batch dY[·,o] · X_g` per group and output (`X_g` the
//! row-group sum of the layer input) instead of the full weight gradient:
//! no dW product, and no backward im2col for a direct-path convolution.
//! The chain rule into the integer NRW domain (`Δ`) and the sign flip of
//! complemented groups turn that into `∂L/∂b`
//! ([`crate::OffsetState::offset_gradient_into`]).
//!
//! Eq. 8's plain gradient descent is available as
//! [`PwtOptimizer::Sgd`]; the default is [`PwtOptimizer::Adam`], whose
//! per-parameter normalization makes one learning rate work across layers
//! with very different `Δ` scales (documented engineering deviation).
//!
//! A best-loss safeguard keeps the best offsets seen, so PWT never ends
//! worse than where it started. It scores the start and each epoch's end
//! by the offsets as they would ship, snapped to the 8-bit register grid,
//! on a fixed subset of at most 64 tuning rows: not a pass over the whole
//! tuning set.
//!
//! [`tune`] also refreshes the evaluation network in place from a
//! transposed-CRW cache and keeps its buffers in a [`PwtScratch`] arena.
//! The unit tests keep the original loop, `tune_reference`, as the test
//! oracle: a full backward pass, the weight gradient reduced over offset
//! groups and a full-rebuild refresh. The two sum the offset gradient in
//! different orders, so their losses agree to rounding, not bit for bit.

use rdo_nn::{
    batch_gather_buf, train::recalibrate_batchnorm, Layer, RowGroups, Sequential,
    SoftmaxCrossEntropy,
};
use rdo_tensor::rng::{permutation, seeded_rng};
use rdo_tensor::Tensor;

use crate::error::{CoreError, Result};
use crate::mapping::{MappedLayer, MappedNetwork};
use crate::scratch::PwtScratch;

/// Update rule for the offsets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PwtOptimizer {
    /// Plain gradient descent, Eq. 8 verbatim: `Δb = −η·∂L/∂b`.
    Sgd {
        /// Learning rate η.
        lr: f32,
    },
    /// Adam with the given step size (in integer offset units).
    Adam {
        /// Step size.
        lr: f32,
    },
}

/// Hyper-parameters for [`tune`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PwtConfig {
    /// Passes over the tuning set.
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Offset update rule.
    pub optimizer: PwtOptimizer,
    /// Multiplicative factor applied to the learning rate after each
    /// epoch (1.0 disables decay).
    pub lr_decay: f32,
    /// RNG seed for shuffling.
    pub seed: u64,
}

impl Default for PwtConfig {
    fn default() -> Self {
        PwtConfig {
            epochs: 5,
            batch_size: 32,
            optimizer: PwtOptimizer::Adam { lr: 1.0 },
            lr_decay: 0.75,
            seed: 0,
        }
    }
}

/// Summary of a PWT run.
#[derive(Debug, Clone, Default)]
pub struct PwtReport {
    /// Mean training-batch loss per epoch, on the continuous offsets.
    pub epoch_losses: Vec<f32>,
    /// Safeguard loss of the starting offsets (the mean-matching
    /// initialization, or the inherited offsets of a warm start) snapped
    /// to the register grid: their mean per-chunk loss on the safeguard's
    /// fixed subset of at most 64 tuning rows, before any training.
    pub initial_loss: f32,
    /// Safeguard loss of the offsets that ship: the snapped offsets with
    /// the lowest subset loss among the start and every epoch's end. Never
    /// above `initial_loss`.
    pub best_loss: f32,
}

#[derive(Debug)]
struct AdamState {
    m: Vec<f32>,
    v: Vec<f32>,
    t: i32,
}

impl AdamState {
    fn for_groups(mapped: &MappedNetwork) -> Self {
        // flat state across all groups of all layers
        let total: usize = mapped.layers().iter().map(|l| l.state.layout().group_count()).sum();
        AdamState { m: vec![0.0; total], v: vec![0.0; total], t: 0 }
    }
}

/// One optimizer step on one layer's offsets — shared verbatim by the
/// fast and reference paths so their offset trajectories agree bit for
/// bit.
fn apply_update(
    optimizer: PwtOptimizer,
    lr_scale: f32,
    adam: &mut AdamState,
    group_base: usize,
    offsets: &mut [f32],
    db: &[f32],
) {
    match optimizer {
        PwtOptimizer::Sgd { lr } => {
            let lr = lr * lr_scale;
            for (b, g) in offsets.iter_mut().zip(db) {
                *b -= lr * g;
            }
        }
        PwtOptimizer::Adam { lr } => {
            let lr = lr * lr_scale;
            let (b1, b2, eps) = (0.9f32, 0.999f32, 1e-8f32);
            let bc1 = 1.0 - b1.powi(adam.t);
            let bc2 = 1.0 - b2.powi(adam.t);
            for (k, (b, g)) in offsets.iter_mut().zip(db).enumerate() {
                let idx = group_base + k;
                adam.m[idx] = b1 * adam.m[idx] + (1.0 - b1) * g;
                adam.v[idx] = b2 * adam.v[idx] + (1.0 - b2) * g * g;
                let mh = adam.m[idx] / bc1;
                let vh = adam.v[idx] / bc2;
                *b -= lr * mh / (vh.sqrt() + eps);
            }
        }
    }
}

/// Validates the run and performs the shared zeroth step: least-squares
/// mean-matching from the measured CRWs (skipped on a `warm` start, which
/// keeps the offsets a previous tune left behind), building the evaluation
/// network and re-estimating batch-norm statistics against the perturbed
/// weights.
fn validate_and_prepare(
    mapped: &mut MappedNetwork,
    images: &Tensor,
    labels: &[usize],
    cfg: &PwtConfig,
    warm: bool,
) -> Result<(usize, Sequential)> {
    if cfg.epochs == 0 || cfg.batch_size == 0 {
        return Err(CoreError::InvalidConfig(
            "PWT epochs and batch size must be positive".to_string(),
        ));
    }
    let n = images.dims()[0];
    if labels.len() != n {
        return Err(CoreError::Nn(rdo_nn::NnError::LabelMismatch {
            batch: n,
            labels: labels.len(),
        }));
    }
    if !warm {
        mapped.init_offsets_mean_matching()?;
    }
    let mut net = mapped.effective_network()?;
    // batch norm is digital: re-estimate its running statistics against
    // the perturbed weights before training the offsets
    recalibrate_batchnorm(&mut net, images, cfg.batch_size)?;
    Ok((n, net))
}

/// Rows the best-loss safeguard scores each candidate on: two default
/// batches.
const SAFEGUARD_ROWS: usize = 64;

/// The best-loss safeguard of both tuning loops: it scores a candidate by
/// the loss of the offsets that would ship (snapped to the register
/// grid), on a fixed subset of the tuning set.
///
/// The subset is at most [`SAFEGUARD_ROWS`] rows, taken at an even stride
/// (`i·n/k`) of the unshuffled set and forwarded in `batch_size` chunks,
/// so a score costs the same whatever the size of the set. Its loss is
/// averaged per chunk. Scoring the snapped offsets makes the kept
/// candidate the one that ships, and its score the reported loss.
#[derive(Debug)]
struct Safeguard {
    rows: Vec<usize>,
    labels: Vec<usize>,
    /// The continuous offsets, flat over all layers, while their snapped
    /// copy is scored.
    held: Vec<f32>,
    xbuf: Vec<f32>,
    probs: Vec<f32>,
}

impl Safeguard {
    fn new(labels: &[usize]) -> Self {
        let n = labels.len();
        let k = n.min(SAFEGUARD_ROWS);
        let rows: Vec<usize> = (0..k).map(|i| i * n / k).collect();
        let labels = rows.iter().map(|&i| labels[i]).collect();
        Safeguard { rows, labels, held: Vec::new(), xbuf: Vec::new(), probs: Vec::new() }
    }

    /// Subset loss of `mapped`'s offsets as they would ship: snaps them to
    /// the register grid, refreshes `net` with `refresh` and forwards the
    /// subset, then restores the continuous offsets and refreshes again,
    /// so training goes on from where it was.
    fn score(
        &mut self,
        mapped: &mut MappedNetwork,
        net: &mut Sequential,
        images: &Tensor,
        batch_size: usize,
        mut refresh: impl FnMut(&MappedNetwork, &mut Sequential) -> Result<()>,
    ) -> Result<f32> {
        let _span = rdo_obs::span("core.pwt.loss_pass");
        let arch = *mapped.config();
        self.held.clear();
        for layer in mapped.layers_mut() {
            self.held.extend_from_slice(layer.state.offsets());
            layer.state.quantize(&arch);
        }
        let loss = refresh(mapped, net).and_then(|()| self.subset_loss(net, images, batch_size));
        let mut at = 0usize;
        for layer in mapped.layers_mut() {
            let offsets = layer.state.offsets_mut();
            offsets.copy_from_slice(&self.held[at..at + offsets.len()]);
            at += offsets.len();
        }
        refresh(mapped, net)?;
        loss
    }

    /// Forward-only loss of `net` on the subset, averaged per chunk.
    fn subset_loss(
        &mut self,
        net: &mut Sequential,
        images: &Tensor,
        batch_size: usize,
    ) -> Result<f32> {
        let loss_fn = SoftmaxCrossEntropy::new();
        let mut total = 0.0f32;
        let mut batches = 0usize;
        for (rows, labels) in self.rows.chunks(batch_size).zip(self.labels.chunks(batch_size)) {
            let x = batch_gather_buf(images, rows, &mut self.xbuf)?;
            let logits = net.forward(&x, false)?;
            total += loss_fn.loss_with_buf(&logits, labels, &mut self.probs)?;
            batches += 1;
            self.xbuf = x.into_vec();
        }
        Ok(total / batches.max(1) as f32)
    }
}

/// Trains the offsets of a programmed [`MappedNetwork`] on the given data,
/// then snaps them to the offset-register grid.
///
/// Runs the incremental fast path with a run-local [`PwtScratch`]; use
/// [`tune_with_scratch`] to reuse the arena across programming cycles.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] if the network has not been
/// programmed or the configuration is degenerate, and propagates layer
/// errors.
pub fn tune(
    mapped: &mut MappedNetwork,
    images: &Tensor,
    labels: &[usize],
    cfg: &PwtConfig,
) -> Result<PwtReport> {
    let mut scratch = PwtScratch::new();
    tune_with_scratch(mapped, images, labels, cfg, &mut scratch)
}

/// [`tune`] with a caller-owned scratch arena, so repeated runs (the §IV
/// multi-cycle protocol) reuse the same buffers instead of re-warming a
/// fresh pool every cycle. The arena is (re)bound to `mapped`'s current
/// programming automatically.
///
/// # Errors
///
/// Same conditions as [`tune`].
pub fn tune_with_scratch(
    mapped: &mut MappedNetwork,
    images: &Tensor,
    labels: &[usize],
    cfg: &PwtConfig,
    scratch: &mut PwtScratch,
) -> Result<PwtReport> {
    tune_impl(mapped, images, labels, cfg, scratch, false)
}

/// Warm-start re-tuning for an *evolved* crossbar: trains the offsets
/// starting from their current values instead of re-running the
/// mean-matching initialization.
///
/// This is the maintenance entry point of a serving lifetime loop: after
/// [`MappedNetwork::evolve_devices`] has decayed the CRWs, the tuned
/// offsets are stale but usually close, so a short incremental re-tune
/// (often a single epoch) recovers most of the lost accuracy at a
/// fraction of a cold [`tune`]'s cost. The best-loss safeguard still
/// applies — if training cannot improve on the inherited offsets, they
/// are kept as-is.
///
/// # Errors
///
/// Same conditions as [`tune`].
pub fn tune_incremental(
    mapped: &mut MappedNetwork,
    images: &Tensor,
    labels: &[usize],
    cfg: &PwtConfig,
    scratch: &mut PwtScratch,
) -> Result<PwtReport> {
    tune_impl(mapped, images, labels, cfg, scratch, true)
}

/// Shared fast-path tuning loop; `warm` selects whether the offsets are
/// re-initialized by mean matching (cold) or inherited (incremental).
fn tune_impl(
    mapped: &mut MappedNetwork,
    images: &Tensor,
    labels: &[usize],
    cfg: &PwtConfig,
    scratch: &mut PwtScratch,
    warm: bool,
) -> Result<PwtReport> {
    let _span = rdo_obs::span("core.pwt");
    let (n, mut net) = {
        let _prepare = rdo_obs::span("core.pwt.recalibrate");
        let (n, mut net) = validate_and_prepare(mapped, images, labels, cfg, warm)?;
        scratch.bind(mapped)?;
        set_row_groups(mapped, &mut net)?;
        (n, net)
    };
    let loss_fn = SoftmaxCrossEntropy::new();
    let mut rng = seeded_rng(cfg.seed);
    let mut report = PwtReport::default();
    let mut xbuf: Vec<f32> = Vec::new();

    // safeguard: remember the best offsets seen, starting from the
    // mean-matching initialization — PWT must never end up worse
    let mut safeguard = Safeguard::new(labels);
    let mut best_loss = safeguard.score(mapped, &mut net, images, cfg.batch_size, |m, net| {
        m.refresh_effective_with(net, scratch)
    })?;
    scratch.save_best(mapped);
    report.initial_loss = best_loss;

    let mut adam = AdamState::for_groups(mapped);
    let mut lr_scale = 1.0f32;
    let mut ybuf: Vec<usize> = Vec::new();
    for _ in 0..cfg.epochs {
        let order = permutation(n, &mut rng);
        let mut epoch_loss = 0.0f32;
        let mut batches = 0usize;
        for chunk in order.chunks(cfg.batch_size) {
            let forward = rdo_obs::span("core.pwt.forward");
            let x = batch_gather_buf(images, chunk, &mut xbuf)?;
            ybuf.clear();
            ybuf.extend(chunk.iter().map(|&i| labels[i]));
            // eval-mode forward: batch-norm statistics stay frozen, but
            // every layer still caches what backward needs
            let logits = net.forward(&x, false)?;
            let (l, grad) = loss_fn.compute(&logits, &ybuf)?;
            drop(forward);
            let backward = rdo_obs::span("core.pwt.backward");
            net.zero_grad();
            // weights-only backward: the first layer's input gradient
            // feeds nothing, so its dX product is skipped outright; the
            // row groups make every core layer accumulate Σ dY·X_g, not dW
            net.backward_weights_only(&grad)?;
            drop(backward);

            let update = rdo_obs::span("core.pwt.offset_update");
            offset_gradients(mapped, &mut net, scratch)?;
            adam.t += 1;
            let mut group_base = 0usize;
            for (layer, ls) in mapped.layers_mut().iter_mut().zip(scratch.layers_mut()) {
                apply_update(
                    cfg.optimizer,
                    lr_scale,
                    &mut adam,
                    group_base,
                    layer.state.offsets_mut(),
                    &ls.db,
                );
                group_base += ls.db.len();
            }
            drop(update);
            let refresh = rdo_obs::span("core.pwt.refresh");
            mapped.refresh_effective_with(&mut net, scratch)?;
            drop(refresh);
            epoch_loss += l;
            batches += 1;
            xbuf = x.into_vec(); // hand the batch storage back for reuse
        }
        let mean = epoch_loss / batches.max(1) as f32;
        report.epoch_losses.push(mean);
        lr_scale *= cfg.lr_decay;
        let current = safeguard.score(mapped, &mut net, images, cfg.batch_size, |m, net| {
            m.refresh_effective_with(net, scratch)
        })?;
        if current < best_loss {
            best_loss = current;
            scratch.save_best(mapped);
        }
    }

    // restore the best offsets observed
    let _refresh = rdo_obs::span("core.pwt.refresh");
    scratch.restore_best(mapped);
    report.best_loss = best_loss;

    // offsets live in 8-bit registers: snap to the grid
    let arch = *mapped.config();
    for layer in mapped.layers_mut() {
        layer.state.quantize(&arch);
    }
    // hand the tuned network (with recalibrated batch-norm statistics)
    // back for evaluation, its layers back on the full weight gradient and
    // holding no forward cache for its clones to copy; its weights are
    // refreshed on clone
    mapped.refresh_effective_with(&mut net, scratch)?;
    net.visit_row_groups(&mut RowGroups::clear);
    net.clear_cache();
    mapped.set_tuned_network(net);
    Ok(report)
}

/// Calls `f` with the index of every mapped layer, the layer, and the
/// [`RowGroups`] of the matching core layer of `net`, stopping at the
/// first error.
///
/// # Errors
///
/// Returns `f`'s first error, or [`CoreError::GradientMismatch`] if `net`
/// has another number of core layers than `mapped`.
fn for_each_row_groups(
    mapped: &MappedNetwork,
    net: &mut Sequential,
    mut f: impl FnMut(usize, &MappedLayer, &mut RowGroups) -> Result<()>,
) -> Result<()> {
    let layers = mapped.layers();
    let (mut visited, mut result) = (0usize, Ok(()));
    net.visit_row_groups(&mut |groups| {
        if let (Some(layer), Ok(())) = (layers.get(visited), &result) {
            result = f(visited, layer, groups);
        }
        visited += 1;
    });
    result?;
    if visited != layers.len() {
        return Err(CoreError::GradientMismatch { expected: layers.len(), actual: visited });
    }
    Ok(())
}

/// Sets every core layer's [`RowGroups`] of `net` to the offset groups of
/// the matching mapped layer, so backward accumulates Eq. 8's group sums.
fn set_row_groups(mapped: &MappedNetwork, net: &mut Sequential) -> Result<()> {
    for_each_row_groups(mapped, net, |_, layer, groups| {
        Ok(groups.set(layer.state.layout().row_bounds())?)
    })
}

/// Eq. 8 for every core layer: turns the group sums `Σ dY·X_g` the last
/// backward pass accumulated into offset gradients, `Δ`-scaled and
/// sign-flipped for complemented groups, in each layer's `db` slot of
/// `scratch`.
fn offset_gradients(
    mapped: &MappedNetwork,
    net: &mut Sequential,
    scratch: &mut PwtScratch,
) -> Result<()> {
    let slots = scratch.layers_mut();
    let bound = slots.len();
    for_each_row_groups(mapped, net, |li, layer, groups| {
        let ls = slots
            .get_mut(li)
            .ok_or(CoreError::GradientMismatch { expected: li + 1, actual: bound })?;
        layer.state.offset_gradient_into(groups.grad(), layer.quant.delta, &mut ls.db)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Method, OffsetConfig};
    use crate::eval::{evaluate_cycles, CycleEvalConfig};
    use crate::gradient::extract_core_gradients;
    use crate::mapping::MappedNetwork;
    use crate::offsets::OffsetState;
    use crate::testutil::{trained_problem_2class, trained_problem_4class as trained_problem};
    use rdo_nn::{evaluate, Conv2d, Flatten, Linear, Relu};
    use rdo_rram::{CellKind, DeviceLut, VariationModel};
    use rdo_tensor::rng::{rand_uniform, seeded_rng};

    /// The original full-rebuild tuning loop, kept as the test oracle for
    /// [`tune`], which sums the same offset gradients in another order: per
    /// batch it runs a full backward pass, clones every core weight
    /// gradient, reduces its transposed `Δ`-scaled copy over offset groups,
    /// and rebuilds each layer's entire effective weight matrix.
    ///
    /// # Errors
    ///
    /// Same conditions as [`tune`].
    fn tune_reference(
        mapped: &mut MappedNetwork,
        images: &Tensor,
        labels: &[usize],
        cfg: &PwtConfig,
    ) -> Result<PwtReport> {
        let _span = rdo_obs::span("core.pwt");
        let (n, mut net) = validate_and_prepare(mapped, images, labels, cfg, false)?;
        let loss_fn = SoftmaxCrossEntropy::new();
        let mut rng = seeded_rng(cfg.seed);
        let mut report = PwtReport::default();

        // safeguard: remember the best offsets seen, starting from the
        // mean-matching initialization — PWT must never end up worse
        let snapshot = |mapped: &MappedNetwork| -> Vec<Vec<f32>> {
            mapped.layers().iter().map(|l| l.state.offsets().to_vec()).collect()
        };
        let mut safeguard = Safeguard::new(labels);
        let mut best_loss =
            safeguard.score(mapped, &mut net, images, cfg.batch_size, |m, net| {
                m.inject_effective_weights(net)
            })?;
        let mut best_offsets = snapshot(mapped);
        report.initial_loss = best_loss;

        let mut adam = AdamState::for_groups(mapped);
        let mut lr_scale = 1.0f32;

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
                // eval-mode forward: batch-norm statistics stay frozen, but
                // every layer still caches what backward needs
                let logits = net.forward(&x, false)?;
                let (l, grad) = loss_fn.compute(&logits, &ybuf)?;
                net.zero_grad();
                net.backward(&grad)?;
                let core_grads = extract_core_gradients(&mut net);

                adam.t += 1;
                let mut group_base = 0usize;
                for (layer, g_w) in mapped.layers_mut().iter_mut().zip(&core_grads) {
                    // ∂L/∂NRW = Δ · ∂L/∂W, in crossbar orientation
                    let delta = layer.quant.delta;
                    let g_nrw = g_w.transpose2()?.scale(delta);
                    let db = layer.state.reduce_gradient(&g_nrw)?;
                    apply_update(
                        cfg.optimizer,
                        lr_scale,
                        &mut adam,
                        group_base,
                        layer.state.offsets_mut(),
                        &db,
                    );
                    group_base += layer.state.layout().group_count();
                }
                mapped.inject_effective_weights(&mut net)?;
                epoch_loss += l;
                batches += 1;
                xbuf = x.into_vec(); // hand the batch storage back for reuse
            }
            let mean = epoch_loss / batches.max(1) as f32;
            report.epoch_losses.push(mean);
            lr_scale *= cfg.lr_decay;
            let current = safeguard.score(mapped, &mut net, images, cfg.batch_size, |m, net| {
                m.inject_effective_weights(net)
            })?;
            if current < best_loss {
                best_loss = current;
                best_offsets = snapshot(mapped);
            }
        }

        // restore the best offsets observed
        for (layer, best) in mapped.layers_mut().iter_mut().zip(&best_offsets) {
            layer.state.offsets_mut().copy_from_slice(best);
        }
        report.best_loss = best_loss;

        // offsets live in 8-bit registers: snap to the grid
        let arch = *mapped.config();
        for layer in mapped.layers_mut() {
            layer.state.quantize(&arch);
        }
        // hand the tuned network (with recalibrated batch-norm statistics)
        // back for evaluation; its weights are refreshed on clone
        mapped.inject_effective_weights(&mut net)?;
        net.clear_cache();
        mapped.set_tuned_network(net);
        Ok(report)
    }

    #[test]
    fn pwt_recovers_accuracy_under_variation() {
        let (net, x, labels) = trained_problem();
        let ideal = evaluate(&mut net.clone(), &x, &labels, 64).unwrap();
        assert!(ideal > 0.9, "training failed: {ideal}");

        let cfg = OffsetConfig::paper(CellKind::Slc, 0.5, 16).unwrap();
        let lut = DeviceLut::analytic(&VariationModel::per_weight(0.5), &cfg.codec).unwrap();
        let mut mapped = MappedNetwork::map(&net, Method::Pwt, &cfg, &lut, None).unwrap();
        mapped.program(&mut seeded_rng(7)).unwrap();

        let mut noisy = mapped.effective_network().unwrap();
        let acc_before = evaluate(&mut noisy, &x, &labels, 64).unwrap();

        let report =
            tune(&mut mapped, &x, &labels, &PwtConfig { epochs: 6, ..Default::default() }).unwrap();
        let mut tuned = mapped.effective_network().unwrap();
        let acc_after = evaluate(&mut tuned, &x, &labels, 64).unwrap();

        assert!(
            acc_after > acc_before + 0.05 || acc_after > ideal - 0.05,
            "PWT did not help: {acc_before} → {acc_after} (ideal {ideal})"
        );
        assert!(report.epoch_losses.first().unwrap() >= report.epoch_losses.last().unwrap());
    }

    #[test]
    fn pwt_loss_decreases_with_sgd_rule() {
        let (net, x, labels) = trained_problem();
        let cfg = OffsetConfig::paper(CellKind::Slc, 0.4, 16).unwrap();
        let lut = DeviceLut::analytic(&VariationModel::per_weight(0.4), &cfg.codec).unwrap();
        let mut mapped = MappedNetwork::map(&net, Method::Pwt, &cfg, &lut, None).unwrap();
        mapped.program(&mut seeded_rng(8)).unwrap();
        // Eq. 8 verbatim: plain SGD on the offsets
        let report = tune(
            &mut mapped,
            &x,
            &labels,
            &PwtConfig {
                epochs: 4,
                optimizer: PwtOptimizer::Sgd { lr: 200.0 },
                ..Default::default()
            },
        )
        .unwrap();
        let first = report.epoch_losses[0];
        let last = *report.epoch_losses.last().unwrap();
        assert!(last <= first * 1.05 + 1e-3, "SGD PWT diverged: {first} → {last}");
    }

    #[test]
    fn offsets_end_up_on_register_grid() {
        let (net, x, labels) = trained_problem();
        let cfg = OffsetConfig::paper(CellKind::Slc, 0.3, 16).unwrap();
        let lut = DeviceLut::analytic(&VariationModel::per_weight(0.3), &cfg.codec).unwrap();
        let mut mapped = MappedNetwork::map(&net, Method::Pwt, &cfg, &lut, None).unwrap();
        mapped.program(&mut seeded_rng(9)).unwrap();
        tune(&mut mapped, &x, &labels, &PwtConfig::default()).unwrap();
        for layer in mapped.layers() {
            for &b in layer.state.offsets() {
                assert_eq!(b, b.round(), "offset {b} not on the integer grid");
                assert!((-128.0..=127.0).contains(&b));
            }
        }
    }

    #[test]
    fn default_config_matches_documented_values() {
        // BenchConfig and the README document 5 tuning epochs; keep the
        // library default pinned to that so env-less runs agree with docs
        let cfg = PwtConfig::default();
        assert_eq!(cfg.epochs, 5);
        assert_eq!(cfg.batch_size, 32);
        assert_eq!(cfg.optimizer, PwtOptimizer::Adam { lr: 1.0 });
        assert!((cfg.lr_decay - 0.75).abs() < f32::EPSILON);
    }

    #[test]
    fn invalid_config_rejected() {
        let (net, x, labels) = trained_problem();
        let cfg = OffsetConfig::paper(CellKind::Slc, 0.3, 16).unwrap();
        let lut = DeviceLut::analytic(&VariationModel::per_weight(0.3), &cfg.codec).unwrap();
        let mut mapped = MappedNetwork::map(&net, Method::Pwt, &cfg, &lut, None).unwrap();
        mapped.program(&mut seeded_rng(10)).unwrap();
        assert!(
            tune(&mut mapped, &x, &labels, &PwtConfig { epochs: 0, ..Default::default() }).is_err()
        );
        assert!(tune(&mut mapped, &x, &[0, 1], &PwtConfig::default()).is_err());
    }

    /// A small conv network: a direct-path conv (stride 1 on a wide
    /// image), a lowered stride-2 conv with a short last offset group at
    /// m = 16, and a classifier — with 16 non-negative 8×8 images.
    fn conv_problem() -> (Sequential, Tensor, Vec<usize>) {
        let mut rng = seeded_rng(41);
        let mut net = Sequential::new();
        net.push(Conv2d::new(1, 4, 3, 1, 1, &mut rng));
        net.push(Relu::new());
        net.push(Conv2d::new(4, 4, 3, 2, 1, &mut rng));
        net.push(Relu::new());
        net.push(Flatten::new());
        net.push(Linear::new(64, 3, &mut rng));
        let x = rand_uniform(&[16, 1, 8, 8], 0.0, 1.0, &mut rng);
        let labels = (0..16).map(|i| i % 3).collect();
        (net, x, labels)
    }

    fn mapped_conv_problem() -> (Sequential, MappedNetwork, Tensor, Vec<usize>) {
        let (net, x, labels) = conv_problem();
        let cfg = OffsetConfig::paper(CellKind::Slc, 0.5, 16).unwrap();
        let lut = DeviceLut::analytic(&VariationModel::per_weight(0.5), &cfg.codec).unwrap();
        let mut mapped = MappedNetwork::map(&net, Method::Pwt, &cfg, &lut, None).unwrap();
        mapped.program(&mut seeded_rng(3)).unwrap();
        mapped.init_offsets_mean_matching().unwrap();
        (net, mapped, x, labels)
    }

    /// The shipped Eq. 8 gradient, complement sign included, equals the
    /// reference reduction of the full weight gradient within 1e-5 of
    /// each layer's largest |∂L/∂b|, on Linear and on direct-path and
    /// lowered conv layers.
    #[test]
    fn offset_gradients_match_the_reduced_weight_gradient_with_complement_sign() {
        let (_, mut mapped, x, labels) = mapped_conv_problem();
        // complement every third group of every layer
        for layer in mapped.layers_mut() {
            let layout = layer.state.layout().clone();
            let flags = (0..layout.group_count()).map(|g| g % 3 == 1).collect();
            let offsets = layer.state.offsets().to_vec();
            layer.state = OffsetState::from_parts(layout, offsets, flags).unwrap();
        }
        let loss_fn = SoftmaxCrossEntropy::new();

        let mut reference = mapped.effective_network().unwrap();
        let (_, grad) = loss_fn.compute(&reference.forward(&x, false).unwrap(), &labels).unwrap();
        reference.zero_grad();
        reference.backward(&grad).unwrap();
        let core_grads = extract_core_gradients(&mut reference);

        let mut net = mapped.effective_network().unwrap();
        let mut scratch = PwtScratch::new();
        scratch.bind(&mapped).unwrap();
        set_row_groups(&mapped, &mut net).unwrap();
        net.forward(&x, false).unwrap();
        net.zero_grad();
        net.backward_weights_only(&grad).unwrap();
        offset_gradients(&mapped, &mut net, &mut scratch).unwrap();

        for (li, (layer, g_w)) in mapped.layers().iter().zip(&core_grads).enumerate() {
            let g_nrw = g_w.transpose2().unwrap().scale(layer.quant.delta);
            let want = layer.state.reduce_gradient(&g_nrw).unwrap();
            let got = &scratch.layers_mut()[li].db;
            let scale = want.iter().fold(0.0f32, |m, v| m.max(v.abs()));
            assert!(scale > 0.0, "layer {li}: zero gradient");
            for (g, (a, b)) in got.iter().zip(&want).enumerate() {
                assert!((a - b).abs() <= 1e-5 * scale, "layer {li} group {g}: {a} vs {b}");
            }
            // the sign flip is live: some complemented group has a gradient
            assert!(want
                .iter()
                .zip(layer.state.complemented())
                .any(|(&v, &c)| c && v.abs() > 1e-3 * scale));
        }
    }

    /// `tune` hands back a network on the full weight gradient: every row
    /// group is unset, and a backward pass gives the same gradients, bit
    /// for bit, as a network with the same state that was never tuned.
    #[test]
    fn tuned_network_has_its_row_groups_cleared() {
        let (net, mut mapped, x, labels) = mapped_conv_problem();
        tune(&mut mapped, &x, &labels, &PwtConfig { epochs: 2, ..Default::default() }).unwrap();
        let mut tuned = mapped.effective_network().unwrap();
        let mut set = 0usize;
        tuned.visit_row_groups(&mut |g| set += usize::from(g.is_set()));
        assert_eq!(set, 0, "row groups left set");

        let mut never_tuned = net.clone();
        for (dst, src) in never_tuned.state().into_iter().zip(tuned.state()) {
            dst.data_mut().copy_from_slice(src.data());
        }
        let loss_fn = SoftmaxCrossEntropy::new();
        let bits = |net: &mut Sequential| -> Vec<Vec<u32>> {
            let (_, grad) = loss_fn.compute(&net.forward(&x, false).unwrap(), &labels).unwrap();
            net.zero_grad();
            net.backward(&grad).unwrap();
            net.params()
                .iter()
                .map(|p| p.grad.data().iter().map(|v| v.to_bits()).collect())
                .collect()
        };
        let tuned_bits = bits(&mut tuned);
        assert!(tuned_bits[0].iter().any(|&b| b != 0), "no weight gradient");
        assert_eq!(tuned_bits, bits(&mut never_tuned));
    }

    type Tuner = fn(&mut MappedNetwork, &Tensor, &[usize], &PwtConfig) -> Result<PwtReport>;
    const TUNERS: [Tuner; 2] = [tune, tune_reference];

    fn programmed_problem(
        kind: CellKind,
        sigma: f64,
        seed: u64,
    ) -> (MappedNetwork, Tensor, Vec<usize>) {
        let (net, x, labels) = trained_problem();
        let cfg = OffsetConfig::paper(kind, sigma, 16).unwrap();
        let lut = DeviceLut::analytic(&VariationModel::per_weight(sigma), &cfg.codec).unwrap();
        let mut mapped = MappedNetwork::map(&net, Method::Pwt, &cfg, &lut, None).unwrap();
        mapped.program(&mut seeded_rng(seed)).unwrap();
        (mapped, x, labels)
    }

    fn offsets_bits(mapped: &MappedNetwork) -> Vec<Vec<u32>> {
        let bits = |l: &MappedLayer| l.state.offsets().iter().map(|b| b.to_bits()).collect();
        mapped.layers().iter().map(bits).collect()
    }

    #[test]
    fn safeguard_subset_is_an_even_stride_of_at_most_64_rows() {
        let s = Safeguard::new(&(0..267).collect::<Vec<_>>());
        assert_eq!(s.rows.len(), SAFEGUARD_ROWS);
        assert_eq!(s.rows[..3], [0, 4, 8]);
        assert_eq!(s.rows.last(), Some(&(63 * 267 / 64)));
        assert!(s.rows.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(s.labels, s.rows, "labels follow their rows");

        // a set no larger than the subset is scored whole
        let s = Safeguard::new(&[1; 40]);
        assert_eq!(s.rows, (0..40).collect::<Vec<_>>());
        assert!(Safeguard::new(&[]).rows.is_empty());
    }

    /// The safeguard scores what ships: `best_loss` is, bit for bit, the
    /// subset loss of the snapped offsets on a fresh evaluation network.
    #[test]
    fn best_loss_is_the_subset_loss_of_the_shipped_offsets() {
        for tuner in TUNERS {
            let (mut mapped, x, labels) = programmed_problem(CellKind::Slc, 0.5, 7);
            assert!(labels.len() > SAFEGUARD_ROWS, "the subset must be a strict subset");
            let cfg = PwtConfig { epochs: 3, ..Default::default() };
            let report = tuner(&mut mapped, &x, &labels, &cfg).unwrap();
            let mut shipped = mapped.effective_network().unwrap();
            let loss =
                Safeguard::new(&labels).subset_loss(&mut shipped, &x, cfg.batch_size).unwrap();
            assert_eq!(
                loss.to_bits(),
                report.best_loss.to_bits(),
                "{loss} vs {}",
                report.best_loss
            );
        }
    }

    /// A run whose every epoch makes things worse ships the snapped
    /// mean-matching start, and reports its loss as the best.
    #[test]
    fn diverging_run_keeps_the_snapped_start() {
        for tuner in TUNERS {
            let (mut mapped, x, labels) = programmed_problem(CellKind::Slc, 0.5, 7);
            let mut start = mapped.clone();
            start.init_offsets_mean_matching().unwrap();
            let arch = *start.config();
            for layer in start.layers_mut() {
                layer.state.quantize(&arch);
            }

            let cfg = PwtConfig {
                epochs: 3,
                optimizer: PwtOptimizer::Adam { lr: 1e6 },
                lr_decay: 1.0,
                ..Default::default()
            };
            let report = tuner(&mut mapped, &x, &labels, &cfg).unwrap();
            assert!(
                report.epoch_losses.iter().all(|&l| l > 2.0 * report.initial_loss),
                "the run did not diverge: {report:?}"
            );
            assert_eq!(report.best_loss.to_bits(), report.initial_loss.to_bits());
            assert_eq!(offsets_bits(&mapped), offsets_bits(&start));
        }
    }

    /// The network `tune` installs holds no forward cache, so neither it
    /// nor the clones `effective_network` makes carry batch buffers.
    #[test]
    fn tuned_network_holds_no_forward_cache() {
        for tuner in TUNERS {
            let (_, mut mapped, x, labels) = mapped_conv_problem();
            tuner(&mut mapped, &x, &labels, &PwtConfig { epochs: 1, ..Default::default() })
                .unwrap();
            let mut tuned = mapped.effective_network().unwrap();
            let grad = Tensor::zeros(&[x.dims()[0], 3]);
            assert!(matches!(
                tuned.backward(&grad),
                Err(rdo_nn::NnError::BackwardBeforeForward { .. })
            ));
        }
    }

    #[test]
    fn unprogrammed_network_rejected() {
        let (net, x, labels) = trained_problem();
        let cfg = OffsetConfig::paper(CellKind::Slc, 0.3, 16).unwrap();
        let lut = DeviceLut::analytic(&VariationModel::per_weight(0.3), &cfg.codec).unwrap();
        let mut mapped = MappedNetwork::map(&net, Method::Pwt, &cfg, &lut, None).unwrap();
        assert!(tune(&mut mapped, &x, &labels, &PwtConfig::default()).is_err());
    }

    #[test]
    fn tune_matches_reference_bitwise() {
        // σ=1.0 drives many offsets into the ±register clamp, exercising the
        // full-recompute fallback of the incremental refresh
        for (kind, sigma) in [
            (CellKind::Slc, 0.5),
            (CellKind::Slc, 1.0),
            (CellKind::Mlc2, 0.5),
            (CellKind::Mlc2, 1.0),
        ] {
            for optimizer in [PwtOptimizer::Adam { lr: 1.0 }, PwtOptimizer::Sgd { lr: 0.05 }] {
                let cfg = PwtConfig { epochs: 3, seed: 11, optimizer, ..Default::default() };

                let (mut fast, x, labels) = programmed_problem(kind, sigma, 7);
                let fast_report = tune(&mut fast, &x, &labels, &cfg).unwrap();

                let (mut reference, _, _) = programmed_problem(kind, sigma, 7);
                let ref_report = tune_reference(&mut reference, &x, &labels, &cfg).unwrap();

                let tag = format!("{kind:?} sigma={sigma} {optimizer:?}");
                // the two paths round the offset gradients differently, so
                // losses agree to a relative 1e-5 (seen: 1 ULP), not bitwise
                let close = |a: f32, b: f32| (a - b).abs() <= 1e-5 * b.abs();
                assert!(
                    close(fast_report.initial_loss, ref_report.initial_loss),
                    "{tag}: initial loss diverged"
                );
                assert!(
                    close(fast_report.best_loss, ref_report.best_loss),
                    "{tag}: best loss diverged"
                );
                assert_eq!(fast_report.epoch_losses.len(), ref_report.epoch_losses.len());
                for (f, r) in fast_report.epoch_losses.iter().zip(&ref_report.epoch_losses) {
                    assert!(close(*f, *r), "{tag}: epoch losses diverged: {f} vs {r}");
                }
                assert_eq!(
                    offsets_bits(&fast),
                    offsets_bits(&reference),
                    "{tag}: offsets diverged"
                );

                // the evaluation networks the two paths hand back agree too
                let mut fast_net = fast.effective_network().unwrap();
                let mut ref_net = reference.effective_network().unwrap();
                let fa = evaluate(&mut fast_net, &x, &labels, 64).unwrap();
                let ra = evaluate(&mut ref_net, &x, &labels, 64).unwrap();
                assert_eq!(fa.to_bits(), ra.to_bits(), "{tag}: accuracy diverged");
            }
        }
    }

    /// Pins the §IV protocol output: the
    /// `per_cycle` accuracies of `evaluate_cycles` must equal a hand-rolled
    /// loop that programs with `seed + c`, runs the *reference* tuner with
    /// `seed + 1000 + c` and evaluates — i.e. the fast path changes nothing
    /// observable, cell kind and clamp regime notwithstanding.
    #[test]
    fn protocol_accuracies_pinned_to_reference_tuner() {
        for (kind, sigma) in [
            (CellKind::Slc, 0.5),
            (CellKind::Mlc2, 0.5),
            (CellKind::Slc, 1.0),
            (CellKind::Mlc2, 1.0),
        ] {
            let (net, x, labels) = trained_problem_2class();
            let cfg = OffsetConfig::paper(kind, sigma, 16).unwrap();
            let lut = DeviceLut::analytic(&VariationModel::per_weight(sigma), &cfg.codec).unwrap();
            let eval_cfg = CycleEvalConfig {
                cycles: 3,
                seed: 21,
                pwt: PwtConfig { epochs: 2, ..Default::default() },
                batch_size: 64,
                threads: 1,
            };

            let mut mapped = MappedNetwork::map(&net, Method::Pwt, &cfg, &lut, None).unwrap();
            let engine =
                evaluate_cycles(&mut mapped, Some((&x, &labels)), &x, &labels, &eval_cfg).unwrap();

            let mut manual = Vec::new();
            let mut fresh = MappedNetwork::map(&net, Method::Pwt, &cfg, &lut, None).unwrap();
            for c in 0..eval_cfg.cycles {
                fresh.program(&mut seeded_rng(eval_cfg.seed.wrapping_add(c as u64))).unwrap();
                let mut pwt_cfg = eval_cfg.pwt;
                pwt_cfg.seed = eval_cfg.seed.wrapping_add(1000 + c as u64);
                tune_reference(&mut fresh, &x, &labels, &pwt_cfg).unwrap();
                let mut net = fresh.effective_network().unwrap();
                manual.push(evaluate(&mut net, &x, &labels, eval_cfg.batch_size).unwrap());
            }

            let engine_bits: Vec<u32> = engine.per_cycle.iter().map(|a| a.to_bits()).collect();
            let manual_bits: Vec<u32> = manual.iter().map(|a| a.to_bits()).collect();
            assert_eq!(engine_bits, manual_bits, "{kind:?} sigma={sigma}: per_cycle diverged");
        }
    }

    /// Property form of the refresh/reduction equivalence: eight seeded
    /// cases, case `i` drawing its program and shuffle seeds from
    /// `seeded_rng(i)`. The seed spaces are tiny because every case runs a
    /// full mapping + programming pipeline; the dense fixed-shape sweeps live
    /// in the `offsets` module's tests.
    #[test]
    fn tune_equivalence_holds_for_sampled_seeds() {
        for case in 0..8 {
            let mut rng = seeded_rng(case);
            let (program_seed, shuffle_seed) = (rng.gen_range(0u64..32), rng.gen_range(0u64..32));
            let cfg = PwtConfig { epochs: 1, seed: shuffle_seed, ..Default::default() };
            let (mut fast, x, labels) = programmed_problem(CellKind::Slc, 0.7, program_seed);
            tune(&mut fast, &x, &labels, &cfg).unwrap();
            let (mut reference, _, _) = programmed_problem(CellKind::Slc, 0.7, program_seed);
            tune_reference(&mut reference, &x, &labels, &cfg).unwrap();
            assert_eq!(offsets_bits(&fast), offsets_bits(&reference), "case {case}");
        }
    }
}
