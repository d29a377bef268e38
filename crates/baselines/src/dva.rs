//! The DVA baseline: variation-aware training (Long et al., "Design of
//! reliable DNN accelerator with un-reliable ReRAM", DATE 2019 — \[9\] in
//! the paper).
//!
//! DVA injects the device's multiplicative lognormal noise into the
//! weights *during training*, so the network converges to a
//! flat-minimum solution that tolerates the same noise at deployment. It
//! uses the one-crossbar architecture with 8 SLCs per weight and no
//! offsets, so deployment is exactly the plain mapping.

use rdo_core::{
    evaluate_cycles, CycleEvalConfig, CycleEvaluation, MappedNetwork, Method, OffsetConfig,
};
use rdo_nn::{fit, Sequential, TrainConfig, TrainReport};
use rdo_rram::{CellKind, DeviceLut, VariationModel};
use rdo_tensor::Tensor;

use crate::error::{BaselineError, Result};

/// Configuration of the DVA baseline.
#[derive(Debug, Clone)]
pub struct DvaConfig {
    /// Training hyper-parameters (the noise σ is injected on top).
    pub train: TrainConfig,
    /// Lognormal σ injected during training (matched to the deployment
    /// variation).
    pub sigma: f64,
}

impl DvaConfig {
    /// DVA at the given σ with default training hyper-parameters.
    pub fn new(sigma: f64) -> Self {
        DvaConfig { train: TrainConfig::default(), sigma }
    }
}

/// Trains (or fine-tunes) a network with DVA's noise injection.
///
/// # Errors
///
/// Propagates training errors.
pub fn train_dva(
    net: &mut Sequential,
    images: &Tensor,
    labels: &[usize],
    cfg: &DvaConfig,
) -> Result<TrainReport> {
    let _span = rdo_obs::span("baseline.dva.train");
    let mut tc = cfg.train.clone();
    tc.noise_sigma = Some(cfg.sigma as f32);
    fit(net, images, labels, &tc).map_err(BaselineError::from)
}

/// Deploys a DVA-trained network on its one-crossbar 8-SLC architecture
/// (plain mapping, no offsets) and measures accuracy over programming
/// cycles — the Table III evaluation.
///
/// `calibration_images`, when given, re-estimates batch-norm running
/// statistics on each cycle's deployed network before evaluating — the
/// digital post-writing step granted to every method for a fair
/// deep-network comparison.
///
/// # Errors
///
/// Propagates mapping and evaluation errors.
pub fn evaluate_dva(
    net: &Sequential,
    test_images: &Tensor,
    test_labels: &[usize],
    sigma: f64,
    eval: &CycleEvalConfig,
    calibration_images: Option<&Tensor>,
) -> Result<CycleEvaluation> {
    // DVA's architecture: 8-bit weights as 8 SLCs, one crossbar, plain.
    let cfg = OffsetConfig::paper(CellKind::Slc, sigma, 128)?;
    let lut = DeviceLut::analytic(&VariationModel::per_weight(sigma), &cfg.codec)?;
    let mut mapped = MappedNetwork::map(net, Method::Plain, &cfg, &lut, None)?;
    match calibration_images {
        None => evaluate_cycles(&mut mapped, None, test_images, test_labels, eval)
            .map_err(BaselineError::from),
        Some(images) => {
            use rdo_nn::train::recalibrate_batchnorm;
            use rdo_tensor::rng::seeded_rng;
            let mut per_cycle = Vec::with_capacity(eval.cycles);
            for c in 0..eval.cycles {
                let mut rng = seeded_rng(eval.seed.wrapping_add(c as u64));
                mapped.program(&mut rng)?;
                let mut deployed = mapped.effective_network()?;
                recalibrate_batchnorm(&mut deployed, images, eval.batch_size)?;
                per_cycle.push(rdo_nn::evaluate(
                    &mut deployed,
                    test_images,
                    test_labels,
                    eval.batch_size,
                )?);
            }
            let n = per_cycle.len().max(1) as f32;
            let mean = per_cycle.iter().sum::<f32>() / n;
            let var = if per_cycle.len() > 1 {
                per_cycle.iter().map(|a| (a - mean).powi(2)).sum::<f32>() / (n - 1.0)
            } else {
                0.0
            };
            Ok(CycleEvaluation { per_cycle, mean, std: var.sqrt() })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdo_nn::{evaluate, Linear, Relu};
    use rdo_tensor::rng::{randn, seeded_rng};

    fn problem() -> (Sequential, Tensor, Vec<usize>) {
        let mut rng = seeded_rng(3);
        let x = randn(&[192, 6], 0.0, 1.0, &mut rng);
        let labels: Vec<usize> = (0..192).map(|i| usize::from(x.data()[i * 6] > 0.0)).collect();
        let mut net = Sequential::new();
        net.push(Linear::new(6, 16, &mut rng));
        net.push(Relu::new());
        net.push(Linear::new(16, 2, &mut rng));
        (net, x, labels)
    }

    #[test]
    fn dva_training_learns_under_noise() {
        let (mut net, x, labels) = problem();
        let cfg = DvaConfig {
            train: TrainConfig { epochs: 25, lr: 0.1, ..Default::default() },
            sigma: 0.3,
        };
        let report = train_dva(&mut net, &x, &labels, &cfg).unwrap();
        assert!(report.train_accuracy > 0.85, "accuracy {}", report.train_accuracy);
    }

    #[test]
    fn dva_tolerates_deployment_noise_better_than_vanilla() {
        let (net0, x, labels) = problem();
        let sigma = 0.5;
        // vanilla training
        let mut vanilla = net0.clone();
        fit(&mut vanilla, &x, &labels, &TrainConfig { epochs: 25, lr: 0.1, ..Default::default() })
            .unwrap();
        // DVA training from the same init
        let mut dva = net0;
        train_dva(
            &mut dva,
            &x,
            &labels,
            &DvaConfig { train: TrainConfig { epochs: 25, lr: 0.1, ..Default::default() }, sigma },
        )
        .unwrap();
        assert!(evaluate(&mut dva.clone(), &x, &labels, 64).unwrap() > 0.8);

        let eval = CycleEvalConfig { cycles: 4, ..Default::default() };
        let acc_vanilla = evaluate_dva(&vanilla, &x, &labels, sigma, &eval, None).unwrap();
        let acc_dva = evaluate_dva(&dva, &x, &labels, sigma, &eval, None).unwrap();
        // DVA should not be (meaningfully) worse than vanilla under noise
        assert!(
            acc_dva.mean >= acc_vanilla.mean - 0.05,
            "DVA {} vs vanilla {}",
            acc_dva.mean,
            acc_vanilla.mean
        );
    }
}
