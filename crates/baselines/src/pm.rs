//! The PM baseline: unary synapse coding on the two-crossbar architecture
//! (Ma et al., "Go Unary: a novel synapse coding and mapping scheme for
//! reliable ReRAM-based neuromorphic computing", DATE 2020 — \[12\] in the
//! paper).
//!
//! PM represents each weight's magnitude as the *sum of several
//! equal-place-value cells* (unary code) split across a positive and a
//! negative crossbar, 10 2-bit MLCs per weight in total. Two effects give
//! it fault tolerance:
//!
//! * independent per-cell noise averages out (`σ_rel ∝ 1/√cells`), and
//! * the two-crossbar form stores small weights as small conductances
//!   (no +shift bias), so unimportant weights see small absolute error.
//!
//! The scheme's *priority mapping* step assigns weights to measured
//! devices, which exploits device-to-device variation only — under pure
//! cycle-to-cycle variation (this paper's focus) that step has nothing to
//! exploit, which is exactly the critique in §IV-C1. The reproduction
//! therefore implements the unary-coded two-crossbar deployment, the part
//! of PM that remains effective under CCV.

use rdo_nn::{evaluate, train::recalibrate_batchnorm, Layer, ParamKind, Sequential};
use rdo_tensor::rng::seeded_rng;
use rdo_tensor::rng::Rng;
use rdo_tensor::Tensor;

use crate::error::{BaselineError, Result};

/// Configuration of the PM baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PmConfig {
    /// Cells per weight across the crossbar pair (the paper quotes 10).
    pub cells_per_weight: usize,
    /// Levels per cell (4 for 2-bit MLC).
    pub cell_levels: u32,
    /// Lognormal σ of the per-cell write variation.
    pub sigma: f64,
}

impl PmConfig {
    /// The paper's PM configuration at the given σ: 10 2-bit MLCs.
    pub fn paper(sigma: f64) -> Self {
        PmConfig { cells_per_weight: 10, cell_levels: 4, sigma }
    }

    /// Unary levels representable per sign: `cells · (levels − 1)`.
    pub fn unary_levels(&self) -> u32 {
        (self.cells_per_weight as u32) * (self.cell_levels - 1)
    }
}

/// Encodes one non-negative magnitude (in unary steps) greedily into cell
/// levels: fill cells to the maximum level, then the remainder.
fn unary_encode(steps: u32, cfg: &PmConfig) -> Vec<u32> {
    let max = cfg.cell_levels - 1;
    let mut remaining = steps.min(cfg.unary_levels());
    (0..cfg.cells_per_weight)
        .map(|_| {
            let l = remaining.min(max);
            remaining -= l;
            l
        })
        .collect()
}

/// Samples one PM-coded weight write: quantize `w` to the unary grid of
/// its sign's crossbar, perturb every cell independently, and read back
/// the realized weight.
fn write_weight(w: f32, delta: f32, cfg: &PmConfig, rng: &mut Rng) -> f32 {
    if delta <= 0.0 {
        return w;
    }
    let sign = if w < 0.0 { -1.0f32 } else { 1.0 };
    let steps = (w.abs() / delta).round() as u32;
    let cells = unary_encode(steps, cfg);
    let mut total = 0.0f64;
    for l in cells {
        if l > 0 {
            total += l as f64 * rng.normal(0.0, cfg.sigma).exp();
        }
        // HRS cells contribute (almost) nothing on the two-crossbar
        // architecture: no shift, so zero stays zero.
    }
    sign * (total as f32) * delta
}

/// Builds the deployment network of one PM programming cycle: every core
/// weight is unary-coded onto the two-crossbar pair and perturbed.
///
/// # Errors
///
/// Propagates parameter-injection errors.
pub fn pm_effective_network(net: &Sequential, cfg: &PmConfig, rng: &mut Rng) -> Result<Sequential> {
    if cfg.cells_per_weight == 0 || cfg.cell_levels < 2 {
        return Err(BaselineError::InvalidConfig(
            "PM needs at least one cell with two levels".to_string(),
        ));
    }
    if !(cfg.sigma.is_finite() && cfg.sigma >= 0.0) {
        return Err(BaselineError::InvalidConfig(
            "PM needs a finite, non-negative sigma".to_string(),
        ));
    }
    let mut out = net.clone();
    for p in out.params() {
        if !matches!(p.kind, ParamKind::ConvWeight { .. } | ParamKind::LinearWeight { .. }) {
            continue;
        }
        // per-layer unary step: full range = max |w|
        let max_abs = p.value.data().iter().fold(0.0f32, |a, &v| a.max(v.abs()));
        let delta = max_abs / cfg.unary_levels() as f32;
        let noisy =
            Tensor::from_fn(p.value.dims(), |i| write_weight(p.value.data()[i], delta, cfg, rng));
        *p.value = noisy;
    }
    Ok(out)
}

/// Accuracy of PM deployment averaged over programming cycles.
///
/// `calibration_images`, when given, re-estimates batch-norm running
/// statistics on the deployed (noisy) network before evaluating — the
/// same digital post-writing step our method's PWT performs, granted to
/// the baseline for a fair deep-network comparison.
///
/// # Errors
///
/// Propagates mapping and evaluation errors.
pub fn evaluate_pm_cycles(
    net: &Sequential,
    test_images: &Tensor,
    test_labels: &[usize],
    cfg: &PmConfig,
    cycles: usize,
    seed: u64,
    calibration_images: Option<&Tensor>,
) -> Result<f32> {
    let _span = rdo_obs::span("baseline.pm.eval");
    let mut total = 0.0f32;
    for c in 0..cycles.max(1) {
        let mut rng = seeded_rng(seed.wrapping_add(c as u64));
        let mut deployed = pm_effective_network(net, cfg, &mut rng)?;
        if let Some(images) = calibration_images {
            recalibrate_batchnorm(&mut deployed, images, 64)?;
        }
        total += evaluate(&mut deployed, test_images, test_labels, 64)?;
    }
    Ok(total / cycles.max(1) as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdo_nn::{fit, Linear, Relu, TrainConfig};
    use rdo_tensor::rng::randn;

    #[test]
    fn unary_encode_is_exact_within_range() {
        let cfg = PmConfig::paper(0.5);
        for steps in 0..=cfg.unary_levels() {
            let cells = unary_encode(steps, &cfg);
            assert_eq!(cells.iter().sum::<u32>(), steps);
            assert!(cells.iter().all(|&l| l < cfg.cell_levels));
        }
    }

    #[test]
    fn unary_encode_saturates() {
        let cfg = PmConfig::paper(0.5);
        let cells = unary_encode(1000, &cfg);
        assert_eq!(cells.iter().sum::<u32>(), cfg.unary_levels());
    }

    #[test]
    fn zero_weights_stay_zero() {
        // two-crossbar: no shift, zero conductance ⇒ no noise on zeros
        let cfg = PmConfig::paper(1.0);
        let mut rng = seeded_rng(0);
        assert_eq!(write_weight(0.0, 0.1, &cfg, &mut rng), 0.0);
    }

    #[test]
    fn zero_sigma_is_quantization_only() {
        let cfg = PmConfig::paper(0.0);
        let mut rng = seeded_rng(1);
        let delta = 0.1f32;
        for w in [-2.0f32, -0.55, 0.3, 1.95] {
            let out = write_weight(w, delta, &cfg, &mut rng);
            assert!((out - w).abs() <= delta / 2.0 + 1e-6, "{w} → {out}");
        }
    }

    #[test]
    fn unary_averaging_beats_single_cell_variance() {
        // empirical: relative std of a PM-coded large weight should be
        // well below the single-factor lognormal's
        let sigma = 0.5f64;
        let cfg = PmConfig::paper(sigma);
        let mut rng = seeded_rng(2);
        let n = 4000;
        let w = 1.0f32;
        let delta = w / cfg.unary_levels() as f32;
        let samples: Vec<f32> = (0..n).map(|_| write_weight(w, delta, &cfg, &mut rng)).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let std = (samples.iter().map(|s| (s - mean).powi(2)).sum::<f32>() / n as f32).sqrt();
        let single_rel_std = ((2.0 * sigma * sigma).exp() - (sigma * sigma).exp()).sqrt()
            / (sigma * sigma / 2.0).exp();
        assert!(
            (std / mean) < 0.6 * single_rel_std as f32,
            "unary rel std {} vs single-cell {}",
            std / mean,
            single_rel_std
        );
    }

    #[test]
    fn pm_deployment_preserves_accuracy_reasonably() {
        let mut rng = seeded_rng(5);
        let x = randn(&[192, 6], 0.0, 1.0, &mut rng);
        let labels: Vec<usize> = (0..192).map(|i| usize::from(x.data()[i * 6] > 0.0)).collect();
        let mut net = Sequential::new();
        net.push(Linear::new(6, 16, &mut rng));
        net.push(Relu::new());
        net.push(Linear::new(16, 2, &mut rng));
        fit(&mut net, &x, &labels, &TrainConfig { epochs: 25, lr: 0.1, ..Default::default() })
            .unwrap();
        let ideal = evaluate(&mut net.clone(), &x, &labels, 64).unwrap();
        let acc = evaluate_pm_cycles(&net, &x, &labels, &PmConfig::paper(0.5), 3, 9, None).unwrap();
        assert!(acc > ideal - 0.2, "PM accuracy {acc} vs ideal {ideal}");
    }

    #[test]
    fn invalid_config_rejected() {
        let net = Sequential::new();
        let mut rng = seeded_rng(0);
        let bad = PmConfig { cells_per_weight: 0, cell_levels: 4, sigma: 0.5 };
        assert!(pm_effective_network(&net, &bad, &mut rng).is_err());
        let bad = PmConfig { sigma: -0.5, ..PmConfig::paper(0.5) };
        assert!(pm_effective_network(&net, &bad, &mut rng).is_err());
    }
}
