//! Conductance drift (retention) model — an extension beyond the paper.
//!
//! Filamentary RRAM conductance relaxes over time following the standard
//! power law `G(t) = G(t₀)·(t/t₀)^{−ν}`, with a per-device drift exponent
//! `ν`. Drift is a *temporal* non-ideality like CCV: compensation
//! measured at write time goes stale as the array ages, so the digital
//! offsets can be re-tuned periodically — the same PWT machinery the
//! paper uses per programming cycle. The `ablation_drift` experiment in
//! `rdo-bench` quantifies this.

use rdo_tensor::rng::Rng;
use rdo_tensor::Tensor;

use crate::error::{Result, RramError};

/// Power-law conductance drift with per-device exponents
/// `ν ~ N(nu_mean, nu_sigma²)` clamped at 0 (conductance never grows).
///
/// The model holds the distribution only, not the exponents:
/// [`DriftModel::sample_exponents`] draws a matrix of them and
/// [`DriftModel::age`] applies one. A caller that draws anew for each
/// ageing step, as `rdo-core`'s `MappedNetwork::age_devices` does, gives
/// every device a different `ν` in each step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftModel {
    nu_mean: f64,
    nu_sigma: f64,
}

impl DriftModel {
    /// Creates a drift model.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is negative or not finite.
    pub fn new(nu_mean: f64, nu_sigma: f64) -> Self {
        assert!(
            nu_mean.is_finite() && nu_mean >= 0.0 && nu_sigma.is_finite() && nu_sigma >= 0.0,
            "drift parameters must be finite and non-negative"
        );
        DriftModel { nu_mean, nu_sigma }
    }

    /// A typical filamentary-oxide setting: `ν = 0.05 ± 0.02`.
    pub fn typical() -> Self {
        DriftModel::new(0.05, 0.02)
    }

    /// Mean drift exponent.
    pub fn nu_mean(&self) -> f64 {
        self.nu_mean
    }

    /// Exponent spread across devices.
    pub fn nu_sigma(&self) -> f64 {
        self.nu_sigma
    }

    /// Samples one drift exponent per device for a matrix of weights.
    pub fn sample_exponents(&self, dims: &[usize], rng: &mut Rng) -> Tensor {
        if self.nu_sigma == 0.0 {
            return Tensor::full(dims, self.nu_mean as f32);
        }
        Tensor::from_fn(dims, |_| rng.normal(self.nu_mean, self.nu_sigma).max(0.0) as f32)
    }

    /// Ages a CRW matrix from `t₀` to `t = time_ratio · t₀`:
    /// every weight is scaled by `time_ratio^{−ν}` with its own exponent.
    ///
    /// `time_ratio = 1` is the identity; larger ratios decay conductance.
    ///
    /// # Errors
    ///
    /// Returns [`RramError::ShapeMismatch`] if the exponent matrix does
    /// not match, or [`RramError::InvalidGeometry`] for a non-positive
    /// time ratio.
    pub fn age(&self, crw: &Tensor, exponents: &Tensor, time_ratio: f64) -> Result<Tensor> {
        if crw.dims() != exponents.dims() {
            return Err(RramError::ShapeMismatch(format!(
                "CRW {:?} vs exponents {:?}",
                crw.dims(),
                exponents.dims()
            )));
        }
        if time_ratio.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(RramError::InvalidGeometry(format!(
                "time ratio {time_ratio} must be positive"
            )));
        }
        let ln_t = time_ratio.ln();
        let mut out = crw.clone();
        for (v, &nu) in out.data_mut().iter_mut().zip(exponents.data()) {
            *v *= (-(nu as f64) * ln_t).exp() as f32;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdo_tensor::rng::seeded_rng;

    #[test]
    fn unit_time_is_identity() {
        let model = DriftModel::typical();
        let crw = Tensor::from_fn(&[4, 4], |i| i as f32);
        let nu = model.sample_exponents(crw.dims(), &mut seeded_rng(0));
        let aged = model.age(&crw, &nu, 1.0).unwrap();
        for (a, b) in aged.data().iter().zip(crw.data()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn conductance_decays_monotonically_in_time() {
        let model = DriftModel::new(0.1, 0.0);
        let crw = Tensor::full(&[2, 2], 100.0);
        let nu = model.sample_exponents(crw.dims(), &mut seeded_rng(1));
        let t10 = model.age(&crw, &nu, 10.0).unwrap();
        let t100 = model.age(&crw, &nu, 100.0).unwrap();
        assert!(t10.data()[0] < 100.0);
        assert!(t100.data()[0] < t10.data()[0]);
        // ν = 0.1 over one decade: factor 10^{-0.1} ≈ 0.794
        assert!((t10.data()[0] - 100.0 * 0.794328).abs() < 0.01);
    }

    #[test]
    fn zero_drift_is_stable() {
        let model = DriftModel::new(0.0, 0.0);
        let crw = Tensor::full(&[2, 2], 50.0);
        let nu = model.sample_exponents(crw.dims(), &mut seeded_rng(2));
        let aged = model.age(&crw, &nu, 1000.0).unwrap();
        assert_eq!(aged, crw);
    }

    #[test]
    fn exponents_vary_across_devices() {
        let model = DriftModel::typical();
        let nu = model.sample_exponents(&[32, 32], &mut seeded_rng(3));
        assert!(nu.max() > nu.min());
        assert!(nu.min() >= 0.0, "exponents are clamped at zero");
        let mean = nu.mean();
        assert!((mean - 0.05).abs() < 0.01, "mean exponent {mean}");
    }

    #[test]
    fn mismatched_shapes_rejected() {
        let model = DriftModel::typical();
        let crw = Tensor::zeros(&[2, 2]);
        let nu = Tensor::zeros(&[2, 3]);
        assert!(model.age(&crw, &nu, 10.0).is_err());
        let nu = Tensor::zeros(&[2, 2]);
        assert!(model.age(&crw, &nu, 0.0).is_err());
        assert!(model.age(&crw, &nu, -1.0).is_err());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_parameters_panic() {
        DriftModel::new(-0.1, 0.02);
    }
}
