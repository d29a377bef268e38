//! The paper's lognormal resistance-variation model (DDV + CCV) and its
//! [`DeviceModel`] implementation — the default member of the device-model
//! zoo.
//!
//! §IV of the paper: "we model the actual conductance as a log-normal
//! random variable with respect to the nominal value. Specifically, the
//! mapping function from CTW to CRW is `V = R(v) = v·e^θ`, where `θ` is a
//! normal random variable with zero mean and standard deviation
//! `σ ∈ [0.2, 1.0]`."
//!
//! Two granularities are provided:
//!
//! * [`VariationKind::PerWeight`] — one lognormal factor per weight, the
//!   model §IV states. With a finite ON/OFF ratio, the *total* conductance
//!   (value + leakage floor) fluctuates and the read-out subtracts the
//!   nominal floor, so `CRW = (v + F)·e^θ − F`; with an infinite ratio this
//!   degenerates to the paper's `v·e^θ` exactly.
//! * [`VariationKind::PerCell`] — an independent lognormal factor per cell,
//!   matching Fig. 3's picture of variation injected into individual bits.
//!   Used for the per-cell ablation in the benches.

use rdo_tensor::rng::Rng;
use rdo_tensor::Tensor;

use crate::codec::WeightCodec;
use crate::crossbar::{nominal_table, validate_levels, with_theta};
use crate::device_model::{fingerprint_of, DeviceModel};
use crate::error::Result;

/// Granularity at which lognormal noise is applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VariationKind {
    /// One `e^θ` factor for the whole weight (§IV's model; the default).
    PerWeight,
    /// Independent `e^θ` factors per cell (bit-level ablation).
    PerCell,
}

/// Lognormal conductance variation with standard deviation `sigma`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationModel {
    sigma: f64,
    kind: VariationKind,
}

impl VariationModel {
    /// Creates a variation model.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or not finite.
    pub fn new(sigma: f64, kind: VariationKind) -> Self {
        assert!(sigma.is_finite() && sigma >= 0.0, "sigma must be finite and ≥ 0");
        VariationModel { sigma, kind }
    }

    /// The paper's per-weight model at the given σ.
    pub fn per_weight(sigma: f64) -> Self {
        VariationModel::new(sigma, VariationKind::PerWeight)
    }

    /// The per-cell ablation model at the given σ.
    pub fn per_cell(sigma: f64) -> Self {
        VariationModel::new(sigma, VariationKind::PerCell)
    }

    /// The standard deviation σ of θ.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Splits this model's total variance between a device-to-device part
    /// and a cycle-to-cycle part: `σ_d² = f·σ²`, `σ_c² = (1−f)·σ²`, so
    /// composing the two lognormal factors reproduces the original
    /// distribution. `f = 0` is pure CCV (the default experimental
    /// setting), `f = 1` pure DDV.
    ///
    /// # Panics
    ///
    /// Panics if `ddv_fraction` is outside `[0, 1]`.
    pub fn split_ddv_ccv(&self, ddv_fraction: f64) -> (VariationModel, VariationModel) {
        assert!((0.0..=1.0).contains(&ddv_fraction), "DDV fraction must be in [0, 1]");
        let s2 = self.sigma * self.sigma;
        (
            VariationModel::new((s2 * ddv_fraction).sqrt(), self.kind),
            VariationModel::new((s2 * (1.0 - ddv_fraction)).sqrt(), self.kind),
        )
    }

    /// The noise granularity.
    pub fn kind(&self) -> VariationKind {
        self.kind
    }

    /// `E[e^θ] = e^{σ²/2}` — the systematic lognormal mean inflation that
    /// makes the plain (CTW = NTW) scheme biased.
    pub fn mean_factor(&self) -> f64 {
        (self.sigma * self.sigma / 2.0).exp()
    }

    /// `Var[e^θ] = e^{2σ²} − e^{σ²}`.
    pub fn var_factor(&self) -> f64 {
        let s2 = self.sigma * self.sigma;
        (2.0 * s2).exp() - s2.exp()
    }

    /// Samples one multiplicative lognormal factor `e^θ` (exposed for
    /// composing DDV and CCV factors externally).
    pub fn sample_factor(&self, rng: &mut Rng) -> f64 {
        if self.sigma == 0.0 {
            return 1.0;
        }
        rng.normal(0.0, self.sigma).exp()
    }
}

/// Per-level, per-slice contributions `place(j)·(s_j + cell_floor)` plus
/// their ascending-`j` sums — the precomputed halves of the per-cell
/// write formula. The sums are accumulated in the same order
/// [`DeviceModel::write`] adds its terms, so the σ = 0 shortcut stays
/// bitwise identical.
fn per_cell_tables(codec: &WeightCodec) -> Result<(Vec<f64>, Vec<f64>, usize)> {
    let cpw = codec.cells_per_weight();
    let cell_floor = codec.cell().floor();
    let levels = codec.weight_levels() as usize;
    let mut contrib = Vec::with_capacity(levels * cpw);
    let mut sums = Vec::with_capacity(levels);
    let mut slices = vec![0u32; cpw];
    for v in 0..levels {
        codec.encode_into(v as u32, &mut slices)?;
        let mut sum = 0.0f64;
        for (j, &s) in slices.iter().enumerate() {
            let c = codec.place_value(j) as f64 * (s as f64 + cell_floor);
            contrib.push(c);
            sum += c;
        }
        sums.push(sum);
    }
    Ok((contrib, sums, cpw))
}

/// The paper's model as a zoo member: `"paper"` (per-weight) or
/// `"percell"`, fingerprinted by name and σ.
///
/// Draw order (the bulk ≡ reference contract): per weight in row-major
/// order, one θ for [`VariationKind::PerWeight`] or one θ per cell in
/// ascending slice order for [`VariationKind::PerCell`]; no draw at all
/// at σ = 0. Its test oracle is the trait's default per-entry
/// [`DeviceModel::write`] loop.
impl DeviceModel for VariationModel {
    fn name(&self) -> &'static str {
        match self.kind {
            VariationKind::PerWeight => "paper",
            VariationKind::PerCell => "percell",
        }
    }

    fn fingerprint(&self) -> u64 {
        fingerprint_of(self.name(), &[self.sigma])
    }

    fn moments(&self, v: u32, codec: &WeightCodec) -> Result<(f64, f64)> {
        let floor_total = codec.total_floor();
        match self.kind {
            VariationKind::PerWeight => {
                let nominal = codec.nominal_conductance(v)?;
                let mean = nominal * self.mean_factor() - floor_total;
                let var = nominal * nominal * self.var_factor();
                Ok((mean, var))
            }
            VariationKind::PerCell => {
                let slices = codec.encode(v)?;
                let cell_floor = codec.cell().floor();
                let mut mean = -floor_total;
                let mut var = 0.0f64;
                for (j, &s) in slices.iter().enumerate() {
                    let p = codec.place_value(j) as f64;
                    let g = s as f64 + cell_floor;
                    mean += p * g * self.mean_factor();
                    var += p * p * g * g * self.var_factor();
                }
                Ok((mean, var))
            }
        }
    }

    fn write(&self, v: u32, codec: &WeightCodec, rng: &mut Rng) -> Result<f64> {
        let floor_total = codec.total_floor();
        match self.kind {
            VariationKind::PerWeight => {
                let nominal = codec.nominal_conductance(v)?;
                Ok(nominal * self.sample_factor(rng) - floor_total)
            }
            VariationKind::PerCell => {
                let slices = codec.encode(v)?;
                let cell_floor = codec.cell().floor();
                let mut total = 0.0f64;
                for (j, &s) in slices.iter().enumerate() {
                    let g = s as f64 + cell_floor;
                    total += codec.place_value(j) as f64 * g * self.sample_factor(rng);
                }
                Ok(total - floor_total)
            }
        }
    }

    /// Entries are validated up front, the θ stream is drawn into a
    /// pooled per-thread buffer in exactly the per-entry order of
    /// [`DeviceModel::write`], and a precomputed level → conductance table
    /// is applied in one fused pass.
    fn write_bulk(&self, ctw: &Tensor, codec: &WeightCodec, rng: &mut Rng) -> Result<Tensor> {
        let levels = validate_levels(ctw, codec)?;
        let floor = codec.total_floor();
        let draws_per_weight = match self.kind {
            VariationKind::PerWeight => 1,
            VariationKind::PerCell => codec.cells_per_weight(),
        };
        if rdo_obs::enabled() {
            let draws = if self.sigma == 0.0 { 0 } else { levels.len() * draws_per_weight };
            rdo_obs::counter_add("rram.theta.samples", draws as u64);
        }
        let mut out = Tensor::zeros(ctw.dims());
        match self.kind {
            VariationKind::PerWeight => {
                let nominal = nominal_table(codec)?;
                if self.sigma == 0.0 {
                    // the scalar path multiplies by an undrawn 1.0 here;
                    // x·1.0 ≡ x bitwise, so skipping it is exact
                    for (o, &v) in out.data_mut().iter_mut().zip(&levels) {
                        *o = (nominal[v as usize] - floor) as f32;
                    }
                } else {
                    with_theta(levels.len(), self.sigma, rng, |theta| {
                        for ((o, &v), t) in out.data_mut().iter_mut().zip(&levels).zip(theta) {
                            *o = (nominal[v as usize] * t.exp() - floor) as f32;
                        }
                    });
                }
            }
            VariationKind::PerCell => {
                let (contrib, sums, cpw) = per_cell_tables(codec)?;
                if self.sigma == 0.0 {
                    for (o, &v) in out.data_mut().iter_mut().zip(&levels) {
                        *o = (sums[v as usize] - floor) as f32;
                    }
                } else {
                    with_theta(levels.len() * cpw, self.sigma, rng, |theta| {
                        for ((o, &v), th) in
                            out.data_mut().iter_mut().zip(&levels).zip(theta.chunks_exact(cpw))
                        {
                            let row = &contrib[v as usize * cpw..(v as usize + 1) * cpw];
                            let mut total = 0.0f64;
                            for (c, t) in row.iter().zip(th) {
                                total += c * t.exp();
                            }
                            *o = (total - floor) as f32;
                        }
                    });
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{CellKind, CellTechnology};
    use rdo_tensor::rng::seeded_rng;

    fn codec() -> WeightCodec {
        WeightCodec::paper(CellTechnology::paper(CellKind::Slc))
    }

    #[test]
    fn zero_sigma_is_deterministic() {
        let m = VariationModel::per_weight(0.0);
        let mut rng = seeded_rng(0);
        for v in [0u32, 17, 255] {
            let crw = m.write(v, &codec(), &mut rng).unwrap();
            assert!((crw - v as f64).abs() < 1e-9, "CRW {crw} for CTW {v}");
        }
    }

    #[test]
    fn per_weight_moments_match_closed_form() {
        let m = VariationModel::per_weight(0.5);
        let c = codec();
        let (mean, var) = m.moments(100, &c).unwrap();
        let nominal = 100.0 + c.total_floor();
        assert!((mean - (nominal * (0.125f64).exp() - c.total_floor())).abs() < 1e-9);
        assert!((var - nominal * nominal * ((0.5f64).exp() - (0.25f64).exp())).abs() < 1e-6);
    }

    #[test]
    fn monte_carlo_matches_analytic_per_weight() {
        let m = VariationModel::per_weight(0.4);
        let c = codec();
        let mut rng = seeded_rng(1);
        let n = 40_000;
        let samples: Vec<f64> = (0..n).map(|_| m.write(80, &c, &mut rng).unwrap()).collect();
        let emp_mean = samples.iter().sum::<f64>() / n as f64;
        let emp_var = samples.iter().map(|s| (s - emp_mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        let (mean, var) = m.moments(80, &c).unwrap();
        assert!((emp_mean - mean).abs() / mean < 0.02, "{emp_mean} vs {mean}");
        assert!((emp_var - var).abs() / var < 0.1, "{emp_var} vs {var}");
    }

    #[test]
    fn monte_carlo_matches_analytic_per_cell() {
        let m = VariationModel::per_cell(0.4);
        let c = codec();
        let mut rng = seeded_rng(2);
        let n = 40_000;
        let samples: Vec<f64> = (0..n).map(|_| m.write(170, &c, &mut rng).unwrap()).collect();
        let emp_mean = samples.iter().sum::<f64>() / n as f64;
        let emp_var = samples.iter().map(|s| (s - emp_mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        let (mean, var) = m.moments(170, &c).unwrap();
        assert!((emp_mean - mean).abs() / mean < 0.02, "{emp_mean} vs {mean}");
        assert!((emp_var - var).abs() / var < 0.1, "{emp_var} vs {var}");
    }

    #[test]
    fn per_cell_variance_below_per_weight() {
        // Independent per-cell noise partially averages out, so the
        // aggregate variance is lower than one shared factor.
        let c = codec();
        let (_, var_w) = VariationModel::per_weight(0.5).moments(255, &c).unwrap();
        let (_, var_c) = VariationModel::per_cell(0.5).moments(255, &c).unwrap();
        assert!(var_c < var_w, "{var_c} !< {var_w}");
    }

    #[test]
    fn mean_inflation_grows_with_sigma() {
        assert!(
            VariationModel::per_weight(1.0).mean_factor()
                > VariationModel::per_weight(0.2).mean_factor()
        );
        assert!((VariationModel::per_weight(0.0).mean_factor() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "sigma must be finite")]
    fn negative_sigma_panics() {
        VariationModel::per_weight(-0.1);
    }
}
