//! Pluggable device models: the [`DeviceModel`] trait and the model zoo.
//!
//! The paper's lognormal CCV model ([`VariationModel`]) is one point in a
//! larger space of published RRAM write-noise models. This trait puts one
//! interface in front of that space, so there is one programming path:
//! [`crate::program_matrix`] programs whole matrices and
//! [`crate::DeviceLut::analytic`] builds the device LUT, both from a
//! `&dyn DeviceModel`, and the paper's model is simply the default member.
//!
//! # The zoo
//!
//! * [`VariationModel`] — the paper's §IV lognormal model, per-weight
//!   (`"paper"`) or per-cell (`"percell"`).
//! * [`LevelLognormalModel`] — lognormal resistance per cell *state* with
//!   a σ that interpolates between an LRS and an HRS value, plus
//!   stuck-at-fault injection (half stuck-on, half stuck-off).
//! * [`DriftRelaxModel`] — per-weight lognormal programming noise composed
//!   with additive short-term relaxation noise, plus a deterministic
//!   state-proportional drift hook ([`DeviceModel::evolve`]).
//! * [`DifferentialPairModel`] — differential-pair cells
//!   (`W = (G⁺ − G⁻ + max)/2`) composed over any base model.
//!
//! # Contract (DESIGN.md §5i)
//!
//! Every model ships two sampling entry points with a pinned
//! relationship: [`DeviceModel::write`] is the scalar law and
//! [`DeviceModel::write_bulk`] is the fast path, which must be **bitwise
//! identical** at any seed to the per-entry test oracle
//! `write_bulk_reference` (by default a `write` loop).
//! RNG draw order is part of each model's contract and is documented on
//! the model.

use std::fmt;
use std::str::FromStr;

use rdo_tensor::rng::Rng;
use rdo_tensor::Tensor;

use crate::codec::WeightCodec;
use crate::crossbar::validate_levels;
use crate::device::CellTechnology;
use crate::error::{Result, RramError};
use crate::variation::VariationModel;

/// A write-noise device model: how CTWs become CRWs.
///
/// Implementations must be deterministic functions of `(parameters, RNG
/// stream)`: the same seed always yields the same CRWs, bulk or scalar.
/// See the module docs for the bulk ≡ reference obligation.
pub trait DeviceModel: fmt::Debug + Send + Sync {
    /// Short stable identifier ("paper", "level_lognormal", …); used for
    /// observability counter names and display.
    fn name(&self) -> &'static str;

    /// Closed-form `(E[R(v)], Var[R(v)])` of the calibrated CRW — what
    /// [`crate::DeviceLut::analytic`] tabulates.
    ///
    /// # Errors
    ///
    /// Returns [`RramError::WeightOutOfRange`] if `v` does not fit.
    fn moments(&self, v: u32, codec: &WeightCodec) -> Result<(f64, f64)>;

    /// Samples one write: CTW `v` → calibrated CRW (floor subtracted).
    ///
    /// # Errors
    ///
    /// Returns [`RramError::WeightOutOfRange`] if `v` does not fit.
    fn write(&self, v: u32, codec: &WeightCodec, rng: &mut Rng) -> Result<f64>;

    /// Samples CRWs for a whole CTW matrix — the bulk fast path. Must be
    /// bitwise identical at any seed to the per-entry test oracle
    /// `write_bulk_reference`; the paths may only differ on invalid input,
    /// where the fast path is allowed to error before consuming RNG draws.
    ///
    /// # Errors
    ///
    /// Returns [`RramError::WeightOutOfRange`] /
    /// [`RramError::ShapeMismatch`] on invalid input.
    fn write_bulk(&self, ctw: &Tensor, codec: &WeightCodec, rng: &mut Rng) -> Result<Tensor>;

    /// The per-entry test oracle for [`DeviceModel::write_bulk`]: by
    /// default a plain [`DeviceModel::write`] loop in row-major entry
    /// order. Models whose bulk path reorders draws across entries (the
    /// differential pair programs one full array, then the other) override
    /// this so the oracle shares the bulk draw order.
    ///
    /// # Errors
    ///
    /// Same contract as [`DeviceModel::write_bulk`].
    #[cfg(test)]
    fn write_bulk_reference(
        &self,
        ctw: &Tensor,
        codec: &WeightCodec,
        rng: &mut Rng,
    ) -> Result<Tensor> {
        if ctw.shape().rank() != 2 {
            return Err(RramError::ShapeMismatch(format!(
                "CTW matrix must be rank 2, got {:?}",
                ctw.dims()
            )));
        }
        let mut out = Tensor::zeros(ctw.dims());
        for (o, &q) in out.data_mut().iter_mut().zip(ctw.data()) {
            let v = q.round();
            if v < 0.0 || v > codec.max_weight() as f32 {
                return Err(RramError::WeightOutOfRange {
                    value: v.max(0.0) as u32,
                    levels: codec.weight_levels(),
                });
            }
            *o = self.write(v as u32, codec, rng)? as f32;
        }
        Ok(out)
    }

    /// Evolves already-programmed CRWs in place over time (retention /
    /// drift), `time_ratio = t/t₀ ≥ 1`. Deterministic; the default is the
    /// no-op of a drift-free model.
    ///
    /// # Errors
    ///
    /// Returns [`RramError::InvalidGeometry`] for `time_ratio < 1`.
    fn evolve(&self, crw: &mut Tensor, codec: &WeightCodec, time_ratio: f64) -> Result<()> {
        let _ = (crw, codec);
        check_time_ratio(time_ratio)
    }
}

fn check_time_ratio(time_ratio: f64) -> Result<()> {
    if !time_ratio.is_finite() || time_ratio < 1.0 {
        return Err(RramError::InvalidGeometry(format!(
            "time ratio must be finite and ≥ 1, got {time_ratio}"
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Per-state lognormal with stuck-at faults
// ---------------------------------------------------------------------------

/// Lognormal resistance per cell **state** with stuck-at-fault injection.
///
/// Each cell at state `s` draws its own `θ ~ N(0, σ(s))` where `σ(s)`
/// interpolates linearly from `sigma_hrs` (state 0) to `sigma_lrs` (top
/// state) — HRS cells are typically the noisier extreme in measured
/// devices, so `sigma_hrs > sigma_lrs` is the usual configuration. Before
/// any θ draw, each cell draws one stuck-at fate `u ∈ [0, 1)`: with
/// `u < p/2` the cell is stuck **on** (top-state conductance), with
/// `u < p` stuck **off** (bare floor); stuck cells draw no θ.
///
/// Draw order per weight (the bulk ≡ reference contract): cells in
/// ascending slice order; per cell the fate draw (only if `p > 0`), then
/// the θ draw (only if not stuck and `σ(s) > 0`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelLognormalModel {
    sigma_lrs: f64,
    sigma_hrs: f64,
    stuck_p: f64,
}

impl LevelLognormalModel {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics if either σ is negative/non-finite or `stuck_p ∉ [0, 1]`.
    pub fn new(sigma_lrs: f64, sigma_hrs: f64, stuck_p: f64) -> Self {
        assert!(
            sigma_lrs.is_finite() && sigma_lrs >= 0.0 && sigma_hrs.is_finite() && sigma_hrs >= 0.0,
            "per-state sigmas must be finite and ≥ 0"
        );
        assert!((0.0..=1.0).contains(&stuck_p), "stuck-at probability must be in [0, 1]");
        LevelLognormalModel { sigma_lrs, sigma_hrs, stuck_p }
    }

    /// σ at cell state `s` (linear LRS↔HRS interpolation).
    pub fn state_sigma(&self, s: u32, levels: u32) -> f64 {
        if levels <= 1 {
            return self.sigma_hrs;
        }
        self.sigma_hrs + (self.sigma_lrs - self.sigma_hrs) * s as f64 / (levels - 1) as f64
    }

    /// The stuck-at-fault probability per cell.
    pub fn stuck_p(&self) -> f64 {
        self.stuck_p
    }

    fn sampler(&self, cell: &CellTechnology) -> LevelSampler {
        let levels = cell.kind().levels();
        let cell_floor = cell.floor();
        LevelSampler {
            cell_floor,
            g_on: (levels - 1) as f64 + cell_floor,
            stuck_p: self.stuck_p,
            sigmas: (0..levels).map(|s| self.state_sigma(s, levels)).collect(),
        }
    }
}

/// Hoisted per-cell sampling state: one σ per cell state (pure
/// parameters — hoisting leaves the RNG stream untouched).
struct LevelSampler {
    cell_floor: f64,
    g_on: f64,
    stuck_p: f64,
    sigmas: Vec<f64>,
}

impl LevelSampler {
    /// One cell's realized conductance; counts stuck cells into `stuck`.
    fn sample(&self, s: u32, rng: &mut Rng, stuck: &mut u64) -> f64 {
        if self.stuck_p > 0.0 {
            let u = rng.f64();
            if u < self.stuck_p {
                *stuck += 1;
                return if u < self.stuck_p * 0.5 { self.g_on } else { self.cell_floor };
            }
        }
        let g = s as f64 + self.cell_floor;
        let sigma = self.sigmas[s as usize];
        if sigma > 0.0 {
            g * rng.normal(0.0, sigma).exp()
        } else {
            g
        }
    }
}

impl DeviceModel for LevelLognormalModel {
    fn name(&self) -> &'static str {
        "level_lognormal"
    }

    fn moments(&self, v: u32, codec: &WeightCodec) -> Result<(f64, f64)> {
        let slices = codec.encode(v)?;
        let cell = codec.cell();
        let levels = cell.kind().levels();
        let cell_floor = cell.floor();
        let g_on = (levels - 1) as f64 + cell_floor;
        let p = self.stuck_p;
        let half = 0.5 * p;
        let mut mean = -codec.total_floor();
        let mut var = 0.0f64;
        for (j, &s) in slices.iter().enumerate() {
            let pv = codec.place_value(j) as f64;
            let g = s as f64 + cell_floor;
            let s2 = self.state_sigma(s, levels).powi(2);
            // stuck-on / stuck-off / free lognormal mixture moments
            let m1 = half * g_on + half * cell_floor + (1.0 - p) * g * (0.5 * s2).exp();
            let m2 = half * g_on * g_on
                + half * cell_floor * cell_floor
                + (1.0 - p) * g * g * (2.0 * s2).exp();
            mean += pv * m1;
            var += pv * pv * (m2 - m1 * m1);
        }
        Ok((mean, var))
    }

    fn write(&self, v: u32, codec: &WeightCodec, rng: &mut Rng) -> Result<f64> {
        let slices = codec.encode(v)?;
        let sampler = self.sampler(codec.cell());
        let mut stuck = 0u64;
        let mut total = 0.0f64;
        for (j, &s) in slices.iter().enumerate() {
            total += codec.place_value(j) as f64 * sampler.sample(s, rng, &mut stuck);
        }
        Ok(total - codec.total_floor())
    }

    fn write_bulk(&self, ctw: &Tensor, codec: &WeightCodec, rng: &mut Rng) -> Result<Tensor> {
        let entries = validate_levels(ctw, codec)?;
        let sampler = self.sampler(codec.cell());
        let cpw = codec.cells_per_weight();
        // level → slices and slice → place value, encoded once instead of
        // per entry (the per-entry `encode` allocation is the scalar
        // path's dominant cost)
        let mut slice_table = Vec::with_capacity(codec.weight_levels() as usize * cpw);
        for v in 0..codec.weight_levels() {
            slice_table.extend(codec.encode(v)?);
        }
        let place: Vec<f64> = (0..cpw).map(|j| codec.place_value(j) as f64).collect();
        let floor = codec.total_floor();
        let mut stuck = 0u64;
        let mut out = Tensor::zeros(ctw.dims());
        for (o, &v) in out.data_mut().iter_mut().zip(&entries) {
            let slices = &slice_table[v as usize * cpw..(v as usize + 1) * cpw];
            let mut total = 0.0f64;
            for (pv, &s) in place.iter().zip(slices) {
                total += pv * sampler.sample(s, rng, &mut stuck);
            }
            *o = (total - floor) as f32;
        }
        if rdo_obs::enabled() {
            rdo_obs::counter_add("rram.device_model.stuck_cells", stuck);
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Drift + short-term relaxation
// ---------------------------------------------------------------------------

/// Per-weight lognormal programming noise composed with additive
/// short-term relaxation, plus deterministic state-proportional drift.
///
/// Write law: `G = max(N(v)·e^θ·(1 + ε), 0)`, `CRW = G − F`, with
/// `θ ~ N(0, σ)` and `ε ~ N(0, relax)` — the relaxation term models the
/// conductance settling that follows a program-verify pulse train.
/// Draw order per weight: θ (skipped at σ = 0), then ε (skipped at
/// `relax = 0`).
///
/// Closed-form moments ignore the (astronomically unlikely for small
/// `relax`) clamp at zero: `E = N·e^{σ²/2} − F`,
/// `Var = N²·(e^{2σ²}(1 + relax²) − e^{σ²})`.
///
/// [`DeviceModel::evolve`] applies the drift: total conductance decays by
/// `clamp(1 − ν·log₁₀(t/t₀), 0, 1)` — state-proportional, so large
/// conductances lose the most in absolute terms.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftRelaxModel {
    sigma: f64,
    relax: f64,
    nu: f64,
}

impl DriftRelaxModel {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics if any parameter is negative or non-finite.
    pub fn new(sigma: f64, relax: f64, nu: f64) -> Self {
        assert!(
            sigma.is_finite() && sigma >= 0.0 && relax.is_finite() && relax >= 0.0,
            "sigma and relax must be finite and ≥ 0"
        );
        assert!(nu.is_finite() && nu >= 0.0, "nu must be finite and ≥ 0");
        DriftRelaxModel { sigma, relax, nu }
    }

    /// The relaxation amplitude.
    pub fn relax(&self) -> f64 {
        self.relax
    }

    /// The drift coefficient ν.
    pub fn nu(&self) -> f64 {
        self.nu
    }

    /// The conductance retention factor after aging to `time_ratio`.
    pub fn decay_factor(&self, time_ratio: f64) -> f64 {
        (1.0 - self.nu * time_ratio.log10()).clamp(0.0, 1.0)
    }

    /// `e^θ`, `θ ~ N(0, σ²)`; no draw when `σ = 0`.
    fn theta_factor(&self, rng: &mut Rng) -> f64 {
        if self.sigma > 0.0 {
            rng.normal(0.0, self.sigma).exp()
        } else {
            1.0
        }
    }

    /// `1 + ε`, `ε ~ N(0, relax²)`; no draw when `relax = 0`.
    fn relax_factor(&self, rng: &mut Rng) -> f64 {
        if self.relax > 0.0 {
            1.0 + rng.normal(0.0, self.relax)
        } else {
            1.0
        }
    }
}

/// The one write expression, shared by scalar and bulk so they are
/// bitwise identical by construction.
fn drift_relax_crw(nominal: f64, theta_factor: f64, relax_factor: f64, floor: f64) -> f64 {
    (nominal * theta_factor * relax_factor).max(0.0) - floor
}

impl DeviceModel for DriftRelaxModel {
    fn name(&self) -> &'static str {
        "drift_relax"
    }

    fn moments(&self, v: u32, codec: &WeightCodec) -> Result<(f64, f64)> {
        let nominal = codec.nominal_conductance(v)?;
        let s2 = self.sigma * self.sigma;
        let r2 = self.relax * self.relax;
        let mean = nominal * (0.5 * s2).exp() - codec.total_floor();
        let var = nominal * nominal * ((2.0 * s2).exp() * (1.0 + r2) - s2.exp());
        Ok((mean, var))
    }

    fn write(&self, v: u32, codec: &WeightCodec, rng: &mut Rng) -> Result<f64> {
        let nominal = codec.nominal_conductance(v)?;
        let tf = self.theta_factor(rng);
        let rf = self.relax_factor(rng);
        Ok(drift_relax_crw(nominal, tf, rf, codec.total_floor()))
    }

    fn write_bulk(&self, ctw: &Tensor, codec: &WeightCodec, rng: &mut Rng) -> Result<Tensor> {
        let entries = validate_levels(ctw, codec)?;
        let nominal: Vec<f64> = (0..codec.weight_levels())
            .map(|v| codec.nominal_conductance(v))
            .collect::<Result<_>>()?;
        let floor = codec.total_floor();
        let mut out = Tensor::zeros(ctw.dims());
        for (o, &v) in out.data_mut().iter_mut().zip(&entries) {
            let tf = self.theta_factor(rng);
            let rf = self.relax_factor(rng);
            *o = drift_relax_crw(nominal[v as usize], tf, rf, floor) as f32;
        }
        if rdo_obs::enabled() && self.relax > 0.0 {
            rdo_obs::counter_add("rram.device_model.relax_steps", entries.len() as u64);
        }
        Ok(out)
    }

    fn evolve(&self, crw: &mut Tensor, codec: &WeightCodec, time_ratio: f64) -> Result<()> {
        check_time_ratio(time_ratio)?;
        let factor = self.decay_factor(time_ratio);
        if factor == 1.0 {
            return Ok(());
        }
        let floor = codec.total_floor();
        for v in crw.data_mut() {
            // decay acts on the total conductance, not the calibrated CRW
            *v = ((*v as f64 + floor) * factor - floor) as f32;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Differential pair
// ---------------------------------------------------------------------------

/// Differential-pair cells over any base model: each weight `v` programs a
/// positive array at `v` and a negative array at `max − v`, and reads out
/// `W = (R⁺ − R⁻ + max)/2` — the common two-array encoding that cancels
/// common-mode drift.
///
/// Draw order (the documented contract): the **full positive array
/// first**, then the full negative array, each pass following the base
/// model's own convention. The default per-entry-interleaved test oracle
/// would not match, so the pair overrides `write_bulk_reference` to run
/// the base model's oracle twice in the same array order.
#[derive(Debug)]
pub struct DifferentialPairModel {
    base: Box<dyn DeviceModel>,
}

impl DifferentialPairModel {
    /// Composes the pair over `base`.
    pub fn new(base: Box<dyn DeviceModel>) -> Self {
        DifferentialPairModel { base }
    }

    /// The base model programming each array.
    pub fn base(&self) -> &dyn DeviceModel {
        &*self.base
    }
}

/// The one combine expression (f32, matching CRW tensors), shared by bulk
/// and reference so they are bitwise identical by construction.
fn diff_combine(rp: f32, rn: f32, max: f32) -> f32 {
    0.5 * (rp - rn + max)
}

fn diff_pair_arrays(ctw: &Tensor, codec: &WeightCodec) -> Result<Tensor> {
    // validate up front so neither array pass can fail after draws
    validate_levels(ctw, codec)?;
    let max = codec.max_weight() as f32;
    Ok(ctw.map(|q| max - q))
}

impl DeviceModel for DifferentialPairModel {
    fn name(&self) -> &'static str {
        "diff_pair"
    }

    fn moments(&self, v: u32, codec: &WeightCodec) -> Result<(f64, f64)> {
        let max = codec.max_weight();
        if v > max {
            return Err(RramError::WeightOutOfRange { value: v, levels: codec.weight_levels() });
        }
        let (mp, vp) = self.base.moments(v, codec)?;
        let (mn, vn) = self.base.moments(max - v, codec)?;
        Ok((0.5 * (mp - mn + max as f64), 0.25 * (vp + vn)))
    }

    fn write(&self, v: u32, codec: &WeightCodec, rng: &mut Rng) -> Result<f64> {
        let max = codec.max_weight();
        if v > max {
            return Err(RramError::WeightOutOfRange { value: v, levels: codec.weight_levels() });
        }
        let rp = self.base.write(v, codec, rng)?;
        let rn = self.base.write(max - v, codec, rng)?;
        Ok(0.5 * (rp - rn + max as f64))
    }

    fn write_bulk(&self, ctw: &Tensor, codec: &WeightCodec, rng: &mut Rng) -> Result<Tensor> {
        let comp = diff_pair_arrays(ctw, codec)?;
        let rp = self.base.write_bulk(ctw, codec, rng)?;
        let rn = self.base.write_bulk(&comp, codec, rng)?;
        let max = codec.max_weight() as f32;
        let mut out = Tensor::zeros(ctw.dims());
        for ((o, &p), &n) in out.data_mut().iter_mut().zip(rp.data()).zip(rn.data()) {
            *o = diff_combine(p, n, max);
        }
        Ok(out)
    }

    #[cfg(test)]
    fn write_bulk_reference(
        &self,
        ctw: &Tensor,
        codec: &WeightCodec,
        rng: &mut Rng,
    ) -> Result<Tensor> {
        let comp = diff_pair_arrays(ctw, codec)?;
        let rp = self.base.write_bulk_reference(ctw, codec, rng)?;
        let rn = self.base.write_bulk_reference(&comp, codec, rng)?;
        let max = codec.max_weight() as f32;
        let mut out = Tensor::zeros(ctw.dims());
        for ((o, &p), &n) in out.data_mut().iter_mut().zip(rp.data()).zip(rn.data()) {
            *o = diff_combine(p, n, max);
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Spec: the serializable name of a zoo member
// ---------------------------------------------------------------------------

/// Default LRS σ scale for [`DeviceModelSpec::LevelLognormal`].
pub const LEVEL_LRS_SCALE: f64 = 0.6;
/// Default HRS σ scale for [`DeviceModelSpec::LevelLognormal`].
pub const LEVEL_HRS_SCALE: f64 = 1.4;
/// Default stuck-at probability for [`DeviceModelSpec::LevelLognormal`].
pub const LEVEL_STUCK_P: f64 = 0.002;
/// Default relaxation amplitude for [`DeviceModelSpec::DriftRelax`].
pub const DRIFT_RELAX_AMPLITUDE: f64 = 0.05;
/// Default drift coefficient ν for [`DeviceModelSpec::DriftRelax`].
pub const DRIFT_NU: f64 = 0.05;

/// Which base model a [`DeviceModelSpec::DiffPair`] composes over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DiffBase {
    /// The paper's per-weight lognormal model.
    #[default]
    Paper,
    /// The per-state lognormal model at its default parameters.
    Level,
}

/// A named, serializable member of the device-model zoo — the value the
/// grid/bench API selects models with (`RDO_DEVICE_MODEL`, the
/// `BenchConfig` builder, and the grid's model axis).
///
/// Parameters that scale with the experiment's σ axis are stored as
/// multipliers and resolved by [`DeviceModelSpec::build`]; the textual
/// form round-trips through [`fmt::Display`] / [`FromStr`]:
/// `paper`, `percell`, `level:lrs=0.6,hrs=1.4,stuck=0.002`,
/// `driftrelax:relax=0.05,nu=0.05`, `diffpair:paper`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum DeviceModelSpec {
    /// The paper's per-weight lognormal CCV model (the default).
    #[default]
    PaperLognormal,
    /// The paper's per-cell lognormal ablation.
    PerCellLognormal,
    /// Per-state lognormal with stuck-at faults; `lrs`/`hrs` multiply the
    /// experiment σ, `stuck` is the per-cell fault probability.
    LevelLognormal {
        /// σ multiplier at the top (LRS) state.
        lrs: f64,
        /// σ multiplier at state 0 (HRS).
        hrs: f64,
        /// Stuck-at-fault probability per cell.
        stuck: f64,
    },
    /// Lognormal write noise plus short-term relaxation and drift.
    DriftRelax {
        /// Relaxation noise amplitude.
        relax: f64,
        /// Drift coefficient ν.
        nu: f64,
    },
    /// Differential-pair cells over a base model.
    DiffPair {
        /// The base model programming each array.
        base: DiffBase,
    },
}

impl DeviceModelSpec {
    /// All zoo members at default parameters, in presentation order.
    pub fn all() -> [DeviceModelSpec; 5] {
        [
            DeviceModelSpec::PaperLognormal,
            DeviceModelSpec::PerCellLognormal,
            DeviceModelSpec::level_default(),
            DeviceModelSpec::drift_relax_default(),
            DeviceModelSpec::DiffPair { base: DiffBase::Paper },
        ]
    }

    /// [`DeviceModelSpec::LevelLognormal`] at the default parameters.
    pub fn level_default() -> Self {
        DeviceModelSpec::LevelLognormal {
            lrs: LEVEL_LRS_SCALE,
            hrs: LEVEL_HRS_SCALE,
            stuck: LEVEL_STUCK_P,
        }
    }

    /// [`DeviceModelSpec::DriftRelax`] at the default parameters.
    pub fn drift_relax_default() -> Self {
        DeviceModelSpec::DriftRelax { relax: DRIFT_RELAX_AMPLITUDE, nu: DRIFT_NU }
    }

    /// Instantiates the model at the experiment σ.
    pub fn build(&self, sigma: f64) -> Box<dyn DeviceModel> {
        match *self {
            DeviceModelSpec::PaperLognormal => Box::new(VariationModel::per_weight(sigma)),
            DeviceModelSpec::PerCellLognormal => Box::new(VariationModel::per_cell(sigma)),
            DeviceModelSpec::LevelLognormal { lrs, hrs, stuck } => {
                Box::new(LevelLognormalModel::new(sigma * lrs, sigma * hrs, stuck))
            }
            DeviceModelSpec::DriftRelax { relax, nu } => {
                Box::new(DriftRelaxModel::new(sigma, relax, nu))
            }
            DeviceModelSpec::DiffPair { base } => {
                let inner: Box<dyn DeviceModel> = match base {
                    DiffBase::Paper => Box::new(VariationModel::per_weight(sigma)),
                    DiffBase::Level => Box::new(LevelLognormalModel::new(
                        sigma * LEVEL_LRS_SCALE,
                        sigma * LEVEL_HRS_SCALE,
                        LEVEL_STUCK_P,
                    )),
                };
                Box::new(DifferentialPairModel::new(inner))
            }
        }
    }
}

impl fmt::Display for DeviceModelSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            DeviceModelSpec::PaperLognormal => write!(f, "paper"),
            DeviceModelSpec::PerCellLognormal => write!(f, "percell"),
            DeviceModelSpec::LevelLognormal { lrs, hrs, stuck } => {
                write!(f, "level:lrs={lrs},hrs={hrs},stuck={stuck}")
            }
            DeviceModelSpec::DriftRelax { relax, nu } => {
                write!(f, "driftrelax:relax={relax},nu={nu}")
            }
            DeviceModelSpec::DiffPair { base: DiffBase::Paper } => write!(f, "diffpair:paper"),
            DeviceModelSpec::DiffPair { base: DiffBase::Level } => write!(f, "diffpair:level"),
        }
    }
}

fn parse_param(value: &str, key: &str) -> std::result::Result<f64, String> {
    let v: f64 = value.parse().map_err(|_| format!("invalid {key} value `{value}`"))?;
    if !v.is_finite() || v < 0.0 {
        return Err(format!("{key} must be finite and ≥ 0, got {value}"));
    }
    Ok(v)
}

impl FromStr for DeviceModelSpec {
    type Err = String;

    fn from_str(s: &str) -> std::result::Result<Self, Self::Err> {
        let (head, args) = match s.split_once(':') {
            Some((h, a)) => (h, Some(a)),
            None => (s, None),
        };
        match head {
            "paper" | "paper_lognormal" => Ok(DeviceModelSpec::PaperLognormal),
            "percell" | "per_cell" | "percell_lognormal" => Ok(DeviceModelSpec::PerCellLognormal),
            "level" | "level_lognormal" => {
                let (mut lrs, mut hrs, mut stuck) =
                    (LEVEL_LRS_SCALE, LEVEL_HRS_SCALE, LEVEL_STUCK_P);
                for kv in args.unwrap_or("").split(',').filter(|p| !p.is_empty()) {
                    let (k, v) = kv
                        .split_once('=')
                        .ok_or_else(|| format!("expected key=value, got `{kv}`"))?;
                    match k {
                        "lrs" => lrs = parse_param(v, "lrs")?,
                        "hrs" => hrs = parse_param(v, "hrs")?,
                        "stuck" => {
                            stuck = parse_param(v, "stuck")?;
                            if stuck > 1.0 {
                                return Err(format!("stuck must be ≤ 1, got {v}"));
                            }
                        }
                        other => return Err(format!("unknown level parameter `{other}`")),
                    }
                }
                Ok(DeviceModelSpec::LevelLognormal { lrs, hrs, stuck })
            }
            "driftrelax" | "drift_relax" => {
                let (mut relax, mut nu) = (DRIFT_RELAX_AMPLITUDE, DRIFT_NU);
                for kv in args.unwrap_or("").split(',').filter(|p| !p.is_empty()) {
                    let (k, v) = kv
                        .split_once('=')
                        .ok_or_else(|| format!("expected key=value, got `{kv}`"))?;
                    match k {
                        "relax" => relax = parse_param(v, "relax")?,
                        "nu" => nu = parse_param(v, "nu")?,
                        other => return Err(format!("unknown driftrelax parameter `{other}`")),
                    }
                }
                Ok(DeviceModelSpec::DriftRelax { relax, nu })
            }
            "diffpair" | "diff_pair" => match args.unwrap_or("paper") {
                "paper" => Ok(DeviceModelSpec::DiffPair { base: DiffBase::Paper }),
                "level" => Ok(DeviceModelSpec::DiffPair { base: DiffBase::Level }),
                other => Err(format!("unknown diffpair base `{other}`")),
            },
            other => Err(format!(
                "unknown device model `{other}` (expected paper, percell, level, driftrelax or diffpair)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crossbar::program_matrix;
    use crate::device::{CellKind, CellTechnology};
    use rdo_tensor::rng::seeded_rng;

    fn codec(cell: CellKind) -> WeightCodec {
        WeightCodec::paper(CellTechnology::paper(cell))
    }

    fn test_ctw() -> Tensor {
        Tensor::from_fn(&[13, 7], |i| ((i * 37 + 5) % 256) as f32)
    }

    fn zoo(sigma: f64) -> Vec<Box<dyn DeviceModel>> {
        DeviceModelSpec::all().iter().map(|s| s.build(sigma)).collect()
    }

    /// The tentpole pin: every zoo model's fast path must reproduce its
    /// per-entry oracle bit for bit, at every cell kind, σ and seed.
    #[test]
    fn bulk_matches_reference_for_every_model() {
        for cell in [CellKind::Slc, CellKind::Mlc2] {
            let c = codec(cell);
            for sigma in [0.0, 0.3, 0.8] {
                for model in zoo(sigma) {
                    for seed in [11u64, 12, 13] {
                        let ctw = test_ctw();
                        let bulk =
                            program_matrix(&ctw, &c, &*model, &mut seeded_rng(seed)).unwrap();
                        let reference =
                            model.write_bulk_reference(&ctw, &c, &mut seeded_rng(seed)).unwrap();
                        for (i, (a, b)) in bulk.data().iter().zip(reference.data()).enumerate() {
                            assert_eq!(
                                a.to_bits(),
                                b.to_bits(),
                                "{}/{cell:?} σ={sigma} seed={seed} entry {i}: {a} vs {b}",
                                model.name()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn zero_noise_models_are_exact() {
        // at σ = 0 (and stuck = 0 / relax = 0) every model must return the
        // CTW itself up to f32 rounding
        let c = codec(CellKind::Slc);
        let ctw = test_ctw();
        let exact: Vec<Box<dyn DeviceModel>> = vec![
            DeviceModelSpec::PaperLognormal.build(0.0),
            DeviceModelSpec::PerCellLognormal.build(0.0),
            Box::new(LevelLognormalModel::new(0.0, 0.0, 0.0)),
            Box::new(DriftRelaxModel::new(0.0, 0.0, DRIFT_NU)),
            Box::new(DifferentialPairModel::new(Box::new(LevelLognormalModel::new(0.0, 0.0, 0.0)))),
        ];
        for model in exact {
            let crw = program_matrix(&ctw, &c, &*model, &mut seeded_rng(0)).unwrap();
            for (a, b) in ctw.data().iter().zip(crw.data()) {
                assert!((a - b).abs() < 1e-3, "{}: {a} vs {b}", model.name());
            }
        }
    }

    #[test]
    fn spec_display_parse_round_trips() {
        for spec in DeviceModelSpec::all() {
            let text = spec.to_string();
            let back: DeviceModelSpec = text.parse().unwrap();
            assert_eq!(back, spec, "round trip through `{text}`");
        }
        assert_eq!(
            "diffpair:level".parse::<DeviceModelSpec>().unwrap(),
            DeviceModelSpec::DiffPair { base: DiffBase::Level }
        );
        assert_eq!(
            "level:stuck=0.01".parse::<DeviceModelSpec>().unwrap(),
            DeviceModelSpec::LevelLognormal {
                lrs: LEVEL_LRS_SCALE,
                hrs: LEVEL_HRS_SCALE,
                stuck: 0.01
            }
        );
        assert_eq!(
            "diffpair".parse::<DeviceModelSpec>().unwrap(),
            DeviceModelSpec::DiffPair { base: DiffBase::Paper }
        );
        assert!("nonsense".parse::<DeviceModelSpec>().is_err());
        assert!("level:stuck=2".parse::<DeviceModelSpec>().is_err());
        assert!("level:frobnicate=1".parse::<DeviceModelSpec>().is_err());
        assert!("driftrelax:relax=-1".parse::<DeviceModelSpec>().is_err());
    }

    #[test]
    fn monte_carlo_matches_moments_level_model() {
        let c = codec(CellKind::Mlc2);
        let model = LevelLognormalModel::new(0.2, 0.5, 0.01);
        let mut rng = seeded_rng(3);
        let n = 40_000usize;
        let v = 170u32;
        let samples: Vec<f64> = (0..n).map(|_| model.write(v, &c, &mut rng).unwrap()).collect();
        let emp_mean = samples.iter().sum::<f64>() / n as f64;
        let emp_var = samples.iter().map(|s| (s - emp_mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        let (mean, var) = model.moments(v, &c).unwrap();
        assert!((emp_mean - mean).abs() / mean.abs() < 0.02, "{emp_mean} vs {mean}");
        assert!((emp_var - var).abs() / var < 0.1, "{emp_var} vs {var}");
    }

    #[test]
    fn monte_carlo_matches_moments_drift_relax() {
        let c = codec(CellKind::Slc);
        let model = DriftRelaxModel::new(0.4, 0.1, DRIFT_NU);
        let mut rng = seeded_rng(4);
        let n = 40_000usize;
        let samples: Vec<f64> = (0..n).map(|_| model.write(90, &c, &mut rng).unwrap()).collect();
        let emp_mean = samples.iter().sum::<f64>() / n as f64;
        let emp_var = samples.iter().map(|s| (s - emp_mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        let (mean, var) = model.moments(90, &c).unwrap();
        assert!((emp_mean - mean).abs() / mean < 0.02, "{emp_mean} vs {mean}");
        assert!((emp_var - var).abs() / var < 0.1, "{emp_var} vs {var}");
    }

    #[test]
    fn diff_pair_moments_compose_base_moments() {
        let c = codec(CellKind::Slc);
        let base = VariationModel::per_weight(0.5);
        let model = DifferentialPairModel::new(Box::new(base));
        let max = c.max_weight();
        for v in [0u32, 17, 128, 255] {
            let (m, s2) = model.moments(v, &c).unwrap();
            let (mp, vp) = base.moments(v, &c).unwrap();
            let (mn, vn) = base.moments(max - v, &c).unwrap();
            assert!((m - 0.5 * (mp - mn + max as f64)).abs() < 1e-12);
            assert!((s2 - 0.25 * (vp + vn)).abs() < 1e-9);
        }
        // the differential read halves each array's noise contribution:
        // Var_pair < Var_single at mid-scale
        let (_, v_single) = base.moments(128, &c).unwrap();
        let (_, v_pair) = model.moments(128, &c).unwrap();
        assert!(v_pair < v_single, "{v_pair} !< {v_single}");
    }

    #[test]
    fn stuck_faults_are_injected_at_the_configured_rate() {
        let c = codec(CellKind::Slc);
        let stuck_p = 0.05;
        let model = LevelLognormalModel::new(0.0, 0.0, stuck_p);
        let ctw = Tensor::full(&[64, 64], 200.0);
        let crw = program_matrix(&ctw, &c, &model, &mut seeded_rng(9)).unwrap();
        // with σ = 0 every deviation from the CTW is a stuck cell
        let hit = crw.data().iter().filter(|&&v| (v - 200.0).abs() > 1e-3).count();
        let cells = ctw.len() * c.cells_per_weight();
        // a stuck fault is only visible when it lands on the opposite
        // state (stuck-on hits an OFF cell or vice versa), i.e. with
        // probability p/2 per cell; a weight shows a deviation unless all
        // its cells are clean-or-invisible
        let expected = ctw.len() as f64 * (1.0 - (1.0 - stuck_p * 0.5).powi(8));
        assert!(
            (hit as f64 - expected).abs() < 0.15 * expected,
            "{hit} stuck-affected weights vs ≈{expected:.0} expected ({cells} cells)"
        );
        // and the same seed injects the same faults
        let again = program_matrix(&ctw, &c, &model, &mut seeded_rng(9)).unwrap();
        assert_eq!(crw, again, "stuck-at injection must be seed-deterministic");
    }

    #[test]
    fn drift_relax_evolve_decays_toward_floor() {
        let c = codec(CellKind::Slc);
        let model = DriftRelaxModel::new(0.0, 0.0, 0.1);
        let ctw = Tensor::from_vec(vec![0.0, 100.0, 255.0], &[1, 3]).unwrap();
        let mut crw = program_matrix(&ctw, &c, &model, &mut seeded_rng(0)).unwrap();
        let before = crw.clone();
        // time_ratio = 1 is the identity
        model.evolve(&mut crw, &c, 1.0).unwrap();
        assert_eq!(crw, before);
        model.evolve(&mut crw, &c, 100.0).unwrap();
        for (a, b) in crw.data().iter().zip(before.data()) {
            assert!(a <= b, "{a} > {b} after aging");
        }
        // large weights lose more (state-proportional)
        let loss_small = before.data()[1] - crw.data()[1];
        let loss_large = before.data()[2] - crw.data()[2];
        assert!(loss_large > loss_small);
        // invalid ratios are rejected
        assert!(model.evolve(&mut crw, &c, 0.5).is_err());
        // paper model's default evolve is a no-op
        let paper = DeviceModelSpec::PaperLognormal.build(0.5);
        let mut crw2 = before.clone();
        paper.evolve(&mut crw2, &c, 100.0).unwrap();
        assert_eq!(crw2, before);
    }

    #[test]
    fn out_of_range_rejected_by_every_model() {
        let c = codec(CellKind::Slc);
        let bad = Tensor::from_vec(vec![256.0], &[1, 1]).unwrap();
        let neg = Tensor::from_vec(vec![-1.0], &[1, 1]).unwrap();
        for model in zoo(0.5) {
            for t in [&bad, &neg] {
                assert!(
                    program_matrix(t, &c, &*model, &mut seeded_rng(0)).is_err(),
                    "{} accepted an invalid CTW",
                    model.name()
                );
                assert!(
                    model.write_bulk_reference(t, &c, &mut seeded_rng(0)).is_err(),
                    "{} reference accepted an invalid CTW",
                    model.name()
                );
            }
        }
    }
}
