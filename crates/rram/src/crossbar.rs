//! Matrix programming: the one path from CTWs to sampled CRWs.
//!
//! [`program_matrix`] samples one CRW per weight under any
//! [`DeviceModel`] and returns a real-valued matrix; downstream VMMs are
//! ordinary matrix products. Because Kirchhoff summation is linear and an
//! ideal ADC preserves it, this is exact for accuracy experiments.
//! [`program_matrix_with_ddv`] is the DDV ablation's variant, and
//! [`CrossbarSpec`] holds the array dimensions the offset groups tile.

use rdo_tensor::rng::Rng;
use rdo_tensor::{scratch, Tensor};

use crate::codec::WeightCodec;
use crate::device_model::DeviceModel;
use crate::error::{Result, RramError};
use crate::variation::VariationModel;

/// Physical dimensions of one crossbar array (the paper simulates
/// 128×128).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CrossbarSpec {
    /// Number of wordlines (rows).
    pub rows: usize,
    /// Number of bitlines (cell columns).
    pub cols: usize,
}

impl Default for CrossbarSpec {
    fn default() -> Self {
        CrossbarSpec { rows: 128, cols: 128 }
    }
}

/// Validates and rounds every CTW entry to its integer level, up front,
/// so the bulk sampling loops below can be panic-free and branch-light.
pub(crate) fn validate_levels(ctw: &Tensor, codec: &WeightCodec) -> Result<Vec<u32>> {
    if ctw.shape().rank() != 2 {
        return Err(RramError::ShapeMismatch(format!(
            "CTW matrix must be rank 2, got {:?}",
            ctw.dims()
        )));
    }
    let mut levels = Vec::with_capacity(ctw.data().len());
    for &q in ctw.data() {
        let v = q.round();
        if v < 0.0 || v > codec.max_weight() as f32 {
            return Err(RramError::WeightOutOfRange {
                value: v.max(0.0) as u32,
                levels: codec.weight_levels(),
            });
        }
        levels.push(v as u32);
    }
    Ok(levels)
}

/// The level → total nominal conductance table (`v + floor` in weight
/// units), one entry per representable level.
pub(crate) fn nominal_table(codec: &WeightCodec) -> Result<Vec<f64>> {
    (0..codec.weight_levels()).map(|v| codec.nominal_conductance(v)).collect()
}

/// Draws `n` values of `N(0, sigma²)` into a buffer of the thread's
/// [`scratch`] pool — in order, so the stream is exactly `n` scalar
/// draws — and hands them to `f`. The bulk programming paths share it so
/// the per-cycle hot loop stops allocating after warm-up.
pub(crate) fn with_theta(n: usize, sigma: f64, rng: &mut Rng, f: impl FnOnce(&[f64])) {
    let mut theta = scratch::take_f64(n);
    for t in theta.iter_mut() {
        *t = rng.normal(0.0, sigma);
    }
    f(&theta);
    scratch::recycle_f64(theta);
}

/// Counter name for one model's bulk programming calls (counters need
/// `&'static str`, so the per-model names are enumerated here).
fn per_model_counter(name: &str) -> &'static str {
    match name {
        "paper" => "rram.device_model.paper.programs",
        "percell" => "rram.device_model.percell.programs",
        "level_lognormal" => "rram.device_model.level_lognormal.programs",
        "drift_relax" => "rram.device_model.drift_relax.programs",
        "diff_pair" => "rram.device_model.diff_pair.programs",
        _ => "rram.device_model.other.programs",
    }
}

/// Samples CRWs for a whole integer weight matrix under any
/// [`DeviceModel`]: the programming step of every experiment.
///
/// `ctw` holds integer levels (as whole-valued `f32`) of shape
/// `(fan_in, fan_out)`; the result has the same shape with one sampled
/// crossbar real weight per entry. This runs the model's
/// [`DeviceModel::write_bulk`] fast path, which every model pins bitwise
/// to its per-entry test oracle at any seed.
///
/// Counts `rram.program.calls`, `rram.program.weights` and the model's
/// `rram.device_model.<name>.programs` when observability is on.
///
/// # Errors
///
/// Returns [`RramError::WeightOutOfRange`] if any entry does not fit the
/// codec, or [`RramError::ShapeMismatch`] for a non-matrix tensor.
pub fn program_matrix(
    ctw: &Tensor,
    codec: &WeightCodec,
    model: &dyn DeviceModel,
    rng: &mut Rng,
) -> Result<Tensor> {
    if rdo_obs::enabled() {
        rdo_obs::counter_add("rram.program.calls", 1);
        rdo_obs::counter_add("rram.program.weights", ctw.len() as u64);
        rdo_obs::counter_add(per_model_counter(model.name()), 1);
    }
    model.write_bulk(ctw, codec, rng)
}

/// Samples per-weight device-to-device factors (`e^{θ_d}`, fixed across
/// programming cycles) for a matrix of the given shape.
pub fn sample_ddv_factors(dims: &[usize], ddv: &VariationModel, rng: &mut Rng) -> Tensor {
    let sigma = ddv.sigma();
    if sigma == 0.0 {
        return Tensor::ones(dims);
    }
    Tensor::from_fn(dims, |_| rng.normal(0.0, sigma).exp() as f32)
}

/// Like [`program_matrix`], but composes a fixed per-device DDV factor
/// with a fresh cycle-to-cycle factor:
/// `CRW = (v + F)·d·e^{θ_c} − F`, where `d` comes from
/// [`sample_ddv_factors`] (held constant across calls) and `θ_c` is drawn
/// fresh on every call.
///
/// With an all-ones `ddv` matrix this is exactly [`program_matrix`] for
/// the per-weight [`VariationModel`].
///
/// # Errors
///
/// Returns [`RramError::ShapeMismatch`] if the factor matrix does not
/// match `ctw`, or [`RramError::WeightOutOfRange`] for unrepresentable
/// weights.
pub fn program_matrix_with_ddv(
    ctw: &Tensor,
    codec: &WeightCodec,
    ddv_factors: &Tensor,
    ccv: &VariationModel,
    rng: &mut Rng,
) -> Result<Tensor> {
    if ctw.shape().rank() != 2 || ddv_factors.dims() != ctw.dims() {
        return Err(RramError::ShapeMismatch(format!(
            "CTW {:?} vs DDV factors {:?}",
            ctw.dims(),
            ddv_factors.dims()
        )));
    }
    let levels = validate_levels(ctw, codec)?;
    let floor = codec.total_floor();
    let nominal = nominal_table(codec)?;
    let sigma = ccv.sigma();
    if rdo_obs::enabled() {
        rdo_obs::counter_add("rram.program.calls", 1);
        rdo_obs::counter_add("rram.program.weights", levels.len() as u64);
        let draws = if sigma == 0.0 { 0 } else { levels.len() };
        rdo_obs::counter_add("rram.theta.samples", draws as u64);
    }
    let mut out = Tensor::zeros(ctw.dims());
    if sigma == 0.0 {
        for ((o, &v), &d) in out.data_mut().iter_mut().zip(&levels).zip(ddv_factors.data()) {
            *o = (nominal[v as usize] * d as f64 - floor) as f32;
        }
    } else {
        // one CCV draw per weight regardless of the model's kind — the
        // same contract as the scalar path's `sample_factor`
        with_theta(levels.len(), sigma, rng, |theta| {
            for (((o, &v), &d), t) in
                out.data_mut().iter_mut().zip(&levels).zip(ddv_factors.data()).zip(theta)
            {
                // write the nominal conductance through both factors,
                // calibrate the floor out afterwards (same convention as
                // VariationModel)
                *o = (nominal[v as usize] * d as f64 * t.exp() - floor) as f32;
            }
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{CellKind, CellTechnology};
    use crate::variation::VariationKind;
    use rdo_tensor::rng::seeded_rng;

    /// The per-entry test oracle for [`program_matrix_with_ddv`]: bitwise
    /// equal to the bulk path, same contract.
    ///
    /// # Errors
    ///
    /// Same contract as [`program_matrix_with_ddv`].
    fn program_matrix_with_ddv_scalar(
        ctw: &Tensor,
        codec: &WeightCodec,
        ddv_factors: &Tensor,
        ccv: &VariationModel,
        rng: &mut Rng,
    ) -> Result<Tensor> {
        if ctw.shape().rank() != 2 || ddv_factors.dims() != ctw.dims() {
            return Err(RramError::ShapeMismatch(format!(
                "CTW {:?} vs DDV factors {:?}",
                ctw.dims(),
                ddv_factors.dims()
            )));
        }
        let floor = codec.total_floor();
        let mut out = Tensor::zeros(ctw.dims());
        for ((o, &q), &d) in out.data_mut().iter_mut().zip(ctw.data()).zip(ddv_factors.data()) {
            let v = q.round();
            if v < 0.0 || v > codec.max_weight() as f32 {
                return Err(RramError::WeightOutOfRange {
                    value: v.max(0.0) as u32,
                    levels: codec.weight_levels(),
                });
            }
            let nominal = codec.nominal_conductance(v as u32)?;
            *o = (nominal * d as f64 * ccv.sample_factor(rng) - floor) as f32;
        }
        Ok(out)
    }

    /// The paper codec of an SLC or a 2-bit MLC cell, equally likely.
    fn random_codec(rng: &mut Rng) -> WeightCodec {
        let kind = [CellKind::Slc, CellKind::Mlc2][rng.gen_range(0..2)];
        WeightCodec::paper(CellTechnology::paper(kind))
    }

    /// Either variation kind, equally likely.
    fn random_kind(rng: &mut Rng) -> VariationKind {
        [VariationKind::PerCell, VariationKind::PerWeight][rng.gen_range(0..2)]
    }

    /// σ = 0 or σ uniform in `[lo, hi)`, equally likely.
    fn zero_or_sigma(lo: f64, hi: f64, rng: &mut Rng) -> f64 {
        [0.0, rng.gen_range(lo..hi)][rng.gen_range(0..2)]
    }

    fn codec() -> WeightCodec {
        WeightCodec::paper(CellTechnology::paper(CellKind::Slc))
    }

    #[test]
    fn program_matrix_zero_sigma_is_exact() {
        let ctw = Tensor::from_vec(vec![0.0, 17.0, 255.0, 128.0], &[2, 2]).unwrap();
        let crw =
            program_matrix(&ctw, &codec(), &VariationModel::per_weight(0.0), &mut seeded_rng(0))
                .unwrap();
        for (a, b) in ctw.data().iter().zip(crw.data()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn program_matrix_rejects_out_of_range() {
        let ctw = Tensor::from_vec(vec![256.0], &[1, 1]).unwrap();
        assert!(program_matrix(
            &ctw,
            &codec(),
            &VariationModel::per_weight(0.1),
            &mut seeded_rng(0)
        )
        .is_err());
        let neg = Tensor::from_vec(vec![-1.0], &[1, 1]).unwrap();
        assert!(program_matrix(
            &neg,
            &codec(),
            &VariationModel::per_weight(0.1),
            &mut seeded_rng(0)
        )
        .is_err());
        // the per-entry reference enforces the same contract
        assert!(VariationModel::per_weight(0.1)
            .write_bulk_reference(&neg, &codec(), &mut seeded_rng(0))
            .is_err());
    }

    /// Fixed-case twin of the `bulk_program_matches_scalar` seeded property test:
    /// the paper model's bulk path must reproduce its per-entry reference
    /// bit for bit.
    #[test]
    fn bulk_matches_scalar_fixed_cases() {
        for cell in [CellKind::Slc, CellKind::Mlc2] {
            let c = WeightCodec::paper(CellTechnology::paper(cell));
            for kind in [VariationKind::PerWeight, VariationKind::PerCell] {
                for sigma in [0.0, 0.3, 0.8] {
                    let model = VariationModel::new(sigma, kind);
                    let ctw = Tensor::from_fn(&[17, 9], |i| ((i * 41 + 3) % 256) as f32);
                    let bulk = program_matrix(&ctw, &c, &model, &mut seeded_rng(11)).unwrap();
                    let scalar = model.write_bulk_reference(&ctw, &c, &mut seeded_rng(11)).unwrap();
                    for (i, (a, b)) in bulk.data().iter().zip(scalar.data()).enumerate() {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "{cell:?}/{kind:?} σ={sigma} entry {i}: {a} vs {b}"
                        );
                    }
                }
            }
        }
    }

    /// Fixed-case twin of the `bulk_ddv_program_matches_scalar` seeded property test.
    #[test]
    fn bulk_ddv_matches_scalar_fixed_cases() {
        for cell in [CellKind::Slc, CellKind::Mlc2] {
            let c = WeightCodec::paper(CellTechnology::paper(cell));
            for (ddv_sigma, ccv_sigma) in [(0.0, 0.5), (0.3, 0.0), (0.35, 0.35)] {
                let ctw = Tensor::from_fn(&[13, 7], |i| ((i * 29 + 5) % 256) as f32);
                let ddv = VariationModel::per_weight(ddv_sigma);
                let ccv = VariationModel::per_weight(ccv_sigma);
                let factors = sample_ddv_factors(ctw.dims(), &ddv, &mut seeded_rng(21));
                let bulk =
                    program_matrix_with_ddv(&ctw, &c, &factors, &ccv, &mut seeded_rng(22)).unwrap();
                let scalar =
                    program_matrix_with_ddv_scalar(&ctw, &c, &factors, &ccv, &mut seeded_rng(22))
                        .unwrap();
                for (i, (a, b)) in bulk.data().iter().zip(scalar.data()).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "{cell:?} ddv={ddv_sigma} ccv={ccv_sigma} entry {i}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn split_ddv_ccv_preserves_total_variance() {
        let total = VariationModel::per_weight(0.5);
        let (d, c) = total.split_ddv_ccv(0.3);
        let s2 = d.sigma() * d.sigma() + c.sigma() * c.sigma();
        assert!((s2 - 0.25).abs() < 1e-12);
        let (d, c) = total.split_ddv_ccv(0.0);
        assert_eq!(d.sigma(), 0.0);
        assert_eq!(c.sigma(), 0.5);
    }

    #[test]
    fn ddv_program_is_deterministic_without_ccv() {
        let c = codec();
        let total = VariationModel::per_weight(0.5);
        let (ddv, _) = total.split_ddv_ccv(1.0);
        let ctw = Tensor::from_fn(&[8, 4], |i| ((i * 31) % 256) as f32);
        let factors = sample_ddv_factors(ctw.dims(), &ddv, &mut seeded_rng(7));
        let ccv_none = VariationModel::per_weight(0.0);
        let a = program_matrix_with_ddv(&ctw, &c, &factors, &ccv_none, &mut seeded_rng(1)).unwrap();
        let b = program_matrix_with_ddv(&ctw, &c, &factors, &ccv_none, &mut seeded_rng(2)).unwrap();
        assert_eq!(a, b, "pure DDV must repeat exactly across cycles");
        assert_ne!(a, ctw, "DDV factors must still perturb the weights");
    }

    #[test]
    fn ddv_plus_ccv_matches_total_statistics() {
        let c = codec();
        let total = VariationModel::per_weight(0.5);
        let (ddv, ccv) = total.split_ddv_ccv(0.5);
        let ctw = Tensor::full(&[64, 4], 100.0);
        let mut rng = seeded_rng(3);
        let mut sum = 0.0f64;
        let mut count = 0usize;
        for _ in 0..40 {
            let factors = sample_ddv_factors(ctw.dims(), &ddv, &mut rng);
            let crw = program_matrix_with_ddv(&ctw, &c, &factors, &ccv, &mut rng).unwrap();
            sum += crw.data().iter().map(|&v| v as f64).sum::<f64>();
            count += crw.len();
        }
        let (expected_mean, _) = total.moments(100, &c).unwrap();
        let mean = sum / count as f64;
        assert!((mean - expected_mean).abs() / expected_mean < 0.02, "{mean} vs {expected_mean}");
    }

    #[test]
    fn ddv_shape_mismatch_rejected() {
        let c = codec();
        let ctw = Tensor::zeros(&[4, 4]);
        let factors = Tensor::ones(&[4, 3]);
        assert!(program_matrix_with_ddv(
            &ctw,
            &c,
            &factors,
            &VariationModel::per_weight(0.1),
            &mut seeded_rng(0)
        )
        .is_err());
    }

    /// The bulk programming path is bitwise identical to the scalar
    /// per-entry path for any σ (including 0), either variation kind
    /// and either cell kind, at any matching seed.
    #[test]
    fn bulk_program_matches_scalar() {
        for case in 0..64 {
            let mut rng = seeded_rng(case);
            let (codec, seed) = (random_codec(&mut rng), rng.gen_range(0u64..1000));
            let model =
                VariationModel::new(zero_or_sigma(0.05, 1.0, &mut rng), random_kind(&mut rng));
            let (rows, cols) = (rng.gen_range(1usize..12), rng.gen_range(1usize..12));
            let ctw = Tensor::from_fn(&[rows, cols], |i| {
                ((i as u64 * (seed * 13 + 5) + seed) % 256) as f32
            });
            let bulk = program_matrix(&ctw, &codec, &model, &mut seeded_rng(seed)).unwrap();
            let scalar = model.write_bulk_reference(&ctw, &codec, &mut seeded_rng(seed)).unwrap();
            for (a, b) in bulk.data().iter().zip(scalar.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "case {case}");
            }
        }
    }

    /// Same bitwise guarantee for the DDV + CCV programming path.
    #[test]
    fn bulk_ddv_program_matches_scalar() {
        for case in 0..64 {
            let mut rng = seeded_rng(case);
            let (codec, seed) = (random_codec(&mut rng), rng.gen_range(0u64..1000));
            let ddv = VariationModel::per_weight(zero_or_sigma(0.05, 0.5, &mut rng));
            let ccv = VariationModel::per_weight(zero_or_sigma(0.05, 0.5, &mut rng));
            let (rows, cols) = (rng.gen_range(1usize..10), rng.gen_range(1usize..10));
            let ctw = Tensor::from_fn(&[rows, cols], |i| {
                ((i as u64 * (seed * 17 + 3) + seed) % 256) as f32
            });
            let factors = sample_ddv_factors(&[rows, cols], &ddv, &mut seeded_rng(seed ^ 0xD0));
            let bulk = program_matrix_with_ddv(&ctw, &codec, &factors, &ccv, &mut seeded_rng(seed))
                .unwrap();
            let scalar =
                program_matrix_with_ddv_scalar(&ctw, &codec, &factors, &ccv, &mut seeded_rng(seed))
                    .unwrap();
            for (a, b) in bulk.data().iter().zip(scalar.data()) {
                assert_eq!(a.to_bits(), b.to_bits(), "case {case}");
            }
        }
    }
}
