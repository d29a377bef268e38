//! Variation-aware weight optimization (§III-B) and the weight-complement
//! enhancement (§III-C).
//!
//! For every group of `m` weights sharing one offset, VAWO chooses the
//! integer crossbar target weights `vᵢ` and the offset `b` minimizing
//!
//! ```text
//!   Σᵢ gᵢ² · ( Var[R(vᵢ)] + biasᵢ² ),     biasᵢ = E[R(vᵢ)] + b − wᵢ*
//! ```
//!
//! subject to `E[R(vᵢ)] + b ≈ wᵢ*` (Eq. 6 inverted through the device
//! LUT). The paper's objective (Eq. 5) is the first term; the `biasᵢ²`
//! extension accounts for the integer CTW grid making Eq. 6 inexact
//! (DESIGN.md ablation 4) and can be disabled via
//! [`OffsetConfig::vawo_bias_term`].
//!
//! With the weight-complement enhancement, each group may instead store
//! `2ⁿ−1−wᵢ*`; the ISAAC `(2ⁿ−1)Σx − z′` unit undoes the complement
//! digitally, so the group solves a second optimization against the
//! complemented targets and keeps the better of the two.

use rdo_tensor::{parallel_map_indexed, resolve_threads, Tensor};

use crate::config::OffsetConfig;
use crate::error::{CoreError, Result};
use crate::offsets::{GroupLayout, OffsetState};
use rdo_rram::DeviceLut;

/// Result of optimizing one mapped matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct VawoOutput {
    /// Integer CTWs, `(fan_in, fan_out)`.
    pub ctw: Tensor,
    /// Per-group offsets and complement flags.
    pub state: OffsetState,
    /// The achieved objective value, summed over all groups.
    pub objective: f64,
}

/// Precomputed solver: for every integer target mean `t`, the optimal CTW
/// `v(t) = argmin |E[R(v)] − t|` plus that CTW's variance and bias².
struct TargetTable {
    t0: i64,
    v: Vec<u32>,
    var: Vec<f64>,
    bias_sq: Vec<f64>,
}

impl TargetTable {
    fn build(lut: &DeviceLut, cfg: &OffsetConfig) -> Self {
        let maxw = (lut.len() - 1) as i64;
        // targets span w̃ − b for w̃ ∈ [0, maxw], b ∈ [min, max]
        let t0 = -(cfg.offset_max() as i64);
        let t1 = maxw - cfg.offset_min() as i64;
        let n = (t1 - t0 + 1) as usize;
        let mut v = Vec::with_capacity(n);
        let mut var = Vec::with_capacity(n);
        let mut bias_sq = Vec::with_capacity(n);
        for i in 0..n {
            let t = (t0 + i as i64) as f64;
            let vi = lut.inverse_mean(t);
            v.push(vi);
            var.push(lut.var(vi));
            let b = lut.mean(vi) - t;
            bias_sq.push(b * b);
        }
        TargetTable { t0, v, var, bias_sq }
    }

    #[inline]
    fn idx(&self, target: i64) -> usize {
        (target - self.t0) as usize
    }

    /// Expands the per-target terms into a dense `(maxw+1) × n_b` matrix
    /// `contrib[w̃][bi] = Var[R(v(w̃−b))] (+ bias²)`, so the group search
    /// becomes per-row axpys into an offset-indexed objective vector. The
    /// complemented formulation reuses row `maxw − w̃` for free.
    fn contrib_matrix(&self, cfg: &OffsetConfig, maxw: i64, n_b: usize) -> Vec<f64> {
        let b_min = cfg.offset_min() as i64;
        let mut contrib = vec![0.0f64; (maxw as usize + 1) * n_b];
        for w in 0..=maxw {
            let row = &mut contrib[w as usize * n_b..(w as usize + 1) * n_b];
            for (bi, slot) in row.iter_mut().enumerate() {
                let e = self.idx(w - (b_min + bi as i64));
                // precomputing the sum reuses the exact operands the
                // per-triple search adds, so the f64 result is identical
                *slot =
                    if cfg.vawo_bias_term { self.var[e] + self.bias_sq[e] } else { self.var[e] };
            }
        }
        contrib
    }
}

/// Argument validation shared by [`optimize_matrix`] and its test
/// oracle.
fn validate_inputs(
    ntw_q: &Tensor,
    grads_sq: &Tensor,
    layout: &GroupLayout,
    lut: &DeviceLut,
    cfg: &OffsetConfig,
) -> Result<()> {
    cfg.validate()?;
    let (fan_in, fan_out) = (layout.fan_in(), layout.fan_out());
    if ntw_q.dims() != [fan_in, fan_out] || grads_sq.dims() != [fan_in, fan_out] {
        return Err(CoreError::InvalidConfig(format!(
            "NTW {:?} / grads {:?} do not match layout {}×{}",
            ntw_q.dims(),
            grads_sq.dims(),
            fan_in,
            fan_out
        )));
    }
    if lut.len() != cfg.codec.weight_levels() as usize {
        return Err(CoreError::InvalidConfig(format!(
            "LUT has {} entries but codec supports {}",
            lut.len(),
            cfg.codec.weight_levels()
        )));
    }
    Ok(())
}

/// Runs VAWO (optionally with the weight complement) over one mapped
/// matrix on up to `threads` worker threads (`0` defers to
/// `RDO_THREADS`/available parallelism, matching the engine-wide
/// convention).
///
/// * `ntw_q` — integer network target weights, `(fan_in, fan_out)`.
/// * `grads_sq` — squared mean loss gradients, same shape. Only relative
///   magnitudes within a group matter; all-zero groups fall back to an
///   unweighted objective.
///
/// Output columns are independent, the per-group search is identical
/// code whichever worker owns the column, and the total objective is
/// reduced serially in the fixed (row-range, column) order — so the
/// result is **bitwise identical for every thread count**.
///
/// # Errors
///
/// Returns [`CoreError::InvalidConfig`] on shape mismatches or if the LUT
/// size disagrees with the codec in `cfg`.
pub fn optimize_matrix(
    ntw_q: &Tensor,
    grads_sq: &Tensor,
    layout: &GroupLayout,
    lut: &DeviceLut,
    cfg: &OffsetConfig,
    use_complement: bool,
    threads: usize,
) -> Result<VawoOutput> {
    let _span = rdo_obs::span("core.vawo");
    validate_inputs(ntw_q, grads_sq, layout, lut, cfg)?;
    if rdo_obs::enabled() {
        rdo_obs::counter_add(
            "core.vawo.groups_searched",
            (layout.group_count() * layout.fan_out()) as u64,
        );
    }
    let (fan_in, fan_out) = (layout.fan_in(), layout.fan_out());
    let maxw = cfg.codec.max_weight() as i64;
    let table = TargetTable::build(lut, cfg);
    let (b_min, b_max) = (cfg.offset_min() as i64, cfg.offset_max() as i64);
    let n_b = (b_max - b_min + 1) as usize;
    let contrib = table.contrib_matrix(cfg, maxw, n_b);
    let forms: &[bool] = if use_complement { &[false, true] } else { &[false] };
    let row_bounds = layout.row_bounds();

    let threads = resolve_threads(threads).min(fan_out.max(1));
    // per column: the winning (objective, offset, complemented) of every
    // row-range group plus the materialized CTW column
    let columns = parallel_map_indexed(fan_out, threads, |c| {
        let mut winners = Vec::with_capacity(row_bounds.len());
        let mut col_ctw = vec![0.0f32; fan_in];
        let mut obj_vec = vec![0.0f64; n_b];
        for &(r0, r1) in row_bounds {
            let mut best: Option<(f64, i64, bool)> = None;
            for &comp in forms {
                obj_vec.iter_mut().for_each(|o| *o = 0.0);
                for r in r0..r1 {
                    let w = ntw_q.data()[r * fan_out + c].round() as i64;
                    let wt = if comp { maxw - w } else { w };
                    // floor the weighting at a tiny epsilon so zero-gradient
                    // groups still get unbiased, low-variance CTWs
                    let g = (grads_sq.data()[r * fan_out + c] as f64).max(1e-20);
                    let row = &contrib[wt as usize * n_b..(wt as usize + 1) * n_b];
                    // ascending-row axpy: every obj_vec[bi] accumulates the
                    // same f64 terms in the same order as the per-triple
                    // search at offset b_min+bi
                    for (o, &t) in obj_vec.iter_mut().zip(row) {
                        *o += g * t;
                    }
                }
                for (bi, &obj) in obj_vec.iter().enumerate() {
                    if best.is_none_or(|(bo, _, _)| obj < bo) {
                        best = Some((obj, b_min + bi as i64, comp));
                    }
                }
            }
            let win = best.expect("offset range is never empty");
            let (_, b, comp) = win;
            // materialize the CTWs for the winning formulation
            for (slot, r) in col_ctw[r0..r1].iter_mut().zip(r0..r1) {
                let w = ntw_q.data()[r * fan_out + c].round() as i64;
                let wt = if comp { maxw - w } else { w };
                *slot = table.v[table.idx(wt - b)] as f32;
            }
            winners.push(win);
        }
        (winners, col_ctw)
    });

    let mut ctw = Tensor::zeros(&[fan_in, fan_out]);
    let n_groups = layout.group_count();
    let mut offsets = vec![0.0f32; n_groups];
    let mut complemented = vec![false; n_groups];
    let mut total_objective = 0.0f64;
    for ri in 0..row_bounds.len() {
        for (c, (winners, _)) in columns.iter().enumerate() {
            let (obj, b, comp) = winners[ri];
            let gi = layout.group_index(ri, c);
            offsets[gi] = b as f32;
            complemented[gi] = comp;
            total_objective += obj;
        }
    }
    for (c, (_, col_ctw)) in columns.iter().enumerate() {
        for (r, &v) in col_ctw.iter().enumerate() {
            ctw.data_mut()[r * fan_out + c] = v;
        }
    }

    let state = OffsetState::from_parts(layout.clone(), offsets, complemented)?;
    Ok(VawoOutput { ctw, state, objective: total_objective })
}

/// The complement of an integer weight at the given bit width:
/// `2^bits − 1 − w` (§III-C).
///
/// # Panics
///
/// Panics if `w` does not fit in `bits` bits.
pub fn complement_weight(w: u32, bits: u32) -> u32 {
    let maxw = (1u32 << bits) - 1;
    assert!(w <= maxw, "weight {w} exceeds {bits}-bit range");
    maxw - w
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdo_rram::{CellKind, VariationModel};
    use rdo_tensor::rng::seeded_rng;

    /// The naive VAWO search, kept as the bitwise test oracle for the
    /// table-driven [`optimize_matrix`]: every `(weight, offset,
    /// formulation)` triple probes the device LUT directly, with no
    /// precomputation beyond the LUT itself.
    fn optimize_matrix_reference(
        ntw_q: &Tensor,
        grads_sq: &Tensor,
        layout: &GroupLayout,
        lut: &DeviceLut,
        cfg: &OffsetConfig,
        use_complement: bool,
    ) -> Result<VawoOutput> {
        validate_inputs(ntw_q, grads_sq, layout, lut, cfg)?;
        let (fan_in, fan_out) = (layout.fan_in(), layout.fan_out());
        let maxw = cfg.codec.max_weight() as i64;
        let (b_min, b_max) = (cfg.offset_min() as i64, cfg.offset_max() as i64);

        let mut ctw = Tensor::zeros(&[fan_in, fan_out]);
        let n_groups = layout.group_count();
        let mut offsets = vec![0.0f32; n_groups];
        let mut complemented = vec![false; n_groups];
        let mut total_objective = 0.0f64;

        // scratch per group
        let mut w_tilde = Vec::new();
        let mut g2 = Vec::new();

        for (ri, &(r0, r1)) in layout.row_bounds().iter().enumerate() {
            for c in 0..fan_out {
                let gi = layout.group_index(ri, c);
                // two candidate formulations: original and complemented
                let mut best: Option<(f64, i64, bool)> = None;
                let forms: &[bool] = if use_complement { &[false, true] } else { &[false] };
                for &comp in forms {
                    w_tilde.clear();
                    g2.clear();
                    for r in r0..r1 {
                        let w = ntw_q.data()[r * fan_out + c].round() as i64;
                        w_tilde.push(if comp { maxw - w } else { w });
                        g2.push((grads_sq.data()[r * fan_out + c] as f64).max(1e-20));
                    }
                    for b in b_min..=b_max {
                        let mut obj = 0.0f64;
                        for (w, g) in w_tilde.iter().zip(&g2) {
                            let t = (w - b) as f64;
                            let v = lut.inverse_mean(t);
                            let mut term = lut.var(v);
                            if cfg.vawo_bias_term {
                                let bias = lut.mean(v) - t;
                                term += bias * bias;
                            }
                            obj += g * term;
                        }
                        if best.is_none_or(|(bo, _, _)| obj < bo) {
                            best = Some((obj, b, comp));
                        }
                    }
                }
                let (obj, b, comp) = best.expect("offset range is never empty");
                offsets[gi] = b as f32;
                complemented[gi] = comp;
                total_objective += obj;
                // materialize the CTWs for the winning formulation
                for r in r0..r1 {
                    let w = ntw_q.data()[r * fan_out + c].round() as i64;
                    let wt = if comp { maxw - w } else { w };
                    ctw.data_mut()[r * fan_out + c] = lut.inverse_mean((wt - b) as f64) as f32;
                }
            }
        }

        let state = OffsetState::from_parts(layout.clone(), offsets, complemented)?;
        Ok(VawoOutput { ctw, state, objective: total_objective })
    }

    fn setup(m: usize, sigma: f64) -> (OffsetConfig, DeviceLut) {
        let cfg = OffsetConfig::paper(CellKind::Slc, sigma, m).unwrap();
        let lut = DeviceLut::analytic(&VariationModel::per_weight(sigma), &cfg.codec).unwrap();
        (cfg, lut)
    }

    fn run(
        ntw: Vec<f32>,
        grads: Vec<f32>,
        rows: usize,
        cols: usize,
        m: usize,
        sigma: f64,
        complement: bool,
    ) -> VawoOutput {
        let (cfg, lut) = setup(m, sigma);
        let layout = GroupLayout::new(rows, cols, &cfg).unwrap();
        let ntw_q = Tensor::from_vec(ntw, &[rows, cols]).unwrap();
        let g2 = Tensor::from_vec(grads, &[rows, cols]).unwrap();
        optimize_matrix(&ntw_q, &g2, &layout, &lut, &cfg, complement, 0).unwrap()
    }

    #[test]
    fn complement_weight_identity() {
        assert_eq!(complement_weight(0, 8), 255);
        assert_eq!(complement_weight(255, 8), 0);
        assert_eq!(complement_weight(100, 8), 155);
        for w in 0..=255u32 {
            assert_eq!(complement_weight(complement_weight(w, 8), 8), w);
        }
    }

    #[test]
    fn vawo_removes_lognormal_bias() {
        // plain writes CTW = NTW and lands on E[R(w)] = w·e^{σ²/2} ≫ w;
        // VAWO's expected NRW must be ≈ w.
        let out = run(vec![200.0; 16], vec![1.0; 16], 16, 1, 16, 0.5, false);
        let (_, lut) = setup(16, 0.5);
        let b = out.state.offset(0) as f64;
        for &v in out.ctw.data() {
            let exp_nrw = lut.mean(v as u32) + b;
            assert!((exp_nrw - 200.0).abs() < 1.0, "E[NRW] = {exp_nrw}");
        }
    }

    #[test]
    fn vawo_prefers_small_stored_values() {
        // Var[R(v)] grows with v, so VAWO should use a positive offset to
        // store values smaller than the NTWs.
        let out = run(vec![200.0; 16], vec![1.0; 16], 16, 1, 16, 0.5, false);
        assert!(out.state.offset(0) > 0.0);
        assert!(out.ctw.data().iter().all(|&v| v < 200.0));
    }

    #[test]
    fn vawo_objective_beats_plain() {
        let (cfg, lut) = setup(16, 0.5);
        let ntw: Vec<f32> = (0..16).map(|i| 100.0 + 8.0 * i as f32).collect();
        let out = run(ntw.clone(), vec![1.0; 16], 16, 1, 16, 0.5, false);
        // plain objective: v = w, b = 0
        let plain: f64 = ntw
            .iter()
            .map(|&w| {
                let v = w as u32;
                let bias = lut.mean(v) - w as f64;
                lut.var(v) + bias * bias
            })
            .sum();
        assert!(out.objective < plain, "{} !< {plain}", out.objective);
        let _ = cfg;
    }

    #[test]
    fn complement_helps_groups_of_large_weights() {
        // all-large NTWs: the complemented form stores small values with
        // far lower variance, so VAWO* must complement and beat VAWO.
        let plain = run(vec![240.0; 16], vec![1.0; 16], 16, 1, 16, 0.5, false);
        let star = run(vec![240.0; 16], vec![1.0; 16], 16, 1, 16, 0.5, true);
        assert!(star.objective <= plain.objective);
        assert!(star.state.is_complemented(0), "group of large weights should complement");
    }

    #[test]
    fn complement_not_used_for_small_weights() {
        let star = run(vec![10.0; 16], vec![1.0; 16], 16, 1, 16, 0.5, true);
        assert!(!star.state.is_complemented(0));
    }

    #[test]
    fn finer_granularity_never_does_worse() {
        // splitting groups can only decrease the total optimum
        let ntw: Vec<f32> = (0..128).map(|i| (i * 2) as f32).collect();
        let g: Vec<f32> = (0..128).map(|i| 1.0 + (i % 7) as f32).collect();
        let fine = run(ntw.clone(), g.clone(), 128, 1, 16, 0.5, false);
        let coarse = run(ntw, g, 128, 1, 128, 0.5, false);
        assert!(fine.objective <= coarse.objective + 1e-9);
    }

    #[test]
    fn complement_rescues_coarse_granularity() {
        // The paper's key m=128 observation: VAWO degrades at coarse
        // granularity but VAWO* holds up. A group mixing small and large
        // weights can't pick one good offset — unless half is complemented.
        let ntw: Vec<f32> = (0..128).map(|i| if i % 2 == 0 { 20.0 } else { 235.0 }).collect();
        let g = vec![1.0; 128];
        let coarse_plain = run(ntw.clone(), g.clone(), 128, 1, 128, 0.5, false);
        let coarse_star = run(ntw, g, 128, 1, 128, 0.5, true);
        assert!(coarse_star.objective <= coarse_plain.objective);
    }

    #[test]
    fn gradient_weighting_prioritizes_sensitive_weights() {
        // one high-gradient weight at 250, fifteen zero-gradient at 10:
        // the offset should serve the sensitive weight (reduce ITS
        // variance), pushing its stored value down.
        let mut ntw = vec![10.0; 16];
        ntw[0] = 250.0;
        let mut g = vec![0.0; 16];
        g[0] = 100.0;
        let out = run(ntw, g, 16, 1, 16, 0.5, false);
        assert!(out.ctw.data()[0] < 250.0, "sensitive weight stored at {}", out.ctw.data()[0]);
    }

    #[test]
    fn zero_sigma_yields_near_exact_mapping() {
        let out = run(vec![100.0; 16], vec![1.0; 16], 16, 1, 16, 0.0, false);
        assert!(out.objective < 1e-9);
        let b = out.state.offset(0);
        for &v in out.ctw.data() {
            assert!((v + b - 100.0).abs() < 0.5);
        }
    }

    #[test]
    fn bias_term_never_hurts() {
        // with the bias term the achieved TRUE objective (var + bias²)
        // is at least as good as without it
        let (cfg, lut) = setup(16, 0.5);
        let layout = GroupLayout::new(16, 1, &cfg).unwrap();
        let ntw = Tensor::from_fn(&[16, 1], |i| (i * 16) as f32);
        let g2 = Tensor::ones(&[16, 1]);
        let with = optimize_matrix(&ntw, &g2, &layout, &lut, &cfg, false, 0).unwrap();
        let mut cfg_no = cfg;
        cfg_no.vawo_bias_term = false;
        let without = optimize_matrix(&ntw, &g2, &layout, &lut, &cfg_no, false, 0).unwrap();
        // evaluate both under the full objective
        let true_obj = |o: &VawoOutput| -> f64 {
            let b = o.state.offset(0) as f64;
            o.ctw
                .data()
                .iter()
                .zip(ntw.data())
                .map(|(&v, &w)| {
                    let bias = lut.mean(v as u32) + b - w as f64;
                    lut.var(v as u32) + bias * bias
                })
                .sum()
        };
        assert!(true_obj(&with) <= true_obj(&without) + 1e-9);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let (cfg, lut) = setup(16, 0.5);
        let layout = GroupLayout::new(16, 2, &cfg).unwrap();
        let ntw = Tensor::zeros(&[16, 1]);
        let g2 = Tensor::zeros(&[16, 1]);
        assert!(optimize_matrix(&ntw, &g2, &layout, &lut, &cfg, false, 0).is_err());
        assert!(optimize_matrix_reference(&ntw, &g2, &layout, &lut, &cfg, false).is_err());
    }

    fn assert_bitwise_eq(a: &VawoOutput, b: &VawoOutput, label: &str) {
        assert_eq!(a.objective.to_bits(), b.objective.to_bits(), "{label}: objective differs");
        for (i, (x, y)) in a.ctw.data().iter().zip(b.ctw.data()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{label}: CTW {i} differs ({x} vs {y})");
        }
        let n = a.state.layout().group_count();
        for g in 0..n {
            assert_eq!(
                a.state.offset(g).to_bits(),
                b.state.offset(g).to_bits(),
                "{label}: offset {g} differs"
            );
            assert_eq!(
                a.state.is_complemented(g),
                b.state.is_complemented(g),
                "{label}: complement flag {g} differs"
            );
        }
    }

    /// Fixed-case twin of the `fast_vawo_matches_reference` seeded property test:
    /// the table-driven search (serial and threaded) must be bitwise
    /// identical to the naive per-triple reference.
    #[test]
    fn fast_matches_reference_fixed_cases() {
        use rdo_rram::CellKind;
        for (case, &(cell, m, sigma, comp, fan_in, fan_out, seed)) in [
            (CellKind::Slc, 16usize, 0.5f64, true, 40usize, 3usize, 1u64),
            (CellKind::Slc, 64, 0.3, true, 70, 2, 2),
            (CellKind::Slc, 128, 0.8, false, 128, 2, 3),
            (CellKind::Slc, 16, 0.2, true, 16, 1, 4),
            (CellKind::Slc, 16, 0.0, true, 24, 2, 5),
            (CellKind::Mlc2, 64, 0.5, true, 64, 2, 6),
        ]
        .iter()
        .enumerate()
        {
            let cfg = OffsetConfig::paper(cell, sigma, m).unwrap();
            let lut = DeviceLut::analytic(&VariationModel::per_weight(sigma), &cfg.codec).unwrap();
            let layout = GroupLayout::new(fan_in, fan_out, &cfg).unwrap();
            let ntw = Tensor::from_fn(&[fan_in, fan_out], |i| {
                ((i as u64 * (seed * 31 + 7) + seed) % 256) as f32
            });
            let g2 = Tensor::from_fn(&[fan_in, fan_out], |i| {
                ((i as u64 * (seed + 11)) % 17) as f32 * 0.25
            });
            let reference =
                optimize_matrix_reference(&ntw, &g2, &layout, &lut, &cfg, comp).unwrap();
            let fast = optimize_matrix(&ntw, &g2, &layout, &lut, &cfg, comp, 0).unwrap();
            let serial = optimize_matrix(&ntw, &g2, &layout, &lut, &cfg, comp, 1).unwrap();
            let threaded = optimize_matrix(&ntw, &g2, &layout, &lut, &cfg, comp, 3).unwrap();
            assert_bitwise_eq(&fast, &reference, &format!("case {case} fast"));
            assert_bitwise_eq(&serial, &reference, &format!("case {case} serial"));
            assert_bitwise_eq(&threaded, &reference, &format!("case {case} threads=3"));
        }
    }

    /// The bias-term flag must flow through the contrib table exactly as
    /// it flows through the naive search.
    #[test]
    fn fast_matches_reference_without_bias_term() {
        let (mut cfg, lut) = setup(16, 0.6);
        cfg.vawo_bias_term = false;
        let layout = GroupLayout::new(48, 2, &cfg).unwrap();
        let ntw = Tensor::from_fn(&[48, 2], |i| ((i * 91 + 17) % 256) as f32);
        let g2 = Tensor::from_fn(&[48, 2], |i| 1.0 + (i % 5) as f32);
        let reference = optimize_matrix_reference(&ntw, &g2, &layout, &lut, &cfg, true).unwrap();
        let fast = optimize_matrix(&ntw, &g2, &layout, &lut, &cfg, true, 0).unwrap();
        assert_bitwise_eq(&fast, &reference, "no bias term");
    }

    /// The table-driven fast path is bitwise identical to the naive
    /// per-triple reference search: same CTWs, offsets, complement flags
    /// and objective bits — serial and threaded alike.
    #[test]
    fn fast_vawo_matches_reference() {
        for case in 0..48 {
            let mut rng = seeded_rng(case);
            let (m, sigma) = ([16usize, 64, 128][rng.gen_range(0..3)], rng.gen_range(0.2f64..1.0));
            let (fan_in, fan_out) = (rng.gen_range(1usize..80), rng.gen_range(1usize..6));
            let (use_complement, seed) = (rng.gen_range(0..2) == 1, rng.gen_range(0u64..1000));
            let cfg = OffsetConfig::paper(CellKind::Slc, sigma, m).unwrap();
            let lut = DeviceLut::analytic(&VariationModel::per_weight(sigma), &cfg.codec).unwrap();
            let layout = GroupLayout::new(fan_in, fan_out, &cfg).unwrap();
            let ntw = Tensor::from_fn(&[fan_in, fan_out], |i| {
                ((i as u64 * (seed * 31 + 7) + seed) % 256) as f32
            });
            let g2 = Tensor::from_fn(&[fan_in, fan_out], |i| {
                ((i as u64 * (seed + 11)) % 17) as f32 * 0.25
            });
            let reference =
                optimize_matrix_reference(&ntw, &g2, &layout, &lut, &cfg, use_complement).unwrap();
            let fast = optimize_matrix(&ntw, &g2, &layout, &lut, &cfg, use_complement, 0).unwrap();
            let threaded =
                optimize_matrix(&ntw, &g2, &layout, &lut, &cfg, use_complement, 4).unwrap();
            for out in [&fast, &threaded] {
                assert_eq!(out.objective.to_bits(), reference.objective.to_bits(), "case {case}");
                for (a, b) in out.ctw.data().iter().zip(reference.ctw.data()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "case {case}");
                }
                for g in 0..layout.group_count() {
                    assert_eq!(
                        out.state.offset(g).to_bits(),
                        reference.state.offset(g).to_bits(),
                        "case {case}: group {g}"
                    );
                    assert_eq!(
                        out.state.is_complemented(g),
                        reference.state.is_complemented(g),
                        "case {case}: group {g}"
                    );
                }
            }
        }
    }
}
