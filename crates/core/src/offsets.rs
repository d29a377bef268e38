//! Offset-group layout and state.
//!
//! A digital offset is shared by `m` weights of one crossbar column
//! (§III-A). With fan-in tiled onto 128-row crossbars and
//! `m ∈ {16, 64, 128}` dividing 128, groups never straddle tile
//! boundaries: each column of a `(fan_in, fan_out)` matrix is chopped into
//! row ranges of at most `m` inside each row tile.

use rdo_tensor::Tensor;

use crate::config::OffsetConfig;
use crate::error::{CoreError, Result};

/// One column-chunk shard of a pooled refresh: the immutable CRW slice,
/// the output slice it owns, and the updated-weight count it reports.
type RefreshShard<'a> = std::sync::Mutex<(&'a [f32], &'a mut [f32], usize)>;

/// Row ranges shared by every column of one mapped matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupLayout {
    fan_in: usize,
    fan_out: usize,
    /// Half-open row ranges, in order, covering `0..fan_in`.
    bounds: Vec<(usize, usize)>,
}

impl GroupLayout {
    /// Computes the layout for a `(fan_in, fan_out)` matrix under `cfg`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an empty matrix or an
    /// invalid configuration.
    pub fn new(fan_in: usize, fan_out: usize, cfg: &OffsetConfig) -> Result<Self> {
        cfg.validate()?;
        if fan_in == 0 || fan_out == 0 {
            return Err(CoreError::InvalidConfig("cannot lay out an empty matrix".to_string()));
        }
        let rows_per_tile = cfg.crossbar.rows;
        let m = cfg.sharing_granularity;
        let mut bounds = Vec::new();
        let mut tile_start = 0usize;
        while tile_start < fan_in {
            let tile_end = (tile_start + rows_per_tile).min(fan_in);
            let mut r = tile_start;
            while r < tile_end {
                let e = (r + m).min(tile_end);
                bounds.push((r, e));
                r = e;
            }
            tile_start = tile_end;
        }
        Ok(GroupLayout { fan_in, fan_out, bounds })
    }

    /// Matrix rows (fan-in).
    pub fn fan_in(&self) -> usize {
        self.fan_in
    }

    /// Matrix columns (fan-out).
    pub fn fan_out(&self) -> usize {
        self.fan_out
    }

    /// Row ranges per column.
    pub fn row_bounds(&self) -> &[(usize, usize)] {
        &self.bounds
    }

    /// Total offset groups: `bounds.len() · fan_out`.
    pub fn group_count(&self) -> usize {
        self.bounds.len() * self.fan_out
    }

    /// Flat group index of `(range_index, column)`.
    pub fn group_index(&self, range: usize, col: usize) -> usize {
        range * self.fan_out + col
    }
}

/// Offset values and complement flags for every group of one matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct OffsetState {
    layout: GroupLayout,
    /// Offset per group, in integer weight units (continuous during PWT
    /// training, snapped to the register grid by
    /// [`OffsetState::quantize`]).
    offsets: Vec<f32>,
    /// Whether the group stores complemented weights.
    complemented: Vec<bool>,
}

impl OffsetState {
    /// All-zero offsets, nothing complemented.
    pub fn zeros(layout: GroupLayout) -> Self {
        let n = layout.group_count();
        OffsetState { layout, offsets: vec![0.0; n], complemented: vec![false; n] }
    }

    /// Builds a state from explicit per-group values.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the lengths do not match the
    /// layout.
    pub fn from_parts(
        layout: GroupLayout,
        offsets: Vec<f32>,
        complemented: Vec<bool>,
    ) -> Result<Self> {
        if offsets.len() != layout.group_count() || complemented.len() != layout.group_count() {
            return Err(CoreError::InvalidConfig(format!(
                "expected {} groups, got {} offsets / {} flags",
                layout.group_count(),
                offsets.len(),
                complemented.len()
            )));
        }
        Ok(OffsetState { layout, offsets, complemented })
    }

    /// The group layout.
    pub fn layout(&self) -> &GroupLayout {
        &self.layout
    }

    /// Offset of one group.
    pub fn offset(&self, group: usize) -> f32 {
        self.offsets[group]
    }

    /// All offsets, group-major.
    pub fn offsets(&self) -> &[f32] {
        &self.offsets
    }

    /// Mutable access to the offsets (PWT's trainable parameters).
    pub fn offsets_mut(&mut self) -> &mut [f32] {
        &mut self.offsets
    }

    /// Whether one group is complemented.
    pub fn is_complemented(&self, group: usize) -> bool {
        self.complemented[group]
    }

    /// All complement flags, group-major.
    pub fn complemented(&self) -> &[bool] {
        &self.complemented
    }

    /// Computes the network real weights: for each weight of `crw`
    /// (`(fan_in, fan_out)`),
    /// `NRW = CRW + b` for a normal group and
    /// `NRW = maxw − (CRW + b)` for a complemented one, where `maxw` is
    /// the largest representable weight.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `crw` does not match the
    /// layout.
    pub fn apply(&self, crw: &Tensor, max_weight: f32) -> Result<Tensor> {
        if crw.dims() != [self.layout.fan_in, self.layout.fan_out] {
            return Err(CoreError::InvalidConfig(format!(
                "CRW shape {:?} does not match layout {}×{}",
                crw.dims(),
                self.layout.fan_in,
                self.layout.fan_out
            )));
        }
        let cols = self.layout.fan_out;
        let mut out = crw.clone();
        for (ri, &(r0, r1)) in self.layout.bounds.iter().enumerate() {
            for c in 0..cols {
                let g = self.layout.group_index(ri, c);
                let b = self.offsets[g];
                let comp = self.complemented[g];
                for r in r0..r1 {
                    let idx = r * cols + c;
                    let v = out.data()[idx] + b;
                    out.data_mut()[idx] = if comp { max_weight - v } else { v };
                }
            }
        }
        Ok(out)
    }

    /// Reduces a per-weight gradient matrix (`(fan_in, fan_out)`, in the
    /// same integer-weight domain as [`OffsetState::apply`]'s output) to
    /// per-group offset gradients: `dL/db_g = ±Σ_{i∈g} dL/dNRWᵢ`, negative
    /// for complemented groups (Eq. 8 extended with the complement sign).
    /// The test oracle for [`OffsetState::offset_gradient_into`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] on a shape mismatch.
    #[cfg(test)]
    pub(crate) fn reduce_gradient(&self, grad_nrw: &Tensor) -> Result<Vec<f32>> {
        if grad_nrw.dims() != [self.layout.fan_in, self.layout.fan_out] {
            return Err(CoreError::InvalidConfig(format!(
                "gradient shape {:?} does not match layout",
                grad_nrw.dims()
            )));
        }
        let cols = self.layout.fan_out;
        let mut out = vec![0.0f32; self.layout.group_count()];
        for (ri, &(r0, r1)) in self.layout.bounds.iter().enumerate() {
            for c in 0..cols {
                let g = self.layout.group_index(ri, c);
                let mut acc = 0.0f32;
                for r in r0..r1 {
                    acc += grad_nrw.data()[r * cols + c];
                }
                out[g] = if self.complemented[g] { -acc } else { acc };
            }
        }
        Ok(out)
    }

    /// Writes the effective float weights directly in **network
    /// orientation** (`(fan_out, fan_in)` row-major), fusing
    /// [`OffsetState::apply`], dequantization and the transpose into a
    /// single pass over a transposed-CRW cache.
    ///
    /// `crw_t` must hold the CRW transposed into network orientation (its
    /// row `c` is crossbar column `c`), `delta`/`shift` are the layer's
    /// affine quantization, and `max_weight` the complement pivot. When
    /// `last` is `Some`, only groups whose offset **bits** differ from
    /// `last` are rewritten (the incremental path — complement flags are
    /// fixed at mapping time, so the offsets are the only per-group state
    /// that can go stale); `None` forces a full rebuild.
    ///
    /// Every rewritten element runs the reference operation chain
    /// `v = CRW + b`, `NRW = v` (or `maxw − v`), `w = Δ·(NRW − shift)`,
    /// so the result is bitwise identical to
    /// `apply` → `map(dequantize)` → `transpose2` for any `threads`:
    /// columns are partitioned contiguously and each group lives wholly
    /// inside one partition, so threads only choose *who* computes a
    /// group, never *how* (the `RDO_THREADS` determinism contract).
    ///
    /// Returns the number of groups rewritten.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `crw_t`, `out` or `last`
    /// do not match the layout.
    #[allow(clippy::too_many_arguments)]
    pub fn refresh_network_weights(
        &self,
        crw_t: &[f32],
        last: Option<&[f32]>,
        delta: f32,
        shift: f32,
        max_weight: f32,
        threads: usize,
        out: &mut [f32],
    ) -> Result<usize> {
        let (rows, cols) = (self.layout.fan_in, self.layout.fan_out);
        let elems = rows * cols;
        if crw_t.len() != elems || out.len() != elems {
            return Err(CoreError::InvalidConfig(format!(
                "refresh buffers ({} CRW / {} out) do not match layout {rows}×{cols}",
                crw_t.len(),
                out.len()
            )));
        }
        if last.is_some_and(|l| l.len() != self.offsets.len()) {
            return Err(CoreError::InvalidConfig(
                "stale-offset buffer does not match the group count".to_string(),
            ));
        }
        let worker = |c0: usize, crw_chunk: &[f32], out_chunk: &mut [f32]| -> usize {
            let mut updated = 0usize;
            for cl in 0..out_chunk.len() / rows {
                let c = c0 + cl;
                let base = cl * rows;
                for (ri, &(r0, r1)) in self.layout.bounds.iter().enumerate() {
                    let g = self.layout.group_index(ri, c);
                    let b = self.offsets[g];
                    if last.is_some_and(|l| l[g].to_bits() == b.to_bits()) {
                        continue;
                    }
                    updated += 1;
                    // slice-based loops so the bounds checks hoist and the
                    // group body vectorizes; the arithmetic chain is the
                    // reference one (`v = CRW + b`, complement, `Δ·(·−shift)`)
                    // operation for operation
                    let src = &crw_chunk[base + r0..base + r1];
                    let dst = &mut out_chunk[base + r0..base + r1];
                    if self.complemented[g] {
                        for (o, &crw) in dst.iter_mut().zip(src) {
                            let v = crw + b;
                            *o = delta * ((max_weight - v) - shift);
                        }
                    } else {
                        for (o, &crw) in dst.iter_mut().zip(src) {
                            let v = crw + b;
                            *o = delta * (v - shift);
                        }
                    }
                }
            }
            updated
        };
        let threads = threads.clamp(1, cols);
        if threads <= 1 {
            return Ok(worker(0, crw_t, out));
        }
        let per = cols.div_ceil(threads);
        // one shard per column chunk: each owns its (input, output, count)
        // triple behind an uncontended mutex and runs on the persistent pool
        let shards: Vec<RefreshShard<'_>> = crw_t
            .chunks(per * rows)
            .zip(out.chunks_mut(per * rows))
            .map(|(crw_chunk, out_chunk)| std::sync::Mutex::new((crw_chunk, out_chunk, 0usize)))
            .collect();
        rdo_tensor::pool::run(shards.len(), |i| {
            let mut shard = shards[i].lock().expect("refresh shard poisoned");
            let (crw_chunk, out_chunk, count) = &mut *shard;
            *count = worker(i * per, crw_chunk, out_chunk);
        });
        let mut total = 0usize;
        for shard in shards {
            total += shard.into_inner().expect("refresh shard poisoned").2;
        }
        Ok(total)
    }

    /// Eq. 8 from a layer's row-group gradient: `dL/db_g = ±Δ·s_g`, where
    /// `s_g = Σ_batch dY·X_g` is what the backward pass accumulates for
    /// group `g` with [`rdo_nn::RowGroups`] set to this layout's
    /// [`GroupLayout::row_bounds`] (group-major, like the offsets). `Δ` is
    /// the chain rule into the integer NRW domain, and the sign is
    /// negative for complemented groups, whose weights read
    /// `maxw − (CRW + b)`. Equals the reduction of the `Δ`-scaled weight
    /// gradient over the same groups up to summation order (pinned against
    /// the test oracle `reduce_gradient`).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] unless both slices hold one
    /// value per group.
    pub fn offset_gradient_into(
        &self,
        group_grad: &[f32],
        delta: f32,
        out: &mut [f32],
    ) -> Result<()> {
        let groups = self.layout.group_count();
        if group_grad.len() != groups || out.len() != groups {
            return Err(CoreError::InvalidConfig(format!(
                "offset gradient buffers ({} in / {} out) do not match {groups} groups",
                group_grad.len(),
                out.len()
            )));
        }
        for ((db, &s), &comp) in out.iter_mut().zip(group_grad).zip(&self.complemented) {
            *db = if comp { -(delta * s) } else { delta * s };
        }
        Ok(())
    }

    /// Snaps every offset to the signed integer register grid of `cfg`.
    pub fn quantize(&mut self, cfg: &OffsetConfig) {
        let (lo, hi) = (cfg.offset_min() as f32, cfg.offset_max() as f32);
        for b in &mut self.offsets {
            *b = b.round().clamp(lo, hi);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdo_rram::CellKind;
    use rdo_tensor::rng::{seeded_rng, Rng};

    fn cfg(m: usize) -> OffsetConfig {
        OffsetConfig::paper(CellKind::Slc, 0.5, m).unwrap()
    }

    #[test]
    fn layout_groups_within_tiles() {
        // 200 rows, tile = 128: ranges inside tile 1 then tile 2
        let l = GroupLayout::new(200, 4, &cfg(64)).unwrap();
        assert_eq!(l.row_bounds(), &[(0, 64), (64, 128), (128, 192), (192, 200)]);
        assert_eq!(l.group_count(), 16);
    }

    #[test]
    fn layout_covers_all_rows_exactly_once() {
        for m in [16, 64, 128] {
            for fan_in in [5usize, 128, 129, 300, 512] {
                let l = GroupLayout::new(fan_in, 3, &cfg(m)).unwrap();
                let total: usize = l.row_bounds().iter().map(|&(a, b)| b - a).sum();
                assert_eq!(total, fan_in, "m={m}, fan_in={fan_in}");
                let mut prev = 0;
                for &(a, b) in l.row_bounds() {
                    assert_eq!(a, prev);
                    assert!(b > a && b - a <= m);
                    prev = b;
                }
            }
        }
    }

    #[test]
    fn register_count_matches_eq9() {
        // Eq. 9: H = S·l/m registers per full crossbar.
        let l = GroupLayout::new(128, 16, &cfg(16)).unwrap();
        assert_eq!(l.group_count(), 128 * 16 / 16);
        let l = GroupLayout::new(128, 16, &cfg(128)).unwrap();
        assert_eq!(l.group_count(), 128 * 16 / 128);
    }

    #[test]
    fn apply_adds_offsets_per_group() {
        let layout = GroupLayout::new(4, 2, &cfg(16)).unwrap(); // one range (0,4)
        let mut st = OffsetState::zeros(layout);
        st.offsets_mut()[0] = 1.5; // column 0
        st.offsets_mut()[1] = -2.0; // column 1
        let crw = Tensor::from_fn(&[4, 2], |i| i as f32);
        let nrw = st.apply(&crw, 255.0).unwrap();
        for r in 0..4 {
            assert_eq!(nrw.at(&[r, 0]).unwrap(), crw.at(&[r, 0]).unwrap() + 1.5);
            assert_eq!(nrw.at(&[r, 1]).unwrap(), crw.at(&[r, 1]).unwrap() - 2.0);
        }
    }

    #[test]
    fn apply_complements_groups() {
        let layout = GroupLayout::new(2, 1, &cfg(16)).unwrap();
        let st = OffsetState::from_parts(layout, vec![3.0], vec![true]).unwrap();
        let crw = Tensor::from_vec(vec![10.0, 20.0], &[2, 1]).unwrap();
        let nrw = st.apply(&crw, 255.0).unwrap();
        assert_eq!(nrw.data(), &[255.0 - 13.0, 255.0 - 23.0]);
    }

    #[test]
    fn reduce_gradient_sums_groups_with_sign() {
        let layout = GroupLayout::new(4, 1, &cfg(16)).unwrap();
        let mut st = OffsetState::zeros(layout.clone());
        let g = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4, 1]).unwrap();
        assert_eq!(st.reduce_gradient(&g).unwrap(), vec![10.0]);
        // complemented group flips the sign
        st = OffsetState::from_parts(layout, vec![0.0], vec![true]).unwrap();
        assert_eq!(st.reduce_gradient(&g).unwrap(), vec![-10.0]);
    }

    #[test]
    fn quantize_clamps_to_register_range() {
        let layout = GroupLayout::new(2, 1, &cfg(16)).unwrap();
        let mut st = OffsetState::from_parts(layout, vec![300.7], vec![false]).unwrap();
        st.quantize(&cfg(16));
        assert_eq!(st.offset(0), 127.0);
        st.offsets_mut()[0] = -1000.0;
        st.quantize(&cfg(16));
        assert_eq!(st.offset(0), -128.0);
        st.offsets_mut()[0] = 3.4;
        st.quantize(&cfg(16));
        assert_eq!(st.offset(0), 3.0);
    }

    /// Applies one group's digital-offset correction to an integer group
    /// sum, exactly as the offset unit does it: with `z = Σᵢ xᵢ·CRWᵢ` the
    /// raw crossbar readout of the group and `Σxᵢ = sum_x` its input sum,
    ///
    /// - normal group: `z + b·Σxᵢ` (the paper's Eq. 3 correction), and
    /// - complemented group: `maxw·Σxᵢ − (z + b·Σxᵢ)` — the ISAAC-style
    ///   `(2ⁿ−1)·Σxᵢ − z'` complement arm, since the array stores
    ///   `maxw − (CRW + b)`.
    ///
    /// All arithmetic is exact `i64`; this is the integer twin of
    /// [`OffsetState::apply`] folded through the dot product.
    fn correct_group_sum(z: i64, sum_x: i64, b: i32, complemented: bool, max_weight: u32) -> i64 {
        let corrected = z + i64::from(b) * sum_x;
        if complemented {
            i64::from(max_weight) * sum_x - corrected
        } else {
            corrected
        }
    }

    #[test]
    fn correct_group_sum_matches_float_apply_folded_through_the_dot() {
        // z = Σ x·CRW, then the integer correction must equal Σ x·NRW
        // with NRW from the float `apply` — for both arms
        let layout = GroupLayout::new(4, 1, &cfg(16)).unwrap();
        let crw = Tensor::from_vec(vec![10.0, 20.0, 250.0, 0.0], &[4, 1]).unwrap();
        let x: [i64; 4] = [3, 0, 7, 1];
        let z: i64 = (0..4).map(|r| x[r] * crw.data()[r] as i64).sum();
        let sum_x: i64 = x.iter().sum();
        for (b, comp) in [(5i32, false), (-12, false), (5, true), (-12, true)] {
            let st = OffsetState::from_parts(layout.clone(), vec![b as f32], vec![comp]).unwrap();
            let nrw = st.apply(&crw, 255.0).unwrap();
            let expect: i64 = (0..4).map(|r| x[r] * nrw.data()[r] as i64).sum();
            assert_eq!(correct_group_sum(z, sum_x, b, comp, 255), expect, "b={b} comp={comp}");
        }
    }

    /// The `z + b·Σx` datapath is exact on every state a programming cycle
    /// produces: freshly mapped, after `program`, and after PWT, for Plain,
    /// PWT, VAWO\* and VAWO\*+PWT on SLC and MLC2 cells, with the offsets
    /// snapped to the register grid. Each layer's integer group sums of the
    /// stored CTWs, corrected per group, equal the `f64` dot product of the
    /// same input with [`OffsetState::apply`]'s NRWs bit for bit. Among the
    /// states are complemented groups and negative offsets (plain PWT's
    /// mean-matching start).
    #[test]
    fn group_sums_match_float_apply_exactly_on_mapped_states() {
        use crate::config::Method;
        use crate::gradient::extract_core_weights;
        use crate::mapping::MappedNetwork;
        use crate::pwt::{tune, PwtConfig};
        use rdo_nn::{Linear, Relu, Sequential};
        use rdo_rram::{DeviceLut, VariationModel};
        use rdo_tensor::rng::randn;

        let mut rng = seeded_rng(21);
        let images = randn(&[48, 6], 0.0, 1.0, &mut rng);
        let labels: Vec<usize> = (0..48).map(|i| i % 3).collect();
        let pwt = PwtConfig { epochs: 2, ..Default::default() };
        let mut net_rng = seeded_rng(15);
        let mut net = Sequential::new();
        net.push(Linear::new(6, 8, &mut net_rng));
        net.push(Relu::new());
        net.push(Linear::new(8, 3, &mut net_rng));
        let grads: Vec<Tensor> = extract_core_weights(&mut net)
            .iter()
            .map(|w| Tensor::from_fn(w.dims(), |i| 0.01 * ((i % 13) as f32 - 6.0)))
            .collect();
        let mut cases = Vec::new();
        for kind in [CellKind::Slc, CellKind::Mlc2] {
            let cfg = OffsetConfig::paper(kind, 0.5, 16).unwrap();
            let lut = DeviceLut::analytic(&VariationModel::per_weight(0.5), &cfg.codec).unwrap();
            for method in [Method::Plain, Method::Pwt, Method::VawoStar, Method::VawoStarPwt] {
                let g = method.uses_vawo().then_some(grads.as_slice());
                let mut mapped = MappedNetwork::map(&net, method, &cfg, &lut, g).unwrap();
                cases.push(mapped.clone());
                mapped.program(&mut seeded_rng(9)).unwrap();
                cases.push(mapped.clone());
                if method.uses_pwt() {
                    tune(&mut mapped, &images, &labels, &pwt).unwrap();
                    cases.push(mapped);
                }
            }
        }
        let (mut complemented, mut negative) = (0, 0);
        for mapped in &cases {
            let cfg = mapped.config();
            let maxw = cfg.codec.max_weight();
            for (li, layer) in mapped.layers().iter().enumerate() {
                let mut st = layer.state.clone();
                st.quantize(cfg);
                let layout = st.layout();
                let (fan_in, fan_out) = (layout.fan_in(), layout.fan_out());
                complemented +=
                    (0..layout.group_count()).filter(|&g| st.is_complemented(g)).count();
                negative += st.offsets().iter().filter(|&&b| b < 0.0).count();
                let x: Vec<i64> =
                    (0..fan_in).map(|r| ((r * 41 + li * 17 + 7) % 256) as i64).collect();
                let ctw: Vec<i64> = layer
                    .ctw
                    .data()
                    .iter()
                    .map(|&v| {
                        assert!(v.fract() == 0.0 && (0.0..=maxw as f32).contains(&v), "CTW {v}");
                        v as i64
                    })
                    .collect();
                let mut y = vec![0i64; fan_out];
                for (ri, &(r0, r1)) in layout.row_bounds().iter().enumerate() {
                    let sum_x: i64 = x[r0..r1].iter().sum();
                    for (c, yv) in y.iter_mut().enumerate() {
                        let g = layout.group_index(ri, c);
                        let z: i64 = (r0..r1).map(|r| x[r] * ctw[r * fan_out + c]).sum();
                        let b = st.offset(g) as i32;
                        *yv += correct_group_sum(z, sum_x, b, st.is_complemented(g), maxw);
                    }
                }
                let nrw = st.apply(&layer.ctw, maxw as f32).unwrap();
                for (c, &yc) in y.iter().enumerate() {
                    let yf: f64 =
                        (0..fan_in).map(|r| x[r] as f64 * nrw.data()[r * fan_out + c] as f64).sum();
                    assert_eq!(
                        yc as f64,
                        yf,
                        "integer vs float group sums ({:?})",
                        mapped.method()
                    );
                }
            }
        }
        assert!(complemented > 0, "no complemented group among the fixtures");
        assert!(negative > 0, "no negative offset among the fixtures");
    }

    #[test]
    fn shape_mismatches_rejected() {
        let layout = GroupLayout::new(4, 2, &cfg(16)).unwrap();
        let st = OffsetState::zeros(layout);
        assert!(st.apply(&Tensor::zeros(&[2, 4]), 255.0).is_err());
        assert!(st.reduce_gradient(&Tensor::zeros(&[4, 3])).is_err());
    }

    /// Deterministic pseudo-random state exercising both signs, the
    /// complement flag and offsets beyond the register range.
    fn synthetic_state(fan_in: usize, fan_out: usize, m: usize) -> (OffsetState, Tensor) {
        let layout = GroupLayout::new(fan_in, fan_out, &cfg(m)).unwrap();
        let n = layout.group_count();
        let offsets: Vec<f32> =
            (0..n).map(|i| ((i * 37 + 11) % 700) as f32 * 0.73 - 250.0).collect();
        let complemented: Vec<bool> = (0..n).map(|i| i % 3 == 1).collect();
        let st = OffsetState::from_parts(layout, offsets, complemented).unwrap();
        let crw = Tensor::from_fn(&[fan_in, fan_out], |i| ((i * 53 + 7) % 256) as f32 * 1.007);
        (st, crw)
    }

    fn reference_network_weights(st: &OffsetState, crw: &Tensor, dq: (f32, f32, f32)) -> Vec<f32> {
        let (delta, shift, maxw) = dq;
        let nrw = st.apply(crw, maxw).unwrap();
        nrw.map(|v| delta * (v - shift)).transpose2().unwrap().into_vec()
    }

    #[test]
    fn fast_refresh_matches_reference_for_any_shape_and_thread_count() {
        let dq = (0.01337f32, 120.0f32, 255.0f32);
        for (fan_in, fan_out, m) in
            [(1, 1, 16), (5, 3, 16), (64, 10, 64), (128, 4, 128), (200, 7, 64), (300, 9, 16)]
        {
            let (mut st, crw) = synthetic_state(fan_in, fan_out, m);
            let crw_t = crw.transpose2().unwrap().into_vec();
            let reference = reference_network_weights(&st, &crw, dq);
            for threads in [1usize, 2, 3, 8] {
                let mut out = vec![0.0f32; fan_in * fan_out];
                let updated = st
                    .refresh_network_weights(&crw_t, None, dq.0, dq.1, dq.2, threads, &mut out)
                    .unwrap();
                assert_eq!(updated, st.layout().group_count());
                assert_eq!(out, reference, "full refresh, threads={threads}");
            }
            // incremental: change a subset (including a clamp-snap), leave
            // the rest bit-identical, refresh in place on a stale buffer
            let previous = st.offsets().to_vec();
            for (i, b) in st.offsets_mut().iter_mut().enumerate() {
                if i % 4 == 0 {
                    *b += 1.5;
                }
            }
            st.quantize(&cfg(m)); // clamp regime: every offset snaps
            let reference = reference_network_weights(&st, &crw, dq);
            for threads in [1usize, 2, 3, 8] {
                let mut out = reference_network_weights(
                    &OffsetState::from_parts(
                        st.layout().clone(),
                        previous.clone(),
                        st.complemented().to_vec(),
                    )
                    .unwrap(),
                    &crw,
                    dq,
                );
                let updated = st
                    .refresh_network_weights(
                        &crw_t,
                        Some(&previous),
                        dq.0,
                        dq.1,
                        dq.2,
                        threads,
                        &mut out,
                    )
                    .unwrap();
                assert!(updated <= st.layout().group_count());
                assert_eq!(out, reference, "incremental refresh, threads={threads}");
            }
        }
    }

    #[test]
    fn incremental_refresh_skips_unchanged_groups() {
        let (st, crw) = synthetic_state(64, 5, 16);
        let crw_t = crw.transpose2().unwrap().into_vec();
        let mut out = vec![0.0f32; 64 * 5];
        st.refresh_network_weights(&crw_t, None, 0.1, 10.0, 255.0, 1, &mut out).unwrap();
        let same = st.offsets().to_vec();
        let updated =
            st.refresh_network_weights(&crw_t, Some(&same), 0.1, 10.0, 255.0, 1, &mut out).unwrap();
        assert_eq!(updated, 0, "bit-identical offsets must be skipped");
    }

    #[test]
    fn offset_gradient_scales_by_delta_and_flips_complemented_groups() {
        let layout = GroupLayout::new(4, 2, &cfg(16)).unwrap();
        let st = OffsetState::from_parts(layout, vec![0.0; 2], vec![false, true]).unwrap();
        let mut db = [0.0f32; 2];
        st.offset_gradient_into(&[3.0, 5.0], 0.5, &mut db).unwrap();
        assert_eq!(db, [1.5, -2.5]);
        assert!(st.offset_gradient_into(&[3.0], 0.5, &mut db).is_err());
        assert!(st.offset_gradient_into(&[3.0, 5.0], 0.5, &mut db[..1]).is_err());
    }

    #[test]
    fn fast_path_buffer_mismatches_rejected() {
        let (st, crw) = synthetic_state(8, 2, 16);
        let crw_t = crw.transpose2().unwrap().into_vec();
        let mut out = vec![0.0f32; 16];
        assert!(st
            .refresh_network_weights(&crw_t[..8], None, 0.1, 0.0, 255.0, 1, &mut out)
            .is_err());
        assert!(st
            .refresh_network_weights(&crw_t, None, 0.1, 0.0, 255.0, 1, &mut out[..4])
            .is_err());
        let bad_last = vec![0.0f32; 1];
        assert!(st
            .refresh_network_weights(&crw_t, Some(&bad_last), 0.1, 0.0, 255.0, 1, &mut out)
            .is_err());
    }

    /// An SLC configuration with m ∈ {16, 32, 64, 128} and σ in [0.1, 1).
    fn random_cfg(rng: &mut Rng) -> OffsetConfig {
        let (m, sigma) = ([16usize, 32, 64, 128][rng.gen_range(0..4)], rng.gen_range(0.1f64..1.0));
        OffsetConfig::paper(CellKind::Slc, sigma, m).expect("valid granularity")
    }

    /// apply() then reduce_gradient() are consistent: perturbing one
    /// offset by ε changes the NRW sum by ±ε·group_size, matching the
    /// reduction of an all-ones gradient.
    #[test]
    fn offset_gradient_consistency() {
        for case in 0..48 {
            let mut rng = seeded_rng(case);
            let (cfg, fan_in) = (random_cfg(&mut rng), rng.gen_range(1usize..200));
            let (comp, group_pick) = (rng.gen_range(0..2) == 1, rng.gen_range(0usize..1000));
            let layout = GroupLayout::new(fan_in, 2, &cfg).unwrap();
            let g = group_pick % layout.group_count();
            let n_groups = layout.group_count();
            let mut state =
                OffsetState::from_parts(layout.clone(), vec![0.0; n_groups], vec![comp; n_groups])
                    .unwrap();
            let crw = Tensor::from_fn(&[fan_in, 2], |i| (i % 97) as f32);
            let base = state.apply(&crw, 255.0).unwrap();
            state.offsets_mut()[g] += 1.0;
            let bumped = state.apply(&crw, 255.0).unwrap();
            let delta_sum: f32 = bumped.data().iter().zip(base.data()).map(|(a, b)| a - b).sum();

            let ones = Tensor::ones(&[fan_in, 2]);
            let reduced = state.reduce_gradient(&ones).unwrap();
            // reduce_gradient[g] = ±group_size; the NRW sum moved by the same
            assert!(
                (delta_sum - reduced[g]).abs() < 1e-3,
                "case {case}: sum moved {delta_sum} but gradient says {}",
                reduced[g]
            );
        }
    }
}
