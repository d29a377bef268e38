//! The end-to-end mapping pipeline: trained network → quantized NTWs →
//! CTWs (plain or VAWO) → programmed crossbars → effective network.
//!
//! The four weight domains of §III-B are represented explicitly:
//!
//! * **NTW** — the trained network's weights, 8-bit quantized and shifted
//!   non-negative ([`MappedLayer::ntw_q`]).
//! * **CTW** — what is written to the devices ([`MappedLayer::ctw`]),
//!   chosen by the plain scheme or VAWO(\*).
//! * **CRW** — what the devices actually hold after a programming cycle
//!   ([`MappedLayer::crw`]), sampled from the variation model.
//! * **NRW** — CRW plus the digital offset (complemented where flagged),
//!   which becomes the effective float weight
//!   `Δ·(NRW − shift)` injected into the evaluation network.

use rdo_nn::quant::{quantize_weights, QuantParams};
use rdo_nn::{Layer, Sequential};
use rdo_rram::{
    program_matrix, program_matrix_with_ddv, sample_ddv_factors, DeviceLut, DeviceModelSpec,
    VariationModel,
};
use rdo_tensor::rng::Rng;
use rdo_tensor::Tensor;

use crate::config::{Method, OffsetConfig};
use crate::error::{CoreError, Result};
use crate::gradient::{
    core_weight_infos, extract_core_weights, inject_core_weights, CoreWeightInfo,
};
use crate::offsets::{GroupLayout, OffsetState};
use crate::scratch::PwtScratch;
use crate::vawo::optimize_matrix;

/// Below this many weights a layer's refresh/reduction stays serial —
/// handing it to the worker pool costs more than the pass itself. Thresholding
/// on size (not data) keeps results bitwise independent of the choice.
const PAR_MIN_ELEMS: usize = 1 << 16;

/// Worker threads for one layer's refresh/reduction: the `RDO_THREADS`
/// environment answer for large layers, serial below [`PAR_MIN_ELEMS`].
pub(crate) fn refresh_threads(elems: usize) -> usize {
    if elems >= PAR_MIN_ELEMS {
        rdo_tensor::parallel::available_threads()
    } else {
        1
    }
}

/// One core layer's complete mapping state.
#[derive(Debug, Clone)]
pub struct MappedLayer {
    /// Original layer geometry (network `(out, in)` orientation).
    pub info: CoreWeightInfo,
    /// The affine quantization of this layer's weights.
    pub quant: QuantParams,
    /// Integer NTWs, crossbar orientation `(fan_in, fan_out)`.
    pub ntw_q: Tensor,
    /// Integer CTWs, `(fan_in, fan_out)`.
    pub ctw: Tensor,
    /// Offsets/complement flags chosen before writing (VAWO) — the state
    /// each programming cycle starts from.
    pub initial_state: OffsetState,
    /// Current offsets (mutated by PWT after each programming cycle).
    pub state: OffsetState,
    /// CRWs of the latest programming cycle, if any.
    pub crw: Option<Tensor>,
}

impl MappedLayer {
    /// The effective float weight matrix in network orientation
    /// `(out, in)`, from the latest programming cycle.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the layer has not been
    /// programmed yet.
    pub fn effective_weight(&self, cfg: &OffsetConfig) -> Result<Tensor> {
        let crw = self
            .crw
            .as_ref()
            .ok_or_else(|| CoreError::InvalidConfig("layer has not been programmed".to_string()))?;
        let nrw = self.state.apply(crw, cfg.codec.max_weight() as f32)?;
        let q = self.quant;
        let float = nrw.map(|v| q.dequantize(v));
        Ok(float.transpose2()?)
    }
}

/// A network mapped onto digital-offset crossbars.
#[derive(Debug, Clone)]
pub struct MappedNetwork {
    base: Sequential,
    method: Method,
    cfg: OffsetConfig,
    layers: Vec<MappedLayer>,
    /// Evaluation network produced by PWT (carries recalibrated
    /// batch-norm statistics); cleared on each programming cycle.
    tuned: Option<Sequential>,
    /// Fixed device-to-device factors per layer plus the cycle-to-cycle
    /// remainder model, when DDV/CCV splitting is enabled.
    ddv: Option<DdvState>,
}

#[derive(Debug, Clone)]
struct DdvState {
    factors: Vec<Tensor>,
    ccv: VariationModel,
}

impl MappedNetwork {
    /// Maps a trained network.
    ///
    /// `grads` must hold the mean training-set gradient of every core
    /// weight (network orientation), as produced by
    /// [`crate::gradient::mean_core_gradients`], whenever
    /// `method.uses_vawo()`; it is ignored otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::GradientMismatch`] if gradients are required
    /// but missing or miscounted, or propagates quantization/layout
    /// errors.
    pub fn map(
        net: &Sequential,
        method: Method,
        cfg: &OffsetConfig,
        lut: &DeviceLut,
        grads: Option<&[Tensor]>,
    ) -> Result<Self> {
        let _span = rdo_obs::span("core.map");
        cfg.validate()?;
        let mut base = net.clone();
        let infos = core_weight_infos(&mut base);
        let weights = extract_core_weights(&mut base);

        if method.uses_vawo() {
            let supplied = grads.map_or(0, <[Tensor]>::len);
            if supplied != infos.len() {
                return Err(CoreError::GradientMismatch {
                    expected: infos.len(),
                    actual: supplied,
                });
            }
        }

        let mut layers = Vec::with_capacity(infos.len());
        for (i, (info, w)) in infos.iter().zip(&weights).enumerate() {
            let quantized = quantize_weights(w, cfg.codec.weight_bits())?;
            // crossbar orientation: rows = fan_in, cols = fan_out
            let ntw_q = quantized.levels.transpose2()?;
            let layout = GroupLayout::new(info.cols, info.rows, cfg)?;

            let (ctw, initial_state) = if method.uses_vawo() {
                let g = &grads.expect("checked above")[i];
                if g.dims() != w.dims() {
                    return Err(CoreError::InvalidConfig(format!(
                        "gradient {i} shape {:?} does not match weight {:?}",
                        g.dims(),
                        w.dims()
                    )));
                }
                // chain rule into the integer domain: ∂L/∂q = Δ·∂L/∂w
                let delta = quantized.params.delta;
                let g_sq = g.transpose2()?.map(|x| {
                    let gi = x * delta;
                    gi * gi
                });
                let out =
                    optimize_matrix(&ntw_q, &g_sq, &layout, lut, cfg, method.uses_complement(), 0)?;
                (out.ctw, out.state)
            } else {
                (ntw_q.clone(), OffsetState::zeros(layout))
            };

            layers.push(MappedLayer {
                info: *info,
                quant: quantized.params,
                ntw_q,
                state: initial_state.clone(),
                initial_state,
                ctw,
                crw: None,
            });
        }

        Ok(MappedNetwork { base, method, cfg: *cfg, layers, tuned: None, ddv: None })
    }

    /// The mapping method.
    pub fn method(&self) -> Method {
        self.method
    }

    /// The architecture configuration.
    pub fn config(&self) -> &OffsetConfig {
        &self.cfg
    }

    /// Per-layer mapping state.
    pub fn layers(&self) -> &[MappedLayer] {
        &self.layers
    }

    /// Mutable per-layer mapping state (used by PWT).
    pub fn layers_mut(&mut self) -> &mut [MappedLayer] {
        &mut self.layers
    }

    /// Splits the configured total variation into a fixed device-to-device
    /// part (`σ_d² = fraction·σ²`, sampled once per device here) and a
    /// cycle-to-cycle remainder applied freshly by every subsequent
    /// [`MappedNetwork::program`] call. With `fraction = 0` (the paper's
    /// experimental setting) behaviour is unchanged; with `fraction = 1`
    /// repeated programming cycles yield identical devices.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the configured device model
    /// is not the paper's per-weight lognormal law (the σ² decomposition is
    /// specific to it and defined on whole-weight factors), or if
    /// `fraction` is outside `[0, 1]` or NaN.
    pub fn split_ddv(&mut self, fraction: f64, rng: &mut Rng) -> Result<()> {
        if self.cfg.device != DeviceModelSpec::PaperLognormal {
            return Err(CoreError::InvalidConfig(
                "DDV/CCV splitting is defined for the paper's per-weight lognormal device model"
                    .to_string(),
            ));
        }
        if !(0.0..=1.0).contains(&fraction) {
            return Err(CoreError::InvalidConfig(format!(
                "DDV fraction must be in [0, 1], got {fraction}"
            )));
        }
        let (ddv, ccv) = VariationModel::per_weight(self.cfg.sigma).split_ddv_ccv(fraction);
        let factors =
            self.layers.iter().map(|l| sample_ddv_factors(l.ctw.dims(), &ddv, rng)).collect();
        self.ddv = Some(DdvState { factors, ccv });
        Ok(())
    }

    /// Programs one CTW matrix destined for layer `i` — the whole layer or
    /// a gathered panel of its columns — and returns the sampled CRWs.
    /// Every programming operation goes through here: with DDV/CCV
    /// splitting on, layer `i`'s fixed device factors compose with a fresh
    /// cycle-to-cycle draw; otherwise the configured device model writes
    /// the matrix.
    fn write_layer(&self, i: usize, ctw: &Tensor, rng: &mut Rng) -> Result<Tensor> {
        Ok(match &self.ddv {
            Some(d) => program_matrix_with_ddv(ctw, &self.cfg.codec, &d.factors[i], &d.ccv, rng)?,
            None => program_matrix(ctw, &self.cfg.codec, &*self.cfg.device_model(), rng)?,
        })
    }

    /// Simulates one programming cycle: samples fresh CRWs for every layer
    /// (cycle-to-cycle variation means each call yields different devices)
    /// and resets the offsets to their pre-writing values.
    ///
    /// # Errors
    ///
    /// Propagates device-range errors (none occur for valid CTWs).
    pub fn program(&mut self, rng: &mut Rng) -> Result<()> {
        let _span = rdo_obs::span("core.program");
        for i in 0..self.layers.len() {
            let crw = self.write_layer(i, &self.layers[i].ctw, rng)?;
            let layer = &mut self.layers[i];
            layer.crw = Some(crw);
            layer.state = layer.initial_state.clone();
        }
        self.tuned = None;
        Ok(())
    }

    /// Resamples the device conductances like [`MappedNetwork::program`],
    /// but **keeps** the current offsets and any tuned evaluation network.
    ///
    /// This models deploying *stale* compensation on freshly reprogrammed
    /// devices — the scenario that distinguishes cycle-to-cycle from
    /// device-to-device variation: compensation tuned on one cycle stays
    /// valid under pure DDV but not under CCV (the paper's §I critique of
    /// test-once mapping methods).
    ///
    /// # Errors
    ///
    /// Propagates device-range errors (none occur for valid CTWs).
    pub fn reprogram_devices(&mut self, rng: &mut Rng) -> Result<()> {
        let _span = rdo_obs::span("core.program");
        for i in 0..self.layers.len() {
            let crw = self.write_layer(i, &self.layers[i].ctw, rng)?;
            self.layers[i].crw = Some(crw);
        }
        Ok(())
    }

    /// Re-programs a subset of one layer's crossbar *columns* with fresh
    /// devices, keeping every other cell and all offsets untouched.
    ///
    /// Columns are output neurons in the crossbar orientation, so this is
    /// the selective-repair primitive of a serving maintenance loop: after
    /// drift, [`rdo_rram::column_deviation`] ranks the worst-drifted
    /// columns and only those are re-written — far fewer programming
    /// pulses than a full [`MappedNetwork::reprogram_devices`]. The
    /// gathered sub-matrix is programmed through the same path as a full
    /// cycle.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for an unknown layer, an
    /// out-of-range column, an unprogrammed network, or a DDV/CCV-split
    /// configuration (whose per-cell factors are tied to full-array
    /// programming).
    pub fn reprogram_columns(
        &mut self,
        layer_index: usize,
        columns: &[usize],
        rng: &mut Rng,
    ) -> Result<()> {
        if self.ddv.is_some() {
            return Err(CoreError::InvalidConfig(
                "column re-programming is not supported with DDV/CCV splitting".to_string(),
            ));
        }
        let n_layers = self.layers.len();
        let layer = self.layers.get(layer_index).ok_or_else(|| {
            CoreError::InvalidConfig(format!("layer {layer_index} of {n_layers} does not exist"))
        })?;
        let (rows, cols) = (layer.ctw.dims()[0], layer.ctw.dims()[1]);
        if let Some(&bad) = columns.iter().find(|&&c| c >= cols) {
            return Err(CoreError::InvalidConfig(format!(
                "column {bad} out of range for a {cols}-column crossbar"
            )));
        }
        if layer.crw.is_none() {
            return Err(CoreError::InvalidConfig("layer has not been programmed".to_string()));
        }
        if columns.is_empty() {
            return Ok(());
        }
        // gather the targeted CTW columns into a dense [rows, k] panel …
        let k = columns.len();
        let ctw = layer.ctw.data();
        let mut panel = vec![0.0f32; rows * k];
        for r in 0..rows {
            for (j, &c) in columns.iter().enumerate() {
                panel[r * k + j] = ctw[r * cols + c];
            }
        }
        let panel = Tensor::from_vec(panel, &[rows, k])?;
        // … program it like a full cycle …
        let fresh = self.write_layer(layer_index, &panel, rng)?;
        // … and scatter the fresh devices back into the live CRW
        let fresh = fresh.data();
        let dst = self.layers[layer_index].crw.as_mut().expect("checked above").data_mut();
        for r in 0..rows {
            for (j, &c) in columns.iter().enumerate() {
                dst[r * cols + c] = fresh[r * k + j];
            }
        }
        rdo_obs::counter_add("core.reprogram.columns", k as u64);
        Ok(())
    }

    /// Evolves the programmed devices through the configured device
    /// model's time hook ([`rdo_rram::DeviceModel::evolve`]):
    /// deterministic retention behaviour such as the drift-relax model's
    /// state-proportional decay. A no-op for drift-free models. Offsets
    /// and the tuned network are kept, like [`MappedNetwork::age_devices`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] before the first programming,
    /// and propagates the model's own validation (`time_ratio ≥ 1`).
    pub fn evolve_devices(&mut self, time_ratio: f64) -> Result<()> {
        let model = self.cfg.device_model();
        for layer in &mut self.layers {
            let crw = layer.crw.as_mut().ok_or_else(|| {
                CoreError::InvalidConfig("layer has not been programmed".to_string())
            })?;
            model.evolve(crw, &self.cfg.codec, time_ratio)?;
        }
        Ok(())
    }

    /// Ages the programmed devices by conductance drift (an extension
    /// beyond the paper; see [`rdo_rram::DriftModel`]): every CRW decays
    /// by `time_ratio^{−ν}`, with one exponent `ν` per device drawn from
    /// `rng` on this call. Offsets and the tuned network are kept — the
    /// point is to measure how stale they go — so call [`crate::tune`]
    /// afterwards to re-compensate.
    ///
    /// Repeated calls age further, but the exponents are not kept
    /// between calls: each call draws fresh ones, so a device's `ν`
    /// changes from one ageing step to the next, where a physical
    /// device keeps its own. Ageing by `r₁` and then by `r₂` is therefore
    /// not the same as one call with `r₁·r₂`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] before the first programming.
    pub fn age_devices(
        &mut self,
        drift: &rdo_rram::DriftModel,
        time_ratio: f64,
        rng: &mut Rng,
    ) -> Result<()> {
        for layer in &mut self.layers {
            let crw = layer.crw.as_ref().ok_or_else(|| {
                CoreError::InvalidConfig("layer has not been programmed".to_string())
            })?;
            let nu = drift.sample_exponents(crw.dims(), rng);
            layer.crw = Some(drift.age(crw, &nu, time_ratio)?);
        }
        Ok(())
    }

    /// Builds the evaluation network: a clone of the trained network with
    /// every core weight replaced by its crossbar-effective value. Biases
    /// and batch-norm parameters remain digital and exact.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if [`MappedNetwork::program`]
    /// has not been called.
    pub fn effective_network(&self) -> Result<Sequential> {
        let mut net = match &self.tuned {
            Some(t) => t.clone(),
            None => self.base.clone(),
        };
        self.inject_effective_weights(&mut net)?;
        Ok(net)
    }

    /// Rebuilds an existing evaluation network **in place** to equal what
    /// [`MappedNetwork::effective_network`] would construct: the
    /// tuned-or-base network's persistent state is copied into `net`'s
    /// existing tensor storage, then the effective core weights are
    /// injected. No tensor is reallocated, so a caller that evaluates the
    /// same mapped network across many programming cycles (the §IV cycle
    /// loop) keeps one arena per worker instead of cloning the whole
    /// `Sequential` every cycle. Bitwise identical to a fresh
    /// [`MappedNetwork::effective_network`] call.
    ///
    /// `net` must be structurally identical to this mapping's network —
    /// in practice, the result of an earlier `effective_network()` call.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `net`'s state tensors do
    /// not match the mapped network's, plus the
    /// [`MappedNetwork::effective_network`] conditions.
    pub fn refresh_effective_arena(&mut self, net: &mut Sequential) -> Result<()> {
        {
            let src = match &mut self.tuned {
                Some(t) => t,
                None => &mut self.base,
            };
            let src_state = src.state();
            let dst_state = net.state();
            if dst_state.len() != src_state.len() {
                return Err(CoreError::InvalidConfig(format!(
                    "evaluation arena holds {} state tensors, the mapped network {}",
                    dst_state.len(),
                    src_state.len()
                )));
            }
            for (dst, src) in dst_state.into_iter().zip(src_state) {
                if dst.dims() != src.dims() {
                    return Err(CoreError::InvalidConfig(format!(
                        "evaluation arena state shape {:?} does not match mapping {:?}",
                        dst.dims(),
                        src.dims()
                    )));
                }
                dst.data_mut().copy_from_slice(src.data());
            }
        }
        self.inject_effective_weights(net)
    }

    /// The full refresh: rebuilds every layer's effective weight matrix
    /// (`apply` → `map(dequantize)` → `transpose2`) and injects the clones
    /// into `net`. [`MappedNetwork::refresh_effective_with`] is pinned
    /// bitwise to it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MappedNetwork::effective_network`].
    pub(crate) fn inject_effective_weights(&self, net: &mut Sequential) -> Result<()> {
        let weights: Result<Vec<Tensor>> =
            self.layers.iter().map(|l| l.effective_weight(&self.cfg)).collect();
        inject_core_weights(net, &weights?)
    }

    /// The incremental fast refresh: writes effective weights for the
    /// groups whose offsets changed since the last refresh **in place**
    /// into the evaluation network's weight tensors, reading the
    /// transposed-CRW cache held by `scratch` — no allocation, no
    /// transpose, no full-matrix rebuild, and bitwise identical to
    /// rebuilding every effective weight matrix as
    /// [`MappedNetwork::effective_network`] does (the per-element
    /// operation chain is unchanged; see
    /// [`crate::OffsetState::refresh_network_weights`]).
    ///
    /// Large layers are column-parallelized under the `RDO_THREADS`
    /// determinism contract.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `scratch` is not bound to
    /// this network's current programming (see [`PwtScratch::bind`]), and
    /// [`CoreError::GradientMismatch`] if `net`'s core layers do not
    /// match the mapping.
    pub fn refresh_effective_with(
        &self,
        net: &mut Sequential,
        scratch: &mut PwtScratch,
    ) -> Result<()> {
        if !scratch.is_bound_to(self) {
            return Err(CoreError::InvalidConfig(
                "PWT scratch is not bound to this network's programming cycle".to_string(),
            ));
        }
        let maxw = self.cfg.codec.max_weight() as f32;
        let expected = self.layers.len();
        let scratch_layers = scratch.layers_mut();
        let mut li = 0usize;
        for p in net.params() {
            if !p.kind.is_core_weight() {
                continue;
            }
            let layer = self
                .layers
                .get(li)
                .ok_or(CoreError::GradientMismatch { expected, actual: li + 1 })?;
            if p.value.dims() != [layer.info.rows, layer.info.cols] {
                return Err(CoreError::InvalidConfig(format!(
                    "layer {} weight shape {:?} does not match mapping {:?}",
                    li,
                    p.value.dims(),
                    (layer.info.rows, layer.info.cols)
                )));
            }
            let ls = &mut scratch_layers[li];
            let threads = refresh_threads(layer.info.rows * layer.info.cols);
            let last = ls.refreshed.then_some(ls.last.as_slice());
            let q = layer.quant;
            let updated = layer.state.refresh_network_weights(
                &ls.crw_t,
                last,
                q.delta,
                q.shift as f32,
                maxw,
                threads,
                p.value.data_mut(),
            )?;
            if rdo_obs::enabled() {
                let kind = if ls.refreshed {
                    "core.pwt.refresh_incremental"
                } else {
                    "core.pwt.refresh_full"
                };
                rdo_obs::counter_add(kind, 1);
                rdo_obs::counter_add("core.pwt.groups_updated", updated as u64);
            }
            ls.last.copy_from_slice(layer.state.offsets());
            ls.refreshed = true;
            li += 1;
        }
        if li != expected {
            return Err(CoreError::GradientMismatch { expected, actual: li });
        }
        Ok(())
    }

    /// Initializes every offset in closed form from the measured CRWs:
    /// per group, `b = mean(NTW − CRW)` (sign-adjusted for complemented
    /// groups), the least-squares offset for that group's weights.
    ///
    /// This is the zeroth step of post-writing tuning — it exploits the
    /// same posteriori knowledge PWT trains on, cancels both the
    /// systematic lognormal inflation and each group's realized mean
    /// deviation, and leaves backpropagation to handle what a mean cannot.
    /// [`crate::tune`] calls it automatically.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if the network has not been
    /// programmed.
    pub fn init_offsets_mean_matching(&mut self) -> Result<()> {
        let maxw = self.cfg.codec.max_weight() as f32;
        for layer in &mut self.layers {
            let crw = layer.crw.as_ref().ok_or_else(|| {
                CoreError::InvalidConfig("layer has not been programmed".to_string())
            })?;
            let layout = layer.state.layout().clone();
            let cols = layout.fan_out();
            for (ri, &(r0, r1)) in layout.row_bounds().iter().enumerate() {
                for c in 0..cols {
                    let g = layout.group_index(ri, c);
                    let comp = layer.state.is_complemented(g);
                    let mut acc = 0.0f32;
                    for r in r0..r1 {
                        let idx = r * cols + c;
                        let w = layer.ntw_q.data()[idx];
                        let v = crw.data()[idx];
                        // want NRW = w:      plain  w = V + b  ⇒ b = w − V
                        //               complement w = maxw − V − b
                        //                              ⇒ b = maxw − w − V
                        acc += if comp { maxw - w - v } else { w - v };
                    }
                    layer.state.offsets_mut()[g] = acc / (r1 - r0) as f32;
                }
            }
        }
        Ok(())
    }

    /// Installs a tuned evaluation network (weights already effective,
    /// batch-norm statistics recalibrated). Subsequent
    /// [`MappedNetwork::effective_network`] calls clone it (with the
    /// latest effective weights re-injected); the next
    /// [`MappedNetwork::program`] clears it. Called by [`crate::tune`].
    pub fn set_tuned_network(&mut self, net: Sequential) {
        self.tuned = Some(net);
    }

    /// Total nominal device read power of all CTWs, in cell-conductance
    /// units (the Table I quantity, before normalizing against the plain
    /// scheme).
    ///
    /// # Errors
    ///
    /// Propagates codec range errors (none occur for valid CTWs).
    pub fn read_power(&self) -> Result<f64> {
        let mut total = 0.0;
        for layer in &self.layers {
            for &v in layer.ctw.data() {
                total += self.cfg.codec.read_power(v as u32)?;
            }
        }
        Ok(total)
    }

    /// Sum of squared differences between every NRW and its NTW — a cheap
    /// diagnostic of how well the compensation tracks the targets.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] before the first programming.
    pub fn nrw_error(&self) -> Result<f64> {
        let maxw = self.cfg.codec.max_weight() as f32;
        let mut total = 0.0f64;
        for layer in &self.layers {
            let crw = layer.crw.as_ref().ok_or_else(|| {
                CoreError::InvalidConfig("layer has not been programmed".to_string())
            })?;
            let nrw = layer.state.apply(crw, maxw)?;
            for (a, b) in nrw.data().iter().zip(layer.ntw_q.data()) {
                total += ((a - b) as f64).powi(2);
            }
        }
        Ok(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdo_nn::{Layer, Linear, Relu};
    use rdo_rram::CellKind;
    use rdo_tensor::rng::{randn, seeded_rng};

    fn mlp(seed: u64) -> Sequential {
        let mut rng = seeded_rng(seed);
        let mut net = Sequential::new();
        net.push(Linear::new(6, 8, &mut rng));
        net.push(Relu::new());
        net.push(Linear::new(8, 3, &mut rng));
        net
    }

    fn setup(sigma: f64) -> (OffsetConfig, DeviceLut) {
        let cfg = OffsetConfig::paper(CellKind::Slc, sigma, 16).unwrap();
        let lut = DeviceLut::analytic(&VariationModel::per_weight(sigma), &cfg.codec).unwrap();
        (cfg, lut)
    }

    fn fake_grads(net: &mut Sequential) -> Vec<Tensor> {
        extract_core_weights(net)
            .iter()
            .map(|w| Tensor::from_fn(w.dims(), |i| 0.01 * ((i % 13) as f32 - 6.0)))
            .collect()
    }

    fn setup_device(sigma: f64, device: DeviceModelSpec) -> (OffsetConfig, DeviceLut) {
        let cfg = OffsetConfig::with_device(CellKind::Slc, sigma, 16, device).unwrap();
        let lut = DeviceLut::analytic(&*cfg.device_model(), &cfg.codec).unwrap();
        (cfg, lut)
    }

    /// The default-model pin: a config built with the device knob at its
    /// default programs through the paper's per-weight lognormal model.
    #[test]
    fn default_device_spec_programs_the_paper_model() {
        let (cfg, lut) = setup(0.5);
        assert_eq!(cfg, setup_device(0.5, DeviceModelSpec::PaperLognormal).0);
        let net = mlp(3);
        let mut mapped = MappedNetwork::map(&net, Method::Plain, &cfg, &lut, None).unwrap();
        mapped.program(&mut seeded_rng(77)).unwrap();
        // the oracle restarts the seed per layer while program() draws
        // layers from one stream, so only the first layer is a direct pin
        let layer = &mapped.layers()[0];
        let expected = rdo_rram::program_matrix(
            &layer.ctw,
            &cfg.codec,
            &VariationModel::per_weight(0.5),
            &mut seeded_rng(77),
        )
        .unwrap();
        assert_eq!(layer.crw.as_ref().unwrap(), &expected);
    }

    #[test]
    fn zoo_device_spec_programs_through_the_trait() {
        let spec = DeviceModelSpec::level_default();
        let (cfg, lut) = setup_device(0.5, spec);
        let net = mlp(4);
        let mut mapped = MappedNetwork::map(&net, Method::Plain, &cfg, &lut, None).unwrap();
        mapped.program(&mut seeded_rng(5)).unwrap();
        // pins the zoo dispatch: layer 0 must equal the trait entry point
        let oracle = rdo_rram::program_matrix(
            &mapped.layers()[0].ctw,
            &cfg.codec,
            &*cfg.device_model(),
            &mut seeded_rng(5),
        )
        .unwrap();
        assert_eq!(mapped.layers()[0].crw.as_ref().unwrap(), &oracle);
        // and reprogramming keeps working (fresh draws, same law)
        mapped.reprogram_devices(&mut seeded_rng(6)).unwrap();
        assert!(mapped.layers()[0].crw.is_some());
    }

    #[test]
    fn split_ddv_rejects_zoo_device_specs() {
        let (cfg, lut) = setup_device(0.5, DeviceModelSpec::drift_relax_default());
        let net = mlp(5);
        let mut mapped = MappedNetwork::map(&net, Method::Plain, &cfg, &lut, None).unwrap();
        assert!(matches!(
            mapped.split_ddv(0.5, &mut seeded_rng(1)),
            Err(CoreError::InvalidConfig(_))
        ));
    }

    #[test]
    fn split_ddv_rejects_bad_fractions() {
        let (cfg, lut) = setup(0.5);
        let net = mlp(5);
        let mut mapped = MappedNetwork::map(&net, Method::Plain, &cfg, &lut, None).unwrap();
        for fraction in [-0.1, 1.5, f64::NAN] {
            assert!(
                matches!(
                    mapped.split_ddv(fraction, &mut seeded_rng(1)),
                    Err(CoreError::InvalidConfig(_))
                ),
                "fraction {fraction}"
            );
        }
        // a rejected split leaves no DDV state behind
        assert!(mapped.ddv.is_none());
    }

    /// Re-programming every column of a layer is a full re-programming of
    /// that layer: both go through the same write path, for every model.
    #[test]
    fn reprogram_columns_shares_the_programming_path() {
        let net = mlp(10);
        for spec in DeviceModelSpec::all() {
            let (cfg, lut) = setup_device(0.5, spec);
            let mut mapped = MappedNetwork::map(&net, Method::Plain, &cfg, &lut, None).unwrap();
            mapped.program(&mut seeded_rng(1)).unwrap();
            let mut twin = mapped.clone();
            let cols = mapped.layers()[0].ctw.dims()[1];
            mapped
                .reprogram_columns(0, &(0..cols).collect::<Vec<_>>(), &mut seeded_rng(4))
                .unwrap();
            twin.reprogram_devices(&mut seeded_rng(4)).unwrap();
            let (a, b) = (mapped.layers()[0].crw.as_ref(), twin.layers()[0].crw.as_ref());
            let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a.unwrap()), bits(b.unwrap()), "{spec}");
        }
    }

    #[test]
    fn evolve_devices_applies_the_model_hook() {
        let spec = DeviceModelSpec::drift_relax_default();
        let (cfg, lut) = setup_device(0.0, spec);
        let net = mlp(6);
        let mut mapped = MappedNetwork::map(&net, Method::Plain, &cfg, &lut, None).unwrap();
        // before programming: error
        assert!(mapped.evolve_devices(10.0).is_err());
        mapped.program(&mut seeded_rng(7)).unwrap();
        let before: Vec<Tensor> = mapped.layers().iter().map(|l| l.crw.clone().unwrap()).collect();
        mapped.evolve_devices(100.0).unwrap();
        let decayed = mapped
            .layers()
            .iter()
            .zip(&before)
            .flat_map(|(l, b)| {
                l.crw.as_ref().unwrap().data().iter().zip(b.data()).map(|(a, b)| (*a, *b))
            })
            .filter(|(a, b)| a < b)
            .count();
        assert!(decayed > 0, "drift must decay some conductances");
        // paper default: evolve is the identity
        let (cfg2, lut2) = setup(0.5);
        let mut paper = MappedNetwork::map(&net, Method::Plain, &cfg2, &lut2, None).unwrap();
        paper.program(&mut seeded_rng(8)).unwrap();
        let b0 = paper.layers()[0].crw.clone().unwrap();
        paper.evolve_devices(100.0).unwrap();
        assert_eq!(paper.layers()[0].crw.as_ref().unwrap(), &b0);
    }

    #[test]
    fn reprogram_columns_touches_only_the_selected_columns() {
        let (cfg, lut) = setup(0.5);
        let net = mlp(9);
        let mut mapped = MappedNetwork::map(&net, Method::Plain, &cfg, &lut, None).unwrap();
        assert!(mapped.reprogram_columns(0, &[0], &mut seeded_rng(1)).is_err());
        mapped.program(&mut seeded_rng(1)).unwrap();
        let before = mapped.layers()[0].crw.clone().unwrap();
        let cols = before.dims()[1];
        let picked = [0usize, cols - 1];
        mapped.reprogram_columns(0, &picked, &mut seeded_rng(42)).unwrap();
        let after = mapped.layers()[0].crw.clone().unwrap();
        let rows = before.dims()[0];
        let mut changed = 0usize;
        for r in 0..rows {
            for c in 0..cols {
                let (a, b) = (before.data()[r * cols + c], after.data()[r * cols + c]);
                if picked.contains(&c) {
                    changed += usize::from(a.to_bits() != b.to_bits());
                } else {
                    assert_eq!(a.to_bits(), b.to_bits(), "untouched column {c} must not move");
                }
            }
        }
        assert!(changed > 0, "re-programmed columns must hold fresh draws");
        // determinism: the same rng seed re-writes the same devices
        let mut twin = MappedNetwork::map(&net, Method::Plain, &cfg, &lut, None).unwrap();
        twin.program(&mut seeded_rng(1)).unwrap();
        twin.reprogram_columns(0, &picked, &mut seeded_rng(42)).unwrap();
        assert_eq!(twin.layers()[0].crw.as_ref().unwrap(), &after);
        // out-of-range and unknown-layer validation
        assert!(mapped.reprogram_columns(0, &[cols], &mut seeded_rng(2)).is_err());
        assert!(mapped.reprogram_columns(99, &[0], &mut seeded_rng(2)).is_err());
    }

    #[test]
    fn zero_sigma_plain_mapping_is_nearly_lossless() {
        let (cfg, lut) = setup(0.0);
        let net = mlp(0);
        let mut mapped = MappedNetwork::map(&net, Method::Plain, &cfg, &lut, None).unwrap();
        mapped.program(&mut seeded_rng(1)).unwrap();
        let mut eff = mapped.effective_network().unwrap();
        let x = randn(&[4, 6], 0.0, 1.0, &mut seeded_rng(2));
        let y_ideal = net.clone().forward(&x, false).unwrap();
        let y_eff = eff.forward(&x, false).unwrap();
        for (a, b) in y_ideal.data().iter().zip(y_eff.data()) {
            // only 8-bit quantization error remains
            assert!((a - b).abs() < 0.05, "{a} vs {b}");
        }
    }

    #[test]
    fn vawo_requires_gradients() {
        let (cfg, lut) = setup(0.5);
        let net = mlp(1);
        assert!(matches!(
            MappedNetwork::map(&net, Method::Vawo, &cfg, &lut, None),
            Err(CoreError::GradientMismatch { .. })
        ));
    }

    #[test]
    fn vawo_mapping_reduces_nrw_error_vs_plain() {
        let (cfg, lut) = setup(0.5);
        let mut net = mlp(2);
        let grads = fake_grads(&mut net);
        let mut plain = MappedNetwork::map(&net, Method::Plain, &cfg, &lut, None).unwrap();
        let mut vawo =
            MappedNetwork::map(&net, Method::VawoStar, &cfg, &lut, Some(&grads)).unwrap();
        // average over several programming cycles
        let (mut ep, mut ev) = (0.0, 0.0);
        for c in 0..5 {
            plain.program(&mut seeded_rng(100 + c)).unwrap();
            vawo.program(&mut seeded_rng(200 + c)).unwrap();
            ep += plain.nrw_error().unwrap();
            ev += vawo.nrw_error().unwrap();
        }
        assert!(ev < ep, "VAWO* NRW error {ev} !< plain {ep}");
    }

    #[test]
    fn vawo_star_reduces_read_power() {
        // Table I's mechanism: VAWO* stores smaller values (positive
        // offsets + complement) ⇒ lower total read power than plain.
        let (cfg, lut) = setup(0.5);
        let mut net = mlp(3);
        let grads = fake_grads(&mut net);
        let plain = MappedNetwork::map(&net, Method::Plain, &cfg, &lut, None).unwrap();
        let star = MappedNetwork::map(&net, Method::VawoStar, &cfg, &lut, Some(&grads)).unwrap();
        let (pp, ps) = (plain.read_power().unwrap(), star.read_power().unwrap());
        assert!(ps < pp, "VAWO* read power {ps} !< plain {pp}");
    }

    #[test]
    fn programming_cycles_differ() {
        let (cfg, lut) = setup(0.5);
        let net = mlp(4);
        let mut mapped = MappedNetwork::map(&net, Method::Plain, &cfg, &lut, None).unwrap();
        let mut rng = seeded_rng(5);
        mapped.program(&mut rng).unwrap();
        let crw1 = mapped.layers()[0].crw.clone().unwrap();
        mapped.program(&mut rng).unwrap();
        let crw2 = mapped.layers()[0].crw.clone().unwrap();
        assert_ne!(crw1, crw2, "cycle-to-cycle variation must change CRWs");
    }

    #[test]
    fn effective_network_before_programming_fails() {
        let (cfg, lut) = setup(0.5);
        let mapped = MappedNetwork::map(&mlp(6), Method::Plain, &cfg, &lut, None).unwrap();
        assert!(mapped.effective_network().is_err());
        assert!(mapped.nrw_error().is_err());
    }

    #[test]
    fn plain_mapping_is_biased_upward_under_noise() {
        // the lognormal mean factor inflates plain NRWs above NTWs
        let (cfg, lut) = setup(0.5);
        let net = mlp(7);
        let mut mapped = MappedNetwork::map(&net, Method::Plain, &cfg, &lut, None).unwrap();
        let mut bias = 0.0f64;
        let mut count = 0usize;
        for c in 0..10 {
            mapped.program(&mut seeded_rng(300 + c)).unwrap();
            for layer in mapped.layers() {
                let crw = layer.crw.as_ref().unwrap();
                for (a, b) in crw.data().iter().zip(layer.ntw_q.data()) {
                    bias += (a - b) as f64;
                    count += 1;
                }
            }
        }
        assert!(bias / count as f64 > 1.0, "mean bias {}", bias / count as f64);
    }

    #[test]
    fn mean_matching_cancels_group_mean_deviation() {
        let (cfg, lut) = setup(0.5);
        let net = mlp(9);
        let mut mapped = MappedNetwork::map(&net, Method::Pwt, &cfg, &lut, None).unwrap();
        assert!(mapped.init_offsets_mean_matching().is_err()); // not programmed
        mapped.program(&mut seeded_rng(11)).unwrap();
        let before = mapped.nrw_error().unwrap();
        mapped.init_offsets_mean_matching().unwrap();
        let after = mapped.nrw_error().unwrap();
        assert!(after < before, "mean matching must reduce NRW error: {after} !< {before}");
        // per-group mean residual must now vanish
        let maxw = cfg.codec.max_weight() as f32;
        for layer in mapped.layers() {
            let nrw = layer.state.apply(layer.crw.as_ref().unwrap(), maxw).unwrap();
            let layout = layer.state.layout();
            let cols = layout.fan_out();
            for (ri, &(r0, r1)) in layout.row_bounds().iter().enumerate() {
                for c in 0..cols {
                    let _ = ri;
                    let mean_resid: f32 = (r0..r1)
                        .map(|r| nrw.data()[r * cols + c] - layer.ntw_q.data()[r * cols + c])
                        .sum::<f32>()
                        / (r1 - r0) as f32;
                    assert!(mean_resid.abs() < 1e-3, "residual {mean_resid}");
                }
            }
        }
    }

    #[test]
    fn pure_ddv_repeats_across_cycles() {
        let (cfg, lut) = setup(0.5);
        let net = mlp(12);
        let mut mapped = MappedNetwork::map(&net, Method::Plain, &cfg, &lut, None).unwrap();
        mapped.split_ddv(1.0, &mut seeded_rng(5)).unwrap();
        mapped.program(&mut seeded_rng(1)).unwrap();
        let a = mapped.layers()[0].crw.clone().unwrap();
        mapped.program(&mut seeded_rng(2)).unwrap();
        let b = mapped.layers()[0].crw.clone().unwrap();
        assert_eq!(a, b, "pure DDV: same devices every cycle");
        assert_ne!(a, mapped.layers()[0].ctw, "but still perturbed");
    }

    #[test]
    fn pure_ccv_differs_across_cycles() {
        let (cfg, lut) = setup(0.5);
        let net = mlp(13);
        let mut mapped = MappedNetwork::map(&net, Method::Plain, &cfg, &lut, None).unwrap();
        mapped.split_ddv(0.0, &mut seeded_rng(5)).unwrap();
        mapped.program(&mut seeded_rng(1)).unwrap();
        let a = mapped.layers()[0].crw.clone().unwrap();
        mapped.program(&mut seeded_rng(2)).unwrap();
        let b = mapped.layers()[0].crw.clone().unwrap();
        assert_ne!(a, b, "pure CCV: fresh devices every cycle");
    }

    #[test]
    fn reprogram_devices_keeps_offsets() {
        let (cfg, lut) = setup(0.5);
        let net = mlp(14);
        let mut mapped = MappedNetwork::map(&net, Method::Pwt, &cfg, &lut, None).unwrap();
        mapped.program(&mut seeded_rng(1)).unwrap();
        mapped.init_offsets_mean_matching().unwrap();
        let offsets_before: Vec<f32> = mapped.layers()[0].state.offsets().to_vec();
        assert!(offsets_before.iter().any(|&b| b != 0.0));
        mapped.reprogram_devices(&mut seeded_rng(2)).unwrap();
        assert_eq!(
            mapped.layers()[0].state.offsets(),
            offsets_before.as_slice(),
            "reprogram_devices must keep the (now stale) offsets"
        );
        // while program() resets them
        mapped.program(&mut seeded_rng(3)).unwrap();
        assert!(mapped.layers()[0].state.offsets().iter().all(|&b| b == 0.0));
    }

    #[test]
    fn layer_count_matches_core_weights() {
        let (cfg, lut) = setup(0.2);
        let mapped = MappedNetwork::map(&mlp(8), Method::Plain, &cfg, &lut, None).unwrap();
        assert_eq!(mapped.layers().len(), 2);
        assert_eq!(mapped.layers()[0].ntw_q.dims(), &[6, 8]); // fan_in × fan_out
        assert_eq!(mapped.layers()[1].ntw_q.dims(), &[8, 3]);
    }
}
