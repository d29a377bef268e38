//! Per-run scratch arena for the PWT fast path.
//!
//! [`crate::tune`] updates one scalar offset per group of `m` weights per
//! mini-batch, yet the original implementation rebuilt every layer's full
//! effective weight matrix — `apply` + `map(dequantize)` + `transpose2`,
//! three allocations and four passes — after each batch. [`PwtScratch`]
//! holds everything the fast path needs instead: a transposed-CRW cache
//! (the offset-independent base, built once per programming cycle), the
//! per-layer stale-offset and group-gradient buffers, and the best-offsets
//! snapshot.
//! After [`PwtScratch::bind`], steady-state tuning batches perform no
//! PWT-side heap allocation at all.
//!
//! A rebind reuses the arena's own buffers in place, so one arena serves
//! every programming cycle (see [`crate::tune_with_scratch`]) without
//! re-touching the allocator. They are long-lived state, not
//! temporaries, so they do not come from the thread's
//! [`rdo_tensor::scratch`] pool: checked out of it, a `groups`-sized
//! buffer would keep whatever larger idle buffer best fit handed out.

use crate::error::{CoreError, Result};
use crate::mapping::MappedNetwork;

/// Reusable working memory for the PWT fast path (see the
/// module docs).
///
/// The arena must be bound to a programmed [`MappedNetwork`] with
/// [`PwtScratch::bind`] before [`MappedNetwork::refresh_effective_with`]
/// can use it; [`crate::tune_with_scratch`] does so automatically. Binding
/// caches the current CRWs, so rebind after every
/// [`MappedNetwork::program`].
#[derive(Debug, Default)]
pub struct PwtScratch {
    layers: Vec<LayerScratch>,
}

/// Per-layer slice of the arena.
#[derive(Debug, Default)]
pub(crate) struct LayerScratch {
    /// CRW transposed into network orientation (`(fan_out, fan_in)`
    /// row-major) — the offset-independent base of the refresh.
    pub(crate) crw_t: Vec<f32>,
    /// Offsets as of the last refresh into the evaluation network; only
    /// meaningful once `refreshed` is set.
    pub(crate) last: Vec<f32>,
    /// Whether `last` reflects a completed refresh (false right after
    /// binding, which forces the first refresh to rebuild everything).
    pub(crate) refreshed: bool,
    /// Group-major offset-gradient buffer.
    pub(crate) db: Vec<f32>,
    /// Snapshot of the best offsets observed (the PWT safeguard).
    pub(crate) best: Vec<f32>,
}

impl PwtScratch {
    /// Creates an empty arena; no memory is held until the first bind.
    pub fn new() -> Self {
        PwtScratch::default()
    }

    /// Binds the arena to `mapped`'s current programming cycle:
    /// transposes every layer's CRW into network orientation and resets
    /// the stale-offset tracking (the next refresh rebuilds every group).
    /// The previous binding's buffers are reused in place, so rebinding
    /// the same network for its next programming cycle allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] if `mapped` has not been
    /// programmed; the arena is then bound to nothing.
    pub fn bind(&mut self, mapped: &MappedNetwork) -> Result<()> {
        let Some(crws) = mapped.layers().iter().map(|l| l.crw.as_ref()).collect::<Option<Vec<_>>>()
        else {
            self.layers.clear();
            return Err(CoreError::InvalidConfig("layer has not been programmed".to_string()));
        };
        self.layers.resize_with(crws.len(), LayerScratch::default);
        for ((ls, layer), crw) in self.layers.iter_mut().zip(mapped.layers()).zip(crws) {
            let layout = layer.state.layout();
            let (rows, cols, groups) = (layout.fan_in(), layout.fan_out(), layout.group_count());
            // every element is written before it is read: `crw_t` here,
            // the others by the first refresh, gradient and snapshot
            ls.crw_t.resize(rows * cols, 0.0);
            let src = crw.data();
            for c in 0..cols {
                for r in 0..rows {
                    ls.crw_t[c * rows + r] = src[r * cols + c];
                }
            }
            for buf in [&mut ls.last, &mut ls.db, &mut ls.best] {
                buf.resize(groups, 0.0);
            }
            ls.refreshed = false;
        }
        if rdo_obs::enabled() {
            let bytes: usize = self
                .layers
                .iter()
                .map(|l| {
                    4 * (l.crw_t.capacity()
                        + l.last.capacity()
                        + l.db.capacity()
                        + l.best.capacity())
                })
                .sum::<usize>();
            rdo_obs::counter_max("core.pwt.scratch_bytes", bytes as u64);
        }
        Ok(())
    }

    /// Whether the arena is bound to a network with this many core layers.
    pub(crate) fn is_bound_to(&self, mapped: &MappedNetwork) -> bool {
        self.layers.len() == mapped.layers().len()
            && self.layers.iter().zip(mapped.layers()).all(|(ls, l)| {
                ls.crw_t.len() == l.state.layout().fan_in() * l.state.layout().fan_out()
            })
    }

    pub(crate) fn layers_mut(&mut self) -> &mut [LayerScratch] {
        &mut self.layers
    }

    /// Copies every layer's current offsets into the best-snapshot slots.
    pub(crate) fn save_best(&mut self, mapped: &MappedNetwork) {
        for (ls, layer) in self.layers.iter_mut().zip(mapped.layers()) {
            ls.best.copy_from_slice(layer.state.offsets());
        }
    }

    /// Restores every layer's offsets from the best-snapshot slots.
    pub(crate) fn restore_best(&self, mapped: &mut MappedNetwork) {
        for (ls, layer) in self.layers.iter().zip(mapped.layers_mut()) {
            layer.state.offsets_mut().copy_from_slice(&ls.best);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Method, OffsetConfig};
    use rdo_nn::{Linear, Relu, Sequential};
    use rdo_rram::{CellKind, DeviceLut, VariationModel};
    use rdo_tensor::rng::seeded_rng;

    fn mapped() -> MappedNetwork {
        let mut rng = seeded_rng(3);
        let mut net = Sequential::new();
        net.push(Linear::new(6, 8, &mut rng));
        net.push(Relu::new());
        net.push(Linear::new(8, 3, &mut rng));
        let cfg = OffsetConfig::paper(CellKind::Slc, 0.5, 16).unwrap();
        let lut = DeviceLut::analytic(&VariationModel::per_weight(0.5), &cfg.codec).unwrap();
        MappedNetwork::map(&net, Method::Pwt, &cfg, &lut, None).unwrap()
    }

    #[test]
    fn bind_requires_programming() {
        let m = mapped();
        let mut s = PwtScratch::new();
        assert!(s.bind(&m).is_err());
        assert!(!s.is_bound_to(&m));
    }

    #[test]
    fn bind_caches_transposed_crws() {
        let mut m = mapped();
        m.program(&mut seeded_rng(1)).unwrap();
        let mut s = PwtScratch::new();
        s.bind(&m).unwrap();
        assert!(s.is_bound_to(&m));
        for (ls, layer) in s.layers.iter().zip(m.layers()) {
            let crw = layer.crw.as_ref().unwrap();
            let (rows, cols) = (crw.dims()[0], crw.dims()[1]);
            for r in 0..rows {
                for c in 0..cols {
                    assert_eq!(ls.crw_t[c * rows + r], crw.data()[r * cols + c]);
                }
            }
            assert!(!ls.refreshed);
            assert_eq!(ls.db.len(), layer.state.layout().group_count());
        }
    }

    #[test]
    fn rebinding_reuses_the_arena_storage() {
        let mut m = mapped();
        m.program(&mut seeded_rng(1)).unwrap();
        let mut s = PwtScratch::new();
        s.bind(&m).unwrap();
        let ptrs: Vec<_> = s.layers.iter().map(|l| l.crw_t.as_ptr()).collect();
        m.program(&mut seeded_rng(2)).unwrap();
        let pooled = rdo_tensor::scratch::pooled_capacity();
        s.bind(&m).unwrap();
        // every CRW cache is rebuilt in place, and the rebind neither
        // draws from nor feeds the thread's scratch pool
        assert_eq!(s.layers.iter().map(|l| l.crw_t.as_ptr()).collect::<Vec<_>>(), ptrs);
        assert_eq!(rdo_tensor::scratch::pooled_capacity(), pooled);
        assert!(s.is_bound_to(&m));
        // a failed bind leaves the arena bound to nothing
        let unprogrammed = mapped();
        assert!(s.bind(&unprogrammed).is_err());
        assert!(!s.is_bound_to(&m));
    }

    #[test]
    fn best_snapshot_roundtrip() {
        let mut m = mapped();
        m.program(&mut seeded_rng(1)).unwrap();
        m.init_offsets_mean_matching().unwrap();
        let mut s = PwtScratch::new();
        s.bind(&m).unwrap();
        s.save_best(&m);
        let saved: Vec<Vec<f32>> = m.layers().iter().map(|l| l.state.offsets().to_vec()).collect();
        for layer in m.layers_mut() {
            for b in layer.state.offsets_mut() {
                *b += 5.0;
            }
        }
        s.restore_best(&mut m);
        for (layer, want) in m.layers().iter().zip(&saved) {
            assert_eq!(layer.state.offsets(), want.as_slice());
        }
    }
}
