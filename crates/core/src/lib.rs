//! # rdo-core
//!
//! The primary contribution of *"Digital Offset for RRAM-based
//! Neuromorphic Computing: A Novel Solution to Conquer Cycle-to-cycle
//! Variation"* (DATE 2021), reimplemented end to end:
//!
//! * **Digital offsets** ([`OffsetState`], [`GroupLayout`]) — one tunable
//!   register shared by `m` weights of a crossbar column, applied as
//!   `b·Σxᵢ` after the analog dot product.
//! * **VAWO** ([`optimize_matrix`]) — pre-writing selection of crossbar
//!   target weights and offsets from the device LUT and training-set
//!   gradients (§III-B), with the weight-complement enhancement (§III-C).
//! * **PWT** ([`tune`]) — post-writing backpropagation on the offsets
//!   against the measured conductances (§III-D, Eq. 8).
//! * **Mapping pipeline** ([`MappedNetwork`]) — quantize → choose CTWs →
//!   program → build the effective evaluation network, with the §IV
//!   multi-cycle protocol in [`evaluate_cycles`].
//!
//! # Examples
//!
//! ```
//! use rdo_core::{evaluate_cycles, CycleEvalConfig, MappedNetwork, Method, OffsetConfig};
//! use rdo_nn::{Linear, Sequential};
//! use rdo_rram::{CellKind, DeviceLut, VariationModel};
//! use rdo_tensor::rng::{randn, seeded_rng};
//!
//! let mut rng = seeded_rng(0);
//! let mut net = Sequential::new();
//! net.push(Linear::new(4, 2, &mut rng));
//!
//! let cfg = OffsetConfig::paper(CellKind::Slc, 0.5, 16)?;
//! let lut = DeviceLut::analytic(&VariationModel::per_weight(0.5), &cfg.codec)?;
//! let mut mapped = MappedNetwork::map(&net, Method::Plain, &cfg, &lut, None)?;
//! mapped.program(&mut rng)?;
//! let noisy = mapped.effective_network()?; // ready to evaluate
//! # let _ = noisy;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod error;
mod eval;
mod gradient;
mod mapping;
mod offsets;
mod pwt;
mod scratch;
pub mod testutil;
mod vawo;

pub use config::{Method, OffsetConfig};
pub use error::{CoreError, Result};
pub use eval::{evaluate_cycles, CycleEvalConfig, CycleEvaluation};
pub use gradient::{
    core_weight_infos, extract_core_weights, inject_core_weights, mean_core_gradients,
    CoreWeightInfo,
};
pub use mapping::{MappedLayer, MappedNetwork};
pub use offsets::{GroupLayout, OffsetState};
pub use pwt::{tune, tune_incremental, tune_with_scratch, PwtConfig, PwtOptimizer, PwtReport};
pub use scratch::PwtScratch;
pub use vawo::{complement_weight, optimize_matrix, VawoOutput};
