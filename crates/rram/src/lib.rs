//! # rdo-rram
//!
//! RRAM device and crossbar simulator for the reproduction of *"Digital
//! Offset for RRAM-based Neuromorphic Computing"* (DATE 2021).
//!
//! The crate models the full §II/§IV substrate: SLC and 2-bit MLC cells
//! with a finite ON/OFF ratio ([`CellTechnology`]), bit-sliced 8-bit weight
//! encoding ([`WeightCodec`]), lognormal DDV+CCV write variation
//! ([`VariationModel`], the default member of the [`DeviceModel`] zoo
//! that [`program_matrix`] programs through), the device statistics LUT
//! with both closed-form and measured construction ([`DeviceLut`]),
//! crossbar dimensions ([`CrossbarSpec`]) and matrix-to-crossbar tiling
//! ([`TileMapping`]).
//!
//! # Examples
//!
//! ```
//! use rdo_rram::{
//!     CellKind, CellTechnology, DeviceLut, VariationModel, WeightCodec,
//! };
//!
//! let codec = WeightCodec::paper(CellTechnology::paper(CellKind::Slc));
//! let model = VariationModel::per_weight(0.5);
//! let lut = DeviceLut::analytic(&model, &codec)?;
//! // lognormal noise inflates the expected written value…
//! assert!(lut.mean(200) > 200.0);
//! // …and the LUT inverts the bias: writing this CTW lands on 200 on average.
//! let ctw = lut.inverse_mean(200.0);
//! assert!(ctw < 200);
//! # Ok::<(), rdo_rram::RramError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod codec;
mod crossbar;
mod device;
mod device_model;
mod drift;
mod drift_report;
mod error;
mod lut;
mod tile_map;
mod variation;

pub use codec::WeightCodec;
pub use crossbar::{program_matrix, program_matrix_with_ddv, sample_ddv_factors, CrossbarSpec};
pub use device::{CellKind, CellTechnology};
pub use device_model::{
    DeviceModel, DeviceModelSpec, DiffBase, DifferentialPairModel, DriftRelaxModel,
    LevelLognormalModel,
};
pub use drift::DriftModel;
pub use drift_report::{column_deviation, ColumnDriftReport};
pub use error::{Result, RramError};
pub use lut::DeviceLut;
pub use tile_map::TileMapping;
pub use variation::{VariationKind, VariationModel};
