//! # rdo-arch
//!
//! ISAAC-style architecture and analytical cost models for the
//! digital-offset datapath of *"Digital Offset for RRAM-based
//! Neuromorphic Computing"* (DATE 2021):
//!
//! * [`IsaacTile`] — the baseline tile (0.372 mm², 330 mW, 100 ns cycle)
//!   and Eq. 9's offset-register counts.
//! * [`datapath_cost`] / [`tile_overhead`] — the Table II area/power
//!   overhead accounting, built from calibrated 32 nm unit costs
//!   ([`UnitCosts`]) in place of the paper's Design Compiler flow.
//! * [`CrossbarBudget`] — the Table III normalized crossbar numbers.
//!
//! Table I's reading power is measured on the mapped network itself
//! (`MappedNetwork::read_power` in `rdo-core`); [`tile_overhead`] takes
//! its VAWO\*/plain ratio as an input.
//!
//! # Examples
//!
//! ```
//! use rdo_arch::{tile_overhead, IsaacTile, UnitCosts};
//!
//! let o = tile_overhead(&IsaacTile::paper(), &UnitCosts::calibrated_32nm(), 16, 0.58);
//! assert!(o.fits_pipeline); // Sum+Multi fits the 100 ns ISAAC cycle
//! assert!(o.area_fraction < 0.2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod crossbars;
mod isaac;
mod offset_unit;

pub use cost::{tile_overhead, TileOverhead};
pub use crossbars::{CrossbarArchitecture, CrossbarBudget};
pub use isaac::IsaacTile;
pub use offset_unit::{adder_cost, datapath_cost, AdderCost, OffsetDatapathCost, UnitCosts};
