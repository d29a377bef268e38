//! Network-level pipeline planning: cycles, latency and energy of running
//! mapped layers through ISAAC-style tiles with the digital-offset
//! datapath attached.
//!
//! ISAAC pipelines layers across tiles; within a layer, all of a matrix's
//! crossbars operate in parallel, so one inference step through a layer
//! takes `input_bits · ⌈rows_per_tile / m⌉` array cycles (bit-serial
//! inputs × partial wordline activation, §II). §III-E's Sum+Multi
//! operation rides inside the same cycle (checked by
//! [`crate::tile_overhead`]), so the offset support adds energy but no
//! latency.

use rdo_rram::{TileMapping, WeightCodec};

use crate::isaac::IsaacTile;
use crate::offset_unit::{datapath_cost, UnitCosts};

/// Pipeline planner configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineModel {
    /// The tile the plan targets.
    pub tile: IsaacTile,
    /// Datapath unit costs (for the offset-support energy).
    pub costs: UnitCosts,
    /// Input bit width fed bit-serially (the paper uses 8).
    pub input_bits: u32,
    /// Wordlines activated per cycle — the sharing granularity `m`.
    pub active_rows: usize,
}

impl PipelineModel {
    /// The paper's configuration at sharing granularity `m`.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero or does not divide the tile's rows.
    pub fn paper(m: usize) -> Self {
        let tile = IsaacTile::paper();
        assert!(m > 0 && tile.rows.is_multiple_of(m), "m must divide the crossbar rows");
        PipelineModel { tile, costs: UnitCosts::calibrated_32nm(), input_bits: 8, active_rows: m }
    }
}

/// Cost plan of one mapped layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerPlan {
    /// Matrix rows (fan-in).
    pub fan_in: usize,
    /// Matrix columns (fan-out).
    pub fan_out: usize,
    /// Crossbars the matrix occupies.
    pub crossbars: usize,
    /// Array cycles per input vector
    /// (`input_bits · ⌈min(fan_in, rows) / m⌉` — row tiles run in
    /// parallel, so the tallest tile sets the count).
    pub cycles_per_input: usize,
    /// Latency per input vector in ns.
    pub latency_ns: f64,
    /// Array read energy per input vector in nJ (all crossbars active).
    pub array_energy_nj: f64,
    /// Offset-datapath energy per input vector in nJ.
    pub offset_energy_nj: f64,
}

impl LayerPlan {
    /// Total energy per input vector in nJ.
    pub fn energy_nj(&self) -> f64 {
        self.array_energy_nj + self.offset_energy_nj
    }
}

/// Cost plan of a whole network.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkPlan {
    /// Per-layer plans, in network order.
    pub layers: Vec<LayerPlan>,
    /// Total crossbars across all layers.
    pub total_crossbars: usize,
    /// Tiles needed (crossbars / crossbars-per-tile, rounded up).
    pub tiles: usize,
    /// Pipeline initiation interval in ns: the slowest stage bounds the
    /// steady-state throughput.
    pub initiation_interval_ns: f64,
    /// End-to-end latency of one input through all stages, ns.
    pub total_latency_ns: f64,
    /// Total energy per inference, nJ.
    pub total_energy_nj: f64,
}

impl PipelineModel {
    /// Plans one `(fan_in, fan_out)` weight matrix.
    ///
    /// # Errors
    ///
    /// Propagates tiling errors for degenerate matrices.
    pub fn plan_layer(
        &self,
        fan_in: usize,
        fan_out: usize,
        codec: &WeightCodec,
    ) -> rdo_rram::Result<LayerPlan> {
        let spec = rdo_rram::CrossbarSpec::new(
            self.tile.rows,
            self.tile.weight_cols * codec.cells_per_weight(),
        );
        let mapping = TileMapping::new(fan_in, fan_out, spec, codec)?;
        let crossbars = mapping.crossbars();
        let tallest = fan_in.min(self.tile.rows);
        let cycles = self.input_bits as usize * tallest.div_ceil(self.active_rows);
        let latency_ns = cycles as f64 * self.tile.clock_ns;

        // array read energy: each active crossbar draws its share of the
        // tile read budget for the duration of the layer's cycles
        let per_crossbar_read_mw = self.tile.read_power_mw / self.tile.crossbars as f64;
        let array_energy_nj = per_crossbar_read_mw * crossbars as f64 * latency_ns * 1e-3; // mW·ns = pJ; ×1e-3 → nJ

        // offset datapath energy over the same window
        let regs = self.tile.offset_registers_per_crossbar(self.active_rows);
        let dp = datapath_cost(self.active_rows, self.tile.weight_cols, regs, &self.costs);
        let offset_energy_nj = dp.power_mw() * crossbars as f64 * latency_ns * 1e-3;

        Ok(LayerPlan {
            fan_in,
            fan_out,
            crossbars,
            cycles_per_input: cycles,
            latency_ns,
            array_energy_nj,
            offset_energy_nj,
        })
    }

    /// Plans a network given its core-layer matrix shapes, in order.
    ///
    /// # Errors
    ///
    /// Propagates tiling errors.
    pub fn plan_network(
        &self,
        shapes: &[(usize, usize)],
        codec: &WeightCodec,
    ) -> rdo_rram::Result<NetworkPlan> {
        let layers: rdo_rram::Result<Vec<LayerPlan>> =
            shapes.iter().map(|&(fi, fo)| self.plan_layer(fi, fo, codec)).collect();
        let layers = layers?;
        let total_crossbars: usize = layers.iter().map(|l| l.crossbars).sum();
        let tiles = total_crossbars.div_ceil(self.tile.crossbars);
        let initiation_interval_ns = layers.iter().map(|l| l.latency_ns).fold(0.0f64, f64::max);
        let total_latency_ns = layers.iter().map(|l| l.latency_ns).sum();
        let total_energy_nj = layers.iter().map(LayerPlan::energy_nj).sum();
        Ok(NetworkPlan {
            layers,
            total_crossbars,
            tiles,
            initiation_interval_ns,
            total_latency_ns,
            total_energy_nj,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdo_rram::{CellKind, CellTechnology};

    fn mlc_codec() -> WeightCodec {
        WeightCodec::paper(CellTechnology::paper(CellKind::Mlc2))
    }

    #[test]
    fn cycle_count_matches_bit_serial_formula() {
        let model = PipelineModel::paper(16);
        let plan = model.plan_layer(128, 32, &mlc_codec()).unwrap();
        // 8 input bits × 128/16 groups = 64 cycles
        assert_eq!(plan.cycles_per_input, 64);
        assert_eq!(plan.latency_ns, 6400.0);
        assert_eq!(plan.crossbars, 1);
    }

    #[test]
    fn short_layers_take_fewer_cycles() {
        let model = PipelineModel::paper(16);
        let short = model.plan_layer(20, 8, &mlc_codec()).unwrap();
        let tall = model.plan_layer(128, 8, &mlc_codec()).unwrap();
        assert!(short.cycles_per_input < tall.cycles_per_input);
        // 8 bits × ceil(20/16) = 16 cycles
        assert_eq!(short.cycles_per_input, 16);
    }

    #[test]
    fn coarser_activation_is_faster_but_offset_energy_shifts() {
        let fine = PipelineModel::paper(16);
        let coarse = PipelineModel::paper(128);
        let codec = mlc_codec();
        let pf = fine.plan_layer(128, 32, &codec).unwrap();
        let pc = coarse.plan_layer(128, 32, &codec).unwrap();
        assert!(pc.cycles_per_input < pf.cycles_per_input, "m=128 needs fewer cycles");
        assert_eq!(pc.cycles_per_input, 8);
    }

    #[test]
    fn network_plan_aggregates() {
        let model = PipelineModel::paper(16);
        let codec = mlc_codec();
        let shapes = [(25usize, 6usize), (150, 16), (400, 120)];
        let plan = model.plan_network(&shapes, &codec).unwrap();
        assert_eq!(plan.layers.len(), 3);
        assert_eq!(plan.total_crossbars, plan.layers.iter().map(|l| l.crossbars).sum::<usize>());
        assert!(plan.tiles >= 1);
        // slowest stage bounds the initiation interval
        let max = plan.layers.iter().map(|l| l.latency_ns).fold(0.0, f64::max);
        assert_eq!(plan.initiation_interval_ns, max);
        assert!(plan.total_latency_ns >= max);
        assert!(plan.total_energy_nj > 0.0);
    }

    #[test]
    fn energy_scales_with_crossbars() {
        let model = PipelineModel::paper(16);
        let codec = mlc_codec();
        let small = model.plan_layer(128, 32, &codec).unwrap();
        let wide = model.plan_layer(128, 320, &codec).unwrap();
        assert_eq!(wide.crossbars, 10 * small.crossbars);
        assert!(wide.energy_nj() > 9.0 * small.energy_nj());
        // same latency: column tiles run in parallel
        assert_eq!(wide.latency_ns, small.latency_ns);
    }

    #[test]
    #[should_panic(expected = "divide")]
    fn invalid_m_panics() {
        PipelineModel::paper(100);
    }
}
