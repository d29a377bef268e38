//! Guarantees of the shipped post-writing tuning path: one scratch arena
//! reused across programming cycles is transparent, and the §IV protocol
//! gives the same per-cycle accuracies at every thread count. Its
//! equivalence with the full-weight-gradient test oracle is pinned by the
//! unit tests of `rdo_core`'s `pwt` module.

use rdo_core::testutil::{trained_problem_2class, trained_problem_4class};
use rdo_core::{
    evaluate_cycles, tune_with_scratch, CycleEvalConfig, MappedNetwork, Method, OffsetConfig,
    PwtConfig, PwtScratch,
};
use rdo_rram::{CellKind, DeviceLut, VariationModel};
use rdo_tensor::rng::seeded_rng;

fn mapped_problem(
    kind: CellKind,
    sigma: f64,
    program_seed: u64,
) -> (MappedNetwork, rdo_tensor::Tensor, Vec<usize>) {
    let (net, x, labels) = trained_problem_4class();
    let cfg = OffsetConfig::paper(kind, sigma, 16).unwrap();
    let lut = DeviceLut::analytic(&VariationModel::per_weight(sigma), &cfg.codec).unwrap();
    let mut mapped = MappedNetwork::map(&net, Method::Pwt, &cfg, &lut, None).unwrap();
    mapped.program(&mut seeded_rng(program_seed)).unwrap();
    (mapped, x, labels)
}

fn offsets_bits(mapped: &MappedNetwork) -> Vec<Vec<u32>> {
    mapped
        .layers()
        .iter()
        .map(|l| l.state.offsets().iter().map(|b| b.to_bits()).collect())
        .collect()
}

#[test]
fn scratch_reuse_across_cycles_is_transparent() {
    // one arena reused across programming cycles (the evaluate_cycles
    // pattern) gives the same result as a fresh arena per cycle
    let cfg = PwtConfig { epochs: 2, seed: 3, ..Default::default() };
    let mut shared_scratch = PwtScratch::new();
    for cycle_seed in [1u64, 2, 3] {
        let (mut reused, x, labels) = mapped_problem(CellKind::Slc, 0.5, cycle_seed);
        tune_with_scratch(&mut reused, &x, &labels, &cfg, &mut shared_scratch).unwrap();

        let (mut fresh, _, _) = mapped_problem(CellKind::Slc, 0.5, cycle_seed);
        tune_with_scratch(&mut fresh, &x, &labels, &cfg, &mut PwtScratch::new()).unwrap();

        assert_eq!(offsets_bits(&reused), offsets_bits(&fresh), "cycle seed {cycle_seed}");
    }
}

#[test]
fn protocol_is_thread_count_invariant_with_fast_path() {
    let (net, x, labels) = trained_problem_2class();
    let cfg = OffsetConfig::paper(CellKind::Slc, 1.0, 16).unwrap();
    let lut = DeviceLut::analytic(&VariationModel::per_weight(1.0), &cfg.codec).unwrap();
    let run = |threads: usize| {
        let mut mapped = MappedNetwork::map(&net, Method::Pwt, &cfg, &lut, None).unwrap();
        let eval_cfg = CycleEvalConfig {
            cycles: 3,
            seed: 5,
            pwt: PwtConfig { epochs: 2, ..Default::default() },
            batch_size: 64,
            threads,
        };
        evaluate_cycles(&mut mapped, Some((&x, &labels)), &x, &labels, &eval_cfg).unwrap().per_cycle
    };
    let serial = run(1);
    for threads in [2usize, 3, 8] {
        assert_eq!(serial, run(threads), "threads={threads}");
    }
}
