//! Pool ≡ serial equivalence on the real engine workloads.
//!
//! The persistent worker pool (`rdo_tensor::pool`) must be bitwise
//! indistinguishable from the serial path (`threads = 1`) at every
//! thread count: threads decide *who* computes a unit, never *how*. These
//! tests drive the two heaviest consumers — the VAWO column search and
//! the §IV multi-cycle evaluation protocol — at two workers, more
//! workers than a small machine has cores, and the whole machine, and
//! demand bit-exact agreement with the serial run.

use rdo_core::{
    evaluate_cycles, optimize_matrix, CycleEvalConfig, GroupLayout, MappedNetwork, Method,
    OffsetConfig, PwtConfig, VawoOutput,
};
use rdo_nn::{fit, Linear, Relu, Sequential, TrainConfig};
use rdo_rram::{CellKind, DeviceLut, VariationModel};
use rdo_tensor::rng::{randn, seeded_rng};
use rdo_tensor::Tensor;

fn thread_counts() -> Vec<usize> {
    let max = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut counts = vec![2, 4];
    if max > 4 {
        counts.push(max);
    }
    counts
}

fn assert_vawo_eq(a: &VawoOutput, b: &VawoOutput, what: &str) {
    assert_eq!(a.ctw.dims(), b.ctw.dims(), "{what}: ctw shape diverged");
    for (i, (x, y)) in a.ctw.data().iter().zip(b.ctw.data()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}: ctw[{i}] diverged");
    }
    assert_eq!(a.objective.to_bits(), b.objective.to_bits(), "{what}: objective diverged");
}

#[test]
fn vawo_pool_matches_serial_bitwise_at_every_thread_count() {
    let (rows, cols) = (64usize, 48usize);
    let ntw = Tensor::from_fn(&[rows, cols], |i| ((i * 37) % 256) as f32);
    let g2 = Tensor::from_fn(&[rows, cols], |i| 1e-4 * (1.0 + (i % 7) as f32));
    let cfg = OffsetConfig::paper(CellKind::Slc, 0.5, 16).unwrap();
    let lut = DeviceLut::analytic(&VariationModel::per_weight(0.5), &cfg.codec).unwrap();
    let layout = GroupLayout::new(rows, cols, &cfg).unwrap();

    let serial = optimize_matrix(&ntw, &g2, &layout, &lut, &cfg, true, 1).unwrap();
    for threads in thread_counts() {
        let pooled = optimize_matrix(&ntw, &g2, &layout, &lut, &cfg, true, threads).unwrap();
        assert_vawo_eq(&pooled, &serial, &format!("vawo threads={threads} vs serial"));
    }
}

fn cycle_workload() -> (MappedNetwork, Tensor, Vec<usize>) {
    let mut rng = seeded_rng(77);
    let x = randn(&[128, 16], 0.0, 1.0, &mut rng);
    let labels: Vec<usize> =
        (0..128).map(|i| usize::from(x.data()[i * 16] + x.data()[i * 16 + 2] > 0.0)).collect();
    let mut net = Sequential::new();
    net.push(Linear::new(16, 24, &mut rng));
    net.push(Relu::new());
    net.push(Linear::new(24, 2, &mut rng));
    fit(&mut net, &x, &labels, &TrainConfig { epochs: 4, lr: 0.1, ..Default::default() }).unwrap();
    let cfg = OffsetConfig::paper(CellKind::Slc, 0.5, 16).unwrap();
    let lut = DeviceLut::analytic(&VariationModel::per_weight(0.5), &cfg.codec).unwrap();
    let mapped = MappedNetwork::map(&net, Method::Pwt, &cfg, &lut, None).unwrap();
    (mapped, x, labels)
}

fn run_cycles(mapped: &MappedNetwork, x: &Tensor, labels: &[usize], threads: usize) -> Vec<u32> {
    let mut m = mapped.clone();
    let eval = evaluate_cycles(
        &mut m,
        Some((x, labels)),
        x,
        labels,
        &CycleEvalConfig {
            cycles: 4,
            seed: 11,
            pwt: PwtConfig { epochs: 1, ..Default::default() },
            batch_size: 32,
            threads,
        },
    )
    .unwrap();
    eval.per_cycle.iter().map(|a| a.to_bits()).collect()
}

#[test]
fn cycle_eval_pool_matches_serial_bitwise_at_every_thread_count() {
    let (mapped, x, labels) = cycle_workload();
    let serial = run_cycles(&mapped, &x, &labels, 1);
    for threads in thread_counts() {
        let pooled = run_cycles(&mapped, &x, &labels, threads);
        assert_eq!(pooled, serial, "cycle eval threads={threads} diverged from serial");
    }
}
