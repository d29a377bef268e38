//! Once warm, training and PWT epochs on a conv + linear net take every
//! temporary from the thread's scratch pool: not one checkout of an epoch
//! reaches the allocator. Runs in its own process, so the global obs
//! registry is private to the test.
//!
//! An epoch is measured as the difference between a three-epoch and a
//! one-epoch call. A call's first batch may allocate: `fit` and `tune`
//! drop their network's forward caches on return, so those buffers leave
//! the pool with them.

use rdo_core::{tune_with_scratch, MappedNetwork, Method, OffsetConfig, PwtConfig, PwtScratch};
use rdo_nn::{fit, Conv2d, Flatten, Linear, Relu, Sequential, TrainConfig};
use rdo_rram::{CellKind, DeviceLut, VariationModel};
use rdo_tensor::rng::{rand_uniform, seeded_rng};

fn counter(name: &str) -> u64 {
    rdo_obs::snapshot().counters.get(name).copied().unwrap_or(0)
}

/// The scratch checkouts and the allocations among them that `f` makes.
fn checkouts(f: impl FnOnce()) -> [u64; 2] {
    let before = [counter("tensor.scratch.takes"), counter("tensor.scratch.allocs")];
    f();
    [counter("tensor.scratch.takes") - before[0], counter("tensor.scratch.allocs") - before[1]]
}

/// Asserts that the two epochs a three-epoch call adds over a one-epoch
/// call check buffers out and allocate none.
fn assert_epochs_allocate_nothing(what: &str, mut run: impl FnMut(usize)) {
    run(1); // warm-up
    let one = checkouts(|| run(1));
    let three = checkouts(|| run(3));
    assert!(three[0] > one[0], "{what} epochs checked nothing out of the pool");
    assert_eq!(three[1], one[1], "warm {what} epochs allocated ({one:?} vs {three:?})");
}

#[test]
fn warm_epochs_allocate_no_scratch() {
    rdo_obs::set_enabled(true);
    let mut rng = seeded_rng(5);
    let mut net = Sequential::new();
    // a direct-path conv, a lowered stride-2 conv and a linear head
    net.push(Conv2d::new(1, 4, 3, 1, 1, &mut rng));
    net.push(Relu::new());
    net.push(Conv2d::new(4, 4, 3, 2, 1, &mut rng));
    net.push(Relu::new());
    net.push(Flatten::new());
    net.push(Linear::new(64, 3, &mut rng));
    // 20 samples at batch 8: two full batches and a short one per epoch
    let x = rand_uniform(&[20, 1, 8, 8], 0.0, 1.0, &mut rng);
    let labels: Vec<usize> = (0..20).map(|i| i % 3).collect();

    assert_epochs_allocate_nothing("training", |epochs| {
        let cfg = TrainConfig { epochs, batch_size: 8, ..Default::default() };
        fit(&mut net, &x, &labels, &cfg).unwrap();
    });

    let cfg = OffsetConfig::paper(CellKind::Slc, 0.5, 16).unwrap();
    let lut = DeviceLut::analytic(&VariationModel::per_weight(0.5), &cfg.codec).unwrap();
    let mut mapped = MappedNetwork::map(&net, Method::Pwt, &cfg, &lut, None).unwrap();
    let mut arena = PwtScratch::new();
    let mut cycle = 0;
    assert_epochs_allocate_nothing("PWT", |epochs| {
        // a new programming cycle per call, as the §IV protocol runs them
        cycle += 1;
        mapped.program(&mut seeded_rng(cycle)).unwrap();
        let pwt = PwtConfig { epochs, batch_size: 8, ..Default::default() };
        tune_with_scratch(&mut mapped, &x, &labels, &pwt, &mut arena).unwrap();
    });
}
