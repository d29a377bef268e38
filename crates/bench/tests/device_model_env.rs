//! End-to-end contract of the device-model zoo bench API (DESIGN.md §5i):
//! `RDO_DEVICE_MODEL` must reach [`BenchConfig::from_env`], every shipped
//! zoo member must run through [`run_grid`] — both per-point and via the
//! config knob — and stuck-at fault injection must be deterministic in
//! the worker-thread count.

use std::time::Duration;

use rdo_bench::prelude::*;
use rdo_datasets::Dataset;
use rdo_nn::{Flatten, Linear, Sequential};
use rdo_tensor::rng::seeded_rng;
use rdo_tensor::Tensor;

/// A deliberately tiny but well-formed [`TrainedModel`]: one 4→2 linear
/// layer over 2×2 single-channel images, enough to drive the full
/// map → program → evaluate pipeline in milliseconds.
fn tiny_model() -> TrainedModel {
    let mut net = Sequential::new();
    net.push(Flatten::new());
    net.push(Linear::new(4, 2, &mut seeded_rng(5)));
    let n = 16;
    let images = Tensor::from_fn(&[n, 1, 2, 2], |i| 0.05 * ((i * 13) % 41) as f32 - 1.0);
    let labels: Vec<usize> = (0..n).map(|i| i % 2).collect();
    let train = Dataset::new(images.clone(), labels.clone(), 2).expect("train split");
    let test = Dataset::new(images, labels, 2).expect("test split");
    TrainedModel {
        name: "tiny".to_string(),
        net,
        train,
        test,
        ideal_accuracy: 0.5,
        grads: Vec::new(),
        train_time: Duration::ZERO,
    }
}

#[test]
fn rdo_device_model_reaches_from_env() {
    // Env vars are process-global; no other test in this binary calls
    // `from_env`, so setting and removing the knob here cannot race.
    std::env::set_var("RDO_DEVICE_MODEL", "level:lrs=0.4,hrs=0.9,stuck=0.01");
    assert_eq!(
        BenchConfig::from_env().device_model,
        DeviceModelSpec::LevelLognormal { lrs: 0.4, hrs: 0.9, stuck: 0.01 }
    );
    std::env::set_var("RDO_DEVICE_MODEL", "diffpair:level");
    assert_eq!(
        BenchConfig::from_env().device_model,
        DeviceModelSpec::DiffPair { base: DiffBase::Level }
    );
    std::env::remove_var("RDO_DEVICE_MODEL");
    assert_eq!(BenchConfig::from_env().device_model, DeviceModelSpec::PaperLognormal);
}

#[test]
fn run_grid_covers_the_zoo_per_point() {
    let model = tiny_model();
    let cfg = BenchConfig::builder().cycles(2).threads(1).build();
    let points: Vec<GridPoint> = [
        DeviceModelSpec::level_default(),
        DeviceModelSpec::drift_relax_default(),
        DeviceModelSpec::DiffPair { base: DiffBase::Paper },
    ]
    .into_iter()
    .map(|m| GridPoint::new(Method::Plain, CellKind::Slc, 0.5, 16).with_model(m))
    .collect();
    let results = run_grid(&model, points.as_slice(), &cfg).expect("zoo grid runs");
    assert_eq!(results.len(), 3);
    for r in &results {
        assert_eq!(r.per_cycle.len(), 2);
        assert!(r.per_cycle.iter().all(|a| (0.0..=1.0).contains(a)), "accuracy in [0,1]: {r:?}");
    }
}

#[test]
fn config_knob_reaches_points_without_their_own_model() {
    let model = tiny_model();
    let axes = (&[Method::Plain][..], &[CellKind::Slc][..], &[0.5][..], &[16][..]);
    let knob_cfg = BenchConfig::builder()
        .cycles(2)
        .threads(1)
        .device_model(DeviceModelSpec::drift_relax_default())
        .build();
    let spec = GridSpec::product(axes.0, axes.1, axes.2, axes.3);
    let knob = run_grid(&model, spec.clone(), &knob_cfg).expect("knob grid");
    let explicit_cfg = BenchConfig::builder().cycles(2).threads(1).build();
    let explicit_points: Vec<GridPoint> = spec
        .points()
        .iter()
        .map(|p| p.with_model(DeviceModelSpec::drift_relax_default()))
        .collect();
    let explicit =
        run_grid(&model, explicit_points.as_slice(), &explicit_cfg).expect("explicit grid");
    assert_eq!(
        knob[0].per_cycle, explicit[0].per_cycle,
        "config-level model must act exactly like a per-point model"
    );
}

#[test]
fn stuck_faults_are_deterministic_in_thread_count() {
    let model = tiny_model();
    // A fault rate high enough that every cycle sees stuck cells: any
    // scheduling sensitivity in the fault draws would show up here.
    let stuck = DeviceModelSpec::LevelLognormal { lrs: 0.3, hrs: 0.7, stuck: 0.05 };
    let points: Vec<GridPoint> =
        GridSpec::product(&[Method::Plain], &[CellKind::Slc], &[0.5, 0.8], &[16])
            .points()
            .iter()
            .map(|p| p.with_model(stuck))
            .collect();
    let run = |threads: usize| {
        let cfg = BenchConfig::builder().cycles(3).threads(threads).build();
        run_grid(&model, points.as_slice(), &cfg).expect("stuck grid")
    };
    let serial = run(1);
    let threaded = run(4);
    assert_eq!(serial.len(), threaded.len());
    for (a, b) in serial.iter().zip(&threaded) {
        assert_eq!(a.per_cycle, b.per_cycle, "thread count must not change results");
    }
}
