//! Perf-report pipeline: machine-readable kernel and engine timings.
//!
//! The one bench harness: writes seven `BENCH_*.json` records and the
//! `lifetime.json` accuracy record under `results/`, so the repository
//! tracks its performance trajectory PR over PR (`BENCH_obs.json` is
//! folded from a run log by `obs_report`). Every `BENCH_*` record is one
//! [`BenchRecord`]: a header plus `{case, variant, ns, baseline_variant,
//! speedup}` rows, where each baseline is a shipped alternative, never a
//! test oracle:
//!
//! - `BENCH_gemm.json` — the register-tiled microkernel serial versus
//!   threaded on the canonical GEMM shapes (256×256×256 and the LeNet
//!   im2col shapes), plus convolution forward passes (LeNet conv1, a
//!   ResNet stage-1 conv) through the im2col-free direct kernel versus
//!   im2col + GEMM, and the stage-1 conv's input gradient through the
//!   same kernel (`windows`) versus GEMM + col2im, each serial and
//!   threaded. GEMM and conv rows carry their FLOP count.
//! - `BENCH_cycles.json` — wall-clock of the §IV multi-cycle evaluation
//!   engine at worker-thread counts 1, 2, half the machine and the full
//!   machine, against one thread.
//! - `BENCH_vawo.json` — the table-driven VAWO search on a 128×128 layer,
//!   threaded versus serial.
//! - `BENCH_program.json` — bulk device programming of a 128×128 block,
//!   one absolute row per device-model zoo member at SLC and MLC2.
//! - `BENCH_pwt.json` — the shipped post-writing tuner (Eq. 8 row-group
//!   gradients + scratch arena + in-place refresh) on a 128×128 layer
//!   stack, on the paper's LeNet and on ResNet-18 at base width 8,
//!   absolute times.
//! - `BENCH_serve.json` — the concurrent inference service: dynamic
//!   batching versus batch-1 saturation on the paper-shape snapshot, plus
//!   open-loop latency quantiles ([`rdo_bench::serve_harness`]).
//! - `BENCH_sweep.json` — end-to-end Fig. 5-style grids through
//!   [`run_grid`] on the persistent worker pool at growing point
//!   counts, plus the packed-dataset cycle evaluation (pack the eval
//!   panels once, reuse every cycle) against the repack-every-cycle and
//!   plain per-cycle paths, and a snapshot of the process-wide pool
//!   counters.
//! - `lifetime.json` — accuracy over device lifetime: a PWT-mapped
//!   ResNet-18 on drift-relax devices under live traffic, once per
//!   maintenance policy ([`rdo_bench::lifetime_harness`]). It times
//!   nothing and runs last, so its pool jobs stay out of the
//!   `BENCH_sweep` counter snapshot.
//!
//! The numbers are gated where they are computed: the conv paths, the
//! serve outputs and the lifetime arms fail the run when they break
//! their contracts, as does a sweep that never engaged the pool.
//!
//! `RDO_SEED` (read through [`BenchConfig::from_env()`]) seeds the serve
//! and lifetime records; `--help-env` prints the full knob table.
//!
//! Timings are best-of-N wall clock (minimum over repetitions), which is
//! the standard noise-robust point estimate for short kernels. Run with
//! `--quick` for the CI smoke mode (fewer repetitions, fewer cycles);
//! regenerate the committed records with:
//!
//! ```text
//! cargo run --release -p rdo-bench --bin perf_report
//! ```

use std::hint::black_box;
use std::time::Duration;

use rdo_bench::lifetime_harness::{lifetime_report, LifetimeBenchConfig};
use rdo_bench::record::{BenchRecord, BenchRow};
use rdo_bench::serve_harness::{serve_report, ServeBenchConfig};
use rdo_bench::{
    run_grid, write_bench_record, BenchConfig, BenchError, GridSpec, Result, TrainedModel,
};
use rdo_core::{
    evaluate_cycles, optimize_matrix, tune_with_scratch, CycleEvalConfig, GroupLayout,
    MappedNetwork, Method, OffsetConfig, PwtConfig, PwtScratch,
};
use rdo_datasets::Dataset;
use rdo_nn::{
    evaluate, evaluate_packed, fit, Flatten, LeNetConfig, Linear, PackedDataset, Relu,
    ResNetConfig, Sequential, TrainConfig,
};
use rdo_obs::best_of_ns as best_of;
use rdo_rram::{
    program_matrix, CellKind, CellTechnology, DeviceLut, DeviceModelSpec, VariationModel,
    WeightCodec,
};
use rdo_tensor::microkernel::gemm_nn;
use rdo_tensor::rng::{rand_uniform, randn, seeded_rng};
use rdo_tensor::{
    available_threads, col2im_into, conv2d_direct_into, conv2d_lowered_into, matmul_into_threads,
    scratch, transposed_kernel_into, Conv2dGeometry, Tensor,
};

/// One GEMM shape measured by the report. The LeNet rows are the exact
/// im2col products of the §IV LeNet at batch 32: conv1 lowers 28×28×1
/// k5 pad 2 → (32·28·28, 25, 6), conv2 lowers 14×14×6 k5 → (32·10·10, 150, 16).
const SHAPES: &[(&str, usize, usize, usize)] = &[
    ("square_256", 256, 256, 256),
    ("lenet_conv1_b32", 25088, 25, 6),
    ("lenet_conv2_b32", 3200, 150, 16),
];

/// Convolution forward passes timed direct against lowered at batch 32:
/// `(label, [in, out, kernel, stride, padding], h = w)`. Both take the
/// direct path in the networks (see `Conv2dGeometry::direct_forward`).
const CONV_LAYERS: &[(&str, [usize; 5], usize)] =
    &[("lenet_conv1_b32", [1, 6, 5, 1, 2], 28), ("resnet_layer1_b32", [8, 8, 3, 1, 1], 16)];

fn main() -> Result<()> {
    if std::env::args().any(|a| a == "--help-env") {
        print!("{}", rdo_bench::env::help_table());
        return Ok(());
    }
    let quick = std::env::args().any(|a| a == "--quick");
    let reps = if quick { 3 } else { 12 };
    let seed = BenchConfig::from_env().seed;

    write(gemm_report(reps, quick)?)?;
    write(cycles_report(quick)?)?;
    write(vawo_report(quick)?)?;
    write(program_report(reps, quick)?)?;
    write(pwt_report(quick)?)?;
    write(serve_report(&ServeBenchConfig { seed, ..ServeBenchConfig::defaults(quick) })?)?;
    write(sweep_report(quick)?)?;

    let mut lifetime = LifetimeBenchConfig::defaults(quick);
    lifetime.life.seed = seed;
    write_bench_record("lifetime", &lifetime_report(&lifetime)?)?;
    rdo_obs::flush();
    Ok(())
}

/// Writes `rec` to `results/BENCH_<bench>.json`.
fn write(rec: BenchRecord) -> Result<()> {
    write_bench_record(&format!("BENCH_{}", rec.bench), &rec.to_json()?)
}

fn ms(ns: u128) -> f64 {
    ns as f64 / 1e6
}

fn gemm_report(reps: usize, quick: bool) -> Result<BenchRecord> {
    let mut rec = BenchRecord::new("gemm", reps, quick);
    let threads = rec.threads;
    for &(name, m, k, n) in SHAPES {
        let mut rng = seeded_rng(42);
        let a = randn(&[m, k], 0.0, 1.0, &mut rng);
        let b = randn(&[k, n], 0.0, 1.0, &mut rng);
        let mut c = vec![0.0f32; m * n];

        let serial_ns = best_of(reps, || {
            c.fill(0.0);
            matmul_into_threads(a.data(), b.data(), &mut c, m, k, n, 1);
        });
        let threaded_ns = best_of(reps, || {
            c.fill(0.0);
            matmul_into_threads(a.data(), b.data(), &mut c, m, k, n, threads);
        });

        let flop = 2 * (m * k * n) as u64;
        eprintln!(
            "[gemm] {name} ({m}x{k}x{n}): serial {:.3} ms ({:.2} GFLOP/s), \
             threaded({threads}) {:.3} ms ({:.2}x)",
            ms(serial_ns),
            flop as f64 / serial_ns as f64, // flop/ns = GFLOP/s
            ms(threaded_ns),
            serial_ns as f64 / threaded_ns as f64,
        );
        let case = format!("{name}_{m}x{k}x{n}");
        rec.rows.push(BenchRow::new(&case, "serial", serial_ns).flop(flop));
        rec.rows.push(BenchRow::new(case, "threaded", threaded_ns).vs("serial").flop(flop));
    }
    conv_forward_rows(reps, threads, &mut rec.rows);
    conv_dx_rows(reps, threads, &mut rec.rows);
    Ok(rec)
}

/// Four rows per [`CONV_LAYERS`] entry: best-of-`reps` forward passes,
/// lowered and direct, serial and on `threads` workers; each direct row
/// is taken against the lowered one at the same thread count.
fn conv_forward_rows(reps: usize, threads: usize, rows: &mut Vec<BenchRow>) {
    for &(name, [c, oc, k, stride, pad], hw) in CONV_LAYERS {
        let geom = Conv2dGeometry::new(c, oc, k, stride, pad);
        let mut rng = seeded_rng(7);
        let x = randn(&[32, c, hw, hw], 0.0, 1.0, &mut rng);
        let weight = randn(&[oc, geom.patch_len()], 0.0, 0.3, &mut rng);
        let bias = randn(&[oc], 0.0, 0.1, &mut rng);
        let (oh, ow) = geom.output_hw(hw, hw);
        let mut direct_out = vec![0.0f32; 32 * oc * oh * ow];
        let mut lowered_out = direct_out.clone();
        let mut direct = |t: usize| {
            best_of(reps, || {
                let (w, b) = (weight.data(), bias.data());
                conv2d_direct_into(&x, &geom, w, b, &mut direct_out, t).expect("consistent shapes");
            })
        };
        let (direct_ns, direct_threaded_ns) = (direct(1), direct(threads));
        let mut lowered = |t: usize| {
            best_of(reps, || {
                let (w, b) = (weight.data(), bias.data());
                let cols = conv2d_lowered_into(&x, &geom, w, b, &mut lowered_out, t)
                    .expect("consistent shapes");
                scratch::recycle(cols);
            })
        };
        let (lowered_ns, lowered_threaded_ns) = (lowered(1), lowered(threads));
        let bitwise = direct_out.iter().zip(&lowered_out).all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(bitwise, "{name}: the direct conv forward differs from the lowered one");
        eprintln!(
            "[gemm] conv {name}: direct {:.3} ms vs lowered {:.3} ms ({:.2}x); \
             threaded({threads}) {:.3} vs {:.3} ms ({:.2}x)",
            ms(direct_ns),
            ms(lowered_ns),
            lowered_ns as f64 / direct_ns as f64,
            ms(direct_threaded_ns),
            ms(lowered_threaded_ns),
            lowered_threaded_ns as f64 / direct_threaded_ns as f64,
        );
        let flop = 2 * (32 * oc * oh * ow * geom.patch_len()) as u64;
        let ns = [lowered_ns, direct_ns, lowered_threaded_ns, direct_threaded_ns];
        push_paired(rows, &format!("conv_{name}"), "direct", ns, flop);
    }
}

/// Four rows of one case: `lowered` and `fast` serial, then threaded,
/// each `fast` row taken against the `lowered` one at its thread count.
fn push_paired(rows: &mut Vec<BenchRow>, case: &str, fast: &str, ns: [u128; 4], flop: u64) {
    let variants = [
        ("lowered_serial".to_string(), None),
        (format!("{fast}_serial"), Some("lowered_serial")),
        ("lowered_threaded".to_string(), None),
        (format!("{fast}_threaded"), Some("lowered_threaded")),
    ];
    for ((variant, baseline), ns) in variants.into_iter().zip(ns) {
        let mut row = BenchRow::new(case, variant, ns).flop(flop);
        row.baseline_variant = baseline.map(String::from);
        rows.push(row);
    }
}

/// Four rows for the input gradient of the ResNet stage-1 conv (8 → 8,
/// 3×3, pad 1, 16×16) at batch 32, both ways `Conv2d::backward` computes
/// it: `windows` (the transposed kernel through `conv2d_direct_into`, the
/// path this shape takes) against `lowered` (`gemm_nn` of the
/// patch-major dY into a `rows × patch` buffer, then `col2im_into`).
fn conv_dx_rows(reps: usize, threads: usize, rows: &mut Vec<BenchRow>) {
    let (n, c, oc, k, pad, hw) = (32, 8, 8, 3, 1, 16);
    let geom = Conv2dGeometry::new(c, oc, k, 1, pad);
    let transposed = Conv2dGeometry::new(oc, c, k, 1, k - 1 - pad);
    let (patch, positions) = (geom.patch_len(), n * hw * hw);
    let mut rng = seeded_rng(7);
    let weight = randn(&[oc, patch], 0.0, 0.3, &mut rng);
    let dy = randn(&[n, oc, hw, hw], 0.0, 1.0, &mut rng);
    // the patch-major dY the lowered product reads; the layer has it
    // already, from its parameter gradients
    let mut gp = vec![0.0f32; positions * oc];
    for (img, dst) in dy.data().chunks_exact(oc * hw * hw).zip(gp.chunks_exact_mut(hw * hw * oc)) {
        for (p, row) in dst.chunks_exact_mut(oc).enumerate() {
            for (o, v) in row.iter_mut().enumerate() {
                *v = img[o * hw * hw + p];
            }
        }
    }
    let mut windows_dx = vec![0.0f32; n * c * hw * hw];
    let mut windows = |t: usize| {
        best_of(reps, || {
            windows_dx.fill(0.0);
            let mut wt = scratch::take(weight.len());
            transposed_kernel_into(&geom, weight.data(), &mut wt).expect("consistent shapes");
            let bias = scratch::take_zeroed(c);
            conv2d_direct_into(&dy, &transposed, &wt, &bias, &mut windows_dx, t)
                .expect("consistent shapes");
            scratch::recycle(wt);
            scratch::recycle(bias);
        })
    };
    let (windows_ns, windows_threaded_ns) = (windows(1), windows(threads));
    let mut lowered_dx = vec![0.0f32; n * c * hw * hw];
    let mut lowered = |t: usize| {
        best_of(reps, || {
            lowered_dx.fill(0.0);
            let mut dcols = scratch::take_zeroed(positions * patch);
            gemm_nn(&gp, weight.data(), &mut dcols, positions, oc, patch, t);
            col2im_into(&dcols, &geom, n, hw, hw, &mut lowered_dx).expect("consistent shapes");
            scratch::recycle(dcols);
        })
    };
    let (lowered_ns, lowered_threaded_ns) = (lowered(1), lowered(threads));
    let scale = lowered_dx.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    let close = windows_dx.iter().zip(&lowered_dx).all(|(a, b)| (a - b).abs() <= 1e-5 * scale);
    assert!(close, "resnet_layer1_b32: the windows conv dX differs from the lowered one");
    eprintln!(
        "[gemm] conv dX resnet_layer1_b32: windows {:.3} ms vs lowered {:.3} ms ({:.2}x); \
         threaded({threads}) {:.3} vs {:.3} ms ({:.2}x)",
        ms(windows_ns),
        ms(lowered_ns),
        lowered_ns as f64 / windows_ns as f64,
        ms(windows_threaded_ns),
        ms(lowered_threaded_ns),
        lowered_threaded_ns as f64 / windows_threaded_ns as f64,
    );
    let flop = 2 * (positions * patch * oc) as u64;
    let ns = [lowered_ns, windows_ns, lowered_threaded_ns, windows_threaded_ns];
    push_paired(rows, "convdx_resnet_layer1_b32", "windows", ns, flop);
}

fn cycles_report(quick: bool) -> Result<BenchRecord> {
    // Same workload as `benches/cycles.rs`: a small trained MLP mapped
    // with PWT, evaluated over the multi-cycle variation protocol.
    let mut rng = seeded_rng(24);
    let x = randn(&[256, 16], 0.0, 1.0, &mut rng);
    let labels: Vec<usize> =
        (0..256).map(|i| usize::from(x.data()[i * 16] + x.data()[i * 16 + 2] > 0.0)).collect();
    let mut net = Sequential::new();
    net.push(Linear::new(16, 32, &mut rng));
    net.push(Relu::new());
    net.push(Linear::new(32, 2, &mut rng));
    fit(&mut net, &x, &labels, &TrainConfig { epochs: 10, lr: 0.1, ..Default::default() })?;

    let sigma = 0.5;
    let cfg = OffsetConfig::paper(CellKind::Slc, sigma, 16).map_err(BenchError::from)?;
    let lut = DeviceLut::analytic(&VariationModel::per_weight(sigma), &cfg.codec)?;
    let mapped = MappedNetwork::map(&net, Method::Pwt, &cfg, &lut, None)?;

    let cycles = if quick { 2 } else { 8 };
    let reps = if quick { 1 } else { 5 };
    let mut rec = BenchRecord::new("cycles", reps, quick).with("cycles", cycles);
    // sweep serial, two workers, half the machine and the whole machine —
    // the points that show whether the engine scales and where it
    // saturates. Two workers are always measured even on a single-core
    // box: oversubscription is bitwise identical by the determinism
    // contract, and the row pins the multi-worker path everywhere.
    let half = (rec.nproc / 2).max(1);
    let mut sweep = vec![1usize, 2, half, rec.nproc];
    sweep.sort_unstable();
    sweep.dedup();
    for threads in sweep {
        let ns = best_of(reps, || {
            let mut m = mapped.clone();
            evaluate_cycles(
                &mut m,
                Some((&x, &labels)),
                &x,
                &labels,
                &CycleEvalConfig {
                    cycles,
                    seed: 7,
                    pwt: PwtConfig { epochs: 1, ..Default::default() },
                    batch_size: 64,
                    threads,
                },
            )
            .expect("evaluate_cycles");
        });
        eprintln!("[cycles] threads={threads}: {:.3} ms", ms(ns));
        let row = BenchRow::new("pwt_mlp_16x32x2", format!("threads={threads}"), ns);
        rec.rows.push(if threads == 1 { row } else { row.vs("threads=1") });
    }
    Ok(rec)
}

fn vawo_report(quick: bool) -> Result<BenchRecord> {
    // The canonical mapped-layer shape of the §IV sweeps: one 128×128
    // weight matrix, complemented formulations enabled (the VAWO* upper
    // bound on search cost).
    let sigma = 0.5;
    let (rows, cols) = (128usize, 128usize);
    let ntw = Tensor::from_fn(&[rows, cols], |i| ((i * 37) % 256) as f32);
    let g2 = Tensor::from_fn(&[rows, cols], |i| 1e-4 * (1.0 + (i % 7) as f32));
    let reps = if quick { 1 } else { 5 };
    let mut rec =
        BenchRecord::new("vawo", reps, quick).with("complement", true).with("sigma", sigma);
    let threads = rec.threads;

    for m in [16usize, 64, 128] {
        let cfg = OffsetConfig::paper(CellKind::Slc, sigma, m).map_err(BenchError::from)?;
        let lut = DeviceLut::analytic(&VariationModel::per_weight(sigma), &cfg.codec)?;
        let layout = GroupLayout::new(rows, cols, &cfg).map_err(BenchError::from)?;
        let search = |t: usize| {
            best_of(reps, || {
                black_box(
                    optimize_matrix(&ntw, &g2, &layout, &lut, &cfg, true, t)
                        .expect("consistent shapes"),
                );
            })
        };
        let (serial_ns, threaded_ns) = (search(1), search(threads));
        eprintln!(
            "[vawo] 128x128 m={m}: serial {:.3} ms, threaded({threads}) {:.3} ms ({:.2}x)",
            ms(serial_ns),
            ms(threaded_ns),
            serial_ns as f64 / threaded_ns as f64,
        );
        let case = format!("128x128_m{m}");
        rec.rows.push(BenchRow::new(&case, "serial", serial_ns));
        rec.rows.push(BenchRow::new(case, "threaded", threaded_ns).vs("serial"));
    }
    Ok(rec)
}

fn program_report(reps: usize, quick: bool) -> Result<BenchRecord> {
    // Every zoo member's shipped bulk path on the same 128×128 CTW block
    // at the sweep's central σ, for SLC and 2-bit MLC cells.
    let ctw = Tensor::from_fn(&[128, 128], |i| ((i * 53) % 256) as f32);
    let sigma = 0.5;
    let mut rec =
        BenchRecord::new("program", reps, quick).with("shape", "128x128").with("sigma", sigma);
    for spec in DeviceModelSpec::all() {
        let model = spec.build(sigma);
        for cell in [CellKind::Slc, CellKind::Mlc2] {
            let codec = WeightCodec::paper(CellTechnology::paper(cell));
            let mut rng = seeded_rng(7);
            let ns = best_of(reps, || {
                black_box(program_matrix(&ctw, &codec, &*model, &mut rng).expect("in range"));
            });
            let variant = format!("{cell:?}").to_lowercase();
            eprintln!("[program] {} {variant}: {:.3} ms", model.name(), ms(ns));
            rec.rows.push(BenchRow::new(model.name(), variant, ns));
        }
    }
    Ok(rec)
}

fn pwt_report(quick: bool) -> Result<BenchRecord> {
    // Three networks tuned by the shipped path. No pre-training: PWT only
    // reads gradients, so random weights time identically.
    //
    // The 128×128-scale MLP stack runs at a small batch, so the per-batch
    // refresh overhead (what the scratch arena and the in-place refresh
    // remove) is the dominant term rather than the GEMMs.
    let reps = if quick { 1 } else { 5 };
    let mut rec = BenchRecord::new("pwt", reps, quick)
        .with("cell", "slc")
        .with("sigma", 0.5)
        .with("m", 16usize);
    let mut rng = seeded_rng(11);
    let n = if quick { 48 } else { 96 };
    let x = randn(&[n, 128], 0.0, 1.0, &mut rng);
    let labels: Vec<usize> = (0..n).map(|i| (i * 7) % 10).collect();
    let mut net = Sequential::new();
    net.push(Linear::new(128, 128, &mut rng));
    net.push(Relu::new());
    net.push(Linear::new(128, 128, &mut rng));
    net.push(Relu::new());
    net.push(Linear::new(128, 128, &mut rng));
    net.push(Relu::new());
    net.push(Linear::new(128, 10, &mut rng));
    let mlp_cfg = PwtConfig {
        epochs: if quick { 1 } else { 2 },
        batch_size: 4,
        seed: 3,
        ..Default::default()
    };
    rec.rows.push(time_pwt("mlp_128x128x3+10", &net, &x, &labels, &mlp_cfg, reps)?);

    // The paper's LeNet on 28×28 images at the benchmark batch size: the
    // conv layers, where PWT's backward pass dominates (conv1 takes the
    // direct path, conv2 the lowered one).
    let lenet = LeNetConfig::classic().build(&mut rng)?;
    let n = if quick { 32 } else { 64 };
    let x = rand_uniform(&[n, 1, 28, 28], 0.0, 1.0, &mut rng);
    let labels: Vec<usize> = (0..n).map(|i| (i * 7) % 10).collect();
    let conv_cfg = PwtConfig { epochs: if quick { 1 } else { 2 }, seed: 3, ..Default::default() };
    rec.rows.push(time_pwt("lenet", &lenet, &x, &labels, &conv_cfg, reps)?);

    // ResNet-18 at base width 8 on 16×16 RGB images, the benchmark's
    // conv network: BatchNorm, and stride-1 convs whose dX runs on the
    // windows path
    let resnet = ResNetConfig::resnet18_scaled(8).build(&mut rng)?;
    let x = rand_uniform(&[n, 3, 16, 16], 0.0, 1.0, &mut rng);
    rec.rows.push(time_pwt("resnet18w8", &resnet, &x, &labels, &conv_cfg, reps)?);
    Ok(rec)
}

/// Times the shipped [`tune_with_scratch`] on `net` mapped at SLC,
/// σ = 0.5, m = 16, as one absolute row whose case names the stack,
/// sample count, batch size and epochs.
fn time_pwt(
    stack: &str,
    net: &Sequential,
    x: &Tensor,
    labels: &[usize],
    pwt_cfg: &PwtConfig,
    reps: usize,
) -> Result<BenchRow> {
    let sigma = 0.5;
    let cfg = OffsetConfig::paper(CellKind::Slc, sigma, 16).map_err(BenchError::from)?;
    let lut = DeviceLut::analytic(&VariationModel::per_weight(sigma), &cfg.codec)?;
    let mut mapped = MappedNetwork::map(net, Method::Pwt, &cfg, &lut, None)?;
    mapped.program(&mut seeded_rng(5))?;

    // `tune*` re-initializes the offsets from the CRWs on entry, so
    // repeated calls on the same mapped network time identical work
    let mut scratch = PwtScratch::new();
    let ns = best_of(reps, || {
        black_box(tune_with_scratch(&mut mapped, x, labels, pwt_cfg, &mut scratch).expect("tune"));
    });
    let (samples, batch, epochs) = (labels.len(), pwt_cfg.batch_size, pwt_cfg.epochs);
    eprintln!("[pwt] {stack}, {samples} samples, batch {batch}: {:.3} ms", ms(ns));
    Ok(BenchRow::new(format!("{stack}_n{samples}_b{batch}_e{epochs}"), "tune", ns))
}

fn sweep_report(quick: bool) -> Result<BenchRecord> {
    // End-to-end Fig. 5-style grids through the real `run_grid` engine on
    // a synthetic trained model (the cycles_report MLP behind a Flatten so
    // the dataset is honest rank-4 NCHW), at growing point counts, on the
    // persistent worker pool.
    let mut rng = seeded_rng(31);
    let n = 256usize;
    let x4 = randn(&[n, 1, 4, 4], 0.0, 1.0, &mut rng);
    let labels: Vec<usize> =
        (0..n).map(|i| usize::from(x4.data()[i * 16] + x4.data()[i * 16 + 2] > 0.0)).collect();
    let mut net = Sequential::new();
    net.push(Flatten::new());
    net.push(Linear::new(16, 32, &mut rng));
    net.push(Relu::new());
    net.push(Linear::new(32, 2, &mut rng));
    fit(&mut net, &x4, &labels, &TrainConfig { epochs: 10, lr: 0.1, ..Default::default() })?;
    let ideal = evaluate(&mut net, &x4, &labels, 64)?;
    let dataset = Dataset::new(x4, labels, 2)?;
    let model = TrainedModel {
        name: "SweepMlp".to_string(),
        net,
        train: dataset.clone(),
        test: dataset,
        ideal_accuracy: ideal,
        // Plain/Pwt points only, so no VAWO gradients are needed
        grads: Vec::new(),
        train_time: Duration::ZERO,
    };

    let master = GridSpec::product(
        &[Method::Plain, Method::Pwt],
        &[CellKind::Slc],
        &[0.3, 0.5, 0.7, 0.9],
        &[16],
    );
    let sizes: &[usize] = if quick { &[2, 4] } else { &[2, 4, 8] };
    let cycles = if quick { 2 } else { 4 };
    let reps = if quick { 1 } else { 3 };
    // at least two grid workers, even on a single-core box: the point of
    // the measurement is the pooled grid, and oversubscribed workers are
    // bitwise identical by the determinism contract
    let grid_threads = available_threads().max(2);
    let cfg =
        BenchConfig::builder().cycles(cycles).pwt_epochs(1).seed(7).threads(grid_threads).build();

    // one untimed grid starts the worker pool and touches the buffers, so
    // no timed grid pays those one-time costs
    run_grid(&model, master.points(), &cfg)?;

    let mut rows = Vec::new();
    for &size in sizes {
        let points = &master.points()[..size];
        let pool_ns = best_of(reps, || {
            black_box(run_grid(&model, points, &cfg).expect("run_grid"));
        });
        eprintln!("[sweep] grid {size} points: pool {:.3} ms", ms(pool_ns));
        rows.push(BenchRow::new("grid", format!("points={size}"), pool_ns));
    }

    // Cycle-batched evaluation: pack the eval panels once and reuse them
    // every cycle, versus repacking per cycle, versus the plain per-cycle
    // path (which re-packs A panels inside every GEMM call).
    let x2 = randn(&[n, 16], 0.0, 1.0, &mut rng);
    let labels2: Vec<usize> =
        (0..n).map(|i| usize::from(x2.data()[i * 16] + x2.data()[i * 16 + 2] > 0.0)).collect();
    let mut mlp = Sequential::new();
    mlp.push(Linear::new(16, 32, &mut rng));
    mlp.push(Relu::new());
    mlp.push(Linear::new(32, 2, &mut rng));
    fit(&mut mlp, &x2, &labels2, &TrainConfig { epochs: 5, lr: 0.1, ..Default::default() })?;
    let eval_cycles = if quick { 4 } else { 16 };
    let packed = PackedDataset::pack(&x2, 64).expect("rank-2 dataset packs");
    let packed_ns = best_of(reps, || {
        for _ in 0..eval_cycles {
            black_box(evaluate_packed(&mut mlp, &packed, &labels2).expect("evaluate_packed"));
        }
    });
    let repacked_ns = best_of(reps, || {
        for _ in 0..eval_cycles {
            let p = PackedDataset::pack(&x2, 64).expect("rank-2 dataset packs");
            black_box(evaluate_packed(&mut mlp, &p, &labels2).expect("evaluate_packed"));
        }
    });
    let plain_ns = best_of(reps, || {
        for _ in 0..eval_cycles {
            black_box(evaluate(&mut mlp, &x2, &labels2, 64).expect("evaluate"));
        }
    });
    eprintln!(
        "[sweep] eval x{eval_cycles} cycles: packed {:.3} ms, repacked {:.3} ms, plain {:.3} ms \
         ({:.2}x vs plain)",
        ms(packed_ns),
        ms(repacked_ns),
        ms(plain_ns),
        plain_ns as f64 / packed_ns as f64,
    );
    let case = format!("eval_x{eval_cycles}");
    rows.push(BenchRow::new(&case, "plain", plain_ns));
    rows.push(BenchRow::new(&case, "repacked", repacked_ns).vs("plain"));
    rows.push(BenchRow::new(case, "packed", packed_ns).vs("plain"));

    let ps = rdo_tensor::pool::stats();
    check_pool_engaged(ps.pooled_jobs)?;
    let mut rec = BenchRecord::new("sweep", reps, quick)
        .with("cycles", cycles)
        .with("grid_threads", grid_threads)
        .with("pooled_jobs", ps.pooled_jobs)
        .with("nested_serial", ps.nested_serial)
        .with("threads_spawned", ps.threads_spawned);
    rec.rows = rows;
    Ok(rec)
}

/// Fails when the sweep grids never ran a job on the persistent pool.
fn check_pool_engaged(pooled_jobs: u64) -> Result<()> {
    if pooled_jobs == 0 {
        return Err(BenchError::Check("sweep: the worker pool never engaged".to_string()));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sweep_that_never_pools_fails_the_gate() {
        assert!(check_pool_engaged(1).is_ok());
        assert!(matches!(check_pool_engaged(0), Err(BenchError::Check(m)) if m.contains("never")));
    }
}
