//! The paper's evaluation harness: repeat each experiment over several
//! programming cycles (cycle-to-cycle variation gives fresh CRWs each
//! time) and report the average accuracy (§IV: "each experiment is
//! repeated 5 times with different CRWs each time and the average result
//! is reported").
//!
//! Cycles are mutually independent by construction — cycle `c` programs
//! from a fresh `seed + c` RNG and PWT reseeds with `seed + 1000 + c` — so
//! [`evaluate_cycles`] runs them on the persistent worker pool (via
//! [`parallel_map_indexed`]) when [`CycleEvalConfig::threads`] (or the
//! `RDO_THREADS` environment knob) allows. Each worker clones the mapped
//! network once and executes exactly the serial per-cycle code, so
//! `per_cycle` is bitwise identical for any thread count.
//!
//! Each worker keeps one arena across the cycles it runs: a PWT scratch
//! and an effective-network clone that it refreshes in place via
//! [`MappedNetwork::refresh_effective_arena`] instead of rebuilding it in
//! `effective_network()` every cycle. The reuse is bitwise-neutral.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use rdo_nn::{evaluate, Sequential};
use rdo_tensor::parallel::{parallel_map_indexed, resolve_threads};
use rdo_tensor::rng::seeded_rng;
use rdo_tensor::Tensor;

use crate::error::Result;
use crate::mapping::MappedNetwork;
use crate::pwt::{tune_with_scratch, PwtConfig};
use crate::scratch::PwtScratch;

/// Configuration of a multi-cycle evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CycleEvalConfig {
    /// Number of programming cycles to average over (the paper uses 5).
    pub cycles: usize,
    /// Base RNG seed; cycle `c` uses `seed + c`.
    pub seed: u64,
    /// PWT hyper-parameters, applied after each programming when the
    /// mapped network's method uses PWT.
    pub pwt: PwtConfig,
    /// Evaluation batch size.
    pub batch_size: usize,
    /// Worker threads for the cycle loop: `0` (the default) defers to the
    /// `RDO_THREADS` environment knob / available parallelism, `1` forces
    /// the serial path, `N` caps the workers at `N`. Results are identical
    /// for every setting.
    pub threads: usize,
}

impl Default for CycleEvalConfig {
    fn default() -> Self {
        CycleEvalConfig {
            cycles: 5,
            seed: 0,
            pwt: PwtConfig::default(),
            batch_size: 64,
            threads: 0,
        }
    }
}

/// Accuracies across programming cycles.
#[derive(Debug, Clone, PartialEq)]
pub struct CycleEvaluation {
    /// Test accuracy of each cycle.
    pub per_cycle: Vec<f32>,
    /// Mean accuracy (the number the paper plots).
    pub mean: f32,
    /// Sample standard deviation across cycles.
    pub std: f32,
}

impl CycleEvaluation {
    /// The evaluation of `per_cycle`: its mean and its sample standard
    /// deviation (0 for fewer than two cycles).
    pub fn from_cycles(per_cycle: Vec<f32>) -> Self {
        let n = per_cycle.len().max(1) as f32;
        let mean = per_cycle.iter().sum::<f32>() / n;
        let var = if per_cycle.len() > 1 {
            per_cycle.iter().map(|a| (a - mean).powi(2)).sum::<f32>() / (n - 1.0)
        } else {
            0.0
        };
        CycleEvaluation { per_cycle, mean, std: var.sqrt() }
    }
}

/// Runs the full §IV protocol on a mapped network: per cycle, program the
/// devices, optionally run PWT on the tuning set, and measure test
/// accuracy.
///
/// `tune_data` is the training set used for PWT (and ignored for methods
/// without PWT).
///
/// # Errors
///
/// Propagates programming, tuning and evaluation errors; returns an
/// invalid-config error when `cfg.cycles` is zero, or when the method
/// needs PWT but `tune_data` is `None`.
pub fn evaluate_cycles(
    mapped: &mut MappedNetwork,
    tune_data: Option<(&Tensor, &[usize])>,
    test_images: &Tensor,
    test_labels: &[usize],
    cfg: &CycleEvalConfig,
) -> Result<CycleEvaluation> {
    let _span = rdo_obs::span("core.eval_cycles");
    if cfg.cycles == 0 {
        return Err(crate::error::CoreError::InvalidConfig(
            "cycles must be positive: zero cycles measure nothing".to_string(),
        ));
    }
    if mapped.method().uses_pwt() && tune_data.is_none() {
        return Err(crate::error::CoreError::InvalidConfig(format!(
            "method {} requires tuning data for PWT",
            mapped.method()
        )));
    }
    let threads = resolve_threads(cfg.threads).min(cfg.cycles);
    if threads <= 1 {
        let mut per_cycle = Vec::with_capacity(cfg.cycles);
        // one arena set for the whole run: PWT rebinds the scratch per
        // cycle and the effective network is refreshed in place,
        // recycling the buffers instead of re-warming fresh pools
        let mut arenas = CycleArenas::new();
        for c in 0..cfg.cycles {
            per_cycle.push(run_cycle(
                mapped,
                c,
                tune_data,
                test_images,
                test_labels,
                cfg,
                &mut arenas,
            )?);
        }
        return Ok(CycleEvaluation::from_cycles(per_cycle));
    }

    // Parallel path: each worker pulls cycle indices from an atomic
    // cursor, clones the mapped network once and runs the identical
    // per-cycle code on it (`run_cycle` re-programs and re-tunes from
    // cycle-seeded RNGs, so prior cycles leave no trace — the same
    // property the serial loop relies on when it reuses `mapped`). The
    // worker state that executed the final cycle is written back so the
    // caller observes the same end state as after the serial loop.
    let shared: &MappedNetwork = mapped;
    let next = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    type CycleBatch = (Vec<(usize, f32)>, Option<MappedNetwork>);
    let worker_results: Vec<Result<CycleBatch>> =
        parallel_map_indexed(threads, threads, |_t| -> Result<CycleBatch> {
            let mut accs = Vec::new();
            let mut ran_final = false;
            // per-worker arenas and mapped-network clone, reused across
            // all cycles this worker claims
            let mut arenas = CycleArenas::new();
            let mut local: Option<MappedNetwork> = None;
            loop {
                let c = next.fetch_add(1, Ordering::Relaxed);
                if c >= cfg.cycles || failed.load(Ordering::Relaxed) {
                    break;
                }
                let local = local.get_or_insert_with(|| shared.clone());
                let acc = match run_cycle(
                    local,
                    c,
                    tune_data,
                    test_images,
                    test_labels,
                    cfg,
                    &mut arenas,
                ) {
                    Ok(a) => a,
                    Err(e) => {
                        failed.store(true, Ordering::Relaxed);
                        return Err(e);
                    }
                };
                accs.push((c, acc));
                if c == cfg.cycles - 1 {
                    ran_final = true;
                }
            }
            // the final cycle has the highest index, so no further cycle
            // ran on this worker's state after it
            Ok((accs, if ran_final { local } else { None }))
        });

    let mut per_cycle = vec![0.0f32; cfg.cycles];
    let mut final_state = None;
    for result in worker_results {
        let (accs, last) = result?;
        for (c, acc) in accs {
            per_cycle[c] = acc;
        }
        if last.is_some() {
            final_state = last;
        }
    }
    if let Some(state) = final_state {
        *mapped = state;
    }
    Ok(CycleEvaluation::from_cycles(per_cycle))
}

/// Per-worker reusable state of the cycle loop: the PWT scratch arena and
/// the persistent effective-network clone ([`run_cycle`] builds it on the
/// first cycle and refreshes it in place afterwards).
struct CycleArenas {
    scratch: PwtScratch,
    net: Option<Sequential>,
}

impl CycleArenas {
    fn new() -> Self {
        CycleArenas { scratch: PwtScratch::new(), net: None }
    }
}

/// One §IV cycle: program with the cycle seed, run PWT when the method
/// uses it, and measure test accuracy — shared verbatim by the serial and
/// parallel paths of [`evaluate_cycles`].
fn run_cycle(
    mapped: &mut MappedNetwork,
    c: usize,
    tune_data: Option<(&Tensor, &[usize])>,
    test_images: &Tensor,
    test_labels: &[usize],
    cfg: &CycleEvalConfig,
    arenas: &mut CycleArenas,
) -> Result<f32> {
    let _span = rdo_obs::span("core.cycle");
    let mut rng = seeded_rng(cfg.seed.wrapping_add(c as u64));
    mapped.program(&mut rng)?;
    if mapped.method().uses_pwt() {
        let (xs, ys) = tune_data.expect("validated by evaluate_cycles");
        let mut pwt_cfg = cfg.pwt;
        pwt_cfg.seed = cfg.seed.wrapping_add(1000 + c as u64);
        tune_with_scratch(mapped, xs, ys, &pwt_cfg, &mut arenas.scratch)?;
    }
    let net = match arenas.net.as_mut() {
        Some(net) => {
            // in-place refresh of the persistent clone — bitwise equal
            // to a fresh effective_network() without the allocations
            mapped.refresh_effective_arena(net)?;
            net
        }
        None => arenas.net.insert(mapped.effective_network()?),
    };
    let _eval = rdo_obs::span("core.eval");
    Ok(evaluate(net, test_images, test_labels, cfg.batch_size)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Method, OffsetConfig};
    use crate::gradient::mean_core_gradients;
    use crate::mapping::MappedNetwork;
    use crate::testutil::trained_problem_2class as trained_problem;
    use rdo_rram::{CellKind, DeviceLut, VariationModel};

    #[test]
    fn cycle_statistics_are_computed() {
        let e = CycleEvaluation::from_cycles(vec![0.8, 0.9, 1.0]);
        assert!((e.mean - 0.9).abs() < 1e-6);
        assert!(e.std > 0.0);
        assert_eq!(e.per_cycle.len(), 3);
    }

    #[test]
    fn full_protocol_runs_and_pwt_beats_plain() {
        let (net, x, labels) = trained_problem();
        let cfg = OffsetConfig::paper(CellKind::Slc, 0.5, 16).unwrap();
        let lut = DeviceLut::analytic(&VariationModel::per_weight(0.5), &cfg.codec).unwrap();

        let eval_cfg = CycleEvalConfig { cycles: 3, ..Default::default() };
        let mut plain = MappedNetwork::map(&net, Method::Plain, &cfg, &lut, None).unwrap();
        let plain_eval = evaluate_cycles(&mut plain, None, &x, &labels, &eval_cfg).unwrap();

        let mut pwt = MappedNetwork::map(&net, Method::Pwt, &cfg, &lut, None).unwrap();
        let pwt_eval =
            evaluate_cycles(&mut pwt, Some((&x, &labels)), &x, &labels, &eval_cfg).unwrap();

        assert_eq!(plain_eval.per_cycle.len(), 3);
        assert!(
            pwt_eval.mean >= plain_eval.mean - 0.02,
            "PWT {} vs plain {}",
            pwt_eval.mean,
            plain_eval.mean
        );
    }

    #[test]
    fn combined_method_runs_end_to_end() {
        let (mut net, x, labels) = trained_problem();
        let cfg = OffsetConfig::paper(CellKind::Slc, 0.5, 16).unwrap();
        let lut = DeviceLut::analytic(&VariationModel::per_weight(0.5), &cfg.codec).unwrap();
        let grads = mean_core_gradients(&mut net, &x, &labels, 64).unwrap();
        let mut full =
            MappedNetwork::map(&net, Method::VawoStarPwt, &cfg, &lut, Some(&grads)).unwrap();
        let e = evaluate_cycles(
            &mut full,
            Some((&x, &labels)),
            &x,
            &labels,
            &CycleEvalConfig { cycles: 2, ..Default::default() },
        )
        .unwrap();
        assert_eq!(e.per_cycle.len(), 2);
        assert!(e.mean > 0.5, "combined method below chance: {}", e.mean);
    }

    #[test]
    fn pwt_without_tune_data_rejected() {
        let (net, x, labels) = trained_problem();
        let cfg = OffsetConfig::paper(CellKind::Slc, 0.5, 16).unwrap();
        let lut = DeviceLut::analytic(&VariationModel::per_weight(0.5), &cfg.codec).unwrap();
        let mut pwt = MappedNetwork::map(&net, Method::Pwt, &cfg, &lut, None).unwrap();
        assert!(evaluate_cycles(&mut pwt, None, &x, &labels, &CycleEvalConfig::default()).is_err());
    }

    #[test]
    fn zero_cycles_rejected() {
        let (net, x, labels) = trained_problem();
        let cfg = OffsetConfig::paper(CellKind::Slc, 0.5, 16).unwrap();
        let lut = DeviceLut::analytic(&VariationModel::per_weight(0.5), &cfg.codec).unwrap();
        let mut plain = MappedNetwork::map(&net, Method::Plain, &cfg, &lut, None).unwrap();
        let zero = CycleEvalConfig { cycles: 0, ..Default::default() };
        let err = evaluate_cycles(&mut plain, None, &x, &labels, &zero).unwrap_err();
        assert!(matches!(err, crate::error::CoreError::InvalidConfig(_)), "{err:?}");
    }
}
