//! The serving benchmark harness: builds the paper-shape snapshot,
//! drives the [`rdo_serve`] load generator, and assembles the
//! `BENCH_serve.json` record.
//!
//! `perf_report` runs it for the `BENCH_serve` record. Three
//! measurements make up the record:
//!
//! 1. **saturation, `max_batch = 1`** — the no-batching baseline;
//! 2. **saturation, dynamic batching** — same snapshot, same traffic;
//!    the throughput ratio is what coalescing buys at the paper shape;
//! 3. **open loop** at a target QPS — per-request latency against a
//!    seeded Poisson schedule, with exact p50/p99/p99.9 from a
//!    request-count-sized [`rdo_obs::QuantileRecorder`].
//!
//! Every run also pins correctness: the batched and unbatched outputs
//! are compared bitwise against the serial per-request reference, and the
//! latency quantiles must be monotone (p50 ≤ p99 ≤ p99.9 ≤ max); the
//! report fails loudly on any violation.

use std::sync::Arc;
use std::time::Duration;

use rdo_core::{MappedNetwork, Method, OffsetConfig};
use rdo_nn::{Linear, Relu, Sequential};
use rdo_rram::CellKind;
use rdo_serve::{
    bitwise_equal, run_open_loop, run_saturation, serial_reference, ModelSnapshot, ServeConfig,
    SyntheticTraffic,
};
use rdo_tensor::rng::seeded_rng;

use crate::record::{BenchRecord, BenchRow};
use crate::{shared_lut, BenchError, Result};

/// One serving benchmark run: the *load* description (request count,
/// target QPS, seed) plus the engine configuration, a first-class
/// [`ServeConfig`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeBenchConfig {
    /// Requests per saturation measurement.
    pub requests: usize,
    /// Open-loop target arrival rate.
    pub qps: f64,
    /// Dynamic-batching engine configuration.
    pub serve: ServeConfig,
    /// Base seed for snapshot programming and traffic.
    pub seed: u64,
    /// Smoke mode: fewer requests, CI-friendly wall clock.
    pub quick: bool,
}

impl ServeBenchConfig {
    /// Defaults for one mode: the full run sizes the measurement for a
    /// stable throughput estimate, quick mode keeps CI under a second.
    pub fn defaults(quick: bool) -> Self {
        ServeBenchConfig {
            requests: if quick { 2_000 } else { 40_000 },
            qps: if quick { 10_000.0 } else { 20_000.0 },
            serve: ServeConfig::default(),
            seed: 0,
            quick,
        }
    }
}

/// Builds the paper-shape serving snapshot: a 128-wide MLP stack — the
/// 128×128 crossbar shape every `BENCH_*` kernel record uses — mapped
/// with PWT offsets at SLC σ=0.5, m=16, programmed for one CRW cycle at
/// `seed`, served through its effective network. Equal seeds build
/// bitwise-identical snapshots.
///
/// # Errors
///
/// Propagates mapping/programming errors.
pub fn paper_shape_snapshot(seed: u64) -> Result<Arc<ModelSnapshot>> {
    let mut rng = seeded_rng(seed.wrapping_add(41));
    let mut net = Sequential::new();
    net.push(Linear::new(128, 128, &mut rng));
    net.push(Relu::new());
    net.push(Linear::new(128, 128, &mut rng));
    net.push(Relu::new());
    net.push(Linear::new(128, 10, &mut rng));
    let sigma = 0.5;
    let cfg = OffsetConfig::paper(CellKind::Slc, sigma, 16)?;
    let lut = shared_lut(CellKind::Slc, sigma)?;
    let mut mapped = MappedNetwork::map(&net, Method::Pwt, &cfg, &lut, None)?;
    mapped.program(&mut seeded_rng(seed.wrapping_add(42)))?;
    Ok(Arc::new(ModelSnapshot::from_mapped("mlp128/pwt/slc_s0.5_m16", &mapped, &[128])?))
}

/// Fails unless the `(label, ns)` latency quantiles are non-decreasing.
fn check_quantiles(quantiles: &[(&str, u64)]) -> Result<()> {
    for w in quantiles.windows(2) {
        let ((lo, lo_ns), (hi, hi_ns)) = (w[0], w[1]);
        if lo_ns > hi_ns {
            return Err(BenchError::Check(format!(
                "serve: latency {lo} = {lo_ns} ns exceeds {hi} = {hi_ns} ns"
            )));
        }
    }
    Ok(())
}

/// Runs the three serving measurements and assembles the `BENCH_serve`
/// record: saturation wall time at batch 1 and with dynamic batching
/// (the speedup row), and the open-loop latency quantiles.
///
/// # Errors
///
/// Fails on any engine error and — deliberately — when the batched or
/// unbatched outputs are not bitwise identical to the serial reference,
/// or the latency quantiles are not monotone.
pub fn serve_report(cfg: &ServeBenchConfig) -> Result<BenchRecord> {
    let snapshot = paper_shape_snapshot(cfg.seed)?;
    let traffic = SyntheticTraffic::new(cfg.seed.wrapping_add(1), snapshot.sample_len());
    let dynamic_cfg = cfg.serve;
    let batch1_cfg = ServeConfig { max_batch: 1, linger: Duration::ZERO, ..dynamic_cfg };

    // correctness first: the serial reference is O(requests) single
    // forwards, so pin a prefix large enough to cover many batches
    let pinned = cfg.requests.min(512);
    let reference = serial_reference(&snapshot, &traffic, pinned)?;

    let dynamic = run_saturation(&snapshot, dynamic_cfg, &traffic, cfg.requests)?;
    if !bitwise_equal(&dynamic.outputs[..pinned], &reference) {
        return Err(BenchError::Check(
            "serve: batched outputs diverge bitwise from the serial reference".to_string(),
        ));
    }
    let batch1 = run_saturation(&snapshot, batch1_cfg, &traffic, cfg.requests)?;
    if !bitwise_equal(&batch1.outputs[..pinned], &reference) {
        return Err(BenchError::Check(
            "serve: unbatched outputs diverge bitwise from the serial reference".to_string(),
        ));
    }
    let speedup = if batch1.rps > 0.0 { dynamic.rps / batch1.rps } else { 0.0 };
    eprintln!(
        "[serve] saturation {} requests: batch1 {:.0} rps, dynamic {:.0} rps ({speedup:.2}x), \
         mean batch {:.1}, max batch {}",
        cfg.requests,
        batch1.rps,
        dynamic.rps,
        dynamic.stats.mean_batch(),
        dynamic.stats.max_batch,
    );

    let open = run_open_loop(
        &snapshot,
        dynamic_cfg,
        &traffic,
        cfg.requests,
        cfg.qps,
        cfg.seed.wrapping_add(2),
    )?;
    let qs = open.latency.quantiles(&[0.5, 0.99, 0.999]);
    let quantiles =
        [("p50", qs[0]), ("p99", qs[1]), ("p999", qs[2]), ("max", open.latency.max().unwrap_or(0))];
    eprintln!(
        "[serve] open loop @ {:.0} qps: p50 {:.1} µs, p99 {:.1} µs, p99.9 {:.1} µs \
         (exact over {} samples), achieved {:.0} rps",
        open.target_qps,
        qs[0] as f64 / 1e3,
        qs[1] as f64 / 1e3,
        qs[2] as f64 / 1e3,
        open.latency.count(),
        open.achieved_rps,
    );
    check_quantiles(&quantiles)?;

    let mut rec = BenchRecord::new("serve", 1, cfg.quick)
        .with("model", snapshot.name())
        .with("stack", "128x128x2+10")
        .with("requests", cfg.requests)
        .with("max_batch", cfg.serve.max_batch)
        .with("linger_us", cfg.serve.linger.as_micros() as u64)
        .with("seed", cfg.seed)
        .with("pinned_requests", pinned)
        .with("dynamic_mean_batch", dynamic.stats.mean_batch())
        .with("dynamic_max_batch", dynamic.stats.max_batch)
        .with("target_qps", open.target_qps)
        .with("achieved_rps", open.achieved_rps)
        .with("exact_quantiles", open.latency.is_exact())
        .with("samples", open.latency.count());
    // the engine's workers are the threads every row ran on
    rec.threads = cfg.serve.workers;
    rec.rows.push(BenchRow::new("saturation", "batch1", batch1.wall_ns));
    rec.rows.push(BenchRow::new("saturation", "dynamic", dynamic.wall_ns).vs("batch1"));
    for (label, ns) in quantiles {
        rec.rows.push(BenchRow::new("open_loop_latency", label, u128::from(ns)));
    }
    let mean_ns = open.latency.mean().unwrap_or(0.0).round() as u128;
    rec.rows.push(BenchRow::new("open_loop_latency", "mean", mean_ns));
    Ok(rec)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_scale_with_quick() {
        let q = ServeBenchConfig::defaults(true);
        let f = ServeBenchConfig::defaults(false);
        assert!(q.requests < f.requests);
        assert!(q.quick && !f.quick);
        assert_eq!(q.serve.max_batch, 64);
        assert_eq!(f.serve.max_batch, 64);
        assert_eq!(f.serve.linger, Duration::from_micros(200));
    }

    /// Building the snapshot twice at one seed serves bitwise-identical
    /// logits on a fixed payload; another seed programs other CRWs.
    #[test]
    fn paper_shape_snapshot_is_deterministic_per_seed() {
        let payload: Vec<f32> = (0..128).map(|i| ((i * 37) % 17) as f32 / 17.0 - 0.4).collect();
        let logits = |seed: u64| {
            let snap = paper_shape_snapshot(seed).unwrap();
            assert_eq!((snap.sample_len(), snap.outputs()), (128, 10));
            snap.evaluator().infer_one(&payload).unwrap()
        };
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let a = logits(1234);
        assert_eq!(bits(&a), bits(&logits(1234)), "same seed must serve the same logits");
        assert_ne!(bits(&a), bits(&logits(1235)), "another seed must serve other logits");
    }

    #[test]
    fn serve_report_smoke_produces_valid_json_fields() {
        let cfg = ServeBenchConfig {
            requests: 256,
            qps: 20_000.0,
            serve: ServeConfig::builder()
                .max_batch(16)
                .linger(Duration::from_micros(100))
                .workers(1)
                .build(),
            seed: 7,
            quick: true,
        };
        let rec = serve_report(&cfg).unwrap();
        assert_eq!((rec.bench.as_str(), rec.threads), ("serve", 1));
        let variants: Vec<(&str, &str, Option<&str>)> = rec
            .rows
            .iter()
            .map(|r| (r.case.as_str(), r.variant.as_str(), r.baseline_variant.as_deref()))
            .collect();
        assert_eq!(
            variants,
            [
                ("saturation", "batch1", None),
                ("saturation", "dynamic", Some("batch1")),
                ("open_loop_latency", "p50", None),
                ("open_loop_latency", "p99", None),
                ("open_loop_latency", "p999", None),
                ("open_loop_latency", "max", None),
                ("open_loop_latency", "mean", None),
            ]
        );
        let json = rec.to_json().unwrap();
        for key in [
            "\"bench\": \"serve\"",
            "\"exact_quantiles\": true",
            "\"baseline_variant\": \"batch1\", \"speedup\": ",
        ] {
            assert!(json.contains(key), "report must contain {key}: {json}");
        }
    }

    #[test]
    fn non_monotone_quantiles_fail_the_gate() {
        assert!(check_quantiles(&[("p50", 1), ("p99", 1), ("p999", 5), ("max", 9)]).is_ok());
        match check_quantiles(&[("p50", 1), ("p99", 7), ("p999", 5), ("max", 9)]) {
            Err(BenchError::Check(msg)) => {
                assert!(msg.contains("p99 = 7 ns exceeds p999"), "{msg}")
            }
            other => panic!("expected a gate failure, got {other:?}"),
        }
    }
}
