//! Load-generation harness: saturation throughput, open-loop latency,
//! and the serial bitwise reference.
//!
//! Three measurements, which the `perf_report` binary runs for its
//! `BENCH_serve` record:
//!
//! - [`run_saturation`] — submits a fixed request count as fast as the
//!   engine's backpressure admits and measures sustained throughput.
//!   Comparing a `max_batch = 1` engine against a dynamically batched
//!   one on the same snapshot isolates exactly what batching buys.
//! - [`run_open_loop`] — replays a seeded Poisson arrival schedule at a
//!   target QPS and records per-request latency *against the schedule*
//!   (so queueing delay from falling behind is charged, not silently
//!   dropped — no coordinated omission), keeping every raw latency so
//!   [`rdo_obs::nearest_rank`] gives exact quantiles.
//! - [`serial_reference`] — evaluates the same payloads one request at a
//!   time through the public single-request path; [`bitwise_equal`]
//!   pins the service's coalescing invariance against it.

use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::Instant;

use crate::engine::{ServeConfig, ServeEngine, ServeStats};
use crate::snapshot::ModelSnapshot;
use crate::traffic::{arrival_offsets, SyntheticTraffic};
use crate::Result;

/// Result of a [`run_saturation`] measurement.
#[derive(Debug)]
pub struct SaturationReport {
    /// Requests served.
    pub requests: usize,
    /// Wall clock from first submission to last response, nanoseconds.
    pub wall_ns: u128,
    /// Sustained throughput, requests per second.
    pub rps: f64,
    /// Folded engine statistics (batch counts and sizes).
    pub stats: ServeStats,
    /// Per-request logits, in request order (for the bitwise pin).
    pub outputs: Vec<Vec<f32>>,
}

/// Serves `requests` synthetic payloads as fast as backpressure admits.
///
/// # Errors
///
/// Propagates submission/serving failures.
pub fn run_saturation(
    snapshot: &Arc<ModelSnapshot>,
    config: ServeConfig,
    traffic: &SyntheticTraffic,
    requests: usize,
) -> Result<SaturationReport> {
    let payloads: Vec<Vec<f32>> = (0..requests as u64).map(|i| traffic.payload(i)).collect();
    let engine = ServeEngine::start(Arc::clone(snapshot), config);
    let client = engine.client();
    let start = Instant::now();
    // one submitter thread keeps the queue fed while this thread collects,
    // so backpressure (a full queue) never deadlocks against collection
    let (tx, rx) = mpsc::channel();
    let submitter = thread::spawn(move || -> Result<()> {
        for payload in payloads {
            let pending = client.submit(payload)?;
            tx.send(pending).expect("collector outlives submitter");
        }
        Ok(())
    });
    let mut outputs = Vec::with_capacity(requests);
    for pending in rx {
        outputs.push(pending.wait()?.output);
    }
    let wall_ns = start.elapsed().as_nanos();
    submitter.join().expect("submitter must not panic")?;
    let stats = engine.shutdown();
    let rps = if wall_ns == 0 { 0.0 } else { outputs.len() as f64 / (wall_ns as f64 / 1e9) };
    Ok(SaturationReport { requests: outputs.len(), wall_ns, rps, stats, outputs })
}

/// Result of a [`run_open_loop`] measurement.
#[derive(Debug)]
pub struct OpenLoopReport {
    /// Requests completed.
    pub requests: usize,
    /// The arrival rate the schedule targeted, requests per second.
    pub target_qps: f64,
    /// Completions per second of schedule span actually achieved.
    pub achieved_rps: f64,
    /// Per-request latency (scheduled arrival → response routed),
    /// nanoseconds, in completion order.
    pub latency_ns: Vec<u64>,
    /// Folded engine statistics.
    pub stats: ServeStats,
}

/// Replays a seeded Poisson schedule at `qps` and measures per-request
/// latency against it.
///
/// # Errors
///
/// Propagates submission/serving failures.
pub fn run_open_loop(
    snapshot: &Arc<ModelSnapshot>,
    config: ServeConfig,
    traffic: &SyntheticTraffic,
    requests: usize,
    qps: f64,
    seed: u64,
) -> Result<OpenLoopReport> {
    let offsets = arrival_offsets(requests, qps, seed);
    let payloads: Vec<Vec<f32>> = (0..requests as u64).map(|i| traffic.payload(i)).collect();
    let engine = ServeEngine::start(Arc::clone(snapshot), config);
    let client = engine.client();
    let (tx, rx) = mpsc::channel();
    let start = Instant::now();
    let submitter = thread::spawn(move || -> Result<()> {
        for (offset, payload) in offsets.into_iter().zip(payloads) {
            let target = start + offset;
            let now = Instant::now();
            if target > now {
                thread::sleep(target - now);
            }
            let pending = client.submit(payload)?;
            tx.send((offset, pending)).expect("collector outlives submitter");
        }
        Ok(())
    });
    let mut latency_ns = Vec::with_capacity(requests);
    let mut last_done = start;
    for (offset, pending) in rx {
        let response = pending.wait()?;
        let scheduled = start + offset;
        let ns = response.done_at.checked_duration_since(scheduled).unwrap_or_default();
        latency_ns.push(ns.as_nanos().min(u128::from(u64::MAX)) as u64);
        last_done = last_done.max(response.done_at);
    }
    submitter.join().expect("submitter must not panic")?;
    let stats = engine.shutdown();
    let span = last_done.duration_since(start).as_secs_f64();
    let completed = latency_ns.len();
    let achieved_rps = if span > 0.0 { completed as f64 / span } else { 0.0 };
    Ok(OpenLoopReport { requests: completed, target_qps: qps, achieved_rps, latency_ns, stats })
}

/// Evaluates the first `requests` payloads one at a time through the
/// public single-request path — the reference the service is pinned
/// against.
///
/// # Errors
///
/// Propagates forward-pass failures.
pub fn serial_reference(
    snapshot: &ModelSnapshot,
    traffic: &SyntheticTraffic,
    requests: usize,
) -> Result<Vec<Vec<f32>>> {
    let mut eval = snapshot.evaluator();
    (0..requests as u64).map(|i| eval.infer_one(&traffic.payload(i))).collect()
}

/// Whether two per-request output sets agree bit for bit.
pub fn bitwise_equal(a: &[Vec<f32>], b: &[Vec<f32>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdo_nn::{Linear, Relu, Sequential};
    use rdo_tensor::rng::seeded_rng;
    use std::time::Duration;

    fn snapshot() -> Arc<ModelSnapshot> {
        let mut rng = seeded_rng(21);
        let mut net = Sequential::new();
        net.push(Linear::new(12, 24, &mut rng));
        net.push(Relu::new());
        net.push(Linear::new(24, 5, &mut rng));
        Arc::new(ModelSnapshot::from_network("loadgen-mlp", net, &[12]).unwrap())
    }

    #[test]
    fn saturation_outputs_match_serial_reference_bitwise() {
        let snap = snapshot();
        let traffic = SyntheticTraffic::new(5, snap.sample_len());
        let n = 64;
        let batched = run_saturation(&snap, ServeConfig::default(), &traffic, n).unwrap();
        assert_eq!(batched.requests, n);
        assert!(batched.rps > 0.0);
        let reference = serial_reference(&snap, &traffic, n).unwrap();
        assert!(bitwise_equal(&batched.outputs, &reference));

        // and so does a non-batching engine: coalescing never changes bits
        let unbatched = ServeConfig { max_batch: 1, ..Default::default() };
        let single = run_saturation(&snap, unbatched, &traffic, n).unwrap();
        assert!(bitwise_equal(&single.outputs, &reference));
        assert_eq!(single.stats.max_batch, 1);
    }

    #[test]
    fn open_loop_records_every_request_exactly() {
        let snap = snapshot();
        let traffic = SyntheticTraffic::new(9, snap.sample_len());
        let n = 200;
        let report = run_open_loop(
            &snap,
            ServeConfig { linger: Duration::from_micros(50), ..Default::default() },
            &traffic,
            n,
            50_000.0,
            1,
        )
        .unwrap();
        assert_eq!(report.requests, n);
        assert_eq!(report.latency_ns.len(), n);
        let qs = rdo_obs::nearest_rank(&report.latency_ns, &[0.5, 0.99]);
        assert!(qs[0] <= qs[1]);
        assert!(report.achieved_rps > 0.0);
    }

    #[test]
    fn bitwise_equal_detects_any_flip() {
        let a = vec![vec![1.0f32, 2.0], vec![3.0]];
        assert!(bitwise_equal(&a, &a.clone()));
        let mut b = a.clone();
        b[1][0] = 3.0000002;
        assert!(!bitwise_equal(&a, &b));
        assert!(!bitwise_equal(&a, &a[..1]));
    }
}
