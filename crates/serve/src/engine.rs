//! The serving engine: worker threads draining the request queue in
//! dynamically coalesced batches.
//!
//! One [`ServeEngine`] owns a bounded MPMC request queue and a pool of
//! worker threads. Clients ([`InferClient`]) submit single requests and
//! get a [`PendingResponse`]; each worker repeatedly drains a coalesced
//! batch ([`recv_many`](crate::sync::Receiver::recv_many) with the
//! configured max batch size and linger deadline), runs **one**
//! whole-batch forward through its private `SnapshotEvaluator`, and
//! routes the per-request logits back, each over the request's own
//! `std::sync::mpsc` reply channel.
//!
//! The request lifecycle is instrumented through [`rdo_obs`]:
//! `serve.enqueue` counts submissions, `serve.queue.depth_hwm` tracks the
//! queue's high-water mark, every worker iteration runs under a
//! `serve.batch` span with the forward itself under a nested
//! `serve.forward` span, and `serve.batch_size` is a histogram of
//! coalesced batch sizes.

use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use crate::snapshot::{ModelSnapshot, SnapshotCell};
use crate::sync::{channel, Sender};
use crate::{Result, ServeError};

/// Engine tuning knobs.
///
/// Build one with [`ServeConfig::builder()`]; the struct's fields stay
/// public for struct-literal call sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeConfig {
    /// Largest coalesced batch (1 disables batching).
    pub max_batch: usize,
    /// How long a worker lingers for stragglers after the first request
    /// of a batch arrives. Zero means "take only what is already queued".
    pub linger: Duration,
    /// Worker threads draining the queue.
    pub workers: usize,
    /// Bound on queued (not yet batched) requests; submitters block when
    /// the queue is full, which is the engine's backpressure.
    pub queue_capacity: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            max_batch: 64,
            linger: Duration::from_micros(200),
            workers: 1,
            queue_capacity: 1024,
        }
    }
}

impl ServeConfig {
    /// A builder starting from [`Default`] — the engine-side mirror of
    /// `BenchConfig::builder()`.
    pub fn builder() -> ServeConfigBuilder {
        ServeConfigBuilder { config: ServeConfig::default() }
    }
}

/// Chainable builder for [`ServeConfig`]. Obtain via
/// [`ServeConfig::builder()`].
#[must_use]
#[derive(Debug, Clone)]
pub struct ServeConfigBuilder {
    config: ServeConfig,
}

impl ServeConfigBuilder {
    /// Largest coalesced batch (1 disables batching).
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.config.max_batch = max_batch;
        self
    }

    /// Straggler linger after the first request of a batch.
    pub fn linger(mut self, linger: Duration) -> Self {
        self.config.linger = linger;
        self
    }

    /// Worker threads draining the queue.
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Bound on queued (not yet batched) requests.
    pub fn queue_capacity(mut self, queue_capacity: usize) -> Self {
        self.config.queue_capacity = queue_capacity;
        self
    }

    /// The finished configuration.
    pub fn build(self) -> ServeConfig {
        self.config
    }
}

struct Request {
    input: Vec<f32>,
    reply: mpsc::Sender<Result<Response>>,
}

/// One served response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Per-request logits, in the snapshot's output order.
    pub output: Vec<f32>,
    /// When the worker finished the batch containing this request —
    /// stamped at routing time so open-loop latency accounting does not
    /// depend on when the client gets around to [`PendingResponse::wait`].
    pub done_at: Instant,
    /// Size of the coalesced batch this request was served in.
    pub batch_size: usize,
    /// [`generation`](ModelSnapshot::generation) of the snapshot that
    /// produced these logits — under hot swaps, every response is
    /// attributable to exactly one published model version.
    pub generation: u64,
}

/// A submitted request's future response.
pub struct PendingResponse {
    rx: mpsc::Receiver<Result<Response>>,
}

impl PendingResponse {
    /// Blocks until the response is routed back, or returns
    /// [`ServeError::Closed`] if the request was dropped unanswered (a
    /// worker died mid-batch).
    pub fn wait(self) -> Result<Response> {
        self.rx.recv().unwrap_or(Err(ServeError::Closed))
    }
}

/// Cheap, cloneable handle for submitting requests.
#[derive(Clone)]
pub struct InferClient {
    tx: Sender<Request>,
    sample_len: usize,
}

impl InferClient {
    /// Flattened input length every submitted request must have (fixed at
    /// client creation; successor snapshots keep it).
    pub fn sample_len(&self) -> usize {
        self.sample_len
    }

    /// Enqueues one request (blocking while the queue is at capacity).
    ///
    /// `input` must hold exactly the snapshot's
    /// [`sample_len`](ModelSnapshot::sample_len) values; length errors
    /// surface here, before the request ever reaches a worker.
    pub fn submit(&self, input: Vec<f32>) -> Result<PendingResponse> {
        if input.len() != self.sample_len {
            return Err(ServeError::InvalidRequest(format!(
                "expected {} input values, got {}",
                self.sample_len,
                input.len()
            )));
        }
        let (reply, rx) = mpsc::channel();
        match self.tx.send(Request { input, reply }) {
            Ok(depth) => {
                rdo_obs::counter_add("serve.enqueue", 1);
                rdo_obs::counter_max("serve.queue.depth_hwm", depth as u64);
                Ok(PendingResponse { rx })
            }
            Err(_) => Err(ServeError::Closed),
        }
    }
}

/// Per-engine service statistics, folded from the workers at shutdown.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Batches forwarded.
    pub batches: u64,
    /// Requests served.
    pub requests: u64,
    /// Largest coalesced batch observed.
    pub max_batch: usize,
}

impl ServeStats {
    /// Mean coalesced batch size.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.requests as f64 / self.batches as f64
        }
    }
}

/// A running inference service over one hot-swappable snapshot slot.
pub struct ServeEngine {
    tx: Sender<Request>,
    workers: Vec<JoinHandle<ServeStats>>,
    cell: Arc<SnapshotCell>,
}

impl ServeEngine {
    /// Starts the worker pool over a fixed `snapshot` (a fresh private
    /// [`SnapshotCell`] that nothing else swaps).
    pub fn start(snapshot: Arc<ModelSnapshot>, config: ServeConfig) -> Self {
        Self::start_with_cell(Arc::new(SnapshotCell::new(snapshot)), config)
    }

    /// Starts the worker pool over a shared [`SnapshotCell`].
    ///
    /// Workers re-read the cell between batches: after a
    /// [`swap`](SnapshotCell::swap), each worker picks up the new snapshot
    /// before its next forward (in-flight batches finish on the snapshot
    /// they started with — no request ever blocks on a swap) and tags
    /// every [`Response`] with the generation that served it. Successor
    /// snapshots must keep the same [`sample_len`](ModelSnapshot::sample_len):
    /// clients validate request length against the snapshot current at
    /// client creation.
    pub fn start_with_cell(cell: Arc<SnapshotCell>, config: ServeConfig) -> Self {
        let (tx, rx) = channel::<Request>(config.queue_capacity);
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let rx = rx.clone();
                let cell = Arc::clone(&cell);
                let (max_batch, linger) = (config.max_batch, config.linger);
                thread::spawn(move || {
                    let mut current = cell.get();
                    let mut eval = current.evaluator();
                    let mut stats = ServeStats::default();
                    loop {
                        let batch = rx.recv_many(max_batch, linger);
                        if batch.is_empty() {
                            return stats; // closed and drained
                        }
                        let latest = cell.get();
                        if !Arc::ptr_eq(&latest, &current) {
                            current = latest;
                            eval = current.evaluator();
                            rdo_obs::counter_add("serve.snapshot.reload", 1);
                        }
                        let _batch_span = rdo_obs::span("serve.batch");
                        rdo_obs::observe("serve.batch_size", batch.len() as u64);
                        stats.batches += 1;
                        stats.requests += batch.len() as u64;
                        stats.max_batch = stats.max_batch.max(batch.len());
                        let rows: Vec<&[f32]> = batch.iter().map(|r| r.input.as_slice()).collect();
                        let outputs = {
                            let _forward_span = rdo_obs::span("serve.forward");
                            eval.infer_batch(&rows)
                        };
                        let done_at = Instant::now();
                        match outputs {
                            Ok(outputs) => {
                                let batch_size = batch.len();
                                let generation = current.generation();
                                for (req, output) in batch.into_iter().zip(outputs) {
                                    // a client that dropped its pending
                                    // response no longer wants the reply
                                    let _ = req.reply.send(Ok(Response {
                                        output,
                                        done_at,
                                        batch_size,
                                        generation,
                                    }));
                                }
                            }
                            Err(e) => {
                                let msg = e.to_string();
                                for req in batch {
                                    let _ = req.reply.send(Err(ServeError::Worker(msg.clone())));
                                }
                            }
                        }
                    }
                })
            })
            .collect();
        ServeEngine { tx, workers, cell }
    }

    /// A submission handle (any number may exist, on any thread).
    pub fn client(&self) -> InferClient {
        InferClient { tx: self.tx.clone(), sample_len: self.cell.get().sample_len() }
    }

    /// Closes the queue, lets the workers drain every queued request, and
    /// joins them, returning the folded service statistics.
    pub fn shutdown(self) -> ServeStats {
        self.tx.close();
        let mut total = ServeStats::default();
        for w in self.workers {
            let s = w.join().unwrap_or_default();
            total.batches += s.batches;
            total.requests += s.requests;
            total.max_batch = total.max_batch.max(s.max_batch);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdo_nn::{Linear, Relu, Sequential};
    use rdo_tensor::rng::seeded_rng;

    fn snapshot() -> Arc<ModelSnapshot> {
        let mut rng = seeded_rng(11);
        let mut net = Sequential::new();
        net.push(Linear::new(8, 16, &mut rng));
        net.push(Relu::new());
        net.push(Linear::new(16, 3, &mut rng));
        Arc::new(ModelSnapshot::from_network("unit-mlp", net, &[8]).unwrap())
    }

    fn sample(i: usize) -> Vec<f32> {
        (0..8).map(|j| ((i * 13 + j * 5) % 17) as f32 * 0.1 - 0.8).collect()
    }

    #[test]
    fn builder_overrides_only_named_knobs() {
        let cfg = ServeConfig::builder()
            .max_batch(8)
            .linger(Duration::from_micros(50))
            .workers(2)
            .queue_capacity(256)
            .build();
        assert_eq!(
            cfg,
            ServeConfig {
                max_batch: 8,
                linger: Duration::from_micros(50),
                workers: 2,
                queue_capacity: 256,
            }
        );
        let partial = ServeConfig::builder().workers(3).build();
        assert_eq!(partial, ServeConfig { workers: 3, ..Default::default() });
    }

    #[test]
    fn responses_carry_the_serving_generation() {
        let snap = snapshot();
        let engine = ServeEngine::start(Arc::clone(&snap), ServeConfig::default());
        let client = engine.client();
        let resp = client.submit(sample(0)).unwrap().wait().unwrap();
        assert_eq!(resp.generation, 0, "a fixed snapshot serves at its own generation");
        engine.shutdown();
    }

    #[test]
    fn workers_pick_up_a_swapped_snapshot() {
        let snap = snapshot();
        let cell = Arc::new(crate::SnapshotCell::new(Arc::clone(&snap)));
        let engine = ServeEngine::start_with_cell(Arc::clone(&cell), ServeConfig::default());
        let client = engine.client();
        let before = client.submit(sample(1)).unwrap().wait().unwrap();
        assert_eq!(before.generation, 0);

        let mut rng = seeded_rng(77);
        let mut net = Sequential::new();
        net.push(Linear::new(8, 16, &mut rng));
        net.push(Relu::new());
        net.push(Linear::new(16, 3, &mut rng));
        let next = ModelSnapshot::from_network("unit-mlp-v1", net, &[8]).unwrap();
        cell.swap(Arc::new(next.with_generation(1)));

        let after = client.submit(sample(1)).unwrap().wait().unwrap();
        assert_eq!(after.generation, 1, "post-swap batches serve the new generation");
        assert!(
            before.output.iter().zip(&after.output).any(|(a, b)| a.to_bits() != b.to_bits()),
            "different weights must produce different logits"
        );
        engine.shutdown();
    }

    #[test]
    fn serves_requests_and_matches_serial_reference() {
        let snap = snapshot();
        let engine = ServeEngine::start(Arc::clone(&snap), ServeConfig::default());
        let client = engine.client();
        let pending: Vec<_> =
            (0..40).map(|i| client.submit(sample(i)).expect("queue open")).collect();
        let served: Vec<Vec<f32>> =
            pending.into_iter().map(|p| p.wait().expect("served").output).collect();
        let stats = engine.shutdown();
        assert_eq!(stats.requests, 40);
        assert!(stats.batches >= 1);

        let mut eval = snap.evaluator();
        for (i, out) in served.iter().enumerate() {
            let reference = eval.infer_one(&sample(i)).unwrap();
            assert_eq!(reference.len(), out.len());
            let same = reference.iter().zip(out).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "request {i}: served logits must equal the serial reference bitwise");
        }
    }

    #[test]
    fn batch_size_one_engine_still_serves_identically() {
        let snap = snapshot();
        let unbatched = ServeConfig { max_batch: 1, linger: Duration::ZERO, ..Default::default() };
        let engine = ServeEngine::start(Arc::clone(&snap), unbatched);
        let client = engine.client();
        let pending: Vec<_> = (0..10).map(|i| client.submit(sample(i)).unwrap()).collect();
        let outs: Vec<_> = pending.into_iter().map(|p| p.wait().unwrap()).collect();
        let stats = engine.shutdown();
        assert_eq!(stats.max_batch, 1, "max_batch=1 must never coalesce");
        assert_eq!(stats.batches, 10);
        let mut eval = snap.evaluator();
        for (i, resp) in outs.iter().enumerate() {
            assert_eq!(resp.batch_size, 1);
            let reference = eval.infer_one(&sample(i)).unwrap();
            assert!(reference.iter().zip(&resp.output).all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn submit_validates_input_length_eagerly() {
        let engine = ServeEngine::start(snapshot(), ServeConfig::default());
        let client = engine.client();
        assert!(matches!(client.submit(vec![0.0; 7]), Err(ServeError::InvalidRequest(_))));
        engine.shutdown();
    }

    #[test]
    fn submit_after_shutdown_reports_closed() {
        let engine = ServeEngine::start(snapshot(), ServeConfig::default());
        let client = engine.client();
        engine.shutdown();
        assert!(matches!(client.submit(sample(0)), Err(ServeError::Closed)));
    }

    #[test]
    fn reply_dropped_unsent_reports_closed() {
        // a bare queue with no worker, so the test plays the worker's part
        let (tx, queue) = channel(4);
        let client = InferClient { tx, sample_len: 8 };
        let pending = client.submit(sample(0)).unwrap();
        // the worker takes the request and dies before answering it
        drop(queue.recv_many(1, Duration::ZERO));
        assert!(matches!(pending.wait(), Err(ServeError::Closed)));
    }

    #[test]
    fn multiple_workers_drain_concurrently() {
        let snap = snapshot();
        let cfg = ServeConfig { workers: 3, max_batch: 4, ..Default::default() };
        let engine = ServeEngine::start(Arc::clone(&snap), cfg);
        let client = engine.client();
        let pending: Vec<_> = (0..60).map(|i| client.submit(sample(i)).unwrap()).collect();
        let mut eval = snap.evaluator();
        for (i, p) in pending.into_iter().enumerate() {
            let resp = p.wait().unwrap();
            let reference = eval.infer_one(&sample(i)).unwrap();
            assert!(
                reference.iter().zip(&resp.output).all(|(a, b)| a.to_bits() == b.to_bits()),
                "request {i} must be worker-assignment invariant"
            );
        }
        let stats = engine.shutdown();
        assert_eq!(stats.requests, 60);
    }
}
