//! Immutable model snapshots and the coalescing-invariant forward pass.
//!
//! A [`ModelSnapshot`] freezes one *programmed* network — typically the
//! [`effective_network`](rdo_core::MappedNetwork::effective_network) of a
//! [`MappedNetwork`] after one programming cycle
//! — together with its I/O shape, behind an `Arc` so every worker and
//! client shares one copy. Workers obtain a [`SnapshotEvaluator`] (a
//! private mutable clone of the network plus reusable batch scratch) and
//! feed it whatever batches the dynamic batcher coalesces.
//!
//! # The bitwise coalescing contract
//!
//! The service promises that a request's logits do not depend on which
//! batch it happened to be coalesced into. The GEMM microkernel computes
//! every *row* of a tiled `m >= 2` product with a position- and
//! batch-size-invariant ascending-`k` chain, but routes `m == 1` through
//! a different (lane-blocked vector) kernel whose sums associate
//! differently. [`SnapshotEvaluator`] therefore pads singleton batches
//! with one all-zero sample row, keeping every forward on the tiled path:
//! a request served alone is bitwise identical to the same request served
//! inside a batch of 64, and the serial reference in the load harness is
//! the public single-request path itself.

use std::sync::{Arc, RwLock};

use rdo_core::MappedNetwork;
use rdo_nn::Sequential;
use rdo_tensor::Tensor;

use crate::{Result, ServeError};

/// An immutable, shareable snapshot of one servable model.
#[derive(Debug, Clone)]
pub struct ModelSnapshot {
    name: String,
    sample_dims: Vec<usize>,
    sample_len: usize,
    outputs: usize,
    generation: u64,
    net: Sequential,
}

impl ModelSnapshot {
    /// Freezes `net` under `name`, with `sample_dims` the per-sample
    /// input shape (e.g. `[128]` for a 128-feature MLP, `[1, 28, 28]`
    /// for LeNet). Probes the network once with a zero batch to learn
    /// the per-sample output width.
    pub fn from_network(name: &str, net: Sequential, sample_dims: &[usize]) -> Result<Self> {
        let sample_len: usize = sample_dims.iter().product();
        if sample_len == 0 {
            return Err(ServeError::InvalidRequest("sample shape must be non-empty".to_string()));
        }
        let mut shape = vec![2usize];
        shape.extend_from_slice(sample_dims);
        let probe = Tensor::from_vec(vec![0.0; 2 * sample_len], &shape)?;
        let mut probe_net = net.clone();
        let y = probe_net.infer(&probe)?;
        let outputs = y.len() / 2;
        Ok(ModelSnapshot {
            name: name.to_string(),
            sample_dims: sample_dims.to_vec(),
            sample_len,
            outputs,
            generation: 0,
            net,
        })
    }

    /// [`from_network`](Self::from_network) over the effective network of
    /// a programmed [`MappedNetwork`] — the offset-corrected datapath the
    /// paper's methods produce. Program the network (one CRW cycle)
    /// before snapshotting; reprogramming later produces a *new*
    /// snapshot, existing ones are never mutated.
    pub fn from_mapped(name: &str, mapped: &MappedNetwork, sample_dims: &[usize]) -> Result<Self> {
        Self::from_network(name, mapped.effective_network()?, sample_dims)
    }

    /// Snapshot name (reports, logs).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Per-sample input shape.
    pub fn sample_dims(&self) -> &[usize] {
        &self.sample_dims
    }

    /// Flattened per-sample input length.
    pub fn sample_len(&self) -> usize {
        self.sample_len
    }

    /// Per-sample output (logit) width.
    pub fn outputs(&self) -> usize {
        self.outputs
    }

    /// Publication generation. Freshly built snapshots are generation 0;
    /// a maintenance loop stamps each successor before
    /// [`SnapshotCell::swap`] so every routed [`Response`](crate::Response)
    /// is attributable to exactly one published model version.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The same snapshot stamped as publication generation `generation`.
    #[must_use]
    pub fn with_generation(mut self, generation: u64) -> Self {
        self.generation = generation;
        self
    }

    /// A private evaluator over this snapshot (clones the network once).
    pub fn evaluator(&self) -> SnapshotEvaluator {
        SnapshotEvaluator {
            net: self.net.clone(),
            sample_dims: self.sample_dims.clone(),
            sample_len: self.sample_len,
            outputs: self.outputs,
            scratch: Vec::new(),
        }
    }
}

/// Mutable forward-pass state over one [`ModelSnapshot`].
///
/// Owned by exactly one worker (or the serial reference loop); obtain one
/// via [`ModelSnapshot::evaluator`].
#[derive(Debug)]
pub struct SnapshotEvaluator {
    net: Sequential,
    sample_dims: Vec<usize>,
    sample_len: usize,
    outputs: usize,
    scratch: Vec<f32>,
}

impl SnapshotEvaluator {
    /// Forwards one coalesced batch; `inputs[i]` must hold
    /// [`sample_len`](ModelSnapshot::sample_len) values. Returns one
    /// logit vector per input, in input order.
    ///
    /// Singleton batches are padded with one all-zero sample (whose
    /// output is discarded) so every forward runs the tiled GEMM path —
    /// see the module docs for why this makes results independent of
    /// batch coalescing.
    pub fn infer_batch(&mut self, inputs: &[&[f32]]) -> Result<Vec<Vec<f32>>> {
        if inputs.is_empty() {
            return Ok(Vec::new());
        }
        for (i, row) in inputs.iter().enumerate() {
            if row.len() != self.sample_len {
                return Err(ServeError::InvalidRequest(format!(
                    "request {i}: expected {} input values, got {}",
                    self.sample_len,
                    row.len()
                )));
            }
        }
        let n = inputs.len();
        let rows = n.max(2); // pad singletons onto the tiled GEMM path
        self.scratch.clear();
        self.scratch.reserve(rows * self.sample_len);
        for row in inputs {
            self.scratch.extend_from_slice(row);
        }
        self.scratch.resize(rows * self.sample_len, 0.0);
        let mut shape = vec![rows];
        shape.extend_from_slice(&self.sample_dims);
        let x = Tensor::from_vec(std::mem::take(&mut self.scratch), &shape)?;
        let y = self.net.infer(&x)?;
        self.scratch = x.into_vec();
        let data = y.data();
        Ok((0..n).map(|i| data[i * self.outputs..(i + 1) * self.outputs].to_vec()).collect())
    }

    /// Forwards one request — the serial per-request reference path. Uses
    /// the same padded forward as [`infer_batch`](Self::infer_batch), so
    /// serving a request alone or inside any batch is bitwise identical.
    pub fn infer_one(&mut self, input: &[f32]) -> Result<Vec<f32>> {
        let mut out = self.infer_batch(&[input])?;
        Ok(out.pop().expect("one input yields one output"))
    }
}

/// A hot-swappable snapshot slot.
///
/// Readers ([`get`](Self::get)) take an `Arc` clone of the current
/// snapshot; a re-programming loop [`swap`](Self::swap)s in a freshly
/// programmed one without pausing traffic — in-flight batches keep the
/// snapshot they started with alive through their own `Arc`.
#[derive(Debug)]
pub struct SnapshotCell {
    slot: RwLock<Arc<ModelSnapshot>>,
}

impl SnapshotCell {
    /// A cell initially holding `snapshot`.
    pub fn new(snapshot: Arc<ModelSnapshot>) -> Self {
        SnapshotCell { slot: RwLock::new(snapshot) }
    }

    /// The current snapshot.
    pub fn get(&self) -> Arc<ModelSnapshot> {
        Arc::clone(&self.slot.read().unwrap_or_else(|p| p.into_inner()))
    }

    /// Replaces the snapshot, returning the previous one.
    pub fn swap(&self, snapshot: Arc<ModelSnapshot>) -> Arc<ModelSnapshot> {
        let mut slot = self.slot.write().unwrap_or_else(|p| p.into_inner());
        std::mem::replace(&mut *slot, snapshot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdo_nn::{Linear, Relu};
    use rdo_tensor::rng::seeded_rng;

    fn tiny_snapshot() -> ModelSnapshot {
        let mut rng = seeded_rng(3);
        let mut net = Sequential::new();
        net.push(Linear::new(6, 16, &mut rng));
        net.push(Relu::new());
        net.push(Linear::new(16, 4, &mut rng));
        ModelSnapshot::from_network("tiny", net, &[6]).unwrap()
    }

    fn sample(i: usize, len: usize) -> Vec<f32> {
        (0..len).map(|j| ((i * 31 + j * 7) % 23) as f32 * 0.05 - 0.5).collect()
    }

    #[test]
    fn snapshot_probes_output_width() {
        let snap = tiny_snapshot();
        assert_eq!(snap.sample_len(), 6);
        assert_eq!(snap.outputs(), 4);
        assert_eq!(snap.name(), "tiny");
        assert_eq!(snap.sample_dims(), &[6]);
    }

    #[test]
    fn batched_rows_match_single_requests_bitwise() {
        let snap = tiny_snapshot();
        let mut eval = snap.evaluator();
        let inputs: Vec<Vec<f32>> = (0..9).map(|i| sample(i, 6)).collect();
        let refs: Vec<&[f32]> = inputs.iter().map(Vec::as_slice).collect();
        let batched = eval.infer_batch(&refs).unwrap();
        assert_eq!(batched.len(), 9);
        for (i, input) in inputs.iter().enumerate() {
            let single = eval.infer_one(input).unwrap();
            let same = single.iter().zip(&batched[i]).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "row {i} must be invariant to batch coalescing");
        }
    }

    #[test]
    fn wrong_input_length_is_rejected() {
        let snap = tiny_snapshot();
        let mut eval = snap.evaluator();
        let short = vec![0.0f32; 5];
        assert!(matches!(eval.infer_one(&short), Err(ServeError::InvalidRequest(_))));
    }

    #[test]
    fn empty_batch_is_a_noop() {
        let snap = tiny_snapshot();
        let mut eval = snap.evaluator();
        assert!(eval.infer_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn generation_defaults_to_zero_and_restamps() {
        let snap = tiny_snapshot();
        assert_eq!(snap.generation(), 0);
        let stamped = snap.with_generation(7);
        assert_eq!(stamped.generation(), 7);
    }

    #[test]
    fn snapshot_cell_swaps_atomically() {
        let a = Arc::new(tiny_snapshot());
        let cell = SnapshotCell::new(Arc::clone(&a));
        assert!(Arc::ptr_eq(&cell.get(), &a));
        let mut rng = seeded_rng(9);
        let mut net = Sequential::new();
        net.push(Linear::new(6, 4, &mut rng));
        let b = Arc::new(ModelSnapshot::from_network("tiny-v2", net, &[6]).unwrap());
        let old = cell.swap(Arc::clone(&b));
        assert!(Arc::ptr_eq(&old, &a), "swap returns the displaced snapshot");
        assert!(Arc::ptr_eq(&cell.get(), &b));
    }
}
