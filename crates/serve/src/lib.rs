//! # rdo-serve
//!
//! Concurrent inference serving for the digital-offset datapath of the
//! DATE 2021 paper — the ROADMAP's "serve millions of users" direction.
//! Every figure binary in this workspace evaluates one big batch and
//! exits; this crate turns the same programmed
//! [`MappedNetwork`](rdo_core::MappedNetwork) into a long-running
//! service:
//!
//! - [`ModelSnapshot`] freezes a programmed network behind an `Arc` that
//!   workers and clients share; [`SnapshotCell`] hot-swaps a new
//!   snapshot (e.g. after re-programming a drifted crossbar) under live
//!   traffic.
//! - [`ServeEngine`] runs worker threads over a bounded MPMC request
//!   queue ([`sync`]), coalescing pending requests into dynamic batches
//!   (up to [`ServeConfig::max_batch`] or a [`ServeConfig::linger`]
//!   deadline) and forwarding each batch as **one** whole-batch GEMM;
//!   each response routes back over its request's own `std::sync::mpsc`
//!   channel.
//! - [`loadgen`] replays deterministic synthetic traffic ([`traffic`])
//!   for saturation-throughput and open-loop latency measurements,
//!   keeping every raw latency for exact quantiles
//!   ([`rdo_obs::nearest_rank`]).
//! - [`LifetimeEngine`] ([`lifetime`]) ages the programmed devices under
//!   live traffic and re-tunes or selectively re-programs them when a
//!   degradation threshold trips, publishing each repaired model as a
//!   new snapshot generation.
//!
//! Everything is std-only (threads, `Mutex`, `Condvar`, `mpsc`) — the
//! workspace carries no async runtime and no external concurrency crates.
//!
//! # The coalescing contract
//!
//! A request's logits never depend on how it was batched: singleton
//! batches are padded onto the same tiled GEMM path larger batches take
//! (see [`snapshot`]), so serving at `max_batch = 1`, `max_batch = 64`,
//! across any worker count, is bitwise identical to the serial
//! per-request reference. `crates/serve/tests/service_bitwise.rs` pins
//! this end to end on a programmed mapped network.
//!
//! ```
//! use std::sync::Arc;
//! use rdo_serve::{ModelSnapshot, ServeConfig, ServeEngine};
//! use rdo_nn::{Linear, Sequential};
//! use rdo_tensor::rng::seeded_rng;
//!
//! let mut net = Sequential::new();
//! net.push(Linear::new(4, 2, &mut seeded_rng(0)));
//! let snapshot = Arc::new(ModelSnapshot::from_network("demo", net, &[4]).unwrap());
//! let engine = ServeEngine::start(snapshot, ServeConfig::default());
//! let pending = engine.client().submit(vec![0.1, 0.2, 0.3, 0.4]).unwrap();
//! let response = pending.wait().unwrap();
//! assert_eq!(response.output.len(), 2);
//! engine.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

pub mod engine;
pub mod lifetime;
pub mod loadgen;
pub mod snapshot;
pub mod sync;
pub mod traffic;

pub use engine::{InferClient, PendingResponse, Response, ServeConfig, ServeEngine, ServeStats};
pub use lifetime::{
    LifetimeConfig, LifetimeConfigBuilder, LifetimeEngine, LifetimeReport, LifetimeStep,
    MaintenancePolicy,
};
pub use loadgen::{
    bitwise_equal, run_open_loop, run_saturation, serial_reference, OpenLoopReport,
    SaturationReport,
};
pub use snapshot::{ModelSnapshot, SnapshotCell, SnapshotEvaluator};
pub use traffic::{arrival_offsets, SyntheticTraffic};

/// Error produced by the serving layer.
#[derive(Debug)]
pub enum ServeError {
    /// A tensor operation failed.
    Tensor(rdo_tensor::TensorError),
    /// A network forward pass failed.
    Nn(rdo_nn::NnError),
    /// Mapping/effective-network construction failed.
    Core(rdo_core::CoreError),
    /// A device/crossbar operation failed.
    Rram(rdo_rram::RramError),
    /// The request was malformed (wrong payload length, empty shape).
    InvalidRequest(String),
    /// The engine is shut down; the request was not accepted.
    Closed,
    /// The worker serving this request's batch failed.
    Worker(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Tensor(e) => write!(f, "tensor error: {e}"),
            ServeError::Nn(e) => write!(f, "network error: {e}"),
            ServeError::Core(e) => write!(f, "core error: {e}"),
            ServeError::Rram(e) => write!(f, "device error: {e}"),
            ServeError::InvalidRequest(msg) => write!(f, "invalid request: {msg}"),
            ServeError::Closed => write!(f, "service is shut down"),
            ServeError::Worker(msg) => write!(f, "worker failed: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Tensor(e) => Some(e),
            ServeError::Nn(e) => Some(e),
            ServeError::Core(e) => Some(e),
            ServeError::Rram(e) => Some(e),
            _ => None,
        }
    }
}

impl From<rdo_tensor::TensorError> for ServeError {
    fn from(e: rdo_tensor::TensorError) -> Self {
        ServeError::Tensor(e)
    }
}

impl From<rdo_nn::NnError> for ServeError {
    fn from(e: rdo_nn::NnError) -> Self {
        ServeError::Nn(e)
    }
}

impl From<rdo_core::CoreError> for ServeError {
    fn from(e: rdo_core::CoreError) -> Self {
        ServeError::Core(e)
    }
}

impl From<rdo_rram::RramError> for ServeError {
    fn from(e: rdo_rram::RramError) -> Self {
        ServeError::Rram(e)
    }
}

/// Result alias for the serving layer.
pub type Result<T> = std::result::Result<T, ServeError>;

#[cfg(test)]
mod tests {
    use super::*;

    // The engine moves snapshots, clients and responses across threads;
    // pin the auto-trait obligations so a regression in any layer below
    // (a non-Sync layer, an Rc sneaking into Sequential) fails here with
    // a named assertion instead of deep inside a spawn call.
    #[test]
    fn shared_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ModelSnapshot>();
        assert_send_sync::<SnapshotCell>();
        assert_send_sync::<InferClient>();
        assert_send_sync::<Response>();
        fn assert_send<T: Send>() {}
        assert_send::<PendingResponse>();
        assert_send::<SnapshotEvaluator>();
    }

    #[test]
    fn error_display_and_sources() {
        let e = ServeError::InvalidRequest("bad".to_string());
        assert!(e.to_string().contains("bad"));
        assert!(ServeError::Closed.to_string().contains("shut down"));
        let nn: ServeError = rdo_nn::NnError::LabelMismatch { batch: 1, labels: 2 }.into();
        use std::error::Error as _;
        assert!(nn.source().is_some());
        assert!(ServeError::Closed.source().is_none());
    }
}
