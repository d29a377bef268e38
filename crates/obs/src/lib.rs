//! # rdo-obs
//!
//! Run-level observability for the reproduction of *"Digital Offset for
//! RRAM-based Neuromorphic Computing"* (DATE 2021): hierarchical wall-clock
//! [spans](span()), named [counters](counter_add()), log2-bucketed
//! [histograms](observe()) and exact nearest-rank
//! [quantiles](nearest_rank()) of raw values, plus a structured JSONL
//! event sink.
//!
//! The layer is compiled into every crate of the workspace but designed to
//! cost one relaxed atomic load and a predictable branch per call site when
//! disabled. It never writes to stdout (events go to a file, diagnostics to
//! stderr) and never touches any random-number stream, so enabling it cannot
//! perturb experiment output.
//!
//! # Enabling
//!
//! Instrumentation is off by default. Set the `RDO_OBS` environment
//! variable to turn it on:
//!
//! - `RDO_OBS=1` (or `true`/`on`) — enabled, events stream to
//!   `target/rdo-obs/run.jsonl`;
//! - `RDO_OBS=<path>` — enabled, events stream to `<path>`;
//! - `RDO_OBS=mem` — enabled, in-memory aggregation only (no sink);
//! - unset, `0`, `false`, `off` — disabled.
//!
//! Programmatic override: [`set_enabled()`] (e.g. from a bench
//! configuration builder) wins over the environment.
//!
//! # Examples
//!
//! ```
//! rdo_obs::set_enabled(true);
//! {
//!     let _span = rdo_obs::span("demo.stage");
//!     rdo_obs::counter_add("demo.items", 3);
//! }
//! let snap = rdo_obs::snapshot();
//! assert_eq!(snap.counters["demo.items"], 3);
//! assert_eq!(snap.spans["demo.stage"].count, 1);
//! rdo_obs::reset();
//! rdo_obs::set_enabled(false);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod json;
pub mod quantile;
mod registry;
pub mod report;
mod sink;
mod span;

use std::sync::atomic::{AtomicU8, Ordering};
use std::time::{Duration, Instant};

pub use quantile::nearest_rank;
pub use registry::{HistSummary, Snapshot, SpanStat};
pub use report::{fold, parse_line, Event, Report};
pub use span::{span, span_with, SpanGuard};

/// Where `RDO_OBS=1` writes its JSONL run log, relative to the working
/// directory (`obs_report` reads the same location by default).
pub const DEFAULT_SINK_PATH: &str = "target/rdo-obs/run.jsonl";

/// Tri-state enable flag: 0 = not yet resolved, 1 = off, 2 = on.
static STATE: AtomicU8 = AtomicU8::new(0);

/// Returns whether instrumentation is currently enabled.
///
/// The first call resolves the `RDO_OBS` environment variable (and opens
/// the JSONL sink when one is requested); later calls are a single relaxed
/// atomic load.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        2 => true,
        1 => false,
        _ => init_from_env(),
    }
}

/// Resolves `RDO_OBS` once. Cold path of [`enabled()`].
#[cold]
fn init_from_env() -> bool {
    let on = match std::env::var("RDO_OBS") {
        Err(_) => false,
        Ok(v) => match v.trim() {
            "" | "0" | "false" | "off" => false,
            "1" | "true" | "on" => {
                sink::open_default();
                true
            }
            "mem" => true,
            path => {
                sink::open_path(path);
                true
            }
        },
    };
    // A concurrent set_enabled() wins: only move out of the unresolved state.
    let target = if on { 2 } else { 1 };
    let _ = STATE.compare_exchange(0, target, Ordering::Relaxed, Ordering::Relaxed);
    STATE.load(Ordering::Relaxed) == 2
}

/// Forces instrumentation on or off, overriding `RDO_OBS`.
///
/// Enabling through this call does **not** open a JSONL sink on its own
/// (in-memory aggregation only) unless `RDO_OBS` already requested one;
/// use [`set_sink()`] to stream events to a file.
pub fn set_enabled(on: bool) {
    if on && STATE.load(Ordering::Relaxed) == 0 {
        // Resolve the environment first so RDO_OBS=<path> still opens its
        // sink when a config later forces the flag on.
        init_from_env();
    }
    STATE.store(if on { 2 } else { 1 }, Ordering::Relaxed);
}

/// Streams subsequent events to a JSONL file at `path` (truncating it),
/// replacing any previously configured sink. Implies nothing about the
/// enable flag; combine with [`set_enabled()`].
pub fn set_sink(path: &str) {
    sink::open_path(path);
}

/// Adds `delta` to the named counter. No-op while disabled.
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if enabled() {
        registry::counter_add(name, delta);
    }
}

/// Raises the named high-water mark to `value` if it is larger. No-op
/// while disabled.
#[inline]
pub fn counter_max(name: &'static str, value: u64) {
    if enabled() {
        registry::counter_max(name, value);
    }
}

/// Sets the named last-value gauge to `value`, replacing any previous
/// reading. Unlike [`counter_add()`] (monotone) and [`counter_max()`]
/// (high-water), a gauge can move in both directions — e.g. probe-set
/// accuracy sampled over a model's lifetime. No-op while disabled.
#[inline]
pub fn gauge_set(name: &'static str, value: u64) {
    if enabled() {
        registry::gauge_set(name, value);
    }
}

/// Records `value` into the named log2-bucketed histogram. No-op while
/// disabled.
#[inline]
pub fn observe(name: &'static str, value: u64) {
    if enabled() {
        registry::observe(name, value);
    }
}

/// Emits the aggregated counters, high-water marks, histograms and span
/// statistics as JSONL summary events and flushes the sink. Idempotent;
/// call once at the end of a run (the figure binaries do).
pub fn flush() {
    if !enabled() {
        return;
    }
    let snap = registry::snapshot();
    sink::emit_summary(&snap);
    sink::flush();
}

/// Returns a copy of the aggregated in-memory state (for tests and
/// in-process reporting).
pub fn snapshot() -> Snapshot {
    registry::snapshot()
}

/// Clears all aggregated in-memory state. The sink, enable flag and span
/// stacks are untouched. Intended for tests.
pub fn reset() {
    registry::reset();
}

/// Wall-clock of one invocation of `f`.
pub fn time<F: FnOnce()>(f: F) -> Duration {
    let t = Instant::now();
    f();
    t.elapsed()
}

/// Minimum wall-clock over `reps` invocations of `f`, in nanoseconds —
/// the noise-robust point estimate used by the perf report. Runs one
/// unmeasured warm-up call first (pages in buffers, warms scratch pools).
pub fn best_of_ns<F: FnMut()>(reps: usize, mut f: F) -> u128 {
    f();
    let mut best = u128::MAX;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_nanos());
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    // The enable flag and registry are process-global, so every test that
    // toggles them funnels through this helper to stay independent under
    // the parallel test runner.
    fn with_obs<R>(f: impl FnOnce() -> R) -> R {
        use std::sync::{Mutex, MutexGuard, OnceLock};
        static GATE: OnceLock<Mutex<()>> = OnceLock::new();
        let _g: MutexGuard<'_, ()> =
            GATE.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|p| p.into_inner());
        set_enabled(true);
        reset();
        let r = f();
        reset();
        set_enabled(false);
        r
    }

    #[test]
    fn disabled_calls_are_noops() {
        with_obs(|| {
            set_enabled(false);
            counter_add("t.off", 1);
            observe("t.off.h", 7);
            let _s = span("t.off.span");
            drop(_s);
            set_enabled(true);
            let snap = snapshot();
            assert!(snap.counters.is_empty());
            assert!(snap.hists.is_empty());
            assert!(snap.spans.is_empty());
        });
    }

    #[test]
    fn counters_accumulate_and_max_tracks_high_water() {
        with_obs(|| {
            counter_add("t.count", 2);
            counter_add("t.count", 3);
            counter_max("t.hwm", 10);
            counter_max("t.hwm", 4);
            let snap = snapshot();
            assert_eq!(snap.counters["t.count"], 5);
            assert_eq!(snap.maxima["t.hwm"], 10);
        });
    }

    #[test]
    fn gauge_keeps_last_value_in_either_direction() {
        with_obs(|| {
            gauge_set("t.gauge", 9000);
            gauge_set("t.gauge", 8500); // gauges may fall, unlike counters
            let snap = snapshot();
            assert_eq!(snap.gauges["t.gauge"], 8500);
        });
    }

    #[test]
    fn histogram_summarises_count_sum_min_max() {
        with_obs(|| {
            for v in [1u64, 2, 1024, 7] {
                observe("t.hist", v);
            }
            let snap = snapshot();
            let h = &snap.hists["t.hist"];
            assert_eq!(h.count, 4);
            assert_eq!(h.sum, 1034);
            assert_eq!(h.min, 1);
            assert_eq!(h.max, 1024);
        });
    }

    #[test]
    fn spans_nest_into_hierarchical_paths() {
        with_obs(|| {
            {
                let _outer = span("t.outer");
                let _inner = span("t.inner");
            }
            let snap = snapshot();
            assert_eq!(snap.spans["t.outer"].count, 1);
            assert_eq!(snap.spans["t.outer>t.inner"].count, 1);
            assert!(snap.spans["t.outer"].total_ns >= snap.spans["t.outer>t.inner"].total_ns);
        });
    }

    #[test]
    fn best_of_returns_finite_minimum() {
        let ns = best_of_ns(3, || {
            std::hint::black_box(1 + 1);
        });
        assert!(ns < u128::MAX);
    }
}
