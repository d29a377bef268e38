//! # rdo-bench
//!
//! Benchmark harness regenerating every table and figure of the DATE 2021
//! digital-offset paper. One binary per experiment:
//!
//! | target | paper artifact |
//! |---|---|
//! | `fig5a` | Fig. 5(a): LeNet accuracies, SLC, σ=0.5 |
//! | `fig5b` | Fig. 5(b): ResNet-18 accuracies, SLC, σ=0.5 |
//! | `fig5c` | Fig. 5(c): ResNet-18, 2-bit MLC, σ sweep |
//! | `table1` | Table I: relative reading power |
//! | `table2` | Table II: tile area/power overhead |
//! | `table3` | Table III: comparison with DVA / PM / DVA+PM |
//! | `all` | everything above, sequentially |
//! | `perf_report` | every `BENCH_*.json` record but `BENCH_obs`: kernel/engine timings, serving, lifetime |
//! | `obs_report` | folds an `RDO_OBS` JSONL log into `BENCH_obs.json` |
//!
//! All experiment knobs flow through one [`BenchConfig`], read once from
//! the environment (`RDO_SCALE`, `RDO_CYCLES`, `RDO_SEED`,
//! `RDO_PWT_EPOCHS`, `RDO_SIGMA`, `RDO_DEVICE_MODEL`) and threaded
//! explicitly from there; its `threads = 0` defers to `RDO_THREADS`,
//! which [`rdo_tensor::available_threads`] reads once. Programmatic
//! callers assemble one with [`BenchConfig::builder()`]. Which
//! device-model zoo member programs the crossbars is part of the grid:
//! every [`GridPoint`] optionally pins a
//! [`DeviceModelSpec`] (inheriting
//! [`BenchConfig::device_model`] otherwise), so the same sweep runs under
//! the paper's lognormal model, stuck-at-fault injection, drift-relax or
//! differential-pair cells by flipping one knob. Independent
//! (method, model, cell, σ, m) grid points run concurrently through
//! [`run_grid`] (which takes anything convertible [`Into`] a
//! [`GridSpec`]) or the generic [`run_items`] engine; per-point results
//! are identical to a serial run for every thread count. Trained
//! checkpoints are cached under `target/rdo-cache/`, and within a
//! process trained models and analytic device LUTs are additionally
//! shared through bounded keyed in-memory caches
//! ([`rdo_serve::ArtifactCache`]: [`prepare_lenet`] & friends return
//! `Arc<TrainedModel>`, [`shared_lut_model`] hands out `Arc<DeviceLut>`
//! keyed by the model fingerprint), so grid points with identical keys
//! never rebuild an artifact; [`clear_artifact_caches`] is the explicit
//! lifecycle hook. Cache traffic, per-point
//! spans and device/kernel counters are reported through [`rdo_obs`]
//! when `RDO_OBS` is set; the default is off and observation never
//! changes stdout or sampled randomness.
//!
//! The one-stop import for binaries and downstream code is
//! [`prelude`]:
//!
//! ```
//! use rdo_bench::prelude::*;
//!
//! let cfg = BenchConfig::builder().cycles(2).threads(1).build();
//! assert_eq!(cfg.cycles, 2);
//! let spec = GridSpec::product(&[Method::Plain], &[CellKind::Slc], &[0.5], &[16, 64]);
//! assert_eq!(spec.points().len(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod env;
pub mod lifetime_harness;
pub mod record;
pub mod serve_harness;

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::{Arc, LazyLock};
use std::time::{Duration, Instant};

use rdo_baselines::BaselineError;
use rdo_core::{
    evaluate_cycles, mean_core_gradients, CoreError, CycleEvalConfig, CycleEvaluation,
    MappedNetwork, Method, OffsetConfig, PwtConfig,
};
use rdo_datasets::{
    generate_digits, generate_textures, Dataset, DatasetError, DigitsConfig, TexturesConfig,
};
use rdo_nn::{
    evaluate, fit, Layer, LeNetConfig, NnError, ResNetConfig, Sequential, TrainConfig, VggConfig,
};
use rdo_rram::{CellKind, CellTechnology, DeviceLut, DeviceModelSpec, RramError, WeightCodec};
use rdo_serve::{ArtifactCache, CacheStats, ServeError};
use rdo_tensor::parallel::{parallel_map_indexed, resolve_threads};
use rdo_tensor::rng::seeded_rng;
use rdo_tensor::{Tensor, TensorError};

/// Error produced by the benchmark harness.
///
/// Every failure class of the underlying crates keeps its own variant, so
/// callers can match on *what* went wrong (mapping vs dataset vs I/O)
/// instead of string-matching a boxed `dyn Error`.
#[derive(Debug)]
pub enum BenchError {
    /// A tensor operation failed.
    Tensor(TensorError),
    /// A network (training/evaluation) operation failed.
    Nn(NnError),
    /// Dataset synthesis or splitting failed.
    Dataset(DatasetError),
    /// A device/crossbar operation failed.
    Rram(RramError),
    /// Mapping, VAWO, PWT or multi-cycle evaluation failed.
    Core(CoreError),
    /// A DVA/PM baseline failed.
    Baseline(BaselineError),
    /// The serving layer (engine, load harness) failed.
    Serve(ServeError),
    /// Reading or writing checkpoints/results failed.
    Io(std::io::Error),
    /// A measured number failed its gate, or a `BENCH_*` record is
    /// malformed (see [`record`]).
    Check(String),
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Tensor(e) => write!(f, "tensor error: {e}"),
            BenchError::Nn(e) => write!(f, "network error: {e}"),
            BenchError::Dataset(e) => write!(f, "dataset error: {e}"),
            BenchError::Rram(e) => write!(f, "rram error: {e}"),
            BenchError::Core(e) => write!(f, "core error: {e}"),
            BenchError::Baseline(e) => write!(f, "baseline error: {e}"),
            BenchError::Serve(e) => write!(f, "serving error: {e}"),
            BenchError::Io(e) => write!(f, "i/o error: {e}"),
            BenchError::Check(msg) => write!(f, "check failed: {msg}"),
        }
    }
}

impl std::error::Error for BenchError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BenchError::Tensor(e) => Some(e),
            BenchError::Nn(e) => Some(e),
            BenchError::Dataset(e) => Some(e),
            BenchError::Rram(e) => Some(e),
            BenchError::Core(e) => Some(e),
            BenchError::Baseline(e) => Some(e),
            BenchError::Serve(e) => Some(e),
            BenchError::Io(e) => Some(e),
            BenchError::Check(_) => None,
        }
    }
}

impl From<TensorError> for BenchError {
    fn from(e: TensorError) -> Self {
        BenchError::Tensor(e)
    }
}

impl From<NnError> for BenchError {
    fn from(e: NnError) -> Self {
        BenchError::Nn(e)
    }
}

impl From<DatasetError> for BenchError {
    fn from(e: DatasetError) -> Self {
        BenchError::Dataset(e)
    }
}

impl From<RramError> for BenchError {
    fn from(e: RramError) -> Self {
        BenchError::Rram(e)
    }
}

impl From<CoreError> for BenchError {
    fn from(e: CoreError) -> Self {
        BenchError::Core(e)
    }
}

impl From<BaselineError> for BenchError {
    fn from(e: BaselineError) -> Self {
        BenchError::Baseline(e)
    }
}

impl From<ServeError> for BenchError {
    fn from(e: ServeError) -> Self {
        BenchError::Serve(e)
    }
}

impl From<std::io::Error> for BenchError {
    fn from(e: std::io::Error) -> Self {
        BenchError::Io(e)
    }
}

/// Result alias for the harness.
pub type Result<T> = std::result::Result<T, BenchError>;

/// Experiment scale preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Single-core-friendly sizes (default).
    Fast,
    /// Larger networks/datasets, closer to the paper's setting.
    Paper,
}

/// All environment-driven experiment knobs, read once and passed
/// explicitly.
///
/// Construct via [`BenchConfig::from_env()`] (binaries),
/// [`BenchConfig::builder()`] (programmatic callers/tests) or
/// [`BenchConfig::default()`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchConfig {
    /// Dataset/network size preset (`RDO_SCALE`).
    pub scale: Scale,
    /// Programming cycles averaged per experiment (`RDO_CYCLES`,
    /// default 5 as in §IV).
    pub cycles: usize,
    /// Base RNG seed (`RDO_SEED`, default 0).
    pub seed: u64,
    /// PWT tuning epochs (`RDO_PWT_EPOCHS`, default 5).
    pub pwt_epochs: usize,
    /// Worker threads for grids and the cycle loop (0 = auto: the
    /// `RDO_THREADS` count [`rdo_tensor::available_threads`] resolves,
    /// else available parallelism; 1 = fully serial). Results are
    /// identical for every setting.
    pub threads: usize,
    /// Default lognormal variation σ for experiments that don't sweep it
    /// (`RDO_SIGMA`, default 0.5 — the Fig. 5(a)/(b) setting).
    pub sigma: f64,
    /// Device-model zoo member programming the crossbars
    /// (`RDO_DEVICE_MODEL`, e.g. `paper`, `level:stuck=0.01`,
    /// `driftrelax`, `diffpair:paper`; default the paper's lognormal
    /// model). Grid points that don't pin their own model inherit this.
    pub device_model: DeviceModelSpec,
}

impl Default for BenchConfig {
    fn default() -> Self {
        BenchConfig {
            scale: Scale::Fast,
            cycles: 5,
            seed: 0,
            pwt_epochs: 5,
            threads: 0,
            sigma: 0.5,
            device_model: DeviceModelSpec::PaperLognormal,
        }
    }
}

impl BenchConfig {
    /// Reads every knob from the environment (`RDO_SCALE`, `RDO_CYCLES`,
    /// `RDO_SEED`, `RDO_PWT_EPOCHS`, `RDO_SIGMA`, `RDO_DEVICE_MODEL`),
    /// falling back to the defaults above for unset or unparsable
    /// values. `threads` stays 0 (auto), so every thread count resolves
    /// through [`rdo_tensor::available_threads`], the one reader of
    /// `RDO_THREADS`; the observability switch `RDO_OBS` is resolved by
    /// [`rdo_obs`] itself on first use.
    pub fn from_env() -> Self {
        fn parsed<T: std::str::FromStr>(key: &str) -> Option<T> {
            std::env::var(key).ok().and_then(|s| s.parse().ok())
        }
        BenchConfig {
            scale: match std::env::var("RDO_SCALE").as_deref() {
                Ok("paper") => Scale::Paper,
                _ => Scale::Fast,
            },
            cycles: parsed::<usize>("RDO_CYCLES").filter(|&c| c > 0).unwrap_or(5),
            seed: parsed::<u64>("RDO_SEED").unwrap_or(0),
            pwt_epochs: parsed::<usize>("RDO_PWT_EPOCHS").filter(|&e| e > 0).unwrap_or(5),
            threads: 0,
            sigma: parsed::<f64>("RDO_SIGMA").filter(|s| s.is_finite() && *s >= 0.0).unwrap_or(0.5),
            device_model: parsed::<DeviceModelSpec>("RDO_DEVICE_MODEL").unwrap_or_default(),
        }
    }

    /// Starts a builder from the defaults.
    pub fn builder() -> BenchConfigBuilder {
        BenchConfigBuilder { cfg: BenchConfig::default() }
    }

    /// The multi-cycle evaluation configuration these knobs describe.
    pub fn eval_cfg(&self) -> CycleEvalConfig {
        CycleEvalConfig {
            cycles: self.cycles,
            seed: self.seed,
            pwt: PwtConfig { epochs: self.pwt_epochs, lr_decay: 0.75, ..Default::default() },
            batch_size: 64,
            threads: self.threads,
        }
    }
}

/// Builder for [`BenchConfig`] — the programmatic twin of
/// [`BenchConfig::from_env()`].
///
/// ```
/// use rdo_bench::prelude::*;
///
/// let cfg = BenchConfig::builder()
///     .scale(Scale::Fast)
///     .sigma(0.8)
///     .threads(1)
///     .build();
/// assert_eq!(cfg.sigma, 0.8);
/// ```
#[derive(Debug, Clone)]
#[must_use = "a builder does nothing until `.build()` is called"]
pub struct BenchConfigBuilder {
    cfg: BenchConfig,
}

impl BenchConfigBuilder {
    /// Sets the dataset/network size preset.
    pub fn scale(mut self, scale: Scale) -> Self {
        self.cfg.scale = scale;
        self
    }

    /// Sets the number of programming cycles.
    pub fn cycles(mut self, cycles: usize) -> Self {
        self.cfg.cycles = cycles;
        self
    }

    /// Sets the base RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Sets the number of PWT tuning epochs.
    pub fn pwt_epochs(mut self, pwt_epochs: usize) -> Self {
        self.cfg.pwt_epochs = pwt_epochs;
        self
    }

    /// Sets the worker-thread cap (0 = auto).
    pub fn threads(mut self, threads: usize) -> Self {
        self.cfg.threads = threads;
        self
    }

    /// Sets the default variation σ.
    pub fn sigma(mut self, sigma: f64) -> Self {
        self.cfg.sigma = sigma;
        self
    }

    /// Selects the device-model zoo member programming the crossbars
    /// (grid points without their own model inherit it).
    pub fn device_model(mut self, device_model: DeviceModelSpec) -> Self {
        self.cfg.device_model = device_model;
        self
    }

    /// Finalizes the config.
    pub fn build(self) -> BenchConfig {
        self.cfg
    }
}

/// A trained model bundled with its data and the artifacts the
/// experiments need.
pub struct TrainedModel {
    /// Human-readable name ("LeNet", "ResNet-18", "VGG-16").
    pub name: String,
    /// The trained float network.
    pub net: Sequential,
    /// Training split (also the PWT tuning set).
    pub train: Dataset,
    /// Held-out test split.
    pub test: Dataset,
    /// Ideal (float, no variation) test accuracy.
    pub ideal_accuracy: f32,
    /// Mean training-set gradients of every core weight (VAWO input).
    pub grads: Vec<Tensor>,
    /// Wall-clock training time (for the §III-B runtime comparison). A
    /// model loaded from a checkpoint reports the time recorded beside
    /// it; zero means unknown (no readable record).
    pub train_time: Duration,
}

fn cache_dir() -> PathBuf {
    let dir = PathBuf::from("target").join("rdo-cache");
    let _ = fs::create_dir_all(&dir);
    dir
}

/// Per-process cache of trained models, keyed by the same string that
/// names the on-disk checkpoint. Grid sweeps and the `all` driver call
/// `prepare_*` once per binary; within a process every further call for
/// the same (scale, seed) configuration is a map lookup.
///
/// Bounded (FIFO) at a capacity far above what any sweep touches, so a
/// long-running process scanning many seeds cannot grow without bound;
/// [`clear_artifact_caches`] drops everything explicitly. Cache traffic
/// and the entry-count high-water mark report through [`rdo_obs`] under
/// `bench.model_cache.*`.
static MODEL_CACHE: LazyLock<ArtifactCache<String, TrainedModel>> = LazyLock::new(|| {
    ArtifactCache::new(
        32,
        CacheStats {
            hit: "bench.model_cache.hit",
            miss: "bench.model_cache.miss",
            evict: "bench.model_cache.evict",
            size_hwm: "bench.model_cache.size_hwm",
        },
    )
});

/// Per-process cache of analytic device LUTs. The paper codec is a pure
/// function of the cell kind and the analytic LUT a pure function of
/// (codec, device model), so `(cell, model fingerprint)` identifies the
/// table exactly — the fingerprint covers the model's identity *and* its
/// parameters, σ included. Grid points sharing a (cell, model, σ) triple
/// — every m-sweep in Fig. 5 — reuse one table instead of rebuilding it
/// per point. Bounded (FIFO) at 64 tables; traffic reports under
/// `bench.lut.*`.
static LUT_CACHE: LazyLock<ArtifactCache<(CellKind, u64), DeviceLut>> = LazyLock::new(|| {
    ArtifactCache::new(
        64,
        CacheStats {
            hit: "bench.lut.hit",
            miss: "bench.lut.miss",
            evict: "bench.lut.evict",
            size_hwm: "bench.lut.size_hwm",
        },
    )
});

/// Drops every entry of the in-process artifact caches (trained models
/// and device LUTs). Outstanding `Arc`s stay valid; the next lookup per
/// key rebuilds. The explicit lifecycle hook for long-running hosts that
/// prefer deterministic reclamation over FIFO eviction.
pub fn clear_artifact_caches() {
    MODEL_CACHE.clear();
    LUT_CACHE.clear();
}

/// Returns the analytic [`DeviceLut`] for the given device-model spec at
/// `(cell, sigma)`, building it at most once per process per
/// `(cell, fingerprint)` key.
///
/// Concurrent first calls for the same key may both build the table; the
/// race is benign because the analytic construction is deterministic and
/// the cache keeps exactly one copy.
///
/// # Errors
///
/// Propagates LUT construction errors.
pub fn shared_lut_model(
    cell: CellKind,
    sigma: f64,
    spec: DeviceModelSpec,
) -> Result<Arc<DeviceLut>> {
    let model = spec.build(sigma);
    let key = (cell, model.fingerprint());
    LUT_CACHE.get_or_build(key, || {
        let codec = WeightCodec::paper(CellTechnology::paper(cell));
        DeviceLut::analytic(&*model, &codec).map_err(BenchError::from)
    })
}

/// [`shared_lut_model`] for the default paper lognormal model.
///
/// # Errors
///
/// Propagates LUT construction errors.
pub fn shared_lut(cell: CellKind, sigma: f64) -> Result<Arc<DeviceLut>> {
    shared_lut_model(cell, sigma, DeviceModelSpec::PaperLognormal)
}

/// Looks up `cache_key` in the in-process model cache, running `build`
/// (training or checkpoint load) only on a miss. Same benign-race
/// contract as [`shared_lut`]: `build` is deterministic for a fixed key.
/// Public so hosts with their own training recipes (and the cache
/// concurrency tests) share the same bounded cache the `prepare_*`
/// helpers use.
pub fn cached_model<F>(cache_key: &str, build: F) -> Result<Arc<TrainedModel>>
where
    F: FnOnce() -> Result<TrainedModel>,
{
    MODEL_CACHE.get_or_build(cache_key.to_string(), build)
}

/// Saves every state tensor of a network bit for bit: a little-endian
/// `u64` tensor count, one `u64` length per tensor, then every tensor's
/// values as little-endian `f32`.
fn save_checkpoint(net: &mut Sequential, path: &PathBuf) -> Result<()> {
    let state = net.state();
    let mut bytes = (state.len() as u64).to_le_bytes().to_vec();
    bytes.extend(state.iter().flat_map(|t| (t.len() as u64).to_le_bytes()));
    bytes.extend(state.iter().flat_map(|t| t.data().iter().flat_map(|v| v.to_le_bytes())));
    fs::write(path, bytes)?;
    Ok(())
}

/// Loads a checkpoint if present and its header matches the network's
/// state tensors exactly. A short, oversized or mismatched file leaves
/// the network untouched and returns `false`.
fn load_checkpoint(net: &mut Sequential, path: &PathBuf) -> bool {
    let Ok(bytes) = fs::read(path) else { return false };
    let mut targets = net.state();
    let Some((header, body)) = bytes.split_at_checked(8 * (1 + targets.len())) else {
        return false;
    };
    let mut words =
        header.chunks_exact(8).map(|w| u64::from_le_bytes(w.try_into().expect("8 bytes")));
    if words.next() != Some(targets.len() as u64)
        || !targets.iter().zip(words).all(|(t, n)| t.len() as u64 == n)
        || body.len() != 4 * targets.iter().map(|t| t.len()).sum::<usize>()
    {
        return false;
    }
    let floats = body.chunks_exact(4).map(|v| f32::from_le_bytes(v.try_into().expect("4 bytes")));
    for (dst, v) in targets.iter_mut().flat_map(|t| t.data_mut().iter_mut()).zip(floats) {
        *dst = v;
    }
    true
}

/// The training-time record kept beside a checkpoint: `{key}.train_s`.
fn train_time_path(checkpoint: &Path) -> PathBuf {
    checkpoint.with_extension("train_s")
}

/// Records the measured training time beside its checkpoint, as decimal
/// seconds.
fn save_train_time(checkpoint: &Path, time: Duration) -> Result<()> {
    fs::write(train_time_path(checkpoint), format!("{}\n", time.as_secs_f64()))?;
    Ok(())
}

/// The training time recorded beside a checkpoint; `None` when the record
/// is missing or is not a finite, non-negative number of seconds.
fn load_train_time(checkpoint: &Path) -> Option<Duration> {
    let text = fs::read_to_string(train_time_path(checkpoint)).ok()?;
    Duration::try_from_secs_f64(text.trim().parse().ok()?).ok()
}

fn train_or_load(
    name: &str,
    cache_key: &str,
    mut net: Sequential,
    train: Dataset,
    test: Dataset,
    tc: &TrainConfig,
) -> Result<TrainedModel> {
    let _span = rdo_obs::span_with("bench.train_or_load", || cache_key.to_string());
    let path = cache_dir().join(format!("{cache_key}.ckpt"));
    let start = Instant::now();
    let train_time = if load_checkpoint(&mut net, &path) {
        eprintln!("[{name}] loaded checkpoint {}", path.display());
        load_train_time(&path).unwrap_or_default()
    } else {
        eprintln!("[{name}] training ({} samples, {} epochs)…", train.len(), tc.epochs);
        fit(&mut net, train.images(), train.labels(), tc)?;
        let train_time = start.elapsed();
        save_checkpoint(&mut net, &path)?;
        save_train_time(&path, train_time)?;
        train_time
    };
    let ideal_accuracy = evaluate(&mut net, test.images(), test.labels(), 64)?;
    eprintln!("[{name}] ideal accuracy {:.2}%", 100.0 * ideal_accuracy);
    let grads = mean_core_gradients(&mut net, train.images(), train.labels(), 64)?;
    Ok(TrainedModel { name: name.to_string(), net, train, test, ideal_accuracy, grads, train_time })
}

/// Prepares the LeNet + digits workload (the paper's LeNet + MNIST).
///
/// # Errors
///
/// Propagates dataset/training errors.
pub fn prepare_lenet(cfg: &BenchConfig) -> Result<Arc<TrainedModel>> {
    let seed = cfg.seed;
    let (per_class, epochs) = match cfg.scale {
        Scale::Fast => (120, 12),
        Scale::Paper => (300, 20),
    };
    let cache_key = format!("lenet_{per_class}_{epochs}_{seed}");
    cached_model(&cache_key, || {
        let ds = generate_digits(&DigitsConfig { per_class, seed, ..Default::default() })?;
        let (train, test) = ds.split(2.0 / 3.0)?;
        let net = LeNetConfig::classic().build(&mut seeded_rng(seed.wrapping_add(1)))?;
        let tc = TrainConfig { epochs, lr: 0.08, weight_decay: 0.0, seed, ..Default::default() };
        train_or_load("LeNet", &cache_key, net, train, test, &tc)
    })
}

/// Prepares the ResNet-18 + textures workload (the paper's ResNet-18 +
/// CIFAR-10).
///
/// # Errors
///
/// Propagates dataset/training errors.
pub fn prepare_resnet(cfg: &BenchConfig) -> Result<Arc<TrainedModel>> {
    let seed = cfg.seed;
    let (per_class, hw, width, epochs) = match cfg.scale {
        Scale::Fast => (120, 16, 8, 6),
        Scale::Paper => (300, 32, 16, 10),
    };
    let cache_key = format!("resnet_{per_class}_{hw}_{width}_{epochs}_{seed}");
    cached_model(&cache_key, || {
        let ds = generate_textures(&TexturesConfig { per_class, hw, seed, ..Default::default() })?;
        let (train, test) = ds.split(2.0 / 3.0)?;
        let net =
            ResNetConfig::resnet18_scaled(width).build(&mut seeded_rng(seed.wrapping_add(2)))?;
        let tc = TrainConfig { epochs, lr: 0.05, seed, ..Default::default() };
        train_or_load("ResNet-18", &cache_key, net, train, test, &tc)
    })
}

/// Prepares the VGG-16 + textures workload (the paper's Table III
/// VGG-16 + CIFAR-10).
///
/// # Errors
///
/// Propagates dataset/training errors.
pub fn prepare_vgg(cfg: &BenchConfig) -> Result<Arc<TrainedModel>> {
    let seed = cfg.seed;
    let (per_class, hw, divisor, epochs) = match cfg.scale {
        Scale::Fast => (120, 16, 8, 6),
        Scale::Paper => (300, 32, 4, 10),
    };
    let cache_key = format!("vgg_{per_class}_{hw}_{divisor}_{epochs}_{seed}");
    cached_model(&cache_key, || {
        let ds = generate_textures(&TexturesConfig {
            per_class,
            hw,
            seed: seed.wrapping_add(7),
            ..Default::default()
        })?;
        let (train, test) = ds.split(2.0 / 3.0)?;
        let net =
            VggConfig::vgg16_scaled(divisor, hw).build(&mut seeded_rng(seed.wrapping_add(3)))?;
        let tc = TrainConfig { epochs, lr: 0.05, seed, ..Default::default() };
        train_or_load("VGG-16", &cache_key, net, train, test, &tc)
    })
}

/// Maps and evaluates one grid point over programming cycles — one bar
/// of Fig. 5 (under whatever device model the point selects).
///
/// # Errors
///
/// Propagates mapping/evaluation errors.
pub fn run_point(
    model: &TrainedModel,
    point: GridPoint,
    eval_cfg: &CycleEvalConfig,
) -> Result<CycleEvaluation> {
    let mut mapped = map_point(model, point)?;
    let tune = (model.train.images(), model.train.labels());
    Ok(evaluate_cycles(
        &mut mapped,
        Some(tune),
        model.test.images(),
        model.test.labels(),
        eval_cfg,
    )?)
}

/// One point of a (method, model, cell, σ, m) sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridPoint {
    /// Mapping method.
    pub method: Method,
    /// Cell kind (SLC / 2-bit MLC).
    pub cell: CellKind,
    /// Variation σ (the paper's lognormal σ; other zoo members scale
    /// their noise parameters from it).
    pub sigma: f64,
    /// Offset sharing granularity m.
    pub m: usize,
    /// Device model for this point; `None` inherits
    /// [`BenchConfig::device_model`] when run through [`run_grid`] (and
    /// means the paper default when run directly via [`run_point`]).
    pub model: Option<DeviceModelSpec>,
}

impl GridPoint {
    /// A point with no pinned device model (inherits the config's).
    pub fn new(method: Method, cell: CellKind, sigma: f64, m: usize) -> Self {
        GridPoint { method, cell, sigma, m, model: None }
    }

    /// Pins a device-model zoo member on this point (overrides the
    /// config's choice).
    #[must_use]
    pub fn with_model(mut self, model: DeviceModelSpec) -> Self {
        self.model = Some(model);
        self
    }
}

/// An ordered set of [`GridPoint`]s — what [`run_grid`] sweeps.
///
/// Build one as the cartesian [`product`](GridSpec::product) of per-axis
/// values, or from an explicit point slice (`&[GridPoint]` converts
/// [`Into`] it; [`GridPoint::with_model`] pins a device model). Order is
/// load-bearing: results come back in point order and the figure binaries
/// index them positionally.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GridSpec {
    points: Vec<GridPoint>,
}

impl GridSpec {
    /// The cartesian product of the four axes, nested method → cell →
    /// σ → m (m innermost — the row-major layout every Fig. 5 binary
    /// indexes into). Points carry no pinned device model, so the sweep
    /// follows [`BenchConfig::device_model`].
    pub fn product(methods: &[Method], cells: &[CellKind], sigmas: &[f64], ms: &[usize]) -> Self {
        let mut points = Vec::with_capacity(methods.len() * cells.len() * sigmas.len() * ms.len());
        for &method in methods {
            for &cell in cells {
                for &sigma in sigmas {
                    for &m in ms {
                        points.push(GridPoint::new(method, cell, sigma, m));
                    }
                }
            }
        }
        GridSpec { points }
    }

    /// The points, in sweep order.
    pub fn points(&self) -> &[GridPoint] {
        &self.points
    }
}

impl From<&[GridPoint]> for GridSpec {
    fn from(points: &[GridPoint]) -> Self {
        GridSpec { points: points.to_vec() }
    }
}

/// Runs `f` over `items` on up to `threads` worker threads (0 = the
/// `RDO_THREADS` knob / available parallelism), returning results in item
/// order and the first error (by item order within each worker batch) if
/// any point fails.
///
/// This is the generic engine behind [`run_grid`]; the ablation binaries
/// use it directly for sweeps whose points are not plain
/// (method, cell, σ, m) tuples. Each item runs under a
/// `bench.grid_item` span labelled with its index.
///
/// # Errors
///
/// Propagates the first failing point's error.
pub fn run_items<I, O, F>(items: &[I], threads: usize, f: F) -> Result<Vec<O>>
where
    I: Sync,
    O: Send,
    F: Fn(&I) -> Result<O> + Sync,
{
    let threads = resolve_threads(threads).clamp(1, items.len().max(1));
    parallel_map_indexed(items.len(), threads, |i| {
        let _span = rdo_obs::span_with("bench.grid_item", || format!("item{i}"));
        f(&items[i])
    })
    .into_iter()
    .collect()
}

/// Evaluates every point of `spec` concurrently (§IV protocol per
/// point), returning one [`CycleEvaluation`] per point in spec order.
///
/// Accepts anything convertible into a [`GridSpec`] — a point list, an
/// iterator of points, or a [`GridSpec::product`]. When more than one
/// worker is available the per-point cycle loop is forced serial
/// (`threads = 1`) so the grid level owns the parallelism — points
/// outnumber cycles in every Fig. 5 sweep and never contend for the same
/// caches. Results are identical to a serial sweep either way.
///
/// # Errors
///
/// Propagates the first failing point's error.
pub fn run_grid(
    model: &TrainedModel,
    spec: impl Into<GridSpec>,
    cfg: &BenchConfig,
) -> Result<Vec<CycleEvaluation>> {
    let spec = spec.into();
    let points = spec.points();
    let threads = resolve_threads(cfg.threads).clamp(1, points.len().max(1));
    let mut eval = cfg.eval_cfg();
    if threads > 1 {
        eval.threads = 1;
    }
    run_items(points, cfg.threads, |p| {
        // an explicit per-point model wins; otherwise the config's choice
        // (so RDO_DEVICE_MODEL reaches four-axis sweeps too)
        let resolved = p.model.unwrap_or(cfg.device_model);
        let _span = rdo_obs::span_with("bench.grid_point", || match resolved {
            DeviceModelSpec::PaperLognormal => {
                format!("{}/{:?}/s{}/m{}", p.method, p.cell, p.sigma, p.m)
            }
            other => format!("{}/{:?}/s{}/m{}/{}", p.method, p.cell, p.sigma, p.m, other),
        });
        run_point(model, p.with_model(resolved), &eval)
    })
}

/// Builds a mapped (unprogrammed) network for one grid point — for
/// read-power and similar static studies, and the mapping stage of
/// [`run_point`]. The point's device model (default: paper lognormal)
/// selects both the programming law and the analytic LUT that VAWO/PWT
/// compensate against.
///
/// # Errors
///
/// Propagates mapping errors.
pub fn map_point(model: &TrainedModel, point: GridPoint) -> Result<MappedNetwork> {
    let spec = point.model.unwrap_or_default();
    let cfg = OffsetConfig::with_device(point.cell, point.sigma, point.m, spec)?;
    let lut = shared_lut_model(point.cell, point.sigma, spec)?;
    let grads = if point.method.uses_vawo() { Some(model.grads.as_slice()) } else { None };
    Ok(MappedNetwork::map(&model.net, point.method, &cfg, &lut, grads)?)
}

/// Writes a pre-formatted JSON document to `results/<name>.json`: the
/// figure/table records, which hand-format their JSON so numbers keep
/// their exact printed form, and the `BENCH_*.json` performance records,
/// which [`record::BenchRecord::to_json`] formats.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_bench_record(name: &str, json: &str) -> Result<()> {
    let dir = PathBuf::from("results");
    fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.json"));
    fs::write(&path, json)?;
    eprintln!("[{name}] wrote {}", path.display());
    Ok(())
}

/// Formats an accuracy as the paper prints them.
pub fn pct(a: f32) -> String {
    format!("{:.2}%", 100.0 * a)
}

/// One-stop import for the figure/table binaries and downstream code:
/// every harness type and entry point plus the method/cell enums the
/// grid axes are made of.
pub mod prelude {
    pub use crate::env::{help_table, knobs, Knob};
    pub use crate::lifetime_harness::{lifetime_report, LifetimeBenchConfig};
    pub use crate::record::{BenchRecord, BenchRow};
    pub use crate::serve_harness::{paper_shape_snapshot, serve_report, ServeBenchConfig};
    pub use crate::{
        cached_model, clear_artifact_caches, map_point, pct, prepare_lenet, prepare_resnet,
        prepare_vgg, run_grid, run_items, run_point, shared_lut, shared_lut_model,
        write_bench_record, BenchConfig, BenchConfigBuilder, BenchError, GridPoint, GridSpec,
        Result, Scale, TrainedModel,
    };
    pub use rdo_core::Method;
    pub use rdo_rram::{CellKind, DeviceModelSpec, DiffBase};
    pub use rdo_serve::{
        LifetimeConfig, LifetimeEngine, MaintenancePolicy, ModelSnapshot, ServeConfig, ServeEngine,
        SyntheticTraffic,
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_match_paper() {
        let cfg = BenchConfig::default();
        assert_eq!(cfg.scale, Scale::Fast);
        assert_eq!(cfg.cycles, 5);
        assert_eq!(cfg.seed, 0);
        assert_eq!(cfg.pwt_epochs, 5);
        assert_eq!(cfg.threads, 0);
        assert_eq!(cfg.sigma, 0.5);
        assert_eq!(cfg.device_model, DeviceModelSpec::PaperLognormal);
    }

    #[test]
    fn config_builder_chains() {
        let cfg = BenchConfig::builder()
            .scale(Scale::Paper)
            .cycles(3)
            .seed(7)
            .pwt_epochs(2)
            .threads(4)
            .sigma(0.8)
            .device_model(DeviceModelSpec::drift_relax_default())
            .build();
        assert_eq!(cfg.scale, Scale::Paper);
        assert_eq!(cfg.device_model, DeviceModelSpec::drift_relax_default());
        assert_eq!(cfg.cycles, 3);
        assert_eq!(cfg.seed, 7);
        assert_eq!(cfg.pwt_epochs, 2);
        assert_eq!(cfg.threads, 4);
        assert_eq!(cfg.sigma, 0.8);
        let eval = cfg.eval_cfg();
        assert_eq!(eval.cycles, 3);
        assert_eq!(eval.seed, 7);
        assert_eq!(eval.pwt.epochs, 2);
        assert_eq!(eval.threads, 4);
    }

    #[test]
    fn grid_spec_product_nests_m_innermost() {
        let spec = GridSpec::product(
            &[Method::Plain, Method::Vawo],
            &[CellKind::Slc],
            &[0.3, 0.5],
            &[16, 64],
        );
        let p = spec.points();
        assert_eq!(p.len(), 8);
        // row-major: method outermost, then σ, then m
        assert_eq!((p[0].method, p[0].sigma, p[0].m), (Method::Plain, 0.3, 16));
        assert_eq!((p[1].method, p[1].sigma, p[1].m), (Method::Plain, 0.3, 64));
        assert_eq!((p[2].method, p[2].sigma, p[2].m), (Method::Plain, 0.5, 16));
        assert_eq!((p[4].method, p[4].sigma, p[4].m), (Method::Vawo, 0.3, 16));
        // four-axis products never pin a model (they inherit the config's)
        assert!(p.iter().all(|pt| pt.model.is_none()));
        // the slice conversion agrees
        assert_eq!(GridSpec::from(p), spec);
        // an explicit point pins its model
        let model = DeviceModelSpec::drift_relax_default();
        assert_eq!(p[0].with_model(model).model, Some(model));
    }

    #[test]
    fn bench_error_wraps_and_matches() {
        let e: BenchError = CoreError::InvalidConfig("boom".to_string()).into();
        assert!(matches!(e, BenchError::Core(_)));
        assert!(e.to_string().contains("boom"));
        let io: BenchError = std::io::Error::new(std::io::ErrorKind::NotFound, "missing").into();
        assert!(matches!(io, BenchError::Io(_)));
        use std::error::Error as _;
        assert!(io.source().is_some());
        let nn: BenchError = NnError::LabelMismatch { batch: 1, labels: 2 }.into();
        assert!(matches!(nn, BenchError::Nn(_)));
    }

    #[test]
    fn run_items_preserves_order_and_propagates_errors() {
        let items = [1usize, 2, 3, 4, 5];
        let out = run_items(&items, 3, |&i| Ok(i * 10)).unwrap();
        assert_eq!(out, vec![10, 20, 30, 40, 50]);
        let err = run_items(&items, 3, |&i| {
            if i == 3 {
                Err(BenchError::Core(CoreError::InvalidConfig("bad point".into())))
            } else {
                Ok(i)
            }
        });
        assert!(matches!(err, Err(BenchError::Core(_))));
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.9137), "91.37%");
    }

    #[test]
    fn shared_lut_caches_and_matches_direct() {
        let a = shared_lut(CellKind::Slc, 0.37).unwrap();
        let b = shared_lut(CellKind::Slc, 0.37).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same (cell, σ) key must share one LUT");
        let other_cell = shared_lut(CellKind::Mlc2, 0.37).unwrap();
        assert!(!Arc::ptr_eq(&a, &other_cell));
        let other_sigma = shared_lut(CellKind::Slc, 0.38).unwrap();
        assert!(!Arc::ptr_eq(&a, &other_sigma));
        let other_model =
            shared_lut_model(CellKind::Slc, 0.37, DeviceModelSpec::level_default()).unwrap();
        assert!(!Arc::ptr_eq(&a, &other_model), "fingerprint must separate zoo members");
        let codec = WeightCodec::paper(CellTechnology::paper(CellKind::Slc));
        let direct =
            DeviceLut::analytic(&rdo_rram::VariationModel::per_weight(0.37), &codec).unwrap();
        for v in 0..256u32 {
            assert_eq!(a.mean(v).to_bits(), direct.mean(v).to_bits());
            assert_eq!(a.var(v).to_bits(), direct.var(v).to_bits());
        }
    }

    #[test]
    fn cached_model_builds_once_per_key() {
        use rdo_nn::Linear;
        use std::sync::atomic::{AtomicUsize, Ordering};
        let builds = AtomicUsize::new(0);
        let tiny = |builds: &AtomicUsize| {
            builds.fetch_add(1, Ordering::SeqCst);
            let mut net = Sequential::new();
            net.push(Linear::new(4, 2, &mut seeded_rng(5)));
            let images = Tensor::from_fn(&[2, 1, 2, 2], |i| 0.1 * i as f32);
            let train = Dataset::new(images.clone(), vec![0, 1], 2)?;
            let test = Dataset::new(images, vec![0, 1], 2)?;
            Ok(TrainedModel {
                name: "tiny".to_string(),
                net,
                train,
                test,
                ideal_accuracy: 0.5,
                grads: Vec::new(),
                train_time: Duration::ZERO,
            })
        };
        let a = cached_model("test_cached_model_key", || tiny(&builds)).unwrap();
        let b = cached_model("test_cached_model_key", || tiny(&builds)).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same key must share one model");
        assert_eq!(builds.load(Ordering::SeqCst), 1, "builder must run once per key");
        let c = cached_model("test_cached_model_key_2", || tiny(&builds)).unwrap();
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(builds.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn cache_counters_account_hits_and_misses() {
        use rdo_nn::Linear;
        rdo_obs::set_enabled(true);
        // Unique keys so concurrent tests can only inflate the deltas,
        // never deflate them: a fresh key must miss, a repeat must hit.
        let sigma = 0.123_456_789_f64;
        let misses0 = rdo_obs::snapshot().counters.get("bench.lut.miss").copied().unwrap_or(0);
        let a = shared_lut(CellKind::Slc, sigma).unwrap();
        let misses1 = rdo_obs::snapshot().counters.get("bench.lut.miss").copied().unwrap_or(0);
        assert!(misses1 > misses0, "first shared_lut call must count a miss");
        let hits0 = rdo_obs::snapshot().counters.get("bench.lut.hit").copied().unwrap_or(0);
        let b = shared_lut(CellKind::Slc, sigma).unwrap();
        let hits1 = rdo_obs::snapshot().counters.get("bench.lut.hit").copied().unwrap_or(0);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(hits1 > hits0, "repeated shared_lut call must count a hit");

        let tiny = || {
            let mut net = Sequential::new();
            net.push(Linear::new(4, 2, &mut seeded_rng(5)));
            let images = Tensor::from_fn(&[2, 1, 2, 2], |i| 0.1 * i as f32);
            let train = Dataset::new(images.clone(), vec![0, 1], 2)?;
            let test = Dataset::new(images, vec![0, 1], 2)?;
            Ok(TrainedModel {
                name: "tiny".to_string(),
                net,
                train,
                test,
                ideal_accuracy: 0.5,
                grads: Vec::new(),
                train_time: Duration::ZERO,
            })
        };
        let m0 = rdo_obs::snapshot().counters.get("bench.model_cache.miss").copied().unwrap_or(0);
        let a = cached_model("test_counter_key", tiny).unwrap();
        let m1 = rdo_obs::snapshot().counters.get("bench.model_cache.miss").copied().unwrap_or(0);
        assert!(m1 > m0, "first cached_model call must count a miss");
        let h0 = rdo_obs::snapshot().counters.get("bench.model_cache.hit").copied().unwrap_or(0);
        let b = cached_model("test_counter_key", tiny).unwrap();
        let h1 = rdo_obs::snapshot().counters.get("bench.model_cache.hit").copied().unwrap_or(0);
        assert!(Arc::ptr_eq(&a, &b));
        assert!(h1 > h0, "repeated cached_model call must count a hit");
    }

    /// A small network whose state holds batch-norm running statistics,
    /// every state tensor filled from `seed`.
    fn checkpoint_net(seed: u64, bn_channels: usize) -> Sequential {
        use rdo_nn::{BatchNorm2d, Linear};
        use rdo_tensor::rng::rand_uniform;
        let mut rng = seeded_rng(seed);
        let mut net = Sequential::new();
        net.push(Linear::new(3, 3, &mut rng));
        net.push(BatchNorm2d::new(bn_channels));
        for t in net.state() {
            *t = rand_uniform(t.dims(), -2.0, 2.0, &mut rng);
        }
        net
    }

    fn state_bits(net: &mut Sequential) -> Vec<Vec<u32>> {
        net.state().iter().map(|t| t.data().iter().map(|v| v.to_bits()).collect()).collect()
    }

    #[test]
    fn checkpoint_roundtrip() {
        let mut net = checkpoint_net(0, 3);
        // Linear weight, bias; BatchNorm gamma, beta, running mean, var
        assert_eq!(net.state().len(), 6);
        net.state()[4].data_mut()[1] = -0.0;
        let path = cache_dir().join("test_ckpt.ckpt");
        save_checkpoint(&mut net, &path).unwrap();
        let mut loaded = checkpoint_net(99, 3);
        assert!(load_checkpoint(&mut loaded, &path));
        assert_eq!(state_bits(&mut loaded), state_bits(&mut net));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn train_time_record_roundtrips_and_rejects_garbage() {
        let path = cache_dir().join("test_ckpt_time.ckpt");
        let record = train_time_path(&path);
        let _ = std::fs::remove_file(&record);
        assert_eq!(load_train_time(&path), None, "missing record");
        save_train_time(&path, Duration::from_millis(12_345)).unwrap();
        assert_eq!(load_train_time(&path), Some(Duration::from_millis(12_345)));
        for garbage in ["", "abc", "-1.5", "NaN", "inf", "1e400"] {
            std::fs::write(&record, garbage).unwrap();
            assert_eq!(load_train_time(&path), None, "{garbage:?}");
        }
        let _ = std::fs::remove_file(record);
    }

    #[test]
    fn incompatible_checkpoint_rejected() {
        let path = cache_dir().join("test_ckpt_bad.ckpt");
        save_checkpoint(&mut checkpoint_net(0, 3), &path).unwrap();
        let mut other_count = Sequential::new();
        other_count.push(rdo_nn::Linear::new(4, 4, &mut seeded_rng(0)));
        assert!(!load_checkpoint(&mut other_count, &path));
        assert!(!load_checkpoint(&mut checkpoint_net(0, 4), &path), "tensor lengths differ");

        let good = std::fs::read(&path).unwrap();
        let mut miscounted = good.clone();
        miscounted[..8].copy_from_slice(&5u64.to_le_bytes());
        let corrupt = [
            ("empty file", Vec::new()),
            ("short header", good[..12].to_vec()),
            ("short body", good[..good.len() - 1].to_vec()),
            ("trailing bytes", [good.as_slice(), &[0; 4]].concat()),
            ("count header", miscounted),
        ];
        let mut target = checkpoint_net(99, 3);
        let before = state_bits(&mut target);
        for (what, bytes) in corrupt {
            std::fs::write(&path, bytes).unwrap();
            assert!(!load_checkpoint(&mut target, &path), "{what}");
            assert_eq!(state_bits(&mut target), before, "{what}: network must stay untouched");
        }
        let _ = std::fs::remove_file(path);
    }
}
