//! The lifetime engine: device drift and online maintenance under live
//! traffic.
//!
//! A calibrated RRAM service does not stay calibrated: conductances
//! relax and drift over wall-clock time (the device-model zoo's
//! [`evolve`](rdo_rram::DeviceModel::evolve) hook, e.g. the drift-relax
//! model's `1 − ν·log₁₀(t)` state-proportional decay). [`LifetimeEngine`]
//! composes the three pieces this workspace already has into the
//! end-to-end scenario:
//!
//! 1. a [`ServeEngine`] keeps answering requests from the current
//!    immutable [`ModelSnapshot`] — traffic never pauses;
//! 2. a background **maintenance thread** owns the programmed
//!    [`MappedNetwork`] (its private copy — workers only ever see frozen
//!    snapshots), advances simulated device time step by step via
//!    [`MappedNetwork::evolve_devices`], and watches accuracy on the
//!    probe set the caller passes to [`LifetimeEngine::start`] — the
//!    same set it re-tunes on. That set is not held out: the lifetime
//!    harness (`rdo_bench::lifetime_harness`) passes the training split
//!    its initial tune also used, so probe accuracy is a training-set
//!    accuracy (ROADMAP.md, "Lifetime accuracy is scored on the data it
//!    tunes on");
//! 3. when the drop from the baseline accuracy exceeds the configured
//!    threshold, the selected [`MaintenancePolicy`] repairs the private
//!    copy — incremental PWT re-tuning ([`rdo_core::tune_incremental`])
//!    or selective re-programming of the worst-drifted crossbar columns
//!    ([`rdo_rram::column_deviation`] +
//!    [`MappedNetwork::reprogram_columns`]) — and the result is published
//!    atomically with [`SnapshotCell::swap`].
//!
//! Every published snapshot carries a monotonically increasing
//! [`generation`](ModelSnapshot::generation), and every
//! [`Response`](crate::Response) is tagged with the generation that
//! served it: in-flight requests never block on a swap, and each response
//! is attributable to exactly one published model version.
//!
//! The loop is instrumented under `serve.lifetime.*`: `step`/`probe`/
//! `retune` spans, `serve.lifetime.retunes`/`serve.lifetime.swaps`/
//! `serve.lifetime.reprogrammed_columns` counters, the
//! `serve.lifetime.generation` high-water mark and the
//! `serve.lifetime.probe_acc_bp` gauge (probe accuracy in basis points —
//! a gauge, not a counter, because drift makes it fall).

use std::fmt;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use rdo_core::{tune_incremental, MappedNetwork, PwtConfig, PwtScratch};
use rdo_rram::column_deviation;
use rdo_tensor::rng::seeded_rng;
use rdo_tensor::Tensor;

use crate::engine::{InferClient, ServeConfig, ServeEngine, ServeStats};
use crate::snapshot::{ModelSnapshot, SnapshotCell};
use crate::{Result, ServeError};

/// What the maintenance thread does when the degradation threshold trips.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MaintenancePolicy {
    /// Watch, but never repair — the control arm every lifetime curve is
    /// measured against.
    None,
    /// Warm-start incremental PWT on the probe set
    /// ([`rdo_core::tune_incremental`]): digital correction only, no
    /// programming pulses spent.
    #[default]
    PwtRetune,
    /// Re-program the worst-drifted fraction of each layer's crossbar
    /// columns with fresh devices
    /// ([`MappedNetwork::reprogram_columns`]), then re-tune the offsets
    /// against the re-written conductances — programming is never
    /// deployed untuned (the paper runs PWT after every programming
    /// cycle).
    SelectiveReprogram,
}

impl MaintenancePolicy {
    /// All policies, in the order the lifetime bench sweeps them.
    pub fn all() -> [MaintenancePolicy; 3] {
        [
            MaintenancePolicy::None,
            MaintenancePolicy::PwtRetune,
            MaintenancePolicy::SelectiveReprogram,
        ]
    }
}

impl fmt::Display for MaintenancePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            MaintenancePolicy::None => "none",
            MaintenancePolicy::PwtRetune => "pwt-retune",
            MaintenancePolicy::SelectiveReprogram => "selective-reprogram",
        })
    }
}

/// Configuration of one lifetime run. Build with
/// [`LifetimeConfig::builder()`].
#[derive(Debug, Clone)]
pub struct LifetimeConfig {
    /// Repair action when the threshold trips.
    pub policy: MaintenancePolicy,
    /// Number of evolve→probe→maybe-repair→publish steps.
    pub steps: usize,
    /// Per-step time ratio fed to [`MappedNetwork::evolve_devices`]
    /// (steps compose multiplicatively, so the nominal time axis after
    /// step `k` is `step_ratio^(k+1)`).
    pub step_ratio: f64,
    /// Accuracy drop from the baseline (fraction, e.g. `0.02` = 2 points)
    /// that triggers the policy.
    pub degradation_threshold: f64,
    /// Fraction of each layer's columns the selective-reprogram policy
    /// re-writes per repair (worst-drifted first).
    pub repair_fraction: f64,
    /// Pause before each step, letting traffic accumulate on the current
    /// generation (zero runs the lifetime as fast as it probes).
    pub step_interval: Duration,
    /// Hyper-parameters of the incremental re-tune.
    pub pwt: PwtConfig,
    /// RNG seed for re-programming draws.
    pub seed: u64,
    /// The serving engine under the lifetime loop.
    pub serve: ServeConfig,
}

impl Default for LifetimeConfig {
    fn default() -> Self {
        LifetimeConfig {
            policy: MaintenancePolicy::default(),
            steps: 6,
            step_ratio: 10.0,
            degradation_threshold: 0.02,
            repair_fraction: 0.25,
            step_interval: Duration::ZERO,
            pwt: PwtConfig::default(),
            seed: 0,
            serve: ServeConfig::default(),
        }
    }
}

impl LifetimeConfig {
    /// A builder starting from [`Default`], mirroring
    /// `BenchConfig::builder()` and [`ServeConfig::builder()`].
    pub fn builder() -> LifetimeConfigBuilder {
        LifetimeConfigBuilder { config: LifetimeConfig::default() }
    }

    fn validate(&self) -> Result<()> {
        if !self.step_ratio.is_finite() || self.step_ratio < 1.0 {
            return Err(ServeError::InvalidRequest(format!(
                "lifetime step_ratio must be >= 1, got {}",
                self.step_ratio
            )));
        }
        if !self.degradation_threshold.is_finite() || self.degradation_threshold < 0.0 {
            return Err(ServeError::InvalidRequest(format!(
                "degradation threshold must be non-negative, got {}",
                self.degradation_threshold
            )));
        }
        if !(self.repair_fraction > 0.0 && self.repair_fraction <= 1.0) {
            return Err(ServeError::InvalidRequest(format!(
                "repair fraction must be in (0, 1], got {}",
                self.repair_fraction
            )));
        }
        Ok(())
    }
}

/// Chainable builder for [`LifetimeConfig`]. Obtain via
/// [`LifetimeConfig::builder()`].
#[must_use]
#[derive(Debug, Clone)]
pub struct LifetimeConfigBuilder {
    config: LifetimeConfig,
}

impl LifetimeConfigBuilder {
    /// Repair action when the threshold trips.
    pub fn policy(mut self, policy: MaintenancePolicy) -> Self {
        self.config.policy = policy;
        self
    }

    /// Number of lifetime steps.
    pub fn steps(mut self, steps: usize) -> Self {
        self.config.steps = steps;
        self
    }

    /// Per-step evolve time ratio (must be ≥ 1).
    pub fn step_ratio(mut self, step_ratio: f64) -> Self {
        self.config.step_ratio = step_ratio;
        self
    }

    /// Accuracy drop from baseline that triggers the policy.
    pub fn degradation_threshold(mut self, threshold: f64) -> Self {
        self.config.degradation_threshold = threshold;
        self
    }

    /// Fraction of columns re-written per selective repair.
    pub fn repair_fraction(mut self, fraction: f64) -> Self {
        self.config.repair_fraction = fraction;
        self
    }

    /// Pause before each lifetime step.
    pub fn step_interval(mut self, interval: Duration) -> Self {
        self.config.step_interval = interval;
        self
    }

    /// Incremental re-tune hyper-parameters.
    pub fn pwt(mut self, pwt: PwtConfig) -> Self {
        self.config.pwt = pwt;
        self
    }

    /// RNG seed for re-programming draws.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Serving engine configuration.
    pub fn serve(mut self, serve: ServeConfig) -> Self {
        self.config.serve = serve;
        self
    }

    /// The finished configuration.
    pub fn build(self) -> LifetimeConfig {
        self.config
    }
}

/// One completed lifetime step.
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimeStep {
    /// Step index, from 0.
    pub index: usize,
    /// Cumulative nominal time ratio after this step
    /// (`step_ratio^(index+1)`).
    pub time_ratio: f64,
    /// Probe accuracy right after the drift, before any repair.
    pub accuracy_pre: f32,
    /// Probe accuracy of the snapshot published at the end of the step
    /// (equals `accuracy_pre` when no repair ran).
    pub accuracy: f32,
    /// Whether the policy acted this step.
    pub maintained: bool,
    /// Crossbar columns re-programmed this step (selective policy only).
    pub reprogrammed_columns: usize,
    /// Generation of the snapshot published at the end of this step.
    pub generation: u64,
}

/// Summary of one finished lifetime run.
#[derive(Debug, Clone, Default)]
pub struct LifetimeReport {
    /// Probe accuracy of the as-published generation-0 snapshot.
    pub baseline_accuracy: f32,
    /// One entry per completed step, in time order.
    pub steps: Vec<LifetimeStep>,
    /// Incremental re-tunes run.
    pub retunes: u64,
    /// Snapshots published (each step publishes exactly one).
    pub swaps: u64,
}

impl LifetimeReport {
    /// Probe accuracy of the last published snapshot (the baseline if no
    /// step ran).
    pub fn final_accuracy(&self) -> f32 {
        self.steps.last().map_or(self.baseline_accuracy, |s| s.accuracy)
    }
}

/// A serving engine with a live maintenance loop — see the
/// [module docs](self).
pub struct LifetimeEngine {
    engine: ServeEngine,
    cell: Arc<SnapshotCell>,
    maintenance: JoinHandle<Result<LifetimeReport>>,
}

impl LifetimeEngine {
    /// Starts serving `mapped` (which must already be programmed — and
    /// typically tuned) and launches the maintenance thread.
    ///
    /// `probe_images`/`probe_labels` form the probe set the thread
    /// watches and, under either repair policy, re-tunes on. Nothing
    /// here holds it out: the lifetime harness passes the training split
    /// the network was first tuned on (see the [module docs](self));
    /// `name` and `sample_dims` describe the snapshot like
    /// [`ModelSnapshot::from_mapped`].
    ///
    /// # Errors
    ///
    /// Rejects invalid configurations, unprogrammed networks and probe
    /// shape mismatches; propagates snapshot-construction failures.
    pub fn start(
        mapped: MappedNetwork,
        probe_images: Tensor,
        probe_labels: Vec<usize>,
        name: &str,
        sample_dims: &[usize],
        config: LifetimeConfig,
    ) -> Result<Self> {
        config.validate()?;
        if probe_images.dims()[0] != probe_labels.len() {
            return Err(ServeError::InvalidRequest(format!(
                "{} probe images vs {} labels",
                probe_images.dims()[0],
                probe_labels.len()
            )));
        }
        let initial = Arc::new(ModelSnapshot::from_mapped(name, &mapped, sample_dims)?);
        let cell = Arc::new(SnapshotCell::new(initial));
        let engine = ServeEngine::start_with_cell(Arc::clone(&cell), config.serve);
        let thread_cell = Arc::clone(&cell);
        let name = name.to_string();
        let sample_dims = sample_dims.to_vec();
        let maintenance = std::thread::spawn(move || {
            maintenance_loop(
                mapped,
                probe_images,
                probe_labels,
                &name,
                &sample_dims,
                &config,
                &thread_cell,
            )
        });
        Ok(LifetimeEngine { engine, cell, maintenance })
    }

    /// A submission handle onto the live service.
    pub fn client(&self) -> InferClient {
        self.engine.client()
    }

    /// The hot-swap slot the maintenance thread publishes into.
    pub fn cell(&self) -> &Arc<SnapshotCell> {
        &self.cell
    }

    /// Waits for the maintenance thread to complete its steps, then shuts
    /// the serving engine down (draining every queued request) and
    /// returns the lifetime report together with the folded serving
    /// statistics.
    ///
    /// # Errors
    ///
    /// Propagates a maintenance-thread failure (the engine is still shut
    /// down cleanly first).
    pub fn finish(self) -> Result<(LifetimeReport, ServeStats)> {
        let outcome = self
            .maintenance
            .join()
            .unwrap_or_else(|_| Err(ServeError::Worker("maintenance thread panicked".into())));
        let stats = self.engine.shutdown();
        Ok((outcome?, stats))
    }
}

/// Probe accuracy of the private copy's current effective datapath.
fn probe_accuracy(
    mapped: &MappedNetwork,
    images: &Tensor,
    labels: &[usize],
    batch: usize,
) -> Result<f32> {
    let _span = rdo_obs::span("serve.lifetime.probe");
    let mut net = mapped.effective_network()?;
    let acc = rdo_nn::evaluate(&mut net, images, labels, batch)?;
    rdo_obs::gauge_set("serve.lifetime.probe_acc_bp", (f64::from(acc) * 10_000.0) as u64);
    Ok(acc)
}

/// The background maintenance loop: evolve → probe → maybe repair →
/// publish, `config.steps` times.
fn maintenance_loop(
    mut mapped: MappedNetwork,
    probe_images: Tensor,
    probe_labels: Vec<usize>,
    name: &str,
    sample_dims: &[usize],
    config: &LifetimeConfig,
    cell: &SnapshotCell,
) -> Result<LifetimeReport> {
    let batch = config.pwt.batch_size.max(1);
    let mut report = LifetimeReport {
        baseline_accuracy: probe_accuracy(&mapped, &probe_images, &probe_labels, batch)?,
        ..Default::default()
    };
    // per-layer as-programmed CRWs: the reference the selective policy
    // measures drift against (reset for re-written columns on repair)
    let mut crw_baselines: Vec<Tensor> = mapped
        .layers()
        .iter()
        .map(|l| {
            l.crw.clone().ok_or_else(|| {
                ServeError::InvalidRequest("network has not been programmed".to_string())
            })
        })
        .collect::<Result<_>>()?;
    let mut scratch = PwtScratch::new();
    let mut rng = seeded_rng(config.seed);
    let mut generation = cell.get().generation();
    let mut time_ratio = 1.0f64;
    for index in 0..config.steps {
        if !config.step_interval.is_zero() {
            std::thread::sleep(config.step_interval);
        }
        let _step = rdo_obs::span("serve.lifetime.step");
        mapped.evolve_devices(config.step_ratio)?;
        time_ratio *= config.step_ratio;
        let accuracy_pre = probe_accuracy(&mapped, &probe_images, &probe_labels, batch)?;
        let degraded =
            f64::from(report.baseline_accuracy - accuracy_pre) > config.degradation_threshold;
        let mut maintained = false;
        let mut reprogrammed_columns = 0usize;
        let mut accuracy = accuracy_pre;
        if degraded && config.policy != MaintenancePolicy::None {
            match config.policy {
                MaintenancePolicy::None => unreachable!(),
                MaintenancePolicy::PwtRetune => {
                    let _retune = rdo_obs::span("serve.lifetime.retune");
                    tune_incremental(
                        &mut mapped,
                        &probe_images,
                        &probe_labels,
                        &config.pwt,
                        &mut scratch,
                    )?;
                    report.retunes += 1;
                    rdo_obs::counter_add("serve.lifetime.retunes", 1);
                }
                MaintenancePolicy::SelectiveReprogram => {
                    let _retune = rdo_obs::span("serve.lifetime.retune");
                    for (li, baseline) in crw_baselines.iter_mut().enumerate() {
                        let crw = mapped.layers()[li].crw.as_ref().expect("programmed above");
                        let drift = column_deviation(baseline, crw)?;
                        let cols = drift.per_column.len();
                        let k =
                            ((cols as f64 * config.repair_fraction).ceil() as usize).clamp(1, cols);
                        let worst = drift.worst_columns(k);
                        mapped.reprogram_columns(li, &worst, &mut rng)?;
                        // fresh devices become the new drift reference
                        *baseline = mapped.layers()[li].crw.clone().expect("programmed above");
                        reprogrammed_columns += worst.len();
                    }
                    rdo_obs::counter_add(
                        "serve.lifetime.reprogrammed_columns",
                        reprogrammed_columns as u64,
                    );
                    // Programming is never deployed untuned in this
                    // workspace (the paper runs PWT after every
                    // programming cycle): the fresh columns carry new
                    // write errors the inherited offsets have never
                    // seen, so re-tune before publishing.
                    tune_incremental(
                        &mut mapped,
                        &probe_images,
                        &probe_labels,
                        &config.pwt,
                        &mut scratch,
                    )?;
                    report.retunes += 1;
                    rdo_obs::counter_add("serve.lifetime.retunes", 1);
                }
            }
            maintained = true;
            accuracy = probe_accuracy(&mapped, &probe_images, &probe_labels, batch)?;
        }
        generation += 1;
        let snapshot =
            ModelSnapshot::from_mapped(name, &mapped, sample_dims)?.with_generation(generation);
        cell.swap(Arc::new(snapshot));
        report.swaps += 1;
        rdo_obs::counter_add("serve.lifetime.swaps", 1);
        rdo_obs::counter_max("serve.lifetime.generation", generation);
        report.steps.push(LifetimeStep {
            index,
            time_ratio,
            accuracy_pre,
            accuracy,
            maintained,
            reprogrammed_columns,
            generation,
        });
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rdo_core::{tune, Method, OffsetConfig};
    use rdo_nn::{Linear, Relu, Sequential};
    use rdo_rram::{CellKind, DeviceLut, DeviceModelSpec, VariationModel};
    use rdo_tensor::rng::randn;

    fn drifting_mapped(nu: f64) -> (MappedNetwork, Tensor, Vec<usize>) {
        let mut rng = seeded_rng(5);
        let mut net = Sequential::new();
        net.push(Linear::new(10, 20, &mut rng));
        net.push(Relu::new());
        net.push(Linear::new(20, 4, &mut rng));
        let spec = DeviceModelSpec::DriftRelax { relax: 0.05, nu };
        let cfg = OffsetConfig::with_device(CellKind::Slc, 0.3, 16, spec).unwrap();
        let lut = DeviceLut::analytic(&VariationModel::per_weight(0.3), &cfg.codec).unwrap();
        let mut mapped = MappedNetwork::map(&net, Method::Pwt, &cfg, &lut, None).unwrap();
        mapped.program(&mut seeded_rng(1)).unwrap();
        let images = randn(&[64, 10], 0.0, 1.0, &mut seeded_rng(2));
        let labels: Vec<usize> = (0..64).map(|i| i % 4).collect();
        let pwt = PwtConfig { epochs: 2, ..Default::default() };
        tune(&mut mapped, &images, &labels, &pwt).unwrap();
        (mapped, images, labels)
    }

    #[test]
    fn policy_displays_as_its_record_name() {
        let names: Vec<String> = MaintenancePolicy::all().iter().map(|p| p.to_string()).collect();
        assert_eq!(names, ["none", "pwt-retune", "selective-reprogram"]);
    }

    #[test]
    fn builder_and_env_defaults_agree() {
        let built = LifetimeConfig::builder().build();
        assert_eq!(built.policy, MaintenancePolicy::PwtRetune);
        assert_eq!(built.steps, 6);
        assert_eq!(built.step_ratio, 10.0);
        let chained = LifetimeConfig::builder()
            .policy(MaintenancePolicy::SelectiveReprogram)
            .steps(3)
            .step_ratio(100.0)
            .degradation_threshold(0.01)
            .repair_fraction(0.5)
            .seed(9)
            .build();
        assert_eq!(chained.policy, MaintenancePolicy::SelectiveReprogram);
        assert_eq!(chained.steps, 3);
        assert_eq!(chained.seed, 9);
    }

    #[test]
    fn invalid_configs_are_rejected_at_start() {
        let (mapped, images, labels) = drifting_mapped(0.3);
        let bad = LifetimeConfig::builder().step_ratio(0.5).build();
        assert!(LifetimeEngine::start(
            mapped.clone(),
            images.clone(),
            labels.clone(),
            "t",
            &[10],
            bad
        )
        .is_err());
        let bad = LifetimeConfig::builder().repair_fraction(0.0).build();
        assert!(
            LifetimeEngine::start(mapped.clone(), images.clone(), labels, "t", &[10], bad).is_err()
        );
        let cfg = LifetimeConfig::builder().build();
        assert!(LifetimeEngine::start(mapped, images, vec![0; 3], "t", &[10], cfg).is_err());
    }

    #[test]
    fn lifetime_run_publishes_one_generation_per_step() {
        let (mapped, images, labels) = drifting_mapped(0.3);
        let cfg = LifetimeConfig::builder()
            .policy(MaintenancePolicy::None)
            .steps(3)
            .step_ratio(10.0)
            .build();
        let engine = LifetimeEngine::start(mapped, images, labels, "life", &[10], cfg).unwrap();
        let client = engine.client();
        let resp = client.submit(vec![0.0; 10]).unwrap().wait().unwrap();
        let (report, stats) = engine.finish().unwrap();
        assert_eq!(report.steps.len(), 3);
        assert_eq!(report.swaps, 3);
        assert_eq!(report.retunes, 0);
        // monotone time axis: 10, 100, 1000
        let times: Vec<f64> = report.steps.iter().map(|s| s.time_ratio).collect();
        assert_eq!(times, vec![10.0, 100.0, 1000.0]);
        // generations strictly increase, one per step
        let gens: Vec<u64> = report.steps.iter().map(|s| s.generation).collect();
        assert_eq!(gens, vec![1, 2, 3]);
        // the response we got was attributable to one published generation
        assert!(resp.generation <= 3);
        assert!(stats.requests >= 1);
    }

    #[test]
    fn retune_policy_repairs_a_degraded_network() {
        let (mapped, images, labels) = drifting_mapped(0.4);
        let pwt = PwtConfig { epochs: 2, ..Default::default() };
        let cfg = LifetimeConfig::builder()
            .policy(MaintenancePolicy::PwtRetune)
            .steps(2)
            .step_ratio(1000.0)
            .degradation_threshold(0.0)
            .pwt(pwt)
            .build();
        let engine = LifetimeEngine::start(mapped, images, labels, "life", &[10], cfg).unwrap();
        let (report, _) = engine.finish().unwrap();
        assert!(report.retunes >= 1, "strong drift at threshold 0 must trigger a re-tune");
        let repaired = report.steps.iter().find(|s| s.maintained).unwrap();
        assert!(
            repaired.accuracy >= repaired.accuracy_pre,
            "the best-loss safeguard must never publish a worse-than-inherited tune: \
             {} -> {}",
            repaired.accuracy_pre,
            repaired.accuracy
        );
    }

    #[test]
    fn selective_reprogram_rewrites_bounded_column_counts() {
        let (mapped, images, labels) = drifting_mapped(0.4);
        let total_cols: usize = mapped.layers().iter().map(|l| l.ctw.dims()[1]).sum();
        let cfg = LifetimeConfig::builder()
            .policy(MaintenancePolicy::SelectiveReprogram)
            .steps(2)
            .step_ratio(1000.0)
            .degradation_threshold(0.0)
            .repair_fraction(0.25)
            .build();
        let engine = LifetimeEngine::start(mapped, images, labels, "life", &[10], cfg).unwrap();
        let (report, _) = engine.finish().unwrap();
        let repaired: Vec<&LifetimeStep> = report.steps.iter().filter(|s| s.maintained).collect();
        assert!(!repaired.is_empty());
        for step in repaired {
            assert!(step.reprogrammed_columns > 0);
            assert!(
                step.reprogrammed_columns <= total_cols,
                "repair must stay a strict subset of the array"
            );
        }
    }
}
