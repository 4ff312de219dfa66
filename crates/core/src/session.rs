//! The high-level public API: pick an OS, an application, an algorithm,
//! and a budget; get a specialized configuration back.
//!
//! This is the programmatic equivalent of a Wayfinder job file: the
//! `examples/` directory exercises exactly this surface.

use crate::targets::{TargetInstance, TargetRegistry, TargetRequest};
use std::collections::VecDeque;
use std::fmt;
use std::path::Path;
use wf_deeptune::{Checkpoint, DeepTune, DeepTuneConfig};
use wf_drift::{DriftDetector, MeanShift, PageHinkley};
use wf_jobfile::{
    AlgorithmId, BackendChoice, DetectorId, Direction, DriftSpec, Focus, Job, Mode, ParamDecl, Pin,
    RoutingStrategy,
};
use wf_ossim::{AppId, DriftScenario, DriftSchedule, MetricDirection};
use wf_platform::{
    DriftConfig, EventSink, NullSink, Objective, RecordingSink, ReplayError, Session, SessionEvent,
    SessionSpec, SessionStore, SessionSummary, StoreError, StoredSession,
};
use wf_search::{BayesOpt, CausalSearch, GridSearch, RandomSearch, SamplePolicy, SearchAlgorithm};

/// The five paper targets, as a typed convenience over their registry
/// keywords. [`SessionBuilder::os`] is sugar for
/// [`SessionBuilder::target`] with [`OsFlavor::keyword`]; targets beyond
/// the paper's five are addressed by keyword through a
/// [`TargetRegistry`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OsFlavor {
    /// Linux v4.19 with a runtime-focused space (the §4.1 experiments).
    Linux419,
    /// Linux v6.0 with a runtime-focused space (the Table 1 kernel).
    Linux60,
    /// Linux v4.19 with boot-time *and* runtime parameters searchable.
    Linux419AllStages,
    /// RISC-V Linux v5.13 with a compile-time space (Fig. 10).
    LinuxRiscv,
    /// Unikraft building Nginx (Fig. 9).
    Unikraft,
}

impl OsFlavor {
    /// The job-file keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            OsFlavor::Linux419 => "linux-4.19",
            OsFlavor::Linux60 => "linux-6.0",
            OsFlavor::Linux419AllStages => "linux-4.19-all",
            OsFlavor::LinuxRiscv => "linux-riscv",
            OsFlavor::Unikraft => "unikraft",
        }
    }
}

/// Search-algorithm selection for the builder.
pub enum AlgorithmChoice {
    /// Random search baseline.
    Random,
    /// Grid search.
    Grid,
    /// Gaussian-process Bayesian optimization.
    Bayesian,
    /// Unicorn-style causal search.
    Causal,
    /// DeepTune (cold start).
    DeepTune,
    /// DeepTune warm-started from a transfer checkpoint (§3.3).
    DeepTuneTransfer(Checkpoint),
}

impl fmt::Debug for AlgorithmChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            AlgorithmChoice::Random => "Random",
            AlgorithmChoice::Grid => "Grid",
            AlgorithmChoice::Bayesian => "Bayesian",
            AlgorithmChoice::Causal => "Causal",
            AlgorithmChoice::DeepTune => "DeepTune",
            AlgorithmChoice::DeepTuneTransfer(_) => "DeepTune+TL",
        })
    }
}

/// Builder and registry errors, one variant per distinct failure so
/// callers (e.g. `wfctl`) can react to each case specifically.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BuildError {
    /// The `os:` keyword is not in the target registry.
    UnknownTarget {
        /// The keyword that failed to resolve.
        given: String,
        /// Every keyword the registry does know, sorted.
        known: Vec<String>,
    },
    /// The target does not know the requested application at all.
    UnknownApp {
        /// The target keyword.
        target: String,
        /// The application that failed to resolve.
        given: String,
        /// Applications the target supports.
        supported: Vec<String>,
    },
    /// The application exists but this target cannot run it.
    IncompatibleApp {
        /// The target keyword.
        target: String,
        /// The rejected application.
        app: String,
        /// Why the pairing is impossible.
        reason: String,
    },
    /// The job's `metric:` is neither the target's primary metric nor a
    /// derived objective.
    UnknownMetric {
        /// The metric that failed to resolve.
        given: String,
        /// The values that would have been accepted.
        valid: Vec<String>,
    },
    /// Neither an iteration nor a time budget was set.
    MissingBudget,
    /// A pinned parameter could not be applied to the space.
    BadPin {
        /// The underlying job-file error.
        message: String,
    },
    /// A target keyword was registered twice.
    DuplicateKeyword {
        /// The contested keyword.
        keyword: String,
    },
    /// The evaluation backend could not be constructed (e.g. remote
    /// workers failed to launch).
    Backend {
        /// The underlying launch failure.
        message: String,
    },
    /// Continuous mode was requested for a target without a simulated
    /// drift model (only `SimTarget`-backed targets can drift).
    ContinuousUnsupported {
        /// The target keyword.
        target: String,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::UnknownTarget { given, known } => {
                write!(
                    f,
                    "unknown target {given:?}; registered targets: {}",
                    known.join(", ")
                )
            }
            BuildError::UnknownApp {
                target,
                given,
                supported,
            } => write!(
                f,
                "unknown app {given:?} for target {target:?}; supported apps: {}",
                supported.join(", ")
            ),
            BuildError::IncompatibleApp {
                target,
                app,
                reason,
            } => {
                write!(
                    f,
                    "app {app:?} is incompatible with target {target:?}: {reason}"
                )
            }
            BuildError::UnknownMetric { given, valid } => {
                write!(
                    f,
                    "unknown metric {given:?}; valid values: {}",
                    valid.join(", ")
                )
            }
            BuildError::MissingBudget => f.write_str("a session needs an iteration or time budget"),
            BuildError::BadPin { message } => write!(f, "bad pin: {message}"),
            BuildError::Backend { message } => write!(f, "backend: {message}"),
            BuildError::DuplicateKeyword { keyword } => {
                write!(f, "target keyword {keyword:?} is already registered")
            }
            BuildError::ContinuousUnsupported { target } => {
                write!(
                    f,
                    "target {target:?} does not support continuous mode (no simulated drift model)"
                )
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// The runtime-space size a job gets when it names none (§3.4).
const DEFAULT_RUNTIME_PARAMS: usize = 200;

/// Materializes the target a job resolves to: the registry lookup, the
/// target's default app when `app:` is omitted, the runtime-space size,
/// the explicit `params:` space and the `pinned:` values. Returns the
/// resolved app keyword with the instance. [`SessionBuilder::build`] and
/// [`target_from_job`] both resolve targets here and nowhere else.
fn instantiate(
    job: &Job,
    registry: &TargetRegistry,
) -> Result<(String, TargetInstance), BuildError> {
    let factory = registry
        .get(&job.os)
        .ok_or_else(|| BuildError::UnknownTarget {
            given: job.os.clone(),
            known: registry.keywords(),
        })?;
    let app = job
        .app
        .clone()
        .unwrap_or_else(|| factory.default_app().to_string());
    let mut instance = factory.instantiate(&TargetRequest {
        app: app.clone(),
        runtime_params: job.runtime_params.unwrap_or(DEFAULT_RUNTIME_PARAMS),
    })?;
    if let Some(space) = job.param_space() {
        instance.target.install_space(space);
    }
    if !job.pinned.is_empty() {
        job.apply_pins(instance.target.space_mut())
            .map_err(|e| BuildError::BadPin {
                message: e.to_string(),
            })?;
    }
    Ok((app, instance))
}

/// Materializes just the evaluation target a job resolves to — explicit
/// space installed, pins applied — without constructing a session. This
/// is what a `wf-evald` worker process runs [`wf_platform::serve`]
/// against: the session ships its *resolved* job to every worker, and
/// each process rebuilds it through the same resolution step
/// [`SessionBuilder::build`] runs, so it evaluates on the exact target
/// the session dispatches to.
pub fn target_from_job(
    job: &Job,
    registry: &TargetRegistry,
) -> Result<Box<dyn wf_platform::EvalTarget>, BuildError> {
    instantiate(job, registry).map(|(_, instance)| instance.target)
}

/// The canonical `metric:` keyword of an objective: omitted for the
/// target's primary metric, `memory` or `score` otherwise.
fn metric_keyword(objective: Objective) -> Option<String> {
    match objective {
        Objective::Metric => None,
        Objective::MemoryMb => Some("memory".to_string()),
        Objective::ThroughputMemoryScore => Some("score".to_string()),
    }
}

/// Locates the `wf-evald` remote-worker binary: the `WF_EVALD`
/// environment variable when set (tests point it at a freshly built
/// binary), else a sibling of the current executable, else the bare
/// name resolved through `PATH` at spawn time.
fn locate_evald() -> std::path::PathBuf {
    // wf-lint: allow(host-env-read, reason = "config-load: WF_EVALD locates the worker binary once at backend construction; which binary serves a lane never affects results (DETERMINISM.md backend-invariance)")
    if let Some(path) = std::env::var_os("WF_EVALD") {
        return std::path::PathBuf::from(path);
    }
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|dir| dir.join("wf-evald")))
        .unwrap_or_else(|| std::path::PathBuf::from("wf-evald"))
}

/// Fluent session construction, resolved through a [`TargetRegistry`].
///
/// A builder is a [`Job`] plus what a job file cannot express: the
/// registry its `os:` keyword resolves against, a DeepTune transfer
/// checkpoint (§3.3) and DeepTune's hyperparameters. Every other setter
/// writes the job field a job file would set, so
/// [`SessionBuilder::from_job`] and the equivalent chain of setters hold
/// the same job, and [`SessionBuilder::build`] resolves it in one place.
/// The session's [`SpecializationSession::resolved_job`] is that job with
/// its defaults filled in.
///
/// # Examples
///
/// ```
/// use wayfinder_core::prelude::*;
///
/// let job = Job::parse("name: j\nos: linux-4.19\nalgorithm: random\nruntime_params: 56\nbudget:\n  iterations: 2\n")
///     .unwrap();
/// let from_file = SessionBuilder::from_job(&job).unwrap().workers(1).build().unwrap();
/// let by_hand = SessionBuilder::new()
///     .name("j")
///     .algorithm(AlgorithmChoice::Random)
///     .runtime_params(56)
///     .iterations(2)
///     .workers(1)
///     .build()
///     .unwrap();
/// assert_eq!(from_file.resolved_job(), by_hand.resolved_job());
/// assert_eq!(by_hand.resolved_job().app.as_deref(), Some("nginx"));
/// ```
pub struct SessionBuilder {
    /// The job being built; unset keys resolve to the target's defaults.
    job: Job,
    registry: TargetRegistry,
    /// The DeepTune warm start of [`AlgorithmChoice::DeepTuneTransfer`]
    /// (only ever set together with `algorithm: deeptune`).
    transfer: Option<Checkpoint>,
    deeptune: DeepTuneConfig,
}

impl Default for SessionBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SessionBuilder {
    /// Starts a builder with the paper's §4.1 defaults: Linux 4.19, the
    /// target's default app (Nginx), DeepTune, 250 iterations, and the
    /// built-in target registry.
    pub fn new() -> Self {
        SessionBuilder {
            job: Job {
                name: "session".to_string(),
                ..Job::default()
            },
            registry: TargetRegistry::builtin(),
            transfer: None,
            deeptune: DeepTuneConfig::default(),
        }
    }

    /// Names the session (used in reports and session-store manifests).
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.job.name = name.into();
        self
    }

    /// Selects one of the five paper targets (sugar for
    /// [`SessionBuilder::target`] with the flavor's keyword).
    pub fn os(self, os: OsFlavor) -> Self {
        self.target(os.keyword())
    }

    /// Selects the target by registry keyword. Unknown keywords surface
    /// as [`BuildError::UnknownTarget`] at [`SessionBuilder::build`].
    pub fn target(mut self, keyword: impl Into<String>) -> Self {
        self.job.os = keyword.into();
        self
    }

    /// Replaces the target registry (e.g. to add downstream scenarios).
    /// Defaults to [`TargetRegistry::builtin`].
    pub fn registry(mut self, registry: TargetRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// Selects one of the paper's benchmark applications.
    pub fn app(self, app: AppId) -> Self {
        self.app_named(app.label())
    }

    /// Selects the application by keyword, as a job file would. The
    /// target's factory resolves (or rejects) it at build time; when no
    /// app is chosen the target's default runs.
    pub fn app_named(mut self, app: impl Into<String>) -> Self {
        self.job.app = Some(app.into());
        self
    }

    /// Sets the job-file metric keyword: the target's primary metric
    /// (e.g. `throughput`), `memory`, or `score`. Anything else is
    /// rejected at build time; [`SessionBuilder::objective`] is the typed
    /// alternative, and whichever of the two was called last wins.
    pub fn metric(mut self, metric: impl Into<String>) -> Self {
        self.job.metric = Some(metric.into());
        self
    }

    /// Selects the search algorithm.
    pub fn algorithm(mut self, algorithm: AlgorithmChoice) -> Self {
        let (id, transfer) = match algorithm {
            AlgorithmChoice::Random => (AlgorithmId::Random, None),
            AlgorithmChoice::Grid => (AlgorithmId::Grid, None),
            AlgorithmChoice::Bayesian => (AlgorithmId::Bayesian, None),
            AlgorithmChoice::Causal => (AlgorithmId::Causal, None),
            AlgorithmChoice::DeepTune => (AlgorithmId::DeepTune, None),
            AlgorithmChoice::DeepTuneTransfer(ckpt) => (AlgorithmId::DeepTune, Some(ckpt)),
        };
        self.job.algorithm = id;
        self.transfer = transfer;
        self
    }

    /// Selects the objective (primary metric by default) by writing its
    /// canonical `metric:` keyword. Overrides any earlier
    /// [`SessionBuilder::metric`] / job-file `metric:` keyword —
    /// whichever of the two was called last wins.
    pub fn objective(mut self, objective: Objective) -> Self {
        self.job.metric = metric_keyword(objective);
        self
    }

    /// Sets the iteration budget.
    pub fn iterations(mut self, n: usize) -> Self {
        self.job.budget.iterations = Some(n);
        self
    }

    /// Sets the virtual-time budget in seconds (3-hour sessions in §4.4).
    pub fn time_budget_s(mut self, s: f64) -> Self {
        self.job.budget.time_seconds = Some(s);
        self
    }

    /// Seeds the session RNG.
    pub fn seed(mut self, seed: u64) -> Self {
        self.job.seed = seed;
        self
    }

    /// Benchmark repetitions per configuration.
    pub fn repetitions(mut self, reps: usize) -> Self {
        self.job.repetitions = reps.max(1);
        self
    }

    /// Simulated VM workers evaluating candidates concurrently (the wave
    /// width of the batch ask/tell loop). Defaults to `WF_WORKERS` from
    /// the environment, else 1.
    pub fn workers(mut self, workers: usize) -> Self {
        self.job.workers = Some(workers.clamp(1, 64));
        self
    }

    /// Selects where candidate evaluations execute: inline on the
    /// session's thread (the default) or `wf-evald` worker processes
    /// behind a socket.
    pub fn backend(mut self, backend: BackendChoice) -> Self {
        self.job.backend = backend;
        self
    }

    /// Selects the slot → lane routing strategy for wave dispatch
    /// (`random | fastest | round-robin | preferred`). Defaults to
    /// round-robin, which on healthy full-width waves is the identity
    /// assignment.
    pub fn routing(mut self, routing: RoutingStrategy) -> Self {
        self.job.routing = routing;
        self
    }

    /// Size of the probed runtime space for the Linux targets (§3.4).
    pub fn runtime_params(mut self, n: usize) -> Self {
        self.job.runtime_params = Some(n);
        self
    }

    /// Pins a parameter to a fixed value (§3.5 constrained search).
    pub fn pin(mut self, name: impl Into<String>, value: impl Into<String>) -> Self {
        self.job.pinned.push(Pin {
            name: name.into(),
            value: value.into(),
        });
        self
    }

    /// Restricts the search to one parameter stage (§3.5: "Wayfinder can
    /// also be instructed to favor varying certain parameter types ...
    /// useful, e.g., when the kernel to optimize cannot be rebooted").
    pub fn focus(mut self, focus: Focus) -> Self {
        self.job.focus = focus;
        self
    }

    /// Replaces the OS's own configuration space with an explicit one
    /// (§3.1: job files "representing the configuration space of the
    /// target OS"), written as the job's `params:`. Parameters the
    /// ground-truth models do not know are explored but inert, exactly
    /// like the real kernel's long tail.
    pub fn explicit_space(mut self, space: wf_configspace::ConfigSpace) -> Self {
        self.job.params = space
            .specs()
            .iter()
            .map(|spec| ParamDecl { spec: spec.clone() })
            .collect();
        self
    }

    /// Overrides DeepTune's hyperparameters.
    pub fn deeptune_config(mut self, cfg: DeepTuneConfig) -> Self {
        self.deeptune = cfg;
        self
    }

    /// Switches the session to continuous specialization: the workload
    /// drifts per `spec`, deployed-reference telemetry feeds a change
    /// detector, and a confirmed drift closes the epoch and re-seeds the
    /// search ([`wf_platform::Session::enable_drift`]). Only
    /// `SimTarget`-backed targets support this; others fail the build
    /// with [`BuildError::ContinuousUnsupported`].
    pub fn continuous(mut self, spec: DriftSpec) -> Self {
        self.job.drift = Some(spec);
        self.job.mode = Mode::Continuous;
        self
    }

    /// Builds the session from a parsed job file instead of builder
    /// calls: the builder holds a copy of `job`. Its `os:`, `app:`, and
    /// `metric:` keywords resolve against the registry at
    /// [`SessionBuilder::build`], so downstream targets registered via
    /// [`SessionBuilder::registry`] work from job files too.
    pub fn from_job(job: &Job) -> Result<SessionBuilder, BuildError> {
        let builder = SessionBuilder {
            job: job.clone(),
            ..SessionBuilder::new()
        };
        // The parser bounds both counts; a `Job` built in code gets the
        // setters' clamps.
        let builder = builder.repetitions(job.repetitions);
        Ok(match job.workers {
            Some(workers) => builder.workers(workers),
            None => builder,
        })
    }

    /// Resolves the job against the registry, materializes the target
    /// and policy, and builds the platform session.
    pub fn build(self) -> Result<SpecializationSession, BuildError> {
        let SessionBuilder {
            job,
            registry,
            transfer,
            deeptune,
        } = self;
        if job.budget.iterations.is_none() && job.budget.time_seconds.is_none() {
            return Err(BuildError::MissingBudget);
        }
        let (app, TargetInstance { target, policy }) = instantiate(&job, &registry)?;

        // §3.5 stage focus narrows the sampling policy.
        let policy = match (job.focus.stage(), policy) {
            (Some(stage), SamplePolicy::Uniform) => SamplePolicy::StageFocused(stage),
            (_, p) => p,
        };

        // `metric:` resolves against the target's descriptor. Unknown
        // strings are errors, never a silent fallback.
        let descriptor = target.descriptor();
        let objective = match job.metric.as_deref() {
            None => Objective::Metric,
            Some("memory") => Objective::MemoryMb,
            Some("score") => Objective::ThroughputMemoryScore,
            Some(m) if m == descriptor.metric => Objective::Metric,
            Some(m) => {
                let mut valid = vec![descriptor.metric.clone(), "memory".into(), "score".into()];
                valid.dedup();
                return Err(BuildError::UnknownMetric {
                    given: m.to_string(),
                    valid,
                });
            }
        };
        let direction = match (objective, descriptor.direction) {
            (Objective::MemoryMb, _) => Direction::Minimize,
            (_, MetricDirection::HigherBetter) => Direction::Maximize,
            (_, MetricDirection::LowerBetter) => Direction::Minimize,
        };
        let workers = job.workers.unwrap_or_else(wf_platform::default_workers);

        // The fully resolved job this session will run — what a session
        // store writes as its manifest: the input job with its defaults
        // filled in. `metric:` encodes the *objective* exactly (omitted =
        // the target's primary metric), so rebuilding the session from
        // the manifest reproduces this one bit for bit. A store's
        // manifest never points at an output directory or a daemon root:
        // the store already lives wherever it was created. A
        // transfer-learning warm start has no job-file form; its manifest
        // records a cold DeepTune, and a resume of such a store fails the
        // replay cross-check instead of silently diverging.
        let resolved = Job {
            app: Some(app),
            metric: metric_keyword(objective),
            direction,
            workers: Some(workers),
            runtime_params: Some(job.runtime_params.unwrap_or(DEFAULT_RUNTIME_PARAMS)),
            mode: if job.drift.is_some() {
                Mode::Continuous
            } else {
                Mode::OneShot
            },
            out: None,
            daemon: None,
            ..job
        };

        // Remote workers re-resolve the *resolved* job so every `wf-evald`
        // process materializes the exact target this session runs against.
        let remote = (resolved.backend == BackendChoice::Remote).then(|| wf_platform::RemoteSpec {
            command: locate_evald(),
            args: vec!["--job-inline".to_string(), resolved.to_yaml()],
        });
        let spec = SessionSpec {
            objective,
            direction,
            policy,
            budget: resolved.budget,
            repetitions: resolved.repetitions,
            seed: resolved.seed,
            workers,
            backend: resolved.backend,
            routing: resolved.routing,
            remote,
        };

        let algorithm: Box<dyn SearchAlgorithm> = match resolved.algorithm {
            AlgorithmId::Random => Box::new(RandomSearch::new()),
            AlgorithmId::Grid => Box::new(GridSearch::new(8)),
            AlgorithmId::Bayesian => Box::new(BayesOpt::new()),
            AlgorithmId::Causal => Box::new(CausalSearch::new()),
            AlgorithmId::DeepTune => {
                let mut cfg = deeptune;
                cfg.seed ^= resolved.seed;
                Box::new(match transfer {
                    Some(ckpt) => DeepTune::with_checkpoint(cfg, ckpt),
                    None => DeepTune::new(cfg),
                })
            }
        };
        let mut inner = Session::try_with_target(target, algorithm, spec)
            .map_err(|message| BuildError::Backend { message })?;

        // Continuous mode needs the simulated drift model behind the
        // target: the schedule is derived from the target's own SimOs +
        // App pair so its phases move the very optima the search chases.
        if let Some(drift) = &resolved.drift {
            let schedule = {
                let sim = inner
                    .target()
                    .as_any()
                    .downcast_ref::<wf_platform::SimTarget>()
                    .ok_or_else(|| BuildError::ContinuousUnsupported {
                        target: resolved.os.clone(),
                    })?;
                let kind = DriftScenario::parse(drift.scenario.keyword())
                    .expect("jobfile scenario keywords mirror wf-ossim's");
                DriftSchedule::scenario(kind, sim.os(), sim.app(), drift.shift_at_s)
            };
            let detector: Box<dyn DriftDetector> = match drift.detector {
                DetectorId::MeanShift => Box::new(MeanShift::new(drift.window, drift.threshold)),
                // window → warm-up; a quarter of the confirmation
                // threshold absorbs per-sample noise before mass accrues.
                DetectorId::PageHinkley => Box::new(PageHinkley::new(
                    drift.window,
                    drift.threshold * 0.25,
                    drift.threshold,
                )),
            };
            inner.enable_drift(DriftConfig {
                schedule,
                detector,
                min_epoch: drift.min_epoch,
                transfer: drift.transfer,
            });
        }

        Ok(SpecializationSession { inner, resolved })
    }

    /// Rebuilds a session from a store directory and replays its history,
    /// continuing exactly where the interrupted campaign stopped: the
    /// per-candidate RNG streams derive from `(seed, iteration)`, so
    /// *interrupted-then-resumed ≡ uninterrupted* holds for every
    /// registered target and algorithm (the end-to-end tests assert it).
    /// Uses the builtin registry; see [`SessionBuilder::resume_with`] for
    /// downstream targets.
    pub fn resume(dir: impl AsRef<Path>) -> Result<SpecializationSession, ResumeError> {
        SessionBuilder::resume_with(dir, TargetRegistry::builtin())
    }

    /// [`SessionBuilder::resume`] against a caller-provided registry
    /// (required when the stored job targets a downstream scenario).
    pub fn resume_with(
        dir: impl AsRef<Path>,
        registry: TargetRegistry,
    ) -> Result<SpecializationSession, ResumeError> {
        let store = SessionStore::open(dir)?;
        let loaded = store.load()?;
        let mut session = SessionBuilder::from_job(&loaded.job)?
            .registry(registry)
            .build()?;
        session.replay(&loaded)?;
        Ok(session)
    }
}

/// Why a session could not be resumed from a store directory.
#[derive(Debug)]
pub enum ResumeError {
    /// The store could not be opened or read.
    Store(StoreError),
    /// The manifest job does not build against the registry.
    Build(BuildError),
    /// The stored history does not replay into the rebuilt session.
    Replay(ReplayError),
}

impl fmt::Display for ResumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResumeError::Store(e) => write!(f, "store: {e}"),
            ResumeError::Build(e) => write!(f, "manifest does not build: {e}"),
            ResumeError::Replay(e) => write!(f, "history does not replay: {e}"),
        }
    }
}

impl std::error::Error for ResumeError {}

impl From<StoreError> for ResumeError {
    fn from(e: StoreError) -> Self {
        ResumeError::Store(e)
    }
}

impl From<BuildError> for ResumeError {
    fn from(e: BuildError) -> Self {
        ResumeError::Build(e)
    }
}

impl From<ReplayError> for ResumeError {
    fn from(e: ReplayError) -> Self {
        ResumeError::Replay(e)
    }
}

/// The outcome of a completed session.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The best configuration with its objective value, if any run
    /// succeeded.
    pub best: Option<(wf_configspace::Configuration, f64)>,
    /// Full summary statistics.
    pub summary: SessionSummary,
}

/// A running specialization session (facade over the platform session).
pub struct SpecializationSession {
    inner: Session,
    /// The fully resolved job (what a session-store manifest records).
    resolved: Job,
}

impl fmt::Debug for SpecializationSession {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpecializationSession")
            .field("target", self.inner.descriptor())
            .field("iterations", &self.inner.history().len())
            .finish_non_exhaustive()
    }
}

impl SpecializationSession {
    /// Runs to budget exhaustion.
    pub fn run(&mut self) -> Outcome {
        self.run_with(&mut NullSink)
    }

    /// Runs to budget exhaustion, streaming every [`SessionEvent`]
    /// through `sink` as it happens — `SessionStarted`, per-wave
    /// dispatch/candidate/new-best/completion events, `SessionFinished`.
    /// Outcomes are byte-for-byte those of [`SpecializationSession::run`]
    /// (which is exactly `run_with(&mut NullSink)`): sinks observe, never
    /// steer.
    pub fn run_with(&mut self, sink: &mut dyn EventSink) -> Outcome {
        let summary = self.inner.run_with(sink);
        Outcome {
            best: summary.best_config.clone().zip(summary.best_objective),
            summary,
        }
    }

    /// Like [`SpecializationSession::run_with`], but checks `should_stop`
    /// at every wave boundary and returns early when it answers `true`.
    /// The second element reports whether the budget ran to exhaustion;
    /// on an early stop no `SessionFinished` event is emitted, so a store
    /// fed from the sink remains resumable with zero lost waves.
    pub fn run_with_until(
        &mut self,
        sink: &mut dyn EventSink,
        should_stop: &mut dyn FnMut() -> bool,
    ) -> (Outcome, bool) {
        let (summary, completed) = self.inner.run_with_until(sink, should_stop);
        (
            Outcome {
                best: summary.best_config.clone().zip(summary.best_objective),
                summary,
            },
            completed,
        )
    }

    /// Iterator-style driver: each `next()` returns the next
    /// [`SessionEvent`], running one wave whenever its buffer drains, so
    /// callers observe progress without polling or callbacks. The stream
    /// ends after `SessionFinished`.
    ///
    /// ```
    /// use wayfinder_core::prelude::*;
    /// use wf_platform::SessionEvent;
    ///
    /// let mut session = SessionBuilder::new()
    ///     .algorithm(AlgorithmChoice::Random)
    ///     .runtime_params(56)
    ///     .iterations(4)
    ///     .build()
    ///     .unwrap();
    /// let evaluated = session
    ///     .drive()
    ///     .filter(|e| matches!(e, SessionEvent::CandidateEvaluated(_)))
    ///     .count();
    /// assert_eq!(evaluated, 4);
    /// assert!(session.done());
    /// ```
    pub fn drive(&mut self) -> Drive<'_> {
        Drive {
            session: self,
            queue: VecDeque::new(),
            state: DriveState::Fresh,
        }
    }

    /// The fully resolved job this session runs: target keyword, app,
    /// metric, algorithm, seed, workers, budgets. This is what
    /// [`wf_platform::SessionStore::create`] should receive as the
    /// manifest.
    pub fn resolved_job(&self) -> &Job {
        &self.resolved
    }

    /// Replays a loaded store into this freshly built session (see
    /// [`wf_platform::Session::replay`] for the exact guarantee). Callers
    /// normally use [`SessionBuilder::resume`], which wraps open → load →
    /// build → replay.
    pub fn replay(&mut self, stored: &StoredSession) -> Result<(), ReplayError> {
        self.inner.replay(&stored.records, &stored.wave_sizes)
    }

    /// Whether the budget is exhausted.
    pub fn done(&self) -> bool {
        self.inner.done()
    }

    /// The underlying platform session.
    pub fn platform(&self) -> &Session {
        &self.inner
    }

    /// Mutable access to the underlying platform session.
    pub fn platform_mut(&mut self) -> &mut Session {
        &mut self.inner
    }

    /// Extracts a transfer-learning checkpoint if the algorithm is a
    /// trained DeepTune (§3.3) — the warm start
    /// [`AlgorithmChoice::DeepTuneTransfer`] consumes. Unrelated to the
    /// on-disk session-store checkpoints
    /// ([`wf_platform::SessionEvent::CheckpointWritten`]).
    pub fn transfer_checkpoint(&mut self) -> Option<Checkpoint> {
        self.inner
            .algorithm_mut()
            .as_any_mut()?
            .downcast_mut::<DeepTune>()?
            .checkpoint()
    }

    /// Queries the trained model for high-impact parameters (§4.1).
    pub fn parameter_impacts(&mut self) -> Option<Vec<wf_deeptune::ParamImpact>> {
        let space = self.inner.space().clone();
        let encoder = wf_configspace::Encoder::new(&space);
        // Anchor the axis probes on the default configuration plus the
        // best configurations the session actually evaluated: the model is
        // only trustworthy near its training distribution, and averaging
        // over several anchors de-noises the single-axis deltas.
        let direction = self.inner.direction();
        let mut evaluated: Vec<(f64, wf_configspace::Configuration)> = self
            .inner
            .history()
            .observations()
            .iter()
            .filter_map(|o| o.value.map(|v| (v, o.config.clone())))
            .collect();
        evaluated.sort_by(|a, b| match direction {
            wf_jobfile::Direction::Maximize => b.0.partial_cmp(&a.0).unwrap(),
            wf_jobfile::Direction::Minimize => a.0.partial_cmp(&b.0).unwrap(),
        });
        let mut anchors = vec![space.default_config()];
        anchors.extend(evaluated.into_iter().take(8).map(|(_, c)| c));
        let dt = self
            .inner
            .algorithm_mut()
            .as_any_mut()?
            .downcast_mut::<DeepTune>()?;
        wf_deeptune::parameter_impacts_at(dt, &space, &encoder, &anchors)
    }
}

enum DriveState {
    Fresh,
    Running,
    Finished,
}

/// The iterator behind [`SpecializationSession::drive`].
///
/// Buffers one wave's events at a time; dropping it mid-stream simply
/// stops after the last completed wave (the session stays valid and can
/// be driven again or `run()` to completion).
pub struct Drive<'a> {
    session: &'a mut SpecializationSession,
    queue: VecDeque<SessionEvent>,
    state: DriveState,
}

impl Iterator for Drive<'_> {
    type Item = SessionEvent;

    fn next(&mut self) -> Option<SessionEvent> {
        loop {
            if let Some(event) = self.queue.pop_front() {
                return Some(event);
            }
            match self.state {
                DriveState::Finished => return None,
                DriveState::Fresh => {
                    self.queue.push_back(self.session.inner.start_event());
                    // A fresh continuous session opens epoch 0 explicitly,
                    // mirroring `run_with`; a resumed one replays past the
                    // stored epoch events instead.
                    if self.session.inner.history().is_empty() {
                        if let Some(event) = self.session.inner.epoch_zero_event() {
                            self.queue.push_back(event);
                        }
                    }
                    self.state = DriveState::Running;
                }
                DriveState::Running => {
                    if self.session.inner.done() {
                        self.queue
                            .push_back(SessionEvent::SessionFinished(self.session.inner.summary()));
                        self.state = DriveState::Finished;
                    } else {
                        let mut sink = RecordingSink::new();
                        self.session.inner.step_wave_with(&mut sink);
                        self.queue.extend(sink.events);
                    }
                }
            }
        }
    }
}

/// Re-exported focus type for job parity.
pub type JobFocus = Focus;

#[cfg(test)]
mod tests {
    use super::*;
    use wf_jobfile::Budget;

    #[test]
    fn builder_runs_a_tiny_deeptune_session() {
        let mut s = SessionBuilder::new()
            .os(OsFlavor::Linux419)
            .app(AppId::Nginx)
            .algorithm(AlgorithmChoice::DeepTune)
            .runtime_params(64)
            .iterations(8)
            .seed(7)
            .build()
            .expect("valid session");
        let outcome = s.run();
        assert_eq!(outcome.summary.iterations, 8);
        assert!(outcome.best.is_some());
    }

    #[test]
    fn builder_rejects_missing_budget() {
        let mut b = SessionBuilder::new();
        b.job.budget.iterations = None;
        b.job.budget.time_seconds = None;
        assert!(b.build().is_err());
    }

    #[test]
    fn unikraft_requires_nginx() {
        let err = match SessionBuilder::new()
            .os(OsFlavor::Unikraft)
            .app(AppId::Redis)
            .iterations(1)
            .build()
        {
            Err(e) => e,
            Ok(_) => panic!("unikraft+redis must be rejected"),
        };
        assert!(
            matches!(&err, BuildError::IncompatibleApp { target, app, .. }
                if target == "unikraft" && app == "redis"),
            "{err}"
        );
        assert!(err.to_string().contains("Nginx"));
    }

    #[test]
    fn pins_are_applied_to_the_space() {
        let s = SessionBuilder::new()
            .os(OsFlavor::Linux419)
            .runtime_params(64)
            .iterations(1)
            .pin("kernel.randomize_va_space", "2")
            .build()
            .expect("valid session");
        let space = s.platform().space();
        let idx = space.index_of("kernel.randomize_va_space").unwrap();
        assert!(space.spec(idx).fixed);
    }

    #[test]
    fn bad_pin_is_a_build_error() {
        let err = match SessionBuilder::new()
            .runtime_params(64)
            .iterations(1)
            .pin("kernel.nope", "1")
            .build()
        {
            Err(e) => e,
            Ok(_) => panic!("unknown pin must be rejected"),
        };
        assert!(matches!(err, BuildError::BadPin { .. }), "{err}");
        assert!(err.to_string().contains("unknown parameter"));
    }

    #[test]
    fn unknown_target_is_rejected_with_known_keywords() {
        let err = SessionBuilder::new()
            .target("plan9")
            .iterations(1)
            .build()
            .unwrap_err();
        match &err {
            BuildError::UnknownTarget { given, known } => {
                assert_eq!(given, "plan9");
                assert!(known.contains(&"linux-4.19".to_string()));
                assert!(known.contains(&"unikraft".to_string()));
            }
            other => panic!("expected UnknownTarget, got {other:?}"),
        }
    }

    #[test]
    fn unknown_metric_is_rejected_with_valid_values() {
        // Regression: unknown `metric:` strings used to coerce silently
        // to Objective::Metric.
        let job = Job::parse(
            "name: m\nos: linux-4.19\napp: nginx\nmetric: throughputt\nalgorithm: random\nbudget:\n  iterations: 2\n",
        )
        .unwrap();
        let err = SessionBuilder::from_job(&job)
            .unwrap()
            .runtime_params(56)
            .build()
            .unwrap_err();
        match &err {
            BuildError::UnknownMetric { given, valid } => {
                assert_eq!(given, "throughputt");
                assert_eq!(
                    valid,
                    &["throughput".to_string(), "memory".into(), "score".into()]
                );
            }
            other => panic!("expected UnknownMetric, got {other:?}"),
        }
    }

    #[test]
    fn explicit_objective_overrides_the_job_metric() {
        // Whichever of `.metric()` / `.objective()` was called last wins,
        // so code tweaking a parsed job keeps its pre-registry behavior.
        let job = Job::parse(
            "name: o\nos: linux-4.19\napp: nginx\nmetric: throughput\nalgorithm: random\nbudget:\n  iterations: 3\n",
        )
        .unwrap();
        let mut s = SessionBuilder::from_job(&job)
            .unwrap()
            .objective(Objective::MemoryMb)
            .runtime_params(56)
            .build()
            .unwrap();
        let outcome = s.run();
        // Memory objectives minimize; the best objective is a memory
        // figure in MB, not a throughput in the tens of thousands.
        assert_eq!(
            s.platform().direction(),
            wf_jobfile::Direction::Minimize,
            "objective override must flip the direction"
        );
        assert!(outcome.summary.best_objective.unwrap() < 5_000.0);
    }

    #[test]
    fn minimal_job_files_use_the_targets_defaults() {
        // Regression: omitted `app:`/`metric:` keys must mean "the
        // target's defaults", not the generic nginx/throughput pair —
        // this jobfile worked before the registry and must keep working.
        let job = Job::parse("name: fp\nos: linux-riscv\nbudget:\n  iterations: 2\n").unwrap();
        let mut s = SessionBuilder::from_job(&job).unwrap().build().unwrap();
        assert_eq!(s.platform().descriptor().app, "boot-probe");
        let outcome = s.run();
        assert_eq!(outcome.summary.iterations, 2);
    }

    #[test]
    fn footprint_sessions_run_under_the_probe_identity() {
        // Regression: the synthetic boot probe used to masquerade as
        // AppId::Nginx, mislabeling footprint reports and histories.
        let s = SessionBuilder::new()
            .os(OsFlavor::LinuxRiscv)
            .objective(Objective::MemoryMb)
            .iterations(1)
            .build()
            .unwrap();
        let descriptor = s.platform().descriptor();
        assert_eq!(descriptor.app, "boot-probe");
        assert_eq!(descriptor.metric, "memory");
        assert_eq!(descriptor.unit, "MB");
        let sim = s
            .platform()
            .target()
            .as_any()
            .downcast_ref::<wf_platform::SimTarget>()
            .expect("built-in targets are SimTargets");
        assert_eq!(sim.app().id, AppId::BootProbe);
    }

    #[test]
    fn registry_keyword_builds_like_the_flavor() {
        let via_flavor = SessionBuilder::new()
            .os(OsFlavor::Linux60)
            .algorithm(AlgorithmChoice::Random)
            .runtime_params(56)
            .iterations(4)
            .seed(5)
            .build()
            .unwrap();
        let via_keyword = SessionBuilder::new()
            .target("linux-6.0")
            .algorithm(AlgorithmChoice::Random)
            .runtime_params(56)
            .iterations(4)
            .seed(5)
            .build()
            .unwrap();
        assert_eq!(
            via_flavor.platform().descriptor(),
            via_keyword.platform().descriptor()
        );
    }

    #[test]
    fn checkpoint_extraction_works_after_training() {
        let mut s = SessionBuilder::new()
            .os(OsFlavor::Linux419)
            .app(AppId::Redis)
            .runtime_params(56)
            .iterations(6)
            .seed(3)
            .build()
            .unwrap();
        let _ = s.run();
        assert!(s.transfer_checkpoint().is_some());
        // Random search has no checkpoint.
        let mut r = SessionBuilder::new()
            .algorithm(AlgorithmChoice::Random)
            .runtime_params(56)
            .iterations(2)
            .build()
            .unwrap();
        let _ = r.run();
        assert!(r.transfer_checkpoint().is_none());
    }

    #[test]
    fn all_stages_target_searches_boot_parameters() {
        use wf_configspace::Stage;
        let mut s = SessionBuilder::new()
            .os(OsFlavor::Linux419AllStages)
            .app(AppId::Nginx)
            .algorithm(AlgorithmChoice::Random)
            .runtime_params(56)
            .iterations(6)
            .seed(77)
            .build()
            .unwrap();
        let space = s.platform().space().clone();
        assert!(space.census().boot > 0, "boot stage present");
        let _ = s.run();
        // Some explored configuration varied a boot-time parameter.
        let default = space.default_config();
        let boot_idx = space.stage_indices(Stage::BootTime);
        let varied = s
            .platform()
            .history()
            .records()
            .iter()
            .any(|r| boot_idx.iter().any(|&i| r.config.get(i) != default.get(i)));
        assert!(varied, "boot parameters never varied");
    }

    #[test]
    fn focus_restricts_the_varied_stage() {
        use wf_configspace::Stage;
        let mut s = SessionBuilder::new()
            .os(OsFlavor::Linux419AllStages)
            .app(AppId::Nginx)
            .algorithm(AlgorithmChoice::Random)
            .focus(Focus::Runtime)
            .runtime_params(56)
            .iterations(6)
            .seed(78)
            .build()
            .unwrap();
        let space = s.platform().space().clone();
        let _ = s.run();
        let default = space.default_config();
        let boot_idx = space.stage_indices(Stage::BootTime);
        for r in s.platform().history().records() {
            for &i in &boot_idx {
                assert_eq!(
                    r.config.get(i),
                    default.get(i),
                    "boot param varied under runtime focus"
                );
            }
        }
    }

    #[test]
    fn explicit_job_space_restricts_exploration() {
        let job = Job::parse(
            "name: subset\nos: linux-4.19\napp: nginx\nmetric: throughput\nalgorithm: random\nseed: 6\nbudget:\n  iterations: 8\nparams:\n  - name: net.core.somaxconn\n    type: int\n    min: 16\n    max: 65535\n    log: true\n    default: 128\n  - name: custom.inert_knob\n    type: int\n    min: 0\n    max: 10\n    default: 5\n",
        )
        .unwrap();
        let mut s = SessionBuilder::from_job(&job).unwrap().build().unwrap();
        assert_eq!(s.platform().space().len(), 2, "only the declared params");
        let outcome = s.run();
        assert_eq!(outcome.summary.iterations, 8);
        // The known parameter drives real effects; the unknown one is
        // explored but inert — both are legal.
        assert!(outcome.summary.best_metric.unwrap() > 10_000.0);
    }

    #[test]
    fn resolved_job_round_trips_through_from_job() {
        // The manifest contract: rebuilding a session from its resolved
        // job must reproduce the same resolved job (fixed point), for
        // every objective.
        for objective in [
            Objective::Metric,
            Objective::MemoryMb,
            Objective::ThroughputMemoryScore,
        ] {
            let s = SessionBuilder::new()
                .name("fixpoint")
                .os(OsFlavor::Linux419)
                .algorithm(AlgorithmChoice::Causal)
                .objective(objective)
                .runtime_params(56)
                .iterations(4)
                .seed(21)
                .workers(2)
                .build()
                .unwrap();
            let resolved = s.resolved_job().clone();
            let rebuilt = SessionBuilder::from_job(&resolved)
                .unwrap()
                .build()
                .unwrap();
            assert_eq!(rebuilt.resolved_job(), &resolved, "{objective:?}");
            assert_eq!(resolved.algorithm, AlgorithmId::Causal);
            assert_eq!(resolved.runtime_params, Some(56));
        }
    }

    #[test]
    fn setters_and_job_files_resolve_to_one_job_and_one_target() {
        // Builder setters and a job carrying the same keys resolve to the
        // same manifest, and a `wf-evald` worker rebuilding that manifest
        // through `target_from_job` searches the session's exact space
        // (names, kinds, defaults, pins) — remote evaluation relies on it.
        let registry = TargetRegistry::builtin();
        let mut cases: Vec<(SessionBuilder, Job)> = registry
            .keywords()
            .into_iter()
            .map(|os| {
                let builder = SessionBuilder::new()
                    .name("equiv")
                    .target(os.clone())
                    .algorithm(AlgorithmChoice::Random)
                    .objective(Objective::MemoryMb)
                    .runtime_params(56)
                    .iterations(2)
                    .seed(3)
                    .workers(2);
                let job = Job {
                    name: "equiv".into(),
                    os,
                    metric: Some("memory".into()),
                    algorithm: AlgorithmId::Random,
                    runtime_params: Some(56),
                    seed: 3,
                    workers: Some(2),
                    budget: Budget {
                        iterations: Some(2),
                        time_seconds: None,
                    },
                    ..Job::default()
                };
                (builder, job)
            })
            .collect();
        let declared = Job::parse(
            "name: declared\nos: linux-4.19\napp: redis\nalgorithm: bayes\nseed: 4\nworkers: 1\nbudget:\n  iterations: 2\nparams:\n  - name: net.core.somaxconn\n    type: int\n    min: 16\n    max: 65535\n    log: true\n    default: 128\n  - name: custom.inert_knob\n    type: int\n    min: 0\n    max: 10\n    default: 5\npinned:\n  - name: custom.inert_knob\n    value: \"7\"\n",
        )
        .unwrap();
        cases.push((
            SessionBuilder::new()
                .name("declared")
                .app(AppId::Redis)
                .algorithm(AlgorithmChoice::Bayesian)
                .seed(4)
                .workers(1)
                .iterations(2)
                .explicit_space(declared.param_space().unwrap())
                .pin("custom.inert_knob", "7"),
            declared,
        ));
        for (builder, job) in cases {
            let by_setters = builder.build().unwrap();
            let by_job = SessionBuilder::from_job(&job).unwrap().build().unwrap();
            let resolved = by_job.resolved_job();
            assert_eq!(by_setters.resolved_job(), resolved, "{}", job.os);
            let remote = target_from_job(resolved, &registry).unwrap();
            assert_eq!(
                remote.space().specs(),
                by_job.platform().space().specs(),
                "{}",
                job.os
            );
        }
    }

    #[test]
    fn resume_continues_an_interrupted_store() {
        let dir = std::env::temp_dir().join(format!("wf-core-resume-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let build = || {
            SessionBuilder::new()
                .name("resume")
                .os(OsFlavor::Linux419)
                .algorithm(AlgorithmChoice::Bayesian)
                .runtime_params(56)
                .iterations(8)
                .seed(13)
                .workers(2)
                .build()
                .unwrap()
        };
        let mut full = build();
        let full_outcome = full.run();

        let mut interrupted = build();
        let store = SessionStore::create(&dir, interrupted.resolved_job()).unwrap();
        {
            let mut sink = store.sink().unwrap();
            for _ in 0..2 {
                interrupted.platform_mut().step_wave_with(&mut sink);
            }
        }
        drop(interrupted); // the crash

        let mut resumed = SessionBuilder::resume(&dir).unwrap();
        assert_eq!(resumed.platform().history().len(), 4, "replayed 2 waves");
        let outcome = {
            let mut sink = store.sink().unwrap();
            resumed.run_with(&mut sink)
        };
        assert_eq!(outcome.summary.iterations, 8);
        assert_eq!(
            outcome.best.as_ref().map(|(c, _)| c.fingerprint()),
            full_outcome.best.as_ref().map(|(c, _)| c.fingerprint()),
        );
        assert_eq!(
            outcome.summary.compute_s.to_bits(),
            full_outcome.summary.compute_s.to_bits()
        );
        for (a, b) in full
            .platform()
            .history()
            .records()
            .iter()
            .zip(resumed.platform().history().records())
        {
            assert_eq!(a.config, b.config);
            assert_eq!(a.metric.map(f64::to_bits), b.metric.map(f64::to_bits));
            assert_eq!(a.duration_s.to_bits(), b.duration_s.to_bits());
        }
        // The store now holds the full campaign.
        let loaded = SessionStore::open(&dir).unwrap().load().unwrap();
        assert_eq!(loaded.records.len(), 8);
        assert!(loaded.finished);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn resume_rejects_a_tampered_manifest() {
        let dir = std::env::temp_dir().join(format!("wf-core-tamper-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = SessionBuilder::new()
            .algorithm(AlgorithmChoice::Random)
            .runtime_params(56)
            .iterations(4)
            .seed(3)
            .workers(1)
            .build()
            .unwrap();
        let store = SessionStore::create(&dir, s.resolved_job()).unwrap();
        {
            let mut sink = store.sink().unwrap();
            let _ = s.run_with(&mut sink);
        }
        // Change the seed: the replayed proposals no longer match.
        let mut job = store.manifest().unwrap();
        job.seed = 4;
        store.rewrite_manifest(&job).unwrap();
        match SessionBuilder::resume(&dir) {
            Err(ResumeError::Replay(wf_platform::ReplayError::ConfigMismatch { iteration: 0 })) => {
            }
            other => panic!("expected a config mismatch, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drive_streams_the_event_stream_lazily() {
        let mut s = SessionBuilder::new()
            .algorithm(AlgorithmChoice::Random)
            .runtime_params(56)
            .iterations(6)
            .seed(5)
            .workers(2)
            .build()
            .unwrap();
        let mut kinds = Vec::new();
        for event in s.drive() {
            kinds.push(match event {
                SessionEvent::SessionStarted { .. } => "started",
                SessionEvent::WaveDispatched { .. } => "dispatched",
                SessionEvent::CandidateEvaluated(_) => "candidate",
                SessionEvent::NewBest { .. } => "best",
                SessionEvent::DriftDetected { .. } => "drift",
                SessionEvent::EpochStarted { .. } => "epoch",
                SessionEvent::WaveCompleted(_) => "wave",
                SessionEvent::CheckpointWritten { .. } => "checkpoint",
                SessionEvent::SessionFinished(_) => "finished",
            });
        }
        assert_eq!(kinds.first(), Some(&"started"));
        assert_eq!(kinds.last(), Some(&"finished"));
        assert_eq!(kinds.iter().filter(|k| **k == "candidate").count(), 6);
        assert_eq!(kinds.iter().filter(|k| **k == "wave").count(), 3);
        assert!(s.done());
        // Driving matches running: same outcome as a blind twin.
        let mut twin = SessionBuilder::new()
            .algorithm(AlgorithmChoice::Random)
            .runtime_params(56)
            .iterations(6)
            .seed(5)
            .workers(2)
            .build()
            .unwrap();
        let outcome = twin.run();
        assert_eq!(
            s.platform().summary().best_metric,
            outcome.summary.best_metric
        );
    }

    fn continuous_job_text(seed: u64) -> String {
        format!(
            "name: drifted\nos: linux-4.19\napp: nginx\nalgorithm: random\nseed: {seed}\nworkers: 2\nruntime_params: 56\nbudget:\n  iterations: 60\nmode: continuous\ndrift:\n  scenario: step\n  detector: mean-shift\n  shift_at_s: 900\n  window: 6\n  threshold: 0.15\n  min_epoch: 8\n  transfer: false\n"
        )
    }

    #[test]
    fn continuous_session_builds_from_a_job_and_reopens_epochs() {
        let job = Job::parse(&continuous_job_text(11)).unwrap();
        let mut s = SessionBuilder::from_job(&job).unwrap().build().unwrap();
        assert!(s.platform().drift_enabled());
        let outcome = s.run();
        assert_eq!(outcome.summary.iterations, 60);
        assert!(
            s.platform().epoch() > 0,
            "the step shift at 900 virtual seconds must close epoch 0"
        );
        // The manifest fixed point holds for continuous jobs too.
        let resolved = s.resolved_job().clone();
        assert_eq!(resolved.mode, Mode::Continuous);
        assert!(resolved.drift.is_some());
        let rebuilt = SessionBuilder::from_job(&resolved)
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(rebuilt.resolved_job(), &resolved);
    }

    #[test]
    fn continuous_resume_continues_across_epoch_boundaries() {
        let dir = std::env::temp_dir().join(format!("wf-core-drift-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let job = Job::parse(&continuous_job_text(29)).unwrap();

        let mut full = SessionBuilder::from_job(&job).unwrap().build().unwrap();
        let full_outcome = full.run();
        assert!(full.platform().epoch() > 0, "need a boundary to cross");

        let mut interrupted = SessionBuilder::from_job(&job).unwrap().build().unwrap();
        let store = SessionStore::create(&dir, interrupted.resolved_job()).unwrap();
        {
            let mut sink = store.sink().unwrap();
            // Interrupt only after an epoch boundary passed, so the
            // resume genuinely replays across it.
            let mut stop = {
                let mut waves = 0;
                move || {
                    waves += 1;
                    waves > 18
                }
            };
            let _ = interrupted.run_with_until(&mut sink, &mut stop);
        }
        assert!(
            interrupted.platform().epoch() > 0,
            "interruption must land after the first boundary"
        );
        drop(interrupted);

        let mut resumed = SessionBuilder::resume(&dir).unwrap();
        assert!(resumed.platform().drift_enabled());
        let outcome = {
            let mut sink = store.sink().unwrap();
            resumed.run_with(&mut sink)
        };
        assert_eq!(outcome.summary.iterations, 60);
        assert_eq!(resumed.platform().epoch(), full.platform().epoch());
        for (a, b) in full
            .platform()
            .history()
            .records()
            .iter()
            .zip(resumed.platform().history().records())
        {
            assert_eq!(a.config, b.config);
            assert_eq!(a.metric.map(f64::to_bits), b.metric.map(f64::to_bits));
        }
        assert_eq!(
            outcome.summary.best_objective.map(f64::to_bits),
            full_outcome.summary.best_objective.map(f64::to_bits)
        );
        // The store holds the epoch trail.
        let loaded = SessionStore::open(&dir).unwrap().load().unwrap();
        assert!(!loaded.epochs.is_empty());
        assert!(!loaded.drift_events.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn from_job_round_trip() {
        let job = Job::parse(
            "name: x\nos: linux-4.19\napp: redis\nmetric: throughput\nalgorithm: random\nseed: 9\nbudget:\n  iterations: 3\n",
        )
        .unwrap();
        let mut s = SessionBuilder::from_job(&job)
            .unwrap()
            .runtime_params(56)
            .build()
            .unwrap();
        let outcome = s.run();
        assert_eq!(outcome.summary.iterations, 3);
    }
}
