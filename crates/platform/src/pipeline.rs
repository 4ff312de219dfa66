//! The core exploration loop (§3.1), batched across a VM-worker pool.
//!
//! "1) build and boot an OS image based on a given configuration in a VM;
//! 2) benchmark the target application running on that OS image; and
//! 3) determine the next configuration to consider" — iterated until the
//! iteration or time budget runs out, after which the best configuration
//! found is returned.
//!
//! The loop advances in *waves*: each wave asks the search algorithm for
//! up to `workers` candidates ([`wf_search::SearchAlgorithm::propose_batch`]),
//! dispatches them through a routed [`crate::backend::EvalBackend`]
//! ([`crate::router::dispatch_wave`]: the [`crate::router::Router`]
//! assigns each slot a lane, failed lanes are health-gated and their
//! slots retried), and tells the algorithm every outcome at once
//! ([`wf_search::SearchAlgorithm::observe_batch`]). The backend is a
//! deployment knob ([`wf_jobfile::BackendChoice`]): inline on the
//! session's thread by default ([`crate::backend::InProcessBackend`],
//! whose lanes are virtual workers), or `wf-evald` worker processes for
//! [`crate::remote::RemoteBackend`].
//!
//! # The two virtual clocks
//!
//! * **Wall clock** ([`Session::now_s`], `elapsed_s`): each wave charges
//!   the *slowest* worker lane — what a human waits for. More workers →
//!   lower wall clock. Time budgets cut against this clock.
//! * **Compute clock** (`compute_s`): each wave charges the *sum* of the
//!   candidates' durations — total VM-seconds burned. Every candidate's
//!   cost derives from a per-candidate RNG (`workers::derive_seed`),
//!   never from a shared stream.
//!
//! # Worker-count invariance, precisely
//!
//! On **runtime targets** (fixed image, no build phase) with **random
//! search**, the evaluation history, best configuration, and compute
//! clock are identical at every worker count for a fixed seed — the
//! property `tests/props.rs` proves. The other knobs each break it for a
//! stated reason:
//!
//! * model-based algorithms (bayes, causal, DeepTune) see less feedback
//!   per decision at larger batch sizes, so they legitimately propose
//!   different waves — the classic batch-optimization trade-off;
//! * grid's wave dedup intentionally skips the repeated default point
//!   that a sequential sweep re-evaluates once per axis, so its batched
//!   history is a strict subsequence-reordering of the sequential one;
//! * compile targets give each worker lane its own working tree, so
//!   incremental-rebuild *durations* depend on the lane's previous
//!   build; and cache reuse is wave-granular (the deterministic
//!   two-phase protocol in [`crate::router::dispatch_wave`] probes
//!   before dispatch and publishes after), so two same-image candidates
//!   in one wave both build where a sequential sweep builds once.
//!   Build/boot/bench draw from separate per-candidate RNG streams, so
//!   measured *outcomes* (metrics, crashes) stay fixed either way —
//!   and within a fixed worker count every cache effect is a pure
//!   function of (seed, candidate order), which is what makes stores
//!   replayable bit-for-bit.
//!
//! # One wave routine for live runs and replay
//!
//! A wave is ask → evaluate → finish (clocks, records, tell, drift
//! epilogue, [`WaveStats`]). A live wave evaluates on the session's
//! backend. [`Session::replay`] evaluates a stored wave through the same
//! [`crate::router::dispatch_wave`] on a backend that re-derives each
//! build and answers with the stored outcome, then runs the same finish.
//! So the router, image cache, working trees and algorithm state a
//! resumed session starts from are built by the live code.

use crate::backend::{EvalBackend, InProcessBackend, LaneError, WorkItem, WorkResult};
use crate::cache::ImageCache;
use crate::clock::VirtualClock;
use crate::epoch::{DriftConfig, DriftState};
use crate::events::{EventSink, NullSink, SessionEvent};
use crate::history::{History, Record};
use crate::metrics::{mean_occupancy, WaveStats};
use crate::remote::{RemoteBackend, RemoteSpec};
use crate::router::{dispatch_wave, Router};
use crate::target::{EvalTarget, SimTarget, TargetDescriptor};
use crate::workers::{build_candidate, CandidateEval};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use std::sync::Arc;
use wf_configspace::{ConfigSpace, Configuration, Encoder};
use wf_jobfile::{BackendChoice, Budget, Direction, RoutingStrategy};
use wf_ossim::{App, BenchResult, CrashReport, Phase, SimOs};
use wf_search::host_clock::HostTimer;
use wf_search::{Observation, SamplePolicy, SearchAlgorithm, SearchContext};

/// What the session optimizes (the user-provided metric of Fig. 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Objective {
    /// The application's primary metric (throughput, latency, Mop/s).
    Metric,
    /// Resident memory in MB (Fig. 10).
    MemoryMb,
    /// Eq. 4: min–max normalized throughput minus normalized memory
    /// (Fig. 11, Table 4). Always maximized.
    ThroughputMemoryScore,
}

/// The default worker count: `WF_WORKERS` from the environment (clamped
/// to `1..=64`), else 1.
pub fn default_workers() -> usize {
    // wf-lint: allow(host-env-read, reason = "config-load: WF_WORKERS picks the pool width once at session construction; results are worker-count invariant (DETERMINISM.md)")
    std::env::var("WF_WORKERS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .map(|n| n.clamp(1, 64))
        .unwrap_or(1)
}

/// Session parameters.
#[derive(Clone, Debug)]
pub struct SessionSpec {
    /// Objective to optimize.
    pub objective: Objective,
    /// Optimization direction for [`Objective::Metric`] /
    /// [`Objective::MemoryMb`]; ignored for the score (always maximized).
    pub direction: Direction,
    /// Candidate sampling policy (§3.5 focus).
    pub policy: SamplePolicy,
    /// Iteration / virtual-time budget.
    pub budget: Budget,
    /// Benchmark repetitions per configuration.
    pub repetitions: usize,
    /// RNG seed for the whole session.
    pub seed: u64,
    /// Simulated VM workers evaluating candidates concurrently (wave
    /// width). Defaults to [`default_workers`].
    pub workers: usize,
    /// Where candidate evaluations execute (see
    /// [`crate::backend::EvalBackend`]). Defaults to the in-process
    /// backend, which evaluates on the session's thread.
    pub backend: BackendChoice,
    /// How wave slots map onto evaluator lanes (see
    /// [`crate::router::Router`]). Defaults to round-robin, which is the
    /// identity assignment on full-width healthy waves.
    pub routing: RoutingStrategy,
    /// Worker launch spec for [`BackendChoice::Remote`] (the `wf-evald`
    /// command plus its target-resolution arguments). Required when
    /// `backend` is `Remote`, ignored otherwise.
    pub remote: Option<RemoteSpec>,
}

impl Default for SessionSpec {
    fn default() -> Self {
        SessionSpec {
            objective: Objective::Metric,
            direction: Direction::Maximize,
            policy: SamplePolicy::Uniform,
            budget: Budget {
                iterations: Some(100),
                time_seconds: None,
            },
            repetitions: 1,
            seed: 1,
            workers: default_workers(),
            backend: BackendChoice::default(),
            routing: RoutingStrategy::default(),
            remote: None,
        }
    }
}

/// Summary returned when a session completes.
#[derive(Clone, Debug)]
pub struct SessionSummary {
    /// Best objective value found (None if everything crashed).
    pub best_objective: Option<f64>,
    /// Best raw metric.
    pub best_metric: Option<f64>,
    /// The best configuration.
    pub best_config: Option<Configuration>,
    /// Iterations executed.
    pub iterations: usize,
    /// Overall crash rate.
    pub crash_rate: f64,
    /// Virtual wall seconds consumed (slowest lane per wave).
    pub elapsed_s: f64,
    /// Total virtual compute seconds (summed candidate durations);
    /// worker-count invariant.
    pub compute_s: f64,
    /// Worker count the session ran with.
    pub workers: usize,
    /// Number of evaluation waves dispatched.
    pub waves: usize,
    /// Mean pool occupancy over all waves.
    pub mean_occupancy: f64,
    /// Image-cache (hits, misses).
    pub cache_stats: (u64, u64),
}

/// Why a persisted history could not be replayed into a session
/// ([`Session::replay`]). Every variant means the store and the freshly
/// built session disagree — replaying never papers over divergence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplayError {
    /// The session already has history; replay needs a fresh one.
    NotFresh {
        /// Iterations already recorded.
        iterations: usize,
    },
    /// The stored wave sizes do not cover the stored records.
    BadWaveShape {
        /// Stored record count.
        records: usize,
        /// Sum of the stored wave sizes.
        covered: usize,
    },
    /// A stored wave is empty or wider than this session's worker pool
    /// (e.g. the worker count was overridden on resume).
    WaveTooWide {
        /// Zero-based wave index.
        wave: usize,
        /// Stored wave size.
        size: usize,
        /// This session's pool width.
        workers: usize,
    },
    /// A stored configuration has a different parameter count than the
    /// session's space — the target was rebuilt differently.
    SpaceMismatch {
        /// Iteration of the offending record.
        iteration: usize,
        /// Stored configuration length.
        config_len: usize,
        /// Session space length.
        space_len: usize,
    },
    /// The re-asked algorithm proposed a different candidate than the
    /// store recorded — wrong seed, algorithm, policy, or space.
    ConfigMismatch {
        /// Iteration where the proposals diverged.
        iteration: usize,
    },
    /// A stored record's cache hit or build crash differs from the
    /// re-derived probe and build, or the record is neither a crash nor a
    /// measurement — the store was edited or written by another build.
    OutcomeMismatch {
        /// Iteration of the offending record.
        iteration: usize,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::NotFresh { iterations } => write!(
                f,
                "cannot replay into a session that already ran {iterations} iteration(s)"
            ),
            ReplayError::BadWaveShape { records, covered } => write!(
                f,
                "stored wave sizes cover {covered} record(s) but the store holds {records}"
            ),
            ReplayError::WaveTooWide {
                wave,
                size,
                workers,
            } => write!(
                f,
                "stored wave {wave} has {size} candidate(s) but the pool is {workers} wide \
                 (worker counts cannot change across a resume)"
            ),
            ReplayError::SpaceMismatch {
                iteration,
                config_len,
                space_len,
            } => write!(
                f,
                "iteration {iteration}: stored configuration has {config_len} parameter(s), \
                 the rebuilt space has {space_len}"
            ),
            ReplayError::ConfigMismatch { iteration } => write!(
                f,
                "iteration {iteration}: the re-asked algorithm proposed a different candidate \
                 than the store recorded (seed, algorithm, or space mismatch)"
            ),
            ReplayError::OutcomeMismatch { iteration } => write!(
                f,
                "iteration {iteration}: the stored outcome disagrees with the re-derived \
                 cache probe and build (the store was edited or written by another build)"
            ),
        }
    }
}

impl std::error::Error for ReplayError {}

/// A running specialization session: one [`EvalTarget`], one algorithm,
/// one budget, one routed evaluation backend.
pub struct Session {
    target: Arc<dyn EvalTarget>,
    algorithm: Box<dyn SearchAlgorithm>,
    spec: SessionSpec,
    encoder: Encoder,
    /// Wall time: the slowest lane of each wave.
    clock: VirtualClock,
    /// Compute time: every candidate's duration.
    compute: VirtualClock,
    cache: ImageCache,
    history: History,
    /// The best objective in `history` under [`Session::direction`],
    /// kept up to date by `finish_wave` so no wave rescans the history.
    best_objective: Option<f64>,
    rng: StdRng,
    /// Where candidate evaluations execute.
    backend: Box<dyn EvalBackend>,
    /// Slot → lane assignment plus per-lane latency/failure stats.
    router: Router,
    /// Per-lane "working trees": the configuration each lane last built
    /// (enables incremental-rebuild timing on compile targets).
    lanes: Vec<Option<Configuration>>,
    /// Per-wave scheduling metrics.
    waves: Vec<WaveStats>,
    /// Host seconds of each wave's ask + tell ([`Session::algo_seconds`]).
    algo_seconds: Vec<f64>,
    /// Running bounds for the Eq. 4 score.
    metric_bounds: (f64, f64),
    memory_bounds: (f64, f64),
    /// Continuous-mode state ([`Session::enable_drift`]); `None` for the
    /// classic one-shot session.
    drift: Option<DriftState>,
}

impl Session {
    /// Creates a session over the simulated testbed: a [`SimOs`] paired
    /// with an [`App`] (convenience wrapper over [`Session::with_target`]).
    pub fn new(
        os: SimOs,
        app: App,
        algorithm: Box<dyn SearchAlgorithm>,
        spec: SessionSpec,
    ) -> Self {
        Session::with_target(Box::new(SimTarget::new(os, app)), algorithm, spec)
    }

    /// Creates a session over any [`EvalTarget`], constructing the
    /// evaluation backend from `spec.backend`.
    ///
    /// # Panics
    ///
    /// Panics if the backend cannot be constructed; callers that need to
    /// report the failure instead use [`Session::try_with_target`].
    pub fn with_target(
        target: Box<dyn EvalTarget>,
        algorithm: Box<dyn SearchAlgorithm>,
        spec: SessionSpec,
    ) -> Self {
        match Session::try_with_target(target, algorithm, spec) {
            Ok(session) => session,
            Err(message) => panic!("{message}"),
        }
    }

    /// Fallible [`Session::with_target`]: a [`BackendChoice::Remote`]
    /// spec with no launch command, or remote workers that fail to come
    /// up, is an `Err` instead of a panic.
    pub fn try_with_target(
        target: Box<dyn EvalTarget>,
        algorithm: Box<dyn SearchAlgorithm>,
        spec: SessionSpec,
    ) -> Result<Self, String> {
        let workers = spec.workers.max(1);
        let backend: Box<dyn EvalBackend> = match spec.backend {
            BackendChoice::InProcess => Box::new(InProcessBackend::new(workers)),
            BackendChoice::Remote => {
                let remote = spec.remote.as_ref().ok_or_else(|| {
                    "the remote backend needs a worker launch spec (spec.remote)".to_string()
                })?;
                Box::new(
                    RemoteBackend::spawn(workers, remote)
                        .map_err(|e| format!("cannot launch remote workers: {e}"))?,
                )
            }
        };
        Ok(Session::with_backend(target, algorithm, spec, backend))
    }

    /// Creates a session over an explicit, already-constructed backend
    /// (tests inject protocol-level backends here; `spec.backend` is kept
    /// as documentation but not consulted).
    pub fn with_backend(
        target: Box<dyn EvalTarget>,
        algorithm: Box<dyn SearchAlgorithm>,
        spec: SessionSpec,
        backend: Box<dyn EvalBackend>,
    ) -> Self {
        let encoder = Encoder::new(target.space());
        let rng = StdRng::seed_from_u64(spec.seed);
        let workers = spec.workers.max(1);
        Session {
            target: Arc::from(target),
            algorithm,
            encoder,
            clock: VirtualClock::new(),
            compute: VirtualClock::new(),
            cache: ImageCache::new(32),
            history: History::new(),
            best_objective: None,
            rng,
            backend,
            router: Router::new(spec.routing, workers),
            lanes: vec![None; workers],
            waves: Vec::new(),
            algo_seconds: Vec::new(),
            metric_bounds: (f64::MAX, f64::MIN),
            memory_bounds: (f64::MAX, f64::MIN),
            drift: None,
            spec,
        }
    }

    /// Switches this session to continuous mode: candidates are measured
    /// against `config.schedule`'s phase at their own virtual compute
    /// time, the deployed reference's telemetry feeds `config.detector`,
    /// and confirmed drifts close the epoch and re-seed the search (see
    /// [`crate::epoch`]).
    ///
    /// Must be called before the session runs (or replays): the drift
    /// axis is the compute clock, which starts at the first wave.
    ///
    /// # Panics
    ///
    /// Panics if the session already has history.
    pub fn enable_drift(&mut self, config: DriftConfig) {
        assert!(
            self.history.is_empty(),
            "enable_drift on a session that already ran"
        );
        self.drift = Some(DriftState::new(config));
    }

    /// Whether this session runs in continuous mode.
    pub fn drift_enabled(&self) -> bool {
        self.drift.is_some()
    }

    /// Current epoch index (0 for one-shot sessions).
    pub fn epoch(&self) -> usize {
        self.drift.as_ref().map_or(0, |d| d.epoch)
    }

    /// History index where the current epoch began (0 for one-shot
    /// sessions).
    pub fn epoch_start(&self) -> usize {
        self.drift.as_ref().map_or(0, |d| d.epoch_start)
    }

    /// The session's wave width (lane count).
    pub fn workers(&self) -> usize {
        self.router.width()
    }

    /// Per-lane routing statistics (latency EWMA, samples, failures,
    /// health), indexed by lane.
    pub fn lane_stats(&self) -> &[crate::router::LaneStats] {
        self.router.stats()
    }

    /// The effective optimization direction (the score is always
    /// maximized).
    pub fn direction(&self) -> Direction {
        match self.spec.objective {
            Objective::ThroughputMemoryScore => Direction::Maximize,
            _ => self.spec.direction,
        }
    }

    /// Whether the budget is exhausted.
    pub fn done(&self) -> bool {
        if let Some(max_iters) = self.spec.budget.iterations {
            if self.history.len() >= max_iters {
                return true;
            }
        }
        if let Some(max_s) = self.spec.budget.time_seconds {
            if self.clock.now_s() >= max_s {
                return true;
            }
        }
        false
    }

    /// Runs one wave of the core loop: ask for up to `workers`
    /// candidates, evaluate them across the pool, tell the algorithm
    /// every outcome. Returns the records appended, in candidate order.
    ///
    /// Iteration budgets truncate the final wave exactly. Time budgets
    /// gate *dispatch* only: a wave launched with budget remaining runs
    /// to completion, so a time-budgeted session can finish up to
    /// `workers - 1` evaluations past the cutoff (in-flight VMs do not
    /// vanish when the clock expires — more workers burn more VM-seconds
    /// inside the same wall budget, which is the point of the fleet).
    /// Comparisons that need the sequential overshoot-by-one semantics
    /// should pin `workers: 1`, as the figure regenerations do.
    pub fn step_wave(&mut self) -> &[Record] {
        self.step_wave_with(&mut NullSink)
    }

    /// [`Session::step_wave`], emitting [`SessionEvent`]s through `sink`
    /// as the wave progresses: `WaveDispatched` once the candidates are
    /// proposed, then one `CandidateEvaluated` per finalized record
    /// (interleaved with `NewBest` whenever the best-so-far objective
    /// improves), then `WaveCompleted`. The sink only observes — the
    /// evaluated candidates, outcomes, and clocks are byte-for-byte those
    /// of the sink-less wave.
    pub fn step_wave_with(&mut self, sink: &mut dyn EventSink) -> &[Record] {
        let start = self.history.len();
        let remaining = self
            .spec
            .budget
            .iterations
            .map(|max| max.saturating_sub(start).max(1))
            .unwrap_or(usize::MAX);
        let n = self.workers().min(remaining);
        let (configs, ask_s) = self.ask(n);
        sink.on_event(&SessionEvent::WaveDispatched {
            wave: self.waves.len(),
            first_iteration: start,
            size: n,
        });
        let (evals, cache) = self.evaluate(&configs, None);
        self.finish_wave(configs, evals, cache, ask_s, sink);
        &self.history.records()[start..]
    }

    /// Asks the algorithm for the next `n` candidates. Returns them with
    /// the host seconds the proposal took.
    fn ask(&mut self, n: usize) -> (Vec<Configuration>, f64) {
        // Continuous sessions restart the algorithm's visible history at
        // each epoch boundary: the model was re-seeded there, and stale
        // pre-drift observations would poison it. `ctx.iteration` stays
        // global — it is the store's iteration axis.
        let epoch_start = self.epoch_start();
        let ctx = SearchContext {
            space: self.target.space(),
            encoder: &self.encoder,
            direction: self.direction(),
            policy: &self.spec.policy,
            history: &self.history.observations()[epoch_start..],
            iteration: self.history.len(),
        };
        let t_ask = HostTimer::start();
        let configs = self.algorithm.propose_batch(n, &ctx, &mut self.rng);
        let ask_s = t_ask.seconds();
        assert_eq!(configs.len(), n, "propose_batch must return n candidates");
        (configs, ask_s)
    }

    /// Evaluates a proposed wave through [`dispatch_wave`] on `replayed`,
    /// or on the session's own backend when that is `None`. Returns the
    /// evaluations in candidate order and the wave's image-cache (hits,
    /// misses).
    fn evaluate(
        &mut self,
        configs: &[Configuration],
        replayed: Option<&mut dyn EvalBackend>,
    ) -> (Vec<CandidateEval>, (u64, u64)) {
        let before = self.cache.stats();
        let evals = dispatch_wave(
            replayed.unwrap_or(self.backend.as_mut()),
            &mut self.router,
            &self.target,
            configs,
            self.history.len(),
            self.spec.seed,
            self.waves.len() as u64,
            self.spec.repetitions,
            &mut self.cache,
            &mut self.lanes,
        );
        let after = self.cache.stats();
        (evals, (after.0 - before.0, after.1 - before.1))
    }

    /// Closes a wave: charges the clocks, builds the records in
    /// candidate order, tells the algorithm, appends to the history while
    /// emitting the record events through `sink`, runs the drift
    /// epilogue and records the wave's [`WaveStats`] and its host
    /// seconds (`ask_s` plus the tell).
    fn finish_wave(
        &mut self,
        configs: Vec<Configuration>,
        evals: Vec<CandidateEval>,
        (cache_hits, cache_misses): (u64, u64),
        ask_s: f64,
        sink: &mut dyn EventSink,
    ) {
        let start = self.history.len();
        let n = configs.len();

        // Charge the clocks: the wave's wall time is its slowest lane,
        // its compute time the sum of every candidate.
        let busy_s: f64 = evals.iter().map(|e| e.duration_s).sum();
        let wall_s = evals.iter().map(|e| e.duration_s).fold(0.0, f64::max);
        self.clock.advance(wall_s);
        self.compute.advance(busy_s);
        let finished_at_s = self.clock.now_s();

        // A candidate's position on the drift axis: the drift clock
        // before the wave plus the per-candidate prefix sum of durations
        // in iteration order — worker-count invariant to the bit. The
        // clock itself advances in `drift_epilogue`, which re-derives
        // the same sums.
        let drift_times: Vec<f64> = match &self.drift {
            Some(d) => {
                let mut t = d.now_s;
                evals
                    .iter()
                    .map(|e| {
                        t += e.duration_s;
                        t
                    })
                    .collect()
            }
            None => Vec::new(),
        };

        // Record in candidate order (iteration order == proposal order,
        // regardless of which worker finished first). Evaluations come
        // back positionally, so each proposed configuration moves into
        // its record without a clone.
        let mut records: Vec<Record> = Vec::with_capacity(n);
        for (offset, (config, eval)) in configs.into_iter().zip(evals).enumerate() {
            let mut record = Record {
                iteration: start + offset,
                config,
                objective: None,
                metric: None,
                memory_mb: None,
                crash_phase: None,
                build_skipped: eval.build_skipped,
                duration_s: eval.duration_s,
                finished_at_s,
                algo_memory_bytes: 0,
            };
            match eval.outcome {
                Err(crash) => record.crash_phase = Some(crash.phase),
                Ok(r) => {
                    // Continuous mode re-draws the metric against the
                    // phase active at the candidate's own virtual time,
                    // from the candidate's own stream — so replay draws
                    // the same value the live wave stored.
                    let metric = match &self.drift {
                        Some(drift) => drift.drifted_metric(
                            self.spec.seed,
                            start + offset,
                            drift_times[offset],
                            &record.config.named(self.target.space()),
                        ),
                        None => r.metric,
                    };
                    record.metric = Some(metric);
                    record.memory_mb = Some(r.memory_mb);
                    record.objective = Some(Self::objective_of(
                        self.spec.objective,
                        &mut self.metric_bounds,
                        &mut self.memory_bounds,
                        metric,
                        r.memory_mb,
                    ));
                }
            }
            records.push(record);
        }

        // Tell.
        let epoch_start = self.epoch_start();
        let direction = self.direction();
        let wave_obs: Vec<Observation> = records.iter().map(Record::observation).collect();
        let t_tell = HostTimer::start();
        {
            let ctx = SearchContext {
                space: self.target.space(),
                encoder: &self.encoder,
                direction,
                policy: &self.spec.policy,
                history: &self.history.observations()[epoch_start..],
                iteration: start,
            };
            self.algorithm.observe_batch(&ctx, &wave_obs);
        }
        self.algo_seconds.push(ask_s + t_tell.seconds());
        let memory_bytes = self.algorithm.stats().memory_bytes;
        for mut record in records {
            record.algo_memory_bytes = memory_bytes;
            sink.on_event(&SessionEvent::CandidateEvaluated(record.clone()));
            if let Some(objective) = record.objective {
                if self
                    .best_objective
                    .is_none_or(|b| direction.better(objective, b))
                {
                    self.best_objective = Some(objective);
                    sink.on_event(&SessionEvent::NewBest {
                        iteration: record.iteration,
                        objective,
                    });
                }
            }
            self.history.push(record);
        }

        // Continuous mode: scan the wave's telemetry and, on a confirmed
        // drift, close the epoch. The events land *inside* the wave —
        // before `WaveCompleted` — so the store's wave-atomic write
        // covers them and a torn tail drops them with the wave.
        for event in self.drift_epilogue(start) {
            sink.on_event(&event);
        }

        let wave_stats = WaveStats {
            wave: self.waves.len(),
            size: n,
            wall_s,
            busy_s,
            cache_hits,
            cache_misses,
        };
        self.waves.push(wave_stats);
        sink.on_event(&SessionEvent::WaveCompleted(wave_stats));
    }

    /// The continuous-mode wave epilogue: feeds the detector one
    /// deployed-telemetry sample per candidate of the wave starting at
    /// `start`, and on the first confirmed verdict closes the epoch —
    /// resets the detector, re-seeds the search
    /// ([`wf_search::SearchAlgorithm::begin_epoch`]), and moves the
    /// deployed reference to the closed epoch's best. Returns the events
    /// the wave emits (a replayed wave's sink discards them: the store
    /// already holds them).
    fn drift_epilogue(&mut self, start: usize) -> Vec<SessionEvent> {
        if self.drift.is_none() {
            return Vec::new();
        }
        let seed = self.spec.seed;
        let detection = {
            let drift = self.drift.as_mut().expect("checked above");
            let mut t = drift.now_s;
            let mut detection = None;
            // Every sample is fed even after a verdict latched: the
            // detector resets below either way, and a fixed feed order
            // keeps the scan identical between live and replay.
            for r in &self.history.records()[start..] {
                t += r.duration_s;
                let value = drift.signal_sample(seed, r.iteration, t);
                let d = drift.observe(r.iteration, t, value);
                if detection.is_none() {
                    detection = d;
                }
            }
            drift.now_s = t;
            detection
        };
        let Some(det) = detection else {
            return Vec::new();
        };

        // The closing epoch's best deployment becomes the telemetry
        // reference of the next one (kept if the whole epoch crashed).
        let direction = self.direction();
        let epoch_start = self.drift.as_ref().expect("checked above").epoch_start;
        let mut best: Option<&Record> = None;
        for r in &self.history.records()[epoch_start..] {
            let Some(objective) = r.objective else {
                continue;
            };
            if best
                .and_then(|b| b.objective)
                .is_none_or(|b| direction.better(objective, b))
            {
                best = Some(r);
            }
        }
        let reference = best.map(|r| r.config.named(self.target.space()));

        let next_start = self.history.len();
        let drift = self.drift.as_mut().expect("checked above");
        let at_s = drift.now_s;
        let transfer = drift.config.transfer;
        let detected = SessionEvent::DriftDetected {
            epoch: drift.epoch,
            at_iteration: det.at_iteration,
            at_s: det.at_s,
            detector: drift.config.detector.name().into(),
            signal: det.snapshot.current,
            baseline: det.snapshot.baseline,
        };
        drift.close_epoch(next_start, reference);
        self.algorithm.begin_epoch(transfer);
        let drift = self.drift.as_ref().expect("checked above");
        let started = SessionEvent::EpochStarted {
            epoch: drift.epoch,
            first_iteration: next_start,
            at_s,
            transfer,
            phase: drift.config.schedule.phase_at(at_s).name.clone(),
            oracle_metric: drift.config.schedule.oracle_metric_at(at_s),
        };
        vec![detected, started]
    }

    /// Runs until the budget is exhausted and summarizes.
    pub fn run(&mut self) -> SessionSummary {
        self.run_with(&mut NullSink)
    }

    /// Runs until the budget is exhausted, emitting the full
    /// [`SessionEvent`] stream through `sink`: `SessionStarted`, every
    /// wave's events, then `SessionFinished`. Outcomes are byte-for-byte
    /// identical to [`Session::run`] — sinks observe, never steer.
    pub fn run_with(&mut self, sink: &mut dyn EventSink) -> SessionSummary {
        self.run_with_until(sink, &mut || false).0
    }

    /// Like [`Session::run_with`], but checks `should_stop` at every wave
    /// boundary — the only points where the store is consistent — and
    /// returns early when it answers `true`. Returns the summary plus
    /// whether the budget actually ran to exhaustion; `SessionFinished`
    /// is only emitted on completion, so an interrupted store stays
    /// resumable. This is what `wfctl`'s SIGINT handling and the `wfd`
    /// daemon's stop requests drive.
    pub fn run_with_until(
        &mut self,
        sink: &mut dyn EventSink,
        should_stop: &mut dyn FnMut() -> bool,
    ) -> (SessionSummary, bool) {
        sink.on_event(&self.start_event());
        // A fresh continuous session opens epoch 0 explicitly; a resumed
        // one replays past the stored epoch events instead.
        if self.history.is_empty() {
            if let Some(event) = self.epoch_zero_event() {
                sink.on_event(&event);
            }
        }
        while !self.done() {
            if should_stop() {
                return (self.summary(), false);
            }
            self.step_wave_with(sink);
        }
        let summary = self.summary();
        sink.on_event(&SessionEvent::SessionFinished(summary.clone()));
        (summary, true)
    }

    /// The `EpochStarted` event a fresh continuous session opens with
    /// (`None` for one-shot sessions).
    pub fn epoch_zero_event(&self) -> Option<SessionEvent> {
        let drift = self.drift.as_ref()?;
        Some(SessionEvent::EpochStarted {
            epoch: 0,
            first_iteration: 0,
            at_s: 0.0,
            transfer: false,
            phase: drift.config.schedule.phase_at(0.0).name.clone(),
            oracle_metric: drift.config.schedule.oracle_metric_at(0.0),
        })
    }

    /// The `SessionStarted` event describing this session right now
    /// (`first_iteration` is the current history length, so a resumed
    /// session announces where it picks up).
    pub fn start_event(&self) -> SessionEvent {
        SessionEvent::SessionStarted {
            descriptor: self.target.descriptor().clone(),
            seed: self.spec.seed,
            workers: self.workers(),
            first_iteration: self.history.len(),
        }
    }

    /// Replays a persisted history into this freshly built session
    /// without re-evaluating a single candidate, leaving every piece of
    /// live state — search-algorithm model, session RNG, virtual clocks,
    /// image cache, router statistics, per-lane working trees,
    /// score-normalization bounds — exactly as it stood when the original
    /// session finished its last complete wave. `records` must be the
    /// stored records in iteration order and `wave_sizes` the stored wave
    /// shapes covering them.
    ///
    /// Each stored wave runs through the live wave routine: the same ask
    /// ([`wf_search::SearchAlgorithm::propose_batch`] is pure computation
    /// — no build, boot, or benchmark runs), the same
    /// [`crate::router::dispatch_wave`], and the same finish. Only the
    /// backend differs: it re-derives each candidate's build from the
    /// candidate's own RNG stream, so the router, the image cache and the
    /// working trees evolve exactly as they did live, and answers with the
    /// stored outcome and duration instead of booting and benchmarking.
    ///
    /// Replay does not trust the store with what it can re-derive. The
    /// re-asked candidates must equal the stored ones
    /// ([`ReplayError::ConfigMismatch`]: wrong target, seed, algorithm, or
    /// budget), and each record's cache hit and build crash must equal the
    /// re-derived probe and build ([`ReplayError::OutcomeMismatch`]), so a
    /// diverging or edited store fails loudly instead of silently forking
    /// the campaign.
    ///
    /// After a successful replay, continuing with
    /// [`Session::step_wave_with`] / [`Session::run_with`] produces the
    /// same history, best configuration, and compute clock as the
    /// uninterrupted session — the resume guarantee the end-to-end tests
    /// assert for every registered target and algorithm.
    pub fn replay(&mut self, records: &[Record], wave_sizes: &[usize]) -> Result<(), ReplayError> {
        if !self.history.is_empty() {
            return Err(ReplayError::NotFresh {
                iterations: self.history.len(),
            });
        }
        let covered: usize = wave_sizes.iter().sum();
        if covered != records.len() {
            return Err(ReplayError::BadWaveShape {
                records: records.len(),
                covered,
            });
        }
        let mut offset = 0;
        for &n in wave_sizes {
            self.replay_wave(&records[offset..offset + n])?;
            offset += n;
        }
        Ok(())
    }

    /// Replays one stored wave: check its shape, re-ask and cross-check
    /// the proposals, evaluate through [`dispatch_wave`] on the stored
    /// outcomes, and finish the wave as a live one would, silently.
    fn replay_wave(&mut self, stored: &[Record]) -> Result<(), ReplayError> {
        let start = self.history.len();
        let n = stored.len();
        if n == 0 || n > self.workers() {
            return Err(ReplayError::WaveTooWide {
                wave: self.waves.len(),
                size: n,
                workers: self.workers(),
            });
        }
        let space_len = self.target.space().len();
        if let Some(r) = stored.iter().find(|r| r.config.len() != space_len) {
            return Err(ReplayError::SpaceMismatch {
                iteration: r.iteration,
                config_len: r.config.len(),
                space_len,
            });
        }

        let (configs, ask_s) = self.ask(n);
        if let Some(offset) = configs.iter().zip(stored).position(|(c, r)| *c != r.config) {
            return Err(ReplayError::ConfigMismatch {
                iteration: start + offset,
            });
        }

        // The router replays the live wave's lanes for any failure-free
        // live run (transport failures are outside the determinism
        // contract; see `docs/DETERMINISM.md`).
        let mut backend = StoredOutcomes {
            stored,
            forged: None,
        };
        let (evals, cache) = self.evaluate(&configs, Some(&mut backend));
        if let Some(iteration) = backend.forged {
            return Err(ReplayError::OutcomeMismatch { iteration });
        }
        self.finish_wave(configs, evals, cache, ask_s, &mut NullSink);
        Ok(())
    }

    /// The summary of the session so far.
    pub fn summary(&self) -> SessionSummary {
        let best = self.history.best(self.direction());
        SessionSummary {
            best_objective: best.and_then(|r| r.objective),
            best_metric: best.and_then(|r| r.metric),
            best_config: best.map(|r| r.config.clone()),
            iterations: self.history.len(),
            crash_rate: self.history.crash_rate(),
            elapsed_s: self.clock.now_s(),
            compute_s: self.compute.now_s(),
            workers: self.workers(),
            waves: self.waves.len(),
            mean_occupancy: mean_occupancy(&self.waves, self.workers()),
            cache_stats: self.cache.stats(),
        }
    }

    /// The exploration history.
    pub fn history(&self) -> &History {
        &self.history
    }

    /// Per-wave scheduling metrics, oldest first.
    pub fn waves(&self) -> &[WaveStats] {
        &self.waves
    }

    /// Host seconds the search algorithm spent on each wave — its ask
    /// (`propose_batch`) plus its tell (`observe_batch`) — parallel to
    /// [`Session::waves`]. Replayed waves are timed too. This is host
    /// telemetry outside the determinism contract, never written to the
    /// store.
    pub fn algo_seconds(&self) -> &[f64] {
        &self.algo_seconds
    }

    /// The target under specialization.
    pub fn target(&self) -> &dyn EvalTarget {
        self.target.as_ref()
    }

    /// The target's searchable configuration space.
    pub fn space(&self) -> &ConfigSpace {
        self.target.space()
    }

    /// The target's typed identity (name, app, metric, unit, direction).
    pub fn descriptor(&self) -> &TargetDescriptor {
        self.target.descriptor()
    }

    /// Current virtual wall time.
    pub fn now_s(&self) -> f64 {
        self.clock.now_s()
    }

    /// Total virtual compute time across all workers.
    pub fn compute_s(&self) -> f64 {
        self.compute.now_s()
    }

    /// The search algorithm (for post-hoc queries, e.g. §4.1's
    /// high-impact-parameter analysis).
    pub fn algorithm(&self) -> &dyn SearchAlgorithm {
        self.algorithm.as_ref()
    }

    /// Mutable algorithm access (e.g. to extract a trained model for
    /// transfer learning, §3.3).
    pub fn algorithm_mut(&mut self) -> &mut dyn SearchAlgorithm {
        self.algorithm.as_mut()
    }

    /// Maps a (metric, memory) pair onto the session objective. Takes the
    /// running Eq. 4 bounds as explicit fields so callers can hold the
    /// history's observation slice borrowed at the same time.
    fn objective_of(
        objective: Objective,
        metric_bounds: &mut (f64, f64),
        memory_bounds: &mut (f64, f64),
        metric: f64,
        memory_mb: f64,
    ) -> f64 {
        match objective {
            Objective::Metric => metric,
            Objective::MemoryMb => memory_mb,
            Objective::ThroughputMemoryScore => {
                metric_bounds.0 = metric_bounds.0.min(metric);
                metric_bounds.1 = metric_bounds.1.max(metric);
                memory_bounds.0 = memory_bounds.0.min(memory_mb);
                memory_bounds.1 = memory_bounds.1.max(memory_mb);
                let tn = normalized(metric, *metric_bounds);
                let mn = normalized(memory_mb, *memory_bounds);
                tn - mn
            }
        }
    }
}

fn normalized(v: f64, (lo, hi): (f64, f64)) -> f64 {
    if (hi - lo).abs() < 1e-12 {
        0.5
    } else {
        (v - lo) / (hi - lo)
    }
}

/// Replay's backend. It re-derives each item's build, so the published
/// image and the lane's working tree are the live ones, and answers with
/// the stored outcome and duration. `forged` is the first iteration whose
/// stored cache hit or build crash the re-derivation contradicts, or
/// that is neither a crash nor a measurement.
struct StoredOutcomes<'a> {
    stored: &'a [Record],
    forged: Option<usize>,
}

impl EvalBackend for StoredOutcomes<'_> {
    fn label(&self) -> &'static str {
        "stored"
    }

    fn run_items(
        &mut self,
        target: &Arc<dyn EvalTarget>,
        seed: u64,
        _repetitions: usize,
        items: Vec<WorkItem>,
    ) -> Vec<Result<WorkResult, LaneError>> {
        let mut results = Vec::with_capacity(items.len());
        for item in items {
            let r = &self.stored[item.slot];
            let (reuse, tree) = (item.reuse.as_ref(), item.working_tree.as_ref());
            let (built, _) =
                build_candidate(&**target, &item.config, item.index, seed, reuse, tree);
            let measured = r.metric.zip(r.memory_mb);
            if reuse.is_some() != r.build_skipped
                || built.is_err() != (r.crash_phase == Some(Phase::Build))
                || r.crashed() == measured.is_some()
            {
                self.forged.get_or_insert(item.index);
            }
            let outcome = match (r.crash_phase, measured) {
                (None, Some((metric, memory_mb))) => Ok(BenchResult { metric, memory_mb }),
                // A crash, or a record already flagged as forged.
                (phase, _) => Err(CrashReport {
                    phase: phase.unwrap_or(Phase::Run),
                    rule: String::new(),
                }),
            };
            let eval = CandidateEval {
                outcome,
                build_skipped: reuse.is_some(),
                duration_s: r.duration_s,
            };
            let (slot, lane, image) = (item.slot, item.lane, built.ok());
            results.push(Ok(WorkResult {
                slot,
                lane,
                eval,
                image,
            }));
        }
        results
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::RecordingSink;
    use wf_drift::MeanShift;
    use wf_kconfig::LinuxVersion;
    use wf_ossim::{AppId, DriftScenario, DriftSchedule};
    use wf_search::RandomSearch;

    fn session_with_workers(iters: usize, seed: u64, workers: usize) -> Session {
        let os = SimOs::linux_runtime(LinuxVersion::V4_19, 64);
        let app = App::by_id(AppId::Nginx);
        Session::new(
            os,
            app,
            Box::new(RandomSearch::new()),
            SessionSpec {
                budget: Budget {
                    iterations: Some(iters),
                    time_seconds: None,
                },
                seed,
                workers,
                ..SessionSpec::default()
            },
        )
    }

    fn quick_session(iters: usize, seed: u64) -> Session {
        session_with_workers(iters, seed, 1)
    }

    #[test]
    fn session_runs_to_iteration_budget() {
        let mut s = quick_session(12, 3);
        let summary = s.run();
        assert_eq!(summary.iterations, 12);
        assert!(
            summary.compute_s > 12.0 * 30.0,
            "time charged per iteration"
        );
        assert!(summary.best_metric.is_some());
    }

    #[test]
    fn time_budget_stops_the_session() {
        let os = SimOs::linux_runtime(LinuxVersion::V4_19, 64);
        let app = App::by_id(AppId::Redis);
        let mut s = Session::new(
            os,
            app,
            Box::new(RandomSearch::new()),
            SessionSpec {
                budget: Budget {
                    iterations: None,
                    time_seconds: Some(400.0),
                },
                seed: 5,
                workers: 1,
                ..SessionSpec::default()
            },
        );
        let summary = s.run();
        assert!(summary.elapsed_s >= 400.0);
        // ~60 s per iteration: the 400 s budget admits only a handful.
        assert!(summary.iterations <= 12, "{}", summary.iterations);
    }

    #[test]
    fn runtime_sessions_never_build() {
        let mut s = quick_session(8, 7);
        let _ = s.run();
        for r in s.history().records() {
            assert!(r.duration_s < 120.0);
        }
    }

    #[test]
    fn sessions_are_deterministic_per_seed() {
        let mut a = quick_session(10, 11);
        let mut b = quick_session(10, 11);
        let sa = a.run();
        let sb = b.run();
        assert_eq!(sa.best_metric, sb.best_metric);
        assert_eq!(sa.crash_rate, sb.crash_rate);
        assert!((sa.elapsed_s - sb.elapsed_s).abs() < 1e-9);
    }

    #[test]
    fn crashes_are_recorded_with_phase() {
        let mut s = quick_session(40, 13);
        let summary = s.run();
        // Random search over this space crashes roughly a third of the
        // time; with 40 iterations at least one crash is near-certain.
        assert!(summary.crash_rate > 0.05, "rate={}", summary.crash_rate);
        assert!(s
            .history()
            .records()
            .iter()
            .any(|r| r.crash_phase.is_some()));
    }

    #[test]
    fn score_objective_combines_metric_and_memory() {
        let os = SimOs::linux_runtime(LinuxVersion::V4_19, 64);
        let app = App::by_id(AppId::Nginx);
        let mut s = Session::new(
            os,
            app,
            Box::new(RandomSearch::new()),
            SessionSpec {
                objective: Objective::ThroughputMemoryScore,
                budget: Budget {
                    iterations: Some(15),
                    time_seconds: None,
                },
                seed: 17,
                workers: 1,
                ..SessionSpec::default()
            },
        );
        let summary = s.run();
        let best = summary.best_objective.unwrap();
        assert!((-1.0..=1.0).contains(&best), "score {best} out of range");
        assert_eq!(s.direction(), Direction::Maximize);
    }

    #[test]
    fn compile_target_uses_image_cache() {
        let os = SimOs::unikraft_nginx();
        let app = wf_ossim::unikraft::nginx_app();
        let mut s = Session::new(
            os,
            app,
            Box::new(RandomSearch::new()),
            SessionSpec {
                budget: Budget {
                    iterations: Some(6),
                    time_seconds: None,
                },
                seed: 19,
                workers: 1,
                ..SessionSpec::default()
            },
        );
        let _ = s.run();
        let (hits, misses) = s.summary().cache_stats;
        assert!(misses > 0, "fresh configs must build");
        // Unique random configs rarely share fingerprints; hits may be 0.
        assert!(hits + misses >= 6);
    }

    #[test]
    fn waves_fill_the_pool_and_cut_wall_clock() {
        let mut wide = session_with_workers(16, 23, 4);
        let wide_summary = wide.run();
        assert_eq!(wide_summary.iterations, 16);
        assert_eq!(wide_summary.waves, 4, "16 candidates in waves of 4");
        for w in wide.waves() {
            assert_eq!(w.size, 4);
            assert!(w.wall_s <= w.busy_s);
            assert!(w.occupancy(4) > 0.0 && w.occupancy(4) <= 1.0);
        }

        let mut narrow = session_with_workers(16, 23, 1);
        let narrow_summary = narrow.run();
        // Same candidates, same total compute, much less wall time.
        assert_eq!(narrow_summary.iterations, 16);
        assert!((wide_summary.compute_s - narrow_summary.compute_s).abs() < 1e-9);
        assert!(wide_summary.elapsed_s < narrow_summary.elapsed_s / 2.0);
        // Narrow sessions have wall == compute by construction.
        assert!((narrow_summary.elapsed_s - narrow_summary.compute_s).abs() < 1e-9);
    }

    #[test]
    fn tail_wave_is_truncated_to_the_budget() {
        let mut s = session_with_workers(10, 29, 4);
        let summary = s.run();
        assert_eq!(summary.iterations, 10, "budget is exact, not rounded up");
        let sizes: Vec<usize> = s.waves().iter().map(|w| w.size).collect();
        assert_eq!(sizes, vec![4, 4, 2]);
        assert!(summary.mean_occupancy > 0.0 && summary.mean_occupancy <= 1.0);
    }

    /// Everything the resume guarantee covers, bit-exact.
    fn trace(s: &Session) -> Vec<(u64, Option<u64>, bool, bool, u64, u64)> {
        s.history()
            .records()
            .iter()
            .map(|r| {
                (
                    r.config.fingerprint(),
                    r.metric.map(f64::to_bits),
                    r.crashed(),
                    r.build_skipped,
                    r.duration_s.to_bits(),
                    r.finished_at_s.to_bits(),
                )
            })
            .collect()
    }

    fn stored_prefix(s: &Session) -> (Vec<Record>, Vec<usize>) {
        (
            s.history().records().to_vec(),
            s.waves().iter().map(|w| w.size).collect(),
        )
    }

    #[test]
    fn replay_then_continue_matches_the_uninterrupted_run() {
        for workers in [1usize, 3] {
            let mut full = session_with_workers(10, 41, workers);
            let full_summary = full.run();

            let mut interrupted = session_with_workers(10, 41, workers);
            interrupted.step_wave();
            interrupted.step_wave();
            let (stored, wave_sizes) = stored_prefix(&interrupted);
            drop(interrupted); // the "crash"

            let mut resumed = session_with_workers(10, 41, workers);
            resumed.replay(&stored, &wave_sizes).expect("replay");
            let resumed_summary = resumed.run();

            assert_eq!(trace(&full), trace(&resumed), "workers={workers}");
            assert_eq!(
                full_summary.best_config.as_ref().map(|c| c.fingerprint()),
                resumed_summary
                    .best_config
                    .as_ref()
                    .map(|c| c.fingerprint())
            );
            assert_eq!(
                full_summary.compute_s.to_bits(),
                resumed_summary.compute_s.to_bits()
            );
            assert_eq!(
                full_summary.elapsed_s.to_bits(),
                resumed_summary.elapsed_s.to_bits()
            );
        }
    }

    #[test]
    fn replay_rebuilds_cache_and_lane_state_on_compile_targets() {
        // Compile targets are where replay earns its keep: future
        // build_skipped flags and incremental-rebuild durations depend on
        // the image cache and per-lane working trees, which replay must
        // reconstruct without re-benchmarking anything.
        let make = || {
            Session::new(
                SimOs::unikraft_nginx(),
                wf_ossim::unikraft::nginx_app(),
                Box::new(RandomSearch::new()),
                SessionSpec {
                    budget: Budget {
                        iterations: Some(8),
                        time_seconds: None,
                    },
                    seed: 23,
                    workers: 2,
                    ..SessionSpec::default()
                },
            )
        };
        let mut full = make();
        let _ = full.run();

        let mut interrupted = make();
        interrupted.step_wave();
        interrupted.step_wave();
        let (stored, wave_sizes) = stored_prefix(&interrupted);

        let mut resumed = make();
        resumed.replay(&stored, &wave_sizes).expect("replay");
        let _ = resumed.run();
        assert_eq!(trace(&full), trace(&resumed));
    }

    fn unikraft_session(
        iters: usize,
        seed: u64,
        workers: usize,
        routing: RoutingStrategy,
    ) -> Session {
        Session::new(
            SimOs::unikraft_nginx(),
            wf_ossim::unikraft::nginx_app(),
            Box::new(RandomSearch::new()),
            SessionSpec {
                budget: Budget {
                    iterations: Some(iters),
                    time_seconds: None,
                },
                seed,
                workers,
                routing,
                ..SessionSpec::default()
            },
        )
    }

    /// Every field of every record, f64s by bits.
    fn records_bits(records: &[Record]) -> Vec<String> {
        let bits = |v: Option<f64>| v.map(f64::to_bits);
        records
            .iter()
            .map(|r| {
                format!(
                    "{} {} {:?} {:?} {:?} {:?} {} {} {} {}",
                    r.iteration,
                    r.config.fingerprint(),
                    bits(r.objective),
                    bits(r.metric),
                    bits(r.memory_mb),
                    r.crash_phase,
                    r.build_skipped,
                    r.duration_s.to_bits(),
                    r.finished_at_s.to_bits(),
                    r.algo_memory_bytes,
                )
            })
            .collect()
    }

    /// Per-wave stats and per-lane router stats, f64s by bits.
    fn wave_and_lane_bits(s: &Session) -> Vec<String> {
        let waves = s.waves().iter().map(|w| {
            format!(
                "wave {} {} {} {} {} {}",
                w.wave,
                w.size,
                w.wall_s.to_bits(),
                w.busy_s.to_bits(),
                w.cache_hits,
                w.cache_misses
            )
        });
        let lanes = s
            .lane_stats()
            .iter()
            .map(|l| format!("lane {} {}", l.ewma_s.to_bits(), l.samples));
        waves.chain(lanes).collect()
    }

    #[test]
    fn replay_restores_router_and_cache_state_under_every_routing_strategy() {
        for routing in [
            RoutingStrategy::RoundRobin,
            RoutingStrategy::Fastest,
            RoutingStrategy::Random,
            RoutingStrategy::Preferred,
        ] {
            let mut full = unikraft_session(12, 23, 3, routing);
            let _ = full.run();

            let mut interrupted = unikraft_session(12, 23, 3, routing);
            interrupted.step_wave();
            interrupted.step_wave();
            let (stored, wave_sizes) = stored_prefix(&interrupted);
            let prefix_state = wave_and_lane_bits(&interrupted);
            drop(interrupted);

            let mut resumed = unikraft_session(12, 23, 3, routing);
            resumed.replay(&stored, &wave_sizes).expect("replay");
            assert_eq!(
                records_bits(resumed.history().records()),
                records_bits(&stored),
                "{routing:?}: the replayed history is the stored prefix"
            );
            assert_eq!(wave_and_lane_bits(&resumed), prefix_state, "{routing:?}");
            let _ = resumed.run();

            assert_eq!(trace(&full), trace(&resumed), "{routing:?}");
            assert_eq!(
                wave_and_lane_bits(&full),
                wave_and_lane_bits(&resumed),
                "{routing:?}"
            );
        }
    }

    #[test]
    fn replay_rejects_forged_outcomes() {
        let mut donor = unikraft_session(8, 23, 2, RoutingStrategy::RoundRobin);
        let _ = donor.run();
        assert_eq!(donor.waves().len(), 4);
        let (stored, wave_sizes) = stored_prefix(&donor);
        let fresh = || unikraft_session(8, 23, 2, RoutingStrategy::RoundRobin);
        fresh()
            .replay(&stored, &wave_sizes)
            .expect("the honest store replays");

        // Cache hits are re-derived from the replayed probe.
        let mut flipped = stored.clone();
        for r in &mut flipped {
            r.build_skipped = !r.build_skipped;
        }
        assert_eq!(
            fresh().replay(&flipped, &wave_sizes).unwrap_err(),
            ReplayError::OutcomeMismatch { iteration: 0 }
        );

        // Build crashes are re-derived from the replayed build.
        let mut relabelled = stored.clone();
        let forged = relabelled
            .iter_mut()
            .find(|r| !r.crashed())
            .expect("a successful record");
        forged.crash_phase = Some(Phase::Build);
        forged.objective = None;
        forged.metric = None;
        forged.memory_mb = None;
        let iteration = forged.iteration;
        assert_eq!(
            fresh().replay(&relabelled, &wave_sizes).unwrap_err(),
            ReplayError::OutcomeMismatch { iteration }
        );

        // A record that is neither a crash nor a measurement.
        let mut blank = stored.clone();
        blank[iteration].metric = None;
        assert_eq!(
            fresh().replay(&blank, &wave_sizes).unwrap_err(),
            ReplayError::OutcomeMismatch { iteration }
        );
    }

    /// A continuous step-change session: shift early enough that a
    /// 60-iteration budget comfortably spans both phases.
    fn drift_session(iters: usize, seed: u64, workers: usize) -> Session {
        let os = SimOs::linux_runtime(LinuxVersion::V4_19, 56);
        let app = App::by_id(AppId::Nginx);
        let schedule = DriftSchedule::scenario(DriftScenario::Step, &os, &app, 900.0);
        let mut s = Session::new(
            os,
            app,
            Box::new(RandomSearch::new()),
            SessionSpec {
                budget: Budget {
                    iterations: Some(iters),
                    time_seconds: None,
                },
                seed,
                workers,
                ..SessionSpec::default()
            },
        );
        s.enable_drift(DriftConfig {
            schedule,
            detector: Box::new(MeanShift::new(6, 0.15)),
            min_epoch: 8,
            transfer: false,
        });
        s
    }

    #[test]
    fn a_record_its_observation_and_its_event_share_one_configuration() {
        let mut s = session_with_workers(12, 5, 3);
        let mut sink = RecordingSink::new();
        let _ = s.run_with(&mut sink);
        let records = s.history().records();
        let observations = s.history().observations();
        let events: Vec<&Record> = sink
            .events
            .iter()
            .filter_map(|e| match e {
                SessionEvent::CandidateEvaluated(r) => Some(r),
                _ => None,
            })
            .collect();
        assert_eq!(records.len(), 12);
        assert_eq!(events.len(), records.len());
        for (i, r) in records.iter().enumerate() {
            let values = r.config.values().as_ptr();
            assert_eq!(values, observations[i].config.values().as_ptr(), "{i}");
            assert_eq!(values, events[i].config.values().as_ptr(), "{i}");
        }
    }

    #[test]
    fn the_running_best_tracks_the_history_after_every_wave() {
        let mut s = drift_session(60, 7, 3);
        let direction = s.direction();
        while !s.done() {
            let _ = s.step_wave();
            assert_eq!(
                s.best_objective.map(f64::to_bits),
                s.history()
                    .best(direction)
                    .and_then(|r| r.objective)
                    .map(f64::to_bits),
                "after {} records",
                s.history().len()
            );
        }
        assert!(s.epoch() >= 1, "the run spans an epoch boundary");
        assert!(s.history().records().iter().any(Record::crashed));
    }

    #[test]
    fn continuous_session_detects_the_step_and_reopens() {
        let mut s = drift_session(60, 7, 2);
        let mut sink = RecordingSink::new();
        let _ = s.run_with(&mut sink);
        assert!(s.epoch() >= 1, "the step must close epoch 0");

        let detections: Vec<(usize, usize)> = sink
            .events
            .iter()
            .filter_map(|e| match e {
                SessionEvent::DriftDetected {
                    epoch,
                    at_iteration,
                    ..
                } => Some((*epoch, *at_iteration)),
                _ => None,
            })
            .collect();
        assert!(!detections.is_empty());
        assert_eq!(detections[0].0, 0, "the first detection closes epoch 0");
        assert!(detections[0].1 >= 8, "min_epoch gates the verdict");

        let epochs: Vec<usize> = sink
            .events
            .iter()
            .filter_map(|e| match e {
                SessionEvent::EpochStarted { epoch, .. } => Some(*epoch),
                _ => None,
            })
            .collect();
        assert!(epochs.len() >= 2, "epoch 0 plus at least one reopening");
        assert_eq!(epochs[0], 0);
        assert_eq!(epochs[1], 1);
    }

    #[test]
    fn drift_detection_is_worker_count_invariant() {
        // The drift axis is the compute clock, so the *first* detection
        // lands on the same candidate at the same virtual time no matter
        // how the waves were scheduled (epoch boundaries align to wave
        // boundaries, so later epochs may legitimately differ).
        let first = |workers: usize| -> (usize, u64) {
            let mut s = drift_session(60, 7, workers);
            let mut sink = RecordingSink::new();
            let _ = s.run_with(&mut sink);
            sink.events
                .iter()
                .find_map(|e| match e {
                    SessionEvent::DriftDetected {
                        at_iteration, at_s, ..
                    } => Some((*at_iteration, at_s.to_bits())),
                    _ => None,
                })
                .expect("a detection")
        };
        let one = first(1);
        assert_eq!(one, first(2));
        assert_eq!(one, first(4));
    }

    #[test]
    fn continuous_replay_then_continue_matches_uninterrupted() {
        // The resume guarantee across an epoch boundary: interrupt after
        // the drift fired, replay, continue — bit-exact.
        let mut full = drift_session(60, 11, 2);
        let _ = full.run();
        assert!(full.epoch() >= 1);

        let mut interrupted = drift_session(60, 11, 2);
        // Step until the epoch has advanced, then a couple more waves.
        while interrupted.epoch() == 0 {
            interrupted.step_wave();
        }
        interrupted.step_wave();
        let (stored, wave_sizes) = stored_prefix(&interrupted);
        drop(interrupted);

        let mut resumed = drift_session(60, 11, 2);
        resumed.replay(&stored, &wave_sizes).expect("replay");
        assert!(resumed.epoch() >= 1, "replay re-detects the drift");
        let _ = resumed.run();

        assert_eq!(trace(&full), trace(&resumed));
        assert_eq!(full.epoch(), resumed.epoch());
        assert_eq!(full.epoch_start(), resumed.epoch_start());
    }

    #[test]
    fn replay_rejects_a_diverging_store() {
        let mut donor = quick_session(6, 1);
        let _ = donor.run();
        let (stored, wave_sizes) = stored_prefix(&donor);

        // Wrong seed → the re-asked candidates differ at iteration 0.
        let mut wrong_seed = quick_session(6, 2);
        assert_eq!(
            wrong_seed.replay(&stored, &wave_sizes).unwrap_err(),
            ReplayError::ConfigMismatch { iteration: 0 }
        );

        // Replay needs a fresh session.
        let mut used = quick_session(6, 1);
        used.step_wave();
        assert!(matches!(
            used.replay(&stored, &wave_sizes).unwrap_err(),
            ReplayError::NotFresh { iterations: 1 }
        ));

        // Wave sizes must cover the records.
        let mut fresh = quick_session(6, 1);
        assert!(matches!(
            fresh.replay(&stored, &wave_sizes[1..]).unwrap_err(),
            ReplayError::BadWaveShape { .. }
        ));

        // A wave wider than the pool is rejected (workers cannot change).
        let mut narrow = quick_session(6, 1);
        let merged: Vec<usize> = vec![stored.len()];
        assert!(matches!(
            narrow.replay(&stored, &merged).unwrap_err(),
            ReplayError::WaveTooWide { .. }
        ));

        // A store from a differently sized space is rejected up front.
        let mut smaller = Session::new(
            SimOs::linux_runtime(LinuxVersion::V4_19, 56),
            App::by_id(AppId::Nginx),
            Box::new(RandomSearch::new()),
            SessionSpec {
                seed: 1,
                workers: 1,
                ..SessionSpec::default()
            },
        );
        let space_len = smaller.space().len();
        assert_eq!(
            smaller.replay(&stored, &wave_sizes).unwrap_err(),
            ReplayError::SpaceMismatch {
                iteration: 0,
                config_len: stored[0].config.len(),
                space_len,
            }
        );
        assert_ne!(stored[0].config.len(), space_len);
    }
}
