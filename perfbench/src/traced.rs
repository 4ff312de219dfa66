//! The traced session: the algorithm, backend and store sink that
//! `SessionBuilder::build` would create, each wrapped in a decorator that
//! times the calls into its layer, driven wave by wave through
//! `Session::step_wave_with`.
//!
//! Every wave is split into five disjoint layers plus the rest:
//!
//! * ask — `SearchAlgorithm::propose_batch`
//! * evaluate — `EvalBackend::run_items` (every call, retries included)
//! * tell — `SearchAlgorithm::observe_batch`
//! * record — `EventSink::on_event` of the store sink, every event
//! * epilogue — from the return of the wave's last candidate event to the
//!   arrival of `WaveCompleted`, minus the record time of the drift
//!   events emitted inside that window
//! * other — the wave's total minus the five layers
//!
//! The session is rebuilt by hand, so the caller checks that its report
//! equals the untraced one byte for byte.

use crate::json::Json;
use crate::{load_job, peak_rss_mb, seconds_since, Args, Reload, SETUPS};
use rand::rngs::StdRng;
use std::any::Any;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;
use wayfinder_core::{SessionBuilder, TargetInstance, TargetRegistry, TargetRequest};
use wf_configspace::Configuration;
use wf_deeptune::{DeepTune, DeepTuneConfig};
use wf_drift::{DriftDetector, MeanShift, PageHinkley};
use wf_jobfile::{AlgorithmId, DetectorId, Job};
use wf_ossim::{DriftScenario, DriftSchedule};
use wf_platform::{
    DriftConfig, EvalBackend, EvalTarget, EventSink, InProcessBackend, JsonlSink, LaneError,
    Objective, Session, SessionEvent, SessionSpec, SessionStore, SimTarget, WorkItem, WorkResult,
};
use wf_search::{
    AlgoStats, BayesOpt, CausalSearch, GridSearch, Observation, RandomSearch, SamplePolicy,
    SearchAlgorithm, SearchContext,
};

/// Host seconds spent in each layer during one wave.
#[derive(Default)]
struct Layers {
    ask: f64,
    evaluate: f64,
    tell: f64,
    record: f64,
    epilogue: f64,
}

/// What the decorators have seen so far.
#[derive(Default)]
struct Trace {
    wave: Layers,
    /// When the current wave's last candidate event returned.
    last_record_end: Option<Instant>,
    /// Record time of the drift events inside the epilogue window.
    epilogue_record: f64,
    asks: usize,
    tells: usize,
    evals: usize,
    crashes: usize,
    drifts: usize,
    cache_hits: u64,
    cache_misses: u64,
}

#[derive(Clone, Default)]
struct Shared(Arc<Mutex<Trace>>);

impl Shared {
    fn lock(&self) -> MutexGuard<'_, Trace> {
        self.0
            .lock()
            .expect("no decorator panics while holding the trace")
    }
}

struct TimedAlgorithm {
    inner: Box<dyn SearchAlgorithm>,
    trace: Shared,
}

impl SearchAlgorithm for TimedAlgorithm {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn propose(&mut self, ctx: &SearchContext<'_>, rng: &mut StdRng) -> Configuration {
        self.inner.propose(ctx, rng)
    }

    fn observe(&mut self, ctx: &SearchContext<'_>, obs: &Observation) {
        self.inner.observe(ctx, obs)
    }

    fn propose_batch(
        &mut self,
        n: usize,
        ctx: &SearchContext<'_>,
        rng: &mut StdRng,
    ) -> Vec<Configuration> {
        let t = Instant::now();
        let out = self.inner.propose_batch(n, ctx, rng);
        let dt = seconds_since(t);
        let mut trace = self.trace.lock();
        trace.wave.ask += dt;
        trace.asks += 1;
        out
    }

    fn observe_batch(&mut self, ctx: &SearchContext<'_>, batch: &[Observation]) {
        let t = Instant::now();
        self.inner.observe_batch(ctx, batch);
        let dt = seconds_since(t);
        let mut trace = self.trace.lock();
        trace.wave.tell += dt;
        trace.tells += 1;
    }

    fn stats(&self) -> AlgoStats {
        self.inner.stats()
    }

    fn begin_epoch(&mut self, transfer: bool) {
        self.inner.begin_epoch(transfer)
    }

    fn as_any_mut(&mut self) -> Option<&mut dyn Any> {
        self.inner.as_any_mut()
    }
}

struct TimedBackend {
    inner: InProcessBackend,
    trace: Shared,
}

impl EvalBackend for TimedBackend {
    fn label(&self) -> &'static str {
        self.inner.label()
    }

    fn run_items(
        &mut self,
        target: &Arc<dyn EvalTarget>,
        session_seed: u64,
        repetitions: usize,
        items: Vec<WorkItem>,
    ) -> Vec<Result<WorkResult, LaneError>> {
        let t = Instant::now();
        let out = self
            .inner
            .run_items(target, session_seed, repetitions, items);
        let dt = seconds_since(t);
        self.trace.lock().wave.evaluate += dt;
        out
    }
}

struct TimedSink {
    inner: JsonlSink,
    trace: Shared,
}

impl EventSink for TimedSink {
    fn on_event(&mut self, event: &SessionEvent) {
        let start = Instant::now();
        self.inner.on_event(event);
        let end = Instant::now();
        let dt = (end - start).as_secs_f64();
        let mut trace = self.trace.lock();
        trace.wave.record += dt;
        match event {
            SessionEvent::CandidateEvaluated(record) => {
                trace.evals += 1;
                trace.crashes += usize::from(record.crashed());
                trace.last_record_end = Some(end);
            }
            SessionEvent::NewBest { .. } => trace.last_record_end = Some(end),
            SessionEvent::DriftDetected { .. } => {
                trace.drifts += 1;
                trace.epilogue_record += dt;
            }
            SessionEvent::EpochStarted { .. } => trace.epilogue_record += dt,
            SessionEvent::WaveCompleted(stats) => {
                trace.cache_hits += stats.cache_hits;
                trace.cache_misses += stats.cache_misses;
                if let Some(last) = trace.last_record_end.take() {
                    trace.wave.epilogue += (start - last).as_secs_f64() - trace.epilogue_record;
                }
                trace.epilogue_record = 0.0;
            }
            _ => {}
        }
    }
}

/// Instantiates the job's target, as `target_from_job` does. Jobs with
/// explicit `params:` or `pinned:` are refused: the rebuild does not
/// reproduce those paths.
fn instantiate(job: &Job) -> Result<TargetInstance, String> {
    if !job.params.is_empty() || !job.pinned.is_empty() {
        return Err("traced runs support jobs without params: and pinned:".into());
    }
    let registry = TargetRegistry::builtin();
    let factory = registry
        .get(&job.os)
        .ok_or_else(|| format!("unknown target {:?}", job.os))?;
    factory
        .instantiate(&TargetRequest {
            app: job
                .app
                .clone()
                .unwrap_or_else(|| factory.default_app().into()),
            runtime_params: job.runtime_params.unwrap_or(200),
        })
        .map_err(|e| e.to_string())
}

/// The rest of `SessionBuilder::build` for the resolved `job`, with the
/// algorithm and backend wrapped.
fn assemble(job: &Job, instance: TargetInstance, trace: &Shared) -> Result<Session, String> {
    let TargetInstance { target, policy } = instance;
    let policy = match (job.focus.stage(), policy) {
        (Some(stage), SamplePolicy::Uniform) => SamplePolicy::StageFocused(stage),
        (_, p) => p,
    };
    // `job` is a resolved job, whose `metric:` encodes the objective.
    let objective = match job.metric.as_deref() {
        None => Objective::Metric,
        Some("memory") => Objective::MemoryMb,
        Some("score") => Objective::ThroughputMemoryScore,
        Some(other) => return Err(format!("resolved job has metric {other:?}")),
    };
    let algorithm: Box<dyn SearchAlgorithm> = match job.algorithm {
        AlgorithmId::Random => Box::new(RandomSearch::new()),
        AlgorithmId::Grid => Box::new(GridSearch::new(8)),
        AlgorithmId::Bayesian => Box::new(BayesOpt::new()),
        AlgorithmId::Causal => Box::new(CausalSearch::new()),
        AlgorithmId::DeepTune => {
            let mut cfg = DeepTuneConfig::default();
            cfg.seed ^= job.seed;
            Box::new(DeepTune::new(cfg))
        }
    };
    let drift = match &job.drift {
        None => None,
        Some(spec) => {
            let sim = target
                .as_any()
                .downcast_ref::<SimTarget>()
                .ok_or("continuous mode needs a simulated target")?;
            let kind =
                DriftScenario::parse(spec.scenario.keyword()).ok_or("unknown drift scenario")?;
            let detector: Box<dyn DriftDetector> = match spec.detector {
                DetectorId::MeanShift => Box::new(MeanShift::new(spec.window, spec.threshold)),
                DetectorId::PageHinkley => Box::new(PageHinkley::new(
                    spec.window,
                    spec.threshold * 0.25,
                    spec.threshold,
                )),
            };
            Some(DriftConfig {
                schedule: DriftSchedule::scenario(kind, sim.os(), sim.app(), spec.shift_at_s),
                detector,
                min_epoch: spec.min_epoch,
                transfer: spec.transfer,
            })
        }
    };
    let workers = job.workers.unwrap_or(1);
    let spec = SessionSpec {
        objective,
        direction: job.direction,
        policy,
        budget: job.budget,
        repetitions: job.repetitions,
        seed: job.seed,
        workers,
        backend: job.backend,
        routing: job.routing,
        remote: None,
    };
    let mut session = Session::with_backend(
        target,
        Box::new(TimedAlgorithm {
            inner: algorithm,
            trace: trace.clone(),
        }),
        spec,
        Box::new(TimedBackend {
            inner: InProcessBackend::new(workers),
            trace: trace.clone(),
        }),
    );
    if let Some(config) = drift {
        session.enable_drift(config);
    }
    Ok(session)
}

pub fn run(args: &Args) -> Result<Json, String> {
    let job = SessionBuilder::from_job(&load_job(&args.job)?)
        .and_then(SessionBuilder::build)
        .map_err(|e| e.to_string())?
        .resolved_job()
        .clone();

    // Set-up, split into target instantiation and the rest of `build()`.
    let trace = Shared::default();
    let mut setup_target_s = Vec::with_capacity(SETUPS);
    let mut setup_rest_s = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let instance = instantiate(&job)?;
        setup_target_s.push(seconds_since(t));
        let t = Instant::now();
        let session = assemble(&job, instance, &trace)?;
        setup_rest_s.push(seconds_since(t));
        built = Some(session);
    }
    let mut session = built.expect("at least one set-up");
    let dir = args.out.join("store");
    let store = SessionStore::create(&dir, &job).map_err(|e| e.to_string())?;
    let mut sink = TimedSink {
        inner: store.sink().map_err(|e| e.to_string())?,
        trace: trace.clone(),
    };

    // The loop of `Session::run_with`, one timed wave at a time.
    let mut totals = Vec::new();
    let mut waves = Vec::new();
    let t_session = Instant::now();
    sink.on_event(&session.start_event());
    if let Some(event) = session.epoch_zero_event() {
        sink.on_event(&event);
    }
    // The session-level events above belong to no wave.
    trace.lock().wave = Layers::default();
    while !session.done() {
        let t = Instant::now();
        session.step_wave_with(&mut sink);
        totals.push(seconds_since(t));
        waves.push(std::mem::take(&mut trace.lock().wave));
    }
    let summary = session.summary();
    sink.on_event(&SessionEvent::SessionFinished(summary.clone()));
    let session_s = seconds_since(t_session);
    if let Some(e) = sink.inner.error() {
        return Err(format!("event log incomplete: {e}"));
    }
    drop(sink);

    let events = std::fs::read(store.events_path()).map_err(|e| e.to_string())?;
    let lane_failures: u64 = session.lane_stats().iter().map(|l| l.failures).sum();
    let mem_bytes = session.algorithm().stats().memory_bytes;
    let reload = Reload::measure(&dir, session.space(), &args.out)?;
    let trace = trace.lock();
    let layer = |f: fn(&Layers) -> f64| Json::from(waves.iter().map(f).collect::<Vec<_>>());
    Ok(Json::obj([
        ("iterations", Json::from(summary.iterations)),
        ("setup_target_s", Json::from(setup_target_s)),
        ("setup_rest_s", Json::from(setup_rest_s)),
        ("session_s", Json::from(session_s)),
        ("wave_s", Json::from(totals)),
        ("ask_s", layer(|l| l.ask)),
        ("evaluate_s", layer(|l| l.evaluate)),
        ("tell_s", layer(|l| l.tell)),
        ("record_s", layer(|l| l.record)),
        ("epilogue_s", layer(|l| l.epilogue)),
        ("asks", Json::from(trace.asks)),
        ("tells", Json::from(trace.tells)),
        ("evals", Json::from(trace.evals)),
        ("crashes", Json::from(trace.crashes)),
        ("drifts", Json::from(trace.drifts)),
        ("cache_hits", Json::from(trace.cache_hits)),
        ("cache_misses", Json::from(trace.cache_misses)),
        ("lane_failures", Json::from(lane_failures)),
        ("mem_bytes", Json::from(mem_bytes)),
        ("record_bytes", Json::from(events.len())),
        (
            "record_lines",
            Json::from(events.iter().filter(|&&b| b == b'\n').count()),
        ),
    ])
    .extend(reload.json())
    .extend([("peak_rss_mb", Json::from(peak_rss_mb()?))]))
}
