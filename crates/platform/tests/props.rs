//! Property tests for the multi-worker pipeline's determinism guarantees
//! and the metric post-processing invariants the figures rely on.

use proptest::prelude::*;
use std::os::unix::net::UnixStream;
use wf_drift::MeanShift;
use wf_jobfile::Budget;
use wf_kconfig::LinuxVersion;
use wf_ossim::{App, AppId, DriftScenario, DriftSchedule, SimOs};
use wf_platform::{
    min_max_normalize, rolling_crash_rate, serve, throughput_memory_score, DriftConfig,
    EvalBackend, InProcessBackend, RecordingSink, RemoteBackend, Series, Session, SessionEvent,
    SessionSpec, SimTarget,
};
use wf_search::RandomSearch;

/// A compact fingerprint of everything the determinism guarantee covers:
/// the evaluation history in candidate order (configuration, outcome,
/// per-candidate virtual cost), the best configuration, and the
/// worker-count-invariant compute clock.
#[derive(Debug, PartialEq)]
struct SessionTrace {
    history: Vec<(u64, Option<u64>, bool, u64)>,
    best_config: Option<u64>,
    best_metric: Option<f64>,
    compute_s: f64,
    elapsed_s: f64,
}

fn fixture_target() -> SimTarget {
    SimTarget::new(
        SimOs::linux_runtime(LinuxVersion::V4_19, 56),
        App::by_id(AppId::Nginx),
    )
}

/// The two backend families the determinism contract quantifies over.
/// "Remote" is the real wire protocol: one `serve` loop per lane on the
/// far side of a socketpair, each materializing the fixture target the
/// way a `wf-evald` process would.
#[derive(Clone, Copy, Debug)]
enum BackendKind {
    InProcess,
    Remote,
}

fn make_backend(kind: BackendKind, workers: usize) -> Box<dyn EvalBackend> {
    match kind {
        BackendKind::InProcess => Box::new(InProcessBackend::new(workers)),
        BackendKind::Remote => {
            let mut streams = Vec::new();
            for lane in 0..workers {
                let (ours, theirs) = UnixStream::pair().expect("socketpair");
                std::thread::spawn(move || {
                    let target = fixture_target();
                    let _ = serve(theirs, lane, &target);
                });
                streams.push(ours);
            }
            Box::new(RemoteBackend::from_streams(streams).expect("remote handshake"))
        }
    }
}

fn fixture_spec(seed: u64, workers: usize, iterations: usize) -> SessionSpec {
    SessionSpec {
        budget: Budget {
            iterations: Some(iterations),
            time_seconds: None,
        },
        seed,
        workers,
        repetitions: 2,
        ..SessionSpec::default()
    }
}

fn trace(mut session: Session) -> SessionTrace {
    let summary = session.run();
    SessionTrace {
        history: session
            .history()
            .records()
            .iter()
            .map(|r| {
                (
                    r.config.fingerprint(),
                    r.metric.map(f64::to_bits),
                    r.crashed(),
                    r.duration_s.to_bits(),
                )
            })
            .collect(),
        best_config: summary.best_config.as_ref().map(|c| c.fingerprint()),
        best_metric: summary.best_metric,
        compute_s: summary.compute_s,
        elapsed_s: summary.elapsed_s,
    }
}

fn run_traced(seed: u64, workers: usize, iterations: usize) -> SessionTrace {
    let os = SimOs::linux_runtime(LinuxVersion::V4_19, 56);
    let app = App::by_id(AppId::Nginx);
    trace(Session::new(
        os,
        app,
        Box::new(RandomSearch::new()),
        fixture_spec(seed, workers, iterations),
    ))
}

fn run_traced_on(kind: BackendKind, seed: u64, workers: usize, iterations: usize) -> SessionTrace {
    trace(Session::with_backend(
        Box::new(fixture_target()),
        Box::new(RandomSearch::new()),
        fixture_spec(seed, workers, iterations),
        make_backend(kind, workers),
    ))
}

proptest! {
    // The archetype headline: 64 cases of seed × worker counts 1–8.
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Same seed, any worker count in {1, 2, 4, 8}: identical evaluation
    /// history (configs, outcomes, per-candidate costs, in candidate
    /// order), identical best configuration, and an identical virtual
    /// compute clock — while the wall clock only ever shrinks as the
    /// pool widens.
    #[test]
    fn sessions_are_worker_count_invariant(seed in any::<u64>(), iters in 6usize..14) {
        let reference = run_traced(seed, 1, iters);
        prop_assert_eq!(reference.history.len(), iters);
        // One worker has nothing to overlap: wall == compute.
        prop_assert!((reference.elapsed_s - reference.compute_s).abs() < 1e-9);
        for workers in [2usize, 4, 8] {
            let t = run_traced(seed, workers, iters);
            prop_assert_eq!(&t.history, &reference.history, "history diverged at {} workers", workers);
            prop_assert_eq!(t.best_config, reference.best_config);
            prop_assert_eq!(t.best_metric, reference.best_metric);
            // Per-record durations are bit-identical (checked above); the
            // clock itself is a float sum whose grouping follows the wave
            // shape, so compare to within rounding.
            prop_assert!((t.compute_s - reference.compute_s).abs() < 1e-6 * reference.compute_s.max(1.0));
            // Overlapping evaluations can only shorten the wall clock.
            prop_assert!(t.elapsed_s <= reference.elapsed_s + 1e-9);
        }
    }
}

proptest! {
    // Each case runs 8 full sessions (2 backends × 4 widths), the
    // remote ones over the real wire protocol, so fewer cases than the
    // worker-count test keep the suite fast while still sweeping seeds.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The backend choice is not allowed to exist, observably: the
    /// inline in-process backend and remote workers behind the
    /// `wf-evald` socket protocol both produce the identical
    /// history, best configuration, and compute clock as a 1-worker
    /// reference, at every pool width.
    #[test]
    fn sessions_are_backend_invariant(seed in any::<u64>(), iters in 6usize..12) {
        let reference = run_traced(seed, 1, iters);
        for kind in [BackendKind::InProcess, BackendKind::Remote] {
            for workers in [1usize, 2, 4, 8] {
                let t = run_traced_on(kind, seed, workers, iters);
                prop_assert_eq!(
                    &t.history, &reference.history,
                    "history diverged on {:?} at {} workers", kind, workers
                );
                prop_assert_eq!(t.best_config, reference.best_config);
                prop_assert_eq!(t.best_metric, reference.best_metric);
                prop_assert!((t.compute_s - reference.compute_s).abs() < 1e-6 * reference.compute_s.max(1.0));
                prop_assert!(t.elapsed_s <= reference.elapsed_s + 1e-9);
            }
        }
    }
}

/// Runs a continuous (drift-enabled) session and fingerprints every
/// detector decision: each confirmed drift and each epoch transition,
/// with the float fields down to the bit.
fn drift_decisions(
    kind: Option<BackendKind>,
    seed: u64,
    workers: usize,
    iterations: usize,
) -> Vec<String> {
    let os = SimOs::linux_runtime(LinuxVersion::V4_19, 56);
    let app = App::by_id(AppId::Nginx);
    let schedule = DriftSchedule::scenario(DriftScenario::Step, &os, &app, 600.0);
    let spec = fixture_spec(seed, workers, iterations);
    let algorithm = Box::new(RandomSearch::new());
    let mut session = match kind {
        None => Session::new(os, app, algorithm, spec),
        Some(k) => Session::with_backend(
            Box::new(fixture_target()),
            algorithm,
            spec,
            make_backend(k, workers),
        ),
    };
    session.enable_drift(DriftConfig {
        schedule,
        detector: Box::new(MeanShift::new(4, 0.12)),
        min_epoch: 6,
        transfer: false,
    });
    let mut sink = RecordingSink::new();
    let _ = session.run_with(&mut sink);
    sink.events
        .iter()
        .filter_map(|event| match event {
            SessionEvent::DriftDetected {
                epoch,
                at_iteration,
                at_s,
                detector,
                signal,
                baseline,
            } => Some(format!(
                "drift {epoch} {at_iteration} {} {detector} {} {}",
                at_s.to_bits(),
                signal.to_bits(),
                baseline.to_bits()
            )),
            SessionEvent::EpochStarted {
                epoch,
                first_iteration,
                at_s,
                transfer,
                phase,
                oracle_metric,
            } => Some(format!(
                "epoch {epoch} {first_iteration} {} {transfer} {phase} {}",
                at_s.to_bits(),
                oracle_metric.to_bits()
            )),
            _ => None,
        })
        .collect()
}

proptest! {
    // Each case runs 5 continuous sessions (widths 1/2/4 plus the two
    // backend families at width 2) on the step scenario.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Continuous mode inherits the determinism contract: the drift
    /// detector sees the deployed reference's telemetry in iteration
    /// order on a per-candidate virtual clock, so the *first* confirmed
    /// detection — which iteration, at which virtual time, every
    /// recorded float — is bit-identical at every worker count (epoch
    /// boundaries align to wave boundaries, so later epochs may
    /// legitimately differ with the wave shape); and at a fixed width
    /// the backend choice must not be observable at all, down to the
    /// full decision sequence.
    #[test]
    fn drift_decisions_are_worker_and_backend_invariant(seed in any::<u64>(), iters in 18usize..30) {
        let first = |d: &[String]| d.iter().find(|l| l.starts_with("drift")).cloned();
        let reference = drift_decisions(None, seed, 1, iters);
        for workers in [2usize, 4] {
            let t = drift_decisions(None, seed, workers, iters);
            prop_assert_eq!(first(&t), first(&reference), "first detection diverged at {} workers", workers);
        }
        let two = drift_decisions(None, seed, 2, iters);
        for kind in [BackendKind::InProcess, BackendKind::Remote] {
            let t = drift_decisions(Some(kind), seed, 2, iters);
            prop_assert_eq!(&t, &two, "decisions diverged on {:?}", kind);
        }
    }
}

fn series_strategy() -> impl Strategy<Value = Series> {
    proptest::collection::vec((-1e6f64..1e6, 0.0f64..100.0), 1..40).prop_map(|pairs| {
        let mut s = Series::new();
        let mut t = 0.0;
        for (y, dt) in pairs {
            t += dt;
            s.push(t, y);
        }
        s
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn smoothing_preserves_length_and_bounds(s in series_strategy(), w in 1usize..12) {
        let sm = s.smoothed(w);
        prop_assert_eq!(sm.len(), s.len());
        let lo = s.y.iter().cloned().fold(f64::MAX, f64::min);
        let hi = s.y.iter().cloned().fold(f64::MIN, f64::max);
        for y in &sm.y {
            prop_assert!(*y >= lo - 1e-9 && *y <= hi + 1e-9);
        }
    }

    #[test]
    fn best_so_far_is_monotone(s in series_strategy()) {
        let up = s.best_so_far(true);
        prop_assert!(up.y.windows(2).all(|w| w[0] <= w[1]));
        let down = s.best_so_far(false);
        prop_assert!(down.y.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn resample_holds_values_from_the_source(s in series_strategy(), k in 2usize..40) {
        let t_end = s.t.last().unwrap() + 1.0;
        let r = s.resample(t_end, k);
        prop_assert_eq!(r.len(), k);
        // Every resampled value occurs in the source series.
        for y in &r.y {
            prop_assert!(s.y.iter().any(|v| v == y));
        }
        // Time axis is evenly spaced and ends at t_end.
        prop_assert!((r.t.last().unwrap() - t_end).abs() < 1e-9);
    }

    #[test]
    fn min_max_lands_in_unit_interval(values in proptest::collection::vec(-1e9f64..1e9, 1..50)) {
        let n = min_max_normalize(&values);
        prop_assert_eq!(n.len(), values.len());
        for v in &n {
            prop_assert!((0.0..=1.0).contains(v));
        }
    }

    #[test]
    fn eq4_score_is_bounded(
        thr in proptest::collection::vec(0.0f64..1e6, 1..30),
        seed in any::<u64>(),
    ) {
        // Memory vector of the same length derived deterministically.
        let mem: Vec<f64> = thr
            .iter()
            .enumerate()
            .map(|(i, t)| (t * 0.01 + (seed % 97) as f64 + i as f64).abs())
            .collect();
        let scores = throughput_memory_score(&thr, &mem);
        for v in &scores {
            prop_assert!((-1.0..=1.0).contains(v), "score {v}");
        }
    }

    #[test]
    fn crash_rate_is_a_probability(
        flags in proptest::collection::vec(any::<bool>(), 1..60),
        window in 1usize..20,
    ) {
        let t: Vec<f64> = (0..flags.len()).map(|i| i as f64).collect();
        let s = rolling_crash_rate(&t, &flags, window);
        prop_assert_eq!(s.len(), flags.len());
        for y in &s.y {
            prop_assert!((0.0..=1.0).contains(y));
        }
    }
}
