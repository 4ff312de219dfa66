//! End-to-end guarantees of the session store: for every registered
//! target and every search algorithm, a campaign interrupted at a wave
//! boundary and resumed from its on-disk store produces the exact same
//! history, best configuration, and compute clock as the uninterrupted
//! campaign — without re-evaluating a single completed candidate — and
//! `wfctl` drives the whole flow from the command line.

use std::path::PathBuf;
use std::process::Command;
use wayfinder::platform::store::line_hash;
use wayfinder::prelude::*;
use wayfinder::scenarios;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("wf-e2e-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn build(keyword: &str, algorithm: AlgorithmChoice, iterations: usize) -> SpecializationSession {
    SessionBuilder::new()
        .name("equivalence")
        .target(keyword)
        .registry(scenarios::registry())
        .algorithm(algorithm)
        .runtime_params(64)
        .iterations(iterations)
        .seed(4242)
        .workers(2)
        .build()
        .expect("registered targets build")
}

/// One record's fingerprint, metric bits, crash, cache hit, duration
/// and finish-time bits, and algorithm memory.
type RecordTrace = (u64, Option<u64>, bool, bool, u64, u64, usize);

/// Everything the resume guarantee covers, bit-exact per record.
fn trace(session: &SpecializationSession) -> Vec<RecordTrace> {
    session
        .platform()
        .history()
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
                r.algo_memory_bytes,
            )
        })
        .collect()
}

/// Runs `keyword` × `algorithm` to completion twice — once uninterrupted,
/// once interrupted after `interrupt_waves` waves and resumed from the
/// store — and asserts the resumed campaign is indistinguishable.
fn assert_resume_equivalent(
    keyword: &str,
    algorithm: fn() -> AlgorithmChoice,
    iterations: usize,
    interrupt_waves: usize,
    tag: &str,
) {
    let mut full = build(keyword, algorithm(), iterations);
    let full_outcome = full.run();

    let dir = temp_dir(tag);
    let mut interrupted = build(keyword, algorithm(), iterations);
    let store = SessionStore::create(&dir, interrupted.resolved_job()).expect("fresh store");
    {
        let mut sink = store.sink().expect("event log");
        for _ in 0..interrupt_waves {
            interrupted.platform_mut().step_wave_with(&mut sink);
        }
    }
    let interrupted_len = interrupted.platform().history().len();
    assert!(
        interrupted_len < iterations,
        "{tag}: interrupt must land mid-campaign ({interrupted_len}/{iterations})"
    );
    drop(interrupted); // the crash: only the store survives

    let mut resumed =
        SessionBuilder::resume_with(&dir, scenarios::registry()).expect("store resumes");
    assert_eq!(
        resumed.platform().history().len(),
        interrupted_len,
        "{tag}: replay restores the stored prefix"
    );
    let resumed_outcome = {
        let mut sink = store.sink().expect("append");
        resumed.run_with(&mut sink)
    };

    assert_eq!(trace(&full), trace(&resumed), "{tag}: histories diverged");
    assert_eq!(
        full_outcome.best.as_ref().map(|(c, _)| c.fingerprint()),
        resumed_outcome.best.as_ref().map(|(c, _)| c.fingerprint()),
        "{tag}: best configuration diverged"
    );
    assert_eq!(
        full_outcome.best.as_ref().map(|(_, v)| v.to_bits()),
        resumed_outcome.best.as_ref().map(|(_, v)| v.to_bits()),
        "{tag}: best objective diverged"
    );
    assert_eq!(
        full_outcome.summary.compute_s.to_bits(),
        resumed_outcome.summary.compute_s.to_bits(),
        "{tag}: compute clock diverged"
    );
    assert_eq!(
        full_outcome.summary.elapsed_s.to_bits(),
        resumed_outcome.summary.elapsed_s.to_bits(),
        "{tag}: wall clock diverged"
    );

    // The store now holds the complete campaign.
    let loaded = SessionStore::open(&dir)
        .expect("open")
        .load()
        .expect("load");
    assert_eq!(loaded.records.len(), iterations, "{tag}");
    assert!(loaded.finished, "{tag}");
    std::fs::remove_dir_all(&dir).ok();
}

/// The acceptance matrix: every registered target × {random, grid,
/// bayes, causal}, interrupted after two waves.
#[test]
fn resume_equivalence_for_every_target_and_algorithm() {
    type Factory = fn() -> AlgorithmChoice;
    let algorithms: [(&str, Factory); 4] = [
        ("random", || AlgorithmChoice::Random),
        ("grid", || AlgorithmChoice::Grid),
        ("bayes", || AlgorithmChoice::Bayesian),
        ("causal", || AlgorithmChoice::Causal),
    ];
    for keyword in scenarios::registry().keywords() {
        for (name, algorithm) in algorithms {
            let tag = format!("{keyword}-{name}");
            assert_resume_equivalent(&keyword, algorithm, 8, 2, &tag);
        }
    }
}

/// Interrupting at *any* wave boundary resumes exactly — not just the
/// midpoint.
#[test]
fn resume_equivalence_at_every_wave_boundary() {
    for k in 1..4 {
        assert_resume_equivalent(
            "linux-4.19",
            || AlgorithmChoice::Random,
            8,
            k,
            &format!("boundary-{k}"),
        );
    }
}

/// DeepTune's replay retrains the surrogate from the persisted
/// observations, so even the model-based paper algorithm resumes exactly.
#[test]
fn resume_equivalence_for_deeptune() {
    assert_resume_equivalent("linux-4.19", || AlgorithmChoice::DeepTune, 6, 1, "deeptune");
}

/// A resumed-then-finished store replays a *third* time: stores stay
/// valid across arbitrarily many interruptions.
#[test]
fn stores_survive_repeated_resumes() {
    let dir = temp_dir("repeated");
    let mut first = build("linux-6.0-net", AlgorithmChoice::Random, 9);
    let store = SessionStore::create(&dir, first.resolved_job()).unwrap();
    {
        let mut sink = store.sink().unwrap();
        first.platform_mut().step_wave_with(&mut sink);
    }
    drop(first);

    // Second segment: two more waves, then "crash" again.
    let mut second = SessionBuilder::resume_with(&dir, scenarios::registry()).unwrap();
    {
        let mut sink = store.sink().unwrap();
        second.platform_mut().step_wave_with(&mut sink);
        second.platform_mut().step_wave_with(&mut sink);
    }
    drop(second);

    // Third segment runs to completion.
    let mut third = SessionBuilder::resume_with(&dir, scenarios::registry()).unwrap();
    assert_eq!(third.platform().history().len(), 6);
    let outcome = {
        let mut sink = store.sink().unwrap();
        third.run_with(&mut sink)
    };
    assert_eq!(outcome.summary.iterations, 9);

    let mut full = build("linux-6.0-net", AlgorithmChoice::Random, 9);
    let full_outcome = full.run();
    assert_eq!(trace(&full), trace(&third));
    assert_eq!(
        full_outcome.summary.compute_s.to_bits(),
        outcome.summary.compute_s.to_bits()
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The resume guarantee extends across epoch boundaries: a continuous
/// session interrupted *after* its first confirmed drift replays the
/// stored epochs offline and finishes bit-identical to the
/// uninterrupted run — same records, same epoch count, same persisted
/// `EpochStarted`/`DriftDetected` trail.
#[test]
fn continuous_sessions_resume_across_epoch_boundaries() {
    fn build_continuous(iterations: usize) -> SpecializationSession {
        SessionBuilder::new()
            .name("continuous-equivalence")
            .app(AppId::Nginx)
            .algorithm(AlgorithmChoice::Random)
            .runtime_params(56)
            .iterations(iterations)
            .seed(4711)
            .workers(2)
            .continuous(DriftSpec {
                shift_at_s: 600.0,
                window: 4,
                threshold: 0.12,
                min_epoch: 6,
                ..DriftSpec::default()
            })
            .build()
            .expect("continuous sessions build on the sim target")
    }
    const ITERATIONS: usize = 44;

    let full_dir = temp_dir("continuous-full");
    let mut full = build_continuous(ITERATIONS);
    let full_store = SessionStore::create(&full_dir, full.resolved_job()).unwrap();
    {
        let mut sink = full_store.sink().unwrap();
        full.run_with(&mut sink);
    }
    assert!(
        full.platform().epoch() >= 1,
        "the step must confirm at least one drift"
    );

    // Interrupt one wave past the first epoch boundary.
    let dir = temp_dir("continuous-resume");
    let mut interrupted = build_continuous(ITERATIONS);
    let store = SessionStore::create(&dir, interrupted.resolved_job()).unwrap();
    {
        let mut sink = store.sink().unwrap();
        // Stepping waves directly bypasses `run_with`'s session-start
        // emission, so open epoch 0 the way a real driver does.
        let epoch_zero = interrupted
            .platform()
            .epoch_zero_event()
            .expect("continuous sessions open with epoch 0");
        sink.on_event(&epoch_zero);
        while interrupted.platform().epoch() == 0 {
            assert!(
                interrupted.platform().history().len() < ITERATIONS,
                "budget exhausted before the drift confirmed"
            );
            interrupted.platform_mut().step_wave_with(&mut sink);
        }
        interrupted.platform_mut().step_wave_with(&mut sink);
    }
    drop(interrupted); // the crash: only the store survives

    // The manifest carries `mode: continuous` + the drift spec, so the
    // plain resume path rebuilds the detector and replays the epochs.
    let mut resumed = SessionBuilder::resume(&dir).expect("continuous store resumes");
    assert!(
        resumed.platform().epoch() >= 1,
        "replay must re-derive the epoch boundary offline"
    );
    {
        let mut sink = store.sink().unwrap();
        resumed.run_with(&mut sink);
    }

    assert_eq!(
        trace(&full),
        trace(&resumed),
        "continuous histories diverged"
    );
    assert_eq!(full.platform().epoch(), resumed.platform().epoch());

    // Both persisted trails agree, drift record for drift record.
    let a = full_store.load().unwrap();
    let b = store.load().unwrap();
    assert_eq!(a.records.len(), ITERATIONS);
    assert_eq!(a.epochs, b.epochs, "persisted epoch trails diverged");
    assert_eq!(a.drift_events, b.drift_events);
    assert!(a.epochs.len() >= 2, "epoch 0 plus every reopened epoch");
    assert!(!a.drift_events.is_empty());
    full_store.verify_chain().unwrap();
    store.verify_chain().unwrap();
    std::fs::remove_dir_all(&full_dir).ok();
    std::fs::remove_dir_all(&dir).ok();
}

fn wfctl(args: &[&str]) -> (bool, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_wfctl"))
        .args(args)
        .output()
        .expect("wfctl runs");
    let text = String::from_utf8_lossy(&output.stdout).into_owned();
    (output.status.success(), text)
}

/// The ledger is a pure function of the job: two `wfctl run`s of one
/// multi-worker job write byte-identical event logs, hash chain included.
#[test]
fn two_runs_of_one_job_write_byte_identical_ledgers() {
    let base = temp_dir("ledger");
    std::fs::create_dir_all(&base).unwrap();
    let job = base.join("job.yaml");
    std::fs::write(
        &job,
        "name: ledger\nos: linux-4.19\nalgorithm: bayesian\nseed: 11\nworkers: 3\nruntime_params: 64\nbudget:\n  iterations: 24\n",
    )
    .unwrap();
    let job = job.to_str().unwrap();
    let events: Vec<Vec<u8>> = ["a", "b"]
        .iter()
        .map(|run| {
            let out = base.join(run);
            let (ok, _) = wfctl(&["run", job, "--out", out.to_str().unwrap()]);
            assert!(ok, "run {run}");
            std::fs::read(out.join("events.jsonl")).unwrap()
        })
        .collect();
    assert!(!events[0].is_empty());
    assert!(
        events[0] == events[1],
        "two runs of one job must write the same events.jsonl bytes"
    );
    std::fs::remove_dir_all(&base).ok();
}

/// The ledger bytes are pinned, not only reproducible: a small
/// continuous job whose log holds every event kind (including
/// `epoch_started`, `drift_detected` and `new_best`) must end its hash
/// chain on this exact line hash. The chain commits to every byte of
/// the log, so any change to the encoder, the event order or the
/// session's arithmetic moves it, even one that moves every run alike.
#[test]
fn a_fixed_continuous_job_writes_the_golden_ledger() {
    const GOLDEN_TAIL: u64 = 0xf8a9_71aa_5f47_3f6d;
    let base = temp_dir("golden");
    std::fs::create_dir_all(&base).unwrap();
    let job = base.join("job.yaml");
    std::fs::write(
        &job,
        "name: drift-smoke\nos: linux-4.19\nalgorithm: random\nseed: 29\nworkers: 2\n\
         runtime_params: 56\nmode: continuous\nbudget:\n  iterations: 40\ndrift:\n  \
         scenario: step\n  shift_at_s: 600\n  window: 4\n  threshold: 0.12\n  min_epoch: 6\n",
    )
    .unwrap();
    let out = base.join("run");
    let (ok, _) = wfctl(&["run", job.to_str().unwrap(), "--out", out.to_str().unwrap()]);
    assert!(ok, "wfctl run");
    let text = std::fs::read_to_string(out.join("events.jsonl")).unwrap();
    for kind in [
        "epoch_started",
        "drift_detected",
        "new_best",
        "session_finished",
    ] {
        assert!(
            text.contains(&format!("\"event\":\"{kind}\"")),
            "the golden job logs {kind}"
        );
    }
    assert_eq!((text.lines().count(), text.len()), (106, 34_427));
    let tail = text.lines().last().map(line_hash).unwrap();
    assert_eq!(
        tail, GOLDEN_TAIL,
        "the ledger's bytes moved: tail line hash {tail:016x}"
    );
    std::fs::remove_dir_all(&base).ok();
}

/// The CLI smoke the CI leg mirrors: run a campaign to completion, run
/// the same job to half budget, resume it to the full budget, and demand
/// byte-identical offline reports.
/// `wfctl report` names the best configuration's parameters from the
/// manifest's target alone. A `backend: remote` store reports without
/// launching a `wf-evald` worker, so it still reports with none to find,
/// and its report is the in-process store's.
#[test]
fn wfctl_reports_a_remote_store_with_no_worker_reachable() {
    let base = temp_dir("remote-report");
    std::fs::create_dir_all(&base).unwrap();
    let job = base.join("job.yaml");
    std::fs::write(
        &job,
        "name: remote-report\nos: linux-4.19\nalgorithm: random\nseed: 11\nworkers: 2\nruntime_params: 64\nbudget:\n  iterations: 8\n",
    )
    .unwrap();
    let job = job.to_str().unwrap();
    let store = |name: &str| base.join(name).to_str().unwrap().to_string();
    let (inproc, remote) = (store("inproc"), store("remote"));
    let run = |backend: &str, out: &str| {
        Command::new(env!("CARGO_BIN_EXE_wfctl"))
            .args(["run", job, "--backend", backend, "--out", out])
            .env("WF_EVALD", env!("CARGO_BIN_EXE_wf-evald"))
            .output()
            .expect("wfctl runs")
    };
    assert!(run("in-process", &inproc).status.success());
    assert!(run("remote", &remote).status.success());
    let manifest = std::fs::read_to_string(base.join("remote").join("manifest.yaml")).unwrap();
    assert!(manifest.contains("backend: remote"), "{manifest}");

    let report = |dir: &str| {
        let output = Command::new(env!("CARGO_BIN_EXE_wfctl"))
            .args(["report", dir])
            .env("WF_EVALD", base.join("no-such-wf-evald"))
            .output()
            .expect("wfctl runs");
        assert!(output.status.success(), "report {dir}");
        String::from_utf8_lossy(&output.stdout).into_owned()
    };
    let remote_report = report(&remote);
    assert!(
        remote_report.contains("non-default parameters of the best configuration:"),
        "parameters are named:\n{remote_report}"
    );
    assert!(
        !remote_report.contains("space unavailable"),
        "{remote_report}"
    );
    assert_eq!(remote_report, report(&inproc));
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn wfctl_run_resume_report_round_trip() {
    let base = temp_dir("cli");
    std::fs::create_dir_all(&base).unwrap();
    let job = base.join("job.yaml");
    std::fs::write(
        &job,
        "name: smoke\nos: linux-4.19\nalgorithm: random\nseed: 11\nworkers: 1\nruntime_params: 64\nbudget:\n  iterations: 10\n",
    )
    .unwrap();
    let job = job.to_str().unwrap().to_string();
    let full = base.join("full").to_str().unwrap().to_string();
    let half = base.join("half").to_str().unwrap().to_string();

    let (ok, _) = wfctl(&["run", &job, "--out", &full]);
    assert!(ok, "full run");
    let (ok, _) = wfctl(&["run", &job, "--out", &half, "--iterations", "5"]);
    assert!(ok, "half run");
    let (ok, resumed) = wfctl(&["resume", &half, "--iterations", "10"]);
    assert!(ok, "resume");
    assert!(
        resumed.contains("replayed 5 evaluation(s)"),
        "resume replays the stored prefix:\n{resumed}"
    );

    let (ok, report_full) = wfctl(&["report", &full]);
    assert!(ok, "report full");
    let (ok, report_half) = wfctl(&["report", &half]);
    assert!(ok, "report half");
    assert_eq!(
        report_full, report_half,
        "interrupted+resumed report must match the uninterrupted one"
    );
    assert!(report_full.contains("status: finished, 10 evaluation(s)"));

    // Reports are rendered offline: corrupting nothing, evaluating
    // nothing — rendering twice is instant and stable.
    let (_, again) = wfctl(&["report", &full]);
    assert_eq!(report_full, again);

    // A second `run --out` into an existing store is refused with a
    // resume hint.
    let output = Command::new(env!("CARGO_BIN_EXE_wfctl"))
        .args(["run", &job, "--out", &full])
        .output()
        .unwrap();
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("resume"), "{stderr}");

    // Unknown flags stay hard errors (flag-parity satellite).
    let output = Command::new(env!("CARGO_BIN_EXE_wfctl"))
        .args(["run", &job, "--bogus"])
        .output()
        .unwrap();
    assert!(!output.status.success());

    // The new run flags are accepted.
    let quick = base.join("quick").to_str().unwrap().to_string();
    let (ok, _) = wfctl(&[
        "run",
        &job,
        "--out",
        &quick,
        "--iterations",
        "4",
        "--repetitions",
        "2",
        "--time-budget-s",
        "100000",
    ]);
    assert!(ok, "repetitions/time-budget flags");

    // `validate` previews the resolved defaults a manifest would record.
    let (ok, validated) = wfctl(&["validate", &job]);
    assert!(ok, "validate");
    assert!(
        validated.contains("resolved defaults:"),
        "validate preview:\n{validated}"
    );
    std::fs::remove_dir_all(&base).ok();
}
