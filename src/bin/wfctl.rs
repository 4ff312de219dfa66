//! `wfctl`: the Wayfinder control tool.
//!
//! The paper's artifact drives experiments through `wfctl create job.yaml`
//! / `wfctl start`; this binary mirrors that workflow against the
//! simulated testbed, resolving every `os:` keyword through the open
//! target registry (built-ins plus `wayfinder::scenarios`):
//!
//! ```sh
//! wfctl run <job.yaml>             # run a job file to completion
//! wfctl run <job.yaml> --out DIR   # ... persisting a session store
//! wfctl run --os linux-6.0-net     # ad-hoc session on a registered target
//! wfctl resume <DIR>               # pick an interrupted store back up
//! wfctl report <DIR>               # render a store's report offline
//! wfctl verify <DIR>               # verify a store's ledger hash chain
//! wfctl validate <job.yaml>        # parse + resolve a job without running it
//! wfctl targets                    # list every registered target
//! wfctl bench --out BENCH.json     # time the controller hot paths
//! wfctl bench --target unikraft    # ... on a registered target's space
//! wfctl probe                      # run the §3.4 runtime-space inference
//! wfctl experiments                # list the regeneration targets
//! wfctl daemon --root DIR          # serve the wfd daemon in the foreground
//! wfctl submit <job.yaml>          # hand a job to a running daemon
//! wfctl sessions                   # list the daemon's sessions
//! wfctl watch <ID>                 # stream a daemon session's events live
//! wfctl stop <ID>                  # park a daemon session at a wave boundary
//! ```
//!
//! A store directory (`--out`, the job's `out:` key, or a `resume`
//! operand) holds `manifest.yaml` — the resolved job — plus an
//! append-only, hash-chained `events.jsonl`. Ctrl-C during `run` or
//! `resume` is caught: the session stops at the next wave boundary with
//! the log flushed and checkpointed, so an interrupt loses at most the
//! in-flight wave and `resume` continues it so that
//! interrupted-then-resumed equals uninterrupted, candidate for
//! candidate.
//!
//! The daemon subcommands talk to a `wfd` state root, resolved from
//! `--daemon DIR`, then the `WF_DAEMON` variable, then (for `submit`)
//! the job's `daemon:` key.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use wayfinder::core::{serve_daemon, store_report, target_from_job, BuildError, ServeError};
use wayfinder::ossim::{first_crash, SimOs, SysctlTree};
use wayfinder::platform::daemon::{connect, round_trip};
use wayfinder::platform::store::JsonValue;
use wayfinder::platform::{probe_runtime_space, signal, SessionStore, Tee};
use wayfinder::prelude::*;
use wf_configspace::{ConfigSpace, NamedConfig, Value};
use wf_jobfile::{BackendChoice, RoutingStrategy};
use wf_kconfig::LinuxVersion;
use wf_platform::remote::read_frame;
use wf_platform::EventSink;

/// Every subcommand that answers a first argument of `--help` or `-h`
/// with [`USAGE`]; `lint` has a help of its own.
const SUBCOMMANDS: [&str; 14] = [
    "run",
    "resume",
    "report",
    "validate",
    "targets",
    "bench",
    "probe",
    "experiments",
    "verify",
    "daemon",
    "submit",
    "sessions",
    "watch",
    "stop",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some(sub)
            if SUBCOMMANDS.contains(&sub)
                && matches!(args.get(1).map(String::as_str), Some("--help" | "-h")) =>
        {
            help()
        }
        Some("run") => match RunArgs::parse(&args[1..]) {
            Ok(run) => run_job(&run),
            Err(e) => usage(&e),
        },
        Some("resume") => match ResumeArgs::parse(&args[1..]) {
            Ok(resume) => resume_job(&resume),
            Err(e) => usage(&e),
        },
        Some("report") => match args.get(1) {
            Some(dir) if args.len() == 2 => report_store(dir),
            _ => usage("report takes exactly one store directory"),
        },
        Some("validate") => match args.get(1) {
            Some(path) => validate_job(path),
            None => usage("validate needs a job file"),
        },
        Some("targets") => targets(),
        Some("bench") => match BenchArgs::parse(&args[1..]) {
            Ok(bench) => run_bench(&bench),
            Err(e) => usage(&e),
        },
        Some("probe") => probe(),
        Some("lint") => ExitCode::from(wf_lint::cli::run(&args[1..], "wfctl lint")),
        Some("experiments") => experiments(),
        Some("verify") => match args.get(1) {
            Some(dir) if args.len() == 2 => verify_store(dir),
            _ => usage("verify takes exactly one store directory"),
        },
        Some("daemon") => match DaemonArgs::parse(&args[1..]) {
            Ok(daemon) => run_daemon(&daemon),
            Err(e) => usage(&e),
        },
        Some("submit") => match ClientArgs::parse(&args[1..], "submit", true) {
            Ok(client) => submit_job(&client),
            Err(e) => usage(&e),
        },
        Some("sessions") => match ClientArgs::parse(&args[1..], "sessions", false) {
            Ok(client) => list_sessions(&client),
            Err(e) => usage(&e),
        },
        Some("watch") => match ClientArgs::parse(&args[1..], "watch", true) {
            Ok(client) => watch_session(&client),
            Err(e) => usage(&e),
        },
        Some("stop") => match ClientArgs::parse(&args[1..], "stop", true) {
            Ok(client) => stop_session(&client),
            Err(e) => usage(&e),
        },
        Some("--help" | "-h" | "help") => help(),
        _ => usage("missing or unknown subcommand"),
    }
}

fn help() -> ExitCode {
    println!("wfctl: drive Wayfinder sessions against the simulated testbed");
    println!("{USAGE}");
    ExitCode::SUCCESS
}

const USAGE: &str = "usage:\n  wfctl run [<job.yaml>] [--os K] [--app A] [--workers N]\n            [--iterations I] [--time-budget-s S] [--repetitions R]\n            [--seed S] [--out DIR] [--backend B] [--routing R]\n                              run a job file to completion; flags override\n                              the job's keys (and WF_WORKERS). With --os\n                              and no job file, runs an ad-hoc random-search\n                              session on the registered target K. --out\n                              (or the job's `out:` key) writes a session\n                              store: manifest.yaml + events.jsonl.\n                              --backend picks where evaluations execute\n                              (in-process | remote; remote launches\n                              one wf-evald process per worker); --routing\n                              picks the slot->lane strategy (random |\n                              fastest | round-robin | preferred)\n  wfctl resume <DIR> [--iterations I] [--time-budget-s S]\n                              resume an interrupted session store where it\n                              stopped (optionally extending the budget);\n                              no completed evaluation is re-run\n  wfctl report <DIR>          render the full report of a session store,\n                              offline — zero re-evaluations\n  wfctl verify <DIR>          verify the store's hash-chained event\n                              ledger line by line (tamper/corruption check)\n  wfctl validate <job.yaml>   parse + resolve a job without running it\n  wfctl daemon [--root DIR]   serve the wfd multi-tenant daemon in the\n                              foreground over the state root DIR (or\n                              WF_DAEMON); Ctrl-C parks every session at\n                              its wave boundary, resumable\n  wfctl submit <job.yaml> [--daemon DIR]\n                              hand a job to a running daemon; prints the\n                              session id and store directory. The root\n                              resolves --daemon > WF_DAEMON > the job's\n                              `daemon:` key\n  wfctl sessions [--daemon DIR]\n                              list the daemon's sessions and statuses\n  wfctl watch <ID> [--daemon DIR]\n                              stream a daemon session's events until it\n                              ends (or Ctrl-C; the session keeps running)\n  wfctl stop <ID> [--daemon DIR]\n                              park a daemon session at its next wave\n                              boundary; its store resumes with\n                              `wfctl resume`\n  wfctl targets               list every registered target\n  wfctl bench [--quick] [--out PATH] [--target K]\n                              time the controller-side hot paths (search\n                              propose/observe batches, DeepTune batches,\n                              store append/replay, wave dispatch) and\n                              optionally write the machine-readable JSON\n                              (BENCH_search.json is the committed baseline\n                              the CI perf gate diffs against). --target K\n                              times the search hot paths on the registered\n                              target K's own space and sampling policy\n                              instead (BENCH_<K>.json are the committed\n                              per-target baselines)\n  wfctl probe                 run the §3.4 runtime-space inference\n  wfctl lint [ROOT] [--format human|json] [--out PATH] [--list-rules]\n                              run the wf-lint determinism & robustness\n                              static analysis over the workspace (ROOT\n                              defaults to `.`; config from wf-lint.toml);\n                              exits nonzero on any unsuppressed finding —\n                              the same check CI's lint-pass leg enforces\n  wfctl experiments           list the regeneration targets\n  wfctl --help                show this help";

/// Parses one flag value, advancing the cursor.
fn flag_value(rest: &[String], i: &mut usize, flag: &str) -> Result<String, String> {
    let value = rest
        .get(*i + 1)
        .ok_or_else(|| format!("{flag} needs a value"))?;
    *i += 2;
    Ok(value.clone())
}

fn parse_iterations(value: &str) -> Result<usize, String> {
    value
        .parse()
        .ok()
        .filter(|n| *n >= 1)
        .ok_or_else(|| format!("--iterations must be >= 1, got {value:?}"))
}

fn parse_time_budget(value: &str) -> Result<f64, String> {
    value
        .parse()
        .ok()
        .filter(|s| *s > 0.0)
        .ok_or_else(|| format!("--time-budget-s must be > 0, got {value:?}"))
}

/// `run` operands: an optional job-file path plus override flags.
struct RunArgs {
    path: Option<String>,
    os: Option<String>,
    app: Option<String>,
    workers: Option<usize>,
    iterations: Option<usize>,
    time_budget_s: Option<f64>,
    repetitions: Option<usize>,
    seed: Option<u64>,
    out: Option<String>,
    backend: Option<BackendChoice>,
    routing: Option<RoutingStrategy>,
}

impl RunArgs {
    fn parse(rest: &[String]) -> Result<RunArgs, String> {
        let mut run = RunArgs {
            path: None,
            os: None,
            app: None,
            workers: None,
            iterations: None,
            time_budget_s: None,
            repetitions: None,
            seed: None,
            out: None,
            backend: None,
            routing: None,
        };
        let mut i = 0;
        while i < rest.len() {
            match rest[i].as_str() {
                "--workers" => {
                    let value = flag_value(rest, &mut i, "--workers")?;
                    run.workers = Some(
                        value
                            .parse()
                            .ok()
                            .filter(|n| (1..=64).contains(n))
                            .ok_or_else(|| format!("--workers must be in 1..=64, got {value:?}"))?,
                    );
                }
                "--os" => run.os = Some(flag_value(rest, &mut i, "--os")?),
                "--app" => run.app = Some(flag_value(rest, &mut i, "--app")?),
                "--out" => run.out = Some(flag_value(rest, &mut i, "--out")?),
                "--iterations" => {
                    run.iterations = Some(parse_iterations(&flag_value(
                        rest,
                        &mut i,
                        "--iterations",
                    )?)?);
                }
                "--time-budget-s" => {
                    run.time_budget_s = Some(parse_time_budget(&flag_value(
                        rest,
                        &mut i,
                        "--time-budget-s",
                    )?)?);
                }
                "--repetitions" => {
                    let value = flag_value(rest, &mut i, "--repetitions")?;
                    run.repetitions =
                        Some(
                            value.parse().ok().filter(|n| *n >= 1).ok_or_else(|| {
                                format!("--repetitions must be >= 1, got {value:?}")
                            })?,
                        );
                }
                "--seed" => {
                    let value = flag_value(rest, &mut i, "--seed")?;
                    run.seed = Some(
                        value
                            .parse()
                            .map_err(|_| format!("--seed must be an integer, got {value:?}"))?,
                    );
                }
                "--backend" => {
                    let value = flag_value(rest, &mut i, "--backend")?;
                    run.backend = Some(BackendChoice::parse_keyword(&value).ok_or_else(|| {
                        format!("--backend must be in-process | remote, got {value:?}")
                    })?);
                }
                "--routing" => {
                    let value = flag_value(rest, &mut i, "--routing")?;
                    run.routing = Some(RoutingStrategy::parse_keyword(&value).ok_or_else(|| {
                        format!(
                            "--routing must be random, fastest, round-robin, or preferred, got {value:?}"
                        )
                    })?);
                }
                flag if flag.starts_with("--") => return Err(format!("unknown flag {flag:?}")),
                operand => {
                    if run.path.replace(operand.to_string()).is_some() {
                        return Err("run takes at most one job file".into());
                    }
                    i += 1;
                }
            }
        }
        if run.path.is_none() && run.os.is_none() {
            return Err("run needs a job file or --os <keyword>".into());
        }
        Ok(run)
    }
}

/// `resume` operands: the store directory plus budget overrides.
struct ResumeArgs {
    dir: String,
    iterations: Option<usize>,
    time_budget_s: Option<f64>,
}

impl ResumeArgs {
    fn parse(rest: &[String]) -> Result<ResumeArgs, String> {
        let mut resume = ResumeArgs {
            dir: String::new(),
            iterations: None,
            time_budget_s: None,
        };
        let mut i = 0;
        while i < rest.len() {
            match rest[i].as_str() {
                "--iterations" => {
                    resume.iterations = Some(parse_iterations(&flag_value(
                        rest,
                        &mut i,
                        "--iterations",
                    )?)?);
                }
                "--time-budget-s" => {
                    resume.time_budget_s = Some(parse_time_budget(&flag_value(
                        rest,
                        &mut i,
                        "--time-budget-s",
                    )?)?);
                }
                flag if flag.starts_with("--") => return Err(format!("unknown flag {flag:?}")),
                operand => {
                    if !resume.dir.is_empty() {
                        return Err("resume takes exactly one store directory".into());
                    }
                    resume.dir = operand.to_string();
                    i += 1;
                }
            }
        }
        if resume.dir.is_empty() {
            return Err("resume needs a store directory".into());
        }
        Ok(resume)
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!("wfctl: {err}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}

/// Prints a build error with a variant-specific hint and returns the
/// failure exit code.
fn report_build_error(context: &str, err: &BuildError) -> ExitCode {
    eprintln!("{context}: {err}");
    match err {
        BuildError::UnknownTarget { .. } => {
            eprintln!("hint: `wfctl targets` lists every registered target")
        }
        BuildError::UnknownApp { .. } | BuildError::IncompatibleApp { .. } => {
            eprintln!("hint: `wfctl targets` shows which apps each target supports")
        }
        BuildError::UnknownMetric { .. } => {
            eprintln!("hint: set `metric:` to the target's primary metric, `memory`, or `score`")
        }
        BuildError::MissingBudget => {
            eprintln!("hint: give the job a `budget:` with `iterations:` or `time_seconds:`")
        }
        BuildError::BadPin { .. } => {
            eprintln!("hint: pinned parameters must exist in the searched space")
        }
        BuildError::DuplicateKeyword { .. } => {
            eprintln!("hint: every registered target needs a unique keyword")
        }
        BuildError::Backend { .. } => {
            eprintln!("hint: remote backends need wf-evald workers that can launch and connect")
        }
        BuildError::ContinuousUnsupported { .. } => {
            eprintln!("hint: `mode: continuous` needs a simulated target with a drift model")
        }
    }
    ExitCode::FAILURE
}

fn load_job(path: &str) -> Result<Job, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Job::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn validate_job(path: &str) -> ExitCode {
    let job = match load_job(path) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("invalid job: {e}");
            return ExitCode::FAILURE;
        }
    };
    let built = SessionBuilder::from_job(&job)
        .map(|b| b.registry(wayfinder::scenarios::registry()))
        .and_then(SessionBuilder::build);
    match built {
        Ok(session) => {
            let descriptor = session.platform().descriptor().clone();
            let space = session.platform().space();
            println!(
                "job {:?}: {} on {} — {} parameters (10^{:.1} permutations), budget {:?} iterations / {:?} s",
                job.name,
                descriptor.app,
                descriptor.name,
                space.len(),
                space.log10_cardinality(),
                job.budget.iterations,
                job.budget.time_seconds,
            );
            // What a session-store manifest would record for this job:
            // every omitted key resolved to the target's defaults.
            let resolved = session.resolved_job();
            println!(
                "resolved defaults: app {}, metric {} ({}), workers {}, out {}",
                descriptor.app,
                resolved.metric.as_deref().unwrap_or(&descriptor.metric),
                descriptor.unit,
                resolved.workers.unwrap_or(1),
                job.out.as_deref().unwrap_or("(none — in-memory only)"),
            );
            ExitCode::SUCCESS
        }
        Err(e) => report_build_error("invalid job", &e),
    }
}

/// Live progress printer: one line per `NewBest`, plus a throttled
/// progress line (every half virtual hour) as waves complete.
struct ConsoleSink {
    every_s: f64,
    last_progress_s: f64,
    now_s: f64,
    iterations: usize,
}

impl ConsoleSink {
    fn new() -> ConsoleSink {
        ConsoleSink {
            every_s: 1800.0,
            last_progress_s: 0.0,
            now_s: 0.0,
            iterations: 0,
        }
    }
}

impl EventSink for ConsoleSink {
    fn on_event(&mut self, event: &SessionEvent) {
        match event {
            SessionEvent::SessionStarted {
                descriptor,
                workers,
                first_iteration,
                ..
            } => {
                if *first_iteration == 0 {
                    println!(
                        "running: {} on {} across {} worker(s) ...",
                        descriptor.app, descriptor.name, workers
                    );
                } else {
                    println!(
                        "resuming: {} on {} across {} worker(s), continuing at iteration {} ...",
                        descriptor.app, descriptor.name, workers, first_iteration
                    );
                }
            }
            SessionEvent::CandidateEvaluated(r) => {
                self.now_s = r.finished_at_s;
                self.iterations = r.iteration + 1;
            }
            SessionEvent::NewBest {
                iteration,
                objective,
            } => {
                // Zero-based, matching the stored records and the
                // offline report's "improvements" list.
                println!(
                    "  t={:>7.0}s  iteration {:>4}  new best {objective:.2}",
                    self.now_s, iteration
                );
            }
            SessionEvent::DriftDetected {
                epoch,
                at_iteration,
                detector,
                signal,
                baseline,
                ..
            } => {
                println!(
                    "  t={:>7.0}s  iteration {:>4}  drift confirmed by {detector} \
                     (epoch {epoch}: reference {baseline:.2} -> {signal:.2})",
                    self.now_s, at_iteration
                );
            }
            SessionEvent::EpochStarted {
                epoch,
                phase,
                transfer,
                ..
            } if *epoch > 0 => {
                println!(
                    "  t={:>7.0}s  epoch {epoch} opened under phase {phase:?} ({} search)",
                    self.now_s,
                    if *transfer { "transfer-seeded" } else { "cold" }
                );
            }
            SessionEvent::WaveCompleted(_) if self.now_s - self.last_progress_s >= self.every_s => {
                self.last_progress_s = self.now_s;
                println!("  t={:>7.0}s  iteration {:>4}", self.now_s, self.iterations);
            }
            _ => {}
        }
    }
}

/// Runs a built session to completion (streaming progress, optionally
/// into a store) and prints the final summary.
///
/// SIGINT/SIGTERM are caught: the wave loop checks the flag at every
/// wave boundary — the only points where the store is consistent — so
/// Ctrl-C flushes the sink, writes a final checkpoint, and exits with
/// code 130 and a resume hint, losing at most the in-flight wave. A
/// second Ctrl-C falls back to the default disposition and kills the
/// process.
fn drive_session(mut session: SpecializationSession, store: Option<&SessionStore>) -> ExitCode {
    let flag = signal::install_interrupt_flag();
    let mut should_stop = || flag.load(Ordering::Relaxed);
    let mut console = ConsoleSink::new();
    let (summary, finished) = match store {
        Some(store) => {
            let mut jsonl = match store.sink() {
                Ok(sink) => sink,
                Err(e) => {
                    eprintln!("cannot open event log: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let (outcome, finished) =
                session.run_with_until(&mut Tee(&mut jsonl, &mut console), &mut should_stop);
            if let Some(e) = jsonl.error() {
                eprintln!("warning: event log incomplete: {e}");
            }
            println!(
                "store: {} ({} checkpoint(s) this run)",
                store.dir().display(),
                jsonl.checkpoints()
            );
            (outcome.summary, finished)
        }
        None => {
            let (outcome, finished) = session.run_with_until(&mut console, &mut should_stop);
            (outcome.summary, finished)
        }
    };
    if !finished {
        eprintln!(
            "interrupted: stopped at a wave boundary after {} evaluation(s)",
            summary.iterations
        );
        match store {
            Some(store) => eprintln!(
                "hint: `wfctl resume {}` continues exactly where this stopped",
                store.dir().display()
            ),
            None => eprintln!("note: no --out store was set, so nothing was persisted"),
        }
        return ExitCode::from(130);
    }
    let descriptor = session.platform().descriptor().clone();
    println!(
        "done: {} iterations in {:.1} virtual hours, crash rate {:.0}%",
        summary.iterations,
        summary.elapsed_s / 3600.0,
        summary.crash_rate * 100.0
    );
    if summary.workers > 1 {
        // Per-wave scheduling detail for short sessions; long ones get
        // the aggregate line only.
        let waves = session.platform().waves();
        if waves.len() <= 16 {
            print!(
                "{}",
                wayfinder::core::wave_stats_table(waves, summary.workers).render()
            );
        }
        println!(
            "pool: {} workers over {} waves — {:.1} VM-hours of compute in {:.1} wall hours ({:.1}x), mean occupancy {:.0}%, cache hit rate {:.0}%",
            summary.workers,
            summary.waves,
            summary.compute_s / 3600.0,
            summary.elapsed_s / 3600.0,
            summary.compute_s / summary.elapsed_s.max(1e-9),
            summary.mean_occupancy * 100.0,
            {
                let (h, m) = summary.cache_stats;
                if h + m == 0 { 0.0 } else { 100.0 * h as f64 / (h + m) as f64 }
            },
        );
    }
    match (summary.best_objective, summary.best_config) {
        (Some(best), Some(config)) => {
            println!(
                "best {} ({}): {best:.2}",
                descriptor.metric, descriptor.unit
            );
            let space = session.platform().space();
            let default = space.default_config();
            println!("non-default parameters:");
            for idx in config.diff_indices(&default) {
                println!("  {} = {}", space.spec(idx).name, config.get(idx));
            }
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("no configuration survived the budget");
            ExitCode::FAILURE
        }
    }
}

fn run_job(run: &RunArgs) -> ExitCode {
    let (job_out, builder) = match &run.path {
        Some(path) => {
            let job = match load_job(path) {
                Ok(j) => j,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            let builder = match SessionBuilder::from_job(&job) {
                Ok(b) => b,
                Err(e) => return report_build_error("cannot build session", &e),
            };
            (job.out.clone(), builder)
        }
        // Ad-hoc `--os` runs: a quick random-search session on the
        // target's default app and metric, overridable by the flags
        // below.
        None => (
            None,
            SessionBuilder::new()
                .name("adhoc")
                .algorithm(AlgorithmChoice::Random)
                .iterations(24),
        ),
    };
    // CLI flags > job file > WF_WORKERS/default.
    let mut builder = builder.registry(wayfinder::scenarios::registry());
    if let Some(os) = &run.os {
        builder = builder.target(os.clone());
    }
    if let Some(app) = &run.app {
        builder = builder.app_named(app.clone());
    }
    if let Some(n) = run.workers {
        builder = builder.workers(n);
    }
    if let Some(n) = run.iterations {
        builder = builder.iterations(n);
    }
    if let Some(s) = run.time_budget_s {
        builder = builder.time_budget_s(s);
    }
    if let Some(n) = run.repetitions {
        builder = builder.repetitions(n);
    }
    if let Some(seed) = run.seed {
        builder = builder.seed(seed);
    }
    if let Some(backend) = run.backend {
        builder = builder.backend(backend);
    }
    if let Some(routing) = run.routing {
        builder = builder.routing(routing);
    }
    let session = match builder.build() {
        Ok(s) => s,
        Err(e) => return report_build_error("cannot build session", &e),
    };
    // `--out` wins over the job's `out:` key.
    let store = match run.out.clone().or(job_out) {
        None => None,
        Some(dir) => match SessionStore::create(&dir, session.resolved_job()) {
            Ok(store) => Some(store),
            Err(e) => {
                eprintln!("cannot create session store: {e}");
                eprintln!("hint: `wfctl resume {dir}` continues an existing store");
                return ExitCode::FAILURE;
            }
        },
    };
    drive_session(session, store.as_ref())
}

fn resume_job(args: &ResumeArgs) -> ExitCode {
    let store = match SessionStore::open(&args.dir) {
        Ok(store) => store,
        Err(e) => {
            eprintln!("cannot open session store: {e}");
            return ExitCode::FAILURE;
        }
    };
    let loaded = match store.load() {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("cannot load session store: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Budget overrides extend (or shrink) the stored campaign; the
    // manifest is rewritten afterwards so it stays authoritative.
    let mut job = loaded.job.clone();
    let overridden = args.iterations.is_some() || args.time_budget_s.is_some();
    if let Some(n) = args.iterations {
        job.budget.iterations = Some(n);
    }
    if let Some(s) = args.time_budget_s {
        job.budget.time_seconds = Some(s);
    }
    let mut session = match SessionBuilder::from_job(&job)
        .map(|b| b.registry(wayfinder::scenarios::registry()))
        .and_then(SessionBuilder::build)
    {
        Ok(s) => s,
        Err(e) => return report_build_error("manifest does not build", &e),
    };
    if let Err(e) = session.replay(&loaded) {
        eprintln!("history does not replay: {e}");
        return ExitCode::FAILURE;
    }
    if loaded.dropped_records > 0 {
        println!(
            "note: {} record(s) of an incomplete wave will be re-evaluated",
            loaded.dropped_records
        );
    }
    println!(
        "replayed {} evaluation(s) across {} wave(s) — zero re-evaluations",
        loaded.records.len(),
        loaded.wave_sizes.len()
    );
    if overridden {
        if let Err(e) = store.rewrite_manifest(session.resolved_job()) {
            eprintln!("cannot rewrite manifest: {e}");
            return ExitCode::FAILURE;
        }
    }
    drive_session(session, Some(&store))
}

/// Rebuilds the manifest's configuration space for offline naming
/// through the one authoritative resolution path, so the report's space
/// is the one the campaign searched. Only the target is materialized:
/// no session, so no backend, and a `backend: remote` store reports
/// without launching a `wf-evald` worker.
fn manifest_space(job: &Job) -> Option<ConfigSpace> {
    let target = target_from_job(job, &wayfinder::scenarios::registry()).ok()?;
    Some(target.space().clone())
}

fn report_store(dir: &str) -> ExitCode {
    let loaded = match SessionStore::open(dir).and_then(|store| store.load()) {
        Ok(loaded) => loaded,
        Err(e) => {
            eprintln!("cannot load session store: {e}");
            return ExitCode::FAILURE;
        }
    };
    let space = manifest_space(&loaded.job);
    print!("{}", store_report(&loaded, space.as_ref()));
    ExitCode::SUCCESS
}

fn verify_store(dir: &str) -> ExitCode {
    match SessionStore::open(dir).and_then(|store| store.verify_chain()) {
        Ok(verified) => {
            println!("ledger verified: {verified} hash-chained record(s) in {dir}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("ledger verification failed: {e}");
            ExitCode::FAILURE
        }
    }
}

// ---------------------------------------------------------------------------
// Daemon subcommands.
// ---------------------------------------------------------------------------

/// `daemon` operands.
struct DaemonArgs {
    root: Option<String>,
}

impl DaemonArgs {
    fn parse(rest: &[String]) -> Result<DaemonArgs, String> {
        let mut daemon = DaemonArgs { root: None };
        let mut i = 0;
        while i < rest.len() {
            match rest[i].as_str() {
                "--root" => daemon.root = Some(flag_value(rest, &mut i, "--root")?),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(daemon)
    }
}

/// Operands shared by the daemon-client subcommands: an optional
/// `--daemon DIR` plus, for submit/watch/stop, exactly one operand.
struct ClientArgs {
    daemon: Option<String>,
    operand: Option<String>,
}

impl ClientArgs {
    fn parse(rest: &[String], cmd: &str, wants_operand: bool) -> Result<ClientArgs, String> {
        let mut client = ClientArgs {
            daemon: None,
            operand: None,
        };
        let mut i = 0;
        while i < rest.len() {
            match rest[i].as_str() {
                "--daemon" => client.daemon = Some(flag_value(rest, &mut i, "--daemon")?),
                flag if flag.starts_with("--") => return Err(format!("unknown flag {flag:?}")),
                operand => {
                    if !wants_operand {
                        return Err(format!("{cmd} takes no operand, got {operand:?}"));
                    }
                    if client.operand.replace(operand.to_string()).is_some() {
                        return Err(format!("{cmd} takes exactly one operand"));
                    }
                    i += 1;
                }
            }
        }
        if wants_operand && client.operand.is_none() {
            return Err(format!("{cmd} needs an operand"));
        }
        Ok(client)
    }

    /// Resolves the daemon state root: `--daemon` > `WF_DAEMON` >
    /// `fallback` (the job's `daemon:` key, for submit).
    fn root(&self, fallback: Option<&str>) -> Result<PathBuf, String> {
        self.daemon
            .clone()
            // wf-lint: allow(host-env-read, reason = "config-load: WF_DAEMON is the documented CLI fallback for --daemon, read once while parsing arguments")
            .or_else(|| std::env::var("WF_DAEMON").ok())
            .or_else(|| fallback.map(str::to_string))
            .map(PathBuf::from)
            .ok_or_else(|| "no daemon state root: pass --daemon DIR or set WF_DAEMON".to_string())
    }
}

/// One request frame, one reply frame.
fn daemon_request(root: &std::path::Path, req: &JsonValue) -> std::io::Result<JsonValue<'static>> {
    let mut stream = connect(root)?;
    round_trip(&mut stream, req)
}

fn run_daemon(args: &DaemonArgs) -> ExitCode {
    match serve_daemon(args.root.clone(), wayfinder::scenarios::registry) {
        Ok(()) => ExitCode::SUCCESS,
        Err(ServeError::NoRoot) => usage("daemon needs --root DIR (or WF_DAEMON)"),
        Err(e) => {
            eprintln!("daemon: {e}");
            ExitCode::FAILURE
        }
    }
}

fn submit_job(args: &ClientArgs) -> ExitCode {
    let path = args.operand.as_deref().unwrap_or_default();
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Parse locally first: early validation, plus the job's `daemon:`
    // key as the state-root fallback. The daemon re-parses the raw text
    // itself, so what runs is exactly what was on disk.
    let job = match Job::parse(&text) {
        Ok(job) => job,
        Err(e) => {
            eprintln!("invalid job: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let root = match args.root(job.daemon.as_deref()) {
        Ok(root) => root,
        Err(e) => {
            eprintln!("{e} (or give the job a `daemon:` key)");
            return ExitCode::FAILURE;
        }
    };
    let req = JsonValue::Obj(vec![
        ("op".into(), JsonValue::Str("submit".into())),
        ("job".into(), JsonValue::Str(text.into())),
    ]);
    match daemon_request(&root, &req) {
        Ok(reply) => {
            let id = reply.get("id").and_then(JsonValue::as_u64).unwrap_or(0);
            let dir = reply.get("dir").and_then(JsonValue::as_str).unwrap_or("?");
            println!("submitted {:?} as session {id}", job.name);
            println!("store: {dir}");
            println!(
                "follow it with `wfctl watch {id} --daemon {}`",
                root.display()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("submit failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn list_sessions(args: &ClientArgs) -> ExitCode {
    let root = match args.root(None) {
        Ok(root) => root,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let req = JsonValue::Obj(vec![("op".into(), JsonValue::Str("sessions".into()))]);
    match daemon_request(&root, &req) {
        Ok(reply) => {
            let sessions = reply
                .get("sessions")
                .and_then(JsonValue::as_arr)
                .unwrap_or(&[]);
            println!("{} session(s) under {}:", sessions.len(), root.display());
            for session in sessions {
                let id = session.get("id").and_then(JsonValue::as_u64).unwrap_or(0);
                let status = session
                    .get("status")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("?");
                let iterations = session
                    .get("iterations")
                    .and_then(JsonValue::as_u64)
                    .unwrap_or(0);
                let name = session
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .unwrap_or("?");
                let best = session
                    .get("best")
                    .and_then(JsonValue::as_f64)
                    .map(|best| format!("{best:.2}"))
                    .unwrap_or_else(|| "-".into());
                println!("  {id:>4}  {status:<9} {iterations:>5} it  best {best:<10} {name}");
                if let Some(error) = session.get("error").and_then(JsonValue::as_str) {
                    println!("        error: {error}");
                }
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("sessions failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn watch_session(args: &ClientArgs) -> ExitCode {
    let id = match args.operand.as_deref().unwrap_or_default().parse::<u64>() {
        Ok(id) => id,
        Err(_) => return usage("watch needs a numeric session id"),
    };
    let root = match args.root(None) {
        Ok(root) => root,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let mut stream = match connect(&root) {
        Ok(stream) => stream,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let req = JsonValue::Obj(vec![
        ("op".into(), JsonValue::Str("watch".into())),
        ("id".into(), JsonValue::Int(id as i64)),
    ]);
    let ack = match round_trip(&mut stream, &req) {
        Ok(ack) => ack,
        Err(e) => {
            eprintln!("watch failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "watching session {id} ({})",
        ack.get("status").and_then(JsonValue::as_str).unwrap_or("?")
    );
    loop {
        let frame = match read_frame(&mut stream) {
            Ok(Some(frame)) => frame,
            Ok(None) => {
                eprintln!("daemon hung up");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("watch stream failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        if frame.get("stream").and_then(JsonValue::as_str) == Some("end") {
            let status = frame
                .get("status")
                .and_then(JsonValue::as_str)
                .unwrap_or("?");
            match frame.get("error").and_then(JsonValue::as_str) {
                Some(error) => eprintln!("session {id} {status}: {error}"),
                None => println!("session {id} {status}"),
            }
            return if status == "failed" {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            };
        }
        render_watch_frame(&frame);
    }
}

/// Renders one live event frame field-wise (the frames share the stored
/// ledger's vocabulary, minus the `prev` chain hash).
fn render_watch_frame(frame: &JsonValue) {
    match frame.get("event").and_then(JsonValue::as_str) {
        Some("new_best") => {
            let iteration = frame
                .get("iteration")
                .and_then(JsonValue::as_u64)
                .unwrap_or(0);
            if let Some(objective) = frame.get("objective").and_then(JsonValue::as_f64) {
                println!("  iteration {iteration:>4}  new best {objective:.2}");
            }
        }
        Some("checkpoint") => {
            let iterations = frame
                .get("iterations")
                .and_then(JsonValue::as_u64)
                .unwrap_or(0);
            println!("  checkpoint: {iterations} evaluation(s) durable");
        }
        Some("session_finished") => {
            let iterations = frame
                .get("iterations")
                .and_then(JsonValue::as_u64)
                .unwrap_or(0);
            println!("  session finished after {iterations} evaluation(s)");
        }
        _ => {}
    }
}

fn stop_session(args: &ClientArgs) -> ExitCode {
    let id = match args.operand.as_deref().unwrap_or_default().parse::<u64>() {
        Ok(id) => id,
        Err(_) => return usage("stop needs a numeric session id"),
    };
    let root = match args.root(None) {
        Ok(root) => root,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let req = JsonValue::Obj(vec![
        ("op".into(), JsonValue::Str("stop".into())),
        ("id".into(), JsonValue::Int(id as i64)),
    ]);
    match daemon_request(&root, &req) {
        Ok(_) => {
            println!("stop requested: session {id} parks at its next wave boundary");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("stop failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `bench` operands.
struct BenchArgs {
    quick: bool,
    out: Option<String>,
    target: Option<String>,
}

impl BenchArgs {
    fn parse(rest: &[String]) -> Result<BenchArgs, String> {
        let mut bench = BenchArgs {
            quick: false,
            out: None,
            target: None,
        };
        let mut i = 0;
        while i < rest.len() {
            match rest[i].as_str() {
                "--quick" => {
                    bench.quick = true;
                    i += 1;
                }
                "--out" => bench.out = Some(flag_value(rest, &mut i, "--out")?),
                "--target" => bench.target = Some(flag_value(rest, &mut i, "--target")?),
                flag if flag.starts_with("--") => return Err(format!("unknown flag {flag:?}")),
                operand => return Err(format!("bench takes no operand, got {operand:?}")),
            }
        }
        Ok(bench)
    }
}

fn run_bench(args: &BenchArgs) -> ExitCode {
    use wayfinder::bench::perf;
    let mode = if args.quick { "quick" } else { "full" };
    let (results, suite) = match &args.target {
        None => {
            println!("wfctl bench: timing the controller hot paths ({mode} mode) ...");
            (perf::run_suite(args.quick), perf::MAIN_SUITE.to_string())
        }
        Some(keyword) => {
            let registry = wayfinder::scenarios::registry();
            let Some(factory) = registry.get(keyword) else {
                eprintln!(
                    "unknown bench target {keyword:?}; registered targets: {}",
                    registry.keywords().join(", ")
                );
                return ExitCode::FAILURE;
            };
            let request = wayfinder::core::TargetRequest {
                app: factory.default_app().to_string(),
                runtime_params: 200,
            };
            let instance = match factory.instantiate(&request) {
                Ok(instance) => instance,
                Err(e) => {
                    eprintln!("cannot instantiate bench target {keyword}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            println!(
                "wfctl bench: timing the search hot paths on target {keyword} ({mode} mode) ..."
            );
            (
                perf::run_target_suite(instance.target.space(), &instance.policy, args.quick),
                perf::target_suite_tag(keyword),
            )
        }
    };
    print!("{}", perf::render_table(&results));
    if let Some(path) = &args.out {
        let json = perf::to_json_tagged(&results, args.quick, &suite);
        // `--out bench/out.json` into a directory that does not exist yet
        // should just work: create the parents rather than surfacing a
        // raw ENOENT after minutes of timing.
        if let Some(parent) = std::path::Path::new(path)
            .parent()
            .filter(|p| !p.as_os_str().is_empty())
        {
            if let Err(e) = std::fs::create_dir_all(parent) {
                eprintln!("cannot create {} for --out: {e}", parent.display());
                return ExitCode::FAILURE;
            }
        }
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("cannot write {suite} baseline {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path} ({} ops, suite {suite})", results.len());
    }
    ExitCode::SUCCESS
}

fn targets() -> ExitCode {
    let registry = wayfinder::scenarios::registry();
    println!("registered targets ({}):", registry.len());
    for factory in registry.factories() {
        println!(
            "  {:<16} apps: {:<32} {}",
            factory.keyword(),
            factory.apps().join(", "),
            factory.summary(),
        );
    }
    println!("(run one with `wfctl run --os <keyword>` or a job file's `os:` key)");
    ExitCode::SUCCESS
}

fn probe() -> ExitCode {
    let os = SimOs::linux_runtime(LinuxVersion::V4_19, 200);
    let mut tree = SysctlTree::from_space(&os.space);
    let rules = os.crash_rules.clone();
    let defaults = os.defaults_view.clone();
    let mut crash_probe = |name: &str, value: &str| {
        let mut view = NamedConfig::empty();
        if let Ok(v) = value.parse::<i64>() {
            view.set(name.to_string(), Value::Int(v));
        }
        first_crash(&rules, &view, &defaults).is_some()
    };
    let report = probe_runtime_space(&mut tree, &mut crash_probe);
    println!(
        "probed {} parameters ({} writes, {} probe crashes, {} non-numeric skipped)",
        report.specs.len(),
        report.writes_attempted,
        report.probe_crashes,
        report.skipped_non_numeric.len()
    );
    for spec in &report.specs {
        println!("{:<44} {:?}", spec.name, spec.kind);
    }
    ExitCode::SUCCESS
}

fn experiments() -> ExitCode {
    println!("regeneration targets (cargo run --release -p wf-bench --bin <name>):");
    for (name, what) in [
        ("fig01_kconfig_growth", "Fig. 1  Linux option growth"),
        ("table1_config_census", "Table 1 configuration census"),
        ("fig02_random_nginx", "Fig. 2  random-config throughput"),
        ("fig05_cross_similarity", "Fig. 5  importance similarity"),
        ("fig06_search_evolution", "Fig. 6  search evolution"),
        ("table2_best_configs", "Table 2 best configurations"),
        ("fig07_scalability", "Fig. 7  DeepTune vs Unicorn"),
        ("fig08_loop_breakdown", "Fig. 8  loop-time breakdown"),
        ("table3_prediction_accuracy", "Table 3 prediction accuracy"),
        ("fig09_unikraft", "Fig. 9  Unikraft comparison"),
        ("fig10_memory_footprint", "Fig. 10 RISC-V footprint"),
        ("fig11_cozart_cooptim", "Fig. 11 Cozart co-optimization"),
        ("table4_cozart_top5", "Table 4 co-optimization top-5"),
        ("ablation", "scoring-function ablation"),
    ] {
        println!("  {name:<28} {what}");
    }
    ExitCode::SUCCESS
}
