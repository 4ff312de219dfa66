//! Runs one Wayfinder session and prints its host timings as one JSON
//! object on stdout.
//!
//! ```text
//! wf-perfbench JOB OUT [--trace]
//! ```
//!
//! Untraced (the default), the session goes through the entry points
//! `wfctl run JOB --out DIR` uses: `SessionBuilder::from_job` → `build` →
//! `run_with` on a store's `JsonlSink`. Set-up (parse, build, create the
//! store, open its sink) is repeated [`SETUPS`] times and each repetition
//! timed; the last one runs. A minimal sink stamps each `WaveCompleted`;
//! nothing else is traced.
//!
//! With `--trace`, the session is rebuilt by hand from the same parts
//! with each layer wrapped in a timing decorator (see [`traced`]).
//!
//! Either way the store is then reloaded, its chain verified and its
//! offline report written to `OUT/report.txt`.

mod json;
mod traced;

use json::Json;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;
use wayfinder_core::{store_report, SessionBuilder};
use wf_configspace::ConfigSpace;
use wf_jobfile::Job;
use wf_platform::{EventSink, SessionEvent, SessionStore, Tee};

/// Timed set-ups per session process: a sub-millisecond set-up needs a
/// median of several to be steady.
const SETUPS: usize = 5;

struct Args {
    job: PathBuf,
    out: PathBuf,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut positional = Vec::new();
    let mut trace = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--trace" => trace = true,
            _ => positional.push(PathBuf::from(arg)),
        }
    }
    match <[PathBuf; 2]>::try_from(positional) {
        Ok([job, out]) => Ok(Args { job, out, trace }),
        Err(_) => Err("usage: wf-perfbench JOB OUT [--trace]".into()),
    }
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| {
        if args.trace {
            traced::run(&args)
        } else {
            untraced(&args)
        }
    });
    match result {
        Ok(json) => {
            println!("{json}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("wf-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn load_job(path: &Path) -> Result<Job, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Job::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn seconds_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Stamps every `WaveCompleted`: wave `i` took the time between the
/// stamps of wave `i - 1` (or of `SessionStarted`) and wave `i`.
#[derive(Default)]
struct WaveClock {
    last: Option<Instant>,
    waves: Vec<f64>,
}

impl EventSink for WaveClock {
    fn on_event(&mut self, event: &SessionEvent) {
        match event {
            SessionEvent::SessionStarted { .. } => self.last = Some(Instant::now()),
            SessionEvent::WaveCompleted(_) => {
                let now = Instant::now();
                if let Some(last) = self.last {
                    self.waves.push((now - last).as_secs_f64());
                }
                self.last = Some(now);
            }
            _ => {}
        }
    }
}

fn untraced(args: &Args) -> Result<Json, String> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut built = None;
    for i in 0..SETUPS {
        let dir = args.out.join(format!("store-{i}"));
        let t = Instant::now();
        let job = load_job(&args.job)?;
        let session = SessionBuilder::from_job(&job)
            .and_then(SessionBuilder::build)
            .map_err(|e| e.to_string())?;
        let store =
            SessionStore::create(&dir, session.resolved_job()).map_err(|e| e.to_string())?;
        let sink = store.sink().map_err(|e| e.to_string())?;
        setup_s.push(seconds_since(t));
        built = Some((session, dir, sink));
    }
    let (mut session, dir, mut jsonl) = built.expect("at least one set-up");

    let mut clock = WaveClock::default();
    let t = Instant::now();
    let outcome = session.run_with(&mut Tee(&mut jsonl, &mut clock));
    let session_s = seconds_since(t);
    if let Some(e) = jsonl.error() {
        return Err(format!("event log incomplete: {e}"));
    }
    drop(jsonl);

    let reload = Reload::measure(&dir, session.platform().space(), &args.out)?;
    Ok(Json::obj([
        ("iterations", Json::from(outcome.summary.iterations)),
        ("setup_s", Json::from(setup_s)),
        ("session_s", Json::from(session_s)),
        ("wave_s", Json::from(clock.waves)),
    ])
    .extend(reload.json())
    .extend([("peak_rss_mb", Json::from(peak_rss_mb()?))]))
}

/// The store's read path: open + load, verify the chain, render the
/// offline report (written to `OUT/report.txt`).
struct Reload {
    load_s: f64,
    verify_s: f64,
    report_s: f64,
    verified: usize,
}

impl Reload {
    fn measure(store_dir: &Path, space: &ConfigSpace, out: &Path) -> Result<Reload, String> {
        let t = Instant::now();
        let store = SessionStore::open(store_dir).map_err(|e| e.to_string())?;
        let loaded = store.load().map_err(|e| e.to_string())?;
        let load_s = seconds_since(t);
        let t = Instant::now();
        let verified = store.verify_chain().map_err(|e| e.to_string())?;
        let verify_s = seconds_since(t);
        let t = Instant::now();
        let report = store_report(&loaded, Some(space));
        let report_s = seconds_since(t);
        let path = out.join("report.txt");
        std::fs::write(&path, report).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(Reload {
            load_s,
            verify_s,
            report_s,
            verified,
        })
    }

    fn json(&self) -> [(&'static str, Json); 5] {
        [
            ("load_s", Json::from(self.load_s)),
            ("verify_s", Json::from(self.verify_s)),
            ("report_s", Json::from(self.report_s)),
            (
                "reload_s",
                Json::from(self.load_s + self.verify_s + self.report_s),
            ),
            ("verified", Json::from(self.verified)),
        ]
    }
}

/// The process's peak resident set (`VmHWM`) in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}
