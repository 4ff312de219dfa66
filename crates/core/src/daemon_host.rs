//! Hosting glue between the platform's [`Daemon`] and this crate's
//! session construction.
//!
//! `wf_platform::daemon` supervises threads and speaks the socket
//! protocol but cannot *build* sessions — the target registry lives up
//! here. [`RegistryLauncher`] closes that loop: for every submitted job
//! it builds a [`crate::SpecializationSession`] against a fresh registry
//! (registries are built per session, exactly like every `wf-evald`
//! worker process builds its own), creates the session's store, and
//! drives it with events teed to both the hash-chained
//! [`wf_platform::JsonlSink`] and the daemon's live watchers.
//!
//! The `wfd` binary and `wfctl daemon` are thin wrappers over
//! [`serve_daemon`], the one daemon entry routine.

use crate::session::SessionBuilder;
use crate::targets::TargetRegistry;
use std::fmt;
use std::io;
use std::path::Path;
use std::sync::Arc;
use wf_jobfile::Job;
use wf_platform::daemon::{Daemon, SessionControl, SessionLauncher};
use wf_platform::{EventSink, SessionStore, Tee};

/// A [`SessionLauncher`] that resolves jobs against a registry built
/// fresh for each session by `factory`.
///
/// # Examples
///
/// Launching one tiny session by hand (the daemon does exactly this on
/// its session threads):
///
/// ```
/// use wayfinder_core::daemon_host::RegistryLauncher;
/// use wayfinder_core::TargetRegistry;
/// use wf_jobfile::Job;
/// use wf_platform::daemon::{SessionControl, SessionLauncher};
/// use wf_platform::NullSink;
///
/// let launcher = RegistryLauncher::new(TargetRegistry::builtin);
/// let dir = std::env::temp_dir().join(format!("wfd-doc-{}", std::process::id()));
/// let _ = std::fs::remove_dir_all(&dir);
/// let mut job = Job::default();
/// job.budget.iterations = Some(2);
/// let finished = launcher
///     .launch(&job, &dir, &mut NullSink, &SessionControl::default())
///     .unwrap();
/// assert!(finished);
/// std::fs::remove_dir_all(&dir).unwrap();
/// ```
pub struct RegistryLauncher<F> {
    factory: F,
}

impl<F> RegistryLauncher<F>
where
    F: Fn() -> TargetRegistry + Send + Sync,
{
    /// Wraps a registry factory (e.g. `TargetRegistry::builtin` or
    /// `|| wayfinder::scenarios::registry()`).
    pub fn new(factory: F) -> RegistryLauncher<F> {
        RegistryLauncher { factory }
    }
}

impl<F> SessionLauncher for RegistryLauncher<F>
where
    F: Fn() -> TargetRegistry + Send + Sync,
{
    fn launch(
        &self,
        job: &Job,
        dir: &Path,
        sink: &mut dyn EventSink,
        control: &SessionControl,
    ) -> Result<bool, String> {
        let mut session = SessionBuilder::from_job(job)
            .map_err(|e| e.to_string())?
            .registry((self.factory)())
            .build()
            .map_err(|e| e.to_string())?;
        let store = SessionStore::create(dir, session.resolved_job()).map_err(|e| e.to_string())?;
        let mut jsonl = store.sink().map_err(|e| e.to_string())?;
        let (_, finished) = {
            let mut tee = Tee(&mut jsonl, sink);
            session.run_with_until(&mut tee, &mut || control.stop_requested())
        };
        if let Some(e) = jsonl.error() {
            return Err(format!("event log incomplete: {e}"));
        }
        Ok(finished)
    }
}

/// Binds a [`Daemon`] over `root` whose sessions resolve targets
/// through `factory`; call [`Daemon::run`] on the result to serve.
pub fn bind_daemon<F>(root: impl AsRef<Path>, factory: F) -> io::Result<Daemon>
where
    F: Fn() -> TargetRegistry + Send + Sync + 'static,
{
    Daemon::bind(root, Arc::new(RegistryLauncher::new(factory)))
}

/// Why [`serve_daemon`] did not serve through to a clean shutdown.
#[derive(Debug)]
pub enum ServeError {
    /// Neither the caller nor `WF_DAEMON` named a state root.
    NoRoot,
    /// The socket could not be bound (e.g. a daemon already serves it).
    Bind(io::Error),
    /// The accept loop failed.
    Run(io::Error),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::NoRoot => f.write_str("no state root: pass --root DIR or set WF_DAEMON"),
            ServeError::Bind(e) => write!(f, "cannot bind: {e}"),
            ServeError::Run(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// The daemon entry routine behind both `wfd` and `wfctl daemon`: takes
/// the state root from `root`, else from `WF_DAEMON`, binds the socket
/// with sessions resolving targets through `factory`, announces it on
/// stdout, and serves until SIGINT/SIGTERM or a `shutdown` request parks
/// every session at its wave boundary.
pub fn serve_daemon<F>(root: Option<String>, factory: F) -> Result<(), ServeError>
where
    F: Fn() -> TargetRegistry + Send + Sync + 'static,
{
    let root = root
        // wf-lint: allow(host-env-read, reason = "config-load: WF_DAEMON is the documented CLI fallback for --root, read once at startup")
        .or_else(|| std::env::var("WF_DAEMON").ok())
        .ok_or(ServeError::NoRoot)?;
    let daemon = bind_daemon(&root, factory).map_err(ServeError::Bind)?;
    println!(
        "wfd: serving {} (socket {})",
        daemon.root().display(),
        daemon.socket_path().display()
    );
    daemon
        .run(wf_platform::signal::install_interrupt_flag())
        .map_err(ServeError::Run)?;
    println!("wfd: shut down; stores under {root}/sessions resume with `wfctl resume`");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use wf_platform::{NullSink, RecordingSink, SessionEvent};

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("wfd-host-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn tiny_job() -> Job {
        let mut job = Job {
            name: "tiny".into(),
            workers: Some(2),
            ..Default::default()
        };
        job.budget.iterations = Some(4);
        job
    }

    #[test]
    fn launch_runs_the_session_and_persists_a_verifiable_store() {
        let dir = temp_dir("run");
        let launcher = RegistryLauncher::new(TargetRegistry::builtin);
        let mut sink = RecordingSink::new();
        let finished = launcher
            .launch(&tiny_job(), &dir, &mut sink, &SessionControl::default())
            .unwrap();
        assert!(finished);
        let evaluated = sink
            .events
            .iter()
            .filter(|e| matches!(e, SessionEvent::CandidateEvaluated(_)))
            .count();
        assert_eq!(evaluated, 4, "live sink saw every evaluation");

        let store = SessionStore::open(&dir).unwrap();
        let loaded = store.load().unwrap();
        assert_eq!(loaded.records.len(), 4, "store persisted every evaluation");
        assert!(store.verify_chain().unwrap() > 0, "ledger chain verifies");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_prestopped_launch_parks_before_the_first_wave() {
        let dir = temp_dir("parked");
        let launcher = RegistryLauncher::new(TargetRegistry::builtin);
        let control = SessionControl::default();
        control.request_stop();
        let finished = launcher
            .launch(&tiny_job(), &dir, &mut NullSink, &control)
            .unwrap();
        assert!(!finished, "a stopped session reports not-finished");
        // The parked store is resumable: no session_finished line yet.
        let loaded = SessionStore::open(&dir).unwrap().load().unwrap();
        assert!(loaded.records.is_empty());
        assert!(!loaded.finished);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
