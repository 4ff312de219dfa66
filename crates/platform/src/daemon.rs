//! `wfd`: the multi-tenant session daemon.
//!
//! The paper's sessions are one-shot processes; the service the ROADMAP
//! aims at runs many specialization sessions for many tenants at once.
//! This module is that supervisor: a Unix-socket API (reusing the
//! length-prefixed JSON framing of [`crate::remote`]) over a **state
//! root** directory, with one thread and one [`crate::SessionStore`]
//! directory per session — sessions share nothing but the target
//! registry, so N concurrent sessions stay bit-identical to N sequential
//! `wfctl run`s.
//!
//! ```text
//!   state root/
//!   ├── wfd.sock                     the daemon's listening socket
//!   └── sessions/
//!       ├── 0001-nginx-tuning/       one ordinary session store each:
//!       │   ├── manifest.yaml        resolved job
//!       │   └── events.jsonl         hash-chained event ledger
//!       └── 0002-redis-latency/
//! ```
//!
//! One request frame per connection; the reply is one frame, except
//! `watch`, which turns the connection into a live [`SessionEvent`]
//! stream (each event teed to the socket by the session's supervisor
//! while [`crate::JsonlSink`] persists it) closed by an `end` frame.
//!
//! | op | request | reply |
//! |---|---|---|
//! | `submit` | `{op, job: "<yaml>"}` | `{ok, id, name, dir}` |
//! | `sessions` | `{op}` | `{ok, sessions: [{id, name, dir, status, iterations, best, error?}]}` |
//! | `watch` | `{op, id}` | `{ok, …}` then event frames, then `{stream: "end", status}` |
//! | `stop` | `{op, id}` | `{ok, status}` — graceful: the session parks at the next wave boundary, resumable |
//! | `shutdown` | `{op}` | `{ok}` — stop every session at its boundary, then exit |
//! | `ping` | `{op}` | `{ok, root}` |
//!
//! Admission is capped: past `MAX_CONNECTIONS` open request handlers a
//! new connection, and past `MAX_SESSIONS` running sessions a `submit`,
//! gets one `{ok: false, error: "busy: …"}` frame instead of a thread.
//!
//! Session *construction* needs the target registry, which lives above
//! this crate — the daemon therefore takes a [`SessionLauncher`] (the
//! `wfd`/`wfctl daemon` binaries inject one built on
//! `wayfinder_core::SessionBuilder`) and supervises: per-session thread,
//! status registry, live-event broadcast, panic containment (a panicking
//! launcher fails its session, never the daemon), and poison-recovering
//! locks throughout ([`lock_recover`]).

use crate::events::{EventSink, SessionEvent};
use crate::remote::{read_frame, send_frame, start_frame, write_frame};
use crate::store::{write_event, JsonValue};
use std::borrow::Cow;
use std::io;
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use wf_jobfile::Job;

/// The daemon's socket file name inside the state root.
pub const DAEMON_SOCKET: &str = "wfd.sock";
/// The per-session store parent directory inside the state root.
pub const SESSIONS_DIR: &str = "sessions";

/// How long a connection handler waits for the request frame before
/// giving up on a silent client.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(10);
/// Accept-loop poll interval while idle.
const ACCEPT_POLL: Duration = Duration::from_millis(25);
/// Connections served at once. One more is answered `busy` and closed
/// instead of getting a handler thread.
const MAX_CONNECTIONS: usize = 64;
/// Sessions running at once. A `submit` past it is answered `busy`.
const MAX_SESSIONS: usize = 32;

pub use crate::sync::lock_recover;

// ---------------------------------------------------------------------------
// SocketSink: one live event stream.
// ---------------------------------------------------------------------------

/// An [`EventSink`] forwarding every event as one length-prefixed JSON
/// frame over a Unix stream — the live half of the daemon's
/// `Tee(JsonlSink, SocketSink)`. A frame's body is the event's ledger
/// line without its `prev` field, written by the same
/// [`crate::store::write_event`]. Like [`crate::JsonlSink`], I/O errors
/// are sticky: the first failed write marks the sink dead and later
/// events are dropped (a watcher hanging up must not fail the session).
///
/// # Examples
///
/// ```
/// use std::os::unix::net::UnixStream;
/// use wf_platform::daemon::SocketSink;
/// use wf_platform::remote::read_frame;
/// use wf_platform::{EventSink, SessionEvent};
///
/// let (a, mut b) = UnixStream::pair().unwrap();
/// let mut sink = SocketSink::new(a);
/// sink.on_event(&SessionEvent::CheckpointWritten { iterations: 3 });
/// drop(sink);
/// let frame = read_frame(&mut b).unwrap().unwrap();
/// assert_eq!(frame.get("event").unwrap().as_str(), Some("checkpoint"));
/// assert_eq!(read_frame(&mut b).unwrap(), None); // EOF after drop
/// ```
pub struct SocketSink {
    stream: UnixStream,
    dead: bool,
    /// The frame being sent, reused from event to event.
    frame: String,
}

impl SocketSink {
    /// Wraps `stream`; every event becomes one frame on it.
    pub fn new(stream: UnixStream) -> SocketSink {
        SocketSink {
            stream,
            dead: false,
            frame: String::new(),
        }
    }

    /// Whether a write has failed (the peer hung up); dead sinks drop
    /// all further events.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Sends a raw protocol frame (the daemon uses this for the final
    /// `end` frame, which is not a [`SessionEvent`]).
    pub fn send(&mut self, value: &JsonValue) {
        if self.dead {
            return;
        }
        if write_frame(&mut self.stream, value).is_err() {
            self.dead = true;
        }
    }
}

impl EventSink for SocketSink {
    fn on_event(&mut self, event: &SessionEvent) {
        if self.dead {
            return;
        }
        start_frame(&mut self.frame);
        write_event(event, None, &mut self.frame);
        if send_frame(&mut self.stream, &mut self.frame).is_err() {
            self.dead = true;
        }
    }
}

// ---------------------------------------------------------------------------
// Session supervision.
// ---------------------------------------------------------------------------

/// Cooperative lifecycle control for one supervised session: the
/// launcher's wave loop checks [`SessionControl::stop_requested`] at
/// every wave boundary (via
/// [`crate::Session::run_with_until`]).
#[derive(Debug, Default)]
pub struct SessionControl {
    stop: AtomicBool,
}

impl SessionControl {
    /// Asks the session to park at its next wave boundary.
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
    }

    /// Whether a stop has been requested.
    pub fn stop_requested(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }
}

/// Where a supervised session stands.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionStatus {
    /// The session thread is driving waves.
    Running,
    /// Budget exhausted; the store holds a `session_finished` line.
    Finished,
    /// Parked at a wave boundary by a stop request; the store is
    /// resumable with zero lost waves.
    Stopped,
    /// The launcher returned an error (or panicked).
    Failed(String),
}

impl SessionStatus {
    /// The protocol spelling (`running | finished | stopped | failed`).
    pub fn as_str(&self) -> &'static str {
        match self {
            SessionStatus::Running => "running",
            SessionStatus::Finished => "finished",
            SessionStatus::Stopped => "stopped",
            SessionStatus::Failed(_) => "failed",
        }
    }

    /// Whether the session thread has exited.
    pub fn is_terminal(&self) -> bool {
        !matches!(self, SessionStatus::Running)
    }
}

struct EntryInner {
    status: SessionStatus,
    best: Option<f64>,
    watchers: Vec<SocketSink>,
}

/// One supervised session: identity, store directory, live status, and
/// the watcher streams its events broadcast to.
pub struct SessionEntry {
    /// Daemon-assigned id (1-based, dense).
    pub id: u64,
    /// The job's name (slugged into the directory name).
    pub name: String,
    /// The session's store directory under the state root.
    pub dir: PathBuf,
    iterations: AtomicUsize,
    control: SessionControl,
    inner: Mutex<EntryInner>,
}

impl SessionEntry {
    fn new(id: u64, name: String, dir: PathBuf) -> SessionEntry {
        SessionEntry {
            id,
            name,
            dir,
            iterations: AtomicUsize::new(0),
            control: SessionControl::default(),
            inner: Mutex::new(EntryInner {
                status: SessionStatus::Running,
                best: None,
                watchers: Vec::new(),
            }),
        }
    }

    /// The session's lifecycle control.
    pub fn control(&self) -> &SessionControl {
        &self.control
    }

    /// Current status snapshot.
    pub fn status(&self) -> SessionStatus {
        lock_recover(&self.inner).status.clone()
    }

    /// Evaluations completed so far.
    pub fn iterations(&self) -> usize {
        self.iterations.load(Ordering::Relaxed)
    }

    /// Best objective seen so far.
    pub fn best(&self) -> Option<f64> {
        lock_recover(&self.inner).best
    }

    /// Attaches a watcher stream. If the session already ended, the
    /// `end` frame is sent immediately and the stream dropped.
    pub fn add_watcher(&self, stream: UnixStream) {
        let mut sink = SocketSink::new(stream);
        let mut inner = lock_recover(&self.inner);
        if inner.status.is_terminal() {
            sink.send(&end_frame(&inner.status));
        } else {
            inner.watchers.push(sink);
        }
    }

    /// Broadcasts one event to every live watcher and folds it into the
    /// progress counters.
    fn broadcast(&self, event: &SessionEvent) {
        match event {
            SessionEvent::CandidateEvaluated(r) => {
                self.iterations.store(r.iteration + 1, Ordering::Relaxed);
            }
            SessionEvent::NewBest { objective, .. } => {
                lock_recover(&self.inner).best = Some(*objective);
            }
            _ => {}
        }
        let mut inner = lock_recover(&self.inner);
        for watcher in &mut inner.watchers {
            watcher.on_event(event);
        }
        inner.watchers.retain(|w| !w.is_dead());
    }

    /// Marks the session terminal and closes every watcher with an
    /// `end` frame.
    fn finish(&self, status: SessionStatus) {
        let mut inner = lock_recover(&self.inner);
        inner.status = status;
        let frame = end_frame(&inner.status);
        for mut watcher in inner.watchers.drain(..) {
            watcher.send(&frame);
        }
    }

    fn describe(&self) -> JsonValue<'static> {
        let inner = lock_recover(&self.inner);
        let mut pairs = vec![
            ("id".into(), JsonValue::Int(self.id as i64)),
            ("name".into(), JsonValue::Str(self.name.clone().into())),
            (
                "dir".into(),
                JsonValue::Str(self.dir.display().to_string().into()),
            ),
            (
                "status".into(),
                JsonValue::Str(inner.status.as_str().into()),
            ),
            (
                "iterations".into(),
                JsonValue::Int(self.iterations() as i64),
            ),
            (
                "best".into(),
                match inner.best {
                    Some(v) if v.is_finite() => JsonValue::Num(v),
                    _ => JsonValue::Null,
                },
            ),
        ];
        if let SessionStatus::Failed(message) = &inner.status {
            pairs.push(("error".into(), JsonValue::Str(message.clone().into())));
        }
        JsonValue::Obj(pairs)
    }
}

fn end_frame(status: &SessionStatus) -> JsonValue<'static> {
    let mut pairs = vec![
        ("stream".into(), JsonValue::Str("end".into())),
        ("status".into(), JsonValue::Str(status.as_str().into())),
    ];
    if let SessionStatus::Failed(message) = status {
        pairs.push(("error".into(), JsonValue::Str(message.clone().into())));
    }
    JsonValue::Obj(pairs)
}

/// The session-thread sink: broadcasts to watchers and updates the
/// entry's progress counters. The launcher tees this with its store's
/// [`crate::JsonlSink`].
struct EntrySink {
    entry: Arc<SessionEntry>,
}

impl EventSink for EntrySink {
    fn on_event(&mut self, event: &SessionEvent) {
        self.entry.broadcast(event);
    }
}

/// Builds and drives one session for the daemon. Implementations live
/// above this crate (they need the target registry): build the session
/// from `job`, create its store at `dir`, and run it with every event
/// teed through `sink`, checking `control` at wave boundaries. Return
/// `Ok(true)` on budget exhaustion, `Ok(false)` when parked by a stop
/// request, `Err` on any build/store failure.
pub trait SessionLauncher: Send + Sync {
    /// Runs one session to completion (or to a requested stop).
    fn launch(
        &self,
        job: &Job,
        dir: &Path,
        sink: &mut dyn EventSink,
        control: &SessionControl,
    ) -> Result<bool, String>;
}

impl<F> SessionLauncher for F
where
    F: Fn(&Job, &Path, &mut dyn EventSink, &SessionControl) -> Result<bool, String> + Send + Sync,
{
    fn launch(
        &self,
        job: &Job,
        dir: &Path,
        sink: &mut dyn EventSink,
        control: &SessionControl,
    ) -> Result<bool, String> {
        self(job, dir, sink, control)
    }
}

// ---------------------------------------------------------------------------
// The daemon.
// ---------------------------------------------------------------------------

struct DaemonState {
    root: PathBuf,
    sessions: Mutex<Vec<Arc<SessionEntry>>>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    next_id: AtomicU64,
    shutdown: AtomicBool,
    launcher: Arc<dyn SessionLauncher>,
    /// Request handlers alive now (see [`ConnectionGuard`]).
    connections: AtomicUsize,
}

/// Holds one slot of [`MAX_CONNECTIONS`]; the slot frees when the
/// handler exits, however it exits.
struct ConnectionGuard(Arc<DaemonState>);

impl Drop for ConnectionGuard {
    fn drop(&mut self) {
        self.0.connections.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The `wfd` daemon: a Unix-socket listener over a state root, one
/// supervised thread per submitted session.
pub struct Daemon {
    listener: UnixListener,
    socket_path: PathBuf,
    state: Arc<DaemonState>,
}

impl Daemon {
    /// Creates the state root (and its `sessions/` directory), binds the
    /// socket at `<root>/wfd.sock` (replacing a stale socket file from a
    /// dead daemon), and returns the daemon ready to [`Daemon::run`].
    pub fn bind(root: impl AsRef<Path>, launcher: Arc<dyn SessionLauncher>) -> io::Result<Daemon> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(root.join(SESSIONS_DIR))?;
        let socket_path = root.join(DAEMON_SOCKET);
        if socket_path.exists() {
            // A live daemon answers a ping; a dead one left a stale file.
            if let Ok(mut probe) = UnixStream::connect(&socket_path) {
                send_best_effort(&mut probe, &request("ping"));
                if matches!(read_frame(&mut probe), Ok(Some(_))) {
                    return Err(io::Error::new(
                        io::ErrorKind::AddrInUse,
                        format!("a daemon is already serving {}", socket_path.display()),
                    ));
                }
            }
            std::fs::remove_file(&socket_path)?;
        }
        let listener = UnixListener::bind(&socket_path)?;
        listener.set_nonblocking(true)?;
        Ok(Daemon {
            listener,
            socket_path,
            state: Arc::new(DaemonState {
                root,
                sessions: Mutex::new(Vec::new()),
                threads: Mutex::new(Vec::new()),
                next_id: AtomicU64::new(1),
                shutdown: AtomicBool::new(false),
                launcher,
                connections: AtomicUsize::new(0),
            }),
        })
    }

    /// The state root this daemon serves.
    pub fn root(&self) -> &Path {
        &self.state.root
    }

    /// The socket clients connect to.
    pub fn socket_path(&self) -> &Path {
        &self.socket_path
    }

    /// Serves requests until `stop` is set (the binary's SIGINT flag) or
    /// a `shutdown` request arrives, then parks every running session at
    /// its next wave boundary, joins the session threads, and removes
    /// the socket. Stores of parked sessions resume with `wfctl resume`.
    pub fn run(&self, stop: &AtomicBool) -> io::Result<()> {
        while !stop.load(Ordering::SeqCst) && !self.state.shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((mut stream, _)) => {
                    // Only this loop takes slots, so the check and the
                    // increment cannot race each other.
                    if self.state.connections.load(Ordering::SeqCst) >= MAX_CONNECTIONS {
                        let busy = format!("busy: {MAX_CONNECTIONS} connections open");
                        send_best_effort(&mut stream, &err_reply(busy));
                        continue;
                    }
                    self.state.connections.fetch_add(1, Ordering::SeqCst);
                    let guard = ConnectionGuard(Arc::clone(&self.state));
                    let _ = std::thread::Builder::new()
                        .name("wfd-conn".into())
                        .spawn(move || handle_connection(&guard.0, stream));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(ACCEPT_POLL);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        // Graceful shutdown: park sessions at their wave boundaries.
        for entry in lock_recover(&self.state.sessions).iter() {
            entry.control().request_stop();
        }
        let threads: Vec<_> = lock_recover(&self.state.threads).drain(..).collect();
        for thread in threads {
            let _ = thread.join();
        }
        let _ = std::fs::remove_file(&self.socket_path);
        Ok(())
    }
}

/// A session id that is unambiguous in directory listings: zero-padded
/// id plus the job name reduced to a filesystem-safe slug.
fn session_dir_name(id: u64, name: &str) -> String {
    let slug: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect();
    let slug = slug.trim_matches('-');
    if slug.is_empty() {
        format!("{id:04}")
    } else {
        format!("{id:04}-{slug}")
    }
}

fn request(op: &str) -> JsonValue<'_> {
    JsonValue::Obj(vec![("op".into(), JsonValue::Str(op.into()))])
}

/// Sends a frame to a client without propagating transport errors: a
/// client that hangs up before its reply lands only loses its own
/// answer, and the daemon's session state is untouched either way.
fn send_best_effort(stream: &mut UnixStream, frame: &JsonValue) {
    // wf-lint: allow(swallowed-io-error, reason = "replies to daemon clients are best-effort by design: the peer may have disconnected, and dropping its reply affects no one else's session")
    let _ = write_frame(stream, frame);
}

fn ok_reply(mut rest: Vec<(Cow<'static, str>, JsonValue<'static>)>) -> JsonValue<'static> {
    let mut pairs = vec![("ok".into(), JsonValue::Bool(true))];
    pairs.append(&mut rest);
    JsonValue::Obj(pairs)
}

fn err_reply(message: impl Into<String>) -> JsonValue<'static> {
    JsonValue::Obj(vec![
        ("ok".into(), JsonValue::Bool(false)),
        ("error".into(), JsonValue::Str(Cow::Owned(message.into()))),
    ])
}

fn handle_connection(state: &Arc<DaemonState>, mut stream: UnixStream) {
    let _ = stream.set_read_timeout(Some(REQUEST_TIMEOUT));
    let req = match read_frame(&mut stream) {
        Ok(Some(req)) => req,
        _ => return, // silent or vanished client
    };
    let _ = stream.set_read_timeout(None);
    let op = req.get("op").and_then(JsonValue::as_str).unwrap_or("");
    match op {
        "ping" => {
            let reply = ok_reply(vec![(
                "root".into(),
                JsonValue::Str(state.root.display().to_string().into()),
            )]);
            send_best_effort(&mut stream, &reply);
        }
        "submit" => {
            let reply = match req.get("job").and_then(JsonValue::as_str) {
                None => err_reply("submit needs a job field (the job-file text)"),
                Some(yaml) => match submit(state, yaml) {
                    Ok(entry) => ok_reply(vec![
                        ("id".into(), JsonValue::Int(entry.id as i64)),
                        ("name".into(), JsonValue::Str(entry.name.clone().into())),
                        (
                            "dir".into(),
                            JsonValue::Str(entry.dir.display().to_string().into()),
                        ),
                    ]),
                    Err(message) => err_reply(message),
                },
            };
            send_best_effort(&mut stream, &reply);
        }
        "sessions" => {
            let sessions: Vec<JsonValue> = lock_recover(&state.sessions)
                .iter()
                .map(|e| e.describe())
                .collect();
            let reply = ok_reply(vec![("sessions".into(), JsonValue::Arr(sessions))]);
            send_best_effort(&mut stream, &reply);
        }
        "watch" => match find_session(state, &req) {
            Ok(entry) => {
                let ack = ok_reply(vec![
                    ("id".into(), JsonValue::Int(entry.id as i64)),
                    (
                        "status".into(),
                        JsonValue::Str(entry.status().as_str().into()),
                    ),
                ]);
                if write_frame(&mut stream, &ack).is_ok() {
                    entry.add_watcher(stream);
                }
            }
            Err(message) => {
                send_best_effort(&mut stream, &err_reply(message));
            }
        },
        "stop" => {
            let reply = match find_session(state, &req) {
                Ok(entry) => {
                    entry.control().request_stop();
                    ok_reply(vec![
                        ("id".into(), JsonValue::Int(entry.id as i64)),
                        (
                            "status".into(),
                            JsonValue::Str(entry.status().as_str().into()),
                        ),
                    ])
                }
                Err(message) => err_reply(message),
            };
            send_best_effort(&mut stream, &reply);
        }
        "shutdown" => {
            state.shutdown.store(true, Ordering::SeqCst);
            send_best_effort(&mut stream, &ok_reply(Vec::new()));
        }
        other => {
            send_best_effort(&mut stream, &err_reply(format!("unknown op {other:?}")));
        }
    }
}

fn find_session(state: &DaemonState, req: &JsonValue) -> Result<Arc<SessionEntry>, String> {
    let id = req
        .get("id")
        .and_then(JsonValue::as_u64)
        .ok_or("an integer id field is required")?;
    lock_recover(&state.sessions)
        .iter()
        .find(|e| e.id == id)
        .cloned()
        .ok_or_else(|| format!("no session {id}"))
}

fn submit(state: &Arc<DaemonState>, yaml: &str) -> Result<Arc<SessionEntry>, String> {
    if state.shutdown.load(Ordering::SeqCst) {
        return Err("daemon is shutting down".into());
    }
    let job = Job::parse(yaml).map_err(|e| format!("invalid job: {e}"))?;
    // The check and the push below hold the registry lock together, so
    // concurrent submits cannot overshoot the cap.
    let mut sessions = lock_recover(&state.sessions);
    let running = sessions
        .iter()
        .filter(|e| !e.status().is_terminal())
        .count();
    if running >= MAX_SESSIONS {
        return Err(format!("busy: {MAX_SESSIONS} sessions running"));
    }
    let id = state.next_id.fetch_add(1, Ordering::SeqCst);
    let dir = state
        .root
        .join(SESSIONS_DIR)
        .join(session_dir_name(id, &job.name));
    if dir.exists() {
        return Err(format!("{} already exists", dir.display()));
    }
    let entry = Arc::new(SessionEntry::new(id, job.name.clone(), dir));
    sessions.push(Arc::clone(&entry));
    drop(sessions);

    let launcher = Arc::clone(&state.launcher);
    let thread_entry = Arc::clone(&entry);
    let thread = std::thread::Builder::new()
        .name(format!("wfd-session-{id}"))
        .spawn(move || {
            let result = catch_unwind(AssertUnwindSafe(|| {
                let mut sink = EntrySink {
                    entry: Arc::clone(&thread_entry),
                };
                launcher.launch(&job, &thread_entry.dir, &mut sink, thread_entry.control())
            }));
            let status = match result {
                Ok(Ok(true)) => SessionStatus::Finished,
                Ok(Ok(false)) => SessionStatus::Stopped,
                Ok(Err(message)) => SessionStatus::Failed(message),
                Err(_) => SessionStatus::Failed("session thread panicked".into()),
            };
            thread_entry.finish(status);
        })
        .map_err(|e| format!("cannot spawn session thread: {e}"))?;
    lock_recover(&state.threads).push(thread);
    Ok(entry)
}

// ---------------------------------------------------------------------------
// Client side.
// ---------------------------------------------------------------------------

/// Connects to the daemon serving `root` (its `<root>/wfd.sock`).
pub fn connect(root: &Path) -> io::Result<UnixStream> {
    let path = root.join(DAEMON_SOCKET);
    UnixStream::connect(&path).map_err(|e| {
        io::Error::new(
            e.kind(),
            format!("{}: {e} (is wfd running?)", path.display()),
        )
    })
}

/// Sends one request frame and reads one reply frame; a server-side
/// `{ok: false, error}` comes back as an [`io::Error`], so callers only
/// see successful replies.
pub fn round_trip(stream: &mut UnixStream, req: &JsonValue) -> io::Result<JsonValue<'static>> {
    write_frame(stream, req)?;
    let reply = read_frame(stream)?.ok_or_else(|| {
        io::Error::new(io::ErrorKind::UnexpectedEof, "daemon closed the connection")
    })?;
    if reply.get("ok").and_then(JsonValue::as_bool) == Some(false) {
        let message = reply
            .get("error")
            .and_then(JsonValue::as_str)
            .unwrap_or("daemon refused the request");
        return Err(io::Error::other(message.to_string()));
    }
    Ok(reply)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::NullSink;
    use crate::store::SessionStore;

    fn temp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wfd-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A launcher that records nothing and parks immediately when asked.
    fn noop_launcher() -> Arc<dyn SessionLauncher> {
        Arc::new(
            |job: &Job, dir: &Path, _sink: &mut dyn EventSink, control: &SessionControl| {
                SessionStore::create(dir, job).map_err(|e| e.to_string())?;
                Ok(!control.stop_requested())
            },
        )
    }

    fn spawn_daemon(root: &Path) -> (std::thread::JoinHandle<io::Result<()>>, Arc<AtomicBool>) {
        spawn_daemon_with(root, noop_launcher())
    }

    fn spawn_daemon_with(
        root: &Path,
        launcher: Arc<dyn SessionLauncher>,
    ) -> (std::thread::JoinHandle<io::Result<()>>, Arc<AtomicBool>) {
        let daemon = Daemon::bind(root, launcher).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || daemon.run(&flag));
        // Wait for the socket to answer.
        let path = root.join(DAEMON_SOCKET);
        for _ in 0..200 {
            if path.exists() {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        (handle, stop)
    }

    #[test]
    fn session_dir_names_are_filesystem_safe() {
        assert_eq!(session_dir_name(3, "Nginx Tuning!"), "0003-nginx-tuning");
        assert_eq!(session_dir_name(12, "***"), "0012");
        assert_eq!(session_dir_name(1, "ok"), "0001-ok");
    }

    #[test]
    fn submit_sessions_stop_and_shutdown_round_trip() {
        let root = temp_root("protocol");
        let (handle, _stop) = spawn_daemon(&root);

        let mut c = connect(&root).unwrap();
        let reply = round_trip(&mut c, &request("ping")).unwrap();
        assert_eq!(reply.get("ok").unwrap().as_bool(), Some(true));

        let mut c = connect(&root).unwrap();
        let submit = JsonValue::Obj(vec![
            ("op".into(), JsonValue::Str("submit".into())),
            (
                "job".into(),
                JsonValue::Str("name: proto\nbudget:\n  iterations: 2\n".into()),
            ),
        ]);
        let reply = round_trip(&mut c, &submit).unwrap();
        assert_eq!(reply.get("id").unwrap().as_u64(), Some(1));
        let dir = PathBuf::from(reply.get("dir").unwrap().as_str().unwrap());
        assert!(dir.starts_with(root.join(SESSIONS_DIR)));

        // The noop launcher finishes immediately; the list reflects it.
        for _ in 0..200 {
            let mut c = connect(&root).unwrap();
            let reply = round_trip(&mut c, &request("sessions")).unwrap();
            let sessions = reply.get("sessions").unwrap().as_arr().unwrap();
            assert_eq!(sessions.len(), 1);
            if sessions[0].get("status").unwrap().as_str() == Some("finished") {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(dir.join("manifest.yaml").exists());

        // Unknown ids are refused, not fatal.
        let mut c = connect(&root).unwrap();
        let stop_req = JsonValue::Obj(vec![
            ("op".into(), JsonValue::Str("stop".into())),
            ("id".into(), JsonValue::Int(99)),
        ]);
        assert!(round_trip(&mut c, &stop_req).is_err());

        let mut c = connect(&root).unwrap();
        round_trip(&mut c, &request("shutdown")).unwrap();
        handle.join().unwrap().unwrap();
        assert!(!root.join(DAEMON_SOCKET).exists(), "socket removed");
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn watch_on_a_finished_session_gets_an_end_frame() {
        let root = temp_root("watch-end");
        let entry = Arc::new(SessionEntry::new(1, "x".into(), root.join("x")));
        entry.finish(SessionStatus::Finished);
        let (a, mut b) = UnixStream::pair().unwrap();
        entry.add_watcher(a);
        let frame = read_frame(&mut b).unwrap().unwrap();
        assert_eq!(frame.get("stream").unwrap().as_str(), Some("end"));
        assert_eq!(frame.get("status").unwrap().as_str(), Some("finished"));
    }

    #[test]
    fn broadcast_reaches_watchers_and_drops_dead_ones() {
        let root = temp_root("broadcast");
        let entry = Arc::new(SessionEntry::new(1, "x".into(), root.join("x")));
        let (a, mut b) = UnixStream::pair().unwrap();
        entry.add_watcher(a);
        let (dead_a, dead_b) = UnixStream::pair().unwrap();
        drop(dead_b);
        entry.add_watcher(dead_a);

        entry.broadcast(&SessionEvent::NewBest {
            iteration: 4,
            objective: 2.5,
        });
        entry.broadcast(&SessionEvent::CheckpointWritten { iterations: 5 });
        assert_eq!(entry.best(), Some(2.5));
        let frame = read_frame(&mut b).unwrap().unwrap();
        assert_eq!(frame.get("event").unwrap().as_str(), Some("new_best"));
        // The dead watcher was dropped without failing the broadcast.
        assert_eq!(lock_recover(&entry.inner).watchers.len(), 1);

        entry.finish(SessionStatus::Stopped);
        // Drain the checkpoint, then the end frame.
        let frame = read_frame(&mut b).unwrap().unwrap();
        assert_eq!(frame.get("event").unwrap().as_str(), Some("checkpoint"));
        let frame = read_frame(&mut b).unwrap().unwrap();
        assert_eq!(frame.get("stream").unwrap().as_str(), Some("end"));
        assert_eq!(frame.get("status").unwrap().as_str(), Some("stopped"));
    }

    #[test]
    fn a_panicking_launcher_fails_its_session_not_the_daemon() {
        let root = temp_root("panic");
        let launcher: Arc<dyn SessionLauncher> = Arc::new(
            |_job: &Job, _dir: &Path, _sink: &mut dyn EventSink, _control: &SessionControl| {
                panic!("boom");
            },
        );
        let daemon = Daemon::bind(&root, launcher).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let state_root = root.clone();
        let handle = std::thread::spawn(move || daemon.run(&flag));

        let mut c = connect(&state_root).unwrap();
        let submit = JsonValue::Obj(vec![
            ("op".into(), JsonValue::Str("submit".into())),
            ("job".into(), JsonValue::Str("name: boom\n".into())),
        ]);
        round_trip(&mut c, &submit).unwrap();
        let mut failed = false;
        for _ in 0..400 {
            let mut c = connect(&state_root).unwrap();
            let reply = round_trip(&mut c, &request("sessions")).unwrap();
            let sessions = reply.get("sessions").unwrap().as_arr().unwrap();
            if sessions[0].get("status").unwrap().as_str() == Some("failed") {
                failed = true;
                assert!(sessions[0]
                    .get("error")
                    .unwrap()
                    .as_str()
                    .unwrap()
                    .contains("panicked"));
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(failed, "the panicked session must surface as failed");

        stop.store(true, Ordering::SeqCst);
        handle.join().unwrap().unwrap();
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn a_hostile_submit_is_refused_and_the_daemon_stays_up() {
        // A job of 200 000 nested flow brackets: the connection thread
        // parses it on its small default stack, so an unbounded parser
        // would abort the whole daemon here.
        let root = temp_root("hostile");
        let (handle, _stop) = spawn_daemon(&root);

        let job = format!(
            "name: hostile\nparams: {}{}\n",
            "[".repeat(200_000),
            "]".repeat(200_000)
        );
        let mut c = connect(&root).unwrap();
        let submit = JsonValue::Obj(vec![
            ("op".into(), JsonValue::Str("submit".into())),
            ("job".into(), JsonValue::Str(job.into())),
        ]);
        let err = round_trip(&mut c, &submit).unwrap_err();
        assert!(err.to_string().contains("invalid job"), "{err}");

        let mut c = connect(&root).unwrap();
        let reply = round_trip(&mut c, &request("ping")).unwrap();
        assert_eq!(reply.get("ok").unwrap().as_bool(), Some(true));

        let mut c = connect(&root).unwrap();
        round_trip(&mut c, &request("shutdown")).unwrap();
        handle.join().unwrap().unwrap();
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// Sends `req` on fresh connections until one is served, for up to a
    /// second: a slot freed by a closing client frees when its handler
    /// exits, a moment after the close.
    fn round_trip_when_admitted(root: &Path, req: &JsonValue) -> JsonValue<'static> {
        for _ in 0..200 {
            let mut c = connect(root).unwrap();
            if let Ok(reply) = round_trip(&mut c, req) {
                return reply;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("no connection admitted within a second");
    }

    #[test]
    fn connections_past_the_cap_get_busy_until_one_closes() {
        let root = temp_root("admission");
        let (handle, _stop) = spawn_daemon(&root);

        // Idle clients: each holds a handler waiting for its request.
        let mut held: Vec<UnixStream> = (0..MAX_CONNECTIONS)
            .map(|_| connect(&root).unwrap())
            .collect();
        let mut extra = connect(&root).unwrap();
        let reply = read_frame(&mut extra).unwrap().unwrap();
        assert_eq!(reply.get("ok").unwrap().as_bool(), Some(false));
        let error = reply.get("error").unwrap().as_str().unwrap();
        assert!(error.starts_with("busy"), "{error}");
        assert_eq!(read_frame(&mut extra).unwrap(), None, "closed after busy");

        drop(held.pop());
        let reply = round_trip_when_admitted(&root, &request("ping"));
        assert_eq!(reply.get("ok").unwrap().as_bool(), Some(true));

        drop(held);
        round_trip_when_admitted(&root, &request("shutdown"));
        handle.join().unwrap().unwrap();
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn submits_past_the_session_cap_get_busy() {
        let root = temp_root("session-cap");
        // Sessions that run until the daemon parks them.
        let launcher: Arc<dyn SessionLauncher> = Arc::new(
            |_job: &Job, _dir: &Path, _sink: &mut dyn EventSink, control: &SessionControl| {
                while !control.stop_requested() {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Ok(false)
            },
        );
        let (handle, _stop) = spawn_daemon_with(&root, launcher);
        let submit = JsonValue::Obj(vec![
            ("op".into(), JsonValue::Str("submit".into())),
            ("job".into(), JsonValue::Str("name: capped\n".into())),
        ]);
        for _ in 0..MAX_SESSIONS {
            let mut c = connect(&root).unwrap();
            round_trip(&mut c, &submit).unwrap();
        }
        let mut c = connect(&root).unwrap();
        let err = round_trip(&mut c, &submit).unwrap_err();
        assert!(err.to_string().starts_with("busy"), "{err}");

        let mut c = connect(&root).unwrap();
        round_trip(&mut c, &request("shutdown")).unwrap();
        handle.join().unwrap().unwrap();
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn null_sink_satisfies_the_launcher_signature() {
        // Compile-time check that plain closures are launchers.
        let launcher: Arc<dyn SessionLauncher> = noop_launcher();
        let root = temp_root("sig");
        std::fs::create_dir_all(&root).unwrap();
        let control = SessionControl::default();
        let done = launcher
            .launch(&Job::default(), &root.join("s"), &mut NullSink, &control)
            .unwrap();
        assert!(done);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
