//! The remote evaluation backend: workers behind a process boundary.
//!
//! [`RemoteBackend`] is an [`EvalBackend`] whose lanes are worker
//! *processes* connected over Unix-domain sockets, speaking a
//! length-prefixed JSON request/response protocol over the existing
//! [`EvalTarget`] surface. The `wf-evald` binary is the production
//! worker: it builds its own copy of the target (targets are pure
//! functions of their construction parameters, so a remote rebuild is
//! bit-identical to a local one) and calls [`serve`] on its connection.
//!
//! Workers are stateless between requests: every request ships the cache
//! probe's answer and the lane's working tree, every response carries the
//! built image back, so the image cache stays session-owned and
//! the two-phase cache protocol is untouched (see `docs/DETERMINISM.md`).
//! A worker that dies mid-wave surfaces as a transport-level
//! [`LaneError`]; the router health-gates the lane and retries the slot
//! elsewhere.
//!
//! # Protocol
//!
//! Each frame is a 4-byte big-endian length followed by one compact JSON
//! document (the same [`JsonValue`] encoding the session store uses, so
//! `f64` payloads round-trip bit-for-bit and `u64` seeds ride as
//! strings):
//!
//! ```text
//! worker → client   {"op":"hello","lane":0}
//! client → worker   {"op":"eval","seed":"42","reps":2,"slot":0,"index":7,
//!                    "lane":0,"config":["b1","i3",...],"reuse":null,
//!                    "tree":["b0",...]|null}
//! worker → client   {"op":"result","slot":0,"lane":0,"skip":false,
//!                    "dur":12.5,"ok":true,"metric":8.1,"mem":100.2,
//!                    "phase":null,"rule":null,
//!                    "image":{"fp":"123","mb":4.5,"opts":19}|null}
//! ```
//!
//! The connection closing (EOF) is the shutdown signal.

use crate::backend::{run_item, EvalBackend, LaneError, WorkItem, WorkResult};
use crate::store::{config_from_json, phase_from_str, phase_str, push_u64, Fields, JsonValue};
use crate::target::EvalTarget;
use crate::workers::CandidateEval;
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wf_ossim::{BenchResult, CrashReport, KernelImage};

/// Frames larger than this are a protocol violation, not a big wave.
const MAX_FRAME: u32 = 16 * 1024 * 1024;
/// How long [`RemoteBackend::spawn`] waits for every worker to dial in.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(10);

/// How to launch remote workers: the `wf-evald` (or compatible) binary
/// plus the target-resolution arguments it needs to rebuild the session's
/// target. The backend appends `--connect <socket> --lane <i>` per
/// worker.
#[derive(Clone, Debug, PartialEq)]
pub struct RemoteSpec {
    /// Worker executable.
    pub command: PathBuf,
    /// Arguments passed through verbatim (opaque to the platform).
    pub args: Vec<String>,
}

// ---------------------------------------------------------------------------
// Framing.
// ---------------------------------------------------------------------------

/// Writes one length-prefixed JSON frame.
pub fn write_frame(stream: &mut UnixStream, value: &JsonValue) -> io::Result<()> {
    let mut frame = String::new();
    start_frame(&mut frame);
    value.encode_into(&mut frame);
    send_frame(stream, &mut frame)
}

/// Placeholder for a frame's length prefix: four bytes that
/// [`send_frame`] overwrites once the body's length is known.
const LENGTH_PLACEHOLDER: &str = "\0\0\0\0";

/// Empties `frame` and reserves its length prefix; the caller then
/// appends the JSON body and hands the buffer to [`send_frame`].
pub(crate) fn start_frame(frame: &mut String) {
    frame.clear();
    frame.push_str(LENGTH_PLACEHOLDER);
}

/// Sends a frame built since [`start_frame`]: fills in the length prefix
/// and writes prefix and body with one `write_all`, so a frame costs one
/// syscall. `frame` comes back empty with its capacity kept, whether or
/// not the write succeeded.
pub(crate) fn send_frame(stream: &mut UnixStream, frame: &mut String) -> io::Result<()> {
    let mut bytes = std::mem::take(frame).into_bytes();
    let sent = match u32::try_from(bytes.len() - LENGTH_PLACEHOLDER.len()) {
        Ok(len) => {
            bytes[..LENGTH_PLACEHOLDER.len()].copy_from_slice(&len.to_be_bytes());
            stream.write_all(&bytes).and_then(|()| stream.flush())
        }
        Err(_) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame too large",
        )),
    };
    bytes.clear();
    // An empty buffer is valid UTF-8, so this keeps the allocation.
    *frame = String::from_utf8(bytes).unwrap_or_default();
    sent
}

/// Reads one length-prefixed JSON frame; `Ok(None)` on clean EOF.
pub fn read_frame(stream: &mut UnixStream) -> io::Result<Option<JsonValue<'static>>> {
    let mut len = [0u8; 4];
    match stream.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the protocol maximum"),
        ));
    }
    let mut body = vec![0u8; len as usize];
    stream.read_exact(&mut body)?;
    let text = String::from_utf8(body)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame is not UTF-8"))?;
    JsonValue::parse(&text)
        .map(|v| Some(v.into_owned()))
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad frame: {e}")))
}

// ---------------------------------------------------------------------------
// Payload (de)serialization.
// ---------------------------------------------------------------------------

fn u64_from(v: &JsonValue) -> Option<u64> {
    v.as_str().and_then(|s| s.parse().ok())
}

fn image_from(v: &JsonValue) -> Option<KernelImage> {
    Some(KernelImage {
        fingerprint: u64_from(v.get("fp")?)?,
        image_mb: v.get("mb")?.as_f64()?,
        enabled_options: v.get("opts")?.as_usize()?,
    })
}

fn hello_json(lane: usize) -> JsonValue<'static> {
    JsonValue::Obj(vec![
        ("op".into(), JsonValue::Str("hello".into())),
        ("lane".into(), JsonValue::Int(lane as i64)),
    ])
}

/// Writes `image` as `{"fp":"…","mb":…,"opts":…}`, or `null` for `None`.
fn image_field(f: &mut Fields, key: &str, image: Option<&KernelImage>) {
    let Some(img) = image else {
        return f.null(key);
    };
    f.key(key);
    f.out.push_str("{\"fp\":\"");
    push_u64(img.fingerprint, f.out);
    f.out.push('"');
    f.num("mb", img.image_mb);
    f.int("opts", img.enabled_options as i64);
    f.out.push('}');
}

/// Appends an eval request's JSON body to `frame` (after [`start_frame`]).
fn write_request(session_seed: u64, repetitions: usize, item: &WorkItem, frame: &mut String) {
    frame.push_str("{\"op\":\"eval\"");
    let mut f = Fields { out: frame };
    f.u64("seed", session_seed);
    f.int("reps", repetitions as i64);
    f.int("slot", item.slot as i64);
    f.int("index", item.index as i64);
    f.int("lane", item.lane as i64);
    f.config("config", &item.config);
    image_field(&mut f, "reuse", item.reuse.as_ref());
    match &item.working_tree {
        Some(tree) => f.config("tree", tree),
        None => f.null("tree"),
    }
    f.out.push('}');
}

/// Appends a result's JSON body to `frame` (after [`start_frame`]).
fn write_result(w: &WorkResult, frame: &mut String) {
    frame.push_str("{\"op\":\"result\"");
    let mut f = Fields { out: frame };
    f.int("slot", w.slot as i64);
    f.int("lane", w.lane as i64);
    f.bool("skip", w.eval.build_skipped);
    f.num("dur", w.eval.duration_s);
    match &w.eval.outcome {
        Ok(r) => {
            f.bool("ok", true);
            f.num("metric", r.metric);
            f.num("mem", r.memory_mb);
            f.null("phase");
            f.null("rule");
        }
        Err(c) => {
            f.bool("ok", false);
            f.null("metric");
            f.null("mem");
            f.str("phase", phase_str(c.phase));
            f.str("rule", &c.rule);
        }
    }
    image_field(&mut f, "image", w.image.as_ref());
    f.out.push('}');
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

fn result_from(v: &JsonValue) -> io::Result<WorkResult> {
    let slot = v
        .get("slot")
        .and_then(JsonValue::as_usize)
        .ok_or_else(|| bad("result without slot"))?;
    let lane = v
        .get("lane")
        .and_then(JsonValue::as_usize)
        .ok_or_else(|| bad("result without lane"))?;
    let build_skipped = v
        .get("skip")
        .and_then(JsonValue::as_bool)
        .ok_or_else(|| bad("result without skip"))?;
    let duration_s = v
        .get("dur")
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| bad("result without dur"))?;
    let ok = v
        .get("ok")
        .and_then(JsonValue::as_bool)
        .ok_or_else(|| bad("result without ok"))?;
    let outcome = if ok {
        Ok(BenchResult {
            metric: v
                .get("metric")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| bad("ok result without metric"))?,
            memory_mb: v
                .get("mem")
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| bad("ok result without mem"))?,
        })
    } else {
        Err(CrashReport {
            phase: v
                .get("phase")
                .and_then(JsonValue::as_str)
                .and_then(phase_from_str)
                .ok_or_else(|| bad("crash result without phase"))?,
            rule: v
                .get("rule")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| bad("crash result without rule"))?
                .to_string(),
        })
    };
    let image = match v.get("image") {
        None | Some(JsonValue::Null) => None,
        Some(img) => Some(image_from(img).ok_or_else(|| bad("malformed image"))?),
    };
    Ok(WorkResult {
        slot,
        lane,
        eval: CandidateEval {
            outcome,
            build_skipped,
            duration_s,
        },
        image,
    })
}

/// Checks a decoded result against the slot and lane it must answer and
/// `fp`, the image fingerprint of the slot's config. The dispatcher
/// indexes the wave by the echoed slot and lane, the router's EWMAs and
/// the virtual clock consume the duration, and a returned image enters
/// the session's cache under its fingerprint. So a mismatched echo, a
/// non-finite or negative `dur`, a non-finite `metric` or `mem`, or an
/// image whose fingerprint is not `fp` is a protocol violation, not a
/// result.
fn check_result(w: WorkResult, slot: usize, lane: usize, fp: u64) -> io::Result<WorkResult> {
    if (w.slot, w.lane) != (slot, lane) {
        return Err(bad(&format!(
            "result names slot {} on lane {} where slot {slot} on lane {lane} was expected",
            w.slot, w.lane
        )));
    }
    if !(w.eval.duration_s.is_finite() && w.eval.duration_s >= 0.0) {
        return Err(bad("result dur is not a finite, non-negative number"));
    }
    if let Ok(r) = &w.eval.outcome {
        if !(r.metric.is_finite() && r.memory_mb.is_finite()) {
            return Err(bad("result metric or mem is not finite"));
        }
    }
    if let Some(image) = &w.image {
        if image.fingerprint != fp {
            return Err(bad(&format!(
                "result image has fingerprint {} where the config's is {fp}",
                image.fingerprint
            )));
        }
    }
    Ok(w)
}

// ---------------------------------------------------------------------------
// Worker side.
// ---------------------------------------------------------------------------

/// Serves evaluation requests on `stream` until the peer closes it.
///
/// This is the whole worker loop `wf-evald` runs: announce the lane,
/// then `read request → evaluate → write result` until EOF. The worker
/// is stateless between requests — reuse and working tree arrive in the
/// request — so the evaluation is the same pure function of
/// `(session_seed, index)` it is in-process.
pub fn serve(mut stream: UnixStream, lane: usize, target: &dyn EvalTarget) -> io::Result<()> {
    write_frame(&mut stream, &hello_json(lane))?;
    let mut out = String::new();
    while let Some(frame) = read_frame(&mut stream)? {
        let op = frame.get("op").and_then(JsonValue::as_str);
        if op != Some("eval") {
            return Err(bad("unexpected request frame"));
        }
        let session_seed = frame
            .get("seed")
            .and_then(u64_from)
            .ok_or_else(|| bad("eval without seed"))?;
        let repetitions = frame
            .get("reps")
            .and_then(JsonValue::as_usize)
            .ok_or_else(|| bad("eval without reps"))?;
        let item = WorkItem {
            slot: frame
                .get("slot")
                .and_then(JsonValue::as_usize)
                .ok_or_else(|| bad("eval without slot"))?,
            index: frame
                .get("index")
                .and_then(JsonValue::as_usize)
                .ok_or_else(|| bad("eval without index"))?,
            lane: frame
                .get("lane")
                .and_then(JsonValue::as_usize)
                .ok_or_else(|| bad("eval without lane"))?,
            config: frame
                .get("config")
                .and_then(config_from_json)
                .ok_or_else(|| bad("eval without config"))?,
            reuse: match frame.get("reuse") {
                None | Some(JsonValue::Null) => None,
                Some(img) => Some(image_from(img).ok_or_else(|| bad("malformed reuse image"))?),
            },
            working_tree: match frame.get("tree") {
                None | Some(JsonValue::Null) => None,
                Some(tree) => {
                    Some(config_from_json(tree).ok_or_else(|| bad("malformed working tree"))?)
                }
            },
        };
        let result = run_item(target, session_seed, repetitions, item);
        start_frame(&mut out);
        write_result(&result, &mut out);
        send_frame(&mut stream, &mut out)?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Client side.
// ---------------------------------------------------------------------------

struct RemoteLane {
    stream: Option<UnixStream>,
    child: Option<Child>,
}

/// Reads `stream`'s hello frame and seats the stream in `lanes` (one
/// slot per worker) at the lane it announces. A lane out of range, or
/// one already taken, is an error.
fn seat_by_hello(mut stream: UnixStream, lanes: &mut [Option<UnixStream>]) -> io::Result<()> {
    let hello = read_frame(&mut stream)?.ok_or_else(|| bad("worker hung up before hello"))?;
    let lane = hello
        .get("lane")
        .and_then(JsonValue::as_usize)
        .filter(|l| *l < lanes.len())
        .ok_or_else(|| bad("malformed hello frame"))?;
    if lanes[lane].is_some() {
        return Err(bad("two workers announced the same lane"));
    }
    lanes[lane] = Some(stream);
    Ok(())
}

/// Accepts one hello-announced connection per worker, in any arrival
/// order, returning the streams in lane order. `children` is only
/// polled (`try_wait`) to detect a worker that died before connecting;
/// ownership stays with the caller so its error path can reap them.
fn accept_workers(
    listener: &UnixListener,
    workers: usize,
    children: &mut [Child],
) -> io::Result<Vec<UnixStream>> {
    let mut streams: Vec<Option<UnixStream>> = (0..workers).map(|_| None).collect();
    // wf-lint: allow(wall-clock-in-det-path, reason = "host-I/O timeout: bounds how long setup waits for worker processes to connect; the deadline never reaches the search")
    let deadline = Instant::now() + CONNECT_TIMEOUT;
    let mut connected = 0;
    while connected < workers {
        match listener.accept() {
            Ok((stream, _)) => {
                stream.set_nonblocking(false)?;
                seat_by_hello(stream, &mut streams)?;
                connected += 1;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                for child in children.iter_mut() {
                    if let Some(status) = child.try_wait()? {
                        return Err(io::Error::new(
                            io::ErrorKind::BrokenPipe,
                            format!("worker exited before connecting: {status}"),
                        ));
                    }
                }
                // wf-lint: allow(wall-clock-in-det-path, reason = "host-I/O timeout check against the connect deadline above")
                if Instant::now() >= deadline {
                    return Err(io::Error::new(
                        io::ErrorKind::TimedOut,
                        "workers did not connect within the timeout",
                    ));
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(e),
        }
    }
    Ok(streams.into_iter().flatten().collect())
}

/// Worker processes (or test threads) behind sockets, one per lane.
///
/// Construct with [`RemoteBackend::spawn`] to launch real worker
/// processes, or [`RemoteBackend::from_streams`] to drive pre-connected
/// sockets (the proptests serve the protocol from in-process threads —
/// same bytes, no process overhead).
pub struct RemoteBackend {
    lanes: Vec<RemoteLane>,
    socket_path: Option<PathBuf>,
    /// The request frame being written, reused across requests.
    frame: String,
}

static SOCKET_SERIAL: AtomicUsize = AtomicUsize::new(0);

impl RemoteBackend {
    /// Launches `workers` worker processes per `spec` and waits for all
    /// of them to dial in and announce their lanes. On *any* launch
    /// failure — a spawn error, a malformed hello, a worker dying early,
    /// or the connect timeout — every child already launched is killed
    /// and reaped before the error returns, so a failed launch never
    /// leaks worker processes.
    pub fn spawn(workers: usize, spec: &RemoteSpec) -> io::Result<RemoteBackend> {
        assert!(workers >= 1, "a backend needs at least one lane");
        let socket_path = std::env::temp_dir().join(format!(
            "wf-evald-{}-{}.sock",
            std::process::id(),
            SOCKET_SERIAL.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_file(&socket_path);
        let listener = UnixListener::bind(&socket_path)?;
        listener.set_nonblocking(true)?;

        // Children stay in this vec until the whole launch succeeds, so
        // the error path below can reap every process it started.
        let mut children: Vec<Child> = Vec::with_capacity(workers);
        let outcome = (|| -> io::Result<Vec<UnixStream>> {
            for lane in 0..workers {
                let child = Command::new(&spec.command)
                    .args(&spec.args)
                    .arg("--connect")
                    .arg(&socket_path)
                    .arg("--lane")
                    .arg(lane.to_string())
                    .stdin(Stdio::null())
                    .spawn()
                    .map_err(|e| {
                        io::Error::new(
                            e.kind(),
                            format!("cannot launch worker {:?}: {e}", spec.command),
                        )
                    })?;
                children.push(child);
            }
            accept_workers(&listener, workers, &mut children)
        })();
        let _ = std::fs::remove_file(&socket_path);
        match outcome {
            Ok(streams) => Ok(RemoteBackend {
                // Worker `i` was launched with `--lane i`, so child order
                // is lane order.
                lanes: streams
                    .into_iter()
                    .zip(children)
                    .map(|(stream, child)| RemoteLane {
                        stream: Some(stream),
                        child: Some(child),
                    })
                    .collect(),
                socket_path: Some(socket_path),
                frame: String::new(),
            }),
            Err(e) => {
                for mut child in children {
                    let _ = child.kill();
                    let _ = child.wait();
                }
                Err(e)
            }
        }
    }

    /// Wraps pre-connected streams whose peers already run [`serve`].
    /// Each peer's hello frame decides its lane.
    pub fn from_streams(streams: Vec<UnixStream>) -> io::Result<RemoteBackend> {
        let workers = streams.len();
        assert!(workers >= 1, "a backend needs at least one lane");
        let mut seated: Vec<Option<UnixStream>> = (0..workers).map(|_| None).collect();
        for stream in streams {
            seat_by_hello(stream, &mut seated)?;
        }
        Ok(RemoteBackend {
            // One stream per slot, each seated once: every lane is taken.
            lanes: seated
                .into_iter()
                .map(|stream| RemoteLane {
                    stream,
                    child: None,
                })
                .collect(),
            socket_path: None,
            frame: String::new(),
        })
    }

    /// OS pids of the worker processes this backend launched (empty for
    /// [`RemoteBackend::from_streams`] backends, which own no
    /// processes). The teardown tests record these before dropping the
    /// backend and assert none of them survive it.
    pub fn child_pids(&self) -> Vec<u32> {
        self.lanes
            .iter()
            .filter_map(|lane| lane.child.as_ref().map(Child::id))
            .collect()
    }
}

impl EvalBackend for RemoteBackend {
    fn label(&self) -> &'static str {
        "remote"
    }

    fn run_items(
        &mut self,
        target: &Arc<dyn EvalTarget>,
        session_seed: u64,
        repetitions: usize,
        items: Vec<WorkItem>,
    ) -> Vec<Result<WorkResult, LaneError>> {
        let mut out = Vec::with_capacity(items.len());
        // Submit every item, then drain responses lane by lane — the
        // worker loop is sequential per lane, so responses arrive in
        // submission order on each socket.
        // Each outstanding slot waits with its config's image fingerprint.
        let mut outstanding: Vec<VecDeque<(usize, u64)>> =
            (0..self.lanes.len()).map(|_| VecDeque::new()).collect();
        for item in &items {
            assert!(item.lane < self.lanes.len(), "lane out of range");
            let lane = item.lane;
            let failed = match self.lanes[lane].stream.as_mut() {
                None => Some("worker connection is gone".to_string()),
                Some(stream) => {
                    start_frame(&mut self.frame);
                    write_request(session_seed, repetitions, item, &mut self.frame);
                    match send_frame(stream, &mut self.frame) {
                        Ok(()) => None,
                        Err(e) => Some(format!("cannot send to worker: {e}")),
                    }
                }
            };
            match failed {
                None => {
                    outstanding[lane].push_back((item.slot, target.image_fingerprint(&item.config)))
                }
                Some(message) => {
                    self.lanes[lane].stream = None;
                    out.push(Err(LaneError {
                        slot: item.slot,
                        lane,
                        message,
                    }));
                }
            }
        }
        for (lane, mut slots) in outstanding.into_iter().enumerate() {
            while let Some((expected_slot, fp)) = slots.pop_front() {
                let received = match self.lanes[lane].stream.as_mut() {
                    None => Err(bad("worker connection is gone")),
                    Some(stream) => read_frame(stream).and_then(|frame| {
                        frame
                            .ok_or_else(|| bad("worker hung up mid-wave"))
                            .and_then(|f| result_from(&f))
                            .and_then(|w| check_result(w, expected_slot, lane, fp))
                    }),
                };
                match received {
                    Ok(result) => out.push(Ok(result)),
                    Err(e) => {
                        // The lane is dead: fail this slot and everything
                        // else still outstanding on it.
                        self.lanes[lane].stream = None;
                        out.push(Err(LaneError {
                            slot: expected_slot,
                            lane,
                            message: format!("worker failed: {e}"),
                        }));
                        for (slot, _) in slots.drain(..) {
                            out.push(Err(LaneError {
                                slot,
                                lane,
                                message: "worker connection is gone".into(),
                            }));
                        }
                    }
                }
            }
        }
        out
    }
}

impl Drop for RemoteBackend {
    fn drop(&mut self) {
        // Closing the sockets is the shutdown signal; give processes a
        // moment to exit on EOF, then reap (or kill) them.
        for lane in &mut self.lanes {
            lane.stream.take();
        }
        for lane in &mut self.lanes {
            if let Some(mut child) = lane.child.take() {
                // wf-lint: allow(wall-clock-in-det-path, reason = "host-I/O timeout: bounds teardown's wait for worker processes to exit on EOF; runs after the session is over")
                let deadline = Instant::now() + Duration::from_secs(2);
                loop {
                    match child.try_wait() {
                        Ok(Some(_)) => break,
                        // wf-lint: allow(wall-clock-in-det-path, reason = "host-I/O timeout check against the teardown deadline above")
                        Ok(None) if Instant::now() < deadline => {
                            std::thread::sleep(Duration::from_millis(10));
                        }
                        _ => {
                            let _ = child.kill();
                            let _ = child.wait();
                            break;
                        }
                    }
                }
            }
        }
        if let Some(path) = self.socket_path.take() {
            let _ = std::fs::remove_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::InProcessBackend;
    use crate::target::SimTarget;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wf_configspace::{Configuration, Tristate, Value};
    use wf_kconfig::LinuxVersion;
    use wf_ossim::{App, AppId, Phase, SimOs};

    fn u64_json(v: u64) -> JsonValue<'static> {
        JsonValue::Str(v.to_string().into())
    }

    fn sim_target() -> SimTarget {
        SimTarget::new(
            SimOs::linux_runtime(LinuxVersion::V4_19, 56),
            App::by_id(AppId::Redis),
        )
    }

    /// A remote backend whose workers are in-process threads running the
    /// real [`serve`] loop over socketpairs — full protocol bytes, no
    /// process spawn.
    pub(crate) fn threaded_remote(workers: usize) -> RemoteBackend {
        let mut streams = Vec::with_capacity(workers);
        for lane in 0..workers {
            let (client, server) = UnixStream::pair().expect("socketpair");
            std::thread::spawn(move || {
                let target = sim_target();
                let _ = serve(server, lane, &target);
            });
            streams.push(client);
        }
        RemoteBackend::from_streams(streams).expect("handshake")
    }

    #[test]
    fn remote_and_in_process_agree_bit_for_bit() {
        let target: Arc<dyn EvalTarget> = Arc::new(sim_target());
        let mut rng = StdRng::seed_from_u64(13);
        let items: Vec<WorkItem> = (0..5)
            .map(|j| WorkItem::new(j, j, j % 3, target.space().sample(&mut rng)))
            .collect();
        let mut local = InProcessBackend::new(3);
        let mut remote = threaded_remote(3);
        let mut a: Vec<WorkResult> = local
            .run_items(&target, 77, 2, items.clone())
            .into_iter()
            .map(|r| r.expect("ok"))
            .collect();
        let mut b: Vec<WorkResult> = remote
            .run_items(&target, 77, 2, items)
            .into_iter()
            .map(|r| r.expect("ok"))
            .collect();
        a.sort_by_key(|w| w.slot);
        b.sort_by_key(|w| w.slot);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.slot, y.slot);
            assert_eq!(x.lane, y.lane);
            assert_eq!(x.eval.build_skipped, y.eval.build_skipped);
            assert_eq!(x.eval.duration_s.to_bits(), y.eval.duration_s.to_bits());
            match (&x.eval.outcome, &y.eval.outcome) {
                (Ok(m), Ok(n)) => {
                    assert_eq!(m.metric.to_bits(), n.metric.to_bits());
                    assert_eq!(m.memory_mb.to_bits(), n.memory_mb.to_bits());
                }
                (Err(m), Err(n)) => {
                    assert_eq!(m.phase, n.phase);
                    assert_eq!(m.rule, n.rule);
                }
                _ => panic!("outcome kind differs across the socket"),
            }
            match (&x.image, &y.image) {
                (Some(m), Some(n)) => {
                    assert_eq!(m.fingerprint, n.fingerprint);
                    assert_eq!(m.image_mb.to_bits(), n.image_mb.to_bits());
                    assert_eq!(m.enabled_options, n.enabled_options);
                }
                (None, None) => {}
                _ => panic!("image presence differs across the socket"),
            }
        }
    }

    #[test]
    fn a_dead_worker_surfaces_as_lane_errors() {
        let target: Arc<dyn EvalTarget> = Arc::new(sim_target());
        let mut rng = StdRng::seed_from_u64(14);
        // Lane 1's "worker" hangs up immediately after the hello.
        let (alive_client, alive_server) = UnixStream::pair().expect("socketpair");
        std::thread::spawn(move || {
            let target = sim_target();
            let _ = serve(alive_server, 0, &target);
        });
        let (dead_client, dead_server) = UnixStream::pair().expect("socketpair");
        {
            let mut s = dead_server;
            write_frame(&mut s, &hello_json(1)).unwrap();
            // dropped: EOF after hello
        }
        let mut remote = RemoteBackend::from_streams(vec![alive_client, dead_client]).unwrap();
        let items: Vec<WorkItem> = (0..4)
            .map(|j| WorkItem::new(j, j, j % 2, target.space().sample(&mut rng)))
            .collect();
        let results = remote.run_items(&target, 5, 1, items);
        let ok: Vec<usize> = results
            .iter()
            .filter_map(|r| r.as_ref().ok().map(|w| w.slot))
            .collect();
        let failed: Vec<(usize, usize)> = results
            .iter()
            .filter_map(|r| r.as_ref().err().map(|e| (e.slot, e.lane)))
            .collect();
        assert_eq!(ok.len(), 2, "lane 0's items still complete");
        assert_eq!(failed, vec![(1, 1), (3, 1)], "lane 1's items fail");
    }

    #[test]
    fn result_frames_that_misname_their_slot_lane_or_cost_are_lane_errors() {
        // A fake worker answers slot 0 on lane 0 with a doctored frame;
        // the last row returns an image built for another config.
        // JSON has no NaN; `1e999` parses to infinity, the non-finite
        // value a frame can carry.
        let target: Arc<dyn EvalTarget> = Arc::new(sim_target());
        let config = target.space().default_config();
        let wrong_fp = target.image_fingerprint(&config) ^ 1;
        let wrong_image = format!("{{\"fp\":\"{wrong_fp}\",\"mb\":1.0,\"opts\":1}}");
        for (slot, lane, dur, metric, image) in [
            ("1", "0", "1.0", "1.0", "null"),
            ("0", "1", "1.0", "1.0", "null"),
            ("0", "0", "1e999", "1.0", "null"),
            ("0", "0", "-1.0", "1.0", "null"),
            ("0", "0", "1.0", "-1e999", "null"),
            ("0", "0", "1.0", "1.0", wrong_image.as_str()),
        ] {
            let (client, server) = UnixStream::pair().expect("socketpair");
            let body = format!(
                "{{\"op\":\"result\",\"slot\":{slot},\"lane\":{lane},\"skip\":false,\"dur\":{dur},\"ok\":true,\"metric\":{metric},\"mem\":1.0,\"phase\":null,\"rule\":null,\"image\":{image}}}"
            );
            let worker = std::thread::spawn(move || {
                let mut s = server;
                write_frame(&mut s, &hello_json(0)).unwrap();
                read_frame(&mut s).unwrap().expect("one request");
                s.write_all(&(body.len() as u32).to_be_bytes()).unwrap();
                s.write_all(body.as_bytes()).unwrap();
            });
            let mut remote = RemoteBackend::from_streams(vec![client]).unwrap();
            let item = WorkItem::new(0, 0, 0, config.clone());
            let results = remote.run_items(&target, 1, 1, vec![item]);
            worker.join().unwrap();
            match results.as_slice() {
                [Err(e)] => assert_eq!((e.slot, e.lane), (0, 0), "{}", e.message),
                _ => panic!(
                    "slot {slot} lane {lane} dur {dur} metric {metric} image {image}: {results:?}"
                ),
            }
        }
    }

    #[test]
    fn frames_round_trip_over_a_socketpair() {
        let (mut a, mut b) = UnixStream::pair().expect("socketpair");
        let value = JsonValue::Obj(vec![
            ("op".into(), JsonValue::Str("eval".into())),
            ("dur".into(), JsonValue::Num(0.1 + 0.2)),
            ("seed".into(), u64_json(u64::MAX)),
        ]);
        write_frame(&mut a, &value).unwrap();
        let back = read_frame(&mut b).unwrap().unwrap();
        assert_eq!(back, value);
        assert_eq!(
            back.get("dur").unwrap().as_f64().unwrap().to_bits(),
            (0.1f64 + 0.2).to_bits()
        );
        drop(a);
        assert!(read_frame(&mut b).unwrap().is_none(), "EOF reads as None");
    }

    #[test]
    fn eval_frames_have_these_exact_bytes() {
        // Workers and clients of other builds read exactly these bytes.
        // Every token kind, u64s past i64, an image, an escaped crash rule
        // and a float that prints without a fraction.
        let image = KernelImage {
            fingerprint: u64::MAX,
            image_mb: 0.1 + 0.2,
            enabled_options: 19,
        };
        let values = vec![
            Value::Bool(true),
            Value::Tristate(Tristate::Module),
            Value::Int(-42),
            Value::Choice(3),
        ];
        let mut item = WorkItem::new(2, 7, 1, Configuration::from_values(values));
        item.reuse = Some(image.clone());
        item.working_tree = Some(Configuration::from_values(vec![Value::Bool(false)]));
        let result = |outcome, image| WorkResult {
            slot: 2,
            lane: 1,
            eval: CandidateEval {
                outcome,
                build_skipped: true,
                duration_s: 12.5,
            },
            image,
        };
        let ok = result(
            Ok(BenchResult {
                metric: 8.1,
                memory_mb: 100.0,
            }),
            Some(image),
        );
        let rule = "a \"quoted\"\\rule\n".to_string();
        let crash = result(
            Err(CrashReport {
                phase: Phase::Boot,
                rule,
            }),
            None,
        );
        let mut frame = String::new();
        write_request(u64::MAX - 1, 3, &item, &mut frame);
        assert_eq!(
            frame,
            concat!(
                r#"{"op":"eval","seed":"18446744073709551614","reps":3,"slot":2,"index":7,"#,
                r#""lane":1,"config":["b1","tm","i-42","c3"],"#,
                r#""reuse":{"fp":"18446744073709551615","mb":0.30000000000000004,"opts":19},"#,
                r#""tree":["b0"]}"#
            )
        );
        frame.clear();
        write_result(&ok, &mut frame);
        write_result(&crash, &mut frame);
        assert_eq!(
            frame,
            concat!(
                r#"{"op":"result","slot":2,"lane":1,"skip":true,"dur":12.5,"ok":true,"#,
                r#""metric":8.1,"mem":100.0,"phase":null,"rule":null,"#,
                r#""image":{"fp":"18446744073709551615","mb":0.30000000000000004,"opts":19}}"#,
                r#"{"op":"result","slot":2,"lane":1,"skip":true,"dur":12.5,"ok":false,"#,
                r#""metric":null,"mem":null,"phase":"boot","rule":"a \"quoted\"\\rule\n","#,
                r#""image":null}"#
            )
        );
    }
}
