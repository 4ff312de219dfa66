//! End-to-end daemon lifecycle: a real `wfd` process serves concurrent
//! sessions over its Unix socket, and each daemon-run session is
//! *bit-identical* to the same job run standalone with `wfctl run` —
//! sessions share nothing but the target registry. Shutdown via SIGINT
//! is graceful: the socket is removed and every ledger hash-verifies.

#![cfg(unix)]

use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn wfctl(args: &[&str]) -> (bool, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_wfctl"))
        .args(args)
        .output()
        .expect("wfctl runs");
    (
        output.status.success(),
        String::from_utf8_lossy(&output.stdout).into_owned(),
    )
}

fn job_yaml(name: &str, seed: u64) -> String {
    format!(
        "name: {name}\nos: linux-4.19\nalgorithm: random\nseed: {seed}\nworkers: 2\nruntime_params: 64\nbudget:\n  iterations: 8\n"
    )
}

fn wait_for(deadline: Instant, what: &str, mut done: impl FnMut() -> bool) {
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

struct Wfd {
    child: Child,
    socket: PathBuf,
}

impl Wfd {
    fn start(root: &Path) -> Wfd {
        let child = Command::new(env!("CARGO_BIN_EXE_wfd"))
            .args(["--root", root.to_str().unwrap()])
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("wfd spawns");
        let socket = root.join("wfd.sock");
        Wfd { child, socket }
    }
}

impl Drop for Wfd {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn concurrent_daemon_sessions_match_standalone_runs_bit_for_bit() {
    let base = std::env::temp_dir().join(format!("wf-daemon-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let root = base.join("root");
    let root_s = root.to_str().unwrap().to_string();

    let mut wfd = Wfd::start(&root);
    wait_for(
        Instant::now() + Duration::from_secs(30),
        "the daemon socket",
        || wfd.socket.exists(),
    );

    // Submit four jobs back to back so their sessions overlap in the
    // daemon; each must still come out identical to a solo run.
    let seeds = [11u64, 12, 13, 14];
    let mut jobs = Vec::new();
    let mut stores = Vec::new();
    for (i, &seed) in seeds.iter().enumerate() {
        let job = base.join(format!("job{i}.yaml"));
        std::fs::write(&job, job_yaml(&format!("tenant-{i}"), seed)).unwrap();
        let job = job.to_str().unwrap().to_string();
        let (ok, out) = wfctl(&["submit", &job, "--daemon", &root_s]);
        assert!(ok, "submit succeeds:\n{out}");
        assert!(
            out.contains(&format!("as session {}", i + 1)),
            "sessions get sequential ids:\n{out}"
        );
        let store = out
            .lines()
            .find_map(|l| l.strip_prefix("store: "))
            .unwrap_or_else(|| panic!("submit prints the store dir:\n{out}"))
            .to_string();
        jobs.push(job);
        stores.push(store);
    }

    // All four run to completion; `sessions` converges on four
    // finished rows with no failures.
    wait_for(
        Instant::now() + Duration::from_secs(120),
        "all sessions to finish",
        || {
            let (ok, out) = wfctl(&["sessions", "--daemon", &root_s]);
            assert!(ok, "sessions succeeds:\n{out}");
            assert!(!out.contains("failed"), "no session may fail:\n{out}");
            out.matches("finished").count() == seeds.len()
        },
    );

    // Watching a finished session drains an immediate end frame.
    let (ok, out) = wfctl(&["watch", "1", "--daemon", &root_s]);
    assert!(ok, "watch succeeds:\n{out}");
    assert!(
        out.contains("session 1 finished"),
        "watch reports the terminal status:\n{out}"
    );

    for (i, (job, store)) in jobs.iter().zip(&stores).enumerate() {
        // The daemon ledger is hash-chain clean...
        let (ok, out) = wfctl(&["verify", store]);
        assert!(ok, "daemon ledger {i} verifies:\n{out}");
        // ...and the session is indistinguishable from a solo run.
        let reference = base.join(format!("ref{i}"));
        let reference = reference.to_str().unwrap();
        let (ok, _) = wfctl(&["run", job, "--out", reference]);
        assert!(ok, "reference run {i}");
        let (ok, daemon_report) = wfctl(&["report", store]);
        assert!(ok);
        let (ok, solo_report) = wfctl(&["report", reference]);
        assert!(ok);
        assert_eq!(
            daemon_report, solo_report,
            "daemon session {i} must be bit-identical to its solo run"
        );
        // The ledgers themselves match raw: no host data in either.
        let daemon_events = std::fs::read(Path::new(store).join("events.jsonl")).unwrap();
        let solo_events = std::fs::read(Path::new(reference).join("events.jsonl")).unwrap();
        assert!(
            daemon_events == solo_events,
            "daemon session {i} must write the byte-identical events.jsonl of its solo run"
        );
    }

    // SIGINT shuts the daemon down cleanly and removes its socket.
    let sigint = Command::new("kill")
        .args(["-INT", &wfd.child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(sigint.success());
    let status = wfd.child.wait().expect("wfd exits");
    assert!(status.success(), "wfd exits cleanly on SIGINT: {status}");
    assert!(!wfd.socket.exists(), "shutdown removes the socket");
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn stop_parks_a_session_that_resume_can_finish() {
    let base = std::env::temp_dir().join(format!("wf-daemon-stop-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let root = base.join("root");
    let root_s = root.to_str().unwrap().to_string();

    let wfd = Wfd::start(&root);
    wait_for(
        Instant::now() + Duration::from_secs(30),
        "the daemon socket",
        || wfd.socket.exists(),
    );

    // A budget the session cannot finish before we stop it.
    let job = base.join("job.yaml");
    std::fs::write(
        &job,
        "name: parked\nos: linux-4.19\nalgorithm: random\nseed: 7\nworkers: 2\nruntime_params: 64\nbudget:\n  iterations: 200000\n",
    )
    .unwrap();
    let (ok, out) = wfctl(&["submit", job.to_str().unwrap(), "--daemon", &root_s]);
    assert!(ok, "submit succeeds:\n{out}");
    let store = out
        .lines()
        .find_map(|l| l.strip_prefix("store: "))
        .expect("submit prints the store dir")
        .to_string();

    // Let it make visible progress, then park it.
    wait_for(
        Instant::now() + Duration::from_secs(60),
        "visible progress",
        || {
            std::fs::read_to_string(Path::new(&store).join("events.jsonl"))
                .map(|t| t.matches("\"event\":\"candidate\"").count() >= 4)
                .unwrap_or(false)
        },
    );
    let (ok, _) = wfctl(&["stop", "1", "--daemon", &root_s]);
    assert!(ok, "stop succeeds");
    wait_for(
        Instant::now() + Duration::from_secs(60),
        "the session to park",
        || {
            let (ok, out) = wfctl(&["sessions", "--daemon", &root_s]);
            assert!(ok);
            out.contains("stopped")
        },
    );

    // The parked store is chain-clean and resumable offline.
    let (ok, _) = wfctl(&["verify", &store]);
    assert!(ok, "parked ledger verifies");
    let parked = std::fs::read_to_string(Path::new(&store).join("events.jsonl"))
        .unwrap()
        .matches("\"event\":\"candidate\"")
        .count();
    let budget = (parked + 4).to_string();
    let (ok, out) = wfctl(&["resume", &store, "--iterations", &budget]);
    assert!(ok, "a parked daemon store resumes offline:\n{out}");
    let (ok, _) = wfctl(&["verify", &store]);
    assert!(ok, "resumed ledger verifies");
    drop(wfd);
    std::fs::remove_dir_all(&base).ok();
}

/// Sends `{"op":"ping"}` on a fresh connection and returns the reply
/// frame's body. The read times out well inside the daemon's 10 s
/// request timeout, so a reply proves no held-open client stalled the
/// accept loop.
fn ping(socket: &Path) -> String {
    use std::io::{Read, Write};
    let mut stream = UnixStream::connect(socket).expect("ping connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream.write_all(&frame(br#"{"op":"ping"}"#)).unwrap();
    let mut len = [0u8; 4];
    stream
        .read_exact(&mut len)
        .expect("ping gets a reply frame");
    let mut reply = vec![0u8; u32::from_be_bytes(len) as usize];
    stream.read_exact(&mut reply).expect("ping reply body");
    String::from_utf8(reply).expect("ping reply is UTF-8")
}

/// Writes `bytes` on a fresh connection and closes it without reading.
/// A daemon that has already dropped the connection may reset the
/// write; only the daemon's survival matters here.
fn send_raw(socket: &Path, bytes: &[u8]) {
    drop(open_raw(socket, bytes));
}

/// Writes `bytes` on a fresh connection and keeps it open.
fn open_raw(socket: &Path, bytes: &[u8]) -> UnixStream {
    use std::io::Write;
    let mut stream = UnixStream::connect(socket).expect("hostile client connects");
    let _ = stream.write_all(bytes);
    stream
}

/// One length-prefixed frame around `body`.
fn frame(body: &[u8]) -> Vec<u8> {
    let mut out = (body.len() as u32).to_be_bytes().to_vec();
    out.extend_from_slice(body);
    out
}

#[test]
fn hostile_clients_neither_stop_the_daemon_nor_touch_a_tenant_ledger() {
    let base = std::env::temp_dir().join(format!("wf-daemon-hostile-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    std::fs::create_dir_all(&base).unwrap();
    let root = base.join("root");
    let root_s = root.to_str().unwrap().to_string();

    let mut wfd = Wfd::start(&root);
    wait_for(
        Instant::now() + Duration::from_secs(30),
        "the daemon socket",
        || wfd.socket.exists(),
    );

    let mut deep = br#"{"op":"#.to_vec();
    deep.extend(std::iter::repeat_n(b'[', 200));
    deep.extend(std::iter::repeat_n(b']', 200));
    deep.push(b'}');
    let mut truncated = 100u32.to_be_bytes().to_vec();
    truncated.extend_from_slice(br#"{"op":"pi"#);
    let hostile: [Vec<u8>; 4] = [
        (16 * 1024 * 1024 + 1u32).to_be_bytes().to_vec(),
        truncated.clone(),
        frame(&[0xff, 0xfe, 0x80, 0x81]),
        frame(&deep),
    ];

    // A client stuck mid-frame and a silent one stay connected from
    // before the first submit until both tenants finish, so hostile
    // input is in flight for the whole of both runs.
    let held = [
        open_raw(&wfd.socket, &truncated),
        open_raw(&wfd.socket, &[]),
    ];

    // Two tenants run at once, each long enough for hostile rounds to
    // land while both run.
    let seeds = [21u64, 22];
    let mut tenants = Vec::new();
    for (i, &seed) in seeds.iter().enumerate() {
        let job = base.join(format!("job{i}.yaml"));
        let text =
            job_yaml(&format!("tenant-{i}"), seed).replace("iterations: 8", "iterations: 2000");
        std::fs::write(&job, text).unwrap();
        let job = job.to_str().unwrap().to_string();
        let (ok, out) = wfctl(&["submit", &job, "--daemon", &root_s]);
        assert!(ok, "submit succeeds:\n{out}");
        let store = out
            .lines()
            .find_map(|l| l.strip_prefix("store: "))
            .unwrap_or_else(|| panic!("submit prints the store dir:\n{out}"))
            .to_string();
        tenants.push((job, store));
    }

    // Repeat the hostile round until both tenants are seen finished.
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        for bytes in &hostile {
            send_raw(&wfd.socket, bytes);
        }
        let (ok, out) = wfctl(&["sessions", "--daemon", &root_s]);
        assert!(ok, "sessions succeeds:\n{out}");
        assert!(!out.contains("failed"), "no tenant may fail:\n{out}");
        if out.matches("finished").count() == seeds.len() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for the tenants"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    drop(held);

    // A silent client, connected and sending nothing: `ping` must still
    // answer within its 5 s read timeout, well inside the daemon's 10 s
    // request timeout, so no client can stall the accept loop.
    let silent = UnixStream::connect(&wfd.socket).expect("silent client connects");
    let reply = ping(&wfd.socket);
    assert!(reply.contains(r#""ok":true"#), "ping answers ok: {reply}");
    assert!(
        wfd.child.try_wait().unwrap().is_none(),
        "the daemon is still running"
    );
    drop(silent);

    for (i, (job, store)) in tenants.iter().enumerate() {
        let (ok, out) = wfctl(&["verify", store]);
        assert!(ok, "tenant {i}'s ledger verifies:\n{out}");
        let reference = base.join(format!("ref{i}"));
        let reference = reference.to_str().unwrap();
        let (ok, _) = wfctl(&["run", job, "--out", reference]);
        assert!(ok, "reference run {i}");
        let tenant_events = std::fs::read(Path::new(store).join("events.jsonl")).unwrap();
        let solo_events = std::fs::read(Path::new(reference).join("events.jsonl")).unwrap();
        assert!(
            tenant_events == solo_events,
            "tenant {i} must write the byte-identical events.jsonl of its solo run"
        );
    }
    drop(wfd);
    std::fs::remove_dir_all(&base).ok();
}
