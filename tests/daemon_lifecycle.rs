//! End-to-end daemon lifecycle: a real `wfd` process serves concurrent
//! sessions over its Unix socket, and each daemon-run session is
//! *bit-identical* to the same job run standalone with `wfctl run` —
//! sessions share nothing but the target registry. Shutdown via SIGINT
//! is graceful: the socket is removed and every ledger hash-verifies.

#![cfg(unix)]

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
