//! `wfd`: the Wayfinder multi-tenant session daemon.
//!
//! Serves a Unix-socket API over a **state root** directory: submitted
//! jobs each get their own thread and session store under
//! `<root>/sessions/`, sharing nothing but the target registry, so N
//! concurrent sessions stay bit-identical to N sequential `wfctl run`s.
//!
//! ```sh
//! wfd --root runs/wfd          # serve until SIGINT or `wfctl stop --daemon`
//! ```
//!
//! Drive it with `wfctl submit / sessions / watch / stop` (or any client
//! speaking the length-prefixed JSON framing; see
//! `wf_platform::daemon`). SIGINT/SIGTERM shut down gracefully: every
//! running session parks at its next wave boundary, its hash-chained
//! ledger intact and resumable with `wfctl resume`.

use std::process::ExitCode;
use wayfinder::core::{serve_daemon, ServeError};

const USAGE: &str = "usage:\n  wfd --root DIR    serve the daemon socket at DIR/wfd.sock; one session\n                    store per submitted job under DIR/sessions/. SIGINT\n                    parks every session at its wave boundary and exits.\n  wfd --help        show this help";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--root" => match args.get(i + 1) {
                Some(dir) => {
                    root = Some(dir.clone());
                    i += 2;
                }
                None => return usage("--root needs a directory"),
            },
            "--help" | "-h" | "help" => {
                println!("wfd: the Wayfinder multi-tenant session daemon");
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }
    match serve_daemon(root, wayfinder::scenarios::registry) {
        Ok(()) => ExitCode::SUCCESS,
        Err(ServeError::NoRoot) => usage("wfd needs --root DIR (or WF_DAEMON)"),
        Err(e) => {
            eprintln!("wfd: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage(err: &str) -> ExitCode {
    eprintln!("wfd: {err}");
    eprintln!("{USAGE}");
    ExitCode::from(2)
}
