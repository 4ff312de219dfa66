//! `wfctl <subcommand> --help` prints the usage and exits 0 for every
//! subcommand, instead of reading `--help` as an unknown flag or as an
//! operand (a job file, a store directory, a session id).

use std::process::{Command, Output};

fn wfctl(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_wfctl"))
        .args(args)
        .output()
        .expect("wfctl runs")
}

#[test]
fn every_subcommand_answers_help_with_the_usage() {
    let top = wfctl(&["--help"]);
    assert!(top.status.success());
    for sub in [
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
    ] {
        for flag in ["--help", "-h"] {
            let out = wfctl(&[sub, flag]);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(out.status.success(), "wfctl {sub} {flag}: {stderr}");
            assert_eq!(out.stdout, top.stdout, "wfctl {sub} {flag}");
            assert!(stderr.is_empty(), "wfctl {sub} {flag}: {stderr}");
        }
    }
    // `lint` has a usage of its own, answered just as strictly.
    for flag in ["--help", "-h"] {
        let out = wfctl(&["lint", flag]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "wfctl lint {flag}: {stderr}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.starts_with("usage: wfctl lint [ROOT]"),
            "wfctl lint {flag}: {stdout}"
        );
        assert!(stderr.is_empty(), "wfctl lint {flag}: {stderr}");
    }
    // A bad lint flag is still a usage error (exit 2), reported on stderr.
    let bad = wfctl(&["lint", "--nosuch"]);
    assert_eq!(bad.status.code(), Some(2));
    assert!(bad.stdout.is_empty());
    assert!(String::from_utf8_lossy(&bad.stderr).contains("unknown flag"));
    // An unknown subcommand is still an error, whatever follows it.
    let unknown = wfctl(&["nosuch", "--help"]);
    assert!(!unknown.status.success());
    assert!(String::from_utf8_lossy(&unknown.stderr).contains("unknown subcommand"));
}
