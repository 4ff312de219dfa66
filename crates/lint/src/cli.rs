//! The command-line driver, shared by the standalone `wf-lint` binary
//! and `wfctl lint`.
//!
//! ```text
//! <program> [ROOT] [--format human|json] [--out PATH] [--list-rules]
//! ```
//!
//! Exits 0 when the tree is clean (or after `--help`, which prints the
//! usage to stdout), 1 on any unsuppressed finding, and 2 on usage/config
//! errors — so CI can gate on the exit code while archiving the `--out`
//! JSON artifact.

use std::path::PathBuf;

const USAGE: &str = "[ROOT] [--format human|json] [--out PATH] [--list-rules]";

struct Args {
    root: PathBuf,
    format: Format,
    out: Option<PathBuf>,
    list_rules: bool,
    help: bool,
}

#[derive(PartialEq)]
enum Format {
    Human,
    Json,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        format: Format::Human,
        out: None,
        list_rules: false,
        help: false,
    };
    let mut i = 0;
    let mut root_set = false;
    while i < argv.len() {
        match argv[i].as_str() {
            "--format" => {
                i += 1;
                match argv.get(i).map(String::as_str) {
                    Some("human") => args.format = Format::Human,
                    Some("json") => args.format = Format::Json,
                    other => return Err(format!("--format expects human|json, got {other:?}")),
                }
            }
            "--out" => {
                i += 1;
                let path = argv.get(i).ok_or("--out needs a path")?;
                args.out = Some(PathBuf::from(path));
            }
            "--list-rules" => args.list_rules = true,
            "--help" | "-h" => args.help = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag:?}")),
            operand if !root_set => {
                args.root = PathBuf::from(operand);
                root_set = true;
            }
            operand => return Err(format!("unexpected operand {operand:?}")),
        }
        i += 1;
    }
    Ok(args)
}

/// Runs the analyzer CLI; `program` prefixes diagnostics (`wf-lint` or
/// `wfctl lint`). Returns the process exit code: 0 clean or help, 1
/// findings, 2 usage/config error.
pub fn run(argv: &[String], program: &str) -> u8 {
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{program}: {e}\nusage: {program} {USAGE}");
            return 2;
        }
    };
    if args.help {
        println!("usage: {program} {USAGE}");
        return 0;
    }
    if args.list_rules {
        for r in crate::RULES {
            println!("{:<28} [{}] {}", r.name, r.family, r.summary);
        }
        return 0;
    }
    let cfg = match crate::load_config(&args.root) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{program}: bad config: {e}");
            return 2;
        }
    };
    let report = match crate::lint_workspace(&args.root, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{program}: scan failed: {e}");
            return 2;
        }
    };
    let rendered = match args.format {
        Format::Human => crate::render_human(&report),
        Format::Json => crate::render_json(&report),
    };
    if let Some(out) = &args.out {
        if let Some(parent) = out.parent().filter(|p| !p.as_os_str().is_empty()) {
            let _ = std::fs::create_dir_all(parent);
        }
        if let Err(e) = std::fs::write(out, &rendered) {
            eprintln!("{program}: cannot write {}: {e}", out.display());
            return 2;
        }
        // Keep the human summary on stdout even when JSON goes to a file.
        if args.format == Format::Json {
            print!("{}", crate::render_human(&report));
        }
    } else {
        print!("{rendered}");
        if args.format == Format::Json {
            println!();
        }
    }
    u8::from(!report.clean())
}
