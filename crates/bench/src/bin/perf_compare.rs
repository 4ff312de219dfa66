//! `perf_compare`: the CI perf-regression gate.
//!
//! ```sh
//! cargo run -p wf-bench --bin perf_compare -- BENCH_search.json bench.json \
//!     [--tolerance 0.35] [--floor-ns 20000] [--min-speedup 2.0]
//! ```
//!
//! Compares a fresh `wfctl bench` JSON against a committed baseline —
//! the main suite's `BENCH_search.json` or a per-target document such as
//! `BENCH_unikraft.json` (produced by `wfctl bench --target <keyword>`).
//! Both files carry a suite tag; the gate refuses to diff documents from
//! different suites, and checks the baseline for staleness against its
//! own suite's declared op set. Every op is normalized by its own file's
//! `calibrate/spin` time (so the check is machine-relative), ops slower
//! than `--floor-ns` in the baseline gate at `--tolerance` fractional
//! regression, sub-floor ops are informational only, the bayes
//! incremental-vs-full observe+propose speedup must stay above
//! `--min-speedup`, and the batched pool-EI scorer must beat the
//! per-candidate loop by `perf::EI_MIN_SPEEDUP`. Exit code 1 on any
//! regression, 2 on usage errors.

use std::process::ExitCode;
use wf_bench::perf;

struct Args {
    baseline: String,
    new: String,
    tolerance: f64,
    floor_ns: f64,
    min_speedup: f64,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        baseline: String::new(),
        new: String::new(),
        tolerance: 0.35,
        floor_ns: 20_000.0,
        min_speedup: 2.0,
    };
    let mut positional = Vec::new();
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--tolerance" | "--floor-ns" | "--min-speedup" => {
                let flag = argv[i].clone();
                let value = argv
                    .get(i + 1)
                    .ok_or_else(|| format!("{flag} needs a value"))?
                    .parse::<f64>()
                    .map_err(|_| format!("{flag} needs a number"))?;
                match flag.as_str() {
                    "--tolerance" => args.tolerance = value,
                    "--floor-ns" => args.floor_ns = value,
                    _ => args.min_speedup = value,
                }
                i += 2;
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag:?}")),
            operand => {
                positional.push(operand.to_string());
                i += 1;
            }
        }
    }
    match positional.len() {
        2 => {
            args.baseline = positional.remove(0);
            args.new = positional.remove(0);
            Ok(args)
        }
        _ => Err("expected exactly two files: <baseline.json> <new.json>".into()),
    }
}

fn load(path: &str) -> Result<perf::BenchDoc, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    perf::parse_json_doc(&text).map_err(|e| format!("{path}: {e}"))
}

/// The `wfctl bench` invocation that regenerates a baseline of `suite`.
fn refresh_hint(suite: &str, path: &str) -> String {
    match suite.strip_prefix("wfctl-bench-target/") {
        Some(keyword) => format!("wfctl bench --target {keyword} --out {path}"),
        None => format!("wfctl bench --out {path}"),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perf_compare: {e}");
            eprintln!(
                "usage: perf_compare <baseline.json> <new.json> [--tolerance F] \
                 [--floor-ns NS] [--min-speedup X]"
            );
            return ExitCode::from(2);
        }
    };
    let (baseline, new) = match (load(&args.baseline), load(&args.new)) {
        (Ok(b), Ok(n)) => (b, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perf_compare: {e}");
            return ExitCode::from(2);
        }
    };
    // Different suites measure different op sets; diffing across them
    // would report every op as missing and gate on nothing real.
    if baseline.suite != new.suite {
        eprintln!(
            "perf_compare: suite mismatch — {} is {:?} but {} is {:?}",
            args.baseline, baseline.suite, args.new, new.suite
        );
        return ExitCode::from(2);
    }
    let declared = match perf::declared_ops_for(&baseline.suite) {
        Ok(declared) => declared,
        Err(e) => {
            eprintln!("perf_compare: {}: {e}", args.baseline);
            return ExitCode::from(2);
        }
    };
    // A baseline that predates the current suite would leave the new ops
    // ungated forever (the comparison iterates baseline ops): refuse it.
    let stale = perf::stale_ops_in(&declared, &baseline.ops);
    if !stale.is_empty() {
        eprintln!(
            "perf_compare: baseline {} is stale — it is missing {} declared op(s) of suite {:?}:",
            args.baseline,
            stale.len(),
            baseline.suite
        );
        for (op, n) in &stale {
            eprintln!("  {op} (n={n})");
        }
        eprintln!(
            "refresh it with `{}` and commit the diff",
            refresh_hint(&baseline.suite, &args.baseline)
        );
        return ExitCode::FAILURE;
    }
    let comparison = match perf::compare(
        &baseline.ops,
        &new.ops,
        args.tolerance,
        args.floor_ns,
        args.min_speedup,
        &args.baseline,
    ) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perf_compare: {e}");
            return ExitCode::from(2);
        }
    };
    for line in &comparison.lines {
        println!("{line}");
    }
    if let Some(speedup) = comparison.bayes_speedup {
        println!(
            "bayes observe+propose @800: incremental is x{speedup:.1} faster than full refit \
             (required: x{:.1})",
            args.min_speedup
        );
    }
    if let Some(speedup) = comparison.ei_speedup {
        println!(
            "bayes pool EI @800: batched scorer is x{speedup:.1} vs the per-candidate loop \
             (required: x{:.1})",
            perf::EI_MIN_SPEEDUP
        );
    }
    if comparison.regressions.is_empty() {
        println!(
            "perf gate passed: no op regressed beyond x{:.2} (calibration-normalized)",
            1.0 + args.tolerance
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("perf gate FAILED:");
        for r in &comparison.regressions {
            eprintln!("  {r}");
        }
        eprintln!(
            "(refresh the baseline with `{}` if this change is intentional)",
            refresh_hint(&baseline.suite, &args.baseline)
        );
        ExitCode::FAILURE
    }
}
