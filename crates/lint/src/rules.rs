//! The rule engine: ~8 determinism & robustness rules over token streams.
//!
//! Two families, mirroring docs/DETERMINISM.md:
//!
//! **Determinism** — things that make a session depend on the host:
//! - `wall-clock-in-det-path`: `Instant::now` / `SystemTime::now`
//!   outside the documented host-time carve-out,
//! - `unordered-map-iteration`: `HashMap`/`HashSet` iteration whose
//!   order escapes without a sort,
//! - `unseeded-rng`: `thread_rng` / `from_entropy` / `OsRng` instead of
//!   seeds derived via `derive_seed`,
//! - `thread-id-dependence`: `thread::current().id()` / `ThreadId`,
//! - `host-env-read`: `std::env::var*` outside config-load paths.
//!
//! **Robustness** — things that kill or silently degrade a daemon host:
//! - `lock-unwrap`: `.lock().unwrap()` instead of `lock_recover`,
//! - `process-exit-in-lib`: `process::exit`/`abort` in library code,
//! - `swallowed-io-error`: `let _ =` discarding an `io::Result` write.
//!
//! All rules are token-sequence heuristics — deliberately: they run with
//! zero dependencies in milliseconds, and the escape hatch for a true
//! positive the heuristic cannot see past is an inline
//! `// wf-lint: allow(<rule>, reason = "...")`, which documents the
//! carve-out where it lives. `#[cfg(test)]` modules are excluded (tests
//! may use the host freely); `#[cfg(not(test))]` is not.

use crate::config::Config;
use crate::lexer::{Lexed, Tok, TokKind};
use std::collections::BTreeSet;

/// The meta-rule reported for malformed/reasonless allows. Always on,
/// never suppressible.
pub const BAD_SUPPRESSION: &str = "bad-suppression";

/// One rule's registry entry.
#[derive(Clone, Copy, Debug)]
pub struct RuleInfo {
    pub name: &'static str,
    pub family: &'static str,
    pub summary: &'static str,
}

/// Every rule the engine knows, in stable report order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "wall-clock-in-det-path",
        family: "determinism",
        summary: "Instant::now/SystemTime::now outside the host-time carve-out",
    },
    RuleInfo {
        name: "unordered-map-iteration",
        family: "determinism",
        summary: "HashMap/HashSet iteration order escapes without a sort",
    },
    RuleInfo {
        name: "unseeded-rng",
        family: "determinism",
        summary: "RNG seeded from the host (thread_rng/from_entropy/OsRng)",
    },
    RuleInfo {
        name: "thread-id-dependence",
        family: "determinism",
        summary: "behavior keyed on thread::current().id()/ThreadId",
    },
    RuleInfo {
        name: "host-env-read",
        family: "determinism",
        summary: "std::env::var* read outside config-load paths",
    },
    RuleInfo {
        name: "lock-unwrap",
        family: "robustness",
        summary: ".lock().unwrap()/.expect() instead of lock_recover",
    },
    RuleInfo {
        name: "process-exit-in-lib",
        family: "robustness",
        summary: "process::exit/abort in library code",
    },
    RuleInfo {
        name: "swallowed-io-error",
        family: "robustness",
        summary: "let _ = discarding an io::Result write/flush",
    },
    RuleInfo {
        name: BAD_SUPPRESSION,
        family: "meta",
        summary: "wf-lint: allow comment without a rule/reason",
    },
];

/// True if `name` is a registered rule.
pub fn is_known(name: &str) -> bool {
    RULES.iter().any(|r| r.name == name)
}

/// One finding at a file/line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    pub file: String,
    pub line: u32,
    pub rule: String,
    pub message: String,
}

/// Runs every enabled rule over a lexed file. `path` is the
/// root-relative path (used both for reporting and for the lib/bin
/// distinction `process-exit-in-lib` needs).
pub fn scan(path: &str, lexed: &Lexed, cfg: &Config) -> Vec<Finding> {
    let toks = &lexed.tokens;
    let excluded = cfg_test_spans(toks);
    let mut out = Vec::new();
    let mut emit = |line: u32, rule: &str, message: String| {
        if cfg.enabled(rule) && !excluded.iter().any(|&(a, b)| (a..=b).contains(&line)) {
            out.push(Finding {
                file: path.to_string(),
                line,
                rule: rule.to_string(),
                message,
            });
        }
    };

    wall_clock(toks, &mut emit);
    unordered_map_iteration(toks, &mut emit);
    unseeded_rng(toks, &mut emit);
    thread_id(toks, &mut emit);
    host_env_read(toks, &mut emit);
    lock_unwrap(toks, &mut emit);
    if is_lib_code(path) {
        process_exit(toks, &mut emit);
    }
    swallowed_io_error(toks, cfg, &mut emit);
    out
}

/// Library code = anything under a `src/` that is not a binary root
/// (`src/bin/…`, `main.rs`). Binaries own their process and may exit.
fn is_lib_code(path: &str) -> bool {
    let unix = path.replace('\\', "/");
    !unix.contains("/bin/") && !unix.ends_with("main.rs")
}

/// Line spans covered by `#[cfg(test)]`-gated items (modules, fns,
/// impls). Conservative: `cfg(not(test))` and friends are *not*
/// excluded, and an attribute we fail to pair simply excludes nothing.
fn cfg_test_spans(toks: &[Tok]) -> Vec<(u32, u32)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i + 4 < toks.len() {
        if toks[i].is_punct('#')
            && toks[i + 1].is_punct('[')
            && toks[i + 2].is_ident("cfg")
            && toks[i + 3].is_punct('(')
        {
            // Scan the cfg(...) argument for a `test` not negated by `not`.
            let mut depth = 1usize;
            let mut j = i + 4;
            let (mut saw_test, mut saw_not) = (false, false);
            while j < toks.len() && depth > 0 {
                if toks[j].is_punct('(') {
                    depth += 1;
                } else if toks[j].is_punct(')') {
                    depth -= 1;
                } else if toks[j].is_ident("test") {
                    saw_test = true;
                } else if toks[j].is_ident("not") {
                    saw_not = true;
                }
                j += 1;
            }
            if saw_test && !saw_not {
                if let Some(span) = item_span(toks, j) {
                    spans.push(span);
                    i = j;
                    continue;
                }
            }
            i = j;
            continue;
        }
        i += 1;
    }
    spans
}

/// The line span of the item following an attribute: skips further
/// attributes, then pairs the first `{` with its `}` (or, for brace-less
/// items like `#[cfg(test)] use …;`, ends at the `;`).
fn item_span(toks: &[Tok], mut i: usize) -> Option<(u32, u32)> {
    // Expect `]` closing the attribute we came from.
    if toks.get(i).is_some_and(|t| t.is_punct(']')) {
        i += 1;
    }
    let start_line = toks.get(i)?.line;
    // Skip stacked attributes.
    while toks.get(i).is_some_and(|t| t.is_punct('#'))
        && toks.get(i + 1).is_some_and(|t| t.is_punct('['))
    {
        let mut depth = 0usize;
        i += 1;
        loop {
            let t = toks.get(i)?;
            if t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(']') {
                depth -= 1;
                if depth == 0 {
                    i += 1;
                    break;
                }
            }
            i += 1;
        }
    }
    // Find the item's opening brace or terminating semicolon.
    loop {
        let t = toks.get(i)?;
        if t.is_punct(';') {
            return Some((start_line, t.line));
        }
        if t.is_punct('{') {
            break;
        }
        i += 1;
    }
    let mut depth = 0usize;
    loop {
        let t = toks.get(i)?;
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some((start_line, t.line));
            }
        }
        i += 1;
    }
}

/// `Instant::now` / `SystemTime::now`.
fn wall_clock(toks: &[Tok], emit: &mut impl FnMut(u32, &str, String)) {
    for i in 0..toks.len().saturating_sub(3) {
        if (toks[i].is_ident("Instant") || toks[i].is_ident("SystemTime"))
            && toks[i + 1].is_punct(':')
            && toks[i + 2].is_punct(':')
            && toks[i + 3].is_ident("now")
        {
            emit(
                toks[i].line,
                "wall-clock-in-det-path",
                format!(
                    "host wall-clock read (`{}::now`) in a deterministic path; use the \
                     virtual clocks, or annotate the documented host-time/host-I/O \
                     carve-out",
                    toks[i].text
                ),
            );
        }
    }
}

/// `thread_rng` / `from_entropy` / `OsRng`.
fn unseeded_rng(toks: &[Tok], emit: &mut impl FnMut(u32, &str, String)) {
    for t in toks {
        if t.is_ident("thread_rng") || t.is_ident("from_entropy") || t.is_ident("OsRng") {
            emit(
                t.line,
                "unseeded-rng",
                format!(
                    "`{}` draws entropy from the host; derive per-candidate seeds via \
                     `derive_seed` from the session seed",
                    t.text
                ),
            );
        }
    }
}

/// `thread::current().id()` or any `ThreadId` mention.
fn thread_id(toks: &[Tok], emit: &mut impl FnMut(u32, &str, String)) {
    for (i, t) in toks.iter().enumerate() {
        if t.is_ident("ThreadId") {
            emit(
                t.line,
                "thread-id-dependence",
                "`ThreadId` is host-scheduling-dependent; key worker behavior on the \
                 deterministic lane index instead"
                    .to_string(),
            );
        }
        if t.is_ident("current")
            && i + 4 < toks.len()
            && toks[i + 1].is_punct('(')
            && toks[i + 2].is_punct(')')
            && toks[i + 3].is_punct('.')
            && toks[i + 4].is_ident("id")
            && i >= 3
            && toks[i - 1].is_punct(':')
            && toks[i - 2].is_punct(':')
            && toks[i - 3].is_ident("thread")
        {
            emit(
                t.line,
                "thread-id-dependence",
                "`thread::current().id()` is host-scheduling-dependent; use the lane \
                 index carried by the dispatch"
                    .to_string(),
            );
        }
    }
}

/// `env::var` / `env::var_os` / `env::vars` / `env::vars_os`.
fn host_env_read(toks: &[Tok], emit: &mut impl FnMut(u32, &str, String)) {
    for i in 0..toks.len().saturating_sub(3) {
        if toks[i].is_ident("env")
            && toks[i + 1].is_punct(':')
            && toks[i + 2].is_punct(':')
            && (toks[i + 3].is_ident("var")
                || toks[i + 3].is_ident("var_os")
                || toks[i + 3].is_ident("vars")
                || toks[i + 3].is_ident("vars_os"))
        {
            emit(
                toks[i].line,
                "host-env-read",
                format!(
                    "`env::{}` reads host state; resolve it once at config-load time \
                     (jobfile/builder) or annotate why this site is config-load",
                    toks[i + 3].text
                ),
            );
        }
    }
}

/// `.lock().unwrap()` / `.lock().expect(…)`.
fn lock_unwrap(toks: &[Tok], emit: &mut impl FnMut(u32, &str, String)) {
    for i in 0..toks.len().saturating_sub(5) {
        if toks[i].is_punct('.')
            && toks[i + 1].is_ident("lock")
            && toks[i + 2].is_punct('(')
            && toks[i + 3].is_punct(')')
            && toks[i + 4].is_punct('.')
            && (toks[i + 5].is_ident("unwrap") || toks[i + 5].is_ident("expect"))
        {
            emit(
                toks[i + 1].line,
                "lock-unwrap",
                "a poisoned mutex panics the holder and cascades; use \
                 `wf_platform::lock_recover` (poison-recovering) instead"
                    .to_string(),
            );
        }
    }
}

/// `process::exit` / `process::abort` in library code.
fn process_exit(toks: &[Tok], emit: &mut impl FnMut(u32, &str, String)) {
    for i in 0..toks.len().saturating_sub(3) {
        if toks[i].is_ident("process")
            && toks[i + 1].is_punct(':')
            && toks[i + 2].is_punct(':')
            && (toks[i + 3].is_ident("exit") || toks[i + 3].is_ident("abort"))
        {
            emit(
                toks[i].line,
                "process-exit-in-lib",
                format!(
                    "`process::{}` in library code tears down every tenant of a daemon \
                     host; return an error and let the binary decide",
                    toks[i + 3].text
                ),
            );
        }
    }
}

/// Method names whose discarded `io::Result` the swallowed-io rule
/// reports. `writeln!`/`write!` to a `String` (`fmt::Write`) are macro
/// invocations and never match a method-call pattern, so the classic
/// in-memory emitters stay clean.
const IO_METHODS: &[&str] = &[
    "write",
    "write_all",
    "write_fmt",
    "flush",
    "sync_all",
    "sync_data",
    "set_len",
];

/// `let _ = <expr calling an io write>` — the error vanished.
fn swallowed_io_error(toks: &[Tok], cfg: &Config, emit: &mut impl FnMut(u32, &str, String)) {
    let mut i = 0usize;
    while i + 2 < toks.len() {
        if toks[i].is_ident("let") && toks[i + 1].is_ident("_") && toks[i + 2].is_punct('=') {
            let end = statement_end(toks, i + 3, 1);
            for j in i + 3..end {
                let method = toks[j].kind == TokKind::Ident
                    && IO_METHODS.contains(&toks[j].text.as_str())
                    && j >= 1
                    && toks[j - 1].is_punct('.');
                let free_fn = toks[j].kind == TokKind::Ident
                    && cfg.io_functions.iter().any(|f| toks[j].is_ident(f));
                let called = toks.get(j + 1).is_some_and(|t| t.is_punct('('));
                if (method || free_fn) && called {
                    emit(
                        toks[i].line,
                        "swallowed-io-error",
                        format!(
                            "`let _ =` discards the `io::Result` of `{}`; handle or \
                             propagate it, or annotate why best-effort is correct here",
                            toks[j].text
                        ),
                    );
                    break;
                }
            }
            i = end;
            continue;
        }
        i += 1;
    }
}

/// Index one past the token ending the `n`-th statement from `start`
/// (semicolons at bracket depth 0; a `{` at depth 0 also terminates —
/// expression-bodied match arms etc. stop the window early rather than
/// spanning blocks).
fn statement_end(toks: &[Tok], start: usize, n: usize) -> usize {
    let mut depth = 0i32;
    let mut remaining = n;
    let limit = (start + 300).min(toks.len());
    for (j, t) in toks.iter().enumerate().take(limit).skip(start) {
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if t.is_punct('{') && depth == 0 {
            return j;
        } else if t.is_punct(';') && depth <= 0 {
            remaining -= 1;
            if remaining == 0 {
                return j + 1;
            }
        }
    }
    limit
}

/// Order-insensitive sinks: if one of these appears in the statement (or
/// the one right after, for the collect-then-sort idiom) the iteration's
/// order does not escape.
const ORDER_SINKS: &[&str] = &[
    "sort",
    "sort_unstable",
    "sort_by",
    "sort_by_key",
    "sort_by_cached_key",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "count",
    "len",
    "sum",
    "product",
    "min",
    "max",
    "min_by",
    "min_by_key",
    "max_by",
    "max_by_key",
    "all",
    "any",
    "contains",
    "contains_key",
    "BTreeMap",
    "BTreeSet",
    "BinaryHeap",
];

/// HashMap/HashSet iteration whose order escapes.
///
/// Pass A collects names bound to hash containers in this file (let
/// bindings, struct fields, fn params — anything shaped `name: HashMap<`
/// or `let name = HashMap::new()`); pass B flags `.iter()`-family calls
/// and `for … in &name` loops on those names unless an order-insensitive
/// sink appears within the statement window.
fn unordered_map_iteration(toks: &[Tok], emit: &mut impl FnMut(u32, &str, String)) {
    let mut map_names: BTreeSet<&str> = BTreeSet::new();
    // `name : [&] [mut] HashMap/HashSet` (fields, params, annotated lets).
    for i in 0..toks.len().saturating_sub(2) {
        if toks[i].kind != TokKind::Ident || !toks[i + 1].is_punct(':') {
            continue;
        }
        let mut j = i + 2;
        if toks.get(j).is_some_and(|t| t.is_punct('&')) {
            j += 1;
        }
        if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
            j += 1;
        }
        if toks
            .get(j)
            .is_some_and(|t| t.is_ident("HashMap") || t.is_ident("HashSet"))
        {
            map_names.insert(toks[i].text.as_str());
        }
    }
    // `let [mut] name = … HashMap::new()/with_capacity/default/from(…)`.
    for i in 0..toks.len().saturating_sub(3) {
        if !toks[i].is_ident("let") {
            continue;
        }
        let mut j = i + 1;
        if toks[j].is_ident("mut") {
            j += 1;
        }
        if toks[j].kind != TokKind::Ident {
            continue;
        }
        let name = toks[j].text.as_str();
        if !toks.get(j + 1).is_some_and(|t| t.is_punct('=')) {
            continue;
        }
        let end = statement_end(toks, j + 2, 1);
        for k in j + 2..end.saturating_sub(3) {
            if (toks[k].is_ident("HashMap") || toks[k].is_ident("HashSet"))
                && toks[k + 1].is_punct(':')
                && toks[k + 2].is_punct(':')
            {
                map_names.insert(name);
                break;
            }
        }
    }
    if map_names.is_empty() {
        return;
    }

    const ITER_METHODS: &[&str] = &[
        "iter",
        "iter_mut",
        "keys",
        "values",
        "values_mut",
        "into_iter",
        "drain",
        "into_keys",
        "into_values",
    ];
    // Method-call form: `name.iter()` / `self.name.iter()`.
    for i in 0..toks.len().saturating_sub(3) {
        let name_ok = toks[i].kind == TokKind::Ident && map_names.contains(toks[i].text.as_str());
        if !(name_ok
            && toks[i + 1].is_punct('.')
            && toks[i + 2].kind == TokKind::Ident
            && ITER_METHODS.contains(&toks[i + 2].text.as_str())
            && toks.get(i + 3).is_some_and(|t| t.is_punct('(')))
        {
            continue;
        }
        // Window: this statement plus the next (collect-then-sort).
        let end = statement_end(toks, i, 2);
        let sink = (i..end).any(|j| {
            toks[j].kind == TokKind::Ident && ORDER_SINKS.contains(&toks[j].text.as_str())
        });
        if !sink {
            emit(
                toks[i].line,
                "unordered-map-iteration",
                format!(
                    "iteration order of `{}.{}()` is unspecified and escapes this \
                     statement; sort before exposing (see `NamedConfig::iter`) or \
                     collect into a BTree container",
                    toks[i].text,
                    toks[i + 2].text
                ),
            );
        }
    }
    // For-loop form: `for … in &name { … }` / `in &self.name { … }`.
    for i in 0..toks.len().saturating_sub(2) {
        if !toks[i].is_ident("in") {
            continue;
        }
        let mut j = i + 1;
        if toks[j].is_punct('&') {
            j += 1;
        }
        if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
            j += 1;
        }
        if toks.get(j).is_some_and(|t| t.is_ident("self"))
            && toks.get(j + 1).is_some_and(|t| t.is_punct('.'))
        {
            j += 2;
        }
        let Some(name_tok) = toks.get(j) else {
            continue;
        };
        if name_tok.kind != TokKind::Ident || !map_names.contains(name_tok.text.as_str()) {
            continue;
        }
        if !toks.get(j + 1).is_some_and(|t| t.is_punct('{')) {
            continue;
        }
        emit(
            toks[i].line,
            "unordered-map-iteration",
            format!(
                "`for … in &{}` visits a hash container in unspecified order; iterate \
                 sorted keys, or annotate why the body is order-insensitive",
                name_tok.text
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn scan_src(src: &str) -> Vec<Finding> {
        scan("crates/x/src/lib.rs", &lex(src), &Config::default())
    }

    fn rules_of(findings: &[Finding]) -> Vec<&str> {
        findings.iter().map(|f| f.rule.as_str()).collect()
    }

    #[test]
    fn wall_clock_fires_and_strings_do_not() {
        let f = scan_src("fn f() { let t = Instant::now(); }");
        assert_eq!(rules_of(&f), vec!["wall-clock-in-det-path"]);
        assert!(scan_src(r#"fn f() { log("Instant::now()"); }"#).is_empty());
    }

    #[test]
    fn cfg_test_module_is_excluded() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n fn g() { let t = \
                   Instant::now(); }\n}\n";
        assert!(scan_src(src).is_empty());
        // …but cfg(not(test)) is not excluded.
        let src = "#[cfg(not(test))]\nmod real {\n fn g() { let t = Instant::now(); }\n}\n";
        assert_eq!(scan_src(src).len(), 1);
    }

    #[test]
    fn lock_unwrap_fires_but_recover_does_not() {
        assert_eq!(
            rules_of(&scan_src("fn f() { let g = M.lock().unwrap(); }")),
            vec!["lock-unwrap"]
        );
        assert_eq!(
            rules_of(&scan_src("fn f() { let g = M.lock().expect(\"x\"); }")),
            vec!["lock-unwrap"]
        );
        assert!(scan_src("fn f() { let g = lock_recover(&M); }").is_empty());
        assert!(
            scan_src("fn f() { let g = M.lock().unwrap_or_else(|e| e.into_inner()); }").is_empty()
        );
    }

    #[test]
    fn process_exit_only_in_lib_code() {
        let src = "fn f() { std::process::exit(1); }";
        assert_eq!(rules_of(&scan_src(src)), vec!["process-exit-in-lib"]);
        let cfg = Config::default();
        assert!(scan("src/bin/wfctl.rs", &lex(src), &cfg).is_empty());
        assert!(scan("crates/x/src/main.rs", &lex(src), &cfg).is_empty());
    }

    #[test]
    fn env_reads_and_rng_and_thread_id() {
        assert_eq!(
            rules_of(&scan_src("fn f() { let v = std::env::var(\"X\"); }")),
            vec!["host-env-read"]
        );
        assert_eq!(
            rules_of(&scan_src("fn f() { let r = thread_rng(); }")),
            vec!["unseeded-rng"]
        );
        assert_eq!(
            rules_of(&scan_src(
                "fn f() { let id = std::thread::current().id(); }"
            )),
            vec!["thread-id-dependence"]
        );
        // `current().id()` on something other than `thread` is fine.
        assert!(scan_src("fn f() { let id = epoch::current().id(); }").is_empty());
    }

    #[test]
    fn swallowed_io_error_methods_and_free_fns() {
        assert_eq!(
            rules_of(&scan_src("fn f() { let _ = stream.write_all(b\"x\"); }")),
            vec!["swallowed-io-error"]
        );
        // Configured free function (write_frame is a default).
        assert_eq!(
            rules_of(&scan_src("fn f() { let _ = write_frame(&mut s, &msg); }")),
            vec!["swallowed-io-error"]
        );
        // fmt::Write via macro is fine.
        assert!(scan_src("fn f(out: &mut String) { let _ = writeln!(out, \"x\"); }").is_empty());
        // Handled results are fine.
        assert!(scan_src("fn f() { stream.write_all(b\"x\")?; }").is_empty());
    }

    #[test]
    fn map_iteration_order_escape() {
        // Field iteration escaping through map() — fires.
        let src = "struct S { map: HashMap<String, u32> }\nimpl S {\n fn iter(&self) -> \
                   impl Iterator<Item = u32> { self.map.iter().map(|(_, v)| *v) }\n}\n";
        assert_eq!(rules_of(&scan_src(src)), vec!["unordered-map-iteration"]);
        // Collect-then-sort (the to_dotconfig idiom) — clean.
        let src = "struct S { values: HashMap<String, u32> }\nimpl S {\n fn names(&self) \
                   -> Vec<&str> { let mut v: Vec<&str> = \
                   self.values.keys().map(String::as_str).collect(); v.sort_unstable(); v \
                   }\n}\n";
        assert!(scan_src(src).is_empty());
        // Order-insensitive terminal — clean.
        let src = "fn f(m: &HashMap<u32, u32>) -> usize { m.values().count() }";
        assert!(scan_src(src).is_empty());
        // For-loop over a local hash set — fires.
        let src = "fn f() { let mut s = HashSet::new(); s.insert(1); for x in &s { \
                   emit(x); } }";
        assert_eq!(rules_of(&scan_src(src)), vec!["unordered-map-iteration"]);
        // Vec iteration never fires.
        let src = "fn f(v: &Vec<u32>) -> Vec<u32> { v.iter().map(|x| x + 1).collect() }";
        assert!(scan_src(src).is_empty());
    }
}
