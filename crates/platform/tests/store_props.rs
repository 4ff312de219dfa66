//! Property tests for the session-store serialization: the JSON encoder
//! parses what it emits (escaped strings, round-trip floats, deep
//! documents), and whole event logs written by [`JsonlSink`] reload into
//! the exact records that were stored, every line of them in canonical
//! form (it re-encodes to its own bytes). Bytes that were never a document —
//! arbitrary input, and valid documents with flipped bytes or cut short —
//! come back from `JsonValue::parse` and the `wf-evald` frame reader as
//! an error, never a panic, and so do whole ledgers with flipped bytes,
//! spliced ranges or cut tails from `SessionStore::load` and
//! `verify_chain`. At the edges `record_strategy` never draws —
//! `i64` bounds, non-finite and subnormal floats, both zeros — ledger
//! lines stay canonical and reload, and the daemon's watch frame of an
//! event is its ledger line without the chain field.

use proptest::prelude::*;
use std::io::Write;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use wf_configspace::{Configuration, Tristate, Value};
use wf_jobfile::Job;
use wf_ossim::Phase;
use wf_platform::daemon::SocketSink;
use wf_platform::remote::{read_frame, write_frame};
use wf_platform::store::JsonValue;
use wf_platform::{EventSink, Record, SessionEvent, SessionStore, StoreError, WaveStats};

// ---------------------------------------------------------------------------
// JSON documents: parse-what-we-emit.
// ---------------------------------------------------------------------------

/// Strings exercising every escape class the encoder knows: quotes,
/// backslashes, ASCII control characters, and multi-byte UTF-8 (including
/// astral-plane characters).
fn string_strategy() -> impl Strategy<Value = String> {
    let chars = prop_oneof![
        Just('"'),
        Just('\\'),
        Just('\n'),
        Just('\r'),
        Just('\t'),
        Just('\u{0}'),
        Just('\u{1}'),
        Just('\u{1f}'),
        Just('/'),
        Just(' '),
        Just('a'),
        Just('Z'),
        Just('9'),
        Just('é'),
        Just('ß'),
        Just('中'),
        Just('\u{1F600}'), // astral plane: a surrogate pair in \u form
    ];
    proptest::collection::vec(chars, 0..24).prop_map(|cs| cs.into_iter().collect())
}

/// Finite floats across magnitudes, signs, and the denormal edge — the
/// store never emits NaN or infinities (they encode as `null`).
fn finite_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(0.0),
        Just(-0.0),
        Just(1.0),
        Just(f64::MAX),
        Just(f64::MIN_POSITIVE),
        Just(5e-324), // smallest denormal
        -1e9f64..1e9,
        -1e300f64..1e300,
        1e-300f64..1e-290,
    ]
}

fn json_leaf() -> impl Strategy<Value = JsonValue<'static>> {
    prop_oneof![
        Just(JsonValue::Null),
        any::<bool>().prop_map(JsonValue::Bool),
        any::<i64>().prop_map(JsonValue::Int),
        finite_f64().prop_map(JsonValue::Num),
        string_strategy().prop_map(|s| JsonValue::Str(s.into())),
    ]
}

fn json_value() -> impl Strategy<Value = JsonValue<'static>> {
    json_leaf().prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(JsonValue::Arr),
            proptest::collection::vec((string_strategy(), inner), 0..4).prop_map(|pairs| {
                JsonValue::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
            }),
        ]
    })
}

/// Float equality up to bit identity (NaN never occurs), treating the
/// `-0.0`/`0.0` pair as the IEEE-equal values they are.
fn json_eq(a: &JsonValue, b: &JsonValue) -> bool {
    match (a, b) {
        (JsonValue::Num(x), JsonValue::Num(y)) => x == y,
        (JsonValue::Arr(xs), JsonValue::Arr(ys)) => {
            xs.len() == ys.len() && xs.iter().zip(ys).all(|(x, y)| json_eq(x, y))
        }
        (JsonValue::Obj(xs), JsonValue::Obj(ys)) => {
            xs.len() == ys.len()
                && xs
                    .iter()
                    .zip(ys)
                    .all(|((ka, va), (kb, vb))| ka == kb && json_eq(va, vb))
        }
        _ => a == b,
    }
}

// ---------------------------------------------------------------------------
// Never-panic fuzzing: arbitrary and mutated bytes.
// ---------------------------------------------------------------------------

/// Bytes drawn mostly from JSON's own alphabet, so arbitrary input
/// reaches past the first token as often as it fails on it.
fn json_ish_bytes() -> impl Strategy<Value = Vec<u8>> {
    let byte = prop_oneof![
        any::<u8>(),
        prop_oneof![
            Just(b'{'),
            Just(b'}'),
            Just(b'['),
            Just(b']'),
            Just(b'"'),
            Just(b':'),
            Just(b','),
            Just(b'\\'),
            Just(b'-'),
            Just(b'e'),
            Just(b'.'),
            Just(b'0'),
            Just(b'7'),
            Just(b'u'),
            Just(b'n'),
            Just(b't'),
            Just(b' '),
        ],
    ];
    proptest::collection::vec(byte, 0..256)
}

/// XORs each `(position, mask)` into `bytes` (positions wrap), then cuts
/// the result to `cut` bytes when that is shorter.
fn mutate(mut bytes: Vec<u8>, flips: &[(usize, u8)], cut: usize) -> Vec<u8> {
    if !bytes.is_empty() {
        for &(at, mask) in flips {
            let len = bytes.len();
            bytes[at % len] ^= mask;
        }
    }
    bytes.truncate(cut);
    bytes
}

fn flips() -> impl Strategy<Value = Vec<(usize, u8)>> {
    proptest::collection::vec((any::<usize>(), 1u8..=255), 0..4)
}

/// Feeds `bytes` to `read_frame` through a socket pair whose writer then
/// hangs up, reading frames until the stream ends or errors.
fn read_frames_from(bytes: &[u8]) {
    let (mut tx, mut rx) = UnixStream::pair().expect("socketpair");
    tx.write_all(bytes).expect("fits the socket buffer");
    drop(tx);
    // Every `Ok(Some(_))` consumes at least the 4-byte length prefix.
    for _ in 0..=bytes.len() / 4 {
        match read_frame(&mut rx) {
            Ok(Some(_)) => {}
            Ok(None) | Err(_) => return,
        }
    }
    panic!("read_frame returned more frames than the bytes could hold");
}

/// The bytes `write_frame` puts on the wire for `doc`.
fn frame_bytes(doc: &JsonValue) -> Vec<u8> {
    let (mut tx, mut rx) = UnixStream::pair().expect("socketpair");
    write_frame(&mut tx, doc).expect("fits the socket buffer");
    drop(tx);
    let mut bytes = Vec::new();
    std::io::Read::read_to_end(&mut rx, &mut bytes).expect("read back");
    bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes parse to a document or an error.
    #[test]
    fn json_parse_never_panics_on_arbitrary_bytes(bytes in json_ish_bytes()) {
        let _ = JsonValue::parse(&String::from_utf8_lossy(&bytes));
    }

    /// A valid document with flipped bytes or cut short parses to a
    /// document or an error; untouched, it still round-trips.
    #[test]
    fn json_parse_never_panics_on_mutated_documents(
        doc in json_value(),
        flips in flips(),
        cut in 0usize..512,
    ) {
        let text = doc.encode();
        let back = JsonValue::parse(&text).expect("emitted JSON must parse");
        prop_assert!(json_eq(&back, &doc), "round-trip changed the document:\n{}", text);
        let bytes = mutate(text.into_bytes(), &flips, cut);
        let _ = JsonValue::parse(&String::from_utf8_lossy(&bytes));
    }

    /// The frame reader turns arbitrary bytes into frames, a clean end
    /// of stream, or an error.
    #[test]
    fn read_frame_never_panics_on_arbitrary_bytes(
        bytes in json_ish_bytes(),
        len in any::<u32>(),
        prefixed in any::<bool>(),
    ) {
        let mut wire = Vec::new();
        if prefixed {
            // A length prefix of any size, possibly lying about the body.
            wire.extend_from_slice(&(len % 512).to_be_bytes());
        }
        wire.extend_from_slice(&bytes);
        read_frames_from(&wire);
    }

    /// Valid frames with flipped bytes (length prefix included) or cut
    /// short never panic the reader; untouched, they read back intact.
    #[test]
    fn read_frame_never_panics_on_mutated_frames(
        doc in json_value(),
        flips in flips(),
        cut in 0usize..512,
    ) {
        let bytes = frame_bytes(&doc);
        let (mut tx, mut rx) = UnixStream::pair().expect("socketpair");
        tx.write_all(&bytes).unwrap();
        let back = read_frame(&mut rx).unwrap().expect("one frame");
        prop_assert!(json_eq(&back, &doc), "frame changed the document");
        read_frames_from(&mutate(bytes, &flips, cut));
    }
}

// ---------------------------------------------------------------------------
// Whole event logs: written waves reload bit-exact.
// ---------------------------------------------------------------------------

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<bool>().prop_map(Value::Bool),
        prop_oneof![
            Just(Tristate::No),
            Just(Tristate::Module),
            Just(Tristate::Yes)
        ]
        .prop_map(Value::Tristate),
        any::<i64>().prop_map(Value::Int),
        (0usize..32).prop_map(Value::Choice),
    ]
}

fn record_strategy() -> impl Strategy<Value = Record> {
    (
        (
            proptest::collection::vec(value_strategy(), 1..12),
            prop_oneof![
                Just(None),
                Just(Some(Phase::Build)),
                Just(Some(Phase::Boot)),
                Just(Some(Phase::Run)),
            ],
        ),
        (
            finite_f64(),
            finite_f64(),
            (0.0f64..1e6),
            any::<bool>(),
            (0usize..1 << 40),
        ),
    )
        .prop_map(
            |((values, crash_phase), (metric, memory_mb, duration_s, build_skipped, bytes))| {
                let crashed = crash_phase.is_some();
                Record {
                    iteration: 0, // assigned when grouped into waves
                    config: Configuration::from_values(values),
                    objective: (!crashed).then_some(metric),
                    metric: (!crashed).then_some(metric),
                    memory_mb: (!crashed).then_some(memory_mb),
                    crash_phase,
                    build_skipped,
                    duration_s,
                    finished_at_s: 0.0,
                    algo_memory_bytes: bytes,
                }
            },
        )
}

static CASE: AtomicUsize = AtomicUsize::new(0);

fn case_dir() -> PathBuf {
    std::env::temp_dir().join(format!(
        "wf-store-props-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The headline: any document the encoder can emit, the parser reads
    /// back identically — escaped strings, astral-plane characters,
    /// denormal floats, i64 extremes, deep nesting.
    #[test]
    fn json_documents_parse_what_we_emit(doc in json_value()) {
        let text = doc.encode();
        let back = JsonValue::parse(&text)
            .unwrap_or_else(|e| panic!("emitted JSON must parse: {e}\n{text}"));
        prop_assert!(json_eq(&back, &doc), "round-trip changed the document:\n{}", text);
        prop_assert_eq!(back.clone().into_owned(), back.clone());
        // Encoding is a fixed point after one round trip.
        prop_assert_eq!(back.encode(), text.as_str());
    }

    /// A whole event log — waves of candidate records plus their
    /// wave-completed markers — reloads into the exact same records.
    #[test]
    fn event_logs_reload_bit_exact(
        waves in proptest::collection::vec(
            proptest::collection::vec(record_strategy(), 1..5),
            1..4,
        ),
    ) {
        let dir = case_dir();
        let store = SessionStore::create(&dir, &Job::default()).unwrap();
        let mut written: Vec<Record> = Vec::new();
        {
            let mut sink = store.sink().unwrap();
            let mut finished_at = 0.0;
            for (w, wave) in waves.iter().enumerate() {
                finished_at += wave.iter().map(|r| r.duration_s).fold(0.0, f64::max);
                let mut size = 0;
                for r in wave {
                    let mut record = r.clone();
                    record.iteration = written.len();
                    record.finished_at_s = finished_at;
                    sink.on_event(&SessionEvent::CandidateEvaluated(record.clone()));
                    written.push(record);
                    size += 1;
                }
                sink.on_event(&SessionEvent::WaveCompleted(WaveStats {
                    wave: w,
                    size,
                    wall_s: finished_at,
                    busy_s: wave.iter().map(|r| r.duration_s).sum(),
                    cache_hits: w as u64,
                    cache_misses: size as u64,
                }));
            }
            prop_assert!(sink.error().is_none());
        }

        let loaded = store.load().unwrap();
        prop_assert_eq!(loaded.records.len(), written.len());
        prop_assert_eq!(
            &loaded.wave_sizes,
            &waves.iter().map(Vec::len).collect::<Vec<_>>()
        );
        for (a, b) in loaded.records.iter().zip(&written) {
            prop_assert_eq!(a.iteration, b.iteration);
            prop_assert_eq!(&a.config, &b.config);
            prop_assert_eq!(a.objective.map(f64::to_bits), b.objective.map(f64::to_bits));
            prop_assert_eq!(a.metric.map(f64::to_bits), b.metric.map(f64::to_bits));
            prop_assert_eq!(
                a.memory_mb.map(f64::to_bits),
                b.memory_mb.map(f64::to_bits)
            );
            prop_assert_eq!(a.crash_phase, b.crash_phase);
            prop_assert_eq!(a.build_skipped, b.build_skipped);
            prop_assert_eq!(a.duration_s.to_bits(), b.duration_s.to_bits());
            prop_assert_eq!(a.finished_at_s.to_bits(), b.finished_at_s.to_bits());
            prop_assert_eq!(a.algo_memory_bytes, b.algo_memory_bytes);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every line `JsonlSink` writes is in canonical form: it parses and
    /// re-encodes to exactly its own bytes, and detaching the parsed
    /// value from the line (`into_owned`) changes nothing. The drift and
    /// epoch lines carry strings with escapes, which the parser copies;
    /// everything else it borrows.
    #[test]
    fn sink_lines_reencode_to_their_own_bytes(
        waves in proptest::collection::vec(
            (
                proptest::collection::vec(record_strategy(), 1..4),
                string_strategy(),
                string_strategy(),
                finite_f64(),
            ),
            1..4,
        ),
    ) {
        let dir = case_dir();
        let store = SessionStore::create(&dir, &Job::default()).unwrap();
        {
            let mut sink = store.sink().unwrap();
            let mut iteration = 0;
            for (w, (wave, detector, phase, signal)) in waves.iter().enumerate() {
                for r in wave {
                    let mut record = r.clone();
                    record.iteration = iteration;
                    iteration += 1;
                    sink.on_event(&SessionEvent::CandidateEvaluated(record));
                }
                sink.on_event(&SessionEvent::NewBest { iteration: iteration - 1, objective: *signal });
                sink.on_event(&SessionEvent::DriftDetected {
                    epoch: w,
                    at_iteration: iteration - 1,
                    at_s: *signal,
                    detector: detector.clone(),
                    signal: *signal,
                    baseline: -*signal,
                });
                sink.on_event(&SessionEvent::EpochStarted {
                    epoch: w + 1,
                    first_iteration: iteration,
                    at_s: *signal,
                    transfer: w % 2 == 0,
                    phase: phase.clone(),
                    oracle_metric: *signal,
                });
                sink.on_event(&SessionEvent::WaveCompleted(WaveStats {
                    wave: w,
                    size: wave.len(),
                    wall_s: *signal,
                    busy_s: 0.0,
                    cache_hits: 0,
                    cache_misses: wave.len() as u64,
                }));
            }
            prop_assert!(sink.error().is_none());
        }
        let text = std::fs::read_to_string(store.events_path()).unwrap();
        for line in text.lines() {
            let value = JsonValue::parse(line).unwrap();
            prop_assert_eq!(value.encode(), line);
            prop_assert_eq!(value.clone().into_owned(), value);
        }
        prop_assert!(store.verify_chain().unwrap() > 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}

proptest! {
    // Fewer cases: each one spawns a writer thread and loops a reader
    // against it.
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Readers racing an active writer never see a parse error: every
    /// visible snapshot of `events.jsonl` is a prefix of the final log
    /// (appends only grow the file), so `load` returns a consistent,
    /// chain-verified prefix — at worst dropping a torn tail or an
    /// incomplete final wave — and the record count only moves forward.
    #[test]
    fn concurrent_readers_always_load_a_consistent_prefix(
        waves in proptest::collection::vec(
            proptest::collection::vec(record_strategy(), 1..4),
            4..8,
        ),
    ) {
        let dir = case_dir();
        SessionStore::create(&dir, &Job::default()).unwrap();
        let total: usize = waves.iter().map(Vec::len).sum();
        std::thread::scope(|scope| {
            let writer_dir = dir.clone();
            let writer = scope.spawn(move || {
                let store = SessionStore::open(&writer_dir).unwrap();
                let mut sink = store.sink().unwrap();
                let mut iteration = 0;
                for (w, wave) in waves.iter().enumerate() {
                    for r in wave {
                        let mut record = r.clone();
                        record.iteration = iteration;
                        iteration += 1;
                        sink.on_event(&SessionEvent::CandidateEvaluated(record));
                    }
                    sink.on_event(&SessionEvent::WaveCompleted(WaveStats {
                        wave: w,
                        size: wave.len(),
                        wall_s: w as f64,
                        busy_s: 0.0,
                        cache_hits: 0,
                        cache_misses: 0,
                    }));
                }
                assert!(sink.error().is_none());
            });
            let reader = SessionStore::open(&dir).unwrap();
            let mut last = 0;
            while !writer.is_finished() {
                let loaded = reader.load().expect("a mid-append load never errors");
                assert!(
                    loaded.records.len() >= last,
                    "visible record count went backwards"
                );
                last = loaded.records.len();
            }
            writer.join().unwrap();
        });
        let store = SessionStore::open(&dir).unwrap();
        let loaded = store.load().unwrap();
        prop_assert_eq!(loaded.records.len(), total);
        prop_assert!(store.verify_chain().unwrap() > 0, "final chain verifies");
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------------
// The event writer at the edges: values `record_strategy` never draws.
// ---------------------------------------------------------------------------

/// Floats at every edge the writer's `{:?}`-or-`null` rule has: NaN and
/// both infinities (written as `null`), both zeros, subnormals, and the
/// extremes.
fn edge_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(-0.0),
        Just(5e-324),
        Just(-5e-324),
        Just(f64::MIN_POSITIVE / 3.0),
        Just(f64::MIN),
        finite_f64(),
    ]
}

/// A measurement that may be missing.
fn opt_edge_f64() -> impl Strategy<Value = Option<f64>> {
    prop_oneof![Just(None), edge_f64().prop_map(Some)]
}

/// Finite floats at the edges: the fields that are never `null`.
fn finite_edge_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(-0.0),
        Just(5e-324),
        Just(f64::MIN_POSITIVE / 3.0),
        finite_f64()
    ]
}

fn edge_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Int(i64::MIN)),
        Just(Value::Int(i64::MAX)),
        value_strategy(),
    ]
}

fn edge_record() -> impl Strategy<Value = Record> {
    (
        proptest::collection::vec(edge_value(), 1..12),
        prop_oneof![
            Just(None),
            Just(Some(Phase::Build)),
            Just(Some(Phase::Boot)),
            Just(Some(Phase::Run)),
        ],
        (opt_edge_f64(), opt_edge_f64(), opt_edge_f64()),
        (finite_edge_f64(), finite_edge_f64(), any::<bool>()),
    )
        .prop_map(
            |(
                values,
                crash_phase,
                (objective, metric, memory_mb),
                (duration_s, finished_at_s, build_skipped),
            )| {
                Record {
                    iteration: 0, // assigned when written
                    config: Configuration::from_values(values),
                    objective,
                    metric,
                    memory_mb,
                    crash_phase,
                    build_skipped,
                    duration_s,
                    finished_at_s,
                    algo_memory_bytes: 1 << 40,
                }
            },
        )
}

/// What the store reads back for a written measurement: a non-finite
/// float is written as `null`, which loads as `None`.
fn as_stored(v: Option<f64>) -> Option<u64> {
    v.filter(|v| v.is_finite()).map(f64::to_bits)
}

/// The frames a sink wrote to `rx` before hanging up, as body text.
fn frame_bodies(mut rx: UnixStream) -> Vec<String> {
    let mut wire = Vec::new();
    std::io::Read::read_to_end(&mut rx, &mut wire).expect("read back");
    let mut bodies = Vec::new();
    let mut rest = wire.as_slice();
    while let Some((len, tail)) = rest.split_first_chunk::<4>() {
        let (body, tail) = tail.split_at(u32::from_be_bytes(*len) as usize);
        bodies.push(String::from_utf8(body.to_vec()).expect("frames are UTF-8"));
        rest = tail;
    }
    assert!(rest.is_empty(), "a partial frame");
    bodies
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every line the writer puts in a ledger parses, re-encodes to its
    /// own bytes, and loads back to the record it was written from, at
    /// the extremes too: `i64` bounds in the config, NaN and infinities
    /// (stored as `null`), both zeros, subnormals, every crash phase.
    /// The daemon's watch frame of each event is the same line without
    /// its `"prev":"…",` field.
    #[test]
    fn edge_records_write_canonical_lines_and_matching_frames(
        waves in proptest::collection::vec(
            proptest::collection::vec(edge_record(), 1..4),
            1..4,
        ),
    ) {
        let dir = case_dir();
        let store = SessionStore::create(&dir, &Job::default()).unwrap();
        let (tx, rx) = UnixStream::pair().expect("socketpair");
        let mut written: Vec<Record> = Vec::new();
        {
            let mut ledger = store.sink().unwrap();
            let mut watch = SocketSink::new(tx);
            for (w, wave) in waves.iter().enumerate() {
                for r in wave {
                    let mut record = r.clone();
                    record.iteration = written.len();
                    let event = SessionEvent::CandidateEvaluated(record.clone());
                    ledger.on_event(&event);
                    watch.on_event(&event);
                    written.push(record);
                }
                let event = SessionEvent::WaveCompleted(WaveStats {
                    wave: w,
                    size: wave.len(),
                    wall_s: -0.0,
                    busy_s: 5e-324,
                    cache_hits: 0,
                    cache_misses: wave.len() as u64,
                });
                ledger.on_event(&event);
                watch.on_event(&event);
            }
            prop_assert!(ledger.error().is_none());
            prop_assert!(!watch.is_dead());
        }

        let text = std::fs::read_to_string(store.events_path()).unwrap();
        let mut unchained = Vec::new();
        for line in text.lines() {
            let value = JsonValue::parse(line)
                .unwrap_or_else(|e| panic!("a written line must parse: {e}\n{line}"));
            prop_assert_eq!(value.encode(), line);
            // The sink's own checkpoint lines are not events a watcher sees.
            if value.get("event").and_then(JsonValue::as_str) == Some("checkpoint") {
                continue;
            }
            let prev = value.get("prev").and_then(JsonValue::as_str).unwrap();
            let field = format!("\"prev\":\"{prev}\",");
            prop_assert!(line.contains(&field));
            unchained.push(line.replacen(&field, "", 1));
        }
        prop_assert_eq!(frame_bodies(rx), unchained);

        let loaded = store.load().unwrap();
        prop_assert_eq!(loaded.records.len(), written.len());
        for (a, b) in loaded.records.iter().zip(&written) {
            prop_assert_eq!(a.iteration, b.iteration);
            prop_assert_eq!(&a.config, &b.config);
            prop_assert_eq!(a.objective.map(f64::to_bits), as_stored(b.objective));
            prop_assert_eq!(a.metric.map(f64::to_bits), as_stored(b.metric));
            prop_assert_eq!(a.memory_mb.map(f64::to_bits), as_stored(b.memory_mb));
            prop_assert_eq!(a.crash_phase, b.crash_phase);
            prop_assert_eq!(a.build_skipped, b.build_skipped);
            prop_assert_eq!(a.duration_s.to_bits(), b.duration_s.to_bits());
            prop_assert_eq!(a.finished_at_s.to_bits(), b.finished_at_s.to_bits());
            prop_assert_eq!(a.algo_memory_bytes, b.algo_memory_bytes);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---------------------------------------------------------------------------
// The loader at its input boundary: damaged ledgers.
// ---------------------------------------------------------------------------

/// How a written ledger is damaged: flipped bytes, then a copy of one
/// byte range pasted over another (a splice), then a cut.
#[derive(Clone, Debug)]
struct Damage {
    flips: Vec<(usize, u8)>,
    splice: Option<(usize, usize, usize)>,
    cut: usize,
}

fn damage() -> impl Strategy<Value = Damage> {
    (
        // Masks below 0x80 keep ASCII bytes ASCII; masks from 0x80 set
        // bytes ≥ 0x80, which leave their line no longer UTF-8. Either
        // reaches the walk, which checks UTF-8 one line at a time.
        proptest::collection::vec(
            (any::<usize>(), prop_oneof![1u8..0x80, 0x80u8..=0xff]),
            0..4,
        ),
        prop_oneof![
            Just(None),
            (any::<usize>(), any::<usize>(), 1usize..400).prop_map(Some),
        ],
        prop_oneof![Just(usize::MAX), 0usize..8192],
    )
        .prop_map(|(flips, splice, cut)| Damage { flips, splice, cut })
}

impl Damage {
    fn apply(&self, mut bytes: Vec<u8>) -> Vec<u8> {
        bytes = mutate(bytes, &self.flips, usize::MAX);
        if let Some((from, to, len)) = self.splice {
            if !bytes.is_empty() {
                let from = from % bytes.len();
                let piece = bytes[from..(from + len).min(bytes.len())].to_vec();
                let to = to % bytes.len();
                bytes.splice(to..(to + piece.len()).min(bytes.len()), piece);
            }
        }
        bytes.truncate(self.cut);
        bytes
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A ledger with flipped bytes, a spliced range or a cut tail loads
    /// and verifies to a result or an error, never a panic; bytes that
    /// are not UTF-8 are corruption at their line (or a torn tail), not
    /// a failure to read the log.
    #[test]
    fn damaged_ledgers_load_and_verify_without_panicking(
        waves in proptest::collection::vec(
            proptest::collection::vec(record_strategy(), 1..4),
            1..4,
        ),
        detector in string_strategy(),
        damage in damage(),
    ) {
        let dir = case_dir();
        let store = SessionStore::create(&dir, &Job::default()).unwrap();
        {
            let mut sink = store.sink().unwrap();
            let mut iteration = 0;
            for (w, wave) in waves.iter().enumerate() {
                for r in wave {
                    let mut record = r.clone();
                    record.iteration = iteration;
                    iteration += 1;
                    sink.on_event(&SessionEvent::CandidateEvaluated(record));
                }
                sink.on_event(&SessionEvent::DriftDetected {
                    epoch: w,
                    at_iteration: iteration - 1,
                    at_s: w as f64,
                    detector: detector.clone(),
                    signal: 1.0,
                    baseline: 2.0,
                });
                sink.on_event(&SessionEvent::WaveCompleted(WaveStats {
                    wave: w,
                    size: wave.len(),
                    wall_s: w as f64,
                    busy_s: 0.0,
                    cache_hits: 0,
                    cache_misses: wave.len() as u64,
                }));
            }
            prop_assert!(sink.error().is_none());
        }
        let bytes = std::fs::read(store.events_path()).unwrap();
        std::fs::write(store.events_path(), damage.apply(bytes)).unwrap();
        let loaded = store.load().map(|_| ());
        let verified = store.verify_chain().map(|_| ());
        for result in [loaded, verified] {
            prop_assert!(
                !matches!(result, Err(StoreError::Io { .. })),
                "{:?}",
                result
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
