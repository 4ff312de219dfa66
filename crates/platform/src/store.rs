//! On-disk session stores: a job-file manifest plus an append-only
//! `events.jsonl`.
//!
//! A store directory makes a specialization campaign durable:
//!
//! * `manifest.yaml` — the *resolved* job (target keyword, app, metric,
//!   algorithm, seed, workers, budgets, pins, explicit parameters),
//!   written with the ordinary [`wf_jobfile::Job`] YAML emitter so it is
//!   itself a runnable job file;
//! * `events.jsonl` — every [`SessionEvent`] as one versioned JSON line,
//!   written by [`JsonlSink`] through [`write_event`], a small
//!   hand-rolled streaming encoder (no external dependencies) with
//!   escape-correct strings and round-trip floats. Lines are
//!   hash-chained: each carries `prev`, the FNV-1a hash of the line
//!   before it ([`line_hash`]), so the loader — and
//!   [`SessionStore::verify_chain`] — detect any edit or truncation
//!   other than a torn tail. No line holds host measurements, so the log
//!   is a pure function of the job: two runs write identical bytes.
//!
//! [`SessionStore::load`] replays the lines into the stored records and
//! wave shapes; [`crate::Session::replay`] then rebuilds a live session
//! from them, so an interrupted campaign resumes without re-evaluating a
//! single candidate. Torn final lines (a process killed mid-write) and
//! trailing records that never completed a wave are tolerated and
//! dropped; anything else that fails to parse is a hard
//! [`StoreError::Corrupt`].
//!
//! # Examples
//!
//! ```
//! use wf_jobfile::Job;
//! use wf_kconfig::LinuxVersion;
//! use wf_ossim::{App, AppId, SimOs};
//! use wf_platform::{Session, SessionSpec, SessionStore};
//! use wf_search::RandomSearch;
//!
//! let dir = std::env::temp_dir().join(format!("wf-store-doc-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//!
//! // Create the store from a (here: default) job manifest…
//! let store = SessionStore::create(&dir, &Job::default()).unwrap();
//!
//! // …run a session through its sink…
//! let mut session = Session::new(
//!     SimOs::linux_runtime(LinuxVersion::V4_19, 56),
//!     App::by_id(AppId::Nginx),
//!     Box::new(RandomSearch::new()),
//!     SessionSpec {
//!         budget: wf_jobfile::Budget {
//!             iterations: Some(4),
//!             time_seconds: None,
//!         },
//!         workers: 2,
//!         ..SessionSpec::default()
//!     },
//! );
//! let mut sink = store.sink().unwrap();
//! let _ = session.run_with(&mut sink);
//! drop(sink);
//!
//! // …and everything reloads offline: no re-evaluation.
//! let loaded = SessionStore::open(&dir).unwrap().load().unwrap();
//! assert_eq!(loaded.records.len(), 4);
//! assert_eq!(loaded.wave_sizes, vec![2, 2]);
//! assert!(loaded.finished);
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```

use crate::events::{EventSink, SessionEvent};
use crate::history::Record;
use crate::metrics::WaveStats;
use std::borrow::Cow;
use std::fmt::{self, Write as _};
use std::fs::{File, OpenOptions};
use std::io::{self, BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use wf_configspace::{Configuration, Tristate, Value};
use wf_jobfile::Job;
use wf_ossim::Phase;

/// The manifest file name inside a store directory.
pub const MANIFEST_FILE: &str = "manifest.yaml";
/// The event-log file name inside a store directory.
pub const EVENTS_FILE: &str = "events.jsonl";
/// The store format version stamped on every event line, and the only
/// one the loader reads. Every line carries `prev`, the [`line_hash`] of
/// the line before it, so truncation or edits anywhere but the torn tail
/// are detected on load; no line holds a host measurement, so the log is
/// a deterministic function of the job.
pub const FORMAT_VERSION: i64 = 3;
/// How every event object begins: its [`FORMAT_VERSION`] stamp.
const LINE_START: &str = "{\"v\":3";
/// The chain state before any line exists: the [`line_hash`] of zero
/// bytes (the FNV-1a 64-bit offset basis). The first line of a log
/// carries this value in its `prev` field.
pub const CHAIN_GENESIS: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit hash of one event-log line (excluding its trailing
/// newline). Each line stores the hash of the line before it
/// in its `prev` field; because that field is itself part of the hashed
/// bytes, the chain commits to the whole log prefix, not just the
/// neighbouring line.
///
/// # Examples
///
/// ```
/// use wf_platform::store::{line_hash, CHAIN_GENESIS};
///
/// assert_eq!(line_hash(""), CHAIN_GENESIS);
/// assert_ne!(line_hash("{\"v\":2}"), line_hash("{\"v\":2} "));
/// ```
pub fn line_hash(line: &str) -> u64 {
    let mut hash = CHAIN_GENESIS;
    for byte in line.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// The canonical hex spelling of a chain hash, as stored in `prev`
/// fields: 16 lowercase hex digits, zero-padded.
pub fn chain_hex(hash: u64) -> String {
    let mut hex = String::with_capacity(16);
    push_chain_hex(hash, &mut hex);
    hex
}

/// Appends [`chain_hex`]'s spelling of `hash` to `out`.
fn push_chain_hex(hash: u64, out: &mut String) {
    push_ascii(&hex_digits(hash), out);
}

/// The 16 lower-case hex digits of `v`, zero-padded: the bytes of
/// `{v:016x}`, made without `core::fmt`.
fn hex_digits(v: u64) -> [u8; 16] {
    const NIBBLES: &[u8; 16] = b"0123456789abcdef";
    std::array::from_fn(|i| NIBBLES[(v >> (60 - 4 * i)) as usize & 0xf])
}

/// Appends the decimal digits of `v` to `out`: the bytes of `{v}`, made
/// without `core::fmt`. Every integer on a ledger line or a protocol
/// frame is written through it.
pub(crate) fn push_u64(mut v: u64, out: &mut String) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    push_ascii(&digits[start..], out);
}

/// [`push_u64`] for a signed integer: `-` before the magnitude.
fn push_i64(v: i64, out: &mut String) {
    if v < 0 {
        out.push('-');
    }
    push_u64(v.unsigned_abs(), out);
}

/// Appends ASCII `bytes` to `out`.
fn push_ascii(bytes: &[u8], out: &mut String) {
    out.extend(bytes.iter().map(|&b| char::from(b)));
}

// ---------------------------------------------------------------------------
// A minimal JSON value, encoder, and parser.
// ---------------------------------------------------------------------------

/// A JSON document node. Integers and floats are kept apart so `u64`-ish
/// counters survive exactly while measured values stay floats; floats are
/// emitted in Rust's shortest round-trip form (non-finite values, which
/// the platform never produces, encode as `null`).
///
/// Strings and object keys are [`Cow`]s: [`JsonValue::parse`] borrows
/// every string without an escape straight from its input, and the
/// encoder's static keys are borrowed too. [`JsonValue::into_owned`]
/// detaches a parsed value from its buffer.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue<'a> {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An integer literal (no fraction, no exponent).
    Int(i64),
    /// A floating-point literal.
    Num(f64),
    /// A string.
    Str(Cow<'a, str>),
    /// An array.
    Arr(Vec<JsonValue<'a>>),
    /// An object; key order is preserved.
    Obj(Vec<(Cow<'a, str>, JsonValue<'a>)>),
}

impl<'a> JsonValue<'a> {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&JsonValue<'a>> {
        match self {
            JsonValue::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String payload.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Boolean payload.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Numeric payload as `f64` (accepts both literal kinds).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Num(v) => Some(*v),
            JsonValue::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Integer payload.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            JsonValue::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Non-negative integer payload as `usize`.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_i64().and_then(|v| usize::try_from(v).ok())
    }

    /// Non-negative integer payload as `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        self.as_i64().and_then(|v| u64::try_from(v).ok())
    }

    /// Array payload.
    pub fn as_arr(&self) -> Option<&[JsonValue<'a>]> {
        match self {
            JsonValue::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Copies every borrowed string, so the value outlives the text it
    /// was parsed from.
    pub fn into_owned(self) -> JsonValue<'static> {
        match self {
            JsonValue::Null => JsonValue::Null,
            JsonValue::Bool(b) => JsonValue::Bool(b),
            JsonValue::Int(v) => JsonValue::Int(v),
            JsonValue::Num(v) => JsonValue::Num(v),
            JsonValue::Str(s) => JsonValue::Str(Cow::Owned(s.into_owned())),
            JsonValue::Arr(items) => {
                JsonValue::Arr(items.into_iter().map(JsonValue::into_owned).collect())
            }
            JsonValue::Obj(pairs) => JsonValue::Obj(
                pairs
                    .into_iter()
                    .map(|(k, v)| (Cow::Owned(k.into_owned()), v.into_owned()))
                    .collect(),
            ),
        }
    }

    /// Encodes this value as compact JSON text.
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends this value's compact JSON text to `out`.
    pub(crate) fn encode_into(&self, out: &mut String) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(true) => out.push_str("true"),
            JsonValue::Bool(false) => out.push_str("false"),
            JsonValue::Int(v) => push_i64(*v, out),
            JsonValue::Num(v) => push_f64(*v, out),
            JsonValue::Str(s) => encode_string(s, out),
            JsonValue::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.encode_into(out);
                }
                out.push(']');
            }
            JsonValue::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    encode_string(k, out);
                    out.push(':');
                    v.encode_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document from `text` (must consume all input).
    /// Arrays and objects nested more than 128 levels deep are an error.
    /// Strings without escapes borrow from `text`. This is a tree built
    /// over the one JSON cursor, whose grammar the ledger reader shares
    /// without building a tree.
    pub fn parse(text: &'a str) -> Result<JsonValue<'a>, JsonError> {
        let mut cursor = JsonCursor::new(text);
        let value = cursor.tree()?;
        cursor.finish()?;
        Ok(value)
    }
}

/// Appends a float literal to `out`, or `null` for a non-finite value.
fn push_f64(v: f64, out: &mut String) {
    if v.is_finite() {
        // `{:?}` is Rust's shortest round-trip form; it always carries a
        // fraction or an exponent, so the literal parses back as a float,
        // bit-for-bit. Writing into a `String` cannot fail.
        let _ = write!(out, "{v:?}");
    } else {
        out.push_str("null");
    }
}

fn encode_string(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str("\\u");
                push_ascii(&hex_digits(u64::from(c))[12..], out);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A JSON parse error: position plus message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset of the failure.
    pub at: usize,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Deepest array/object nesting [`JsonCursor`] accepts. Its readers
/// recurse once per level, so without a bound a frame of nothing but `[`
/// overflows the stack and aborts the process (a `wfd` client's first
/// frame goes through this parser). Every document the workspace writes
/// nests a few levels at most.
const MAX_JSON_DEPTH: usize = 128;

/// What kind of value starts at a [`JsonCursor`]'s position, judged
/// from its first byte.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A string: read it with [`JsonCursor::string`].
    Str,
    /// An array: [`JsonCursor::open`] it, then pull its items with
    /// [`JsonCursor::next_item`].
    Arr,
    /// An object: [`JsonCursor::open`] it, then pull its keys with
    /// [`JsonCursor::next_key`].
    Obj,
    /// Anything else: a number, a literal, or an error, which
    /// [`JsonCursor::scalar`] tells apart.
    Other,
}

/// A pull cursor over one JSON document, and the one copy of its
/// grammar: strings and their escapes, numbers, literals, the
/// [`MAX_JSON_DEPTH`] limit and every error message with its byte
/// offset. [`JsonValue::parse`] builds a tree from it; the ledger's
/// [`read_line`] pulls the fields it wants and reads past the rest
/// with [`JsonCursor::skip`], which rejects what a tree build rejects
/// and builds nothing.
///
/// Every token the grammar matches is ASCII, and UTF-8 never repeats an
/// ASCII byte inside a multi-byte character, so `pos` only ever stops on
/// a character boundary.
struct JsonCursor<'a> {
    text: &'a str,
    /// Byte offset of the cursor.
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> JsonCursor<'a> {
    fn new(text: &'a str) -> JsonCursor<'a> {
        JsonCursor {
            text,
            pos: 0,
            depth: 0,
        }
    }

    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            at: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// The whole character at the cursor.
    fn current(&self) -> Option<char> {
        self.text.get(self.pos..)?.chars().next()
    }

    /// Consumes and returns the whole character at the cursor.
    fn bump(&mut self) -> Option<char> {
        let c = self.current()?;
        self.pos += c.len_utf8();
        Some(c)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    #[inline]
    fn expect(&mut self, c: u8) -> Result<(), JsonError> {
        if self.peek() == Some(c) {
            self.pos += 1;
            return Ok(());
        }
        Err(self.unexpected(c))
    }

    /// The error for a missing `c`, reported after the character found
    /// instead. Kept out of line: it formats, and the hot path never
    /// takes it.
    #[cold]
    fn unexpected(&mut self, c: u8) -> JsonError {
        let c = char::from(c);
        match self.bump() {
            Some(got) => self.err(format!("expected {c:?}, got {got:?}")),
            None => self.err(format!("expected {c:?}, got end of input")),
        }
    }

    /// Ends the document: only whitespace may follow the value.
    fn finish(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(self.err("trailing characters after document"));
        }
        Ok(())
    }

    fn literal(&mut self, word: &str, value: JsonValue<'a>) -> Result<JsonValue<'a>, JsonError> {
        for c in word.bytes() {
            self.expect(c)?;
        }
        Ok(value)
    }

    /// Skips whitespace and tells what kind of value starts next.
    fn kind(&mut self) -> Kind {
        self.skip_ws();
        match self.peek() {
            Some(b'"') => Kind::Str,
            Some(b'[') => Kind::Arr,
            Some(b'{') => Kind::Obj,
            _ => Kind::Other,
        }
    }

    /// Reads a value of [`Kind::Other`]: a number or a literal.
    fn scalar(&mut self) -> Result<JsonValue<'a>, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.no_value()),
        }
    }

    /// The error for a value that cannot start at the cursor. Out of
    /// line, like [`JsonCursor::unexpected`].
    #[cold]
    fn no_value(&self) -> JsonError {
        match self.current() {
            Some(c) => self.err(format!("unexpected {c:?}")),
            None => self.err("unexpected end of input"),
        }
    }

    /// Consumes the bracket at the cursor, one level deeper, refusing to
    /// open more than [`MAX_JSON_DEPTH`] levels.
    fn open(&mut self) -> Result<(), JsonError> {
        if self.depth == MAX_JSON_DEPTH {
            return Err(self.err(format!("nested deeper than {MAX_JSON_DEPTH} levels")));
        }
        self.depth += 1;
        self.pos += 1;
        Ok(())
    }

    /// Inside an array: `Ok(true)` when another item follows (the caller
    /// reads it next), `Ok(false)` once the closing `]` is consumed.
    /// `first` marks the call right after the array opened.
    fn next_item(&mut self, first: bool) -> Result<bool, JsonError> {
        self.skip_ws();
        let more = if !first {
            self.separator(b']', "expected ',' or ']' in array")?
        } else if self.peek() == Some(b']') {
            self.pos += 1;
            false
        } else {
            true
        };
        if !more {
            self.depth -= 1;
        }
        Ok(more)
    }

    /// Inside an object: the next key, with the cursor past its `:` (the
    /// caller reads the value next), or `None` once the closing `}` is
    /// consumed. `first` marks the call right after the object opened.
    fn next_key(&mut self, first: bool) -> Result<Option<Cow<'a, str>>, JsonError> {
        self.skip_ws();
        let more = if !first {
            self.separator(b'}', "expected ',' or '}' in object")?
        } else if self.peek() == Some(b'}') {
            self.pos += 1;
            false
        } else {
            true
        };
        if !more {
            self.depth -= 1;
            return Ok(None);
        }
        self.skip_ws();
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        Ok(Some(key))
    }

    /// Consumes the `,` between items (`Ok(true)`) or the closing
    /// `close` (`Ok(false)`); anything else is `message`, reported after
    /// the offending character.
    fn separator(&mut self, close: u8, message: &str) -> Result<bool, JsonError> {
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(c) if c == close => {
                self.pos += 1;
                Ok(false)
            }
            _ => {
                self.bump();
                Err(self.err(message))
            }
        }
    }

    /// Reads the value at the cursor as a tree.
    fn tree(&mut self) -> Result<JsonValue<'a>, JsonError> {
        match self.kind() {
            Kind::Str => self.string().map(JsonValue::Str),
            Kind::Arr => {
                self.open()?;
                let mut items = Vec::new();
                while self.next_item(items.is_empty())? {
                    items.push(self.tree()?);
                }
                Ok(JsonValue::Arr(items))
            }
            Kind::Obj => {
                self.open()?;
                let mut pairs = Vec::new();
                while let Some(key) = self.next_key(pairs.is_empty())? {
                    let value = self.tree()?;
                    pairs.push((key, value));
                }
                Ok(JsonValue::Obj(pairs))
            }
            Kind::Other => self.scalar(),
        }
    }

    /// Reads past the value at the cursor, building nothing but
    /// rejecting everything [`JsonCursor::tree`] rejects, with the same
    /// error.
    fn skip(&mut self) -> Result<(), JsonError> {
        match self.kind() {
            Kind::Str => {
                self.string()?;
            }
            Kind::Arr => {
                self.open()?;
                let mut first = true;
                while self.next_item(first)? {
                    first = false;
                    self.skip()?;
                }
            }
            Kind::Obj => {
                self.open()?;
                let mut first = true;
                while self.next_key(first)?.is_some() {
                    first = false;
                    self.skip()?;
                }
            }
            Kind::Other => {
                self.scalar()?;
            }
        }
        Ok(())
    }

    /// A string literal: borrowed from the input unless it holds an
    /// escape.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let start = self.pos;
        self.skip_run();
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(&self.text[start..self.pos - 1]));
        }
        self.escaped_string(start).map(Cow::Owned)
    }

    /// Moves the cursor to the next quote or backslash, or to the end,
    /// testing eight bytes at a time while eight remain.
    fn skip_run(&mut self) {
        let bytes = self.text.as_bytes();
        while let Some(chunk) = bytes
            .get(self.pos..self.pos + 8)
            .and_then(|chunk| <[u8; 8]>::try_from(chunk).ok())
        {
            let word = u64::from_le_bytes(chunk);
            let hits = byte_marks(word, b'"') | byte_marks(word, b'\\');
            if hits != 0 {
                self.pos += hits.trailing_zeros() as usize / 8;
                return;
            }
            self.pos += 8;
        }
        let rest = &bytes[self.pos..];
        self.pos += rest
            .iter()
            .position(|b| matches!(b, b'"' | b'\\'))
            .unwrap_or(rest.len());
    }

    /// Unescapes the rest of a string literal whose escape-free run from
    /// `start` ends at the cursor.
    fn escaped_string(&mut self, start: usize) -> Result<String, JsonError> {
        let mut out = String::new();
        let mut run = start;
        loop {
            out.push_str(&self.text[run..self.pos]);
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                _ => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
            }
            run = self.pos;
            self.skip_run();
        }
    }

    /// The character an escape stands for; the cursor is past its `\`.
    fn escape(&mut self) -> Result<char, JsonError> {
        Ok(match self.bump() {
            Some('"') => '"',
            Some('\\') => '\\',
            Some('/') => '/',
            Some('b') => '\u{0008}',
            Some('f') => '\u{000c}',
            Some('n') => '\n',
            Some('r') => '\r',
            Some('t') => '\t',
            Some('u') => {
                let first = self.hex4()?;
                let c = if (0xD800..0xDC00).contains(&first) {
                    // High surrogate: a \uXXXX low surrogate must follow.
                    self.expect(b'\\')?;
                    self.expect(b'u')?;
                    let second = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&second) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    let combined = 0x10000 + ((first - 0xD800) << 10) + (second - 0xDC00);
                    char::from_u32(combined)
                } else {
                    char::from_u32(first)
                };
                c.ok_or_else(|| self.err("invalid \\u escape"))?
            }
            _ => return Err(self.err("invalid escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self
                .bump()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = c
                .to_digit(16)
                .ok_or_else(|| self.err("non-hex digit in \\u escape"))?;
            v = v * 16 + d;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<JsonValue<'a>, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = &self.text[start..self.pos];
        if is_float {
            text.parse::<f64>()
                .map(JsonValue::Num)
                .map_err(|_| self.err(format!("bad number {text:?}")))
        } else {
            match text.parse::<i64>() {
                Ok(v) => Ok(JsonValue::Int(v)),
                // Magnitudes beyond i64 fall back to the float reading.
                Err(_) => text
                    .parse::<f64>()
                    .map(JsonValue::Num)
                    .map_err(|_| self.err(format!("bad number {text:?}"))),
            }
        }
    }
}

/// Sets the top bit of the lowest byte of `word` (read little-endian)
/// that equals `b`. Bits above that byte may be set too (a borrow
/// runs on), but none below it, so `trailing_zeros() / 8` of the
/// result, or of several such results or-ed, is the first match.
fn byte_marks(word: u64, b: u8) -> u64 {
    const ONES: u64 = 0x0101_0101_0101_0101;
    let x = word ^ (ONES * u64::from(b));
    x.wrapping_sub(ONES) & !x & (ONES << 7)
}

// ---------------------------------------------------------------------------
// Event (de)serialization.
// ---------------------------------------------------------------------------

/// Appends `v`'s config token to `out`: a type letter, then the
/// payload (`b1`, `tm`, `i42`, `c3`). The one spelling of a value, shared
/// by ledger lines and protocol frames; [`token_value`] reads it back.
pub(crate) fn push_value_token(v: &Value, out: &mut String) {
    match v {
        Value::Bool(b) => out.push_str(if *b { "b1" } else { "b0" }),
        Value::Tristate(t) => {
            out.push('t');
            out.push(t.letter());
        }
        Value::Int(i) => {
            out.push('i');
            push_i64(*i, out);
        }
        Value::Choice(c) => {
            out.push('c');
            push_u64(*c as u64, out);
        }
    }
}

pub(crate) fn token_value(s: &str) -> Option<Value> {
    let rest = s.get(1..)?;
    match s.as_bytes().first()? {
        b'b' => match rest {
            "0" => Some(Value::Bool(false)),
            "1" => Some(Value::Bool(true)),
            _ => None,
        },
        b't' => Tristate::parse(rest).map(Value::Tristate),
        b'i' => rest.parse().ok().map(Value::Int),
        b'c' => rest.parse().ok().map(Value::Choice),
        _ => None,
    }
}

pub(crate) fn config_from_json(v: &JsonValue) -> Option<Configuration> {
    let items = v.as_arr()?;
    let mut values = Vec::with_capacity(items.len());
    for item in items {
        values.push(token_value(item.as_str()?)?);
    }
    Some(Configuration::from_values(values))
}

pub(crate) fn phase_str(p: Phase) -> &'static str {
    match p {
        Phase::Build => "build",
        Phase::Boot => "boot",
        Phase::Run => "run",
    }
}

pub(crate) fn phase_from_str(s: &str) -> Option<Phase> {
    match s {
        "build" => Some(Phase::Build),
        "boot" => Some(Phase::Boot),
        "run" => Some(Phase::Run),
        _ => None,
    }
}

/// A key of an event line that the loader reads; [`LineView`] keeps one
/// slot per key. `config` is not among them: its tokens are decoded on
/// the spot.
#[derive(Clone, Copy)]
enum Key {
    V,
    Prev,
    Event,
    Iteration,
    Objective,
    Metric,
    MemoryMb,
    CrashPhase,
    BuildSkipped,
    DurationS,
    FinishedAtS,
    AlgoMemoryBytes,
    Epoch,
    FirstIteration,
    AtS,
    Transfer,
    Phase,
    OracleMetric,
    AtIteration,
    Detector,
    Signal,
    Baseline,
    Wave,
    Size,
    WallS,
    BusyS,
    CacheHits,
    CacheMisses,
}

/// The number of [`Key`]s.
const KEYS: usize = Key::CacheMisses as usize + 1;

impl Key {
    fn of(name: &str) -> Option<Key> {
        Some(match name {
            "v" => Key::V,
            "prev" => Key::Prev,
            "event" => Key::Event,
            "iteration" => Key::Iteration,
            "objective" => Key::Objective,
            "metric" => Key::Metric,
            "memory_mb" => Key::MemoryMb,
            "crash_phase" => Key::CrashPhase,
            "build_skipped" => Key::BuildSkipped,
            "duration_s" => Key::DurationS,
            "finished_at_s" => Key::FinishedAtS,
            "algo_memory_bytes" => Key::AlgoMemoryBytes,
            "epoch" => Key::Epoch,
            "first_iteration" => Key::FirstIteration,
            "at_s" => Key::AtS,
            "transfer" => Key::Transfer,
            "phase" => Key::Phase,
            "oracle_metric" => Key::OracleMetric,
            "at_iteration" => Key::AtIteration,
            "detector" => Key::Detector,
            "signal" => Key::Signal,
            "baseline" => Key::Baseline,
            "wave" => Key::Wave,
            "size" => Key::Size,
            "wall_s" => Key::WallS,
            "busy_s" => Key::BusyS,
            "cache_hits" => Key::CacheHits,
            "cache_misses" => Key::CacheMisses,
            _ => return None,
        })
    }
}

/// The fields of one event line the loader reads, without a document
/// tree: for each [`Key`], its first occurrence (what [`JsonValue::get`]
/// finds in a tree of the line), and the first `config` decoded straight
/// into a [`Configuration`]. Scalars are kept as [`JsonValue`]s, so the
/// loader applies the tree's type rules; a nested value under a key is
/// read past and kept as an empty array, which every scalar accessor
/// refuses just as it refuses the value it stands for.
struct LineView<'a> {
    fields: [Option<JsonValue<'a>>; KEYS],
    /// `None` when the line has no `config`; `Some(None)` when the first
    /// one is not an array of valid value tokens.
    config: Option<Option<Configuration>>,
}

impl<'a> LineView<'a> {
    fn get(&self, key: Key) -> Option<&JsonValue<'a>> {
        self.fields[key as usize].as_ref()
    }
}

/// Reads one ledger line as [`SessionStore::load`] needs it: every
/// field of its [`LineView`], the configuration included.
fn read_line<'t>(line: &'t str, values: &mut Vec<Value>) -> Result<LineView<'t>, JsonError> {
    read_view(line, Some(values))
}

/// Reads one ledger line as [`SessionStore::verify_chain`] needs it:
/// its `config` is validated but not decoded.
fn read_chain<'t>(line: &'t str, _: &mut Vec<Value>) -> Result<LineView<'t>, JsonError> {
    read_view(line, None)
}

/// Reads one ledger line with a [`JsonCursor`], decoding its first
/// `config` through `values` when given. The whole line is validated,
/// skipped values included, so a line this reader accepts is exactly a
/// line [`JsonValue::parse`] accepts, and a rejected line fails with the
/// same error. A line that is not an object leaves every field empty.
fn read_view<'t>(
    line: &'t str,
    mut values: Option<&mut Vec<Value>>,
) -> Result<LineView<'t>, JsonError> {
    let mut view = LineView {
        fields: [const { None }; KEYS],
        config: None,
    };
    let mut cursor = JsonCursor::new(line);
    if cursor.kind() == Kind::Obj {
        cursor.open()?;
        let mut first = true;
        while let Some(key) = cursor.next_key(first)? {
            first = false;
            if key == "config" && view.config.is_none() {
                if let Some(values) = values.as_deref_mut() {
                    view.config = Some(read_config(&mut cursor, values)?);
                    continue;
                }
            }
            let slot = match Key::of(&key) {
                Some(k) if view.fields[k as usize].is_none() => &mut view.fields[k as usize],
                _ => {
                    cursor.skip()?;
                    continue;
                }
            };
            *slot = Some(match cursor.kind() {
                Kind::Str => JsonValue::Str(cursor.string()?),
                Kind::Other => cursor.scalar()?,
                Kind::Arr | Kind::Obj => {
                    cursor.skip()?;
                    JsonValue::Arr(Vec::new())
                }
            });
        }
    } else {
        cursor.skip()?;
    }
    cursor.finish()?;
    Ok(view)
}

/// Reads the `config` value at the cursor: its value tokens decoded
/// into a configuration, or `None` when it is not an array of valid
/// tokens (read past and validated all the same). The tokens are
/// decoded into `values`, a buffer kept from line to line, and the
/// configuration is collected from it in one allocation.
fn read_config(
    cursor: &mut JsonCursor,
    values: &mut Vec<Value>,
) -> Result<Option<Configuration>, JsonError> {
    if cursor.kind() != Kind::Arr {
        cursor.skip()?;
        return Ok(None);
    }
    cursor.open()?;
    values.clear();
    let mut valid = true;
    let mut first = true;
    while cursor.next_item(first)? {
        first = false;
        let value = if cursor.kind() == Kind::Str {
            token_value(&cursor.string()?)
        } else {
            cursor.skip()?;
            None
        };
        match value {
            Some(value) if valid => values.push(value),
            _ => valid = false,
        }
    }
    Ok(valid.then(|| values.iter().copied().collect()))
}

fn record_from_view(v: &mut LineView) -> Option<Record> {
    Some(Record {
        iteration: v.get(Key::Iteration)?.as_usize()?,
        objective: v.get(Key::Objective)?.as_f64(),
        metric: v.get(Key::Metric)?.as_f64(),
        memory_mb: v.get(Key::MemoryMb)?.as_f64(),
        crash_phase: match v.get(Key::CrashPhase)? {
            JsonValue::Null => None,
            other => Some(phase_from_str(other.as_str()?)?),
        },
        build_skipped: v.get(Key::BuildSkipped)?.as_bool()?,
        duration_s: v.get(Key::DurationS)?.as_f64()?,
        finished_at_s: v.get(Key::FinishedAtS)?.as_f64()?,
        algo_memory_bytes: v.get(Key::AlgoMemoryBytes)?.as_usize()?,
        config: v.config.take()??,
    })
}

fn epoch_from_view(v: &LineView) -> Option<StoredEpoch> {
    Some(StoredEpoch {
        epoch: v.get(Key::Epoch)?.as_usize()?,
        first_iteration: v.get(Key::FirstIteration)?.as_usize()?,
        at_s: v.get(Key::AtS)?.as_f64()?,
        transfer: v.get(Key::Transfer)?.as_bool()?,
        phase: v.get(Key::Phase)?.as_str()?.to_string(),
        oracle_metric: v.get(Key::OracleMetric)?.as_f64()?,
    })
}

fn drift_from_view(v: &LineView) -> Option<StoredDrift> {
    Some(StoredDrift {
        epoch: v.get(Key::Epoch)?.as_usize()?,
        at_iteration: v.get(Key::AtIteration)?.as_usize()?,
        at_s: v.get(Key::AtS)?.as_f64()?,
        detector: v.get(Key::Detector)?.as_str()?.to_string(),
        signal: v.get(Key::Signal)?.as_f64()?,
        baseline: v.get(Key::Baseline)?.as_f64()?,
    })
}

fn wave_stats_from_view(v: &LineView) -> Option<WaveStats> {
    Some(WaveStats {
        wave: v.get(Key::Wave)?.as_usize()?,
        size: v.get(Key::Size)?.as_usize()?,
        wall_s: v.get(Key::WallS)?.as_f64()?,
        busy_s: v.get(Key::BusyS)?.as_f64()?,
        cache_hits: v.get(Key::CacheHits)?.as_u64()?,
        cache_misses: v.get(Key::CacheMisses)?.as_u64()?,
    })
}

/// Writes one [`SessionEvent`] into `out` as a versioned JSON object
/// (no trailing newline): the one event encoder, behind both the
/// ledger's lines and the daemon's watch frames. With `chain`, the
/// object carries `prev` — that hash in [`chain_hex`] spelling — right
/// after the version stamp, as every ledger line does.
///
/// The object is streamed field by field, with no document tree in
/// between; its bytes are exactly what [`JsonValue::encode`] makes of
/// the same fields, so a line re-encodes to itself after a parse.
///
/// # Examples
///
/// ```
/// use wf_platform::store::write_event;
/// use wf_platform::SessionEvent;
///
/// let mut line = String::new();
/// write_event(&SessionEvent::CheckpointWritten { iterations: 4 }, Some(0xab), &mut line);
/// assert_eq!(
///     line,
///     r#"{"v":3,"prev":"00000000000000ab","event":"checkpoint","iterations":4}"#
/// );
/// ```
pub fn write_event(event: &SessionEvent, chain: Option<u64>, out: &mut String) {
    out.push_str(LINE_START);
    if let Some(prev) = chain {
        out.push_str(",\"prev\":\"");
        push_chain_hex(prev, out);
        out.push('"');
    }
    let mut f = Fields { out };
    match event {
        SessionEvent::SessionStarted {
            descriptor,
            seed,
            workers,
            first_iteration,
        } => {
            f.str("event", "session_started");
            f.str("target", &descriptor.name);
            f.str("app", &descriptor.app);
            f.str("metric", &descriptor.metric);
            f.u64("seed", *seed);
            f.int("workers", *workers as i64);
            f.int("first_iteration", *first_iteration as i64);
        }
        SessionEvent::WaveDispatched {
            wave,
            first_iteration,
            size,
        } => {
            f.str("event", "wave_dispatched");
            f.int("wave", *wave as i64);
            f.int("first_iteration", *first_iteration as i64);
            f.int("size", *size as i64);
        }
        SessionEvent::CandidateEvaluated(r) => {
            f.str("event", "candidate");
            f.int("iteration", r.iteration as i64);
            f.config("config", &r.config);
            f.opt_num("objective", r.objective);
            f.opt_num("metric", r.metric);
            f.opt_num("memory_mb", r.memory_mb);
            match r.crash_phase {
                None => f.null("crash_phase"),
                Some(p) => f.str("crash_phase", phase_str(p)),
            }
            f.bool("build_skipped", r.build_skipped);
            f.num("duration_s", r.duration_s);
            f.num("finished_at_s", r.finished_at_s);
            f.int("algo_memory_bytes", r.algo_memory_bytes as i64);
        }
        SessionEvent::NewBest {
            iteration,
            objective,
        } => {
            f.str("event", "new_best");
            f.int("iteration", *iteration as i64);
            f.num("objective", *objective);
        }
        SessionEvent::DriftDetected {
            epoch,
            at_iteration,
            at_s,
            detector,
            signal,
            baseline,
        } => {
            f.str("event", "drift_detected");
            f.int("epoch", *epoch as i64);
            f.int("at_iteration", *at_iteration as i64);
            f.num("at_s", *at_s);
            f.str("detector", detector);
            f.num("signal", *signal);
            f.num("baseline", *baseline);
        }
        SessionEvent::EpochStarted {
            epoch,
            first_iteration,
            at_s,
            transfer,
            phase,
            oracle_metric,
        } => {
            f.str("event", "epoch_started");
            f.int("epoch", *epoch as i64);
            f.int("first_iteration", *first_iteration as i64);
            f.num("at_s", *at_s);
            f.bool("transfer", *transfer);
            f.str("phase", phase);
            f.num("oracle_metric", *oracle_metric);
        }
        SessionEvent::WaveCompleted(w) => {
            f.str("event", "wave_completed");
            f.int("wave", w.wave as i64);
            f.int("size", w.size as i64);
            f.num("wall_s", w.wall_s);
            f.num("busy_s", w.busy_s);
            f.int("cache_hits", w.cache_hits as i64);
            f.int("cache_misses", w.cache_misses as i64);
        }
        SessionEvent::CheckpointWritten { iterations } => {
            f.str("event", "checkpoint");
            f.int("iterations", *iterations as i64);
        }
        SessionEvent::SessionFinished(summary) => {
            f.str("event", "session_finished");
            f.int("iterations", summary.iterations as i64);
            f.num("crash_rate", summary.crash_rate);
            f.num("elapsed_s", summary.elapsed_s);
            f.num("compute_s", summary.compute_s);
            f.int("waves", summary.waves as i64);
            f.int("workers", summary.workers as i64);
        }
    }
    f.out.push('}');
}

/// The fields after the first of one JSON object being streamed into a
/// buffer, each written with its leading comma. Keys are the encoder's
/// own ASCII names, which need no escaping; values follow
/// [`JsonValue::encode`]'s rules. Ledger lines and `wf-evald` frames are
/// both written through it.
pub(crate) struct Fields<'a> {
    pub(crate) out: &'a mut String,
}

impl Fields<'_> {
    pub(crate) fn key(&mut self, key: &str) {
        self.out.push_str(",\"");
        self.out.push_str(key);
        self.out.push_str("\":");
    }

    pub(crate) fn null(&mut self, key: &str) {
        self.key(key);
        self.out.push_str("null");
    }

    pub(crate) fn bool(&mut self, key: &str, v: bool) {
        self.key(key);
        self.out.push_str(if v { "true" } else { "false" });
    }

    pub(crate) fn int(&mut self, key: &str, v: i64) {
        self.key(key);
        push_i64(v, self.out);
    }

    /// A `u64` as a decimal string, so the full range survives where the
    /// i64-based integer literal would not.
    pub(crate) fn u64(&mut self, key: &str, v: u64) {
        self.key(key);
        self.out.push('"');
        push_u64(v, self.out);
        self.out.push('"');
    }

    pub(crate) fn num(&mut self, key: &str, v: f64) {
        self.key(key);
        push_f64(v, self.out);
    }

    /// `null` for `None`, like a non-finite float.
    fn opt_num(&mut self, key: &str, v: Option<f64>) {
        match v {
            Some(v) => self.num(key, v),
            None => self.null(key),
        }
    }

    pub(crate) fn str(&mut self, key: &str, v: &str) {
        self.key(key);
        encode_string(v, self.out);
    }

    /// A configuration as its array of value tokens.
    pub(crate) fn config(&mut self, key: &str, config: &Configuration) {
        self.key(key);
        self.out.push('[');
        for (i, v) in config.values().iter().enumerate() {
            if i > 0 {
                self.out.push(',');
            }
            // Tokens are ASCII letters, digits and `-`: nothing to escape.
            self.out.push('"');
            push_value_token(v, self.out);
            self.out.push('"');
        }
        self.out.push(']');
    }
}

// ---------------------------------------------------------------------------
// The sink and the store.
// ---------------------------------------------------------------------------

/// An [`EventSink`] appending every event to a store's `events.jsonl`.
///
/// Writes are batched per wave: events accumulate (already encoded and
/// hash-chained) in an in-memory buffer, and one `write` syscall plus a
/// flush lands the whole wave — its candidates, any epoch lines, its
/// `wave_completed`, and the trailing `checkpoint` line marking how many
/// evaluations are durable (the [`SessionEvent::CheckpointWritten`]
/// moment of the stream) — at the wave boundary. `SessionStarted` and
/// `SessionFinished` commit immediately, so segment markers are durable
/// before any compute burns. Torn-tail semantics are unchanged: a kill
/// lands either before a wave's single write (the wave is simply absent)
/// or inside it (a clean prefix plus at most one torn line, which the
/// loader heals). I/O errors are sticky: the first one is kept (see
/// [`JsonlSink::error`]) and subsequent events are dropped rather than
/// panicking mid-session.
pub struct JsonlSink {
    file: File,
    /// Encoded, chained, newline-terminated lines of the in-flight wave.
    buf: String,
    iterations: usize,
    checkpoints: usize,
    prev: u64,
    error: Option<io::Error>,
}

impl JsonlSink {
    /// Opens `path` in append mode (creating it if missing). A torn
    /// final line left by a killed writer is truncated away first: the
    /// loader ignores it anyway, and appending after it would glue the
    /// next event onto the fragment — turning a tolerated torn tail into
    /// hard mid-file corruption on every later load. The hash chain is
    /// seeded from the surviving tail line, so a resumed log stays one
    /// unbroken chain across run segments.
    pub fn append(path: &Path) -> io::Result<JsonlSink> {
        let prev = heal_torn_tail(path)?;
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(JsonlSink {
            file,
            buf: String::new(),
            iterations: 0,
            checkpoints: 0,
            prev,
            error: None,
        })
    }

    /// Number of checkpoint lines written by this sink.
    pub fn checkpoints(&self) -> usize {
        self.checkpoints
    }

    /// The first I/O error hit, if any — callers should check after the
    /// run, since [`EventSink::on_event`] cannot report failures.
    pub fn error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    /// Commits any buffered lines and flushes them to the OS. The
    /// buffer is emptied either way and keeps its capacity for the next
    /// wave.
    pub fn flush(&mut self) -> io::Result<()> {
        if !self.buf.is_empty() {
            let written = self.file.write_all(self.buf.as_bytes());
            self.buf.clear();
            written?;
        }
        self.file.flush()
    }

    /// Encodes, chains, and buffers one line (no I/O): the line is
    /// written straight into the wave buffer and hashed where it lies.
    fn buffer_line(&mut self, event: &SessionEvent) {
        if self.error.is_some() {
            return;
        }
        let start = self.buf.len();
        write_event(event, Some(self.prev), &mut self.buf);
        self.prev = line_hash(&self.buf[start..]);
        self.buf.push('\n');
    }

    /// Writes the buffered lines with one syscall and flushes.
    fn commit(&mut self) {
        if self.error.is_some() {
            self.buf.clear();
            return;
        }
        if let Err(e) = self.flush() {
            self.error = Some(e);
        }
    }
}

/// Truncates an unterminated final line (the signature of a writer
/// killed mid-write) so the log ends at a record boundary again, and
/// returns the chain state a sink appending to `path` starts from: the
/// hash of the last non-blank line that remains, or [`CHAIN_GENESIS`]
/// for a missing or empty log. Lines split as [`str::lines`] splits
/// them. The log is read backward from its end in [`TAIL_CHUNK`] pieces,
/// only as far as that line, so reopening a long log costs a few reads
/// however long it is; only the lines walked back over must be UTF-8.
fn heal_torn_tail(path: &Path) -> io::Result<u64> {
    let mut log = match OpenOptions::new().read(true).write(true).open(path) {
        Ok(log) => log,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(CHAIN_GENESIS),
        Err(e) => return Err(e),
    };
    let len = log.metadata()?.len();
    let keep = line_start(&mut log, len)?;
    if keep < len {
        log.set_len(keep)?;
    }
    let mut line = Vec::new();
    let mut end = keep;
    while end > 0 {
        // Each remaining line ends in a newline at `end - 1`.
        let start = line_start(&mut log, end - 1)?;
        line.resize((end - 1 - start) as usize, 0);
        log.seek(SeekFrom::Start(start))?;
        log.read_exact(&mut line)?;
        let text = std::str::from_utf8(line.strip_suffix(b"\r").unwrap_or(&line))
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        if !text.trim().is_empty() {
            return Ok(line_hash(text));
        }
        end = start;
    }
    Ok(CHAIN_GENESIS)
}

/// Bytes [`heal_torn_tail`] reads per step back from the end of a log:
/// more than one candidate line of a large configuration space.
const TAIL_CHUNK: usize = 1 << 14;

/// The offset just past the last newline among the first `end` bytes of
/// `log`, or 0 if there is none, read backward in [`TAIL_CHUNK`] pieces.
fn line_start(log: &mut File, end: u64) -> io::Result<u64> {
    let mut chunk = [0; TAIL_CHUNK];
    let mut pos = end;
    while pos > 0 {
        let n = pos.min(TAIL_CHUNK as u64) as usize;
        pos -= n as u64;
        log.seek(SeekFrom::Start(pos))?;
        log.read_exact(&mut chunk[..n])?;
        if let Some(i) = chunk[..n].iter().rposition(|&b| b == b'\n') {
            return Ok(pos + i as u64 + 1);
        }
    }
    Ok(0)
}

impl EventSink for JsonlSink {
    fn on_event(&mut self, event: &SessionEvent) {
        self.buffer_line(event);
        match event {
            SessionEvent::CandidateEvaluated(r) => self.iterations = r.iteration + 1,
            SessionEvent::WaveCompleted(_) if self.error.is_none() => {
                // One write for the whole wave, checkpoint line included:
                // the store either has the complete wave or none of it
                // (modulo a torn final line, which the loader heals).
                self.checkpoints += 1;
                let iterations = self.iterations;
                self.buffer_line(&SessionEvent::CheckpointWritten { iterations });
                self.commit();
            }
            // Segment markers are durable immediately.
            SessionEvent::SessionStarted { .. } | SessionEvent::SessionFinished(_) => {
                self.commit();
            }
            _ => {}
        }
    }
}

/// Errors opening, reading, or writing a session store.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem failure.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// `create` refused to overwrite an existing store.
    AlreadyExists {
        /// The existing manifest path.
        path: PathBuf,
    },
    /// The directory has no manifest — not a session store.
    NotAStore {
        /// The missing manifest path.
        path: PathBuf,
    },
    /// The manifest exists but does not parse as a job file.
    Manifest {
        /// The manifest path.
        path: PathBuf,
        /// The job-file parse error.
        message: String,
    },
    /// An event line (other than a torn final line) failed to parse or
    /// is inconsistent with the lines before it.
    Corrupt {
        /// The event-log path.
        path: PathBuf,
        /// One-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { path, source } => write!(f, "{}: {source}", path.display()),
            StoreError::AlreadyExists { path } => write!(
                f,
                "{} already exists — resume it or pick a fresh directory",
                path.display()
            ),
            StoreError::NotAStore { path } => {
                write!(f, "{} not found — not a session store", path.display())
            }
            StoreError::Manifest { path, message } => {
                write!(f, "{}: {message}", path.display())
            }
            StoreError::Corrupt {
                path,
                line,
                message,
            } => write!(f, "{} line {line}: {message}", path.display()),
        }
    }
}

impl std::error::Error for StoreError {}

/// One `epoch_started` line of a continuous session, as stored.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredEpoch {
    /// Zero-based epoch index.
    pub epoch: usize,
    /// Global iteration index of the epoch's first candidate.
    pub first_iteration: usize,
    /// Virtual compute time the epoch opened at.
    pub at_s: f64,
    /// Whether the epoch's search was transfer-seeded.
    pub transfer: bool,
    /// Workload phase active when the epoch opened.
    pub phase: String,
    /// Ground-truth oracle metric of that phase.
    pub oracle_metric: f64,
}

/// One `drift_detected` line of a continuous session, as stored.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredDrift {
    /// The epoch the detection closed.
    pub epoch: usize,
    /// Iteration whose telemetry sample triggered the verdict.
    pub at_iteration: usize,
    /// Virtual compute time of that sample.
    pub at_s: f64,
    /// Detector name.
    pub detector: String,
    /// The detector's signal estimate at the verdict.
    pub signal: f64,
    /// The detector's frozen baseline estimate.
    pub baseline: f64,
}

/// Everything a store's event log contained, reduced to replayable form.
///
/// Only *complete* waves are kept: candidates written before a crash that
/// never saw their `wave_completed` line are counted in
/// [`StoredSession::dropped_records`] and re-evaluated on resume (their
/// iteration indices are re-proposed identically, so nothing is lost but
/// the partial wave's compute). Epoch and drift lines of a dropped wave
/// are dropped with it — resume re-detects the same boundary.
#[derive(Clone, Debug)]
pub struct StoredSession {
    /// The resolved job from the manifest.
    pub job: Job,
    /// Records of every complete wave, in iteration order.
    pub records: Vec<Record>,
    /// Wave shapes covering `records`, oldest first.
    pub wave_sizes: Vec<usize>,
    /// Per-wave scheduling stats, as stored.
    pub wave_stats: Vec<WaveStats>,
    /// `(iteration, objective)` of every stored best improvement.
    pub new_bests: Vec<(usize, f64)>,
    /// Epoch records of a continuous session, in epoch order (empty for
    /// one-shot sessions).
    pub epochs: Vec<StoredEpoch>,
    /// Confirmed drift detections, oldest first.
    pub drift_events: Vec<StoredDrift>,
    /// Checkpoint lines seen.
    pub checkpoints: usize,
    /// Whether a `session_finished` line closed the log.
    pub finished: bool,
    /// Trailing candidate records dropped because their wave never
    /// completed (plus any torn final line).
    pub dropped_records: usize,
}

/// A session store directory: `manifest.yaml` + `events.jsonl`.
#[derive(Clone, Debug)]
pub struct SessionStore {
    dir: PathBuf,
}

impl SessionStore {
    /// Creates a fresh store at `dir` (creating the directory) and writes
    /// the manifest. Refuses to clobber an existing store.
    pub fn create(dir: impl AsRef<Path>, job: &Job) -> Result<SessionStore, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(|source| StoreError::Io {
            path: dir.clone(),
            source,
        })?;
        let manifest = dir.join(MANIFEST_FILE);
        if manifest.exists() {
            return Err(StoreError::AlreadyExists { path: manifest });
        }
        std::fs::write(&manifest, job.to_yaml()).map_err(|source| StoreError::Io {
            path: manifest.clone(),
            source,
        })?;
        Ok(SessionStore { dir })
    }

    /// Opens an existing store.
    pub fn open(dir: impl AsRef<Path>) -> Result<SessionStore, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        let manifest = dir.join(MANIFEST_FILE);
        if !manifest.exists() {
            return Err(StoreError::NotAStore { path: manifest });
        }
        Ok(SessionStore { dir })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the event log.
    pub fn events_path(&self) -> PathBuf {
        self.dir.join(EVENTS_FILE)
    }

    /// Parses the manifest back into a [`Job`].
    pub fn manifest(&self) -> Result<Job, StoreError> {
        let path = self.dir.join(MANIFEST_FILE);
        let text = std::fs::read_to_string(&path).map_err(|source| StoreError::Io {
            path: path.clone(),
            source,
        })?;
        Job::parse(&text).map_err(|e| StoreError::Manifest {
            path,
            message: e.to_string(),
        })
    }

    /// Rewrites the manifest (e.g. a resume that extends the budget keeps
    /// the manifest authoritative for the *current* resolved job).
    pub fn rewrite_manifest(&self, job: &Job) -> Result<(), StoreError> {
        let path = self.dir.join(MANIFEST_FILE);
        std::fs::write(&path, job.to_yaml()).map_err(|source| StoreError::Io { path, source })
    }

    /// Opens the event log for appending.
    pub fn sink(&self) -> Result<JsonlSink, StoreError> {
        let path = self.events_path();
        JsonlSink::append(&path).map_err(|source| StoreError::Io { path, source })
    }

    /// Loads the manifest and replays the event log into a
    /// [`StoredSession`]. A missing log is an empty (never-run) session;
    /// a torn final line and a trailing incomplete wave are dropped.
    pub fn load(&self) -> Result<StoredSession, StoreError> {
        self.load_with(read_line)
    }

    /// [`SessionStore::load`] with each line read by `read`.
    fn load_with(&self, read: LineReader) -> Result<StoredSession, StoreError> {
        self.load_walking(walk_log, read)
    }

    /// [`SessionStore::load`] with the log walked by `walk` and each line
    /// read by `read`.
    fn load_walking(&self, walk: LogWalk, read: LineReader) -> Result<StoredSession, StoreError> {
        let job = self.manifest()?;
        let path = self.events_path();
        let mut out = StoredSession {
            job,
            records: Vec::new(),
            wave_sizes: Vec::new(),
            wave_stats: Vec::new(),
            new_bests: Vec::new(),
            epochs: Vec::new(),
            drift_events: Vec::new(),
            checkpoints: 0,
            finished: false,
            dropped_records: 0,
        };
        // Candidates of the wave currently being read.
        let mut pending: Vec<Record> = Vec::new();
        walk(&path, read, &mut |view| {
            let kind = view
                .get(Key::Event)
                .and_then(JsonValue::as_str)
                .ok_or("missing event tag")?;
            match kind {
                "session_started" => {
                    // A new run segment: candidates of an incomplete wave
                    // from the previous segment were never observed by the
                    // algorithm and will be re-evaluated — along with any
                    // best-improvement markers they had already logged.
                    // Epoch and drift lines of that wave go too: the
                    // resumed segment re-detects the boundary and logs
                    // identical lines (the scan is deterministic).
                    out.dropped_records += pending.len();
                    pending.clear();
                    out.new_bests.retain(|(i, _)| *i < out.records.len());
                    out.drift_events
                        .retain(|d| d.at_iteration < out.records.len());
                    out.epochs
                        .retain(|e| e.first_iteration <= out.records.len());
                    out.finished = false;
                }
                "candidate" => {
                    let record = record_from_view(view).ok_or("malformed candidate record")?;
                    let expected = out.records.len() + pending.len();
                    if record.iteration != expected {
                        return Err(format!(
                            "iteration {} where {expected} was expected",
                            record.iteration
                        ));
                    }
                    pending.push(record);
                }
                "wave_completed" => {
                    let stats = wave_stats_from_view(view).ok_or("malformed wave stats")?;
                    if stats.size != pending.len() {
                        return Err(format!(
                            "wave of {} completed but {} candidate(s) were recorded",
                            stats.size,
                            pending.len()
                        ));
                    }
                    out.wave_sizes.push(stats.size);
                    out.wave_stats.push(stats);
                    out.records.append(&mut pending);
                }
                "new_best" => {
                    let iteration = view
                        .get(Key::Iteration)
                        .and_then(JsonValue::as_usize)
                        .ok_or("malformed new_best")?;
                    let objective = view
                        .get(Key::Objective)
                        .and_then(JsonValue::as_f64)
                        .ok_or("malformed new_best")?;
                    out.new_bests.push((iteration, objective));
                }
                "drift_detected" => {
                    let drift = drift_from_view(view).ok_or("malformed drift_detected")?;
                    out.drift_events.push(drift);
                }
                "epoch_started" => {
                    let epoch = epoch_from_view(view).ok_or("malformed epoch_started")?;
                    // A resumed segment re-announces the epoch it picks
                    // up in (epoch 0 on every fresh-start retry, a
                    // re-detected boundary after a dropped wave): the
                    // latest line wins, deduplicated by epoch index.
                    out.epochs.retain(|e| e.epoch != epoch.epoch);
                    out.epochs.push(epoch);
                }
                "checkpoint" => out.checkpoints += 1,
                "session_finished" => out.finished = true,
                // Dispatch markers and future event kinds are informative
                // only.
                _ => {}
            }
            Ok(())
        })?;
        out.dropped_records += pending.len();
        out.new_bests.retain(|(i, _)| *i < out.records.len());
        // A torn tail drops its wave's epoch and drift lines with it; an
        // epoch that opened exactly at the end of the kept records (its
        // first candidate never ran) is kept — resume continues in it.
        out.drift_events
            .retain(|d| d.at_iteration < out.records.len());
        out.epochs
            .retain(|e| e.first_iteration <= out.records.len());
        out.epochs.sort_by_key(|e| e.epoch);
        Ok(out)
    }

    /// Verifies the event log's per-record hash chain without replaying
    /// it: every line must carry [`FORMAT_VERSION`] and a `prev` equal to
    /// the hash of the line before it. Tolerates exactly what the loader
    /// tolerates — a missing log and a torn (unparseable) final line —
    /// because both walk the log through the same routine. Returns the
    /// number of chained lines verified.
    ///
    /// # Examples
    ///
    /// ```
    /// use wf_jobfile::Job;
    /// use wf_platform::SessionStore;
    ///
    /// let dir = std::env::temp_dir().join(format!("wf-verify-doc-{}", std::process::id()));
    /// let _ = std::fs::remove_dir_all(&dir);
    /// let store = SessionStore::create(&dir, &Job::default()).unwrap();
    /// assert_eq!(store.verify_chain().unwrap(), 0); // never run: empty log
    /// std::fs::remove_dir_all(&dir).unwrap();
    /// ```
    pub fn verify_chain(&self) -> Result<usize, StoreError> {
        self.verify_with(read_chain)
    }

    /// [`SessionStore::verify_chain`] with each line read by `read`.
    fn verify_with(&self, read: LineReader) -> Result<usize, StoreError> {
        walk_log(&self.events_path(), read, &mut |_| Ok(()))
    }
}

/// How the walk reads one line into its fields: [`read_line`] for
/// `load`, [`read_chain`] for `verify_chain`. The tests also walk with
/// the tree-building reader the streaming one replaced, as the oracle.
/// The second argument is a buffer the walk lends every line, for
/// decoding its configuration.
type LineReader = for<'t> fn(&'t str, &mut Vec<Value>) -> Result<LineView<'t>, JsonError>;

/// What the walk does with each verified line's fields; an error is
/// corruption at that line.
type LineVisit<'v> = dyn FnMut(&mut LineView) -> Result<(), String> + 'v;

/// How a log is walked: [`walk_log`], or in the tests the whole-text walk
/// it replaced, as the oracle. Returns the number of lines verified.
type LogWalk = fn(&Path, LineReader, &mut LineVisit) -> Result<usize, StoreError>;

/// The one walk over an event log, shared by [`SessionStore::load`] and
/// [`SessionStore::verify_chain`]. A missing log is an empty one; an
/// existing one is walked by [`walk_lines`].
fn walk_log(path: &Path, read: LineReader, visit: &mut LineVisit) -> Result<usize, StoreError> {
    match File::open(path) {
        Ok(file) => walk_lines(path, BufReader::with_capacity(1 << 16, file), read, visit),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(0),
        Err(source) => Err(StoreError::Io {
            path: path.to_path_buf(),
            source,
        }),
    }
}

/// Walks the lines of the log at `path`, read from `log`. It holds one
/// line at a time, so its memory does not grow with the log.
///
/// Lines split as [`str::lines`] splits them: at `\n`, with one `\r`
/// before it dropped, and a final line without a newline still counts;
/// line numbers count blank lines. Blank lines are skipped. A *final*
/// line that is not UTF-8 or does not parse is the torn tail of a killed
/// writer and ends the walk. A line the read ended without a newline
/// is final; a line with one is final when no byte follows it. A line
/// cut short is judged by its missing newline alone: a second read
/// after the end of the file may find bytes a live writer has appended
/// since, which do not make the cut line whole. Every other line must be
/// UTF-8, parse, carry [`FORMAT_VERSION`], and carry as `prev` the
/// [`line_hash`] of the line before it. `visit` then sees the line's
/// fields.
fn walk_lines(
    path: &Path,
    mut log: impl BufRead,
    read: LineReader,
    visit: &mut LineVisit,
) -> Result<usize, StoreError> {
    let io_error = |source| StoreError::Io {
        path: path.to_path_buf(),
        source,
    };
    let mut buf = Vec::new();
    let mut values = Vec::new();
    let mut chain = CHAIN_GENESIS;
    let mut verified = 0;
    let mut number = 0;
    loop {
        buf.clear();
        if log.read_until(b'\n', &mut buf).map_err(io_error)? == 0 {
            break;
        }
        number += 1;
        let ended = buf.last() == Some(&b'\n');
        if ended {
            buf.pop();
            if buf.last() == Some(&b'\r') {
                buf.pop();
            }
        }
        let mut is_final = || -> Result<bool, StoreError> {
            Ok(!ended || log.fill_buf().map_err(io_error)?.is_empty())
        };
        let corrupt = |message| StoreError::Corrupt {
            path: path.to_path_buf(),
            line: number,
            message,
        };
        let raw = match std::str::from_utf8(&buf) {
            Ok(raw) => raw,
            Err(_) if is_final()? => break,
            Err(e) => return Err(corrupt(format!("not UTF-8: {e}"))),
        };
        if raw.trim().is_empty() {
            continue;
        }
        let mut view = match read(raw, &mut values) {
            Ok(view) => view,
            Err(_) if is_final()? => break,
            Err(e) => return Err(corrupt(format!("bad JSON: {e}"))),
        };
        check_chain(&view, chain)
            .and_then(|()| visit(&mut view))
            .map_err(corrupt)?;
        chain = line_hash(raw);
        verified += 1;
    }
    Ok(verified)
}

/// Checks one read log line's version stamp and its `prev` hash
/// against `chain`, the hash of the line before it. An escaped `prev`
/// is compared unescaped.
fn check_chain(view: &LineView, chain: u64) -> Result<(), String> {
    let version = view.get(Key::V).and_then(JsonValue::as_i64).unwrap_or(-1);
    if version != FORMAT_VERSION {
        return Err(format!("unsupported store version {version}"));
    }
    let prev = view
        .get(Key::Prev)
        .and_then(JsonValue::as_str)
        .ok_or("record missing prev hash")?;
    if prev.as_bytes() != hex_digits(chain) {
        return Err(format!(
            "hash chain broken: prev is {prev} but the prior line hashes to {}",
            chain_hex(chain)
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::DriftConfig;
    use crate::pipeline::{Session, SessionSpec};
    use wf_drift::MeanShift;
    use wf_jobfile::Budget;
    use wf_kconfig::LinuxVersion;
    use wf_ossim::{App, AppId, DriftScenario, DriftSchedule, SimOs};
    use wf_search::RandomSearch;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("wf-store-test-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn session(iters: usize, workers: usize) -> Session {
        Session::new(
            SimOs::linux_runtime(LinuxVersion::V4_19, 56),
            App::by_id(AppId::Nginx),
            Box::new(RandomSearch::new()),
            SessionSpec {
                budget: Budget {
                    iterations: Some(iters),
                    time_seconds: None,
                },
                seed: 5,
                workers,
                ..SessionSpec::default()
            },
        )
    }

    fn drift_session(iters: usize, workers: usize) -> Session {
        let os = SimOs::linux_runtime(LinuxVersion::V4_19, 56);
        let app = App::by_id(AppId::Nginx);
        let schedule = DriftSchedule::scenario(DriftScenario::Step, &os, &app, 900.0);
        let mut s = Session::new(
            os,
            app,
            Box::new(RandomSearch::new()),
            SessionSpec {
                budget: Budget {
                    iterations: Some(iters),
                    time_seconds: None,
                },
                seed: 5,
                workers,
                ..SessionSpec::default()
            },
        );
        s.enable_drift(DriftConfig {
            schedule,
            detector: Box::new(MeanShift::new(6, 0.15)),
            min_epoch: 8,
            transfer: false,
        });
        s
    }

    #[test]
    fn continuous_store_round_trips_epochs() {
        let dir = temp_dir("epochs");
        let store = SessionStore::create(&dir, &Job::default()).unwrap();
        let mut s = drift_session(60, 2);
        {
            let mut sink = store.sink().unwrap();
            let _ = s.run_with(&mut sink);
            assert!(sink.error().is_none());
        }
        let loaded = store.load().unwrap();
        assert_eq!(loaded.records.len(), 60);
        assert!(loaded.epochs.len() >= 2, "the step must close epoch 0");
        assert_eq!(loaded.epochs[0].epoch, 0);
        assert_eq!(loaded.epochs[0].first_iteration, 0);
        assert!(!loaded.epochs[0].transfer);
        assert_eq!(loaded.drift_events.len(), loaded.epochs.len() - 1);
        for d in &loaded.drift_events {
            assert!(d.at_iteration < loaded.records.len());
            assert_eq!(d.detector, "mean-shift");
        }
        for pair in loaded.epochs.windows(2) {
            assert_eq!(pair[0].epoch + 1, pair[1].epoch);
            assert!(pair[0].first_iteration < pair[1].first_iteration);
        }
        assert_eq!(s.epoch() + 1, loaded.epochs.len());
        store.verify_chain().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_dropped_wave_takes_its_epoch_events_with_it() {
        // Drift events land inside their closing wave; a torn tail that
        // drops the wave's records must drop the epoch transition too,
        // or a resume would re-detect the same drift and double-count
        // epochs.
        let dir = temp_dir("epochdrop");
        let store = SessionStore::create(&dir, &Job::default()).unwrap();
        let mut s = drift_session(60, 2);
        {
            let mut sink = store.sink().unwrap();
            let _ = s.run_with(&mut sink);
        }
        let before = store.load().unwrap();
        // Append an incomplete wave carrying an epoch transition.
        let mut extra = s.history().records()[0].clone();
        extra.iteration = 60;
        {
            let mut sink = store.sink().unwrap();
            sink.on_event(&SessionEvent::CandidateEvaluated(extra));
            sink.on_event(&SessionEvent::DriftDetected {
                epoch: 99,
                at_iteration: 60,
                at_s: 1e6,
                detector: "mean-shift".into(),
                signal: 1.0,
                baseline: 2.0,
            });
            sink.on_event(&SessionEvent::EpochStarted {
                epoch: 100,
                first_iteration: 61,
                at_s: 1e6,
                transfer: false,
                phase: "phantom".into(),
                oracle_metric: 1.0,
            });
            sink.flush().unwrap();
        }
        let loaded = store.load().unwrap();
        assert_eq!(loaded.records.len(), 60);
        assert_eq!(loaded.dropped_records, 1);
        assert_eq!(loaded.epochs, before.epochs);
        assert_eq!(loaded.drift_events, before.drift_events);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn json_encodes_and_parses_round_trip() {
        let doc = JsonValue::Obj(vec![
            ("s".into(), JsonValue::Str("a \"b\"\n\\ päth\u{1}".into())),
            ("i".into(), JsonValue::Int(-42)),
            ("f".into(), JsonValue::Num(0.1)),
            ("e".into(), JsonValue::Num(1.5e-300)),
            ("b".into(), JsonValue::Bool(true)),
            ("n".into(), JsonValue::Null),
            (
                "a".into(),
                JsonValue::Arr(vec![JsonValue::Int(1), JsonValue::Str("x".into())]),
            ),
        ]);
        let text = doc.encode();
        assert_eq!(JsonValue::parse(&text).unwrap(), doc);
    }

    #[test]
    fn json_parses_unicode_escapes_and_surrogates() {
        let v = JsonValue::parse(r#""aé😀b""#).unwrap();
        assert_eq!(v, JsonValue::Str("aé😀b".into()));
        assert!(JsonValue::parse(r#""\ud83d oops""#).is_err());
    }

    #[test]
    fn parsed_candidate_lines_borrow_every_unescaped_string() {
        let mut s = session(2, 1);
        let _ = s.run();
        let record = s.history().records()[0].clone();
        let event = SessionEvent::CandidateEvaluated(record);
        let mut line = String::new();
        write_event(&event, Some(CHAIN_GENESIS), &mut line);
        let value = JsonValue::parse(&line).unwrap();
        let JsonValue::Obj(pairs) = &value else {
            panic!("a candidate line is an object");
        };
        assert!(pairs.iter().all(|(k, _)| matches!(k, Cow::Borrowed(_))));
        assert!(matches!(
            value.get("prev"),
            Some(JsonValue::Str(Cow::Borrowed(_)))
        ));
        let config = value.get("config").and_then(JsonValue::as_arr).unwrap();
        assert_eq!(config.len(), 56);
        assert!(config
            .iter()
            .all(|token| matches!(token, JsonValue::Str(Cow::Borrowed(_)))));
        assert_eq!(value.clone().into_owned(), value);
        assert_eq!(value.encode(), line);
    }

    #[test]
    fn a_small_candidate_line_has_these_exact_bytes() {
        // A readable oracle for the writer, beside the golden tail hash:
        // every token kind, a null for `None` and for a non-finite float,
        // a crash phase, and a float that prints without a fraction.
        let record = |crash_phase: Option<Phase>| Record {
            iteration: 7,
            config: Configuration::from_values(vec![
                Value::Bool(true),
                Value::Tristate(Tristate::Module),
                Value::Int(-42),
                Value::Choice(3),
            ]),
            objective: crash_phase.is_none().then_some(-1250.5),
            metric: crash_phase.is_none().then_some(1250.5),
            memory_mb: crash_phase.is_none().then_some(f64::NAN),
            crash_phase,
            build_skipped: true,
            duration_s: 12.25,
            finished_at_s: 100.0,
            algo_memory_bytes: 4096,
        };
        let line = |r: Record, chain: Option<u64>| {
            let mut out = String::new();
            write_event(&SessionEvent::CandidateEvaluated(r), chain, &mut out);
            out
        };
        assert_eq!(
            line(record(None), Some(CHAIN_GENESIS)),
            concat!(
                r#"{"v":3,"prev":"cbf29ce484222325","event":"candidate","iteration":7,"#,
                r#""config":["b1","tm","i-42","c3"],"objective":-1250.5,"metric":1250.5,"#,
                r#""memory_mb":null,"crash_phase":null,"build_skipped":true,"#,
                r#""duration_s":12.25,"finished_at_s":100.0,"algo_memory_bytes":4096}"#
            )
        );
        assert_eq!(
            line(record(Some(Phase::Boot)), None),
            concat!(
                r#"{"v":3,"event":"candidate","iteration":7,"#,
                r#""config":["b1","tm","i-42","c3"],"objective":null,"metric":null,"#,
                r#""memory_mb":null,"crash_phase":"boot","build_skipped":true,"#,
                r#""duration_s":12.25,"finished_at_s":100.0,"algo_memory_bytes":4096}"#
            )
        );
    }

    #[test]
    fn escaped_strings_are_unescaped_into_owned_copies() {
        let text = r#"{"k\"ey":"a\\b\u00e9\n\ud83d\ude00","plain":"p"}"#;
        let value = JsonValue::parse(text).unwrap();
        let JsonValue::Obj(pairs) = &value else {
            panic!("an object");
        };
        assert!(matches!(&pairs[0].0, Cow::Owned(k) if k == "k\"ey"));
        assert!(matches!(&pairs[0].1, JsonValue::Str(Cow::Owned(v)) if v == "a\\bé\n😀"));
        assert!(matches!(&pairs[1].0, Cow::Borrowed("plain")));
        assert!(matches!(&pairs[1].1, JsonValue::Str(Cow::Borrowed("p"))));
        // The encoder spells the same text back, escapes included.
        let owned = value.clone().into_owned();
        assert_eq!(owned, value);
        assert_eq!(JsonValue::parse(&owned.encode()).unwrap(), value);
    }

    #[test]
    fn json_errors_name_the_character_at_a_byte_offset() {
        // `{"é"` is five bytes but four characters.
        let err = JsonValue::parse("{\"é\"é").unwrap_err();
        assert_eq!(err.message, "expected ':', got 'é'");
        assert_eq!(err.at, 7, "reported after the offending character");
        assert_eq!(err.to_string(), "byte 7: expected ':', got 'é'");
        let err = JsonValue::parse("[\"é\",ß]").unwrap_err();
        assert_eq!((err.at, err.message.as_str()), (6, "unexpected 'ß'"));
        let err = JsonValue::parse("\"é").unwrap_err();
        assert_eq!((err.at, err.message.as_str()), (3, "unterminated string"));
        let err = JsonValue::parse("[1 ß]").unwrap_err();
        assert_eq!(
            (err.at, err.message.as_str()),
            (5, "expected ',' or ']' in array")
        );
        let err = JsonValue::parse("1 x").unwrap_err();
        assert_eq!(
            (err.at, err.message.as_str()),
            (2, "trailing characters after document")
        );
    }

    #[test]
    fn json_rejects_nesting_past_the_depth_limit() {
        // Deep enough to overflow the stack without the bound.
        let hostile = "[".repeat(200_000);
        let err = JsonValue::parse(&hostile).unwrap_err();
        assert_eq!(err.at, MAX_JSON_DEPTH);
        let objects = "{\"k\":".repeat(MAX_JSON_DEPTH + 1);
        assert!(JsonValue::parse(&objects).is_err());
        // One level past the limit fails even when well-formed; the limit
        // itself parses.
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(JsonValue::parse(&nest(MAX_JSON_DEPTH + 1)).is_err());
        assert!(JsonValue::parse(&nest(MAX_JSON_DEPTH)).is_ok());
    }

    #[test]
    fn json_round_trips_a_64_deep_document() {
        let mut doc = JsonValue::Int(7);
        for level in 0..64 {
            doc = if level % 2 == 0 {
                JsonValue::Arr(vec![doc, JsonValue::Null])
            } else {
                JsonValue::Obj(vec![("k".into(), doc)])
            };
        }
        assert_eq!(JsonValue::parse(&doc.encode()).unwrap(), doc);
    }

    #[test]
    fn non_finite_floats_encode_as_null() {
        assert_eq!(JsonValue::Num(f64::NAN).encode(), "null");
        assert_eq!(JsonValue::Num(f64::INFINITY).encode(), "null");
    }

    #[test]
    fn value_tokens_round_trip() {
        for v in [
            Value::Bool(false),
            Value::Bool(true),
            Value::Tristate(Tristate::No),
            Value::Tristate(Tristate::Module),
            Value::Tristate(Tristate::Yes),
            Value::Int(-123456789),
            Value::Int(i64::MAX),
            Value::Choice(7),
        ] {
            let mut token = String::new();
            push_value_token(&v, &mut token);
            assert_eq!(token_value(&token), Some(v));
        }
        assert_eq!(token_value("x1"), None);
        assert_eq!(token_value(""), None);
    }

    /// The digit writer against `core::fmt`, which wrote every token,
    /// integer and chain hash before it: each spelling must be the bytes
    /// the old `write!` made, so no ledger or frame moves.
    mod spelling {
        use super::*;
        use proptest::prelude::*;

        /// The old token writer.
        fn format_token(v: &Value) -> String {
            match v {
                Value::Bool(b) => (if *b { "b1" } else { "b0" }).to_string(),
                Value::Tristate(t) => format!("t{t}"),
                Value::Int(i) => format!("i{i}"),
                Value::Choice(c) => format!("c{c}"),
            }
        }

        fn check_value(v: Value) {
            let mut token = String::new();
            push_value_token(&v, &mut token);
            assert_eq!(token, format_token(&v));
            assert_eq!(token_value(&token), Some(v), "{token}");
        }

        fn check_int(v: i64) {
            let mut out = String::new();
            Fields { out: &mut out }.int("k", v);
            assert_eq!(out, format!(",\"k\":{v}"));
            assert_eq!(JsonValue::Int(v).encode(), format!("{v}"));
        }

        fn check_u64(v: u64) {
            let mut out = String::new();
            Fields { out: &mut out }.u64("k", v);
            assert_eq!(out, format!(",\"k\":\"{v}\""));
            assert_eq!(chain_hex(v), format!("{v:016x}"));
        }

        /// Unsigned integers of every length: a full-range draw shifted
        /// right by a drawn amount, so short spellings come up as often
        /// as long ones.
        fn magnitude() -> impl Strategy<Value = u64> {
            (any::<u64>(), 0u32..64).prop_map(|(v, shift)| v >> shift)
        }

        fn int() -> impl Strategy<Value = i64> {
            (magnitude(), any::<bool>()).prop_map(|(m, negative)| {
                if negative {
                    (m as i64).wrapping_neg()
                } else {
                    m as i64
                }
            })
        }

        fn value() -> impl Strategy<Value = Value> {
            prop_oneof![
                any::<bool>().prop_map(Value::Bool),
                (0..Tristate::ALL.len()).prop_map(|i| Value::Tristate(Tristate::ALL[i])),
                int().prop_map(Value::Int),
                magnitude().prop_map(|m| Value::Choice(m as usize)),
            ]
        }

        #[test]
        fn the_edges_are_spelled_as_format_spelled_them() {
            for v in [i64::MIN, i64::MIN + 1, -10, -9, -1, 0, 1, 9, 10, i64::MAX] {
                check_value(Value::Int(v));
                check_int(v);
            }
            for v in [0, 1, 9, 10, usize::MAX] {
                check_value(Value::Choice(v));
            }
            for v in [false, true] {
                check_value(Value::Bool(v));
            }
            for t in Tristate::ALL {
                check_value(Value::Tristate(t));
            }
            for v in [0, 1, 0xf, 0x10, u64::MAX / 10, u64::MAX] {
                check_u64(v);
            }
            assert_eq!(LINE_START, format!("{{\"v\":{FORMAT_VERSION}"));
        }

        #[test]
        fn control_characters_escape_as_format_escaped_them() {
            for c in (0u8..0x20).map(char::from) {
                let encoded = JsonValue::Str(c.to_string().into()).encode();
                let expected = match c {
                    '\n' => "\"\\n\"".to_string(),
                    '\r' => "\"\\r\"".to_string(),
                    '\t' => "\"\\t\"".to_string(),
                    c => format!("\"\\u{:04x}\"", c as u32),
                };
                assert_eq!(encoded, expected);
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(1024))]

            #[test]
            fn every_token_is_spelled_as_format_spelled_it(v in value()) {
                check_value(v);
            }

            #[test]
            fn every_integer_is_spelled_as_format_spelled_it(i in int(), u in magnitude()) {
                check_int(i);
                check_u64(u);
            }
        }
    }

    #[test]
    fn store_round_trips_a_session() {
        let dir = temp_dir("roundtrip");
        let store = SessionStore::create(&dir, &Job::default()).unwrap();
        let mut s = session(6, 2);
        {
            let mut sink = store.sink().unwrap();
            let _ = s.run_with(&mut sink);
            assert!(sink.error().is_none());
            assert_eq!(sink.checkpoints(), 3);
        }
        let loaded = SessionStore::open(&dir).unwrap().load().unwrap();
        assert_eq!(loaded.records.len(), 6);
        assert_eq!(loaded.wave_sizes, vec![2, 2, 2]);
        assert_eq!(loaded.checkpoints, 3);
        assert!(loaded.finished);
        assert_eq!(loaded.dropped_records, 0);
        for (stored, live) in loaded.records.iter().zip(s.history().records()) {
            assert_eq!(stored.iteration, live.iteration);
            assert_eq!(stored.config, live.config);
            assert_eq!(
                stored.metric.map(f64::to_bits),
                live.metric.map(f64::to_bits)
            );
            assert_eq!(stored.crash_phase, live.crash_phase);
            assert_eq!(stored.duration_s.to_bits(), live.duration_s.to_bits());
            assert_eq!(stored.finished_at_s.to_bits(), live.finished_at_s.to_bits());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn create_refuses_to_clobber() {
        let dir = temp_dir("clobber");
        let _ = SessionStore::create(&dir, &Job::default()).unwrap();
        assert!(matches!(
            SessionStore::create(&dir, &Job::default()),
            Err(StoreError::AlreadyExists { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_requires_a_manifest() {
        let dir = temp_dir("nostore");
        std::fs::create_dir_all(&dir).unwrap();
        assert!(matches!(
            SessionStore::open(&dir),
            Err(StoreError::NotAStore { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_final_line_and_incomplete_wave_are_dropped() {
        let dir = temp_dir("torn");
        let store = SessionStore::create(&dir, &Job::default()).unwrap();
        let mut s = session(6, 2);
        {
            let mut sink = store.sink().unwrap();
            let _ = s.run_with(&mut sink);
        }
        // Append a candidate with no wave_completed, then a torn line.
        let mut extra = s.history().records()[0].clone();
        extra.iteration = 6;
        {
            let mut sink = store.sink().unwrap();
            sink.on_event(&SessionEvent::CandidateEvaluated(extra));
            sink.flush().unwrap();
        }
        let mut f = OpenOptions::new()
            .append(true)
            .open(store.events_path())
            .unwrap();
        f.write_all(b"{\"v\":2,\"event\":\"cand").unwrap();
        drop(f);

        let loaded = store.load().unwrap();
        assert_eq!(loaded.records.len(), 6, "complete waves only");
        assert_eq!(loaded.dropped_records, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn appending_after_a_torn_tail_heals_the_log() {
        // Regression: resuming a store whose events.jsonl ends mid-line
        // (the kill -9 case) used to glue the next event onto the torn
        // fragment, turning the tolerated torn tail into hard mid-file
        // corruption on every later load.
        let dir = temp_dir("heal");
        let store = SessionStore::create(&dir, &Job::default()).unwrap();
        let mut s = session(4, 2);
        {
            let mut sink = store.sink().unwrap();
            let _ = s.run_with(&mut sink);
        }
        // Kill mid-write: cut into the final line.
        let mut bytes = std::fs::read(store.events_path()).unwrap();
        bytes.truncate(bytes.len() - 10);
        std::fs::write(store.events_path(), &bytes).unwrap();

        // Resume at the platform level: replay the surviving waves into a
        // larger-budget twin and continue through an append sink.
        let loaded = store.load().unwrap();
        assert_eq!(loaded.records.len(), 4);
        let mut resumed = session(6, 2);
        resumed.replay(&loaded.records, &loaded.wave_sizes).unwrap();
        {
            let mut sink = store.sink().unwrap();
            let _ = resumed.run_with(&mut sink);
        }

        // Every later load keeps working: the torn line is gone and both
        // segments parse.
        let full = store.load().unwrap();
        assert_eq!(full.records.len(), 6);
        assert!(full.finished);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_chain_seed_reads_back_over_a_line_longer_than_a_chunk() {
        // The whole-file answer the backward read must reproduce: the hash
        // of the last non-blank line before the final newline.
        fn whole_file_seed(path: &Path) -> u64 {
            let bytes = std::fs::read(path).unwrap();
            let keep = bytes.iter().rposition(|b| *b == b'\n').map_or(0, |p| p + 1);
            std::str::from_utf8(&bytes[..keep])
                .unwrap()
                .lines()
                .rfind(|l| !l.trim().is_empty())
                .map_or(CHAIN_GENESIS, line_hash)
        }
        let dir = temp_dir("heal-long");
        let store = SessionStore::create(&dir, &Job::default()).unwrap();
        let mut s = session(4, 2);
        {
            let mut sink = store.sink().unwrap();
            let _ = s.run_with(&mut sink);
        }
        let before = store.verify_chain().unwrap();
        // A final line several chunks long, of two-byte characters so the
        // chunk boundaries fall inside some of them.
        {
            let mut sink = store.sink().unwrap();
            sink.on_event(&SessionEvent::EpochStarted {
                epoch: 1,
                first_iteration: 4,
                at_s: 1.0,
                transfer: false,
                phase: "é".repeat(TAIL_CHUNK + 7),
                oracle_metric: 2.0,
            });
            sink.flush().unwrap();
        }
        // End it with CRLF, then blank and CRLF lines, then a torn line.
        let path = store.events_path();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.pop();
        bytes.extend_from_slice(b"\r\n\n \t\r\n\r\n");
        std::fs::write(&path, &bytes).unwrap();
        let expected = whole_file_seed(&path);
        assert_ne!(expected, CHAIN_GENESIS);
        let mut torn = bytes.clone();
        torn.extend_from_slice(b"{\"v\":3,\"ev");
        std::fs::write(&path, &torn).unwrap();

        assert_eq!(heal_torn_tail(&path).unwrap(), expected);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            bytes,
            "only the torn line goes"
        );
        {
            let mut sink = store.sink().unwrap();
            sink.on_event(&SessionEvent::NewBest {
                iteration: 4,
                objective: 1.0,
            });
            sink.flush().unwrap();
        }
        assert_eq!(store.verify_chain().unwrap(), before + 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn new_bests_of_a_dropped_wave_are_dropped_too() {
        // Regression: improvement markers logged by an incomplete wave
        // used to survive the wave's own records being dropped, so the
        // report listed (and a resume duplicated) bests with no record.
        let dir = temp_dir("bestdrop");
        let store = SessionStore::create(&dir, &Job::default()).unwrap();
        let mut s = session(4, 2);
        {
            let mut sink = store.sink().unwrap();
            let _ = s.run_with(&mut sink);
        }
        let before = store.load().unwrap();
        let mut extra = s.history().records()[0].clone();
        extra.iteration = 4;
        {
            let mut sink = store.sink().unwrap();
            sink.on_event(&SessionEvent::CandidateEvaluated(extra));
            sink.on_event(&SessionEvent::NewBest {
                iteration: 4,
                objective: 1e9,
            });
            sink.flush().unwrap();
        }

        let loaded = store.load().unwrap();
        assert_eq!(loaded.records.len(), 4);
        assert_eq!(loaded.dropped_records, 1);
        assert_eq!(
            loaded.new_bests, before.new_bests,
            "a dropped wave leaves no improvement markers behind"
        );
        assert!(loaded.new_bests.iter().all(|(i, _)| *i < 4));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_final_line_cut_inside_a_character_is_a_torn_tail() {
        let dir = temp_dir("torn-utf8");
        let store = SessionStore::create(&dir, &Job::default()).unwrap();
        let mut s = session(4, 2);
        {
            let mut sink = store.sink().unwrap();
            let _ = s.run_with(&mut sink);
        }
        let before = store.verify_chain().unwrap();
        let phase = "nuit – été";
        {
            let mut sink = store.sink().unwrap();
            sink.on_event(&SessionEvent::EpochStarted {
                epoch: 1,
                first_iteration: 4,
                at_s: 1.0,
                transfer: false,
                phase: phase.to_string(),
                oracle_metric: 2.0,
            });
            sink.flush().unwrap();
        }
        let whole = store.load().unwrap();
        assert_eq!(whole.epochs.last().map(|e| e.phase.as_str()), Some(phase));
        assert_eq!(store.verify_chain().unwrap(), before + 1);

        // Cut one byte into the three-byte dash: the final line is no
        // longer UTF-8, and is dropped like any other torn tail.
        let bytes = std::fs::read(store.events_path()).unwrap();
        let dash = bytes.len() - bytes.iter().rev().position(|&b| b == 0xe2).unwrap() - 1;
        std::fs::write(store.events_path(), &bytes[..dash + 1]).unwrap();
        let torn = store.load().unwrap();
        assert_eq!(torn.records.len(), 4);
        assert!(torn.epochs.iter().all(|e| e.phase != phase));
        assert_eq!(store.verify_chain().unwrap(), before);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A log a writer is still appending to: each read returns the next
    /// chunk, and an empty chunk is an end of file that a later read
    /// reads past.
    struct Appending(std::collections::VecDeque<Vec<u8>>);

    impl io::Read for Appending {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let Some(chunk) = self.0.front_mut() else {
                return Ok(0);
            };
            let n = chunk.len().min(out.len());
            out[..n].copy_from_slice(&chunk[..n]);
            chunk.drain(..n);
            if chunk.is_empty() {
                self.0.pop_front();
            }
            Ok(n)
        }
    }

    #[test]
    fn a_line_cut_by_a_live_writer_is_a_torn_tail() {
        let dir = temp_dir("live-writer");
        let store = SessionStore::create(&dir, &Job::default()).unwrap();
        let mut s = session(4, 2);
        {
            let mut sink = store.sink().unwrap();
            let _ = s.run_with(&mut sink);
            sink.on_event(&SessionEvent::EpochStarted {
                epoch: 1,
                first_iteration: 4,
                at_s: 1.0,
                transfer: false,
                phase: "nuit – été".to_string(),
                oracle_metric: 2.0,
            });
            sink.flush().unwrap();
        }
        let whole = store.verify_chain().unwrap();
        let bytes = std::fs::read(store.events_path()).unwrap();
        let last = bytes[..bytes.len() - 1]
            .iter()
            .rposition(|&b| b == b'\n')
            .unwrap()
            + 1;
        let dash = bytes.iter().rposition(|&b| b == 0xe2).unwrap();
        // The reader meets the end of the file inside the last line, at
        // an ASCII byte (bad JSON) or inside the dash (not UTF-8); by its
        // next read the writer has appended the rest of the line.
        for cut in [last + 10, dash + 1] {
            for read in [read_line as LineReader, read_chain] {
                let chunks = [&bytes[..cut], &[], &bytes[cut..]];
                let log = BufReader::new(Appending(chunks.map(<[u8]>::to_vec).into()));
                let walked = walk_lines(&store.events_path(), log, read, &mut |_| Ok(()));
                assert_eq!(walked.unwrap(), whole - 1, "cut at byte {cut}");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_mid_file_line_that_is_not_utf8_is_corrupt_at_that_line() {
        let dir = temp_dir("mid-utf8");
        let store = SessionStore::create(&dir, &Job::default()).unwrap();
        let mut s = session(4, 2);
        {
            let mut sink = store.sink().unwrap();
            let _ = s.run_with(&mut sink);
        }
        let mut bytes = std::fs::read(store.events_path()).unwrap();
        let third = bytes
            .iter()
            .enumerate()
            .filter(|(_, &b)| b == b'\n')
            .nth(1)
            .map(|(at, _)| at + 1)
            .unwrap();
        let tag = b"\"event\":\"";
        let at = third
            + bytes[third..]
                .windows(tag.len())
                .position(|w| w == tag)
                .unwrap();
        bytes[at + tag.len()] = 0xff;
        std::fs::write(store.events_path(), &bytes).unwrap();
        for result in [store.load().map(|_| 0), store.verify_chain()] {
            match result {
                Err(StoreError::Corrupt { line, message, .. }) => {
                    assert_eq!(line, 3);
                    assert!(message.contains("UTF-8"), "{message}");
                }
                other => panic!("expected Corrupt at line 3, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_file_corruption_is_a_hard_error() {
        let dir = temp_dir("corrupt");
        let store = SessionStore::create(&dir, &Job::default()).unwrap();
        let mut s = session(4, 2);
        {
            let mut sink = store.sink().unwrap();
            let _ = s.run_with(&mut sink);
        }
        let text = std::fs::read_to_string(store.events_path()).unwrap();
        let broken = text.replacen("\"event\":\"candidate\"", "\"event\":\"candidate", 1);
        assert_ne!(text, broken);
        std::fs::write(store.events_path(), broken).unwrap();
        assert!(matches!(store.load(), Err(StoreError::Corrupt { .. })));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn manifest_round_trips_through_the_store() {
        let dir = temp_dir("manifest");
        let job = Job {
            name: "stored".into(),
            os: "linux-6.0".into(),
            seed: 17,
            ..Job::default()
        };
        let store = SessionStore::create(&dir, &job).unwrap();
        assert_eq!(store.manifest().unwrap(), job);
        let extended = Job {
            budget: Budget {
                iterations: Some(99),
                time_seconds: None,
            },
            ..job.clone()
        };
        store.rewrite_manifest(&extended).unwrap();
        assert_eq!(store.manifest().unwrap().budget.iterations, Some(99));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn hash_chain_verifies_end_to_end() {
        let dir = temp_dir("chain");
        let store = SessionStore::create(&dir, &Job::default()).unwrap();
        let mut s = session(6, 2);
        {
            let mut sink = store.sink().unwrap();
            let _ = s.run_with(&mut sink);
        }
        let lines = std::fs::read_to_string(store.events_path()).unwrap();
        let count = lines.lines().count();
        assert_eq!(store.verify_chain().unwrap(), count);
        // Appending a second segment continues the same chain.
        let mut resumed = session(8, 2);
        let loaded = store.load().unwrap();
        resumed.replay(&loaded.records, &loaded.wave_sizes).unwrap();
        {
            let mut sink = store.sink().unwrap();
            let _ = resumed.run_with(&mut sink);
        }
        assert!(store.verify_chain().unwrap() > count);
        assert!(store.load().unwrap().finished);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tampered_lines_break_the_chain() {
        let dir = temp_dir("tamper");
        let store = SessionStore::create(&dir, &Job::default()).unwrap();
        let mut s = session(4, 2);
        {
            let mut sink = store.sink().unwrap();
            let _ = s.run_with(&mut sink);
        }
        // Flip a value mid-file, keeping the line valid JSON: the edited
        // line still parses, but the next line's prev no longer matches.
        let text = std::fs::read_to_string(store.events_path()).unwrap();
        let broken = text.replacen("\"build_skipped\":false", "\"build_skipped\":true", 1);
        assert_ne!(text, broken, "expected a build_skipped:false record");
        std::fs::write(store.events_path(), broken).unwrap();
        let err = store.load().unwrap_err();
        assert!(
            err.to_string().contains("hash chain broken"),
            "unexpected error: {err}"
        );
        assert!(matches!(
            store.verify_chain(),
            Err(StoreError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn deleted_lines_break_the_chain() {
        let dir = temp_dir("deleted");
        let store = SessionStore::create(&dir, &Job::default()).unwrap();
        let mut s = session(4, 2);
        {
            let mut sink = store.sink().unwrap();
            let _ = s.run_with(&mut sink);
        }
        let text = std::fs::read_to_string(store.events_path()).unwrap();
        let without_third: Vec<&str> = text
            .lines()
            .enumerate()
            .filter(|(i, _)| *i != 2)
            .map(|(_, l)| l)
            .collect();
        std::fs::write(store.events_path(), without_third.join("\n") + "\n").unwrap();
        assert!(matches!(store.load(), Err(StoreError::Corrupt { .. })));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_suffix_relabelled_v1_with_an_edited_metric_is_rejected() {
        // Version-1 lines carried no `prev`, and a reader that still
        // accepted them skipped the chain check wherever they appeared:
        // relabelling a log's tail as v1 let any record in it be edited.
        // A version-2 tail keeps its `prev` fields, but v2 lines carried
        // host measurements; the reader has no arm for them either.
        for version in [1, 2] {
            let dir = temp_dir(&format!("relabel-v{version}"));
            let store = SessionStore::create(&dir, &Job::default()).unwrap();
            let mut s = session(4, 2);
            {
                let mut sink = store.sink().unwrap();
                let _ = s.run_with(&mut sink);
            }
            let text = std::fs::read_to_string(store.events_path()).unwrap();
            let lines: Vec<&str> = text.lines().collect();
            // Relabel from the first candidate with a metric on, and
            // double that metric.
            let from = lines
                .iter()
                .position(|l| {
                    let value = JsonValue::parse(l).unwrap();
                    value.get("metric").and_then(JsonValue::as_f64).is_some()
                        && value.get("event").and_then(JsonValue::as_str) == Some("candidate")
                })
                .expect("a candidate that ran");
            let mut out: Vec<String> = lines[..from].iter().map(|l| l.to_string()).collect();
            for (i, line) in lines[from..].iter().enumerate() {
                let mut value = JsonValue::parse(line).unwrap();
                if let JsonValue::Obj(pairs) = &mut value {
                    if version == 1 {
                        pairs.retain(|(k, _)| k != "prev");
                    }
                    for (k, v) in pairs.iter_mut() {
                        match k.as_ref() {
                            "v" => *v = JsonValue::Int(version),
                            "metric" if i == 0 => *v = JsonValue::Num(v.as_f64().unwrap() * 2.0),
                            _ => {}
                        }
                    }
                }
                out.push(value.encode());
            }
            std::fs::write(store.events_path(), out.join("\n") + "\n").unwrap();

            let unsupported = |e: StoreError| match e {
                StoreError::Corrupt { line, message, .. } => {
                    assert_eq!(line, from + 1, "the first relabelled line");
                    assert!(
                        message.contains(&format!("unsupported store version {version}")),
                        "{message}"
                    );
                }
                other => panic!("expected Corrupt, got {other:?}"),
            };
            unsupported(store.load().unwrap_err());
            unsupported(store.verify_chain().unwrap_err());
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// The tree-based line reader and the whole-text walk the streaming
    /// reader replaced, and proof that old and new accept, reject and
    /// load the same ledgers.
    mod oracle {
        use super::*;
        use proptest::prelude::*;
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::OnceLock;

        /// The oracle walk: the whole log read into one string and split
        /// with [`str::lines`], a line final when no line follows it.
        fn walk_text(
            path: &Path,
            read: LineReader,
            visit: &mut LineVisit,
        ) -> Result<usize, StoreError> {
            let text = match std::fs::read_to_string(path) {
                Ok(text) => text,
                Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(0),
                Err(source) => {
                    return Err(StoreError::Io {
                        path: path.to_path_buf(),
                        source,
                    })
                }
            };
            let mut values = Vec::new();
            let mut chain = CHAIN_GENESIS;
            let mut verified = 0;
            let mut lines = text.lines().enumerate().peekable();
            while let Some((i, raw)) = lines.next() {
                if raw.trim().is_empty() {
                    continue;
                }
                let corrupt = |message| StoreError::Corrupt {
                    path: path.to_path_buf(),
                    line: i + 1,
                    message,
                };
                let mut view = match read(raw, &mut values) {
                    Ok(view) => view,
                    Err(_) if lines.peek().is_none() => break,
                    Err(e) => return Err(corrupt(format!("bad JSON: {e}"))),
                };
                check_chain(&view, chain)
                    .and_then(|()| visit(&mut view))
                    .map_err(corrupt)?;
                chain = line_hash(raw);
                verified += 1;
            }
            Ok(verified)
        }

        /// Every key name [`Key::of`] knows.
        const NAMES: [&str; KEYS] = [
            "v",
            "prev",
            "event",
            "iteration",
            "objective",
            "metric",
            "memory_mb",
            "crash_phase",
            "build_skipped",
            "duration_s",
            "finished_at_s",
            "algo_memory_bytes",
            "epoch",
            "first_iteration",
            "at_s",
            "transfer",
            "phase",
            "oracle_metric",
            "at_iteration",
            "detector",
            "signal",
            "baseline",
            "wave",
            "size",
            "wall_s",
            "busy_s",
            "cache_hits",
            "cache_misses",
        ];

        /// The oracle reader: the whole line parsed into a tree, each
        /// field looked up with [`JsonValue::get`] and the configuration
        /// decoded with [`config_from_json`], as the loader did before it
        /// streamed.
        fn read_tree<'t>(line: &'t str, _: &mut Vec<Value>) -> Result<LineView<'t>, JsonError> {
            let tree = JsonValue::parse(line)?;
            let mut view = LineView {
                fields: [const { None }; KEYS],
                config: tree.get("config").map(config_from_json),
            };
            for name in NAMES {
                let key = Key::of(name).expect("a known key");
                view.fields[key as usize] = tree.get(name).cloned();
            }
            Ok(view)
        }

        #[test]
        fn every_key_has_its_own_slot() {
            let mut seen = [false; KEYS];
            for name in NAMES {
                let slot = Key::of(name).expect("a known key") as usize;
                assert!(!seen[slot], "{name} shares a slot");
                seen[slot] = true;
            }
            assert!(Key::of("config").is_none());
        }

        /// A continuous run's ledger: every event kind the loader reads.
        fn base_ledger() -> &'static str {
            static TEXT: OnceLock<String> = OnceLock::new();
            TEXT.get_or_init(|| {
                let dir = temp_dir("oracle-base");
                let store = SessionStore::create(&dir, &Job::default()).unwrap();
                let mut s = drift_session(36, 2);
                {
                    let mut sink = store.sink().unwrap();
                    let _ = s.run_with(&mut sink);
                }
                let text = std::fs::read_to_string(store.events_path()).unwrap();
                std::fs::remove_dir_all(&dir).unwrap();
                for kind in ["candidate", "new_best", "drift_detected", "epoch_started"] {
                    assert!(text.contains(&format!("\"event\":\"{kind}\"")), "{kind}");
                }
                text
            })
        }

        /// One edit of a ledger; line and pair indices wrap.
        #[derive(Clone, Debug)]
        enum Mutation {
            /// Rotates a line's keys.
            Reorder { line: usize, by: usize },
            /// Repeats one of a line's fields with another value, before
            /// (so the repeat is the first occurrence) or after it.
            Duplicate {
                line: usize,
                pair: usize,
                before: bool,
            },
            /// Spells a line's `prev`, `event` and `phase` strings with
            /// `\u` escapes.
            Escape { line: usize },
            /// Writes one of a line's integers as a float (`3.0`).
            FloatInt { line: usize, pair: usize },
            /// Wraps one of a line's values in an array or an object.
            Nest {
                line: usize,
                pair: usize,
                object: bool,
            },
            /// Replaces a line with a JSON document that is no object.
            NonObject { line: usize, which: usize },
            /// Inserts an escape, valid or not, into a line's config
            /// array, or anywhere in a line without one.
            Insert {
                line: usize,
                at: usize,
                which: usize,
            },
        }

        fn mutation() -> impl Strategy<Value = Mutation> {
            let n = 0usize..1000;
            prop_oneof![
                (n.clone(), 1usize..20).prop_map(|(line, by)| Mutation::Reorder { line, by }),
                (n.clone(), 0usize..20, any::<bool>()).prop_map(|(line, pair, before)| {
                    Mutation::Duplicate { line, pair, before }
                }),
                n.clone().prop_map(|line| Mutation::Escape { line }),
                (n.clone(), 0usize..20).prop_map(|(line, pair)| Mutation::FloatInt { line, pair }),
                (n.clone(), 0usize..20, any::<bool>())
                    .prop_map(|(line, pair, object)| Mutation::Nest { line, pair, object }),
                (n.clone(), 0usize..6)
                    .prop_map(|(line, which)| Mutation::NonObject { line, which }),
                (n, any::<usize>(), 0usize..ESCAPES.len())
                    .prop_map(|(line, at, which)| Mutation::Insert { line, at, which }),
            ]
        }

        /// Escapes, valid and not, for [`Mutation::Insert`].
        const ESCAPES: [&str; 8] = [
            "\\u0069",
            "\\\"",
            "\\/",
            "\\ud83d\\ude00",
            "\\ud83d",
            "\\u12",
            "\\q",
            "\\",
        ];

        fn pairs_of<'t>(
            tree: &'t mut JsonValue<'static>,
        ) -> Option<&'t mut Vec<(Cow<'static, str>, JsonValue<'static>)>> {
            match tree {
                JsonValue::Obj(pairs) if !pairs.is_empty() => Some(pairs),
                _ => None,
            }
        }

        /// Another value of the same field, to repeat it with.
        fn other_value(v: &JsonValue<'static>) -> JsonValue<'static> {
            match v {
                JsonValue::Null => JsonValue::Int(0),
                JsonValue::Bool(b) => JsonValue::Bool(!b),
                JsonValue::Int(i) => JsonValue::Int(i.wrapping_add(1)),
                JsonValue::Num(x) => JsonValue::Num(x * 2.0 + 1.0),
                JsonValue::Str(s) => JsonValue::Str(format!("{s}x").into()),
                JsonValue::Arr(items) => JsonValue::Arr(items.iter().rev().cloned().collect()),
                JsonValue::Obj(_) => JsonValue::Null,
            }
        }

        /// `s` with every character written as a `\u` escape.
        fn escaped(s: &str) -> String {
            s.chars().map(|c| format!("\\u{:04x}", c as u32)).collect()
        }

        /// Replaces the content of the first `"key":"…"` string in
        /// `line` with `with(content)`.
        fn rewrite_string(line: &mut String, key: &str, with: impl Fn(&str) -> String) {
            let needle = format!("\"{key}\":\"");
            let Some(at) = line.find(&needle) else { return };
            let start = at + needle.len();
            let mut end = start;
            let bytes = line.as_bytes();
            while end < bytes.len() && bytes[end] != b'"' {
                end += if bytes[end] == b'\\' { 2 } else { 1 };
            }
            if end >= bytes.len() {
                return;
            }
            let content = with(&line[start..end]);
            line.replace_range(start..end, &content);
        }

        /// Applies `mutations` to `base`'s lines and then, with
        /// `rechain`, rewrites every `prev` (escaped where the line's
        /// strings were) so the chain holds again and the loader reaches
        /// the edited fields.
        fn mutate(base: &str, mutations: &[Mutation], rechain: bool) -> String {
            let mut lines: Vec<String> = base.lines().map(str::to_string).collect();
            let mut escape = vec![false; lines.len()];
            for m in mutations {
                let line = match m {
                    Mutation::Reorder { line, .. }
                    | Mutation::Duplicate { line, .. }
                    | Mutation::Escape { line }
                    | Mutation::FloatInt { line, .. }
                    | Mutation::Nest { line, .. }
                    | Mutation::NonObject { line, .. }
                    | Mutation::Insert { line, .. } => line % lines.len(),
                };
                if let Mutation::Insert { at, which, .. } = m {
                    // Into the config array when the line has one: the
                    // loader decodes it, the chain check reads past it.
                    let text = &mut lines[line];
                    let (from, len) = match text.find("\"config\":[") {
                        Some(start) => (start + 10, text[start..].find(']').unwrap_or(0)),
                        None => (0, text.len()),
                    };
                    let at = from + at % (len + 1);
                    if text.is_char_boundary(at) {
                        text.insert_str(at, ESCAPES[*which]);
                    }
                    continue;
                }
                let Ok(tree) = JsonValue::parse(&lines[line]) else {
                    continue;
                };
                let mut tree = tree.into_owned();
                match m {
                    Mutation::Reorder { by, .. } => {
                        if let Some(pairs) = pairs_of(&mut tree) {
                            let by = by % pairs.len();
                            pairs.rotate_left(by);
                        }
                    }
                    Mutation::Duplicate { pair, before, .. } => {
                        if let Some(pairs) = pairs_of(&mut tree) {
                            let at = pair % pairs.len();
                            let repeat = (pairs[at].0.clone(), other_value(&pairs[at].1));
                            pairs.insert(if *before { at } else { at + 1 }, repeat);
                        }
                    }
                    Mutation::Escape { .. } => escape[line] = true,
                    Mutation::FloatInt { pair, .. } => {
                        if let Some(pairs) = pairs_of(&mut tree) {
                            let ints: Vec<usize> = (0..pairs.len())
                                .filter(|&i| matches!(pairs[i].1, JsonValue::Int(_)))
                                .collect();
                            if !ints.is_empty() {
                                let at = ints[pair % ints.len()];
                                let v = pairs[at].1.as_f64().unwrap();
                                pairs[at].1 = JsonValue::Num(v);
                            }
                        }
                    }
                    Mutation::Nest { pair, object, .. } => {
                        if let Some(pairs) = pairs_of(&mut tree) {
                            let at = pair % pairs.len();
                            let value = std::mem::replace(&mut pairs[at].1, JsonValue::Null);
                            pairs[at].1 = if *object {
                                JsonValue::Obj(vec![("k".into(), value)])
                            } else {
                                JsonValue::Arr(vec![value])
                            };
                        }
                    }
                    // Applied to the line's text above.
                    Mutation::Insert { .. } => continue,
                    Mutation::NonObject { which, .. } => {
                        tree = match which {
                            0 => JsonValue::Arr(vec![JsonValue::Int(1), JsonValue::Int(2)]),
                            1 => JsonValue::Str("candidate".into()),
                            2 => JsonValue::Int(3),
                            3 => JsonValue::Null,
                            4 => JsonValue::Arr(Vec::new()),
                            _ => JsonValue::Obj(Vec::new()),
                        };
                    }
                }
                lines[line] = tree.encode();
            }
            let mut chain = CHAIN_GENESIS;
            for (line, escape) in lines.iter_mut().zip(escape) {
                if rechain {
                    let hex = chain_hex(chain);
                    rewrite_string(line, "prev", |_| hex.clone());
                }
                if escape {
                    for key in ["prev", "event", "phase"] {
                        rewrite_string(line, key, escaped);
                    }
                }
                chain = line_hash(line);
            }
            lines.join("\n") + "\n"
        }

        /// XORs each `(position, mask)` into `text`'s bytes (positions
        /// wrap), then cuts it to `cut` bytes when that is shorter.
        fn damage(text: String, flips: &[(usize, u8)], cut: usize) -> Vec<u8> {
            let mut bytes = text.into_bytes();
            let len = bytes.len();
            for &(at, mask) in flips {
                bytes[at % len] ^= mask;
            }
            bytes.truncate(cut);
            bytes
        }

        /// One edit of a ledger's line framing; line indices wrap.
        #[derive(Clone, Debug)]
        enum Framing {
            /// Ends a line with `\r\n`.
            Crlf { line: usize },
            /// Puts a blank or whitespace-only line before a line.
            Blank { line: usize, which: usize },
            /// Puts a lone `\r` into a line, at a wrapped byte offset.
            LoneCr { line: usize, at: usize },
        }

        fn framing() -> impl Strategy<Value = Framing> {
            let n = 0usize..1000;
            prop_oneof![
                n.clone().prop_map(|line| Framing::Crlf { line }),
                (n.clone(), 0usize..BLANKS.len())
                    .prop_map(|(line, which)| Framing::Blank { line, which }),
                (n, any::<usize>()).prop_map(|(line, at)| Framing::LoneCr { line, at }),
            ]
        }

        /// Blank and whitespace-only lines for [`Framing::Blank`].
        const BLANKS: [&str; 4] = ["", " ", "\t \t", "\r"];

        /// `base` with `edits` applied to its framing, every line kept
        /// as it was written, and the final newline dropped unless
        /// `final_newline`.
        fn reframe(base: &str, edits: &[Framing], final_newline: bool) -> String {
            let mut lines: Vec<(String, &str)> =
                base.lines().map(|l| (l.to_string(), "\n")).collect();
            let n = lines.len();
            let mut before: Vec<Vec<&str>> = vec![Vec::new(); n];
            for edit in edits {
                match *edit {
                    Framing::Crlf { line } => lines[line % n].1 = "\r\n",
                    Framing::Blank { line, which } => before[line % n].push(BLANKS[which]),
                    Framing::LoneCr { line, at } => {
                        let text = &mut lines[line % n].0;
                        text.insert(at % (text.len() + 1), '\r');
                    }
                }
            }
            let mut out = String::new();
            for ((text, end), blanks) in lines.iter().zip(&before) {
                for blank in blanks {
                    out.push_str(blank);
                    out.push('\n');
                }
                out.push_str(text);
                out.push_str(end);
            }
            if !final_newline {
                let end = lines.last().map_or(0, |(_, end)| end.len());
                out.truncate(out.len() - end);
            }
            out
        }

        static CASE: AtomicUsize = AtomicUsize::new(0);

        /// A result, spelled so that equal spellings are equal results:
        /// `Debug` prints every float exactly and every error with its
        /// variant, line and message.
        fn spell<T: fmt::Debug>(result: Result<T, StoreError>) -> String {
            format!("{result:?}")
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(192))]

            /// On mutated ledgers the streaming reader and the tree walk
            /// agree: equal sessions and counts on success, the same
            /// variant, line and message on failure.
            #[test]
            fn streaming_reads_match_the_tree_walk(
                mutations in proptest::collection::vec(mutation(), 0..4),
                rechain in any::<bool>(),
                flips in proptest::collection::vec((any::<usize>(), 1u8..128), 0..3),
                cut in prop_oneof![Just(usize::MAX), 0usize..40_000],
            ) {
                let dir = temp_dir(&format!("oracle-{}", CASE.fetch_add(1, Ordering::Relaxed)));
                let store = SessionStore::create(&dir, &Job::default()).unwrap();
                let text = mutate(base_ledger(), &mutations, rechain);
                std::fs::write(store.events_path(), damage(text, &flips, cut)).unwrap();
                prop_assert_eq!(
                    spell(store.load_with(read_line)),
                    spell(store.load_with(read_tree))
                );
                prop_assert_eq!(
                    spell(store.verify_with(read_chain)),
                    spell(store.verify_with(read_tree))
                );
                std::fs::remove_dir_all(&dir).unwrap();
            }

            /// The line-at-a-time walk frames lines as the whole-text walk
            /// did: CRLF endings, blank and whitespace-only lines, lone
            /// `\r`s, a missing final newline and a cut at any byte give
            /// the same sessions, counts and errors.
            #[test]
            fn streaming_walk_frames_lines_like_the_whole_text_walk(
                edits in proptest::collection::vec(framing(), 0..6),
                final_newline in any::<bool>(),
                cut in prop_oneof![Just(usize::MAX), any::<usize>()],
            ) {
                let base = base_ledger();
                prop_assert!(base.is_ascii(), "a cut never splits a character");
                let dir = temp_dir(&format!("frame-{}", CASE.fetch_add(1, Ordering::Relaxed)));
                let store = SessionStore::create(&dir, &Job::default()).unwrap();
                let mut bytes = reframe(base, &edits, final_newline).into_bytes();
                bytes.truncate(cut % (bytes.len() + 1));
                std::fs::write(store.events_path(), &bytes).unwrap();
                prop_assert_eq!(
                    spell(store.load()),
                    spell(store.load_walking(walk_text, read_line))
                );
                prop_assert_eq!(
                    spell(store.verify_chain()),
                    spell(walk_text(&store.events_path(), read_chain, &mut |_| Ok(())))
                );
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }
    }
}
