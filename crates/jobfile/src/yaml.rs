//! A minimal YAML-subset parser.
//!
//! Wayfinder's job files (§3.1) are YAML. The sanctioned offline crate set
//! has no YAML implementation, so this module parses the subset the job
//! schema needs:
//!
//! * block mappings (`key: value` / nested blocks);
//! * block sequences (`- item`, including inline `- key: value` maps);
//! * flow sequences of scalars (`[a, b, c]`);
//! * scalars: booleans, integers (decimal/hex), floats, quoted and plain
//!   strings;
//! * `#` comments and blank lines.
//!
//! Anchors, aliases, multi-document streams, flow mappings, and block
//! scalars are intentionally *not* supported; encountering syntax outside
//! the subset is an error rather than silent misparsing.

use std::fmt;

/// A parsed YAML value.
#[derive(Clone, Debug, PartialEq)]
pub enum Yaml {
    /// Absent / empty value.
    Null,
    /// Boolean scalar (`true` / `false`).
    Bool(bool),
    /// Integer scalar (decimal or `0x` hex).
    Int(i64),
    /// Floating-point scalar.
    Float(f64),
    /// String scalar (quoted or plain).
    Str(String),
    /// Sequence.
    Seq(Vec<Yaml>),
    /// Mapping with preserved key order.
    Map(Vec<(String, Yaml)>),
}

impl Yaml {
    /// Looks up a key in a mapping.
    pub fn get(&self, key: &str) -> Option<&Yaml> {
        match self {
            Yaml::Map(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// String view (only for `Str`).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Yaml::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Integer view (accepts `Int`; also `Bool` as 0/1 like YAML 1.1 tools).
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Yaml::Int(v) => Some(*v),
            Yaml::Bool(b) => Some(*b as i64),
            _ => None,
        }
    }

    /// Float view (accepts `Float` and `Int`).
    pub fn as_float(&self) -> Option<f64> {
        match self {
            Yaml::Float(v) => Some(*v),
            Yaml::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Boolean view.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Yaml::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Sequence view.
    pub fn as_seq(&self) -> Option<&[Yaml]> {
        match self {
            Yaml::Seq(v) => Some(v),
            _ => None,
        }
    }

    /// Mapping view.
    pub fn as_map(&self) -> Option<&[(String, Yaml)]> {
        match self {
            Yaml::Map(v) => Some(v),
            _ => None,
        }
    }

    /// A scalar rendered back to text (used by the emitter).
    pub fn scalar_text(&self) -> Option<String> {
        match self {
            Yaml::Null => Some("null".into()),
            Yaml::Bool(b) => Some(b.to_string()),
            Yaml::Int(v) => Some(v.to_string()),
            Yaml::Float(v) => Some(format_float(*v)),
            Yaml::Str(s) => Some(quote_if_needed(s)),
            // Empty containers have flow/degraded scalar forms; non-empty
            // containers have none.
            Yaml::Seq(v) if v.is_empty() => Some("[]".into()),
            Yaml::Map(m) if m.is_empty() => Some("null".into()),
            _ => None,
        }
    }
}

/// A parse error with 1-based line information.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct YamlError {
    /// 1-based line number.
    pub line: usize,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for YamlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for YamlError {}

/// Deepest container nesting [`parse`] accepts: block mappings, block
/// sequences, inline `- key: value` maps and flow sequences all count one
/// level each, the root included. The parser recurses once per level, so
/// without a bound a job of nothing but `[` (or ever-deeper indentation)
/// overflows the stack and aborts the process — and `wfd` parses a
/// client's submitted job on a connection thread. Every real job file
/// nests a few levels at most.
const MAX_YAML_DEPTH: usize = 128;

/// One significant (non-blank, non-comment) line.
struct Line<'a> {
    number: usize,
    indent: usize,
    content: &'a str,
}

/// Parses a YAML document.
///
/// # Examples
///
/// ```
/// use wf_jobfile::yaml::{parse, Yaml};
///
/// let doc = parse("name: demo\niterations: 250\n").unwrap();
/// assert_eq!(doc.get("name").and_then(Yaml::as_str), Some("demo"));
/// assert_eq!(doc.get("iterations").and_then(Yaml::as_int), Some(250));
/// ```
pub fn parse(input: &str) -> Result<Yaml, YamlError> {
    let mut lines = Vec::new();
    for (i, raw) in input.lines().enumerate() {
        let without_comment = strip_comment(raw);
        let trimmed_end = without_comment.trim_end();
        if trimmed_end.trim().is_empty() {
            continue;
        }
        if trimmed_end.contains('\t') {
            return Err(YamlError {
                line: i + 1,
                message: "tabs are not allowed in indentation".into(),
            });
        }
        let indent = trimmed_end.len() - trimmed_end.trim_start().len();
        lines.push(Line {
            number: i + 1,
            indent,
            content: trimmed_end.trim_start(),
        });
    }
    if lines.is_empty() {
        return Ok(Yaml::Null);
    }
    let mut pos = 0;
    let root_indent = lines[0].indent;
    let value = parse_block(&lines, &mut pos, root_indent, 0)?;
    if pos != lines.len() {
        return Err(YamlError {
            line: lines[pos].number,
            message: format!("unexpected content at indent {}", lines[pos].indent),
        });
    }
    Ok(value)
}

/// Opens one more container level below `depth` open ones, refusing to
/// go past [`MAX_YAML_DEPTH`].
fn nest(depth: usize, line: usize) -> Result<usize, YamlError> {
    if depth == MAX_YAML_DEPTH {
        return Err(YamlError {
            line,
            message: format!("nested deeper than {MAX_YAML_DEPTH} levels"),
        });
    }
    Ok(depth + 1)
}

/// Parses the block at `*pos`; `depth` counts the containers around it.
fn parse_block(
    lines: &[Line],
    pos: &mut usize,
    indent: usize,
    depth: usize,
) -> Result<Yaml, YamlError> {
    let depth = nest(depth, lines[*pos].number)?;
    if lines[*pos].content.starts_with("- ") || lines[*pos].content == "-" {
        parse_sequence(lines, pos, indent, depth)
    } else {
        parse_mapping(lines, pos, indent, depth)
    }
}

fn parse_sequence(
    lines: &[Line],
    pos: &mut usize,
    indent: usize,
    depth: usize,
) -> Result<Yaml, YamlError> {
    let mut items = Vec::new();
    while *pos < lines.len() && lines[*pos].indent == indent {
        let line = &lines[*pos];
        let rest = if line.content == "-" {
            ""
        } else if let Some(r) = line.content.strip_prefix("- ") {
            r
        } else {
            break;
        };
        let number = line.number;
        *pos += 1;
        if rest.is_empty() {
            // Item body is the following deeper block.
            if *pos < lines.len() && lines[*pos].indent > indent {
                let child_indent = lines[*pos].indent;
                items.push(parse_block(lines, pos, child_indent, depth)?);
            } else {
                items.push(Yaml::Null);
            }
        } else if let Some((key, value_text)) = split_key(rest) {
            // Inline map item: `- key: value`, continued at deeper indent.
            // Continuation keys align under the first key (indent + 2).
            let depth = nest(depth, number)?;
            let mut pairs = vec![(
                key.to_string(),
                inline_value(value_text, lines, pos, indent, number, depth)?,
            )];
            let cont_indent = indent + 2;
            while *pos < lines.len()
                && lines[*pos].indent == cont_indent
                && !lines[*pos].content.starts_with("- ")
            {
                let (k, v) = parse_mapping_entry(lines, pos, depth)?;
                pairs.push((k, v));
            }
            items.push(Yaml::Map(pairs));
        } else {
            items.push(parse_scalar(rest, number, depth)?);
        }
    }
    Ok(Yaml::Seq(items))
}

fn parse_mapping(
    lines: &[Line],
    pos: &mut usize,
    indent: usize,
    depth: usize,
) -> Result<Yaml, YamlError> {
    let mut pairs = Vec::new();
    while *pos < lines.len()
        && lines[*pos].indent == indent
        && !lines[*pos].content.starts_with("- ")
    {
        let (k, v) = parse_mapping_entry(lines, pos, depth)?;
        if pairs.iter().any(|(prev, _)| *prev == k) {
            return Err(YamlError {
                line: lines[*pos - 1].number,
                message: format!("duplicate key {k:?}"),
            });
        }
        pairs.push((k, v));
    }
    if pairs.is_empty() {
        return Err(YamlError {
            line: lines[*pos].number,
            message: format!("expected `key: value`, got {:?}", lines[*pos].content),
        });
    }
    Ok(Yaml::Map(pairs))
}

/// Parses one `key: ...` entry (the line at `*pos`) and any nested block.
fn parse_mapping_entry(
    lines: &[Line],
    pos: &mut usize,
    depth: usize,
) -> Result<(String, Yaml), YamlError> {
    let line = &lines[*pos];
    let indent = line.indent;
    let number = line.number;
    let (key, value_text) = split_key(line.content).ok_or_else(|| YamlError {
        line: number,
        message: format!("expected `key: value`, got {:?}", line.content),
    })?;
    *pos += 1;
    let value = if value_text.is_empty() {
        if *pos < lines.len() && lines[*pos].indent > indent {
            let child_indent = lines[*pos].indent;
            parse_block(lines, pos, child_indent, depth)?
        } else {
            Yaml::Null
        }
    } else {
        parse_scalar(value_text, number, depth)?
    };
    Ok((key.to_string(), value))
}

/// Value of an inline `- key: value` head; empty means nested block.
fn inline_value(
    text: &str,
    lines: &[Line],
    pos: &mut usize,
    item_indent: usize,
    number: usize,
    depth: usize,
) -> Result<Yaml, YamlError> {
    if text.is_empty() {
        if *pos < lines.len() && lines[*pos].indent > item_indent + 2 {
            let child_indent = lines[*pos].indent;
            return parse_block(lines, pos, child_indent, depth);
        }
        return Ok(Yaml::Null);
    }
    parse_scalar(text, number, depth)
}

/// Splits `key: value` (colon must be followed by space or end of line).
fn split_key(s: &str) -> Option<(&str, &str)> {
    let mut in_str = false;
    for (i, c) in s.char_indices() {
        match c {
            '"' => in_str = !in_str,
            ':' if !in_str => {
                let rest = &s[i + 1..];
                if rest.is_empty() {
                    return Some((s[..i].trim(), ""));
                }
                if let Some(stripped) = rest.strip_prefix(' ') {
                    return Some((s[..i].trim(), stripped.trim()));
                }
            }
            _ => {}
        }
    }
    None
}

fn parse_scalar(s: &str, line: usize, depth: usize) -> Result<Yaml, YamlError> {
    let s = s.trim();
    if s.starts_with('[') {
        return parse_flow_seq(s, line, depth);
    }
    if let Some(inner) = s.strip_prefix('"') {
        let inner = inner.strip_suffix('"').ok_or_else(|| YamlError {
            line,
            message: format!("unterminated string {s:?}"),
        })?;
        return Ok(Yaml::Str(inner.to_string()));
    }
    if let Some(inner) = s.strip_prefix('\'') {
        let inner = inner.strip_suffix('\'').ok_or_else(|| YamlError {
            line,
            message: format!("unterminated string {s:?}"),
        })?;
        return Ok(Yaml::Str(inner.to_string()));
    }
    Ok(plain_scalar(s))
}

fn plain_scalar(s: &str) -> Yaml {
    match s {
        "null" | "~" | "" => return Yaml::Null,
        "true" | "True" => return Yaml::Bool(true),
        "false" | "False" => return Yaml::Bool(false),
        _ => {}
    }
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        if let Ok(v) = i64::from_str_radix(hex, 16) {
            return Yaml::Int(v);
        }
    }
    if let Ok(v) = s.parse::<i64>() {
        return Yaml::Int(v);
    }
    // Floats must contain a digit to avoid swallowing words like `nan-x`.
    if s.chars().any(|c| c.is_ascii_digit()) {
        if let Ok(v) = s.parse::<f64>() {
            return Yaml::Float(v);
        }
    }
    Yaml::Str(s.to_string())
}

fn parse_flow_seq(s: &str, line: usize, depth: usize) -> Result<Yaml, YamlError> {
    let depth = nest(depth, line)?;
    let inner = s
        .strip_prefix('[')
        .and_then(|x| x.strip_suffix(']'))
        .ok_or_else(|| YamlError {
            line,
            message: format!("unterminated flow sequence {s:?}"),
        })?;
    let mut items = Vec::new();
    if inner.trim().is_empty() {
        return Ok(Yaml::Seq(items));
    }
    for part in split_flow_items(inner) {
        items.push(parse_scalar(part.trim(), line, depth)?);
    }
    Ok(Yaml::Seq(items))
}

/// Splits flow-sequence items on commas outside quotes.
fn split_flow_items(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut start = 0;
    let mut in_str = false;
    for (i, c) in s.char_indices() {
        match c {
            '"' | '\'' => in_str = !in_str,
            ',' if !in_str => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&s[start..]);
    out
}

fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    let mut quote = ' ';
    for (i, c) in line.char_indices() {
        match c {
            '"' | '\'' if !in_str => {
                in_str = true;
                quote = c;
            }
            c2 if in_str && c2 == quote => in_str = false,
            '#' if !in_str
                // `#` only starts a comment at line start or after a space.
                && (i == 0 || line.as_bytes()[i - 1] == b' ') =>
            {
                return &line[..i];
            }
            _ => {}
        }
    }
    line
}

/// Serializes a [`Yaml`] value back to text.
///
/// The output re-parses to an equal value (round-trip property tested),
/// with one caveat: `Null` map values print as explicit `null`.
pub fn emit(value: &Yaml) -> String {
    let mut out = String::new();
    emit_block(value, 0, &mut out);
    out
}

fn emit_block(value: &Yaml, indent: usize, out: &mut String) {
    let pad = " ".repeat(indent);
    match value {
        Yaml::Map(pairs) => {
            for (k, v) in pairs {
                match v {
                    Yaml::Map(_) | Yaml::Seq(_) if !is_empty_container(v) => {
                        out.push_str(&format!("{pad}{k}:\n"));
                        emit_block(v, indent + 2, out);
                    }
                    Yaml::Seq(items) if items.is_empty() => {
                        out.push_str(&format!("{pad}{k}: []\n"));
                    }
                    other => {
                        out.push_str(&format!(
                            "{pad}{k}: {}\n",
                            other.scalar_text().unwrap_or_else(|| "null".into())
                        ));
                    }
                }
            }
        }
        Yaml::Seq(items) => {
            for item in items {
                match item {
                    Yaml::Map(pairs) if !pairs.is_empty() => {
                        // `- key: value` head, remaining keys aligned below.
                        let (k0, v0) = &pairs[0];
                        match v0 {
                            Yaml::Map(_) | Yaml::Seq(_) if !is_empty_container(v0) => {
                                out.push_str(&format!("{pad}- {k0}:\n"));
                                emit_block(v0, indent + 4, out);
                            }
                            other => out.push_str(&format!(
                                "{pad}- {k0}: {}\n",
                                other.scalar_text().unwrap_or_else(|| "null".into())
                            )),
                        }
                        for (k, v) in &pairs[1..] {
                            match v {
                                Yaml::Map(_) | Yaml::Seq(_) if !is_empty_container(v) => {
                                    out.push_str(&format!("{pad}  {k}:\n"));
                                    emit_block(v, indent + 4, out);
                                }
                                other => out.push_str(&format!(
                                    "{pad}  {k}: {}\n",
                                    other.scalar_text().unwrap_or_else(|| "null".into())
                                )),
                            }
                        }
                    }
                    Yaml::Seq(items) if items.is_empty() => {
                        out.push_str(&format!("{pad}- []\n"));
                    }
                    // An empty mapping has no block representation in the
                    // subset; it degrades to null (documented caveat).
                    Yaml::Map(_) if is_empty_container(item) => {
                        out.push_str(&format!("{pad}- null\n"));
                    }
                    Yaml::Seq(_) | Yaml::Map(_) => {
                        out.push_str(&format!("{pad}-\n"));
                        emit_block(item, indent + 2, out);
                    }
                    scalar => out.push_str(&format!(
                        "{pad}- {}\n",
                        scalar.scalar_text().unwrap_or_else(|| "null".into())
                    )),
                }
            }
        }
        scalar => out.push_str(&format!(
            "{pad}{}\n",
            scalar.scalar_text().unwrap_or_else(|| "null".into())
        )),
    }
}

fn is_empty_container(v: &Yaml) -> bool {
    matches!(v, Yaml::Seq(items) if items.is_empty())
        || matches!(v, Yaml::Map(pairs) if pairs.is_empty())
}

fn quote_if_needed(s: &str) -> String {
    let needs = s.is_empty()
        || s.contains(':')
        || s.contains('#')
        || s.contains('[')
        || s.contains(',')
        || s.starts_with('-')
        || s.starts_with(' ')
        || s.ends_with(' ')
        || matches!(s, "true" | "false" | "null" | "~" | "True" | "False")
        || s.parse::<f64>().is_ok()
        || (s.starts_with("0x") && i64::from_str_radix(&s[2..], 16).is_ok());
    if needs {
        format!("\"{s}\"")
    } else {
        s.to_string()
    }
}

fn format_float(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        let doc = parse("a: 1\nb: 2.5\nc: true\nd: hello\ne: \"quoted: text\"\nf: 0x10\ng: null\n")
            .unwrap();
        assert_eq!(doc.get("a"), Some(&Yaml::Int(1)));
        assert_eq!(doc.get("b"), Some(&Yaml::Float(2.5)));
        assert_eq!(doc.get("c"), Some(&Yaml::Bool(true)));
        assert_eq!(doc.get("d").and_then(Yaml::as_str), Some("hello"));
        assert_eq!(doc.get("e").and_then(Yaml::as_str), Some("quoted: text"));
        assert_eq!(doc.get("f"), Some(&Yaml::Int(16)));
        assert_eq!(doc.get("g"), Some(&Yaml::Null));
    }

    #[test]
    fn parses_nested_maps() {
        let doc = parse("budget:\n  iterations: 250\n  time: 3600\nname: x\n").unwrap();
        let budget = doc.get("budget").unwrap();
        assert_eq!(budget.get("iterations"), Some(&Yaml::Int(250)));
        assert_eq!(doc.get("name").and_then(Yaml::as_str), Some("x"));
    }

    #[test]
    fn parses_sequences_of_scalars_and_maps() {
        let text = "\
params:
  - name: somaxconn
    min: 16
    max: 65535
  - name: quiet
    min: 0
    max: 1
tags:
  - fast
  - slow
";
        let doc = parse(text).unwrap();
        let params = doc.get("params").unwrap().as_seq().unwrap();
        assert_eq!(params.len(), 2);
        assert_eq!(
            params[0].get("name").and_then(Yaml::as_str),
            Some("somaxconn")
        );
        assert_eq!(params[0].get("max"), Some(&Yaml::Int(65535)));
        assert_eq!(params[1].get("name").and_then(Yaml::as_str), Some("quiet"));
        let tags = doc.get("tags").unwrap().as_seq().unwrap();
        assert_eq!(tags.len(), 2);
    }

    #[test]
    fn parses_flow_sequences() {
        let doc = parse("choices: [pfifo, bfifo, \"fq, codel\"]\nempty: []\n").unwrap();
        let c = doc.get("choices").unwrap().as_seq().unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c[2].as_str(), Some("fq, codel"));
        assert_eq!(doc.get("empty").unwrap().as_seq().unwrap().len(), 0);
    }

    #[test]
    fn comments_and_blanks_are_skipped() {
        let doc = parse("# header\na: 1 # trailing\n\nb: \"#not a comment\"\n").unwrap();
        assert_eq!(doc.get("a"), Some(&Yaml::Int(1)));
        assert_eq!(doc.get("b").and_then(Yaml::as_str), Some("#not a comment"));
    }

    #[test]
    fn rejects_tabs_and_duplicates() {
        assert!(parse("a:\n\tb: 1\n").is_err());
        let err = parse("a: 1\na: 2\n").unwrap_err();
        assert!(err.message.contains("duplicate"));
    }

    #[test]
    fn rejects_trailing_garbage() {
        // A dedent below the root indent cannot be valid.
        let err = parse("  a: 1\nb: 2\n").unwrap_err();
        assert_eq!(err.line, 2);
    }

    #[test]
    fn emit_round_trips() {
        let text = "\
name: nginx
budget:
  iterations: 250
params:
  - name: somaxconn
    min: 16
    log: true
  - name: qdisc
    choices: [pfifo, bfifo]
tags:
  - a
  - 3
";
        let doc = parse(text).unwrap();
        let emitted = emit(&doc);
        let back = parse(&emitted).unwrap();
        assert_eq!(doc, back, "emitted:\n{emitted}");
    }

    #[test]
    fn deep_nesting_round_trips() {
        let text = "a:\n  b:\n    c:\n      - d: 1\n      - e: [x, y]\n";
        let doc = parse(text).unwrap();
        assert_eq!(parse(&emit(&doc)).unwrap(), doc);
    }

    /// A document nesting exactly `levels` containers: the root mapping
    /// holding `levels - 1` flow sequences.
    fn flow_nest(levels: usize) -> String {
        let inner = levels - 1;
        format!("a: {}{}\n", "[".repeat(inner), "]".repeat(inner))
    }

    /// A document nesting exactly `levels` block mappings, one indent
    /// step deeper per level.
    fn block_nest(levels: usize) -> String {
        let mut text = String::new();
        for level in 0..levels {
            text.push_str(&" ".repeat(level));
            text.push_str(if level + 1 == levels {
                "k: 1\n"
            } else {
                "k:\n"
            });
        }
        text
    }

    #[test]
    fn nesting_is_bounded_at_the_depth_limit() {
        assert!(parse(&flow_nest(MAX_YAML_DEPTH)).is_ok());
        let err = parse(&flow_nest(MAX_YAML_DEPTH + 1)).unwrap_err();
        assert!(err.message.contains("nested deeper"), "{err}");

        assert!(parse(&block_nest(MAX_YAML_DEPTH)).is_ok());
        let err = parse(&block_nest(MAX_YAML_DEPTH + 1)).unwrap_err();
        assert!(err.message.contains("nested deeper"), "{err}");
        assert_eq!(
            err.line,
            MAX_YAML_DEPTH + 1,
            "points at the first too-deep line"
        );
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        // Both shapes abort an unbounded recursive parser: 200 000 flow
        // brackets on one line, and mapping keys nested 5 700 levels deep.
        let flow = format!("params: {}{}\n", "[".repeat(200_000), "]".repeat(200_000));
        assert!(parse(&flow).is_err());
        assert!(parse(&block_nest(5_700)).is_err());
    }

    #[test]
    fn strings_that_look_like_numbers_survive() {
        let doc = Yaml::Map(vec![("v".into(), Yaml::Str("1.5".into()))]);
        let back = parse(&emit(&doc)).unwrap();
        assert_eq!(back.get("v").and_then(Yaml::as_str), Some("1.5"));
    }
}
