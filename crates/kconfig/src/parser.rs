//! Parser for the Kconfig-subset language.
//!
//! The supported grammar covers what the synthetic Linux model and the tests
//! need — the same constructs the real Linux `Kconfig` files use most:
//!
//! ```text
//! menu "Networking support"
//! config NET
//!     bool "Networking support"
//!     depends on A && (B || !C)
//!     select INET if FOO
//!     default y if BAR
//!     range 12 25          # int/hex only
//!     help
//!       Free-form help text, indented.
//! endmenu
//! ```
//!
//! Unsupported Kconfig features (`choice` blocks, `imply`, `visible if`,
//! macros) are rejected with an error rather than silently ignored.

use crate::ast::{Default, DefaultValue, Expr, KconfigModel, Select, Symbol, SymbolType};
use std::fmt;
use wf_configspace::Tristate;

/// A parse error with 1-based line information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parses Kconfig text into a model.
pub fn parse(input: &str) -> Result<KconfigModel, ParseError> {
    let mut model = KconfigModel::new();
    let mut menu_stack: Vec<String> = Vec::new();
    let mut current: Option<Symbol> = None;
    // Tree height of `current`'s conjoined `depends on` lines.
    let mut depends_height = 0;
    let mut lines = input.lines().enumerate().peekable();

    while let Some((lineno, raw)) = lines.next() {
        let lineno = lineno + 1;
        let line = strip_comment(raw);
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let err = |message: String| ParseError {
            line: lineno,
            message,
        };

        let (keyword, rest) = split_keyword(trimmed);
        match keyword {
            "menu" => {
                flush(&mut model, &mut current);
                let title = parse_quoted(rest)
                    .ok_or_else(|| err(format!("menu needs a quoted title, got {rest:?}")))?;
                menu_stack.push(title);
            }
            "endmenu" => {
                flush(&mut model, &mut current);
                menu_stack
                    .pop()
                    .ok_or_else(|| err("endmenu without matching menu".into()))?;
            }
            "config" | "menuconfig" => {
                flush(&mut model, &mut current);
                let name = rest.trim();
                if name.is_empty() || !name.chars().all(is_symbol_char) {
                    return Err(err(format!("invalid symbol name {name:?}")));
                }
                let mut sym = Symbol::new(name, SymbolType::Bool);
                sym.menu = menu_stack.join("/");
                // The type line follows; mark untyped via a sentinel until
                // we see it (Kconfig requires a type line).
                current = Some(sym);
            }
            "bool" | "tristate" | "int" | "hex" | "string" => {
                let sym = current
                    .as_mut()
                    .ok_or_else(|| err(format!("{keyword} outside a config block")))?;
                sym.stype = match keyword {
                    "bool" => SymbolType::Bool,
                    "tristate" => SymbolType::Tristate,
                    "int" => SymbolType::Int,
                    "hex" => SymbolType::Hex,
                    _ => SymbolType::String,
                };
                let rest = rest.trim();
                if !rest.is_empty() {
                    sym.prompt = Some(
                        parse_quoted(rest)
                            .ok_or_else(|| err(format!("prompt must be quoted: {rest:?}")))?,
                    );
                }
            }
            "depends" => {
                let sym = current
                    .as_mut()
                    .ok_or_else(|| err("depends outside a config block".into()))?;
                let rest = rest
                    .trim()
                    .strip_prefix("on")
                    .ok_or_else(|| err("expected `depends on`".into()))?;
                let e = parse_tree(rest.trim()).map_err(&err)?;
                let (depends, height) = match sym.depends.take() {
                    Some(prev) => join(Expr::And, (prev, depends_height), e).map_err(&err)?,
                    None => e,
                };
                sym.depends = Some(depends);
                depends_height = height;
            }
            "select" => {
                let sym = current
                    .as_mut()
                    .ok_or_else(|| err("select outside a config block".into()))?;
                let (target, cond) = split_if(rest.trim());
                if target.is_empty() || !target.chars().all(is_symbol_char) {
                    return Err(err(format!("invalid select target {target:?}")));
                }
                let condition = match cond {
                    Some(c) => Some(parse_expr(c).map_err(&err)?),
                    None => None,
                };
                sym.selects.push(Select {
                    target: target.to_string(),
                    condition,
                });
            }
            "default" => {
                let sym = current
                    .as_mut()
                    .ok_or_else(|| err("default outside a config block".into()))?;
                let (val, cond) = split_if(rest.trim());
                let value = parse_default_value(val, sym.stype)
                    .ok_or_else(|| err(format!("bad default {val:?} for {}", sym.stype)))?;
                let condition = match cond {
                    Some(c) => Some(parse_expr(c).map_err(&err)?),
                    None => None,
                };
                sym.defaults.push(Default { value, condition });
            }
            "range" => {
                let sym = current
                    .as_mut()
                    .ok_or_else(|| err("range outside a config block".into()))?;
                let mut parts = rest.split_whitespace();
                let lo = parts
                    .next()
                    .and_then(parse_int)
                    .ok_or_else(|| err("range needs two integers".into()))?;
                let hi = parts
                    .next()
                    .and_then(parse_int)
                    .ok_or_else(|| err("range needs two integers".into()))?;
                if lo > hi {
                    return Err(err(format!("empty range {lo} {hi}")));
                }
                sym.range = Some((lo, hi));
            }
            "help" => {
                let sym = current
                    .as_mut()
                    .ok_or_else(|| err("help outside a config block".into()))?;
                // Consume following indented lines as help text.
                let mut text = String::new();
                while let Some((_, next)) = lines.peek() {
                    if next.trim().is_empty() {
                        lines.next();
                        continue;
                    }
                    if next.starts_with([' ', '\t']) {
                        if !text.is_empty() {
                            text.push(' ');
                        }
                        text.push_str(next.trim());
                        lines.next();
                    } else {
                        break;
                    }
                }
                sym.help = text;
            }
            other => {
                return Err(err(format!("unsupported keyword {other:?}")));
            }
        }
    }
    flush(&mut model, &mut current);
    Ok(model)
}

fn flush(model: &mut KconfigModel, current: &mut Option<Symbol>) {
    if let Some(sym) = current.take() {
        model.add(sym);
    }
}

fn strip_comment(line: &str) -> &str {
    // `#` starts a comment unless inside a quoted string.
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn split_keyword(line: &str) -> (&str, &str) {
    match line.find(char::is_whitespace) {
        Some(i) => (&line[..i], &line[i..]),
        None => (line, ""),
    }
}

fn parse_quoted(s: &str) -> Option<String> {
    let s = s.trim();
    let inner = s.strip_prefix('"')?.strip_suffix('"')?;
    Some(inner.to_string())
}

fn is_symbol_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Splits `"<head> if <cond>"` into head and optional condition.
fn split_if(s: &str) -> (&str, Option<&str>) {
    // Find ` if ` outside quotes.
    let bytes = s.as_bytes();
    let mut in_str = false;
    let pat = b" if ";
    if s.len() >= pat.len() {
        for i in 0..=s.len() - pat.len() {
            if bytes[i] == b'"' {
                in_str = !in_str;
            }
            if !in_str && &bytes[i..i + pat.len()] == pat {
                return (s[..i].trim(), Some(s[i + pat.len()..].trim()));
            }
        }
    }
    (s.trim(), None)
}

fn parse_int(s: &str) -> Option<i64> {
    let s = s.trim();
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

fn parse_default_value(s: &str, stype: SymbolType) -> Option<DefaultValue> {
    let s = s.trim();
    match stype {
        SymbolType::Bool | SymbolType::Tristate => {
            if let Some(t) = Tristate::parse(s) {
                Some(DefaultValue::Tri(t))
            } else if s.chars().all(is_symbol_char) && !s.is_empty() {
                Some(DefaultValue::Sym(s.to_string()))
            } else {
                None
            }
        }
        SymbolType::Int | SymbolType::Hex => {
            if let Some(v) = parse_int(s) {
                Some(DefaultValue::Int(v))
            } else if s.chars().all(is_symbol_char) && !s.is_empty() {
                Some(DefaultValue::Sym(s.to_string()))
            } else {
                None
            }
        }
        SymbolType::String => parse_quoted(s).map(DefaultValue::Str),
    }
}

/// How many `!` and `(` levels an expression may nest, and how tall its
/// tree may grow. Each nesting level is one recursion of the parser and
/// each tree level one recursion of every walk over it (drop included),
/// so deeper input is refused with an error instead of overflowing the
/// stack. The generated Kconfig trees stay below height 2.
const MAX_EXPR_DEPTH: usize = 128;

/// A parsed expression and the height of its tree (a leaf is 0).
type Parsed = (Expr, usize);

/// Recursive-descent parser for dependency expressions.
///
/// Grammar: `or := and ('||' and)*`, `and := cmp ('&&' cmp)*`,
/// `cmp := unary (('='|'!=') unary)?`, `unary := '!' unary | primary`,
/// `primary := '(' or ')' | SYMBOL | 'y' | 'm' | 'n'`. Nesting `!` and
/// `(` deeper than 128 levels (`MAX_EXPR_DEPTH`) is an error, and so is
/// a tree taller than that, such as a chain of 129 `&&`.
pub fn parse_expr(input: &str) -> Result<Expr, String> {
    parse_tree(input).map(|(e, _)| e)
}

fn parse_tree(input: &str) -> Result<Parsed, String> {
    let tokens = tokenize_expr(input)?;
    let mut pos = 0;
    let e = parse_or(&tokens, &mut pos, 0)?;
    if pos != tokens.len() {
        return Err(format!(
            "trailing tokens after expression: {:?}",
            &tokens[pos..]
        ));
    }
    Ok(e)
}

/// Joins two subtrees under a binary operator, refusing a tree taller
/// than `MAX_EXPR_DEPTH`.
fn join(
    op: fn(Box<Expr>, Box<Expr>) -> Expr,
    (a, ha): Parsed,
    (b, hb): Parsed,
) -> Result<Parsed, String> {
    let height = 1 + ha.max(hb);
    if height > MAX_EXPR_DEPTH {
        return Err(format!(
            "expression tree taller than {MAX_EXPR_DEPTH} levels"
        ));
    }
    Ok((op(Box::new(a), Box::new(b)), height))
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Tok {
    Sym(String),
    AndAnd,
    OrOr,
    Not,
    Eq,
    Neq,
    LParen,
    RParen,
}

fn tokenize_expr(s: &str) -> Result<Vec<Tok>, String> {
    let mut out = Vec::new();
    let mut chars = s.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            ' ' | '\t' => {
                chars.next();
            }
            '(' => {
                chars.next();
                out.push(Tok::LParen);
            }
            ')' => {
                chars.next();
                out.push(Tok::RParen);
            }
            '&' => {
                chars.next();
                if chars.next() != Some('&') {
                    return Err("single & in expression".into());
                }
                out.push(Tok::AndAnd);
            }
            '|' => {
                chars.next();
                if chars.next() != Some('|') {
                    return Err("single | in expression".into());
                }
                out.push(Tok::OrOr);
            }
            '!' => {
                chars.next();
                if chars.peek() == Some(&'=') {
                    chars.next();
                    out.push(Tok::Neq);
                } else {
                    out.push(Tok::Not);
                }
            }
            '=' => {
                chars.next();
                out.push(Tok::Eq);
            }
            c if is_symbol_char(c) => {
                let mut name = String::new();
                while let Some(&c) = chars.peek() {
                    if is_symbol_char(c) {
                        name.push(c);
                        chars.next();
                    } else {
                        break;
                    }
                }
                out.push(Tok::Sym(name));
            }
            other => return Err(format!("unexpected character {other:?}")),
        }
    }
    Ok(out)
}

fn parse_or(toks: &[Tok], pos: &mut usize, depth: usize) -> Result<Parsed, String> {
    let mut left = parse_and(toks, pos, depth)?;
    while toks.get(*pos) == Some(&Tok::OrOr) {
        *pos += 1;
        let right = parse_and(toks, pos, depth)?;
        left = join(Expr::Or, left, right)?;
    }
    Ok(left)
}

fn parse_and(toks: &[Tok], pos: &mut usize, depth: usize) -> Result<Parsed, String> {
    let mut left = parse_cmp(toks, pos, depth)?;
    while toks.get(*pos) == Some(&Tok::AndAnd) {
        *pos += 1;
        let right = parse_cmp(toks, pos, depth)?;
        left = join(Expr::And, left, right)?;
    }
    Ok(left)
}

fn parse_cmp(toks: &[Tok], pos: &mut usize, depth: usize) -> Result<Parsed, String> {
    let left = parse_unary(toks, pos, depth)?;
    let op = match toks.get(*pos) {
        Some(Tok::Eq) => Expr::Eq,
        Some(Tok::Neq) => Expr::Neq,
        _ => return Ok(left),
    };
    *pos += 1;
    let right = parse_unary(toks, pos, depth)?;
    join(op, left, right)
}

/// `depth` counts the `!` and `(` levels already open around this one.
fn parse_unary(toks: &[Tok], pos: &mut usize, depth: usize) -> Result<Parsed, String> {
    let opens = matches!(toks.get(*pos), Some(Tok::Not | Tok::LParen));
    if opens && depth == MAX_EXPR_DEPTH {
        return Err(format!(
            "expression nested deeper than {MAX_EXPR_DEPTH} levels"
        ));
    }
    match toks.get(*pos) {
        Some(Tok::Not) => {
            *pos += 1;
            let (inner, height) = parse_unary(toks, pos, depth + 1)?;
            Ok((Expr::Not(Box::new(inner)), height + 1))
        }
        Some(Tok::LParen) => {
            *pos += 1;
            let inner = parse_or(toks, pos, depth + 1)?;
            if toks.get(*pos) != Some(&Tok::RParen) {
                return Err("missing closing parenthesis".into());
            }
            *pos += 1;
            Ok(inner)
        }
        Some(Tok::Sym(s)) => {
            *pos += 1;
            // Bare y/m/n are literals, everything else a symbol reference.
            let leaf = match Tristate::parse(s) {
                Some(t) if s.len() == 1 => Expr::Lit(t),
                _ => Expr::Sym(s.clone()),
            };
            Ok((leaf, 0))
        }
        other => Err(format!("unexpected token {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"
menu "Networking support"

config NET
	bool "Networking support"
	default y
	help
	  Enables the network subsystem.
	  Needed by all network applications.

config INET
	tristate "TCP/IP networking"
	depends on NET
	select NETDEVICES if NET
	default m

config LOG_BUF_SHIFT
	int "Kernel log buffer size"
	range 12 25
	default 17
	depends on NET && (INET || !EMBEDDED)

config PHYSICAL_START
	hex "Physical load address"
	default 0x1000000

config DEFAULT_HOSTNAME
	string "Default hostname"
	default "(none)"

config NETDEVICES
	bool
	default n

config EMBEDDED
	bool "Embedded system"

endmenu
"#;

    #[test]
    fn parses_sample_model() {
        let m = parse(SAMPLE).expect("parse");
        assert_eq!(m.len(), 7);
        let net = m.by_name("NET").unwrap();
        assert_eq!(net.stype, SymbolType::Bool);
        assert_eq!(net.prompt.as_deref(), Some("Networking support"));
        assert_eq!(net.menu, "Networking support");
        assert!(net.help.contains("network subsystem"));

        let inet = m.by_name("INET").unwrap();
        assert_eq!(inet.stype, SymbolType::Tristate);
        assert_eq!(inet.depends, Some(Expr::Sym("NET".into())));
        assert_eq!(inet.selects.len(), 1);
        assert_eq!(inet.selects[0].target, "NETDEVICES");
        assert!(inet.selects[0].condition.is_some());

        let buf = m.by_name("LOG_BUF_SHIFT").unwrap();
        assert_eq!(buf.range, Some((12, 25)));
        assert_eq!(buf.defaults.len(), 1);

        let phys = m.by_name("PHYSICAL_START").unwrap();
        assert_eq!(phys.defaults[0].value, DefaultValue::Int(0x1000000));

        let host = m.by_name("DEFAULT_HOSTNAME").unwrap();
        assert_eq!(host.defaults[0].value, DefaultValue::Str("(none)".into()));
    }

    #[test]
    fn parses_complex_expressions() {
        let e = parse_expr("A && (B || !C) && D!=y").unwrap();
        let mut names = Vec::new();
        e.referenced(&mut names);
        assert_eq!(names, vec!["A", "B", "C", "D"]);
    }

    #[test]
    fn literal_vs_symbol_disambiguation() {
        assert_eq!(parse_expr("y").unwrap(), Expr::Lit(Tristate::Yes));
        assert_eq!(parse_expr("NET").unwrap(), Expr::Sym("NET".into()));
        // A multi-char name starting with n is a symbol, not a literal.
        assert_eq!(parse_expr("nfs").unwrap(), Expr::Sym("nfs".into()));
    }

    #[test]
    fn rejects_unknown_keywords() {
        let err = parse("choice\n").unwrap_err();
        assert!(err.message.contains("unsupported keyword"));
        assert_eq!(err.line, 1);
    }

    #[test]
    fn rejects_unbalanced_endmenu() {
        let err = parse("endmenu\n").unwrap_err();
        assert!(err.message.contains("endmenu"));
    }

    #[test]
    fn rejects_bad_range() {
        let src = "config A\n\tint \"a\"\n\trange 10 2\n";
        let err = parse(src).unwrap_err();
        assert!(err.message.contains("empty range"));
    }

    #[test]
    fn comments_are_stripped() {
        let src = "# top comment\nconfig A # trailing\n\tbool \"prompt # not a comment\"\n";
        let m = parse(src).expect("parse");
        assert_eq!(
            m.by_name("A").unwrap().prompt.as_deref(),
            Some("prompt # not a comment")
        );
    }

    #[test]
    fn hostile_nesting_is_an_error_not_a_stack_overflow() {
        for open in ["!", "("] {
            let err = parse_expr(&format!("{}A", open.repeat(200_000))).unwrap_err();
            assert!(err.contains("nested deeper"), "{open}: {err}");
        }
    }

    #[test]
    fn nesting_limit_is_exact() {
        let nots = |depth: usize| format!("{}A", "!".repeat(depth));
        let parens = |depth: usize| format!("{}A{}", "(".repeat(depth), ")".repeat(depth));
        for nest in [nots, parens] {
            assert!(parse_expr(&nest(MAX_EXPR_DEPTH)).is_ok());
            assert!(parse_expr(&nest(MAX_EXPR_DEPTH + 1)).is_err());
        }
        // Mixed nesting shares one budget.
        let mixed = format!("{}A{}", "!(".repeat(64), ")".repeat(64));
        assert!(parse_expr(&mixed).is_ok());
        let mixed = format!("!{}A{}", "!(".repeat(64), ")".repeat(64));
        assert!(parse_expr(&mixed).is_err());
    }

    #[test]
    fn hostile_chains_are_an_error_not_a_stack_overflow() {
        for op in [" && ", " || "] {
            let chain = vec!["A"; 200_000].join(op);
            let err = parse_expr(&chain).unwrap_err();
            assert!(err.contains("taller than"), "{op}: {err}");
        }
        let src = format!(
            "config A\n\tbool \"a\"\n{}",
            "\tdepends on B\n".repeat(200_000)
        );
        let err = parse(&src).unwrap_err();
        assert!(err.message.contains("taller than"), "{err}");
    }

    #[test]
    fn chain_height_limit_is_exact() {
        // A chain of n operands is a left-deep tree of height n - 1.
        for op in [" && ", " || "] {
            let chain = |operands: usize| vec!["A"; operands].join(op);
            assert!(parse_expr(&chain(MAX_EXPR_DEPTH + 1)).is_ok());
            assert!(parse_expr(&chain(MAX_EXPR_DEPTH + 2)).is_err());
        }
        let depends = |lines: usize| {
            format!(
                "config A\n\tbool \"a\"\n{}",
                "\tdepends on B\n".repeat(lines)
            )
        };
        assert!(parse(&depends(MAX_EXPR_DEPTH + 1)).is_ok());
        assert!(parse(&depends(MAX_EXPR_DEPTH + 2)).is_err());
        // Nesting and chains share one height budget.
        let nested = format!("{}A && B", "!".repeat(MAX_EXPR_DEPTH));
        assert!(parse_expr(&nested).is_err());
    }

    #[test]
    fn multiple_depends_lines_conjoin() {
        let src = "config A\n\tbool \"a\"\n\tdepends on B\n\tdepends on C\n";
        let m = parse(src).expect("parse");
        let d = m.by_name("A").unwrap().depends.clone().unwrap();
        assert_eq!(d.to_string(), "B && C");
    }
}
