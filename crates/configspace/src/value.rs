//! Parameter values and the Kconfig tristate.

use std::fmt::{self, Write as _};

/// Kconfig tristate value: `n` (absent), `m` (module), `y` (built-in).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Tristate {
    /// Feature disabled.
    No,
    /// Feature compiled as a loadable module.
    Module,
    /// Feature built into the kernel image.
    Yes,
}

impl Tristate {
    /// All tristate values, ordered `n < m < y` like Kconfig.
    pub const ALL: [Tristate; 3] = [Tristate::No, Tristate::Module, Tristate::Yes];

    /// Kconfig boolean AND: the minimum of the two values.
    pub fn and(self, other: Tristate) -> Tristate {
        self.min(other)
    }

    /// Kconfig boolean OR: the maximum of the two values.
    pub fn or(self, other: Tristate) -> Tristate {
        self.max(other)
    }

    /// Kconfig negation: `!y = n`, `!n = y`, `!m = m`.
    // Not `impl std::ops::Not`: Kconfig negation fixes `m`, which would be
    // misleading behind the `!` operator.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Tristate {
        match self {
            Tristate::No => Tristate::Yes,
            Tristate::Module => Tristate::Module,
            Tristate::Yes => Tristate::No,
        }
    }

    /// Returns `true` if the feature is present in any form (`m` or `y`).
    pub fn enabled(self) -> bool {
        self != Tristate::No
    }

    /// Numeric level used by feature encoding: n=0, m=1, y=2.
    pub fn level(self) -> usize {
        match self {
            Tristate::No => 0,
            Tristate::Module => 1,
            Tristate::Yes => 2,
        }
    }

    /// The single-letter Kconfig form: `n`, `m` or `y`. The one spelling
    /// of a tristate, behind both [`fmt::Display`] and the session
    /// store's value tokens; [`Tristate::parse`] reads it back.
    pub fn letter(self) -> char {
        match self {
            Tristate::No => 'n',
            Tristate::Module => 'm',
            Tristate::Yes => 'y',
        }
    }

    /// Parses the single-letter Kconfig form.
    pub fn parse(s: &str) -> Option<Tristate> {
        match s {
            "n" | "N" => Some(Tristate::No),
            "m" | "M" => Some(Tristate::Module),
            "y" | "Y" => Some(Tristate::Yes),
            _ => None,
        }
    }
}

impl fmt::Display for Tristate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_char(self.letter())
    }
}

/// The value assigned to one parameter in a configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Value {
    /// Boolean on/off.
    Bool(bool),
    /// Kconfig tristate.
    Tristate(Tristate),
    /// Integer (also used for `hex` parameters).
    Int(i64),
    /// Index into an enum parameter's choice list.
    Choice(usize),
}

impl Value {
    /// Returns the boolean payload if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the tristate payload if this is a `Tristate`.
    pub fn as_tristate(&self) -> Option<Tristate> {
        match self {
            Value::Tristate(t) => Some(*t),
            _ => None,
        }
    }

    /// Returns the integer payload if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Returns the choice index if this is a `Choice`.
    pub fn as_choice(&self) -> Option<usize> {
        match self {
            Value::Choice(i) => Some(*i),
            _ => None,
        }
    }

    /// A coarse numeric view used by effect models: booleans map to 0/1,
    /// tristates to their level, integers to themselves, choices to their
    /// index.
    pub fn as_f64(&self) -> f64 {
        match self {
            Value::Bool(b) => *b as u8 as f64,
            Value::Tristate(t) => t.level() as f64,
            Value::Int(v) => *v as f64,
            Value::Choice(i) => *i as f64,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{}", if *b { 1 } else { 0 }),
            Value::Tristate(t) => write!(f, "{t}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Choice(i) => write!(f, "#{i}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tristate_logic_matches_kconfig() {
        use Tristate::*;
        assert_eq!(Yes.and(Module), Module);
        assert_eq!(Yes.and(No), No);
        assert_eq!(No.or(Module), Module);
        assert_eq!(Module.or(Yes), Yes);
        assert_eq!(Yes.not(), No);
        assert_eq!(No.not(), Yes);
        assert_eq!(Module.not(), Module);
    }

    #[test]
    fn tristate_ordering() {
        assert!(Tristate::No < Tristate::Module);
        assert!(Tristate::Module < Tristate::Yes);
    }

    #[test]
    fn tristate_parse_roundtrip() {
        assert_eq!(Tristate::ALL.map(Tristate::letter), ['n', 'm', 'y']);
        for t in Tristate::ALL {
            assert_eq!(t.to_string(), t.letter().to_string());
            assert_eq!(Tristate::parse(&t.to_string()), Some(t));
        }
        assert_eq!(Tristate::parse("x"), None);
    }

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::Int(3).as_int(), Some(3));
        assert_eq!(Value::Choice(2).as_choice(), Some(2));
        assert_eq!(Value::Bool(true).as_int(), None);
    }

    #[test]
    fn value_numeric_view() {
        assert_eq!(Value::Bool(true).as_f64(), 1.0);
        assert_eq!(Value::Tristate(Tristate::Yes).as_f64(), 2.0);
        assert_eq!(Value::Int(-5).as_f64(), -5.0);
    }
}
