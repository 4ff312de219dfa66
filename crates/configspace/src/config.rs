//! Configurations: complete assignments of values to a space's parameters.

use crate::param::Stage;
use crate::space::ConfigSpace;
use crate::value::Value;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

/// A complete assignment of one [`Value`] per parameter of a
/// [`ConfigSpace`], stored positionally.
///
/// The values sit in one shared allocation: `clone` bumps a reference
/// count, and [`Configuration::set`] / [`Configuration::set_by_name`]
/// copy on write, so a session's record, its history observation and
/// its ledger event hold one copy of each configuration between them.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Configuration {
    values: Arc<[Value]>,
}

impl Configuration {
    /// Creates a configuration from positional values.
    ///
    /// Prefer [`ConfigSpace::default_config`] / sampling helpers, which
    /// guarantee domain validity. The values are copied into the shared
    /// allocation; collecting an iterator of known length into a
    /// `Configuration` fills it in place instead.
    pub fn from_values(values: Vec<Value>) -> Self {
        Self {
            values: values.into(),
        }
    }

    /// Number of assigned parameters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` for the empty configuration.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Positional access.
    pub fn get(&self, idx: usize) -> Value {
        self.values[idx]
    }

    /// Positional mutation.
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds.
    pub fn set(&mut self, idx: usize, value: Value) {
        Arc::make_mut(&mut self.values)[idx] = value;
    }

    /// All values in parameter order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Looks a value up by parameter name within `space`.
    pub fn by_name(&self, space: &ConfigSpace, name: &str) -> Option<Value> {
        space.index_of(name).map(|i| self.values[i])
    }

    /// Sets a value by parameter name; returns `false` if the name is
    /// unknown or the value is outside the parameter's domain.
    pub fn set_by_name(&mut self, space: &ConfigSpace, name: &str, value: Value) -> bool {
        match space.index_of(name) {
            Some(i) if space.spec(i).kind.admits(&value) => {
                self.set(i, value);
                true
            }
            _ => false,
        }
    }

    /// A stable 64-bit hash (FNV-1a over the value stream), used as an image
    /// cache key by the platform.
    pub fn fingerprint(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        for v in self.values.iter() {
            match v {
                Value::Bool(b) => {
                    mix(1);
                    mix(*b as u64);
                }
                Value::Tristate(t) => {
                    mix(2);
                    mix(t.level() as u64);
                }
                Value::Int(i) => {
                    mix(3);
                    mix(*i as u64);
                }
                Value::Choice(c) => {
                    mix(4);
                    mix(*c as u64);
                }
            }
        }
        h
    }

    /// Fingerprint restricted to parameters of the given stages; two configs
    /// with equal compile-time fingerprints can share a built image.
    pub fn stage_fingerprint(&self, space: &ConfigSpace, stages: &[Stage]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |v: u64| {
            h ^= v;
            h = h.wrapping_mul(0x1000_0000_01b3);
        };
        for (i, v) in self.values.iter().enumerate() {
            if !stages.contains(&space.spec(i).stage) {
                continue;
            }
            mix(i as u64);
            match v {
                Value::Bool(b) => mix(*b as u64 | 0x10),
                Value::Tristate(t) => mix(t.level() as u64 | 0x20),
                Value::Int(x) => mix(*x as u64 ^ 0x30),
                Value::Choice(c) => mix(*c as u64 | 0x40),
            }
        }
        h
    }

    /// The set of stages on which `self` and `other` differ. The platform
    /// uses this to skip rebuilds when only runtime parameters changed
    /// (§3.1).
    pub fn changed_stages(&self, other: &Configuration, space: &ConfigSpace) -> Vec<Stage> {
        let mut changed = Vec::new();
        for (i, (a, b)) in self.values.iter().zip(other.values.iter()).enumerate() {
            if a != b {
                let st = space.spec(i).stage;
                if !changed.contains(&st) {
                    changed.push(st);
                }
            }
        }
        changed.sort();
        changed
    }

    /// Indices of parameters whose values differ from `other`.
    pub fn diff_indices(&self, other: &Configuration) -> Vec<usize> {
        self.values
            .iter()
            .zip(other.values.iter())
            .enumerate()
            .filter_map(|(i, (a, b))| (a != b).then_some(i))
            .collect()
    }

    /// The name → value view the simulated OS consumes.
    ///
    /// The view shares `space`'s name index and copies this
    /// configuration's values, so it costs one `Arc` clone plus one
    /// allocation for the value vector, however many parameters (and
    /// however long their names) the space has.
    ///
    /// # Panics
    ///
    /// Panics if the configuration and the space differ in length.
    pub fn named(&self, space: &ConfigSpace) -> NamedConfig {
        assert_eq!(self.values.len(), space.len(), "length mismatch");
        NamedConfig {
            index: Arc::clone(&space.index),
            values: self.values.to_vec(),
        }
    }
}

impl FromIterator<Value> for Configuration {
    /// Collects positional values. An iterator of known length (a mapped
    /// range or slice) fills the shared allocation in place, with no
    /// intermediate vector.
    fn from_iter<I: IntoIterator<Item = Value>>(iter: I) -> Self {
        Self {
            values: iter.into_iter().collect(),
        }
    }
}

/// A resolved name → value view of a configuration.
///
/// The simulated OS substrate consumes this form so that it stays decoupled
/// from positional parameter indices: a search may only cover a *subset* of
/// the OS's parameters, in which case lookups for uncovered names return
/// `None` and the OS falls back to its defaults.
///
/// A view is a name → position index plus positional values. A view made
/// by [`Configuration::named`] shares its space's index, so a lookup is
/// one hash of the name and one vector read. [`NamedConfig::set`] is
/// copy-on-write: an existing name is overwritten in place, and a new
/// name copies the index first if it is shared, so a view never changes
/// its space or a sibling view.
#[derive(Clone, Debug, Default)]
pub struct NamedConfig {
    /// Name → position in `values`; exactly one entry per value.
    index: Arc<HashMap<String, usize>>,
    values: Vec<Value>,
}

impl NamedConfig {
    /// Creates an empty view (every lookup misses — pure OS defaults).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Creates a view from explicit pairs; a repeated name keeps its last
    /// value.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (String, Value)>) -> Self {
        let pairs = pairs.into_iter();
        let (hint, _) = pairs.size_hint();
        let mut index = HashMap::with_capacity(hint);
        let mut values = Vec::with_capacity(hint);
        for (name, value) in pairs {
            insert(&mut index, &mut values, name, value);
        }
        Self {
            index: Arc::new(index),
            values,
        }
    }

    /// Number of assigned names.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if no names are assigned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Looks up a value.
    pub fn get(&self, name: &str) -> Option<Value> {
        self.index.get(name).map(|&i| self.values[i])
    }

    /// Integer view with fallback.
    pub fn int_or(&self, name: &str, default: i64) -> i64 {
        self.get(name).and_then(|v| v.as_int()).unwrap_or(default)
    }

    /// Boolean view with fallback. Integer values are interpreted as
    /// booleans the way sysctl does (non-zero = true).
    pub fn bool_or(&self, name: &str, default: bool) -> bool {
        match self.get(name) {
            Some(Value::Bool(b)) => b,
            Some(Value::Int(i)) => i != 0,
            Some(Value::Tristate(t)) => t.enabled(),
            Some(Value::Choice(_)) | None => default,
        }
    }

    /// Choice-index view with fallback.
    pub fn choice_or(&self, name: &str, default: usize) -> usize {
        self.get(name)
            .and_then(|v| v.as_choice())
            .unwrap_or(default)
    }

    /// Inserts or replaces a value.
    ///
    /// A name already in the view is overwritten in place. A new name is
    /// appended; if the index is shared (with the space or a sibling
    /// view), it is copied first, so no other view sees the new name.
    pub fn set(&mut self, name: impl Into<String>, value: Value) {
        let name = name.into();
        match Arc::get_mut(&mut self.index) {
            Some(index) => insert(index, &mut self.values, name, value),
            None => match self.index.get(&name) {
                Some(&i) => self.values[i] = value,
                None => insert(
                    Arc::make_mut(&mut self.index),
                    &mut self.values,
                    name,
                    value,
                ),
            },
        }
    }

    /// Iterates over all `(name, value)` pairs in sorted name order.
    ///
    /// The index is a `HashMap`, whose iteration order varies with
    /// hasher seeding and insertion history; sorting here keeps every
    /// consumer that renders or hashes the pairs (reports, fingerprints,
    /// event logs) deterministic by construction.
    pub fn iter(&self) -> impl Iterator<Item = (&str, Value)> {
        let mut pairs: Vec<(&str, Value)> = self
            .index
            .iter()
            .map(|(k, &i)| (k.as_str(), self.values[i]))
            .collect();
        pairs.sort_unstable_by(|a, b| a.0.cmp(b.0));
        pairs.into_iter()
    }
}

/// Overwrites `name`'s value, or appends it: one hash of the name.
fn insert(index: &mut HashMap<String, usize>, values: &mut Vec<Value>, name: String, value: Value) {
    match index.entry(name) {
        Entry::Occupied(slot) => values[*slot.get()] = value,
        Entry::Vacant(slot) => {
            slot.insert(values.len());
            values.push(value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::{ParamKind, ParamSpec};
    use crate::value::Tristate;

    fn small_space() -> ConfigSpace {
        let mut s = ConfigSpace::new();
        s.add(
            ParamSpec::new("CONFIG_FOO", ParamKind::Tristate, Stage::CompileTime)
                .with_default(Value::Tristate(Tristate::Yes)),
        );
        s.add(
            ParamSpec::new("quiet", ParamKind::Bool, Stage::BootTime)
                .with_default(Value::Bool(false)),
        );
        s.add(
            ParamSpec::new(
                "net.core.somaxconn",
                ParamKind::log_int(16, 65535),
                Stage::Runtime,
            )
            .with_default(Value::Int(128)),
        );
        s
    }

    #[test]
    fn by_name_lookup() {
        let s = small_space();
        let c = s.default_config();
        assert_eq!(c.by_name(&s, "quiet"), Some(Value::Bool(false)));
        assert_eq!(c.by_name(&s, "nope"), None);
    }

    #[test]
    fn set_by_name_respects_domain() {
        let s = small_space();
        let mut c = s.default_config();
        assert!(c.set_by_name(&s, "net.core.somaxconn", Value::Int(1024)));
        assert!(!c.set_by_name(&s, "net.core.somaxconn", Value::Int(1)));
        assert!(!c.set_by_name(&s, "missing", Value::Int(1)));
        assert_eq!(c.by_name(&s, "net.core.somaxconn"), Some(Value::Int(1024)));
    }

    #[test]
    fn fingerprint_changes_with_values() {
        let s = small_space();
        let a = s.default_config();
        let mut b = a.clone();
        b.set_by_name(&s, "quiet", Value::Bool(true));
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn stage_fingerprint_ignores_other_stages() {
        let s = small_space();
        let a = s.default_config();
        let mut b = a.clone();
        b.set_by_name(&s, "net.core.somaxconn", Value::Int(4096));
        let compile_only = [Stage::CompileTime, Stage::BootTime];
        assert_eq!(
            a.stage_fingerprint(&s, &compile_only),
            b.stage_fingerprint(&s, &compile_only)
        );
        assert_ne!(
            a.stage_fingerprint(&s, &[Stage::Runtime]),
            b.stage_fingerprint(&s, &[Stage::Runtime])
        );
    }

    #[test]
    fn changed_stages_reports_runtime_only_change() {
        let s = small_space();
        let a = s.default_config();
        let mut b = a.clone();
        b.set_by_name(&s, "net.core.somaxconn", Value::Int(999));
        assert_eq!(a.changed_stages(&b, &s), vec![Stage::Runtime]);
        assert_eq!(a.changed_stages(&a.clone(), &s), Vec::<Stage>::new());
    }

    #[test]
    fn named_view_and_fallbacks() {
        let s = small_space();
        let c = s.default_config();
        let n = c.named(&s);
        assert_eq!(n.int_or("net.core.somaxconn", 0), 128);
        assert_eq!(n.int_or("unknown", 42), 42);
        assert!(!n.bool_or("quiet", true));
        assert!(n.bool_or("unknown", true));
    }

    #[test]
    fn named_iter_is_sorted_and_insertion_order_invariant() {
        // Two opposite insertion orders must iterate identically: the
        // HashMap index behind NamedConfig must never leak its order.
        let names = ["zeta", "alpha", "net.core.somaxconn", "mid", "beta"];
        let mut fwd = NamedConfig::empty();
        for (i, n) in names.iter().enumerate() {
            fwd.set(*n, Value::Int(i as i64));
        }
        let mut rev = NamedConfig::empty();
        for (i, n) in names.iter().enumerate().rev() {
            rev.set(*n, Value::Int(i as i64));
        }
        let a: Vec<(String, Value)> = fwd.iter().map(|(k, v)| (k.to_string(), v)).collect();
        let b: Vec<(String, Value)> = rev.iter().map(|(k, v)| (k.to_string(), v)).collect();
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_by(|x, y| x.0.cmp(&y.0));
        assert_eq!(a, sorted, "iter() must yield sorted key order");
    }

    #[test]
    fn set_on_a_space_view_leaves_the_space_and_siblings_unchanged() {
        let s = small_space();
        let c = s.default_config();
        let mut view = c.named(&s);
        let sibling = c.named(&s);
        view.set("quiet", Value::Bool(true));
        view.set("vm.swappiness", Value::Int(10));
        assert_eq!(view.get("quiet"), Some(Value::Bool(true)));
        assert_eq!(view.get("vm.swappiness"), Some(Value::Int(10)));
        assert_eq!(view.len(), 4);
        assert_eq!(sibling.get("quiet"), Some(Value::Bool(false)));
        assert_eq!(sibling.get("vm.swappiness"), None);
        assert_eq!(sibling.len(), 3);
        assert_eq!(s.index_of("vm.swappiness"), None);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn add_after_named_leaves_the_view_unchanged() {
        let mut s = small_space();
        let view = s.default_config().named(&s);
        let idx = s.add(ParamSpec::new("nosmt", ParamKind::Bool, Stage::BootTime));
        assert_eq!(s.index_of("nosmt"), Some(idx));
        assert_eq!(view.get("nosmt"), None);
        assert_eq!(view.len(), 3);
        assert_eq!(view.iter().count(), 3);
    }

    #[test]
    fn from_pairs_keeps_the_last_value_of_a_repeated_name() {
        let n = NamedConfig::from_pairs([
            ("a".to_string(), Value::Int(1)),
            ("b".to_string(), Value::Int(2)),
            ("a".to_string(), Value::Int(3)),
        ]);
        assert_eq!(n.len(), 2);
        assert_eq!(n.get("a"), Some(Value::Int(3)));
        let pairs: Vec<(&str, Value)> = n.iter().collect();
        assert_eq!(pairs, [("a", Value::Int(3)), ("b", Value::Int(2))]);
    }

    #[test]
    fn shared_values_copy_on_write_and_keep_their_spellings() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};

        let s = small_space();
        let original = s.default_config();
        let mut by_index = original.clone();
        assert_eq!(by_index.values().as_ptr(), original.values().as_ptr());
        by_index.set(1, Value::Bool(true));
        let mut by_name = original.clone();
        assert!(by_name.set_by_name(&s, "net.core.somaxconn", Value::Int(4096)));
        assert_eq!(
            original,
            s.default_config(),
            "a write never reaches the original"
        );
        assert_eq!(by_index.get(1), Value::Bool(true));
        assert_eq!(
            by_name.by_name(&s, "net.core.somaxconn"),
            Some(Value::Int(4096))
        );

        let literal = Configuration::from_values(vec![
            Value::Bool(true),
            Value::Tristate(Tristate::Module),
            Value::Int(-7),
            Value::Choice(2),
        ]);
        assert_eq!(
            format!("{literal:?}"),
            "Configuration { values: [Bool(true), Tristate(Module), Int(-7), Choice(2)] }"
        );
        assert_eq!(literal.fingerprint(), 0x115d_24e5_31a6_64dc);

        let hash = |c: &Configuration| {
            let mut h = DefaultHasher::new();
            c.hash(&mut h);
            h.finish()
        };
        let rebuilt = Configuration::from_values(literal.values().to_vec());
        assert_ne!(rebuilt.values().as_ptr(), literal.values().as_ptr());
        assert_eq!(rebuilt, literal);
        assert_eq!(hash(&rebuilt), hash(&literal));
        assert_eq!(hash(&literal.clone()), hash(&literal));
    }

    #[test]
    fn named_bool_coercion_from_int() {
        let mut n = NamedConfig::empty();
        n.set("flag", Value::Int(7));
        assert!(n.bool_or("flag", false));
        n.set("flag", Value::Int(0));
        assert!(!n.bool_or("flag", true));
    }
}
