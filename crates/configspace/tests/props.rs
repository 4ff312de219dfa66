//! Property-based tests for the configuration-space model.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::OnceLock;
use wf_configspace::{
    distance, ConfigSpace, Encoder, ParamKind, ParamSpec, Stage, Tristate, Value,
};
use wf_kconfig::LinuxVersion;
use wf_ossim::SimOs;

/// Strategy producing an arbitrary parameter kind.
fn kind_strategy() -> impl Strategy<Value = ParamKind> {
    prop_oneof![
        Just(ParamKind::Bool),
        Just(ParamKind::Tristate),
        (any::<i32>(), 1..10_000i64).prop_map(|(min, span)| {
            let min = min as i64 % 1000;
            ParamKind::int(min, min + span)
        }),
        (0..1000i64, 1..100_000i64).prop_map(|(min, span)| ParamKind::log_int(min, min + span)),
        prop::collection::vec("[a-z]{1,6}", 1..5).prop_map(|mut cs| {
            cs.dedup();
            ParamKind::Enum { choices: cs }
        }),
    ]
}

fn stage_strategy() -> impl Strategy<Value = Stage> {
    prop_oneof![
        Just(Stage::CompileTime),
        Just(Stage::BootTime),
        Just(Stage::Runtime)
    ]
}

/// Strategy producing a whole configuration space of 1..20 parameters.
fn space_strategy() -> impl Strategy<Value = ConfigSpace> {
    prop::collection::vec((kind_strategy(), stage_strategy()), 1..20).prop_map(|specs| {
        let mut s = ConfigSpace::new();
        for (i, (kind, stage)) in specs.into_iter().enumerate() {
            s.add(ParamSpec::new(format!("p{i}"), kind, stage));
        }
        s
    })
}

/// The space of every builtin target (200 runtime parameters where the
/// target takes a count, as a job does by default), plus a subset space
/// made of every third linux-4.19 parameter.
fn builtin_spaces() -> &'static [(&'static str, ConfigSpace)] {
    static SPACES: OnceLock<Vec<(&'static str, ConfigSpace)>> = OnceLock::new();
    SPACES.get_or_init(|| {
        let linux = SimOs::linux_runtime(LinuxVersion::V4_19, 200).space;
        let thirds: Vec<&str> = linux
            .specs()
            .iter()
            .step_by(3)
            .map(|p| p.name.as_str())
            .collect();
        let subset = linux.subset(&thirds);
        vec![
            ("linux-4.19", linux),
            (
                "linux-4.19-all",
                SimOs::linux_all_stages(LinuxVersion::V4_19, 200).space,
            ),
            (
                "linux-6.0",
                SimOs::linux_runtime(LinuxVersion::V6_0, 200).space,
            ),
            ("linux-riscv", SimOs::linux_riscv_footprint().space),
            ("unikraft", SimOs::unikraft_nginx().space),
            ("linux-4.19 subset", subset),
        ]
    })
}

/// `NamedConfig::bool_or`'s coercion, restated over a plain lookup.
fn reference_bool(value: Option<Value>, default: bool) -> bool {
    match value {
        Some(Value::Bool(b)) => b,
        Some(Value::Int(i)) => i != 0,
        Some(Value::Tristate(t)) => t.enabled(),
        Some(Value::Choice(_)) | None => default,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A named view answers every lookup the way a map from each spec's
    /// name to its value does: for every name of every builtin space
    /// (so names outside this space miss) and for made-up names, and it
    /// iterates that map's pairs in sorted name order.
    #[test]
    fn named_view_matches_a_reference_map(which in 0..6usize, seed in any::<u64>()) {
        let spaces = builtin_spaces();
        let (target, space) = &spaces[which];
        let c = space.sample(&mut StdRng::seed_from_u64(seed));
        let reference: HashMap<&str, Value> = (0..space.len())
            .map(|i| (space.spec(i).name.as_str(), c.get(i)))
            .collect();
        let view = c.named(space);
        prop_assert_eq!(view.len(), reference.len());
        prop_assert_eq!(view.is_empty(), reference.is_empty());
        let made_up = ["", "CONFIG_NOT_A_PARAM", "net.core.somaxconn.extra"];
        let names = spaces
            .iter()
            .flat_map(|(_, s)| s.specs().iter().map(|p| p.name.as_str()))
            .chain(made_up);
        for name in names {
            let want = reference.get(name).copied();
            prop_assert_eq!(view.get(name), want, "{} {}", target, name);
            prop_assert_eq!(
                view.int_or(name, -7),
                want.and_then(|v| v.as_int()).unwrap_or(-7)
            );
            for default in [false, true] {
                prop_assert_eq!(view.bool_or(name, default), reference_bool(want, default));
            }
            prop_assert_eq!(
                view.choice_or(name, 99),
                want.and_then(|v| v.as_choice()).unwrap_or(99)
            );
        }
        let mut sorted: Vec<(&str, Value)> = reference.into_iter().collect();
        sorted.sort_by(|a, b| a.0.cmp(b.0));
        prop_assert_eq!(view.iter().collect::<Vec<_>>(), sorted);
    }

    /// Every random sample respects its parameter domains.
    #[test]
    fn sampling_is_always_valid(space in space_strategy(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..16 {
            let c = space.sample(&mut rng);
            prop_assert!(space.violations(&c).is_empty());
        }
    }

    /// Encoding has stable dimensionality and stays inside [0, 1].
    #[test]
    fn encoding_is_bounded_and_stable(space in space_strategy(), seed in any::<u64>()) {
        let enc = Encoder::new(&space);
        let mut rng = StdRng::seed_from_u64(seed);
        let dim = enc.dim();
        for _ in 0..16 {
            let v = enc.encode(&space, &space.sample(&mut rng));
            prop_assert_eq!(v.len(), dim);
            prop_assert!(v.iter().all(|f| (0.0..=1.0).contains(f)));
        }
    }

    /// Encoding is injective on value changes of a single parameter with
    /// cardinality > 1 (two different values encode differently).
    #[test]
    fn encoding_distinguishes_values(space in space_strategy(), seed in any::<u64>()) {
        let enc = Encoder::new(&space);
        let mut rng = StdRng::seed_from_u64(seed);
        let a = space.sample(&mut rng);
        let mut b = a.clone();
        // Flip the first parameter deterministically to a different value.
        let spec = space.spec(0);
        let new = match (&spec.kind, a.get(0)) {
            (ParamKind::Bool, Value::Bool(x)) => Some(Value::Bool(!x)),
            (ParamKind::Tristate, Value::Tristate(t)) => Some(Value::Tristate(match t {
                Tristate::No => Tristate::Yes,
                _ => Tristate::No,
            })),
            (ParamKind::Int { min, max, .. }, Value::Int(v)) if min != max =>
                Some(Value::Int(if v == *max { *min } else { *max })),
            (ParamKind::Hex { min, max }, Value::Int(v)) if min != max =>
                Some(Value::Int(if v == *max { *min } else { *max })),
            (ParamKind::Enum { choices }, Value::Choice(c)) if choices.len() > 1 =>
                Some(Value::Choice((c + 1) % choices.len())),
            _ => None,
        };
        if let Some(nv) = new {
            b.set(0, nv);
            prop_assert_ne!(enc.encode(&space, &a), enc.encode(&space, &b));
            prop_assert_ne!(a.fingerprint(), b.fingerprint());
        }
    }

    /// The Eq. 2 dissimilarity is always within [0, 1] and evaluates to 0 on
    /// an already-explored point.
    #[test]
    fn dissimilarity_properties(
        xs in prop::collection::vec(prop::collection::vec(-10.0..10.0f64, 4), 1..8),
    ) {
        let candidate = xs[0].clone();
        let ds_self = distance::dissimilarity(&candidate, &xs);
        prop_assert!(ds_self.abs() < 1e-12);
        let probe = vec![11.0, 11.0, 11.0, 11.0];
        let ds = distance::dissimilarity(&probe, &xs);
        prop_assert!((0.0..=1.0).contains(&ds));
    }

    /// Stage fingerprints are invariant under changes confined to other
    /// stages.
    #[test]
    fn stage_fingerprint_isolation(space in space_strategy(), seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let a = space.sample(&mut rng);
        let b = space.sample(&mut rng);
        // Build c = a with b's runtime values spliced in.
        let mut c = a.clone();
        for i in space.stage_indices(Stage::Runtime) {
            c.set(i, b.get(i));
        }
        let compile_boot = [Stage::CompileTime, Stage::BootTime];
        prop_assert_eq!(
            a.stage_fingerprint(&space, &compile_boot),
            c.stage_fingerprint(&space, &compile_boot)
        );
    }
}
