//! Property tests: `parse(emit(model))` preserves the model, solver
//! outputs are always valid, and the parser answers arbitrary bytes and
//! mangled Kconfig files with a model or an error, never a panic.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use wf_configspace::Tristate;
use wf_kconfig::ast::{Default, DefaultValue, Expr, KconfigModel, Select, Symbol, SymbolType};
use wf_kconfig::emit::emit;
use wf_kconfig::parser::{parse, parse_expr};
use wf_kconfig::solver::Solver;

/// Strategy for a symbol name that cannot collide with expression literals.
fn sym_name() -> impl Strategy<Value = String> {
    "[A-Z][A-Z0-9_]{2,10}".prop_map(|s| format!("S_{s}"))
}

fn sym_type() -> impl Strategy<Value = SymbolType> {
    prop_oneof![
        Just(SymbolType::Bool),
        Just(SymbolType::Tristate),
        Just(SymbolType::Int),
        Just(SymbolType::Hex),
        Just(SymbolType::String),
    ]
}

fn tristate() -> impl Strategy<Value = Tristate> {
    prop_oneof![
        Just(Tristate::No),
        Just(Tristate::Module),
        Just(Tristate::Yes)
    ]
}

/// A random model: unique names, dependencies/selects only on earlier
/// symbols (so they resolve), type-correct defaults and ranges.
fn model_strategy() -> impl Strategy<Value = KconfigModel> {
    proptest::collection::vec(
        (
            sym_name(),
            sym_type(),
            tristate(),
            0u8..4,
            any::<bool>(),
            1i64..1000,
        ),
        1..20,
    )
    .prop_map(|rows| {
        let mut m = KconfigModel::new();
        let mut names: Vec<String> = Vec::new();
        for (name, stype, tri, dep_mode, promptless, num) in rows {
            if m.by_name(&name).is_some() {
                continue;
            }
            let mut s = Symbol::new(&name, stype);
            if !promptless {
                s.prompt = Some(format!("{name} prompt"));
            }
            if !names.is_empty() {
                let target = names[(num as usize) % names.len()].clone();
                match dep_mode {
                    1 => s.depends = Some(Expr::Sym(target)),
                    2 => s.depends = Some(Expr::Not(Box::new(Expr::Sym(target)))),
                    3 if matches!(stype, SymbolType::Bool | SymbolType::Tristate) => {
                        s.selects.push(Select {
                            target,
                            condition: None,
                        })
                    }
                    _ => {}
                }
            }
            match stype {
                SymbolType::Bool => {
                    if tri != Tristate::Module {
                        s.defaults.push(Default {
                            value: DefaultValue::Tri(tri),
                            condition: None,
                        });
                    }
                }
                SymbolType::Tristate => s.defaults.push(Default {
                    value: DefaultValue::Tri(tri),
                    condition: None,
                }),
                SymbolType::Int | SymbolType::Hex => {
                    s.range = Some((0, num.max(1)));
                    s.defaults.push(Default {
                        value: DefaultValue::Int(num / 2),
                        condition: None,
                    });
                }
                SymbolType::String => s.defaults.push(Default {
                    value: DefaultValue::Str(format!("v{num}")),
                    condition: None,
                }),
            }
            names.push(name);
            m.add(s);
        }
        m
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn emit_parse_roundtrip(model in model_strategy()) {
        let text = emit(&model);
        let back = parse(&text).expect("emitted text must parse");
        prop_assert_eq!(back.len(), model.len());
        for sym in model.symbols() {
            let b = back.by_name(&sym.name).expect("symbol preserved");
            prop_assert_eq!(b.stype, sym.stype);
            prop_assert_eq!(&b.prompt, &sym.prompt);
            prop_assert_eq!(&b.depends, &sym.depends);
            prop_assert_eq!(&b.selects, &sym.selects);
            prop_assert_eq!(&b.defaults, &sym.defaults);
            prop_assert_eq!(b.range, sym.range);
        }
    }

    #[test]
    fn solver_outputs_always_validate(model in model_strategy(), seed in any::<u64>()) {
        let solver = Solver::new(&model);
        let d = solver.defconfig();
        prop_assert!(solver.validate(&d).is_empty(), "defconfig violations: {:?}", solver.validate(&d));
        let mut rng = StdRng::seed_from_u64(seed);
        let r = solver.randconfig(&mut rng);
        prop_assert!(solver.validate(&r).is_empty(), "randconfig violations: {:?}", solver.validate(&r));
    }
}

/// Kconfig-ish text: keywords, operators, quotes, indentation, help
/// blocks and arbitrary bytes, so input gets past the first token.
fn kconfig_ish_text() -> impl Strategy<Value = String> {
    let token = prop_oneof![
        Just("config "),
        Just("menuconfig "),
        Just("menu \""),
        Just("endmenu"),
        Just("choice"),
        Just("endchoice"),
        Just("if "),
        Just("endif"),
        Just("source \""),
        Just("bool"),
        Just("tristate"),
        Just("int"),
        Just("hex"),
        Just("string"),
        Just("\tdefault "),
        Just("\tdepends on "),
        Just("\tselect "),
        Just("\trange "),
        Just("\thelp\n"),
        Just("  "),
        Just("\n"),
        Just("S_A"),
        Just("0x1f"),
        Just("-3"),
        Just("y"),
        Just("m"),
        Just("("),
        Just(")"),
        Just("&&"),
        Just("||"),
        Just("!"),
        Just("="),
        Just("!="),
        Just("<="),
        Just("\""),
        Just("#"),
        Just("\\"),
        Just("é"),
    ];
    proptest::collection::vec(token, 0..64).prop_map(|ts| ts.concat())
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn parse_never_panics_on_arbitrary_input(
        text in kconfig_ish_text(),
        bytes in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let _ = parse(&text);
        let _ = parse_expr(&text);
        let _ = parse(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn parse_never_panics_on_mutated_files(
        model in model_strategy(),
        flips in proptest::collection::vec((any::<usize>(), 1u8..=255), 0..4),
        cut in 0usize..2048,
    ) {
        let text = emit(&model);
        prop_assert_eq!(parse(&text).expect("emitted text must parse").len(), model.len());
        let bytes = mutate(text.into_bytes(), &flips, cut);
        let _ = parse(&String::from_utf8_lossy(&bytes));
    }
}
