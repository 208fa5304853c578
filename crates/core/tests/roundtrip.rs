//! Round-trip property: `parse ∘ print = id` on Filament ASTs, checked on
//! every design in the repository and on randomly generated programs.

use filament_core::ast::{
    Command, Component, ConstExpr, Delay, EventDecl, InterfaceDef, ParamDecl, Port, PortDef,
    Program, Range, Signature, Time,
};
use filament_core::pretty::print_program;
use filament_core::{check_program, parse_program};
use proptest::prelude::*;

/// Standard library + user source, elaborated — the old `with_stdlib`
/// view, through the unified request API.
fn with_std(src: &str) -> Program {
    fil_stdlib::build(&fil_stdlib::BuildRequest::new(src))
        .unwrap()
        .expanded
        .expect("expanded is on by default")
}

#[test]
fn stdlib_round_trips() {
    let p = fil_stdlib::std_program();
    let printed = print_program(&p);
    let reparsed = parse_program(&printed).unwrap_or_else(|e| panic!("{e}\n{printed}"));
    assert_eq!(p, reparsed);
}

#[test]
fn design_corpus_round_trips() {
    for (name, src, _top) in fil_bench::design_corpus() {
        let p = with_std(&src);
        let printed = print_program(&p);
        let reparsed = parse_program(&printed).unwrap_or_else(|e| panic!("{name}: {e}\n{printed}"));
        assert_eq!(p, reparsed, "{name}");
        // And the reprint is stable (idempotent formatting).
        assert_eq!(printed, print_program(&reparsed), "{name}");
    }
}

#[test]
fn fused_forms_refuse_on_print() {
    let p = parse_program(
        "comp M<G: 1>(@[G, G+1] a: 8) -> (@[G, G+1] o: 8) {
           x := new Ghost[8]<G>(a);
           o = x.out;
         }",
    )
    .unwrap();
    let printed = print_program(&p);
    assert!(printed.contains("x := new Ghost[8]<G>(a);"), "{printed}");
    assert!(!printed.contains("#inst"), "{printed}");
    assert_eq!(parse_program(&printed).unwrap(), p);
}

// ------------------------------------------- parametric generator sources

#[test]
fn parametric_sources_round_trip() {
    // The *pre-expansion* generator sources: params, param arithmetic,
    // for-generate loops, indexed names, symbolic time offsets.
    for (name, src) in [
        ("systolic", fil_designs::systolic::SYSTOLIC.to_owned()),
        ("chain", fil_designs::shift::CHAIN.to_owned()),
        ("alu-param", fil_designs::alu::ALU_PARAM.to_owned()),
        (
            "systolic-multi",
            fil_designs::systolic::multi_source(&[2, 4, 8], 32),
        ),
    ] {
        let p = parse_program(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let printed = print_program(&p);
        let reparsed = parse_program(&printed).unwrap_or_else(|e| panic!("{name}: {e}\n{printed}"));
        assert_eq!(p, reparsed, "{name}");
        assert_eq!(
            printed,
            print_program(&reparsed),
            "{name}: printing is stable"
        );
    }
    // The printed systolic generator keeps its loops, bundle ports,
    // if-generate arms, and indices.
    let printed = print_program(&parse_program(fil_designs::systolic::SYSTOLIC).unwrap());
    assert!(printed.contains("for i in 0..N {"), "{printed}");
    assert!(
        printed.contains("pe[i][j] := new Process[W]<G>"),
        "{printed}"
    );
    assert!(printed.contains("left[i: 0..N]: W"), "{printed}");
    assert!(
        printed.contains("comp Systolic[N, W, some NN = N * N]"),
        "{printed}"
    );
    assert!(printed.contains("out[k: 0..NN]: W"), "{printed}");
    assert!(printed.contains("if j == 0 {"), "{printed}");
    assert!(printed.contains("} else {"), "{printed}");
    assert!(
        printed.contains("out[i * N + j] = pe[i][j].out;"),
        "{printed}"
    );
    // The chain keeps its per-index tap bundle.
    let printed = print_program(&parse_program(fil_designs::shift::CHAIN).unwrap());
    assert!(printed.contains("tap[k: 0..D]: W"), "{printed}");
    assert!(printed.contains("tap[k] = s[k].out;"), "{printed}");
}

#[test]
fn bundle_and_if_generate_round_trip() {
    // Hand-written forms exercising every new construct in one program:
    // length sugar, explicit lo..hi, element reads on both sides, bundle
    // outputs of invocations, and if/else vs if-without-else.
    let src = "comp A[N, W]<G: 1>(@[G, G+1] xs[i: N]: W, @[G+i, G+(i+2)] ys[i: 3..N]: W * i)
    -> (@[G, G+1] o[k: 0..N * N]: W) {
  s := new Inner[N]<G>(xs);
  for k in 0..N {
    if k != N - 1 {
      o[k] = s.out[k];
    } else {
      o[k] = ys[3];
    }
    if k <= 2 {
      q[k] := new Thing[W]<G+k>(s.out[k]);
    }
  }
}
";
    let p = parse_program(src).unwrap();
    let printed = print_program(&p);
    let reparsed = parse_program(&printed).unwrap_or_else(|e| panic!("{e}\n{printed}"));
    assert_eq!(p, reparsed);
    assert_eq!(printed, print_program(&reparsed), "printing is stable");
    // Length sugar normalizes to the explicit range form.
    assert!(printed.contains("xs[i: 0..N]: W"), "{printed}");
}

#[test]
fn expansion_of_generators_round_trips() {
    // mono output (mangled names, resolved arithmetic) must stay printable
    // and re-parseable — `filament expand` relies on this.
    let p = with_std(&fil_designs::systolic::source(4, 32));
    let printed = print_program(&p);
    let reparsed = parse_program(&printed).unwrap_or_else(|e| panic!("{e}\n{printed}"));
    assert_eq!(p, reparsed);
    assert!(printed.contains("pe_3_3 := new Process_32<G>"), "{printed}");
}

// --------------------------------------------------- random constant exprs

/// Builds a random constant-expression tree from a seed (the vendored
/// proptest has no recursion combinators, so recursion lives here).
fn rand_cexpr(seed: u64, depth: u32) -> ConstExpr {
    use filament_core::ast::ConstOp;
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    fn go(next: &mut impl FnMut() -> u64, depth: u32) -> ConstExpr {
        let choice = if depth == 0 { next() % 2 } else { next() % 8 };
        match choice {
            0 => ConstExpr::Lit(next() % 100),
            1 => ConstExpr::Param(format!("p{}", next() % 4)),
            2..=4 => {
                let op = match next() % 5 {
                    0 => ConstOp::Add,
                    1 => ConstOp::Sub,
                    2 => ConstOp::Mul,
                    3 => ConstOp::Div,
                    _ => ConstOp::Mod,
                };
                ConstExpr::Bin(
                    op,
                    Box::new(go(next, depth - 1)),
                    Box::new(go(next, depth - 1)),
                )
            }
            5 => ConstExpr::Pow2(Box::new(go(next, depth - 1))),
            6 => ConstExpr::Log2(Box::new(go(next, depth - 1))),
            _ => ConstExpr::Lit(next() % 8),
        }
    }
    go(&mut next, depth)
}

proptest! {
    /// Any constant-expression tree survives printing in a width position
    /// and a time-offset position.
    #[test]
    fn const_exprs_round_trip(seed in proptest::prelude::any::<u64>(), depth in 0u32..5) {
        let e = rand_cexpr(seed, depth);
        let mut p = Program::new();
        std::sync::Arc::make_mut(&mut p.externs).push(Signature {
            name: "A".into(),
            params: (0..4).map(|i| ParamDecl::free(format!("p{i}"))).collect(),
            events: vec![EventDecl { name: "T".into(), delay: Delay::Const(1) }],
            interfaces: vec![],
            inputs: vec![PortDef {
                name: "x".into(),
                liveness: Range::new(Time::event("T"), Time::at("T", e.clone())),
                width: e.clone(),
                bundle: None,
            }],
            outputs: vec![],
            constraints: vec![],
        });
        let printed = print_program(&p);
        match parse_program(&printed) {
            Ok(reparsed) => prop_assert_eq!(p, reparsed, "printed:\n{}", printed),
            Err(err) => prop_assert!(false, "failed to reparse: {err}\n{printed}"),
        }
    }
}

// ------------------------------------------------------------ random ASTs

fn ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,6}".prop_map(|s| format!("v_{s}"))
}

fn time(events: Vec<String>) -> impl Strategy<Value = Time> {
    (0..events.len(), 0u64..6).prop_map(move |(i, off)| Time::new(events[i].clone(), off))
}

fn arb_program() -> impl Strategy<Value = Program> {
    let events = prop::collection::vec(ident(), 1..3);
    events.prop_flat_map(|evs| {
        let evs: Vec<String> = {
            let mut v = evs;
            v.dedup();
            v
        };
        let decls: Vec<EventDecl> = evs
            .iter()
            .map(|e| EventDecl {
                name: e.clone(),
                delay: Delay::Const(1),
            })
            .collect();
        let port = (ident(), time(evs.clone()), 1u64..64).prop_map(|(name, start, w)| PortDef {
            name,
            liveness: Range::new(start.clone(), start.plus(1)),
            width: ConstExpr::Lit(w),
            bundle: None,
        });
        (
            prop::collection::vec(port, 0..4),
            prop::collection::vec((ident(), ident(), time(evs.clone())), 0..4),
        )
            .prop_map(move |(mut ports, uses)| {
                // Unique port/definition names.
                let mut seen = std::collections::HashSet::new();
                ports.retain(|p| seen.insert(p.name.clone()));
                let inputs: Vec<PortDef> = ports.clone();
                let mut body = Vec::new();
                let mut names = std::collections::HashSet::new();
                for (inst, comp, t) in uses {
                    let iname = format!("i_{inst}");
                    let vname = format!("x_{inst}");
                    if !names.insert(iname.clone()) {
                        continue;
                    }
                    body.push(Command::Instance {
                        name: iname.clone().into(),
                        component: format!("C_{comp}"),
                        params: vec![ConstExpr::Lit(8)],
                    });
                    body.push(Command::Invoke {
                        name: vname.into(),
                        instance: iname.into(),
                        events: vec![t],
                        args: inputs
                            .first()
                            .map(|p| vec![Port::This(p.name.clone())])
                            .unwrap_or_else(|| vec![Port::Lit(3)]),
                    });
                }
                let sig = Signature {
                    name: "Main".into(),
                    params: vec![],
                    events: decls.clone(),
                    interfaces: vec![InterfaceDef {
                        name: "zz_go".into(),
                        event: decls[0].name.clone(),
                    }],
                    inputs,
                    outputs: vec![],
                    constraints: vec![],
                };
                let mut p = Program::new();
                p.components.push(Component { sig, body });
                p
            })
    })
}

proptest! {
    /// Printing any (bind-reasonable) AST and reparsing yields the same AST.
    #[test]
    fn print_parse_round_trip(p in arb_program()) {
        let printed = print_program(&p);
        match parse_program(&printed) {
            Ok(reparsed) => prop_assert_eq!(p, reparsed),
            Err(e) => prop_assert!(false, "printed program failed to parse: {e}\n{printed}"),
        }
    }
}

#[test]
fn printed_programs_check_identically() {
    // Printing must not change checkability: run the checker on both the
    // original and the round-tripped ALU and compare verdicts.
    for variant in [
        fil_designs::alu::ALU_SEQUENTIAL,
        fil_designs::alu::ALU_PIPELINED,
        fil_designs::alu::ALU_BUGGY,
    ] {
        let p = with_std(variant);
        let q = parse_program(&print_program(&p)).unwrap();
        assert_eq!(
            check_program(&p).is_ok(),
            check_program(&q).is_ok(),
            "verdict changed after round trip"
        );
    }
}
