//! Property-based validation of Theorem 6.3 (type soundness): every program
//! the checker accepts has a well-formed execution log (Definition 6.1) and
//! is safely pipelined at its declared delay (Definition 6.2).
//!
//! Random straight-line pipelines are generated over a small component
//! library (combinational adder, sequential multiplier, pipelined
//! multiplier, register), with random schedules, random operand choices,
//! and random instance sharing — most are ill-typed, some are well-typed;
//! the checker's verdict must stay on the sound side of the semantics.

use filament_core::ast::{Command, Component, Port, Program, Range, Signature, Time};
use filament_core::check::ErrorKind;
use filament_core::sem::check_safe_pipelining;
use filament_core::{check_program, component_log, parse_program};
use proptest::prelude::*;
use std::collections::HashMap;

const LIB: &str = r#"
    extern comp Add<T: 1>(@[T, T+1] left: 32, @[T, T+1] right: 32)
        -> (@[T, T+1] out: 32);
    extern comp Mult<T: 3>(@interface[T] go: 1, @[T, T+1] left: 32,
        @[T, T+1] right: 32) -> (@[T+2, T+3] out: 32);
    extern comp FastMult<T: 1>(@interface[T] go: 1, @[T, T+1] left: 32,
        @[T, T+1] right: 32) -> (@[T+2, T+3] out: 32);
    extern comp Reg<G: 1>(@interface[G] en: 1, @[G, G+1] in: 32)
        -> (@[G+1, G+2] out: 32);
"#;

const KINDS: [&str; 4] = ["Add", "Mult", "FastMult", "Reg"];

/// One randomly generated pipeline step.
#[derive(Debug, Clone)]
struct Step {
    /// Index into `KINDS`.
    kind: usize,
    /// Scheduling offset `G + off`.
    off: u64,
    /// Operand selectors (index into previously produced values, modulo).
    srcs: [usize; 2],
    /// Whether to reuse the previous same-kind instance instead of a fresh
    /// one (exercises the sharing rules).
    share: bool,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    (0usize..4, 0u64..5, 0usize..8, 0usize..8, any::<bool>()).prop_map(
        |(kind, off, s0, s1, share)| Step {
            kind,
            off,
            srcs: [s0, s1],
            share,
        },
    )
}

/// Builds the generated component. Values available to later steps are the
/// component input `a` (live `[G, G+1)`) and every prior invocation's `out`.
fn build(steps: &[Step], delay: u64) -> Program {
    let mut program = parse_program(LIB).unwrap();
    let mut body = Vec::new();
    let mut produced: Vec<Port> = vec![Port::This("a".into())];
    let mut last_instance: HashMap<usize, String> = HashMap::new();
    let mut out_avail = Range::cycle("G", 0);

    for (i, step) in steps.iter().enumerate() {
        let kind = KINDS[step.kind];
        let inst = match (step.share, last_instance.get(&step.kind)) {
            (true, Some(name)) => name.clone(),
            _ => {
                let name = format!("i{i}");
                body.push(Command::Instance {
                    name: name.clone().into(),
                    component: kind.into(),
                    params: vec![],
                });
                last_instance.insert(step.kind, name.clone());
                name
            }
        };
        let inv = format!("v{i}");
        let args: Vec<Port> = match kind {
            "Reg" => vec![produced[step.srcs[0] % produced.len()].clone()],
            _ => vec![
                produced[step.srcs[0] % produced.len()].clone(),
                produced[step.srcs[1] % produced.len()].clone(),
            ],
        };
        body.push(Command::Invoke {
            name: inv.clone().into(),
            instance: inst.into(),
            events: vec![Time::new("G", step.off)],
            args,
        });
        // Availability of this invocation's output.
        let (s, e) = match kind {
            "Add" => (step.off, step.off + 1),
            "Mult" | "FastMult" => (step.off + 2, step.off + 3),
            _ => (step.off + 1, step.off + 2),
        };
        out_avail = Range::new(Time::new("G", s), Time::new("G", e));
        produced.push(Port::Inv {
            invocation: inv.into(),
            port: "out".into(),
        });
    }
    let last = produced.last().unwrap().clone();
    body.push(Command::Connect {
        dst: Port::This("o".into()),
        src: last,
    });

    let sig_src = format!(
        "comp main<G: {delay}>(@interface[G] go: 1, @[G, G+1] a: 32) \
         -> (@[{}, {}] o: 32) {{ }}",
        out_avail.start, out_avail.end
    );
    let shell = parse_program(&sig_src).unwrap();
    let sig: Signature = shell.components[0].sig.clone();
    program.components.push(Component { sig, body });
    program
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Theorem 6.3: checker acceptance implies semantic well-formedness and
    /// safe pipelining at the declared delay.
    #[test]
    fn accepted_programs_have_well_formed_logs(
        steps in proptest::collection::vec(step_strategy(), 1..6),
        delay in 1u64..6,
    ) {
        let program = build(&steps, delay);
        if check_program(&program).is_ok() {
            let log = component_log(&program, "main").expect("log of checked program");
            prop_assert!(
                log.well_formed().is_ok(),
                "checker accepted but log ill-formed: {:?}\nprogram: {program:#?}",
                log.well_formed()
            );
            prop_assert!(
                check_safe_pipelining(&log, delay).is_ok(),
                "checker accepted but pipelining unsafe at delay {delay}"
            );
        }
    }

    /// The contrapositive sanity check: semantically broken single
    /// executions are always rejected by the checker.
    #[test]
    fn ill_formed_logs_are_rejected(
        steps in proptest::collection::vec(step_strategy(), 1..6),
        delay in 1u64..6,
    ) {
        let program = build(&steps, delay);
        if let Ok(log) = component_log(&program, "main") {
            let semantically_bad =
                log.well_formed().is_err() || check_safe_pipelining(&log, delay).is_err();
            if semantically_bad {
                prop_assert!(
                    check_program(&program).is_err(),
                    "semantics found a violation the checker missed"
                );
            }
        }
    }
}

/// A deterministic witness that the generator produces both accepted and
/// rejected programs (so the property tests are not vacuous).
#[test]
fn generator_is_not_vacuous() {
    // Accepted: a -> Add at G -> Reg at G.
    let good = build(
        &[
            Step {
                kind: 0,
                off: 0,
                srcs: [0, 0],
                share: false,
            },
            Step {
                kind: 3,
                off: 0,
                srcs: [1, 0],
                share: false,
            },
        ],
        1,
    );
    assert!(check_program(&good).is_ok());

    // Rejected: reads the multiplier's output in the wrong cycle.
    let bad = build(
        &[
            Step {
                kind: 1,
                off: 0,
                srcs: [0, 0],
                share: false,
            },
            Step {
                kind: 0,
                off: 0,
                srcs: [1, 1],
                share: false,
            },
        ],
        3,
    );
    assert!(check_program(&bad).is_err());
}

/// The error kinds a program is rejected with (empty when accepted).
fn rejection_kinds(src: &str) -> Vec<ErrorKind> {
    let program = parse_program(src).unwrap_or_else(|e| panic!("parse: {e}"));
    let mut kinds: Vec<ErrorKind> = check_program(&program)
        .err()
        .unwrap_or_default()
        .iter()
        .map(|e| e.kind)
        .collect();
    kinds.sort_by_key(|k| k.to_string());
    kinds.dedup();
    kinds
}

/// Offsets are `u64` and every obligation is a difference of them: an
/// offset at or past 2^63 must not wrap a rejected program into an
/// accepted one (or add a spurious error), and a schedule past the last
/// cycle must give a diagnostic, not a panic.
#[test]
fn huge_offsets_neither_wrap_nor_panic() {
    let window = |start: u64| {
        format!(
            "comp main<G: {}>(@interface[G] go: 1, @[G+{start}, G+3] a: 32) \
             -> (@[G, G+1] o: 32) {{ o = a; }}",
            i64::MAX
        )
    };
    let twin = rejection_kinds(&window(13));
    assert_eq!(twin, [ErrorKind::Availability, ErrorKind::DelayWellFormed]);
    for start in [1 << 63, (1 << 63) + 13, u64::MAX - 1, u64::MAX] {
        assert_eq!(rejection_kinds(&window(start)), twin, "start G+{start}");
    }
    for at in [u64::MAX - 1, u64::MAX] {
        let src = format!(
            "{LIB} comp main<G: 1>(@interface[G] go: 1, @[G, G+1] a: 32) \
             -> (@[G, G+1] o: 32) {{ s := new Add<G+{at}>(a, a); o = a; }}"
        );
        assert!(!rejection_kinds(&src).is_empty(), "schedule G+{at}");
    }
}
