//! Forward-read chains expand in linear time.
//!
//! An instance parameter may read an instance declared later in its body:
//! `a0 := new Add[a1.W]<G>(x, x); a1 := new Add[a2.W]<G>(x, x); …`. Such a
//! chain once made expansion walk the whole body once per link, which is
//! quadratic (a release build took 71 s on 8 000 links, and `filament
//! serve` runs the same code). Each declaration now resolves once, on
//! demand, so a 20 000-link chain expands within a bound far above its
//! linear cost and far below the quadratic one, in either order, and a
//! cyclic chain fails with the same unbound-parameter error as before.

use filament_core::ast::{Command, ConstExpr};
use filament_core::{mono, parse_program};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

const LINKS: usize = 20_000;

/// Generous for an unoptimized build on a loaded host: the linear
/// expansion takes well under a second, the quadratic one took minutes.
const BOUND: Duration = Duration::from_secs(20);

/// How each link picks the instance it reads.
#[derive(Clone, Copy)]
enum Order {
    /// `a{i}` reads `a{i+1}`, declared after it; the last link is `Add[8]`.
    Forward,
    /// `a{i}` reads `a{i-1}`, declared before it; the first link is `Add[8]`.
    Reversed,
    /// `a{i}` reads `a{i+1}`, and the last link reads `a0`.
    Cyclic,
}

fn chain(order: Order) -> String {
    let mut s = String::from(
        "extern comp Add[W]<G: 1>(@[G, G+1] left: W, @[G, G+1] right: W)
             -> (@[G, G+1] out: W);
         comp Main<G: 1>(@[G, G+1] x: 8) -> () {\n",
    );
    for i in 0..LINKS {
        let width = match order {
            Order::Forward if i + 1 == LINKS => "8".to_owned(),
            Order::Forward => format!("a{}.W", i + 1),
            Order::Reversed if i == 0 => "8".to_owned(),
            Order::Reversed => format!("a{}.W", i - 1),
            Order::Cyclic => format!("a{}.W", (i + 1) % LINKS),
        };
        let _ = writeln!(s, "  a{i} := new Add[{width}]<G>(x, x);");
    }
    s.push('}');
    s
}

/// Expands the chain, failing if expansion alone takes longer than
/// [`BOUND`].
fn expand_timed(order: Order) -> Result<filament_core::Program, mono::MonoError> {
    let program = parse_program(&chain(order)).expect("chain parses");
    let start = Instant::now();
    let out = mono::expand(&program);
    let took = start.elapsed();
    assert!(
        took < BOUND,
        "expanding {LINKS} links took {took:?}, over {BOUND:?}"
    );
    out
}

fn assert_every_add_is_8(p: &filament_core::Program) {
    let widths: Vec<&Vec<ConstExpr>> = p.components[0]
        .body
        .iter()
        .filter_map(|c| match c {
            Command::Instance { params, .. } => Some(params),
            _ => None,
        })
        .collect();
    assert_eq!(widths.len(), LINKS);
    assert!(widths.iter().all(|w| **w == [ConstExpr::Lit(8)]));
}

#[test]
fn a_forward_chain_expands_in_linear_time() {
    let p = expand_timed(Order::Forward).unwrap_or_else(|e| panic!("{e}"));
    assert_every_add_is_8(&p);
}

#[test]
fn a_reversed_chain_expands_to_the_same_widths() {
    let p = expand_timed(Order::Reversed).unwrap_or_else(|e| panic!("{e}"));
    assert_every_add_is_8(&p);
}

#[test]
fn a_cyclic_chain_reports_the_first_unbound_read() {
    let err = expand_timed(Order::Cyclic).expect_err("a cycle cannot resolve");
    assert_eq!(
        err.to_string(),
        "in component Main: parameter of instance a0: parameter a1.W is unbound"
    );
}
