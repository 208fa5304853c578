//! AST-level reduction of failing programs to minimal `.fil` repros.
//!
//! The vendored proptest shim has no shrinking, so the fuzzer carries its
//! own delta debugger. Moves are deliberately *unsound in isolation* —
//! they may break the program — because every candidate is re-validated
//! by the caller's predicate ("still fails at the same oracle stage"), so
//! a candidate that merely breaks the build is rejected, never kept.
//!
//! Moves, largest first:
//!
//! * drop a whole non-top component,
//! * prune an invocation cone (the instance, its invokes, and everything
//!   transitively reading them),
//! * splice an `if`-generate down to one arm,
//! * shorten a `for`-generate by one iteration,
//! * halve a literal instance parameter,
//! * drop an unreferenced input port.
//!
//! Greedy outer loop to a fixpoint under an evaluation budget.

use filament_core::ast::{Command, ConstExpr, Id, Port};
use filament_core::pretty::print_program;
use filament_core::{parse_program, Component, Program};
use std::collections::HashSet;

/// Shrinks `source` while `still_fails` keeps accepting candidates,
/// spending at most `budget` predicate evaluations. Returns the smallest
/// accepted source (the input itself when nothing smaller reproduces).
pub fn shrink(
    source: &str,
    top: &str,
    still_fails: &mut dyn FnMut(&str) -> bool,
    budget: usize,
) -> String {
    // Unparseable sources (a Parse-stage failure) have no AST to reduce.
    let Ok(mut cur) = parse_program(source) else {
        return source.to_string();
    };
    let mut cur_src = print_program(&cur);
    // The reprint must reproduce before it can stand in for the original.
    if cur_src != source && !still_fails(&cur_src) {
        return source.to_string();
    }
    let mut evals = 0usize;
    'outer: while evals < budget {
        for cand in candidates(&cur, top) {
            let txt = print_program(&cand);
            if txt == cur_src {
                continue;
            }
            evals += 1;
            if still_fails(&txt) {
                cur = cand;
                cur_src = txt;
                continue 'outer;
            }
            if evals >= budget {
                break 'outer;
            }
        }
        break;
    }
    cur_src
}

/// Every one-step reduction of `p`, most aggressive first.
fn candidates(p: &Program, top: &str) -> Vec<Program> {
    let mut out = Vec::new();

    // Drop a whole component (never the top).
    for (i, c) in p.components.iter().enumerate() {
        if c.sig.name != top {
            let mut q = p.clone();
            q.components.remove(i);
            out.push(q);
        }
    }

    for (ci, c) in p.components.iter().enumerate() {
        // Prune one invocation cone.
        for victim in instance_names(&c.body) {
            if let Some(body) = prune_cone(&c.body, &victim) {
                let mut comp = Component {
                    sig: c.sig.clone(),
                    body,
                };
                retain_connected_outputs(&mut comp);
                if !comp.sig.outputs.is_empty() {
                    out.push(replace_comp(p, ci, comp));
                }
            }
        }

        // Splice each if-generate down to one arm.
        let ifs = count_matching(&c.body, &mut |cmd| matches!(cmd, Command::IfGen { .. }));
        for n in 0..ifs {
            for take_then in [true, false] {
                let mut k = n;
                let body = rewrite(&c.body, &mut |cmd| match cmd {
                    Command::IfGen {
                        then_body,
                        else_body,
                        ..
                    } => {
                        if k == 0 {
                            k = usize::MAX;
                            Some(if take_then {
                                then_body.clone()
                            } else {
                                else_body.clone()
                            })
                        } else {
                            k -= 1;
                            None
                        }
                    }
                    _ => None,
                });
                out.push(replace_comp(
                    p,
                    ci,
                    Component {
                        sig: c.sig.clone(),
                        body,
                    },
                ));
            }
        }

        // Shorten each for-generate by one iteration.
        let fors = count_matching(&c.body, &mut |cmd| {
            matches!(cmd, Command::ForGen { lo: _, hi, .. }
                if matches!(hi, ConstExpr::Lit(_)))
        });
        for n in 0..fors {
            let mut k = n;
            let body = rewrite(&c.body, &mut |cmd| match cmd {
                Command::ForGen { var, lo, hi, body } => {
                    let ConstExpr::Lit(h) = hi else { return None };
                    if k == 0 {
                        k = usize::MAX;
                        (*h > 1).then(|| {
                            vec![Command::ForGen {
                                var: var.clone(),
                                lo: lo.clone(),
                                hi: ConstExpr::Lit(h - 1),
                                body: body.clone(),
                            }]
                        })
                    } else {
                        k -= 1;
                        None
                    }
                }
                _ => None,
            });
            out.push(replace_comp(
                p,
                ci,
                Component {
                    sig: c.sig.clone(),
                    body,
                },
            ));
        }

        // Halve one literal instance parameter.
        let lits = count_matching(&c.body, &mut |cmd| {
            matches!(cmd, Command::Instance { params, .. }
                if params.iter().any(|e| matches!(e, ConstExpr::Lit(v) if *v > 1)))
        });
        for n in 0..lits {
            let mut k = n;
            let body = rewrite(&c.body, &mut |cmd| {
                let Command::Instance {
                    name,
                    component,
                    params,
                } = cmd
                else {
                    return None;
                };
                if !params
                    .iter()
                    .any(|e| matches!(e, ConstExpr::Lit(v) if *v > 1))
                {
                    return None;
                }
                if k > 0 {
                    k -= 1;
                    return None;
                }
                k = usize::MAX;
                let mut params = params.clone();
                for e in &mut params {
                    if let ConstExpr::Lit(v) = e {
                        if *v > 1 {
                            *e = ConstExpr::Lit(*v / 2);
                            break;
                        }
                    }
                }
                Some(vec![Command::Instance {
                    name: name.clone(),
                    component: component.clone(),
                    params,
                }])
            });
            out.push(replace_comp(
                p,
                ci,
                Component {
                    sig: c.sig.clone(),
                    body,
                },
            ));
        }

        // Replace one invoke's invocation-output arguments with literal
        // zeros, detaching it from its producers (a later cone prune then
        // removes the now-unread upstream hardware).
        let detachable = count_matching(&c.body, &mut |cmd| {
            matches!(cmd, Command::Invoke { args, .. }
                if args.iter().any(|a| matches!(a, Port::Inv { .. } | Port::InvBundle { .. })))
        });
        for n in 0..detachable {
            let mut k = n;
            let body = rewrite(&c.body, &mut |cmd| {
                let Command::Invoke {
                    name,
                    instance,
                    events,
                    args,
                } = cmd
                else {
                    return None;
                };
                if !args
                    .iter()
                    .any(|a| matches!(a, Port::Inv { .. } | Port::InvBundle { .. }))
                {
                    return None;
                }
                if k > 0 {
                    k -= 1;
                    return None;
                }
                k = usize::MAX;
                let args = args
                    .iter()
                    .map(|a| match a {
                        Port::Inv { .. } | Port::InvBundle { .. } => Port::Lit(0),
                        other => other.clone(),
                    })
                    .collect();
                Some(vec![Command::Invoke {
                    name: name.clone(),
                    instance: instance.clone(),
                    events: events.clone(),
                    args,
                }])
            });
            out.push(replace_comp(
                p,
                ci,
                Component {
                    sig: c.sig.clone(),
                    body,
                },
            ));
        }

        // Drop one unreferenced input port.
        for (pi, port) in c.sig.inputs.iter().enumerate() {
            if !body_reads_port(&c.body, &port.name) {
                let mut comp = c.clone();
                comp.sig.inputs.remove(pi);
                out.push(replace_comp(p, ci, comp));
            }
        }
    }

    out
}

fn replace_comp(p: &Program, ci: usize, comp: Component) -> Program {
    let mut q = p.clone();
    q.components[ci] = comp;
    q
}

/// Rewrites a body, calling `f` on every command depth-first; `Some(repl)`
/// splices the replacement in place of the command, `None` keeps it (with
/// generate bodies rewritten recursively).
fn rewrite(body: &[Command], f: &mut impl FnMut(&Command) -> Option<Vec<Command>>) -> Vec<Command> {
    let mut out = Vec::new();
    for c in body {
        if let Some(repl) = f(c) {
            out.extend(repl);
            continue;
        }
        match c {
            Command::ForGen { var, lo, hi, body } => out.push(Command::ForGen {
                var: var.clone(),
                lo: lo.clone(),
                hi: hi.clone(),
                body: rewrite(body, f),
            }),
            Command::IfGen {
                lhs,
                op,
                rhs,
                then_body,
                else_body,
            } => out.push(Command::IfGen {
                lhs: lhs.clone(),
                op: *op,
                rhs: rhs.clone(),
                then_body: rewrite(then_body, f),
                else_body: rewrite(else_body, f),
            }),
            _ => out.push(c.clone()),
        }
    }
    out
}

fn count_matching(body: &[Command], m: &mut impl FnMut(&Command) -> bool) -> usize {
    let mut n = 0;
    for c in body {
        if m(c) {
            n += 1;
        }
        match c {
            Command::ForGen { body, .. } => n += count_matching(body, m),
            Command::IfGen {
                then_body,
                else_body,
                ..
            } => n += count_matching(then_body, m) + count_matching(else_body, m),
            _ => {}
        }
    }
    n
}

/// Base names of all instances in a body (recursing into generate arms).
fn instance_names(body: &[Command]) -> Vec<Id> {
    let mut names = Vec::new();
    let mut seen = HashSet::new();
    collect_instances(body, &mut names, &mut seen);
    names
}

fn collect_instances(body: &[Command], names: &mut Vec<Id>, seen: &mut HashSet<Id>) {
    for c in body {
        match c {
            Command::Instance { name, .. } if seen.insert(name.base.clone()) => {
                names.push(name.base.clone());
            }
            Command::ForGen { body, .. } => collect_instances(body, names, seen),
            Command::IfGen {
                then_body,
                else_body,
                ..
            } => {
                collect_instances(then_body, names, seen);
                collect_instances(else_body, names, seen);
            }
            _ => {}
        }
    }
}

fn port_mentions(p: &Port, dead: &HashSet<Id>) -> bool {
    match p {
        Port::Inv { invocation, .. } | Port::InvBundle { invocation, .. } => {
            dead.contains(&invocation.base)
        }
        _ => false,
    }
}

/// Removes instance `victim` plus everything transitively reading it.
/// Returns `None` when nothing was removed.
fn prune_cone(body: &[Command], victim: &Id) -> Option<Vec<Command>> {
    let mut dead: HashSet<Id> = HashSet::new();
    dead.insert(victim.clone());
    // Grow the dead set to a fixpoint: an invoke whose instance or
    // arguments are dead kills its own name too.
    loop {
        let before = dead.len();
        grow_dead(body, &mut dead);
        if dead.len() == before {
            break;
        }
    }
    let pruned = filter_dead(body, &dead);
    (pruned != body).then_some(pruned)
}

fn grow_dead(body: &[Command], dead: &mut HashSet<Id>) {
    for c in body {
        match c {
            Command::Invoke {
                name,
                instance,
                args,
                ..
            } if dead.contains(&instance.base) || args.iter().any(|a| port_mentions(a, dead)) => {
                dead.insert(name.base.clone());
            }
            Command::ForGen { body, .. } => grow_dead(body, dead),
            Command::IfGen {
                then_body,
                else_body,
                ..
            } => {
                grow_dead(then_body, dead);
                grow_dead(else_body, dead);
            }
            _ => {}
        }
    }
}

fn filter_dead(body: &[Command], dead: &HashSet<Id>) -> Vec<Command> {
    let mut out = Vec::new();
    for c in body {
        match c {
            Command::Instance { name, .. } if dead.contains(&name.base) => {}
            Command::Invoke {
                name,
                instance,
                args,
                ..
            } if dead.contains(&name.base)
                || dead.contains(&instance.base)
                || args.iter().any(|a| port_mentions(a, dead)) => {}
            Command::Connect { dst, src }
                if port_mentions(src, dead) || port_mentions(dst, dead) => {}
            Command::ForGen { var, lo, hi, body } => out.push(Command::ForGen {
                var: var.clone(),
                lo: lo.clone(),
                hi: hi.clone(),
                body: filter_dead(body, dead),
            }),
            Command::IfGen {
                lhs,
                op,
                rhs,
                then_body,
                else_body,
            } => out.push(Command::IfGen {
                lhs: lhs.clone(),
                op: *op,
                rhs: rhs.clone(),
                then_body: filter_dead(then_body, dead),
                else_body: filter_dead(else_body, dead),
            }),
            _ => out.push(c.clone()),
        }
    }
    out
}

/// Drops signature outputs that no longer have a driving connect (cone
/// pruning may have removed it).
fn retain_connected_outputs(comp: &mut Component) {
    let mut driven: HashSet<Id> = HashSet::new();
    collect_driven(&comp.body, &mut driven);
    comp.sig.outputs.retain(|p| driven.contains(&p.name));
}

fn collect_driven(body: &[Command], driven: &mut HashSet<Id>) {
    for c in body {
        match c {
            Command::Connect { dst, .. } => match dst {
                Port::This(n) => {
                    driven.insert(n.clone());
                }
                Port::Bundle { port, .. } => {
                    driven.insert(port.clone());
                }
                _ => {}
            },
            Command::ForGen { body, .. } => collect_driven(body, driven),
            Command::IfGen {
                then_body,
                else_body,
                ..
            } => {
                collect_driven(then_body, driven);
                collect_driven(else_body, driven);
            }
            _ => {}
        }
    }
}

fn body_reads_port(body: &[Command], name: &Id) -> bool {
    let reads = |p: &Port| match p {
        Port::This(n) => n == name,
        Port::Bundle { port, .. } => port == name,
        _ => false,
    };
    body.iter().any(|c| match c {
        Command::Invoke { args, .. } => args.iter().any(reads),
        Command::Connect { src, .. } => reads(src),
        Command::ForGen { body, .. } => body_reads_port(body, name),
        Command::IfGen {
            then_body,
            else_body,
            ..
        } => body_reads_port(then_body, name) || body_reads_port(else_body, name),
        _ => false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const BLOATED: &str = "comp FzTop<G: 1>(@interface[G] go: 1, @[G, G+1] x0: 8, @[G, G+1] x1: 8)
    -> (@[G, G+1] o0: 8, @[G, G+1] o1: 8) {
  keep := new Add[8]<G>(x0, x1);
  noise1 := new Xor[8]<G>(x0, x1);
  noise2 := new Sub[8]<G>(noise1.out, x1);
  o0 = keep.out;
  o1 = noise2.out;
}
comp Unused<G: 1>(@[G, G+1] a: 4) -> (@[G, G+1] out: 4) {
  u := new Not[4]<G>(a);
  out = u.out;
}";

    #[test]
    fn shrinks_to_the_failing_cone() {
        // The "failure" is any program still containing the `keep` invoke:
        // everything else — the noise cone, the second output, the unused
        // component, the unread input — must be stripped away.
        let mut pred = |s: &str| s.contains("keep") && s.contains("FzTop");
        let out = shrink(BLOATED, "FzTop", &mut pred, 200);
        assert!(out.contains("keep"), "{out}");
        assert!(!out.contains("noise1"), "noise cone survived:\n{out}");
        assert!(!out.contains("noise2"), "noise cone survived:\n{out}");
        assert!(!out.contains("Unused"), "unused component survived:\n{out}");
        assert!(!out.contains("o1"), "disconnected output survived:\n{out}");
        assert!(out.len() < BLOATED.len() / 2, "not much smaller:\n{out}");
    }

    #[test]
    fn budget_zero_returns_input_unchanged() {
        let mut pred = |_: &str| true;
        // Budget 0 permits no candidate evaluations; the reprint of the
        // (already pretty-printed) input comes back as-is.
        let printed = print_program(&parse_program(BLOATED).unwrap());
        assert_eq!(shrink(&printed, "FzTop", &mut pred, 0), printed);
    }

    #[test]
    fn generate_constructs_reduce() {
        let src = "comp FzTop<G: 1>(@interface[G] go: 1, @[G, G+1] x0: 8)
    -> (@[G+4, G+5] o0: 8) {
  d[0] := new Delay[8]<G>(x0);
  for i in 1..4 {
    d[i] := new Delay[8]<G+i>(d[i-1].out);
  }
  if 3 < 5 {
    m := new Add[8]<G+4>(d[3].out, 7);
  } else {
    m := new Sub[8]<G+4>(d[3].out, 7);
  }
  o0 = m.out;
}";
        // Failure = "mentions Add": the if-generate must splice to its
        // then-arm and the for loop must stay (the cone feeds the Add).
        let mut pred = |s: &str| s.contains("Add");
        let out = shrink(src, "FzTop", &mut pred, 200);
        assert!(out.contains("Add"), "{out}");
        assert!(!out.contains("if "), "if-generate survived:\n{out}");
        assert!(!out.contains("Sub"), "else arm survived:\n{out}");
    }
}
