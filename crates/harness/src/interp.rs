//! A reference interpreter for *expanded* Filament programs.
//!
//! This is the differential fuzzer's oracle: it executes the output of
//! [`filament_core::mono::expand`] directly — per-invocation evaluation in
//! timeline order — without ever touching `lower`, `calyx_lite`, or
//! `rtl_sim`. Each transaction is evaluated functionally: invocations are
//! processed in order of their event-binding offset, every argument must
//! already have a value when its consumer fires (a scheduling violation
//! the checker should have ruled out surfaces as
//! [`InterpError::Unschedulable`]), and primitive semantics are
//! re-implemented here on plain `u64` arithmetic rather than through the
//! simulator's lane kernels ([`rtl_sim::CellKind`]). If the interpreter
//! and the compiled netlist agree on random programs, the whole
//! `check → lower → elaborate → settle` stack has been cross-validated.
//!
//! Scope: widths up to 64 bits, single-transaction (stateless) semantics.
//! `Prev`/`ContPrev` read the *previous* transaction's value and are
//! rejected — the fuzz generator never emits them.

use fil_bits::Value;
use filament_core::ast::{Command, ConstExpr, Port, Program, Signature};
use std::collections::HashMap;
use std::fmt;

/// Errors evaluating an expanded program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// The program has no component with this name.
    UnknownComponent(String),
    /// An instance references an undefined component.
    UnknownCallee {
        /// The enclosing component.
        component: String,
        /// The missing callee.
        callee: String,
    },
    /// An extern without interpreter semantics (or one whose semantics are
    /// inherently cross-transaction, like `Prev`).
    UnsupportedExtern(String),
    /// The program still contains parametric or generate constructs — run
    /// [`filament_core::mono::expand`] first.
    NotExpanded(String),
    /// No invocation order satisfies the data dependencies (an argument is
    /// consumed before any producer ran).
    Unschedulable {
        /// The enclosing component.
        component: String,
        /// The first invocation that could not fire.
        invocation: String,
    },
    /// Wrong number of transaction input values.
    Arity {
        /// The component being evaluated.
        component: String,
        /// Expected input count.
        expected: usize,
        /// Provided input count.
        got: usize,
    },
    /// A port reference with no value (dangling name, missing connect).
    UnboundPort {
        /// The enclosing component.
        component: String,
        /// The reference, as written.
        port: String,
    },
    /// A width beyond the interpreter's 64-bit value model.
    WidthTooWide {
        /// The enclosing component.
        component: String,
        /// The offending width.
        width: u64,
    },
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::UnknownComponent(c) => write!(f, "unknown component {c}"),
            InterpError::UnknownCallee { component, callee } => {
                write!(f, "{component}: instance of undefined component {callee}")
            }
            InterpError::UnsupportedExtern(e) => {
                write!(f, "extern {e} has no single-transaction interpretation")
            }
            InterpError::NotExpanded(what) => {
                write!(f, "{what} survives in the program; run mono::expand first")
            }
            InterpError::Unschedulable {
                component,
                invocation,
            } => write!(
                f,
                "{component}: invocation {invocation} consumes a value no earlier \
                 invocation produces"
            ),
            InterpError::Arity {
                component,
                expected,
                got,
            } => write!(f, "{component}: expected {expected} inputs, got {got}"),
            InterpError::UnboundPort { component, port } => {
                write!(f, "{component}: no value for port reference {port}")
            }
            InterpError::WidthTooWide { component, width } => {
                write!(
                    f,
                    "{component}: width {width} exceeds the 64-bit value model"
                )
            }
        }
    }
}

impl std::error::Error for InterpError {}

/// An extern-semantics override: `(params, inputs) -> outputs`, same shape
/// as the built-in table. Installing one via [`Interp::override_extern`]
/// deliberately *breaks* the oracle — the fuzzer's mutation test injects a
/// wrong semantic here and checks that the mismatch is found and shrunk.
pub type ExternFn = fn(&[u64], &[u64]) -> u64;

/// The interpreter: borrows an expanded program, evaluates one component
/// transaction at a time.
pub struct Interp<'p> {
    program: &'p Program,
    overrides: HashMap<String, ExternFn>,
}

impl<'p> Interp<'p> {
    /// Wraps an expanded program.
    pub fn new(program: &'p Program) -> Self {
        Interp {
            program,
            overrides: HashMap::new(),
        }
    }

    /// Replaces the semantics of extern `name` (mutation-testing hook; see
    /// [`ExternFn`]).
    pub fn override_extern(&mut self, name: &str, f: ExternFn) {
        self.overrides.insert(name.to_string(), f);
    }

    /// Evaluates one transaction of `component`: `inputs` in signature
    /// input-port order (interface ports excluded), outputs in signature
    /// output-port order.
    ///
    /// # Errors
    ///
    /// See [`InterpError`].
    pub fn eval(&self, component: &str, inputs: &[Value]) -> Result<Vec<Value>, InterpError> {
        let comp = self
            .program
            .component(component)
            .ok_or_else(|| InterpError::UnknownComponent(component.to_string()))?;
        let raw: Vec<u64> = inputs.iter().map(Value::to_u64).collect();
        let outs = self.eval_component(comp, &raw)?;
        comp.sig
            .outputs
            .iter()
            .zip(outs)
            .map(|(p, v)| {
                let w = const_width(&p.width, &comp.sig.name)?;
                Ok(Value::from_u64(w as u32, v & mask(w)))
            })
            .collect()
    }

    fn eval_component(
        &self,
        comp: &filament_core::Component,
        inputs: &[u64],
    ) -> Result<Vec<u64>, InterpError> {
        let name = comp.sig.name.as_str();
        if comp.sig.inputs.len() != inputs.len() {
            return Err(InterpError::Arity {
                component: name.to_string(),
                expected: comp.sig.inputs.len(),
                got: inputs.len(),
            });
        }
        // Mask each input to its declared width.
        let mut input_vals: HashMap<&str, u64> = HashMap::new();
        for (p, v) in comp.sig.inputs.iter().zip(inputs) {
            let w = const_width(&p.width, name)?;
            input_vals.insert(p.name.as_str(), v & mask(w));
        }

        // Gather instances and invocations; anything generate-shaped means
        // the program was not expanded.
        let mut instances: HashMap<String, (&str, Vec<u64>)> = HashMap::new();
        let mut invokes = Vec::new();
        for cmd in &comp.body {
            match cmd {
                Command::Instance {
                    name: iname,
                    component,
                    params,
                } => {
                    let vals = params
                        .iter()
                        .map(|p| {
                            p.eval_closed().map_err(|_| {
                                InterpError::NotExpanded("a symbolic parameter".into())
                            })
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    instances.insert(iname.to_string(), (component.as_str(), vals));
                }
                Command::Invoke {
                    name: iname,
                    instance,
                    events,
                    args,
                } => {
                    let at = events.first().and_then(|t| t.offset_val()).ok_or_else(|| {
                        InterpError::NotExpanded("a symbolic event offset".into())
                    })?;
                    invokes.push((at, iname.to_string(), instance.to_string(), args));
                }
                Command::Connect { .. } => {}
                Command::ForGen { .. } => {
                    return Err(InterpError::NotExpanded("a for-generate loop".into()))
                }
                Command::IfGen { .. } => {
                    return Err(InterpError::NotExpanded(
                        "an if-generate conditional".into(),
                    ))
                }
            }
        }
        // Timeline order: earliest event binding first; declaration order
        // breaks ties (combinational chains share an offset).
        invokes.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));

        // inv_vals["inv"]["port"] = value.
        let mut inv_vals: HashMap<String, HashMap<String, u64>> = HashMap::new();
        let resolve = |port: &Port,
                       inv_vals: &HashMap<String, HashMap<String, u64>>|
         -> Result<Option<u64>, InterpError> {
            match port {
                Port::This(p) => match input_vals.get(p.as_str()) {
                    Some(v) => Ok(Some(*v)),
                    None => Err(InterpError::UnboundPort {
                        component: name.to_string(),
                        port: p.clone(),
                    }),
                },
                Port::Lit(n) => Ok(Some(*n)),
                Port::Inv { invocation, port } => Ok(inv_vals
                    .get(&invocation.to_string())
                    .and_then(|m| m.get(port.as_str()))
                    .copied()),
                Port::Bundle { .. } | Port::InvBundle { .. } => {
                    Err(InterpError::NotExpanded("a bundle port reference".into()))
                }
            }
        };

        // Worklist evaluation in timeline order. Every pass fires all
        // ready invocations; no progress with work left means the schedule
        // itself is broken.
        let mut pending: Vec<usize> = (0..invokes.len()).collect();
        while !pending.is_empty() {
            let mut fired = Vec::new();
            for (slot, &k) in pending.iter().enumerate() {
                let (_, iname, instance, args) = &invokes[k];
                let mut arg_vals = Vec::with_capacity(args.len());
                let mut ready = true;
                for a in args.iter() {
                    match resolve(a, &inv_vals)? {
                        Some(v) => arg_vals.push(v),
                        None => {
                            ready = false;
                            break;
                        }
                    }
                }
                if !ready {
                    continue;
                }
                let (callee, params) =
                    instances
                        .get(instance)
                        .ok_or_else(|| InterpError::UnboundPort {
                            component: name.to_string(),
                            port: instance.clone(),
                        })?;
                let outs = self.eval_callee(name, callee, params, &arg_vals)?;
                inv_vals.insert(iname.clone(), outs);
                fired.push(slot);
            }
            if fired.is_empty() {
                let (_, iname, _, _) = &invokes[pending[0]];
                return Err(InterpError::Unschedulable {
                    component: name.to_string(),
                    invocation: iname.clone(),
                });
            }
            for slot in fired.into_iter().rev() {
                pending.remove(slot);
            }
        }

        // Outputs: the connect targeting each output port, in declaration
        // order.
        let mut outs = Vec::with_capacity(comp.sig.outputs.len());
        for out in &comp.sig.outputs {
            if out.bundle.is_some() {
                return Err(InterpError::NotExpanded("a bundle output port".into()));
            }
            let mut found = None;
            for cmd in &comp.body {
                if let Command::Connect { dst, src } = cmd {
                    if matches!(dst, Port::This(p) if p == &out.name) {
                        found = resolve(src, &inv_vals)?;
                    }
                }
            }
            match found {
                Some(v) => outs.push(v),
                None => {
                    return Err(InterpError::UnboundPort {
                        component: name.to_string(),
                        port: out.name.clone(),
                    })
                }
            }
        }
        Ok(outs)
    }

    /// Evaluates one invocation of `callee` — an extern via the semantics
    /// table, a user component recursively. Returns `port name -> value`.
    fn eval_callee(
        &self,
        caller: &str,
        callee: &str,
        params: &[u64],
        args: &[u64],
    ) -> Result<HashMap<String, u64>, InterpError> {
        if let Some(comp) = self.program.component(callee) {
            let outs = self.eval_component(comp, args)?;
            return Ok(comp
                .sig
                .outputs
                .iter()
                .zip(outs)
                .map(|(p, v)| (p.name.clone(), v))
                .collect());
        }
        let sig = self
            .program
            .sig(callee)
            .ok_or_else(|| InterpError::UnknownCallee {
                component: caller.to_string(),
                callee: callee.to_string(),
            })?;
        // Mask args to the callee's declared input widths under its params.
        let env = param_env(sig, params);
        let mut masked = Vec::with_capacity(args.len());
        for (p, v) in sig.inputs.iter().zip(args) {
            let w = width_under(&p.width, &env, caller)?;
            masked.push(v & mask(w));
        }
        let out = match self.overrides.get(callee) {
            Some(f) => f(params, &masked),
            None => extern_semantics(callee, params, &masked)
                .ok_or_else(|| InterpError::UnsupportedExtern(callee.to_string()))?,
        };
        let out_port = sig
            .outputs
            .first()
            .ok_or_else(|| InterpError::UnsupportedExtern(callee.to_string()))?;
        let w = width_under(&out_port.width, &env, caller)?;
        Ok(HashMap::from([(out_port.name.clone(), out & mask(w))]))
    }
}

/// `name -> value` bindings for a signature's parameters: free parameters
/// from the instance's argument list, derived (`some`) parameters computed
/// from them.
fn param_env(sig: &Signature, params: &[u64]) -> HashMap<String, u64> {
    match sig.resolve_param_values(params) {
        Ok(full) => sig.param_env(&full),
        Err(_) => HashMap::new(),
    }
}

fn width_under(
    w: &ConstExpr,
    env: &HashMap<String, u64>,
    component: &str,
) -> Result<u64, InterpError> {
    let v = w
        .eval(env)
        .map_err(|_| InterpError::NotExpanded(format!("a symbolic width in {component}")))?;
    if v > 64 {
        return Err(InterpError::WidthTooWide {
            component: component.to_string(),
            width: v,
        });
    }
    Ok(v)
}

fn const_width(w: &ConstExpr, component: &str) -> Result<u64, InterpError> {
    let v = w
        .norm()
        .as_lit()
        .ok_or_else(|| InterpError::NotExpanded(format!("a symbolic width in {component}")))?;
    if v > 64 {
        return Err(InterpError::WidthTooWide {
            component: component.to_string(),
            width: v,
        });
    }
    Ok(v)
}

/// All-ones for `w` bits (`w <= 64`).
fn mask(w: u64) -> u64 {
    if w >= 64 {
        u64::MAX
    } else {
        (1u64 << w) - 1
    }
}

/// Stdlib semantics on plain machine words — the interpreter's own table,
/// written from the extern signatures' documentation rather than shared
/// with [`rtl_sim::CellKind`]. Returns `None` for unknown externs and for
/// the cross-transaction stream registers.
fn extern_semantics(name: &str, params: &[u64], args: &[u64]) -> Option<u64> {
    let w = *params.first().unwrap_or(&0);
    let a = *args.first().unwrap_or(&0);
    let b = args.get(1).copied().unwrap_or(0);
    let m = mask(w);
    Some(match name {
        "Add" => a.wrapping_add(b) & m,
        "Sub" => a.wrapping_sub(b) & m,
        // All four multipliers compute the same function; they differ only
        // in schedule, which the interpreter's timeline order abstracts.
        "MultComb" | "Mult" | "FastMult" | "LogiMult" => a.wrapping_mul(b) & m,
        "And" => a & b,
        "Or" => a | b,
        "Xor" => a ^ b,
        "Not" => !a & m,
        // Mux(sel, in0, in1): sel picks in1.
        "Mux" => {
            if a != 0 {
                args.get(2).copied().unwrap_or(0)
            } else {
                b
            }
        }
        "Eq" => u64::from(a == b),
        "Lt" => u64::from(a < b),
        "Ge" => u64::from(a >= b),
        "ShlConst" => shifted(a, params.get(1).copied().unwrap_or(0), false) & m,
        "ShrConst" => shifted(a, params.get(1).copied().unwrap_or(0), true),
        "Shl" => shifted(a, b, false) & m,
        "Shr" => shifted(a, b, true),
        "Slice" => {
            let (hi, lo) = (params.get(1).copied()?, params.get(2).copied()?);
            (a >> lo) & mask(hi - lo + 1)
        }
        // Concat[WH, WL]: a is the high part.
        "Concat" => {
            let wl = params.get(1).copied()?;
            (a << wl.min(63)) | b
        }
        "ZExt" => a & mask(params.get(1).copied()?),
        "ReduceOr" => u64::from(a != 0),
        "ReduceAnd" => u64::from(a == m),
        "Clz" => {
            if a == 0 {
                w
            } else {
                w - 1 - (63 - u64::from(a.leading_zeros()))
            }
        }
        "SBox" => u64::from(sbox(a as u8)),
        // State elements are per-transaction identities: a register holds
        // the one value the transaction wrote.
        "Register" | "Delay" => a,
        // Prev/ContPrev observe the previous transaction — out of scope.
        _ => return None,
    })
}

/// `x << n` / `x >> n` with the hardware convention that shifting a W-bit
/// value by `n >= 64` yields zero (the dynamic shifters take the full
/// operand as the amount).
fn shifted(x: u64, n: u64, right: bool) -> u64 {
    if n >= 64 {
        return 0;
    }
    if right {
        x >> n
    } else {
        x << n
    }
}

/// The AES S-box, computed from first principles (multiplicative inverse
/// in GF(2^8) mod x^8+x^4+x^3+x+1, then the affine transform) — nothing
/// shared with the simulator's lookup table.
fn sbox(x: u8) -> u8 {
    fn gmul(mut a: u8, mut b: u8) -> u8 {
        let mut p = 0u8;
        for _ in 0..8 {
            if b & 1 != 0 {
                p ^= a;
            }
            let hi = a & 0x80 != 0;
            a <<= 1;
            if hi {
                a ^= 0x1b;
            }
            b >>= 1;
        }
        p
    }
    // Inverse via a^254 (Fermat in GF(2^8)).
    let inv = if x == 0 {
        0
    } else {
        let mut acc = 1u8;
        let mut base = x;
        let mut e = 254u32;
        while e > 0 {
            if e & 1 != 0 {
                acc = gmul(acc, base);
            }
            base = gmul(base, base);
            e >>= 1;
        }
        acc
    };
    let mut out = 0u8;
    for i in 0..8 {
        let bit = ((inv >> i)
            ^ (inv >> ((i + 4) % 8))
            ^ (inv >> ((i + 5) % 8))
            ^ (inv >> ((i + 6) % 8))
            ^ (inv >> ((i + 7) % 8)))
            & 1;
        out |= bit << i;
    }
    out ^ 0x63
}

#[cfg(test)]
mod tests {
    use super::*;
    use filament_core::{mono, parse_program};

    fn interp_eval(src: &str, top: &str, inputs: &[u64]) -> Vec<u64> {
        let mut program = fil_stdlib::std_program();
        program.extend(parse_program(src).expect("parse"));
        let expanded = mono::expand(&program).expect("expand");
        let vals: Vec<Value> = inputs.iter().map(|&v| Value::from_u64(64, v)).collect();
        Interp::new(&expanded)
            .eval(top, &vals)
            .expect("eval")
            .iter()
            .map(Value::to_u64)
            .collect()
    }

    #[test]
    fn arithmetic_chain_matches_hand_computation() {
        let out = interp_eval(
            "comp Main<G: 1>(@interface[G] go: 1, @[G, G+1] x: 8, @[G, G+1] y: 8)
                 -> (@[G+1, G+2] o: 8) {
               s := new Add[8]<G>(x, y);
               d := new Delay[8]<G>(s.out);
               n := new Not[8]<G+1>(d.out);
               o = n.out;
             }",
            "Main",
            &[200, 100],
        );
        assert_eq!(
            out,
            vec![!(44u64) & 0xff],
            "(200+100) mod 256 = 44, inverted"
        );
    }

    #[test]
    fn declaration_order_does_not_matter() {
        // `b` is declared before its producer `a`; the worklist settles it.
        let out = interp_eval(
            "comp Main<G: 1>(@[G, G+1] x: 16) -> (@[G, G+1] o: 16) {
               bx := new Not[16]<G>(ax.out);
               ax := new Add[16]<G>(x, 1);
               o = bx.out;
             }",
            "Main",
            &[0xff00],
        );
        assert_eq!(out, vec![!0xff01 & 0xffff]);
    }

    #[test]
    fn subcomponents_evaluate_recursively_with_derived_params() {
        let out = interp_eval(
            "comp Wide[W, some OW = W + W]<G: 1>(@[G, G+1] a: W, @[G, G+1] b: W)
                 -> (@[G, G+1] out: OW) {
               c := new Concat[W, W]<G>(a, b);
               out = c.out;
             }
             comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 16) {
               w := new Wide[8]<G>(x, 255);
               o = w.out;
             }",
            "Main",
            &[0xab],
        );
        assert_eq!(out, vec![0xabff]);
    }

    #[test]
    fn generate_constructs_are_rejected_unexpanded() {
        let mut program = fil_stdlib::std_program();
        program.extend(
            parse_program(
                "comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G+2, G+3] o: 8) {
                   s[0] := new Delay[8]<G>(x);
                   for i in 1..2 { s[i] := new Delay[8]<G+i>(s[i-1].out); }
                   o = s[1].out;
                 }",
            )
            .unwrap(),
        );
        let err = Interp::new(&program)
            .eval("Main", &[Value::from_u64(8, 1)])
            .unwrap_err();
        assert!(matches!(err, InterpError::NotExpanded(_)), "{err}");
    }

    #[test]
    fn sbox_matches_fips_sample_points() {
        // FIPS-197 Figure 7 spot checks.
        assert_eq!(sbox(0x00), 0x63);
        assert_eq!(sbox(0x53), 0xed);
        assert_eq!(sbox(0xff), 0x16);
        assert_eq!(sbox(0x10), 0xca);
    }

    #[test]
    fn clz_and_reductions() {
        let out = interp_eval(
            "comp Main<G: 1>(@[G, G+1] x: 8) ->
                 (@[G, G+1] z: 8, @[G, G+1] r: 1, @[G, G+1] a: 1) {
               c := new Clz[8]<G>(x);
               ro := new ReduceOr[8]<G>(x);
               ra := new ReduceAnd[8]<G>(x);
               z = c.out;
               r = ro.out;
               a = ra.out;
             }",
            "Main",
            &[0b0001_0000],
        );
        assert_eq!(out, vec![3, 1, 0]);
    }

    #[test]
    fn overridden_semantics_diverge() {
        let mut program = fil_stdlib::std_program();
        program.extend(
            parse_program(
                "comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 8) {
                   s := new Add[8]<G>(x, 3);
                   o = s.out;
                 }",
            )
            .unwrap(),
        );
        let expanded = mono::expand(&program).unwrap();
        let mut it = Interp::new(&expanded);
        it.override_extern("Add", |params, args| {
            // An off-by-one Add: the mutation test's canonical injected bug.
            (args[0].wrapping_add(args[1]).wrapping_add(1)) & ((1 << params[0]) - 1)
        });
        let out = it.eval("Main", &[Value::from_u64(8, 10)]).unwrap();
        assert_eq!(out[0].to_u64(), 14, "broken oracle adds one extra");
    }
}
