//! Abstract syntax of Filament (the paper's Figure 3 and Figure 7a).
//!
//! A *program* is a sequence of components; a *component* couples a
//! [`Signature`] — events with delays, interface ports, and ports with
//! availability intervals — with a body of commands: instantiations,
//! invocations, and connections.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// An identifier (component, event, port, instance, or invocation name).
pub type Id = String;

/// A binary operator in a compile-time constant expression.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConstOp {
    /// Addition.
    Add,
    /// Subtraction (checked; underflow is an evaluation error).
    Sub,
    /// Multiplication.
    Mul,
    /// Integer division (division by zero is an evaluation error).
    Div,
    /// Remainder.
    Mod,
}

impl ConstOp {
    fn symbol(self) -> &'static str {
        match self {
            ConstOp::Add => "+",
            ConstOp::Sub => "-",
            ConstOp::Mul => "*",
            ConstOp::Div => "/",
            ConstOp::Mod => "%",
        }
    }

    /// Binding strength: additive < multiplicative.
    fn prec(self) -> u8 {
        match self {
            ConstOp::Add | ConstOp::Sub => 1,
            ConstOp::Mul | ConstOp::Div | ConstOp::Mod => 2,
        }
    }

    fn apply(self, l: u64, r: u64) -> Result<u64, ConstEvalError> {
        let arith = |msg: String| ConstEvalError::Arith(msg);
        match self {
            ConstOp::Add => l
                .checked_add(r)
                .ok_or_else(|| arith(format!("{l} + {r} overflows"))),
            ConstOp::Sub => l
                .checked_sub(r)
                .ok_or_else(|| arith(format!("{l} - {r} underflows"))),
            ConstOp::Mul => l
                .checked_mul(r)
                .ok_or_else(|| arith(format!("{l} * {r} overflows"))),
            ConstOp::Div => l
                .checked_div(r)
                .ok_or_else(|| arith(format!("{l} / {r}: division by zero"))),
            ConstOp::Mod => l
                .checked_rem(r)
                .ok_or_else(|| arith(format!("{l} % {r}: division by zero"))),
        }
    }
}

/// Why a [`ConstExpr`] failed to evaluate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConstEvalError {
    /// A parameter had no binding in the environment.
    Unbound(Id),
    /// An arithmetic failure (overflow, underflow, division by zero,
    /// `log2(0)`).
    Arith(String),
}

impl fmt::Display for ConstEvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstEvalError::Unbound(p) => write!(f, "parameter {p} is unbound"),
            ConstEvalError::Arith(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for ConstEvalError {}

/// A compile-time constant expression over the enclosing component's const
/// parameters (and, inside `for`-generate bodies, the loop variables):
/// literals, parameters, `+ - * / %`, `pow2`, and `log2`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ConstExpr {
    /// A literal value.
    Lit(u64),
    /// A parameter of the enclosing component (or a generate-loop variable).
    Param(Id),
    /// A parameter of an instance in the same body, read by the caller:
    /// `enc.W`. The monomorphizer resolves it through its instance table
    /// to a position in the callee's parameter values (including
    /// [derived](ParamDecl) ones), so the callee's interface equation —
    /// not its body — is what the caller computes with.
    InstParam(Id, Id),
    /// A binary operation.
    Bin(ConstOp, Box<ConstExpr>, Box<ConstExpr>),
    /// `pow2(e)` = 2^e.
    Pow2(Box<ConstExpr>),
    /// `log2(e)` = ceil(log2(e)); `log2(0)` is an evaluation error.
    Log2(Box<ConstExpr>),
}

impl ConstExpr {
    /// The name an instance-parameter read goes by, `"{instance}.{param}"`:
    /// what an unbound `inst.P` read reports, and the key the map-based
    /// [`eval`](ConstExpr::eval), [`subst`](ConstExpr::subst) and
    /// [`params`](ConstExpr::params) use for it. Parsed identifiers can never
    /// contain a dot, so composite keys cannot collide with ordinary
    /// parameters.
    pub fn inst_key(instance: &str, param: &str) -> Id {
        format!("{instance}.{param}")
    }

    /// Builds `lhs op rhs`, constant-folding when both sides are literals
    /// and the operation succeeds.
    pub fn bin(op: ConstOp, lhs: ConstExpr, rhs: ConstExpr) -> ConstExpr {
        if let (ConstExpr::Lit(l), ConstExpr::Lit(r)) = (&lhs, &rhs) {
            if let Ok(n) = op.apply(*l, *r) {
                return ConstExpr::Lit(n);
            }
        }
        ConstExpr::Bin(op, Box::new(lhs), Box::new(rhs))
    }

    /// Evaluates under a parameter environment.
    ///
    /// # Errors
    ///
    /// Returns [`ConstEvalError::Unbound`] naming the first parameter with
    /// no binding, or [`ConstEvalError::Arith`] on arithmetic failure.
    pub fn eval(&self, env: &HashMap<Id, u64>) -> Result<u64, ConstEvalError> {
        self.eval_by(&|leaf| match leaf {
            ConstExpr::InstParam(i, p) => {
                let key = ConstExpr::inst_key(i, p);
                env.get(&key).copied().ok_or(ConstEvalError::Unbound(key))
            }
            ConstExpr::Param(p) => env
                .get(p)
                .copied()
                .ok_or_else(|| ConstEvalError::Unbound(p.clone())),
            _ => unreachable!("only parameters are leaves"),
        })
    }

    /// Evaluates with `param` giving the value of each parameter or
    /// instance-parameter read.
    ///
    /// # Errors
    ///
    /// Whatever `param` returns, or [`ConstEvalError::Arith`] on
    /// arithmetic failure.
    pub fn eval_by(
        &self,
        param: &dyn Fn(&ConstExpr) -> Result<u64, ConstEvalError>,
    ) -> Result<u64, ConstEvalError> {
        match self {
            ConstExpr::Lit(n) => Ok(*n),
            ConstExpr::Param(_) | ConstExpr::InstParam(..) => param(self),
            ConstExpr::Bin(op, l, r) => op.apply(l.eval_by(param)?, r.eval_by(param)?),
            ConstExpr::Pow2(e) => {
                let n = e.eval_by(param)?;
                if n >= 64 {
                    Err(ConstEvalError::Arith(format!("pow2({n}) overflows u64")))
                } else {
                    Ok(1u64 << n)
                }
            }
            ConstExpr::Log2(e) => {
                let n = e.eval_by(param)?;
                if n == 0 {
                    Err(ConstEvalError::Arith("log2(0) is undefined".into()))
                } else {
                    Ok((64 - (n - 1).leading_zeros()) as u64)
                }
            }
        }
    }

    /// Evaluates with no parameters in scope (closed expressions only).
    ///
    /// # Errors
    ///
    /// As [`ConstExpr::eval`].
    pub fn eval_closed(&self) -> Result<u64, ConstEvalError> {
        self.eval(&HashMap::new())
    }

    /// The literal value of an already-evaluated expression.
    pub fn as_lit(&self) -> Option<u64> {
        match self {
            ConstExpr::Lit(n) => Some(*n),
            _ => None,
        }
    }

    /// Normalizes to a literal when the expression is closed; otherwise
    /// returns the expression unchanged (used for width comparison, so
    /// `2*16` and `32` agree).
    pub fn norm(&self) -> ConstExpr {
        match self.eval_closed() {
            Ok(n) => ConstExpr::Lit(n),
            Err(_) => self.clone(),
        }
    }

    /// Substitutes parameters, constant-folding fully resolved
    /// subexpressions and keeping unbound parameters symbolic.
    pub fn subst(&self, env: &HashMap<Id, u64>) -> ConstExpr {
        match self {
            ConstExpr::Lit(n) => ConstExpr::Lit(*n),
            ConstExpr::Param(p) => match env.get(p) {
                Some(n) => ConstExpr::Lit(*n),
                None => self.clone(),
            },
            ConstExpr::InstParam(i, p) => match env.get(&ConstExpr::inst_key(i, p)) {
                Some(n) => ConstExpr::Lit(*n),
                None => self.clone(),
            },
            ConstExpr::Bin(op, l, r) => ConstExpr::bin(*op, l.subst(env), r.subst(env)),
            ConstExpr::Pow2(e) => ConstExpr::Pow2(Box::new(e.subst(env))).norm(),
            ConstExpr::Log2(e) => ConstExpr::Log2(Box::new(e.subst(env))).norm(),
        }
    }

    /// Substitutes parameters by *expressions* (the checker's
    /// caller-to-callee width propagation: a callee width `N*W` under
    /// `{N ↦ 4, W ↦ M}` becomes `4*M`), constant-folding resolved
    /// subexpressions.
    pub fn subst_exprs(&self, env: &HashMap<Id, ConstExpr>) -> ConstExpr {
        match self {
            ConstExpr::Lit(n) => ConstExpr::Lit(*n),
            ConstExpr::Param(p) => env.get(p).cloned().unwrap_or_else(|| self.clone()),
            ConstExpr::InstParam(i, p) => env
                .get(&ConstExpr::inst_key(i, p))
                .cloned()
                .unwrap_or_else(|| self.clone()),
            ConstExpr::Bin(op, l, r) => ConstExpr::bin(*op, l.subst_exprs(env), r.subst_exprs(env)),
            ConstExpr::Pow2(e) => ConstExpr::Pow2(Box::new(e.subst_exprs(env))).norm(),
            ConstExpr::Log2(e) => ConstExpr::Log2(Box::new(e.subst_exprs(env))).norm(),
        }
    }

    /// The parameters this expression mentions, in first-occurrence order.
    /// Instance-parameter reads contribute their composite
    /// [`inst_key`](ConstExpr::inst_key) (`"enc.W"`), which a signature's
    /// parameter set never contains — so scope checks reject them in
    /// positions where no instance is in scope.
    pub fn params(&self) -> Vec<Id> {
        fn walk(e: &ConstExpr, out: &mut Vec<Id>) {
            let mut push = |p: Id| {
                if !out.contains(&p) {
                    out.push(p);
                }
            };
            match e {
                ConstExpr::Lit(_) => {}
                ConstExpr::Param(p) => push(p.clone()),
                ConstExpr::InstParam(i, p) => push(ConstExpr::inst_key(i, p)),
                ConstExpr::Bin(_, l, r) => {
                    walk(l, out);
                    walk(r, out);
                }
                ConstExpr::Pow2(e) | ConstExpr::Log2(e) => walk(e, out),
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }

    /// Precedence-aware rendering: parenthesizes a subexpression only when
    /// it binds looser than its context, so output re-parses to the same
    /// tree.
    fn fmt_prec(&self, f: &mut fmt::Formatter<'_>, ctx: u8) -> fmt::Result {
        match self {
            ConstExpr::Lit(n) => write!(f, "{n}"),
            ConstExpr::Param(p) => write!(f, "{p}"),
            ConstExpr::InstParam(i, p) => write!(f, "{i}.{p}"),
            ConstExpr::Bin(op, l, r) => {
                let p = op.prec();
                let need = p < ctx;
                if need {
                    write!(f, "(")?;
                }
                l.fmt_prec(f, p)?;
                write!(f, " {} ", op.symbol())?;
                // Right operand of a left-associative chain needs parens at
                // equal precedence: `a - (b - c)`.
                r.fmt_prec(f, p + 1)?;
                if need {
                    write!(f, ")")?;
                }
                Ok(())
            }
            ConstExpr::Pow2(e) => {
                write!(f, "pow2(")?;
                e.fmt_prec(f, 0)?;
                write!(f, ")")
            }
            ConstExpr::Log2(e) => {
                write!(f, "log2(")?;
                e.fmt_prec(f, 0)?;
                write!(f, ")")
            }
        }
    }
}

impl fmt::Display for ConstExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_prec(f, 0)
    }
}

impl From<u64> for ConstExpr {
    fn from(n: u64) -> Self {
        ConstExpr::Lit(n)
    }
}

/// A possibly-indexed name in a generate context: `pe[i][j]`. Outside
/// `for`-generate bodies the index list is empty and the name is just its
/// base identifier. The monomorphizer flattens indexed names into plain
/// identifiers (`pe_1_2`) while unrolling.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IName {
    /// The base identifier.
    pub base: Id,
    /// Index expressions, evaluated at elaboration time.
    pub idx: Vec<ConstExpr>,
}

impl IName {
    /// An un-indexed name.
    pub fn plain(base: impl Into<Id>) -> Self {
        IName {
            base: base.into(),
            idx: Vec::new(),
        }
    }

    /// An indexed name.
    pub fn indexed(base: impl Into<Id>, idx: Vec<ConstExpr>) -> Self {
        IName {
            base: base.into(),
            idx,
        }
    }

    /// The plain identifier, if un-indexed.
    pub fn flat(&self) -> Option<&Id> {
        if self.idx.is_empty() {
            Some(&self.base)
        } else {
            None
        }
    }

    /// Evaluates the indices with `value` and flattens to `base_i0_i1`.
    /// A `#inst` suffix (the parser's fused-form convention) is preserved
    /// at the end so pretty-printing can re-fuse: `pe#inst` with indices
    /// `[1, 2]` flattens to `pe_1_2#inst`.
    ///
    /// # Errors
    ///
    /// Propagates index-evaluation failures.
    pub fn mangle(
        &self,
        value: &mut dyn FnMut(&ConstExpr) -> Result<u64, ConstEvalError>,
    ) -> Result<Id, ConstEvalError> {
        if self.idx.is_empty() {
            return Ok(self.base.clone());
        }
        let (stem, suffix) = match self.base.strip_suffix("#inst") {
            Some(stem) => (stem, "#inst"),
            None => (self.base.as_str(), ""),
        };
        let mut out = stem.to_owned();
        for e in &self.idx {
            out.push('_');
            out.push_str(&value(e)?.to_string());
        }
        out.push_str(suffix);
        Ok(out)
    }
}

impl fmt::Display for IName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.base)?;
        for e in &self.idx {
            write!(f, "[{e}]")?;
        }
        Ok(())
    }
}

/// A name as the user wrote it, for diagnostics. The parser names the
/// instance of a fused `x := new C<G>(..)` `x#inst` (flattened `x_1#inst`,
/// unflattened `x#inst[i]`); that instance is written `x` (`x_1`, `x[i]`).
pub(crate) fn written(name: impl fmt::Display) -> String {
    name.to_string().replacen("#inst", "", 1)
}

impl From<&str> for IName {
    fn from(s: &str) -> Self {
        IName::plain(s)
    }
}

impl From<String> for IName {
    fn from(s: String) -> Self {
        IName::plain(s)
    }
}

/// A time expression `E + n`: an event variable plus a cycle offset
/// (Section 3.1 — sums of event variables are meaningless and unsupported).
/// The offset is a [`ConstExpr`] so generators can schedule at `G + i`
/// inside `for`-generate loops; outside generator code (and always after
/// monomorphization) it is a literal.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Time {
    /// The event variable.
    pub event: Id,
    /// The cycle offset.
    pub offset: ConstExpr,
}

impl Time {
    /// `event + offset`.
    pub fn new(event: impl Into<Id>, offset: u64) -> Self {
        Time {
            event: event.into(),
            offset: ConstExpr::Lit(offset),
        }
    }

    /// `event + offset` with a symbolic offset.
    pub fn at(event: impl Into<Id>, offset: ConstExpr) -> Self {
        Time {
            event: event.into(),
            offset,
        }
    }

    /// The bare event `E + 0`.
    pub fn event(event: impl Into<Id>) -> Self {
        Time::new(event, 0)
    }

    /// The concrete offset of an elaborated time, evaluating closed
    /// arithmetic. `None` when the offset still mentions parameters.
    pub fn offset_val(&self) -> Option<u64> {
        self.offset.eval_closed().ok()
    }

    /// The concrete offset of a time that has passed concreteness
    /// validation ([`offset_val`](Time::offset_val) for the fallible form).
    ///
    /// # Panics
    ///
    /// Panics if the offset still mentions parameters — callers in the
    /// checker and compiler run after the concreteness pre-pass (or after
    /// monomorphization), which rules that out.
    pub fn off(&self) -> u64 {
        self.offset_val()
            .unwrap_or_else(|| panic!("time offset {self} is not concrete; run mono::expand first"))
    }

    /// Shifts the time by additional cycles (constant-folded when the
    /// offset is already concrete).
    pub fn plus(&self, n: u64) -> Time {
        Time::at(
            self.event.clone(),
            ConstExpr::bin(ConstOp::Add, self.offset.clone(), ConstExpr::Lit(n)),
        )
    }

    /// Substitutes the event variable per `map`, composing offsets: if
    /// `map[E] = G + i` then `(E + k).subst = G + (i + k)`.
    pub fn subst(&self, map: &HashMap<Id, Time>) -> Time {
        match map.get(&self.event) {
            Some(t) => self.after(t),
            None => self.clone(),
        }
    }

    /// Substitutes the event variable by position: when it names
    /// `events[k]` (the last such), the time becomes `binding[k]` plus this
    /// offset, composed as in [`subst`](Time::subst).
    pub fn bind(&self, events: &[EventDecl], binding: &[Time]) -> Time {
        match events.iter().rposition(|e| e.name == self.event) {
            Some(k) => self.after(&binding[k]),
            None => self.clone(),
        }
    }

    /// This time's offset counted from `t`.
    fn after(&self, t: &Time) -> Time {
        Time::at(
            t.event.clone(),
            ConstExpr::bin(ConstOp::Add, t.offset.clone(), self.offset.clone()),
        )
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.offset {
            ConstExpr::Lit(0) => write!(f, "{}", self.event),
            // The offset grammar excludes top-level +/- (they would be
            // ambiguous with the `time - time` delay form), so additive
            // offsets print parenthesized: `G+(i + 1)` re-parses exactly.
            e @ ConstExpr::Bin(ConstOp::Add | ConstOp::Sub, ..) => {
                write!(f, "{}+({e})", self.event)
            }
            e => write!(f, "{}+{e}", self.event),
        }
    }
}

/// A half-open availability interval `[start, end)` (Section 3.2).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Range {
    /// First cycle (inclusive).
    pub start: Time,
    /// Last cycle (exclusive).
    pub end: Time,
}

impl Range {
    /// `[start, end)`.
    pub fn new(start: Time, end: Time) -> Self {
        Range { start, end }
    }

    /// The single-cycle interval `[E+o, E+o+1)`.
    pub fn cycle(event: impl Into<Id>, offset: u64) -> Self {
        let s = Time::new(event, offset);
        let e = s.plus(1);
        Range::new(s, e)
    }

    /// Substitutes event variables in both endpoints.
    pub fn subst(&self, map: &HashMap<Id, Time>) -> Range {
        Range::new(self.start.subst(map), self.end.subst(map))
    }

    /// Substitutes event variables by position in both endpoints
    /// ([`Time::bind`]).
    pub fn bind(&self, events: &[EventDecl], binding: &[Time]) -> Range {
        Range::new(
            self.start.bind(events, binding),
            self.end.bind(events, binding),
        )
    }
}

impl fmt::Display for Range {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

/// An event's delay (Section 3.1): constant for user-level components,
/// possibly a difference of times (`L-(G+1)`) for externs (Section 3.6).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Delay {
    /// A constant number of cycles.
    Const(u64),
    /// `lhs - rhs`, a parametric delay pinned down at invocation time.
    Diff(Time, Time),
}

impl Delay {
    /// Substitutes event variables.
    pub fn subst(&self, map: &HashMap<Id, Time>) -> Delay {
        match self {
            Delay::Const(n) => Delay::Const(*n),
            Delay::Diff(a, b) => Delay::Diff(a.subst(map), b.subst(map)),
        }
    }

    /// Evaluates to a constant if possible: either already constant, or a
    /// difference of times over the *same* event variable with concrete
    /// offsets. `None` also when the value does not fit in an `i64`.
    pub fn as_const(&self) -> Option<i64> {
        match self {
            Delay::Const(n) => i64::try_from(*n).ok(),
            Delay::Diff(a, b) if a.event == b.event => {
                let d = i128::from(a.offset_val()?) - i128::from(b.offset_val()?);
                i64::try_from(d).ok()
            }
            Delay::Diff(..) => None,
        }
    }
}

impl fmt::Display for Delay {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Delay::Const(n) => write!(f, "{n}"),
            Delay::Diff(a, b) => write!(f, "{a}-({b})"),
        }
    }
}

/// An event binder `<E: delay>` in a signature.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct EventDecl {
    /// The event variable.
    pub name: Id,
    /// Its delay.
    pub delay: Delay,
}

/// An interface port `@interface[E] go: 1` (Section 3.2): the physical port
/// by which event `E` is signalled at runtime.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct InterfaceDef {
    /// Port name.
    pub name: Id,
    /// The event this port triggers.
    pub event: Id,
}

/// The index binder of a *bundle port* `name[i: lo..hi]`: a length-indexed
/// family of ports whose width and interval offsets may mention the index
/// variable. The monomorphizer ([`crate::mono`]) flattens a bundle of
/// extent `lo..hi` into `hi - lo` concrete ports `name_lo .. name_{hi-1}`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Bundle {
    /// The index variable, scoped over the port's width and liveness.
    pub var: Id,
    /// Lower bound (inclusive).
    pub lo: ConstExpr,
    /// Upper bound (exclusive).
    pub hi: ConstExpr,
}

impl Bundle {
    /// A bundle `var: 0..len`.
    pub fn upto(var: impl Into<Id>, len: ConstExpr) -> Self {
        Bundle {
            var: var.into(),
            lo: ConstExpr::Lit(0),
            hi: len,
        }
    }

    /// The concrete index range, if both bounds evaluate under `env`.
    ///
    /// # Errors
    ///
    /// Propagates the first bound-evaluation failure.
    pub fn extent(&self, env: &HashMap<Id, u64>) -> Result<std::ops::Range<u64>, ConstEvalError> {
        Ok(self.lo.eval(env)?..self.hi.eval(env)?)
    }
}

impl fmt::Display for Bundle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}: {}..{}]", self.var, self.lo, self.hi)
    }
}

/// A data port with its availability interval.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PortDef {
    /// Port name.
    pub name: Id,
    /// Availability interval (guarantee for inputs, obligation for outputs).
    pub liveness: Range,
    /// Bit width.
    pub width: ConstExpr,
    /// The index binder when this is a bundle port (`name[i: lo..hi]`);
    /// `None` for ordinary scalar ports.
    pub bundle: Option<Bundle>,
}

impl PortDef {
    /// A scalar (non-bundle) port.
    pub fn scalar(name: impl Into<Id>, liveness: Range, width: ConstExpr) -> Self {
        PortDef {
            name: name.into(),
            liveness,
            width,
            bundle: None,
        }
    }

    /// The flattened name of element `k` of this port, `name_k` (bundle
    /// elements are plain ports after monomorphization).
    pub fn element_name(&self, k: u64) -> Id {
        format!("{}_{k}", self.name)
    }
}

/// The relational operator of a `where` constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConstraintOp {
    /// Strictly greater.
    Gt,
    /// Greater or equal.
    Ge,
    /// Equal.
    Eq,
}

/// An ordering constraint between events: `where L > G+1` (Section 3.6).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct OrderConstraint {
    /// Left time.
    pub lhs: Time,
    /// Operator.
    pub op: ConstraintOp,
    /// Right time.
    pub rhs: Time,
}

impl fmt::Display for OrderConstraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let op = match self.op {
            ConstraintOp::Gt => ">",
            ConstraintOp::Ge => ">=",
            ConstraintOp::Eq => "==",
        };
        write!(f, "{} {op} {}", self.lhs, self.rhs)
    }
}

/// A const-parameter binder in a signature.
///
/// *Free* parameters (`W`) are supplied by the caller at instantiation;
/// *derived* (existential) parameters (`some W = log2(N)`) are computed by
/// the signature itself from earlier parameters, so a component can expose
/// a width it derives — `comp Enc[N, some W = log2(N)]` publishes the
/// interface equation `W = log2(N)` that clients typecheck against without
/// ever seeing the body. Derivations may chain (`some D = W / 2`) but may
/// only reference parameters declared earlier, which rules out cycles by
/// construction.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ParamDecl {
    /// The parameter name.
    pub name: Id,
    /// The derivation equation for a `some` parameter; `None` for a free
    /// parameter.
    pub derive: Option<ConstExpr>,
}

impl ParamDecl {
    /// A free (caller-supplied) parameter.
    pub fn free(name: impl Into<Id>) -> Self {
        ParamDecl {
            name: name.into(),
            derive: None,
        }
    }

    /// A derived parameter `some name = expr`.
    pub fn derived(name: impl Into<Id>, expr: ConstExpr) -> Self {
        ParamDecl {
            name: name.into(),
            derive: Some(expr),
        }
    }

    /// True for `some` parameters.
    pub fn is_derived(&self) -> bool {
        self.derive.is_some()
    }
}

impl fmt::Display for ParamDecl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.derive {
            None => write!(f, "{}", self.name),
            Some(e) => write!(f, "some {} = {e}", self.name),
        }
    }
}

/// Why [`Signature::resolve_param_values`] failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParamResolveError {
    /// The wrong number of values was supplied (`want` counts the *free*
    /// parameters only — derived ones are never supplied by callers).
    Arity {
        /// Free parameters the signature declares.
        want: usize,
        /// Values supplied.
        got: usize,
    },
    /// A derivation failed to evaluate.
    Eval {
        /// The derived parameter.
        param: Id,
        /// The underlying failure.
        cause: ConstEvalError,
    },
    /// An explicitly supplied derived value contradicts its derivation
    /// (only possible when a full-length value vector is passed through).
    Mismatch {
        /// The derived parameter.
        param: Id,
        /// The value its derivation computes.
        want: u64,
        /// The value supplied.
        got: u64,
    },
}

impl fmt::Display for ParamResolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParamResolveError::Arity { want, got } => {
                write!(f, "takes {want} parameters, got {got}")
            }
            ParamResolveError::Eval { param, cause } => {
                write!(f, "derived parameter {param}: {cause}")
            }
            ParamResolveError::Mismatch { param, want, got } => write!(
                f,
                "derived parameter {param} must equal {want} per its derivation, got {got}"
            ),
        }
    }
}

impl std::error::Error for ParamResolveError {}

/// A component signature: name, const parameters, events, ports, and
/// ordering constraints.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Signature {
    /// Component name.
    pub name: Id,
    /// Const parameters (`[N, some W = log2(N)]`), free and derived, in
    /// declaration order.
    pub params: Vec<ParamDecl>,
    /// Event binders with delays.
    pub events: Vec<EventDecl>,
    /// Interface ports (at most one per event).
    pub interfaces: Vec<InterfaceDef>,
    /// Input data ports.
    pub inputs: Vec<PortDef>,
    /// Output data ports.
    pub outputs: Vec<PortDef>,
    /// `where` clauses (externs only in well-typed programs; Section 4.4).
    pub constraints: Vec<OrderConstraint>,
}

impl Signature {
    /// The names of all parameters (free and derived) in declaration order.
    pub fn param_names(&self) -> impl Iterator<Item = &Id> {
        self.params.iter().map(|p| &p.name)
    }

    /// The names of the free (caller-supplied) parameters in declaration
    /// order.
    pub fn free_params(&self) -> impl Iterator<Item = &Id> {
        self.params
            .iter()
            .filter(|p| !p.is_derived())
            .map(|p| &p.name)
    }

    /// How many values an instantiation of this signature supplies.
    pub fn free_param_count(&self) -> usize {
        self.params.iter().filter(|p| !p.is_derived()).count()
    }

    /// True when a value vector of length `n` is the *full* (elaborated)
    /// form — one entry per parameter, derived included — rather than the
    /// caller-supplied free form. The single source of truth for the
    /// free-vs-full convention shared by
    /// [`resolve_param_values`](Self::resolve_param_values),
    /// [`param_exprs`](Self::param_exprs), and the checker.
    pub fn is_full_value_count(&self, n: usize) -> bool {
        n == self.params.len() && self.free_param_count() != self.params.len()
    }

    /// True if `name` is a parameter (free or derived) of this signature.
    pub fn has_param(&self, name: &str) -> bool {
        self.params.iter().any(|p| p.name == name)
    }

    /// Resolves the values supplied at an instantiation site into one value
    /// per parameter, in declaration order.
    ///
    /// `values` is either one value per *free* parameter (the source form —
    /// each derivation is evaluated under the earlier parameters) or one
    /// per parameter (the already-elaborated form, as `mono::expand` emits
    /// for externs — each derivation is re-evaluated and checked for
    /// consistency, which keeps expansion idempotent and catches hand-edited
    /// derived values).
    ///
    /// # Errors
    ///
    /// Returns a [`ParamResolveError`] on an arity mismatch, a derivation
    /// that fails to evaluate, or an inconsistent supplied value.
    pub fn resolve_param_values(&self, values: &[u64]) -> Result<Vec<u64>, ParamResolveError> {
        let free = self.free_param_count();
        let total = self.params.len();
        let pass_through = self.is_full_value_count(values.len());
        if values.len() != free && !pass_through {
            return Err(ParamResolveError::Arity {
                want: free,
                got: values.len(),
            });
        }
        let mut env: HashMap<Id, u64> = HashMap::with_capacity(total);
        let mut out = Vec::with_capacity(total);
        let mut supplied = values.iter().copied();
        for decl in &self.params {
            let v = match &decl.derive {
                None => supplied.next().expect("arity checked above"),
                Some(expr) => {
                    let want = expr.eval(&env).map_err(|cause| ParamResolveError::Eval {
                        param: decl.name.clone(),
                        cause,
                    })?;
                    if pass_through {
                        let got = supplied.next().expect("arity checked above");
                        if got != want {
                            return Err(ParamResolveError::Mismatch {
                                param: decl.name.clone(),
                                want,
                                got,
                            });
                        }
                    }
                    want
                }
            };
            env.insert(decl.name.clone(), v);
            out.push(v);
        }
        Ok(out)
    }

    /// The value of parameter `name` in a full value vector (one entry per
    /// parameter, as [`resolve_param_values`](Self::resolve_param_values)
    /// returns). The last declaration of a name wins, as in
    /// [`param_env`](Self::param_env).
    pub fn param_value(&self, full: &[u64], name: &str) -> Option<u64> {
        let k = self.params.iter().rposition(|d| d.name == name)?;
        full.get(k).copied()
    }

    /// Evaluates `e` over this signature's parameters at a full value
    /// vector, as [`ConstExpr::eval`] does under
    /// [`param_env`](Self::param_env) without building the map.
    ///
    /// # Errors
    ///
    /// As [`ConstExpr::eval`].
    pub fn eval_at(&self, e: &ConstExpr, full: &[u64]) -> Result<u64, ConstEvalError> {
        e.eval_by(&|leaf| match leaf {
            ConstExpr::Param(p) => self
                .param_value(full, p)
                .ok_or_else(|| ConstEvalError::Unbound(p.clone())),
            ConstExpr::InstParam(i, p) => Err(ConstEvalError::Unbound(ConstExpr::inst_key(i, p))),
            _ => unreachable!("only parameters are leaves"),
        })
    }

    /// The parameter environment for a full value vector (one entry per
    /// parameter, as [`resolve_param_values`](Self::resolve_param_values)
    /// returns).
    pub fn param_env(&self, full: &[u64]) -> HashMap<Id, u64> {
        self.param_names()
            .cloned()
            .zip(full.iter().copied())
            .collect()
    }

    /// The symbolic parameter environment at an instantiation site: free
    /// parameters bound to the caller's expressions, derived parameters to
    /// their derivations with earlier parameters substituted — so a callee
    /// width `W` under `Enc[N, some W = log2(N)]` instantiated at `[8]`
    /// propagates as `log2(8)` (which constant-folds to `3`).
    ///
    /// `given` holds either one expression per free parameter or one per
    /// parameter (the elaborated form); other lengths yield an environment
    /// built from however many expressions are available, leaving the rest
    /// symbolic (the caller reports the arity error).
    pub fn param_exprs(&self, given: &[ConstExpr]) -> HashMap<Id, ConstExpr> {
        let mut env: HashMap<Id, ConstExpr> = HashMap::with_capacity(self.params.len());
        let full = self.is_full_value_count(given.len());
        let mut supplied = given.iter();
        for decl in &self.params {
            let e = match (&decl.derive, full) {
                (Some(expr), false) => Some(expr.subst_exprs(&env).norm()),
                _ => supplied.next().cloned(),
            };
            if let Some(e) = e {
                env.insert(decl.name.clone(), e);
            }
        }
        env
    }

    /// The declared delay of an event.
    pub fn delay_of(&self, event: &str) -> Option<&Delay> {
        self.events
            .iter()
            .find(|e| e.name == event)
            .map(|e| &e.delay)
    }

    /// The interface port of an event, if any. Events without one are
    /// *phantom* (Section 3.6).
    pub fn interface_of(&self, event: &str) -> Option<&InterfaceDef> {
        self.interfaces.iter().find(|i| i.event == event)
    }

    /// True if `event` has no interface port.
    pub fn is_phantom(&self, event: &str) -> bool {
        self.interface_of(event).is_none()
    }

    /// Finds an input port by name.
    pub fn input(&self, name: &str) -> Option<&PortDef> {
        self.inputs.iter().find(|p| p.name == name)
    }

    /// Finds an output port by name.
    pub fn output(&self, name: &str) -> Option<&PortDef> {
        self.outputs.iter().find(|p| p.name == name)
    }
}

/// A reference to a port in a command.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Port {
    /// A port of the enclosing component.
    This(Id),
    /// One element of a bundle port of the enclosing component: `left[i]`.
    /// The monomorphizer resolves the index and flattens this to
    /// [`Port::This`] (`left_2`).
    Bundle {
        /// The bundle port's name.
        port: Id,
        /// The element index, evaluated at elaboration time.
        idx: ConstExpr,
    },
    /// A port of a previous invocation: `m0.out` (possibly indexed inside a
    /// generate loop: `pe[i][j].out`).
    Inv {
        /// The invocation name.
        invocation: IName,
        /// The port name in the callee's signature.
        port: Id,
    },
    /// One element of a bundle output of a previous invocation:
    /// `s.out[k]`. Flattened to [`Port::Inv`] (`s.out_4`) by the
    /// monomorphizer.
    InvBundle {
        /// The invocation name.
        invocation: IName,
        /// The bundle port name in the callee's signature.
        port: Id,
        /// The element index, evaluated at elaboration time.
        idx: ConstExpr,
    },
    /// A constant literal (always semantically valid).
    Lit(u64),
}

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Port::This(p) => write!(f, "{p}"),
            Port::Bundle { port, idx } => write!(f, "{port}[{idx}]"),
            Port::Inv { invocation, port } => write!(f, "{invocation}.{port}"),
            Port::InvBundle {
                invocation,
                port,
                idx,
            } => write!(f, "{invocation}.{port}[{idx}]"),
            Port::Lit(n) => write!(f, "{n}"),
        }
    }
}

/// The comparison operator of an `if`-generate condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Evaluates `l op r`.
    pub fn holds(self, l: u64, r: u64) -> bool {
        match self {
            CmpOp::Eq => l == r,
            CmpOp::Ne => l != r,
            CmpOp::Lt => l < r,
            CmpOp::Le => l <= r,
            CmpOp::Gt => l > r,
            CmpOp::Ge => l >= r,
        }
    }

    /// The surface-syntax spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "==",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.symbol())
    }
}

/// A body command (Figure 7a, extended with the `for`-generate construct).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Command {
    /// `I := new C[p...]` — constructs a physical circuit (Section 3.3).
    Instance {
        /// Instance name.
        name: IName,
        /// The component being instantiated.
        component: Id,
        /// Const parameter bindings.
        params: Vec<ConstExpr>,
    },
    /// `x := I<T1, ...>(a1, ...)` — a named, scheduled use of an instance
    /// (Section 3.4).
    Invoke {
        /// Invocation name.
        name: IName,
        /// The instance being used.
        instance: IName,
        /// Event bindings, one per callee event.
        events: Vec<Time>,
        /// Arguments, one per callee input port.
        args: Vec<Port>,
    },
    /// `dst = src` — a physical wire (Section 3.5).
    Connect {
        /// Destination (an output of the enclosing component).
        dst: Port,
        /// Source.
        src: Port,
    },
    /// `for i in lo..hi { ... }` — generator sugar over unrolled
    /// instantiation/invocation/connection. The loop variable is usable in
    /// parameter positions, name indices, and time offsets; the
    /// monomorphizer ([`crate::mono`]) unrolls the loop before checking or
    /// lowering.
    ForGen {
        /// The loop variable.
        var: Id,
        /// Lower bound (inclusive).
        lo: ConstExpr,
        /// Upper bound (exclusive).
        hi: ConstExpr,
        /// The commands repeated per iteration.
        body: Vec<Command>,
    },
    /// `if l op r { ... } else { ... }` — a compile-time conditional over
    /// const expressions. The monomorphizer evaluates the condition and
    /// keeps exactly one arm; the other never reaches checking or lowering
    /// (so the arms may instantiate different components).
    IfGen {
        /// Left operand of the condition.
        lhs: ConstExpr,
        /// Comparison operator.
        op: CmpOp,
        /// Right operand of the condition.
        rhs: ConstExpr,
        /// Commands kept when the condition holds.
        then_body: Vec<Command>,
        /// Commands kept otherwise (empty when there is no `else`).
        else_body: Vec<Command>,
    },
}

/// A component: signature plus body.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Component {
    /// The signature.
    pub sig: Signature,
    /// The body commands.
    pub body: Vec<Command>,
}

/// A full program: externs (signature-only, Section 3.6) and user components.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Program {
    /// Extern (black-box) component signatures, shared copy-on-write:
    /// cloning a program (the standard library into every build, the
    /// externs into expanded output) bumps a reference count, and a writer
    /// takes a private copy through [`Arc::make_mut`]. `Arc<T>` hashes and
    /// compares as `T`, so structural hashes do not see the sharing.
    pub externs: Arc<Vec<Signature>>,
    /// User components with bodies.
    pub components: Vec<Component>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up any signature (extern or user) by name.
    pub fn sig(&self, name: &str) -> Option<&Signature> {
        self.externs.iter().find(|s| s.name == name).or_else(|| {
            self.components
                .iter()
                .map(|c| &c.sig)
                .find(|s| s.name == name)
        })
    }

    /// Looks up a user component by name.
    pub fn component(&self, name: &str) -> Option<&Component> {
        self.components.iter().find(|c| c.sig.name == name)
    }

    /// True if `name` names an extern.
    pub fn is_extern(&self, name: &str) -> bool {
        self.externs.iter().any(|s| s.name == name)
    }

    /// Merges another program's definitions into this one (used to combine
    /// the standard library with user code).
    pub fn extend(&mut self, other: Program) {
        if !other.externs.is_empty() {
            Arc::make_mut(&mut self.externs).extend(Arc::unwrap_or_clone(other.externs));
        }
        self.components.extend(other.components);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_subst_composes_offsets() {
        let mut map = HashMap::new();
        map.insert("T".to_owned(), Time::new("G", 2));
        assert_eq!(Time::new("T", 3).subst(&map), Time::new("G", 5));
        assert_eq!(Time::new("U", 3).subst(&map), Time::new("U", 3));
    }

    #[test]
    fn range_subst_and_display() {
        let mut map = HashMap::new();
        map.insert("T".to_owned(), Time::new("G", 1));
        let r = Range::new(Time::event("T"), Time::new("T", 2));
        let s = r.subst(&map);
        assert_eq!(s.to_string(), "[G+1, G+3)");
        assert_eq!(Range::cycle("G", 0).to_string(), "[G, G+1)");
    }

    #[test]
    fn delay_as_const() {
        assert_eq!(Delay::Const(3).as_const(), Some(3));
        let d = Delay::Diff(Time::new("G", 3), Time::new("G", 1));
        assert_eq!(d.as_const(), Some(2));
        let d = Delay::Diff(Time::event("L"), Time::new("G", 1));
        assert_eq!(d.as_const(), None);
        // Parametric delay pinned by substitution (Section 3.6's example:
        // A<G, G+3> gives the adder delay (G+3)-G = 3).
        let mut map = HashMap::new();
        map.insert("L".to_owned(), Time::new("T", 3));
        map.insert("G".to_owned(), Time::event("T"));
        let d = Delay::Diff(Time::event("L"), Time::event("G")).subst(&map);
        assert_eq!(d.as_const(), Some(3));
        // Out of i64 range is not a constant, never a wrapped one.
        assert_eq!(Delay::Const(1 << 63).as_const(), None);
        let d = Delay::Diff(Time::new("G", 1 << 63), Time::new("G", 0));
        assert_eq!(d.as_const(), None);
    }

    #[test]
    fn const_expr_eval_and_subst() {
        let mut env = HashMap::new();
        env.insert("W".to_owned(), 32u64);
        assert_eq!(ConstExpr::Lit(8).eval(&env), Ok(8));
        assert_eq!(ConstExpr::Param("W".into()).eval(&env), Ok(32));
        assert_eq!(
            ConstExpr::Param("X".into()).eval(&env),
            Err(ConstEvalError::Unbound("X".into()))
        );
        assert_eq!(ConstExpr::Param("W".into()).subst(&env), ConstExpr::Lit(32));
        assert_eq!(
            ConstExpr::Param("X".into()).subst(&env),
            ConstExpr::Param("X".into())
        );
    }

    #[test]
    fn const_expr_arithmetic() {
        let mut env = HashMap::new();
        env.insert("W".to_owned(), 8u64);
        env.insert("N".to_owned(), 3u64);
        let w = || ConstExpr::Param("W".into());
        let n = || ConstExpr::Param("N".into());
        // W*N + W - 1 = 31.
        let e = ConstExpr::bin(
            ConstOp::Sub,
            ConstExpr::bin(ConstOp::Add, ConstExpr::bin(ConstOp::Mul, w(), n()), w()),
            ConstExpr::Lit(1),
        );
        assert_eq!(e.eval(&env), Ok(31));
        assert_eq!(e.subst(&env), ConstExpr::Lit(31));
        assert_eq!(e.params(), vec!["W".to_owned(), "N".to_owned()]);
        // pow2 / log2.
        assert_eq!(ConstExpr::Pow2(Box::new(n())).eval(&env), Ok(8));
        assert_eq!(ConstExpr::Log2(Box::new(w())).eval(&env), Ok(3));
        assert_eq!(
            ConstExpr::Log2(Box::new(ConstExpr::Lit(9))).eval_closed(),
            Ok(4),
            "ceiling log2"
        );
        // Errors carry the cause.
        assert!(matches!(
            ConstExpr::bin(ConstOp::Div, w(), ConstExpr::Lit(0)).eval(&env),
            Err(ConstEvalError::Arith(_))
        ));
        assert!(matches!(
            ConstExpr::bin(ConstOp::Sub, ConstExpr::Lit(1), ConstExpr::Lit(2)).eval_closed(),
            Err(ConstEvalError::Arith(_))
        ));
        assert!(matches!(
            ConstExpr::Log2(Box::new(ConstExpr::Lit(0))).eval_closed(),
            Err(ConstEvalError::Arith(_))
        ));
    }

    #[test]
    fn const_expr_display_has_minimal_parens() {
        let p = |s: &str| ConstExpr::Param(s.into());
        let mul = ConstExpr::Bin(
            ConstOp::Mul,
            Box::new(ConstExpr::Bin(
                ConstOp::Add,
                Box::new(p("A")),
                Box::new(p("B")),
            )),
            Box::new(p("C")),
        );
        assert_eq!(mul.to_string(), "(A + B) * C");
        let sub = ConstExpr::Bin(
            ConstOp::Sub,
            Box::new(p("A")),
            Box::new(ConstExpr::Bin(
                ConstOp::Sub,
                Box::new(p("B")),
                Box::new(p("C")),
            )),
        );
        assert_eq!(sub.to_string(), "A - (B - C)");
        let flat = ConstExpr::Bin(
            ConstOp::Add,
            Box::new(ConstExpr::Bin(
                ConstOp::Mul,
                Box::new(p("W")),
                Box::new(p("I")),
            )),
            Box::new(p("W")),
        );
        assert_eq!(flat.to_string(), "W * I + W");
        assert_eq!(ConstExpr::Pow2(Box::new(p("N"))).to_string(), "pow2(N)");
    }

    #[test]
    fn iname_mangling() {
        let mut env = HashMap::new();
        env.insert("i".to_owned(), 1u64);
        env.insert("j".to_owned(), 2u64);
        let plain = IName::plain("pe");
        assert_eq!(plain.flat(), Some(&"pe".to_owned()));
        assert_eq!(plain.mangle(&mut |e| e.eval(&env)).unwrap(), "pe");
        let idx = IName::indexed(
            "pe",
            vec![ConstExpr::Param("i".into()), ConstExpr::Param("j".into())],
        );
        assert_eq!(idx.flat(), None);
        assert_eq!(idx.to_string(), "pe[i][j]");
        assert_eq!(idx.mangle(&mut |e| e.eval(&env)).unwrap(), "pe_1_2");
        // The fused-form suffix stays at the end.
        let fused = IName::indexed("pe#inst", vec![ConstExpr::Param("i".into())]);
        assert_eq!(fused.mangle(&mut |e| e.eval(&env)).unwrap(), "pe_1#inst");
        // Unbound index propagates.
        let bad = IName::indexed("pe", vec![ConstExpr::Param("k".into())]);
        assert_eq!(
            bad.mangle(&mut |e| e.eval(&env)),
            Err(ConstEvalError::Unbound("k".into()))
        );
    }

    #[test]
    fn symbolic_time_offsets() {
        let t = Time::at("G", ConstExpr::Param("i".into()));
        assert_eq!(t.to_string(), "G+i");
        assert_eq!(t.offset_val(), None);
        // Closed arithmetic offsets count as concrete.
        let c = Time::at(
            "G",
            ConstExpr::Bin(
                ConstOp::Add,
                Box::new(ConstExpr::Lit(2)),
                Box::new(ConstExpr::Lit(3)),
            ),
        );
        assert_eq!(c.offset_val(), Some(5));
        assert_eq!(c.off(), 5);
        // plus() folds concrete offsets.
        assert_eq!(Time::new("G", 2).plus(3), Time::new("G", 5));
    }

    #[test]
    fn signature_queries() {
        let sig = Signature {
            name: "Reg".into(),
            params: vec![],
            events: vec![
                EventDecl {
                    name: "G".into(),
                    delay: Delay::Diff(Time::event("L"), Time::new("G", 1)),
                },
                EventDecl {
                    name: "L".into(),
                    delay: Delay::Const(1),
                },
            ],
            interfaces: vec![InterfaceDef {
                name: "en".into(),
                event: "G".into(),
            }],
            inputs: vec![PortDef::scalar("in", Range::cycle("G", 0), 32.into())],
            outputs: vec![PortDef::scalar(
                "out",
                Range::new(Time::new("G", 1), Time::event("L")),
                32.into(),
            )],
            constraints: vec![OrderConstraint {
                lhs: Time::event("L"),
                op: ConstraintOp::Gt,
                rhs: Time::new("G", 1),
            }],
        };
        assert!(sig.delay_of("G").is_some());
        assert!(sig.delay_of("Z").is_none());
        assert!(!sig.is_phantom("G"));
        assert!(sig.is_phantom("L"));
        assert!(sig.input("in").is_some());
        assert!(sig.output("out").is_some());
        assert!(sig.input("out").is_none());
        assert_eq!(sig.constraints[0].to_string(), "L > G+1");
    }

    #[test]
    fn inst_param_reads() {
        let e = ConstExpr::InstParam("enc".into(), "W".into());
        assert_eq!(e.to_string(), "enc.W");
        assert_eq!(e.params(), vec!["enc.W".to_owned()]);
        let mut env = HashMap::new();
        assert_eq!(e.eval(&env), Err(ConstEvalError::Unbound("enc.W".into())));
        env.insert(ConstExpr::inst_key("enc", "W"), 3u64);
        assert_eq!(e.eval(&env), Ok(3));
        assert_eq!(e.subst(&env), ConstExpr::Lit(3));
        // Unbound reads stay symbolic under substitution.
        let f = ConstExpr::InstParam("other".into(), "W".into());
        assert_eq!(f.subst(&env), f);
    }

    #[test]
    fn param_decl_display_and_queries() {
        let free = ParamDecl::free("N");
        assert_eq!(free.to_string(), "N");
        assert!(!free.is_derived());
        let derived =
            ParamDecl::derived("W", ConstExpr::Log2(Box::new(ConstExpr::Param("N".into()))));
        assert_eq!(derived.to_string(), "some W = log2(N)");
        assert!(derived.is_derived());
    }

    #[test]
    fn resolve_param_values_evaluates_and_verifies() {
        let sig = Signature {
            name: "Enc".into(),
            params: vec![
                ParamDecl::free("N"),
                ParamDecl::derived("W", ConstExpr::Log2(Box::new(ConstExpr::Param("N".into())))),
                ParamDecl::derived(
                    "D",
                    ConstExpr::bin(
                        ConstOp::Add,
                        ConstExpr::Param("W".into()),
                        ConstExpr::Lit(1),
                    ),
                ),
            ],
            events: vec![],
            interfaces: vec![],
            inputs: vec![],
            outputs: vec![],
            constraints: vec![],
        };
        assert_eq!(sig.free_param_count(), 1);
        assert!(sig.has_param("W") && !sig.has_param("Q"));
        // Free-length input: derivations (chained) are evaluated.
        assert_eq!(sig.resolve_param_values(&[8]), Ok(vec![8, 3, 4]));
        // Full-length input: verified pass-through.
        assert_eq!(sig.resolve_param_values(&[8, 3, 4]), Ok(vec![8, 3, 4]));
        assert_eq!(
            sig.resolve_param_values(&[8, 5, 6]),
            Err(ParamResolveError::Mismatch {
                param: "W".into(),
                want: 3,
                got: 5
            })
        );
        // Anything else is an arity error counted in free params.
        assert_eq!(
            sig.resolve_param_values(&[8, 3]),
            Err(ParamResolveError::Arity { want: 1, got: 2 })
        );
        // The symbolic form substitutes derivations for the checker.
        let exprs = sig.param_exprs(&[ConstExpr::Lit(8)]);
        assert_eq!(exprs["W"], ConstExpr::Lit(3));
        assert_eq!(exprs["D"], ConstExpr::Lit(4));
        let sym = sig.param_exprs(&[ConstExpr::Param("M".into())]);
        assert_eq!(sym["W"].to_string(), "log2(M)");
    }

    #[test]
    fn bundle_extent_and_display() {
        let b = Bundle::upto("i", ConstExpr::Param("N".into()));
        assert_eq!(b.to_string(), "[i: 0..N]");
        let mut env = HashMap::new();
        env.insert("N".to_owned(), 4u64);
        assert_eq!(b.extent(&env).unwrap(), 0..4);
        assert_eq!(
            b.extent(&HashMap::new()),
            Err(ConstEvalError::Unbound("N".into()))
        );
        let p = PortDef {
            name: "left".into(),
            liveness: Range::cycle("G", 0),
            width: ConstExpr::Param("W".into()),
            bundle: Some(b),
        };
        assert_eq!(p.element_name(2), "left_2");
    }

    #[test]
    fn bundle_port_refs_display() {
        let e = Port::Bundle {
            port: "left".into(),
            idx: ConstExpr::Param("i".into()),
        };
        assert_eq!(e.to_string(), "left[i]");
        let e = Port::InvBundle {
            invocation: "s".into(),
            port: "out".into(),
            idx: ConstExpr::Lit(3),
        };
        assert_eq!(e.to_string(), "s.out[3]");
    }

    #[test]
    fn cmp_op_semantics() {
        assert!(CmpOp::Eq.holds(3, 3) && !CmpOp::Eq.holds(3, 4));
        assert!(CmpOp::Ne.holds(3, 4) && !CmpOp::Ne.holds(3, 3));
        assert!(CmpOp::Lt.holds(1, 2) && !CmpOp::Lt.holds(2, 2));
        assert!(CmpOp::Le.holds(2, 2) && !CmpOp::Le.holds(3, 2));
        assert!(CmpOp::Gt.holds(2, 1) && !CmpOp::Gt.holds(2, 2));
        assert!(CmpOp::Ge.holds(2, 2) && !CmpOp::Ge.holds(1, 2));
        assert_eq!(CmpOp::Ne.to_string(), "!=");
    }

    #[test]
    fn program_lookup() {
        let mut p = Program::new();
        Arc::make_mut(&mut p.externs).push(Signature {
            name: "Add".into(),
            params: vec![],
            events: vec![],
            interfaces: vec![],
            inputs: vec![],
            outputs: vec![],
            constraints: vec![],
        });
        assert!(p.is_extern("Add"));
        assert!(p.sig("Add").is_some());
        assert!(p.component("Add").is_none());
        let mut q = Program::new();
        q.components.push(Component {
            sig: Signature {
                name: "Main".into(),
                params: vec![],
                events: vec![],
                interfaces: vec![],
                inputs: vec![],
                outputs: vec![],
                constraints: vec![],
            },
            body: vec![],
        });
        p.extend(q);
        assert!(p.component("Main").is_some());
        assert!(!p.is_extern("Main"));
    }
}
