//! Every diagnostic text, pinned byte for byte.
//!
//! Each case is one rejected program. Its golden line is the full
//! `Display` text of what each stage reports, so a reworded message, a
//! moved site label, or a changed token rendering fails here even where
//! the other suites only match a substring. The cases cover every site at
//! which the parser, `mono`, the checker and `lower` render a location
//! into a diagnostic.
//!
//! Two modes:
//!
//! * **pipeline** — the user source runs with the standard library twice:
//!   through the core passes in sequence (`mono::expand`, `check_program`,
//!   `lower_program` on `Main`), and through the build driver
//!   (`fil_stdlib::build`, which checks and lowers one unit at a time).
//!   Both outcomes are recorded.
//! * **raw** — the source alone, unexpanded, goes straight to
//!   `check_program` and `lower_program` (with the standard registry), to
//!   reach the checker's and lowering's residual-generate diagnostics.
//!
//! An intentional change regenerates the golden file:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p filament-core --test diagnostics_pinned
//! ```

use fil_stdlib::{BuildRequest, StdRegistry};
use filament_core::{check_program, lower_program, mono, parse_program, CheckError, Program};
use std::fmt::Write as _;
use std::path::PathBuf;

#[derive(Clone, Copy)]
enum Mode {
    Pipeline,
    Raw,
}

const CASES: &[(&str, Mode, &str)] = &[
    // ------------------------------------------------------------- parse
    (
        "parse.where-operator",
        Mode::Raw,
        "extern comp X<G: 1, L: 1>(@[G, G+1] a: 8) -> (@[L, L+1] o: 8) where L < G;",
    ),
    (
        "parse.where-operator-ident",
        Mode::Raw,
        "extern comp X<G: 1, L: 1>(@[G, G+1] a: 8) -> (@[L, L+1] o: 8) where L foo G;",
    ),
    (
        "parse.if-operator",
        Mode::Raw,
        "comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 8) {
           if 1 + 2 { o = x; }
         }",
    ),
    (
        "parse.if-operator-eof",
        Mode::Raw,
        "comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 8) { if 1",
    ),
    (
        "parse.expected-identifier",
        Mode::Raw,
        "comp Main<G: 1>(@[G, G+1] 7: 8) -> (@[G, G+1] o: 8) { o = x; }",
    ),
    (
        "parse.expected-const",
        Mode::Raw,
        "comp Main<G: 1>(@[G, G+1] x: ;) -> (@[G, G+1] o: 8) { o = x; }",
    ),
    ("parse.top-level", Mode::Raw, "wire x;"),
    (
        "parse.indexed-connect",
        Mode::Raw,
        "comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 8) { a[1][2] = x; }",
    ),
    // ------------------------------------------------------ check: body
    (
        "check.availability.argument",
        Mode::Pipeline,
        "comp Main<G: 1>(@interface[G] go: 1, @[G, G+1] x: 8) -> (@[G+1, G+2] o: 8) {
           d := new Delay[8]<G>(x);
           a := new Add[8]<G+1>(d.out, x);
           o = a.out;
         }",
    ),
    (
        "check.availability.connect",
        Mode::Pipeline,
        "comp Main<G: 1>(@interface[G] go: 1, @[G, G+1] x: 8) -> (@[G+1, G+2] o: 8) {
           o = x;
         }",
    ),
    (
        "check.width.argument",
        Mode::Pipeline,
        "comp Main<G: 1>(@[G, G+1] x: 8, @[G, G+1] y: 4) -> (@[G, G+1] o: 8) {
           a := new Add[8]<G>(x, y);
           o = a.out;
         }",
    ),
    (
        "check.width.connect",
        Mode::Pipeline,
        "comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 16) {
           o = x;
         }",
    ),
    (
        "check.literal.argument",
        Mode::Pipeline,
        "comp Main<G: 1>(@[G, G+1] x: 4) -> (@[G, G+1] o: 4) {
           a := new Add[4]<G>(x, 300);
           o = a.out;
         }",
    ),
    (
        "check.literal.connect",
        Mode::Pipeline,
        "comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 8) {
           o = 300;
         }",
    ),
    (
        "check.unknown-port.argument",
        Mode::Pipeline,
        "comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 8) {
           a := new Add[8]<G>(x, nope);
           o = a.out;
         }",
    ),
    (
        "check.unknown-port.connect",
        Mode::Pipeline,
        "comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 8) {
           o = nope;
         }",
    ),
    (
        "check.output-port-read",
        Mode::Pipeline,
        "comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 8, @[G, G+1] p: 8) {
           p = x;
           o = p;
         }",
    ),
    (
        "check.unknown-invocation",
        Mode::Pipeline,
        "comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 8) {
           o = zz.out;
         }",
    ),
    (
        "check.no-output-port",
        Mode::Pipeline,
        "comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 8) {
           a := new Add[8]<G>(x, x);
           o = a.nope;
         }",
    ),
    (
        "check.output-port-argument",
        Mode::Pipeline,
        "comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 8) {
           a := new Add[8]<G>(x, o);
           o = a.out;
         }",
    ),
    (
        "check.connect-target",
        Mode::Pipeline,
        "comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 8) {
           a := new Add[8]<G>(x, x);
           o = a.out;
           a.out = x;
           x = x;
         }",
    ),
    // The checker walks invocations and instances in hash order in its
    // pipelining and conflict passes, so each of these cases raises at
    // most one diagnostic there.
    (
        "check.unknown-instance",
        Mode::Pipeline,
        "comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 8) {
           c := q<G>(x);
           o = x;
         }",
    ),
    (
        "check.pipelining",
        Mode::Pipeline,
        "comp Main<G: 1>(@interface[G] go: 1, @[G, G+1] x: 8) -> (@[G+2, G+3] o: 8) {
           a := new Mult[8]<G>(x, x);
           o = a.out;
         }",
    ),
    (
        "check.instance-conflict",
        Mode::Pipeline,
        "comp Main<G: 10>(@interface[G] go: 1, @[G, G+2] x: 8) -> (@[G+3, G+4] o: 8) {
           m := new Mult[8];
           a := m<G>(x, x);
           b := m<G+1>(x, x);
           o = b.out;
         }",
    ),
    (
        "check.shared-conflicts-in-body-order",
        Mode::Pipeline,
        "comp Main<G: 1>(@interface[G] go: 1, @[G, G+1] x: 8) -> (@[G, G+1] o: 8) {
           m0 := new MultComb[8];
           m1 := new MultComb[8];
           m2 := new MultComb[8];
           m3 := new MultComb[8];
           a0 := m0<G>(x, x);
           b0 := m0<G>(x, x);
           a1 := m1<G>(x, x);
           b1 := m1<G>(x, x);
           a2 := m2<G>(x, x);
           b2 := m2<G>(x, x);
           a3 := m3<G>(x, x);
           b3 := m3<G>(x, x);
           o = a0.out;
         }",
    ),
    // Offsets are u64; their differences must not wrap. This program and
    // its `+13` twin are rejected alike.
    (
        "check.offset-beyond-i64",
        Mode::Pipeline,
        "comp Main<G: 9223372036854775807>(@interface[G] go: 1, \
         @[G+9223372036854775813, G+3] x: 8) -> (@[G, G+1] o: 8) { o = x; }",
    ),
    (
        "check.offset-beyond-i64.twin",
        Mode::Pipeline,
        "comp Main<G: 9223372036854775807>(@interface[G] go: 1, @[G+13, G+3] x: 8) \
         -> (@[G, G+1] o: 8) { o = x; }",
    ),
    // A schedule whose callee times pass the last u64 cycle.
    (
        "check.schedule-overflow",
        Mode::Pipeline,
        "comp Main<G: 1>(@interface[G] go: 1, @[G, G+1] x: 8) -> (@[G, G+1] o: 8) {
           a := new Add[8]<G+18446744073709551615>(x, x);
           o = x;
         }",
    ),
    (
        "check.schedule-overflow.raw",
        Mode::Raw,
        "extern comp Add[W]<G: 1>(@[G, G+1] left: W, @[G, G+1] right: W) -> (@[G, G+1] out: W);
         comp Main<G: 1>(@interface[G] go: 1, @[G, G+1] x: 8) -> (@[G, G+1] o: 8) {
           a := new Add[8]<G+18446744073709551615>(x, x);
           o = x;
         }",
    ),
    // ------------------------------------------------- check: signatures
    (
        "check.unknown-event.port",
        Mode::Pipeline,
        "comp Main<G: 1>(@[H, H+1] x: 8) -> (@[G, G+1] o: 8) {
           o = x;
         }",
    ),
    (
        "check.unknown-event.delay",
        Mode::Pipeline,
        "extern comp XDelay<G: H-(G)>(@[G, G+1] a: 8) -> (@[G, G+1] o: 8);
         comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 8) {
           o = x;
         }",
    ),
    (
        "check.unknown-event.where",
        Mode::Pipeline,
        "extern comp XWhere<G: 1>(@[G, G+1] a: 8) -> (@[G, G+1] o: 8) where H > G;
         comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 8) {
           o = x;
         }",
    ),
    (
        "check.unknown-event.interface",
        Mode::Pipeline,
        "comp Main<G: 1>(@interface[H] go: 1, @[G, G+1] x: 8) -> (@[G, G+1] o: 8) {
           o = x;
         }",
    ),
    (
        "check.symbolic.port",
        Mode::Raw,
        "comp Main[N]<G: 1>(@[G, G+N] x: 8) -> (@[G, G+1] o: 8) {
           o = x;
         }",
    ),
    (
        "check.symbolic.delay",
        Mode::Raw,
        "extern comp XD[N]<G: G+N-(G)>(@[G, G+1] a: 8) -> (@[G, G+1] o: 8);",
    ),
    (
        "check.symbolic.where",
        Mode::Raw,
        "extern comp XC[N]<G: 1, L: 1>(@[G, G+1] a: 8) -> (@[L, L+1] o: 8) where L > G+N;",
    ),
    (
        "check.symbolic.schedule",
        Mode::Raw,
        "extern comp Add[W]<G: 1>(@[G, G+1] left: W, @[G, G+1] right: W) -> (@[G, G+1] out: W);
         comp Main[N]<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 8) {
           a := new Add[8]<G+N>(x, x);
           o = a.out;
         }",
    ),
    (
        "check.symbolic.callee",
        Mode::Raw,
        "comp Inner[N]<G: 1>(@[G, G+N] x: 8) -> (@[G, G+1] o: 8) {
           o = x;
         }
         comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 8) {
           i := new Inner[2]<G>(x);
           o = i.o;
         }",
    ),
    (
        "check.symbolic.generate",
        Mode::Raw,
        "extern comp Add[W]<G: 1>(@[G, G+1] left: W, @[G, G+1] right: W) -> (@[G, G+1] out: W);
         comp Main[N]<G: 1>(@[G, G+1] x[i: 2]: 8) -> (@[G, G+1] o: 8) {
           for i in 0..N {
             a[i] := new Add[8]<G>(x[i], x[i]);
           }
           if N > 1 { o = x[1]; }
           o = a[0].out;
         }",
    ),
    // ---------------------------------------------------------------- mono
    (
        "mono.liveness",
        Mode::Pipeline,
        "comp Main<G: 1>(@[G, G+X] x: 8) -> (@[G, G+1] o: 8) {
           o = x;
         }",
    ),
    (
        "mono.width",
        Mode::Pipeline,
        "comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: X) {
           o = x;
         }",
    ),
    (
        "mono.index-range",
        Mode::Pipeline,
        "comp Main<G: 1>(@[G, G+1] x[i: X]: 8) -> (@[G, G+1] o: 8) {
           o = x[0];
         }",
    ),
    (
        "mono.bundle.empty",
        Mode::Pipeline,
        "comp B[N]<G: 1>(@[G, G+1] x[i: N]: 8) -> (@[G, G+1] o: 8) {
           o = x[0];
         }
         comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 8) {
           b := new B[0]<G>(x);
           o = b.o;
         }",
    ),
    (
        "mono.bundle.too-large",
        Mode::Pipeline,
        "comp B[N]<G: 1>(@[G, G+1] x[i: N]: 8) -> (@[G, G+1] o: 8) {
           o = x[0];
         }
         comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 8) {
           b := new B[70000]<G>(x);
           o = b.o;
         }",
    ),
    (
        "mono.delay",
        Mode::Pipeline,
        "comp Main<G: G+X-(G)>(@[G, G+1] x: 8) -> (@[G, G+1] o: 8) {
           o = x;
         }",
    ),
    (
        "mono.where",
        Mode::Pipeline,
        "comp Main<G: 1, L: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 8) where L > G+X {
           o = x;
         }",
    ),
    (
        "mono.index-of-name",
        Mode::Pipeline,
        "comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 8) {
           a[X] := new Add[8]<G>(x, x);
           o = x;
         }",
    ),
    (
        "mono.index-of-bundle-element",
        Mode::Pipeline,
        "comp Main<G: 1>(@[G, G+1] x[i: 4]: 8) -> (@[G, G+1] o: 8) {
           o = x[X];
         }",
    ),
    (
        "mono.bundle-element-range",
        Mode::Pipeline,
        "comp Main<G: 1>(@[G, G+1] x[i: 4]: 8) -> (@[G, G+1] o: 8) {
           o = x[5];
         }",
    ),
    (
        "mono.index-of-invocation-bundle",
        Mode::Pipeline,
        "comp Fan<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] y[i: 3]: 8) {
           for i in 0..3 { y[i] = x; }
         }
         comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 8) {
           f := new Fan<G>(x);
           o = f.y[X];
         }",
    ),
    (
        "mono.invocation-bundle-range",
        Mode::Pipeline,
        "comp Fan<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] y[i: 3]: 8) {
           for i in 0..3 { y[i] = x; }
         }
         comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 8) {
           f := new Fan<G>(x);
           o = f.y[7];
         }",
    ),
    (
        "mono.bundle-argument.not-a-bundle",
        Mode::Pipeline,
        "comp C[N]<G: 1>(@[G, G+1] a[i: N]: 8) -> (@[G, G+1] o: 8) {
           o = a[0];
         }
         comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 8) {
           c := new C[2]<G>(x);
           o = c.o;
         }",
    ),
    (
        "mono.bundle-argument.extent",
        Mode::Pipeline,
        "comp C[N]<G: 1>(@[G, G+1] a[i: N]: 8) -> (@[G, G+1] o: 8) {
           o = a[0];
         }
         comp Main<G: 1>(@[G, G+1] xs[i: 3]: 8) -> (@[G, G+1] o: 8) {
           c := new C[2]<G>(xs);
           o = c.o;
         }",
    ),
    (
        "mono.bundle-argument.not-an-output-bundle",
        Mode::Pipeline,
        "comp C[N]<G: 1>(@[G, G+1] a[i: N]: 8) -> (@[G, G+1] o: 8) {
           o = a[0];
         }
         comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G+1, G+2] o: 8) {
           d := new Delay[8]<G>(x);
           c := new C[2]<G+1>(d.out);
           o = c.o;
         }",
    ),
    (
        "mono.bundle-argument.output-extent",
        Mode::Pipeline,
        "comp Fan<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] y[i: 3]: 8) {
           for i in 0..3 { y[i] = x; }
         }
         comp C[N]<G: 1>(@[G, G+1] a[i: N]: 8) -> (@[G, G+1] o: 8) {
           o = a[0];
         }
         comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 8) {
           f := new Fan<G>(x);
           c := new C[2]<G>(f.y);
           o = c.o;
         }",
    ),
    (
        "mono.bundle-argument.literal",
        Mode::Pipeline,
        "comp C[N]<G: 1>(@[G, G+1] a[i: N]: 8) -> (@[G, G+1] o: 8) {
           o = a[0];
         }
         comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 8) {
           c := new C[2]<G>(5);
           o = c.o;
         }",
    ),
    (
        "mono.instance-parameter",
        Mode::Pipeline,
        "comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 8) {
           a := new Add[X]<G>(x, x);
           o = a.out;
         }",
    ),
    (
        "mono.schedule",
        Mode::Pipeline,
        "comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 8) {
           a := new Add[8]<G+X>(x, x);
           o = a.out;
         }",
    ),
    (
        "mono.loop-lower-bound",
        Mode::Pipeline,
        "comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 8) {
           for i in X..2 { }
           o = x;
         }",
    ),
    (
        "mono.loop-upper-bound",
        Mode::Pipeline,
        "comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 8) {
           for i in 0..X { }
           o = x;
         }",
    ),
    (
        "mono.if-condition",
        Mode::Pipeline,
        "comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 8) {
           if X == 1 { }
           o = x;
         }",
    ),
    (
        "mono.derived-parameter",
        Mode::Pipeline,
        "comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 8) {
           s := new Slice[8, 2, 5]<G>(x);
           o = x;
         }",
    ),
    (
        "mono.extern-bundle",
        Mode::Pipeline,
        "extern comp XB<G: 1>(@[G, G+1] a[i: 2]: 8) -> (@[G, G+1] o: 8);
         comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 8) {
           o = x;
         }",
    ),
    // --------------------------------------------------------------- lower
    (
        "lower.width-of-port",
        Mode::Raw,
        "comp Main[W]<G: 1>(@interface[G] go: 1, @[G, G+1] x: W) -> (@[G, G+1] o: W) {
           o = x;
         }",
    ),
    (
        "lower.parameter-of-instance",
        Mode::Raw,
        "extern comp Add[W]<G: 1>(@[G, G+1] left: W, @[G, G+1] right: W) -> (@[G, G+1] out: W);
         comp Main[W]<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 8) {
           a := new Add[W]<G>(x, x);
           o = a.out;
         }",
    ),
    (
        "lower.parameters-of-instance",
        Mode::Raw,
        "extern comp Slice[W, HI, LO, some OW = HI - LO + 1]<G: 1>(@[G, G+1] in: W)
             -> (@[G, G+1] out: OW);
         comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 8) {
           s := new Slice[8, 2, 5]<G>(x);
           o = x;
         }",
    ),
    (
        "lower.schedule",
        Mode::Raw,
        "extern comp Register[W]<G: L-(G+1), L: 1>(@interface[G] en: 1,
             @[G, G+1] in: W) -> (@[G+1, L] out: W) where L > G+1;
         comp Main[N]<G: 3>(@interface[G] go: 1, @[G, G+1] x: 8) -> (@[G+1, G+2] o: 8) {
           r := new Register[8]<G+N, G+2>(x);
           o = r.out;
         }",
    ),
    (
        "lower.requirement-end",
        Mode::Raw,
        "extern comp Delay[W]<G: 1>(@[G, G+1] in: W) -> (@[G+1, G+2] out: W);
         comp Main[N]<G: 1>(@interface[G] go: 1, @[G, G+1] x: 8) -> (@[G+1, G+2] o: 8) {
           d := new Delay[8]<G+N>(x);
           o = d.out;
         }",
    ),
    (
        "lower.requirement-start",
        Mode::Raw,
        "comp Two<G: 1, H: 1>(@[G, H] a: 8) -> (@[H, H+1] o: 8) {
           o = a;
         }
         comp Main[N]<G: 1>(@interface[G] go: 1, @[G, G+1] x: 8) -> (@[G+1, G+2] o: 8) {
           t := new Two<G+N, G+1>(x);
           o = t.o;
         }",
    ),
    (
        "lower.width-of-argument",
        Mode::Raw,
        "extern comp Add[W]<G: 1>(@[G, G+1] left: W, @[G, G+1] right: Q) -> (@[G, G+1] out: W);
         comp Main<G: 1>(@interface[G] go: 1, @[G, G+1] x: 8) -> (@[G, G+1] o: 8) {
           a := new Add[8]<G>(x, x);
           o = a.out;
         }",
    ),
    (
        "lower.unelaborated",
        Mode::Raw,
        "extern comp Add[W]<G: 1>(@[G, G+1] left: W, @[G, G+1] right: W) -> (@[G, G+1] out: W);
         comp Main<G: 1>(@interface[G] go: 1, @[G, G+1] x: 8) -> (@[G, G+1] o: 8) {
           for i in 0..2 {
             a[i] := new Add[8]<G>(x, x);
           }
           o = x;
         }",
    ),
    (
        "lower.fsm-state-count",
        Mode::Pipeline,
        "comp Main<G: 4294967299>(@interface[G] go: 1, @[G+4294967296, G+4294967297] x: 32)
             -> (@[G+4294967297, G+4294967298] o: 32) {
           r := new Register[32]<G+4294967296, G+4294967298>(x);
           o = r.out;
         }",
    ),
    (
        "lower.port-width",
        Mode::Pipeline,
        "comp Main<G: 1>(@[G, G+1] a: 4294967304) -> (@[G, G+1] o: 4294967304) {
           o = a;
         }",
    ),
];

/// The joined `Display` text of a check failure.
fn check_text(errs: &[CheckError]) -> String {
    errs.iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(" || ")
}

/// The outcome of the core passes in sequence, with the standard library.
fn core_outcome(program: &Program) -> String {
    let expanded = match mono::expand(program) {
        Ok(p) => p,
        Err(e) => return format!("expand: {e}"),
    };
    if let Err(errs) = check_program(&expanded) {
        return format!("check: {}", check_text(&errs));
    }
    match lower_program(&expanded, "Main", &StdRegistry) {
        Ok(_) => "ok".into(),
        Err(e) => format!("lower: {e}"),
    }
}

fn render(label: &str, mode: Mode, src: &str, out: &mut String) {
    match mode {
        Mode::Pipeline => {
            let user = match parse_program(src) {
                Ok(p) => p,
                Err(e) => {
                    let _ = writeln!(out, "{label} parse: {e}");
                    return;
                }
            };
            let mut program = fil_stdlib::std_program();
            program.extend(user);
            let _ = writeln!(out, "{label} core: {}", core_outcome(&program));
            let build = match fil_stdlib::build(&BuildRequest::new(src).verilog()) {
                Ok(_) => "ok".to_owned(),
                Err(e) => e.to_string().replace('\n', " || "),
            };
            let _ = writeln!(out, "{label} build: {build}");
        }
        Mode::Raw => {
            let program = match parse_program(src) {
                Ok(p) => p,
                Err(e) => {
                    let _ = writeln!(out, "{label} parse: {e}");
                    return;
                }
            };
            let check = match check_program(&program) {
                Ok(()) => "ok".to_owned(),
                Err(errs) => check_text(&errs),
            };
            let _ = writeln!(out, "{label} raw-check: {check}");
            let lower = match lower_program(&program, "Main", &StdRegistry) {
                Ok(_) => "ok".to_owned(),
                Err(e) => e.to_string(),
            };
            let _ = writeln!(out, "{label} raw-lower: {lower}");
        }
    }
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("diagnostics.txt")
}

#[test]
fn every_diagnostic_matches_its_pinned_text() {
    let mut got = String::new();
    for &(label, mode, src) in CASES {
        render(label, mode, src, &mut got);
    }
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some_and(|v| !v.is_empty() && v != "0") {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("create golden dir");
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing {} ({e}); run UPDATE_GOLDEN=1 cargo test -p filament-core --test \
             diagnostics_pinned",
            path.display()
        )
    });
    let mismatches: Vec<String> = want
        .lines()
        .zip(got.lines())
        .filter(|(w, g)| w != g)
        .map(|(w, g)| format!("  want: {w}\n  got:  {g}"))
        .collect();
    assert!(
        mismatches.is_empty() && want.lines().count() == got.lines().count(),
        "diagnostics drifted from {} ({} vs {} lines):\n{}",
        path.display(),
        want.lines().count(),
        got.lines().count(),
        mismatches.join("\n")
    );
}

/// Every case is rejected somewhere: a case that compiles cleanly pins
/// nothing.
#[test]
fn every_case_is_rejected() {
    for &(label, mode, src) in CASES {
        let mut out = String::new();
        render(label, mode, src, &mut out);
        assert!(
            out.lines().any(|l| !l.ends_with(": ok")),
            "{label} is accepted by every stage:\n{out}"
        );
    }
}
