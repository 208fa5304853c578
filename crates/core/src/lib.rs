//! Filament: an HDL with timeline types, reproduced from
//! *Modular Hardware Design with Timeline Types* (PLDI 2023).
//!
//! Filament interfaces carry *timeline types*: every port is annotated with
//! an **availability interval** over symbolic **events** (`@[G, G+1]`), and
//! every event carries a **delay** (`<G: 1>`) — the initiation interval after
//! which the enclosing pipeline may be re-triggered. The type system
//! statically guarantees the paper's two fundamental properties (Section 4):
//!
//! 1. **Valid reads** — values are only read during the cycles when they are
//!    semantically valid, and
//! 2. **Conflict-free writes** — physical resources are never used by two
//!    computations in the same cycle, *even across pipelined executions*.
//!
//! This crate contains the complete language pipeline:
//!
//! | Module | Paper section | Contents |
//! |--------|---------------|----------|
//! | [`ast`] | §3, §6 (Fig 7a) | components, events, intervals, invocations, const exprs |
//! | [`parser`] | §3 | lexer + recursive-descent parser for the surface syntax |
//! | [`mono`] | §3.3 | parameter arithmetic, `for`-generate unrolling, monomorphization |
//! | [`check`] | §4, App A.3 | bind / interval / delay / safe-pipelining / phantom checks |
//! | [`sem`] | §6, App A | log-based semantics, Def 6.1/6.2, soundness testing |
//! | [`lower`] | §5 | Low Filament, FSM generation, guard synthesis, Calyx emission |
//!
//! # The generate sublanguage
//!
//! Components are *generators*: const parameters (`comp Systolic[N, W]`)
//! appear in arbitrary arithmetic (`+ - * / %`, `pow2`, `log2`) wherever a
//! width or parameter is expected, and `for i in lo..hi { ... }` repeats
//! instantiations/invocations/connections with the loop variable usable in
//! parameter positions, name indices (`pe[i][j]`), and time offsets
//! (`<G+i>`). The [`mono`] stage elaborates a parametric program into a
//! concrete one — resolving the arithmetic, unrolling the loops, and
//! instantiating each `(component, params)` pair exactly once — after which
//! checking and lowering run unchanged:
//!
//! ## Bundle ports
//!
//! A signature port may be a *bundle* — a length-indexed family of ports
//! whose width and availability interval can mention the index:
//!
//! ```text
//! comp Systolic[N, W]<G: 1>(@[G, G+1] left[i: 0..N]: W, ...)
//!     -> (@[G, G+1] out[k: 0..N*N]: W) { ... }
//! comp Chain[W, D]<G: 1>(...) -> (@[G+(k+1), G+(k+2)] tap[k: 0..D]: W) { ... }
//! ```
//!
//! `name[i: N]` abbreviates `name[i: 0..N]`. Bodies read one element with
//! `left[e]` (or `inv.out[e]` for a callee's bundle output), drive output
//! elements with `out[e] = ...`, and pass a *whole* bundle to a callee's
//! bundle input by its bare name. [`mono::expand`] flattens a bundle of
//! extent `lo..hi` into concrete ports `name_lo .. name_{hi-1}` — the
//! interface of a parametric component scales with its parameters instead
//! of being packed into one wide bus and sliced apart by hand. Bundle shape
//! is validated symbolically by the checker ([`check`]) before elaboration:
//! index binders must not shadow parameters, bounds may only mention
//! component parameters, and closed ranges get a per-index non-empty
//! interval check.
//!
//! ## `if`-generate
//!
//! `if l op r { ... } else { ... }` (with `op` one of `== != < <= > >=`
//! over const expressions) is a compile-time conditional: [`mono::expand`]
//! evaluates the condition and keeps exactly one arm, so the arms may
//! instantiate different components — the idiom for edge cases in generate
//! loops (`if j == 0 { /* chain entry */ } else { /* register */ }`).
//!
//! ## Derived (existential) parameters
//!
//! A signature may bind parameters by *equation* over earlier ones —
//! `comp Enc[N, some W = log2(N)]` — and use them anywhere a parameter is
//! legal (widths, intervals, bundle ranges). Callers never supply a
//! derived parameter; they read it back through the instance name
//! (`new Delay[e.W]`, `for k in 0..s.NN`), so clients typecheck against
//! the interface equation without seeing the body. Derivations may chain
//! but may only reference *earlier* parameters (validated symbolically by
//! [`check`]; cycles are impossible by construction); [`mono::expand`]
//! evaluates each derivation at instantiation time and feeds the result
//! into the monomorphization cache key. Externs declare them too — the
//! standard library's `Slice[W, HI, LO, some OW = HI - LO + 1]` derives
//! its output width instead of trusting the caller to supply it.
//!
//! # The `filament` CLI
//!
//! The `fil-harness` crate ships the compiler driver binary:
//!
//! | Subcommand | Meaning |
//! |---|---|
//! | `filament check <f.fil>` | parse + elaborate + type-check against the stdlib |
//! | `filament expand <f.fil>` | run [`mono::expand`] and print the concrete program (loops unrolled, `if`s resolved, bundles flattened, derivations evaluated, monomorph names like `Chain_8_4`) |
//! | `filament expand --stats <f.fil>` | print [`MonoStats`] as JSON instead of the program |
//! | `filament interface <f.fil> <comp>` | print a component's harness-facing timing interface |
//! | `filament compile <f.fil> <comp>` | lower to Calyx-lite and emit structural Verilog |
//! | `filament build <f.fil> [--cache-dir D] [--jobs N]` | incremental whole-program build through the `fil-build` driver: per-component compile units over a worker pool, artifacts cached across sessions (a warm cache does zero expand/check/lower work), deterministic Verilog out |
//! | `filament fmt <f.fil>` | parse-only pretty-print; idempotent over any valid source (CI pins this as a fixpoint gate, alongside golden `expand` snapshots of the design corpus) |
//!
//! ```
//! use filament_core::{check_program, mono, parse_program};
//!
//! let program = parse_program(
//!     "extern comp Delay[W]<G: 1>(@[G, G+1] in: W) -> (@[G+1, G+2] out: W);
//!
//!      // A depth-D delay line: stage i runs at G+i.
//!      comp Chain[W, D]<G: 1>(@[G, G+1] in: W) -> (@[G+D, G+(D+1)] out: W) {
//!        s[0] := new Delay[W]<G>(in);
//!        for i in 1..D {
//!          s[i] := new Delay[W]<G+i>(s[i-1].out);
//!        }
//!        out = s[D-1].out;
//!      }
//!
//!      comp Main<G: 1>(@[G, G+1] x: 16) -> (@[G+4, G+5] o: 16) {
//!        c := new Chain[16, 4]<G>(x);
//!        o = c.out;
//!      }",
//! )?;
//! let expanded = mono::expand(&program)?;
//! assert!(expanded.component("Chain_16_4").is_some());
//! check_program(&expanded).map_err(|e| format!("{e:?}"))?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Examples
//!
//! Type-checking the paper's Section 2 ALU (the *buggy* version, which reads
//! the multiplier's output two cycles before it exists):
//!
//! ```
//! use filament_core::{check_program, parse_program};
//!
//! let src = r#"
//! extern comp Add<T: 1>(@interface[T] go: 1, @[T, T+1] left: 32,
//!     @[T, T+1] right: 32) -> (@[T, T+1] out: 32);
//! extern comp Mult<T: 3>(@interface[T] go: 1, @[T, T+1] left: 32,
//!     @[T, T+1] right: 32) -> (@[T+2, T+3] out: 32);
//! extern comp Mux<T: 1>(@interface[T] go: 1, @[T, T+1] sel: 1,
//!     @[T, T+1] in0: 32, @[T, T+1] in1: 32) -> (@[T, T+1] out: 32);
//!
//! comp ALU<G: 3>(@interface[G] en: 1, @[G, G+1] op: 1, @[G, G+1] l: 32,
//!     @[G, G+1] r: 32) -> (@[G, G+1] o: 32) {
//!   A := new Add; M := new Mult; Mx := new Mux;
//!   a0 := A<G>(l, r);
//!   m0 := M<G>(l, r);
//!   mux := Mx<G>(op, m0.out, a0.out);
//!   o = mux.out;
//! }
//! "#;
//! let program = parse_program(src)?;
//! let errors = check_program(&program).unwrap_err();
//! // Filament reports: m0.out is available [G+2, G+3) but required [G, G+1).
//! assert!(errors.iter().any(|e| e.to_string().contains("available")));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// Widths, state counts and length prefixes come from user input: narrowing
// one must go through `u32::try_from` and fail with a diagnostic, or state
// the invariant that bounds it, never wrap.
#![deny(clippy::cast_possible_truncation)]

pub mod ast;
pub mod check;
pub mod lower;
pub mod mono;
pub mod parser;
pub mod pretty;
pub mod sem;

pub use ast::{Component, ParamDecl, Program, Signature};
pub use check::{check_component, check_program, CheckError};
pub use lower::{
    lower_component_unit, lower_program, param_u32, LoweredUnit, ParamTooLarge, PrimitiveRegistry,
};
pub use mono::{
    elaborate_component, elaborate_signature, expand, expand_with_stats, MonoError, MonoStats,
    ProgramIndex,
};
pub use parser::{parse_program, ParseError};
pub use sem::{component_log, safe_pipelining_horizon, Log, LogViolation};
