//! The back end, pinned: Verilog emission and elaboration.
//!
//! `opt_corpus` pins only the `-O2` Verilog of each corpus design and its
//! cell count, so a change to elaboration that keeps the count but renames
//! a signal, reorders a table or rewires an assignment would pass it. This
//! suite records FNV-64 digests of `emit_program` and of the elaborated
//! netlist's signal, cell and assignment tables, in table order, for every
//! corpus design at `-O0` and `-O2` and for 500 seeded fuzz programs at
//! both levels. It also pins the full `Display` text of every elaboration
//! error kind on small hand-built programs.
//!
//! An intentional back-end change regenerates the digests:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p fil-harness --test backend_pinned
//! ```

use calyx_lite::{CalyxError, Component, Guard, PortRef, Program, Src};
use fil_bits::Value;
use fil_build::key::fnv64;
use fil_stdlib::BuildRequest;
use rtl_sim::{CellKind, Netlist};
use std::fmt::Write as _;
use std::path::PathBuf;

/// Seed of the first fuzz program; the suite builds `FUZZ_CASES` in a row.
const FUZZ_SEED: u64 = 0xbac4_0001;
const FUZZ_CASES: u64 = 500;

fn digest(s: &str) -> u64 {
    fnv64(&[s.as_bytes()])
}

/// The elaborated netlist's three tables, one entry per line, in order.
fn netlist_text(n: &Netlist) -> String {
    let mut out = String::new();
    for s in n.signals() {
        let _ = writeln!(out, "s {} {} {:?}", s.name, s.width, s.dir);
    }
    for c in n.cells() {
        let ids = |v: &[rtl_sim::SignalId]| -> Vec<usize> { v.iter().map(|s| s.index()).collect() };
        let _ = writeln!(
            out,
            "c {} {:?} {:?} {:?}",
            c.name,
            c.kind,
            ids(&c.inputs),
            ids(&c.outputs)
        );
    }
    for a in n.assigns() {
        let _ = writeln!(
            out,
            "a {} {} {:?}",
            a.dst.index(),
            a.src.index(),
            a.guard.map(|g| g.index())
        );
    }
    out
}

/// The lowered program of `src` at `level`, through `registry`.
fn lowered(
    name: &str,
    src: &str,
    level: u8,
    registry: &dyn filament_core::PrimitiveRegistry,
) -> Program {
    let req = BuildRequest::new(src)
        .lowered()
        .expanded(false)
        .opt_level(level);
    fil_stdlib::build_with_registry(&req, registry)
        .unwrap_or_else(|e| panic!("{name} -O{level}: {e}"))
        .lowered
        .expect("lowered was requested")
}

/// `(verilog, netlist tables)` of one lowered program.
fn backend_text(name: &str, p: &Program, top: &str) -> (String, String) {
    let netlist = p
        .elaborate(top)
        .unwrap_or_else(|e| panic!("{name}: elaboration failed: {e}"));
    (calyx_lite::emit_program(p), netlist_text(&netlist))
}

/// A hand-built program reaching what lowered Filament rarely does: every
/// primitive kind (so every pin name), every character the Verilog
/// emitter replaces, guards of zero to three ports, constant sources, and
/// two instances of one sub-component.
fn handmade() -> Program {
    use CellKind::*;
    let w = 4;
    let kinds = vec![
        Const {
            value: Value::from_u64(w, 9),
        },
        Add { width: w },
        Sub { width: w },
        MulComb { width: w },
        And { width: w },
        Or { width: w },
        Xor { width: w },
        Not { width: w },
        ShlDyn { width: w },
        ShrDyn { width: w },
        ShlConst {
            width: w,
            amount: 1,
        },
        ShrConst {
            width: w,
            amount: 2,
        },
        Eq { width: w },
        Lt { width: w },
        Ge { width: w },
        Mux { width: w },
        Slice {
            in_width: w,
            hi: 2,
            lo: 1,
        },
        Concat {
            hi_width: w,
            lo_width: 2,
        },
        ZeroExt {
            in_width: w,
            out_width: 6,
        },
        ReduceOr { width: w },
        ReduceAnd { width: w },
        Clz { width: w },
        SBox,
        Reg {
            width: w,
            init: 0,
            has_en: true,
        },
        Reg {
            width: w,
            init: 1,
            has_en: false,
        },
        MultSeq {
            width: w,
            latency: 2,
        },
        MultPipe {
            width: w,
            latency: 3,
        },
        Dsp48 {
            width: w,
            use_c: true,
            use_pcin: false,
        },
    ];
    let mut leaf = Component::new("Leaf<4>");
    leaf.add_input("in.x$[0]", w);
    leaf.add_input("go", 1);
    leaf.add_output("out<y>", w);
    for (i, kind) in kinds.into_iter().enumerate() {
        leaf.add_primitive(format!("c[{i}].k$"), kind);
    }
    leaf.add_primitive("fsm<G>", ShiftFsm { n: 12 });
    let c = |i: u32, port: &str| PortRef::cell(format!("c[{i}].k$"), port);
    leaf.assign(PortRef::cell("fsm<G>", "go"), Src::this("go"));
    leaf.assign(c(1, "left"), Src::this("in.x$[0]"));
    leaf.assign(c(1, "right"), Src::konst(Value::from_u64(w, 3)));
    leaf.assign_guarded(c(2, "left"), Src::port(c(0, "out")), Guard::Any(Vec::new()));
    leaf.assign_guarded(
        c(15, "in1"),
        Src::port(c(2, "out")),
        Guard::port(PortRef::cell("fsm<G>", "_0")),
    );
    leaf.assign_guarded(
        PortRef::this("out<y>"),
        Src::port(c(1, "out")),
        Guard::Any(vec![
            PortRef::this("go"),
            PortRef::cell("fsm<G>", "_11"),
            PortRef::cell("fsm<G>", "_3"),
        ]),
    );
    let mut top = Component::new("Top.v$1");
    top.add_input("a[0]", w);
    top.add_input("go", 1);
    top.add_output("o.p", w);
    top.add_subcomponent("l$0", "Leaf<4>");
    top.add_subcomponent("l[1]", "Leaf<4>");
    top.assign(PortRef::cell("l$0", "in.x$[0]"), Src::this("a[0]"));
    top.assign(PortRef::cell("l$0", "go"), Src::this("go"));
    top.assign(
        PortRef::cell("l[1]", "in.x$[0]"),
        Src::port(PortRef::cell("l$0", "out<y>")),
    );
    top.assign_guarded(
        PortRef::this("o.p"),
        Src::port(PortRef::cell("l[1]", "out<y>")),
        Guard::Any(vec![PortRef::this("go"), PortRef::cell("l$0", "go")]),
    );
    let mut p = Program::new();
    p.add_component(leaf);
    p.add_component(top);
    p
}

/// Hand-built programs that fail elaboration, one per error kind (and
/// per resolution site), each with the error's full text.
fn error_cases() -> Vec<(&'static str, Program, &'static str)> {
    let adder = || {
        let mut c = Component::new("Main");
        c.add_input("a", 8);
        c.add_input("g", 1);
        c.add_output("o", 8);
        c.add_primitive("add0", CellKind::Add { width: 8 });
        c
    };
    let program = |comps: Vec<Component>| {
        let mut p = Program::new();
        for c in comps {
            p.add_component(c);
        }
        p
    };
    let mut cases = Vec::new();

    cases.push(("unknown-top", program(vec![adder()]), "Nope"));

    let mut c = adder();
    c.add_subcomponent("sub0", "Missing");
    cases.push(("unknown-subcomponent", program(vec![c]), "Main"));

    let mut c = adder();
    c.assign(PortRef::cell("ghost", "in"), Src::this("a"));
    cases.push(("unknown-cell-dst", program(vec![c]), "Main"));

    let mut c = adder();
    c.assign(PortRef::this("o"), Src::port(PortRef::cell("ghost", "out")));
    cases.push(("unknown-cell-src", program(vec![c]), "Main"));

    let mut c = adder();
    c.assign_guarded(
        PortRef::this("o"),
        Src::port(PortRef::cell("add0", "out")),
        Guard::Any(vec![PortRef::this("g"), PortRef::cell("ghost", "go")]),
    );
    cases.push(("unknown-cell-guard", program(vec![c]), "Main"));

    let mut c = adder();
    c.assign(PortRef::cell("add0", "bogus"), Src::this("a"));
    cases.push(("unknown-port-cell", program(vec![c]), "Main"));

    let mut c = adder();
    c.assign(PortRef::cell("add0", "left"), Src::this("bogus"));
    cases.push(("unknown-port-this", program(vec![c]), "Main"));

    let mut inner = Component::new("Inner");
    inner.add_input("x", 4);
    inner.add_output("y", 4);
    inner.assign(PortRef::this("y"), Src::this("x"));
    let mut c = adder();
    c.add_subcomponent("i0", "Inner");
    c.assign(PortRef::cell("i0", "z"), Src::this("a"));
    cases.push((
        "unknown-port-subcomponent",
        program(vec![c, inner.clone()]),
        "Main",
    ));

    let mut c = adder();
    c.assign(PortRef::cell("add0", "left"), Src::this("g"));
    cases.push(("width-mismatch-port", program(vec![c]), "Main"));

    let mut c = adder();
    c.assign(
        PortRef::cell("add0", "left"),
        Src::konst(Value::from_u64(5, 3)),
    );
    cases.push(("width-mismatch-const", program(vec![c]), "Main"));

    let mut c = adder();
    c.add_subcomponent("i0", "Inner");
    c.assign(PortRef::cell("i0", "x"), Src::this("a"));
    cases.push((
        "width-mismatch-subcomponent",
        program(vec![c, inner.clone()]),
        "Main",
    ));

    let mut c = adder();
    c.assign_guarded(
        PortRef::this("o"),
        Src::port(PortRef::cell("add0", "out")),
        Guard::Any(vec![PortRef::this("g"), PortRef::this("a")]),
    );
    cases.push(("width-mismatch-guard", program(vec![c]), "Main"));

    let mut c = adder();
    c.add_subcomponent("me", "Main");
    cases.push(("recursive-self", program(vec![c]), "Main"));

    let mut a = Component::new("A");
    a.add_input("x", 1);
    a.add_subcomponent("b0", "B");
    let mut b = Component::new("B");
    b.add_input("x", 1);
    b.add_subcomponent("a0", "A");
    cases.push(("recursive-mutual", program(vec![a, b]), "A"));

    // The first failure wins: a child's error surfaces before the
    // parent's own assignments are resolved, and cells are visited in
    // declaration order.
    let mut bad_inner = inner.clone();
    bad_inner.assign(PortRef::this("y"), Src::this("w"));
    let mut c = adder();
    c.assign(PortRef::cell("ghost", "in"), Src::this("a"));
    c.add_subcomponent("i0", "Inner");
    cases.push(("child-before-parent", program(vec![c, bad_inner]), "Main"));

    let mut c = adder();
    c.add_subcomponent("me", "Main");
    c.add_subcomponent("sub0", "Missing");
    cases.push(("cells-in-order", program(vec![c]), "Main"));

    let mut c = adder();
    c.assign(PortRef::cell("add0", "left"), Src::this("g"));
    c.assign(PortRef::cell("ghost", "in"), Src::this("a"));
    cases.push(("assigns-in-order", program(vec![c]), "Main"));

    cases
}

fn render() -> String {
    let mut out = String::from(
        "# name  fnv64(emit_program)  fnv64(netlist signals, cells, assigns) — \
         pinned by tests/backend_pinned.rs\n",
    );
    for (name, src, top) in fil_designs::corpus() {
        for level in [0, 2] {
            // The Reticle registry is a superset of the standard one, so
            // it serves every corpus entry.
            let p = lowered(&name, &src, level, &reticle::ReticleRegistry);
            let (verilog, tables) = backend_text(&name, &p, top);
            let _ = writeln!(
                out,
                "corpus/{name}@O{level} {:016x} {:016x}",
                digest(&verilog),
                digest(&tables)
            );
        }
    }
    // One line per hundred fuzz programs and level, so a drift is
    // localized.
    for block in 0..FUZZ_CASES / 100 {
        for level in [0, 2] {
            let (mut verilog, mut tables) = (String::new(), String::new());
            for k in 0..100 {
                let case = fil_harness::fuzz::gen::generate(FUZZ_SEED + block * 100 + k);
                let name = format!("fuzz seed {}", case.seed);
                let p = lowered(&name, &case.source, level, &fil_stdlib::StdRegistry);
                let (v, t) = backend_text(&name, &p, fil_harness::fuzz::gen::TOP);
                verilog.push_str(&v);
                tables.push_str(&t);
            }
            let _ = writeln!(
                out,
                "fuzz/{}..{}@O{level} {:016x} {:016x}",
                block * 100,
                block * 100 + 100,
                digest(&verilog),
                digest(&tables)
            );
        }
    }
    let (verilog, tables) = backend_text("handmade", &handmade(), "Top.v$1");
    let _ = writeln!(
        out,
        "handmade {:016x} {:016x}",
        digest(&verilog),
        digest(&tables)
    );
    for (name, p, top) in error_cases() {
        let e: CalyxError = match p.elaborate(top) {
            Ok(_) => panic!("error/{name}: elaborated"),
            Err(e) => e,
        };
        let _ = writeln!(out, "error/{name} {e}");
    }
    out
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
        .join("backend_digests.txt")
}

#[test]
fn backend_output_matches_pinned_digests() {
    let got = render();
    let path = golden_path();
    if std::env::var_os("UPDATE_GOLDEN").is_some_and(|v| !v.is_empty() && v != "0") {
        std::fs::write(&path, &got).expect("write backend digests");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing {} ({e}); run UPDATE_GOLDEN=1 cargo test -p fil-harness --test \
             backend_pinned",
            path.display()
        )
    });
    let drift: Vec<String> = want
        .lines()
        .zip(got.lines())
        .filter(|(w, g)| w != g)
        .map(|(w, g)| format!("  want: {w}\n  got:  {g}"))
        .collect();
    assert!(
        drift.is_empty() && want.lines().count() == got.lines().count(),
        "back-end output drifted from {}:\n{}",
        path.display(),
        drift.join("\n")
    );
}
