//! Every identifier the Verilog emitter declares is a legal simple
//! identifier (`[A-Za-z_][A-Za-z0-9_$]*`, not a keyword), declared once in
//! its module, for every corpus design and 500 fuzz programs at `-O0` and
//! `-O2`.

use fil_stdlib::BuildRequest;
use std::collections::HashSet;

/// Seed of the first fuzz program; the suite builds `FUZZ_CASES` in a row.
const FUZZ_SEED: u64 = 0x1de7_0001;
const FUZZ_CASES: u64 = 500;

/// Verilog-2005's reserved words.
const KEYWORDS: &[&str] = &[
    "always",
    "and",
    "assign",
    "automatic",
    "begin",
    "buf",
    "bufif0",
    "bufif1",
    "case",
    "casex",
    "casez",
    "cell",
    "cmos",
    "config",
    "deassign",
    "default",
    "defparam",
    "design",
    "disable",
    "edge",
    "else",
    "end",
    "endcase",
    "endconfig",
    "endfunction",
    "endgenerate",
    "endmodule",
    "endprimitive",
    "endspecify",
    "endtable",
    "endtask",
    "event",
    "for",
    "force",
    "forever",
    "fork",
    "function",
    "generate",
    "genvar",
    "highz0",
    "highz1",
    "if",
    "ifnone",
    "incdir",
    "include",
    "initial",
    "inout",
    "input",
    "instance",
    "integer",
    "join",
    "large",
    "liblist",
    "library",
    "localparam",
    "macromodule",
    "medium",
    "module",
    "nand",
    "negedge",
    "nmos",
    "nor",
    "noshowcancelled",
    "not",
    "notif0",
    "notif1",
    "or",
    "output",
    "parameter",
    "pmos",
    "posedge",
    "primitive",
    "pull0",
    "pull1",
    "pulldown",
    "pullup",
    "pulsestyle_ondetect",
    "pulsestyle_onevent",
    "rcmos",
    "real",
    "realtime",
    "reg",
    "release",
    "repeat",
    "rnmos",
    "rpmos",
    "rtran",
    "rtranif0",
    "rtranif1",
    "scalared",
    "showcancelled",
    "signed",
    "small",
    "specify",
    "specparam",
    "strong0",
    "strong1",
    "supply0",
    "supply1",
    "table",
    "task",
    "time",
    "tran",
    "tranif0",
    "tranif1",
    "tri",
    "tri0",
    "tri1",
    "triand",
    "trior",
    "trireg",
    "unsigned",
    "use",
    "uwire",
    "vectored",
    "wait",
    "wand",
    "weak0",
    "weak1",
    "while",
    "wire",
    "wor",
    "xnor",
    "xor",
];

fn legal(ident: &str) -> bool {
    let mut chars = ident.chars();
    chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '$')
        && !KEYWORDS.contains(&ident)
}

/// The identifier a line of `emit_program`'s output declares, if any:
/// a module, a port, a wire or an instance.
fn declared(line: &str) -> Option<&str> {
    let t = line.trim().trim_end_matches([',', ';']);
    let last = |s: &'static str| t.strip_prefix(s).map(|r| r.rsplit(' ').next().unwrap_or(r));
    if let Some(rest) = t.strip_prefix("module ") {
        return Some(rest.trim_end_matches('('));
    }
    if let Some(ident) = last("input wire ")
        .or_else(|| last("output wire "))
        .or_else(|| last("wire "))
    {
        return Some(ident);
    }
    if let Some((_, rest)) = t.split_once(" #() ") {
        return rest.split(' ').next();
    }
    t.contains(" (.clk(clk)")
        .then(|| t.split(' ').nth(1))
        .flatten()
}

/// Fails on the first illegal identifier, or one declared twice in a
/// module (modules count once per program).
fn check(what: &str, verilog: &str) {
    let mut modules = HashSet::new();
    let mut scope = HashSet::new();
    for line in verilog.lines() {
        let Some(ident) = declared(line) else {
            continue;
        };
        assert!(
            legal(ident),
            "{what}: illegal identifier {ident:?} in `{line}`"
        );
        if line.starts_with("module ") {
            assert!(
                modules.insert(ident),
                "{what}: module {ident} declared twice"
            );
            scope.clear();
        } else {
            assert!(
                scope.insert(ident),
                "{what}: {ident} declared twice in `{line}`"
            );
        }
    }
    assert!(!modules.is_empty(), "{what}: no module");
}

fn verilog(
    what: &str,
    src: &str,
    level: u8,
    registry: &dyn filament_core::PrimitiveRegistry,
) -> String {
    let req = BuildRequest::new(src)
        .verilog()
        .expanded(false)
        .opt_level(level);
    fil_stdlib::build_with_registry(&req, registry)
        .unwrap_or_else(|e| panic!("{what} -O{level}: {e}"))
        .verilog
        .expect("verilog was requested")
}

#[test]
fn corpus_identifiers_are_legal_and_declared_once() {
    for (name, src, _) in fil_designs::corpus() {
        for level in [0, 2] {
            let what = format!("{name} -O{level}");
            check(
                &what,
                &verilog(&what, &src, level, &reticle::ReticleRegistry),
            );
        }
    }
}

#[test]
fn fuzz_identifiers_are_legal_and_declared_once() {
    for seed in FUZZ_SEED..FUZZ_SEED + FUZZ_CASES {
        let case = fil_harness::fuzz::gen::generate(seed);
        for level in [0, 2] {
            let what = format!("fuzz seed {seed} -O{level}");
            check(
                &what,
                &verilog(&what, &case.source, level, &fil_stdlib::StdRegistry),
            );
        }
    }
}

#[test]
fn the_checker_sees_what_the_emitter_declares() {
    let v = "module M(\n  input wire clk,\n  input wire [7:0] a#inst_left\n);\n  wire [7:0] x;\n  \
             std_add #() wire (.left(x));\nendmodule\n";
    let decls: Vec<&str> = v.lines().filter_map(declared).collect();
    assert_eq!(decls, ["M", "clk", "a#inst_left", "x", "wire"]);
    assert!(!legal("a#inst_left") && !legal("wire") && !legal("1x") && legal("a_b$1"));
}
