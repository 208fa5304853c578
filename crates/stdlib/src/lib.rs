//! The Filament standard library: extern signatures with timeline types for
//! every primitive, plus the registry mapping them onto simulator cells.
//!
//! This is the reproduction's counterpart of the paper's Verilog standard
//! library (Section 7). Each extern below is a *type-safe wrapper for a
//! black-box module* (Section 3.6); the [`StdRegistry`] supplies the
//! behavioral implementation ([`rtl_sim::CellKind`]) used when compiled
//! designs are elaborated for simulation.
//!
//! Signature highlights, straight from the paper:
//!
//! * `Register` (Section 3.6): parametric delay `L-(G+1)`, output held over
//!   `[G+1, L)` with `where L > G+1`,
//! * `Delay` (Section 5.4): a register that holds for exactly one cycle and
//!   therefore needs no enable — usable from phantom events,
//! * `Prev` / `ContPrev` (Section 7.2): stream registers whose output is
//!   readable in the *same* cycle (the previous value), implementing line
//!   buffers; `ContPrev` is the phantom-event variant for continuous
//!   pipelines,
//! * `Mult` (Section 2): a sequential multiplier with latency 2 and delay 3;
//!   `FastMult`: fully pipelined, latency 2, delay 1; `LogiMult`: the
//!   Xilinx LogiCORE stand-in, latency 3, delay 1 (used by conv2d).
//!
//! # Examples
//!
//! ```
//! use fil_stdlib::{std_program, StdRegistry};
//! use filament_core::{check_program, lower_program, parse_program};
//!
//! let mut program = std_program();
//! program.extend(parse_program(
//!     "comp Main<G: 1>(@interface[G] go: 1, @[G, G+1] x: 32) -> (@[G, G+1] o: 32) {
//!        a := new Add[32]<G>(x, x);
//!        o = a.out;
//!      }",
//! )?);
//! check_program(&program).map_err(|e| format!("{e:?}"))?;
//! let calyx = lower_program(&program, "Main", &StdRegistry)?;
//! assert!(calyx.elaborate("Main").is_ok());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// Extern parameters are user input: a cell field narrows one with
// `param_u32`, which refuses a value past 32 bits, never wraps it.
#![deny(clippy::cast_possible_truncation)]

pub use fil_build::{BuildOutput, BuildRequest};
use filament_core::{param_u32, parse_program, ParamTooLarge, PrimitiveRegistry, Program};
use rtl_sim::CellKind;

use std::collections::HashSet;
use std::fmt;
use std::sync::OnceLock;

#[cfg(unix)]
pub mod serve;

/// Errors loading user source against the standard library: parsing,
/// elaboration of the combined program, or (when a session cache is in
/// play) a build-driver failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LoadError {
    /// The user source failed to parse.
    Parse(filament_core::ParseError),
    /// Generator elaboration failed (unbound parameter, bad loop bound,
    /// divergent recursion, ...).
    Mono(filament_core::MonoError),
    /// The build driver failed outside elaboration (an unusable cache
    /// directory, or a check/lower failure in a full build).
    Driver(String),
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Parse(e) => write!(f, "{e}"),
            LoadError::Mono(e) => write!(f, "{e}"),
            LoadError::Driver(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for LoadError {}

impl From<filament_core::ParseError> for LoadError {
    fn from(e: filament_core::ParseError) -> Self {
        LoadError::Parse(e)
    }
}

impl From<filament_core::MonoError> for LoadError {
    fn from(e: filament_core::MonoError) -> Self {
        LoadError::Mono(e)
    }
}

impl From<fil_build::BuildError> for LoadError {
    fn from(e: fil_build::BuildError) -> Self {
        match e {
            fil_build::BuildError::Mono(e) => LoadError::Mono(e),
            other => LoadError::Driver(other.to_string()),
        }
    }
}

/// The standard library's Filament source text.
///
/// Port names match the Calyx-level primitive ports
/// ([`calyx_lite::primitive_ports`]) so extern wrappers lower directly.
pub const STDLIB_SOURCE: &str = r#"
// ---------------------------------------------------------------- arithmetic
// Combinational units are continuously active: phantom events (Section 3.6).
extern comp Add[W]<G: 1>(@[G, G+1] left: W, @[G, G+1] right: W)
    -> (@[G, G+1] out: W);
extern comp Sub[W]<G: 1>(@[G, G+1] left: W, @[G, G+1] right: W)
    -> (@[G, G+1] out: W);
extern comp MultComb[W]<G: 1>(@[G, G+1] left: W, @[G, G+1] right: W)
    -> (@[G, G+1] out: W);

// The paper's sequential multiplier (Section 2): output two cycles after
// the inputs, new inputs accepted every three cycles.
extern comp Mult[W]<T: 3>(@interface[T] go: 1, @[T, T+1] left: W,
    @[T, T+1] right: W) -> (@[T+2, T+3] out: W);

// Fully pipelined multiplier (Section 2.4's FastMult): same latency,
// initiation interval 1, no interface port needed — data flows through.
extern comp FastMult[W]<T: 1>(@[T, T+1] left: W, @[T, T+1] right: W)
    -> (@[T+2, T+3] out: W);

// Xilinx LogiCORE-style pipelined multiplier with a three cycle latency
// (Section 7.2 Design 1).
extern comp LogiMult[W]<T: 1>(@[T, T+1] left: W, @[T, T+1] right: W)
    -> (@[T+3, T+4] out: W);

// ------------------------------------------------------------------- logic
extern comp And[W]<G: 1>(@[G, G+1] left: W, @[G, G+1] right: W)
    -> (@[G, G+1] out: W);
extern comp Or[W]<G: 1>(@[G, G+1] left: W, @[G, G+1] right: W)
    -> (@[G, G+1] out: W);
extern comp Xor[W]<G: 1>(@[G, G+1] left: W, @[G, G+1] right: W)
    -> (@[G, G+1] out: W);
extern comp Not[W]<G: 1>(@[G, G+1] in: W) -> (@[G, G+1] out: W);
extern comp Mux[W]<G: 1>(@[G, G+1] sel: 1, @[G, G+1] in0: W, @[G, G+1] in1: W)
    -> (@[G, G+1] out: W);

// -------------------------------------------------------------- comparison
extern comp Eq[W]<G: 1>(@[G, G+1] left: W, @[G, G+1] right: W)
    -> (@[G, G+1] out: 1);
extern comp Lt[W]<G: 1>(@[G, G+1] left: W, @[G, G+1] right: W)
    -> (@[G, G+1] out: 1);
extern comp Ge[W]<G: 1>(@[G, G+1] left: W, @[G, G+1] right: W)
    -> (@[G, G+1] out: 1);

// ------------------------------------------------------------ bit plumbing
// Shifts by a constant amount N.
extern comp ShlConst[W, N]<G: 1>(@[G, G+1] in: W) -> (@[G, G+1] out: W);
extern comp ShrConst[W, N]<G: 1>(@[G, G+1] in: W) -> (@[G, G+1] out: W);
// Dynamic shifts.
extern comp Shl[W]<G: 1>(@[G, G+1] left: W, @[G, G+1] right: W)
    -> (@[G, G+1] out: W);
extern comp Shr[W]<G: 1>(@[G, G+1] left: W, @[G, G+1] right: W)
    -> (@[G, G+1] out: W);
// Bit-field extraction in[HI:LO]; the output width is *derived* from the
// field bounds — callers never supply (or get wrong) OW.
extern comp Slice[W, HI, LO, some OW = HI - LO + 1]<G: 1>(@[G, G+1] in: W)
    -> (@[G, G+1] out: OW);
// Concatenation {hi, lo}; the output width is derived.
extern comp Concat[WH, WL, some OW = WH + WL]<G: 1>(@[G, G+1] hi: WH, @[G, G+1] lo: WL)
    -> (@[G, G+1] out: OW);
extern comp ZExt[WI, WO]<G: 1>(@[G, G+1] in: WI) -> (@[G, G+1] out: WO);
extern comp ReduceOr[W]<G: 1>(@[G, G+1] in: W) -> (@[G, G+1] out: 1);
extern comp ReduceAnd[W]<G: 1>(@[G, G+1] in: W) -> (@[G, G+1] out: 1);
extern comp Clz[W]<G: 1>(@[G, G+1] in: W) -> (@[G, G+1] out: W);

// AES S-box lookup (for the PipelineC import, Appendix B.2).
extern comp SBox<G: 1>(@[G, G+1] in: 8) -> (@[G, G+1] out: 8);

// ------------------------------------------------------------------- state
// Section 3.6's register: holds a value for as long as needed; the delay
// says a new write may arrive during the last output cycle.
extern comp Register[W]<G: L-(G+1), L: 1>(@interface[G] en: 1,
    @[G, G+1] in: W) -> (@[G+1, L] out: W) where L > G+1;

// Section 5.4's delay: holds for exactly one cycle, accepts inputs every
// cycle, needs no enable — phantom-event compatible.
extern comp Delay[W]<G: 1>(@[G, G+1] in: W) -> (@[G+1, G+2] out: W);

// Section 7.2's stream register: the output is the *previous* value, read
// in the same cycle as the write. SAFE = 0 marks the first read undefined.
extern comp Prev[W, SAFE]<G: 1>(@interface[G] en: 1, @[G, G+1] in: W)
    -> (@[G, G+1] out: W);

// Continuous variant of Prev for phantom-event pipelines (Section 7.2).
extern comp ContPrev[W, SAFE]<G: 1>(@[G, G+1] in: W) -> (@[G, G+1] out: W);
"#;

/// Parses the standard library into a program (no user components yet).
///
/// Parsed once per process; every call shares that parse's extern list
/// (`Arc::ptr_eq`), so a call costs a reference-count bump and the
/// compile-farm daemon (and every repeated library call) never re-parses
/// or copies the embedded source. A program that adds its own externs
/// takes a private copy of the list on write.
///
/// # Panics
///
/// Panics only if the embedded source is ill-formed, which the test suite
/// rules out.
pub fn std_program() -> Program {
    static STD: OnceLock<Program> = OnceLock::new();
    STD.get_or_init(|| parse_program(STDLIB_SOURCE).expect("standard library parses"))
        .clone()
}

/// The names of the preloaded stdlib externs (for stripping them back out
/// of expanded output), computed once per process.
fn std_extern_names() -> &'static HashSet<String> {
    static NAMES: OnceLock<HashSet<String>> = OnceLock::new();
    NAMES.get_or_init(|| {
        std_program()
            .externs
            .iter()
            .map(|s| s.name.clone())
            .collect()
    })
}

/// The process-wide elaborated-netlist memo backing
/// `BuildRequest::netlist` requests: lowered programs that are
/// byte-identical (the driver's determinism guarantee) share one
/// elaboration, keyed by [`fil_build::netcache::netlist_key`].
fn netlist_memo() -> &'static fil_build::NetlistMemo {
    static MEMO: OnceLock<fil_build::NetlistMemo> = OnceLock::new();
    MEMO.get_or_init(|| fil_build::NetlistMemo::new(32))
}

/// Runs one [`BuildRequest`] against the standard library: parse (timed,
/// trace-aware), elaborate/check/lower through the build driver exactly
/// as far as the request's wants demand, and materialize each requested
/// output. This is *the* entry point — the CLI, the test harness, the
/// benchmark, and the `filament serve` daemon all route here.
///
/// The cache salt is forced to `"std"`: expand-only and full-build
/// sessions share artifacts, and custom-registry builds
/// ([`build_with_registry`]) can never collide with them.
///
/// # Errors
///
/// Parse errors as [`LoadError::Parse`], elaboration errors as
/// [`LoadError::Mono`], check/lower/cache/elaborate-netlist failures as
/// [`LoadError::Driver`].
///
/// # Examples
///
/// ```
/// use fil_build::BuildRequest;
///
/// let out = fil_stdlib::build(&BuildRequest::new(
///     "comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 8) {
///        a := new Add[8]<G>(x, x);
///        o = a.out;
///      }",
/// ))?;
/// let expanded = out.expanded.expect("requested by default");
/// assert!(expanded.sig("Main").is_some());
/// # Ok::<(), fil_stdlib::LoadError>(())
/// ```
pub fn build(req: &fil_build::BuildRequest) -> Result<fil_build::BuildOutput, LoadError> {
    run_request(req, None)
}

/// [`build`] lowering through a caller-supplied primitive registry
/// instead of [`StdRegistry`] (the registry's fingerprint comes from
/// `req.options.salt`).
///
/// # Errors
///
/// As [`build`].
pub fn build_with_registry(
    req: &fil_build::BuildRequest,
    registry: &dyn PrimitiveRegistry,
) -> Result<fil_build::BuildOutput, LoadError> {
    run_request(req, Some(registry))
}

fn run_request(
    req: &fil_build::BuildRequest,
    registry: Option<&dyn PrimitiveRegistry>,
) -> Result<fil_build::BuildOutput, LoadError> {
    let mut opts = req.options.clone();
    if registry.is_none() {
        opts.salt = "std".into();
    }
    let raw = timed_parse(&req.source, &opts)?;
    let mut output = fil_build::BuildOutput::default();
    if req.want_raw {
        output.raw = Some(raw.program.clone());
    }
    if !opts.emit_expanded && !req.needs_lowering() {
        // Parse-only request: the driver has nothing to do.
        output.stats.phase.parse_us = raw.parse_us;
        return Ok(output);
    }
    let mut out = if req.needs_lowering() {
        fil_build::build_program(&raw.program, registry.unwrap_or(&StdRegistry), &opts)?
    } else {
        fil_build::expand_program(&raw.program, &opts)?
    };
    out.stats.phase.parse_us = raw.parse_us;
    output.stats = out.stats;
    if opts.emit_expanded {
        output.expanded_text = Some(strip_std_and_print(&out.expanded));
        output.expanded = Some(out.expanded);
    }
    if let Some(lowered) = out.lowered {
        // The back end's serial steps, spanned on the main lane after the
        // driver's merge.
        let lane = opts.trace.as_ref().map(|c| c.lane(0, "main"));
        let span = |name| lane.as_ref().map(|l| l.span("build", name));
        if let Some(top) = &req.want_netlist {
            let _span = span("elaborate");
            let (netlist, from_cache) =
                fil_build::netcache::elaborate(netlist_memo(), &lowered, top, opts.opt_level)
                    .map_err(|e| LoadError::Driver(e.to_string()))?;
            output.netlist = Some(netlist);
            output.netlist_from_cache = from_cache;
        }
        if req.want_verilog {
            let _span = span("verilog");
            output.verilog = Some(calyx_lite::emit_program(&lowered));
        }
        if req.want_lowered {
            output.lowered = Some(lowered);
        }
    }
    Ok(output)
}

/// The expanded program printed back to surface syntax with the preloaded
/// stdlib externs stripped — the exact text `filament expand` emits and
/// the golden-corpus snapshots pin down.
fn strip_std_and_print(expanded: &Program) -> String {
    let std_names = std_extern_names();
    filament_core::pretty::print_items(
        expanded
            .externs
            .iter()
            .filter(|s| !std_names.contains(&s.name)),
        &expanded.components,
    )
}

fn parse_with_stdlib(user_src: &str) -> Result<Program, filament_core::ParseError> {
    let mut p = std_program();
    p.extend(parse_program(user_src)?);
    Ok(p)
}

/// Source + stdlib parse, timed into [`fil_build::PhaseTimes::parse_us`]
/// and (when tracing) recorded as a `parse` span on the main lane —
/// parsing happens before the driver exists, so the driver can't time it.
struct TimedParse {
    program: Program,
    parse_us: u64,
}

fn timed_parse(user_src: &str, opts: &fil_build::BuildOptions) -> Result<TimedParse, LoadError> {
    let start = opts.trace.as_ref().map(|c| c.now_us());
    let timer = std::time::Instant::now();
    let program = parse_with_stdlib(user_src)?;
    let parse_us = fil_build::phase_us(timer.elapsed());
    if let (Some(c), Some(start)) = (&opts.trace, start) {
        c.lane(0, "main")
            .complete("build", "parse", start, parse_us, Vec::new());
    }
    Ok(TimedParse { program, parse_us })
}

/// Maps the standard library externs onto simulator cells.
#[derive(Debug, Clone, Copy, Default)]
pub struct StdRegistry;

impl PrimitiveRegistry for StdRegistry {
    fn primitive(&self, name: &str, params: &[u64]) -> Result<Option<CellKind>, ParamTooLarge> {
        let w = |i: usize| param_u32(params, i, 32);
        Ok(Some(match name {
            "Add" => CellKind::Add { width: w(0)? },
            "Sub" => CellKind::Sub { width: w(0)? },
            "MultComb" => CellKind::MulComb { width: w(0)? },
            "Mult" => CellKind::MultSeq {
                width: w(0)?,
                latency: 2,
            },
            "FastMult" => CellKind::MultPipe {
                width: w(0)?,
                latency: 2,
            },
            "LogiMult" => CellKind::MultPipe {
                width: w(0)?,
                latency: 3,
            },
            "And" => CellKind::And { width: w(0)? },
            "Or" => CellKind::Or { width: w(0)? },
            "Xor" => CellKind::Xor { width: w(0)? },
            "Not" => CellKind::Not { width: w(0)? },
            "Mux" => CellKind::Mux { width: w(0)? },
            "Eq" => CellKind::Eq { width: w(0)? },
            "Lt" => CellKind::Lt { width: w(0)? },
            "Ge" => CellKind::Ge { width: w(0)? },
            "ShlConst" => CellKind::ShlConst {
                width: w(0)?,
                amount: w(1)?,
            },
            "ShrConst" => CellKind::ShrConst {
                width: w(0)?,
                amount: w(1)?,
            },
            "Shl" => CellKind::ShlDyn { width: w(0)? },
            "Shr" => CellKind::ShrDyn { width: w(0)? },
            "Slice" => CellKind::Slice {
                in_width: w(0)?,
                hi: w(1)?,
                lo: w(2)?,
            },
            "Concat" => CellKind::Concat {
                hi_width: w(0)?,
                lo_width: w(1)?,
            },
            "ZExt" => CellKind::ZeroExt {
                in_width: w(0)?,
                out_width: w(1)?,
            },
            "ReduceOr" => CellKind::ReduceOr { width: w(0)? },
            "ReduceAnd" => CellKind::ReduceAnd { width: w(0)? },
            "Clz" => CellKind::Clz { width: w(0)? },
            "SBox" => CellKind::SBox,
            "Register" | "Prev" => CellKind::Reg {
                width: w(0)?,
                init: 0,
                has_en: true,
            },
            "Delay" | "ContPrev" => CellKind::Reg {
                width: w(0)?,
                init: 0,
                has_en: false,
            },
            _ => return Ok(None),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use filament_core::{check_program, lower_program};

    /// User source expanded against the stdlib through the unified API.
    fn expanded(src: &str) -> Program {
        build(&fil_build::BuildRequest::new(src))
            .unwrap()
            .expanded
            .expect("expanded is requested by default")
    }

    #[test]
    fn stdlib_parses_and_checks() {
        let p = std_program();
        assert!(p.externs.len() > 20);
        check_program(&p).unwrap_or_else(|e| panic!("stdlib ill-typed: {e:#?}"));
    }

    const ADD_MAIN: &str = "comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 8) {
           a := new Add[8]<G>(x, x);
           o = a.out;
         }";

    #[test]
    fn std_program_shares_one_extern_list() {
        use std::sync::Arc;
        let count = STDLIB_SOURCE.matches("extern comp").count();
        let std = std_program();
        assert_eq!(std.externs.len(), count);
        assert!(Arc::ptr_eq(&std.externs, &std_program().externs));
        // Adding only components keeps sharing the list.
        let mut with_comp = std_program();
        with_comp.extend(parse_program(ADD_MAIN).unwrap());
        assert!(Arc::ptr_eq(&std.externs, &with_comp.externs));
        // A user extern gets the program a private copy; the shared list
        // is untouched.
        let mut with_extern = std_program();
        with_extern.extend(
            parse_program("extern comp Mine<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 8);").unwrap(),
        );
        assert!(!Arc::ptr_eq(&std.externs, &with_extern.externs));
        assert_eq!(with_extern.externs.len(), count + 1);
        assert!(with_extern.is_extern("Mine"));
        assert_eq!(std_program().externs.len(), count);
        assert!(!std_program().is_extern("Mine"));
    }

    /// The driver memoizes the last extern list it validated by pointer;
    /// a program with its own (ill-formed) extern never rides on the
    /// standard library's validation, before or after a good build.
    #[test]
    fn bad_user_extern_is_rejected_between_std_builds() {
        let req = |src: &str| BuildRequest::new(src).lowered();
        build(&req(ADD_MAIN)).expect("std build");
        let bad = format!("extern comp Bad<G: 1>(@[G, G+3] x: 8) -> (@[G, G+1] o: 8);\n{ADD_MAIN}");
        for _ in 0..2 {
            match build(&req(&bad)) {
                Err(LoadError::Driver(e)) => assert!(e.contains("[Bad]"), "{e}"),
                other => panic!("bad extern accepted: {other:?}"),
            }
        }
        build(&req(ADD_MAIN)).expect("std build after the rejection");
    }

    #[test]
    fn every_extern_has_a_primitive() {
        let p = std_program();
        for sig in p.externs.iter() {
            let params: Vec<u64> = sig.params.iter().map(|_| 8).collect();
            assert!(
                matches!(StdRegistry.primitive(&sig.name, &params), Ok(Some(_))),
                "no primitive for {}",
                sig.name
            );
        }
    }

    #[test]
    fn parameters_past_32_bits_are_refused() {
        // 2^32 + 1 would wrap to a shift by 1.
        let amount = (1 << 32) + 1;
        assert_eq!(
            StdRegistry.primitive("ShlConst", &[8, amount]),
            Err(ParamTooLarge { index: 1 })
        );
        assert_eq!(
            StdRegistry.primitive("ShlConst", &[8, 1]),
            Ok(Some(CellKind::ShlConst {
                width: 8,
                amount: 1
            }))
        );
    }

    #[test]
    fn extern_ports_match_primitive_ports() {
        // Lowering validates port-name agreement; compile a probe program
        // per extern with a tiny wrapper that instantiates it unused.
        let p = std_program();
        for sig in p.externs.iter() {
            let params: Vec<u64> = sig
                .params
                .iter()
                .map(|p| match p.name.as_str() {
                    "HI" => 7,
                    "LO" => 0,
                    "OW" => 8,
                    "N" => 1,
                    "SAFE" => 1,
                    _ => 8,
                })
                .collect();
            let kind = StdRegistry.primitive(&sig.name, &params).unwrap().unwrap();
            let (ins, outs) = calyx_lite::primitive_ports(&kind);
            let have: std::collections::HashSet<&str> =
                ins.iter().chain(&outs).map(|&(n, _)| n).collect();
            for port in sig
                .interfaces
                .iter()
                .map(|i| i.name.as_str())
                .chain(sig.inputs.iter().map(|p| p.name.as_str()))
                .chain(sig.outputs.iter().map(|p| p.name.as_str()))
            {
                assert!(
                    have.contains(port),
                    "extern {}: port {port} missing on {:?}",
                    sig.name,
                    kind
                );
            }
        }
    }

    #[test]
    fn quickstart_pipeline_compiles_and_runs() {
        let program = expanded(
            "comp Main<G: 1>(@interface[G] go: 1, @[G, G+1] x: 8) -> (@[G+1, G+2] o: 8) {
               a := new Add[8]<G>(x, 1);
               d := new Delay[8]<G>(a.out);
               o = d.out;
             }",
        );
        check_program(&program).unwrap_or_else(|e| panic!("{e:#?}"));
        let calyx = lower_program(&program, "Main", &StdRegistry).unwrap();
        let netlist = calyx.elaborate("Main").unwrap();
        let mut sim = rtl_sim::Sim::new(&netlist).unwrap();
        sim.poke_by_name("go", fil_bits::Value::from_u64(1, 1));
        sim.poke_by_name("x", fil_bits::Value::from_u64(8, 41));
        sim.step().unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.peek_by_name("o").to_u64(), 42);
    }

    #[test]
    fn prev_reads_previous_value_same_cycle() {
        let program = expanded(
            "comp Main<G: 1>(@interface[G] go: 1, @[G, G+1] x: 8) -> (@[G, G+1] o: 8) {
               p := new Prev[8, 1]<G>(x);
               o = p.out;
             }",
        );
        check_program(&program).unwrap_or_else(|e| panic!("{e:#?}"));
        let calyx = lower_program(&program, "Main", &StdRegistry).unwrap();
        let netlist = calyx.elaborate("Main").unwrap();
        let mut sim = rtl_sim::Sim::new(&netlist).unwrap();
        let mut outs = Vec::new();
        for t in 0..4u64 {
            sim.poke_by_name("go", fil_bits::Value::from_u64(1, 1));
            sim.poke_by_name("x", fil_bits::Value::from_u64(8, 10 + t));
            sim.settle().unwrap();
            outs.push(sim.peek_by_name("o").to_u64());
            sim.tick().unwrap();
        }
        assert_eq!(outs, vec![0, 10, 11, 12]);
    }

    #[test]
    fn register_holds_value() {
        let program = expanded(
            "comp Main<G: 4>(@interface[G] go: 1, @[G, G+1] x: 8) -> (@[G+1, G+4] o: 8) {
               r := new Register[8]<G, G+4>(x);
               o = r.out;
             }",
        );
        check_program(&program).unwrap_or_else(|e| panic!("{e:#?}"));
        let calyx = lower_program(&program, "Main", &StdRegistry).unwrap();
        let netlist = calyx.elaborate("Main").unwrap();
        let mut sim = rtl_sim::Sim::new(&netlist).unwrap();
        sim.poke_by_name("go", fil_bits::Value::from_u64(1, 1));
        sim.poke_by_name("x", fil_bits::Value::from_u64(8, 7));
        sim.step().unwrap();
        sim.poke_by_name("go", fil_bits::Value::from_u64(1, 0));
        sim.poke_by_name("x", fil_bits::Value::from_u64(8, 99));
        for _ in 0..3 {
            sim.settle().unwrap();
            assert_eq!(sim.peek_by_name("o").to_u64(), 7, "held");
            sim.tick().unwrap();
        }
    }

    #[test]
    fn slow_mult_misuse_is_rejected_via_stdlib() {
        let program = expanded(
            "comp Main<G: 1>(@interface[G] go: 1, @[G, G+1] x: 8) -> (@[G+2, G+3] o: 8) {
               m := new Mult[8]<G>(x, x);
               o = m.out;
             }",
        );
        let errors = check_program(&program).unwrap_err();
        assert!(errors
            .iter()
            .any(|e| e.kind == filament_core::check::ErrorKind::SafePipelining));
    }
}
