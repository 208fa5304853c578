//! `fil-build`: a content-addressed, incremental, parallel build driver
//! for the Filament compiler.
//!
//! The paper's modular checking story — each component is verified against
//! its timeline-typed signature once and composed freely — makes
//! *compilation* modular too: a component's expansion, type-check, and
//! lowering depend only on its own source, its resolved parameters, and
//! its dependencies' signatures. This crate exploits that:
//!
//! * **Units.** The pipeline is split into per-`(component, params)`
//!   compile units, `mono`'s own ([`filament_core::mono::UnitKey`]):
//!   [`filament_core::mono::elaborate_component`] elaborates one unit,
//!   [`filament_core::lower_component_unit`] lowers one. The driver adds
//!   the threads, the caches, checking, lowering and optimization.
//! * **Content-addressed caching.** Each unit is keyed by a 128-bit hash
//!   of its component's pretty-printed source, the pretty-printed sources
//!   of everything it can statically reach, its resolved parameter
//!   vector, the artifact format version, and a registry salt
//!   ([`key::KeySpace`]). Artifacts — the expanded component in a binary
//!   AST encoding ([`ast_bin`]) plus a versioned binary encoding of the
//!   lowered [`calyx_lite::Component`] — persist in a `--cache-dir`
//!   across sessions ([`artifact`]); hits skip expand/check/lower
//!   entirely, and corrupted or stale files are detected (magic, version,
//!   checksum, length validation) and fall back to a clean rebuild.
//! * **Parallel scheduling.** Units run on a `std::thread` worker pool
//!   (`--jobs N`) over the dynamically discovered dependency DAG.
//! * **Determinism.** Unit outputs are order-independent
//!   (content-addressed placeholder names) and the final merge lays the
//!   units out as [`filament_core::mono::expand`] does
//!   ([`filament_core::mono::layout`]), so `-j1`/`-jN` and cold/warm
//!   builds produce byte-identical expanded programs and Verilog — the
//!   expanded program matches [`filament_core::mono::expand`] exactly.
//!
//! # Examples
//!
//! ```
//! use fil_build::{expand_program, BuildOptions};
//! use filament_core::parse_program;
//!
//! let program = parse_program(
//!     "extern comp Delay[W]<G: 1>(@[G, G+1] in: W) -> (@[G+1, G+2] out: W);
//!      comp Main<G: 1>(@[G, G+1] x: 8) -> (@[G+1, G+2] o: 8) {
//!        d := new Delay[8]<G>(x);
//!        o = d.out;
//!      }",
//! )?;
//! let out = expand_program(&program, &BuildOptions::default())?;
//! assert_eq!(out.stats.units, 1);
//! assert_eq!(out.expanded, filament_core::mono::expand(&program)?);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod artifact;
pub mod ast_bin;
pub mod driver;
pub mod key;
pub mod netcache;
pub mod request;
pub mod singleflight;

pub use artifact::ARTIFACT_VERSION;
pub use driver::{
    build_program, check_externs, expand_program, phase_us, BuildError, BuildOptions, BuildStats,
    DriverOutput, OptStats, PhaseTimes,
};
pub use netcache::NetlistMemo;
pub use request::{BuildOutput, BuildRequest, PROTOCOL_VERSION};
pub use singleflight::{Served, SingleFlight};
// Re-exported so front ends can name optimizer types (`fil_opt`) and
// construct `BuildOptions::trace` (`fil_trace`) without direct deps.
pub use fil_opt;
pub use fil_trace;
