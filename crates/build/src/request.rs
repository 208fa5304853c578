//! The unified build API: one request type, one output type, one wire
//! framing — shared verbatim by library callers, the `filament` CLI, and
//! the compile-farm daemon.
//!
//! [`BuildRequest`] is a builder-style description of *what to build and
//! which outputs to materialize* (source text, wanted outputs, and the
//! driver's [`BuildOptions`]: worker count, artifact cache, trace sink).
//! [`BuildOutput`] carries whichever outputs were requested. The same
//! pair crosses the `filament serve` unix socket:
//! [`encode_request`]/[`encode_output`] produce the deterministic,
//! bounds-checked binary layout (through [`calyx_lite::serial`]'s shared
//! [`Writer`]/[`Reader`]), and [`write_frame`]/[`read_frame`] wrap
//! payloads in a length-prefixed, version-salted, checksummed frame. The
//! frame version folds together the protocol layout, the artifact format,
//! and the component/netlist serial format, so *any* encoding change on
//! either side makes old peers fail loudly with a version error instead
//! of misdecoding.
//!
//! Wire notes: AST-level fields ([`BuildOutput::raw`],
//! [`BuildOutput::expanded`], [`BuildOutput::lowered`]) and the local
//! trace sink do not cross the socket — the *rendered* forms
//! (`expanded_text`, `verilog`, the encoded netlist) and the full
//! [`BuildStats`] do. A decoded output therefore answers everything the
//! CLI and the benchmark ask for, byte-identically to a local build.

use crate::driver::{BuildOptions, BuildStats, PhaseTimes};
use crate::key;
use calyx_lite::serial::{self, DecodeError, Reader, Writer};
use filament_core::Program;
use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::Arc;

/// Version of the request/response payload layout. Decoders reject
/// anything else; bump on any change below.
///
/// v2: [`BuildRequest::opt_level`] appended to the request encoding, and
/// the stats block grew the `opt_*` counters. A v1 peer would decode a v2
/// request as trailing garbage (or a v2 decoder would read past a v1
/// payload), so the bump is mandatory, not cosmetic — see the salt-bump
/// policy in `docs/ARCHITECTURE.md`.
pub const PROTOCOL_VERSION: u32 = 2;

/// Frames larger than this are rejected before allocation (a corrupted
/// length prefix must not OOM the daemon).
pub const MAX_FRAME_LEN: u32 = 1 << 26;

/// Magic bytes opening every frame.
const FRAME_MAGIC: [u8; 4] = *b"FSV1";

/// The version salt carried by every frame: protocol layout × artifact
/// format × component/netlist serial format. Peers built from different
/// revisions of *any* of the three disagree here and fail cleanly.
pub const fn wire_version() -> u32 {
    PROTOCOL_VERSION | (crate::artifact::ARTIFACT_VERSION << 8) | (serial::FORMAT_VERSION << 16)
}

/// One build to run: source, which outputs to come back with, and the
/// driver [`BuildOptions`] to run it under. Construct with
/// [`BuildRequest::new`] and chain the builder methods; the default wants
/// only the expanded program (the most common library call, the old
/// `with_stdlib`).
#[derive(Debug, Clone, Default)]
pub struct BuildRequest {
    /// The user source text (the standard library is the front end's
    /// concern and is not part of the request).
    pub source: String,
    /// Return the parsed (pre-elaboration) program in
    /// [`BuildOutput::raw`]. Local-only: never crosses the wire.
    pub want_raw: bool,
    /// Check + lower every unit and return the lowered program
    /// ([`BuildOutput::lowered`]).
    pub want_lowered: bool,
    /// Additionally render the lowered program as structural Verilog
    /// ([`BuildOutput::verilog`] — what `filament build` prints). Implies
    /// `want_lowered`.
    pub want_verilog: bool,
    /// Elaborate the named top component to a flat simulator netlist
    /// ([`BuildOutput::netlist`]), served from the elaborated-netlist
    /// cache when warm. Implies `want_lowered`.
    pub want_netlist: Option<String>,
    /// How the driver runs: jobs, artifact cache, registry salt, opt level,
    /// trace sink (local-only), and [`BuildOptions::emit_expanded`], which
    /// also decides whether [`BuildOutput::expanded`] and
    /// [`BuildOutput::expanded_text`] come back. Every field but the trace
    /// sink crosses the wire and feeds the daemon's request key.
    pub options: BuildOptions,
}

impl BuildRequest {
    /// A request for `source` wanting the expanded program.
    pub fn new(source: impl Into<String>) -> Self {
        BuildRequest {
            source: source.into(),
            ..Default::default()
        }
    }

    /// Also return the parsed, pre-elaboration program.
    #[must_use]
    pub fn raw(mut self) -> Self {
        self.want_raw = true;
        self
    }

    /// Toggle the expanded program (on by default; turn off for
    /// Verilog-only builds, where skipping it keeps warm artifacts
    /// entirely un-rematerialized).
    #[must_use]
    pub fn expanded(mut self, want: bool) -> Self {
        self.options.emit_expanded = want;
        self
    }

    /// Check + lower every unit and return the lowered program.
    #[must_use]
    pub fn lowered(mut self) -> Self {
        self.want_lowered = true;
        self
    }

    /// Render structural Verilog (implies [`BuildRequest::lowered`]).
    #[must_use]
    pub fn verilog(mut self) -> Self {
        self.want_lowered = true;
        self.want_verilog = true;
        self
    }

    /// Elaborate `top` to a flat netlist (implies
    /// [`BuildRequest::lowered`]).
    #[must_use]
    pub fn netlist(mut self, top: impl Into<String>) -> Self {
        self.want_lowered = true;
        self.want_netlist = Some(top.into());
        self
    }

    /// Driver worker threads.
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.options.jobs = jobs;
        self
    }

    /// Cross-session artifact cache directory.
    #[must_use]
    pub fn cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.options.cache_dir = Some(dir.into());
        self
    }

    /// Artifact-cache size budget in bytes.
    #[must_use]
    pub fn cache_limit(mut self, bytes: u64) -> Self {
        self.options.cache_limit = Some(bytes);
        self
    }

    /// Registry salt (custom-registry builds only).
    #[must_use]
    pub fn salt(mut self, salt: impl Into<String>) -> Self {
        self.options.salt = salt.into();
        self
    }

    /// Netlist optimization level (`0`, `1`, or `2`).
    #[must_use]
    pub fn opt_level(mut self, level: u8) -> Self {
        self.options.opt_level = level;
        self
    }

    /// Structured-trace sink (local builds only).
    #[must_use]
    pub fn trace(mut self, collector: Arc<fil_trace::Collector>) -> Self {
        self.options.trace = Some(collector);
        self
    }

    /// Whether the driver must run the full check + lower pipeline.
    pub fn needs_lowering(&self) -> bool {
        self.want_lowered || self.want_verilog || self.want_netlist.is_some()
    }
}

/// Everything a build produced — each field present iff requested.
#[derive(Debug, Clone, Default)]
pub struct BuildOutput {
    /// The parsed, pre-elaboration program (local builds only).
    pub raw: Option<Program>,
    /// The expanded (concrete) program, standard library included —
    /// exactly [`filament_core::mono::expand`]'s output (local builds
    /// only).
    pub expanded: Option<Program>,
    /// The expanded program rendered to surface syntax with the preloaded
    /// stdlib externs stripped — the `filament expand` text.
    pub expanded_text: Option<String>,
    /// The lowered program (local builds only).
    pub lowered: Option<calyx_lite::Program>,
    /// The lowered program as structural Verilog — the `filament build`
    /// text.
    pub verilog: Option<String>,
    /// The requested top component, elaborated to a flat netlist (shared:
    /// the daemon's netlist cache hands the same `Arc` to every client).
    pub netlist: Option<Arc<rtl_sim::Netlist>>,
    /// Whether `netlist` came out of the elaborated-netlist cache rather
    /// than a fresh elaboration.
    pub netlist_from_cache: bool,
    /// What the build did.
    pub stats: BuildStats,
}

// ----------------------------------------------------------- payload codec

const REQ_RAW: u8 = 1 << 0;
const REQ_EXPANDED: u8 = 1 << 1;
const REQ_LOWERED: u8 = 1 << 2;
const REQ_VERILOG: u8 = 1 << 3;

/// Appends the canonical encoding of `req` to `out`. Identical requests
/// encode to identical bytes, which is exactly what the daemon's
/// single-flight keys hash.
pub fn encode_request(req: &BuildRequest, out: &mut Vec<u8>) {
    let o = &req.options;
    let mut w = Writer::new(out);
    w.str(&req.source);
    w.u32(o.jobs as u32);
    w.opt_str(o.cache_dir.as_ref().map(|p| p.to_str().unwrap_or("")));
    match o.cache_limit {
        None => w.u8(0),
        Some(v) => {
            w.u8(1);
            w.u64(v);
        }
    }
    w.str(&o.salt);
    let mut flags = 0u8;
    for (set, bit) in [
        (req.want_raw, REQ_RAW),
        (o.emit_expanded, REQ_EXPANDED),
        (req.want_lowered, REQ_LOWERED),
        (req.want_verilog, REQ_VERILOG),
    ] {
        if set {
            flags |= bit;
        }
    }
    w.u8(flags);
    w.opt_str(req.want_netlist.as_deref());
    // v2: appended last so a v1 payload fails as Truncated (not a
    // mis-decode) even if the frame-level version check is bypassed.
    w.u8(o.opt_level);
}

/// Decodes a request (trace sink comes back `None` — it cannot cross the
/// wire).
///
/// # Errors
///
/// [`DecodeError`] on malformed input; never panics.
pub fn decode_request(bytes: &[u8]) -> Result<(BuildRequest, usize), DecodeError> {
    let mut r = Reader::new(bytes);
    let source = r.str()?;
    let jobs = r.u32()? as usize;
    let cache_dir = r.opt_str()?.map(PathBuf::from);
    let cache_limit = match r.u8()? {
        0 => None,
        1 => Some(r.u64()?),
        tag => {
            return Err(DecodeError::BadTag {
                what: "cache limit",
                tag,
            })
        }
    };
    let salt = r.str()?;
    let flags = r.u8()?;
    if flags & !(REQ_RAW | REQ_EXPANDED | REQ_LOWERED | REQ_VERILOG) != 0 {
        return Err(DecodeError::BadTag {
            what: "request flags",
            tag: flags,
        });
    }
    let want_netlist = r.opt_str()?;
    let opt_level = r.u8()?;
    if opt_level > 2 {
        return Err(DecodeError::BadTag {
            what: "opt level",
            tag: opt_level,
        });
    }
    Ok((
        BuildRequest {
            source,
            want_raw: flags & REQ_RAW != 0,
            want_lowered: flags & REQ_LOWERED != 0,
            want_verilog: flags & REQ_VERILOG != 0,
            want_netlist,
            options: BuildOptions {
                jobs,
                cache_dir,
                salt,
                emit_expanded: flags & REQ_EXPANDED != 0,
                cache_limit,
                opt_level,
                trace: None,
            },
        },
        r.pos(),
    ))
}

/// The single-flight key of a request: the 128-bit content hash of its
/// canonical encoding.
pub fn request_key(req: &BuildRequest) -> (u64, u64) {
    use std::hash::Hasher as _;
    let mut bytes = Vec::new();
    encode_request(req, &mut bytes);
    let mut h = key::Hasher::new();
    h.write(&bytes);
    let hash = h.content_hash();
    (hash.a, hash.b)
}

const OUT_EXPANDED_TEXT: u8 = 1 << 0;
const OUT_VERILOG: u8 = 1 << 1;
const OUT_NETLIST: u8 = 1 << 2;
const OUT_NETLIST_CACHED: u8 = 1 << 3;

fn encode_stats(w: &mut Writer<'_>, s: &BuildStats) {
    for v in [
        s.units,
        s.expanded,
        s.checked,
        s.lowered,
        s.session_hits,
        s.cache_loads,
        s.cache_misses,
        s.cache_stores,
        s.session_cache_evictions,
        s.mono.cache_hits,
        s.mono.cache_misses,
        s.mono.loops_unrolled,
        s.mono.ifs_resolved,
        s.mono.bundles_flattened,
        s.mono.derivations_evaluated,
        s.mono.commands_emitted,
        s.phase.parse_us,
        s.phase.expand_us,
        s.phase.check_us,
        s.phase.lower_us,
        s.phase.cache_load_us,
        s.phase.merge_us,
        s.phase.opt_us,
        s.opt.level,
        s.opt.iterations,
        s.opt.cells_before,
        s.opt.cells_after,
        s.opt.pass_rewrites[0],
        s.opt.pass_rewrites[1],
        s.opt.pass_rewrites[2],
        s.opt.pass_rewrites[3],
        s.opt.pass_rewrites[4],
    ] {
        w.u64(v);
    }
}

fn decode_stats(r: &mut Reader<'_>) -> Result<BuildStats, DecodeError> {
    let mut v = [0u64; 32];
    for slot in &mut v {
        *slot = r.u64()?;
    }
    Ok(BuildStats {
        units: v[0],
        expanded: v[1],
        checked: v[2],
        lowered: v[3],
        session_hits: v[4],
        cache_loads: v[5],
        cache_misses: v[6],
        cache_stores: v[7],
        session_cache_evictions: v[8],
        mono: filament_core::mono::MonoStats {
            cache_hits: v[9],
            cache_misses: v[10],
            loops_unrolled: v[11],
            ifs_resolved: v[12],
            bundles_flattened: v[13],
            derivations_evaluated: v[14],
            commands_emitted: v[15],
        },
        phase: PhaseTimes {
            parse_us: v[16],
            expand_us: v[17],
            check_us: v[18],
            lower_us: v[19],
            cache_load_us: v[20],
            merge_us: v[21],
            opt_us: v[22],
        },
        opt: crate::driver::OptStats {
            level: v[23],
            iterations: v[24],
            cells_before: v[25],
            cells_after: v[26],
            pass_rewrites: [v[27], v[28], v[29], v[30], v[31]],
        },
    })
}

/// Appends the wire encoding of `out` — rendered outputs plus stats; the
/// AST-level fields stay local (see the module docs).
pub fn encode_output(output: &BuildOutput, out: &mut Vec<u8>) {
    let mut w = Writer::new(out);
    let mut flags = 0u8;
    if output.expanded_text.is_some() {
        flags |= OUT_EXPANDED_TEXT;
    }
    if output.verilog.is_some() {
        flags |= OUT_VERILOG;
    }
    if output.netlist.is_some() {
        flags |= OUT_NETLIST;
    }
    if output.netlist_from_cache {
        flags |= OUT_NETLIST_CACHED;
    }
    w.u8(flags);
    if let Some(t) = &output.expanded_text {
        w.str(t);
    }
    if let Some(v) = &output.verilog {
        w.str(v);
    }
    encode_stats(&mut w, &output.stats);
    if let Some(n) = &output.netlist {
        serial::encode_netlist(n, w.out());
    }
}

/// Decodes a wire output (`raw`/`expanded`/`lowered` come back `None`).
///
/// # Errors
///
/// [`DecodeError`] on malformed input; never panics.
pub fn decode_output(bytes: &[u8]) -> Result<(BuildOutput, usize), DecodeError> {
    let mut r = Reader::new(bytes);
    let flags = r.u8()?;
    if flags & !(OUT_EXPANDED_TEXT | OUT_VERILOG | OUT_NETLIST | OUT_NETLIST_CACHED) != 0 {
        return Err(DecodeError::BadTag {
            what: "output flags",
            tag: flags,
        });
    }
    let expanded_text = (flags & OUT_EXPANDED_TEXT != 0)
        .then(|| r.str())
        .transpose()?;
    let verilog = (flags & OUT_VERILOG != 0).then(|| r.str()).transpose()?;
    let stats = decode_stats(&mut r)?;
    let netlist = if flags & OUT_NETLIST != 0 {
        let (n, used) = serial::decode_netlist(r.rest())?;
        r.take(used)?;
        Some(Arc::new(n))
    } else {
        None
    };
    Ok((
        BuildOutput {
            raw: None,
            expanded: None,
            expanded_text,
            lowered: None,
            verilog,
            netlist,
            netlist_from_cache: flags & OUT_NETLIST_CACHED != 0,
            stats,
        },
        r.pos(),
    ))
}

// ----------------------------------------------------------------- framing

/// Frame-level failures. [`FrameError::Closed`] is the clean end of a
/// connection; everything else means the peer (or the pipe) misbehaved.
#[derive(Debug)]
pub enum FrameError {
    /// The stream ended cleanly before a frame started.
    Closed,
    /// An I/O error (including mid-frame disconnects).
    Io(std::io::Error),
    /// The magic header is wrong — not a frame at all.
    BadMagic,
    /// The peer speaks a different protocol/artifact/serial revision.
    Version {
        /// The version salt found in the frame.
        found: u32,
    },
    /// The length prefix exceeds [`MAX_FRAME_LEN`].
    TooLarge(u32),
    /// The payload checksum does not match.
    Checksum,
    /// The payload failed to decode.
    Decode(DecodeError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::BadMagic => write!(f, "bad frame magic"),
            FrameError::Version { found } => write!(
                f,
                "frame version {found:#x} does not match {:#x}",
                wire_version()
            ),
            FrameError::TooLarge(n) => write!(f, "frame of {n} bytes exceeds {MAX_FRAME_LEN}"),
            FrameError::Checksum => write!(f, "frame checksum mismatch"),
            FrameError::Decode(e) => write!(f, "frame payload: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<DecodeError> for FrameError {
    fn from(e: DecodeError) -> Self {
        FrameError::Decode(e)
    }
}

/// Writes one frame: magic, version salt, length, payload, fnv64
/// checksum.
///
/// # Errors
///
/// Propagates I/O errors.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    let mut head = Vec::with_capacity(12);
    let mut h = Writer::new(&mut head);
    h.raw(&FRAME_MAGIC);
    h.u32(wire_version());
    h.u32(payload.len() as u32);
    w.write_all(&head)?;
    w.write_all(payload)?;
    w.write_all(&key::fnv64(&[payload]).to_le_bytes())?;
    w.flush()
}

/// Reads one frame, returning its payload.
///
/// # Errors
///
/// [`FrameError::Closed`] on a clean end-of-stream *before* any frame
/// byte; any other short read is an error — a peer must not vanish
/// mid-frame silently.
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    let mut head = [0u8; 12];
    // Distinguish "no next frame" (clean close) from "died mid-header".
    let mut got = 0;
    while got < head.len() {
        match r.read(&mut head[got..]) {
            Ok(0) if got == 0 => return Err(FrameError::Closed),
            Ok(0) => return Err(FrameError::Io(std::io::ErrorKind::UnexpectedEof.into())),
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(FrameError::Io(e)),
        }
    }
    let mut h = Reader::new(&head);
    match h.header(FRAME_MAGIC, wire_version()) {
        Ok(()) => {}
        Err(DecodeError::Version { found }) => return Err(FrameError::Version { found }),
        Err(_) => return Err(FrameError::BadMagic),
    }
    let len = h.u32()?;
    if len > MAX_FRAME_LEN {
        return Err(FrameError::TooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload).map_err(FrameError::Io)?;
    let mut check = [0u8; 8];
    r.read_exact(&mut check).map_err(FrameError::Io)?;
    if u64::from_le_bytes(check) != key::fnv64(&[&payload]) {
        return Err(FrameError::Checksum);
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_request() -> BuildRequest {
        BuildRequest::new("comp Main<G: 1>() -> () { }")
            .raw()
            .verilog()
            .netlist("Main")
            .jobs(3)
            .cache_dir("/tmp/cache")
            .cache_limit(1 << 20)
            .salt("std")
            .opt_level(2)
    }

    #[test]
    fn request_roundtrips() {
        let req = sample_request();
        let mut bytes = Vec::new();
        encode_request(&req, &mut bytes);
        let (back, used) = decode_request(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        let mut reenc = Vec::new();
        encode_request(&back, &mut reenc);
        assert_eq!(bytes, reenc, "decode is the inverse of encode");
        assert_eq!(back.source, req.source);
        assert_eq!(back.options.jobs, 3);
        assert_eq!(back.options.cache_dir, req.options.cache_dir);
        assert_eq!(back.options.cache_limit, Some(1 << 20));
        assert_eq!(back.want_netlist.as_deref(), Some("Main"));
        assert_eq!(back.options.opt_level, 2);
        assert!(back.want_raw && back.options.emit_expanded);
        assert!(back.want_lowered && back.want_verilog);
    }

    #[test]
    fn request_key_distinguishes_wants() {
        let a = BuildRequest::new("comp Main<G: 1>() -> () { }");
        let b = a.clone().verilog();
        assert_ne!(request_key(&a), request_key(&b));
        assert_eq!(request_key(&a), request_key(&a.clone()));
    }

    /// Requests differing only in `opt_level` must never share a daemon
    /// memo entry: the level is part of the canonical encoding, so the
    /// single-flight key separates them.
    #[test]
    fn request_key_distinguishes_opt_levels() {
        let base = BuildRequest::new("comp Main<G: 1>() -> () { }").verilog();
        let keys: Vec<_> = (0u8..=2)
            .map(|l| request_key(&base.clone().opt_level(l)))
            .collect();
        assert_ne!(keys[0], keys[1]);
        assert_ne!(keys[1], keys[2]);
        assert_ne!(keys[0], keys[2]);
    }

    /// A frame from a pre-`opt_level` peer (protocol v1) fails the
    /// version salt cleanly — never a mis-decode. And even with the frame
    /// check out of the way, a v1 *payload* (no trailing opt byte) decodes
    /// to `Truncated`, because the new field reads past its end.
    #[test]
    fn old_format_frames_are_rejected_cleanly() {
        let req = sample_request();
        let mut payload = Vec::new();
        encode_request(&req, &mut payload);

        // Frame stamped with the v1 wire version (same artifact/serial
        // revisions — only the protocol byte differs).
        let v1 = 1u32 | (crate::artifact::ARTIFACT_VERSION << 8) | (serial::FORMAT_VERSION << 16);
        assert_ne!(v1, wire_version(), "v2 bump must change the salt");
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        wire[4..8].copy_from_slice(&v1.to_le_bytes());
        match read_frame(&mut wire.as_slice()) {
            Err(FrameError::Version { found }) => assert_eq!(found, v1),
            other => panic!("expected a clean version error, got {other:?}"),
        }

        // Defense in depth: a v1 payload is one byte short for the v2
        // decoder and errors out instead of mis-decoding.
        let old_payload = &payload[..payload.len() - 1];
        assert!(matches!(
            decode_request(old_payload),
            Err(DecodeError::Truncated)
        ));

        // And an out-of-range level is rejected, not clamped.
        let mut bad = payload.clone();
        *bad.last_mut().unwrap() = 9;
        assert!(matches!(
            decode_request(&bad),
            Err(DecodeError::BadTag { what: "opt level", .. })
        ));
    }

    #[test]
    fn output_roundtrips_with_stats() {
        let stats = BuildStats {
            units: 7,
            cache_loads: 7,
            mono: filament_core::mono::MonoStats {
                commands_emitted: 99,
                ..Default::default()
            },
            phase: PhaseTimes {
                parse_us: 123,
                ..Default::default()
            },
            ..Default::default()
        };
        let output = BuildOutput {
            expanded_text: Some("comp Main<G: 1>() -> () { }\n".into()),
            verilog: Some("module Main();\nendmodule\n".into()),
            netlist_from_cache: true,
            stats,
            ..Default::default()
        };
        let mut bytes = Vec::new();
        encode_output(&output, &mut bytes);
        let (back, used) = decode_output(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(back.expanded_text, output.expanded_text);
        assert_eq!(back.verilog, output.verilog);
        assert!(back.netlist_from_cache);
        assert_eq!(back.stats.units, 7);
        assert_eq!(back.stats.cache_loads, 7);
        assert_eq!(back.stats.mono.commands_emitted, 99);
        assert_eq!(back.stats.phase.parse_us, 123);
        assert!(back.netlist.is_none());
    }

    #[test]
    fn output_carries_a_netlist() {
        let mut net = rtl_sim::Netlist::new("Main");
        let x = net.add_input("x", 4);
        let o = net.add_signal("o", 4);
        net.mark_output(o);
        net.connect(o, x);
        let output = BuildOutput {
            netlist: Some(Arc::new(net)),
            ..Default::default()
        };
        let mut bytes = Vec::new();
        encode_output(&output, &mut bytes);
        let (back, _) = decode_output(&bytes).unwrap();
        let back_net = back.netlist.expect("netlist crossed the wire");
        assert_eq!(back_net.name(), "Main");
        assert_eq!(back_net.signals().len(), 2);
        assert_eq!(back_net.assigns().len(), 1);
    }

    /// Pins the exact bytes of every payload encoding, as an FNV-64 digest
    /// of fixed samples. Roundtrip tests cannot see a change that encoder
    /// and decoder make together; this test does. A digest moves only with
    /// an intended layout change, which must also bump the matching
    /// version (see the salt-bump policy in `docs/ARCHITECTURE.md`).
    #[test]
    fn encodings_are_pinned_byte_for_byte() {
        let digest = |bytes: &[u8]| key::fnv64(&[bytes]);

        let mut req = Vec::new();
        encode_request(&sample_request(), &mut req);

        let mut net = rtl_sim::Netlist::new("Main");
        let x = net.add_input("x", 4);
        let en = net.add_input("en", 1);
        let q = net.add_signal("r.out", 4);
        let o = net.add_signal("o", 4);
        net.mark_output(o);
        net.add_cell(
            "r",
            rtl_sim::CellKind::Reg {
                width: 4,
                init: 1,
                has_en: true,
            },
            vec![en, x],
            vec![q],
        );
        net.connect_guarded(o, q, en);
        let output = BuildOutput {
            expanded_text: Some("comp Main<G: 1>() -> () { }\n".into()),
            verilog: Some("module Main();\nendmodule\n".into()),
            netlist: Some(Arc::new(net.clone())),
            netlist_from_cache: true,
            stats: BuildStats {
                units: 7,
                cache_loads: 3,
                session_cache_evictions: 2,
                mono: filament_core::mono::MonoStats {
                    commands_emitted: 99,
                    ..Default::default()
                },
                phase: PhaseTimes {
                    parse_us: 123,
                    opt_us: 45,
                    ..Default::default()
                },
                opt: crate::driver::OptStats {
                    level: 2,
                    pass_rewrites: [1, 2, 3, 4, 5],
                    ..Default::default()
                },
                ..Default::default()
            },
            ..Default::default()
        };
        let mut out = Vec::new();
        encode_output(&output, &mut out);

        let mut c = calyx_lite::Component::new("U_0123456789abcdef");
        c.add_input("x", 8);
        c.add_output("o", 8);
        c.add_primitive(
            "k",
            rtl_sim::CellKind::Const {
                value: fil_bits::Value::from_u64(8, 42),
            },
        );
        c.add_subcomponent("s", "Inner_8");
        // Every other cell kind, so each tag layout is pinned.
        use rtl_sim::CellKind as K;
        let kinds = [
            K::Add { width: 1 },
            K::Sub { width: 2 },
            K::MulComb { width: 3 },
            K::And { width: 4 },
            K::Or { width: 5 },
            K::Xor { width: 6 },
            K::Not { width: 7 },
            K::ShlDyn { width: 8 },
            K::ShrDyn { width: 9 },
            K::ShlConst {
                width: 10,
                amount: 2,
            },
            K::ShrConst {
                width: 11,
                amount: 3,
            },
            K::Eq { width: 12 },
            K::Lt { width: 13 },
            K::Ge { width: 14 },
            K::Mux { width: 15 },
            K::Slice {
                in_width: 16,
                hi: 7,
                lo: 1,
            },
            K::Concat {
                hi_width: 17,
                lo_width: 4,
            },
            K::ZeroExt {
                in_width: 18,
                out_width: 36,
            },
            K::ReduceOr { width: 19 },
            K::ReduceAnd { width: 20 },
            K::Clz { width: 21 },
            K::SBox,
            K::Reg {
                width: 22,
                init: 9,
                has_en: false,
            },
            K::ShiftFsm { n: 23 },
            K::MultSeq {
                width: 24,
                latency: 2,
            },
            K::MultPipe {
                width: 25,
                latency: 3,
            },
            K::Dsp48 {
                width: 26,
                use_c: true,
                use_pcin: false,
            },
        ];
        for (i, kind) in kinds.into_iter().enumerate() {
            c.add_primitive(format!("p{i}"), kind);
        }
        c.assign_guarded(
            calyx_lite::PortRef::this("o"),
            calyx_lite::Src::port(calyx_lite::PortRef::cell("k", "out")),
            calyx_lite::Guard::Any(vec![calyx_lite::PortRef::this("x")]),
        );
        let mut comp = Vec::new();
        serial::encode_component(&c, &mut comp);

        let mut netlist = Vec::new();
        serial::encode_netlist(&net, &mut netlist);

        let got = [
            ("encode_request", digest(&req)),
            ("encode_output", digest(&out)),
            ("encode_component", digest(&comp)),
            ("encode_netlist", digest(&netlist)),
        ];
        let want = [
            ("encode_request", 0x7d3ea7d7ed60ca4b),
            ("encode_output", 0xab69ac65e2dd12b5),
            ("encode_component", 0x20796330b3999eda),
            ("encode_netlist", 0xc41e1be35b5ca78a),
        ];
        assert_eq!(got, want, "a wire or serial layout changed");
    }

    #[test]
    fn frames_roundtrip_and_catch_tampering() {
        let payload = b"hello, farm".to_vec();
        let mut wire = Vec::new();
        write_frame(&mut wire, &payload).unwrap();
        assert_eq!(read_frame(&mut wire.as_slice()).unwrap(), payload);

        // Clean close before any byte.
        assert!(matches!(
            read_frame(&mut [].as_slice()),
            Err(FrameError::Closed)
        ));
        // Death mid-header and mid-payload are I/O errors, not Closed.
        for cut in [3, wire.len() - 4] {
            assert!(matches!(
                read_frame(&mut wire[..cut].to_vec().as_slice()),
                Err(FrameError::Io(_))
            ));
        }
        // Version skew fails loudly.
        let mut skew = wire.clone();
        skew[4] ^= 0xff;
        assert!(matches!(
            read_frame(&mut skew.as_slice()),
            Err(FrameError::Version { .. })
        ));
        // Payload corruption trips the checksum.
        let mut corrupt = wire.clone();
        corrupt[13] ^= 0x01;
        assert!(matches!(
            read_frame(&mut corrupt.as_slice()),
            Err(FrameError::Checksum)
        ));
        // Oversized length prefixes are rejected before allocation.
        let mut huge = wire.clone();
        huge[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut huge.as_slice()),
            Err(FrameError::TooLarge(_))
        ));
        let mut bad_magic = wire;
        bad_magic[0] = b'X';
        assert!(matches!(
            read_frame(&mut bad_magic.as_slice()),
            Err(FrameError::BadMagic)
        ));
    }

    #[test]
    fn truncated_payloads_never_panic() {
        let req = sample_request();
        let mut bytes = Vec::new();
        encode_request(&req, &mut bytes);
        for n in 0..bytes.len() {
            assert!(decode_request(&bytes[..n]).is_err());
        }
        let output = BuildOutput {
            expanded_text: Some("x".into()),
            ..Default::default()
        };
        let mut bytes = Vec::new();
        encode_output(&output, &mut bytes);
        for n in 0..bytes.len() {
            assert!(decode_output(&bytes[..n]).is_err());
        }
    }
}
