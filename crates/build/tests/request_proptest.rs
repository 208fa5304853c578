//! Property tests over the `fil_build::request` wire format.
//!
//! PR 8 added hand-written abuse cases for the frame codec; these extend
//! them generatively: random byte mutations of a *valid* encoded frame
//! must surface as a `FrameError` — never a panic, and never a silently
//! accepted wrong payload — and the structured request/output encodings
//! must round-trip and reject arbitrary garbage without panicking.

use fil_build::request::{
    decode_output, decode_request, encode_request, read_frame, request_key, write_frame, FrameError,
};
use fil_build::{BuildOptions, BuildRequest};
use proptest::prelude::*;
use std::path::PathBuf;

/// Encodes `payload` as one complete frame.
fn frame_bytes(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    write_frame(&mut out, payload).expect("Vec writes cannot fail");
    out
}

/// A randomized but well-formed [`BuildRequest`] (the trace sink never
/// crosses the wire, so it stays `None`). One parameter per fuzzed wire
/// field, so the arg count tracks the encoding.
#[allow(clippy::too_many_arguments)]
fn request_from(
    source: String,
    jobs: u32,
    cache_dir: Option<String>,
    cache_limit: Option<u64>,
    salt: String,
    flags: u8,
    netlist: Option<String>,
    opt_level: u8,
) -> BuildRequest {
    BuildRequest {
        source,
        want_raw: flags & 1 != 0,
        want_lowered: flags & 4 != 0,
        want_verilog: flags & 8 != 0,
        want_netlist: netlist,
        options: BuildOptions {
            jobs: jobs as usize,
            cache_dir: cache_dir.map(PathBuf::from),
            salt,
            emit_expanded: flags & 2 != 0,
            cache_limit,
            opt_level,
            trace: None,
        },
    }
}

proptest! {
    /// A frame written whole reads back byte-identical.
    #[test]
    fn frame_round_trips(payload in prop::collection::vec(any::<u8>(), 0..512)) {
        let bytes = frame_bytes(&payload);
        let got = read_frame(&mut bytes.as_slice()).expect("clean frame reads");
        prop_assert_eq!(got, payload);
    }

    /// Any single-byte corruption of a valid frame is *detected*: the
    /// header fields fail their magic/version/length checks and payload
    /// or checksum damage fails the fnv64 check. No panic, and no
    /// mis-accepted payload.
    #[test]
    fn mutated_frame_is_rejected(
        payload in prop::collection::vec(any::<u8>(), 0..256),
        pos in any::<u16>(),
        mask in 1u8..=255,
    ) {
        let mut bytes = frame_bytes(&payload);
        let pos = pos as usize % bytes.len();
        bytes[pos] ^= mask;
        match read_frame(&mut bytes.as_slice()) {
            Err(_) => {}
            Ok(got) => {
                // A length-field flip that still checksums out can only
                // happen on an fnv64 collision; accepting a *different*
                // payload would be a real mis-accept.
                prop_assert!(
                    false,
                    "mutation at byte {} accepted: {} -> {} bytes",
                    pos,
                    payload.len(),
                    got.len()
                );
            }
        }
    }

    /// Truncating a frame anywhere — mid-header, mid-payload, or inside
    /// the trailing checksum — errors instead of blocking or panicking.
    /// The empty prefix is the one clean case: `Closed`, the "no next
    /// frame" signal the daemon loop relies on.
    #[test]
    fn truncated_frame_errors(
        payload in prop::collection::vec(any::<u8>(), 0..256),
        cut in any::<u16>(),
    ) {
        let bytes = frame_bytes(&payload);
        let cut = cut as usize % bytes.len();
        let err = read_frame(&mut &bytes[..cut]).expect_err("truncated frame must not parse");
        if cut == 0 {
            prop_assert!(matches!(err, FrameError::Closed), "empty stream: {err}");
        } else {
            prop_assert!(
                matches!(err, FrameError::Io(_)),
                "cut at {cut} of {}: {err}",
                bytes.len()
            );
        }
    }

    /// `decode_request` on arbitrary bytes returns `Ok` or `Err`; it
    /// never panics, and whatever it does accept re-encodes canonically
    /// (decode ∘ encode ∘ decode is stable).
    #[test]
    fn decode_request_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        if let Ok((req, used)) = decode_request(&bytes) {
            prop_assert!(used <= bytes.len());
            let mut re = Vec::new();
            encode_request(&req, &mut re);
            let (again, _) = decode_request(&re).expect("canonical re-encode decodes");
            prop_assert_eq!(request_key(&req), request_key(&again));
        }
    }

    /// Same guarantee for the response payload decoder.
    #[test]
    fn decode_output_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_output(&bytes);
    }

    /// Structured requests round-trip through the wire encoding with
    /// every field intact, and equal requests hash to equal
    /// single-flight keys.
    #[test]
    fn request_round_trips(
        source in "\\PC*",
        jobs in 0u32..64,
        cache_dir in prop::sample::select(vec![None, Some("/tmp/fz-cache"), Some("rel/cache")]),
        limit_tag in 0u8..2,
        limit in any::<u64>(),
        salt in prop::sample::select(vec!["", "std", "fuzz-salt"]),
        flags in 0u8..16,
        netlist in prop::sample::select(vec![None, Some("Main"), Some("FzTop")]),
        opt_level in 0u8..=2,
    ) {
        let req = request_from(
            source,
            jobs,
            cache_dir.map(str::to_owned),
            (limit_tag == 1).then_some(limit),
            salt.to_owned(),
            flags,
            netlist.map(str::to_owned),
            opt_level,
        );
        let mut bytes = Vec::new();
        encode_request(&req, &mut bytes);
        let (back, used) = decode_request(&bytes).expect("own encoding decodes");
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(&back.source, &req.source);
        prop_assert_eq!(back.options.jobs, req.options.jobs);
        prop_assert_eq!(&back.options.cache_dir, &req.options.cache_dir);
        prop_assert_eq!(back.options.cache_limit, req.options.cache_limit);
        prop_assert_eq!(&back.options.salt, &req.options.salt);
        prop_assert_eq!(back.want_raw, req.want_raw);
        prop_assert_eq!(back.options.emit_expanded, req.options.emit_expanded);
        prop_assert_eq!(back.want_lowered, req.want_lowered);
        prop_assert_eq!(back.want_verilog, req.want_verilog);
        prop_assert_eq!(&back.want_netlist, &req.want_netlist);
        prop_assert_eq!(back.options.opt_level, req.options.opt_level);
        prop_assert_eq!(request_key(&back), request_key(&req));
    }

    /// Corrupting the *payload* (not the frame) and re-framing it hits
    /// the structured decoder, which must reject or accept without
    /// panicking — the checksum no longer protects it.
    #[test]
    fn mutated_request_payload_never_panics(
        source in "\\PC*",
        pos in any::<u16>(),
        mask in 1u8..=255,
    ) {
        let mut bytes = Vec::new();
        encode_request(&BuildRequest::new(source), &mut bytes);
        let pos = pos as usize % bytes.len();
        bytes[pos] ^= mask;
        let framed = frame_bytes(&bytes);
        let payload = read_frame(&mut framed.as_slice()).expect("fresh frame reads");
        let _ = decode_request(&payload);
    }
}
