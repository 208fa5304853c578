//! The on-disk artifact format for compiled units.
//!
//! One artifact file per `(component, params)` unit, named by its content
//! hash (see [`crate::key`]), holding everything a later session needs to
//! skip that unit's expand/check/lower work entirely:
//!
//! ```text
//! +--------+---------+----------------------------------------------+-------+
//! | "FILB" | version |                   payload                    | fnv64 |
//! +--------+---------+----------------------------------------------+-------+
//!                     payload :=
//!                       self unit      (component name, param values)
//!                       dep units      (count, then name + values each)
//!                       expanded AST   (the concrete component in the
//!                                       [`crate::ast_bin`] encoding,
//!                                       callee references as
//!                                       content-addressed placeholders)
//!                       lowered half?  (calyx-lite binary Component +
//!                                       structural extern components)
//! ```
//!
//! Everything is written and read through [`calyx_lite::serial`]'s shared
//! [`Writer`]/[`Reader`]. Robustness contract: [`decode`] never panics and
//! validates the magic, version, trailing checksum, and every length
//! prefix, so truncated, bit-flipped, or version-skewed files are reported
//! as unusable and the driver falls back to a clean rebuild — a poisoned
//! cache can cost time, never correctness.

use crate::key::fnv64;
use calyx_lite as cl;
use calyx_lite::serial::{DecodeError, Reader, Writer};

/// Bump when anything about this layout (or the meaning of the cached
/// content) changes; it also feeds the unit content hash, so stale-format
/// artifacts are doubly unreachable.
///
/// v2: the pretty-printed expanded text is gone; the [`crate::ast_bin`]
/// encoding is the one stored form of the expanded component.
/// v3: lowered components carry a symbol table, and every reference is a
/// `u32` symbol into it (`calyx_lite::serial::FORMAT_VERSION` 2).
pub const ARTIFACT_VERSION: u32 = 3;

const MAGIC: [u8; 4] = *b"FILB";

/// Longest artifact the decoder will even look at (a corrupted length can
/// not cause unbounded allocation anywhere below).
const MAX_REASONABLE: usize = 1 << 30;

/// A decoded artifact, exactly as stored.
#[derive(Debug)]
pub struct Artifact {
    /// Source component name of the unit.
    pub component: String,
    /// Resolved parameter vector (derived parameters included).
    pub values: Vec<u64>,
    /// Direct dependencies, in first-encounter (body) order.
    pub deps: Vec<(String, Vec<u64>)>,
    /// The expanded component (placeholder callee names) in the
    /// [`crate::ast_bin`] encoding.
    pub expanded_ast: Vec<u8>,
    /// Lowered component plus structural extern implementations, when the
    /// artifact was produced by a full build (expand-only artifacts omit
    /// it).
    pub lowered: Option<(cl::Component, Vec<cl::Component>)>,
}

/// Encodes an artifact into its on-disk byte representation.
pub fn encode(a: &Artifact) -> Vec<u8> {
    let mut out = Vec::new();
    let mut w = Writer::new(&mut out);
    w.raw(&MAGIC);
    w.u32(ARTIFACT_VERSION);
    let payload_start = w.out().len();
    w.str(&a.component);
    put_values(&mut w, &a.values);
    w.u32(a.deps.len() as u32);
    for (name, values) in &a.deps {
        w.str(name);
        put_values(&mut w, values);
    }
    w.u32(a.expanded_ast.len() as u32);
    w.raw(&a.expanded_ast);
    match &a.lowered {
        None => w.u8(0),
        Some((component, structural)) => {
            w.u8(1);
            cl::encode_component(component, w.out());
            w.u32(structural.len() as u32);
            for s in structural {
                cl::encode_component(s, w.out());
            }
        }
    }
    let sum = fnv64(&[&out[payload_start..]]);
    Writer::new(&mut out).u64(sum);
    out
}

/// Decodes an artifact, validating magic, version, checksum, and every
/// length. Any failure means "unusable — rebuild".
///
/// # Errors
///
/// Returns the first validation failure.
pub fn decode(bytes: &[u8]) -> Result<Artifact, DecodeError> {
    if bytes.len() > MAX_REASONABLE {
        return Err(DecodeError::Invalid("artifact size"));
    }
    let mut r = Reader::new(bytes);
    r.header(MAGIC, ARTIFACT_VERSION)?;
    // Everything but the trailing 8-byte checksum.
    let payload_len = r.rest().len().checked_sub(8);
    let payload = r.take(payload_len.ok_or(DecodeError::Truncated)?)?;
    if fnv64(&[payload]) != r.u64()? {
        return Err(DecodeError::Invalid("checksum"));
    }
    let mut r = Reader::new(payload);
    let component = r.str()?;
    let values = get_values(&mut r)?;
    let ndeps = r.count(5)?;
    let mut deps = Vec::with_capacity(ndeps);
    for _ in 0..ndeps {
        deps.push((r.str()?, get_values(&mut r)?));
    }
    let n = r.count(1)?;
    let expanded_ast = r.take(n)?.to_vec();
    let lowered = match r.u8()? {
        0 => None,
        1 => {
            let (component, used) = cl::decode_component(r.rest())?;
            r.take(used)?;
            let n = r.count(9)?;
            let mut structural = Vec::with_capacity(n);
            for _ in 0..n {
                let (s, used) = cl::decode_component(r.rest())?;
                r.take(used)?;
                structural.push(s);
            }
            Some((component, structural))
        }
        tag => {
            return Err(DecodeError::BadTag {
                what: "lowered",
                tag,
            })
        }
    };
    if !r.rest().is_empty() {
        return Err(DecodeError::Invalid("trailing bytes"));
    }
    Ok(Artifact {
        component,
        values,
        deps,
        expanded_ast,
        lowered,
    })
}

fn put_values(w: &mut Writer<'_>, values: &[u64]) {
    w.u32(values.len() as u32);
    for &v in values {
        w.u64(v);
    }
}

fn get_values(r: &mut Reader<'_>) -> Result<Vec<u64>, DecodeError> {
    let n = r.count(8)?;
    (0..n).map(|_| r.u64()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Artifact {
        let mut c = cl::Component::new("U_0123456789abcdef");
        c.add_input("x", 8);
        c.add_output("o", 8);
        c.assign("o", "x");
        Artifact {
            component: "Systolic".into(),
            values: vec![8, 32, 64],
            deps: vec![("Process".into(), vec![32]), ("Acc".into(), vec![])],
            expanded_ast: vec![1, 2, 3, 4],
            lowered: Some((c, Vec::new())),
        }
    }

    #[test]
    fn roundtrips() {
        let a = sample();
        let bytes = encode(&a);
        let b = decode(&bytes).unwrap();
        assert_eq!(b.component, a.component);
        assert_eq!(b.values, a.values);
        assert_eq!(b.deps, a.deps);
        assert_eq!(b.expanded_ast, a.expanded_ast);
        assert!(b.lowered.is_some());
        // Deterministic bytes.
        assert_eq!(bytes, encode(&a));
    }

    #[test]
    fn any_truncation_or_flip_is_rejected_or_decodes_cleanly() {
        let bytes = encode(&sample());
        for n in 0..bytes.len() {
            assert!(decode(&bytes[..n]).is_err(), "prefix {n} decoded");
        }
        // A checksum protects the payload: any single-bit flip inside it is
        // caught (flips in the checksum itself are caught by the mismatch).
        for i in 8..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(decode(&bad).is_err(), "flip at {i} decoded");
        }
    }

    #[test]
    fn version_bump_is_a_clean_miss() {
        let mut bytes = encode(&sample());
        bytes[4] = bytes[4].wrapping_add(1);
        assert!(matches!(
            decode(&bytes).unwrap_err(),
            DecodeError::Version { .. }
        ));
    }
}
