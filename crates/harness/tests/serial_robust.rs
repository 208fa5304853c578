//! Decoding lowered components is safe on corrupt input.
//!
//! Every truncation and every single-byte XOR (by `0x01`, `0x80` and
//! `0xff`) of the encoded components of each corpus design, at `-O0` and
//! `-O2`, must decode to a `DecodeError` or to a component that
//! elaboration, Verilog emission and the optimizer take without
//! panicking. An out-of-range symbol is a `DecodeError`.

use calyx_lite::serial::{decode_component, encode_component, DecodeError};
use calyx_lite::{Component, Program};
use fil_build::fil_opt::{optimize_component, OptConfig};
use fil_stdlib::BuildRequest;

/// The lowered program of every corpus design at `level`.
fn corpus(level: u8) -> Vec<(String, Program)> {
    fil_designs::corpus()
        .into_iter()
        .map(|(name, src, _)| {
            let req = BuildRequest::new(&src)
                .lowered()
                .expanded(false)
                .opt_level(level);
            let out = fil_stdlib::build_with_registry(&req, &reticle::ReticleRegistry)
                .unwrap_or_else(|e| panic!("{name} -O{level}: {e}"));
            (name, out.lowered.expect("lowered was requested"))
        })
        .collect()
}

/// Elaborates `c` as the `k`th component of `program` (its old name
/// finds it), emits it and optimizes it; errors are fine, panics are not.
fn exercise(c: Component, program: &mut Program, k: usize) {
    let slot = &mut program.components_mut()[k];
    let name = slot.name.clone();
    let original = std::mem::replace(slot, c);
    let _ = program.elaborate(&name);
    let c = std::mem::replace(&mut program.components_mut()[k], original);
    let mut alone = Program::new();
    alone.add_component(c);
    let _ = calyx_lite::emit_program(&alone);
    let _ = optimize_component(&mut alone.components_mut()[0], &OptConfig::level(2));
}

#[test]
fn corrupt_components_decode_to_errors_or_usable_components() {
    let (mut cases, mut decoded) = (0u64, 0u64);
    for level in [0, 2] {
        for (name, mut program) in corpus(level) {
            for k in 0..program.components().len() {
                let comp = &program.components()[k];
                let mut bytes = Vec::new();
                encode_component(comp, &mut bytes);
                let (back, used) = decode_component(&bytes).expect("a clean encoding decodes");
                assert_eq!(used, bytes.len(), "{name}/{}", comp.name);
                let mut again = Vec::new();
                encode_component(&back, &mut again);
                assert_eq!(again, bytes, "{name}/{}: decode inverts encode", comp.name);
                for n in 0..bytes.len() {
                    assert!(decode_component(&bytes[..n]).is_err(), "{name}: {n} bytes");
                }
                for i in 0..bytes.len() {
                    for flip in [0x01u8, 0x80, 0xff] {
                        let mut bad = bytes.clone();
                        bad[i] ^= flip;
                        cases += 1;
                        if let Ok((c, _)) = decode_component(&bad) {
                            decoded += 1;
                            exercise(c, &mut program, k);
                        }
                    }
                }
            }
        }
    }
    assert!(
        cases > 0 && decoded > 0,
        "{decoded} of {cases} corruptions decoded"
    );
}

#[test]
fn an_out_of_range_symbol_is_a_decode_error() {
    let mut c = Component::new("Main");
    c.add_input("x", 8);
    c.add_output("o", 8);
    c.assign("o", "x");
    let mut bytes = Vec::new();
    encode_component(&c, &mut bytes);
    assert!(decode_component(&bytes).is_ok());
    // The assignment ends the encoding: its destination (cell, port), the
    // source's tag and (cell, port), then the guard's tag.
    let n = bytes.len();
    for (at, sym) in [(n - 5, 2u32), (n - 9, 7), (n - 14, u32::MAX - 1)] {
        let mut bad = bytes.clone();
        bad[at..at + 4].copy_from_slice(&sym.to_le_bytes());
        assert_eq!(
            decode_component(&bad).unwrap_err(),
            DecodeError::Invalid("symbol"),
            "symbol {sym} at byte {at}"
        );
    }
}
