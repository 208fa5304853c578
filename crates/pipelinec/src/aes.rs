//! Gate-level AES-128 encryption, the second PipelineC import (App. B.2).
//!
//! The paper's imported module takes a 128-bit state and a 1280-bit
//! pre-expanded key bus and produces the ciphertext 18 cycles later. The
//! 1280 bits are round keys K1…K10; the initial whitening key K0 is
//! applied by the caller (`state_words = plaintext ⊕ K0`), matching the
//! 10-round structure the bus width implies.
//!
//! The combinational core is built from S-box lookup cells, xtime
//! (GF(2⁸) ×2) networks, and XOR trees — roughly 1500 cells — then
//! [`crate::auto_pipeline`]d into the paper's 18 stages.

use crate::auto_pipeline;
use fil_bits::Value;
use rtl_sim::{CellKind, Netlist, SignalId};

struct Gen {
    n: Netlist,
    fresh: u32,
}

impl Gen {
    fn cell1(&mut self, name: &str, kind: CellKind, inputs: Vec<SignalId>) -> SignalId {
        let w = kind.output_widths()[0];
        self.fresh += 1;
        let out = self.n.add_signal(format!("{name}${}", self.fresh), w);
        self.n
            .add_cell(format!("{name}_c${}", self.fresh), kind, inputs, vec![out]);
        out
    }

    fn xor(&mut self, a: SignalId, b: SignalId) -> SignalId {
        self.cell1("xor", CellKind::Xor { width: 8 }, vec![a, b])
    }

    fn sbox(&mut self, a: SignalId) -> SignalId {
        self.cell1("sbox", CellKind::SBox, vec![a])
    }

    /// GF(2⁸) ×2: `(a << 1) ⊕ (a[7] ? 0x1b : 0)`.
    fn xtime(&mut self, a: SignalId) -> SignalId {
        let shifted = self.cell1(
            "xt_shl",
            CellKind::ShlConst {
                width: 8,
                amount: 1,
            },
            vec![a],
        );
        let msb = self.cell1(
            "xt_msb",
            CellKind::Slice {
                in_width: 8,
                hi: 7,
                lo: 7,
            },
            vec![a],
        );
        self.fresh += 1;
        let poly = self.n.add_signal(format!("xt_poly${}", self.fresh), 8);
        self.n.add_cell(
            format!("xt_poly_c${}", self.fresh),
            CellKind::Const {
                value: Value::from_u64(8, 0x1b),
            },
            vec![],
            vec![poly],
        );
        self.fresh += 1;
        let zero = self.n.add_signal(format!("xt_zero${}", self.fresh), 8);
        self.n.add_cell(
            format!("xt_zero_c${}", self.fresh),
            CellKind::Const {
                value: Value::zero(8),
            },
            vec![],
            vec![zero],
        );
        let red = self.cell1("xt_mux", CellKind::Mux { width: 8 }, vec![msb, zero, poly]);
        self.xor(shifted, red)
    }
}

/// Builds the *combinational* AES-128 core (state, K1…K10 → ciphertext).
pub fn aes_comb_netlist() -> Netlist {
    let mut g = Gen {
        n: Netlist::new("aes"),
        fresh: 0,
    };
    let state_in = g.n.add_input("state_words", 128);
    let keys = g.n.add_input("keys", 1280);

    // State as 16 byte signals; byte i occupies bits [8i, 8i+8).
    let mut state: Vec<SignalId> = (0..16)
        .map(|i| {
            g.cell1(
                "unpack",
                CellKind::Slice {
                    in_width: 128,
                    hi: 8 * i + 7,
                    lo: 8 * i,
                },
                vec![state_in],
            )
        })
        .collect();
    let round_key_byte = |g: &mut Gen, round: u32, byte: u32| {
        let base = 128 * round + 8 * byte;
        g.cell1(
            "key",
            CellKind::Slice {
                in_width: 1280,
                hi: base + 7,
                lo: base,
            },
            vec![keys],
        )
    };

    for round in 0..10u32 {
        // SubBytes.
        let subbed: Vec<SignalId> = state.iter().map(|&b| g.sbox(b)).collect();
        // ShiftRows: s'[r + 4c] = s[r + 4((c + r) mod 4)].
        let mut shifted = vec![subbed[0]; 16];
        for r in 0..4usize {
            for c in 0..4usize {
                shifted[r + 4 * c] = subbed[r + 4 * ((c + r) % 4)];
            }
        }
        // MixColumns (all but the final round).
        let mixed: Vec<SignalId> = if round < 9 {
            let mut out = vec![shifted[0]; 16];
            for c in 0..4usize {
                let a: Vec<SignalId> = (0..4).map(|r| shifted[r + 4 * c]).collect();
                let x2: Vec<SignalId> = a.iter().map(|&v| g.xtime(v)).collect();
                let x3: Vec<SignalId> = (0..4).map(|i| g.xor(x2[i], a[i])).collect();
                let mix = |g: &mut Gen, p: SignalId, q: SignalId, r: SignalId, s: SignalId| {
                    let t1 = g.xor(p, q);
                    let t2 = g.xor(r, s);
                    g.xor(t1, t2)
                };
                out[4 * c] = mix(&mut g, x2[0], x3[1], a[2], a[3]);
                out[1 + 4 * c] = mix(&mut g, a[0], x2[1], x3[2], a[3]);
                out[2 + 4 * c] = mix(&mut g, a[0], a[1], x2[2], x3[3]);
                out[3 + 4 * c] = mix(&mut g, x3[0], a[1], a[2], x2[3]);
            }
            out
        } else {
            shifted
        };
        // AddRoundKey with K(round+1).
        state = (0..16)
            .map(|i| {
                let k = round_key_byte(&mut g, round, i as u32);
                g.xor(mixed[i], k)
            })
            .collect();
    }

    // Pack the ciphertext.
    let mut packed = state[0];
    let mut w = 8;
    for &b in &state[1..] {
        packed = g.cell1(
            "pack",
            CellKind::Concat {
                hi_width: 8,
                lo_width: w,
            },
            vec![b, packed],
        );
        w += 8;
    }
    let out = g.n.add_signal("out_words", 128);
    g.n.connect(out, packed);
    g.n.mark_output(out);
    g.n
}

/// The pipelined AES module at the paper's latency 18.
pub fn aes_netlist() -> Netlist {
    auto_pipeline(&aes_comb_netlist(), 18)
}

/// Software golden model with the same interface: 10 rounds over explicit
/// round keys (the caller pre-applies K0).
pub fn aes_golden(state: [u8; 16], round_keys: &[[u8; 16]; 10]) -> [u8; 16] {
    const SBOX: [u8; 256] = rtl_sim::AES_SBOX;
    let xtime = |b: u8| -> u8 { (b << 1) ^ if b & 0x80 != 0 { 0x1b } else { 0 } };
    let mut s = state;
    for (round, round_key) in round_keys.iter().enumerate() {
        let mut t = [0u8; 16];
        for i in 0..16 {
            t[i] = SBOX[s[i] as usize];
        }
        let mut sh = [0u8; 16];
        for r in 0..4 {
            for c in 0..4 {
                sh[r + 4 * c] = t[r + 4 * ((c + r) % 4)];
            }
        }
        let mixed = if round < 9 {
            let mut m = [0u8; 16];
            for c in 0..4 {
                let a: [u8; 4] = std::array::from_fn(|r| sh[r + 4 * c]);
                let x2: [u8; 4] = std::array::from_fn(|i| xtime(a[i]));
                let x3: [u8; 4] = std::array::from_fn(|i| x2[i] ^ a[i]);
                m[4 * c] = x2[0] ^ x3[1] ^ a[2] ^ a[3];
                m[1 + 4 * c] = a[0] ^ x2[1] ^ x3[2] ^ a[3];
                m[2 + 4 * c] = a[0] ^ a[1] ^ x2[2] ^ x3[3];
                m[3 + 4 * c] = x3[0] ^ a[1] ^ a[2] ^ x2[3];
            }
            m
        } else {
            sh
        };
        for i in 0..16 {
            s[i] = mixed[i] ^ round_key[i];
        }
    }
    s
}

/// FIPS-197 key expansion for AES-128: the cipher key expands to K0…K10;
/// returns (K0, [K1…K10]) in the module's interface split.
pub fn expand_key(key: [u8; 16]) -> ([u8; 16], [[u8; 16]; 10]) {
    const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];
    let mut words: Vec<[u8; 4]> = (0..4)
        .map(|i| [key[4 * i], key[4 * i + 1], key[4 * i + 2], key[4 * i + 3]])
        .collect();
    for i in 4..44 {
        let mut temp = words[i - 1];
        if i % 4 == 0 {
            temp.rotate_left(1);
            for b in &mut temp {
                *b = rtl_sim::AES_SBOX[*b as usize];
            }
            temp[0] ^= RCON[i / 4 - 1];
        }
        let prev = words[i - 4];
        words.push(std::array::from_fn(|j| prev[j] ^ temp[j]));
    }
    let key_of = |r: usize| -> [u8; 16] { std::array::from_fn(|i| words[4 * r + i / 4][i % 4]) };
    let k0 = key_of(0);
    let rest = std::array::from_fn(|r| key_of(r + 1));
    (k0, rest)
}

/// Packs 16 bytes into a 128-bit value (byte 0 in the low bits).
pub fn pack_block(block: [u8; 16]) -> Value {
    let mut v = Value::zero(128);
    for (i, &b) in block.iter().enumerate() {
        v = v.or(&Value::from_u64(8, b as u64).resize(128).shl(8 * i as u32));
    }
    v
}

/// Unpacks a 128-bit value into bytes.
pub fn unpack_block(v: &Value) -> [u8; 16] {
    std::array::from_fn(|i| v.slice(8 * i as u32 + 7, 8 * i as u32).to_u64() as u8)
}

/// Packs K1…K10 into the 1280-bit key bus.
pub fn pack_keys(round_keys: &[[u8; 16]; 10]) -> Value {
    let mut v = Value::zero(1280);
    for (r, key) in round_keys.iter().enumerate() {
        for (i, &b) in key.iter().enumerate() {
            let off = 128 * r + 8 * i;
            v = v.or(&Value::from_u64(8, b as u64).resize(1280).shl(off as u32));
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use fil_harness::{InterfaceSpec, PortSpec};

    /// FIPS-197 Appendix B: key and plaintext with known ciphertext.
    const KEY: [u8; 16] = [
        0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f,
        0x3c,
    ];
    const PLAIN: [u8; 16] = [
        0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07,
        0x34,
    ];
    const CIPHER: [u8; 16] = [
        0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a, 0x0b,
        0x32,
    ];

    fn whiten(block: [u8; 16], k0: [u8; 16]) -> [u8; 16] {
        std::array::from_fn(|i| block[i] ^ k0[i])
    }

    #[test]
    fn golden_matches_fips197_vector() {
        let (k0, rks) = expand_key(KEY);
        let out = aes_golden(whiten(PLAIN, k0), &rks);
        assert_eq!(out, CIPHER);
    }

    #[test]
    fn combinational_core_encrypts_fips_vector() {
        let n = aes_comb_netlist();
        let (k0, rks) = expand_key(KEY);
        let mut sim = rtl_sim::Sim::new(&n).unwrap();
        sim.poke_by_name("state_words", pack_block(whiten(PLAIN, k0)));
        sim.poke_by_name("keys", pack_keys(&rks));
        sim.settle().unwrap();
        let out = unpack_block(&sim.peek_by_name("out_words"));
        assert_eq!(out, CIPHER);
    }

    #[test]
    fn pipelined_aes_has_latency_18_and_streams() {
        let n = aes_netlist();
        let spec = InterfaceSpec {
            name: "AES".into(),
            go: None,
            delay: 1,
            inputs: vec![
                PortSpec::new("state_words", 128, 0, 1),
                PortSpec::new("keys", 1280, 0, 1),
            ],
            outputs: vec![PortSpec::new("out_words$out", 128, 18, 19)],
        };
        let (k0, rks) = expand_key(KEY);
        let keybus = pack_keys(&rks);
        // Three blocks back to back, one per cycle.
        let blocks: Vec<[u8; 16]> = vec![
            whiten(PLAIN, k0),
            whiten([0u8; 16], k0),
            whiten(std::array::from_fn(|i| i as u8), k0),
        ];
        let inputs: Vec<Vec<Value>> = blocks
            .iter()
            .map(|b| vec![pack_block(*b), keybus.clone()])
            .collect();
        let outs = fil_harness::run_pipelined(&n, &spec, &inputs).unwrap();
        for (i, b) in blocks.iter().enumerate() {
            assert_eq!(unpack_block(&outs[i][0]), aes_golden(*b, &rks), "block {i}");
        }
        assert_eq!(unpack_block(&outs[0][0]), CIPHER);
    }

    #[test]
    fn pack_unpack_round_trip() {
        let block: [u8; 16] = std::array::from_fn(|i| (i * 17) as u8);
        assert_eq!(unpack_block(&pack_block(block)), block);
    }
}
