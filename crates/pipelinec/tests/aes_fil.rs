//! Lockstep tests of the Filament-source AES core (`pipelinec::aes_fil`,
//! generated by `fil_designs::aes_fil`) against this crate's software
//! model: reduced-round ciphers on random blocks and the full ten-round
//! FIPS-197 vector.

use fil_bits::Value;
use pipelinec::aes::{aes_golden, expand_key};
use pipelinec::aes_fil::{source, top_name};

/// Reduced-round golden model with the same conventions as
/// [`source`]: MixColumns on every round but the last.
fn golden_rounds(state: [u8; 16], round_keys: &[[u8; 16]]) -> [u8; 16] {
    const SBOX: [u8; 256] = rtl_sim::AES_SBOX;
    let xtime = |v: u8| -> u8 { (v << 1) ^ if v & 0x80 != 0 { 0x1b } else { 0 } };
    let mut s = state;
    for (round, rk) in round_keys.iter().enumerate() {
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
        let mixed = if round < round_keys.len() - 1 {
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
            s[i] = mixed[i] ^ rk[i];
        }
    }
    s
}

/// One transaction's flattened inputs: state bytes, then key bytes.
fn txn_inputs(state: [u8; 16], round_keys: &[[u8; 16]]) -> Vec<Value> {
    state
        .iter()
        .chain(round_keys.iter().flatten())
        .map(|&v| Value::from_u64(8, v as u64))
        .collect()
}

fn bytes_of(outs: &[Value]) -> [u8; 16] {
    std::array::from_fn(|i| outs[i].to_u64() as u8)
}

#[test]
fn reduced_rounds_match_the_software_model() {
    let mut rng = 0x05ee_dae5_u64;
    let mut next = move || {
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (rng >> 33) as u8
    };
    for rounds in [1usize, 2, 3] {
        let src = source(rounds as u32);
        let (netlist, spec) = fil_designs::build(&src, &top_name(rounds as u32)).expect("compiles");
        assert_eq!(spec.delay, 1, "one block per cycle");
        assert_eq!(spec.advertised_latency(), rounds as u64);
        let cases: Vec<([u8; 16], Vec<[u8; 16]>)> = (0..4)
            .map(|_| {
                let st: [u8; 16] = std::array::from_fn(|_| next());
                let rks: Vec<[u8; 16]> = (0..rounds)
                    .map(|_| std::array::from_fn(|_| next()))
                    .collect();
                (st, rks)
            })
            .collect();
        let inputs: Vec<Vec<Value>> = cases.iter().map(|(st, rks)| txn_inputs(*st, rks)).collect();
        let outs = fil_harness::run_pipelined(&netlist, &spec, &inputs).unwrap();
        for (i, (st, rks)) in cases.iter().enumerate() {
            assert_eq!(
                bytes_of(&outs[i]),
                golden_rounds(*st, rks),
                "rounds {rounds}, case {i}"
            );
        }
    }
}

#[test]
fn full_ten_rounds_encrypt_the_fips197_vector() {
    // FIPS-197 Appendix B (same vector as the netlist AES tests).
    let key: [u8; 16] = [
        0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf, 0x4f,
        0x3c,
    ];
    let plain: [u8; 16] = [
        0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37, 0x07,
        0x34,
    ];
    let cipher: [u8; 16] = [
        0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a, 0x0b,
        0x32,
    ];
    let (k0, rks) = expand_key(key);
    let whitened: [u8; 16] = std::array::from_fn(|i| plain[i] ^ k0[i]);
    let (netlist, spec) = fil_designs::build(&source(10), &top_name(10)).expect("compiles");
    assert_eq!(spec.advertised_latency(), 10);
    let outs = fil_harness::run_pipelined(&netlist, &spec, &[txn_inputs(whitened, &rks)]).unwrap();
    assert_eq!(bytes_of(&outs[0]), cipher);
    // The ten-round generator agrees with the full-AES golden model.
    assert_eq!(golden_rounds(whitened, &rks), aes_golden(whitened, &rks));
}
