//! The imported AES netlist, whose state and key buses are 128 and 1280
//! bits wide, runs batched: 128 lanes, each with its own key and blocks,
//! every lane matching `aes_golden`.

use pipelinec::aes::{aes_golden, aes_netlist, expand_key, pack_block, pack_keys, unpack_block};
use rtl_sim::BatchSim;

const LANES: u32 = 128;
/// Cycles from a block's input to its output (the PipelineC pipeline).
const LATENCY: u64 = 18;
/// Blocks streamed back to back into every lane.
const BLOCKS: u64 = 3;

/// 16 bytes of splitmix64 noise for (lane, salt).
fn bytes(lane: u32, salt: u64) -> [u8; 16] {
    let mut x = u64::from(lane).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
    std::array::from_fn(|_| {
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) as u8
    })
}

#[test]
fn aes_runs_128_lanes_each_with_its_own_key() {
    let n = aes_netlist();
    let state = n.signal_by_name("state_words").unwrap();
    let keys = n.signal_by_name("keys").unwrap();
    let out = n.signal_by_name("out_words$out").unwrap();
    let round_keys: Vec<_> = (0..LANES).map(|l| expand_key(bytes(l, 1)).1).collect();
    let block = |l: u32, t: u64| bytes(l, 100 + t);
    let mut sim = BatchSim::new(&n, LANES).unwrap();
    for t in 0..=LATENCY + BLOCKS {
        for l in 0..LANES {
            // Blocks go in during cycles 0..BLOCKS; later cycles carry
            // other keys and blocks, which must not disturb the stream.
            let rks = if t < BLOCKS {
                round_keys[l as usize]
            } else {
                expand_key(bytes(l, 7 + t)).1
            };
            sim.poke(state, l, pack_block(block(l, t)));
            sim.poke(keys, l, pack_keys(&rks));
        }
        sim.settle().unwrap();
        if let Some(k) = t.checked_sub(LATENCY).filter(|&k| k < BLOCKS) {
            for l in 0..LANES {
                let want = aes_golden(block(l, k), &round_keys[l as usize]);
                let got = unpack_block(&sim.peek(out, l));
                assert_eq!(got, want, "lane {l}, block {k}");
            }
        }
        sim.tick().unwrap();
    }
}
