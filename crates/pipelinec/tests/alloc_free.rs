//! The AES netlist's 128- and 1280-bit signals settle and tick without a
//! heap allocation per cycle, at one lane and at 128.
//!
//! A counting global allocator wraps the system allocator. Only `settle`
//! and `tick` are counted: poking and peeking a wide signal passes an
//! owned `Value`, whose limbs live on the heap.

use fil_bits::Value;
use pipelinec::aes::{aes_netlist, expand_key, pack_block, pack_keys};
use rtl_sim::{BatchSim, Netlist, SignalId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static LOCAL_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Allocations observed on the calling thread.
fn thread_allocs() -> u64 {
    LOCAL_ALLOCS.with(Cell::get)
}

fn bump() {
    // `try_with` keeps the allocator total during TLS teardown.
    let _ = LOCAL_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Per-lane stimulus for cycle `t`: a block and a key bus.
fn stim(lane: u32, t: u64) -> (Value, Value) {
    let b = |salt: u64| -> [u8; 16] {
        std::array::from_fn(|i| (u64::from(lane) * 31 + t * 7 + salt + i as u64 * 13) as u8)
    };
    (pack_block(b(0)), pack_keys(&expand_key(b(99)).1))
}

/// Runs `lanes` lanes of AES for 40 cycles and returns the allocations
/// made inside `settle` and `tick` after the first two cycles.
fn settle_tick_allocs(n: &Netlist, lanes: u32) -> u64 {
    let id = |name: &str| -> SignalId { n.signal_by_name(name).unwrap() };
    let (state, keys) = (id("state_words"), id("keys"));
    let mut sim = BatchSim::new(n, lanes).unwrap();
    let mut counted = 0;
    for t in 0..40u64 {
        for l in 0..lanes {
            let (s, k) = stim(l, t);
            sim.poke(state, l, s);
            sim.poke(keys, l, k);
        }
        let before = thread_allocs();
        sim.settle().unwrap();
        sim.tick().unwrap();
        if t >= 2 {
            counted += thread_allocs() - before;
        }
    }
    counted
}

#[test]
fn aes_settles_and_ticks_without_allocating_at_one_lane() {
    let n = aes_netlist();
    assert_eq!(settle_tick_allocs(&n, 1), 0);
    // The scalar face is the same engine at one lane.
    let mut sim = rtl_sim::Sim::new(&n).unwrap();
    let (state, keys) = (
        n.signal_by_name("state_words").unwrap(),
        n.signal_by_name("keys").unwrap(),
    );
    let mut counted = 0;
    for t in 0..40u64 {
        let (s, k) = stim(0, t);
        sim.poke(state, s);
        sim.poke(keys, k);
        let before = thread_allocs();
        sim.settle().unwrap();
        sim.tick().unwrap();
        if t >= 2 {
            counted += thread_allocs() - before;
        }
    }
    assert_eq!(counted, 0, "scalar settle/tick allocated on AES");
}

#[test]
fn aes_settles_and_ticks_without_allocating_at_128_lanes() {
    assert_eq!(settle_tick_allocs(&aes_netlist(), 128), 0);
}
