//! An in-memory cache of elaborated netlists.
//!
//! Elaboration ([`calyx_lite::Program::elaborate`]) flattens the lowered
//! hierarchy into one simulator-ready [`rtl_sim::Netlist`] — cheap next to
//! a cold compile, but pure waste to repeat when a daemon serves the same
//! design over and over. A [`NetlistMemo`] memoizes the result behind the
//! same deterministic 128-bit hashing as the artifact cache
//! ([`crate::key`]): the key digests the canonical
//! [`calyx_lite::serial::encode_component`] bytes of every component in
//! the lowered program plus the top name, so any change that could alter
//! the flattened netlist — a cell, an assignment, a width, the top
//! component — changes the key, while byte-identical lowered programs
//! (the driver's determinism guarantee) share one entry regardless of
//! which request produced them.

use crate::key::{ContentHash, Hasher};
use crate::{Served, SingleFlight};
use calyx_lite as cl;
use std::sync::Arc;

/// The key of one elaborated netlist: lowered program content × top name
/// × optimization level. The content digest alone already separates
/// differently-optimized programs (their components differ byte-wise);
/// the explicit level is belt-and-braces for the degenerate case where an
/// optimization level happens to change nothing.
pub fn netlist_key(lowered: &cl::Program, top: &str, opt_level: u8) -> ContentHash {
    use std::hash::Hasher as _;
    let mut h = Hasher::new();
    h.write_str(top);
    h.write_u64(u64::from(opt_level));
    let components = lowered.components();
    h.write_u64(components.len() as u64);
    let mut buf = Vec::new();
    for c in components {
        buf.clear();
        cl::serial::encode_component(c, &mut buf);
        // Length-delimit so component boundaries are unambiguous.
        h.write_u64(buf.len() as u64);
        h.write(&buf);
    }
    h.content_hash()
}

/// Elaborated netlists by [`netlist_key`]: a bounded FIFO memo that also
/// coalesces identical concurrent elaborations. Entries are shared as
/// `Arc`s, so eviction never invalidates a netlist a client is still
/// simulating.
pub type NetlistMemo = SingleFlight<(u64, u64), Result<Arc<rtl_sim::Netlist>, cl::CalyxError>>;

/// The elaborated netlist for `top` in `lowered`, from `memo` when the
/// content key matches (or an identical elaboration is in flight),
/// freshly elaborated and memoized otherwise. The boolean is `true` when
/// this call did not elaborate.
///
/// # Errors
///
/// Propagates the elaboration error (unknown top, malformed
/// hierarchy); failures are not memoized.
pub fn elaborate(
    memo: &NetlistMemo,
    lowered: &cl::Program,
    top: &str,
    opt_level: u8,
) -> Result<(Arc<rtl_sim::Netlist>, bool), cl::CalyxError> {
    let key = netlist_key(lowered, top, opt_level);
    let (netlist, served) = memo.run((key.a, key.b), || {
        let netlist = lowered.elaborate(top).map(Arc::new);
        let keep = netlist.is_ok();
        (netlist, keep)
    });
    Ok((Result::clone(&netlist)?, served != Served::Led))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn program(width: u32) -> cl::Program {
        let mut c = cl::Component::new("Main");
        c.add_input("x", width);
        c.add_output("o", width);
        c.add_primitive("n0", rtl_sim::CellKind::Not { width });
        c.assign(("n0", "in"), "x");
        c.assign("o", ("n0", "out"));
        let mut p = cl::Program::new();
        p.add_component(c);
        p
    }

    #[test]
    fn identical_programs_hit_different_programs_miss() {
        let memo = NetlistMemo::new(4);
        let (a, hit) = elaborate(&memo, &program(8), "Main", 0).unwrap();
        assert!(!hit);
        let (b, hit) = elaborate(&memo, &program(8), "Main", 0).unwrap();
        assert!(hit, "byte-identical lowered program is served from memory");
        assert!(Arc::ptr_eq(&a, &b), "the very same netlist is shared");
        let (_, hit) = elaborate(&memo, &program(16), "Main", 0).unwrap();
        assert!(!hit, "a width change changes the content key");
        assert_eq!(memo.memo_len(), 2);
    }

    #[test]
    fn capacity_evicts_oldest() {
        let memo = NetlistMemo::new(2);
        for w in [8, 16, 24] {
            elaborate(&memo, &program(w), "Main", 0).unwrap();
        }
        assert_eq!(memo.memo_len(), 2);
        let (_, hit) = elaborate(&memo, &program(8), "Main", 0).unwrap();
        assert!(!hit, "oldest entry was evicted");
        let (_, hit) = elaborate(&memo, &program(24), "Main", 0).unwrap();
        assert!(hit, "newest entry survived");
    }

    #[test]
    fn elaboration_errors_propagate_and_are_not_cached() {
        let memo = NetlistMemo::new(2);
        assert!(elaborate(&memo, &program(8), "Nope", 0).is_err());
        assert_eq!(memo.memo_len(), 0);
        assert!(elaborate(&memo, &program(8), "Nope", 0).is_err());
    }

    #[test]
    fn concurrent_requests_elaborate_once() {
        // Two threads ask for the same unseen netlist: exactly one
        // elaborates (leads), the other coalesces onto it or hits the
        // memo, and both hold the same `Arc`.
        let memo = NetlistMemo::new(4);
        let barrier = std::sync::Barrier::new(2);
        let (a, b) = std::thread::scope(|s| {
            let get = || {
                barrier.wait();
                elaborate(&memo, &program(8), "Main", 0).unwrap()
            };
            let a = s.spawn(get);
            let b = s.spawn(get);
            (a.join().unwrap(), b.join().unwrap())
        });
        assert!(
            a.1 != b.1,
            "one elaboration, one shared result: {a:?} {b:?}"
        );
        assert!(Arc::ptr_eq(&a.0, &b.0));
        assert_eq!(memo.memo_len(), 1);
    }

    #[test]
    fn key_depends_on_top_and_content() {
        let p8 = program(8);
        assert_eq!(
            netlist_key(&p8, "Main", 0),
            netlist_key(&program(8), "Main", 0)
        );
        assert_ne!(netlist_key(&p8, "Main", 0), netlist_key(&p8, "Other", 0));
        assert_ne!(
            netlist_key(&p8, "Main", 0),
            netlist_key(&program(16), "Main", 0)
        );
    }
}
