//! An in-memory cache of elaborated netlists.
//!
//! Elaboration ([`calyx_lite::Program::elaborate`]) flattens the lowered
//! hierarchy into one simulator-ready [`rtl_sim::Netlist`] — cheap next to
//! a cold compile, but pure waste to repeat when a daemon serves the same
//! design over and over. [`NetlistCache`] memoizes the result behind the
//! same deterministic 128-bit hashing as the artifact cache
//! ([`crate::key`]): the key digests the canonical
//! [`calyx_lite::serial::encode_component`] bytes of every component in
//! the lowered program plus the top name, so any change that could alter
//! the flattened netlist — a cell, an assignment, a width, the top
//! component — changes the key, while byte-identical lowered programs
//! (the driver's determinism guarantee) share one entry regardless of
//! which request produced them.

use crate::key::{ContentHash, Hasher};
use calyx_lite as cl;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

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

/// See the module docs. Bounded FIFO over insertion order; entries are
/// shared as `Arc`s, so eviction never invalidates a netlist a client is
/// still simulating.
pub struct NetlistCache {
    capacity: usize,
    inner: Mutex<Inner>,
}

#[derive(Default)]
struct Inner {
    map: HashMap<(u64, u64), Arc<rtl_sim::Netlist>>,
    order: VecDeque<(u64, u64)>,
}

impl NetlistCache {
    /// A cache holding at most `capacity` elaborated netlists.
    pub fn new(capacity: usize) -> Self {
        NetlistCache {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The elaborated netlist for `top` in `lowered`, from cache when the
    /// content key matches, freshly elaborated (and cached) otherwise.
    /// The boolean is `true` on a cache hit.
    ///
    /// # Errors
    ///
    /// Propagates the elaboration error (unknown top, malformed
    /// hierarchy); failures are not cached.
    pub fn get_or_elaborate(
        &self,
        lowered: &cl::Program,
        top: &str,
        opt_level: u8,
    ) -> Result<(Arc<rtl_sim::Netlist>, bool), cl::CalyxError> {
        let key = netlist_key(lowered, top, opt_level);
        let key = (key.a, key.b);
        if let Some(n) = self.inner.lock().unwrap().map.get(&key) {
            return Ok((n.clone(), true));
        }
        // Elaborate outside the lock; a racing identical request may also
        // elaborate, and the first store wins (both results are
        // equivalent — elaboration is deterministic).
        let fresh = Arc::new(lowered.elaborate(top)?);
        let mut evicted = Vec::new();
        let mut inner = self.inner.lock().unwrap();
        if let Some(n) = inner.map.get(&key) {
            return Ok((n.clone(), true));
        }
        inner.map.insert(key, fresh.clone());
        inner.order.push_back(key);
        while inner.order.len() > self.capacity {
            if let Some(old) = inner.order.pop_front() {
                evicted.extend(inner.map.remove(&old));
            }
        }
        drop(inner);
        // An evicted netlist may hold its last reference here: free it
        // (names, cells, the flat graph) after the lock, so concurrent
        // requests never wait on the deallocation.
        drop(evicted);
        Ok((fresh, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn program(width: u32) -> cl::Program {
        use cl::{PortRef, Src};
        let mut c = cl::Component::new("Main");
        c.add_input("x", width);
        c.add_output("o", width);
        c.add_primitive("n0", rtl_sim::CellKind::Not { width });
        c.assign(PortRef::cell("n0", "in"), Src::this("x"));
        c.assign(PortRef::this("o"), Src::port(PortRef::cell("n0", "out")));
        let mut p = cl::Program::new();
        p.add_component(c);
        p
    }

    #[test]
    fn identical_programs_hit_different_programs_miss() {
        let cache = NetlistCache::new(4);
        let (a, hit) = cache.get_or_elaborate(&program(8), "Main", 0).unwrap();
        assert!(!hit);
        let (b, hit) = cache.get_or_elaborate(&program(8), "Main", 0).unwrap();
        assert!(hit, "byte-identical lowered program is served from memory");
        assert!(Arc::ptr_eq(&a, &b), "the very same netlist is shared");
        let (_, hit) = cache.get_or_elaborate(&program(16), "Main", 0).unwrap();
        assert!(!hit, "a width change changes the content key");
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn capacity_evicts_oldest() {
        let cache = NetlistCache::new(2);
        for w in [8, 16, 24] {
            cache.get_or_elaborate(&program(w), "Main", 0).unwrap();
        }
        assert_eq!(cache.len(), 2);
        let (_, hit) = cache.get_or_elaborate(&program(8), "Main", 0).unwrap();
        assert!(!hit, "oldest entry was evicted");
        let (_, hit) = cache.get_or_elaborate(&program(24), "Main", 0).unwrap();
        assert!(hit, "newest entry survived");
    }

    #[test]
    fn elaboration_errors_propagate_and_are_not_cached() {
        let cache = NetlistCache::new(2);
        assert!(cache.get_or_elaborate(&program(8), "Nope", 0).is_err());
        assert!(cache.is_empty());
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
