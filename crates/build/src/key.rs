//! Content hashing for compile units.
//!
//! A unit's cache key must be computable *before* any work is done on it,
//! stable across sessions, and must change whenever anything that could
//! influence the unit's artifact changes. The ingredients:
//!
//! * the artifact format version (layout changes invalidate everything),
//! * the driver's `salt` (a fingerprint of the primitive registry the
//!   lowered half of the artifact was produced with),
//! * the **closure hash** of the unit's source component — a structural
//!   hash of the component's AST and of every component/extern it can
//!   statically reach through instantiations (so editing any transitive
//!   dependency invalidates the unit, a sound over-approximation of the
//!   dynamic, parameter-resolved dependency DAG),
//! * the unit's resolved parameter vector.
//!
//! Hashes are two independent 64-bit FNV-1a streams (the second
//! position-mixed), giving 128 bits of key space — ample for a compile
//! cache, with no dependency on the standard library's randomized hashers
//! (which would not be stable across sessions). AST hashing goes through
//! `#[derive(Hash)]` on the `filament_core::ast` types driving this same
//! FNV state, so keys reflect structure directly — no pretty-printing on
//! the hot path.

use filament_core::ast::{Command, Id, Program};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::Hash;

/// One 64-bit FNV-1a pass over delimited parts, for checksums; `mono`'s,
/// which names units with it.
pub use filament_core::mono::fnv64;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A 128-bit content hash, rendered as 32 hex digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ContentHash {
    /// Plain FNV-1a stream.
    pub a: u64,
    /// Position-mixed stream (differently seeded).
    pub b: u64,
}

impl fmt::Display for ContentHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}{:016x}", self.a, self.b)
    }
}

/// Incremental two-stream FNV-1a hasher. Implements [`std::hash::Hasher`]
/// so `#[derive(Hash)]` types feed it directly, with fully deterministic
/// (session-stable) output.
pub struct Hasher {
    a: u64,
    b: u64,
    n: u32,
}

impl Default for Hasher {
    fn default() -> Self {
        Hasher {
            a: FNV_OFFSET,
            b: FNV_OFFSET ^ 0xdead_beef_cafe_f00d,
            n: 0,
        }
    }
}

impl std::hash::Hasher for Hasher {
    fn finish(&self) -> u64 {
        self.a
    }

    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.a = (self.a ^ u64::from(byte)).wrapping_mul(FNV_PRIME);
            self.b = (self.b ^ u64::from(byte).rotate_left(self.n % 57)).wrapping_mul(FNV_PRIME);
            self.n = self.n.wrapping_add(1);
        }
    }
}

impl Hasher {
    /// A fresh hasher.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds a length-delimited string (so `"ab" + "c"` hashes differently
    /// from `"a" + "bc"`).
    pub fn write_str(&mut self, s: &str) {
        use std::hash::Hasher as _;
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// The final 128-bit hash.
    pub fn content_hash(&self) -> ContentHash {
        ContentHash {
            a: self.a,
            b: self.b,
        }
    }
}

/// The structural hash of any `Hash` value under the deterministic FNV
/// hasher.
pub fn structural_hash<T: Hash>(value: &T) -> ContentHash {
    let mut h = Hasher::new();
    value.hash(&mut h);
    h.content_hash()
}

/// Per-source-component closure hashes for one program.
pub struct KeySpace {
    closure: HashMap<Id, ContentHash>,
}

impl KeySpace {
    /// Computes the closure hash of every user component in `program`.
    pub fn new(program: &Program) -> KeySpace {
        let extern_hashes: HashMap<Id, ContentHash> = program
            .externs
            .iter()
            .map(|s| (s.name.clone(), structural_hash(s)))
            .collect();
        Self::with_extern_hashes(program, &extern_hashes)
    }

    /// [`KeySpace::new`] with the extern signatures' structural hashes
    /// precomputed — the driver shares them process-wide, since the
    /// standard library's extern set is identical across builds.
    pub fn with_extern_hashes(
        program: &Program,
        extern_hashes: &HashMap<Id, ContentHash>,
    ) -> KeySpace {
        // Structural hash per name: components whole, externs as their
        // signatures.
        let mut own: HashMap<&str, ContentHash> = HashMap::new();
        for sig in program.externs.iter() {
            if let Some(h) = extern_hashes.get(&sig.name) {
                own.insert(&sig.name, *h);
            }
        }
        for comp in &program.components {
            own.insert(&comp.sig.name, structural_hash(comp));
        }
        // Static reference graph: every component name mentioned in an
        // instantiation, including inside not-yet-resolved `for`/`if`
        // generate bodies.
        let mut refs: HashMap<&str, Vec<&str>> = HashMap::new();
        for comp in &program.components {
            let mut out = Vec::new();
            collect_refs(&comp.body, &mut out);
            refs.insert(&comp.sig.name, out);
        }
        let mut closure = HashMap::new();
        for comp in &program.components {
            let name: &str = &comp.sig.name;
            // Reachable set (including self); unknown names still
            // contribute their name, so "callee appeared" vs "callee
            // deleted" hash differently.
            let mut reach: HashSet<&str> = HashSet::new();
            let mut stack = vec![name];
            while let Some(n) = stack.pop() {
                if !reach.insert(n) {
                    continue;
                }
                if let Some(deps) = refs.get(n) {
                    stack.extend(deps.iter().copied());
                }
            }
            let mut sorted: Vec<&str> = reach.into_iter().collect();
            sorted.sort_unstable();
            let mut h = Hasher::new();
            h.write_str(name);
            for n in sorted {
                use std::hash::Hasher as _;
                h.write_str(n);
                match own.get(n) {
                    Some(c) => {
                        h.write_u64(c.a);
                        h.write_u64(c.b);
                    }
                    None => h.write_u64(0),
                }
            }
            closure.insert(comp.sig.name.clone(), h.content_hash());
        }
        KeySpace { closure }
    }

    /// The content-addressed cache key of a `(component, values)` unit.
    /// `version` is the artifact format version and `salt` fingerprints
    /// the primitive registry used for the lowered half.
    pub fn unit_hash(
        &self,
        version: u32,
        salt: &str,
        component: &str,
        values: &[u64],
    ) -> Option<ContentHash> {
        use std::hash::Hasher as _;
        let base = self.closure.get(component)?;
        let mut h = Hasher::new();
        h.write_u64(u64::from(version));
        h.write_str(salt);
        h.write_u64(base.a);
        h.write_u64(base.b);
        h.write_str(component);
        h.write_u64(values.len() as u64);
        for v in values {
            h.write_u64(*v);
        }
        Some(h.content_hash())
    }
}

fn collect_refs<'p>(cmds: &'p [Command], out: &mut Vec<&'p str>) {
    for cmd in cmds {
        match cmd {
            Command::Instance { component, .. } => out.push(component),
            Command::ForGen { body, .. } => collect_refs(body, out),
            Command::IfGen {
                then_body,
                else_body,
                ..
            } => {
                collect_refs(then_body, out);
                collect_refs(else_body, out);
            }
            Command::Invoke { .. } | Command::Connect { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use filament_core::parse_program;

    #[test]
    fn closure_hash_sees_transitive_edits() {
        let src_a = "comp Leaf<G: 1>() -> () { }
                     comp Mid<G: 1>() -> () { l := new Leaf; }
                     comp Top<G: 1>() -> () { m := new Mid; }";
        // Leaf's signature differs; Top doesn't reference Leaf directly.
        let src_b = "comp Leaf<G: 2>() -> () { }
                     comp Mid<G: 1>() -> () { l := new Leaf; }
                     comp Top<G: 1>() -> () { m := new Mid; }";
        let ka = KeySpace::new(&parse_program(src_a).unwrap());
        let kb = KeySpace::new(&parse_program(src_b).unwrap());
        let ha = ka.unit_hash(1, "s", "Top", &[]).unwrap();
        let hb = kb.unit_hash(1, "s", "Top", &[]).unwrap();
        assert_ne!(ha, hb, "editing a transitive dep changes the key");
        // Stable for identical input.
        let ka2 = KeySpace::new(&parse_program(src_a).unwrap());
        assert_eq!(ha, ka2.unit_hash(1, "s", "Top", &[]).unwrap());
        // Params, salt, and version all feed the key.
        assert_ne!(ha, ka.unit_hash(1, "s", "Top", &[1]).unwrap());
        assert_ne!(ha, ka.unit_hash(1, "t", "Top", &[]).unwrap());
        assert_ne!(ha, ka.unit_hash(2, "s", "Top", &[]).unwrap());
        assert!(ka.unit_hash(1, "s", "Nope", &[]).is_none());
    }

    #[test]
    fn refs_inside_generate_bodies_count() {
        let with_loop = "comp A<G: 1>() -> () { for i in 0..2 { x[i] := new B; } }
                         comp B<G: 1>() -> () { }";
        let without = "comp A<G: 1>() -> () { }
                       comp B<G: 1>() -> () { }";
        let kw = KeySpace::new(&parse_program(with_loop).unwrap());
        let ko = KeySpace::new(&parse_program(without).unwrap());
        assert_ne!(
            kw.unit_hash(1, "", "A", &[]).unwrap(),
            ko.unit_hash(1, "", "A", &[]).unwrap()
        );
    }

    #[test]
    fn body_edits_change_own_hash() {
        let a = "comp A<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 8) { o = x; }";
        let b = "comp A<G: 1>(@[G, G+1] x: 8) -> (@[G, G+1] o: 8) { o = 7; }";
        let ka = KeySpace::new(&parse_program(a).unwrap());
        let kb = KeySpace::new(&parse_program(b).unwrap());
        assert_ne!(
            ka.unit_hash(1, "", "A", &[]).unwrap(),
            kb.unit_hash(1, "", "A", &[]).unwrap()
        );
    }
}
