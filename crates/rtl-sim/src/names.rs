//! A name index that stores no name: the netlist's signal lookup, and the
//! symbol table of every Calyx-lite component.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

/// An index from names to the dense ids `0..n` of a table kept by the
/// caller, who passes each lookup a way to read an id's name.
///
/// Each slot holds an id and 32 bits of its name's hash, never the name,
/// so a table of names keeps one copy of each and hashes each name once,
/// growth included. The hash is SipHash under per-index random keys:
/// names come from user source, and crafted names must not be able to
/// pile onto one probe sequence.
#[derive(Clone, Default)]
pub struct NameIndex {
    /// `(id + 1, hash)`, or `(0, _)` when empty. The length is zero or a
    /// power of two, at most half full.
    slots: Vec<(u32, u32)>,
    len: usize,
    keys: RandomState,
}

impl NameIndex {
    #[allow(clippy::cast_possible_truncation)] // The low 32 bits, on purpose.
    fn hash(&self, name: &str) -> u32 {
        self.keys.hash_one(name) as u32
    }

    /// The id of `name`, where `name_of` reads an indexed id's name.
    pub fn get<'a>(&self, name: &str, name_of: impl Fn(u32) -> &'a str) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        self.find(self.hash(name), name, name_of).ok()
    }

    /// Indexes `name` as `id`, or returns the id it already has.
    ///
    /// # Panics
    ///
    /// Panics if `id` is `u32::MAX`.
    pub fn insert<'a>(
        &mut self,
        name: &str,
        id: u32,
        name_of: impl Fn(u32) -> &'a str,
    ) -> Result<(), u32> {
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let hash = self.hash(name);
        let slot = match self.find(hash, name, name_of) {
            Ok(old) => return Err(old),
            Err(slot) => slot,
        };
        self.slots[slot] = (id.checked_add(1).expect("ids stay below u32::MAX"), hash);
        self.len += 1;
        Ok(())
    }

    /// `Ok(id)` of `name`, or `Err(slot)`: the empty slot ending its probe.
    fn find<'a>(
        &self,
        hash: u32,
        name: &str,
        name_of: impl Fn(u32) -> &'a str,
    ) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            match self.slots[i] {
                (0, _) => return Err(i),
                (id, h) if h == hash && name_of(id - 1) == name => return Ok(id - 1),
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Doubles the slots, placing each entry by its stored hash.
    fn grow(&mut self) {
        let cap = (self.slots.len() * 2).max(8);
        let old = std::mem::replace(&mut self.slots, vec![(0, 0); cap]);
        for (id, h) in old.into_iter().filter(|s| s.0 != 0) {
            let mut i = h as usize & (cap - 1);
            while self.slots[i].0 != 0 {
                i = (i + 1) & (cap - 1);
            }
            self.slots[i] = (id, h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::NameIndex;

    #[test]
    fn finds_every_name_across_growth() {
        let names: Vec<String> = (0..1000).map(|i| format!("n{i}")).collect();
        let mut index = NameIndex::default();
        for (i, n) in names.iter().enumerate() {
            let id = u32::try_from(i).unwrap();
            assert_eq!(index.insert(n, id, |k| &names[k as usize]), Ok(()));
        }
        for (i, n) in names.iter().enumerate() {
            assert_eq!(index.get(n, |k| &names[k as usize]), Some(i as u32));
            assert_eq!(index.insert(n, 5000, |k| &names[k as usize]), Err(i as u32));
        }
        assert_eq!(index.get("missing", |k| &names[k as usize]), None);
        assert_eq!(NameIndex::default().get("x", |_| ""), None);
    }
}
