//! String interning: external identities (page URLs, database record keys)
//! to dense [`NodeId`]s, for a graph whose vertices have only names — the
//! benchmark harness's mirror of the trigger monitor's graph, built from
//! each page's dependency text, and the examples. The monitor itself
//! interns nothing: a page's vertex is its slot, a datum's is computed
//! from its typed key.

use std::sync::Arc;

use rustc_hash::FxHashMap;

use crate::graph::NodeId;

/// Bidirectional map between external string identities and [`NodeId`]s.
///
/// Ids are dense (`0..len`), so downstream structures can index arrays by
/// id. Interning the same name twice returns the same id. Each name is
/// allocated once: the map's key and the id's entry share it.
#[derive(Debug, Default, Clone)]
pub struct Interner {
    by_name: FxHashMap<Arc<str>, NodeId>,
    names: Vec<Arc<str>>,
}

impl Interner {
    /// New empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `name`, returning its (possibly pre-existing) id.
    pub fn intern(&mut self, name: &str) -> NodeId {
        if let Some(&id) = self.by_name.get(name) {
            return id;
        }
        let id = NodeId(self.names.len() as u32);
        let shared: Arc<str> = name.into();
        self.names.push(Arc::clone(&shared));
        self.by_name.insert(shared, id);
        id
    }

    /// Look up an already-interned name.
    pub fn get(&self, name: &str) -> Option<NodeId> {
        self.by_name.get(name).copied()
    }

    /// The name for `id`, if `id` was produced by this interner.
    pub fn name(&self, id: NodeId) -> Option<&str> {
        self.names.get(id.0 as usize).map(|s| &**s)
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Iterate `(id, name)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &str)> {
        self.names
            .iter()
            .enumerate()
            .map(|(i, s)| (NodeId(i as u32), &**s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("/sports/skiing");
        let b = i.intern("/sports/skiing");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn ids_are_dense() {
        let mut i = Interner::new();
        let ids: Vec<NodeId> = (0..100).map(|n| i.intern(&format!("page{n}"))).collect();
        for (k, id) in ids.iter().enumerate() {
            assert_eq!(id.0 as usize, k);
        }
    }

    #[test]
    fn roundtrip() {
        let mut i = Interner::new();
        let id = i.intern("result:xc:10km");
        assert_eq!(i.name(id), Some("result:xc:10km"));
        assert_eq!(i.get("result:xc:10km"), Some(id));
        assert_eq!(i.get("missing"), None);
        assert_eq!(i.name(NodeId(99)), None);
    }

    #[test]
    fn a_name_is_allocated_once() {
        let mut i = Interner::new();
        let id = i.intern("data:medals:standings");
        let (key, _) = i.by_name.get_key_value("data:medals:standings").unwrap();
        assert!(Arc::ptr_eq(key, &i.names[id.0 as usize]));
    }

    #[test]
    fn iter_in_order() {
        let mut i = Interner::new();
        i.intern("a");
        i.intern("b");
        let names: Vec<&str> = i.iter().map(|(_, n)| n).collect();
        assert_eq!(names, vec!["a", "b"]);
    }
}
