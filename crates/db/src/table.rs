//! A minimal typed table: a keyed row store with insert/update/scan, and
//! the secondary index that stands in for a scan by a non-key column.
//!
//! Deliberately simple — the paper's system needs record-level change
//! identification, not SQL. Rows are stored in a `BTreeMap` so scans are
//! deterministic (id order), which keeps rendered pages and experiment
//! output byte-stable; an `Index` keeps its row keys in the same order,
//! so reading through it returns exactly what filtering the scan would.

use rustc_hash::FxHashMap;
use std::collections::BTreeMap;
use std::hash::Hash;

/// A typed table of rows keyed by `K`.
#[derive(Debug, Clone)]
pub struct Table<K: Ord + Copy, R> {
    rows: BTreeMap<K, R>,
}

impl<K: Ord + Copy, R> Default for Table<K, R> {
    fn default() -> Self {
        Table {
            rows: BTreeMap::new(),
        }
    }
}

impl<K: Ord + Copy, R> Table<K, R> {
    /// New empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Insert or replace the row at `key`; returns the previous row.
    pub fn upsert(&mut self, key: K, row: R) -> Option<R> {
        self.rows.insert(key, row)
    }

    /// Fetch by key.
    pub fn get(&self, key: K) -> Option<&R> {
        self.rows.get(&key)
    }

    /// Mutable fetch by key.
    pub fn get_mut(&mut self, key: K) -> Option<&mut R> {
        self.rows.get_mut(&key)
    }

    /// Remove by key.
    pub fn remove(&mut self, key: K) -> Option<R> {
        self.rows.remove(&key)
    }

    /// Whether `key` exists.
    pub fn contains(&self, key: K) -> bool {
        self.rows.contains_key(&key)
    }

    /// Iterate rows in key order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &R)> {
        self.rows.iter().map(|(k, r)| (*k, r))
    }

    /// All keys in order.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.rows.keys().copied()
    }
}

/// A secondary index over one non-key column of a [`Table`]: column
/// value → the keys of the rows holding it, in key order. The owner of
/// the table maintains it on every write.
#[derive(Debug)]
pub(crate) struct Index<C, K> {
    by: FxHashMap<C, Vec<K>>,
}

impl<C, K> Default for Index<C, K> {
    fn default() -> Self {
        Index {
            by: FxHashMap::default(),
        }
    }
}

impl<C: Eq + Hash, K: Ord + Copy> Index<C, K> {
    /// Record that the row at `key` holds `col` (no-op when already
    /// recorded).
    pub(crate) fn insert(&mut self, col: C, key: K) {
        let keys = self.by.entry(col).or_default();
        // Keys arrive ascending on the hot path (result ids), so look at
        // the tail before searching.
        if keys.last().is_none_or(|&last| last < key) {
            keys.push(key);
        } else if let Err(at) = keys.binary_search(&key) {
            keys.insert(at, key);
        }
    }

    /// Forget that the row at `key` holds `col`.
    pub(crate) fn remove(&mut self, col: &C, key: K) {
        if let Some(keys) = self.by.get_mut(col) {
            if let Ok(at) = keys.binary_search(&key) {
                keys.remove(at);
            }
        }
    }

    /// Keys of the rows holding `col`, ascending.
    pub(crate) fn get(&self, col: &C) -> &[K] {
        self.by.get(col).map_or(&[], Vec::as_slice)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upsert_get_remove() {
        let mut t: Table<u32, &str> = Table::new();
        assert!(t.is_empty());
        assert_eq!(t.upsert(1, "a"), None);
        assert_eq!(t.upsert(1, "b"), Some("a"));
        assert_eq!(t.get(1), Some(&"b"));
        assert!(t.contains(1));
        assert_eq!(t.remove(1), Some("b"));
        assert!(t.get(1).is_none());
    }

    #[test]
    fn iteration_is_key_ordered() {
        let mut t: Table<u32, u32> = Table::new();
        for k in [5, 1, 3] {
            t.upsert(k, k * 10);
        }
        let keys: Vec<u32> = t.keys().collect();
        assert_eq!(keys, vec![1, 3, 5]);
        let vals: Vec<u32> = t.iter().map(|(_, v)| *v).collect();
        assert_eq!(vals, vec![10, 30, 50]);
    }

    #[test]
    fn index_keeps_keys_ascending_and_unique() {
        let mut ix: Index<&str, u32> = Index::default();
        for k in [5, 1, 3, 3, 9] {
            ix.insert("a", k);
        }
        ix.insert("b", 2);
        assert_eq!(ix.get(&"a"), &[1, 3, 5, 9]);
        ix.remove(&"a", 3);
        ix.remove(&"a", 4);
        ix.remove(&"c", 1);
        assert_eq!(ix.get(&"a"), &[1, 5, 9]);
        assert_eq!(ix.get(&"b"), &[2]);
        assert!(ix.get(&"c").is_empty());
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut t: Table<u32, String> = Table::new();
        t.upsert(1, "x".to_string());
        t.get_mut(1).unwrap().push('y');
        assert_eq!(t.get(1).unwrap(), "xy");
        assert!(t.get_mut(9).is_none());
    }
}
