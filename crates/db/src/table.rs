//! A minimal typed table: a keyed row store with insert/update/scan, the
//! secondary index that stands in for a scan by a non-key column, and the
//! per-key counters behind the revision stamps.
//!
//! Deliberately simple — the paper's system needs record-level change
//! identification, not SQL. Every key and indexed column is a small
//! integer ([`Slot`]), so each structure here is a vector addressed by
//! that integer: a row, an index bucket or a counter is found by id, not
//! searched for. Slot order is key order, so a scan still runs in id
//! order, which keeps rendered pages and experiment output byte-stable;
//! an `Index` keeps its row keys in the same order, so reading through it
//! returns exactly what filtering the scan would.

use std::marker::PhantomData;

/// A key or column value that is its own address: `slot()` is the
/// integer behind it, and `a < b` exactly when `a.slot() < b.slot()`.
///
/// Ids must be small integers. A [`Table`] keeps four bytes per slot up to
/// the largest key it has held, and an index or counter one entry per
/// slot up to the largest column value it has seen, so a sparse id space
/// (news `day * 1000 + seq`, photos `event * 100 + seq`) costs its span in
/// slots, not its row count.
pub trait Slot: Copy + Ord {
    /// The integer this value is stored at.
    fn slot(self) -> usize;
}

impl Slot for u32 {
    fn slot(self) -> usize {
        self as usize
    }
}

/// Grow `v` with `fill` so that `slot` is in bounds.
fn reach<T: Clone>(v: &mut Vec<T>, slot: usize, fill: T) {
    if slot >= v.len() {
        v.resize(slot + 1, fill);
    }
}

/// A typed table of rows keyed by `K`.
#[derive(Debug, Clone)]
pub struct Table<K, R> {
    /// Slot → 1 + the row's position in `rows`; 0 where no row is.
    at: Vec<u32>,
    /// The rows with their keys, in no particular order: `at` orders them.
    rows: Vec<(K, R)>,
}

impl<K, R> Default for Table<K, R> {
    fn default() -> Self {
        Table {
            at: Vec::new(),
            rows: Vec::new(),
        }
    }
}

impl<K: Slot, R> Table<K, R> {
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

    /// Position in `rows` of the row at `key`.
    fn position(&self, key: K) -> Option<usize> {
        match self.at.get(key.slot()) {
            None | Some(0) => None,
            Some(&at) => Some(at as usize - 1),
        }
    }

    /// Insert or replace the row at `key`; returns the previous row.
    pub fn upsert(&mut self, key: K, row: R) -> Option<R> {
        match self.position(key) {
            Some(i) => Some(std::mem::replace(&mut self.rows[i].1, row)),
            None => {
                self.insert_new(key, row);
                None
            }
        }
    }

    /// Add the row at `key`, which holds none; returns its position.
    fn insert_new(&mut self, key: K, row: R) -> usize {
        let slot = key.slot();
        reach(&mut self.at, slot, 0);
        self.rows.push((key, row));
        // At most one row per u32 id, so the count fits.
        self.at[slot] = self.rows.len() as u32;
        self.rows.len() - 1
    }

    /// Fetch by key.
    pub fn get(&self, key: K) -> Option<&R> {
        self.position(key).map(|i| &self.rows[i].1)
    }

    /// Mutable fetch by key.
    pub fn get_mut(&mut self, key: K) -> Option<&mut R> {
        self.position(key).map(|i| &mut self.rows[i].1)
    }

    /// Mutable fetch by key, inserting `R::default()` there first when
    /// the table has no row at `key`.
    pub fn get_or_insert_default(&mut self, key: K) -> &mut R
    where
        R: Default,
    {
        let i = match self.position(key) {
            Some(i) => i,
            None => self.insert_new(key, R::default()),
        };
        &mut self.rows[i].1
    }

    /// Remove by key.
    pub fn remove(&mut self, key: K) -> Option<R> {
        let i = self.position(key)?;
        self.at[key.slot()] = 0;
        let (_, row) = self.rows.swap_remove(i);
        if let Some(&(moved, _)) = self.rows.get(i) {
            self.at[moved.slot()] = i as u32 + 1;
        }
        Some(row)
    }

    /// Whether `key` exists.
    pub fn contains(&self, key: K) -> bool {
        self.position(key).is_some()
    }

    /// Iterate rows in key order.
    pub fn iter(&self) -> impl Iterator<Item = (K, &R)> {
        self.at.iter().filter(|&&at| at != 0).map(|&at| {
            let (key, row) = &self.rows[at as usize - 1];
            (*key, row)
        })
    }

    /// All keys in order.
    pub fn keys(&self) -> impl Iterator<Item = K> + '_ {
        self.iter().map(|(key, _)| key)
    }
}

/// A secondary index over one non-key column of a [`Table`]: column
/// value → the keys of the rows holding it, in key order. The owner of
/// the table maintains it on every write.
#[derive(Debug)]
pub(crate) struct Index<C, K> {
    /// Column slot → its bucket.
    by: Vec<Vec<K>>,
    column: PhantomData<C>,
}

impl<C, K> Default for Index<C, K> {
    fn default() -> Self {
        Index {
            by: Vec::new(),
            column: PhantomData,
        }
    }
}

impl<C: Slot, K: Ord + Copy> Index<C, K> {
    /// Record that the row at `key` holds `col` (no-op when already
    /// recorded).
    pub(crate) fn insert(&mut self, col: C, key: K) {
        let slot = col.slot();
        reach(&mut self.by, slot, Vec::new());
        let keys = &mut self.by[slot];
        // Keys arrive ascending on the hot path (result ids), so look at
        // the tail before searching.
        if keys.last().is_none_or(|&last| last < key) {
            keys.push(key);
        } else if let Err(at) = keys.binary_search(&key) {
            keys.insert(at, key);
        }
    }

    /// Forget that the row at `key` holds `col`.
    pub(crate) fn remove(&mut self, col: C, key: K) {
        if let Some(keys) = self.by.get_mut(col.slot()) {
            if let Ok(at) = keys.binary_search(&key) {
                keys.remove(at);
            }
        }
    }

    /// Keys of the rows holding `col`, ascending.
    pub(crate) fn get(&self, col: C) -> &[K] {
        self.by.get(col.slot()).map_or(&[], Vec::as_slice)
    }
}

/// A counter per key, 0 until first bumped: the per-source half of a
/// revision stamp.
#[derive(Debug)]
pub(crate) struct Counters<K> {
    by: Vec<u64>,
    key: PhantomData<K>,
}

impl<K> Default for Counters<K> {
    fn default() -> Self {
        Counters {
            by: Vec::new(),
            key: PhantomData,
        }
    }
}

impl<K: Slot> Counters<K> {
    /// Add one to `key`'s counter.
    pub(crate) fn bump(&mut self, key: K) {
        let slot = key.slot();
        reach(&mut self.by, slot, 0);
        self.by[slot] += 1;
    }

    /// `key`'s counter.
    pub(crate) fn get(&self, key: K) -> u64 {
        self.by.get(key.slot()).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{BTreeMap, BTreeSet};

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
        let mut ix: Index<u32, u32> = Index::default();
        for k in [5, 1, 3, 3, 9] {
            ix.insert(10, k);
        }
        ix.insert(20, 2);
        assert_eq!(ix.get(10), &[1, 3, 5, 9]);
        ix.remove(10, 3);
        ix.remove(10, 4);
        ix.remove(30, 1);
        ix.remove(u32::MAX, 1);
        assert_eq!(ix.get(10), &[1, 5, 9]);
        assert_eq!(ix.get(20), &[2]);
        assert!(ix.get(30).is_empty());
        assert!(ix.get(15).is_empty());
        assert!(ix.get(u32::MAX).is_empty());
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut t: Table<u32, String> = Table::new();
        t.upsert(1, "x".to_string());
        t.get_mut(1).unwrap().push('y');
        assert_eq!(t.get(1).unwrap(), "xy");
        assert!(t.get_mut(9).is_none());
        assert!(t.get(u32::MAX).is_none());
    }

    #[test]
    fn get_or_insert_default_inserts_once() {
        let mut t: Table<u32, u32> = Table::new();
        *t.get_or_insert_default(4) += 1;
        *t.get_or_insert_default(4) += 1;
        assert_eq!(t.get(4), Some(&2));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn counters_start_at_zero_and_count_per_key() {
        let mut c: Counters<u32> = Counters::default();
        assert_eq!(c.get(7), 0);
        c.bump(7);
        c.bump(7);
        c.bump(2);
        assert_eq!(
            [c.get(2), c.get(7), c.get(3), c.get(u32::MAX)],
            [1, 2, 0, 0]
        );
    }

    /// An id in one of the schedule's shapes: dense, a news id
    /// (`day * 1000 + seq`) or a photo id (`event * 100 + seq`).
    fn id_strategy() -> impl Strategy<Value = u32> {
        prop_oneof![
            0..64u32,
            (1..17u32, 0..8u32).prop_map(|(day, seq)| day * 1_000 + seq),
            (1..69u32, 0..8u32).prop_map(|(event, seq)| event * 100 + seq),
        ]
    }

    #[derive(Debug, Clone)]
    enum TableOp {
        Upsert(u32, u32),
        Remove(u32),
        Bump(u32),
    }

    fn table_op() -> impl Strategy<Value = TableOp> {
        prop_oneof![
            (id_strategy(), any::<u32>()).prop_map(|(k, v)| TableOp::Upsert(k, v)),
            id_strategy().prop_map(TableOp::Remove),
            id_strategy().prop_map(TableOp::Bump),
        ]
    }

    #[derive(Debug, Clone)]
    enum IndexOp {
        Insert(u32, u32),
        Remove(u32, u32),
    }

    fn index_op() -> impl Strategy<Value = IndexOp> {
        prop_oneof![
            (0..24u32, id_strategy()).prop_map(|(c, k)| IndexOp::Insert(c, k)),
            (0..24u32, id_strategy()).prop_map(|(c, k)| IndexOp::Remove(c, k)),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// Any sequence of upserts (new and re-), removals and in-place
        /// writes leaves the table holding exactly what a `BTreeMap` holds:
        /// same answers to `get`, `contains` and `len`, same rows in the
        /// same order from `iter` and `keys`.
        #[test]
        fn table_matches_a_btree_map(ops in proptest::collection::vec(table_op(), 1..120)) {
            let mut t: Table<u32, u32> = Table::new();
            let mut oracle: BTreeMap<u32, u32> = BTreeMap::new();
            for op in &ops {
                match *op {
                    TableOp::Upsert(k, v) => prop_assert_eq!(t.upsert(k, v), oracle.insert(k, v)),
                    TableOp::Remove(k) => prop_assert_eq!(t.remove(k), oracle.remove(&k)),
                    TableOp::Bump(k) => {
                        let got = t.get_mut(k).map(|v| {
                            *v = v.wrapping_add(1);
                            *v
                        });
                        let want = oracle.get_mut(&k).map(|v| {
                            *v = v.wrapping_add(1);
                            *v
                        });
                        prop_assert_eq!(got, want);
                    }
                }
                prop_assert_eq!(t.len(), oracle.len());
                prop_assert_eq!(t.is_empty(), oracle.is_empty());
            }
            let rows: Vec<(u32, u32)> = t.iter().map(|(k, v)| (k, *v)).collect();
            let want: Vec<(u32, u32)> = oracle.iter().map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(rows, want);
            prop_assert_eq!(t.keys().collect::<Vec<_>>(), oracle.keys().copied().collect::<Vec<_>>());
            for op in &ops {
                let (TableOp::Upsert(k, _) | TableOp::Remove(k) | TableOp::Bump(k)) = *op;
                for probe in [k, k + 1, k.saturating_sub(1)] {
                    prop_assert_eq!(t.get(probe), oracle.get(&probe));
                    prop_assert_eq!(t.contains(probe), oracle.contains_key(&probe));
                }
            }
        }

        /// Any sequence of inserts and removals leaves every bucket holding
        /// exactly the oracle's set, ascending.
        #[test]
        fn index_matches_a_btree_map_of_sets(ops in proptest::collection::vec(index_op(), 1..120)) {
            let mut ix: Index<u32, u32> = Index::default();
            let mut oracle: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
            for op in &ops {
                match *op {
                    IndexOp::Insert(c, k) => {
                        ix.insert(c, k);
                        oracle.entry(c).or_default().insert(k);
                    }
                    IndexOp::Remove(c, k) => {
                        ix.remove(c, k);
                        if let Some(keys) = oracle.get_mut(&c) {
                            keys.remove(&k);
                        }
                    }
                }
            }
            for c in 0..26u32 {
                let want: Vec<u32> = oracle.get(&c).map_or(Vec::new(), |keys| keys.iter().copied().collect());
                prop_assert_eq!(ix.get(c), want.as_slice());
            }
        }
    }
}
