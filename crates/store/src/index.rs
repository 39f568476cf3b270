//! Ordered secondary indexes.
//!
//! A B-tree-backed index over one column. Because [`gaea_adt::Value`] is
//! totally ordered (value identity), any column type can be indexed,
//! including extents. Indexes are maintained eagerly by
//! [`crate::db::Relation`] on insert/update/delete.

use crate::oid::Oid;
use crate::paged::PagedMap;
use gaea_adt::Value;
use serde::{Deserialize, Serialize};
use std::ops::Bound;

/// The OIDs filed under one index key (or grid cell), as an ordered set.
/// Paged like the map that holds it, so a write never copies a whole
/// posting list — a low-cardinality key can hold most of a relation.
pub(crate) type Postings = PagedMap<Oid, ()>;

/// Ordered index: column value → OIDs of tuples carrying it, in OID
/// order within a key.
///
/// The map itself is not serialized (JSON requires string keys); snapshots
/// persist only the indexed column and rebuild the map from the heap on
/// load — cheaper than a custom key codec and guaranteed consistent.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OrderedIndex {
    /// Indexed column position in the relation schema.
    pub column: usize,
    #[serde(skip)]
    map: PagedMap<Value, Postings>,
}

impl OrderedIndex {
    /// Empty index on a column position.
    pub fn new(column: usize) -> OrderedIndex {
        OrderedIndex {
            column,
            map: PagedMap::new(),
        }
    }

    /// Register a tuple's column value.
    pub fn insert(&mut self, key: Value, oid: Oid) {
        self.map
            .get_or_insert_with(key, Postings::new)
            .insert(oid, ());
    }

    /// Unregister.
    pub fn remove(&mut self, key: &Value, oid: Oid) {
        if let Some(oids) = self.map.get_mut(key) {
            oids.remove(&oid);
            if oids.is_empty() {
                self.map.remove(key);
            }
        }
    }

    /// Exact-match lookup.
    pub fn lookup(&self, key: &Value) -> Vec<Oid> {
        self.map
            .get(key)
            .map(|oids| oids.keys().copied().collect())
            .unwrap_or_default()
    }

    /// Range lookup over the value order (inclusive bounds).
    pub fn range(&self, lo: Option<&Value>, hi: Option<&Value>) -> Vec<Oid> {
        let lower = lo.map_or(Bound::Unbounded, |v| Bound::Included(v.clone()));
        let upper = hi.map_or(Bound::Unbounded, |v| Bound::Included(v.clone()));
        self.map
            .range((lower, upper))
            .flat_map(|(_, oids)| oids.keys().copied())
            .collect()
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }

    /// Smallest indexed key, if any.
    pub fn min_key(&self) -> Option<&Value> {
        self.map.keys().next()
    }

    /// Largest indexed key, if any.
    pub fn max_key(&self) -> Option<&Value> {
        self.map.keys().next_back()
    }

    /// All OIDs in key order (ascending or descending). Within one key,
    /// OIDs come out in ascending OID order either way — ties are
    /// resolved by the caller, so reversing the key walk must not reverse
    /// ties.
    pub fn sorted_oids(&self, desc: bool) -> Vec<Oid> {
        let mut out = Vec::with_capacity(self.len());
        if desc {
            for oids in self.map.values().rev() {
                out.extend(oids.keys().copied());
            }
        } else {
            for oids in self.map.values() {
                out.extend(oids.keys().copied());
            }
        }
        out
    }

    /// Total registered entries.
    pub fn len(&self) -> usize {
        self.map.values().map(Postings::len).sum()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_remove() {
        let mut idx = OrderedIndex::new(0);
        idx.insert(Value::Int4(5), Oid(1));
        idx.insert(Value::Int4(5), Oid(2));
        idx.insert(Value::Int4(7), Oid(3));
        assert_eq!(idx.lookup(&Value::Int4(5)), &[Oid(1), Oid(2)]);
        assert_eq!(idx.len(), 3);
        assert_eq!(idx.distinct_keys(), 2);
        idx.remove(&Value::Int4(5), Oid(1));
        assert_eq!(idx.lookup(&Value::Int4(5)), &[Oid(2)]);
        idx.remove(&Value::Int4(5), Oid(2));
        assert!(idx.lookup(&Value::Int4(5)).is_empty());
        assert_eq!(idx.distinct_keys(), 1);
    }

    #[test]
    fn range_scan_inclusive() {
        let mut idx = OrderedIndex::new(0);
        for i in 0..10 {
            idx.insert(Value::Int4(i), Oid(100 + i as u64));
        }
        let mid = idx.range(Some(&Value::Int4(3)), Some(&Value::Int4(5)));
        assert_eq!(mid, vec![Oid(103), Oid(104), Oid(105)]);
        let tail = idx.range(Some(&Value::Int4(8)), None);
        assert_eq!(tail, vec![Oid(108), Oid(109)]);
        let all = idx.range(None, None);
        assert_eq!(all.len(), 10);
    }

    #[test]
    fn string_keys_order() {
        let mut idx = OrderedIndex::new(1);
        idx.insert(Value::Text("b".into()), Oid(2));
        idx.insert(Value::Text("a".into()), Oid(1));
        idx.insert(Value::Text("c".into()), Oid(3));
        let r = idx.range(
            Some(&Value::Text("a".into())),
            Some(&Value::Text("b".into())),
        );
        assert_eq!(r, vec![Oid(1), Oid(2)]);
    }

    #[test]
    fn removing_unknown_key_is_noop() {
        let mut idx = OrderedIndex::new(0);
        idx.remove(&Value::Int4(1), Oid(1));
        assert!(idx.is_empty());
    }

    #[test]
    fn min_max_and_sorted_walks() {
        let mut idx = OrderedIndex::new(0);
        assert!(idx.min_key().is_none());
        assert!(idx.max_key().is_none());
        idx.insert(Value::Int4(5), Oid(2));
        idx.insert(Value::Int4(1), Oid(3));
        idx.insert(Value::Int4(5), Oid(4));
        idx.insert(Value::Int4(9), Oid(1));
        assert_eq!(idx.min_key(), Some(&Value::Int4(1)));
        assert_eq!(idx.max_key(), Some(&Value::Int4(9)));
        assert_eq!(idx.sorted_oids(false), vec![Oid(3), Oid(2), Oid(4), Oid(1)]);
        // Descending reverses keys but keeps within-key OID order.
        assert_eq!(idx.sorted_oids(true), vec![Oid(1), Oid(2), Oid(4), Oid(3)]);
    }
}
