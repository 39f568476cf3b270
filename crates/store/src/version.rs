//! MVCC-style version counters for O(1) staleness detection.
//!
//! The store keeps one logical clock per [`crate::db::Database`]; every
//! mutation (insert, update, delete — autocommitted or inside a
//! [`crate::txn::Txn`], including rollback's inverse operations) ticks the
//! clock and stamps the touched object and its relation with the new clock
//! value. Consumers that memoize results computed from stored objects
//! record the versions they observed and later compare them against the
//! current counters: a single integer comparison per input replaces any
//! walk over history to decide whether a derived result is still current.
//!
//! Version entries survive deletion (a deleted object's counter keeps
//! advancing rather than disappearing), so re-inserting under a recycled
//! OID can never present an old version again (no ABA). Rollback also
//! advances versions — the content is restored but the counters only move
//! forward, which is conservative: a validator may re-derive needlessly,
//! but can never serve a stale result.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

use crate::oid::Oid;
use crate::paged::PagedMap;

/// Per-database version state: a logical clock plus the last-mutation
/// stamp of every object and relation. Persisted inside snapshots so
/// validity checks survive a save/load cycle. The per-object counters
/// are paged copy-on-write, so a clone (a freeze) shares them.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VersionMap {
    /// Logical clock; strictly increases with every mutation.
    clock: u64,
    /// Relation name → clock value of its last mutation.
    relations: BTreeMap<String, u64>,
    /// OID → clock value of its last mutation. Entries are never removed:
    /// deletion is a mutation like any other.
    objects: PagedMap<u64, u64>,
}

impl VersionMap {
    /// Advance the clock once and stamp every given oid plus the
    /// relation — one mutation, or one replayed journal entry.
    pub(crate) fn bump_all(&mut self, rel: &str, oids: &[u64]) {
        self.clock += 1;
        for &oid in oids {
            self.objects.insert(oid, self.clock);
        }
        match self.relations.get_mut(rel) {
            Some(v) => *v = self.clock,
            None => {
                self.relations.insert(rel.to_string(), self.clock);
            }
        }
    }

    /// Current clock value.
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// Version of an object; 0 means it has never been written here.
    pub fn object(&self, oid: Oid) -> u64 {
        self.objects.get(&oid.0).copied().unwrap_or(0)
    }

    /// Version of a relation; 0 means it has never been mutated.
    pub fn relation(&self, rel: &str) -> u64 {
        self.relations.get(rel).copied().unwrap_or(0)
    }

    /// A point-in-time view of the counters, sharing their pages.
    pub(crate) fn snapshot(&self) -> StoreSnapshot {
        StoreSnapshot {
            clock: self.clock,
            object_versions: self.objects.clone(),
            relation_versions: self.relations.clone(),
        }
    }
}

/// A point-in-time view of the store's version counters — the lightweight
/// MVCC snapshot a consumer captures before computing something from
/// stored objects. Comparing a snapshot entry with the live counter is a
/// single integer comparison, so validating a derived result costs O(1)
/// per input regardless of how much history has accumulated since.
/// Capturing one shares the live counters' pages (O(pages), no copy).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreSnapshot {
    /// Clock value at capture time.
    pub clock: u64,
    /// OID → version at capture time.
    pub object_versions: PagedMap<u64, u64>,
    /// Relation name → version at capture time.
    pub relation_versions: BTreeMap<String, u64>,
}

impl StoreSnapshot {
    /// Version of an object at capture time (0 = never written).
    pub fn object_version(&self, oid: Oid) -> u64 {
        self.object_versions.get(&oid.0).copied().unwrap_or(0)
    }

    /// Version of a relation at capture time (0 = never mutated).
    pub fn relation_version(&self, rel: &str) -> u64 {
        self.relation_versions.get(rel).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_is_monotone_per_object_and_relation() {
        let mut v = VersionMap::default();
        assert_eq!(v.object(Oid(1)), 0);
        assert_eq!(v.relation("r"), 0);
        v.bump_all("r", &[1]);
        v.bump_all("r", &[2]);
        assert_eq!(v.object(Oid(1)), 1);
        assert_eq!(v.object(Oid(2)), 2);
        assert_eq!(v.relation("r"), 2);
        v.bump_all("s", &[1]);
        assert_eq!(v.object(Oid(1)), 3);
        assert_eq!(v.relation("r"), 2);
        assert_eq!(v.relation("s"), 3);
        assert_eq!(v.clock(), 3);
    }

    #[test]
    fn snapshot_is_a_frozen_view() {
        let mut v = VersionMap::default();
        v.bump_all("r", &[1]);
        let snap = v.snapshot();
        v.bump_all("r", &[1]);
        assert_eq!(snap.object_version(Oid(1)), 1);
        assert_eq!(v.object(Oid(1)), 2);
        assert_eq!(snap.relation_version("r"), 1);
        assert_eq!(snap.object_version(Oid(99)), 0);
    }

    #[test]
    fn bump_all_stamps_every_oid_in_one_tick() {
        let mut v = VersionMap::default();
        v.bump_all("r", &[1]);
        v.bump_all("r", &[1, 2]);
        assert_eq!(v.object(Oid(1)), 2);
        assert_eq!(v.object(Oid(2)), 2);
        assert_eq!(v.relation("r"), 2);
    }

    #[test]
    fn journal_replay_reproduces_the_exact_counters() {
        // The journal a durable database keeps is the list of ticks it
        // applied; replaying that list rebuilds identical counters.
        let ticks: Vec<(&str, Vec<u64>)> = vec![
            ("r", vec![1]),
            ("s", vec![2, 3]),
            ("r", vec![1]),
            ("t", vec![]),
        ];
        let mut live = VersionMap::default();
        let mut replayed = VersionMap::default();
        for (rel, oids) in &ticks {
            live.bump_all(rel, oids);
        }
        for (rel, oids) in &ticks {
            replayed.bump_all(rel, oids);
        }
        assert_eq!(replayed, live);
        assert_eq!(replayed.clock(), 4);
        assert_eq!(replayed.relation("t"), 4);
    }
}
