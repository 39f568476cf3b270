//! Snapshot-pinned read views: the data half of MVCC snapshots.
//!
//! [`crate::version::StoreSnapshot`] freezes the version *counters* —
//! enough to validate memoized results, not enough to answer a query.
//! A [`PinnedStore`] freezes the data too: every relation (heaps,
//! indexes, grids, statistics) plus the counter snapshot taken at the
//! same instant, so a reader holding the view answers retrievals against
//! exactly one committed state no matter how many commits land after
//! the pin.
//!
//! The freeze ([`crate::db::Database::freeze`]) is taken under the
//! owner's exclusive borrow, so a view can never observe a half-applied
//! mutation. It copies no data: relations are `Arc`-shared and their
//! contents live in copy-on-write pages ([`crate::paged`]), so freezing
//! costs O(relations + pages) and the *writer* pays the copying instead
//! — the first write to a page after a freeze copies that one page
//! (at most [`crate::paged::PAGE`] elements) and leaves the view's page
//! untouched. Views are plain values: wrap one in an `Arc` and every
//! concurrent reader shares the same frozen state.

use crate::db::Database;
use crate::version::StoreSnapshot;

/// An immutable, self-contained view of the store at one commit point:
/// the data a reader scans plus the version counters it validates
/// staleness against. Dereferences to [`Database`], so every read-only
/// accessor (`relation`, `get`, `scan`, `object_version`, …) works
/// unchanged; there is no way to reach a `&mut Database` through a view.
#[derive(Debug)]
pub struct PinnedStore {
    db: Database,
}

impl PinnedStore {
    pub(crate) fn new(db: Database) -> PinnedStore {
        PinnedStore { db }
    }

    /// The logical-clock value this view was pinned at.
    pub fn clock(&self) -> u64 {
        self.db.version_clock()
    }

    /// The version counters frozen with the data (sharing their pages).
    pub fn snapshot(&self) -> StoreSnapshot {
        self.db.store_snapshot()
    }

    /// The frozen data, as a read-only database.
    pub fn db(&self) -> &Database {
        &self.db
    }
}

impl std::ops::Deref for PinnedStore {
    type Target = Database;

    fn deref(&self) -> &Database {
        &self.db
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::Predicate;
    use crate::schema::{Field, Schema};
    use crate::tuple::Tuple;
    use gaea_adt::{TypeTag, Value};

    fn db_with_rows(n: u64) -> Database {
        let mut db = Database::new();
        let schema = Schema::new(vec![Field::required("v", TypeTag::Int4)]).unwrap();
        db.create_relation("r", schema).unwrap();
        for i in 0..n {
            db.insert("r", Tuple::new(vec![Value::Int4(i as i32)]))
                .unwrap();
        }
        db
    }

    #[test]
    fn pin_freezes_data_and_counters() {
        let mut db = db_with_rows(3);
        let view = db.freeze();
        let clock_at_pin = db.version_clock();
        db.insert("r", Tuple::new(vec![Value::Int4(99)])).unwrap();

        assert_eq!(view.clock(), clock_at_pin);
        assert_eq!(view.relation("r").unwrap().len(), 3);
        assert_eq!(db.relation("r").unwrap().len(), 4);
        // Counters frozen too: the view's clock lags the live clock.
        assert!(view.version_clock() < db.version_clock());
        assert_eq!(view.snapshot().clock, view.clock());
    }

    #[test]
    fn pinned_scans_match_the_state_at_pin_time() {
        let mut db = db_with_rows(5);
        let view = db.freeze();
        let before: Vec<_> = db
            .relation("r")
            .unwrap()
            .scan_oids(&Predicate::True)
            .unwrap();
        for oid in &before {
            db.delete("r", *oid).unwrap();
        }
        assert!(db.relation("r").unwrap().is_empty());
        let seen = view
            .relation("r")
            .unwrap()
            .scan_oids(&Predicate::True)
            .unwrap();
        assert_eq!(seen, before);
    }

    #[test]
    fn pinned_indexes_survive_the_copy() {
        let mut db = db_with_rows(4);
        db.relation_mut("r").unwrap().create_index("v").unwrap();
        let view = db.freeze();
        let hits = view
            .relation("r")
            .unwrap()
            .index_lookup("v", &Value::Int4(2))
            .unwrap();
        assert_eq!(hits.len(), 1);
    }
}
