//! # gaea-store — the storage substrate under the Gaea kernel
//!
//! The 1993 prototype sat on the Postgres 3rd-generation DBMS, using it for
//! two things only: the ADT facility (covered here by `gaea-adt`) and
//! catalog/heap relations for classes, processes, tasks and data objects.
//! This crate is the substitution: an embedded, typed-relation store with
//!
//! * OID-identified tuples over declared [`schema::Schema`]s,
//! * slotted [`heap::Heap`] pages with free-list reuse,
//! * predicate scans ([`predicate::Predicate`]) including spatial/temporal
//!   overlap — the retrieval primitives §2.1.5 step 1 needs,
//! * ordered secondary [`index::OrderedIndex`]es plus uniform-grid
//!   spatial [`grid::GridIndex`]es and per-relation optimizer
//!   [`stats::TableStats`] maintained on every mutation,
//! * undo-log [`txn::Txn`] transactions (rollback restores exactly the
//!   pre-transaction state),
//! * whole-database [`snapshot`] persistence (JSON manifest; image payloads
//!   ride along through serde),
//! * an append-only, checksummed [`wal`] (length-prefixed records, group
//!   commit with fsync batching, torn-tail-tolerant scan) — the durable
//!   substrate under the kernel's event log,
//! * MVCC [`version`] counters: every mutation stamps the touched object
//!   and relation with a fresh logical-clock value, so consumers can
//!   validate memoized derived results in O(1) per input instead of
//!   walking history ([`version::StoreSnapshot`]), and
//! * copy-on-write [`paged`] containers under every structure that grows
//!   with the data, so [`db::Database::freeze`] captures a read view (or
//!   a snapshot to serialize) in O(pages) instead of copying the data.
//!
//! See DESIGN.md §1 for why this substitution preserves the paper's
//! behaviour: the kernel only ever touches the store through these
//! interfaces.

pub mod codec;
pub mod db;
pub mod error;
pub mod grid;
pub mod heap;
pub mod index;
pub mod oid;
pub mod paged;
pub mod predicate;
pub mod schema;
pub mod snapshot;
pub mod stats;
pub mod tuple;
pub mod txn;
pub mod version;
pub mod view;
pub mod wal;

pub use db::{Database, Relation};
pub use error::{StoreError, StoreResult};
pub use grid::GridIndex;
pub use oid::Oid;
pub use predicate::{CompiledPredicate, Predicate};
pub use schema::{Field, Schema};
pub use stats::{ColumnStats, TableStats};
pub use tuple::Tuple;
pub use txn::Txn;
pub use version::StoreSnapshot;
pub use view::PinnedStore;
pub use wal::{read_wal, CrashPoint, CrashSwitch, WalScan, WalWriter};
