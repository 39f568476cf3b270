//! Snapshot-pinned read-only query execution.
//!
//! A [`ReadView`] is the kernel half of an MVCC read transaction: a
//! [`gaea_store::PinnedStore`] (frozen relations + version counters)
//! paired with the catalog and the background-job listing captured at
//! the same commit point by one [`super::Gaea::freeze`]. The freeze
//! shares every page of data and history with the live kernel, so
//! pinning costs O(pages) rather than O(data); the live kernel copies a
//! page only when it next writes to it. Every statement the server
//! classifies as read-only — `RETRIEVE` without `DERIVE`/`FRESH`, `job_status`,
//! provenance/EXPLAIN reads — executes here against the pinned state,
//! holding **no** kernel lock: concurrent readers never block behind a
//! commit or behind each other, and a reader's answer is always equal to
//! some committed prefix of the write history (snapshot isolation).
//!
//! Mutating statements (DDL, `DERIVE`, `FRESH`, updates, job
//! submit/cancel) do not fit in a view by construction: [`ReadView::query`]
//! refuses them with [`KernelError::Schema`], and the session facade
//! ([`super::session::SharedKernel`]) routes them into the serialized
//! commit path instead.

use super::jobs::{JobId, JobStatus};
use super::query as qexec;
use crate::catalog::Catalog;
use crate::error::{KernelError, KernelResult};
use crate::ids::ObjectId;
use crate::object::DataObject;
use crate::query::{Query, QueryMethod, QueryOutcome, QueryStrategy};
use gaea_store::PinnedStore;
use std::sync::Arc;

/// One background job as frozen into a view: its id, status and output
/// class at pin time.
#[derive(Debug, Clone)]
pub struct PinnedJob {
    /// The job's id.
    pub id: JobId,
    /// Status at pin time.
    pub status: JobStatus,
    /// Name of the class the job derives into (pending-visibility filter).
    pub output_class: String,
}

/// A self-contained, immutable view of one committed kernel state:
/// store data, version counters, catalog, and the job board. Cheap to
/// share (`Arc` fields), safe to query from any thread, and pinned —
/// commits landing after the pin are invisible.
#[derive(Debug, Clone)]
pub struct ReadView {
    store: Arc<PinnedStore>,
    catalog: Arc<Catalog>,
    jobs: Arc<Vec<PinnedJob>>,
}

impl ReadView {
    pub(crate) fn new(store: PinnedStore, catalog: Catalog, jobs: Vec<PinnedJob>) -> ReadView {
        ReadView {
            store: Arc::new(store),
            catalog: Arc::new(catalog),
            jobs: Arc::new(jobs),
        }
    }

    /// The logical-clock value this view is pinned at.
    pub fn clock(&self) -> u64 {
        self.store.clock()
    }

    /// The catalog as of the pin.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The pinned store (data + counters).
    pub fn store(&self) -> &PinnedStore {
        &self.store
    }

    /// Is this query answerable on a pinned view? Read-only means plain
    /// step-1 retrieval: no derivation strategy, no `FRESH` re-firing,
    /// no async submission — each of those commits.
    pub fn is_read_only(q: &Query) -> bool {
        q.strategy == QueryStrategy::RetrieveOnly && !q.fresh && !q.async_submit
    }

    /// Execute a read-only query against the pinned state: validate,
    /// step-1 retrieve through the optimizer's access paths as frozen at
    /// pin time, flag stale hits against the pinned counters, then
    /// order/limit/project. The `pending` list is the pinned job board
    /// filtered to the target classes — consistent with the same commit
    /// point as the data.
    ///
    /// A query that is not read-only ([`ReadView::is_read_only`]) is
    /// refused with [`KernelError::Schema`]; route it through the
    /// serialized commit path instead.
    pub fn query(&self, q: &Query) -> KernelResult<QueryOutcome> {
        let tracer = gaea_obs::start_trace("query", q.target.name());
        let mut result = self.query_stages(q);
        if let Ok(outcome) = &mut result {
            if let Some(trace) = tracer.finish() {
                crate::query::apply_trace(outcome, &trace);
            }
        }
        result
    }

    /// The staged body of [`ReadView::query`]: a `pin` lap for the
    /// prologue, then one lap per pipeline stage; the tracer's closing
    /// `finish` lap covers the epilogue, so the laps tile the statement.
    fn query_stages(&self, q: &Query) -> KernelResult<QueryOutcome> {
        {
            let _pin = gaea_obs::span("pin");
            if !Self::is_read_only(q) {
                return Err(KernelError::Schema(
                    "query needs the commit path (DERIVE/FRESH/ASYNC): \
                     a snapshot-pinned view only answers plain retrieval"
                        .into(),
                ));
            }
        }
        let classes = {
            let _plan = gaea_obs::span("plan");
            let classes = qexec::target_classes_in(&self.catalog, q)?;
            qexec::validate_query_in(&self.catalog, &classes, q)?;
            classes
        };
        let (hits, plans, stale) = {
            let _retrieve = gaea_obs::span("retrieve");
            let (hits, plans) = qexec::retrieve_in(self.store.db(), &self.catalog, &classes, q)?;
            for p in &plans {
                gaea_obs::note("path", p.to_string());
            }
            let stale = qexec::flag_stale_in(self.store.db(), &self.catalog, &hits);
            (hits, plans, stale)
        };
        if hits.is_empty() {
            return Err(KernelError::NoData(format!(
                "classes {classes:?} hold no matching objects; \
                 strategy forbids computation"
            )));
        }
        let _project = gaea_obs::span("project");
        let mut outcome = QueryOutcome {
            objects: hits,
            method: QueryMethod::Retrieved,
            tasks: vec![],
            stale,
            pending: vec![],
            plans,
            profile: None,
        };
        qexec::order_limit_project(&mut outcome, q);
        outcome.pending = self.pending_jobs_for(&classes);
        Ok(outcome)
    }

    /// Load one stored object from the pinned state.
    pub fn object(&self, oid: ObjectId) -> KernelResult<DataObject> {
        crate::derivation::executor::load_object(self.store.db(), &self.catalog, oid)
    }

    /// Is a stored object stale as of the pin (recorded derivation
    /// inputs mutated after it was derived, judged entirely against the
    /// pinned counters)?
    pub fn is_stale(&self, oid: ObjectId) -> bool {
        let mut memo = super::exec::StaleMemo::new();
        super::exec::object_is_stale(self.store.db(), &self.catalog, oid, &mut memo)
    }

    /// Status of a background job as of the pin. `None` for a job id the
    /// pinned state had never seen (e.g. submitted after the pin).
    pub fn job_status(&self, id: JobId) -> Option<JobStatus> {
        self.jobs
            .iter()
            .find(|j| j.id == id)
            .map(|j| j.status.clone())
    }

    /// The pinned job board.
    pub fn jobs(&self) -> &[PinnedJob] {
        &self.jobs
    }

    /// Ids of jobs unresolved at pin time whose output class is among
    /// `classes` — the pinned analogue of the live `pending` listing.
    fn pending_jobs_for(&self, classes: &[String]) -> Vec<JobId> {
        self.jobs
            .iter()
            .filter(|j| !j.status.is_terminal() && classes.contains(&j.output_class))
            .map(|j| j.id)
            .collect()
    }
}

impl super::Gaea {
    /// Freeze the current committed state into an immutable
    /// [`ReadView`]: the store (data + counters), the catalog and the job
    /// board, all as of this instant. Taken through `&self`, so the
    /// exclusive borrow discipline guarantees the freeze never observes a
    /// half-applied mutation.
    ///
    /// This is the one state-capture path: read views, synchronous
    /// checkpoints and background compaction all consume it. It copies
    /// no data — relations and catalog sections are shared by reference
    /// and stored in copy-on-write pages, so a freeze costs O(relations +
    /// pages) and the next write to each shared page copies that one
    /// page ([`gaea_store::paged`]).
    pub fn freeze(&self) -> ReadView {
        ReadView::new(self.db.freeze(), self.catalog.clone(), self.job_board())
    }

    /// Pin a [`ReadView`] of the current committed state — a
    /// [`super::Gaea::freeze`]. Cheap enough to take per statement;
    /// [`super::session::SharedKernel`] still caches one per clock value
    /// so concurrent readers share it.
    pub fn read_view(&self) -> ReadView {
        self.freeze()
    }

    /// The store's logical commit clock; advances with every mutation.
    pub fn store_clock(&self) -> u64 {
        self.db.version_clock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{ClassSpec, Gaea};
    use gaea_adt::Value;

    fn seeded() -> Gaea {
        let mut g = Gaea::in_memory();
        g.define_class(ClassSpec::base("obs").attr("v", gaea_adt::TypeTag::Int4))
            .unwrap();
        for i in 0..4 {
            g.insert_object("obs", vec![("v", Value::Int4(i))]).unwrap();
        }
        g
    }

    fn q_obs() -> Query {
        Query::class("obs").with_strategy(QueryStrategy::RetrieveOnly)
    }

    #[test]
    fn view_answers_pinned_state_only() {
        let mut g = seeded();
        let view = g.read_view();
        g.insert_object("obs", vec![("v", Value::Int4(99))])
            .unwrap();

        let pinned = view.query(&q_obs()).unwrap();
        assert_eq!(pinned.objects.len(), 4);
        let live = g.query(&q_obs()).unwrap();
        assert_eq!(live.objects.len(), 5);
        assert!(view.clock() < g.store_clock());
    }

    #[test]
    fn view_refuses_committing_queries() {
        let g = seeded();
        let view = g.read_view();
        let mut q = q_obs();
        q.fresh = true;
        assert!(matches!(view.query(&q), Err(KernelError::Schema(_))));
        let mut q = q_obs();
        q.strategy = QueryStrategy::PreferDerivation;
        assert!(matches!(view.query(&q), Err(KernelError::Schema(_))));
        let mut q = q_obs();
        q.async_submit = true;
        assert!(matches!(view.query(&q), Err(KernelError::Schema(_))));
    }

    #[test]
    fn view_empty_answer_is_nodata() {
        let mut g = Gaea::in_memory();
        g.define_class(ClassSpec::base("empty").attr("v", gaea_adt::TypeTag::Int4))
            .unwrap();
        let view = g.read_view();
        let q = Query::class("empty").with_strategy(QueryStrategy::RetrieveOnly);
        assert!(matches!(view.query(&q), Err(KernelError::NoData(_))));
    }
}
