//! The structured span tracer: thread-local span stacks, RAII stage
//! guards, and a bounded ring of recent traces.
//!
//! A *trace* covers one statement (one `Gaea::query` / `ReadView::query`
//! call); *spans* are the stages inside it (plan, retrieve, bind, fire,
//! project, …). Guards are `Drop`-based, so a panicking stage unwinds
//! through its guard and the thread-local stack stays consistent — the
//! next statement on the thread starts from a clean slate.
//!
//! Top-level (depth-1) spans are *laps*: each starts exactly where the
//! previous one ended — the first at the trace start — and closing the
//! trace records the time since the last lap as a final `finish` lap.
//! The laps therefore tile the statement, and their sum equals the
//! trace total by construction (up to per-lap µs truncation): time the
//! thread spends descheduled between two stages is charged to the next
//! stage instead of vanishing from the profile. Deeper spans time only
//! themselves.
//!
//! Finished traces land in a process-wide ring buffer holding the last
//! N traces whose total wall time meets the slow-trace threshold
//! (`GAEA_SLOW_QUERY_US`, default 0 = keep everything; ring capacity
//! `GAEA_TRACE_RING`, default 32). The server's `Trace` wire request
//! drains a copy of this ring for live inspection.

use crate::metrics::metrics;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Name of the lap that closes every trace with at least one depth-1
/// span: the statement epilogue since the last stage ended.
pub const FINISH_LAP: &str = "finish";

/// A closed span: stage name, nesting depth (1 = direct child of the
/// trace root), wall time, and any annotations attached while open.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    pub name: &'static str,
    pub depth: u16,
    pub wall_us: u64,
    pub notes: Vec<(&'static str, String)>,
}

/// A finished trace: the root name, a free-form label (e.g. the target
/// class), total wall time, root-level annotations, and the closed
/// spans in completion order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Trace {
    pub root: &'static str,
    pub label: String,
    pub total_us: u64,
    pub notes: Vec<(&'static str, String)>,
    pub spans: Vec<SpanRecord>,
}

struct OpenSpan {
    name: &'static str,
    start: Instant,
    notes: Vec<(&'static str, String)>,
}

struct ActiveTrace {
    root: &'static str,
    label: String,
    start: Instant,
    /// Where the next depth-1 lap starts: the end of the previous one,
    /// or the trace start.
    mark: Instant,
    notes: Vec<(&'static str, String)>,
    open: Vec<OpenSpan>,
    closed: Vec<SpanRecord>,
}

impl ActiveTrace {
    /// Close every open span at or above stack position `index` at the
    /// instant `now`; a closing depth-1 span moves the lap mark.
    fn close_from(&mut self, index: usize, now: Instant) {
        while self.open.len() > index {
            let span = self.open.pop().expect("len > index implies nonempty");
            let depth = (self.open.len() + 1) as u16;
            if depth == 1 {
                self.mark = now;
            }
            self.closed.push(SpanRecord {
                name: span.name,
                depth,
                wall_us: now.duration_since(span.start).as_micros() as u64,
                notes: span.notes,
            });
        }
    }
}

thread_local! {
    static ACTIVE: RefCell<Option<ActiveTrace>> = const { RefCell::new(None) };
}

/// Start a trace on this thread. If one is already active (a nested
/// statement, e.g. a refresh issued mid-query), the call degrades to a
/// plain span of the outer trace instead of resetting it.
pub fn start_trace(root: &'static str, label: impl Into<String>) -> TraceGuard {
    let nested = ACTIVE.with(|a| {
        let mut slot = a.borrow_mut();
        if slot.is_some() {
            true
        } else {
            let start = Instant::now();
            *slot = Some(ActiveTrace {
                root,
                label: label.into(),
                start,
                mark: start,
                notes: Vec::new(),
                open: Vec::new(),
                closed: Vec::new(),
            });
            false
        }
    });
    if nested {
        TraceGuard {
            inner: TraceGuardInner::Nested { _span: span(root) },
        }
    } else {
        TraceGuard {
            inner: TraceGuardInner::Root { finished: false },
        }
    }
}

enum TraceGuardInner {
    /// This guard owns the thread's active trace.
    Root { finished: bool },
    /// A trace was already active; this guard is just a span of it
    /// (held only for its Drop).
    Nested { _span: SpanGuard },
}

/// RAII handle for an active trace. [`TraceGuard::finish`] closes the
/// trace and returns it; plain `Drop` (e.g. on unwind) closes it
/// without returning it, still feeding the metrics and the ring.
pub struct TraceGuard {
    inner: TraceGuardInner,
}

impl TraceGuard {
    /// Close the trace and hand it back. Returns `None` when this guard
    /// was nested inside an outer trace (the outer one owns the data).
    pub fn finish(mut self) -> Option<Trace> {
        match &mut self.inner {
            TraceGuardInner::Root { finished } => {
                *finished = true;
                close_active()
            }
            TraceGuardInner::Nested { .. } => None,
        }
    }
}

impl Drop for TraceGuard {
    fn drop(&mut self) {
        if let TraceGuardInner::Root { finished: false } = self.inner {
            // Unwind or early return: finalize so the thread-local slot
            // is clean for the next statement on this thread.
            let _ = close_active();
        }
    }
}

/// Finalize the thread's active trace: close any spans the unwind left
/// open, record the [`FINISH_LAP`], stamp the total, feed the query
/// metrics, and retain the trace in the ring when it meets the slow
/// threshold.
fn close_active() -> Option<Trace> {
    let trace = ACTIVE.with(|a| {
        let mut slot = a.borrow_mut();
        let mut t = slot.take()?;
        let end = Instant::now();
        // Spans still open (a panic skipped their guards' pops in rare
        // leak cases) are closed here at their recorded depth.
        t.close_from(0, end);
        if t.closed.iter().any(|s| s.depth == 1) {
            t.closed.push(SpanRecord {
                name: FINISH_LAP,
                depth: 1,
                wall_us: end.duration_since(t.mark).as_micros() as u64,
                notes: Vec::new(),
            });
        }
        Some(Trace {
            root: t.root,
            label: t.label,
            total_us: end.duration_since(t.start).as_micros() as u64,
            notes: t.notes,
            spans: t.closed,
        })
    })?;

    let m = metrics();
    m.queries_total.inc();
    m.query_us.record(trace.total_us);
    let threshold = slow_threshold_us();
    if threshold > 0 && trace.total_us >= threshold {
        m.queries_slow.inc();
    }
    if trace.total_us >= threshold {
        push_ring(trace.clone());
    }
    Some(trace)
}

/// Open a stage span on the current trace. A depth-1 span is a lap: it
/// starts where the previous lap ended (see the module docs). A no-op
/// guard is returned when no trace is active on this thread, so lower
/// layers can span unconditionally.
pub fn span(name: &'static str) -> SpanGuard {
    let index = ACTIVE.with(|a| {
        let mut slot = a.borrow_mut();
        slot.as_mut().map(|t| {
            let start = if t.open.is_empty() {
                t.mark
            } else {
                Instant::now()
            };
            t.open.push(OpenSpan {
                name,
                start,
                notes: Vec::new(),
            });
            t.open.len() - 1
        })
    });
    SpanGuard { index }
}

/// RAII guard for one stage span; closing records the wall time.
pub struct SpanGuard {
    /// Position in the open-span stack at creation, `None` when no
    /// trace was active.
    index: Option<usize>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(index) = self.index else { return };
        ACTIVE.with(|a| {
            let mut slot = a.borrow_mut();
            let Some(t) = slot.as_mut() else { return };
            // Pop everything at or above our index: guards drop LIFO on
            // both the normal and the unwind path, but truncating makes
            // a leaked inner guard harmless rather than corrupting.
            t.close_from(index, Instant::now());
        });
    }
}

/// Attach a `key = value` annotation to the innermost open span, or to
/// the trace root when no span is open. Ignored when no trace is
/// active.
pub fn note(key: &'static str, value: impl Into<String>) {
    ACTIVE.with(|a| {
        let mut slot = a.borrow_mut();
        let Some(t) = slot.as_mut() else { return };
        let notes = match t.open.last_mut() {
            Some(span) => &mut span.notes,
            None => &mut t.notes,
        };
        notes.push((key, value.into()));
    });
}

// ---- the slow-trace ring ----

const DEFAULT_RING_CAPACITY: usize = 32;

fn ring() -> &'static Mutex<VecDeque<Trace>> {
    static RING: OnceLock<Mutex<VecDeque<Trace>>> = OnceLock::new();
    RING.get_or_init(|| Mutex::new(VecDeque::with_capacity(DEFAULT_RING_CAPACITY)))
}

fn push_ring(trace: Trace) {
    let cap = ring_capacity();
    if cap == 0 {
        return;
    }
    let mut ring = ring().lock().unwrap_or_else(PoisonError::into_inner);
    while ring.len() >= cap {
        ring.pop_front();
    }
    ring.push_back(trace);
}

/// Copy out the retained traces, oldest first.
pub fn recent_traces() -> Vec<Trace> {
    let ring = ring().lock().unwrap_or_else(PoisonError::into_inner);
    ring.iter().cloned().collect()
}

/// Drop every retained trace (tests and targeted inspection sessions).
pub fn clear_traces() {
    let mut ring = ring().lock().unwrap_or_else(PoisonError::into_inner);
    ring.clear();
}

// Thresholds are cached in atomics after a first env read; the sentinel
// u64::MAX means "not initialized yet". Setters exist so embedders and
// tests can reconfigure without the env races of `set_var`.

static SLOW_US: AtomicU64 = AtomicU64::new(u64::MAX);
static RING_CAP: AtomicU64 = AtomicU64::new(u64::MAX);

/// Environment knob: traces with `total_us` at or above this value are
/// retained in the ring and counted as slow. 0 (the default) retains
/// every trace and counts none as slow.
pub const SLOW_QUERY_ENV: &str = "GAEA_SLOW_QUERY_US";

/// Environment knob: how many traces the ring retains (default 32,
/// 0 disables retention).
pub const TRACE_RING_ENV: &str = "GAEA_TRACE_RING";

fn env_u64(var: &str, fallback: u64) -> u64 {
    std::env::var(var)
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .unwrap_or(fallback)
}

/// Current slow-trace threshold in µs (see [`SLOW_QUERY_ENV`]).
pub fn slow_threshold_us() -> u64 {
    match SLOW_US.load(Ordering::Relaxed) {
        u64::MAX => {
            let v = env_u64(SLOW_QUERY_ENV, 0).min(u64::MAX - 1);
            SLOW_US.store(v, Ordering::Relaxed);
            v
        }
        v => v,
    }
}

/// Override the slow-trace threshold for this process.
pub fn set_slow_threshold_us(us: u64) {
    SLOW_US.store(us.min(u64::MAX - 1), Ordering::Relaxed);
}

fn ring_capacity() -> usize {
    match RING_CAP.load(Ordering::Relaxed) {
        u64::MAX => {
            let v = env_u64(TRACE_RING_ENV, DEFAULT_RING_CAPACITY as u64).min(4096);
            RING_CAP.store(v, Ordering::Relaxed);
            v as usize
        }
        v => v as usize,
    }
}

/// Override the ring capacity for this process (clamped to 4096).
pub fn set_ring_capacity(n: usize) {
    RING_CAP.store((n as u64).min(4096), Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn spans_nest_and_record_in_completion_order() {
        let _serial = ring_lock();
        let t = start_trace("query", "obs");
        {
            let _plan = span("plan");
        }
        {
            let _retrieve = span("retrieve");
            note("path", "index(v)");
            {
                let _inner = span("scan");
            }
        }
        let trace = t.finish().expect("outermost trace returns data");
        let names: Vec<_> = trace.spans.iter().map(|s| (s.name, s.depth)).collect();
        assert_eq!(
            names,
            vec![("plan", 1), ("scan", 2), ("retrieve", 1), (FINISH_LAP, 1)]
        );
        let retrieve = trace.spans.iter().find(|s| s.name == "retrieve").unwrap();
        assert_eq!(retrieve.notes, vec![("path", "index(v)".to_string())]);
        assert_eq!(trace.root, "query");
        assert_eq!(trace.label, "obs");
    }

    #[test]
    fn a_panicking_stage_leaves_the_stack_clean() {
        let _serial = ring_lock();
        let blown = catch_unwind(AssertUnwindSafe(|| {
            let _t = start_trace("query", "boom");
            let _outer = span("derive");
            let _inner = span("fire");
            panic!("stage blew up");
        }));
        assert!(blown.is_err());
        // The thread-local slot must be empty again: a fresh trace works
        // and sees only its own spans.
        let t = start_trace("query", "after");
        {
            let _s = span("plan");
        }
        let trace = t.finish().unwrap();
        let names: Vec<_> = trace.spans.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["plan", FINISH_LAP]);
    }

    #[test]
    fn nested_start_degrades_to_a_span() {
        let _serial = ring_lock();
        let outer = start_trace("query", "outer");
        let inner = start_trace("query", "inner");
        assert!(inner.finish().is_none());
        let trace = outer.finish().unwrap();
        // The inner "trace" shows up as a depth-1 span of the outer one.
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.spans[0].name, "query");
        assert_eq!(trace.spans[0].depth, 1);
        assert_eq!(trace.spans[1].name, FINISH_LAP);
    }

    #[test]
    fn laps_tile_the_trace_even_across_gaps() {
        let _serial = ring_lock();
        let pause = std::time::Duration::from_millis(3);
        let t = start_trace("query", "laps");
        // Time outside any span — before the first lap, between laps and
        // after the last — is charged to the next lap or to `finish`.
        std::thread::sleep(pause);
        {
            let _plan = span("plan");
            let _inner = span("scan");
        }
        std::thread::sleep(pause);
        {
            let _project = span("project");
        }
        std::thread::sleep(pause);
        let trace = t.finish().unwrap();
        let laps: Vec<_> = trace.spans.iter().filter(|s| s.depth == 1).collect();
        let names: Vec<_> = laps.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["plan", "project", FINISH_LAP]);
        for lap in &laps {
            assert!(lap.wall_us >= 3_000, "{lap:?} absorbed no pause");
        }
        let sum: u64 = laps.iter().map(|s| s.wall_us).sum();
        // Each lap truncates to whole µs, so the sum may trail by < 1µs
        // per lap — and can never exceed the total.
        assert!(sum <= trace.total_us && trace.total_us - sum < laps.len() as u64);
    }

    #[test]
    fn a_trace_without_laps_gets_no_finish_lap() {
        let _serial = ring_lock();
        let t = start_trace("query", "empty");
        assert!(t.finish().unwrap().spans.is_empty());
    }

    /// The ring and thresholds are process-global; tests touching them
    /// serialize here so the parallel test runner can't interleave them.
    fn ring_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn ring_retains_bounded_traces() {
        let _serial = ring_lock();
        set_slow_threshold_us(0);
        set_ring_capacity(4);
        clear_traces();
        for i in 0..6 {
            let t = start_trace("query", format!("t{i}"));
            drop(t.finish());
        }
        let traces = recent_traces();
        assert_eq!(traces.len(), 4);
        assert_eq!(traces.first().unwrap().label, "t2");
        assert_eq!(traces.last().unwrap().label, "t5");
        clear_traces();
    }

    #[test]
    fn threshold_filters_ring_retention() {
        let _serial = ring_lock();
        set_ring_capacity(32);
        set_slow_threshold_us(60_000_000); // nothing in this test is that slow
        clear_traces();
        let t = start_trace("query", "fast");
        drop(t.finish());
        assert!(recent_traces().is_empty());
        set_slow_threshold_us(0);
        clear_traces();
    }
}
