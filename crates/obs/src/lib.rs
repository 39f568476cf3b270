//! # gaea-obs — end-to-end observability for the Gaea stack
//!
//! The introspection layer every other crate instruments through, kept
//! deliberately dependency-free so it can sit *below* the store and the
//! scheduler:
//!
//! * [`mod@metrics`] — a fixed, process-wide registry of atomic counters,
//!   gauges, and log-bucketed latency histograms with p50/p95/p99
//!   extraction. Always on: one relaxed atomic add per event, a stable
//!   snapshot key set, hand-rolled JSON export.
//! * [`trace`] — structured spans over a thread-local stack with RAII
//!   guards (unwind-safe: a panicking stage cannot corrupt the stack),
//!   per-span wall times and annotations, and a bounded ring retaining
//!   the last N traces at or over the `GAEA_SLOW_QUERY_US` threshold.
//!
//! The kernel turns a statement's trace into the `EXPLAIN ANALYZE`-style
//! `QueryOutcome::profile`; the server exports [`MetricsRegistry`]
//! snapshots and the trace ring over its `Stats`/`Trace` wire requests.

pub mod metrics;
pub mod trace;

pub use metrics::{
    bucket_ceil, bucket_index, dump_snapshot_to_env_path, metrics, Counter, Gauge, Histogram,
    MetricsRegistry, MetricsSnapshot, HIST_BUCKETS, METRICS_JSON_ENV,
};
pub use trace::{
    clear_traces, note, recent_traces, set_ring_capacity, set_slow_threshold_us, slow_threshold_us,
    span, start_trace, SpanGuard, SpanRecord, Trace, TraceGuard, FINISH_LAP, SLOW_QUERY_ENV,
    TRACE_RING_ENV,
};
