//! The traced run: replay a wire run's operations in-process, calling
//! each layer's public function in the order the server's
//! `answer`/`retrieve` does, with a benchmark-side span around each call.
//!
//! Layers and their spans:
//! `protocol.decode`/`protocol.encode` (`read_frame`/`write_frame` on the
//! real request and response), `session.pin`, `lang.compile`
//! (`compile_query` on the pinned catalog), `readonly.query`
//! (`ReadView::query`), and `session.exec` split into `session.lock_wait`
//! (call to closure start), `session.hold` (the closure, around
//! `query.query` = `Gaea::query` or `store.insert`/`store.update`) and
//! `session.epilogue` (closure end to return: compaction poll and view
//! publish). Every statement's root span is `stmt.<kind>`.
//!
//! A seeded half of the operations runs with spans off; comparing the two
//! halves gives the tracing overhead.

use crate::check::Acked;
use crate::drive::{self, Conn, Ctx, Entry};
use crate::ops::Rng;
use crate::stats::{median, percentile, OpKind, Tally};
use gaea_adt::Value;
use gaea_core::kernel::{Gaea, ReadView, SharedKernel};
use gaea_core::{KernelError, ObjectId};
use gaea_lang::compile_query;
use gaea_server::protocol::{read_frame, write_frame, FRAME_REQUEST, FRAME_RESPONSE};
use gaea_server::{Request, Response, WireOutcome};
use std::collections::{BTreeMap, BTreeSet};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    pub req: u64,
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Per-layer counts, gathered for every statement, spans on or off.
#[derive(Debug, Default)]
struct Counts {
    commits: u64,
    view_clocks: BTreeSet<u64>,
    rows_estimated: u64,
    rows_returned: u64,
    derive_statements: u64,
    derive_retrieved: u64,
    derive_us: Vec<f64>,
    bind_us: Vec<f64>,
    fire_us: Vec<f64>,
    request_bytes: Vec<f64>,
    response_bytes: Vec<f64>,
}

/// The in-process session: a [`Conn`] that runs each statement through
/// the server's layers by hand.
pub struct InProc {
    kernel: Arc<SharedKernel>,
    origin: Instant,
    spans: Vec<Span>,
    /// Spans on for the current statement?
    on: bool,
    kind: OpKind,
    req: u64,
    counts: Counts,
    /// Statement totals (root span) by kind: `[traced, untraced]`.
    totals: BTreeMap<(&'static str, bool), Vec<f64>>,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

impl InProc {
    pub fn new(kernel: Arc<SharedKernel>) -> InProc {
        InProc {
            kernel,
            origin: Instant::now(),
            spans: Vec::new(),
            on: true,
            kind: OpKind::Read,
            req: 0,
            counts: Counts::default(),
            totals: BTreeMap::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    fn span(&mut self, name: &'static str, parent: Option<usize>, a: Instant, b: Instant) -> usize {
        if !self.on {
            return usize::MAX;
        }
        self.spans.push(Span {
            req: self.req,
            name,
            parent,
            start_ns: self.ns(a),
            end_ns: self.ns(b),
        });
        self.spans.len() - 1
    }

    /// Reserve a span whose end is filled in later (a parent).
    fn open(&mut self, name: &'static str, parent: Option<usize>, a: Instant) -> usize {
        self.span(name, parent, a, a)
    }

    fn close(&mut self, idx: usize, b: Instant) {
        if self.on {
            self.spans[idx].end_ns = self.ns(b);
        }
    }

    fn pin(&mut self, parent: usize) -> Arc<ReadView> {
        let a = Instant::now();
        let view = self.kernel.pin();
        self.span("session.pin", Some(parent), a, Instant::now());
        self.counts.view_clocks.insert(view.clock());
        view
    }

    /// `SharedKernel::exec`, timed from outside as lock wait / hold /
    /// epilogue; the hold is the layer call `inner`. Returns the call's
    /// result and duration, µs.
    fn exec<R>(
        &mut self,
        parent: usize,
        inner: &'static str,
        f: impl FnOnce(&mut Gaea) -> R,
    ) -> (R, f64) {
        let call = Instant::now();
        let (r, t_in, t_out) = self.kernel.exec(|g| {
            let t_in = Instant::now();
            let r = f(g);
            (r, t_in, Instant::now())
        });
        let ret = Instant::now();
        let exec = self.span("session.exec", Some(parent), call, ret);
        self.span("session.lock_wait", Some(exec), call, t_in);
        let hold = self.span("session.hold", Some(exec), t_in, t_out);
        self.span(inner, Some(hold), t_in, t_out);
        self.span("session.epilogue", Some(exec), t_out, ret);
        self.counts.commits += 1;
        (r, (t_out - t_in).as_secs_f64() * 1e6)
    }

    fn answer_retrieve(&mut self, root: usize, src: &str) -> Response {
        let view = self.pin(root);
        let a = Instant::now();
        let compiled = compile_query(view.catalog(), src);
        self.span("lang.compile", Some(root), a, Instant::now());
        let q = match compiled {
            Ok(q) => q,
            Err(e) => {
                return Response::Error {
                    message: e.to_string(),
                }
            }
        };
        if ReadView::is_read_only(&q) {
            let a = Instant::now();
            let out = view.query(&q);
            self.span("readonly.query", Some(root), a, Instant::now());
            return match out {
                Ok(o) => {
                    self.counts.rows_estimated +=
                        o.plans.iter().map(|p| p.estimated_rows).sum::<u64>();
                    self.counts.rows_returned += o.objects.len() as u64;
                    Response::Outcome(WireOutcome::from_outcome(o, view.clock()))
                }
                Err(e) => Response::Error {
                    message: e.to_string(),
                },
            };
        }
        let (out, query_us) = self.exec(root, "query.query", |g| {
            g.query(&q).map(|o| (o, g.store_clock()))
        });
        match out {
            Ok((o, clock)) => {
                self.counts.derive_statements += 1;
                if o.tasks.is_empty() {
                    self.counts.derive_retrieved += 1;
                } else if let Some(p) = &o.profile {
                    self.counts.derive_us.push(query_us);
                    let sum = |name: &str| -> f64 {
                        p.stages
                            .iter()
                            .filter(|s| s.stage == name)
                            .map(|s| s.wall_us as f64)
                            .sum()
                    };
                    self.counts.bind_us.push(sum("bind"));
                    // A FRESH re-fire runs inside the project stage,
                    // through the recorded bindings.
                    let refire = if q.fresh { sum("project") } else { 0.0 };
                    self.counts.fire_us.push(sum("fire") + refire);
                }
                Response::Outcome(WireOutcome::from_outcome(o, clock))
            }
            Err(e) => Response::Error {
                message: e.to_string(),
            },
        }
    }

    fn write_response(r: Result<u64, KernelError>, update: bool) -> Response {
        match r {
            Ok(_) if update => Response::Updated,
            Ok(oid) => Response::Inserted { oid },
            Err(e) => Response::Error {
                message: e.to_string(),
            },
        }
    }

    /// One statement through decode → dispatch → encode.
    fn statement(&mut self, req: &Request) -> Result<Response, String> {
        let mut wire = Vec::new();
        write_frame(&mut wire, FRAME_REQUEST, req).map_err(err)?;
        self.req += 1;
        let start = Instant::now();
        let root = self.open(stmt_name(self.kind), None, start);

        let a = Instant::now();
        let decoded: Request = read_frame(&mut wire.as_slice(), FRAME_REQUEST).map_err(err)?;
        self.span("protocol.decode", Some(root), a, Instant::now());

        let resp = match decoded {
            Request::Retrieve { src } => self.answer_retrieve(root, &src),
            Request::Insert { class, attrs } => {
                let (r, _) = self.exec(root, "store.insert", |g| {
                    let borrowed = attrs.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
                    g.insert_object(&class, borrowed).map(|o| o.raw())
                });
                Self::write_response(r, false)
            }
            Request::Update { oid, attrs } => {
                let (r, _) = self.exec(root, "store.update", |g| {
                    let borrowed = attrs.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
                    g.update_object(ObjectId(gaea_store::Oid(oid)), borrowed)
                        .map(|()| oid)
                });
                Self::write_response(r, true)
            }
            other => return Err(format!("the replay sends no {other:?}")),
        };

        let a = Instant::now();
        let mut out = Vec::new();
        write_frame(&mut out, FRAME_RESPONSE, &resp).map_err(err)?;
        let end = Instant::now();
        self.span("protocol.encode", Some(root), a, end);
        self.close(root, end);
        let total = (end - start).as_secs_f64() * 1e6;
        self.totals
            .entry((self.kind.name(), self.on))
            .or_default()
            .push(total);
        self.counts.request_bytes.push(wire.len() as f64);
        self.counts.response_bytes.push(out.len() as f64);
        read_frame(&mut out.as_slice(), FRAME_RESPONSE).map_err(err)
    }
}

fn stmt_name(kind: OpKind) -> &'static str {
    match kind {
        OpKind::Read => "stmt.read",
        OpKind::Write => "stmt.write",
        OpKind::Derive => "stmt.derive",
    }
}

impl Conn for InProc {
    fn label(&mut self, kind: OpKind) {
        self.kind = kind;
    }

    fn retrieve(&mut self, src: &str) -> Result<WireOutcome, String> {
        match self.statement(&Request::Retrieve { src: src.into() })? {
            Response::Outcome(o) => Ok(o),
            Response::Error { message } => Err(message),
            other => Err(format!("unexpected {other:?}")),
        }
    }

    fn insert(&mut self, class: &str, attrs: Vec<(String, Value)>) -> Result<u64, String> {
        match self.statement(&Request::Insert {
            class: class.into(),
            attrs,
        })? {
            Response::Inserted { oid } => Ok(oid),
            Response::Error { message } => Err(message),
            other => Err(format!("unexpected {other:?}")),
        }
    }

    fn update(&mut self, oid: u64, attrs: Vec<(String, Value)>) -> Result<(), String> {
        match self.statement(&Request::Update { oid, attrs })? {
            Response::Updated => Ok(()),
            Response::Error { message } => Err(message),
            other => Err(format!("unexpected {other:?}")),
        }
    }
}

/// Bytes this process has caused to be sent to storage
/// (`/proc/self/io` `write_bytes`); `None` where the file is missing.
pub fn io_write_bytes() -> Option<u64> {
    let io = std::fs::read_to_string("/proc/self/io").ok()?;
    io.lines()
        .find_map(|l| l.strip_prefix("write_bytes:"))
        .and_then(|v| v.trim().parse().ok())
}

/// Process-wide WAL counters from the kernel's metrics registry.
#[derive(Debug, Clone, Copy)]
struct WalCounters {
    appends: u64,
    fsyncs: u64,
    compactions: u64,
    compaction_us_sum: u64,
    compaction_count: u64,
}

fn wal_counters() -> WalCounters {
    let m = gaea_obs::metrics();
    WalCounters {
        appends: m.wal_appends.get(),
        fsyncs: m.wal_fsyncs.get(),
        compactions: m.wal_compactions.get(),
        compaction_us_sum: m.wal_compaction_us.sum(),
        compaction_count: m.wal_compaction_us.count(),
    }
}

/// What the traced replay produced.
pub struct Traced {
    pub tally: Tally,
    pub acked: Acked,
    /// Per-layer metrics, by name, with their units.
    pub metrics: Vec<(String, f64, &'static str)>,
    pub spans: Vec<Span>,
    /// In-process statement totals (traced), µs, by kind name.
    pub totals: BTreeMap<&'static str, Vec<f64>>,
}

/// Replay `log` in-process over `kernel`, back to back, spans on for a
/// seeded half of the operations.
pub fn replay(ctx: &Ctx, kernel: Arc<SharedKernel>, log: &[Entry]) -> Result<Traced, String> {
    let wal0 = wal_counters();
    let io0 = io_write_bytes();
    let mut conn = InProc::new(Arc::clone(&kernel));
    let mut tally = Tally::default();
    let mut acked = Acked::default();
    // Spans on for a seeded half of the operations: a fixed alternation
    // would alias with the workloads' own periodic mixes.
    let mut coin = Rng::stream(ctx.seed, 6);
    for entry in log {
        conn.on = coin.next_u64() & 1 == 0;
        drive::send(ctx, &mut conn, entry, &mut tally, &mut acked);
    }
    // The publish cost at the end-of-run state: one full view copy.
    let read_view_us = kernel.exec(|g| {
        let samples: Vec<f64> = (0..9)
            .map(|_| {
                let a = Instant::now();
                std::hint::black_box(g.read_view());
                a.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        median(&samples).unwrap_or(0.0)
    });
    let statements = conn.req;
    let InProc {
        kernel: session,
        spans,
        counts,
        totals,
        ..
    } = conn;
    drop(session);
    match kernel.close() {
        Ok(Ok(())) => {}
        Ok(Err(e)) => return Err(format!("replay close: {e}")),
        Err(_) => return Err("replay kernel still shared at close".into()),
    }
    let wal1 = wal_counters();
    let io_bytes = match (io0, io_write_bytes()) {
        (Some(a), Some(b)) => b.saturating_sub(a),
        _ => 0,
    };

    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    let mut put =
        |name: &str, v: f64, unit: &'static str| metrics.push((name.to_string(), v, unit));
    let by_name = durations_by_name(&spans);
    for layer in [
        "protocol.decode",
        "protocol.encode",
        "lang.compile",
        "session.pin",
        "session.lock_wait",
        "session.hold",
        "session.epilogue",
        "readonly.query",
    ] {
        let v = by_name.get(layer).cloned().unwrap_or_default();
        put(&format!("{layer}_p50_us"), pct(&v, 50.0), "us");
        put(&format!("{layer}_p99_us"), pct(&v, 99.0), "us");
    }
    put(
        "protocol.request_bytes_p50",
        pct(&counts.request_bytes, 50.0),
        "bytes",
    );
    put(
        "protocol.request_bytes_p99",
        pct(&counts.request_bytes, 99.0),
        "bytes",
    );
    put(
        "protocol.response_bytes_p50",
        pct(&counts.response_bytes, 50.0),
        "bytes",
    );
    put(
        "protocol.response_bytes_p99",
        pct(&counts.response_bytes, 99.0),
        "bytes",
    );
    put(
        "session.views_per_write",
        ratio(counts.view_clocks.len() as f64, counts.commits as f64),
        "ratio",
    );
    put(
        "readonly.rows_examined_per_row",
        ratio(counts.rows_estimated as f64, counts.rows_returned as f64),
        "ratio",
    );
    for (name, v) in [
        ("query.derive", &counts.derive_us),
        ("query.bind", &counts.bind_us),
        ("query.fire", &counts.fire_us),
    ] {
        put(&format!("{name}_p50_us"), pct(v, 50.0), "us");
        put(&format!("{name}_p99_us"), pct(v, 99.0), "us");
    }
    put(
        "query.retrieved_frac",
        ratio(
            counts.derive_retrieved as f64,
            counts.derive_statements as f64,
        ),
        "ratio",
    );
    put("store.read_view_us", read_view_us, "us");
    let ops = statements as f64;
    put(
        "wal.appends_per_op",
        ratio((wal1.appends - wal0.appends) as f64, ops),
        "ratio",
    );
    put(
        "wal.fsyncs_per_op",
        ratio((wal1.fsyncs - wal0.fsyncs) as f64, ops),
        "ratio",
    );
    put(
        "wal.compactions",
        (wal1.compactions - wal0.compactions) as f64,
        "count",
    );
    put(
        "wal.compaction_mean_us",
        ratio(
            (wal1.compaction_us_sum - wal0.compaction_us_sum) as f64,
            (wal1.compaction_count - wal0.compaction_count) as f64,
        ),
        "us",
    );
    put(
        "store.bytes_written_per_user_byte",
        ratio(io_bytes as f64, acked.user_bytes as f64),
        "ratio",
    );

    // Reconciliation: a statement's root self time is what no layer span
    // covers.
    let own = self_times_us(&spans);
    let (mut unaccounted, mut root_total) = (Vec::new(), 0.0);
    for (s, own) in spans.iter().zip(&own) {
        if s.parent.is_none() {
            unaccounted.push(*own);
            root_total += s.us();
        }
    }
    let root_self: f64 = unaccounted.iter().sum();
    put("trace.unaccounted_p50_us", pct(&unaccounted, 50.0), "us");
    put(
        "trace.unaccounted_frac",
        ratio(root_self, root_total),
        "ratio",
    );

    // Tracing overhead: spans-on vs spans-off statement medians by kind,
    // weighted by how many statements of the kind ran.
    let (mut on_w, mut off_w) = (0.0, 0.0);
    for kind in OpKind::ALL {
        let on = totals.get(&(kind.name(), true));
        let off = totals.get(&(kind.name(), false));
        if let (Some(on), Some(off)) = (on, off) {
            let n = (on.len() + off.len()) as f64;
            on_w += n * median(on).unwrap_or(0.0);
            off_w += n * median(off).unwrap_or(0.0);
        }
    }
    put("trace.overhead_frac", ratio(on_w, off_w) - 1.0, "ratio");

    let traced_totals = totals
        .into_iter()
        .filter(|((_, on), _)| *on)
        .map(|((k, _), v)| (k, v))
        .collect();
    Ok(Traced {
        tally,
        acked,
        metrics,
        spans,
        totals: traced_totals,
    })
}

fn pct(v: &[f64], p: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    percentile(&s, p).unwrap_or(0.0)
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// Each span's self time: its duration less its children's, µs.
fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(Span::us).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.us();
        }
    }
    own
}

fn durations_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        out.entry(s.name).or_default().push(s.us());
    }
    out
}

/// Write the spans (one JSON object per line) and the per-layer
/// self-time table.
pub fn write_outputs(dir: &Path, stem: &str, t: &Traced) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut f = std::io::BufWriter::new(std::fs::File::create(
        dir.join(format!("{stem}.spans.jsonl")),
    )?);
    for (i, s) in t.spans.iter().enumerate() {
        writeln!(
            f,
            "{{\"id\":{i},\"req\":{},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.req,
            s.name,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            s.start_ns,
            s.end_ns
        )?;
    }
    f.flush()?;

    let mut self_us: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
    for (s, own) in t.spans.iter().zip(self_times_us(&t.spans)) {
        let e = self_us.entry(s.name).or_default();
        e.0 += 1;
        e.1 += own;
    }
    let mut table = String::from("span                      count     self_total_ms\n");
    for (name, (n, us)) in &self_us {
        table.push_str(&format!("{name:<24} {n:>7} {:>16.3}\n", us / 1e3));
    }
    table.push_str("\nmetric                               value  unit\n");
    for (name, v, unit) in &t.metrics {
        table.push_str(&format!("{name:<34} {v:>10.3}  {unit}\n"));
    }
    std::fs::write(dir.join(format!("{stem}.layers.txt")), table)
}
