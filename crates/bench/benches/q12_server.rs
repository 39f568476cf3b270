//! Experiment Q12 — multi-session server: reader latency under
//! concurrency, with and without a writer continuously committing.
//!
//! The tentpole claim quantified: snapshot-pinned reads run off the
//! kernel mutex, so K concurrent readers should see flat latency
//! whether the commit path is idle or saturated by a writer.
//!
//! Rows (all via an in-process server over loopback TCP):
//!
//! * `server_roundtrip_ping` — one session's request/response floor
//!   (frame codec + syscalls, no kernel work), a criterion row.
//! * `server_read_k{1,4,16,64}_idle` — K reader sessions, no writer:
//!   per-read p50/p99 and aggregate throughput.
//! * `server_read_k{1,4,16,64}_busy` — the same with one writer
//!   session committing inserts continuously. The acceptance gate
//!   compares `k16_busy` p99 against `k16_idle` p99 (≤ 3× — see
//!   `scripts/server_smoke.sh`).
//! * `server_pin_{1k,10k,100k}` — criterion rows: `SharedKernel::pin`
//!   right after a one-row commit on an extent of that many rows, so
//!   every pin publishes a fresh view (one freeze). The gate requires
//!   pin(100k) ≤ 10 × pin(1k): a freeze shares pages instead of
//!   copying the extent, where a deep copy scales ~240×.
//!
//! The K-sweep rows carry real percentiles, which criterion's
//! iteration model cannot express, so this bench appends them to
//! `GAEA_BENCH_JSON` itself in the same JSONL shape the vendored
//! criterion uses (`median_ns` = p50 so downstream tooling reads every
//! row uniformly); `scripts/bench_summary.sh q12_server server_`
//! condenses the trail into `BENCH_q12_server.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use gaea_adt::{TypeTag, Value};
use gaea_core::kernel::{ClassSpec, Gaea, SharedKernel};
use gaea_server::{Client, Server, ServerConfig};
use gaea_workload::driver::{drive, DriveReport, DriveSpec};
use std::io::Write as _;

const SWEEP: [usize; 4] = [1, 4, 16, 64];
const READS_PER_SESSION: usize = 40;

/// A kernel with the read target (`obs {v}`, 32 fixed rows) and the
/// writer's scratch class (`wlog {v}`) — separate, so the busy writer
/// saturates the commit path without changing what the readers scan.
fn seeded() -> Gaea {
    let mut g = Gaea::in_memory();
    g.define_class(ClassSpec::base("obs").attr("v", TypeTag::Int4).no_extents())
        .expect("obs class");
    g.define_class(
        ClassSpec::base("wlog")
            .attr("v", TypeTag::Int4)
            .no_extents(),
    )
    .expect("wlog class");
    for v in 0..32 {
        g.insert_object("obs", vec![("v", Value::Int4(v))])
            .expect("seed insert");
    }
    g
}

/// Extent sizes of the `server_pin_*` rows.
const PIN_SIZES: [(usize, &str); 3] = [(1_000, "1k"), (10_000, "10k"), (100_000, "100k")];

/// A shared kernel holding one `ext {v, g}` extent of `rows` rows
/// (two attributes, like the benchmark's catalog extent); returns it
/// with the OID the commit loop rewrites.
fn extent_kernel(rows: usize) -> (std::sync::Arc<SharedKernel>, gaea_core::ObjectId) {
    let mut g = Gaea::in_memory();
    g.define_class(
        ClassSpec::base("ext")
            .attr("v", TypeTag::Int4)
            .attr("g", TypeTag::Int4)
            .no_extents(),
    )
    .expect("ext class");
    let mut first = None;
    for v in 0..rows as i32 {
        let oid = g
            .insert_object(
                "ext",
                vec![("v", Value::Int4(v)), ("g", Value::Int4(v % 64))],
            )
            .expect("seed insert");
        first.get_or_insert(oid);
    }
    (SharedKernel::new(g), first.expect("rows > 0"))
}

/// Start an in-process server sized for the sweep; returns its address
/// and the thread driving it.
fn start_server() -> (String, std::thread::JoinHandle<gaea_server::ServerReport>) {
    let server = Server::bind(
        seeded(),
        "127.0.0.1:0",
        ServerConfig {
            max_sessions: 80,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let thread = std::thread::spawn(move || server.run());
    (addr, thread)
}

/// Append one sweep row to the same JSONL trail the vendored criterion
/// writes (no-op when GAEA_BENCH_JSON is unset).
fn emit_row(id: &str, report: &DriveReport) {
    let Ok(path) = std::env::var("GAEA_BENCH_JSON") else {
        return;
    };
    let Ok(mut f) = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
    else {
        return;
    };
    let _ = writeln!(
        f,
        "{{\"group\":\"q12_server\",\"id\":\"{id}\",\
         \"median_ns\":{p50:.1},\"mean_ns\":{p50:.1},\"samples\":{n},\
         \"p50_ns\":{p50},\"p99_ns\":{p99},\"reads_per_sec\":{tput:.1},\
         \"errors\":{errs},\"writer_commits\":{writes}}}",
        p50 = report.p50.as_nanos(),
        p99 = report.p99.as_nanos(),
        n = report.reads,
        tput = report.throughput(),
        errs = report.errors,
        writes = report.writes,
    );
}

fn bench(c: &mut Criterion) {
    let (addr, server_thread) = start_server();

    // Criterion row: the protocol floor, one session pinging.
    {
        let mut group = c.benchmark_group("q12_server");
        gaea_bench::configure(&mut group);
        let mut client = Client::connect(&addr, "bench-ping").expect("connect");
        group.bench_function("server_roundtrip_ping", |b| {
            b.iter(|| client.ping().expect("ping"))
        });
        // Pin cost vs extent size: commit one row (untimed), then time
        // the pin that publishes the new state.
        for (rows, label) in PIN_SIZES {
            let (kernel, oid) = extent_kernel(rows);
            let mut v = 0;
            group.bench_function(format!("server_pin_{label}"), |b| {
                b.iter_batched(
                    || {
                        v += 1;
                        kernel
                            .exec(|g| g.update_object(oid, vec![("v", Value::Int4(-v))]))
                            .expect("commit");
                    },
                    |()| kernel.pin(),
                    criterion::BatchSize::PerIteration,
                )
            });
        }
        group.finish();
    }

    // The K-sweep: idle writer, then busy writer, for each K.
    for k in SWEEP {
        for (mode, writer) in [("idle", false), ("busy", true)] {
            let report = drive(&DriveSpec {
                addr: addr.clone(),
                sessions: k,
                reads_per_session: READS_PER_SESSION,
                query: "RETRIEVE * FROM obs".into(),
                writer,
                writer_class: "wlog".into(),
            });
            assert_eq!(
                report.errors, 0,
                "sweep k={k} {mode}: driver errors: {report:?}"
            );
            emit_row(&format!("server_read_k{k}_{mode}"), &report);
            eprintln!(
                "q12_server k={k:>2} {mode}: p50={:?} p99={:?} ({:.0} reads/s, {} writer commits)",
                report.p50,
                report.p99,
                report.throughput(),
                report.writes,
            );
        }
    }

    let shutdown = Client::connect(&addr, "bench-shutdown").expect("connect for shutdown");
    shutdown.shutdown_server().expect("shutdown");
    let report = server_thread.join().expect("server thread");
    assert!(report.wal_flush.is_ok());
    assert_eq!(report.stats.protocol_errors, 0);
}

criterion_group!(benches, bench);
criterion_main!(benches);
