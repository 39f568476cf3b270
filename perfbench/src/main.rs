//! The Gaea benchmark: over-the-wire reads, durable writes and
//! derivations against an in-process `gaea_server::Server` over a durable
//! kernel, plus a traced in-process replay that splits the same
//! statements by layer.
//!
//! ```text
//! perfbench --workload <catalog-rw|derive-history|raster-refresh>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run it from the repository root. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics` (every
//! end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`, each with its unit). Working files go under `.bench_work/`
//! and are removed; the traced run leaves its span file and per-layer
//! table under `.bench_out/`.

mod check;
mod drive;
mod ops;
mod setup;
mod stats;
mod traced;

use drive::Ctx;
use gaea_core::kernel::{Gaea, SharedKernel};
use gaea_server::{Server, ServerConfig, ServerHandle, ServerReport};
use ops::{Scale, Workload};
use setup::Seeded;
use stats::{median, OpKind, Tally};
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::Instant;

/// Trials per `--trace 0` run, each from its own set-up.
const TRIALS: usize = 3;
/// Chunks per trial whose latency medians are the p50 estimate.
const CHUNKS: usize = 8;
/// Reopens after each trial; `recovery_s` is the median over all.
const REOPENS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <catalog-rw|derive-history|raster-refresh> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds {value} out of range"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One metric of the result line.
type Metric = (String, f64, &'static str);

/// The result of one run.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A bound server serving a seeded kernel on a background thread.
struct Live {
    addr: String,
    handle: ServerHandle,
    thread: JoinHandle<ServerReport>,
}

fn serve(kernel: Gaea) -> Result<(Server, String), String> {
    let server = Server::bind(kernel, "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
    Ok((server, addr))
}

fn start(server: Server, addr: String) -> Live {
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    Live {
        addr,
        handle,
        thread,
    }
}

/// Checked shutdown: the server drains and its WAL flush must succeed.
fn stop(live: Live) -> Result<(), String> {
    live.handle.shutdown();
    let report = live.thread.join().map_err(|_| "server thread panicked")?;
    report
        .wal_flush
        .map_err(|e| format!("shutdown WAL flush failed: {e}"))
}

/// Seed, reopen under the defaults, bind: one timed set-up.
fn set_up(
    workload: Workload,
    scale: &Scale,
    seed: u64,
    dir: &Path,
) -> Result<(Seeded, Server, String, f64), String> {
    let t = Instant::now();
    let seeded = setup::seed(workload, scale, seed, dir).map_err(|e| format!("seed: {e}"))?;
    let kernel = Gaea::open(dir).map_err(|e| format!("open: {e}"))?;
    let (server, addr) = serve(kernel)?;
    Ok((seeded, server, addr, t.elapsed().as_secs_f64()))
}

/// Reopen the data directory `REOPENS` times, check the first against
/// what was acknowledged, and return how long each open took.
fn reopen_and_check(ctx: &Ctx, acked: &check::Acked) -> Result<Vec<f64>, String> {
    let mut times = Vec::new();
    for i in 0..REOPENS {
        let t = Instant::now();
        let g = Gaea::open(&ctx.seeded.dir).map_err(|e| format!("reopen: {e}"))?;
        times.push(t.elapsed().as_secs_f64());
        if i == 0 {
            check::durable(&g, ctx.workload, ctx.seeded, acked)?;
        }
        g.close().map_err(|e| format!("close after reopen: {e}"))?;
    }
    Ok(times)
}

/// One trial of a `--trace 0` run: set up, drive over the wire, shut
/// down checked, reopen and check.
struct Trial {
    setup_s: f64,
    tally: Tally,
    ops_per_s: f64,
    recovery_s: Vec<f64>,
    disk_per_user_byte: f64,
}

fn trial(args: &Args, scale: &Scale, dir: &Path, seconds: f64) -> Result<Trial, String> {
    let (seeded, server, addr, setup_s) = set_up(args.workload, scale, args.seed, dir)?;
    let ctx = Ctx {
        workload: args.workload,
        scale,
        seed: args.seed,
        seeded: &seeded,
    };
    let live = start(server, addr);
    let run = drive::run_wire(&ctx, &live.addr, seconds);
    let stopped = stop(live);
    let run = run?;
    stopped?;
    let disk = setup::dir_bytes(&seeded.dir) as f64;
    let recovery_s = reopen_and_check(&ctx, &run.acked)?;
    let t = &run.tally;
    eprintln!(
        "{}: {} statements ({} read, {} write, {} derive), {} failed, wall {:.2}s, \
         setup {setup_s:.3}s, p50 r/w/d {:?} {:?} {:?}",
        args.workload.name(),
        t.attempted,
        t.count(OpKind::Read),
        t.count(OpKind::Write),
        t.count(OpKind::Derive),
        t.failed,
        run.wall.as_secs_f64(),
        t.latency_us(OpKind::Read, 50.0),
        t.latency_us(OpKind::Write, 50.0),
        t.latency_us(OpKind::Derive, 50.0),
    );
    for f in &t.failures {
        eprintln!("  failure: {f}");
    }
    Ok(Trial {
        setup_s,
        ops_per_s: t.acked() as f64 / run.wall.as_secs_f64(),
        recovery_s,
        disk_per_user_byte: disk / (seeded.user_bytes + run.acked.user_bytes) as f64,
        tally: run.tally,
    })
}

/// A `--trace 0` run: `TRIALS` trials of `seconds / TRIALS` each, every
/// one from a fresh set-up. A median latency is the median of the
/// trials' chunk medians; the rest are medians over trials (over all
/// reopens, for recovery). Only medians are reported: on a small shared
/// host the tails move too much between runs to bound a change by.
fn end_to_end(args: &Args, scale: &Scale, work: &Path) -> Result<Outcome, String> {
    let mut trials = Vec::new();
    for i in 0..TRIALS {
        let dir = work.join(format!("trial-{i}"));
        let t = trial(args, scale, &dir, args.seconds / TRIALS as f64);
        let _ = std::fs::remove_dir_all(&dir);
        trials.push(t?);
    }
    let over = |f: &dyn Fn(&Trial) -> f64| -> f64 {
        median(&trials.iter().map(f).collect::<Vec<_>>()).expect("TRIALS > 0")
    };
    let mut metrics: Vec<Metric> = vec![("setup_s".into(), over(&|t| t.setup_s), "s")];
    for kind in OpKind::ALL {
        let name = kind.name();
        let p50s: Vec<f64> = trials
            .iter()
            .flat_map(|t| t.tally.chunk_p50s_us(kind, CHUNKS))
            .collect();
        let p50 = median(&p50s).ok_or(format!("no successful {name} statements"))?;
        metrics.push((format!("{name}_p50_us"), p50, "us"));
    }
    metrics.push(("ops_per_s".into(), over(&|t| t.ops_per_s), "1/s"));
    let reopens: Vec<f64> = trials.iter().flat_map(|t| t.recovery_s.clone()).collect();
    metrics.push((
        "recovery_s".into(),
        median(&reopens).expect("REOPENS > 0"),
        "s",
    ));
    metrics.push((
        "disk_bytes_per_user_byte".into(),
        over(&|t| t.disk_per_user_byte),
        "ratio",
    ));
    let attempted = trials.iter().map(|t| t.tally.attempted).sum();
    let failed = trials.iter().map(|t| t.tally.failed).sum();
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}

/// A `--trace 1` run: a wire run of half the time, then the traced
/// in-process replay of the same operations on a freshly seeded kernel.
fn per_layer(args: &Args, scale: &Scale, work: &Path, out_dir: &Path) -> Result<Outcome, String> {
    let (seeded, server, addr, _) = set_up(args.workload, scale, args.seed, &work.join("wire"))?;
    let ctx = Ctx {
        workload: args.workload,
        scale,
        seed: args.seed,
        seeded: &seeded,
    };
    let live = start(server, addr);
    let run = drive::run_wire(&ctx, &live.addr, args.seconds / 2.0);
    let stopped = stop(live);
    let run = run?;
    stopped?;
    reopen_and_check(&ctx, &run.acked)?;

    let dir = work.join("replay");
    let seeded2 =
        setup::seed(args.workload, scale, args.seed, &dir).map_err(|e| format!("seed: {e}"))?;
    let ctx2 = Ctx {
        seeded: &seeded2,
        ..ctx
    };
    let kernel = SharedKernel::new(Gaea::open(&dir).map_err(|e| format!("open: {e}"))?);
    let traced = traced::replay(&ctx2, kernel, &run.log)?;
    reopen_and_check(&ctx2, &traced.acked)?;

    let mut metrics = traced.metrics.clone();
    for kind in OpKind::ALL {
        let wire = run.tally.latency_us(kind, 50.0).unwrap_or(0.0);
        let local = traced
            .totals
            .get(kind.name())
            .and_then(|v| median(v))
            .unwrap_or(0.0);
        metrics.push((
            format!("server.transport_{}_us", kind.name()),
            wire - local,
            "us",
        ));
        // The wire run's tails: too unsteady on a small shared host to
        // gate a change on, so they are reported here, unbounded.
        for (suffix, pct) in [("p90", 90.0), ("p99", 99.0)] {
            let v = run.tally.latency_us(kind, pct).unwrap_or(0.0);
            metrics.push((format!("wire.{}_{suffix}_us", kind.name()), v, "us"));
        }
    }
    let stem = format!("{}-seed{}", args.workload.name(), args.seed);
    let traced = traced::Traced { metrics, ..traced };
    traced::write_outputs(out_dir, &stem, &traced).map_err(|e| format!("writing trace: {e}"))?;
    eprintln!(
        "{}: traced {} spans; wrote {}",
        args.workload.name(),
        traced.spans.len(),
        out_dir.join(format!("{stem}.layers.txt")).display()
    );
    let mut tally = run.tally;
    tally.merge(traced.tally);
    for f in &tally.failures {
        eprintln!("  failure: {f}");
    }
    Ok(Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: traced.metrics,
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let work: PathBuf = PathBuf::from(".bench_work").join(format!("run-{}", std::process::id()));
    let out_dir = PathBuf::from(".bench_out");
    let scale = Scale::full();
    let result = if args.trace {
        per_layer(&args, &scale, &work, &out_dir)
    } else {
        end_to_end(&args, &scale, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    // Gone only when no other run is using it.
    let _ = std::fs::remove_dir(".bench_work");
    match result {
        Ok(outcome) if outcome.metrics.iter().all(|(_, v, _)| v.is_finite()) => {
            println!("{}", outcome.to_json());
        }
        Ok(_) => {
            eprintln!("a metric is not a finite number");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("benchmark failed: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(workload: Workload, trace: bool) -> Args {
        Args {
            workload,
            seed: 5,
            seconds: 0.5,
            trace,
        }
    }

    fn scratch(name: &str) -> PathBuf {
        PathBuf::from(".bench_work").join(format!("test-{name}-{}", std::process::id()))
    }

    #[test]
    fn arguments_parse_and_bad_ones_are_refused() {
        let ok = |v: &[&str]| parse_args(v.iter().map(|s| s.to_string()));
        let a = ok(&[
            "--workload",
            "raster-refresh",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::RasterRefresh);
        assert_eq!((a.seed, a.seconds, a.trace), (3, 10.0, true));
        assert!(ok(&["--workload", "nope", "--seed", "3", "--seconds", "1"]).is_err());
        assert!(ok(&["--workload", "catalog-rw", "--seconds", "1"]).is_err());
        assert!(ok(&["--workload", "catalog-rw", "--seed", "1", "--seconds", "0"]).is_err());
        assert!(ok(&[
            "--workload",
            "catalog-rw",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2"
        ])
        .is_err());
    }

    #[derive(serde::Deserialize)]
    struct Line {
        correct: bool,
        attempted: u64,
        failed: u64,
        metrics: std::collections::BTreeMap<String, Value>,
    }

    #[derive(serde::Deserialize)]
    struct Value {
        value: f64,
        unit: String,
    }

    #[test]
    fn the_result_line_is_one_json_object() {
        let o = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![
                ("setup_s".into(), 0.25, "s"),
                ("read_p50_us".into(), 12.5, "us"),
            ],
        };
        let line: Line = serde_json::from_str(&o.to_json()).unwrap();
        assert!(line.correct);
        assert_eq!((line.attempted, line.failed), (3, 0));
        assert_eq!(line.metrics["read_p50_us"].unit, "us");
        assert_eq!(line.metrics["setup_s"].value, 0.25);
    }

    /// Every workload runs end to end at toy size with no failed
    /// statement, passes the durability check, and reports every metric.
    #[test]
    fn each_workload_runs_end_to_end_without_failures() {
        for w in Workload::ALL {
            let work = scratch(w.name());
            let out = end_to_end(&args(w, false), &Scale::toy(), &work);
            let _ = std::fs::remove_dir_all(&work);
            // Gone only when no other run is using it.
            let _ = std::fs::remove_dir(".bench_work");
            let out = out.unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            assert!(out.correct && out.failed == 0, "{}", w.name());
            assert!(out.attempted > 0);
            let names: Vec<&str> = out.metrics.iter().map(|(n, _, _)| n.as_str()).collect();
            for want in [
                "setup_s",
                "read_p50_us",
                "write_p50_us",
                "derive_p50_us",
                "recovery_s",
            ] {
                assert!(names.contains(&want), "{}: no {want}", w.name());
            }
            assert!(out
                .metrics
                .iter()
                .all(|(_, v, _)| v.is_finite() && *v > 0.0));
        }
    }

    /// The traced replay re-runs the wire run's operations without
    /// failures, writes its span file and table, and publishes the layer
    /// metrics.
    #[test]
    fn each_workload_traces_every_layer() {
        for w in Workload::ALL {
            let work = scratch(&format!("{}-traced", w.name()));
            let out_dir = work.join("out");
            let out = per_layer(&args(w, true), &Scale::toy(), &work.join("run"), &out_dir);
            let spans = out_dir.join(format!("{}-seed5.spans.jsonl", w.name()));
            let span_lines = std::fs::read_to_string(&spans).map(|s| s.lines().count());
            let _ = std::fs::remove_dir_all(&work);
            // Gone only when no other run is using it.
            let _ = std::fs::remove_dir(".bench_work");
            let out = out.unwrap_or_else(|e| panic!("{}: {e}", w.name()));
            assert!(out.correct && out.failed == 0, "{}", w.name());
            assert!(span_lines.unwrap() > 0);
            let get = |name: &str| {
                out.metrics
                    .iter()
                    .find(|(n, _, _)| n == name)
                    .unwrap_or_else(|| panic!("{}: no {name}", w.name()))
                    .1
            };
            assert!(get("protocol.decode_p50_us") > 0.0);
            assert!(get("session.hold_p50_us") > 0.0);
            assert!(get("wal.fsyncs_per_op") > 0.0);
            let frac = get("trace.unaccounted_frac");
            assert!((0.0..1.0).contains(&frac), "{}: {frac}", w.name());
            get("server.transport_read_us");
        }
    }
}
