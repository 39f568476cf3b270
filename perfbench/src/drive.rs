//! The workloads' statements, written once over a [`Conn`] — a server
//! session over loopback TCP, or the traced in-process replay — their
//! seeded order, and the over-the-wire run that sends them closed loop
//! from one client thread.

use crate::check::{self, image_hash, Acked};
use crate::ops::{
    scene_bands, scene_time, HistoryStep, HistorySteps, ReaderKeys, RefreshStep, RefreshSteps,
    Scale, Workload, WriterOp, WriterSlots, READS_PER_WRITE,
};
use crate::setup::{attrs_bytes, band_attrs, Seeded};
use crate::stats::{OpKind, Tally};
use gaea_adt::Value;
use gaea_server::{Client, WireOutcome};
use std::time::{Duration, Instant};

/// One session's statements. Errors are the server's (or kernel's)
/// message.
pub trait Conn {
    /// Announce the class of the next statement (the traced replay
    /// labels its spans with it).
    fn label(&mut self, _kind: OpKind) {}
    fn retrieve(&mut self, src: &str) -> Result<WireOutcome, String>;
    fn insert(&mut self, class: &str, attrs: Vec<(String, Value)>) -> Result<u64, String>;
    fn update(&mut self, oid: u64, attrs: Vec<(String, Value)>) -> Result<(), String>;
}

impl Conn for Client {
    fn retrieve(&mut self, src: &str) -> Result<WireOutcome, String> {
        Client::retrieve(self, src).map_err(|e| e.to_string())
    }
    fn insert(&mut self, class: &str, attrs: Vec<(String, Value)>) -> Result<u64, String> {
        Client::insert(self, class, attrs).map_err(|e| e.to_string())
    }
    fn update(&mut self, oid: u64, attrs: Vec<(String, Value)>) -> Result<(), String> {
        Client::update(self, oid, attrs).map_err(|e| e.to_string())
    }
}

/// One operation of a run, in the order it started — what the traced
/// replay sends again.
#[derive(Debug, Clone, PartialEq)]
pub enum Entry {
    Read { key: u32 },
    Writer { op: WriterOp },
    History { step: HistoryStep },
    Refresh { step: RefreshStep },
}

/// The fixed context a workload's statements need.
pub struct Ctx<'a> {
    pub workload: Workload,
    pub scale: &'a Scale,
    pub seed: u64,
    pub seeded: &'a Seeded,
}

impl Ctx<'_> {
    fn side(&self) -> u32 {
        match self.workload {
            Workload::RasterRefresh => self.scale.refresh_side,
            _ => self.scale.history_side,
        }
    }
}

/// Time one statement and check its answer; returns the checked value.
fn timed<T>(tally: &mut Tally, kind: OpKind, run: impl FnOnce() -> Result<T, String>) -> Option<T> {
    let since = Instant::now();
    let out = run();
    let latency = since.elapsed();
    match out {
        Ok(v) => {
            tally.ok(kind, latency);
            Some(v)
        }
        Err(why) => {
            tally.fail(kind, why);
            None
        }
    }
}

/// catalog-rw reader: point read of `v = k`.
pub fn read_op(conn: &mut impl Conn, k: u32, tally: &mut Tally) {
    conn.label(OpKind::Read);
    let src = format!("RETRIEVE * FROM item WHERE v = {k}");
    timed(tally, OpKind::Read, || {
        check::point_read(&conn.retrieve(&src)?, k)
    });
}

/// catalog-rw writer slot.
pub fn writer_op(
    ctx: &Ctx,
    conn: &mut impl Conn,
    op: &WriterOp,
    tally: &mut Tally,
    acked: &mut Acked,
) {
    conn.label(OpKind::Write);
    match *op {
        WriterOp::Update { row, g } => {
            let attrs = vec![("g".to_string(), Value::Int4(g))];
            let bytes = attrs_bytes(&attrs);
            let oid = ctx.seeded.rows[row as usize];
            if timed(tally, OpKind::Write, || conn.update(oid, attrs)).is_some() {
                acked.rows.insert(row, g);
                acked.user_bytes += bytes;
            }
        }
        WriterOp::Probe { x } => {
            let attrs = vec![("x".to_string(), Value::Int4(x))];
            let bytes = attrs_bytes(&attrs);
            let oid = ctx.seeded.probe;
            if timed(tally, OpKind::Write, || conn.update(oid, attrs)).is_none() {
                return;
            }
            acked.probe = Some(x);
            acked.user_bytes += bytes;
            conn.label(OpKind::Derive);
            timed(tally, OpKind::Derive, || {
                check::probe_fresh(&conn.retrieve("RETRIEVE * FROM knob_out FRESH")?, x)
            });
        }
    }
}

/// derive-history iteration: ingest a scene, derive it, re-ask for an
/// earlier one.
pub fn history_step(
    ctx: &Ctx,
    conn: &mut impl Conn,
    step: &HistoryStep,
    tally: &mut Tally,
    acked: &mut Acked,
) {
    let mut stored = 0;
    for attrs in band_attrs(ctx.seed, step.new_scene, ctx.side()) {
        conn.label(OpKind::Write);
        let bytes = attrs_bytes(&attrs);
        if timed(tally, OpKind::Write, || conn.insert("tm", attrs)).is_some() {
            acked.bands_inserted += 1;
            acked.user_bytes += bytes;
            stored += 1;
        }
    }
    if stored == crate::ops::BANDS {
        conn.label(OpKind::Derive);
        let src = format!(
            "RETRIEVE * FROM land_cover WHERE AT {} DERIVE",
            scene_time(step.new_scene).0
        );
        let derived = timed(tally, OpKind::Derive, || {
            check::new_derive(&conn.retrieve(&src)?, step.new_scene)
        });
        acked.derived += derived.is_some() as u64;
    }
    conn.label(OpKind::Read);
    let src = format!(
        "RETRIEVE * FROM land_cover WHERE AT {} DERIVE",
        scene_time(step.old_scene).0
    );
    timed(tally, OpKind::Read, || {
        check::old_derive(&conn.retrieve(&src)?, step.old_scene)
    });
}

/// raster-refresh iteration: overwrite one band, re-fire, read back.
pub fn refresh_step(
    ctx: &Ctx,
    conn: &mut impl Conn,
    step: &RefreshStep,
    tally: &mut Tally,
    acked: &mut Acked,
) {
    let img = scene_bands(ctx.seed, step.scene, step.version, ctx.side()).swap_remove(step.band);
    let hash = image_hash(&img);
    let attrs = vec![("data".to_string(), Value::image(img))];
    let bytes = attrs_bytes(&attrs);
    let oid = ctx.seeded.bands[step.scene as usize][step.band];
    conn.label(OpKind::Write);
    if timed(tally, OpKind::Write, || conn.update(oid, attrs)).is_none() {
        return;
    }
    acked.band_hash.insert(oid, hash);
    acked.user_bytes += bytes;
    let at = scene_time(step.scene).0;
    conn.label(OpKind::Derive);
    let src = format!("RETRIEVE * FROM land_cover WHERE AT {at} FRESH");
    let Some(fresh) = timed(tally, OpKind::Derive, || {
        check::fresh(&conn.retrieve(&src)?, step.scene)
    }) else {
        return;
    };
    conn.label(OpKind::Read);
    let src = format!("RETRIEVE numclass FROM land_cover WHERE AT {at}");
    timed(tally, OpKind::Read, || {
        check::after_fresh(&conn.retrieve(&src)?, fresh)
    });
}

/// What one over-the-wire run measured.
pub struct WireRun {
    pub tally: Tally,
    pub acked: Acked,
    /// Measured wall time.
    pub wall: Duration,
    /// The operations sent, in order, for the replay.
    pub log: Vec<Entry>,
}

/// The workload's operations in the order they are sent — an endless,
/// seeded sequence. Every workload is closed loop: an operation is sent
/// as soon as the one before it returns.
pub fn sequence<'a>(ctx: &Ctx<'a>) -> Box<dyn Iterator<Item = Entry> + 'a> {
    let (seed, scale) = (ctx.seed, ctx.scale);
    match ctx.workload {
        Workload::CatalogRw => {
            // A writer statement, then `READS_PER_WRITE` point reads.
            let mut reads = ReaderKeys::new(seed, scale.rows);
            let mut writes = WriterSlots::new(seed, scale);
            let cycle = READS_PER_WRITE + 1;
            let mut i = 0u64;
            Box::new(std::iter::from_fn(move || {
                i += 1;
                Some(if i % cycle == 1 {
                    Entry::Writer { op: writes.next()? }
                } else {
                    Entry::Read { key: reads.next()? }
                })
            }))
        }
        Workload::DeriveHistory => {
            Box::new(HistorySteps::new(seed, scale).map(|step| Entry::History { step }))
        }
        Workload::RasterRefresh => {
            Box::new(RefreshSteps::new(seed, scale).map(|step| Entry::Refresh { step }))
        }
    }
}

/// Send one operation on `conn`.
pub fn send(ctx: &Ctx, conn: &mut impl Conn, entry: &Entry, tally: &mut Tally, acked: &mut Acked) {
    match entry {
        Entry::Read { key } => read_op(conn, *key, tally),
        Entry::Writer { op } => writer_op(ctx, conn, op, tally, acked),
        Entry::History { step } => history_step(ctx, conn, step, tally, acked),
        Entry::Refresh { step } => refresh_step(ctx, conn, step, tally, acked),
    }
}

fn connect(addr: &str, name: &str) -> Result<Client, String> {
    let c = Client::connect(addr, name).map_err(|e| format!("connect: {e}"))?;
    c.set_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    Ok(c)
}

/// Drive `ctx`'s workload against the server at `addr` for `seconds`:
/// one client thread sends the operations back to back, each statement
/// timed from when it was sent; catalog-rw's reads go through their own
/// session beside the writer's.
pub fn run_wire(ctx: &Ctx, addr: &str, seconds: f64) -> Result<WireRun, String> {
    let mut main = connect(addr, ctx.workload.name())?;
    let mut reader = connect(addr, "reader")?;
    let mut tally = Tally::default();
    let mut acked = Acked::default();
    let mut log = Vec::new();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    for entry in sequence(ctx) {
        if Instant::now() >= deadline {
            break;
        }
        let conn = match entry {
            Entry::Read { .. } => &mut reader,
            _ => &mut main,
        };
        send(ctx, conn, &entry, &mut tally, &mut acked);
        log.push(entry);
    }
    let wall = start.elapsed();
    let _ = reader.goodbye();
    let _ = main.goodbye();
    Ok(WireRun {
        tally,
        acked,
        wall,
        log,
    })
}
