//! Property-based tests on the storage substrate: CRUD model checking,
//! transaction rollback exactness, index/scan agreement, and copy-on-write
//! freezes that keep their state while the writer moves on.

use gaea::adt::{GeoBox, TypeTag, Value};
use gaea::core::kernel::{Gaea, ReadView};
use gaea::core::ObjectId;
use gaea::lang::{lower_program, parse};
use gaea::store::{Database, Field, Oid, Predicate, Schema, Tuple};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Debug, Clone)]
enum Op {
    Insert(i32),
    Delete(usize),
    Update(usize, i32),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        any::<i32>().prop_map(Op::Insert),
        (0usize..32).prop_map(Op::Delete),
        ((0usize..32), any::<i32>()).prop_map(|(i, v)| Op::Update(i, v)),
    ]
}

fn db() -> Database {
    let mut db = Database::new();
    db.create_relation(
        "objects",
        Schema::new(vec![Field::required("v", TypeTag::Int4)]).unwrap(),
    )
    .unwrap();
    db
}

fn tuple(v: i32) -> Tuple {
    Tuple::new(vec![Value::Int4(v)])
}

/// A relation of GeoBox extents with a uniform spatial grid attached.
fn geo_db(cell: f64) -> Database {
    let mut db = Database::new();
    db.create_relation(
        "extents",
        Schema::new(vec![Field::required("ext", TypeTag::GeoBox)]).unwrap(),
    )
    .unwrap();
    db.relation_mut("extents")
        .unwrap()
        .create_grid("ext", cell)
        .unwrap();
    db
}

fn boxed(x: f64, y: f64, w: f64, h: f64) -> Tuple {
    Tuple::new(vec![Value::GeoBox(GeoBox::new(x, y, x + w, y + h))])
}

#[derive(Debug, Clone)]
enum GeoOp {
    Insert(f64, f64, f64, f64),
    Delete(usize),
    Update(usize, f64, f64, f64, f64),
}

fn geo_op_strategy() -> impl Strategy<Value = GeoOp> {
    let coords = (
        -100.0f64..100.0,
        -100.0f64..100.0,
        0.0f64..60.0,
        0.0f64..60.0,
    );
    prop_oneof![
        coords
            .clone()
            .prop_map(|(x, y, w, h)| GeoOp::Insert(x, y, w, h)),
        (0usize..32).prop_map(GeoOp::Delete),
        ((0usize..32), coords).prop_map(|(i, (x, y, w, h))| GeoOp::Update(i, x, y, w, h)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The store agrees with a BTreeMap model under arbitrary CRUD
    /// interleavings.
    #[test]
    fn crud_model_check(ops in prop::collection::vec(op_strategy(), 0..64)) {
        let mut db = db();
        let mut model: BTreeMap<Oid, i32> = BTreeMap::new();
        let mut live: Vec<Oid> = Vec::new();
        for op in ops {
            match op {
                Op::Insert(v) => {
                    let oid = db.insert("objects", tuple(v)).unwrap();
                    model.insert(oid, v);
                    live.push(oid);
                }
                Op::Delete(i) => {
                    if live.is_empty() { continue; }
                    let oid = live[i % live.len()];
                    let stored = db.delete("objects", oid);
                    if model.remove(&oid).is_some() {
                        prop_assert!(stored.is_ok());
                        live.retain(|o| *o != oid);
                    } else {
                        prop_assert!(stored.is_err());
                    }
                }
                Op::Update(i, v) => {
                    if live.is_empty() { continue; }
                    let oid = live[i % live.len()];
                    if model.contains_key(&oid) {
                        db.update("objects", oid, tuple(v)).unwrap();
                        model.insert(oid, v);
                    }
                }
            }
        }
        // Full agreement.
        let rel = db.relation("objects").unwrap();
        prop_assert_eq!(rel.len(), model.len());
        for (oid, v) in &model {
            prop_assert_eq!(rel.get(*oid).unwrap().get(0), &Value::Int4(*v));
        }
    }

    /// A rolled-back transaction leaves the store exactly as it found it,
    /// whatever the interleaving.
    #[test]
    fn rollback_restores_exact_state(
        committed in prop::collection::vec(any::<i32>(), 1..16),
        txn_ops in prop::collection::vec(op_strategy(), 0..32),
    ) {
        let mut db = db();
        let mut live = Vec::new();
        for v in &committed {
            live.push(db.insert("objects", tuple(*v)).unwrap());
        }
        let before: Vec<(Oid, Tuple)> = db.scan("objects", &Predicate::True).unwrap();
        {
            let mut txn = db.begin();
            for op in txn_ops {
                match op {
                    Op::Insert(v) => { let _ = txn.insert("objects", tuple(v)); }
                    Op::Delete(i) => {
                        if !live.is_empty() {
                            let _ = txn.delete("objects", live[i % live.len()]);
                        }
                    }
                    Op::Update(i, v) => {
                        if !live.is_empty() {
                            let _ = txn.update("objects", live[i % live.len()], tuple(v));
                        }
                    }
                }
            }
            txn.rollback();
        }
        let after: Vec<(Oid, Tuple)> = db.scan("objects", &Predicate::True).unwrap();
        prop_assert_eq!(before, after);
    }

    /// Index lookups agree with predicate scans for every stored key.
    #[test]
    fn index_agrees_with_scan(values in prop::collection::vec(-50i32..50, 1..64)) {
        let mut db = db();
        db.relation_mut("objects").unwrap().create_index("v").unwrap();
        for v in &values {
            db.insert("objects", tuple(*v)).unwrap();
        }
        for key in -50i32..50 {
            let via_index = {
                let mut oids = db
                    .relation("objects")
                    .unwrap()
                    .index_lookup("v", &Value::Int4(key))
                    .unwrap();
                oids.sort();
                oids
            };
            let via_scan = {
                let mut oids: Vec<Oid> = db
                    .scan("objects", &Predicate::Eq("v".into(), Value::Int4(key)))
                    .unwrap()
                    .into_iter()
                    .map(|(oid, _)| oid)
                    .collect();
                oids.sort();
                oids
            };
            prop_assert_eq!(via_index, via_scan);
        }
    }

    /// Index-backed access agrees with the heap scan after an arbitrary
    /// mutation sequence: equality lookups, ordered range walks and the
    /// maintained statistics all reflect exactly the live rows.
    #[test]
    fn index_scan_equals_heap_scan_under_mutation(
        ops in prop::collection::vec(op_strategy(), 0..64),
        probe in -60i32..60,
    ) {
        let mut db = db();
        db.relation_mut("objects").unwrap().create_index("v").unwrap();
        let mut live: Vec<Oid> = Vec::new();
        for op in ops {
            match op {
                Op::Insert(v) => live.push(db.insert("objects", tuple(v % 50)).unwrap()),
                Op::Delete(i) => {
                    if live.is_empty() { continue; }
                    let oid = live[i % live.len()];
                    db.delete("objects", oid).unwrap();
                    live.retain(|o| *o != oid);
                }
                Op::Update(i, v) => {
                    if live.is_empty() { continue; }
                    db.update("objects", live[i % live.len()], tuple(v % 50)).unwrap();
                }
            }
        }
        let rel = db.relation("objects").unwrap();
        // Equality: index lookup ≡ heap scan, for hit and miss keys alike.
        let mut via_index = rel.index_lookup("v", &Value::Int4(probe)).unwrap();
        via_index.sort();
        let mut via_scan = rel
            .scan_oids(&Predicate::Eq("v".into(), Value::Int4(probe)))
            .unwrap();
        via_scan.sort();
        prop_assert_eq!(via_index, via_scan);
        // Range: an inclusive index range ≡ the heap rows it brackets.
        let pos = rel.schema().position("v").unwrap();
        let idx = rel.index_for(pos).unwrap();
        let (lo, hi) = (Value::Int4(probe - 10), Value::Int4(probe + 10));
        let mut ranged = idx.range(Some(&lo), Some(&hi));
        ranged.sort();
        let mut manual: Vec<Oid> = rel
            .iter()
            .filter(|(_, t)| {
                let v = t.get(pos);
                *v >= lo && *v <= hi
            })
            .map(|(oid, _)| oid)
            .collect();
        manual.sort();
        prop_assert_eq!(ranged, manual);
        // Statistics track the mutations exactly.
        prop_assert_eq!(rel.stats().rows, live.len() as u64);
        let distinct: std::collections::BTreeSet<&Value> =
            rel.iter().map(|(_, t)| t.get(pos)).collect();
        prop_assert_eq!(
            rel.stats().column(pos).unwrap().distinct,
            distinct.len() as u64
        );
    }

    /// The spatial grid is exact: probing a window and re-filtering by
    /// true intersection returns precisely the heap rows whose boxes
    /// overlap it, under arbitrary insert/delete/update interleavings.
    #[test]
    fn grid_probe_agrees_with_heap_scan(
        cell in 1.0f64..30.0,
        ops in prop::collection::vec(geo_op_strategy(), 0..48),
        wx in -120.0f64..120.0,
        wy in -120.0f64..120.0,
        ww in 0.0f64..80.0,
        wh in 0.0f64..80.0,
    ) {
        let mut db = geo_db(cell);
        let mut live: Vec<Oid> = Vec::new();
        for op in ops {
            match op {
                GeoOp::Insert(x, y, w, h) => {
                    live.push(db.insert("extents", boxed(x, y, w, h)).unwrap());
                }
                GeoOp::Delete(i) => {
                    if live.is_empty() { continue; }
                    let oid = live[i % live.len()];
                    db.delete("extents", oid).unwrap();
                    live.retain(|o| *o != oid);
                }
                GeoOp::Update(i, x, y, w, h) => {
                    if live.is_empty() { continue; }
                    db.update("extents", live[i % live.len()], boxed(x, y, w, h)).unwrap();
                }
            }
        }
        let window = GeoBox::new(wx, wy, wx + ww, wy + wh);
        let rel = db.relation("extents").unwrap();
        let pos = rel.schema().position("ext").unwrap();
        // Candidates, then the exact residual filter the kernel applies.
        let mut via_grid: Vec<Oid> = rel
            .grid_probe("ext", &window)
            .unwrap()
            .into_iter()
            .filter(|oid| {
                rel.get(*oid)
                    .unwrap()
                    .get(pos)
                    .as_geobox()
                    .is_some_and(|b| b.intersects(&window))
            })
            .collect();
        via_grid.sort();
        let mut via_scan = rel
            .scan_oids(&Predicate::BoxOverlaps("ext".into(), window))
            .unwrap();
        via_scan.sort();
        prop_assert_eq!(via_grid, via_scan);
    }

    /// The serde-skipped index maps, grid cells and statistics all
    /// rebuild on snapshot load: every access path answers identically
    /// before and after a save/load round trip.
    #[test]
    fn access_paths_rebuild_after_snapshot(
        values in prop::collection::vec(-30i32..30, 1..32),
        geo_ops in prop::collection::vec(geo_op_strategy(), 1..24),
    ) {
        let mut db = geo_db(8.0);
        db.create_relation(
            "objects",
            Schema::new(vec![Field::required("v", TypeTag::Int4)]).unwrap(),
        )
        .unwrap();
        db.relation_mut("objects").unwrap().create_index("v").unwrap();
        for v in &values {
            db.insert("objects", tuple(*v)).unwrap();
        }
        let mut live: Vec<Oid> = Vec::new();
        for op in &geo_ops {
            match op {
                GeoOp::Insert(x, y, w, h) => {
                    live.push(db.insert("extents", boxed(*x, *y, *w, *h)).unwrap());
                }
                GeoOp::Delete(i) => {
                    if live.is_empty() { continue; }
                    let oid = live[i % live.len()];
                    db.delete("extents", oid).unwrap();
                    live.retain(|o| *o != oid);
                }
                GeoOp::Update(i, x, y, w, h) => {
                    if live.is_empty() { continue; }
                    db.update("extents", live[i % live.len()], boxed(*x, *y, *w, *h)).unwrap();
                }
            }
        }
        let dir = std::env::temp_dir().join(format!(
            "gaea-prop-paths-{}-{}-{}",
            std::process::id(),
            values.len(),
            geo_ops.len()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        gaea::store::snapshot::save(&db, &dir).unwrap();
        let back = gaea::store::snapshot::load(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        // Ordered index: identical lookups for every probed key.
        for key in -30i32..30 {
            let mut before = db
                .relation("objects").unwrap()
                .index_lookup("v", &Value::Int4(key)).unwrap();
            before.sort();
            let mut after = back
                .relation("objects").unwrap()
                .index_lookup("v", &Value::Int4(key)).unwrap();
            after.sort();
            prop_assert_eq!(before, after);
        }
        // Grid: identical probes over a window sweep.
        for step in 0..4 {
            let o = -100.0 + step as f64 * 50.0;
            let window = GeoBox::new(o, o, o + 70.0, o + 70.0);
            let mut before = db.relation("extents").unwrap().grid_probe("ext", &window).unwrap();
            before.sort();
            let mut after = back.relation("extents").unwrap().grid_probe("ext", &window).unwrap();
            after.sort();
            prop_assert_eq!(before, after);
        }
        // Statistics recompute to the same summary.
        for name in ["objects", "extents"] {
            prop_assert_eq!(
                db.relation(name).unwrap().stats(),
                back.relation(name).unwrap().stats()
            );
        }
    }

    /// Snapshot save/load preserves scans and continues OID allocation
    /// without collisions.
    #[test]
    fn snapshot_round_trip(values in prop::collection::vec(any::<i32>(), 0..32)) {
        let mut db = db();
        let mut oids = Vec::new();
        for v in &values {
            oids.push(db.insert("objects", tuple(*v)).unwrap());
        }
        let dir = std::env::temp_dir().join(format!(
            "gaea-prop-snap-{}-{}",
            std::process::id(),
            values.len()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        gaea::store::snapshot::save(&db, &dir).unwrap();
        let mut back = gaea::store::snapshot::load(&dir).unwrap();
        for (oid, v) in oids.iter().zip(&values) {
            prop_assert_eq!(back.get("objects", *oid).unwrap().get(0), &Value::Int4(*v));
        }
        let fresh = back.insert("objects", tuple(0)).unwrap();
        prop_assert!(!oids.contains(&fresh), "OID reuse after snapshot");
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---- copy-on-write freezes -------------------------------------------

/// A store-level step: CRUD on two relations, dropping (and recreating)
/// one, or freezing the current state.
#[derive(Debug, Clone)]
enum FreezeOp {
    Insert(usize, i32),
    Update(usize, i32),
    Delete(usize),
    Drop(usize),
    Freeze,
}

fn freeze_op_strategy() -> impl Strategy<Value = FreezeOp> {
    prop_oneof![
        4 => ((0usize..2), any::<i32>()).prop_map(|(r, v)| FreezeOp::Insert(r, v)),
        3 => ((0usize..512), any::<i32>()).prop_map(|(i, v)| FreezeOp::Update(i, v)),
        3 => (0usize..512).prop_map(FreezeOp::Delete),
        1 => (0usize..2).prop_map(FreezeOp::Drop),
        2 => Just(FreezeOp::Freeze),
    ]
}

const FREEZE_RELS: [&str; 2] = ["a", "b"];

/// Create relation `name` with an index on `v`, so frozen index pages
/// are checked too.
fn create_indexed(db: &mut Database, name: &str) {
    db.create_relation(
        name,
        Schema::new(vec![Field::required("v", TypeTag::Int4)]).unwrap(),
    )
    .unwrap();
    db.relation_mut(name).unwrap().create_index("v").unwrap();
}

/// Everything a frozen store answers, rendered as text: per relation its
/// version, scan output in storage order and each index's order; per OID ever
/// allocated its version; the clock. Rendered at freeze time this is a
/// deep copy of the state the freeze must keep answering.
fn render_store(db: &Database, oids: &[Oid]) -> String {
    let mut out = format!("clock {}\n", db.version_clock());
    for name in db.relation_names() {
        let rel = db.relation(name).unwrap();
        out += &format!("rel {name} v{}\n", db.relation_version(name));
        for (oid, t) in rel.scan(&Predicate::True).unwrap() {
            out += &format!("  {} {:?}\n", oid.0, t);
        }
        for pos in 0..rel.schema().arity() {
            if let Some(idx) = rel.index_for(pos) {
                out += &format!("  index {pos} {:?}\n", idx.sorted_oids(false));
            }
        }
    }
    for oid in oids {
        out += &format!("ver {} {}\n", oid.0, db.object_version(*oid));
    }
    out
}

/// The fixture schema: items with an index on `g`, and a process that
/// records tasks.
const FIXTURE_DDL: &str = r#"
CLASS item ( ATTRIBUTES: v = int4; g = int4; )
CLASS knob ( ATTRIBUTES: x = int4; )
CLASS knob_out ( ATTRIBUTES: y = int4; DERIVED BY: Pk )
DEFINE PROCESS Pk (
  OUTPUT knob_out
  ARGUMENT ( k knob )
  TEMPLATE { MAPPINGS: knob_out.y = k.x; }
)
DEFINE INDEX g ON item
"#;

fn fixture_schema() -> Gaea {
    let mut g = Gaea::in_memory();
    lower_program(&mut g, &parse(FIXTURE_DDL).unwrap()).unwrap();
    g
}

fn item(v: i32) -> Vec<(&'static str, Value)> {
    vec![("v", Value::Int4(v)), ("g", Value::Int4(v % 7))]
}

/// A kernel-level step: object CRUD, a process firing, or a freeze.
#[derive(Debug, Clone)]
enum KernelOp {
    Insert(i32),
    Update(usize, i32),
    Delete(usize),
    Fire(usize),
    Freeze,
}

fn kernel_op_strategy() -> impl Strategy<Value = KernelOp> {
    prop_oneof![
        3 => any::<i32>().prop_map(KernelOp::Insert),
        3 => ((0usize..512), any::<i32>()).prop_map(|(i, v)| KernelOp::Update(i, v)),
        2 => (0usize..512).prop_map(KernelOp::Delete),
        2 => (0usize..512).prop_map(KernelOp::Fire),
        2 => Just(KernelOp::Freeze),
    ]
}

/// A kernel view rendered as text: the store rendering plus the
/// catalog's serde JSON.
fn render_view(view: &ReadView, oids: &[Oid]) -> String {
    let catalog = serde_json::to_string(view.catalog()).unwrap();
    format!("{}catalog {catalog}\n", render_store(view.store(), oids))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Freezes interleaved with inserts, updates, deletes and relation
    /// drops: after the whole sequence, every frozen state still equals
    /// the deep copy rendered when it was taken — the writer's later
    /// page copies never leak into a freeze.
    #[test]
    fn frozen_stores_keep_their_state(
        ops in prop::collection::vec(freeze_op_strategy(), 1..160)
    ) {
        let mut db = Database::new();
        for name in FREEZE_RELS {
            create_indexed(&mut db, name);
        }
        // Start past a few page boundaries so page splits, merges and
        // shared-page copies all happen.
        let mut live: Vec<(usize, Oid)> = (0..300)
            .map(|v| (0, db.insert("a", tuple(v)).unwrap()))
            .collect();
        let mut all: Vec<Oid> = live.iter().map(|(_, o)| *o).collect();
        let mut frozen = Vec::new();
        for op in ops {
            match op {
                FreezeOp::Insert(r, v) => {
                    let oid = db.insert(FREEZE_RELS[r], tuple(v)).unwrap();
                    live.push((r, oid));
                    all.push(oid);
                }
                FreezeOp::Update(i, v) if !live.is_empty() => {
                    let (r, oid) = live[i % live.len()];
                    db.update(FREEZE_RELS[r], oid, tuple(v)).unwrap();
                }
                FreezeOp::Delete(i) if !live.is_empty() => {
                    let (r, oid) = live.swap_remove(i % live.len());
                    db.delete(FREEZE_RELS[r], oid).unwrap();
                }
                FreezeOp::Drop(r) => {
                    db.drop_relation(FREEZE_RELS[r]).unwrap();
                    create_indexed(&mut db, FREEZE_RELS[r]);
                    live.retain(|(lr, _)| *lr != r);
                }
                FreezeOp::Freeze => {
                    let view = db.freeze();
                    prop_assert_eq!(render_store(&view, &all), render_store(&db, &all));
                    frozen.push((render_store(&view, &all), all.len(), view));
                }
                _ => {}
            }
        }
        for (expected, n, view) in &frozen {
            prop_assert_eq!(&render_store(view, &all[..*n]), expected);
            prop_assert_eq!(view.snapshot().clock, view.version_clock());
        }
    }

    /// The same at the kernel level: freezes interleaved with object
    /// CRUD and process firings keep their store data, counters and
    /// catalog (task history, object directory) exactly as frozen.
    #[test]
    fn frozen_kernels_keep_their_state_and_catalog(
        ops in prop::collection::vec(kernel_op_strategy(), 1..80)
    ) {
        let mut g = fixture_schema();
        let knob = g.insert_object("knob", vec![("x", Value::Int4(0))]).unwrap();
        let mut items: Vec<ObjectId> = (0..200)
            .map(|v| g.insert_object("item", item(v)).unwrap())
            .collect();
        let mut all: Vec<Oid> = items.iter().map(|o| o.0).collect();
        all.push(knob.0);
        let mut frozen = Vec::new();
        for op in ops {
            match op {
                KernelOp::Insert(v) => {
                    let oid = g.insert_object("item", item(v)).unwrap();
                    items.push(oid);
                    all.push(oid.0);
                }
                KernelOp::Update(i, v) if !items.is_empty() => {
                    g.update_object(items[i % items.len()], item(v)).unwrap();
                }
                KernelOp::Delete(i) if !items.is_empty() => {
                    let oid = items.swap_remove(i % items.len());
                    g.delete_object(oid).unwrap();
                }
                KernelOp::Fire(x) => {
                    g.update_object(knob, vec![("x", Value::Int4(x as i32))]).unwrap();
                    let run = g.run_process("Pk", &[("k", vec![knob])]).unwrap();
                    all.extend(run.outputs.iter().map(|o| o.0));
                }
                KernelOp::Freeze => {
                    let view = g.freeze();
                    frozen.push((render_view(&view, &all), all.len(), view));
                }
                _ => {}
            }
        }
        for (expected, n, view) in &frozen {
            prop_assert_eq!(&render_view(view, &all[..*n]), expected);
        }
    }
}

/// The checked-in fixture was written by the pre-paging code (plain
/// `Vec`/`BTreeMap` containers). The paged containers must serialize the
/// same database to the same bytes, and load the old bytes unchanged.
#[test]
fn paged_containers_keep_the_snapshot_bytes() {
    let fixture =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/paged_snapshot");
    // The exact statement sequence that produced the fixture.
    let mut g = fixture_schema();
    let rows: Vec<ObjectId> = (0..300)
        .map(|v| g.insert_object("item", item(v)).unwrap())
        .collect();
    for (i, oid) in rows.iter().enumerate() {
        if i % 5 == 0 {
            g.delete_object(*oid).unwrap();
        } else if i % 3 == 0 {
            g.update_object(*oid, vec![("v", Value::Int4(-(i as i32)))])
                .unwrap();
        }
    }
    for v in 300..320 {
        g.insert_object("item", item(v)).unwrap();
    }
    let knobs: Vec<ObjectId> = (0..5)
        .map(|x| {
            g.insert_object("knob", vec![("x", Value::Int4(x))])
                .unwrap()
        })
        .collect();
    for k in &knobs {
        g.run_process("Pk", &[("k", vec![*k])]).unwrap();
    }
    g.update_object(knobs[2], vec![("x", Value::Int4(42))])
        .unwrap();
    g.run_process("Pk", &[("k", vec![knobs[2]])]).unwrap();

    let out = std::env::temp_dir().join(format!("gaea-paged-fixture-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&out);
    std::fs::create_dir_all(&out).unwrap();
    g.save(&out).unwrap();
    for file in ["manifest.json", "catalog.json"] {
        let want = std::fs::read(fixture.join(file)).unwrap();
        let got = std::fs::read(out.join(file)).unwrap();
        assert!(
            got == want,
            "{file} bytes differ from the pre-paging fixture"
        );
    }

    // Loading the old bytes yields the same state, which saves back to
    // the same bytes; its frozen view answers like the live kernel.
    let back = Gaea::load(&fixture).unwrap();
    let again = out.join("again");
    std::fs::create_dir_all(&again).unwrap();
    back.save(&again).unwrap();
    for file in ["manifest.json", "catalog.json"] {
        assert_eq!(
            std::fs::read(again.join(file)).unwrap(),
            std::fs::read(fixture.join(file)).unwrap()
        );
    }
    // A load rebuilds indexes in storage order (ties may order
    // differently than incremental maintenance left them), so compare
    // everything else the frozen views answer.
    let oids: Vec<Oid> = (1..400).map(Oid).collect();
    let without_index_order = |text: String| -> Vec<String> {
        text.lines()
            .filter(|l| !l.trim_start().starts_with("index "))
            .map(str::to_string)
            .collect()
    };
    assert_eq!(
        without_index_order(render_view(&back.freeze(), &oids)),
        without_index_order(render_view(&g.freeze(), &oids))
    );
    std::fs::remove_dir_all(&out).ok();
}
