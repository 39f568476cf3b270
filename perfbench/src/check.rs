//! Output checks on every statement, and the durability check after a
//! run: what was acknowledged must be readable after a checked shutdown
//! and a reopen.

use crate::ops::{scene_time, Workload};
use crate::setup::{oid, Seeded};
use gaea_adt::{Image, Value};
use gaea_core::kernel::Gaea;
use gaea_core::{DataObject, QueryMethod};
use gaea_server::WireOutcome;
use std::collections::BTreeMap;

fn int_attr(o: &DataObject, attr: &str) -> Option<i32> {
    match o.attr(attr) {
        Some(Value::Int4(v)) => Some(*v),
        _ => None,
    }
}

fn single(out: &WireOutcome) -> Result<&DataObject, String> {
    match out.objects.as_slice() {
        [one] => Ok(one),
        many => Err(format!("expected one object, got {}", many.len())),
    }
}

fn expect_method(out: &WireOutcome, method: QueryMethod) -> Result<(), String> {
    if out.method == method {
        Ok(())
    } else {
        Err(format!("answered {:?}, expected {method:?}", out.method))
    }
}

fn expect_scene(o: &DataObject, scene: u32) -> Result<(), String> {
    if o.timestamp() == Some(scene_time(scene)) {
        Ok(())
    } else {
        Err(format!("object {} is not scene {scene}", o.id))
    }
}

/// A point read returns exactly the row `v = k`.
pub fn point_read(out: &WireOutcome, k: u32) -> Result<(), String> {
    expect_method(out, QueryMethod::Retrieved)?;
    let o = single(out)?;
    if int_attr(o, "v") != Some(k as i32) {
        return Err(format!("point read of v = {k} returned {:?}", o.attr("v")));
    }
    Ok(())
}

/// A re-fired probe derivation returns one current object carrying `x`.
pub fn probe_fresh(out: &WireOutcome, x: i32) -> Result<(), String> {
    let o = single(out)?;
    if !out.stale.is_empty() || out.tasks.is_empty() {
        return Err("FRESH probe did not re-fire to a current answer".into());
    }
    if int_attr(o, "y") != Some(x) {
        return Err(format!(
            "probe answered y = {:?}, expected {x}",
            o.attr("y")
        ));
    }
    Ok(())
}

/// A `DERIVE` at a new scene's instant derives exactly one object.
pub fn new_derive(out: &WireOutcome, scene: u32) -> Result<u64, String> {
    expect_method(out, QueryMethod::Derived)?;
    let o = single(out)?;
    expect_scene(o, scene)?;
    if out.tasks.is_empty() {
        return Err("derived answer recorded no task".into());
    }
    Ok(o.id.raw())
}

/// A `DERIVE` at an earlier scene's instant is answered from its
/// recorded task's output.
pub fn old_derive(out: &WireOutcome, scene: u32) -> Result<(), String> {
    expect_method(out, QueryMethod::Retrieved)?;
    let o = single(out)?;
    expect_scene(o, scene)?;
    if !out.stale.is_empty() {
        return Err("recorded derivation served stale".into());
    }
    Ok(())
}

/// A `FRESH` re-fire answers one current object; returns its OID.
pub fn fresh(out: &WireOutcome, scene: u32) -> Result<u64, String> {
    let o = single(out)?;
    expect_scene(o, scene)?;
    if !out.stale.is_empty() {
        return Err("FRESH answer lists stale objects".into());
    }
    if out.tasks.is_empty() {
        return Err("FRESH did not re-fire".into());
    }
    Ok(o.id.raw())
}

/// The plain read after a re-fire serves the fresh result, not flagged.
pub fn after_fresh(out: &WireOutcome, fresh: u64) -> Result<(), String> {
    expect_method(out, QueryMethod::Retrieved)?;
    if !out.objects.iter().any(|o| o.id.raw() == fresh) {
        return Err(format!("fresh result {fresh} not served"));
    }
    if out.stale.iter().any(|s| s.raw() == fresh) {
        return Err(format!("fresh result {fresh} flagged stale"));
    }
    Ok(())
}

/// FNV-1a over an image's shape and samples.
pub fn image_hash(img: &Image) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    eat(img.nrow() as u64);
    eat(img.ncol() as u64);
    for i in 0..img.len() {
        eat(img.get_flat(i).to_bits());
    }
    h
}

/// What the clients were told was committed.
#[derive(Debug, Clone, Default)]
pub struct Acked {
    /// catalog-rw: last acknowledged `g` per updated row.
    pub rows: BTreeMap<u32, i32>,
    /// catalog-rw: last acknowledged probe input.
    pub probe: Option<i32>,
    /// Scene workloads: band inserts acknowledged.
    pub bands_inserted: u64,
    /// Scene workloads: new-scene derivations acknowledged.
    pub derived: u64,
    /// raster-refresh: last acknowledged payload hash per band OID.
    pub band_hash: BTreeMap<u64, u64>,
    /// Bytes of user values in acknowledged writes.
    pub user_bytes: u64,
}

/// Check a reopened kernel: recovery dropped nothing, and every
/// acknowledged write reads back.
pub fn durable(g: &Gaea, w: Workload, seeded: &Seeded, acked: &Acked) -> Result<(), String> {
    let rec = g
        .recovery_stats()
        .ok_or("reopened kernel reports no recovery")?;
    if rec.wal_dropped_bytes != 0 || rec.wal_corrupt {
        return Err(format!("recovery dropped log bytes: {rec:?}"));
    }
    let read = |raw: u64| g.object(oid(raw)).map_err(|e| e.to_string());
    match w {
        Workload::CatalogRw => {
            for (&row, &want) in &acked.rows {
                let got = int_attr(&read(seeded.rows[row as usize])?, "g");
                if got != Some(want) {
                    return Err(format!("row {row}: g = {got:?}, acknowledged {want}"));
                }
            }
            if let Some(want) = acked.probe {
                let got = int_attr(&read(seeded.probe)?, "x");
                if got != Some(want) {
                    return Err(format!("probe: x = {got:?}, acknowledged {want}"));
                }
            }
        }
        Workload::DeriveHistory | Workload::RasterRefresh => {
            let count = |class: &str| g.objects_of(class).map(|v| v.len() as u64);
            let bands = count("tm").map_err(|e| e.to_string())?;
            let want = seeded.bands.len() as u64 * crate::ops::BANDS as u64 + acked.bands_inserted;
            if bands != want {
                return Err(format!("{bands} bands stored, {want} acknowledged"));
            }
            for (&raw, &want) in &acked.band_hash {
                let got = match read(raw)?.attr("data") {
                    Some(Value::Image(img)) => image_hash(img),
                    other => return Err(format!("band {raw} data is {other:?}")),
                };
                if got != want {
                    return Err(format!(
                        "band {raw}: payload differs from the acknowledged one"
                    ));
                }
            }
            if w == Workload::DeriveHistory {
                let covers = count("land_cover").map_err(|e| e.to_string())?;
                let want = seeded.bands.len() as u64 + acked.derived;
                if covers != want {
                    return Err(format!("{covers} land covers stored, {want} acknowledged"));
                }
            }
        }
    }
    Ok(())
}
