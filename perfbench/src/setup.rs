//! Schemas and seeding: build the durable kernel each workload starts
//! from.
//!
//! Seeding bulk-loads under a relaxed flush policy (one fsync at the
//! end, one checkpoint), closes the kernel checked, and reopens the
//! directory with [`Gaea::open`] — the defaults every measured statement
//! runs under: fsync every commit, a snapshot every 1024 events folded by
//! background compaction, memoization off, no `DEFINE INDEX`.

use crate::ops::{scene_bands, scene_time, Scale, Workload, BANDS};
use gaea_adt::{GeoBox, Value};
use gaea_core::kernel::{DurabilityOptions, Gaea};
use gaea_core::{KernelError, KernelResult, ObjectId};
use gaea_lang::{lower_program, parse};
use std::path::{Path, PathBuf};

/// catalog-rw: a 100k-row extent plus the one-object probe input whose
/// derivation the writer re-fires.
pub const CATALOG_DDL: &str = r#"
CLASS item ( ATTRIBUTES: v = int4; g = int4; )
CLASS knob ( ATTRIBUTES: x = int4; )
CLASS knob_out ( ATTRIBUTES: y = int4; DERIVED BY: Pk )
DEFINE PROCESS Pk (
  OUTPUT knob_out
  ARGUMENT ( k knob )
  TEMPLATE { MAPPINGS: knob_out.y = k.x; }
)
"#;

/// derive-history and raster-refresh: the Figure 2 land-cover fragment —
/// Landsat TM bands and the P20 unsupervised classification of Figure 3.
pub const SCENE_DDL: &str = r#"
CLASS tm (
  ATTRIBUTES: data = image;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
)
CLASS land_cover (
  ATTRIBUTES:
    data = image;
    numclass = int4;
  SPATIAL EXTENT: spatialextent = box;
  TEMPORAL EXTENT: timestamp = abstime;
  DERIVED BY: P20
)
DEFINE PROCESS P20 (
  OUTPUT land_cover
  ARGUMENT ( SETOF bands tm )
  TEMPLATE {
    ASSERTIONS:
      card(bands) = 3;
      common(bands.spatialextent);
      common(bands.timestamp);
    MAPPINGS:
      land_cover.data = unsuperclassify(composite(bands), 12);
      land_cover.numclass = 12;
      land_cover.spatialextent = ANYOF bands.spatialextent;
      land_cover.timestamp = ANYOF bands.timestamp;
  }
)
"#;

/// The spatial extent every scene covers (the paper's Africa window).
pub fn africa() -> GeoBox {
    GeoBox::new(-20.0, -35.0, 55.0, 38.0)
}

/// Bytes of user data a value carries (payload size, not encoding).
pub fn value_bytes(v: &Value) -> u64 {
    match v {
        Value::Int4(_) | Value::Float4(_) => 4,
        Value::AbsTime(_) | Value::Float8(_) => 8,
        Value::GeoBox(_) => 32,
        Value::Image(img) => (img.len() * img.pixtype().width()) as u64,
        other => panic!("the benchmark writes no {other:?} values"),
    }
}

/// The attributes of one band of scene `scene`.
pub fn band_attrs(seed: u64, scene: u32, side: u32) -> Vec<Vec<(String, Value)>> {
    scene_bands(seed, scene, 0, side)
        .into_iter()
        .map(|img| {
            vec![
                ("data".to_string(), Value::image(img)),
                ("spatialextent".to_string(), Value::GeoBox(africa())),
                ("timestamp".to_string(), Value::AbsTime(scene_time(scene))),
            ]
        })
        .collect()
}

pub fn attrs_bytes(attrs: &[(String, Value)]) -> u64 {
    attrs.iter().map(|(_, v)| value_bytes(v)).sum()
}

/// What seeding left behind, for the workload to address.
#[derive(Debug, Clone, Default)]
pub struct Seeded {
    pub dir: PathBuf,
    /// catalog-rw: OID of the row with `v = i` at index `i`.
    pub rows: Vec<u64>,
    /// catalog-rw: OID of the probe input.
    pub probe: u64,
    /// Scene workloads: band OIDs per stored scene.
    pub bands: Vec<[u64; BANDS]>,
    /// Bytes of user values written by seeding.
    pub user_bytes: u64,
}

/// A raw OID as the kernel's object id.
pub fn oid(raw: u64) -> ObjectId {
    ObjectId(gaea_store::Oid(raw))
}

fn insert(g: &mut Gaea, class: &str, attrs: &[(String, Value)]) -> KernelResult<u64> {
    let borrowed = attrs.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
    Ok(g.insert_object(class, borrowed)?.raw())
}

/// Bulk-load `workload`'s starting state into a fresh durable directory,
/// then close it checked.
pub fn seed(workload: Workload, scale: &Scale, seed: u64, dir: &Path) -> KernelResult<Seeded> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)
            .map_err(|e| KernelError::Schema(format!("clearing {}: {e}", dir.display())))?;
    }
    let bulk = DurabilityOptions {
        fsync_every: u64::MAX,
        snapshot_every: 0,
        background_compaction: false,
        ..DurabilityOptions::default()
    };
    let mut g = Gaea::open_with(dir, bulk)?;
    let mut out = Seeded {
        dir: dir.to_path_buf(),
        ..Seeded::default()
    };
    let ddl = match workload {
        Workload::CatalogRw => CATALOG_DDL,
        Workload::DeriveHistory | Workload::RasterRefresh => SCENE_DDL,
    };
    let program = parse(ddl).map_err(|e| KernelError::Schema(e.to_string()))?;
    lower_program(&mut g, &program)?;
    match workload {
        Workload::CatalogRw => {
            for v in 0..scale.rows as i32 {
                let attrs = vec![
                    ("v".to_string(), Value::Int4(v)),
                    ("g".to_string(), Value::Int4(v % 64)),
                ];
                out.user_bytes += attrs_bytes(&attrs);
                out.rows.push(insert(&mut g, "item", &attrs)?);
            }
            let attrs = vec![("x".to_string(), Value::Int4(0))];
            out.user_bytes += attrs_bytes(&attrs);
            out.probe = insert(&mut g, "knob", &attrs)?;
            g.run_process("Pk", &[("k", vec![oid(out.probe)])])?;
        }
        Workload::DeriveHistory | Workload::RasterRefresh => {
            let (scenes, side) = if workload == Workload::DeriveHistory {
                (scale.history_scenes, scale.history_side)
            } else {
                (scale.refresh_scenes, scale.refresh_side)
            };
            for scene in 0..scenes {
                let mut oids = [0u64; BANDS];
                for (slot, attrs) in oids.iter_mut().zip(band_attrs(seed, scene, side)) {
                    out.user_bytes += attrs_bytes(&attrs);
                    *slot = insert(&mut g, "tm", &attrs)?;
                }
                let bands = oids.iter().map(|&o| oid(o)).collect();
                g.run_process("P20", &[("bands", bands)])?;
                out.bands.push(oids);
            }
        }
    }
    g.checkpoint()?;
    g.close()?;
    // The snapshot's files are written but not synced; left dirty, their
    // writeback would compete with the measured commits' fsyncs.
    sync_tree(dir).map_err(|e| KernelError::Schema(format!("syncing {}: {e}", dir.display())))?;
    Ok(out)
}

/// Fsync every file and directory under `dir`.
fn sync_tree(dir: &Path) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            sync_tree(&path)?;
        } else {
            std::fs::File::open(&path)?.sync_all()?;
        }
    }
    std::fs::File::open(dir)?.sync_all()
}

/// Total bytes of the files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}
