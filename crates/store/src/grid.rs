//! Uniform-grid spatial index.
//!
//! Partitions the plane into square cells of a fixed size and registers
//! each tuple's GeoBox extent in every cell it overlaps, so a
//! `WITHIN(a,b,c,d)` window probes a handful of cells instead of testing
//! every extent in the relation. Boxes spanning more than
//! [`OVERSIZE_CELLS`] cells (continental mosaics in a grid tuned for
//! scenes) go on an oversize list that every probe includes — this keeps
//! insert cost bounded while staying exact, because probes are always
//! re-filtered by the real intersection predicate.
//!
//! Like [`crate::index::OrderedIndex`], the cell map is skip-serialized
//! (JSON keys must be strings) and rebuilt from the heap on snapshot
//! load; only the indexed column and cell size persist.

use crate::index::Postings;
use crate::oid::Oid;
use crate::paged::PagedMap;
use gaea_adt::GeoBox;
use serde::{Deserialize, Serialize};

/// Boxes overlapping more than this many cells go on the oversize list.
pub const OVERSIZE_CELLS: usize = 64;

/// Uniform spatial grid: cell coordinate → OIDs of extents overlapping it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GridIndex {
    /// Indexed (GeoBox) column position in the relation schema.
    pub column: usize,
    /// Cell edge length in the coordinate units of the indexed extents.
    pub cell: f64,
    #[serde(skip)]
    cells: PagedMap<(i64, i64), Postings>,
    /// Oversize extents as an ordered set, so removal is a point
    /// operation.
    #[serde(skip)]
    oversize: Postings,
}

impl GridIndex {
    /// Empty grid over a column with the given cell size (clamped to a
    /// small positive minimum to keep cell math finite).
    pub fn new(column: usize, cell: f64) -> GridIndex {
        GridIndex {
            column,
            cell: if cell.is_finite() && cell > 1e-9 {
                cell
            } else {
                1.0
            },
            cells: PagedMap::new(),
            oversize: Postings::new(),
        }
    }

    fn cell_span(&self, b: &GeoBox) -> ((i64, i64), (i64, i64)) {
        let lo = (
            (b.xmin / self.cell).floor() as i64,
            (b.ymin / self.cell).floor() as i64,
        );
        let hi = (
            (b.xmax / self.cell).floor() as i64,
            (b.ymax / self.cell).floor() as i64,
        );
        (lo, hi)
    }

    fn span_cells(lo: (i64, i64), hi: (i64, i64)) -> usize {
        let dx = hi.0.saturating_sub(lo.0).saturating_add(1).max(0) as u128;
        let dy = hi.1.saturating_sub(lo.1).saturating_add(1).max(0) as u128;
        dx.saturating_mul(dy).min(usize::MAX as u128) as usize
    }

    /// Register an extent.
    pub fn insert(&mut self, b: &GeoBox, oid: Oid) {
        let (lo, hi) = self.cell_span(b);
        if Self::span_cells(lo, hi) > OVERSIZE_CELLS {
            self.oversize.insert(oid, ());
            return;
        }
        for cx in lo.0..=hi.0 {
            for cy in lo.1..=hi.1 {
                self.cells
                    .get_or_insert_with((cx, cy), Postings::new)
                    .insert(oid, ());
            }
        }
    }

    /// Unregister an extent (must match the box it was inserted under).
    pub fn remove(&mut self, b: &GeoBox, oid: Oid) {
        let (lo, hi) = self.cell_span(b);
        if Self::span_cells(lo, hi) > OVERSIZE_CELLS {
            self.oversize.remove(&oid);
            return;
        }
        for cx in lo.0..=hi.0 {
            for cy in lo.1..=hi.1 {
                if let Some(oids) = self.cells.get_mut(&(cx, cy)) {
                    oids.remove(&oid);
                    if oids.is_empty() {
                        self.cells.remove(&(cx, cy));
                    }
                }
            }
        }
    }

    /// Candidate OIDs whose extents may intersect `window`: every OID in
    /// an overlapped cell plus the whole oversize list, sorted and
    /// deduplicated. Callers must re-check the real intersection — a
    /// candidate may only share a cell, not actually overlap.
    pub fn probe(&self, window: &GeoBox) -> Vec<Oid> {
        let (lo, hi) = self.cell_span(window);
        let mut out: Vec<Oid> = Vec::new();
        if Self::span_cells(lo, hi) > self.cells.len().max(1) {
            // Window covers more cells than are occupied: walk the map.
            for (&(cx, cy), oids) in self.cells.iter() {
                if cx >= lo.0 && cx <= hi.0 && cy >= lo.1 && cy <= hi.1 {
                    out.extend(oids.keys().copied());
                }
            }
        } else {
            for cx in lo.0..=hi.0 {
                for cy in lo.1..=hi.1 {
                    if let Some(oids) = self.cells.get(&(cx, cy)) {
                        out.extend(oids.keys().copied());
                    }
                }
            }
        }
        out.extend(self.oversize.keys().copied());
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Cheap upper bound on `probe(window).len()` for costing (counts
    /// duplicates across cells rather than deduplicating).
    pub fn probe_estimate(&self, window: &GeoBox) -> usize {
        let (lo, hi) = self.cell_span(window);
        let mut n = self.oversize.len();
        if Self::span_cells(lo, hi) > self.cells.len().max(1) {
            for (&(cx, cy), oids) in self.cells.iter() {
                if cx >= lo.0 && cx <= hi.0 && cy >= lo.1 && cy <= hi.1 {
                    n += oids.len();
                }
            }
        } else {
            for cx in lo.0..=hi.0 {
                for cy in lo.1..=hi.1 {
                    n += self.cells.get(&(cx, cy)).map_or(0, Postings::len);
                }
            }
        }
        n
    }

    /// Number of registered extents currently on the oversize list.
    pub fn oversize_len(&self) -> usize {
        self.oversize.len()
    }

    /// True if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty() && self.oversize.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(xmin: f64, ymin: f64, xmax: f64, ymax: f64) -> GeoBox {
        GeoBox::new(xmin, ymin, xmax, ymax)
    }

    #[test]
    fn probe_finds_overlapping_and_misses_distant() {
        let mut g = GridIndex::new(0, 10.0);
        g.insert(&b(0.0, 0.0, 5.0, 5.0), Oid(1));
        g.insert(&b(100.0, 100.0, 105.0, 105.0), Oid(2));
        assert_eq!(g.probe(&b(1.0, 1.0, 2.0, 2.0)), vec![Oid(1)]);
        assert_eq!(g.probe(&b(101.0, 101.0, 102.0, 102.0)), vec![Oid(2)]);
        assert!(g.probe(&b(50.0, 50.0, 51.0, 51.0)).is_empty());
    }

    #[test]
    fn multi_cell_boxes_dedup() {
        let mut g = GridIndex::new(0, 10.0);
        // Spans 4 cells.
        g.insert(&b(5.0, 5.0, 15.0, 15.0), Oid(1));
        let hits = g.probe(&b(0.0, 0.0, 20.0, 20.0));
        assert_eq!(hits, vec![Oid(1)]);
    }

    #[test]
    fn oversize_boxes_always_candidates() {
        let mut g = GridIndex::new(0, 1.0);
        // 1000×1000 cells: far over the limit.
        g.insert(&b(0.0, 0.0, 1000.0, 1000.0), Oid(1));
        assert_eq!(g.oversize_len(), 1);
        assert_eq!(g.probe(&b(5000.0, 5000.0, 5001.0, 5001.0)), vec![Oid(1)]);
        g.remove(&b(0.0, 0.0, 1000.0, 1000.0), Oid(1));
        assert!(g.is_empty());
    }

    #[test]
    fn remove_clears_all_cells() {
        let mut g = GridIndex::new(0, 10.0);
        g.insert(&b(5.0, 5.0, 15.0, 15.0), Oid(1));
        g.remove(&b(5.0, 5.0, 15.0, 15.0), Oid(1));
        assert!(g.is_empty());
        assert!(g.probe(&b(0.0, 0.0, 20.0, 20.0)).is_empty());
    }

    #[test]
    fn huge_windows_walk_occupied_cells() {
        let mut g = GridIndex::new(0, 1.0);
        g.insert(&b(3.5, 3.5, 3.6, 3.6), Oid(7));
        // Window spans billions of cells; probe must not iterate them.
        let hits = g.probe(&b(-1.0e9, -1.0e9, 1.0e9, 1.0e9));
        assert_eq!(hits, vec![Oid(7)]);
        assert!(g.probe_estimate(&b(-1.0e9, -1.0e9, 1.0e9, 1.0e9)) >= 1);
    }

    #[test]
    fn degenerate_cell_size_clamped() {
        let g = GridIndex::new(0, 0.0);
        assert_eq!(g.cell, 1.0);
        let g = GridIndex::new(0, f64::NAN);
        assert_eq!(g.cell, 1.0);
    }
}
