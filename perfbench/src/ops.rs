//! Seeded workload definitions: sizes, band payloads, and the operation
//! streams each workload sends. Everything here is a pure function of
//! the seed, so the wire run and the traced replay see the same inputs.

use gaea_adt::{AbsTime, Image};

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CatalogRw,
    DeriveHistory,
    RasterRefresh,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::CatalogRw,
        Workload::DeriveHistory,
        Workload::RasterRefresh,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CatalogRw => "catalog-rw",
            Workload::DeriveHistory => "derive-history",
            Workload::RasterRefresh => "raster-refresh",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Data sizes of one run. [`Scale::full`] is what the benchmark measures;
/// [`Scale::toy`] keeps the benchmark's own tests fast.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Rows of the `item` extent (catalog-rw).
    pub rows: u32,
    /// Stored scenes with a recorded P20 task (derive-history).
    pub history_scenes: u32,
    /// Band side length of derive-history scenes.
    pub history_side: u32,
    /// Stored scenes (raster-refresh).
    pub refresh_scenes: u32,
    /// Band side length of raster-refresh scenes.
    pub refresh_side: u32,
}

impl Scale {
    pub fn full() -> Scale {
        Scale {
            rows: 100_000,
            history_scenes: 2048,
            history_side: 32,
            refresh_scenes: 8,
            refresh_side: 64,
        }
    }

    #[cfg(test)]
    pub fn toy() -> Scale {
        Scale {
            rows: 500,
            history_scenes: 12,
            history_side: 8,
            refresh_scenes: 3,
            refresh_side: 8,
        }
    }
}

/// catalog-rw point reads after each writer statement.
pub const READS_PER_WRITE: u64 = 20;

/// Every `FRESH_EVERY`-th catalog-rw writer slot updates the probe input
/// and re-fires its derivation with `FRESH`.
pub const FRESH_EVERY: u64 = 2;

/// Bands per scene (P20 asserts `card(bands) = 3`).
pub const BANDS: usize = 3;

/// SplitMix64: a small, fast, well-mixed generator. Stable across
/// platforms and releases, which a benchmark's seeded inputs need.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one named stream of one seed.
    pub fn stream(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

const STREAM_READER: u64 = 1;
const STREAM_WRITER: u64 = 2;
const STREAM_SCENE: u64 = 3;
const STREAM_PICK: u64 = 4;
const STREAM_NOISE: u64 = 5;

/// Timestamp of scene `i`: one scene per day from 1986-01-01.
pub fn scene_time(i: u32) -> AbsTime {
    let base = AbsTime::from_ymd(1986, 1, 1).expect("valid date");
    AbsTime(base.0 + i as i64 * 86_400)
}

/// The three band payloads of scene `scene`, acquisition `version`: a
/// patchy land-cover map (the nearest of four points) with per-class
/// signatures plus noise, rounded to a tenth so the values stay short on
/// the wire. The map is fixed per scene; the seed and the version vary
/// the noise, so every seed classifies comparable scenes.
pub fn scene_bands(seed: u64, scene: u32, version: u64, side: u32) -> Vec<Image> {
    let mut layout = Rng::stream(scene as u64, STREAM_SCENE);
    let mut noise = Rng::stream(
        seed ^ (scene as u64).wrapping_mul(0x2545_F491_4F6C_DD1D) ^ version.rotate_left(32),
        STREAM_NOISE,
    );
    let classes = 4;
    let points: Vec<(f64, f64)> = (0..classes)
        .map(|_| (layout.unit() * side as f64, layout.unit() * side as f64))
        .collect();
    let n = (side * side) as usize;
    let truth: Vec<usize> = (0..n)
        .map(|p| {
            let (r, c) = ((p as u32 / side) as f64, (p as u32 % side) as f64);
            (0..classes)
                .min_by(|&a, &b| {
                    let da = (r - points[a].0).powi(2) + (c - points[a].1).powi(2);
                    let db = (r - points[b].0).powi(2) + (c - points[b].1).powi(2);
                    da.total_cmp(&db)
                })
                .expect("classes > 0")
        })
        .collect();
    (0..BANDS)
        .map(|band| {
            let data = truth
                .iter()
                .map(|&class| {
                    let mean = 40.0 + 35.0 * class as f64 + 12.0 * band as f64;
                    ((mean + (noise.unit() - 0.5) * 8.0) * 10.0).round() / 10.0
                })
                .collect();
            Image::from_f64(side, side, data).expect("side*side samples")
        })
        .collect()
}

/// One catalog-rw writer slot.
#[derive(Debug, Clone, PartialEq)]
pub enum WriterOp {
    /// Set `g` of row `row` to `g`.
    Update { row: u32, g: i32 },
    /// Set the probe input to `x`, then re-fire its derivation (`FRESH`).
    Probe { x: i32 },
}

/// catalog-rw: the reader's point-read keys.
pub struct ReaderKeys(Rng, u32);

impl ReaderKeys {
    pub fn new(seed: u64, rows: u32) -> ReaderKeys {
        ReaderKeys(Rng::stream(seed, STREAM_READER), rows)
    }
}

impl Iterator for ReaderKeys {
    type Item = u32;
    fn next(&mut self) -> Option<u32> {
        Some(self.0.below(self.1 as u64) as u32)
    }
}

/// catalog-rw: the writer's slots, in the order they are sent.
pub struct WriterSlots {
    rng: Rng,
    rows: u32,
    slot: u64,
}

impl WriterSlots {
    pub fn new(seed: u64, scale: &Scale) -> WriterSlots {
        WriterSlots {
            rng: Rng::stream(seed, STREAM_WRITER),
            rows: scale.rows,
            slot: 0,
        }
    }
}

impl Iterator for WriterSlots {
    type Item = WriterOp;
    fn next(&mut self) -> Option<WriterOp> {
        self.slot += 1;
        let value = self.rng.below(1 << 30) as i32;
        Some(if self.slot.is_multiple_of(FRESH_EVERY) {
            WriterOp::Probe { x: value }
        } else {
            WriterOp::Update {
                row: self.rng.below(self.rows as u64) as u32,
                g: value,
            }
        })
    }
}

/// derive-history iteration `j`: ingest scene `new_scene`, derive it,
/// then re-ask for the earlier scene `old_scene`.
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryStep {
    pub new_scene: u32,
    pub old_scene: u32,
}

pub struct HistorySteps {
    rng: Rng,
    next_scene: u32,
}

impl HistorySteps {
    pub fn new(seed: u64, scale: &Scale) -> HistorySteps {
        HistorySteps {
            rng: Rng::stream(seed, STREAM_PICK),
            next_scene: scale.history_scenes,
        }
    }
}

impl Iterator for HistorySteps {
    type Item = HistoryStep;
    fn next(&mut self) -> Option<HistoryStep> {
        let new_scene = self.next_scene;
        self.next_scene += 1;
        Some(HistoryStep {
            new_scene,
            old_scene: self.rng.below(new_scene as u64) as u32,
        })
    }
}

/// raster-refresh iteration `j`: overwrite band `band` of scene `scene`
/// with its acquisition `version`, re-fire, read back.
#[derive(Debug, Clone, PartialEq)]
pub struct RefreshStep {
    pub scene: u32,
    pub band: usize,
    pub version: u64,
}

pub struct RefreshSteps {
    rng: Rng,
    scenes: u32,
    step: u64,
}

impl RefreshSteps {
    pub fn new(seed: u64, scale: &Scale) -> RefreshSteps {
        RefreshSteps {
            rng: Rng::stream(seed, STREAM_PICK),
            scenes: scale.refresh_scenes,
            step: 0,
        }
    }
}

impl Iterator for RefreshSteps {
    type Item = RefreshStep;
    fn next(&mut self) -> Option<RefreshStep> {
        self.step += 1;
        Some(RefreshStep {
            scene: self.rng.below(self.scenes as u64) as u32,
            band: self.rng.below(BANDS as u64) as usize,
            // Seeding stored version 0.
            version: self.step,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_yields_the_same_operation_sequence() {
        let s = Scale::toy();
        let a: Vec<u32> = ReaderKeys::new(7, s.rows).take(200).collect();
        let b: Vec<u32> = ReaderKeys::new(7, s.rows).take(200).collect();
        assert_eq!(a, b);
        assert_ne!(a, ReaderKeys::new(8, s.rows).take(200).collect::<Vec<_>>());

        let w: Vec<WriterOp> = WriterSlots::new(7, &s).take(100).collect();
        assert_eq!(w, WriterSlots::new(7, &s).take(100).collect::<Vec<_>>());
        assert_eq!(
            HistorySteps::new(7, &s).take(50).collect::<Vec<_>>(),
            HistorySteps::new(7, &s).take(50).collect::<Vec<_>>()
        );
        assert_eq!(
            RefreshSteps::new(7, &s).take(50).collect::<Vec<_>>(),
            RefreshSteps::new(7, &s).take(50).collect::<Vec<_>>()
        );
        assert_eq!(scene_bands(7, 3, 0, 8), scene_bands(7, 3, 0, 8));
        assert_ne!(scene_bands(7, 3, 0, 8), scene_bands(7, 4, 0, 8));
        assert_ne!(scene_bands(7, 3, 0, 8), scene_bands(7, 3, 1, 8));
        assert_ne!(scene_bands(7, 3, 0, 8), scene_bands(8, 3, 0, 8));
    }

    #[test]
    fn streams_stay_in_range() {
        let s = Scale::toy();
        assert!(ReaderKeys::new(1, s.rows).take(1000).all(|k| k < s.rows));
        for (i, op) in WriterSlots::new(1, &s).take(100).enumerate() {
            let probe = (i as u64 + 1).is_multiple_of(FRESH_EVERY);
            match op {
                WriterOp::Probe { .. } => assert!(probe),
                WriterOp::Update { row, .. } => assert!(!probe && row < s.rows),
            }
        }
        for step in HistorySteps::new(1, &s).take(100) {
            assert!(step.old_scene < step.new_scene);
        }
        for step in RefreshSteps::new(1, &s).take(100) {
            assert!(step.scene < s.refresh_scenes && step.band < BANDS);
        }
    }
}
