//! Latency samples, percentiles and failure accounting.

use std::time::Duration;

/// Statement classes the end-to-end metrics split by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Answered from stored data.
    Read,
    /// An acknowledged `Insert`/`Update`.
    Write,
    /// Fired a process (`DERIVE` that derived, or a `FRESH` re-fire).
    Derive,
}

impl OpKind {
    pub const ALL: [OpKind; 3] = [OpKind::Read, OpKind::Write, OpKind::Derive];

    pub fn name(self) -> &'static str {
        match self {
            OpKind::Read => "read",
            OpKind::Write => "write",
            OpKind::Derive => "derive",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Nearest-rank percentile of an ascending slice; `None` when empty.
pub fn percentile(sorted: &[f64], pct: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of unsorted values (nearest-rank, lower middle).
pub fn median(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Medians of consecutive chunks of `samples` (in the order taken), at
/// most `chunks` of them and none smaller than `min_len` samples. The
/// median of these is robust to a slow stretch that covers fewer than
/// half the chunks, which a pooled median is not.
pub fn chunk_medians(samples: &[f64], chunks: usize, min_len: usize) -> Vec<f64> {
    let n = chunks.min(samples.len() / min_len.max(1)).max(1);
    let len = samples.len() / n;
    if len == 0 {
        return Vec::new();
    }
    (0..n)
        .filter_map(|i| median(&samples[i * len..(i + 1) * len]))
        .collect()
}

/// Everything one run counted: per-kind latencies of the statements that
/// succeeded (in completion order), and attempted/failed totals over all
/// statements. A failed statement (an error, or an answer that did not
/// check out) is counted and the run goes on.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    lat_us: [Vec<f64>; 3],
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the run's log.
    pub failures: Vec<String>,
}

impl Tally {
    pub fn ok(&mut self, kind: OpKind, latency: Duration) {
        self.attempted += 1;
        self.lat_us[kind.index()].push(latency.as_secs_f64() * 1e6);
    }

    pub fn fail(&mut self, kind: OpKind, why: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(format!("{}: {why}", kind.name()));
        }
    }

    pub fn merge(&mut self, other: Tally) {
        for (mine, theirs) in self.lat_us.iter_mut().zip(other.lat_us) {
            mine.extend(theirs);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 8 {
                self.failures.push(f);
            }
        }
    }

    /// Acknowledged (successful) statements.
    pub fn acked(&self) -> u64 {
        self.attempted - self.failed
    }

    pub fn count(&self, kind: OpKind) -> usize {
        self.lat_us[kind.index()].len()
    }

    /// Percentile of one kind's latencies, microseconds.
    pub fn latency_us(&self, kind: OpKind, pct: f64) -> Option<f64> {
        let mut v = self.lat_us[kind.index()].clone();
        v.sort_by(f64::total_cmp);
        percentile(&v, pct)
    }

    /// Per-chunk medians of one kind's latencies, µs (see
    /// [`chunk_medians`]).
    pub fn chunk_p50s_us(&self, kind: OpKind, chunks: usize) -> Vec<f64> {
        chunk_medians(&self.lat_us[kind.index()], chunks, 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.0));
    }

    #[test]
    fn failures_count_against_attempts_and_carry_no_latency() {
        let mut t = Tally::default();
        for us in [100, 300, 200] {
            t.ok(OpKind::Read, Duration::from_micros(us));
        }
        t.ok(OpKind::Write, Duration::from_micros(50));
        t.fail(OpKind::Derive, "wrong".into());
        assert_eq!(t.attempted, 5);
        assert_eq!(t.failed, 1);
        assert_eq!(t.acked(), 4);
        assert_eq!(t.count(OpKind::Derive), 0);
        assert_eq!(t.latency_us(OpKind::Derive, 50.0), None);
        assert_eq!(t.latency_us(OpKind::Read, 50.0), Some(200.0));
        assert_eq!(t.failures.len(), 1);

        let mut other = Tally::default();
        other.ok(OpKind::Read, Duration::from_micros(400));
        other.fail(OpKind::Read, "boom".into());
        t.merge(other);
        assert_eq!((t.attempted, t.failed), (7, 2));
        assert_eq!(t.latency_us(OpKind::Read, 100.0), Some(400.0));
    }

    #[test]
    fn chunk_medians_ignore_a_slow_stretch() {
        // A slow stretch over a third of the run moves the pooled median
        // but not the median of chunk medians.
        let mut v = vec![10.0; 40];
        v.extend(vec![30.0; 20]);
        let chunks = chunk_medians(&v, 6, 4);
        assert_eq!(chunks, vec![10.0, 10.0, 10.0, 10.0, 30.0, 30.0]);
        assert_eq!(median(&chunks), Some(10.0));
        assert_eq!(chunk_medians(&[1.0, 2.0, 3.0], 6, 4), vec![2.0]);
        assert!(chunk_medians(&[], 6, 4).is_empty());
    }
}
