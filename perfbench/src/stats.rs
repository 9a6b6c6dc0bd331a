//! Summary statistics, the percentile reporting rule, and output digests.

use serde::Value;

/// Percentile of an ascending-sorted sample by linear interpolation
/// between closest ranks (`p` in `0..=100`). `+inf` entries (failed
/// operations) sort last, so a failure counts as over every limit.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (sorted.len() - 1) as f64 * p / 100.0;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi || sorted[hi] == sorted[lo] {
        return sorted[lo];
    }
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 50.0)
}

/// A sorted copy (`total_cmp`, so `+inf` sorts last).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Mean latency of the operations that completed. Failed ones (`+inf`)
/// are left out: the result's `failed` counts them, and they still push
/// every percentile up. `+inf` when none completed.
pub fn mean_completed(latencies: &[f64]) -> f64 {
    let done: Vec<f64> = latencies
        .iter()
        .copied()
        .filter(|x| x.is_finite())
        .collect();
    if done.is_empty() {
        return f64::INFINITY;
    }
    done.iter().sum::<f64>() / done.len() as f64
}

/// The percentiles a timing may be reported at, highest last.
const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// The highest percentile on [`LADDER`] that leaves at least ten samples
/// above it, or `None` when even the median does not (fewer than 20).
pub fn highest_supported(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .take_while(|p| n as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
        .last()
}

/// A timing series: its sample count, median, and the highest percentile
/// the sample supports, as one JSON object for the detail line.
pub fn timing_summary(samples: &[f64], unit: &str) -> Value {
    let n = samples.len();
    let mut fields = vec![
        ("n".to_string(), Value::UInt(n as u64)),
        ("unit".to_string(), Value::Str(unit.to_string())),
    ];
    if n > 0 {
        let s = sorted(samples);
        fields.push(("p50".to_string(), num(percentile(&s, 50.0))));
        if let Some(p) = highest_supported(n) {
            fields.push(("supported_pct".to_string(), Value::Float(p)));
            fields.push(("at_supported_pct".to_string(), num(percentile(&s, p))));
        }
        fields.push(("max".to_string(), num(s[n - 1])));
    }
    Value::Object(fields)
}

/// A JSON number, with non-finite values (failed ops) shown as a string.
fn num(x: f64) -> Value {
    if x.is_finite() {
        Value::Float(x)
    } else {
        Value::Str(format!("{x}"))
    }
}

/// Confusion counts at the 0.5 threshold, pooled over any number of
/// candidate sets.
#[derive(Default, Clone, Copy)]
pub struct Confusion {
    tp: u64,
    fp: u64,
    fn_: u64,
}

impl Confusion {
    pub fn record(&mut self, posterior: f64, gold: bool) {
        match (posterior >= 0.5, gold) {
            (true, true) => self.tp += 1,
            (true, false) => self.fp += 1,
            (false, true) => self.fn_ += 1,
            (false, false) => {}
        }
    }

    pub fn f1(&self) -> f64 {
        2.0 * self.tp as f64 / (2 * self.tp + self.fp + self.fn_).max(1) as f64
    }
}

/// 64-bit FNV-1a, fed field by field; printed so a later change can show
/// its outputs did not move.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Mix raw bytes.
    fn bytes(&mut self, data: &[u8]) -> &mut Self {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Mix a length-prefixed string (so `["ab","c"]` ≠ `["a","bc"]`).
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// Mix a `u64`.
    pub fn u64(&mut self, x: u64) -> &mut Self {
        self.bytes(&x.to_le_bytes())
    }

    /// Mix every `f64` by its exact bit pattern.
    pub fn f64s(&mut self, xs: &[f64]) -> &mut Self {
        self.u64(xs.len() as u64);
        for x in xs {
            self.u64(x.to_bits());
        }
        self
    }

    /// Zero-padded hex of the current state.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 50.0), 3.0);
        assert_eq!(percentile(&s, 100.0), 5.0);
        assert_eq!(percentile(&s, 25.0), 2.0);
        assert_eq!(percentile(&s, 90.0), 4.6);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn failures_count_as_over_every_limit() {
        let mut v: Vec<f64> = (1..=99).map(f64::from).collect();
        v.push(f64::INFINITY);
        let s = sorted(&v);
        assert_eq!(s[99], f64::INFINITY);
        assert!(percentile(&s, 100.0).is_infinite());
        // Median of 1..=99 plus one failure moves up by half a rank.
        assert_eq!(percentile(&s, 50.0), 50.5);
        // The mean is of the 99 that completed.
        assert_eq!(mean_completed(&v), 50.0);
        assert!(mean_completed(&[f64::INFINITY]).is_infinite());
    }

    #[test]
    fn supported_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported(0), None);
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(20), Some(50.0));
        assert_eq!(highest_supported(99), Some(50.0));
        assert_eq!(highest_supported(100), Some(90.0));
        assert_eq!(highest_supported(999), Some(90.0));
        assert_eq!(highest_supported(1000), Some(99.0));
        assert_eq!(highest_supported(10_000), Some(99.9));
        assert_eq!(highest_supported(1_000_000), Some(99.99));
    }

    #[test]
    fn summary_reports_count_and_supported_percentile() {
        let samples: Vec<f64> = (0..150).map(f64::from).collect();
        let v = timing_summary(&samples, "ms");
        assert!(matches!(v.get_field("n"), Some(Value::UInt(150))));
        assert!(matches!(v.get_field("supported_pct"), Some(Value::Float(p)) if *p == 90.0));
        let empty = timing_summary(&[], "ms");
        assert!(empty.get_field("p50").is_none());
    }

    #[test]
    fn digest_separates_fields_and_tracks_bits() {
        let a = Digest::default().str("ab").str("c").hex();
        let b = Digest::default().str("a").str("bc").hex();
        assert_ne!(a, b);
        let z = Digest::default().f64s(&[0.0]).hex();
        let nz = Digest::default().f64s(&[-0.0]).hex();
        assert_ne!(z, nz, "digest compares bit patterns, not values");
    }
}
