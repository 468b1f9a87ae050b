//! Percentiles with the sample-count rule, medians and the witness hash.

/// Percentile `p` (0–100) of an ascending slice, linearly interpolated
/// between the two nearest ranks. `None` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p / 100.0).clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// Fewest samples beyond a reported percentile.
pub const MIN_SAMPLES_BEYOND: f64 = 10.0;

/// Whether `n` samples support percentile `p`: at least
/// [`MIN_SAMPLES_BEYOND`] samples must lie on each side of it (p99 needs
/// 1000 samples, the median 20).
pub fn supported(n: usize, p: f64) -> bool {
    let tail = (p.min(100.0 - p)) / 100.0;
    n as f64 * tail >= MIN_SAMPLES_BEYOND
}

/// Percentile `p` of unsorted `samples`, or `None` when the sample is too
/// small to support it.
pub fn supported_percentile(samples: &[f64], p: f64) -> Option<f64> {
    if !supported(samples.len(), p) {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, p)
}

/// Median of unsorted values (`None` when empty); no sample-count rule — for
/// host timings taken a handful of times per run.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 50.0)
}

/// FNV-1a, the determinism witness's hash.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds one 64-bit word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sample_count_rule() {
        assert!(!supported(999, 99.0));
        assert!(supported(1000, 99.0));
        assert!(!supported(19, 50.0));
        assert!(supported(20, 50.0));
        assert_eq!(supported_percentile(&[1.0; 19], 50.0), None);
        assert_eq!(supported_percentile(&[1.0; 20], 50.0), Some(1.0));
    }

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 50.0), Some(2.5));
        assert_eq!(percentile(&v, 100.0), Some(4.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }
}
