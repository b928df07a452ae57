//! Percentile, pooling and checksum helpers.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest value
/// with at least `q` of the sample at or below it. `q` in `(0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `q` percentile's position.
pub fn samples_beyond(len: usize, q: f64) -> usize {
    len - ((q * len as f64).ceil() as usize).clamp(1, len)
}

/// Sorts a sample ascending (timings are never NaN).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    values
}

/// Median of an unsorted sample (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Min, first quartile, median, third quartile and max of a sample
/// (quartiles by nearest rank).
pub fn five_numbers(values: &[f64]) -> [f64; 5] {
    let s = sorted(values.to_vec());
    [
        s[0],
        percentile(&s, 0.25),
        median(&s),
        percentile(&s, 0.75),
        s[s.len() - 1],
    ]
}

/// Pools the per-rep samples into one ascending-sorted sample.
pub fn pool<'a>(reps: impl IntoIterator<Item = &'a [f64]>) -> Vec<f64> {
    sorted(reps.into_iter().flatten().copied().collect())
}

/// Order-sensitive FNV-1a checksum over a sequence of `u64` words — the
/// per-round `(active_requests, served, unserved)` fingerprint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Checksum(u64);

impl Default for Checksum {
    fn default() -> Self {
        Checksum(0xcbf2_9ce4_8422_2325)
    }
}

impl Checksum {
    pub fn push(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn push_round(&mut self, active: usize, served: usize, unserved: usize) {
        self.push(active as u64);
        self.push(served as u64);
        self.push(unserved as u64);
    }

    pub fn value(self) -> u64 {
        self.0
    }

    /// Fixed-width hex, so the value survives JSON (a `u64` does not fit a
    /// JSON number).
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.001), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        // 5 samples: p50 is the 3rd, p99 the 5th.
        let s = [1.0, 2.0, 3.0, 4.0, 50.0];
        assert_eq!(percentile(&s, 0.5), 3.0);
        assert_eq!(percentile(&s, 0.99), 50.0);
    }

    #[test]
    fn samples_beyond_counts_the_tail() {
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(100, 0.99), 1);
        assert_eq!(samples_beyond(60, 0.99), 0);
        assert_eq!(samples_beyond(1200, 0.5), 600);
    }

    #[test]
    fn median_and_five_numbers() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(
            five_numbers(&[5.0, 1.0, 4.0, 2.0, 3.0, 6.0, 8.0, 7.0]),
            [1.0, 2.0, 4.5, 6.0, 8.0]
        );
    }

    #[test]
    fn pooling_merges_reps_before_taking_percentiles() {
        let a = [1.0, 9.0];
        let b = [2.0, 3.0, 4.0];
        let pooled = pool([&a[..], &b[..]]);
        assert_eq!(pooled, vec![1.0, 2.0, 3.0, 4.0, 9.0]);
        // The pooled median is not the median of per-rep medians (5 vs 3).
        assert_eq!(percentile(&pooled, 0.5), 3.0);
    }

    #[test]
    fn checksum_is_order_sensitive_and_stable() {
        let mut a = Checksum::default();
        a.push_round(10, 9, 1);
        a.push_round(12, 12, 0);
        let mut b = Checksum::default();
        b.push_round(12, 12, 0);
        b.push_round(10, 9, 1);
        assert_ne!(a, b);
        let mut again = Checksum::default();
        again.push_round(10, 9, 1);
        again.push_round(12, 12, 0);
        assert_eq!(a, again);
        // FNV-1a of eight zero bytes, pinned so expected/ files stay valid.
        let mut z = Checksum::default();
        z.push(0);
        assert_eq!(z.hex(), "a8c7f832281a39c5");
        assert_eq!(Checksum::default().hex(), "cbf29ce484222325");
    }
}
