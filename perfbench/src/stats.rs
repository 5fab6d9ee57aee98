//! Percentile and ratio arithmetic.
//!
//! Every timing the benchmark prints is a [`Pct`]: the value plus the
//! sample count it came from and how many samples lie beyond it, so a
//! tail percentile can be checked against the "at least ten samples
//! beyond" rule. Every ratio is a [`Ratio`] that keeps its numerator and
//! denominator.

/// One percentile of a sample set (nearest-rank definition).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pct {
    /// The quantile asked for, in `(0, 1]`.
    pub q: f64,
    /// The sample at that rank (0 when there are no samples).
    pub value: f64,
    /// Number of samples.
    pub n: usize,
    /// Samples strictly after the chosen rank.
    pub beyond: usize,
}

/// Label of quantile `q`, such as `p50` or `p95`.
pub fn label(q: f64) -> String {
    format!("p{}", (q * 1000.0).round() / 10.0)
}

impl Pct {
    /// Label such as `p50` or `p95`.
    pub fn label(&self) -> String {
        label(self.q)
    }

    /// True when at least `min_beyond` samples lie beyond the rank.
    pub fn supported(&self, min_beyond: usize) -> bool {
        self.beyond >= min_beyond
    }
}

/// Zero-based nearest-rank index of quantile `q` among `n` sorted
/// samples: the smallest index whose cumulative share reaches `q`.
pub fn rank(n: usize, q: f64) -> usize {
    assert!(n > 0, "rank of an empty sample set");
    assert!(q > 0.0 && q <= 1.0, "quantile {q} outside (0, 1]");
    let r = (q * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// Percentile `q` of `sorted` (ascending).
pub fn pct_sorted(sorted: &[u64], q: f64) -> Pct {
    if sorted.is_empty() {
        return Pct { q, value: 0.0, n: 0, beyond: 0 };
    }
    let i = rank(sorted.len(), q);
    Pct { q, value: sorted[i] as f64, n: sorted.len(), beyond: sorted.len() - 1 - i }
}

/// Percentile `q` of unsorted samples (sorts a copy).
pub fn pct(samples: &[u64], q: f64) -> Pct {
    let mut v = samples.to_vec();
    v.sort_unstable();
    pct_sorted(&v, q)
}

/// Median of `f64` values (mean of the middle pair for even counts).
pub fn median_f64(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// A ratio that remembers its base.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Ratio {
    /// Numerator.
    pub num: f64,
    /// Denominator.
    pub den: f64,
}

impl Ratio {
    /// `num / den`.
    pub fn new(num: impl Into<f64>, den: impl Into<f64>) -> Self {
        Ratio { num: num.into(), den: den.into() }
    }

    /// The quotient; 0 when the denominator is 0 (nothing to divide).
    pub fn value(&self) -> f64 {
        if self.den == 0.0 {
            0.0
        } else {
            self.num / self.den
        }
    }
}

/// Systematic sampler with a bounded buffer: keeps every `stride`-th
/// observation and doubles the stride (dropping every other kept
/// sample) whenever the buffer fills. Count and total stay exact.
#[derive(Clone, Debug)]
pub struct Samples {
    kept: Vec<u64>,
    cap: usize,
    stride: u64,
    seen: u64,
    total: u128,
}

impl Samples {
    /// An empty sampler keeping at most `cap` observations.
    pub fn with_cap(cap: usize) -> Self {
        Samples { kept: Vec::new(), cap: cap.max(2), stride: 1, seen: 0, total: 0 }
    }

    /// Records one observation.
    pub fn push(&mut self, v: u64) {
        if self.seen.is_multiple_of(self.stride) {
            if self.kept.len() == self.cap {
                let mut i = 0;
                self.kept.retain(|_| {
                    i += 1;
                    i % 2 == 1
                });
                self.stride *= 2;
                if self.seen.is_multiple_of(self.stride) {
                    self.kept.push(v);
                }
            } else {
                self.kept.push(v);
            }
        }
        self.seen += 1;
        self.total += u128::from(v);
    }

    /// Folds another sampler in (kept samples are concatenated, then
    /// thinned back under the cap).
    pub fn merge(&mut self, other: &Samples) {
        self.seen += other.seen;
        self.total += other.total;
        self.kept.extend_from_slice(&other.kept);
        self.stride = self.stride.max(other.stride);
        while self.kept.len() > self.cap {
            let mut i = 0;
            self.kept.retain(|_| {
                i += 1;
                i % 2 == 1
            });
            self.stride *= 2;
        }
    }

    /// Exact observation count.
    pub fn count(&self) -> u64 {
        self.seen
    }

    /// Exact sum of all observations.
    pub fn total(&self) -> u128 {
        self.total
    }

    /// Exact mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.seen == 0 {
            0.0
        } else {
            self.total as f64 / self.seen as f64
        }
    }

    /// Percentile over the kept observations; `n` reports the exact
    /// count and `beyond` is scaled from the kept set to it.
    pub fn pct(&self, q: f64) -> Pct {
        let p = pct(&self.kept, q);
        let scale = if self.kept.is_empty() { 0.0 } else { self.seen as f64 / p.n as f64 };
        Pct { n: self.seen as usize, beyond: (p.beyond as f64 * scale) as usize, ..p }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        let v: Vec<u64> = (1..=100).collect();
        let p50 = pct_sorted(&v, 0.5);
        assert_eq!(p50.value, 50.0);
        assert_eq!(p50.beyond, 50);
        let p99 = pct_sorted(&v, 0.99);
        assert_eq!(p99.value, 99.0);
        assert_eq!(p99.beyond, 1);
        assert_eq!(pct_sorted(&v, 1.0).value, 100.0);
        assert_eq!(pct_sorted(&v, 0.001).value, 1.0);
        let one = pct_sorted(&[7], 0.99);
        assert_eq!((one.value, one.n, one.beyond), (7.0, 1, 0));
        assert_eq!(pct_sorted(&[], 0.5).n, 0);
    }

    #[test]
    fn unsorted_input_is_sorted_first() {
        let p = pct(&[5, 1, 4, 2, 3], 0.5);
        assert_eq!(p.value, 3.0);
        assert_eq!(p.label(), "p50");
        assert_eq!(pct(&[1; 10], 0.9).label(), "p90");
    }

    #[test]
    fn tail_support_counts_samples_beyond() {
        let v: Vec<u64> = (0..1000).collect();
        assert!(pct_sorted(&v, 0.99).supported(10));
        assert!(!pct_sorted(&v, 0.999).supported(10));
        assert_eq!(pct_sorted(&v, 0.9).beyond, 100);
    }

    #[test]
    fn median_of_floats() {
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median_f64(&[]), 0.0);
    }

    #[test]
    fn ratio_keeps_its_base() {
        let r = Ratio::new(3u32, 4u32);
        assert_eq!(r.value(), 0.75);
        assert_eq!((r.num, r.den), (3.0, 4.0));
        assert_eq!(Ratio::new(5u32, 0u32).value(), 0.0);
    }

    #[test]
    fn sampler_stays_bounded_and_exact_in_aggregate() {
        let mut s = Samples::with_cap(64);
        for v in 0..10_000u64 {
            s.push(v);
        }
        assert!(s.kept.len() <= 64);
        assert_eq!(s.count(), 10_000);
        assert_eq!(s.total(), (0..10_000u128).sum::<u128>());
        let p50 = s.pct(0.5);
        assert_eq!(p50.n, 10_000);
        assert!((p50.value - 5_000.0).abs() < 400.0, "{p50:?}");
        let mut t = Samples::with_cap(64);
        for v in 10_000..20_000u64 {
            t.push(v);
        }
        s.merge(&t);
        assert_eq!(s.count(), 20_000);
        assert!(s.kept.len() <= 64);
        assert!((s.pct(0.5).value - 10_000.0).abs() < 800.0);
    }
}
