//! Small statistics helpers: medians, a bounded-memory latency
//! histogram, and the output digest.

/// Median of `samples` (mean of the middle two for an even count); 0 for
/// an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// `num / den`, or 0 when `den` is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Log-linear histogram of nanosecond durations: values below
/// `2^SUB_BITS` are exact, larger ones fall in one of `2^SUB_BITS`
/// sub-buckets per power of two (under 0.8% relative error). Memory is
/// fixed, so recording millions of samples does not move `peak_rss_mb`.
#[derive(Clone, Debug)]
pub struct LogHistogram {
    counts: Vec<u64>,
    total: u64,
}

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            counts: vec![0; ((64 - SUB_BITS as usize) + 1) * SUB as usize],
            total: 0,
        }
    }
}

impl LogHistogram {
    fn bucket(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let exp = 63 - v.leading_zeros(); // >= SUB_BITS
        let shift = exp - SUB_BITS;
        let mantissa = (v >> shift) - SUB; // 0..SUB
        ((shift as u64 + 1) * SUB + mantissa) as usize
    }

    /// The midpoint of bucket `b`'s value range.
    fn value(b: usize) -> f64 {
        let b = b as u64;
        if b < SUB {
            return b as f64;
        }
        let shift = b / SUB - 1;
        let lo = (SUB + b % SUB) << shift;
        lo as f64 + ((1u64 << shift) as f64 - 1.0) / 2.0
    }

    /// Records one sample.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.total += 1;
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (nearest rank), or 0 with no samples.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value(b);
            }
        }
        unreachable!("rank is at most the sample total")
    }
}

/// FNV-1a over `bytes`, folded into `acc` — the digest of simulated
/// outputs that traced and untraced runs must agree on.
pub fn fnv1a(acc: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(acc, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The FNV-1a offset basis: the digest of nothing.
pub const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// The output digests every unit of a run must reproduce: the first
/// unit to report a key sets it, every later unit, traced or not, must
/// match it.
#[derive(Default)]
pub struct Digests {
    want: Vec<Option<u64>>,
}

impl Digests {
    /// Checks `got` for `key`. `Ok(true)` when it set the reference.
    pub fn check(&mut self, key: usize, got: u64) -> Result<bool, String> {
        if self.want.len() <= key {
            self.want.resize(key + 1, None);
        }
        match self.want[key] {
            None => {
                self.want[key] = Some(got);
                Ok(true)
            }
            Some(want) if want == got => Ok(false),
            Some(want) => Err(format!("digest {got:016x} differs from {want:016x}")),
        }
    }

    /// One digest over every reference, for comparing runs of a seed
    /// across processes (traced against untraced, or repeated).
    pub fn summary(&self) -> u64 {
        self.want
            .iter()
            .fold(FNV_OFFSET, |h, d| fnv1a(h, &d.unwrap_or(0).to_le_bytes()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_set_then_must_repeat() {
        let mut d = Digests::default();
        assert_eq!(d.check(3, 7), Ok(true));
        assert_eq!(d.check(3, 7), Ok(false));
        assert!(d.check(3, 8).is_err());
        assert_eq!(d.check(0, 8), Ok(true));
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn histogram_quantiles_are_within_a_bucket() {
        let mut h = LogHistogram::default();
        for v in 1..=100_000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100_000);
        for (q, want) in [(0.5, 50_000.0), (0.99, 99_000.0)] {
            let got = h.quantile(q);
            assert!((got - want).abs() / want < 0.01, "q{q}: {got} vs {want}");
        }
        assert_eq!(LogHistogram::default().quantile(0.5), 0.0);
    }

    #[test]
    fn histogram_buckets_are_monotone_and_exact_below_sub() {
        let mut last = 0;
        for v in [0, 1, 5, 127, 128, 129, 255, 256, 1 << 20, u64::MAX] {
            let b = LogHistogram::bucket(v);
            assert!(b >= last, "bucket({v}) went backwards");
            last = b;
        }
        assert_eq!(LogHistogram::value(LogHistogram::bucket(77)), 77.0);
    }
}
