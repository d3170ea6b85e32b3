//! Order statistics, the output digest, the seeded input generator and
//! process memory.

/// A percentile read off a sample, with what it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The sample value at that rank; `f64::INFINITY` when it falls on a
    /// failed operation.
    pub value: f64,
    /// The percentile actually reported, as a fraction (0.99 = p99).
    pub q: f64,
    /// Samples the percentile was taken over.
    pub n: usize,
}

/// Samples that must lie beyond a reported tail percentile.
const TAIL_SUPPORT: usize = 10;

/// Nearest-rank percentile `q` (0 < q <= 1) of `samples`. Failed
/// operations enter as `f64::INFINITY`, so they rank above every
/// completed one and miss any latency limit.
pub fn percentile(samples: &[f64], q: f64) -> Quantile {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    at_rank(&sorted, rank(sorted.len(), q))
}

/// The median and the tail of `samples`. The tail is p99 when at least
/// ten samples lie beyond it; otherwise it is the highest percentile that
/// still has ten beyond it (p90 of 100 samples), but never below the
/// median, so a sample too small to support a tail reports the median.
pub fn median_and_tail(samples: &[f64]) -> (Quantile, Quantile) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let median = rank(n, 0.5);
    let tail = rank(n, 0.99)
        .min(n.saturating_sub(TAIL_SUPPORT + 1))
        .max(median);
    (at_rank(&sorted, median), at_rank(&sorted, tail))
}

/// 0-based nearest-rank index of percentile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1)) - 1
}

fn at_rank(sorted: &[f64], k: usize) -> Quantile {
    let n = sorted.len();
    Quantile {
        value: sorted.get(k).copied().unwrap_or(f64::NAN),
        q: if n == 0 {
            0.0
        } else {
            (k + 1) as f64 / n as f64
        },
        n,
    }
}

/// Median of a small set of repeated measurements.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5).value
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// FNV-1a over 64-bit words: the `output_digest` that shows two builds
/// computed identical simulated output.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold one word in, little-endian byte order.
    pub fn write_u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// SplitMix64: the benchmark's only source of randomness, so the same
/// `--seed` always produces the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of `seed`; distinct streams of one
    /// seed are independent.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Uniform index below `n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `n` draws from `lo..=hi`, one uniform in each of `n` equal strata,
    /// in stratum order. Their total varies far less from seed to seed
    /// than that of `n` independent draws, so a run's work does too.
    pub fn stratified(&mut self, lo: u64, hi: u64, n: u64) -> Vec<u64> {
        let width = (hi - lo + 1) as f64 / n as f64;
        (0..n)
            .map(|k| {
                let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
                (lo + ((k as f64 + unit) * width) as u64).min(hi)
            })
            .collect()
    }
}

/// Peak resident set (VmHWM) of process `pid`, or of this process, in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> std::io::Result<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path)?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| std::io::Error::other("no VmHWM line in /proc status"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn tail_is_p99_when_a_thousand_samples_support_it() {
        let (p50, tail) = median_and_tail(&one_to(1000));
        assert_eq!(p50.value, 500.0);
        assert_eq!(tail.value, 990.0);
        assert_eq!(tail.q, 0.99);
        // Exactly ten samples lie beyond it.
        assert_eq!(one_to(1000).iter().filter(|&&v| v > tail.value).count(), 10);
    }

    #[test]
    fn tail_drops_to_the_highest_percentile_with_ten_beyond() {
        let (_, tail) = median_and_tail(&one_to(100));
        assert_eq!(tail.value, 90.0);
        assert_eq!(tail.q, 0.90);
        let (_, tail) = median_and_tail(&one_to(36));
        assert_eq!(tail.value, 26.0);
        assert_eq!(one_to(36).iter().filter(|&&v| v > tail.value).count(), 10);
        // Too few samples to support a tail above the median.
        let (p50, tail) = median_and_tail(&one_to(12));
        assert_eq!((p50.value, tail.value), (6.0, 6.0));
    }

    #[test]
    fn rejections_rank_as_infinite_latency() {
        let mut s = one_to(1000);
        s[3] = f64::INFINITY;
        let (p50, tail) = median_and_tail(&s);
        assert!(p50.value.is_finite());
        assert!(tail.value.is_finite(), "one failure sits beyond p99");
        for v in s.iter_mut().take(11) {
            *v = f64::INFINITY;
        }
        let (_, tail) = median_and_tail(&s);
        assert_eq!(tail.value, f64::INFINITY, "eleven failures reach p99");
        assert_eq!(percentile(&[f64::INFINITY; 3], 0.5).value, f64::INFINITY);
    }

    #[test]
    fn same_seed_same_stream_and_streams_differ() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        let mut r = Rng::new(1, 0);
        assert!((0..1000)
            .map(|_| r.range(5, 9))
            .all(|v| (5..=9).contains(&v)));
    }

    #[test]
    fn stratified_draws_fall_one_in_each_stratum() {
        let mut r = Rng::new(3, 0);
        for _ in 0..100 {
            let v = r.stratified(100, 499, 4);
            assert_eq!(v.len(), 4);
            for (k, x) in v.iter().enumerate() {
                let lo = 100 + 100 * k as u64;
                assert!((lo..lo + 100).contains(x), "draw {x} outside stratum {k}");
            }
        }
        assert!(r.stratified(7, 7, 3).iter().all(|&x| x == 7));
    }
}
