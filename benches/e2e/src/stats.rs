//! Pure helpers: percentiles, the output digest, the seeded generator
//! and the arrival schedule. Everything here is a function of its
//! arguments alone, which is what the self-tests pin.

/// Percentile `p` (0–100) of an ascending slice, interpolating between
/// ranks; 0 for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let rank = (p / 100.0).clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
        }
    }
}

/// Sort a sample in place and return it (timings are never NaN).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 50.0)
}

/// The highest of the usual percentiles that still has at least ten
/// samples beyond it in a sample of `n` — the only tail a sample of
/// that size supports.
pub fn supported_percentile(n: usize) -> f64 {
    // In per mille, so that the comparison is exact.
    [999, 990, 950, 900]
        .into_iter()
        .find(|per_mille| n * (1000 - per_mille) >= 10_000)
        .map_or(50.0, |per_mille| per_mille as f64 / 10.0)
}

/// FNV-1a over bytes; the running output digest of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    /// One answer: its match count, then each match's text and score
    /// bits. The count and the terminator keep `["ab"]` and `["a","b"]`
    /// apart.
    pub fn answer<'a>(&mut self, matches: impl ExactSizeIterator<Item = (&'a str, u64)>) {
        self.u64(matches.len() as u64);
        for (text, score_bits) in matches {
            self.bytes(text.as_bytes());
            self.bytes(&[0xff]);
            self.u64(score_bits);
        }
    }
}

/// SplitMix64: the bench's only source of randomness, so that a seed
/// fixes every input the program under test sees.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for `(seed, lane)`.
    pub fn lane(seed: u64, lane: u64) -> Self {
        let mut rng = Rng(seed ^ lane.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Send offsets (seconds from phase start) of a Poisson process at
/// `rate` per second, up to `duration` seconds.
pub fn poisson_schedule(seed: u64, rate: f64, duration: f64) -> Vec<f64> {
    let mut rng = Rng::lane(seed, 0x5c4e_d01e);
    let mut at = 0.0;
    let mut out = Vec::new();
    loop {
        at += -(1.0 - rng.next_f64()).ln() / rate;
        if at >= duration {
            return out;
        }
        out.push(at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_and_handles_small_samples() {
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[3.0], 95.0), 3.0);
        let s: Vec<f64> = (1..=5).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 50.0), 3.0);
        assert_eq!(percentile(&s, 100.0), 5.0);
        assert!((percentile(&s, 95.0) - 4.8).abs() < 1e-12);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_percentile(50), 50.0);
        assert_eq!(supported_percentile(100), 90.0);
        assert_eq!(supported_percentile(199), 90.0);
        assert_eq!(supported_percentile(200), 95.0);
        assert_eq!(supported_percentile(1_000), 99.0);
        assert_eq!(supported_percentile(10_000), 99.9);
    }

    #[test]
    fn fnv_digest_is_stable() {
        let mut d = Fnv::new();
        d.bytes(b"a");
        assert_eq!(d.0, 0xaf63_dc4c_8601_ec8c);
        let mut one = Fnv::new();
        one.answer([("ab", 1)].into_iter());
        let mut two = Fnv::new();
        two.answer([("a", 1), ("b", 1)].into_iter());
        assert_ne!(one, two);
        let mut again = Fnv::new();
        again.answer([("ab", 1)].into_iter());
        assert_eq!(one, again);
    }

    #[test]
    fn rng_and_schedule_are_functions_of_the_seed() {
        let draw = |seed| {
            let mut r = Rng::lane(seed, 3);
            (0..8).map(|_| r.below(1000)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let a = poisson_schedule(11, 500.0, 2.0);
        assert_eq!(a, poisson_schedule(11, 500.0, 2.0));
        assert_ne!(a, poisson_schedule(12, 500.0, 2.0));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        // ~1000 arrivals expected; six sigma either way.
        assert!((800..1200).contains(&a.len()), "{}", a.len());
        let mut items: Vec<u32> = (0..32).collect();
        Rng::lane(5, 0).shuffle(&mut items);
        let mut check = items.clone();
        check.sort_unstable();
        assert_eq!(check, (0..32).collect::<Vec<_>>());
    }
}
