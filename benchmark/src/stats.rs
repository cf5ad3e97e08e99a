//! Order statistics over timing samples, and the exact-count digest.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Sorts `samples` ascending (total order; timings are never NaN).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// Nearest-rank quantile `q` in `[0, 1]` of an ascending slice.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The fastest of `samples`: the statistic every CPU-bound end-to-end
/// metric is built from.
///
/// Interference on a shared host only ever adds time. On the reference
/// box it arrives as stretches of up to 20 s that run 27 % slow and
/// cover most of a run, broken by fast bursts often well under a second.
/// Means, medians and even the fast decile then move with how much of a
/// run the slow stretches happened to cover (10-20 % between runs of the
/// same code), while the fastest of a few hundred short samples spread
/// over 15 s repeats within 1-3 %.
///
/// # Panics
///
/// Panics on no samples.
pub fn best(samples: &[f64]) -> f64 {
    samples
        .iter()
        .copied()
        .min_by(f64::total_cmp)
        .expect("best of no samples")
}

/// The median of `samples` (any order); the mean of the middle two
/// for an even count.
///
/// # Panics
///
/// Panics on no samples.
pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples.to_vec());
    (s[(s.len() - 1) / 2] + s[s.len() / 2]) / 2.0
}

/// Tail percentile of an ascending slice, given in tenths of a percent
/// (`990` is p99), or `None` when fewer than [`TAIL_SAMPLES`] samples
/// lie beyond it: a p99 of 200 requests is two samples, not a
/// measurement.
pub fn tail_percentile(sorted: &[f64], per_mille: usize) -> Option<f64> {
    let rank = (sorted.len() * per_mille).div_ceil(1000);
    (rank >= 1 && sorted.len() - rank >= TAIL_SAMPLES).then(|| sorted[rank - 1])
}

/// The highest of p99.9 / p99 / p90 / p75 that [`tail_percentile`]
/// accepts for this sample count, as `(per mille, value)`.
pub fn highest_tail(sorted: &[f64]) -> Option<(usize, f64)> {
    [999, 990, 900, 750]
        .into_iter()
        .find_map(|p| tail_percentile(sorted, p).map(|v| (p, v)))
}

/// FNV-1a-64 over a stream of `u64` words, folded to 53 bits so the
/// digest survives a round trip through a JSON number.
#[derive(Clone, Copy, Debug)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in, byte by byte (little endian).
    pub fn push(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far, as a 53-bit integer.
    pub fn finish(self) -> u64 {
        (self.0 >> 53) ^ (self.0 & ((1 << 53) - 1))
    }
}

/// The splitmix64 step: the benchmark's only random source, so a
/// schedule is a pure function of `--seed`.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
