//! Seeded generators for the workloads' queries: the same `--seed` always
//! gives the same seed sets.

use infprop_temporal_graph::NodeId;

/// SplitMix64: a tiny, well-mixed 64-bit generator.
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed`; `stream` separates the draws of different
    /// uses of one seed.
    pub fn new(seed: u64, stream: u64) -> SplitMix64 {
        SplitMix64(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F))
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; `n` ≥ 1).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)` with 53 bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// `count` seed sets of `size` seeds each, drawn uniformly from `0..n`.
pub fn uniform_sets(rng: &mut SplitMix64, n: usize, count: usize, size: usize) -> Vec<Vec<NodeId>> {
    (0..count)
        .map(|_| {
            (0..size)
                .map(|_| NodeId::from_index(rng.below(n)))
                .collect()
        })
        .collect()
}

/// A uniformly shuffled `0..n` (Fisher–Yates).
pub fn permutation(rng: &mut SplitMix64, n: usize) -> Vec<NodeId> {
    let mut p: Vec<NodeId> = (0..n).map(NodeId::from_index).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.below(i + 1));
    }
    p
}

/// Zipf(s) over ranks `0..n`: rank `r` has weight `1 / (r + 1)^s`.
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n` ≥ 1 ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut total = 0.0;
        let cumulative = (0..n)
            .map(|r| {
                total += ((r + 1) as f64).powf(-s);
                total
            })
            .collect();
        Zipf { cumulative }
    }

    /// One rank, by inverting the cumulative weights.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let total = *self.cumulative.last().expect("Zipf over at least one rank");
        let u = rng.unit() * total;
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.cumulative.len() - 1)
    }
}

/// `count` seed sets of `size` seeds each, with ranks drawn from `zipf` and
/// mapped to nodes through `order`, so popular seeds recur across sets.
pub fn zipf_sets(
    rng: &mut SplitMix64,
    zipf: &Zipf,
    order: &[NodeId],
    count: usize,
    size: usize,
) -> Vec<Vec<NodeId>> {
    (0..count)
        .map(|_| (0..size).map(|_| order[zipf.sample(rng)]).collect())
        .collect()
}

/// Distinct seeds divided by all seeds over `sets`.
pub fn distinct_share(sets: &[Vec<NodeId>]) -> f64 {
    let mut all: Vec<NodeId> = sets.iter().flatten().copied().collect();
    let total = all.len();
    all.sort_unstable();
    all.dedup();
    all.len() as f64 / total.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_deterministic_per_seed() {
        let zipf = Zipf::new(1000, 1.1);
        let draw = |seed| {
            let mut rng = SplitMix64::new(seed, 7);
            (0..500).map(|_| zipf.sample(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(draw(1), draw(1));
        assert_ne!(draw(1), draw(2));
        let ranks = draw(3);
        assert!(ranks.iter().all(|&r| r < 1000));
        // Rank 0 carries 1/H(1000, 1.1) ≈ 18% of the mass.
        let zeros = ranks.iter().filter(|&&r| r == 0).count();
        assert!(zeros > 50 && zeros < 140, "rank-0 draws {zeros}");
    }

    #[test]
    fn sets_and_permutation_are_deterministic() {
        let mut a = SplitMix64::new(5, 1);
        let mut b = SplitMix64::new(5, 1);
        assert_eq!(
            uniform_sets(&mut a, 50, 4, 3),
            uniform_sets(&mut b, 50, 4, 3)
        );
        let p = permutation(&mut SplitMix64::new(9, 2), 100);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).map(NodeId::from_index).collect::<Vec<_>>());
        assert_eq!(p, permutation(&mut SplitMix64::new(9, 2), 100));
    }

    #[test]
    fn distinct_share_counts_repeats() {
        let sets = vec![vec![NodeId(1), NodeId(2)], vec![NodeId(2), NodeId(3)]];
        assert_eq!(distinct_share(&sets), 0.75);
    }
}
