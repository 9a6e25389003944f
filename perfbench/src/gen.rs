//! Seeded input generators over the workspace's `StdRng`: a shuffle, a
//! Zipf sampler and an order-preserving interleave. Everything the
//! workloads send is derived from the `--seed` argument through these, so
//! one seed always yields the same inputs.

use rand::rngs::StdRng;
use rand::RngExt;

/// A Fisher–Yates shuffle of `v`.
pub fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.random_range(0..=i));
    }
}

/// Zipf(s) over ranks `0..n`: rank `r` is drawn with weight `1/(r+1)^s`.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / ((r + 1) as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.random_range(0.0..1.0);
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Interleaves chains of the given lengths into one schedule of
/// `(chain, position)` pairs: a seeded shuffle of the multiset of chain
/// ids, so positions within each chain stay in order.
pub fn interleave(lens: &[usize], rng: &mut StdRng) -> Vec<(usize, usize)> {
    let mut ids: Vec<usize> = lens
        .iter()
        .enumerate()
        .flat_map(|(chain, &len)| std::iter::repeat_n(chain, len))
        .collect();
    shuffle(&mut ids, rng);
    let mut next = vec![0usize; lens.len()];
    ids.into_iter()
        .map(|chain| {
            let pos = next[chain];
            next[chain] += 1;
            (chain, pos)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn zipf_draws(seed: u64) -> Vec<usize> {
        let z = Zipf::new(151, 1.0);
        let mut rng = rng(seed);
        (0..500).map(|_| z.sample(&mut rng)).collect()
    }

    #[test]
    fn zipf_is_deterministic_per_seed_and_differs_across_seeds() {
        assert_eq!(zipf_draws(1), zipf_draws(1));
        assert_ne!(zipf_draws(1), zipf_draws(2));
    }

    #[test]
    fn zipf_favours_low_ranks_and_stays_in_range() {
        let draws = zipf_draws(7);
        assert!(draws.iter().all(|&r| r < 151));
        let top = draws.iter().filter(|&&r| r == 0).count();
        let tenth = draws.iter().filter(|&&r| r == 9).count();
        // Weight 1 vs 1/10: rank 0 is drawn far more often than rank 9.
        assert!(top > 3 * tenth.max(1), "top {top}, tenth {tenth}");
    }

    #[test]
    fn interleave_is_deterministic_per_seed_and_differs_across_seeds() {
        let lens = [3, 1, 5, 2, 4];
        let a = interleave(&lens, &mut rng(11));
        assert_eq!(a, interleave(&lens, &mut rng(11)));
        assert_ne!(a, interleave(&lens, &mut rng(12)));
    }

    #[test]
    fn interleave_keeps_each_chain_in_order() {
        let lens = [4, 0, 7, 1, 19];
        let order = interleave(&lens, &mut rng(3));
        assert_eq!(order.len(), lens.iter().sum::<usize>());
        let mut seen = vec![0usize; lens.len()];
        for (chain, pos) in order {
            assert_eq!(pos, seen[chain], "chain {chain} out of order");
            seen[chain] += 1;
        }
        assert_eq!(seen, lens);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut v: Vec<usize> = (0..100).collect();
        shuffle(&mut v, &mut rng(5));
        let mut s = v.clone();
        s.sort_unstable();
        assert_eq!(s, (0..100).collect::<Vec<_>>());
        assert_ne!(v, s);
    }
}
