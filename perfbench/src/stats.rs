//! The tail rule for the report.
//!
//! A tail is reported as the highest standard percentile that still has at
//! least ten samples beyond it, together with that percentile and the
//! sample count, so a p99 over 300 samples (three samples beyond) can never
//! masquerade as a measured tail.

/// Standard percentiles tried for the tail, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Ascending copy of `xs` (NaNs sort last).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// A tail statistic: the value at percentile `pct`, which has `beyond`
/// of the `n` samples above its rank.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub pct: f64,
    pub value: f64,
    pub beyond: usize,
    pub n: usize,
}

/// The highest percentile of [`TAIL_LADDER`] whose nearest-rank position
/// leaves at least [`TAIL_MIN_BEYOND`] samples beyond it. With fewer than
/// twenty samples no percentile qualifies and the maximum is reported as
/// `p100` with nothing beyond.
pub fn tail(xs: &[f64]) -> Tail {
    let v = sorted(xs);
    let n = v.len();
    for pct in TAIL_LADDER {
        // Nearest rank (1-based): ceil(pct/100 * n).
        let rank = ((pct / 100.0) * n as f64).ceil() as usize;
        if rank >= 1 && n - rank >= TAIL_MIN_BEYOND {
            return Tail {
                pct,
                value: v[rank - 1],
                beyond: n - rank,
                n,
            };
        }
    }
    Tail {
        pct: 100.0,
        value: v.last().copied().unwrap_or(f64::NAN),
        beyond: 0,
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1000 samples: p99 sits at rank 990 with exactly ten above it;
        // p99.9 would leave one.
        let t = tail(&ramp(1000));
        assert_eq!((t.pct, t.value, t.beyond, t.n), (99.0, 990.0, 10, 1000));
        // 536 samples: p99 leaves 5, p95 (rank 510) leaves 26.
        let t = tail(&ramp(536));
        assert_eq!((t.pct, t.value, t.beyond), (95.0, 510.0, 26));
        // 20 samples: only the median leaves ten beyond.
        let t = tail(&ramp(20));
        assert_eq!((t.pct, t.value, t.beyond), (50.0, 10.0, 10));
    }

    #[test]
    fn tail_of_few_samples_is_their_maximum() {
        let t = tail(&[5.0, 9.0, 7.0]);
        assert_eq!((t.pct, t.value, t.beyond, t.n), (100.0, 9.0, 0, 3));
        assert!(tail(&[]).value.is_nan());
    }

    #[test]
    fn tail_never_reports_fewer_than_ten_beyond() {
        for n in 20..2000 {
            let t = tail(&ramp(n));
            assert!(t.beyond >= TAIL_MIN_BEYOND, "n={n}: {t:?}");
            assert_eq!(t.value as usize, n - t.beyond, "n={n}");
        }
    }
}
