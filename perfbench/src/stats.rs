//! Order statistics: the median and the tail percentile rule.

/// Median (mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Percentiles the tail rule chooses from, highest first.
const TAIL_GRID: [f64; 3] = [99.9, 99.5, 99.0];

/// The tail of a sample: the highest percentile that still has at least
/// ten samples beyond it, with its nearest-rank value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The chosen percentile (0 when the sample has ten values or fewer
    /// and no percentile qualifies; `value` is then the maximum).
    pub percentile: f64,
    pub value: f64,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// Applies the rule over 99.9, 99.5, then every whole percentile down
/// to 1. With `n` samples the `p`-th percentile is the value of nearest
/// rank `k = ceil(p·n/100)`, which leaves `n − k` samples beyond it.
pub fn tail(values: &[f64]) -> Tail {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let grid = TAIL_GRID
        .iter()
        .copied()
        .chain((1..99).rev().map(f64::from));
    for p in grid {
        let k = ((p * n as f64) / 100.0).ceil() as usize;
        if k >= 1 && n - k >= 10 {
            return Tail {
                percentile: p,
                value: v[k - 1],
                beyond: n - k,
            };
        }
    }
    Tail {
        percentile: 0.0,
        value: v.last().copied().unwrap_or(0.0),
        beyond: 0,
    }
}

/// Geometric mean of positive ratios; 0 when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 100 samples: p90 is rank 90, leaving exactly 10 beyond; p91
        // would leave 9.
        let t = tail(&ramp(100));
        assert_eq!((t.percentile, t.value, t.beyond), (90.0, 90.0, 10));
        // 1000 samples: p99 leaves 10.
        let t = tail(&ramp(1000));
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990.0, 10));
        // 10 000 samples: p99.9 leaves 10.
        let t = tail(&ramp(10_000));
        assert_eq!((t.percentile, t.value, t.beyond), (99.9, 9990.0, 10));
        // 250 samples: p96 is rank 240.
        let t = tail(&ramp(250));
        assert_eq!((t.percentile, t.beyond), (96.0, 10));
        // 2000 samples: p99.5 is rank 1990.
        let t = tail(&ramp(2000));
        assert_eq!((t.percentile, t.beyond), (99.5, 10));
    }

    #[test]
    fn tail_is_order_independent_and_degrades_to_max() {
        let mut v = ramp(137);
        v.reverse();
        let t = tail(&v);
        // p92 is rank 127 (10 beyond); p93 would be rank 128 (9 beyond).
        assert_eq!((t.percentile, t.value, t.beyond), (92.0, 127.0, 10));
        let small = tail(&ramp(10));
        assert_eq!(
            (small.percentile, small.value, small.beyond),
            (0.0, 10.0, 0)
        );
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
