//! Order statistics over timing samples.

/// Samples sorted ascending. Panics on NaN, which no timer produces.
fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("timing samples are never NaN"));
    v
}

/// The median (mean of the two middle values for an even count); 0 for no
/// samples.
pub fn median(samples: &[f64]) -> f64 {
    quartiles(samples).1
}

/// First quartile, median and third quartile by the "exclusive" method
/// (the default of Python's `statistics.quantiles(data, n=4)`), so the
/// spreads printed here match the ones a regression check computes from
/// repeated runs. A single sample is its own three quartiles.
pub fn quartiles(samples: &[f64]) -> (f64, f64, f64) {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => return (0.0, 0.0, 0.0),
        1 => return (v[0], v[0], v[0]),
        _ => {}
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// A tail percentile chosen so that enough samples lie beyond it to make
/// it more than one unlucky outlier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, 0–99.
    pub percentile: u32,
    /// The sample at that percentile (nearest-rank).
    pub value: f64,
    /// Samples strictly after it in sorted order.
    pub beyond: usize,
    /// Samples in total.
    pub count: usize,
}

/// The highest whole percentile (nearest-rank) with at least `min_beyond`
/// samples after it in sorted order. `None` when there are not more than
/// `min_beyond` samples.
pub fn tail(samples: &[f64], min_beyond: usize) -> Option<Tail> {
    let v = sorted(samples);
    let n = v.len();
    (0..100u32).rev().find_map(|p| {
        // Nearest rank: the smallest 1-based rank covering p% of samples.
        let rank = ((p as usize * n).div_ceil(100)).max(1);
        let beyond = n.checked_sub(rank)?;
        (beyond >= min_beyond).then(|| Tail {
            percentile: p,
            value: v[rank - 1],
            beyond,
            count: n,
        })
    })
}

/// Geometric mean of positive values; 0 for none.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 3.0, 1.0]), (1.25, 2.5, 3.75));
        // statistics.quantiles([5, 7], n=4) == [4.5, 6.0, 7.5]
        assert_eq!(quartiles(&[7.0, 5.0]), (4.5, 6.0, 7.5));
        assert_eq!(quartiles(&[9.0]), (9.0, 9.0, 9.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v, 10).unwrap();
        assert_eq!(t.percentile, 90);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.count, 100);

        let v: Vec<f64> = (1..=48).map(f64::from).collect();
        let t = tail(&v, 10).unwrap();
        // p79 → rank ceil(37.92) = 38, ten beyond; p80 → rank 39, nine.
        assert_eq!((t.percentile, t.value, t.beyond), (79, 38.0, 10));
    }

    #[test]
    fn tail_needs_more_samples_than_the_margin() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&v, 10), None);
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&v, 10).unwrap();
        assert_eq!((t.value, t.beyond), (1.0, 10));
    }

    #[test]
    fn geomean_of_powers() {
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
