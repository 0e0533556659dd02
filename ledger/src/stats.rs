//! Order statistics: medians, the tail percentile a sample can support,
//! and the quartile spread the acceptance rule uses.

/// The median of `values` (mean of the middle two for an even count).
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A tail latency together with how far into the tail the sample let us go.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The latency at `percentile`.
    pub value: f64,
    /// The percentile reported: 99 when the sample supports it, else the
    /// highest with ten samples beyond it, else 50.
    pub percentile: f64,
    /// Sample count.
    pub samples: usize,
}

/// The p99 of `values`, or — when fewer than ten samples lie beyond the
/// p99 — the highest percentile that does have ten samples beyond it; a
/// sample too small for any tail (≤ 20) reports its median.
pub fn tail(values: &[f64]) -> Tail {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= 20 {
        return Tail { value: median(&v), percentile: 50.0, samples: n };
    }
    // Nearest-rank p99 leaves n - ceil(0.99 n) samples beyond it.
    let p99_rank = (0.99 * n as f64).ceil() as usize;
    let rank = if n - p99_rank >= 10 { p99_rank } else { n - 10 };
    Tail { value: v[rank - 1], percentile: 100.0 * rank as f64 / n as f64, samples: n }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method). Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let mut out = [0.0; 3];
    for (q, slot) in out.iter_mut().enumerate() {
        let pos = (q + 1) * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// The distance between the first and third quartile as a share of the
/// median; 0 for fewer than two values (nothing to spread).
pub fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let [q1, _, q3] = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_is_p99_when_ten_samples_lie_beyond_it() {
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!((t.value, t.percentile, t.samples), (1980.0, 99.0, 2000));
    }

    #[test]
    fn tail_backs_off_to_the_highest_percentile_with_ten_samples_beyond() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        let t = tail(&v);
        // 10 samples (191..=200) lie beyond the 190th.
        assert_eq!((t.value, t.percentile, t.samples), (190.0, 95.0, 200));
        let v: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(tail(&v).value, 11.0);
    }

    #[test]
    fn tail_of_a_tiny_sample_is_its_median() {
        let t = tail(&[5.0, 1.0, 3.0]);
        assert_eq!((t.value, t.percentile, t.samples), (3.0, 50.0, 3));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[1.0]), 0.0);
    }
}
