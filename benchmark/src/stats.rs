//! Order statistics over latency samples and over repeated runs.

/// Sort in place and return the `q`-quantile (nearest rank, `0 < q <= 1`).
/// Returns 0 for an empty sample so callers can print "n=0" honestly.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn sort(samples: &mut [f64]) {
    samples.sort_by(f64::total_cmp);
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    sort(&mut v);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `q`-quantile of each segment's samples, then the median over the
/// segments, so a segment the host disturbed is voted out; and the total
/// sample count.
pub fn segment_percentile(segments: &mut [&mut Vec<f64>], q: f64) -> (f64, usize) {
    let each: Vec<f64> = segments
        .iter_mut()
        .map(|samples| {
            sort(samples);
            percentile(samples, q)
        })
        .collect();
    (median(&each), segments.iter().map(|s| s.len()).sum())
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// gives them — the rule the acceptance check uses. Needs two values.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let mut v = samples.to_vec();
    sort(&mut v);
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some((7.5, 22.5)));
        // statistics.quantiles([1, 5, 2, 9, 7], n=4) == [1.5, 5.0, 8.0]
        assert_eq!(quartiles(&[1.0, 5.0, 2.0, 9.0, 7.0]), Some((1.5, 8.0)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
