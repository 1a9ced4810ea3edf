//! Order statistics: percentiles of one slice, medians across slices.

/// The `q`-quantile (`0 < q <= 1`) of `sorted` by the nearest-rank rule: the
/// smallest sample with at least `q` of the samples at or below it.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    sorted[rank(sorted.len(), q) - 1]
}

/// How many of `len` samples lie beyond the `q`-quantile's rank.
pub fn samples_beyond(len: usize, q: f64) -> usize {
    len - rank(len, q)
}

fn rank(len: usize, q: f64) -> usize {
    assert!(len > 0, "quantile of no samples");
    // The epsilon keeps 0.99 * 100 at rank 99 whatever the product rounds to.
    ((q * len as f64 - 1e-9).ceil() as usize).clamp(1, len)
}

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Each non-empty slice's `q`-quantile, sorting the slices in place.  The
/// benchmark reports the [`median`] of these: one slow slice (a noisy
/// neighbour, a flush burst) moves one of the per-slice values, not the
/// reported one.
pub fn per_slice_percentile(slices: &mut [Vec<u64>], q: f64) -> Vec<f64> {
    slices
        .iter_mut()
        .filter(|slice| !slice.is_empty())
        .map(|slice| {
            slice.sort_unstable();
            percentile(slice, q) as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_on_known_vectors() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[1, 2, 3, 4], 0.5), 2);
        assert_eq!(samples_beyond(100, 0.99), 1);
        assert_eq!(samples_beyond(2000, 0.99), 20);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn slice_median_ignores_one_bad_slice() {
        // Five slices of 1..=100; one of them has a stalled tail.
        let mut slices: Vec<Vec<u64>> = (0..5).map(|_| (1..=100).rev().collect()).collect();
        slices[2].iter_mut().take(5).for_each(|v| *v = 1_000_000);
        let p99 = per_slice_percentile(&mut slices, 0.99);
        assert_eq!(p99, [99.0, 99.0, 1_000_000.0, 99.0, 99.0]);
        assert_eq!(median(&p99), 99.0);
        assert_eq!(median(&per_slice_percentile(&mut slices, 0.50)), 50.0);
        // An empty slice (a window cut short) is skipped, not counted as 0.
        slices.push(Vec::new());
        assert_eq!(per_slice_percentile(&mut slices, 0.99).len(), 5);
    }
}
