//! Order statistics behind every reported timing.

/// Samples a slice needs beyond its percentile before that percentile is
/// trusted; with fewer, the percentile of the whole run is reported.
const MIN_BEYOND: f64 = 10.0;

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least a share `q` of all samples at or below it.
pub fn percentile_sorted(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(q > 0.0 && q <= 1.0, "percentile rank must be in (0, 1]");
    // The epsilon keeps an exact product such as 0.9 × 100 from rounding
    // up to the next rank.
    let rank = (q * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// [`percentile_sorted`] of unsorted samples.
pub fn percentile(samples: &[u64], q: f64) -> u64 {
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    percentile_sorted(&sorted, q)
}

/// Median of `values`; the mean of the two middle values for an even count.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `q`-percentile of each of `slices` equal time slices of the run,
/// then the median of those. `end_ns[i]` is when sample `lat_ns[i]`
/// finished, counted from the start of the run. One slow stretch (another
/// process taking the core for a second) then moves one slice, not the
/// result. When any slice holds fewer than [`MIN_BEYOND`] samples beyond
/// its percentile, the percentile of the whole run is returned instead.
pub fn slice_percentile(end_ns: &[u64], lat_ns: &[u64], slices: usize, q: f64) -> f64 {
    assert_eq!(end_ns.len(), lat_ns.len(), "one end time per sample");
    let whole = percentile(lat_ns, q) as f64;
    let span = end_ns.iter().copied().max().unwrap_or(0) + 1;
    let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); slices.max(1)];
    for (&end, &lat) in end_ns.iter().zip(lat_ns) {
        let k = (u128::from(end) * buckets.len() as u128 / u128::from(span)) as usize;
        buckets[k].push(lat);
    }
    let needed = (MIN_BEYOND / (1.0 - q).max(f64::EPSILON)).ceil() as usize;
    if buckets.iter().any(|b| b.len() < needed) {
        return whole;
    }
    let per_slice: Vec<f64> = buckets.iter().map(|b| percentile(b, q) as f64).collect();
    median(&per_slice)
}

/// Items completed per second of operation time, in each of `slices` equal
/// time slices of the run, then the median of those rates. Like
/// [`slice_percentile`], one slow stretch moves one slice only.
pub fn slice_rate(end_ns: &[u64], lat_ns: &[u64], items: &[u64], slices: usize) -> f64 {
    assert!(end_ns.len() == lat_ns.len() && lat_ns.len() == items.len());
    let span = end_ns.iter().copied().max().unwrap_or(0) + 1;
    let mut per_slice = vec![(0u64, 0u64); slices.max(1)];
    for ((&end, &lat), &n) in end_ns.iter().zip(lat_ns).zip(items) {
        let k = (u128::from(end) * per_slice.len() as u128 / u128::from(span)) as usize;
        per_slice[k].0 += n;
        per_slice[k].1 += lat;
    }
    let rates: Vec<f64> = per_slice
        .iter()
        .filter(|(_, busy)| *busy > 0)
        .map(|&(n, busy)| n as f64 * 1e9 / busy as f64)
        .collect();
    median(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_rule() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 0.5), 50);
        assert_eq!(percentile_sorted(&v, 0.9), 90);
        assert_eq!(percentile_sorted(&v, 0.99), 99);
        assert_eq!(percentile_sorted(&v, 1.0), 100);
        assert_eq!(percentile_sorted(&v, 0.001), 1);
        // Ten samples: p50 is the 5th, p90 the 9th, p99 the 10th.
        let ten: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile_sorted(&ten, 0.5), 5);
        assert_eq!(percentile_sorted(&ten, 0.9), 9);
        assert_eq!(percentile_sorted(&ten, 0.99), 10);
        assert_eq!(percentile(&[7], 0.5), 7);
        assert_eq!(percentile(&[3, 1, 2], 0.5), 2);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn slice_median_p99_ignores_one_slow_slice() {
        // 10 slices of 2000 samples each; every slice has p99 = 1000 except
        // slice 3, where a stall makes every sample 50 000.
        let mut ends = Vec::new();
        let mut lats = Vec::new();
        for slice in 0..10u64 {
            for i in 0..2000u64 {
                ends.push(slice * 1_000_000 + i * 400);
                let lat = if slice == 3 {
                    50_000
                } else if i < 1970 {
                    100
                } else {
                    1000
                };
                lats.push(lat);
            }
        }
        assert_eq!(slice_percentile(&ends, &lats, 10, 0.99), 1000.0);
        // The whole-run p99 is pulled up by the stalled slice.
        assert_eq!(percentile(&lats, 0.99), 50_000);
    }

    #[test]
    fn slice_rate_is_the_median_slice() {
        // Four slices of 10 ops, 1 item per 1000 ns each, but slice 2 runs
        // at 1 item per 5000 ns.
        let mut ends = Vec::new();
        let mut lats = Vec::new();
        for slice in 0..4u64 {
            for i in 0..10u64 {
                ends.push(slice * 100_000 + i * 5000);
                lats.push(if slice == 2 { 5000 } else { 1000 });
            }
        }
        let items = vec![1; ends.len()];
        assert_eq!(slice_rate(&ends, &lats, &items, 4), 1e6);
        // Slices without an operation end are skipped.
        assert_eq!(slice_rate(&[10], &[500], &[2], 10), 4e6);
    }

    #[test]
    fn slice_median_falls_back_with_few_samples() {
        // 50 samples cannot give ten slices 1000 samples each for p99.
        let ends: Vec<u64> = (0..50).map(|i| i * 10).collect();
        let lats: Vec<u64> = (1..=50).collect();
        assert_eq!(slice_percentile(&ends, &lats, 10, 0.99), 50.0);
        assert_eq!(slice_percentile(&ends, &lats, 10, 0.5), 25.0);
    }
}
