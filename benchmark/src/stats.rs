//! Order statistics used everywhere a number is reported: nearest-rank
//! percentiles over one piece's samples, the median over the best tenth
//! of a run's pieces, and the quartile spread `compare` and the
//! acceptance runs use to decide whether two values can be told apart.

/// Nearest-rank percentile of an ascending sample: the smallest value
/// with at least `q` of the sample at or below it. 0 for an empty sample.
pub fn percentile<T: Copy + Default>(sorted: &[T], q: f64) -> T {
    if sorted.is_empty() {
        return T::default();
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort `samples` in place and return its nearest-rank percentile.
pub fn percentile_of(samples: &mut [u64], q: f64) -> u64 {
    samples.sort_unstable();
    percentile(samples, q)
}

/// Median of a small set of values (mean of the two middle
/// values for an even count). 0 for an empty set.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Share of a run's pieces a metric is read off: the best tenth.
pub const BEST_SHARE: f64 = 0.1;

/// The value of a metric over comparable pieces of a run, each given as
/// `(rank, value)` with a higher rank better: the mean value over the
/// best [`BEST_SHARE`] of the pieces (at least one). Interference on a
/// shared host only ever slows a piece down, so the best pieces are the
/// ones that ran undisturbed, and they are there in a noisy run and in a
/// quiet one alike; the median over all pieces moves with how much of
/// the run was disturbed. 0 for no pieces.
pub fn best_tenth(pieces: &mut [(f64, f64)]) -> f64 {
    pieces.sort_by(|a, b| b.0.total_cmp(&a.0));
    let keep = ((pieces.len() as f64 * BEST_SHARE).ceil() as usize).clamp(1, pieces.len().max(1));
    let values: Vec<f64> = pieces.iter().take(keep).map(|p| p.1).collect();
    mean(&values)
}

/// Mean of a sample; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), so the spreads printed here are the
/// ones the acceptance procedure computes. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let m = values.len();
    if m < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Distance between the first and third quartile as a share of the
/// median; 0 when it cannot be computed.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let med = median(values);
    match quartiles(values) {
        Some((q1, q3)) if med != 0.0 => ((q3 - q1) / med).abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile(&s, 0.5), 5);
        assert_eq!(percentile(&s, 0.9), 9);
        assert_eq!(percentile(&s, 0.91), 10);
        assert_eq!(percentile(&s, 1.0), 10);
        assert_eq!(percentile(&s, 0.0), 1);
        assert_eq!(percentile(&[7], 0.5), 7);
        assert_eq!(percentile::<u64>(&[], 0.5), 0);
        let mut unsorted = vec![30, 10, 20];
        assert_eq!(percentile_of(&mut unsorted, 0.5), 20);
    }

    #[test]
    fn median_of_a_small_set() {
        assert_eq!(median(&[5.0, 1.0, 9.0, 3.0, 7.0]), 5.0);
        assert_eq!(median(&[4.0, 2.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
        // One wild value does not move the median of five.
        assert_eq!(median(&[100.0, 101.0, 99.0, 100.5, 5_000.0]), 100.5);
    }

    #[test]
    fn best_tenth_reads_the_undisturbed_pieces() {
        // Twenty pieces: the two fastest decide, whatever the rest did.
        let mut quiet: Vec<(f64, f64)> = (0..20)
            .map(|i| (100.0 - f64::from(i), f64::from(i)))
            .collect();
        assert_eq!(best_tenth(&mut quiet), 0.5);
        let mut noisy = quiet.clone();
        for p in noisy.iter_mut().skip(2) {
            p.0 /= 3.0;
            p.1 *= 9.0;
        }
        assert_eq!(best_tenth(&mut noisy), 0.5);
        // The value comes from the pieces the rank picked, not from the
        // best values.
        assert_eq!(best_tenth(&mut [(1.0, 5.0), (2.0, 7.0), (0.5, 1.0)]), 7.0);
        assert_eq!(best_tenth(&mut [(3.0, 4.0)]), 4.0);
        assert_eq!(best_tenth(&mut []), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        assert_eq!(
            quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]),
            Some((15.0, 45.0))
        );
        assert_eq!(quartiles(&[1.0]), None);
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
    }
}
