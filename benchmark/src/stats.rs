//! Order statistics the report is built from: a kernel's value is the
//! median over rounds, a workload's value the geometric mean over its
//! kernels, and a tail latency is only a measurement when at least
//! [`MIN_TAIL_SAMPLES`] samples lie beyond it.

/// Samples that must lie beyond a percentile for it to be reported as one.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Median of `values` (mean of the two middle elements for even counts).
///
/// # Panics
///
/// Panics on an empty slice: every caller has run at least one round.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Nearest-rank percentile `p` (in `0.0..1.0`) and the number of samples
/// strictly beyond its rank. The caller decides what to do when that count
/// is below [`MIN_TAIL_SAMPLES`].
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(values: &[f64], p: f64) -> (f64, usize) {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    (v[rank - 1], v.len() - rank)
}

/// The estimator every reported *time* uses: the first decile (nearest
/// rank) over repetitions — rounds, regions, set-ups, passes.
///
/// Interference from the host only ever adds time, and on a shared virtual
/// machine it arrives in bursts lasting seconds to minutes. Over 25 minutes
/// of back-to-back 5 s runs on the development host the median of
/// `domore_fine`'s per-round cost moved by up to 78 % during such bursts and
/// its interquartile range over ten consecutive runs reached 42 % of the
/// median; the first decile's stayed below 9 %. The median is still printed
/// next to it, so the disturbance of a run is visible.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn first_decile(values: &[f64]) -> f64 {
    percentile(values, 0.10).0
}

/// Smallest sample count whose percentile `p` has [`MIN_TAIL_SAMPLES`]
/// samples beyond it — the "ten samples beyond" rule turned into the
/// minimum number of regions a run must execute.
#[cfg(test)]
pub fn min_samples_for(p: f64) -> usize {
    (1..)
        .find(|&n| n - ((p * n as f64).ceil() as usize).clamp(1, n) >= MIN_TAIL_SAMPLES)
        .expect("some count satisfies the rule")
}

/// Geometric mean of strictly positive values.
///
/// # Panics
///
/// Panics on an empty slice or a non-positive value: a ratio or a time of
/// zero is a measurement bug, not a data point.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of no samples");
    assert!(
        values.iter().all(|&v| v > 0.0),
        "geomean needs positive values, got {values:?}"
    );
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Arithmetic mean; 0 for no samples (used for counts that may not apply).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_counts_the_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.90), (90.0, 10));
        assert_eq!(percentile(&v, 0.50), (50.0, 50));
        let few: Vec<f64> = (1..=20).map(f64::from).collect();
        let (p90, beyond) = percentile(&few, 0.90);
        assert_eq!(p90, 18.0);
        assert!(beyond < MIN_TAIL_SAMPLES, "20 samples cannot carry a p90");
    }

    #[test]
    fn ten_samples_beyond_rule_needs_a_hundred_regions_for_p90() {
        assert_eq!(min_samples_for(0.90), 100);
        assert_eq!(min_samples_for(0.50), 20);
        let v = vec![1.0; min_samples_for(0.90)];
        assert_eq!(percentile(&v, 0.90).1, MIN_TAIL_SAMPLES);
        let v = vec![1.0; min_samples_for(0.90) - 1];
        assert!(percentile(&v, 0.90).1 < MIN_TAIL_SAMPLES);
    }

    #[test]
    fn first_decile_ignores_slow_outliers() {
        let mut v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(first_decile(&v), 2.0);
        v.extend([1e6; 5]);
        assert_eq!(
            first_decile(&v),
            3.0,
            "a burst of slow samples barely moves it"
        );
        assert_eq!(
            first_decile(&[5.0, 4.0, 6.0]),
            4.0,
            "few samples: the minimum"
        );
    }

    #[test]
    fn geomean_is_scale_symmetric() {
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[0.5, 2.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        geomean(&[1.0, 0.0]);
    }

    #[test]
    fn mean_of_nothing_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
    }
}
