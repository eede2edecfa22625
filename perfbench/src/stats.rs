//! Sample summaries: medians, tail percentiles that refuse to report
//! what the sample cannot support, and quartile spread.

/// A tail percentile needs at least this many samples above it.
pub const MIN_BEYOND: usize = 10;

/// Sorted copy of `xs` (NaN-free input is the caller's contract).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// The median, or `None` for an empty sample. The median is reported at
/// any sample size; the sample count travels with it in the report.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let v = sorted(xs);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The nearest-rank `p`th percentile (0 < p < 100), refused unless at
/// least [`MIN_BEYOND`] samples lie above its rank.
pub fn percentile(xs: &[f64], p: f64) -> Result<f64, String> {
    assert!(p > 0.0 && p < 100.0, "percentile {p} out of (0, 100)");
    let n = xs.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} needs {MIN_BEYOND} samples beyond it; {n} samples leave {beyond}"
        ));
    }
    Ok(sorted(xs)[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_refuses_a_thin_tail() {
        let xs: Vec<f64> = (1..=999).map(f64::from).collect();
        // p99 of 999 samples has rank 990 and only 9 samples beyond it.
        assert!(percentile(&xs, 99.0).is_err());
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), Ok(990.0));
        assert!(
            percentile(&xs[..50], 90.0).is_err(),
            "50 samples leave 5 beyond p90"
        );
        assert_eq!(percentile(&xs[..100], 90.0), Ok(90.0));
        assert!(percentile(&[], 50.0).is_err());
    }
}
