//! Order statistics over measured samples.

/// Nearest-rank percentile (`q` in `0..=1`) of `values`: always one of
/// the measured values, never an interpolation. `0.0` for no samples —
/// callers gate on sample counts before reporting an end-to-end value.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_unstable_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Lower median (nearest rank at 0.5).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_measured_values() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&v, 0.99), 5.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[]), 0.0);
    }
}
