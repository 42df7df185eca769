//! Order statistics for unit latencies.

/// The fewest samples the tail percentile must leave beyond itself.
pub const TAIL_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count).
/// `None` when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// The tail of `xs`: the highest nearest-rank percentile with at least
/// [`TAIL_BEYOND`] samples ranked beyond it. Returns `(percentile, value)`,
/// the percentile in percent. `None` with fewer than `TAIL_BEYOND + 1`
/// samples, where no percentile leaves enough samples beyond it.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let n = s.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let rank = n - TAIL_BEYOND; // 1-based; ranks rank+1..=n lie beyond
    Some((100.0 * rank as f64 / n as f64, s[rank - 1]))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let (pct, v) = tail(&xs).unwrap();
        assert_eq!(pct, 90.0);
        assert_eq!(v, 90.0);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), TAIL_BEYOND);

        // 144 samples (three passes of a 48-cell grid): p93.06.
        let xs: Vec<f64> = (0..144).rev().map(f64::from).collect();
        let (pct, v) = tail(&xs).unwrap();
        assert!((pct - 100.0 * 134.0 / 144.0).abs() < 1e-12);
        assert_eq!(xs.iter().filter(|&&x| x > v).count(), TAIL_BEYOND);
    }

    #[test]
    fn tail_needs_more_than_ten_samples() {
        let ten: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&ten), None);
        let eleven: Vec<f64> = (0..11).map(f64::from).collect();
        assert_eq!(tail(&eleven), Some((100.0 / 11.0, 0.0)));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }
}
