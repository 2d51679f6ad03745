//! Order statistics for reported timings.

/// Samples a reported tail must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The median of `xs` (mean of the two middle values for an even count);
/// `NaN` for an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The highest percentile of a sample that still has [`TAIL_BEYOND`]
/// samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that rank.
    pub value: f64,
    /// Its percentile: the share of samples at or below it, × 100.
    pub pct: f64,
    /// Samples the percentile is taken over.
    pub samples: usize,
}

/// The tail of `xs`: its `(n − TAIL_BEYOND)`-th smallest sample, or
/// `None` when fewer than `TAIL_BEYOND + 1` samples exist.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = n - TAIL_BEYOND;
    Some(Tail {
        value: v[rank - 1],
        pct: 100.0 * rank as f64 / n as f64,
        samples: n,
    })
}

/// `num / den`, or 0 when `den` is 0 (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=64).rev().map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.samples, 64);
        assert_eq!(t.value, 54.0, "samples 55..=64 lie beyond it");
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
        assert_eq!(t.pct, 100.0 * 54.0 / 64.0);
    }

    #[test]
    fn tail_needs_eleven_samples() {
        let xs: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&xs), None);
        let xs: Vec<f64> = (0..11).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.value, t.samples), (0.0, 11));
        assert_eq!(t.pct, 100.0 / 11.0);
    }

    #[test]
    fn tail_of_a_hundred_is_p90() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.value, t.pct, t.samples), (90.0, 90.0, 100));
    }

    #[test]
    fn ratio_of_zero_work_is_zero() {
        assert_eq!(ratio(5.0, 0.0), 0.0);
        assert_eq!(ratio(6.0, 3.0), 2.0);
    }
}
