//! Order statistics over timing samples: the median and the tail
//! percentile rule (the highest percentile that still has at least ten
//! samples beyond it).

/// Samples that must lie strictly beyond a reported tail value.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` for an empty sample.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    })
}

/// A tail percentile together with the sample counts it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at the percentile.
    pub value: f64,
    /// Percentile in percent: the share of samples at or below `value`.
    pub pct: f64,
    /// Samples strictly greater than `value`.
    pub beyond: usize,
    /// Total samples.
    pub n: usize,
}

/// The highest percentile of `xs` that still has at least `min_beyond`
/// samples strictly beyond it. Ties at the cut move it down until the
/// rule holds. `None` when the sample is too small for the rule.
pub fn tail(xs: &[f64], min_beyond: usize) -> Option<Tail> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n <= min_beyond {
        return None;
    }
    let mut idx = n - 1 - min_beyond;
    loop {
        let value = v[idx];
        let at_or_below = v.partition_point(|x| *x <= value);
        let beyond = n - at_or_below;
        if beyond >= min_beyond {
            return Some(Tail {
                value,
                pct: 100.0 * at_or_below as f64 / n as f64,
                beyond,
                n,
            });
        }
        if idx == 0 {
            return None;
        }
        idx -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs, TAIL_MIN_BEYOND).expect("100 samples are enough");
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.n, 100);
        assert!((t.pct - 90.0).abs() < 1e-12);

        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs, TAIL_MIN_BEYOND).expect("1000 samples are enough");
        assert_eq!(t.value, 990.0);
        assert_eq!(t.beyond, 10);
        assert!((t.pct - 99.0).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_more_samples_than_the_rule() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&xs, TAIL_MIN_BEYOND), None);
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&xs, TAIL_MIN_BEYOND).expect("11 samples leave 10 beyond the minimum");
        assert_eq!((t.value, t.beyond, t.n), (1.0, 10, 11));
    }

    #[test]
    fn tail_moves_below_ties() {
        // Twelve samples: two small, ten tied at the top. The cut must
        // fall below the tie so that ten samples lie strictly beyond.
        let mut xs = vec![1.0, 2.0];
        xs.extend(std::iter::repeat_n(5.0, 10));
        let t = tail(&xs, TAIL_MIN_BEYOND).expect("ties leave a valid cut");
        assert_eq!((t.value, t.beyond), (2.0, 10));
        // With every sample tied no cut has anything beyond it.
        assert_eq!(tail(&[7.0; 20], TAIL_MIN_BEYOND), None);
    }
}
