//! Order statistics and fits over samples.

/// Median (mean of the middle pair for even counts); 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The highest of the percentiles 50, 75, 90, 95, 99 and 99.9 that has at
/// least ten samples beyond it, with its nearest-rank value:
/// `(percentile, value)`.  Falls back to the maximum below 20 samples.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    // Percentiles in tenths of a percent, so ranks are exact.
    let rank = |p: usize| (p * n).div_ceil(1000).max(1);
    let p = [999, 990, 950, 900, 750, 500]
        .into_iter()
        .find(|&p| n >= rank(p) + 10)
        .unwrap_or(1000);
    (p as f64 / 10.0, v.get(rank(p) - 1).copied().unwrap_or(0.0))
}

/// Geometric mean of positive values; 0 for none.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Least-squares slope of `ln y` against `ln x`; 0 when `x` never varies.
pub fn log_log_slope(points: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points.iter().map(|&(x, y)| (x.ln(), y.ln())).collect();
    let n = pts.len() as f64;
    let mx = pts.iter().map(|p| p.0).sum::<f64>() / n;
    let my = pts.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = pts.iter().map(|p| (p.0 - mx).powi(2)).sum();
    let sxy: f64 = pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    if sxx == 0.0 {
        0.0
    } else {
        sxy / sxx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), (90.0, 90.0));
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs), (99.0, 990.0));
    }

    #[test]
    fn slope_of_a_power_law() {
        let pts: Vec<(f64, f64)> = [10.0, 100.0, 1000.0]
            .iter()
            .map(|&x: &f64| (x, 3.0 * x.powi(2)))
            .collect();
        assert!((log_log_slope(&pts) - 2.0).abs() < 1e-9);
    }
}
