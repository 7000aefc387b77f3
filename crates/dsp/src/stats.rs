//! Small statistics helpers shared across the workspace.

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(x: &[f64]) -> f64 {
    if x.is_empty() {
        0.0
    } else {
        x.iter().sum::<f64>() / x.len() as f64
    }
}

/// Population variance; 0 for slices shorter than 2.
pub fn variance(x: &[f64]) -> f64 {
    if x.len() < 2 {
        return 0.0;
    }
    let m = mean(x);
    x.iter().map(|&v| (v - m) * (v - m)).sum::<f64>() / x.len() as f64
}

/// Population standard deviation.
pub fn std_dev(x: &[f64]) -> f64 {
    variance(x).sqrt()
}

/// Root-mean-square amplitude.
pub fn rms(x: &[f64]) -> f64 {
    if x.is_empty() {
        0.0
    } else {
        (x.iter().map(|&v| v * v).sum::<f64>() / x.len() as f64).sqrt()
    }
}

/// Signal energy `Σ x²`.
pub fn energy(x: &[f64]) -> f64 {
    x.iter().map(|&v| v * v).sum()
}

/// Median of a slice (averages the central pair for even lengths);
/// `None` for an empty slice.
pub fn median(x: &[f64]) -> Option<f64> {
    if x.is_empty() {
        return None;
    }
    let mut v = x.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let n = v.len();
    Some(if n % 2 == 1 { v[n / 2] } else { 0.5 * (v[n / 2 - 1] + v[n / 2]) })
}

/// Ordinary least squares fit `y ≈ w0 + w1·x`; returns `(w0, w1)`.
///
/// Returns `(mean(y), 0)` when `x` is constant.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn linear_fit(x: &[f64], y: &[f64]) -> (f64, f64) {
    assert_eq!(x.len(), y.len(), "linear_fit requires equal lengths");
    if x.is_empty() {
        return (0.0, 0.0);
    }
    let mx = mean(x);
    let my = mean(y);
    let mut num = 0.0;
    let mut den = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        num += (a - mx) * (b - my);
        den += (a - mx) * (a - mx);
    }
    if den < f64::EPSILON {
        (my, 0.0)
    } else {
        let w1 = num / den;
        (my - w1 * mx, w1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_of_known_sample() {
        let x = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&x) - 5.0).abs() < 1e-12);
        assert!((variance(&x) - 4.0).abs() < 1e-12);
        assert!((std_dev(&x) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rms_of_unit_sine_is_inv_sqrt2() {
        let x: Vec<f64> =
            (0..10000).map(|i| (2.0 * std::f64::consts::PI * i as f64 / 100.0).sin()).collect();
        assert!((rms(&x) - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-3);
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn linear_fit_recovers_coefficients() {
        let x: Vec<f64> = (0..100).map(|i| i as f64 * 0.1).collect();
        let y: Vec<f64> = x.iter().map(|&v| 2.5 - 1.5 * v).collect();
        let (w0, w1) = linear_fit(&x, &y);
        assert!((w0 - 2.5).abs() < 1e-10);
        assert!((w1 + 1.5).abs() < 1e-10);
    }

    #[test]
    fn energy_matches_rms() {
        let x = [1.0, -2.0, 3.0];
        assert!((energy(&x) - 14.0).abs() < 1e-12);
        assert!((rms(&x) - (14.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }
}
