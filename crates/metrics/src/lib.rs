//! Separation-quality metrics with the paper's aggregation rules (§4.2).
//!
//! * [`sdr_db`] — signal-to-distortion ratio in dB.
//! * [`si_sdr_db`] — scale-invariant SDR (optimal gain applied first).
//! * [`mse`] — mean squared error.
//! * [`average_sdr_db`] — "arithmetic averaging in their original linear
//!   scale": mean of the linear power ratios, reported back in dB.
//! * [`average_mse`] — geometric mean, exactly as the paper averages MSE.
//! * [`pearson`] — correlation coefficient (Figure 6's metric).
//! * [`masked_energy_ratio`] — fraction of hidden (masked) energy that
//!   belongs to the target source, the x-axis of Figure 5(a).
//! * [`LatencyHistogram`] — fixed-bucket latency distribution for the
//!   serving runtime (record/merge/percentile).
//!
//! # Example
//!
//! ```
//! let reference = vec![1.0, -1.0, 1.0, -1.0];
//! let estimate = vec![0.9, -1.1, 1.0, -0.9];
//! let sdr = dhf_metrics::sdr_db(&reference, &estimate);
//! assert!(sdr > 10.0);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod latency;

pub use latency::LatencyHistogram;

/// Signal-to-distortion ratio in dB:
/// `10·log10(‖s‖² / ‖ŝ − s‖²)`.
///
/// Returns `f64::INFINITY` for an exact match and `f64::NEG_INFINITY` for a
/// zero reference.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn sdr_db(reference: &[f64], estimate: &[f64]) -> f64 {
    assert_eq!(reference.len(), estimate.len(), "sdr_db requires equal lengths");
    let sig: f64 = reference.iter().map(|&v| v * v).sum();
    if sig <= 0.0 {
        return f64::NEG_INFINITY;
    }
    let err: f64 = reference.iter().zip(estimate).map(|(&r, &e)| (e - r) * (e - r)).sum();
    if err <= 0.0 {
        return f64::INFINITY;
    }
    10.0 * (sig / err).log10()
}

/// Scale-invariant SDR: the estimate is first projected onto the reference
/// (optimal scalar gain), removing any global amplitude mismatch.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn si_sdr_db(reference: &[f64], estimate: &[f64]) -> f64 {
    assert_eq!(reference.len(), estimate.len(), "si_sdr_db requires equal lengths");
    let dot: f64 = reference.iter().zip(estimate).map(|(&r, &e)| r * e).sum();
    let sig: f64 = reference.iter().map(|&v| v * v).sum();
    if sig <= 0.0 {
        return f64::NEG_INFINITY;
    }
    let alpha = dot / sig;
    let scaled: Vec<f64> = reference.iter().map(|&r| alpha * r).collect();
    let num: f64 = scaled.iter().map(|&v| v * v).sum();
    let den: f64 = scaled.iter().zip(estimate).map(|(&s, &e)| (e - s) * (e - s)).sum();
    if den <= 0.0 {
        return f64::INFINITY;
    }
    10.0 * (num / den).log10()
}

/// Mean squared error between reference and estimate.
///
/// # Panics
///
/// Panics if lengths differ or inputs are empty.
pub fn mse(reference: &[f64], estimate: &[f64]) -> f64 {
    assert_eq!(reference.len(), estimate.len(), "mse requires equal lengths");
    assert!(!reference.is_empty(), "mse of empty signals is undefined");
    reference.iter().zip(estimate).map(|(&r, &e)| (e - r) * (e - r)).sum::<f64>()
        / reference.len() as f64
}

/// Averages SDR values the paper's way: arithmetic mean of the *linear*
/// power ratios `10^(SDR/10)`, converted back to dB.
///
/// Returns `f64::NEG_INFINITY` for an empty list.
pub fn average_sdr_db(sdrs_db: &[f64]) -> f64 {
    if sdrs_db.is_empty() {
        return f64::NEG_INFINITY;
    }
    let mean_linear =
        sdrs_db.iter().map(|&d| 10f64.powf(d / 10.0)).sum::<f64>() / sdrs_db.len() as f64;
    10.0 * mean_linear.log10()
}

/// Averages MSE values the paper's way: geometric mean.
///
/// Returns 0 when the list is empty and NaN if any value is negative.
pub fn average_mse(mses: &[f64]) -> f64 {
    if mses.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = mses.iter().map(|&m| m.ln()).sum();
    (log_sum / mses.len() as f64).exp()
}

/// Pearson correlation coefficient; 0 when either input is constant.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn pearson(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "pearson requires equal lengths");
    if x.len() < 2 {
        return 0.0;
    }
    let n = x.len() as f64;
    let mx = x.iter().sum::<f64>() / n;
    let my = y.iter().sum::<f64>() / n;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (&a, &b) in x.iter().zip(y) {
        sxy += (a - mx) * (b - my);
        sxx += (a - mx) * (a - mx);
        syy += (b - my) * (b - my);
    }
    if sxx < f64::EPSILON || syy < f64::EPSILON {
        0.0
    } else {
        sxy / (sxx * syy).sqrt()
    }
}

/// Masked energy ratio (Figure 5a): the fraction of the energy hidden by a
/// separation round's mask that belongs to the target source.
///
/// `target_mag` and `mixed_mag` are magnitude images (same layout);
/// `hidden[i] == true` marks cells concealed by the mask. Low values mean
/// the round must recover a weak target buried under strong interference —
/// the regime where the paper shows DHF's largest gains.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn masked_energy_ratio(target_mag: &[f64], mixed_mag: &[f64], hidden: &[bool]) -> f64 {
    assert_eq!(target_mag.len(), mixed_mag.len());
    assert_eq!(target_mag.len(), hidden.len());
    let mut t = 0.0;
    let mut m = 0.0;
    for i in 0..hidden.len() {
        if hidden[i] {
            t += target_mag[i] * target_mag[i];
            m += mixed_mag[i] * mixed_mag[i];
        }
    }
    if m <= 0.0 {
        0.0
    } else {
        (t / m).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(n: usize, f: f64) -> Vec<f64> {
        (0..n).map(|i| (std::f64::consts::TAU * f * i as f64 / n as f64).sin()).collect()
    }

    #[test]
    fn sdr_of_perfect_estimate_is_infinite() {
        let x = tone(100, 3.0);
        assert_eq!(sdr_db(&x, &x), f64::INFINITY);
    }

    #[test]
    fn sdr_of_scaled_estimate_is_finite_but_si_sdr_is_not() {
        let x = tone(256, 5.0);
        let y: Vec<f64> = x.iter().map(|&v| 0.5 * v).collect();
        let sdr = sdr_db(&x, &y);
        assert!(sdr.is_finite() && sdr < 10.0, "sdr {sdr}");
        assert_eq!(si_sdr_db(&x, &y), f64::INFINITY);
    }

    #[test]
    fn sdr_decreases_with_noise_level() {
        let x = tone(512, 4.0);
        let mk = |amp: f64| -> Vec<f64> {
            x.iter()
                .enumerate()
                .map(|(i, &v)| v + amp * ((i * 31 % 17) as f64 - 8.0) / 8.0)
                .collect()
        };
        let good = sdr_db(&x, &mk(0.01));
        let bad = sdr_db(&x, &mk(0.3));
        assert!(good > bad + 20.0, "{good} vs {bad}");
    }

    #[test]
    fn known_sdr_value() {
        // Error exactly 10 dB below the signal.
        let x = vec![1.0; 100];
        let e: Vec<f64> = (0..100)
            .map(|i| 1.0 + if i % 2 == 0 { 0.1_f64.sqrt() } else { -(0.1_f64.sqrt()) })
            .collect();
        assert!((sdr_db(&x, &e) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn mse_matches_manual_computation() {
        let r = vec![1.0, 2.0, 3.0];
        let e = vec![1.5, 2.0, 2.0];
        assert!((mse(&r, &e) - (0.25 + 0.0 + 1.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn average_sdr_is_linear_scale_mean() {
        // 0 dB and 20 dB → linear 1 and 100 → mean 50.5 → 17.03 dB.
        let avg = average_sdr_db(&[0.0, 20.0]);
        assert!((avg - 10.0 * 50.5f64.log10()).abs() < 1e-9);
        // NOT the naive 10 dB arithmetic mean.
        assert!((avg - 10.0).abs() > 5.0);
    }

    #[test]
    fn average_mse_is_geometric() {
        let avg = average_mse(&[1e-2, 1e-4]);
        assert!((avg - 1e-3).abs() < 1e-12);
    }

    #[test]
    fn pearson_basics() {
        let x: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let y: Vec<f64> = x.iter().map(|&v| 2.0 * v + 1.0).collect();
        assert!((pearson(&x, &y) - 1.0).abs() < 1e-12);
        let z = vec![3.3; 50];
        assert_eq!(pearson(&x, &z), 0.0);
    }

    #[test]
    fn masked_energy_ratio_bounds() {
        let target = vec![1.0, 0.0, 2.0];
        let mixed = vec![2.0, 5.0, 2.0];
        let hidden = vec![true, false, true];
        // (1 + 4) / (4 + 4) = 0.625
        assert!((masked_energy_ratio(&target, &mixed, &hidden) - 0.625).abs() < 1e-12);
        // No hidden cells → 0.
        assert_eq!(masked_energy_ratio(&target, &mixed, &[false; 3]), 0.0);
    }

    #[test]
    fn empty_aggregates_are_defined() {
        assert_eq!(average_sdr_db(&[]), f64::NEG_INFINITY);
        assert_eq!(average_mse(&[]), 0.0);
    }

    #[test]
    fn si_sdr_closed_form_orthogonal_error() {
        // Estimate = reference + orthogonal error: the optimal gain is 1,
        // so SI-SDR = 10·log10(‖s‖²/‖e‖²) exactly. With a reference of
        // alternating ±1 and an error of alternating ±0.1 in quadrature
        // (shifted by one sample on a period-4 pattern) the vectors are
        // orthogonal and the ratio is 100 → 20 dB.
        let n = 400;
        let reference: Vec<f64> = (0..n).map(|i| if i % 4 < 2 { 1.0 } else { -1.0 }).collect();
        let error: Vec<f64> = (0..n).map(|i| if (i + 1) % 4 < 2 { 0.1 } else { -0.1 }).collect();
        let dot: f64 = reference.iter().zip(&error).map(|(&a, &b)| a * b).sum();
        assert!(dot.abs() < 1e-12, "construction must be orthogonal");
        let estimate: Vec<f64> = reference.iter().zip(&error).map(|(&r, &e)| r + e).collect();
        assert!((si_sdr_db(&reference, &estimate) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn si_sdr_is_scale_invariant_where_sdr_is_not() {
        let x = tone(512, 3.0);
        let noisy: Vec<f64> =
            x.iter().enumerate().map(|(i, &v)| v + 0.05 * ((i % 7) as f64 - 3.0)).collect();
        let scaled: Vec<f64> = noisy.iter().map(|&v| 3.7 * v).collect();
        assert!((si_sdr_db(&x, &noisy) - si_sdr_db(&x, &scaled)).abs() < 1e-9);
        assert!((sdr_db(&x, &noisy) - sdr_db(&x, &scaled)).abs() > 1.0);
    }

    #[test]
    fn pearson_affine_invariance_and_anticorrelation() {
        let x: Vec<f64> = (0..64).map(|i| ((i * 13) % 29) as f64).collect();
        let y: Vec<f64> = x.iter().map(|&v| -4.0 * v + 7.0).collect();
        assert!((pearson(&x, &y) + 1.0).abs() < 1e-12);
        let z: Vec<f64> = x.iter().map(|&v| 0.5 * v - 100.0).collect();
        assert!((pearson(&x, &z) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn averaging_rules_closed_form() {
        // Linear-scale SDR mean: 10 dB and 30 dB → (10 + 1000)/2 = 505 →
        // 27.03 dB, far above the naive 20 dB.
        let avg = average_sdr_db(&[10.0, 30.0]);
        assert!((avg - 10.0 * 505.0f64.log10()).abs() < 1e-9);
        // Geometric MSE mean of three known values.
        let gm = average_mse(&[1e-1, 1e-3, 1e-5]);
        assert!((gm - 1e-3).abs() < 1e-12);
        // Singleton averages are the identity under both rules.
        assert!((average_sdr_db(&[7.3]) - 7.3).abs() < 1e-9);
        assert!((average_mse(&[4.2e-3]) - 4.2e-3).abs() < 1e-12);
    }

    #[test]
    fn mse_is_symmetric_and_zero_iff_identical() {
        let x: Vec<f64> = (0..32).map(|i| (i as f64 * 0.37).sin()).collect();
        let y: Vec<f64> = (0..32).map(|i| (i as f64 * 0.91).cos()).collect();
        assert!((mse(&x, &y) - mse(&y, &x)).abs() < 1e-15);
        assert_eq!(mse(&x, &x), 0.0);
        assert!(mse(&x, &y) > 0.0);
    }
}
