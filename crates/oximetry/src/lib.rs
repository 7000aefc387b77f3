//! Pulse-oximetry SpO2 estimation from dual-wavelength PPG (paper §4.3,
//! Eqs. 10–11, following Vali et al. \[18\]).
//!
//! The modulation ratio
//! `R = (AC/DC)_λ1 / (AC/DC)_λ2`
//! relates to arterial saturation through the inverse-linear calibration
//! `1/(SaO2 + k) = w0 + w1·R` with `k = 1.885`; `w0, w1` are learned by
//! least squares against blood-draw ground truth.
//!
//! The calibration primitives live at the crate root; [`pipeline`] builds
//! the full workload on top of them — dual-wavelength mixture →
//! per-wavelength DHF separation → windowed modulation ratios → an SpO2
//! *trend*, offline ([`estimate_spo2_trend`]) or online with bounded
//! latency ([`StreamingOximeter`]).
//!
//! # Example
//!
//! ```
//! use dhf_oximetry::{ac_amplitude, modulation_ratio, Calibration};
//!
//! // Two synthetic pulsatile channels.
//! let ch1: Vec<f64> = (0..500).map(|i| 1.0 + 0.03 * (i as f64 * 0.13).sin()).collect();
//! let ch2: Vec<f64> = (0..500).map(|i| 1.2 + 0.024 * (i as f64 * 0.13).sin()).collect();
//! let r = modulation_ratio(
//!     ac_amplitude(&ch1), 1.0,
//!     ac_amplitude(&ch2), 1.2,
//! );
//! assert!((r - 1.5).abs() < 0.05);
//! # let _ = Calibration::default();
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod pipeline;

pub use pipeline::{
    ema_detrend, estimate_spo2_trend, estimate_spo2_trend_in, spo2_trend_from_components,
    OximetryConfig, OximetryError, OximetryFlush, Spo2Sample, Spo2Trend, StreamingOximeter,
};

use dhf_dsp::filter::detrend;
use dhf_dsp::stats::{linear_fit, mean, rms};
use dhf_metrics::pearson;

/// The paper's regularizing constant in Eq. 10.
pub const DEFAULT_K: f64 = 1.885;

/// Pulsatile (AC) amplitude of a PPG segment: RMS of the detrended signal
/// scaled by `2√2` (the peak-to-peak value of an equivalent sinusoid).
///
/// Any consistent amplitude functional cancels in the modulation *ratio*;
/// RMS is used for robustness to waveform shape.
pub fn ac_amplitude(segment: &[f64]) -> f64 {
    if segment.len() < 2 {
        return 0.0;
    }
    2.0 * std::f64::consts::SQRT_2 * rms(&detrend(segment))
}

/// Static (DC) level of a PPG segment: its mean.
pub fn dc_level(segment: &[f64]) -> f64 {
    mean(segment)
}

/// Modulation ratio `R = (AC₁/DC₁)/(AC₂/DC₂)` (Eq. 11).
///
/// Returns 0 when the second channel carries no pulsation.
pub fn modulation_ratio(ac1: f64, dc1: f64, ac2: f64, dc2: f64) -> f64 {
    let m1 = if dc1.abs() < f64::EPSILON { 0.0 } else { ac1 / dc1 };
    let m2 = if dc2.abs() < f64::EPSILON { 0.0 } else { ac2 / dc2 };
    if m2.abs() < f64::EPSILON {
        0.0
    } else {
        m1 / m2
    }
}

/// Learned SaO2 calibration `1/(SaO2 + k) = w0 + w1·R` (Eq. 10).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Intercept.
    pub w0: f64,
    /// Slope.
    pub w1: f64,
    /// Regularizing constant (1.885 in the paper).
    pub k: f64,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration { w0: 0.0, w1: 0.0, k: DEFAULT_K }
    }
}

impl Calibration {
    /// Least-squares fit of `(R, SaO2)` pairs with the default `k`.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn fit(r_values: &[f64], sao2: &[f64]) -> Self {
        Self::fit_with_k(r_values, sao2, DEFAULT_K)
    }

    /// Least-squares fit with an explicit `k`.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn fit_with_k(r_values: &[f64], sao2: &[f64], k: f64) -> Self {
        assert_eq!(r_values.len(), sao2.len(), "fit requires paired samples");
        let y: Vec<f64> = sao2.iter().map(|&s| 1.0 / (s + k)).collect();
        let (w0, w1) = linear_fit(r_values, &y);
        Calibration { w0, w1, k }
    }

    /// Predicted SpO2 for a modulation ratio.
    pub fn predict(&self, r: f64) -> f64 {
        let denom = self.w0 + self.w1 * r;
        if denom.abs() < f64::EPSILON {
            0.0
        } else {
            1.0 / denom - self.k
        }
    }

    /// Predicts SpO2 for each ratio in the slice.
    pub fn predict_many(&self, r_values: &[f64]) -> Vec<f64> {
        r_values.iter().map(|&r| self.predict(r)).collect()
    }
}

/// Leave-nothing-out evaluation used by Figure 6: fit the calibration on
/// all draws, predict SpO2 from the ratios, and report the Pearson
/// correlation against the SaO2 ground truth.
///
/// # Panics
///
/// Panics if lengths differ.
pub fn spo2_correlation(r_values: &[f64], sao2: &[f64]) -> f64 {
    let cal = Calibration::fit(r_values, sao2);
    let pred = cal.predict_many(r_values);
    pearson(&pred, sao2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ac_amplitude_of_pure_sine() {
        let x: Vec<f64> = (0..1000)
            .map(|i| 5.0 + 0.5 * (std::f64::consts::TAU * i as f64 / 50.0).sin())
            .collect();
        // Peak-to-peak of a 0.5-amplitude sine is 1.0.
        assert!((ac_amplitude(&x) - 1.0).abs() < 0.02);
        assert!((dc_level(&x) - 5.0).abs() < 0.01);
    }

    #[test]
    fn ac_amplitude_ignores_linear_drift() {
        let x: Vec<f64> = (0..1000)
            .map(|i| 0.01 * i as f64 + 0.5 * (std::f64::consts::TAU * i as f64 / 50.0).sin())
            .collect();
        assert!((ac_amplitude(&x) - 1.0).abs() < 0.05);
    }

    #[test]
    fn modulation_ratio_cancels_common_scale() {
        let r = modulation_ratio(0.03, 1.0, 0.02, 1.0);
        assert!((r - 1.5).abs() < 1e-12);
        // Scaling both channels' DC identically keeps R.
        let r2 = modulation_ratio(0.06, 2.0, 0.04, 2.0);
        assert!((r - r2).abs() < 1e-12);
    }

    #[test]
    fn modulation_ratio_degenerate_inputs() {
        assert_eq!(modulation_ratio(0.1, 0.0, 0.1, 1.0), 0.0);
        assert_eq!(modulation_ratio(0.1, 1.0, 0.0, 1.0), 0.0);
    }

    #[test]
    fn calibration_recovers_forward_model() {
        // Generate (R, SaO2) pairs from a known w0/w1.
        let w0 = 0.5;
        let w1 = -0.05;
        let rs: Vec<f64> = (0..20).map(|i| 0.8 + 0.05 * i as f64).collect();
        let sao2: Vec<f64> = rs.iter().map(|&r| 1.0 / (w0 + w1 * r) - DEFAULT_K).collect();
        let cal = Calibration::fit(&rs, &sao2);
        assert!((cal.w0 - w0).abs() < 1e-9, "w0 {}", cal.w0);
        assert!((cal.w1 - w1).abs() < 1e-9, "w1 {}", cal.w1);
        for (&r, &s) in rs.iter().zip(&sao2) {
            assert!((cal.predict(r) - s).abs() < 1e-9);
        }
    }

    #[test]
    fn clean_ratios_give_perfect_correlation() {
        let w0 = 0.48;
        let w1 = -0.04;
        let rs: Vec<f64> = (0..10).map(|i| 1.0 + 0.1 * i as f64).collect();
        let sao2: Vec<f64> = rs.iter().map(|&r| 1.0 / (w0 + w1 * r) - DEFAULT_K).collect();
        assert!(spo2_correlation(&rs, &sao2) > 0.999);
    }

    #[test]
    fn noisy_ratios_degrade_correlation() {
        let w0 = 0.48;
        let w1 = -0.04;
        let rs: Vec<f64> = (0..10).map(|i| 1.0 + 0.1 * i as f64).collect();
        let sao2: Vec<f64> = rs.iter().map(|&r| 1.0 / (w0 + w1 * r) - DEFAULT_K).collect();
        // Heavy multiplicative corruption of the ratios (interference).
        let corrupted: Vec<f64> = rs
            .iter()
            .enumerate()
            .map(|(i, &r)| r * (1.0 + 0.45 * if i % 2 == 0 { 1.0 } else { -1.0 }))
            .collect();
        let clean = spo2_correlation(&rs, &sao2);
        let noisy = spo2_correlation(&corrupted, &sao2);
        assert!(clean > noisy + 0.2, "clean {clean} vs noisy {noisy}");
    }

    #[test]
    fn predict_handles_degenerate_calibration() {
        let cal = Calibration::default();
        assert_eq!(cal.predict(1.0), 0.0);
    }
}
