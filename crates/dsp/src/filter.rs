//! Digital filtering: a Butterworth low-pass biquad with zero-phase
//! application, and linear detrending.
//!
//! The paper band-limits all mixed signals to `[0, 12] Hz` before evaluation
//! (§4.2); [`band_limit`] is that step. [`detrend`] removes a segment's
//! best-fit line (the f0 estimator's analysis windows, the oximetry AC
//! amplitude).

use crate::{DspError, Result};

/// Pads a signal by mirror reflection on both sides.
fn reflect_pad(signal: &[f64], pad: usize) -> Vec<f64> {
    let n = signal.len();
    let mut out = Vec::with_capacity(n + 2 * pad);
    for i in 0..pad {
        let idx = (pad - i).min(n - 1);
        out.push(signal[idx]);
    }
    out.extend_from_slice(signal);
    for i in 0..pad {
        let idx = n.saturating_sub(2 + i).min(n - 1);
        out.push(signal[idx]);
    }
    out
}

/// Second-order IIR section with normalized `a0 = 1`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Biquad {
    b: [f64; 3],
    a: [f64; 2],
}

impl Biquad {
    /// Butterworth low-pass biquad at cutoff `fc` (Hz), sample rate `fs`.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] unless `0 < fc < fs/2`.
    pub fn butterworth_low_pass(fs: f64, fc: f64) -> Result<Self> {
        if !(fc > 0.0 && fc < fs / 2.0) {
            return Err(DspError::InvalidParameter {
                name: "fc",
                message: format!("must be in (0, {})", fs / 2.0),
            });
        }
        let k = (std::f64::consts::PI * fc / fs).tan();
        let q = std::f64::consts::FRAC_1_SQRT_2;
        let norm = 1.0 / (1.0 + k / q + k * k);
        let b0 = k * k * norm;
        Ok(Biquad {
            b: [b0, 2.0 * b0, b0],
            a: [2.0 * (k * k - 1.0) * norm, (1.0 - k / q + k * k) * norm],
        })
    }

    /// Causal (forward) application, direct form II transposed.
    pub fn apply(&self, signal: &[f64]) -> Vec<f64> {
        let mut z1 = 0.0;
        let mut z2 = 0.0;
        signal
            .iter()
            .map(|&x| {
                let y = self.b[0] * x + z1;
                z1 = self.b[1] * x - self.a[0] * y + z2;
                z2 = self.b[2] * x - self.a[1] * y;
                y
            })
            .collect()
    }

    /// Zero-phase application: forward pass, reverse, forward pass, reverse
    /// (the classic filtfilt scheme), with edge reflection padding.
    pub fn apply_zero_phase(&self, signal: &[f64]) -> Vec<f64> {
        if signal.is_empty() {
            return Vec::new();
        }
        let pad = (3 * 10).min(signal.len().saturating_sub(1));
        let padded = reflect_pad(signal, pad);
        let fwd = self.apply(&padded);
        let mut rev: Vec<f64> = fwd.into_iter().rev().collect();
        rev = self.apply(&rev);
        let out: Vec<f64> = rev.into_iter().rev().collect();
        out[pad..pad + signal.len()].to_vec()
    }
}

/// Removes the best-fit straight line from a signal.
pub fn detrend(signal: &[f64]) -> Vec<f64> {
    let n = signal.len();
    if n < 2 {
        return vec![0.0; n];
    }
    let nf = n as f64;
    let mean_x = (nf - 1.0) / 2.0;
    let mean_y = signal.iter().sum::<f64>() / nf;
    let mut num = 0.0;
    let mut den = 0.0;
    for (i, &y) in signal.iter().enumerate() {
        let dx = i as f64 - mean_x;
        num += dx * (y - mean_y);
        den += dx * dx;
    }
    let slope = if den.abs() < f64::EPSILON { 0.0 } else { num / den };
    signal.iter().enumerate().map(|(i, &y)| y - (mean_y + slope * (i as f64 - mean_x))).collect()
}

/// Band-limits a signal to `[0, cutoff_hz]` with a zero-phase Butterworth
/// low-pass, the paper's pre-evaluation conditioning.
///
/// # Errors
///
/// Returns [`DspError::InvalidParameter`] unless `0 < cutoff_hz < fs/2`.
pub fn band_limit(signal: &[f64], fs: f64, cutoff_hz: f64) -> Result<Vec<f64>> {
    let biquad = Biquad::butterworth_low_pass(fs, cutoff_hz)?;
    Ok(biquad.apply_zero_phase(signal))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(fs: f64, f: f64, n: usize) -> Vec<f64> {
        (0..n).map(|i| (2.0 * std::f64::consts::PI * f * i as f64 / fs).sin()).collect()
    }

    fn rms(x: &[f64]) -> f64 {
        (x.iter().map(|v| v * v).sum::<f64>() / x.len() as f64).sqrt()
    }

    #[test]
    fn biquad_low_pass_attenuates_high_frequencies() {
        let fs = 100.0;
        let bq = Biquad::butterworth_low_pass(fs, 5.0).unwrap();
        let low = bq.apply_zero_phase(&tone(fs, 1.0, 2000));
        let high = bq.apply_zero_phase(&tone(fs, 30.0, 2000));
        assert!(rms(&low[200..1800]) > 0.65);
        assert!(rms(&high[200..1800]) < 0.02);
    }

    #[test]
    fn detrend_removes_linear_ramp() {
        let x: Vec<f64> = (0..100).map(|i| 0.5 * i as f64 + 2.0).collect();
        let y = detrend(&x);
        assert!(rms(&y) < 1e-9);
    }

    #[test]
    fn band_limit_keeps_in_band_content() {
        let fs = 100.0;
        let x = tone(fs, 3.0, 2000);
        let y = band_limit(&x, fs, 12.0).unwrap();
        assert!(rms(&y[200..1800]) > 0.68);
    }

    #[test]
    fn design_rejects_invalid_cutoffs() {
        assert!(Biquad::butterworth_low_pass(100.0, 50.0).is_err());
    }

    #[test]
    fn empty_signal_passes_through() {
        let bq = Biquad::butterworth_low_pass(100.0, 5.0).unwrap();
        assert!(bq.apply_zero_phase(&[]).is_empty());
    }
}
