//! Per-period waveform templates.
//!
//! A template is a function of normalized phase `p ∈ [0, 1)` giving the
//! waveform of one period. All templates satisfy `eval(0) ≈ eval(1⁻)` so
//! concatenated periods are continuous.
//!
//! These parametric shapes substitute for the paper's empirical templates
//! (respiration extracted from sheep recordings, pulses from MIMIC-IV):
//! the separation algorithms only consume the harmonic structure, which the
//! parametric shapes reproduce — a fundamental plus a few decaying
//! harmonics.

/// Waveform of one quasi-periodic cycle.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Template {
    /// Pure sinusoid (useful for controlled tests).
    Sine,
    /// Photoplethysmography beat: systolic peak plus dicrotic notch,
    /// modelled as two Gaussians. Substitutes for MIMIC-IV pulses.
    #[default]
    Ppg,
    /// Respiration effort wave: asymmetric raised cosine with a slower
    /// exhale than inhale. Substitutes for the sheep respiration shape.
    Respiration,
}

impl Template {
    /// Evaluates the template at normalized phase `p` (wrapped into
    /// `[0, 1)`), normalized to roughly unit peak-to-baseline amplitude
    /// and **zero mean over one period** — the paper's source shapes come
    /// from AC-coupled (detrended) recordings, and a DC offset would put
    /// irrecoverable energy outside every separator's reach.
    pub fn eval(&self, p: f64) -> f64 {
        let p = p.rem_euclid(1.0);
        match self {
            Template::Sine => (std::f64::consts::TAU * p).sin(),
            Template::Ppg => ppg(p) - ppg_mean(),
            Template::Respiration => respiration(p) - respiration_mean(),
        }
    }

    /// Samples one period at `n` uniformly spaced phases.
    pub fn sample_period(&self, n: usize) -> Vec<f64> {
        (0..n).map(|i| self.eval(i as f64 / n as f64)).collect()
    }
}

/// Two-Gaussian PPG beat using *circular* phase distance, so the waveform
/// is exactly periodic. Baseline-corrected so the period boundaries meet at
/// 0 and the systolic peak is ≈ 1.
fn ppg(p: f64) -> f64 {
    // Wrapped distance on the unit circle of phases.
    let wrap = |d: f64| {
        let d = d.rem_euclid(1.0);
        d.min(1.0 - d)
    };
    let g = |at: f64, c: f64, w: f64| {
        let d = wrap(at - c);
        (-(d * d) / (2.0 * w * w)).exp()
    };
    // Systolic upstroke at 30% of the period, dicrotic wave at 65%.
    let raw = g(p, 0.30, 0.085) + 0.42 * g(p, 0.65, 0.13);
    let b = g(0.0, 0.30, 0.085) + 0.42 * g(0.0, 0.65, 0.13);
    (raw - b) / (1.0 - b)
}

/// Asymmetric respiration wave: raised cosine with a warped phase so
/// inspiration (rise) takes ~40% of the cycle and expiration ~60%.
fn respiration(p: f64) -> f64 {
    let rise = 0.4;
    let warped = if p < rise { 0.5 * p / rise } else { 0.5 + 0.5 * (p - rise) / (1.0 - rise) };
    0.5 - 0.5 * (std::f64::consts::TAU * warped).cos()
}

/// Period mean of the raw PPG shape (computed once; subtracted so the
/// rendered sources are AC-coupled).
fn ppg_mean() -> f64 {
    static MEAN: std::sync::OnceLock<f64> = std::sync::OnceLock::new();
    *MEAN.get_or_init(|| (0..4096).map(|i| ppg(i as f64 / 4096.0)).sum::<f64>() / 4096.0)
}

/// Period mean of the raw respiration shape.
fn respiration_mean() -> f64 {
    static MEAN: std::sync::OnceLock<f64> = std::sync::OnceLock::new();
    *MEAN.get_or_init(|| (0..4096).map(|i| respiration(i as f64 / 4096.0)).sum::<f64>() / 4096.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boundaries_are_continuous() {
        for t in [Template::Sine, Template::Ppg, Template::Respiration] {
            let a = t.eval(0.0);
            let b = t.eval(0.999_999);
            assert!((a - b).abs() < 1e-3, "{t:?}: {a} vs {b}");
        }
    }

    #[test]
    fn ppg_peaks_near_systole() {
        let samples = Template::Ppg.sample_period(1000);
        let peak =
            samples.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
        let peak_phase = peak as f64 / 1000.0;
        assert!((peak_phase - 0.30).abs() < 0.05, "peak at {peak_phase}");
        // Dicrotic bump exists: a secondary local max after the main peak,
        // clearly above the end-of-period baseline.
        let baseline = samples[0];
        let after: Vec<f64> = samples[450..850].to_vec();
        let local_max =
            after.windows(3).any(|w| w[1] > w[0] && w[1] > w[2] && w[1] > baseline + 0.2);
        assert!(local_max, "no dicrotic wave");
    }

    #[test]
    fn ppg_is_normalized_and_zero_mean() {
        let samples = Template::Ppg.sample_period(1000);
        let max = samples.iter().cloned().fold(f64::MIN, f64::max);
        let baseline = samples[0];
        // Peak-to-baseline stays ≈ 1 after mean removal.
        assert!((max - baseline - 1.0).abs() < 0.05, "peak-to-baseline {}", max - baseline);
        let mean: f64 = samples.iter().sum::<f64>() / samples.len() as f64;
        assert!(mean.abs() < 1e-3, "period mean {mean}");
    }

    #[test]
    fn respiration_rise_is_faster_than_fall() {
        let s = Template::Respiration.sample_period(1000);
        let peak = s.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
        // Peak before midpoint → inhale shorter than exhale.
        assert!(peak < 500, "peak at {peak}");
        let min = s.iter().cloned().fold(f64::MAX, f64::min);
        assert!((s[peak] - min - 1.0).abs() < 1e-2, "peak-to-trough {}", s[peak] - min);
        let mean: f64 = s.iter().sum::<f64>() / s.len() as f64;
        assert!(mean.abs() < 1e-3, "period mean {mean}");
    }

    #[test]
    fn templates_have_harmonic_content() {
        use dhf_dsp::fft::power_spectrum;
        // One period sampled at 256 points: PPG must have strong 2nd/3rd
        // harmonics (that is what makes separation hard and harmonic
        // convolutions useful).
        let s = Template::Ppg.sample_period(256);
        let mag: Vec<f64> = power_spectrum(&s).iter().map(|p| p.sqrt()).collect();
        assert!(mag[2] > 0.05 * mag[1], "2nd harmonic too weak");
        assert!(mag[3] > 0.01 * mag[1], "3rd harmonic too weak");
    }

    #[test]
    fn phase_wraps() {
        for t in [Template::Sine, Template::Ppg, Template::Respiration] {
            assert!((t.eval(1.25) - t.eval(0.25)).abs() < 1e-12);
            assert!((t.eval(-0.75) - t.eval(0.25)).abs() < 1e-12);
        }
    }
}
