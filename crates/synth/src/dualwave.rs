//! Scenario-driven dual-wavelength oximetry recordings.
//!
//! [`invivo`](crate::invivo) reproduces the paper's two fixed pregnant-ewe
//! protocols; the oximetry *pipeline* (separation → modulation ratio →
//! SpO2 trend, `dhf_oximetry`) needs programmable ground truth instead: a
//! chosen SpO2 trajectory whose recovery can be scored point by point.
//! This module builds such recordings from a small scenario vocabulary —
//! [`Spo2Scenario::Constant`], [`Spo2Scenario::Ramp`], and
//! [`Spo2Scenario::Desaturation`] — while keeping the full in-vivo signal
//! model: both wavelength channels share one maternal and one fetal f0
//! schedule (the optode sees one physiology), the fetal AC amplitudes
//! follow the scenario's SpO2 through the forward calibration model
//! (Eqs. 10–11), and maternal/respiration interference drifts
//! independently per wavelength so residual leakage does not cancel in
//! the modulation ratio.
//!
//! # Example
//!
//! ```
//! use dhf_synth::dualwave::{generate, DualWaveConfig, Spo2Scenario};
//!
//! let cfg = DualWaveConfig::new(Spo2Scenario::desaturation(0.55, 0.35), 60.0);
//! let rec = generate(&cfg);
//! assert_eq!(rec.mixed[0].len(), rec.mixed[1].len());
//! // The ground-truth SaO2 trajectory dips to the scenario's nadir.
//! let min = rec.sao2.iter().cloned().fold(f64::INFINITY, f64::min);
//! assert!((min - 0.35).abs() < 1e-6);
//! ```

use crate::invivo::{simulate, InvivoConfig, TfoRecording};

/// A programmable ground-truth fetal SpO2 trajectory.
///
/// All values are saturation fractions in `(0, 1]`. The trajectory is
/// rendered as piecewise-linear waypoints over the recording duration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Spo2Scenario {
    /// Steady saturation for the whole recording — the null case a trend
    /// estimator must not hallucinate events on.
    Constant {
        /// The held saturation fraction.
        spo2: f64,
    },
    /// Linear drift from `from` at t = 0 to `to` at the end of the
    /// recording.
    Ramp {
        /// Saturation at the start of the recording.
        from: f64,
        /// Saturation at the end of the recording.
        to: f64,
    },
    /// A hypoxic event: hold `baseline`, descend to `nadir` around the
    /// middle of the recording, hold briefly, recover to `baseline` — the
    /// clinically interesting shape (the paper's sheep protocols are
    /// desaturation episodes, §4.3).
    Desaturation {
        /// Saturation before and after the event.
        baseline: f64,
        /// Lowest saturation, reached mid-recording.
        nadir: f64,
    },
}

impl Spo2Scenario {
    /// A desaturation event from `baseline` down to `nadir` and back.
    pub fn desaturation(baseline: f64, nadir: f64) -> Self {
        Spo2Scenario::Desaturation { baseline, nadir }
    }

    /// Short human-readable scenario name (for logs and telemetry).
    pub fn name(&self) -> &'static str {
        match self {
            Spo2Scenario::Constant { .. } => "constant",
            Spo2Scenario::Ramp { .. } => "ramp",
            Spo2Scenario::Desaturation { .. } => "desaturation",
        }
    }

    /// Renders the scenario as piecewise-linear `(time_s, sao2)` waypoints
    /// over `duration_s` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `duration_s` is non-positive or any saturation value is
    /// outside `(0, 1]` (a desaturation additionally requires
    /// `nadir < baseline`).
    pub fn waypoints(&self, duration_s: f64) -> Vec<(f64, f64)> {
        assert!(duration_s > 0.0, "duration must be positive");
        let check = |v: f64, name: &str| {
            assert!(v > 0.0 && v <= 1.0, "{name} must be a saturation fraction in (0, 1], got {v}");
        };
        match *self {
            Spo2Scenario::Constant { spo2 } => {
                check(spo2, "spo2");
                vec![(0.0, spo2), (duration_s, spo2)]
            }
            Spo2Scenario::Ramp { from, to } => {
                check(from, "from");
                check(to, "to");
                vec![(0.0, from), (duration_s, to)]
            }
            Spo2Scenario::Desaturation { baseline, nadir } => {
                check(baseline, "baseline");
                check(nadir, "nadir");
                assert!(nadir < baseline, "nadir {nadir} must be below baseline {baseline}");
                vec![
                    (0.0, baseline),
                    (0.25 * duration_s, baseline),
                    (0.45 * duration_s, nadir),
                    (0.55 * duration_s, nadir),
                    (0.80 * duration_s, baseline),
                    (duration_s, baseline),
                ]
            }
        }
    }
}

/// Configuration of a scenario-driven dual-wavelength recording.
///
/// Physiology (heart-rate/respiration bands, modulation depths,
/// interference drift) follows the sheep-1 protocol of
/// [`InvivoConfig::sheep1`]; only the SpO2 trajectory, duration, and seed
/// are scenario-specific.
#[derive(Debug, Clone, PartialEq)]
pub struct DualWaveConfig {
    /// The ground-truth SpO2 trajectory.
    pub scenario: Spo2Scenario,
    /// Recording length in seconds.
    pub duration_s: f64,
    /// Sampling rate in Hz.
    pub fs: f64,
    /// Master random seed (schedules, drifts, sensor noise).
    pub seed: u64,
    /// Number of evenly spaced blood draws to place on the trajectory.
    pub draws: usize,
}

impl DualWaveConfig {
    /// A recording of `duration_s` seconds at 100 Hz with a fixed default
    /// seed and four blood draws.
    ///
    /// # Panics
    ///
    /// Panics (in [`generate`]) if `duration_s` is non-positive.
    pub fn new(scenario: Spo2Scenario, duration_s: f64) -> Self {
        DualWaveConfig { scenario, duration_s, fs: 100.0, seed: 0x0D5A7, draws: 4 }
    }

    /// Replaces the master seed (distinct seeds give independent
    /// schedules, drifts, and noise — one recording per fleet session).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Lowers the underlying [`InvivoConfig`] with this scenario's
    /// waypoints and evenly spaced draw times over sheep-1 physiology.
    pub fn to_invivo(&self) -> InvivoConfig {
        let mut cfg = InvivoConfig::sheep1();
        cfg.duration_s = self.duration_s;
        cfg.fs = self.fs;
        cfg.seed = self.seed;
        cfg.sao2_waypoints = self.scenario.waypoints(self.duration_s);
        cfg.draw_times_s = (0..self.draws)
            .map(|i| self.duration_s * (i as f64 + 1.0) / (self.draws as f64 + 1.0))
            .collect();
        cfg
    }
}

/// Runs the dual-wavelength simulation for the scenario.
///
/// The returned [`TfoRecording`] carries the coherent λ1/λ2 mixtures
/// (`mixed`), the per-sample ground-truth SaO2 trajectory (`sao2`), the
/// clean fetal AC components (`fetal_truth`), the shared f0 schedules
/// (`f0`), and the timed blood draws — everything the oximetry pipeline
/// needs to run and to be scored against.
///
/// # Panics
///
/// Panics on degenerate configurations (non-positive duration/rate,
/// saturations outside `(0, 1]`).
pub fn generate(cfg: &DualWaveConfig) -> TfoRecording {
    simulate(&cfg.to_invivo())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invivo::modulation_ratio_for_sao2;
    use dhf_dsp::stats::rms;
    use dhf_metrics::pearson;

    #[test]
    fn constant_scenario_holds_its_level() {
        let rec = generate(&DualWaveConfig::new(Spo2Scenario::Constant { spo2: 0.5 }, 30.0));
        assert!(rec.sao2.iter().all(|&s| (s - 0.5).abs() < 1e-9));
        assert_eq!(rec.mixed[0].len(), (30.0 * rec.config.fs) as usize);
    }

    #[test]
    fn ramp_scenario_is_monotone() {
        let rec = generate(&DualWaveConfig::new(Spo2Scenario::Ramp { from: 0.6, to: 0.35 }, 30.0));
        assert!((rec.sao2[0] - 0.6).abs() < 1e-6);
        assert!((rec.sao2[rec.len() - 1] - 0.35).abs() < 0.01);
        assert!(rec.sao2.windows(2).all(|w| w[1] <= w[0] + 1e-12), "ramp must be monotone");
    }

    #[test]
    fn desaturation_scenario_reaches_its_nadir_mid_recording() {
        let rec = generate(&DualWaveConfig::new(Spo2Scenario::desaturation(0.55, 0.30), 100.0));
        let n = rec.len();
        let min = rec.sao2.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!((min - 0.30).abs() < 1e-6);
        // Nadir sits in the middle, baseline at the edges.
        assert!((rec.sao2[n / 2] - 0.30).abs() < 0.02);
        assert!((rec.sao2[0] - 0.55).abs() < 1e-6);
        assert!((rec.sao2[n - 1] - 0.55).abs() < 0.02);
    }

    #[test]
    fn channels_share_one_physiology_but_differ_in_modulation() {
        // Coherence: the two wavelengths carry the *same* fetal f0
        // schedule (correlated clean fetal waveforms), scaled by the
        // SaO2-dependent modulation at 740 nm only.
        let rec = generate(&DualWaveConfig::new(Spo2Scenario::desaturation(0.55, 0.35), 60.0));
        let c = pearson(&rec.fetal_truth[0], &rec.fetal_truth[1]);
        // Same waveform, but λ1 additionally carries the SaO2-driven
        // amplitude envelope (the signal the pipeline recovers), so the
        // correlation sits just below 1; independent sources would be ~0.
        assert!(c > 0.97, "fetal components must be coherent across wavelengths: {c}");
        assert_ne!(rec.mixed[0], rec.mixed[1], "channels must not be identical");
    }

    #[test]
    fn fetal_740_amplitude_follows_the_scenario() {
        let rec =
            generate(&DualWaveConfig::new(Spo2Scenario::Ramp { from: 0.65, to: 0.30 }, 120.0));
        let fs = rec.config.fs as usize;
        let win = 10 * fs;
        let (mut amps, mut want) = (Vec::new(), Vec::new());
        let mut start = 0;
        while start + win <= rec.len() {
            amps.push(rms(&rec.fetal_truth[0][start..start + win]));
            want.push(modulation_ratio_for_sao2(rec.sao2[start + win / 2]));
            start += win;
        }
        let c = pearson(&amps, &want);
        assert!(c > 0.9, "740 nm fetal amplitude must track R(SaO2): {c}");
    }

    #[test]
    fn seeds_give_distinct_recordings_with_identical_ground_truth_shape() {
        let base = DualWaveConfig::new(Spo2Scenario::desaturation(0.55, 0.35), 20.0);
        let a = generate(&base.clone().with_seed(1));
        let b = generate(&base.with_seed(2));
        assert_ne!(a.mixed[0], b.mixed[0], "seeds must decorrelate the mixtures");
        assert_eq!(a.sao2, b.sao2, "the programmed trajectory is seed-independent");
    }

    #[test]
    fn draws_are_evenly_spaced_inside_the_recording() {
        let cfg = DualWaveConfig::new(Spo2Scenario::Constant { spo2: 0.5 }, 50.0);
        let rec = generate(&cfg);
        assert_eq!(rec.draws.len(), 4);
        assert!(rec.draws.iter().all(|d| d.time_s > 0.0 && d.time_s < 50.0));
    }

    #[test]
    #[should_panic(expected = "nadir")]
    fn desaturation_rejects_inverted_levels() {
        let _ = Spo2Scenario::desaturation(0.3, 0.5).waypoints(10.0);
    }
}
