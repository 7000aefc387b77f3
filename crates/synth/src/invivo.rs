//! Simulated transabdominal fetal pulse oximetry (TFO) recordings.
//!
//! Substitutes for the paper's in-vivo pregnant-ewe dataset (§4.3): 40
//! minutes of dual-wavelength (740/850 nm) mixed PPG plus ground-truth
//! fetal arterial saturation (SaO2) sampled by timed blood draws.
//!
//! The simulation reproduces the causal chain the in-vivo experiment
//! measures. A programmed fetal SaO2 trajectory drives the fetal AC
//! amplitudes at the two wavelengths through the paper's calibration model
//! (Eqs. 10–11): the modulation ratio
//! `R = (AC/DC)₇₄₀ / (AC/DC)₈₅₀` satisfies `1/(SaO2 + k) = w0 + w1·R`.
//! Maternal pulsation and respiration — much stronger and spectrally
//! overlapping (the maternal second harmonic crosses the fetal
//! fundamental) — corrupt any AC estimate made from the raw mix, so the
//! quality of fetal-signal separation directly bounds how well SaO2 can be
//! recovered, exactly as in vivo.

use crate::schedule::PeriodSchedule;
use crate::source::{add_noise, QuasiPeriodicSource};
use crate::templates::Template;
use dhf_dsp::interp::linear_interp;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The two sensing wavelengths in nanometres.
pub const WAVELENGTHS_NM: [f64; 2] = [740.0, 850.0];

/// Regularizing constant of the SaO2 calibration (paper Eq. 10).
pub const CALIBRATION_K: f64 = 1.885;

/// Intercept of the simulator's forward calibration model
/// `1/(SaO2 + k) = W0 + W1·R` (the paper *learns* these by regression;
/// the simulator needs a fixed ground-truth pair to synthesize from).
pub const CALIBRATION_W0: f64 = 0.5;

/// Slope of the simulator's forward calibration model.
pub const CALIBRATION_W1: f64 = -0.05;

/// Fetal `(AC/DC)` at 850 nm, assumed saturation-independent (the
/// isosbestic-side reference channel). Transabdominal fetal pulsation is
/// roughly an order of magnitude weaker than the maternal signal at the
/// same optode — the regime that makes TFO hard.
pub const FETAL_MODULATION_850: f64 = 0.008;

/// Static (DC) intensity per wavelength.
pub const DC_LEVELS: [f64; 2] = [1.0, 1.25];

/// Modulation ratio `R` implied by a SaO2 value under the forward model.
pub fn modulation_ratio_for_sao2(sao2: f64) -> f64 {
    (1.0 / (sao2 + CALIBRATION_K) - CALIBRATION_W0) / CALIBRATION_W1
}

/// One ground-truth blood draw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BloodDraw {
    /// Draw time in seconds from recording start.
    pub time_s: f64,
    /// Measured SaO2 (fraction, 0–1) including assay noise.
    pub sao2: f64,
}

/// Configuration of one simulated sheep.
#[derive(Debug, Clone, PartialEq)]
pub struct InvivoConfig {
    /// Sheep identifier (1 or 2 for the paper's animals).
    pub sheep_id: usize,
    /// Recording length in seconds (paper: 2400 s = 40 min).
    pub duration_s: f64,
    /// Sampling rate in Hz.
    pub fs: f64,
    /// Blood-draw times in seconds.
    pub draw_times_s: Vec<f64>,
    /// SaO2 trajectory waypoints `(time_s, sao2_fraction)`.
    pub sao2_waypoints: Vec<(f64, f64)>,
    /// Maternal heart-rate band (Hz).
    pub maternal_band: (f64, f64),
    /// Fetal heart-rate band (Hz).
    pub fetal_band: (f64, f64),
    /// Maternal respiration band (Hz).
    pub respiration_band: (f64, f64),
    /// Maternal `(AC/DC)` modulation depth.
    pub maternal_modulation: f64,
    /// Respiration `(AC/DC)` modulation depth.
    pub respiration_modulation: f64,
    /// Relative slow drift of the interference modulation depths,
    /// *independent per wavelength* (optode coupling and maternal
    /// perfusion change over a 40-minute experiment). This is what makes
    /// residual interference fatal for the modulation ratio: a weak
    /// separator's leakage no longer cancels between the two channels.
    pub interference_drift: f64,
    /// Sensor noise standard deviation, relative to DC.
    pub noise_std: f64,
    /// Master random seed.
    pub seed: u64,
}

impl InvivoConfig {
    /// Paper-like protocol for sheep 1: 40 min, seven draws at mixed
    /// 2.5/5/10-minute spacing, a moderate desaturation episode.
    pub fn sheep1() -> Self {
        InvivoConfig {
            sheep_id: 1,
            duration_s: 2400.0,
            fs: 100.0,
            draw_times_s: vec![150.0, 450.0, 750.0, 1050.0, 1350.0, 1950.0, 2250.0],
            sao2_waypoints: vec![
                (0.0, 0.55),
                (600.0, 0.50),
                (1200.0, 0.34),
                (1800.0, 0.42),
                (2400.0, 0.52),
            ],
            maternal_band: (1.05, 1.35),
            fetal_band: (2.0, 2.7),
            respiration_band: (0.45, 0.7),
            maternal_modulation: 0.08,
            respiration_modulation: 0.12,
            interference_drift: 0.35,
            noise_std: 0.003,
            seed: 0xA11CE,
        }
    }

    /// Paper-like protocol for sheep 2: deeper desaturation with faster
    /// recovery and slightly different physiology.
    pub fn sheep2() -> Self {
        InvivoConfig {
            sheep_id: 2,
            duration_s: 2400.0,
            fs: 100.0,
            draw_times_s: vec![150.0, 450.0, 750.0, 1050.0, 1350.0, 1950.0, 2250.0],
            sao2_waypoints: vec![
                (0.0, 0.60),
                (500.0, 0.55),
                (1000.0, 0.30),
                (1500.0, 0.35),
                (2000.0, 0.50),
                (2400.0, 0.58),
            ],
            maternal_band: (1.1, 1.45),
            fetal_band: (2.1, 2.8),
            respiration_band: (0.5, 0.75),
            maternal_modulation: 0.07,
            respiration_modulation: 0.10,
            interference_drift: 0.40,
            noise_std: 0.003,
            seed: 0xB0B2,
        }
    }

    /// Shrinks the protocol by `factor` (duration, waypoints and draw
    /// times alike) — used to keep unit tests fast while preserving the
    /// experiment's structure.
    pub fn scaled(mut self, factor: f64) -> Self {
        assert!(factor > 0.0 && factor <= 1.0, "factor must be in (0, 1]");
        self.duration_s *= factor;
        for t in &mut self.draw_times_s {
            *t *= factor;
        }
        for (t, _) in &mut self.sao2_waypoints {
            *t *= factor;
        }
        self
    }
}

/// Per-sample ground-truth fundamental-frequency tracks.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct F0Tracks {
    /// Maternal heart rate (Hz).
    pub maternal: Vec<f64>,
    /// Fetal heart rate (Hz).
    pub fetal: Vec<f64>,
    /// Respiration rate (Hz).
    pub respiration: Vec<f64>,
}

/// A complete simulated TFO recording for one sheep.
#[derive(Debug, Clone, PartialEq)]
pub struct TfoRecording {
    /// The generating configuration.
    pub config: InvivoConfig,
    /// Mixed PPG per wavelength (DC included), `[740 nm, 850 nm]`.
    pub mixed: [Vec<f64>; 2],
    /// Ground-truth fetal AC component per wavelength.
    pub fetal_truth: [Vec<f64>; 2],
    /// Ground-truth maternal AC component per wavelength.
    pub maternal_truth: [Vec<f64>; 2],
    /// Per-sample SaO2 trajectory (fraction).
    pub sao2: Vec<f64>,
    /// Blood draws with assay noise.
    pub draws: Vec<BloodDraw>,
    /// Ground-truth fundamental-frequency tracks.
    pub f0: F0Tracks,
}

impl TfoRecording {
    /// Number of samples per channel.
    pub fn len(&self) -> usize {
        self.mixed[0].len()
    }

    /// Whether the recording is empty.
    pub fn is_empty(&self) -> bool {
        self.mixed[0].is_empty()
    }

    /// Sample index of a time in seconds (clamped to the record).
    pub fn sample_at(&self, time_s: f64) -> usize {
        ((time_s * self.config.fs) as usize).min(self.len().saturating_sub(1))
    }
}

/// Runs the simulation for `config`.
///
/// # Panics
///
/// Panics on degenerate configurations (non-positive duration or rate,
/// missing waypoints).
pub fn simulate(config: &InvivoConfig) -> TfoRecording {
    assert!(config.duration_s > 0.0 && config.fs > 0.0, "degenerate duration/rate");
    assert!(config.sao2_waypoints.len() >= 2, "need at least two SaO2 waypoints");
    let n = (config.duration_s * config.fs) as usize;
    let mut rng = StdRng::seed_from_u64(config.seed);

    // Physiological base waveforms (unit amplitude, jitter via schedule).
    let maternal = QuasiPeriodicSource::new(
        Template::Ppg,
        PeriodSchedule::random(
            config.duration_s + 2.0,
            config.maternal_band.0,
            config.maternal_band.1,
            1.0,
            0.04,
            &mut rng,
        ),
    )
    .render(config.fs, n);
    let fetal = QuasiPeriodicSource::new(
        Template::Ppg,
        PeriodSchedule::random(
            config.duration_s + 2.0,
            config.fetal_band.0,
            config.fetal_band.1,
            1.0,
            0.04,
            &mut rng,
        ),
    )
    .render(config.fs, n);
    let respiration = QuasiPeriodicSource::new(
        Template::Respiration,
        PeriodSchedule::random(
            config.duration_s + 2.0,
            config.respiration_band.0,
            config.respiration_band.1,
            1.0,
            0.06,
            &mut rng,
        ),
    )
    .render(config.fs, n);

    // SaO2 trajectory by linear interpolation through the waypoints.
    let (wt, wv): (Vec<f64>, Vec<f64>) = config.sao2_waypoints.iter().cloned().unzip();
    let times: Vec<f64> = (0..n).map(|i| i as f64 / config.fs).collect();
    let sao2 = linear_interp(&wt, &wv, &times).expect("waypoints are strictly increasing");

    // Slow per-wavelength drifts of the interference modulation depths:
    // optode coupling and maternal perfusion change over a 40-minute
    // experiment, independently at 740 and 850 nm. Without this the
    // leakage of a weak separator would bias both channels
    // proportionally and cancel in the modulation ratio — in vivo it does
    // not, which is exactly why separation quality matters for SpO2.
    let mut drift_profiles: Vec<Vec<f64>> = Vec::new();
    for _ in 0..4 {
        let (p1, p2): (f64, f64) = {
            use rand::Rng;
            (rng.gen_range(0.0..std::f64::consts::TAU), rng.gen_range(0.0..std::f64::consts::TAU))
        };
        let t1 = config.duration_s / 2.7;
        let t2 = config.duration_s / 1.3;
        let amp = config.interference_drift;
        drift_profiles.push(
            (0..n)
                .map(|i| {
                    let t = i as f64 / config.fs;
                    1.0 + amp
                        * (0.6 * (std::f64::consts::TAU * t / t1 + p1).sin()
                            + 0.4 * (std::f64::consts::TAU * t / t2 + p2).sin())
                })
                .collect(),
        );
    }

    // Assemble the two wavelength channels.
    let mut mixed = [vec![0.0f64; n], vec![0.0f64; n]];
    let mut fetal_truth = [vec![0.0f64; n], vec![0.0f64; n]];
    let mut maternal_truth = [vec![0.0f64; n], vec![0.0f64; n]];
    for (li, dc) in DC_LEVELS.iter().enumerate() {
        for i in 0..n {
            // Fetal modulation: 850 nm fixed, 740 nm scaled by R(SaO2).
            let m_fetal = if li == 1 {
                FETAL_MODULATION_850
            } else {
                FETAL_MODULATION_850 * modulation_ratio_for_sao2(sao2[i])
            };
            let f_ac = dc * m_fetal * fetal.samples[i];
            let m_ac =
                dc * config.maternal_modulation * drift_profiles[li][i] * maternal.samples[i];
            let r_ac = dc
                * config.respiration_modulation
                * drift_profiles[2 + li][i]
                * respiration.samples[i];
            fetal_truth[li][i] = f_ac;
            maternal_truth[li][i] = m_ac;
            mixed[li][i] = dc + m_ac + r_ac + f_ac;
        }
        add_noise(&mut mixed[li], config.noise_std * dc, &mut rng);
    }

    // Blood draws: SaO2 at the draw instant plus assay noise.
    let draws = config
        .draw_times_s
        .iter()
        .map(|&t| {
            let idx = ((t * config.fs) as usize).min(n - 1);
            let jitter = 0.008 * {
                use rand::Rng;
                let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
            };
            BloodDraw { time_s: t, sao2: (sao2[idx] + jitter).clamp(0.0, 1.0) }
        })
        .collect();

    TfoRecording {
        config: config.clone(),
        mixed,
        fetal_truth,
        maternal_truth,
        sao2,
        draws,
        f0: F0Tracks { maternal: maternal.f0, fetal: fetal.f0, respiration: respiration.f0 },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhf_dsp::stats::{mean, rms};
    use dhf_metrics::pearson;

    fn small() -> TfoRecording {
        simulate(&InvivoConfig::sheep1().scaled(0.05)) // 2 minutes
    }

    #[test]
    fn recording_has_expected_sizes() {
        let r = small();
        let n = (r.config.duration_s * r.config.fs) as usize;
        assert_eq!(r.len(), n);
        assert_eq!(r.sao2.len(), n);
        assert_eq!(r.f0.maternal.len(), n);
        assert_eq!(r.draws.len(), r.config.draw_times_s.len());
    }

    #[test]
    fn dc_levels_are_preserved() {
        // The PPG/respiration templates are one-sided (physiological
        // waveforms ride above baseline), so the channel mean sits
        // slightly above DC — within the summed modulation depths.
        let r = small();
        let budget = r.config.maternal_modulation + r.config.respiration_modulation + 0.05;
        for (li, dc) in DC_LEVELS.iter().enumerate() {
            let m = mean(&r.mixed[li]);
            assert!((m - dc).abs() < budget * dc, "λ{li}: mean {m} vs DC {dc}");
        }
    }

    #[test]
    fn maternal_dominates_fetal() {
        let r = small();
        for li in 0..2 {
            let rm = rms(&r.maternal_truth[li]);
            let rf = rms(&r.fetal_truth[li]);
            assert!(rm > 1.5 * rf, "λ{li}: maternal {rm} vs fetal {rf}");
        }
    }

    #[test]
    fn modulation_ratio_model_is_monotone_decreasing_in_r() {
        // Lower SaO2 ⇒ lower 1/(Y+k) is *higher* … verify against model.
        let r_low = modulation_ratio_for_sao2(0.30);
        let r_high = modulation_ratio_for_sao2(0.60);
        assert!(r_low < r_high, "R(0.30)={r_low} !< R(0.60)={r_high}");
        assert!(r_low > 0.0);
    }

    #[test]
    fn fetal_740_amplitude_tracks_sao2() {
        let r = simulate(&InvivoConfig::sheep2().scaled(0.05));
        // Windowed fetal RMS at 740 nm must correlate with R(SaO2(t)).
        let fs = r.config.fs as usize;
        let win = 10 * fs;
        let mut rms_series = Vec::new();
        let mut rtrue = Vec::new();
        let mut start = 0;
        while start + win <= r.len() {
            rms_series.push(rms(&r.fetal_truth[0][start..start + win]));
            let mid_sao2 = r.sao2[start + win / 2];
            rtrue.push(modulation_ratio_for_sao2(mid_sao2));
            start += win;
        }
        let c = pearson(&rms_series, &rtrue);
        assert!(c > 0.9, "correlation {c}");
    }

    #[test]
    fn draws_match_trajectory_with_small_noise() {
        let r = small();
        for d in &r.draws {
            let idx = r.sample_at(d.time_s);
            assert!((d.sao2 - r.sao2[idx]).abs() < 0.05, "draw at {} off", d.time_s);
        }
    }

    #[test]
    fn spectral_overlap_exists_between_maternal_harmonic_and_fetal() {
        // The experiment is only meaningful if the maternal 2nd harmonic
        // crosses the fetal band (the TFO challenge).
        for cfg in [InvivoConfig::sheep1(), InvivoConfig::sheep2()] {
            assert!(2.0 * cfg.maternal_band.1 >= cfg.fetal_band.0);
            assert!(2.0 * cfg.maternal_band.0 <= cfg.fetal_band.1);
        }
    }

    #[test]
    fn scaled_config_shrinks_protocol() {
        let cfg = InvivoConfig::sheep1().scaled(0.1);
        assert!((cfg.duration_s - 240.0).abs() < 1e-9);
        assert!(cfg.draw_times_s.iter().all(|&t| t <= cfg.duration_s));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = simulate(&InvivoConfig::sheep1().scaled(0.02));
        let b = simulate(&InvivoConfig::sheep1().scaled(0.02));
        assert_eq!(a.mixed[0], b.mixed[0]);
    }
}
