//! Target pattern alignment (paper §3.1, Eqs. 3–7).
//!
//! Given the target source's fundamental-frequency track `f_ts[n]`, the
//! mixed signal is *unwarped* into a space where that source is strictly
//! periodic at 1 Hz: the unrolled phase `Φ[n] = 2π·Σ f_ts[i]·Δt` (Eq. 4)
//! is resampled onto a uniform phase grid (Eq. 5) by two sequential
//! interpolations — first timestamps from phase (Eq. 6), then signal
//! values from timestamps (Eq. 7). *Pattern restoration* inverts the map.

use crate::DhfError;
use dhf_dsp::interp::{linear_interp, Pchip};
use dhf_dsp::phase::cumulative_phase;
use dhf_dsp::tracks::{check_tracks, TrackError};

/// A signal unwarped with respect to one source's fundamental track.
#[derive(Debug, Clone, PartialEq)]
pub struct UnwarpedSignal {
    /// Samples on the uniform-phase grid (rate = aligner's `fs_prime`).
    pub samples: Vec<f64>,
    /// Original-time timestamp `t'[m]` of every unwarped sample.
    pub timestamps: Vec<f64>,
}

impl UnwarpedSignal {
    /// Number of unwarped samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the unwarped signal is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

/// Unwarps and restores signals for one target source.
///
/// In the unwarped space the target's fundamental sits at exactly 1 Hz, so
/// `fs_prime` samples cover one target period and the harmonics fall at
/// integer unwarped frequencies.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternAligner {
    fs: f64,
    fs_prime: f64,
    /// Original sample times `t[n]`.
    times: Vec<f64>,
    /// Unrolled target phase `Φ[n]` in *cycles* (Eq. 4 divided by 2π).
    cycles: Vec<f64>,
}

impl PatternAligner {
    /// Builds an aligner for a target f0 track sampled at `fs`.
    ///
    /// # Errors
    ///
    /// Returns [`DhfError::InputTooShort`] if the track is empty, and
    /// [`DhfError::Tracks`] if it holds a non-positive or non-finite value.
    pub fn new(f0_track: &[f64], fs: f64, fs_prime: f64) -> Result<Self, DhfError> {
        if f0_track.is_empty() {
            return Err(DhfError::InputTooShort { needed: 1, got: 0 });
        }
        check_tracks(1, f0_track.len(), &[f0_track])?;
        let phase = cumulative_phase(f0_track, fs);
        let cycles: Vec<f64> = phase.iter().map(|&p| p / std::f64::consts::TAU).collect();
        let times: Vec<f64> = (0..f0_track.len()).map(|n| n as f64 / fs).collect();
        Ok(PatternAligner { fs, fs_prime, times, cycles })
    }

    /// Original sampling rate (Hz).
    pub fn fs(&self) -> f64 {
        self.fs
    }

    /// Unwarped sampling rate (samples per target cycle).
    pub fn fs_prime(&self) -> f64 {
        self.fs_prime
    }

    /// Total number of target cycles covered by the track.
    pub fn total_cycles(&self) -> f64 {
        *self.cycles.last().unwrap()
    }

    /// Number of unwarped samples produced by [`PatternAligner::unwarp`].
    pub fn unwarped_len(&self) -> usize {
        (self.total_cycles() * self.fs_prime).floor() as usize
    }

    /// Unwarps `signal` (Eqs. 6–7).
    ///
    /// # Errors
    ///
    /// Returns [`DhfError::Tracks`] if `signal` does not match the track
    /// length.
    pub fn unwarp(&self, signal: &[f64]) -> Result<UnwarpedSignal, DhfError> {
        if signal.len() != self.times.len() {
            return Err(DhfError::Tracks(TrackError::Length {
                track: 0,
                expected: signal.len(),
                got: self.times.len(),
            }));
        }
        let m = self.unwarped_len();
        // Eq. 5–6: uniform phase grid → timestamps. The phase is smooth
        // and strictly increasing, so linear interpolation suffices here.
        let phase_grid: Vec<f64> = (0..m).map(|i| i as f64 / self.fs_prime).collect();
        let timestamps = linear_interp(&self.cycles, &self.times, &phase_grid)?;
        // Eq. 7: timestamps → signal values. Monotone cubic interpolation
        // preserves the upper harmonics far better than linear (which
        // would low-pass the unwarped signal at the coarse per-cycle
        // sampling rate).
        let interp = Pchip::new(&self.times, signal)?;
        let samples = interp.eval_many(&timestamps);
        Ok(UnwarpedSignal { samples, timestamps })
    }

    /// Restores an unwarped signal to the original time grid (pattern
    /// restoration): values at `t[n]` interpolated from `(t'[m], y'[m])`.
    ///
    /// `unwarped.timestamps` must come from the same aligner.
    ///
    /// # Errors
    ///
    /// Propagates interpolation failures (e.g. an empty unwarped signal).
    pub fn restore(&self, unwarped: &UnwarpedSignal) -> Result<Vec<f64>, DhfError> {
        // Timestamps can contain ties at the clamped ends; deduplicate to
        // keep the interpolation abscissae strictly increasing.
        let mut xs = Vec::with_capacity(unwarped.len());
        let mut ys = Vec::with_capacity(unwarped.len());
        for (&t, &v) in unwarped.timestamps.iter().zip(&unwarped.samples) {
            if xs.last().map_or(true, |&last| t > last + 1e-12) {
                xs.push(t);
                ys.push(v);
            }
        }
        if xs.is_empty() {
            return Err(DhfError::InputTooShort { needed: 1, got: 0 });
        }
        if xs.len() < 3 {
            return Ok(linear_interp(&xs, &ys, &self.times)?);
        }
        let interp = Pchip::new(&xs, &ys)?;
        Ok(interp.eval_many(&self.times))
    }

    /// Instantaneous frequency of *another* source in the unwarped space
    /// at **original** time `t_original` (seconds): the ratio
    /// `f_other(t) / f_target(t)`.
    ///
    /// In unwarped coordinates the target is fixed at 1 Hz, so any other
    /// source appears at this time-varying ratio — exactly the ridge the
    /// mask must cover. Callers map unwarped positions to original time
    /// through [`UnwarpedSignal::timestamps`].
    pub fn warped_frequency(
        &self,
        other_track: &[f64],
        target_track: &[f64],
        t_original: f64,
    ) -> f64 {
        let n = ((t_original * self.fs).round() as usize).min(other_track.len().saturating_sub(1));
        let ft = target_track[n.min(target_track.len() - 1)];
        if ft <= 0.0 {
            return 0.0;
        }
        other_track[n] / ft
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhf_dsp::fft::power_spectrum;

    /// A chirp whose instantaneous frequency follows `f0(t)`; unwarping
    /// against its own track must produce a pure 1 Hz periodicity.
    fn chirp_with_track(fs: f64, n: usize) -> (Vec<f64>, Vec<f64>) {
        let track: Vec<f64> = (0..n)
            .map(|i| 1.2 + 0.5 * (i as f64 / n as f64)) // 1.2 → 1.7 Hz
            .collect();
        let mut phase = 0.0;
        let signal: Vec<f64> = track
            .iter()
            .map(|&f| {
                phase += std::f64::consts::TAU * f / fs;
                phase.sin()
            })
            .collect();
        (signal, track)
    }

    #[test]
    fn unwarping_its_own_chirp_yields_constant_one_hz() {
        let fs = 100.0;
        let n = 6000;
        let (signal, track) = chirp_with_track(fs, n);
        let aligner = PatternAligner::new(&track, fs, 16.0).unwrap();
        let un = aligner.unwarp(&signal).unwrap();
        // Unwarped spectrum must peak at 1 Hz ( = bin m/len where
        // frequency resolution is fs'/len ).
        let mags: Vec<f64> = power_spectrum(&un.samples).iter().map(|p| p.sqrt()).collect();
        let peak =
            mags.iter().enumerate().skip(1).max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
        let peak_hz = peak as f64 * 16.0 / un.len() as f64;
        assert!((peak_hz - 1.0).abs() < 0.05, "peak at {peak_hz} Hz");
        // And it must be sharp: energy within ±0.1 Hz of 1 Hz dominates.
        let lo = ((0.9 * un.len() as f64) / 16.0) as usize;
        let hi = ((1.1 * un.len() as f64) / 16.0) as usize;
        let inband: f64 = mags[lo..=hi].iter().map(|m| m * m).sum();
        let total: f64 = mags.iter().skip(1).map(|m| m * m).sum();
        assert!(inband / total > 0.8, "in-band fraction {}", inband / total);
    }

    #[test]
    fn unwarp_then_restore_is_near_identity() {
        let fs = 100.0;
        let n = 4000;
        let (signal, track) = chirp_with_track(fs, n);
        // Generous unwarped rate so interpolation loss is negligible.
        let aligner = PatternAligner::new(&track, fs, 64.0).unwrap();
        let un = aligner.unwarp(&signal).unwrap();
        let back = aligner.restore(&un).unwrap();
        assert_eq!(back.len(), n);
        // Compare away from the extrapolated tail.
        for i in 100..n - 200 {
            assert!((back[i] - signal[i]).abs() < 0.02, "sample {i}: {} vs {}", back[i], signal[i]);
        }
    }

    #[test]
    fn unwarped_length_matches_cycle_count() {
        let fs = 100.0;
        let n = 5000; // 50 s
        let track = vec![2.0; n]; // exactly 100 cycles
        let aligner = PatternAligner::new(&track, fs, 16.0).unwrap();
        assert!((aligner.total_cycles() - 100.0).abs() < 0.1);
        assert_eq!(aligner.unwarped_len(), (aligner.total_cycles() * 16.0) as usize);
    }

    #[test]
    fn constant_track_unwarp_is_resampling() {
        // With a constant 2 Hz track, unwarping is just resampling by
        // fs'·f0/fs; a 2 Hz sine becomes a 1 Hz (fs'-relative) sine.
        let fs = 100.0;
        let n = 2000;
        let track = vec![2.0; n];
        let signal: Vec<f64> =
            (0..n).map(|i| (std::f64::consts::TAU * 2.0 * i as f64 / fs).sin()).collect();
        let aligner = PatternAligner::new(&track, fs, 16.0).unwrap();
        let un = aligner.unwarp(&signal).unwrap();
        // One cycle = 16 unwarped samples.
        for i in 0..un.len().saturating_sub(16) {
            assert!((un.samples[i] - un.samples[i + 16]).abs() < 0.02, "sample {i}");
        }
    }

    #[test]
    fn warped_frequency_is_the_ratio() {
        let fs = 100.0;
        let n = 1000;
        let target = vec![2.0; n];
        let other = vec![3.0; n];
        let aligner = PatternAligner::new(&target, fs, 16.0).unwrap();
        let w = aligner.warped_frequency(&other, &target, 1.0);
        assert!((w - 1.5).abs() < 1e-9);
    }

    #[test]
    fn constructor_validates_track() {
        assert!(matches!(
            PatternAligner::new(&[], 100.0, 16.0),
            Err(DhfError::InputTooShort { needed: 1, got: 0 })
        ));
        for (sample, v) in [(1, 0.0), (2, f64::NAN), (3, f64::INFINITY)] {
            let mut track = vec![1.0; 5];
            track[sample] = v;
            assert_eq!(
                PatternAligner::new(&track, 100.0, 16.0),
                Err(DhfError::Tracks(TrackError::Value { track: 0, sample })),
                "value {v}"
            );
        }
    }

    #[test]
    fn unwarp_validates_signal_length() {
        let aligner = PatternAligner::new(&[1.0; 100], 100.0, 16.0).unwrap();
        assert!(matches!(
            aligner.unwarp(&[0.0; 50]),
            Err(DhfError::Tracks(TrackError::Length { track: 0, expected: 50, got: 100 }))
        ));
    }
}
