//! Baseline single-channel source-separation methods compared against DHF
//! in the paper's Table 2, all implemented from scratch:
//!
//! * [`emd::Emd`] — Empirical Mode Decomposition (Huang et al. \[5\]):
//!   sifting with cubic-spline envelopes, IMFs assigned to sources by
//!   harmonic affinity.
//! * [`vmd::Vmd`] — Variational Mode Decomposition (Dragomiretskiy &
//!   Zosso \[1\]): ADMM in the Fourier domain with Wiener-like mode updates.
//! * [`nmf::Nmf`] — Non-negative Matrix Factorization (Lee & Seung \[9\])
//!   of the magnitude spectrogram with multiplicative updates and Wiener
//!   reconstruction.
//! * [`repet::Repet`] / [`repet::RepetExtended`] — REpeating Pattern
//!   Extraction Technique (Rafii & Pardo \[14\]): beat-spectrum period
//!   estimation and median repeating models; the Extended variant adapts
//!   per time segment.
//! * [`masking::SpectralMasking`] — harmonic-comb binary masking
//!   (Gerkmann & Vincent \[3\]), the paper's strongest prior-work
//!   comparator.
//!
//! All methods implement the [`Separator`] trait and receive the same
//! auxiliary information DHF gets: the sources' fundamental-frequency
//! tracks (methods that cannot exploit a full track use its mean).
//!
//! # Example
//!
//! ```no_run
//! use dhf_baselines::{masking::SpectralMasking, SeparationContext, Separator};
//!
//! let fs = 100.0;
//! let mixed: Vec<f64> = (0..2000)
//!     .map(|i| {
//!         let t = i as f64 / fs;
//!         (std::f64::consts::TAU * 1.2 * t).sin()
//!             + 0.3 * (std::f64::consts::TAU * 2.4 * t).sin()
//!     })
//!     .collect();
//! let tracks = vec![vec![1.2; 2000], vec![2.4; 2000]];
//! let ctx = SeparationContext { fs, f0_tracks: &tracks };
//! let estimates = SpectralMasking::default().separate(&mixed, &ctx)?;
//! assert_eq!(estimates.len(), 2);
//! # Ok::<(), dhf_baselines::BaselineError>(())
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod assignment;
pub mod emd;
pub mod masking;
pub mod nmf;
pub mod repet;
pub mod vmd;

use dhf_dsp::tracks::{check_tracks, TrackError};

/// Errors shared by the baseline separators.
#[derive(Debug, Clone, PartialEq)]
pub enum BaselineError {
    /// The input signal was empty or too short for the method's windows.
    InputTooShort {
        /// Samples required.
        needed: usize,
        /// Samples provided.
        got: usize,
    },
    /// The f0 tracks break the track contract ([`check_tracks`]), or
    /// leave a method nothing to work with.
    Tracks(TrackError),
    /// An internal DSP step failed.
    Dsp(String),
}

impl std::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BaselineError::InputTooShort { needed, got } => {
                write!(f, "input too short: need {needed} samples, got {got}")
            }
            BaselineError::Tracks(e) => write!(f, "invalid f0 tracks: {e}"),
            BaselineError::Dsp(msg) => write!(f, "dsp failure: {msg}"),
        }
    }
}

impl std::error::Error for BaselineError {}

impl From<TrackError> for BaselineError {
    fn from(e: TrackError) -> Self {
        BaselineError::Tracks(e)
    }
}

impl From<dhf_dsp::DspError> for BaselineError {
    fn from(e: dhf_dsp::DspError) -> Self {
        BaselineError::Dsp(e.to_string())
    }
}

/// Auxiliary information available to every separator: the sampling rate
/// and the per-source fundamental-frequency tracks (one `Vec<f64>` per
/// source, one value per sample).
#[derive(Debug, Clone, Copy)]
pub struct SeparationContext<'a> {
    /// Sampling rate in Hz.
    pub fs: f64,
    /// Ground-truth or estimated f0 tracks, one per source, strongest
    /// source first.
    pub f0_tracks: &'a [Vec<f64>],
}

impl<'a> SeparationContext<'a> {
    /// Number of sources to extract.
    pub fn num_sources(&self) -> usize {
        self.f0_tracks.len()
    }

    /// Mean fundamental frequency of source `i`.
    pub fn mean_f0(&self, i: usize) -> f64 {
        let t = &self.f0_tracks[i];
        if t.is_empty() {
            0.0
        } else {
            t.iter().sum::<f64>() / t.len() as f64
        }
    }

    /// Checks the tracks against a signal length with [`check_tracks`].
    ///
    /// # Errors
    ///
    /// Returns [`BaselineError::Tracks`] with the first violation.
    pub fn validate(&self, signal_len: usize) -> Result<(), BaselineError> {
        Ok(check_tracks(self.f0_tracks.len(), signal_len, self.f0_tracks)?)
    }
}

/// A single-channel source separator.
///
/// Implementations return one estimated signal per source, in the same
/// order as the context's f0 tracks.
pub trait Separator {
    /// Short human-readable method name (used in Table 2 headers).
    fn name(&self) -> &'static str;

    /// Separates `mixed` into per-source estimates.
    ///
    /// # Errors
    ///
    /// Returns a [`BaselineError`] on malformed inputs.
    fn separate(
        &self,
        mixed: &[f64],
        ctx: &SeparationContext<'_>,
    ) -> Result<Vec<Vec<f64>>, BaselineError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_mean_f0() {
        let tracks = vec![vec![1.0, 2.0, 3.0], vec![4.0; 3]];
        let ctx = SeparationContext { fs: 100.0, f0_tracks: &tracks };
        assert_eq!(ctx.num_sources(), 2);
        assert!((ctx.mean_f0(0) - 2.0).abs() < 1e-12);
        assert!((ctx.mean_f0(1) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn context_validation() {
        let empty: Vec<Vec<f64>> = vec![];
        let ctx = SeparationContext { fs: 1.0, f0_tracks: &empty };
        assert_eq!(ctx.validate(10), Err(BaselineError::Tracks(TrackError::Missing)));
        let bad = vec![vec![1.0; 5]];
        let ctx = SeparationContext { fs: 1.0, f0_tracks: &bad };
        assert_eq!(
            ctx.validate(10),
            Err(BaselineError::Tracks(TrackError::Length { track: 0, expected: 10, got: 5 }))
        );
        assert!(ctx.validate(5).is_ok());
    }

    #[test]
    fn every_separator_rejects_a_non_finite_track_value() {
        let fs = 100.0;
        let n = 3000;
        let mixed: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                (std::f64::consts::TAU * 1.2 * t).sin()
                    + 0.3 * (std::f64::consts::TAU * 2.4 * t).sin()
            })
            .collect();
        let mut tracks = vec![vec![1.2; n], vec![2.4; n]];
        tracks[0][1500] = f64::NAN;
        let ctx = SeparationContext { fs, f0_tracks: &tracks };
        let separators: [&dyn Separator; 6] = [
            &masking::SpectralMasking::default(),
            &vmd::Vmd::default(),
            &nmf::Nmf::default(),
            &repet::Repet::default(),
            &repet::RepetExtended::default(),
            &emd::Emd::default(),
        ];
        for sep in separators {
            assert_eq!(
                sep.separate(&mixed, &ctx),
                Err(BaselineError::Tracks(TrackError::Value { track: 0, sample: 1500 })),
                "{}",
                sep.name()
            );
        }
    }

    #[test]
    fn error_messages_are_lowercase_and_informative() {
        let e = BaselineError::InputTooShort { needed: 100, got: 3 };
        let msg = e.to_string();
        assert!(msg.starts_with("input too short"));
        assert!(msg.contains("100") && msg.contains('3'));
    }
}
