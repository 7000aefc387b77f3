//! **Deep Harmonic Finesse (DHF)** — the paper's contribution: iterative
//! separation of quasi-periodic sources from a single mixed channel using
//! masking and deep-prior in-painting in a pattern-aligned time-frequency
//! space.
//!
//! One separation round (Fig. 1 of the paper):
//!
//! 1. **Pattern alignment** ([`align`]) — unwarp the mixed signal with
//!    respect to the target source's fundamental-frequency track so the
//!    target becomes strictly periodic at 1 Hz (Eqs. 3–7).
//! 2. **STFT** of the unwarped signal; the target now occupies constant
//!    harmonic rows.
//! 3. **Masking** ([`mask`]) — conceal every harmonic of the *other*
//!    sources that carries energy in band (their tracks warp into
//!    time-varying ridges).
//! 4. **Magnitude in-painting** ([`inpaint`]) — fit the SpAc LU-Net deep
//!    prior to the visible cells only; its structural bias fills the
//!    hidden cells with target-consistent values (Eq. 9).
//! 5. **Cyclic phase interpolation** ([`phase`]) — interpolate each bin's
//!    phasor through the hidden cells via cos/sin (§3.4).
//! 6. **ISTFT + pattern restoration** — back to the original time axis;
//!    subtract, recurse on the residual ([`pipeline`]).
//!
//! The assumed-known fundamental-frequency tracks can come from auxiliary
//! sensors or from the [`f0`] estimator (the paper's "preliminary
//! analysis" option).
//!
//! # Example
//!
//! ```no_run
//! use dhf_core::{separate, DhfConfig};
//!
//! # fn main() -> Result<(), dhf_core::DhfError> {
//! let fs = 100.0;
//! let n = 6000;
//! // A 1.3 Hz and a 2.1 Hz quasi-periodic source, premixed.
//! let mixed: Vec<f64> = (0..n)
//!     .map(|i| {
//!         let t = i as f64 / fs;
//!         (std::f64::consts::TAU * 1.3 * t).sin()
//!             + 0.4 * (std::f64::consts::TAU * 2.1 * t).sin()
//!     })
//!     .collect();
//! let tracks = vec![vec![1.3; n], vec![2.1; n]];
//! let result = separate(&mixed, fs, &tracks, &DhfConfig::fast())?;
//! assert_eq!(result.sources.len(), 2);
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod align;
pub mod f0;
pub mod inpaint;
pub mod mask;
pub mod phase;
pub mod pipeline;

pub use align::{PatternAligner, UnwarpedSignal};
pub use inpaint::{InpaintConfig, InpaintMethod, WarmEvent, WarmSlot};
pub use mask::HarmonicMask;
pub use pipeline::{separate, DhfConfig, RoundContext, RoundReport, SeparationResult};

use dhf_dsp::tracks::TrackError;

/// Errors from the DHF pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum DhfError {
    /// The mixed signal was empty or shorter than one analysis window
    /// after unwarping.
    InputTooShort {
        /// Required unwarped samples.
        needed: usize,
        /// Available unwarped samples.
        got: usize,
    },
    /// The f0 tracks break the track contract
    /// ([`check_tracks`](dhf_dsp::tracks::check_tracks)).
    Tracks(TrackError),
    /// The [`f0::F0Estimator`] search band violates `0 < f_min < f_max`.
    NonPositiveFrequency,
    /// Underlying DSP failure.
    Dsp(String),
    /// Underlying network-construction failure.
    Net(String),
}

impl std::fmt::Display for DhfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DhfError::InputTooShort { needed, got } => {
                write!(f, "input too short: need {needed} unwarped samples, got {got}")
            }
            DhfError::Tracks(e) => write!(f, "invalid f0 tracks: {e}"),
            DhfError::NonPositiveFrequency => {
                write!(f, "f0 search band must satisfy 0 < f_min < f_max")
            }
            DhfError::Dsp(msg) => write!(f, "dsp failure: {msg}"),
            DhfError::Net(msg) => write!(f, "network failure: {msg}"),
        }
    }
}

impl std::error::Error for DhfError {}

impl From<TrackError> for DhfError {
    fn from(e: TrackError) -> Self {
        DhfError::Tracks(e)
    }
}

impl From<dhf_dsp::DspError> for DhfError {
    fn from(e: dhf_dsp::DspError) -> Self {
        DhfError::Dsp(e.to_string())
    }
}

impl From<dhf_nn::NnError> for DhfError {
    fn from(e: dhf_nn::NnError) -> Self {
        DhfError::Net(e.to_string())
    }
}
