//! DSP substrate for the Deep Harmonic Finesse (DHF) reproduction.
//!
//! Everything the DHF pipeline and its baselines need from classical signal
//! processing lives here, implemented from scratch:
//!
//! * [`Complex`] arithmetic and an FFT stack ([`fft`]) combining an iterative
//!   radix-2 transform, Bluestein's algorithm for arbitrary lengths, and a
//!   packed real transform (an N-point real DFT via one N/2-point complex
//!   FFT) behind one plan-cached [`fft::FftPlanner`].
//! * Short-time Fourier analysis ([`stft`]) with COLA-correct inversion,
//!   reading and writing the flat SoA [`Spectrogram`] workspace (contiguous
//!   `re`/`im` planes, one half-spectrum slice per frame).
//! * Window functions ([`window`]).
//! * IIR filtering ([`filter`]): a Butterworth low-pass biquad with
//!   zero-phase application, and linear detrending.
//! * Interpolation ([`interp`]): linear, natural cubic spline and monotone
//!   PCHIP, the workhorses of the paper's pattern aligner (Eqs. 3–7).
//! * Phase utilities ([`phase`]), simple statistics ([`stats`]), local
//!   extrema and median filtering ([`peaks`], [`median`]).
//! * The f0-track contract ([`tracks`]): one check, and one
//!   [`tracks::TrackError`], for every separator conditioned on f0 tracks.
//!
//! # Example
//!
//! ```
//! use dhf_dsp::fft::fft_real;
//!
//! // A pure 5 Hz cosine sampled at 64 Hz concentrates at bin 5.
//! let fs = 64.0;
//! let x: Vec<f64> = (0..64)
//!     .map(|n| (2.0 * std::f64::consts::PI * 5.0 * n as f64 / fs).cos())
//!     .collect();
//! let spec = fft_real(&x);
//! let peak = (0..33).max_by(|&a, &b| {
//!     spec[a].abs().partial_cmp(&spec[b].abs()).unwrap()
//! }).unwrap();
//! assert_eq!(peak, 5);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod complex;
pub mod fft;
pub mod filter;
pub mod interp;
pub mod median;
pub mod peaks;
pub mod phase;
pub mod simd;
pub mod stats;
pub mod stft;
pub mod tracks;
pub mod window;

pub use complex::Complex;
pub use fft::FftPlanner;
pub use stft::{Spectrogram, StftConfig, StftEngine};

/// Errors produced by DSP routines.
#[derive(Debug, Clone, PartialEq)]
pub enum DspError {
    /// The input slice was empty where a non-empty signal is required.
    EmptyInput,
    /// Two related inputs disagreed in length.
    LengthMismatch {
        /// Expected number of elements.
        expected: usize,
        /// Number of elements actually supplied.
        actual: usize,
    },
    /// A configuration parameter was outside its valid domain.
    InvalidParameter {
        /// Name of the offending parameter.
        name: &'static str,
        /// Human-readable description of the violated constraint.
        message: String,
    },
    /// Interpolation abscissae were not strictly increasing.
    NonMonotonicAbscissae,
}

impl std::fmt::Display for DspError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DspError::EmptyInput => write!(f, "input signal is empty"),
            DspError::LengthMismatch { expected, actual } => {
                write!(f, "length mismatch: expected {expected}, got {actual}")
            }
            DspError::InvalidParameter { name, message } => {
                write!(f, "invalid parameter `{name}`: {message}")
            }
            DspError::NonMonotonicAbscissae => {
                write!(f, "interpolation abscissae must be strictly increasing")
            }
        }
    }
}

impl std::error::Error for DspError {}

/// Convenient result alias used across the crate.
pub type Result<T> = std::result::Result<T, DspError>;
