//! **Streaming DHF** — chunked online separation for continuous wearable
//! streams.
//!
//! The offline [`dhf_core::separate`] needs the whole recording up front;
//! wearables emit PPG/respiration *continuously*. This crate runs the same
//! multi-round DHF machinery on overlapping analysis chunks and stitches
//! the per-chunk source estimates with a windowed (raised-cosine)
//! overlap-add, so chunk seams do not show up in SI-SDR while output
//! latency stays bounded by one chunk:
//!
//! ```text
//! chunk c   [··········· chunk_len ···········]
//! chunk c+1              [··········· chunk_len ···········]
//!           |· emitted ·|· overlap ·|
//!                        ^ cross-faded between c and c+1
//! ```
//!
//! Each chunk is separated by a persistent [`dhf_core::RoundContext`], so
//! FFT plans, window tables, and spectrogram buffers are built once per
//! session and reused for every chunk — the property that lets one host
//! serve many concurrent sessions.
//!
//! # Example
//!
//! ```
//! use dhf_core::DhfConfig;
//! use dhf_stream::{StreamingConfig, StreamingSeparator};
//!
//! # fn main() -> Result<(), dhf_stream::StreamError> {
//! let fs = 100.0;
//! let cfg = StreamingConfig::new(3000, 600, DhfConfig::fast())?;
//! let mut sep = StreamingSeparator::new(fs, 2, cfg)?;
//! // Feed samples as they arrive, e.g. 1 s at a time, with the two
//! // sources' instantaneous f0 estimates.
//! let samples = vec![0.0; 100];
//! let f0_a = vec![1.3; 100];
//! let f0_b = vec![2.2; 100];
//! let blocks = sep.push(&samples, &[&f0_a, &f0_b])?;
//! for block in blocks {
//!     println!("emitted {} samples from {}", block.len(), block.start);
//! }
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod hpss;
mod separator;
mod stitch;

pub use config::StreamingConfig;
pub use hpss::{FrontFilter, HpssFrontConfig};
pub use separator::{separate_streamed, FlushOutcome, StreamBlock, StreamingSeparator};
pub use stitch::crossfade_weights;

use dhf_core::DhfError;
use dhf_dsp::tracks::TrackError;

/// Errors from the streaming engine.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamError {
    /// A streaming configuration parameter was outside its valid domain.
    InvalidConfig {
        /// Name of the offending parameter.
        name: &'static str,
        /// Human-readable description of the violated constraint.
        message: String,
    },
    /// A push's f0 tracks break the track contract; a bad value is
    /// located by its *absolute* stream position.
    Tracks(TrackError),
    /// The underlying per-chunk DHF separation failed.
    Dhf(DhfError),
}

impl std::fmt::Display for StreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StreamError::InvalidConfig { name, message } => {
                write!(f, "invalid streaming parameter `{name}`: {message}")
            }
            StreamError::Tracks(e) => write!(f, "invalid pushed f0 tracks: {e}"),
            StreamError::Dhf(e) => write!(f, "chunk separation failed: {e}"),
        }
    }
}

impl std::error::Error for StreamError {}

impl From<DhfError> for StreamError {
    fn from(e: DhfError) -> Self {
        StreamError::Dhf(e)
    }
}
