//! Neural layers and the **SpAc LU-Net** ("Spectrally Accurate Light
//! U-Net") deep-prior architecture of the DHF paper (§3.2, Fig. 2).
//!
//! The network is a small U-Net over `[1, F, T]` spectrogram magnitudes
//! whose convolutions are the paper's *dilated harmonic convolutions*:
//! frequency neighbourhoods are integer harmonic multiples, time
//! neighbourhoods are dilated taps at the same bin. Two design rules give
//! the "Spectrally Accurate" property:
//!
//! 1. **no pooling in frequency** — the frequency extent is preserved end
//!    to end, so harmonic rows never fold onto each other;
//! 2. **anchor = 1** — only forward integer multiples are neighbours, so
//!    every frequency is spectrally exact.
//!
//! [`ablation`] builds the Figure-3 comparison variants (conventional
//! convolution; Zhang-style harmonic convolution with anchor > 1 and
//! frequency max-pooling) from the same code path.
//!
//! # Example
//!
//! ```
//! use dhf_nn::{DeepPriorNet, NetConfig};
//! use dhf_tensor::Tensor;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let cfg = NetConfig { base_channels: 4, depth: 1, ..NetConfig::default() };
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut net = DeepPriorNet::new(&cfg, 16, 8, &mut rng).unwrap();
//! let target = Tensor::filled(&[1, 16, 8], 0.5);
//! let mask = Tensor::filled(&[1, 16, 8], 1.0);
//! let report = net.fit(&target, &mask, 40, 0.01);
//! assert!(report.final_loss < report.initial_loss);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
mod blocks;
mod config;
mod net;

pub use blocks::ConvKind;
pub use config::{FitParams, NetConfig, WarmFitParams};
pub use net::{DeepPriorNet, TrainReport};

/// Errors from network construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NnError {
    /// A spatial extent is incompatible with the pooling schedule.
    BadExtent {
        /// Which axis ("time" or "freq").
        axis: &'static str,
        /// The offending extent.
        extent: usize,
        /// The required divisor.
        divisor: usize,
    },
    /// A configuration field was invalid.
    BadConfig(&'static str),
}

impl std::fmt::Display for NnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NnError::BadExtent { axis, extent, divisor } => write!(
                f,
                "{axis} extent {extent} must be divisible by {divisor} for the pooling schedule"
            ),
            NnError::BadConfig(msg) => write!(f, "bad network configuration: {msg}"),
        }
    }
}

impl std::error::Error for NnError {}
