//! Minimal tensor library with reverse-mode automatic differentiation,
//! purpose-built for the DHF deep prior.
//!
//! The published system trains a small U-Net on a *single* masked
//! spectrogram. General-purpose Rust DL frameworks were judged too immature
//! for the paper's custom *dilated harmonic convolution* (frequency
//! neighbourhoods at integer multiples `k·ω/anchor` instead of adjacent
//! bins, Eqs. 1/2/8), so this crate implements exactly the operator set the
//! network needs:
//!
//! * [`Scalar`] — the element abstraction: every structure defaults to the
//!   production `f32` path; the `f64` instantiation is the accuracy
//!   reference used to measure the f32 error budget. There is no silent
//!   f64 widening inside the f32 kernels (reductions that need extra
//!   headroom use compensated summation in the working precision).
//! * [`Tensor`] — dense row-major array with shape metadata.
//! * [`Graph`] — a define-once/run-many autograd arena: insertion order is
//!   execution order, [`Graph::forward`] re-evaluates the whole graph (new
//!   leaf values included), [`Graph::backward`] fills gradients.
//! * Operators: elementwise arithmetic, activations, zero-padded 2-D
//!   convolution with independent frequency/time dilation, **harmonic
//!   convolution** with configurable anchor, time-only average pooling,
//!   frequency max-pooling (for the Zhang-baseline ablation), nearest
//!   upsampling, channel concatenation, instance normalization, and a
//!   masked mean-squared-error loss.
//! * [`optim`] — Adam over the graph's trainable leaves.
//!
//! # Example: fit a tiny network to a constant image
//!
//! ```
//! use dhf_tensor::{Graph, Tensor, optim::Adam};
//!
//! let mut g: Graph = Graph::new();
//! let x = g.input(Tensor::filled(&[1, 4, 4], 1.0));
//! let w = g.param(Tensor::filled(&[1, 1, 3, 3], 0.0));
//! let y = g.conv2d(x, w, 1, 1);
//! let target = g.input(Tensor::filled(&[1, 4, 4], 0.9));
//! let mask = g.input(Tensor::filled(&[1, 4, 4], 1.0));
//! let loss = g.mse_masked(y, target, mask);
//!
//! let mut adam = Adam::new(0.1);
//! for _ in 0..500 {
//!     g.forward();
//!     g.backward(loss);
//!     adam.step(&mut g);
//! }
//! g.forward();
//! assert!(g.value(loss).data()[0] < 1e-3);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod graph;
mod scalar;
mod tensor;

pub mod init;
pub mod ops;
pub mod optim;

pub use graph::{Graph, Op, VarId};
pub use scalar::Scalar;
pub use tensor::Tensor;

/// Errors produced when constructing or combining tensors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// Operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Shape of the left/first operand.
        left: Vec<usize>,
        /// Shape of the right/second operand.
        right: Vec<usize>,
    },
    /// A parameter was outside its valid domain.
    InvalidParameter(&'static str),
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::ShapeMismatch { left, right } => {
                write!(f, "shape mismatch: {left:?} vs {right:?}")
            }
            TensorError::InvalidParameter(name) => write!(f, "invalid parameter `{name}`"),
        }
    }
}

impl std::error::Error for TensorError {}
