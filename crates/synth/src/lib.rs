//! Quasi-periodic signal synthesis for the DHF reproduction.
//!
//! The paper (§4.1) describes a generation tool "characterized by the
//! desired input function per period, time duration per period list, and
//! amplitude per period list". This crate implements that tool and the two
//! datasets built with it:
//!
//! * [`table1`] — the five synthesized mixed signals of Table 1 (2–3
//!   quasi-periodic sources plus Gaussian noise, sampling rate 100 Hz).
//! * [`invivo`] — a simulated transabdominal fetal pulse-oximetry (TFO)
//!   recording standing in for the pregnant-ewe dataset of §4.3: two
//!   "sheep", dual wavelength (740/850 nm), a programmed fetal SaO2
//!   trajectory coupled to the fetal PPG amplitudes through the paper's
//!   modulation-ratio model (Eqs. 10–11), and timed blood draws.
//! * [`dualwave`] — scenario-driven dual-wavelength recordings (constant /
//!   ramp / desaturation SpO2 trajectories) for scoring the oximetry
//!   pipeline against programmable ground truth.
//! * [`artifact`] — seeded motion-artifact contamination (impulsive
//!   spikes, baseline-wander bursts, gait-periodic impact trains over an
//!   activity schedule) composable with any recording above.
//!
//! Waveform templates substitute for data we cannot access (sheep
//! respiration shapes, MIMIC-IV pulses). The substitution preserves the
//! evaluated behaviour because the separation methods consume only the
//! harmonic structure — a fundamental plus a few decaying harmonics —
//! which the parametric shapes reproduce.
//!
//! # Example
//!
//! ```
//! use dhf_synth::table1;
//!
//! let mix = table1::mixed_signal(4, 7);
//! assert_eq!(mix.sources.len(), 3);          // respiration, maternal, fetal
//! assert_eq!(mix.fs, 100.0);
//! assert_eq!(mix.samples.len(), mix.sources[0].samples.len());
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod artifact;
pub mod dualwave;
pub mod duet;
pub mod invivo;
pub mod schedule;
pub mod source;
pub mod table1;
pub mod templates;

pub use schedule::PeriodSchedule;
pub use source::{QuasiPeriodicSource, SourceSignal};
pub use templates::Template;
