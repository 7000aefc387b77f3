//! Cyclic phase interpolation (paper §3.4).
//!
//! The spectrogram in-painting recovers magnitudes only; phases at the
//! concealed cells are re-estimated per frequency bin by interpolating the
//! *real and imaginary parts* of the unit phasor over time and
//! re-deriving the angle — which respects the circular topology of phase,
//! unlike direct angle interpolation.

use crate::mask::HarmonicMask;
use dhf_dsp::phase::interpolate_cyclic_into;
use dhf_dsp::stft::Spectrogram;
use dhf_dsp::Complex;

/// Rebuilds *only the concealed cells* of `spec` from an in-painted
/// magnitude image, interpolating their phases in place.
///
/// Both in-painters keep every visible cell's magnitude, so a visible cell
/// has unchanged magnitude *and* phase and keeps its coefficient bit for
/// bit; only the hidden cells take their magnitude from `magnitude`. Per
/// bin, the phases of the row are gathered from the workspace's SoA planes
/// and interpolated through the hidden cells along the row's borrowed
/// mask slice. Fully visible bin rows are skipped outright — no `atan2`
/// per cell — and within a touched row only the hidden cells are
/// rewritten.
///
/// # Panics
///
/// Panics if the mask or magnitude image disagree with `spec`'s shape.
pub fn reconstruct_hidden_cells(spec: &mut Spectrogram, mask: &HarmonicMask, magnitude: &[f64]) {
    let bins = spec.bins();
    let frames = spec.frames();
    assert_eq!(mask.bins(), bins, "mask/spectrogram bins mismatch");
    assert_eq!(mask.frames(), frames, "mask/spectrogram frames mismatch");
    assert_eq!(magnitude.len(), bins * frames, "magnitude image size mismatch");
    let mut row_phase = vec![0.0f64; frames];
    let mut fixed = Vec::with_capacity(frames);
    for b in 0..bins {
        let vis = mask.row_visibility(b);
        if vis.iter().all(|&v| v) {
            continue;
        }
        for (m, rp) in row_phase.iter_mut().enumerate() {
            *rp = spec.at(b, m).arg();
        }
        interpolate_cyclic_into(&row_phase, vis, &mut fixed);
        for (m, &visible) in vis.iter().enumerate() {
            if visible {
                continue;
            }
            let mag = magnitude[b * frames + m];
            let (sin, cos) = fixed[m].sin_cos();
            spec.set_at(b, m, Complex::new(mag * cos, mag * sin));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhf_dsp::stft::{stft, StftConfig};

    /// Mask whose hidden cells cover given frames across all bins: one
    /// interferer at ratio 1 in each hidden frame (none elsewhere) with a
    /// band wide enough to span the whole frame.
    fn frame_mask(cfg: &StftConfig, frames: usize, hidden: &[usize]) -> HarmonicMask {
        let mut ratios = vec![vec![0.0; frames]];
        for &h in hidden {
            ratios[0][h] = 1.0;
        }
        HarmonicMask::build(cfg, frames, &ratios, 1, 1e6, &vec![1.0; cfg.bins() * frames])
    }

    /// 2 Hz tone at 16 Hz: with hop 16 = 1 s, phase advances by an
    /// integer number of cycles per frame, so the true phase is constant
    /// across frames.
    fn tone(n: usize) -> Vec<f64> {
        (0..n).map(|i| (std::f64::consts::TAU * 2.0 * i as f64 / 16.0).sin()).collect()
    }

    #[test]
    fn visible_phases_are_untouched() {
        let cfg = StftConfig::new(64, 16, 16.0).unwrap();
        let mut spec = stft(&tone(640), &cfg).unwrap();
        let before = spec.clone();
        let (bins, frames) = (spec.bins(), spec.frames());
        let hidden = frames / 2;
        let mask = frame_mask(&cfg, frames, &[hidden]);
        // Junk everywhere: visible cells must not read it.
        let junk = vec![7.0; bins * frames];
        reconstruct_hidden_cells(&mut spec, &mask, &junk);
        for b in 0..bins {
            for m in 0..frames {
                let (got, was) = (spec.at(b, m), before.at(b, m));
                if mask.is_visible(b, m) {
                    assert_eq!(got.re.to_bits(), was.re.to_bits(), "re at ({b}, {m})");
                    assert_eq!(got.im.to_bits(), was.im.to_bits(), "im at ({b}, {m})");
                } else {
                    assert_eq!(m, hidden);
                    assert!((got.abs() - 7.0).abs() < 1e-9, "hidden ({b}, {m}): {got:?}");
                }
            }
        }
    }

    #[test]
    fn hidden_phase_of_steady_tone_is_recovered() {
        let cfg = StftConfig::new(64, 16, 16.0).unwrap();
        let mut spec = stft(&tone(960), &cfg).unwrap();
        let frames = spec.frames();
        let bin = cfg.frequency_to_bin(2.0);
        let truth = spec.at(bin, frames / 2).arg();
        let mask = frame_mask(&cfg, frames, &[frames / 2]);
        let magnitude = spec.magnitude();
        reconstruct_hidden_cells(&mut spec, &mask, &magnitude);
        let got = spec.at(bin, frames / 2).arg();
        let diff = (got - truth).rem_euclid(std::f64::consts::TAU);
        let dist = diff.min(std::f64::consts::TAU - diff);
        assert!(dist < 0.2, "phase error {dist}");
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn shape_mismatch_panics() {
        let cfg = StftConfig::new(64, 16, 16.0).unwrap();
        let x: Vec<f64> = (0..640).map(|i| (i as f64 * 0.1).sin()).collect();
        let mut spec = stft(&x, &cfg).unwrap();
        let bad_mask = frame_mask(&cfg, spec.frames() + 1, &[]);
        let magnitude = spec.magnitude();
        reconstruct_hidden_cells(&mut spec, &bad_mask, &magnitude);
    }
}
