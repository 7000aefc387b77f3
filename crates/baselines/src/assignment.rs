//! Component-to-source assignment shared by EMD, VMD and NMF.
//!
//! Decomposition methods produce anonymous components (IMFs, variational
//! modes, NMF bases); comparison against ground-truth sources requires
//! grouping them. Components are assigned to the source whose harmonic
//! comb captures the most of the component's spectral energy — the same
//! frequency prior every method in the study receives.

use dhf_dsp::fft::{power_spectrum, rfft_frequencies};

/// Fraction of `component`'s spectral energy lying within `bw_hz` of any
/// of the first `harmonics` multiples of `f0`.
pub fn harmonic_affinity(component: &[f64], fs: f64, f0: f64, harmonics: usize, bw_hz: f64) -> f64 {
    if component.is_empty() || f0 <= 0.0 {
        return 0.0;
    }
    let power = power_spectrum(component);
    let freqs = rfft_frequencies(component.len(), fs);
    let mut total = 0.0;
    let mut inband = 0.0;
    for (k, &p) in power.iter().enumerate() {
        total += p;
        let f = freqs[k.min(freqs.len() - 1)];
        let near = (1..=harmonics).any(|h| (f - h as f64 * f0).abs() <= bw_hz);
        if near {
            inband += p;
        }
    }
    if total <= 0.0 {
        0.0
    } else {
        inband / total
    }
}

/// Dominant frequency (Hz) of a component by spectral peak.
pub fn dominant_frequency(component: &[f64], fs: f64) -> f64 {
    if component.len() < 4 {
        return 0.0;
    }
    let power = power_spectrum(component);
    let freqs = rfft_frequencies(component.len(), fs);
    let mut best = 0usize;
    let mut best_p = 0.0;
    // Skip DC.
    for (k, &p) in power.iter().enumerate().skip(1) {
        if p > best_p {
            best_p = p;
            best = k;
        }
    }
    freqs[best.min(freqs.len() - 1)]
}

/// Groups components into per-source sums.
///
/// Each component joins the source with the highest [`harmonic_affinity`];
/// components whose best affinity falls below `floor` (noise, trends) are
/// discarded. Returns one signal per source, all of `signal_len` samples.
pub fn assign_components(
    components: &[Vec<f64>],
    fs: f64,
    source_f0s: &[f64],
    harmonics: usize,
    bw_hz: f64,
    floor: f64,
    signal_len: usize,
) -> Vec<Vec<f64>> {
    let mut out = vec![vec![0.0f64; signal_len]; source_f0s.len()];
    for comp in components {
        let mut best_src = None;
        let mut best_aff = floor;
        for (si, &f0) in source_f0s.iter().enumerate() {
            let aff = harmonic_affinity(comp, fs, f0, harmonics, bw_hz);
            if aff > best_aff {
                best_aff = aff;
                best_src = Some(si);
            }
        }
        if let Some(si) = best_src {
            for (o, &v) in out[si].iter_mut().zip(comp) {
                *o += v;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(fs: f64, f: f64, n: usize) -> Vec<f64> {
        (0..n).map(|i| (std::f64::consts::TAU * f * i as f64 / fs).sin()).collect()
    }

    #[test]
    fn affinity_is_high_on_own_fundamental() {
        let fs = 100.0;
        let x = tone(fs, 2.0, 2000);
        assert!(harmonic_affinity(&x, fs, 2.0, 3, 0.3) > 0.9);
        assert!(harmonic_affinity(&x, fs, 3.1, 3, 0.2) < 0.2);
    }

    #[test]
    fn affinity_counts_harmonics() {
        let fs = 100.0;
        // Second harmonic of f0=1.5 → 3.0 Hz tone matches via h=2.
        let x = tone(fs, 3.0, 2000);
        assert!(harmonic_affinity(&x, fs, 1.5, 3, 0.25) > 0.9);
        assert!(harmonic_affinity(&x, fs, 1.5, 1, 0.25) < 0.1);
    }

    #[test]
    fn dominant_frequency_finds_peak() {
        let fs = 100.0;
        let x = tone(fs, 4.0, 1000);
        assert!((dominant_frequency(&x, fs) - 4.0).abs() < 0.2);
    }

    #[test]
    fn assignment_groups_by_source() {
        let fs = 100.0;
        let n = 2000;
        let comps = vec![tone(fs, 1.2, n), tone(fs, 2.4, n), tone(fs, 3.1, n)];
        // Source A at 1.2 Hz (and its harmonic 2.4), source B at 3.1 Hz.
        let out = assign_components(&comps, fs, &[1.2, 3.1], 2, 0.2, 0.3, n);
        assert_eq!(out.len(), 2);
        // A got components 0 and 1, B got component 2.
        let e_a: f64 = out[0].iter().map(|v| v * v).sum();
        let e_b: f64 = out[1].iter().map(|v| v * v).sum();
        assert!(e_a > 1.5 * e_b);
        assert!(e_b > 100.0);
    }

    #[test]
    fn low_affinity_components_are_dropped() {
        let fs = 100.0;
        let n = 1000;
        // Broadband-ish component: alternating impulses.
        let noise: Vec<f64> = (0..n).map(|i| if i % 7 == 0 { 1.0 } else { -0.1 }).collect();
        let out = assign_components(&[noise], fs, &[1.0], 2, 0.2, 0.5, n);
        let e: f64 = out[0].iter().map(|v| v * v).sum();
        assert_eq!(e, 0.0);
    }

    #[test]
    fn empty_component_has_zero_affinity() {
        assert_eq!(harmonic_affinity(&[], 100.0, 1.0, 3, 0.2), 0.0);
    }
}
