//! The shared two-source "drifting duet" test fixture.
//!
//! The serving layer (serve tests, the `serve_sessions` example and its
//! smoke test) exercises its machinery on one signal
//! family: two quasi-periodic sources whose fundamentals drift
//! sinusoidally fast enough that every analysis chunk sees the full
//! frequency-ratio range (a ratio that *locks* near an integer for a
//! whole chunk starves the deterministic in-painter — the pathological
//! case the deep prior exists for, and deliberately not what engine-level
//! tests measure). This module is the shared definition for those call
//! sites, parameterized by a `variant` so concurrent sessions each carry
//! a distinct stream. (The stream/core suites keep their own historical
//! inline variants of the family, tuned against their calibrated
//! agreement thresholds.)

/// A rendered two-source mix with its ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftingDuet {
    /// The mixed (summed) channel, `n` samples.
    pub mixed: Vec<f64>,
    /// The two clean sources, for scoring estimates against.
    pub sources: Vec<Vec<f64>>,
    /// The sources' instantaneous f0 tracks, one per source, `n` samples
    /// each — the side information every DHF entry point takes.
    pub f0_tracks: Vec<Vec<f64>>,
}

/// Renders the drifting duet at `fs` Hz for `n` samples.
///
/// Source 1: fundamental near 1.3 Hz (6 drift cycles over the signal,
/// ±0.30 Hz), two harmonics, unit amplitude. Source 2: near 2.55 Hz
/// (9 drift cycles, ±0.45 Hz), weaker (0.35). `variant` phase-shifts the
/// drifts and nudges the base fundamentals so each variant is a genuinely
/// different stream while staying inside the same band.
pub fn drifting_duet(fs: f64, n: usize, variant: u64) -> DriftingDuet {
    let v = (variant % 97) as f64;
    let track1: Vec<f64> = (0..n)
        .map(|i| {
            1.30 + 0.002 * v
                + 0.30 * (i as f64 / n as f64 * std::f64::consts::TAU * 6.0 + 0.3 * v).sin()
        })
        .collect();
    let track2: Vec<f64> = (0..n)
        .map(|i| {
            2.55 - 0.003 * v
                + 0.45 * (i as f64 / n as f64 * std::f64::consts::TAU * 9.0 - 0.2 * v).cos()
        })
        .collect();
    let render = |track: &[f64], amp: f64, h2: f64| -> Vec<f64> {
        let mut phase = 0.0;
        track
            .iter()
            .map(|&f| {
                phase += std::f64::consts::TAU * f / fs;
                amp * (phase.sin() + h2 * (2.0 * phase).sin())
            })
            .collect()
    };
    let s1 = render(&track1, 1.0, 0.5);
    let s2 = render(&track2, 0.35, 0.3);
    let mixed: Vec<f64> = s1.iter().zip(&s2).map(|(a, b)| a + b).collect();
    DriftingDuet { mixed, sources: vec![s1, s2], f0_tracks: vec![track1, track2] }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_are_distinct_but_share_the_family() {
        let fs = 100.0;
        let a = drifting_duet(fs, 2000, 0);
        let b = drifting_duet(fs, 2000, 1);
        assert_eq!(a, drifting_duet(fs, 2000, 0), "fixture must be deterministic");
        assert_ne!(a.mixed, b.mixed, "variants must differ");
        for duet in [&a, &b] {
            assert_eq!(duet.mixed.len(), 2000);
            assert_eq!(duet.sources.len(), 2);
            assert_eq!(duet.f0_tracks.len(), 2);
            // Tracks stay positive and inside the evaluated band.
            for t in &duet.f0_tracks {
                assert!(t.iter().all(|&f| f > 0.5 && f < 3.5));
            }
        }
    }
}
