//! Phase utilities: cumulative phase from frequency tracks, and cyclic
//! interpolation across masked gaps.
//!
//! The paper's §3.4 interpolates the real and imaginary parts of each bin's
//! phasor separately, then re-derives the phase, so that interpolation
//! respects the circular topology of angles — [`interpolate_cyclic_into`]
//! implements exactly that.

/// Cumulative unrolled phase `Φ[n] = 2π·Σ_{i<n} f[i]·Δt` of a frequency
/// track sampled at `fs` (paper Eq. 4, left-Riemann form). `Φ[0] = 0` so
/// the first sample carries zero accumulated phase.
pub fn cumulative_phase(freq_track: &[f64], fs: f64) -> Vec<f64> {
    let dt = 1.0 / fs;
    let tau = std::f64::consts::TAU;
    let mut out = Vec::with_capacity(freq_track.len());
    let mut acc = 0.0;
    for &f in freq_track {
        out.push(tau * acc);
        acc += f * dt;
    }
    out
}

/// Interpolates angles across masked gaps the cyclic way: the cosine and
/// sine of the angle are interpolated independently over the valid samples
/// and the angle re-derived with `atan2` (paper §3.4).
///
/// `valid[i] == true` marks samples whose phase is trusted; the rest are
/// re-estimated. If fewer than two samples are valid the input is copied
/// unchanged. Writes into `out` (cleared first) and allocates nothing
/// beyond it: the walk goes straight from one valid anchor to the next,
/// interpolating the unit phasor across each gap and clamping beyond the
/// outermost anchors.
///
/// # Panics
///
/// Panics if `phase.len() != valid.len()`.
pub fn interpolate_cyclic_into(phase: &[f64], valid: &[bool], out: &mut Vec<f64>) {
    assert_eq!(phase.len(), valid.len(), "phase/valid length mismatch");
    let n = phase.len();
    out.clear();
    out.extend_from_slice(phase);
    let n_valid = valid.iter().filter(|&&v| v).count();
    if n_valid < 2 || n_valid == n {
        return;
    }
    // All valid indices exist (n_valid >= 2), so these unwraps are safe.
    let first = valid.iter().position(|&v| v).expect("has valid samples");
    let last = valid.iter().rposition(|&v| v).expect("has valid samples");
    // Outside the anchored range the phasor clamps to the end anchors;
    // re-deriving through atan2 wraps the anchor angle into (-π, π].
    let lead = phase[first].sin().atan2(phase[first].cos());
    for slot in &mut out[..first] {
        *slot = lead;
    }
    let trail = phase[last].sin().atan2(phase[last].cos());
    for slot in &mut out[last + 1..n] {
        *slot = trail;
    }
    // Interior gaps: linear interpolation of cos/sin between the two
    // bracketing anchors, angle re-derived per cell.
    let mut a = first;
    for b in first + 1..=last {
        if !valid[b] {
            continue;
        }
        if b > a + 1 {
            let (ca, sa) = (phase[a].cos(), phase[a].sin());
            let (cb, sb) = (phase[b].cos(), phase[b].sin());
            let span = b as f64 - a as f64;
            for (i, slot) in out[a + 1..b].iter_mut().enumerate() {
                let t = ((a + 1 + i) as f64 - a as f64) / span;
                let ci = ca + t * (cb - ca);
                let si = sa + t * (sb - sa);
                *slot = si.atan2(ci);
            }
        }
        a = b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn cumulative_phase_of_constant_frequency_is_linear() {
        let fs = 100.0;
        let track = vec![2.0; 200]; // 2 Hz
        let phi = cumulative_phase(&track, fs);
        // After 1 second (100 samples) the phase advanced by 2·2π.
        assert!((phi[99] - 2.0 * std::f64::consts::TAU).abs() < 0.2);
        // Strictly increasing.
        assert!(phi.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn cyclic_interp_bridges_wrap_point() {
        // Angles near ±π: naive linear interpolation would pass through 0,
        // cyclic interpolation stays near ±π.
        let phase = vec![PI - 0.1, 0.0, -(PI - 0.1)];
        let valid = vec![true, false, true];
        let mut out = Vec::new();
        interpolate_cyclic_into(&phase, &valid, &mut out);
        assert!(out[1].abs() > PI - 0.2, "interpolated through zero: {}", out[1]);
    }

    #[test]
    fn cyclic_interp_keeps_valid_samples() {
        let phase = vec![0.3, 0.9, 1.4, 2.2];
        let valid = vec![true, false, true, true];
        let mut out = Vec::new();
        interpolate_cyclic_into(&phase, &valid, &mut out);
        assert_eq!(out[0], 0.3);
        assert_eq!(out[2], 1.4);
        assert_eq!(out[3], 2.2);
        assert!((out[1] - 0.85).abs() < 0.2);
    }

    #[test]
    fn cyclic_interp_with_no_valid_points_is_identity() {
        let phase = vec![0.1, 0.2];
        let mut out = Vec::new();
        interpolate_cyclic_into(&phase, &[false, false], &mut out);
        assert_eq!(out, phase);
    }
}
