//! Variational Mode Decomposition (Dragomiretskiy & Zosso \[1\]).
//!
//! ADMM over the half spectrum: each mode is updated by a Wiener-like
//! filter centred at its frequency `ω_k`, centre frequencies move to their
//! modes' spectral centroids, and a dual variable enforces exact
//! reconstruction. One mode is allocated per *harmonic* of each source
//! (VMD modes are narrowband by construction, so a multi-harmonic source
//! needs several), initialized from the known fundamental frequencies —
//! the same prior information every method in the study receives.

use crate::assignment::assign_components;
use crate::{BaselineError, SeparationContext, Separator};
use dhf_dsp::complex::Complex;
use dhf_dsp::fft::{fft, ifft};
use dhf_dsp::tracks::TrackError;

/// VMD separator.
#[derive(Debug, Clone, PartialEq)]
pub struct Vmd {
    /// Bandwidth penalty `α` (larger = narrower modes).
    pub alpha: f64,
    /// Dual ascent step `τ` (0 disables the exact-reconstruction dual).
    pub tau: f64,
    /// Convergence tolerance on relative mode change.
    pub tol: f64,
    /// Maximum ADMM sweeps.
    pub max_iters: usize,
    /// Modes allocated per source (one per harmonic).
    pub modes_per_source: usize,
    /// Bandwidth (Hz) for component-to-source assignment.
    pub assign_bw_hz: f64,
    /// Minimum affinity for a mode to be kept.
    pub affinity_floor: f64,
}

impl Default for Vmd {
    fn default() -> Self {
        Vmd {
            alpha: 2000.0,
            tau: 0.1,
            tol: 1e-6,
            max_iters: 120,
            modes_per_source: 3,
            assign_bw_hz: 0.35,
            affinity_floor: 0.2,
        }
    }
}

impl Vmd {
    /// Decomposes `signal` into narrowband modes with initial centre
    /// frequencies `init_hz` (Hz). Returns `(modes, centre_frequencies)`.
    pub fn decompose(&self, signal: &[f64], fs: f64, init_hz: &[f64]) -> (Vec<Vec<f64>>, Vec<f64>) {
        let n0 = signal.len();
        // Mirror extension halves boundary artefacts (standard VMD).
        let half = n0 / 2;
        let mut ext: Vec<f64> = Vec::with_capacity(2 * n0);
        ext.extend(signal[..half].iter().rev());
        ext.extend_from_slice(signal);
        ext.extend(signal[n0 - half..].iter().rev());
        let n = ext.len();

        let f_hat: Vec<Complex> =
            fft(&ext.iter().map(|&v| Complex::from_real(v)).collect::<Vec<_>>());
        // Positive-half analytic spectrum.
        let hn = n / 2 + 1;
        let f_plus: Vec<Complex> = f_hat[..hn].to_vec();
        // Normalized frequency axis for the half spectrum (cycles/sample).
        let freqs: Vec<f64> = (0..hn).map(|k| k as f64 / n as f64).collect();

        let k_modes = init_hz.len();
        let mut u = vec![vec![Complex::ZERO; hn]; k_modes];
        let mut omega: Vec<f64> = init_hz.iter().map(|&f| f / fs).collect();
        let mut lambda = vec![Complex::ZERO; hn];
        let mut sum_u = vec![Complex::ZERO; hn];

        for _ in 0..self.max_iters {
            let mut change = 0.0f64;
            let mut norm = 0.0f64;
            for k in 0..k_modes {
                // Remove this mode's old contribution from the sum.
                for i in 0..hn {
                    sum_u[i] -= u[k][i];
                }
                let mut num_w = 0.0f64;
                let mut den_w = 0.0f64;
                for i in 0..hn {
                    let residual = f_plus[i] - sum_u[i] + lambda[i].scale(0.5);
                    let d = freqs[i] - omega[k];
                    let new = residual / (1.0 + 2.0 * self.alpha * d * d);
                    change += (new - u[k][i]).norm_sqr();
                    norm += u[k][i].norm_sqr();
                    u[k][i] = new;
                    let p = new.norm_sqr();
                    num_w += freqs[i] * p;
                    den_w += p;
                }
                if den_w > 1e-30 {
                    omega[k] = num_w / den_w;
                }
                for i in 0..hn {
                    sum_u[i] += u[k][i];
                }
            }
            if self.tau > 0.0 {
                for i in 0..hn {
                    lambda[i] += (f_plus[i] - sum_u[i]).scale(self.tau);
                }
            }
            if norm > 0.0 && change / norm < self.tol {
                break;
            }
        }

        // Back to time domain: mirror the half spectrum hermitian-wise,
        // inverse transform, crop the extension.
        let modes: Vec<Vec<f64>> = u
            .iter()
            .map(|uh| {
                let mut full = vec![Complex::ZERO; n];
                for (i, &v) in uh.iter().enumerate() {
                    full[i] = v;
                }
                for i in hn..n {
                    full[i] = full[n - i].conj();
                }
                let time = ifft(&full);
                time[half..half + n0].iter().map(|c| c.re).collect()
            })
            .collect();
        let centre_hz: Vec<f64> = omega.iter().map(|&w| w * fs).collect();
        (modes, centre_hz)
    }

    /// Initial centre frequencies: the first `modes_per_source` harmonics
    /// of every source's mean f0, clamped below Nyquist.
    fn init_frequencies(&self, ctx: &SeparationContext<'_>) -> Vec<f64> {
        let mut init = Vec::new();
        for si in 0..ctx.num_sources() {
            let f0 = ctx.mean_f0(si);
            for h in 1..=self.modes_per_source {
                let f = h as f64 * f0;
                if f < 0.49 * ctx.fs {
                    init.push(f);
                }
            }
        }
        init
    }
}

impl Separator for Vmd {
    fn name(&self) -> &'static str {
        "VMD"
    }

    fn separate(
        &self,
        mixed: &[f64],
        ctx: &SeparationContext<'_>,
    ) -> Result<Vec<Vec<f64>>, BaselineError> {
        ctx.validate(mixed.len())?;
        if mixed.len() < 32 {
            return Err(BaselineError::InputTooShort { needed: 32, got: mixed.len() });
        }
        let init = self.init_frequencies(ctx);
        if init.is_empty() {
            // No harmonic of any track lies below 0.49·fs: no mode to seed.
            return Err(BaselineError::Tracks(TrackError::Missing));
        }
        let (modes, _centres) = self.decompose(mixed, ctx.fs, &init);
        let f0s: Vec<f64> = (0..ctx.num_sources()).map(|i| ctx.mean_f0(i)).collect();
        Ok(assign_components(
            &modes,
            ctx.fs,
            &f0s,
            self.modes_per_source + 1,
            self.assign_bw_hz,
            self.affinity_floor,
            mixed.len(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhf_metrics::sdr_db;

    fn tone(fs: f64, f: f64, a: f64, n: usize) -> Vec<f64> {
        (0..n).map(|i| a * (std::f64::consts::TAU * f * i as f64 / fs).sin()).collect()
    }

    #[test]
    fn modes_land_on_tone_frequencies() {
        let fs = 100.0;
        let n = 2000;
        let mix: Vec<f64> =
            tone(fs, 1.5, 1.0, n).iter().zip(&tone(fs, 4.0, 0.8, n)).map(|(a, b)| a + b).collect();
        let vmd = Vmd::default();
        let (_modes, centres) = vmd.decompose(&mix, fs, &[1.3, 4.3]);
        let mut sorted = centres.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!((sorted[0] - 1.5).abs() < 0.3, "centre {sorted:?}");
        assert!((sorted[1] - 4.0).abs() < 0.3, "centre {sorted:?}");
    }

    #[test]
    fn modes_approximately_reconstruct_signal() {
        let fs = 100.0;
        let n = 2000;
        let mix: Vec<f64> =
            tone(fs, 1.5, 1.0, n).iter().zip(&tone(fs, 4.0, 0.8, n)).map(|(a, b)| a + b).collect();
        let (modes, _) = Vmd::default().decompose(&mix, fs, &[1.5, 4.0]);
        let recon: Vec<f64> = (0..n).map(|i| modes.iter().map(|m| m[i]).sum::<f64>()).collect();
        let sdr = sdr_db(&mix[200..1800], &recon[200..1800]);
        assert!(sdr > 10.0, "reconstruction SDR {sdr}");
    }

    #[test]
    fn separates_two_tones() {
        let fs = 100.0;
        let n = 3000;
        let s1 = tone(fs, 1.2, 1.0, n);
        let s2 = tone(fs, 3.7, 0.5, n);
        let mix: Vec<f64> = s1.iter().zip(&s2).map(|(a, b)| a + b).collect();
        let tracks = vec![vec![1.2; n], vec![3.7; n]];
        let ctx = SeparationContext { fs, f0_tracks: &tracks };
        let est = Vmd { modes_per_source: 1, ..Vmd::default() }.separate(&mix, &ctx).unwrap();
        assert!(sdr_db(&s1[300..2700], &est[0][300..2700]) > 8.0);
        assert!(sdr_db(&s2[300..2700], &est[1][300..2700]) > 8.0);
    }

    #[test]
    fn rejects_short_input() {
        let tracks = vec![vec![1.0; 8]];
        let ctx = SeparationContext { fs: 10.0, f0_tracks: &tracks };
        assert!(matches!(
            Vmd::default().separate(&[0.0; 8], &ctx),
            Err(BaselineError::InputTooShort { .. })
        ));
    }
}
