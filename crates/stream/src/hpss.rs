//! Allocation-free streaming HPSS front filter.
//!
//! Motion artifacts — footfall impacts, sensor knocks, cable snags — are
//! *percussive*: broadband vertical stripes in the spectrogram, while the
//! maternal/fetal PPG mixture DHF separates is *harmonic*: narrow
//! horizontal ridges. Median-based harmonic–percussive source separation
//! (HPSS) tells the two apart with a pair of median filters, and the
//! harmonic-only resynthesis makes a cheap transient-rejection pre-filter
//! for the separation chunks.
//!
//! [`FrontFilter`] is the workspace's only median-mask HPSS (the soft-mask
//! formulation of Fitzgerald), built for the streaming hot loop: one
//! [`StftEngine`] with cached FFT plans, the SoA [`Spectrogram`]
//! workspace, [`dhf_dsp::simd`] kernels for magnitudes and mask
//! application (so `DHF_FORCE_SCALAR` bit-identity holds through the
//! filter), and reusable buffers everywhere — steady state allocates
//! nothing after the first chunk. It keeps no state between calls, so one
//! [`FrontFilter::filter`] call over a whole recording gives the offline
//! harmonic component. `tests/hpss_properties.rs` pins its output bit for
//! bit to an oracle rebuilt from the definition with the free STFT
//! functions and gather-and-sort medians.

use crate::StreamError;
use dhf_dsp::median::median_filter_2d_into;
use dhf_dsp::simd;
use dhf_dsp::stft::{Spectrogram, StftConfig, StftEngine};

/// Parameters of the streaming HPSS transient-rejection front filter.
///
/// The filter runs its *own* short STFT over each chunk, independent of
/// the separation pipeline's analysis windows: artifact rejection wants
/// time resolution comparable to an impact's ring-down (tens of
/// milliseconds to a second), far finer than the multi-second windows
/// harmonic separation needs. Defaults are tuned on the motion-artifact
/// robustness scenarios (see `tests/artifact_robustness.rs`) at the
/// repo-wide 100 Hz sample rate; the gait demonstration there uses a
/// shorter, sharper configuration picked by the same sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct HpssFrontConfig {
    /// STFT analysis window in samples (Hann). Default 128 (1.28 s at
    /// 100 Hz): long enough to resolve maternal/fetal fundamentals from
    /// DC, short enough that an impact occupies few frames.
    pub window_len: usize,
    /// STFT hop in samples. Default 32 (75 % overlap).
    pub hop: usize,
    /// Median width along the time axis (frames) for the
    /// harmonic-enhanced image. Forced odd. Default 17.
    pub kernel_time: usize,
    /// Median width along the frequency axis (bins) for the
    /// percussive-enhanced image. Forced odd. Default 17.
    pub kernel_freq: usize,
    /// Soft-mask exponent (2.0 = Wiener-like).
    pub power: f64,
    /// Multiplier on the harmonic-enhanced image before masking; raising
    /// it keeps more of the chunk.
    pub margin_h: f64,
    /// Multiplier on the percussive-enhanced image; raising it rejects
    /// more aggressively (only clearly-harmonic cells survive).
    /// Default 2.0 — the spike/wander scenarios favor a rejection bias.
    pub margin_p: f64,
}

impl Default for HpssFrontConfig {
    fn default() -> Self {
        HpssFrontConfig {
            window_len: 128,
            hop: 32,
            kernel_time: 17,
            kernel_freq: 17,
            power: 2.0,
            margin_h: 1.0,
            margin_p: 2.0,
        }
    }
}

impl HpssFrontConfig {
    /// Validates the parameters against a sample rate, returning the STFT
    /// configuration the filter will run.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::InvalidConfig`] if the window/hop pair is
    /// degenerate (zero window, zero hop, hop beyond the window) or the
    /// mask shaping is non-finite.
    pub(crate) fn stft_config(&self, fs: f64) -> Result<StftConfig, StreamError> {
        if !(self.power.is_finite() && self.margin_h.is_finite() && self.margin_p.is_finite())
            || self.power <= 0.0
            || self.margin_h < 0.0
            || self.margin_p < 0.0
        {
            return Err(StreamError::InvalidConfig {
                name: "hpss_front",
                message: "power must be positive and margins non-negative and finite".into(),
            });
        }
        StftConfig::new(self.window_len, self.hop, fs)
            .map_err(|e| StreamError::InvalidConfig { name: "hpss_front", message: e.to_string() })
    }
}

/// The streaming front filter: harmonic-only HPSS resynthesis of each
/// chunk, with every buffer reused across calls.
///
/// Built by [`StreamingSeparator::new`](crate::StreamingSeparator) when
/// the session's [`StreamingConfig`](crate::StreamingConfig) carries an
/// [`HpssFrontConfig`]; also usable standalone (benches, equivalence
/// tests). The filter is stateless across chunks — each call analyzes
/// only the samples it is given — so chunk results never depend on
/// session history.
#[derive(Debug)]
pub struct FrontFilter {
    cfg: HpssFrontConfig,
    stft: StftConfig,
    engine: StftEngine,
    spec: Spectrogram,
    /// Mean-subtracted, zero-padded input.
    padded: Vec<f64>,
    /// Frame-major magnitude image (matching the SoA planes).
    mag_fm: Vec<f64>,
    /// Bin-major transpose of `mag_fm` for the along-time median.
    mag_bm: Vec<f64>,
    /// Harmonic-enhanced image, bin-major.
    enh_h: Vec<f64>,
    /// Percussive-enhanced image, frame-major.
    enh_p: Vec<f64>,
    /// Frame-major soft harmonic mask.
    mask: Vec<f64>,
    /// Median window gather scratch.
    scratch: Vec<f64>,
    /// Raw inverse-STFT output before trimming.
    resynth: Vec<f64>,
    /// Filtered chunk handed back to the caller.
    out: Vec<f64>,
}

impl FrontFilter {
    /// Creates a filter for streams sampled at `fs` Hz.
    ///
    /// # Errors
    ///
    /// Returns [`StreamError::InvalidConfig`] for degenerate parameters
    /// (a zero window/hop, a hop exceeding the window, or kernels the
    /// chunk spectrogram cannot support).
    pub fn new(cfg: HpssFrontConfig, fs: f64) -> Result<Self, StreamError> {
        let stft = cfg.stft_config(fs)?;
        Ok(FrontFilter {
            cfg,
            stft,
            engine: StftEngine::new(),
            spec: Spectrogram::workspace(),
            padded: Vec::new(),
            mag_fm: Vec::new(),
            mag_bm: Vec::new(),
            enh_h: Vec::new(),
            enh_p: Vec::new(),
            mask: Vec::new(),
            scratch: Vec::new(),
            resynth: Vec::new(),
            out: Vec::new(),
        })
    }

    /// The filter's parameters.
    pub fn config(&self) -> &HpssFrontConfig {
        &self.cfg
    }

    /// Filters one chunk, returning the harmonic-only resynthesis (same
    /// length as `x`). Chunks shorter than one analysis window pass
    /// through unchanged.
    ///
    /// The chunk's mean is subtracted before analysis and restored after:
    /// the PPG DC level carries the oximetry denominator and must survive
    /// the filter untouched, and a large DC ridge would otherwise
    /// dominate both median images.
    pub fn filter(&mut self, x: &[f64]) -> &[f64] {
        let _span = dhf_obs::span(dhf_obs::Stage::HpssFilter);
        let w = self.stft.window_len();
        let hop = self.stft.hop();
        self.out.clear();
        if x.len() < w {
            self.out.extend_from_slice(x);
            return &self.out;
        }
        let mean = x.iter().sum::<f64>() / x.len() as f64;

        // Zero-pad up to the next full-frame coverage so the analysis
        // reaches every sample (`frames_for` floors otherwise and the
        // inverse would zero the uncovered tail).
        let frames_needed = (x.len() - w).div_ceil(hop) + 1;
        let padded_len = (frames_needed - 1) * hop + w;
        self.padded.clear();
        self.padded.extend(x.iter().map(|&v| v - mean));
        self.padded.resize(padded_len, 0.0);

        self.engine
            .stft_into(&self.padded, &self.stft, &mut self.spec)
            .expect("padded chunk spans at least one window");
        let (bins, frames) = (self.spec.bins(), self.spec.frames());

        // Magnitudes straight off the SoA planes (one kernel pass), then
        // a scalar transpose for the along-time median.
        self.mag_fm.clear();
        self.mag_fm.resize(bins * frames, 0.0);
        simd::magnitude_into(&mut self.mag_fm, self.spec.re_plane(), self.spec.im_plane());
        self.mag_bm.clear();
        self.mag_bm.resize(bins * frames, 0.0);
        for m in 0..frames {
            let row = m * bins;
            for b in 0..bins {
                self.mag_bm[b * frames + m] = self.mag_fm[row + b];
            }
        }

        // Harmonic enhancement: median along time (bin-major rows are
        // bins, so a 1×k kernel slides over frames). Percussive
        // enhancement: median along frequency on the frame-major image
        // (rows are frames, the 1×k kernel slides over bins).
        median_filter_2d_into(
            &self.mag_bm,
            bins,
            frames,
            1,
            self.cfg.kernel_time,
            &mut self.enh_h,
            &mut self.scratch,
        );
        median_filter_2d_into(
            &self.mag_fm,
            frames,
            bins,
            1,
            self.cfg.kernel_freq,
            &mut self.enh_p,
            &mut self.scratch,
        );

        // Frame-major soft harmonic mask, applied to both planes with the
        // dispatched multiply kernel.
        let (p, mh, mp) = (self.cfg.power, self.cfg.margin_h, self.cfg.margin_p);
        self.mask.clear();
        self.mask.reserve(bins * frames);
        for m in 0..frames {
            for b in 0..bins {
                let eh = (self.enh_h[b * frames + m] * mh).powf(p);
                let ep = (self.enh_p[m * bins + b] * mp).powf(p);
                self.mask.push(eh / (eh + ep + 1e-10));
            }
        }
        for m in 0..frames {
            let gains = &self.mask[m * bins..(m + 1) * bins];
            let (re, im) = self.spec.frame_mut(m);
            simd::mul_in_place(re, gains);
            simd::mul_in_place(im, gains);
        }

        self.engine.istft_into(&self.spec, &mut self.resynth);
        self.out.extend(self.resynth[..x.len()].iter().map(|&v| v + mean));
        &self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hp_mix(n: usize, fs: f64) -> Vec<f64> {
        let mut x = vec![0.0; n];
        for (i, v) in x.iter_mut().enumerate() {
            let t = i as f64 / fs;
            *v = (std::f64::consts::TAU * 2.0 * t).sin()
                + 0.4 * (std::f64::consts::TAU * 4.0 * t).sin();
        }
        let mut k = 75;
        while k < n {
            for j in 0..12.min(n - k) {
                x[k + j] += 2.5 * (-(j as f64) / 4.0).exp();
            }
            k += 150;
        }
        x
    }

    #[test]
    fn rejects_degenerate_parameters() {
        let bad = HpssFrontConfig { window_len: 0, ..HpssFrontConfig::default() };
        assert!(FrontFilter::new(bad, 100.0).is_err());
        let bad = HpssFrontConfig { hop: 200, ..HpssFrontConfig::default() };
        assert!(FrontFilter::new(bad, 100.0).is_err());
        let bad = HpssFrontConfig { power: f64::NAN, ..HpssFrontConfig::default() };
        assert!(FrontFilter::new(bad, 100.0).is_err());
        let bad = HpssFrontConfig { margin_p: -1.0, ..HpssFrontConfig::default() };
        assert!(FrontFilter::new(bad, 100.0).is_err());
    }

    #[test]
    fn short_chunk_passes_through() {
        let mut f = FrontFilter::new(HpssFrontConfig::default(), 100.0).unwrap();
        let x: Vec<f64> = (0..100).map(|i| i as f64).collect();
        assert_eq!(f.filter(&x), &x[..]);
    }

    #[test]
    fn preserves_length_and_mean_offset() {
        let mut f = FrontFilter::new(HpssFrontConfig::default(), 100.0).unwrap();
        // Odd length that is not hop-aligned, with a DC offset.
        let x: Vec<f64> = hp_mix(1873, 100.0).iter().map(|v| v + 5.0).collect();
        let y = f.filter(&x);
        assert_eq!(y.len(), x.len());
        let mean_y = y.iter().sum::<f64>() / y.len() as f64;
        // The harmonic mask only attenuates AC cells; the restored mean
        // keeps the DC operating point.
        assert!((mean_y - 5.0).abs() < 0.15, "mean drifted to {mean_y}");
    }

    #[test]
    fn attenuates_clicks_keeps_tone() {
        let fs = 100.0;
        let n = 3000;
        let clean: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                (std::f64::consts::TAU * 2.0 * t).sin()
                    + 0.4 * (std::f64::consts::TAU * 4.0 * t).sin()
            })
            .collect();
        let mixed = hp_mix(n, fs);
        let mut f = FrontFilter::new(HpssFrontConfig::default(), fs).unwrap();
        let y = f.filter(&mixed).to_vec();
        let lo = 300;
        let hi = n - 300;
        let err_before: f64 = (lo..hi).map(|i| (mixed[i] - clean[i]).powi(2)).sum::<f64>().sqrt();
        let err_after: f64 = (lo..hi).map(|i| (y[i] - clean[i]).powi(2)).sum::<f64>().sqrt();
        // Defaults measure ~0.63x on this fixture (shorter windows do
        // better on synthetic clicks but worse on the e2e scenarios).
        assert!(
            err_after < 0.7 * err_before,
            "filter should clearly attenuate click energy: {err_after} vs {err_before}"
        );
    }

    #[test]
    fn steady_state_reuses_buffers() {
        let mut f = FrontFilter::new(HpssFrontConfig::default(), 100.0).unwrap();
        let x = hp_mix(2000, 100.0);
        f.filter(&x);
        let caps = (
            f.padded.capacity(),
            f.mag_fm.capacity(),
            f.mag_bm.capacity(),
            f.enh_h.capacity(),
            f.enh_p.capacity(),
            f.mask.capacity(),
            f.resynth.capacity(),
            f.out.capacity(),
        );
        f.filter(&x);
        assert_eq!(
            caps,
            (
                f.padded.capacity(),
                f.mag_fm.capacity(),
                f.mag_bm.capacity(),
                f.enh_h.capacity(),
                f.enh_p.capacity(),
                f.mask.capacity(),
                f.resynth.capacity(),
                f.out.capacity(),
            ),
            "second identical chunk must not grow any buffer"
        );
    }

    #[test]
    fn chunk_results_are_independent_of_history() {
        let x = hp_mix(1600, 100.0);
        let z = hp_mix(2400, 100.0);
        let mut fresh = FrontFilter::new(HpssFrontConfig::default(), 100.0).unwrap();
        let want = fresh.filter(&x).to_vec();
        let mut used = FrontFilter::new(HpssFrontConfig::default(), 100.0).unwrap();
        used.filter(&z);
        assert_eq!(used.filter(&x), &want[..], "filter must be stateless across chunks");
    }
}
