//! Short-time Fourier transform and its inverse.
//!
//! The DHF pipeline operates on complex spectrograms: masks and in-painting
//! act on the magnitude, phase is interpolated separately, and the result is
//! resynthesized with a weighted overlap-add inverse (synthesis window equal
//! to the analysis window, normalized by the squared-window overlap), which
//! reconstructs COLA-compliant configurations exactly in the interior.

use crate::complex::Complex;
use crate::fft::FftPlanner;
use crate::simd;
use crate::window::{cola_deviation, WindowKind};
use crate::{DspError, Result};
use std::cell::RefCell;

/// STFT analysis parameters. Every STFT uses a Hann window.
///
/// # Example
///
/// ```
/// use dhf_dsp::StftConfig;
/// let cfg = StftConfig::new(128, 32, 16.0)?;
/// assert_eq!(cfg.bins(), 65);
/// # Ok::<(), dhf_dsp::DspError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StftConfig {
    window_len: usize,
    hop: usize,
    fs: f64,
}

impl StftConfig {
    /// Creates a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`DspError::InvalidParameter`] if `window_len` or `hop` is
    /// zero, `hop > window_len`, or `fs` is not positive.
    pub fn new(window_len: usize, hop: usize, fs: f64) -> Result<Self> {
        if window_len == 0 {
            return Err(DspError::InvalidParameter {
                name: "window_len",
                message: "must be positive".into(),
            });
        }
        if hop == 0 || hop > window_len {
            return Err(DspError::InvalidParameter {
                name: "hop",
                message: format!("must be in 1..={window_len}"),
            });
        }
        if fs <= 0.0 || fs.is_nan() {
            return Err(DspError::InvalidParameter {
                name: "fs",
                message: "sample rate must be positive".into(),
            });
        }
        Ok(StftConfig { window_len, hop, fs })
    }

    /// Analysis window length in samples.
    pub fn window_len(&self) -> usize {
        self.window_len
    }

    /// Hop (stride) between frames in samples.
    pub fn hop(&self) -> usize {
        self.hop
    }

    /// Sample rate of the time-domain signal, in Hz.
    pub fn fs(&self) -> f64 {
        self.fs
    }

    /// Number of non-redundant frequency bins (`window_len/2 + 1`).
    pub fn bins(&self) -> usize {
        self.window_len / 2 + 1
    }

    /// Frequency resolution: Hz per bin.
    pub fn hz_per_bin(&self) -> f64 {
        self.fs / self.window_len as f64
    }

    /// Centre frequency of bin `k` in Hz.
    pub fn bin_frequency(&self, k: usize) -> f64 {
        k as f64 * self.hz_per_bin()
    }

    /// Bin index closest to frequency `hz` (clamped to the valid range).
    pub fn frequency_to_bin(&self, hz: f64) -> usize {
        let k = (hz / self.hz_per_bin()).round();
        (k.max(0.0) as usize).min(self.bins() - 1)
    }

    /// Number of frames produced for a signal of `n` samples.
    pub fn frames_for(&self, n: usize) -> usize {
        if n < self.window_len {
            0
        } else {
            (n - self.window_len) / self.hop + 1
        }
    }

    /// Maximum relative COLA deviation of this window/hop pair; near zero
    /// means exact interior reconstruction through [`istft`].
    pub fn cola_deviation(&self) -> f64 {
        cola_deviation(&WindowKind::Hann.samples(self.window_len), self.hop)
    }
}

/// A complex spectrogram stored as a flat structure-of-arrays workspace:
/// two contiguous `f64` planes (`re`, `im`) in frame-major order
/// (`plane[frame * bins + bin]`), plus the configuration that produced it.
///
/// Frame-major SoA is the hot-path layout: each STFT frame's half
/// spectrum is one contiguous slice per plane, so the packed real FFT
/// analyzes and resynthesizes directly into the workspace with no
/// per-frame allocation or strided scatter, and the whole workspace is
/// reused across rounds/chunks (capacity survives
/// [`StftEngine::stft_into`] re-analysis). Stage images that the neural
/// in-painter consumes (magnitude, masks) remain bin-major `[freq, time]`:
/// [`Spectrogram::magnitude_into`] transposes at the boundary, and the
/// in-painted cells go back one coefficient at a time through
/// [`Spectrogram::set_at`].
///
/// # Example
///
/// ```
/// use dhf_dsp::stft::{stft, StftConfig};
///
/// let cfg = StftConfig::new(64, 16, 16.0)?;
/// let x: Vec<f64> = (0..512).map(|i| (i as f64 * 0.3).sin()).collect();
/// let spec = stft(&x, &cfg)?;
/// assert_eq!(spec.bins(), 33);
/// // Each frame's half spectrum is one contiguous slice per plane.
/// let (re, im) = spec.frame(0);
/// assert_eq!(re.len(), spec.bins());
/// assert_eq!(im.len(), spec.bins());
/// // (bin, frame) access agrees with the planes.
/// assert_eq!(spec.at(3, 0).re, re[3]);
/// # Ok::<(), dhf_dsp::DspError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Spectrogram {
    config: StftConfig,
    bins: usize,
    frames: usize,
    /// Real plane, frame-major (`re[frame * bins + bin]`).
    re: Vec<f64>,
    /// Imaginary plane, frame-major.
    im: Vec<f64>,
    /// Original signal length, kept so the inverse can trim padding.
    signal_len: usize,
}

impl Spectrogram {
    /// Creates an empty reusable workspace. Shape, configuration and data
    /// are fully overwritten by the first [`StftEngine::stft_into`]; until
    /// then the spectrogram has zero frames.
    pub fn workspace() -> Self {
        let placeholder = StftConfig::new(128, 32, 16.0).expect("valid placeholder layout");
        Spectrogram {
            config: placeholder,
            bins: placeholder.bins(),
            frames: 0,
            re: Vec::new(),
            im: Vec::new(),
            signal_len: 0,
        }
    }

    /// Resets configuration and shape, resizing the planes (reusing their
    /// capacity) and zeroing them.
    pub(crate) fn reset_layout(&mut self, config: StftConfig, frames: usize, signal_len: usize) {
        self.config = config;
        self.bins = config.bins();
        self.frames = frames;
        self.signal_len = signal_len;
        let cells = self.bins * frames;
        self.re.clear();
        self.re.resize(cells, 0.0);
        self.im.clear();
        self.im.resize(cells, 0.0);
    }

    /// The analysis configuration.
    pub fn config(&self) -> &StftConfig {
        &self.config
    }

    /// Number of frequency bins.
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Number of time frames.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// Length of the analyzed signal in samples.
    pub fn signal_len(&self) -> usize {
        self.signal_len
    }

    /// Complex coefficient at (`bin`, `frame`), assembled from the planes.
    #[inline]
    pub fn at(&self, bin: usize, frame: usize) -> Complex {
        let i = frame * self.bins + bin;
        Complex::new(self.re[i], self.im[i])
    }

    /// Overwrites the coefficient at (`bin`, `frame`), scattering into the
    /// planes (the write-side complement of [`Spectrogram::at`]).
    #[inline]
    pub fn set_at(&mut self, bin: usize, frame: usize, value: Complex) {
        let i = frame * self.bins + bin;
        self.re[i] = value.re;
        self.im[i] = value.im;
    }

    /// The whole real plane, frame-major.
    pub fn re_plane(&self) -> &[f64] {
        &self.re
    }

    /// The whole imaginary plane, frame-major.
    pub fn im_plane(&self) -> &[f64] {
        &self.im
    }

    /// One frame's half spectrum as `(re, im)` slice views.
    #[inline]
    pub fn frame(&self, frame: usize) -> (&[f64], &[f64]) {
        let lo = frame * self.bins;
        let hi = lo + self.bins;
        (&self.re[lo..hi], &self.im[lo..hi])
    }

    /// Mutable `(re, im)` slice views of one frame's half spectrum.
    #[inline]
    pub fn frame_mut(&mut self, frame: usize) -> (&mut [f64], &mut [f64]) {
        let lo = frame * self.bins;
        let hi = lo + self.bins;
        (&mut self.re[lo..hi], &mut self.im[lo..hi])
    }

    /// Magnitude image, bin-major (`bins × frames`) — the `[freq, time]`
    /// layout the in-painting stage consumes.
    pub fn magnitude(&self) -> Vec<f64> {
        let mut out = Vec::new();
        self.magnitude_into(&mut out);
        out
    }

    /// Writes the bin-major magnitude image into `out` (cleared first),
    /// reusing its capacity.
    pub fn magnitude_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.bins * self.frames, 0.0);
        // Magnitudes over the whole contiguous planes in one kernel pass
        // (√(re²+im²) rather than `hypot`; see `simd::magnitude_into`),
        // then a scalar transpose into the bin-major image.
        let mut flat = vec![0.0; self.re.len()];
        simd::magnitude_into(&mut flat, &self.re, &self.im);
        for m in 0..self.frames {
            let row = m * self.bins;
            for b in 0..self.bins {
                out[b * self.frames + m] = flat[row + b];
            }
        }
    }

    /// Scales each coefficient in place by a bin-major gain image.
    ///
    /// # Panics
    ///
    /// Panics if `mask.len() != bins * frames`.
    pub fn apply_mask_in_place(&mut self, mask: &[f64]) {
        assert_eq!(mask.len(), self.re.len(), "mask size mismatch");
        for m in 0..self.frames {
            let row = m * self.bins;
            for b in 0..self.bins {
                let g = mask[b * self.frames + m];
                self.re[row + b] *= g;
                self.im[row + b] *= g;
            }
        }
    }

    /// Scales every frame by a per-bin gain vector (time-constant gains,
    /// e.g. the comb restriction): each frame's contiguous plane slices
    /// are multiplied elementwise by `gains` in one kernel call.
    ///
    /// # Panics
    ///
    /// Panics if `gains.len() != bins`.
    pub fn scale_bins(&mut self, gains: &[f64]) {
        assert_eq!(gains.len(), self.bins, "gain vector size mismatch");
        for m in 0..self.frames {
            let lo = m * self.bins;
            let hi = lo + self.bins;
            simd::mul_in_place(&mut self.re[lo..hi], gains);
            simd::mul_in_place(&mut self.im[lo..hi], gains);
        }
    }
}

/// A reusable STFT engine: owns an [`FftPlanner`] plus window and frame
/// scratch buffers, so that analyzing/resynthesizing many signals with the
/// same configuration (the streaming hot path) recomputes no twiddle
/// tables and performs no per-frame allocation.
///
/// The free functions [`stft`] and [`istft`] delegate to a thread-local
/// engine; code that processes many frames (chunked streaming, benches)
/// should own one and call [`StftEngine::stft_into`] /
/// [`StftEngine::istft_into`] to also reuse the output buffers.
#[derive(Debug, Default)]
pub struct StftEngine {
    planner: FftPlanner,
    window: Vec<f64>,
    /// Precomputed `window[i]²` for the overlap-add normalization — the
    /// product is identical to multiplying on the fly, so the vectorized
    /// accumulate stays bit-identical to the historical scalar loop.
    window_sq: Vec<f64>,
    frame: Vec<f64>,
    norm: Vec<f64>,
}

impl StftEngine {
    /// Creates an engine with empty caches; plans and windows are built
    /// lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The engine's FFT planner (e.g. for cache statistics).
    pub fn planner(&self) -> &FftPlanner {
        &self.planner
    }

    /// Builds the Hann window (and its square) unless one of `len`
    /// samples is cached already.
    fn ensure_window(&mut self, len: usize) {
        if self.window.len() != len {
            self.window = WindowKind::Hann.samples(len);
            self.window_sq = self.window.iter().map(|&w| w * w).collect();
        }
    }

    /// Computes the STFT of `signal`, reusing internal scratch buffers.
    ///
    /// # Errors
    ///
    /// Same conditions as [`stft`].
    pub fn stft(&mut self, signal: &[f64], config: &StftConfig) -> Result<Spectrogram> {
        let mut spec = Spectrogram::workspace();
        self.stft_into(signal, config, &mut spec)?;
        Ok(spec)
    }

    /// Computes the STFT of `signal` into an existing spectrogram
    /// workspace, reusing its SoA planes (resized as needed) as well as
    /// the engine's scratch. Each frame's packed real FFT writes its half
    /// spectrum directly into the frame's contiguous plane slices. After
    /// the call `spec` is fully overwritten: configuration, shape and data
    /// all describe the new analysis.
    ///
    /// # Errors
    ///
    /// Same conditions as [`stft`].
    pub fn stft_into(
        &mut self,
        signal: &[f64],
        config: &StftConfig,
        spec: &mut Spectrogram,
    ) -> Result<()> {
        let w = config.window_len();
        if signal.len() < w {
            return Err(DspError::InvalidParameter {
                name: "signal",
                message: format!("needs at least {w} samples, got {}", signal.len()),
            });
        }
        // Inputs validated: from here the analysis runs to completion,
        // so the span measures real work only.
        let _span = dhf_obs::span(dhf_obs::Stage::StftAnalysis);
        let frames = config.frames_for(signal.len());
        self.ensure_window(w);
        spec.reset_layout(*config, frames, signal.len());
        let mut frame = std::mem::take(&mut self.frame);
        frame.clear();
        frame.resize(w, 0.0);
        for m in 0..frames {
            let start = m * config.hop();
            simd::mul_into(&mut frame, &signal[start..start + w], &self.window);
            let (re, im) = spec.frame_mut(m);
            self.planner.rfft_split_into(&frame, re, im);
        }
        self.frame = frame;
        Ok(())
    }

    /// Inverse STFT by weighted overlap-add, reusing internal scratch.
    /// Semantics are identical to [`istft`].
    pub fn istft(&mut self, spec: &Spectrogram) -> Vec<f64> {
        let mut out = Vec::new();
        self.istft_into(spec, &mut out);
        out
    }

    /// Inverse STFT into an existing output buffer (cleared and refilled),
    /// reusing the engine's window/normalization scratch. Each frame's
    /// half spectrum is read straight from the workspace's contiguous
    /// plane slices.
    pub fn istft_into(&mut self, spec: &Spectrogram, out: &mut Vec<f64>) {
        let _span = dhf_obs::span(dhf_obs::Stage::Istft);
        let config = spec.config();
        let w = config.window_len();
        let hop = config.hop();
        let frames = spec.frames();
        let n = if frames == 0 { 0 } else { (frames - 1) * hop + w };
        self.ensure_window(w);

        out.clear();
        out.resize(n, 0.0);
        let mut norm = std::mem::take(&mut self.norm);
        let mut frame = std::mem::take(&mut self.frame);
        norm.clear();
        norm.resize(n, 0.0);
        for m in 0..frames {
            let (re, im) = spec.frame(m);
            self.planner.irfft_split_into(re, im, w, &mut frame);
            let start = m * hop;
            simd::mul_add_in_place(&mut out[start..start + w], &frame, &self.window);
            simd::add_in_place(&mut norm[start..start + w], &self.window_sq);
        }
        // Normalize by the squared-window overlap. Near the edges the
        // overlap sum decays to ~0; for *modified* spectrograms the
        // numerator no longer tapers to match, so an unguarded division
        // would blow up the boundary samples (and, in iterative pipelines,
        // cascade). A relative floor keeps the interior exact and merely
        // tapers the edges.
        let norm_peak = norm.iter().cloned().fold(0.0f64, f64::max);
        let floor = 0.25 * norm_peak;
        for i in 0..n {
            if norm[i] > 1e-12 {
                out[i] /= norm[i].max(floor);
            }
        }
        out.resize(spec.signal_len(), 0.0);
        self.norm = norm;
        self.frame = frame;
    }
}

// `StftEngine` holds an `FftPlanner`; the serving runtime moves
// engine-holding sessions between worker threads.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<StftEngine>();
    assert_send::<Spectrogram>();
};

thread_local! {
    /// Shared engine behind the free-function API.
    static THREAD_ENGINE: RefCell<StftEngine> = RefCell::new(StftEngine::new());
}

/// Computes the STFT of `signal`.
///
/// Frames start at multiples of the hop; no centre padding is applied, so
/// frame `m` covers samples `[m·hop, m·hop + window_len)`.
///
/// # Errors
///
/// Returns [`DspError::InvalidParameter`] if the signal is shorter than one
/// window.
pub fn stft(signal: &[f64], config: &StftConfig) -> Result<Spectrogram> {
    THREAD_ENGINE.with(|e| e.borrow_mut().stft(signal, config))
}

/// Inverse STFT by weighted overlap-add.
///
/// Uses the analysis window for synthesis and normalizes by the squared
/// window overlap, which makes the inverse exact in the interior for COLA
/// window/hop pairs and least-squares optimal after spectrogram
/// modification. The output is trimmed/padded to `spec.signal_len()`.
pub fn istft(spec: &Spectrogram) -> Vec<f64> {
    THREAD_ENGINE.with(|e| e.borrow_mut().istft(spec))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chirp(n: usize, fs: f64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                let t = i as f64 / fs;
                (2.0 * std::f64::consts::PI * (2.0 * t + 0.05 * t * t)).sin()
            })
            .collect()
    }

    #[test]
    fn config_validates_parameters() {
        assert!(StftConfig::new(0, 1, 1.0).is_err());
        assert!(StftConfig::new(64, 0, 1.0).is_err());
        assert!(StftConfig::new(64, 65, 1.0).is_err());
        assert!(StftConfig::new(64, 16, -1.0).is_err());
        assert!(StftConfig::new(64, 16, 16.0).is_ok());
    }

    #[test]
    fn stft_shape_matches_config() {
        let cfg = StftConfig::new(128, 32, 16.0).unwrap();
        let x = chirp(1024, 16.0);
        let s = stft(&x, &cfg).unwrap();
        assert_eq!(s.bins(), 65);
        assert_eq!(s.frames(), (1024 - 128) / 32 + 1);
        assert_eq!(s.signal_len(), 1024);
    }

    #[test]
    fn stft_too_short_signal_errors() {
        let cfg = StftConfig::new(128, 32, 16.0).unwrap();
        assert!(stft(&[0.0; 64], &cfg).is_err());
    }

    #[test]
    fn istft_reconstructs_interior_exactly() {
        let fs = 100.0;
        let cfg = StftConfig::new(256, 64, fs).unwrap();
        assert!(cfg.cola_deviation() < 1e-12);
        let x = chirp(2048, fs);
        let s = stft(&x, &cfg).unwrap();
        let y = istft(&s);
        assert_eq!(y.len(), x.len());
        // Interior (skip one window at each end): exact reconstruction.
        for i in 256..(2048 - 256) {
            assert!((x[i] - y[i]).abs() < 1e-9, "sample {i}: {} vs {}", x[i], y[i]);
        }
    }

    #[test]
    fn tone_lands_in_expected_bin() {
        let fs = 64.0;
        let cfg = StftConfig::new(128, 32, fs).unwrap();
        let f0 = 8.0;
        let x: Vec<f64> =
            (0..1024).map(|i| (2.0 * std::f64::consts::PI * f0 * i as f64 / fs).sin()).collect();
        let s = stft(&x, &cfg).unwrap();
        let target_bin = cfg.frequency_to_bin(f0);
        assert_eq!(target_bin, 16);
        for m in 0..s.frames() {
            let mags: Vec<f64> = (0..s.bins()).map(|k| s.at(k, m).abs()).collect();
            let peak =
                mags.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
            assert_eq!(peak, target_bin);
        }
    }

    #[test]
    fn apply_mask_zeroes_selected_bins() {
        let cfg = StftConfig::new(64, 16, 16.0).unwrap();
        let x = chirp(512, 16.0);
        let s = stft(&x, &cfg).unwrap();
        let mut mask = vec![1.0; s.bins() * s.frames()];
        for m in 0..s.frames() {
            mask[3 * s.frames() + m] = 0.0;
        }
        let mut masked = s.clone();
        masked.apply_mask_in_place(&mask);
        for m in 0..s.frames() {
            assert_eq!(masked.at(3, m), Complex::ZERO);
            assert_eq!(masked.at(4, m), s.at(4, m));
        }
    }

    #[test]
    fn frequency_bin_round_trip() {
        let cfg = StftConfig::new(128, 32, 16.0).unwrap();
        for k in 0..cfg.bins() {
            assert_eq!(cfg.frequency_to_bin(cfg.bin_frequency(k)), k);
        }
    }

    #[test]
    fn engine_matches_free_functions_and_caches_one_plan_set() {
        let cfg = StftConfig::new(128, 32, 16.0).unwrap();
        let x = chirp(1024, 16.0);
        let mut engine = StftEngine::new();
        let mut spec = engine.stft(&x, &cfg).unwrap();
        let free = stft(&x, &cfg).unwrap();
        assert_eq!(spec.re_plane(), free.re_plane());
        assert_eq!(spec.im_plane(), free.im_plane());
        // Re-analyzing many signals of the same layout reuses one plan set
        // and the same SoA planes.
        for round in 0..8 {
            let y: Vec<f64> = x.iter().map(|&v| v * (round + 1) as f64).collect();
            engine.stft_into(&y, &cfg, &mut spec).unwrap();
        }
        // One real-split table (128) + one half-size radix-2 plan (64).
        assert_eq!(engine.planner().plans_built(), 2, "same-size frames must share one plan set");
        // Inverse through the engine matches the free function.
        let mut out = Vec::new();
        engine.istft_into(&spec, &mut out);
        assert_eq!(out, istft(&spec));
    }

    #[test]
    fn in_place_mutators_and_frame_views_are_consistent() {
        let cfg = StftConfig::new(64, 16, 16.0).unwrap();
        let x = chirp(512, 16.0);
        let s = stft(&x, &cfg).unwrap();
        let mask: Vec<f64> =
            (0..s.bins() * s.frames()).map(|i| if i % 3 == 0 { 0.0 } else { 0.5 }).collect();

        // Frame views agree with (bin, frame) access.
        for m in 0..s.frames() {
            let (re, im) = s.frame(m);
            for b in 0..s.bins() {
                assert_eq!(s.at(b, m), Complex::new(re[b], im[b]));
            }
        }

        // Masking in place matches per-cell scaling.
        let mut masked = s.clone();
        masked.apply_mask_in_place(&mask);
        for b in 0..s.bins() {
            for m in 0..s.frames() {
                let expect = s.at(b, m).scale(mask[b * s.frames() + m]);
                assert!((masked.at(b, m) - expect).abs() < 1e-15);
            }
        }

        // Per-bin gains scale whole bin rows.
        let mut gains = vec![1.0; s.bins()];
        gains[3] = 0.0;
        gains[5] = 0.5;
        let mut scaled = s.clone();
        scaled.scale_bins(&gains);
        for m in 0..s.frames() {
            assert_eq!(scaled.at(3, m), Complex::ZERO);
            assert_eq!(scaled.at(4, m), s.at(4, m));
            assert_eq!(scaled.at(5, m), s.at(5, m).scale(0.5));
        }
    }
}
