//! The end-to-end fetal oximetry pipeline: dual-wavelength mixed PPG →
//! per-wavelength DHF separation → paired fetal estimates → windowed
//! modulation ratios → an SpO2 trend (paper §4.3, Eqs. 10–11).
//!
//! Two entry points cover the offline and online regimes:
//!
//! * [`estimate_spo2_trend`] — whole-recording batch path: one
//!   [`dhf_core::RoundContext`] separates both wavelength channels (the
//!   second channel reuses the first's FFT plans), then the trend is read
//!   off sliding windows.
//! * [`StreamingOximeter`] — bounded-latency online path: two
//!   [`StreamingSeparator`]s (one per wavelength) ingest sample-aligned
//!   packets and the oximeter emits an [`Spo2Sample`] whenever both
//!   channels' separated fetal streams cover the next trend window.
//!
//! Both paths remove the optode's DC level with the same per-sample
//! one-pole tracker ([`ema_detrend`]) before separation, and both compute
//! each window's DC from the *raw* channel — the modulation ratio needs
//! `AC/DC` per wavelength, and the separator only sees (and returns)
//! pulsatile signals.

use crate::{ac_amplitude, dc_level, modulation_ratio, Calibration};
use dhf_core::{DhfConfig, DhfError, RoundContext};
use dhf_stream::{StreamError, StreamingConfig, StreamingSeparator};

/// Errors from the oximetry pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum OximetryError {
    /// An [`OximetryConfig`] parameter was outside its valid domain.
    Config {
        /// Name of the offending parameter.
        name: &'static str,
        /// Human-readable description of the violated constraint.
        message: String,
    },
    /// The two wavelength channels of a push (or batch call) had
    /// different lengths — the optode samples both simultaneously, so the
    /// pipeline requires sample-aligned channels.
    ChannelLengthMismatch {
        /// Samples supplied for λ1.
        lambda1: usize,
        /// Samples supplied for λ2.
        lambda2: usize,
    },
    /// The configured fetal source index does not address one of the
    /// supplied f0 tracks.
    FetalSourceOutOfRange {
        /// The configured index.
        fetal_source: usize,
        /// Number of tracks supplied.
        n_sources: usize,
    },
    /// The offline per-wavelength separation failed.
    Dhf(DhfError),
    /// A streaming separator rejected a push or failed on a chunk.
    Stream(StreamError),
}

impl std::fmt::Display for OximetryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OximetryError::Config { name, message } => {
                write!(f, "invalid oximetry parameter `{name}`: {message}")
            }
            OximetryError::ChannelLengthMismatch { lambda1, lambda2 } => {
                write!(f, "wavelength channels differ in length: λ1 {lambda1} vs λ2 {lambda2}")
            }
            OximetryError::FetalSourceOutOfRange { fetal_source, n_sources } => {
                write!(f, "fetal source index {fetal_source} out of range for {n_sources} tracks")
            }
            OximetryError::Dhf(e) => write!(f, "separation failed: {e}"),
            OximetryError::Stream(e) => write!(f, "streaming separation failed: {e}"),
        }
    }
}

impl std::error::Error for OximetryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OximetryError::Dhf(e) => Some(e),
            OximetryError::Stream(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DhfError> for OximetryError {
    fn from(e: DhfError) -> Self {
        OximetryError::Dhf(e)
    }
}

impl From<StreamError> for OximetryError {
    fn from(e: StreamError) -> Self {
        OximetryError::Stream(e)
    }
}

/// Time constant (seconds) of the one-pole DC tracker applied to each raw
/// channel before separation. Slow against the slowest physiological
/// component so pulsation is not eaten, and fast enough to follow optode
/// coupling drift.
const DC_TIME_CONSTANT_S: f64 = 2.0;

/// Configuration of the trend extraction stage (shared by the offline and
/// streaming paths).
#[derive(Debug, Clone, PartialEq)]
pub struct OximetryConfig {
    /// Index of the fetal source among the supplied f0 tracks (the
    /// separated estimate the modulation ratio is computed from).
    pub fetal_source: usize,
    /// Samples per SpO2 estimate window. Each window must span several
    /// fetal cycles for a stable AC amplitude; 20–45 s at 100 Hz is the
    /// regime the paper's Figure 6 uses around each blood draw.
    pub trend_window: usize,
    /// Stride between consecutive window starts.
    pub trend_hop: usize,
    /// The Eq. 10 calibration mapping each window's modulation ratio to
    /// SpO2. Fit it from blood draws ([`Calibration::fit`]) or use a
    /// known forward model.
    pub calibration: Calibration,
}

impl OximetryConfig {
    /// Creates a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`OximetryError::Config`] if `trend_window` is zero, or
    /// `trend_hop` is zero or exceeds `trend_window`.
    pub fn new(
        fetal_source: usize,
        trend_window: usize,
        trend_hop: usize,
        calibration: Calibration,
    ) -> Result<Self, OximetryError> {
        if trend_window == 0 {
            return Err(OximetryError::Config {
                name: "trend_window",
                message: "must be positive".into(),
            });
        }
        if trend_hop == 0 || trend_hop > trend_window {
            return Err(OximetryError::Config {
                name: "trend_hop",
                message: format!("must be in [1, trend_window = {trend_window}]"),
            });
        }
        Ok(OximetryConfig { fetal_source, trend_window, trend_hop, calibration })
    }
}

/// One-pole DC-tracker smoothing coefficient for a channel sampled at `fs`
/// Hz.
fn dc_alpha(fs: f64) -> f64 {
    1.0 - (-1.0 / (fs * DC_TIME_CONSTANT_S)).exp()
}

/// One windowed SpO2 estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spo2Sample {
    /// Absolute stream position of the first sample of the window.
    pub start: usize,
    /// Window length in samples.
    pub len: usize,
    /// The window's modulation ratio `R = (AC/DC)_λ1 / (AC/DC)_λ2`
    /// (Eq. 11).
    pub ratio: f64,
    /// Calibrated SpO2 fraction for the window (Eq. 10).
    pub spo2: f64,
}

impl Spo2Sample {
    /// Time of the window centre in seconds at sampling rate `fs`.
    pub fn mid_time_s(&self, fs: f64) -> f64 {
        (self.start as f64 + self.len as f64 / 2.0) / fs
    }
}

/// Output of the offline pipeline: the SpO2 trend plus the separated
/// per-wavelength fetal estimates it was computed from (for scoring
/// against ground truth or refitting a calibration).
#[derive(Debug, Clone, PartialEq)]
pub struct Spo2Trend {
    /// Windowed SpO2 estimates in stream order.
    pub samples: Vec<Spo2Sample>,
    /// The separated pulsatile fetal estimate per wavelength,
    /// `[λ1, λ2]`, full recording length.
    pub fetal_estimates: [Vec<f64>; 2],
}

impl Spo2Trend {
    /// The modulation ratios of the trend, in stream order.
    pub fn ratios(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.ratio).collect()
    }

    /// The SpO2 values of the trend, in stream order.
    pub fn spo2(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.spo2).collect()
    }
}

/// Subtracts a per-sample one-pole DC estimate from `raw`, continuing
/// from `state` (use `None` at stream start). Returns the pulsatile
/// residual; `state` is updated so consecutive calls over a split stream
/// produce exactly the samples a single whole-stream call would.
pub fn ema_detrend(raw: &[f64], alpha: f64, state: &mut Option<f64>) -> Vec<f64> {
    let mut dc = state.unwrap_or_else(|| raw.first().copied().unwrap_or(0.0));
    let out = raw
        .iter()
        .map(|&x| {
            dc += alpha * (x - dc);
            x - dc
        })
        .collect();
    if !raw.is_empty() {
        *state = Some(dc);
    }
    out
}

/// Computes the windowed SpO2 trend directly from known pulsatile fetal
/// components and the raw channels — the oracle path, used to score what
/// a *perfect* separator would recover (and to fit calibrations against
/// ground truth).
///
/// # Errors
///
/// Returns [`OximetryError::ChannelLengthMismatch`] if any of the four
/// slices disagree in length.
pub fn spo2_trend_from_components(
    fetal: [&[f64]; 2],
    raw: [&[f64]; 2],
    cfg: &OximetryConfig,
) -> Result<Vec<Spo2Sample>, OximetryError> {
    if fetal[0].len() != fetal[1].len() || raw[0].len() != raw[1].len() {
        return Err(OximetryError::ChannelLengthMismatch {
            lambda1: fetal[0].len().min(raw[0].len()),
            lambda2: fetal[1].len().min(raw[1].len()),
        });
    }
    if fetal[0].len() != raw[0].len() {
        return Err(OximetryError::ChannelLengthMismatch {
            lambda1: fetal[0].len(),
            lambda2: raw[0].len(),
        });
    }
    let n = fetal[0].len();
    let mut samples = Vec::new();
    let mut start = 0usize;
    while start + cfg.trend_window <= n {
        samples.push(window_sample(fetal, raw, start, start, cfg));
        start += cfg.trend_hop;
    }
    Ok(samples)
}

/// One trend window: AC from the separated fetal estimates, DC from the
/// raw channels, ratio through the calibration. `off` is the buffer
/// offset of absolute position `start`.
fn window_sample(
    fetal: [&[f64]; 2],
    raw: [&[f64]; 2],
    start: usize,
    off: usize,
    cfg: &OximetryConfig,
) -> Spo2Sample {
    let win = cfg.trend_window;
    let ac = [ac_amplitude(&fetal[0][off..off + win]), ac_amplitude(&fetal[1][off..off + win])];
    let dc = [dc_level(&raw[0][off..off + win]), dc_level(&raw[1][off..off + win])];
    let ratio = modulation_ratio(ac[0], dc[0], ac[1], dc[1]);
    Spo2Sample { start, len: win, ratio, spo2: cfg.calibration.predict(ratio) }
}

/// Offline end-to-end pipeline: separates each wavelength channel with
/// the multi-round DHF pipeline (one shared [`RoundContext`], so λ2
/// reuses λ1's FFT plans), pairs the fetal estimates, and returns the
/// windowed SpO2 trend.
///
/// `mixed` holds the raw (DC-included) channels `[λ1, λ2]`; `f0_tracks`
/// the shared per-source fundamental tracks (both channels see one
/// physiology), with [`OximetryConfig::fetal_source`] naming the fetal
/// one.
///
/// # Errors
///
/// Returns [`OximetryError::ChannelLengthMismatch`] /
/// [`OximetryError::FetalSourceOutOfRange`] on inconsistent inputs, or a
/// wrapped [`DhfError`] if a separation fails.
pub fn estimate_spo2_trend(
    mixed: [&[f64]; 2],
    fs: f64,
    f0_tracks: &[Vec<f64>],
    dhf: &DhfConfig,
    cfg: &OximetryConfig,
) -> Result<Spo2Trend, OximetryError> {
    let mut ctx = RoundContext::new(dhf);
    ctx.set_collect_reports(false);
    estimate_spo2_trend_in(&mut ctx, mixed, fs, f0_tracks, cfg)
}

/// Like [`estimate_spo2_trend`], but running through a caller-owned
/// [`RoundContext`] so fleet-style callers (benches, batch scoring over
/// many recordings) keep one spectral workspace and FFT plan cache warm
/// across recordings, exactly as the λ2 channel already reuses λ1's
/// within one call.
///
/// # Errors
///
/// Same conditions as [`estimate_spo2_trend`].
pub fn estimate_spo2_trend_in(
    ctx: &mut RoundContext,
    mixed: [&[f64]; 2],
    fs: f64,
    f0_tracks: &[Vec<f64>],
    cfg: &OximetryConfig,
) -> Result<Spo2Trend, OximetryError> {
    if mixed[0].len() != mixed[1].len() {
        return Err(OximetryError::ChannelLengthMismatch {
            lambda1: mixed[0].len(),
            lambda2: mixed[1].len(),
        });
    }
    if cfg.fetal_source >= f0_tracks.len() {
        return Err(OximetryError::FetalSourceOutOfRange {
            fetal_source: cfg.fetal_source,
            n_sources: f0_tracks.len(),
        });
    }
    let alpha = dc_alpha(fs);
    let mut fetal_estimates: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    for (li, channel) in mixed.iter().enumerate() {
        let pulsatile = ema_detrend(channel, alpha, &mut None);
        let mut result = ctx.separate(&pulsatile, fs, f0_tracks, 0)?;
        fetal_estimates[li] = std::mem::take(&mut result.sources[cfg.fetal_source]);
    }
    let samples =
        spo2_trend_from_components([&fetal_estimates[0], &fetal_estimates[1]], mixed, cfg)?;
    Ok(Spo2Trend { samples, fetal_estimates })
}

/// Result of [`StreamingOximeter::flush`].
#[derive(Debug, Clone, PartialEq)]
pub struct OximetryFlush {
    /// SpO2 windows completed by the flush, in stream order.
    pub samples: Vec<Spo2Sample>,
    /// Trailing stream samples the separators could not cover (too short
    /// for one analysis window) — no SpO2 window past them was emitted.
    pub dropped_samples: usize,
}

/// Online fetal oximetry with bounded latency.
///
/// Wraps two [`StreamingSeparator`]s — one per wavelength, sharing one
/// chunking configuration so their emission fronts advance in lockstep —
/// plus the per-channel DC trackers and the sliding trend window. Raw
/// sample-aligned packets go in via [`push`](Self::push); whenever both
/// channels' separated fetal streams cover the next trend window, the
/// window's [`Spo2Sample`] comes out. Worst-case output latency is one
/// analysis chunk plus one trend window
/// ([`max_latency_samples`](Self::max_latency_samples)).
///
/// ```
/// use dhf_core::DhfConfig;
/// use dhf_oximetry::{Calibration, OximetryConfig, StreamingOximeter};
/// use dhf_stream::StreamingConfig;
///
/// # fn main() -> Result<(), dhf_oximetry::OximetryError> {
/// let scfg = StreamingConfig::new(3000, 600, DhfConfig::fast())
///     .map_err(dhf_oximetry::OximetryError::Stream)?;
/// let ocfg = OximetryConfig::new(1, 2000, 500, Calibration::default())?;
/// let mut oximeter = StreamingOximeter::new(100.0, 2, scfg, ocfg)?;
/// // Sample-aligned λ1/λ2 packets with the shared maternal + fetal f0.
/// let (l1, l2) = (vec![1.0; 100], vec![1.2; 100]);
/// let (f0_m, f0_f) = (vec![1.2; 100], vec![2.2; 100]);
/// let updates = oximeter.push([&l1, &l2], &[&f0_m, &f0_f])?;
/// assert!(updates.is_empty()); // far less than one chunk buffered so far
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct StreamingOximeter {
    cfg: OximetryConfig,
    /// Per-wavelength streaming separators, `[λ1, λ2]`.
    seps: [StreamingSeparator; 2],
    /// Per-wavelength one-pole DC tracker state.
    dc_state: [Option<f64>; 2],
    alpha: f64,
    /// Raw (DC-included) samples per wavelength from `buf_start`.
    raw: [Vec<f64>; 2],
    /// Separated fetal estimates per wavelength from `buf_start`.
    fetal: [Vec<f64>; 2],
    /// Absolute stream position of the buffers' first sample.
    buf_start: usize,
    /// Absolute position up to which each wavelength's fetal estimate has
    /// been emitted by its separator.
    fetal_end: [usize; 2],
    /// Absolute start of the next trend window.
    next_window: usize,
    /// SpO2 windows emitted so far.
    windows_emitted: u64,
}

impl StreamingOximeter {
    /// Opens an oximetry session for `n_sources` f0 tracks sampled at
    /// `fs` Hz, with [`OximetryConfig::fetal_source`] selecting the fetal
    /// track.
    ///
    /// # Errors
    ///
    /// Returns [`OximetryError::FetalSourceOutOfRange`] if the fetal
    /// index does not address a track, or a wrapped [`StreamError`] for
    /// invalid separator parameters.
    pub fn new(
        fs: f64,
        n_sources: usize,
        scfg: StreamingConfig,
        cfg: OximetryConfig,
    ) -> Result<Self, OximetryError> {
        if cfg.fetal_source >= n_sources {
            return Err(OximetryError::FetalSourceOutOfRange {
                fetal_source: cfg.fetal_source,
                n_sources,
            });
        }
        let alpha = dc_alpha(fs);
        let seps = [
            StreamingSeparator::new(fs, n_sources, scfg.clone())?,
            StreamingSeparator::new(fs, n_sources, scfg)?,
        ];
        Ok(StreamingOximeter {
            cfg,
            seps,
            dc_state: [None, None],
            alpha,
            raw: [Vec::new(), Vec::new()],
            fetal: [Vec::new(), Vec::new()],
            buf_start: 0,
            fetal_end: [0, 0],
            next_window: 0,
            windows_emitted: 0,
        })
    }

    /// The trend-extraction configuration.
    pub fn config(&self) -> &OximetryConfig {
        &self.cfg
    }

    /// Total stream samples ingested (per channel; after a mid-push
    /// chunk failure the channels can be offset by one packet, in which
    /// case this reports the shorter one).
    pub fn samples_ingested(&self) -> usize {
        self.seps[0].samples_ingested().min(self.seps[1].samples_ingested())
    }

    /// Absolute stream position up to which *both* wavelengths' fetal
    /// estimates have been separated — the trend window can only close
    /// behind this front.
    pub fn samples_separated(&self) -> usize {
        self.fetal_end[0].min(self.fetal_end[1])
    }

    /// SpO2 windows emitted so far.
    pub fn windows_emitted(&self) -> u64 {
        self.windows_emitted
    }

    /// FFT plans built across both wavelength separators (constant after
    /// the first chunk of a steady stream).
    pub fn fft_plans_built(&self) -> usize {
        self.seps.iter().map(StreamingSeparator::fft_plans_built).sum()
    }

    /// Deep-prior fits resumed warm across both wavelength separators
    /// (zero unless the streaming configuration enables warm starting).
    pub fn warm_hits(&self) -> u64 {
        self.seps.iter().map(StreamingSeparator::warm_hits).sum()
    }

    /// Deep-prior fits trained from scratch across both wavelength
    /// separators.
    pub fn cold_fits(&self) -> u64 {
        self.seps.iter().map(StreamingSeparator::cold_fits).sum()
    }

    /// Sources currently holding resident warm nets, summed over both
    /// wavelength separators.
    pub fn warm_resident(&self) -> usize {
        self.seps.iter().map(StreamingSeparator::warm_resident).sum()
    }

    /// Worst-case samples between ingesting a sample and the SpO2 window
    /// containing it being emitted: one analysis chunk (separation
    /// latency) plus one trend window minus one hop (window-closing
    /// latency).
    pub fn max_latency_samples(&self) -> usize {
        self.seps[0].config().max_latency_samples() + self.cfg.trend_window - self.cfg.trend_hop
    }

    /// Ingests one sample-aligned packet of both wavelength channels plus
    /// the shared f0 tracks, returning every SpO2 window that became
    /// ready (zero or more).
    ///
    /// # Errors
    ///
    /// Returns [`OximetryError::ChannelLengthMismatch`] if the channels
    /// differ in length (nothing is buffered), or a wrapped
    /// [`StreamError`] from either separator. Separator-side validation
    /// runs before any buffering, so a rejected push leaves the session
    /// consistent; a chunk-separation failure is recoverable the same way
    /// it is for a bare [`StreamingSeparator`] (already-separated strides
    /// are retained and delivered by the next successful push or flush).
    pub fn push(
        &mut self,
        lambda: [&[f64]; 2],
        f0_tracks: &[&[f64]],
    ) -> Result<Vec<Spo2Sample>, OximetryError> {
        if lambda[0].len() != lambda[1].len() {
            return Err(OximetryError::ChannelLengthMismatch {
                lambda1: lambda[0].len(),
                lambda2: lambda[1].len(),
            });
        }
        for (li, &channel) in lambda.iter().enumerate() {
            // The DC tracker state must only advance if the separator
            // accepts the samples, so detrend into a scratch first and
            // commit the state after a successful push.
            let mut state = self.dc_state[li];
            let pulsatile = ema_detrend(channel, self.alpha, &mut state);
            let blocks = match self.seps[li].push(&pulsatile, f0_tracks) {
                Ok(blocks) => blocks,
                Err(e @ StreamError::Dhf(_)) => {
                    // A chunk-separation failure happens *after* the
                    // engine buffered the packet; keep the raw/DC books
                    // aligned with what the separator ingested. (The
                    // channels may now be offset by one packet — flush
                    // before continuing.)
                    self.dc_state[li] = state;
                    self.raw[li].extend_from_slice(channel);
                    return Err(e.into());
                }
                // Validation errors buffer nothing anywhere.
                Err(e) => return Err(e.into()),
            };
            self.dc_state[li] = state;
            self.raw[li].extend_from_slice(channel);
            for b in blocks {
                debug_assert_eq!(b.start, self.fetal_end[li], "separator blocks are contiguous");
                self.fetal[li].extend_from_slice(&b.sources[self.cfg.fetal_source]);
                self.fetal_end[li] = b.start + b.len();
            }
        }
        Ok(self.emit_ready())
    }

    /// Ends the stream: flushes both separators and emits every SpO2
    /// window the final estimates complete.
    ///
    /// The session stays usable afterwards (the separators restart their
    /// stitching at the current position); if the flush could not cover a
    /// trailing remainder, pending windows that would span the gap are
    /// abandoned and the trend resumes at the live stream position.
    ///
    /// # Errors
    ///
    /// Propagates separator flush failures.
    pub fn flush(&mut self) -> Result<OximetryFlush, OximetryError> {
        let mut dropped = 0usize;
        for li in 0..2 {
            let fin = self.seps[li].flush()?;
            if let Some(b) = fin.block {
                debug_assert_eq!(b.start, self.fetal_end[li], "flush block is contiguous");
                self.fetal[li].extend_from_slice(&b.sources[self.cfg.fetal_source]);
                self.fetal_end[li] = b.start + b.len();
            }
            dropped = dropped.max(fin.dropped_samples);
        }
        let samples = self.emit_ready();
        if dropped > 0 {
            // The uncovered tail leaves a hole in the fetal estimates; a
            // window spanning it would mix live samples with the gap.
            // Restart the trend cleanly at the live position.
            let live = self.samples_ingested();
            self.next_window = live;
            self.fetal_end = [live, live];
            for li in 0..2 {
                self.fetal[li].clear();
                let keep = live.saturating_sub(self.buf_start).min(self.raw[li].len());
                self.raw[li].drain(..keep);
            }
            self.buf_start = live;
        }
        Ok(OximetryFlush { samples, dropped_samples: dropped })
    }

    /// Emits every trend window both separated streams now cover, then
    /// trims consumed buffer history.
    fn emit_ready(&mut self) -> Vec<Spo2Sample> {
        let mut out = Vec::new();
        let covered = self.samples_separated();
        while self.next_window + self.cfg.trend_window <= covered {
            let off = self.next_window - self.buf_start;
            out.push(window_sample(
                [&self.fetal[0], &self.fetal[1]],
                [&self.raw[0], &self.raw[1]],
                self.next_window,
                off,
                &self.cfg,
            ));
            self.next_window += self.cfg.trend_hop;
        }
        self.windows_emitted += out.len() as u64;
        // History below the next window start is never read again.
        let keep_from = self.next_window.saturating_sub(self.buf_start);
        if keep_from > 0 {
            for li in 0..2 {
                self.raw[li].drain(..keep_from.min(self.raw[li].len()));
                self.fetal[li].drain(..keep_from.min(self.fetal[li].len()));
            }
            self.buf_start = self.next_window;
        }
        out
    }
}

// Oximetry sessions are owned by serving-runtime worker threads, exactly
// like plain separation sessions.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<StreamingOximeter>();
    assert_send::<OximetryConfig>();
    assert_send::<Spo2Sample>();
    assert_send::<OximetryError>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use dhf_dsp::stats::mean;
    use dhf_synth::dualwave::{generate, DualWaveConfig, Spo2Scenario};
    use dhf_synth::invivo::{CALIBRATION_K, CALIBRATION_W0, CALIBRATION_W1};

    fn forward_calibration() -> Calibration {
        Calibration { w0: CALIBRATION_W0, w1: CALIBRATION_W1, k: CALIBRATION_K }
    }

    #[test]
    fn config_validates_parameters() {
        let cal = Calibration::default();
        assert!(matches!(
            OximetryConfig::new(1, 0, 1, cal),
            Err(OximetryError::Config { name: "trend_window", .. })
        ));
        assert!(matches!(
            OximetryConfig::new(1, 100, 0, cal),
            Err(OximetryError::Config { name: "trend_hop", .. })
        ));
        assert!(matches!(
            OximetryConfig::new(1, 100, 101, cal),
            Err(OximetryError::Config { name: "trend_hop", .. })
        ));
        assert!(OximetryConfig::new(1, 100, 50, cal).is_ok());
    }

    #[test]
    fn ema_detrend_is_split_invariant_and_removes_dc() {
        let raw: Vec<f64> =
            (0..2000).map(|i| 5.0 + 0.001 * i as f64 + 0.3 * (i as f64 * 0.13).sin()).collect();
        let alpha = 0.005;
        let whole = ema_detrend(&raw, alpha, &mut None);
        // Split into uneven pieces with carried state.
        let mut state = None;
        let mut pieces = Vec::new();
        for chunk in [300usize, 7, 693, 1000].iter().scan(0usize, |lo, &n| {
            let r = *lo..*lo + n;
            *lo += n;
            Some(r)
        }) {
            pieces.extend(ema_detrend(&raw[chunk], alpha, &mut state));
        }
        assert_eq!(whole, pieces, "detrending must not depend on push granularity");
        // The 5.0 static offset is gone after convergence; what remains is
        // the one-pole tracker's steady-state ramp lag, slope/alpha = 0.2.
        let tail_mean = mean(&whole[1000..]);
        assert!((tail_mean - 0.2).abs() < 0.05, "residual {tail_mean} should be the ramp lag");
    }

    #[test]
    fn oracle_trend_tracks_a_desaturation_event() {
        // Ground-truth fetal components through the windowing stage only:
        // validates the trend math end to end without separation cost.
        let rec = generate(&DualWaveConfig::new(Spo2Scenario::desaturation(0.55, 0.35), 120.0));
        let fs = rec.config.fs;
        let cfg = OximetryConfig::new(
            1,
            (20.0 * fs) as usize,
            (5.0 * fs) as usize,
            forward_calibration(),
        )
        .unwrap();
        let trend = spo2_trend_from_components(
            [&rec.fetal_truth[0], &rec.fetal_truth[1]],
            [&rec.mixed[0], &rec.mixed[1]],
            &cfg,
        )
        .unwrap();
        assert!(trend.len() > 10, "expected a dense trend, got {}", trend.len());
        let mut errs = Vec::new();
        for s in &trend {
            let truth = mean(&rec.sao2[s.start..s.start + s.len]);
            errs.push((s.spo2 - truth).abs());
        }
        let mean_err = mean(&errs);
        assert!(mean_err < 0.03, "oracle mean |SpO2 err| {mean_err:.4}");
        // The event is visible: the trend minimum sits near the nadir.
        let min = trend.iter().map(|s| s.spo2).fold(f64::INFINITY, f64::min);
        assert!((min - 0.35).abs() < 0.06, "trend nadir {min:.3}");
    }

    #[test]
    fn offline_pipeline_rejects_inconsistent_inputs() {
        let cal = Calibration::default();
        let cfg = OximetryConfig::new(2, 100, 50, cal).unwrap();
        let a = vec![0.0; 200];
        let b = vec![0.0; 199];
        let tracks = vec![vec![1.3; 200], vec![2.2; 200]];
        assert!(matches!(
            estimate_spo2_trend([&a, &b], 100.0, &tracks, &DhfConfig::fast(), &cfg),
            Err(OximetryError::ChannelLengthMismatch { lambda1: 200, lambda2: 199 })
        ));
        // fetal_source = 2 does not address one of the two tracks.
        assert!(matches!(
            estimate_spo2_trend([&a, &a], 100.0, &tracks, &DhfConfig::fast(), &cfg),
            Err(OximetryError::FetalSourceOutOfRange { fetal_source: 2, n_sources: 2 })
        ));
    }

    #[test]
    fn streaming_oximeter_validates_inputs() {
        let scfg = StreamingConfig::new(3000, 600, DhfConfig::fast()).unwrap();
        let ocfg = OximetryConfig::new(3, 2000, 500, Calibration::default()).unwrap();
        assert!(matches!(
            StreamingOximeter::new(100.0, 2, scfg.clone(), ocfg),
            Err(OximetryError::FetalSourceOutOfRange { fetal_source: 3, n_sources: 2 })
        ));

        let ocfg = OximetryConfig::new(1, 2000, 500, Calibration::default()).unwrap();
        let mut ox = StreamingOximeter::new(100.0, 2, scfg, ocfg).unwrap();
        let (l1, l2) = (vec![1.0; 100], vec![1.2; 99]);
        let t = vec![1.3; 100];
        assert!(matches!(
            ox.push([&l1, &l2], &[&t, &t]),
            Err(OximetryError::ChannelLengthMismatch { lambda1: 100, lambda2: 99 })
        ));
        // A rejected push buffers nothing on either channel.
        assert_eq!(ox.samples_ingested(), 0);
        // A track-validation failure from the separators also buffers
        // nothing (λ1 is validated before λ2 is touched).
        let l2 = vec![1.2; 100];
        let bad = vec![-1.0; 100];
        assert!(matches!(ox.push([&l1, &l2], &[&t, &bad]), Err(OximetryError::Stream(_))));
        assert_eq!(ox.samples_ingested(), 0);
    }

    #[test]
    fn streaming_emits_windows_with_bounded_latency() {
        // Cheap end-to-end sanity at unit scale: a short recording with
        // the deterministic in-painter; the workspace-level e2e test
        // bounds accuracy, this one checks cadence and accounting.
        let rec =
            generate(&DualWaveConfig::new(Spo2Scenario::Constant { spo2: 0.5 }, 90.0).with_seed(7));
        let fs = rec.config.fs;
        let n = rec.len();
        let scfg =
            StreamingConfig::new(3000, 600, DhfConfig::fast().with_harmonic_interp()).unwrap();
        let ocfg = OximetryConfig::new(
            1,
            (20.0 * fs) as usize,
            (10.0 * fs) as usize,
            forward_calibration(),
        )
        .unwrap();
        let mut ox = StreamingOximeter::new(fs, 2, scfg, ocfg).unwrap();
        let max_latency = ox.max_latency_samples();

        let mut got = Vec::new();
        for lo in (0..n).step_by(500) {
            let hi = (lo + 500).min(n);
            let tracks: [&[f64]; 2] = [&rec.f0.maternal[lo..hi], &rec.f0.fetal[lo..hi]];
            let updates = ox.push([&rec.mixed[0][lo..hi], &rec.mixed[1][lo..hi]], &tracks).unwrap();
            for s in &updates {
                assert_eq!(
                    s.start,
                    got.len() * ox.config().trend_hop,
                    "windows must arrive in order at the configured hop"
                );
                got.push(*s);
            }
            // Latency bound: every window fully older than one chunk +
            // one trend window has been emitted.
            let emitted_through = got.len() * ox.config().trend_hop;
            assert!(
                emitted_through + max_latency + ox.config().trend_hop > hi,
                "window latency exceeded at {hi}: emitted through {emitted_through}"
            );
        }
        let fin = ox.flush().unwrap();
        assert_eq!(fin.dropped_samples, 0);
        got.extend(fin.samples);
        // Every completable window came out.
        let expected = (n - ox.config().trend_window) / ox.config().trend_hop + 1;
        assert_eq!(got.len(), expected);
        assert_eq!(ox.windows_emitted(), expected as u64);
        assert!(got.iter().all(|s| s.spo2.is_finite() && s.ratio.is_finite()));
        // The harmonic-interp bypass never touches the deep prior, so the
        // warm/cold fit books stay empty.
        assert_eq!(ox.warm_hits() + ox.cold_fits(), 0);
        assert_eq!(ox.warm_resident(), 0);
    }

    #[test]
    fn streaming_is_invariant_to_push_granularity() {
        let rec = generate(
            &DualWaveConfig::new(Spo2Scenario::Constant { spo2: 0.55 }, 70.0).with_seed(3),
        );
        let fs = rec.config.fs;
        let n = rec.len();
        let scfg =
            StreamingConfig::new(3000, 400, DhfConfig::fast().with_harmonic_interp()).unwrap();
        let ocfg = OximetryConfig::new(
            1,
            (15.0 * fs) as usize,
            (5.0 * fs) as usize,
            forward_calibration(),
        )
        .unwrap();

        let run = |pieces: &[usize]| {
            let mut ox = StreamingOximeter::new(fs, 2, scfg.clone(), ocfg.clone()).unwrap();
            let mut got = Vec::new();
            let mut lo = 0usize;
            for &piece in pieces.iter().cycle() {
                if lo >= n {
                    break;
                }
                let hi = (lo + piece).min(n);
                let tracks: [&[f64]; 2] = [&rec.f0.maternal[lo..hi], &rec.f0.fetal[lo..hi]];
                got.extend(
                    ox.push([&rec.mixed[0][lo..hi], &rec.mixed[1][lo..hi]], &tracks).unwrap(),
                );
                lo = hi;
            }
            got.extend(ox.flush().unwrap().samples);
            got
        };
        let a = run(&[n]);
        let b = run(&[333, 1000, 77, 2590]);
        assert_eq!(a, b, "trend must not depend on push granularity");
    }
}
