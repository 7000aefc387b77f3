//! The multi-round DHF separation pipeline (paper Fig. 1).

use crate::align::{PatternAligner, UnwarpedSignal};
use crate::inpaint::{inpaint_magnitude, InpaintConfig, InpaintMethod, WarmEvent, WarmSlot};
use crate::mask::{target_comb_gain, HarmonicMask};
use crate::phase::reconstruct_hidden_cells;
use crate::DhfError;
use dhf_dsp::stft::{Spectrogram, StftConfig, StftEngine};
use dhf_dsp::tracks::check_tracks;
use dhf_dsp::Complex;
use dhf_nn::{ConvKind, NetConfig, TrainReport};

/// Configuration of the full DHF pipeline.
///
/// Defaults follow the paper: unwarped target fundamental locked at 1 Hz,
/// STFT window of 8 target periods, masks over the first five interferer
/// harmonics, deep-prior in-painting with time dilation 13 or 15 chosen
/// by masking situation (§4.2).
#[derive(Debug, Clone, PartialEq)]
pub struct DhfConfig {
    /// Unwarped sampling rate in samples per target cycle.
    pub fs_prime: f64,
    /// Unwarped STFT window (samples).
    pub window: usize,
    /// Unwarped STFT hop (samples).
    pub hop: usize,
    /// Interferer harmonics concealed per source.
    pub mask_harmonics: usize,
    /// Half-width of each concealed band (unwarped Hz).
    pub mask_bandwidth_hz: f64,
    /// In-painting settings.
    pub inpaint: InpaintConfig,
    /// Number of target harmonics the output comb keeps on full-window
    /// rounds (additionally capped so the comb never reaches beyond
    /// [`DhfConfig::max_source_hz`] in original-space frequency).
    pub comb_harmonics: usize,
    /// Half-width of each comb tooth (unwarped Hz).
    pub comb_bandwidth_hz: f64,
    /// Highest original-space frequency any source is expected to occupy
    /// (the paper band-limits everything to 12 Hz, §4.2).
    pub max_source_hz: f64,
    /// Time dilation used when the hidden fraction is small.
    pub dilation_low: usize,
    /// Time dilation used when the hidden fraction is large (longer
    /// masked sections need a longer temporal reach, §4.2).
    pub dilation_high: usize,
    /// Hidden-fraction threshold switching between the two dilations.
    pub dilation_switch: f64,
}

impl Default for DhfConfig {
    fn default() -> Self {
        DhfConfig {
            fs_prime: 16.0,
            window: 128,
            hop: 32,
            mask_harmonics: 5,
            mask_bandwidth_hz: 0.16,
            inpaint: InpaintConfig::default(),
            comb_harmonics: 7,
            comb_bandwidth_hz: 0.22,
            max_source_hz: 12.0,
            dilation_low: 13,
            dilation_high: 15,
            dilation_switch: 0.35,
        }
    }
}

impl DhfConfig {
    /// A reduced-cost configuration for tests and doc examples: smaller
    /// network, fewer iterations, shorter window. Quality is lower than
    /// [`DhfConfig::default`] but the pipeline structure is identical.
    pub fn fast() -> Self {
        DhfConfig {
            window: 64,
            hop: 16,
            inpaint: InpaintConfig {
                iterations: dhf_nn::FitParams::FAST.iterations,
                net: NetConfig {
                    base_channels: 4,
                    depth: 1,
                    conv: ConvKind::Harmonic { harmonics: 3, kt: 3, anchor: 1, dil_t: 4 },
                    ..NetConfig::default()
                },
                ..InpaintConfig::default()
            },
            dilation_low: 4,
            dilation_high: 6,
            ..DhfConfig::default()
        }
    }

    /// Uses the deterministic harmonic-interpolation in-painter instead
    /// of the deep prior (ablation mode).
    pub fn with_harmonic_interp(mut self) -> Self {
        self.inpaint.method = InpaintMethod::HarmonicInterp;
        self
    }
}

/// Diagnostics of one separation round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundReport {
    /// Which source (index into the supplied tracks) this round targeted.
    pub source_index: usize,
    /// Fraction of spectrogram cells concealed by the mask.
    pub hidden_fraction: f64,
    /// Time dilation the round selected.
    pub dilation: usize,
    /// Deep-prior training summary (None for harmonic interpolation).
    pub train: Option<TrainReport>,
    /// Whether the deep-prior fit was warm-started (`Some(true)`), fit
    /// cold (`Some(false)`), or never ran (`None` — harmonic
    /// interpolation or an all-zero image).
    pub warm_started: Option<bool>,
    /// Unwarped spectrogram extents.
    pub bins: usize,
    /// Unwarped spectrogram frames.
    pub frames: usize,
    /// Hidden-cell flags (bin-major), for masked-energy-ratio analysis.
    /// Empty when the round ran with
    /// [`RoundContext::set_collect_reports`]`(false)`.
    pub hidden: Vec<bool>,
    /// Magnitude of the round's input (residual) spectrogram, bin-major.
    /// Empty when the round ran with
    /// [`RoundContext::set_collect_reports`]`(false)`.
    pub residual_magnitude: Vec<f64>,
}

/// Output of [`separate`].
#[derive(Debug, Clone, PartialEq)]
pub struct SeparationResult {
    /// Estimated sources, in the same order as the supplied tracks.
    pub sources: Vec<Vec<f64>>,
    /// Per-round diagnostics, in peeling order.
    pub rounds: Vec<RoundReport>,
}

/// Runs the full iterative DHF separation.
///
/// `f0_tracks` holds one fundamental-frequency track per source (one
/// value per sample, strictly positive). All tracks are checked up
/// front with [`check_tracks`], so a bad track fails with its exact
/// location before any round spends its deep-prior budget.
///
/// # Errors
///
/// Returns [`DhfError::Tracks`] for tracks that break the contract, or
/// [`DhfError::InputTooShort`] for signals too short to unwarp into one
/// analysis window.
pub fn separate(
    mixed: &[f64],
    fs: f64,
    f0_tracks: &[Vec<f64>],
    cfg: &DhfConfig,
) -> Result<SeparationResult, DhfError> {
    RoundContext::new(cfg).separate(mixed, fs, f0_tracks, 0)
}

/// Reusable machinery for DHF rounds: owns the [`StftEngine`] (cached FFT
/// plans, window and frame scratch), the SoA [`Spectrogram`] workspace,
/// and every spectrogram-sized work buffer (magnitude image, mask, loss
/// mask) so that running many rounds — the offline multi-round loop,
/// or one round per chunk in the streaming engine — re-allocates nothing
/// on the hot path. Serving workers keep one context per session, so the
/// FFT plan cache and the spectral buffers stay warm together.
#[derive(Debug)]
pub struct RoundContext {
    cfg: DhfConfig,
    engine: StftEngine,
    /// Reused SoA spectrogram workspace (overwritten by each round's STFT,
    /// then mutated in place through masking, in-painting and phase
    /// restoration).
    spec: Spectrogram,
    /// Reused bin-major magnitude image.
    magnitude: Vec<f64>,
    /// Reused harmonic mask (rebuilt in place each round).
    mask: HarmonicMask,
    /// Reused bin-major `f32` visibility image for the in-painting loss.
    mask_f32: Vec<f32>,
    /// Reused interferer ridge ratios (one inner vec per interferer).
    ratios: Vec<Vec<f64>>,
    /// Reused unwarped-domain resynthesis buffer.
    y_un: Vec<f64>,
    /// Reused residual buffer for the multi-round loop.
    residual: Vec<f64>,
    /// Reused per-round in-painting config (seed/dilation overwritten).
    icfg: InpaintConfig,
    /// Reused half-spectrum scratch for the peel-order band energies.
    band_half: Vec<Complex>,
    /// Whether [`RoundReport`]s carry their heavy diagnostic payloads
    /// (hidden-cell flags, residual magnitude image).
    collect_reports: bool,
    /// Warm-start slots, one per source index: each holds the deep prior
    /// trained by that source's previous round so the next round can
    /// fine-tune instead of refitting ([`InpaintConfig::warm`]).
    warm_slots: Vec<WarmSlot>,
    /// Deep-prior fits resumed from a resident net.
    warm_hits: u64,
    /// Deep-prior fits trained from scratch.
    cold_fits: u64,
}

// A session's context (with its cached FFT plans and reused buffers)
// migrates to its owning worker thread in the serving runtime.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<RoundContext>();
    assert_send::<DhfConfig>();
};

impl RoundContext {
    /// Creates a context for the given configuration. Buffers start empty
    /// and grow to the working size on the first round.
    pub fn new(cfg: &DhfConfig) -> Self {
        RoundContext {
            cfg: cfg.clone(),
            engine: StftEngine::new(),
            spec: Spectrogram::workspace(),
            magnitude: Vec::new(),
            mask: HarmonicMask::empty(),
            mask_f32: Vec::new(),
            ratios: Vec::new(),
            y_un: Vec::new(),
            residual: Vec::new(),
            icfg: cfg.inpaint.clone(),
            band_half: Vec::new(),
            collect_reports: true,
            warm_slots: Vec::new(),
            warm_hits: 0,
            cold_fits: 0,
        }
    }

    /// The pipeline configuration this context was built for.
    pub fn config(&self) -> &DhfConfig {
        &self.cfg
    }

    /// Enables or disables the heavy [`RoundReport`] payloads
    /// (`hidden`, `residual_magnitude`). Scalar diagnostics (hidden
    /// fraction, dilation, training summary) are always filled. Callers
    /// on a throughput-critical path — one separation per streaming
    /// chunk — turn this off to keep the hot loop free of
    /// spectrogram-sized clones; offline analysis keeps the default
    /// (`true`).
    pub fn set_collect_reports(&mut self, enabled: bool) {
        self.collect_reports = enabled;
    }

    /// Number of FFT plans built so far by the context's engine; stays
    /// constant once every transform size in play has been seen (the
    /// plan-cache reuse invariant the throughput bench checks).
    pub fn fft_plans_built(&self) -> usize {
        self.engine.planner().plans_built()
    }

    /// Deep-prior fits resumed from a resident net (monotone over the
    /// context's lifetime).
    pub fn warm_hits(&self) -> u64 {
        self.warm_hits
    }

    /// Deep-prior fits trained from scratch (monotone over the context's
    /// lifetime).
    pub fn cold_fits(&self) -> u64 {
        self.cold_fits
    }

    /// Number of sources with a trained deep prior currently resident.
    pub fn warm_resident(&self) -> usize {
        self.warm_slots.iter().filter(|s| s.is_warm()).count()
    }

    /// Drops every resident deep prior. The next round per source fits
    /// cold — callers use this to make a reused context behave like a
    /// fresh one (the streaming engine's `reset`).
    pub fn clear_warm_state(&mut self) {
        for slot in &mut self.warm_slots {
            slot.clear();
        }
    }

    /// Full multi-round separation, reusing this context's buffers.
    ///
    /// `salt_base` offsets the per-round seed decorrelation; callers
    /// running many separations that must not share deep-prior noise
    /// (e.g. successive streaming chunks) pass distinct bases.
    ///
    /// # Errors
    ///
    /// Same conditions as [`separate`].
    pub fn separate(
        &mut self,
        mixed: &[f64],
        fs: f64,
        f0_tracks: &[Vec<f64>],
        salt_base: u64,
    ) -> Result<SeparationResult, DhfError> {
        let refs: Vec<&[f64]> = f0_tracks.iter().map(Vec::as_slice).collect();
        self.separate_refs(mixed, fs, &refs, salt_base)
    }

    /// Slice-based variant of [`RoundContext::separate`]: borrows the f0
    /// tracks, so callers windowing longer tracks (the streaming engine's
    /// chunks) separate without copying them first.
    ///
    /// # Errors
    ///
    /// Same conditions as [`separate`].
    pub fn separate_refs(
        &mut self,
        mixed: &[f64],
        fs: f64,
        f0_tracks: &[&[f64]],
        salt_base: u64,
    ) -> Result<SeparationResult, DhfError> {
        {
            let _span = dhf_obs::span(dhf_obs::Stage::TrackValidate);
            check_tracks(f0_tracks.len(), mixed.len(), f0_tracks)?;
        }

        let order = self.peel_order(mixed, fs, f0_tracks);
        let mut residual = std::mem::take(&mut self.residual);
        residual.clear();
        residual.extend_from_slice(mixed);
        let mut sources = vec![Vec::new(); f0_tracks.len()];
        let mut rounds = Vec::with_capacity(order.len());

        for (round_idx, &si) in order.iter().enumerate() {
            let round = self.run_round(&residual, fs, f0_tracks, si, salt_base + round_idx as u64);
            let (estimate, report) = match round {
                Ok(r) => r,
                Err(e) => {
                    self.residual = residual;
                    return Err(e);
                }
            };
            let nmin = residual.len().min(estimate.len());
            dhf_dsp::simd::sub_in_place(&mut residual[..nmin], &estimate[..nmin]);
            sources[si] = estimate;
            rounds.push(report);
        }
        self.residual = residual;
        Ok(SeparationResult { sources, rounds })
    }

    /// Decides the peeling order: strongest first, judged by the mixed
    /// signal's spectral energy in each source's fundamental band (the
    /// paper separates the dominant maternal signal before the weak fetal
    /// one). Band energies are scored through the context's reused
    /// half-spectrum scratch (the transforms themselves go to the shared
    /// thread-local planner — see [`RoundContext::band_energy`]).
    fn peel_order(&mut self, mixed: &[f64], fs: f64, f0_tracks: &[&[f64]]) -> Vec<usize> {
        // One full-signal spectrum serves every track's score: the
        // transform does not depend on the band, only the scoring range
        // does, so hoisting it replaces `n` identical (expensive,
        // Bluestein-sized) real FFTs with one.
        let n = f0_tracks.len();
        dhf_dsp::fft::with_thread_planner(|p| p.rfft_into(mixed, &mut self.band_half));
        let mut scored: Vec<(f64, usize)> = (0..n)
            .map(|i| {
                let t = f0_tracks[i];
                let (lo, hi) =
                    t.iter().fold((f64::MAX, f64::MIN), |(l, h), &v| (l.min(v), h.max(v)));
                (self.band_energy(mixed.len(), fs, (lo - 0.1).max(0.01), hi + 0.1), i)
            })
            .collect();
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        scored.into_iter().map(|(_, i)| i).collect()
    }

    /// Spectral energy inside `[lo, hi]` Hz of the half spectrum cached in
    /// `band_half` by the caller ([`RoundContext::peel_order`] transforms
    /// the signal once on the thread-local planner — the transform size
    /// differs from every STFT frame size, and sharing the planner per
    /// worker thread keeps its large Bluestein plan warm across
    /// short-lived contexts too). `n` is the original signal length.
    ///
    /// Bin frequency `k·fs/n` is monotone in `k`, so the included bins are
    /// one contiguous run, summed with the deterministic reduction kernel
    /// over the complex buffer's raw lanes (`Σ re² + im²`).
    fn band_energy(&self, n: usize, fs: f64, lo: f64, hi: f64) -> f64 {
        let f_of = |k: usize| k as f64 * fs / n as f64;
        let bins = self.band_half.len();
        let Some(k0) = (0..bins).find(|&k| f_of(k) >= lo) else {
            return 0.0;
        };
        if f_of(k0) > hi {
            return 0.0;
        }
        let k1 = (k0..bins).take_while(|&k| f_of(k) <= hi).last().unwrap_or(k0);
        dhf_dsp::simd::sum_sq(dhf_dsp::simd::complex_lanes(&self.band_half[k0..=k1]))
    }

    /// One DHF round targeting source `si` of the given residual
    /// (unwarp → mask → in-paint → phase → resynthesize → restore).
    ///
    /// # Errors
    ///
    /// Returns [`DhfError::InputTooShort`] when the unwarped residual does
    /// not cover one analysis window, plus any alignment or network error.
    pub fn run_round(
        &mut self,
        residual: &[f64],
        fs: f64,
        f0_tracks: &[&[f64]],
        si: usize,
        round_salt: u64,
    ) -> Result<(Vec<f64>, RoundReport), DhfError> {
        let cfg = &self.cfg;
        let target_track = f0_tracks[si];
        let aligner = PatternAligner::new(target_track, fs, cfg.fs_prime)?;
        let un = aligner.unwarp(residual)?;

        // Low-fundamental targets (e.g. respiration) cover few cycles, so
        // the configured window would leave only a handful of frames;
        // shrink it until the spectrogram has a usable time axis
        // (≥ 4 windows).
        let mut window = cfg.window;
        let mut hop = cfg.hop;
        while window > 32 && un.len() < 8 * window {
            window /= 2;
            hop = (window / 4).max(1);
        }
        if un.len() < window + hop {
            return Err(DhfError::InputTooShort { needed: window + hop, got: un.len() });
        }

        let stft_cfg = StftConfig::new(window, hop, cfg.fs_prime)?;
        self.engine.stft_into(&un.samples, &stft_cfg, &mut self.spec)?;
        let bins = self.spec.bins();
        let frames = self.spec.frames();

        // Mask build: interferer ridge ratios, magnitude extraction, and
        // the mask rebuild, timed as one stage.
        let mask_span = dhf_obs::span(dhf_obs::Stage::MaskBuild);

        // Interferer ridges: frequency ratios at each frame centre. Inner
        // vectors are reused round to round.
        let mut ri = 0usize;
        for (j, other) in f0_tracks.iter().enumerate() {
            if j == si {
                continue;
            }
            if self.ratios.len() <= ri {
                self.ratios.push(Vec::new());
            }
            let per_frame = &mut self.ratios[ri];
            per_frame.clear();
            per_frame.extend((0..frames).map(|m| {
                let centre = (m * hop + window / 2).min(un.len() - 1);
                let t_orig = un.timestamps[centre];
                aligner.warped_frequency(other, target_track, t_orig)
            }));
            ri += 1;
        }
        self.ratios.truncate(ri);

        // Interferer ridges wander further (in unwarped Hz) within the
        // longer original-time windows of shrunk rounds, so the concealed
        // band widens proportionally.
        let mask_bw = cfg.mask_bandwidth_hz * (cfg.window as f64 / window as f64);
        self.spec.magnitude_into(&mut self.magnitude);
        self.mask.rebuild(
            &stft_cfg,
            frames,
            &self.ratios,
            cfg.mask_harmonics,
            mask_bw,
            &self.magnitude,
        );
        let hidden_fraction = self.mask.hidden_fraction();
        drop(mask_span);

        // Dilation by masking situation (§4.2), capped so the receptive
        // field stays inside the spectrogram.
        let wanted = if hidden_fraction > cfg.dilation_switch {
            cfg.dilation_high
        } else {
            cfg.dilation_low
        };
        let dilation = wanted.min((frames / 4).max(1));

        // Per-round in-painting config (a reused copy of `cfg.inpaint`):
        // inject dilation and decorrelate seeds across rounds.
        self.icfg.seed = cfg.inpaint.seed.wrapping_add(round_salt.wrapping_mul(0x9E37_79B9));
        if let ConvKind::Harmonic { harmonics, kt, anchor, .. } = cfg.inpaint.net.conv {
            self.icfg.net.conv = ConvKind::Harmonic { harmonics, kt, anchor, dil_t: dilation };
        }

        self.mask.write_f32_into(&mut self.mask_f32);
        // The per-round deep-prior fit — the dominant full-config cost
        // (ROADMAP item 4). A failed fit still records its time. The
        // warm slot is keyed by source index: round order may change
        // between separations, but source `si`'s prior always resumes
        // source `si`'s weights.
        while self.warm_slots.len() <= si {
            self.warm_slots.push(WarmSlot::default());
        }
        let fit_span = dhf_obs::span(dhf_obs::Stage::NnFit);
        let (outcome, warm_event) = inpaint_magnitude(
            &self.magnitude,
            bins,
            frames,
            &self.mask_f32,
            &self.icfg,
            &mut self.warm_slots[si],
        )?;
        drop(fit_span);
        match warm_event {
            WarmEvent::Warm => self.warm_hits += 1,
            WarmEvent::Cold => self.cold_fits += 1,
            WarmEvent::Bypass => {}
        }

        // Cyclic phase interpolation across the concealed cells (§3.4).
        // Both in-painters keep every visible cell's magnitude, so a
        // visible cell is entirely unchanged: only the concealed cells get
        // phases interpolated and coefficients rebuilt in place.
        let apply_span = dhf_obs::span(dhf_obs::Stage::MaskApply);
        reconstruct_hidden_cells(&mut self.spec, &self.mask, &outcome.magnitude);

        // Comb restriction: keep only the target's harmonic rows. The
        // unwarped target fundamental is locked at 1 Hz, so the target's
        // energy lies on its harmonic rows; the comb drops what the image
        // holds between them (interferer leakage and noise). Rounds that
        // shrank the window target a slow dominant source whose
        // per-period amplitude variation spreads energy *between*
        // harmonic rows; a comb would discard those sidebands, so it only
        // applies to full-window rounds.
        if window == cfg.window {
            // Tooth count stops at the band limit so pure-noise rows are
            // not resynthesized.
            let mean_f0 = target_track.iter().sum::<f64>() / target_track.len() as f64;
            let comb_harmonics = if mean_f0 > 0.0 {
                cfg.comb_harmonics.min(((cfg.max_source_hz / mean_f0).floor() as usize).max(1))
            } else {
                cfg.comb_harmonics
            };
            let gain = target_comb_gain(&stft_cfg, comb_harmonics, cfg.comb_bandwidth_hz);
            self.spec.scale_bins(&gain);
        }
        drop(apply_span);

        self.engine.istft_into(&self.spec, &mut self.y_un);
        let resynth =
            UnwarpedSignal { samples: std::mem::take(&mut self.y_un), timestamps: un.timestamps };
        let estimate = aligner.restore(&resynth)?;
        self.y_un = resynth.samples;

        let report = RoundReport {
            source_index: si,
            hidden_fraction,
            dilation,
            train: outcome.report,
            warm_started: match warm_event {
                WarmEvent::Warm => Some(true),
                WarmEvent::Cold => Some(false),
                WarmEvent::Bypass => None,
            },
            bins,
            frames,
            hidden: if self.collect_reports { self.mask.hidden_flags() } else { Vec::new() },
            residual_magnitude: if self.collect_reports {
                self.magnitude.clone()
            } else {
                Vec::new()
            },
        };
        Ok((estimate, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dhf_dsp::tracks::TrackError;
    use dhf_metrics::{sdr_db, si_sdr_db};

    /// Quasi-periodic two-source mix with frequency variation and
    /// *transient* harmonic crossovers: the tracks drift independently so
    /// the ratio `f2/f1` sweeps through 2.0 instead of locking there
    /// (matching Table 1's drifting bands — a permanent integer lock
    /// would make the sources unidentifiable for any method).
    fn make_mix(fs: f64, n: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<Vec<f64>>) {
        let track1: Vec<f64> = (0..n)
            .map(|i| 1.35 + 0.30 * (i as f64 / n as f64 * std::f64::consts::TAU * 2.0).sin())
            .collect();
        let track2: Vec<f64> = (0..n)
            .map(|i| 2.50 + 0.45 * (i as f64 / n as f64 * std::f64::consts::TAU * 3.0).cos())
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
        let mix: Vec<f64> = s1.iter().zip(&s2).map(|(a, b)| a + b).collect();
        (mix, s1, s2, vec![track1, track2])
    }

    #[test]
    fn separates_two_source_mix_better_than_nothing() {
        let fs = 100.0;
        let n = 6000;
        let (mix, s1, s2, tracks) = make_mix(fs, n);
        let res = separate(&mix, fs, &tracks, &DhfConfig::fast()).unwrap();
        assert_eq!(res.sources.len(), 2);
        assert_eq!(res.rounds.len(), 2);
        let lo = 500;
        let hi = n - 500;
        let sdr1 = si_sdr_db(&s1[lo..hi], &res.sources[0][lo..hi]);
        let sdr2 = si_sdr_db(&s2[lo..hi], &res.sources[1][lo..hi]);
        // The mix itself scores poorly as an estimate of each source;
        // DHF must do clearly better (the weak source especially — using
        // the mix as its estimate is ~ -9 dB).
        let base1 = si_sdr_db(&s1[lo..hi], &mix[lo..hi]);
        let base2 = si_sdr_db(&s2[lo..hi], &mix[lo..hi]);
        assert!(sdr1 > base1 + 1.0, "source1: {sdr1} vs baseline {base1}");
        assert!(sdr2 > base2 + 6.0, "source2: {sdr2} vs baseline {base2}");
        assert!(sdr2 > 0.0, "weak source must be positively separated, got {sdr2}");
    }

    #[test]
    fn harmonic_interp_mode_runs_and_helps() {
        let fs = 100.0;
        let n = 6000;
        let (mix, s1, s2, tracks) = make_mix(fs, n);
        let cfg = DhfConfig::fast().with_harmonic_interp();
        let res = separate(&mix, fs, &tracks, &cfg).unwrap();
        let lo = 500;
        let hi = n - 500;
        // The deterministic in-painter lacks the harmonic prior, but must
        // still pull the weak source out of the mix.
        let sdr1 = si_sdr_db(&s1[lo..hi], &res.sources[0][lo..hi]);
        let sdr2 = si_sdr_db(&s2[lo..hi], &res.sources[1][lo..hi]);
        let base2 = si_sdr_db(&s2[lo..hi], &mix[lo..hi]);
        assert!(sdr1 > 4.0, "strong source sanity floor, got {sdr1}");
        assert!(sdr2 > base2 + 3.0, "weak source: {sdr2} vs baseline {base2}");
        // No training reports in this mode.
        assert!(res.rounds.iter().all(|r| r.train.is_none()));
    }

    #[test]
    fn energy_order_peels_strong_source_first() {
        let fs = 100.0;
        let n = 6000;
        let (mix, _s1, _s2, tracks) = make_mix(fs, n);
        let mut ctx = RoundContext::new(&DhfConfig::fast());
        let strong_first: Vec<&[f64]> = vec![&tracks[0], &tracks[1]];
        assert_eq!(ctx.peel_order(&mix, fs, &strong_first), vec![0, 1]);
        // Supplied weak-first, the strong source (now index 1) still goes
        // first.
        let weak_first: Vec<&[f64]> = vec![&tracks[1], &tracks[0]];
        assert_eq!(ctx.peel_order(&mix, fs, &weak_first), vec![1, 0]);
    }

    #[test]
    fn rounds_report_masking_diagnostics() {
        let fs = 100.0;
        let n = 6000;
        let (mix, _, _, tracks) = make_mix(fs, n);
        let res = separate(&mix, fs, &tracks, &DhfConfig::fast()).unwrap();
        for r in &res.rounds {
            assert!(r.hidden_fraction > 0.0 && r.hidden_fraction < 0.9);
            assert_eq!(r.hidden.len(), r.bins * r.frames);
            assert_eq!(r.residual_magnitude.len(), r.bins * r.frames);
            assert!(r.dilation >= 1);
        }
    }

    #[test]
    fn validates_inputs() {
        let cfg = DhfConfig::fast();
        assert!(matches!(
            separate(&[0.0; 100], 100.0, &[], &cfg),
            Err(DhfError::Tracks(TrackError::Missing))
        ));
        let bad = vec![vec![1.0; 50]];
        assert!(matches!(
            separate(&[0.0; 100], 100.0, &bad, &cfg),
            Err(DhfError::Tracks(TrackError::Length { track: 0, expected: 100, got: 50 }))
        ));
        // Too short to unwarp into one window.
        let short_tracks = vec![vec![1.0; 100]];
        assert!(matches!(
            separate(&[0.0; 100], 100.0, &short_tracks, &cfg),
            Err(DhfError::InputTooShort { .. })
        ));
    }

    #[test]
    fn validates_tracks_up_front_with_location() {
        let fs = 100.0;
        let n = 6000;
        let (mix, _, _, tracks) = make_mix(fs, n);

        // A non-positive value deep inside the *second* track fails
        // immediately with its exact location — before round 1 spends its
        // deep-prior budget on the strong source.
        let mut bad = tracks.clone();
        bad[1][1234] = 0.0;
        assert!(matches!(
            separate(&mix, fs, &bad, &DhfConfig::fast()),
            Err(DhfError::Tracks(TrackError::Value { track: 1, sample: 1234 }))
        ));

        // Non-finite values are rejected by the same gate.
        let mut nan = tracks.clone();
        nan[0][7] = f64::NAN;
        assert!(matches!(
            separate(&mix, fs, &nan, &DhfConfig::fast()),
            Err(DhfError::Tracks(TrackError::Value { track: 0, sample: 7 }))
        ));
        let mut neg = tracks;
        neg[0][0] = -1.3;
        assert!(matches!(
            separate(&mix, fs, &neg, &DhfConfig::fast()),
            Err(DhfError::Tracks(TrackError::Value { track: 0, sample: 0 }))
        ));
    }

    /// Locks the two-source `fast()` separation quality to seeded floors
    /// so pipeline refactors cannot silently degrade it. The run is fully
    /// deterministic (fixed dataset, fixed deep-prior seeds), so the
    /// floors sit ~1.5 dB under the measured values only to absorb
    /// cross-platform floating-point drift.
    #[test]
    fn fast_config_si_sdr_regression_floors() {
        // Measured on the seed implementation: strong 19.5 dB, weak 5.7 dB.
        const STRONG_FLOOR_DB: f64 = 17.5;
        const WEAK_FLOOR_DB: f64 = 4.0;
        let fs = 100.0;
        let n = 6000;
        let (mix, s1, s2, tracks) = make_mix(fs, n);
        let res = separate(&mix, fs, &tracks, &DhfConfig::fast()).unwrap();
        let lo = 500;
        let hi = n - 500;
        let sdr1 = si_sdr_db(&s1[lo..hi], &res.sources[0][lo..hi]);
        let sdr2 = si_sdr_db(&s2[lo..hi], &res.sources[1][lo..hi]);
        eprintln!("fast() regression: strong {sdr1:.2} dB, weak {sdr2:.2} dB");
        assert!(sdr1 >= STRONG_FLOOR_DB, "strong source regressed: {sdr1:.2} dB");
        assert!(sdr2 >= WEAK_FLOOR_DB, "weak source regressed: {sdr2:.2} dB");
    }

    #[test]
    fn round_context_is_reusable_across_separations() {
        let fs = 100.0;
        let n = 6000;
        let (mix, _, _, tracks) = make_mix(fs, n);
        let cfg = DhfConfig::fast().with_harmonic_interp();
        let mut ctx = RoundContext::new(&cfg);
        let first = ctx.separate(&mix, fs, &tracks, 0).unwrap();
        let plans_after_first = ctx.fft_plans_built();
        let second = ctx.separate(&mix, fs, &tracks, 0).unwrap();
        // Same input + same salt → identical output through reused buffers.
        assert_eq!(first.sources, second.sources);
        // And the second pass built no new FFT plans: every transform size
        // was already cached.
        assert_eq!(ctx.fft_plans_built(), plans_after_first);
    }

    #[test]
    fn sources_returned_in_track_order_regardless_of_peel_order() {
        let fs = 100.0;
        let n = 6000;
        let (mix, s1, _s2, tracks) = make_mix(fs, n);
        // Supply tracks weak-first; result must still align to that order.
        let swapped = vec![tracks[1].clone(), tracks[0].clone()];
        let res = separate(&mix, fs, &swapped, &DhfConfig::fast()).unwrap();
        let lo = 500;
        let hi = n - 500;
        // Index 1 now corresponds to the strong source s1.
        let sdr_strong = sdr_db(&s1[lo..hi], &res.sources[1][lo..hi]);
        let sdr_mismatched = sdr_db(&s1[lo..hi], &res.sources[0][lo..hi]);
        assert!(sdr_strong > sdr_mismatched, "{sdr_strong} vs {sdr_mismatched}");
    }
}
