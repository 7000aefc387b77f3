//! Harmonic mask construction (paper §3.3).
//!
//! In the pattern-aligned spectrogram the target source occupies constant
//! integer-frequency rows; every *other* source traces time-varying ridges
//! at `k · f_other(t)/f_target(t)` unwarped Hz. The mask conceals a band
//! around each such ridge for the first `harmonics` multiples, hiding all
//! significant interference from the in-painting loss (Eq. 9). Overlaps
//! with the target's own rows are hidden too — those crossover cells are
//! precisely what the deep prior must in-paint.

use dhf_dsp::stft::StftConfig;

/// A binary visibility mask over a `bins × frames` spectrogram
/// (bin-major). `true` = visible to the loss, `false` = concealed.
#[derive(Debug, Clone, PartialEq)]
pub struct HarmonicMask {
    bins: usize,
    frames: usize,
    visible: Vec<bool>,
}

impl HarmonicMask {
    /// An empty mask (zero bins and frames) — the placeholder a reusable
    /// round context starts from; the first [`HarmonicMask::rebuild`]
    /// overwrites shape and data.
    pub fn empty() -> Self {
        HarmonicMask { bins: 0, frames: 0, visible: Vec::new() }
    }

    /// Builds the mask for one separation round.
    ///
    /// * `cfg` — the unwarped-space STFT layout (1 unwarped Hz = target
    ///   fundamental).
    /// * `frames` — number of STFT frames.
    /// * `interferer_ratios` — for each non-target source, its frequency
    ///   ratio `f_other/f_target` evaluated at each frame centre
    ///   (`frames` values per source).
    /// * `harmonics` — how many multiples of each interferer to conceal.
    /// * `bandwidth_hz` — half-width of the concealed band in unwarped Hz.
    /// * `magnitude` — the round's bin-major `bins × frames` magnitude
    ///   image.
    ///
    /// A harmonic is concealed only when it carries energy in band: it
    /// stays visible if no frame puts its ridge at or below Nyquist, or if
    /// the magnitude along its whole in-band ridge is zero. A ridge just
    /// above Nyquist therefore hides nothing, even where its band would
    /// reach below it.
    pub fn build(
        cfg: &StftConfig,
        frames: usize,
        interferer_ratios: &[Vec<f64>],
        harmonics: usize,
        bandwidth_hz: f64,
        magnitude: &[f64],
    ) -> Self {
        let mut mask = HarmonicMask::empty();
        mask.rebuild(cfg, frames, interferer_ratios, harmonics, bandwidth_hz, magnitude);
        mask
    }

    /// In-place variant of [`HarmonicMask::build`]: overwrites this mask's
    /// shape and visibility, reusing its buffer — the per-round entry
    /// point of the pipeline's reusable round context.
    pub fn rebuild(
        &mut self,
        cfg: &StftConfig,
        frames: usize,
        interferer_ratios: &[Vec<f64>],
        harmonics: usize,
        bandwidth_hz: f64,
        magnitude: &[f64],
    ) {
        let bins = cfg.bins();
        self.bins = bins;
        self.frames = frames;
        self.visible.clear();
        self.visible.resize(bins * frames, true);
        let visible = &mut self.visible;
        for ratios in interferer_ratios {
            for k in 1..=harmonics {
                // Harmonic k stays visible when no frame puts its ridge in
                // band or the in-band ridge's mean magnitude is zero.
                let mut sum = 0.0f64;
                let mut count = 0usize;
                for (m, &ratio) in ratios.iter().take(frames).enumerate() {
                    let centre = k as f64 * ratio;
                    if ratio <= 0.0 || centre > cfg.fs() / 2.0 {
                        continue;
                    }
                    sum += magnitude[cfg.frequency_to_bin(centre) * frames + m];
                    count += 1;
                }
                if count == 0 || sum / count as f64 <= 0.0 {
                    continue;
                }
                for (m, &ratio) in ratios.iter().take(frames).enumerate() {
                    if ratio <= 0.0 {
                        continue;
                    }
                    let centre = k as f64 * ratio;
                    if centre > cfg.fs() / 2.0 + bandwidth_hz {
                        continue;
                    }
                    let lo_hz = (centre - bandwidth_hz).max(0.0);
                    let hi_hz = centre + bandwidth_hz;
                    let lo = cfg.frequency_to_bin(lo_hz);
                    let hi = cfg.frequency_to_bin(hi_hz.min(cfg.fs() / 2.0));
                    for b in lo..=hi.min(bins - 1) {
                        visible[b * frames + m] = false;
                    }
                }
            }
        }
    }

    /// Number of frequency bins.
    pub fn bins(&self) -> usize {
        self.bins
    }

    /// Number of time frames.
    pub fn frames(&self) -> usize {
        self.frames
    }

    /// Visibility of the cell (`bin`, `frame`).
    #[inline]
    pub fn is_visible(&self, bin: usize, frame: usize) -> bool {
        self.visible[bin * self.frames + frame]
    }

    /// Bin-major `f32` image (1 = visible, 0 = hidden) for the loss.
    pub fn as_f32(&self) -> Vec<f32> {
        let mut out = Vec::new();
        self.write_f32_into(&mut out);
        out
    }

    /// Writes the bin-major `f32` visibility image into `out` (cleared
    /// first), reusing its capacity.
    pub fn write_f32_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.extend(self.visible.iter().map(|&v| if v { 1.0 } else { 0.0 }));
    }

    /// Bin-major hidden-cell flags (`true` = concealed), the layout
    /// [`dhf_metrics::masked_energy_ratio`] expects.
    pub fn hidden_flags(&self) -> Vec<bool> {
        self.visible.iter().map(|&v| !v).collect()
    }

    /// Fraction of cells concealed.
    pub fn hidden_fraction(&self) -> f64 {
        if self.visible.is_empty() {
            return 0.0;
        }
        self.visible.iter().filter(|&&v| !v).count() as f64 / self.visible.len() as f64
    }

    /// Per-frame visibility of a single bin row as a borrowed slice (the
    /// bin-major layout makes each row contiguous) — used by the cyclic
    /// phase interpolator without copying.
    pub fn row_visibility(&self, bin: usize) -> &[bool] {
        &self.visible[bin * self.frames..(bin + 1) * self.frames]
    }
}

/// A comb gain over frequency that keeps only bands around the target's
/// harmonic rows (`k` unwarped Hz): the output restriction the pipeline
/// applies to full-window rounds before resynthesis so that off-comb
/// hallucinations of the prior cannot leak into the separated signal.
pub fn target_comb_gain(cfg: &StftConfig, harmonics: usize, bandwidth_hz: f64) -> Vec<f64> {
    let bins = cfg.bins();
    let mut gain = vec![0.0f64; bins];
    for k in 1..=harmonics {
        let centre = k as f64;
        if centre > cfg.fs() / 2.0 + bandwidth_hz {
            break;
        }
        for (b, g) in gain.iter_mut().enumerate() {
            let f = cfg.bin_frequency(b);
            if (f - centre).abs() <= bandwidth_hz {
                *g = 1.0;
            }
        }
    }
    gain
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> StftConfig {
        // Unwarped space: 16 Hz, window 128 → 8 bins per unwarped Hz.
        StftConfig::new(128, 32, 16.0).unwrap()
    }

    /// A uniform non-zero magnitude image: every in-band ridge carries
    /// energy, so the mask follows the ridges alone.
    fn lit(cfg: &StftConfig, frames: usize) -> Vec<f64> {
        vec![1.0; cfg.bins() * frames]
    }

    #[test]
    fn mask_conceals_interferer_ridge() {
        let cfg = cfg();
        let frames = 10;
        // Interferer fixed at ratio 1.5 → ridge at bin 12 (1.5 × 8).
        let ratios = vec![vec![1.5; frames]];
        let mask = HarmonicMask::build(&cfg, frames, &ratios, 2, 0.1, &lit(&cfg, frames));
        for m in 0..frames {
            assert!(!mask.is_visible(12, m), "ridge bin should be hidden");
            assert!(!mask.is_visible(24, m), "2nd harmonic should be hidden");
            assert!(mask.is_visible(8, m), "target row (1 Hz = bin 8) stays visible");
            assert!(mask.is_visible(4, m), "background stays visible");
        }
    }

    #[test]
    fn crossover_hides_target_row() {
        let cfg = cfg();
        let frames = 6;
        // Interferer sweeps through the target's 2nd harmonic (2.0) at
        // frame 3.
        let ratios = vec![vec![1.7, 1.8, 1.9, 2.0, 2.1, 2.2]];
        let mask = HarmonicMask::build(&cfg, frames, &ratios, 1, 0.1, &lit(&cfg, frames));
        // Target 2nd-harmonic row = bin 16.
        assert!(mask.is_visible(16, 0), "no overlap yet at frame 0");
        assert!(!mask.is_visible(16, 3), "crossover frame must be hidden");
    }

    #[test]
    fn bandwidth_widens_the_concealed_band() {
        let cfg = cfg();
        let frames = 4;
        let ratios = vec![vec![1.5; frames]];
        let mag = lit(&cfg, frames);
        let narrow = HarmonicMask::build(&cfg, frames, &ratios, 1, 0.05, &mag);
        let wide = HarmonicMask::build(&cfg, frames, &ratios, 1, 0.4, &mag);
        assert!(wide.hidden_fraction() > narrow.hidden_fraction());
    }

    #[test]
    fn no_interferers_means_fully_visible() {
        let cfg = cfg();
        let mask = HarmonicMask::build(&cfg, 5, &[], 4, 0.2, &lit(&cfg, 5));
        assert_eq!(mask.hidden_fraction(), 0.0);
        assert_eq!(mask.as_f32().iter().filter(|&&v| v == 1.0).count(), cfg.bins() * 5);
    }

    #[test]
    fn harmonics_without_in_band_energy_stay_visible() {
        let cfg = cfg();
        let frames = 6;
        let bins = cfg.bins();
        let ratios = vec![vec![1.5; frames]];
        let hidden = |ratios: &[Vec<f64>], mag: &[f64]| {
            HarmonicMask::build(&cfg, frames, ratios, 1, 0.15, mag).hidden_fraction()
        };

        // An all-zero image hides nothing; the same ridge on a lit image is
        // hidden.
        assert_eq!(hidden(&ratios, &vec![0.0; bins * frames]), 0.0);
        assert!(hidden(&ratios, &lit(&cfg, frames)) > 0.0);

        // A dark ridge in a lit image stays visible while a lit one is
        // hidden.
        let mut dark_ridge = lit(&cfg, frames);
        dark_ridge[12 * frames..13 * frames].fill(0.0);
        let two = vec![vec![1.5; frames], vec![2.3; frames]];
        let mask = HarmonicMask::build(&cfg, frames, &two, 1, 0.15, &dark_ridge);
        for m in 0..frames {
            assert!(mask.is_visible(12, m), "zero-energy ridge (bin 12) must stay visible");
            assert!(!mask.is_visible(18, m), "lit ridge (2.3 Hz = bin 18) must be hidden");
        }

        // A ridge at 8.05 unwarped Hz lies just above the 8 Hz Nyquist: no
        // frame is in band, so it hides nothing even though its 0.15 Hz band
        // would reach below Nyquist. Just below Nyquist it is hidden.
        assert_eq!(hidden(&[vec![8.05; frames]], &lit(&cfg, frames)), 0.0);
        assert!(hidden(&[vec![7.95; frames]], &lit(&cfg, frames)) > 0.0);
    }

    #[test]
    fn hidden_flags_complement_visibility() {
        let cfg = cfg();
        let ratios = vec![vec![1.3; 3]];
        let mask = HarmonicMask::build(&cfg, 3, &ratios, 2, 0.15, &lit(&cfg, 3));
        let hidden = mask.hidden_flags();
        let f32s = mask.as_f32();
        for i in 0..hidden.len() {
            assert_eq!(hidden[i], f32s[i] == 0.0);
        }
    }

    #[test]
    fn target_comb_selects_integer_rows() {
        let cfg = cfg();
        let gain = target_comb_gain(&cfg, 3, 0.15);
        // 8 bins per Hz: rows 8, 16, 24 selected (±1 bin), others zero.
        assert_eq!(gain[8], 1.0);
        assert_eq!(gain[16], 1.0);
        assert_eq!(gain[24], 1.0);
        assert_eq!(gain[4], 0.0);
        assert_eq!(gain[12], 0.0);
        // DC is never selected.
        assert_eq!(gain[0], 0.0);
    }

    #[test]
    fn row_visibility_matches_cells() {
        let cfg = cfg();
        let ratios = vec![vec![1.5; 4]];
        let mask = HarmonicMask::build(&cfg, 4, &ratios, 1, 0.1, &lit(&cfg, 4));
        let row = mask.row_visibility(12);
        assert_eq!(row, vec![false; 4]);
        let row8 = mask.row_visibility(8);
        assert_eq!(row8, vec![true; 4]);
    }
}
