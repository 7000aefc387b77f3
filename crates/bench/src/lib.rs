//! Shared harness for the DHF paper-reproduction benches.
//!
//! Each `harness = false` bench target regenerates one table or figure of
//! the paper; this crate holds the common machinery: the method roster,
//! per-mix evaluation, environment-variable knobs, table formatting and
//! PGM spectrogram export.
//!
//! Knobs (all optional):
//!
//! * `DHF_ITERS` — deep-prior iterations per round (default 200).
//! * `DHF_DURATION_S` — synthesized-signal duration (default 90 s).
//! * `DHF_SEED` — dataset seed (default 42).
//! * `DHF_FAST=1` — drastically reduced settings for smoke runs.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use dhf_baselines::{
    emd::Emd, masking::SpectralMasking, nmf::Nmf, repet::Repet, repet::RepetExtended, vmd::Vmd,
    SeparationContext, Separator,
};
use dhf_core::{separate, DhfConfig, SeparationResult};
use dhf_dsp::filter::band_limit;
use dhf_metrics::{mse, sdr_db};
use dhf_synth::table1::{mixed_signal_with_duration, MixedSignal};
use std::io::Write as _;
use std::path::PathBuf;

/// Reads an environment knob with a default.
fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Reads an integer environment knob with a default.
fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// `true` when `DHF_FAST=1` (smoke mode).
pub fn fast_mode() -> bool {
    std::env::var("DHF_FAST").map(|v| v == "1").unwrap_or(false)
}

/// Synthesized-signal duration for benches.
pub fn duration_s() -> f64 {
    if fast_mode() {
        30.0
    } else {
        env_f64("DHF_DURATION_S", 90.0)
    }
}

/// Deep-prior iterations for benches.
pub fn dhf_iterations() -> usize {
    if fast_mode() {
        40
    } else {
        env_usize("DHF_ITERS", 200)
    }
}

/// Dataset seed.
pub fn seed() -> u64 {
    env_usize("DHF_SEED", 42) as u64
}

/// The paper's evaluation band-limit: `[0, 12] Hz` (§4.2).
pub const EVAL_BAND_HZ: f64 = 12.0;

/// The DHF configuration used by all benches: paper defaults
/// ([`DhfConfig::fast`] under `DHF_FAST=1`) with the bench-sized iteration
/// budget of [`dhf_iterations`].
pub fn bench_dhf_config() -> DhfConfig {
    let mut cfg = if fast_mode() { DhfConfig::fast() } else { DhfConfig::default() };
    cfg.inpaint.iterations = dhf_iterations();
    cfg
}

/// A rendered, band-limited Table-1 mix ready for evaluation.
pub struct PreparedMix {
    /// The underlying mixed signal with ground truth.
    pub mix: MixedSignal,
    /// Band-limited observation handed to every method.
    pub observed: Vec<f64>,
}

/// Renders and band-limits Table-1 mixed signal `index`.
pub fn prepare_mix(index: usize) -> PreparedMix {
    let mix = mixed_signal_with_duration(index, seed(), duration_s());
    let observed = band_limit(&mix.samples, mix.fs, EVAL_BAND_HZ).expect("valid band limit");
    PreparedMix { mix, observed }
}

/// Per-source scores of one method on one mix.
#[derive(Debug, Clone)]
pub struct MethodScores {
    /// Method display name.
    pub method: String,
    /// `(sdr_db, mse)` per source.
    pub per_source: Vec<(f64, f64)>,
}

/// Scores estimates against the ground-truth sources, skipping the edge
/// samples distorted by filter/STFT boundaries.
pub fn score_estimates(mix: &MixedSignal, estimates: &[Vec<f64>]) -> Vec<(f64, f64)> {
    let n = mix.samples.len();
    // 5 s on each side: outside every method's analysis-window taper
    // (REPET segments, DHF's unwarped windows), so the comparison
    // reflects steady-state separation quality for all methods alike.
    let margin = (5.0 * mix.fs) as usize;
    let lo = margin.min(n / 4);
    let hi = n - margin.min(n / 4);
    mix.sources
        .iter()
        .zip(estimates)
        .map(|(truth, est)| {
            (
                sdr_db(&truth.samples[lo..hi], &est[lo..hi]),
                mse(&truth.samples[lo..hi], &est[lo..hi]),
            )
        })
        .collect()
}

/// The six baselines of Table 2, in paper column order.
pub fn baseline_roster() -> Vec<Box<dyn Separator>> {
    vec![
        Box::new(Emd::default()),
        Box::new(Vmd::default()),
        Box::new(Nmf::default()),
        Box::new(Repet::default()),
        Box::new(RepetExtended::default()),
        Box::new(SpectralMasking::default()),
    ]
}

/// Runs one baseline on a prepared mix.
pub fn run_baseline(sep: &dyn Separator, prepared: &PreparedMix) -> MethodScores {
    let tracks = prepared.mix.f0_tracks();
    let ctx = SeparationContext { fs: prepared.mix.fs, f0_tracks: &tracks };
    let per_source = match sep.separate(&prepared.observed, &ctx) {
        Ok(est) => score_estimates(&prepared.mix, &est),
        Err(e) => {
            eprintln!("warning: {} failed: {e}", sep.name());
            prepared.mix.sources.iter().map(|_| (f64::NEG_INFINITY, f64::INFINITY)).collect()
        }
    };
    MethodScores { method: sep.name().to_string(), per_source }
}

/// Runs DHF on a prepared mix, returning scores plus the full result (for
/// masked-energy-ratio analysis).
pub fn run_dhf(prepared: &PreparedMix, cfg: &DhfConfig) -> (MethodScores, SeparationResult) {
    let tracks = prepared.mix.f0_tracks();
    let result =
        separate(&prepared.observed, prepared.mix.fs, &tracks, cfg).expect("DHF run failed");
    let per_source = score_estimates(&prepared.mix, &result.sources);
    (MethodScores { method: "DHF".into(), per_source }, result)
}

/// Formats an SDR/MSE cell the way Table 2 prints them.
pub fn fmt_cell(sdr: f64, mse_v: f64) -> String {
    if sdr.is_finite() {
        format!("{sdr:>7.2} {mse_v:>8.1e}")
    } else {
        format!("{:>7} {:>8}", "-inf", "-")
    }
}

/// The workspace `target/` directory, anchored at the workspace root
/// (`CARGO_TARGET_DIR`, else `crates/bench/../../target`) so bench
/// targets — whose working directory is the package dir — and bins
/// resolve the same location.
fn workspace_target_dir() -> PathBuf {
    std::env::var("CARGO_TARGET_DIR").map(PathBuf::from).unwrap_or_else(|_| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..").join("..").join("target")
    })
}

/// Output directory for figure artefacts
/// (`<workspace>/target/paper-artifacts`).
pub fn artifact_dir() -> PathBuf {
    let dir = workspace_target_dir().join("paper-artifacts");
    std::fs::create_dir_all(&dir).expect("create artifact dir");
    dir
}

/// Writes a magnitude image (bin-major `bins × frames`) as an 8-bit PGM,
/// log-compressed, frequency increasing upward.
pub fn write_pgm(path: &std::path::Path, image: &[f64], bins: usize, frames: usize) {
    assert_eq!(image.len(), bins * frames);
    let peak = image.iter().cloned().fold(0.0f64, f64::max).max(1e-12);
    let mut file = std::fs::File::create(path).expect("create pgm");
    writeln!(file, "P2\n{frames} {bins}\n255").expect("pgm header");
    for b in (0..bins).rev() {
        let row: Vec<String> = (0..frames)
            .map(|m| {
                let v = image[b * frames + m] / peak;
                let db = (20.0 * v.max(1e-4).log10()).clamp(-60.0, 0.0);
                format!("{}", ((db + 60.0) / 60.0 * 255.0) as u8)
            })
            .collect();
        writeln!(file, "{}", row.join(" ")).expect("pgm row");
    }
}

/// Simple wall-clock stopwatch for bench logs.
pub struct Stopwatch(std::time::Instant);

impl Stopwatch {
    /// Starts timing.
    pub fn start() -> Self {
        Stopwatch(std::time::Instant::now())
    }

    /// Elapsed seconds.
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Stopwatch::start()
    }
}
