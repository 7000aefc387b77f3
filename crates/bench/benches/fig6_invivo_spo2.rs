//! **Figure 6** — in-vivo fetal SpO2 estimation on the simulated TFO
//! recordings (the substitution for the pregnant-ewe dataset; see
//! `dhf_synth::invivo`): per sheep, the correlation between SpO2
//! estimated from the separated fetal signal and the blood-draw SaO2
//! ground truth, comparing spectral masking (state of the art, [18])
//! against DHF.
//!
//! Expected shape: DHF's correlation is far higher on both sheep
//! (the paper reports 0.24→0.81 and 0.44→0.92).

use dhf_baselines::{masking::SpectralMasking, SeparationContext, Separator};
use dhf_bench::{bench_dhf_config, dhf_iterations, fast_mode, Stopwatch};
use dhf_core::RoundContext;
use dhf_oximetry::{ac_amplitude, dc_level, modulation_ratio, spo2_correlation};
use dhf_synth::invivo::{simulate, InvivoConfig, TfoRecording};

/// Length of the analysis window centred on each blood draw (seconds).
const WINDOW_S: f64 = 60.0;

/// Extracts the fetal AC estimate for one analysis window on one channel.
/// DHF windows run through the shared `dhf_ctx` so its SoA spectrogram
/// workspace and FFT plan cache stay warm across draws and wavelengths.
fn fetal_estimate(
    recording: &TfoRecording,
    lambda: usize,
    lo: usize,
    hi: usize,
    method: &str,
    dhf_ctx: &mut RoundContext,
) -> Vec<f64> {
    let window = &recording.mixed[lambda][lo..hi];
    // Remove the DC level: separators work on the pulsatile part.
    let dc = dc_level(window);
    let ac: Vec<f64> = window.iter().map(|&v| v - dc).collect();
    let tracks: [&[f64]; 2] = [&recording.f0.maternal[lo..hi], &recording.f0.fetal[lo..hi]];
    match method {
        "masking" => {
            let owned = vec![tracks[0].to_vec(), tracks[1].to_vec()];
            let ctx = SeparationContext { fs: recording.config.fs, f0_tracks: &owned };
            SpectralMasking::default()
                .separate(&ac, &ctx)
                .map(|est| est[1].clone())
                .unwrap_or_else(|_| vec![0.0; ac.len()])
        }
        _ => dhf_ctx
            .separate_refs(&ac, recording.config.fs, &tracks, 0)
            .map(|mut r| std::mem::take(&mut r.sources[1]))
            .unwrap_or_else(|_| vec![0.0; ac.len()]),
    }
}

/// Runs one sheep with one method, returning `(correlation, r_values)`.
fn evaluate_sheep(recording: &TfoRecording, method: &str, iterations: usize) -> (f64, Vec<f64>) {
    let fs = recording.config.fs;
    let half_window = (WINDOW_S * fs / 2.0) as usize;
    let mut cfg = bench_dhf_config();
    cfg.inpaint.iterations = iterations;
    let mut dhf_ctx = RoundContext::new(&cfg);
    dhf_ctx.set_collect_reports(false);
    let mut ratios = Vec::new();
    let mut sao2 = Vec::new();
    for draw in &recording.draws {
        let centre = recording.sample_at(draw.time_s);
        let lo = centre.saturating_sub(half_window);
        let hi = (centre + half_window).min(recording.len());
        // Skip draws whose analysis window is truncated by a recording
        // edge; a shortened window would bias the per-method comparison.
        if hi - lo < 2 * half_window {
            continue;
        }
        let mut ac = [0.0f64; 2];
        let mut dc = [0.0f64; 2];
        for lambda in 0..2 {
            let est = fetal_estimate(recording, lambda, lo, hi, method, &mut dhf_ctx);
            ac[lambda] = ac_amplitude(&est);
            dc[lambda] = dc_level(&recording.mixed[lambda][lo..hi]);
        }
        ratios.push(modulation_ratio(ac[0], dc[0], ac[1], dc[1]));
        sao2.push(draw.sao2);
    }
    (spo2_correlation(&ratios, &sao2), ratios)
}

fn main() {
    let watch = Stopwatch::start();
    println!("=== Figure 6: in-vivo SpO2 estimation (simulated TFO) ===");
    // The full 40-minute protocol is heavy for CI-scale runs: scale it
    // down while preserving structure (7 draws, desaturation episode).
    let scale = if fast_mode() { 0.15 } else { 0.25 };
    let iterations = dhf_iterations().min(150);
    println!("(protocol scale {scale}, {} deep-prior iterations per round)", iterations);

    let mut dhf_corrs = Vec::new();
    let mut mask_corrs = Vec::new();
    for cfg in [InvivoConfig::sheep1(), InvivoConfig::sheep2()] {
        let sheep_id = cfg.sheep_id;
        let recording = simulate(&cfg.scaled(scale));
        let t = Stopwatch::start();
        let (mask_corr, _) = evaluate_sheep(&recording, "masking", iterations);
        let mask_time = t.secs();
        let t = Stopwatch::start();
        let (dhf_corr, _) = evaluate_sheep(&recording, "dhf", iterations);
        println!(
            "sheep {sheep_id}: correlation masking {mask_corr:.2} -> DHF {dhf_corr:.2}   \
             (masking {mask_time:.0}s, DHF {:.0}s)",
            t.secs()
        );
        mask_corrs.push(mask_corr);
        dhf_corrs.push(dhf_corr);
    }

    // Paper metric: average improvement of the correlation error (1-r).
    let err_mask: f64 = mask_corrs.iter().map(|&c| 1.0 - c).sum::<f64>() / mask_corrs.len() as f64;
    let err_dhf: f64 = dhf_corrs.iter().map(|&c| 1.0 - c).sum::<f64>() / dhf_corrs.len() as f64;
    let improvement = 100.0 * (err_mask - err_dhf) / err_mask.max(1e-9);
    println!();
    println!(
        "correlation error (1-r): masking {err_mask:.3} -> DHF {err_dhf:.3} \
         ({improvement:.1}% improvement; paper reports 80.5%)"
    );
    println!(
        "shape check: {}",
        if dhf_corrs.iter().zip(&mask_corrs).all(|(d, m)| d > m) {
            "DHF improves correlation on both sheep (matches paper)"
        } else {
            "MISMATCH"
        }
    );
    println!("total wall time: {:.0}s", watch.secs());
}
