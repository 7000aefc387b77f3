//! **Figure 7** — in-vivo (simulated) spectrograms for sheep 2: the mixed
//! PPG at 740 and 850 nm, and the separated fetal signal per wavelength.
//! Writes PGMs to `target/paper-artifacts/` and prints fetal-band energy
//! shares before and after separation (the quantitative content of the
//! figure: the fetal ridge emerges once maternal/respiration are removed).

use dhf_bench::{artifact_dir, bench_dhf_config, dhf_iterations, fast_mode, write_pgm};
use dhf_core::separate;
use dhf_dsp::stft::{stft, StftConfig};
use dhf_oximetry::dc_level;
use dhf_synth::invivo::{simulate, InvivoConfig};

/// Length of the analysis segment taken from the middle of the record
/// (seconds).
const SEGMENT_S: f64 = 60.0;

/// Energy share of a frequency band in a spectrogram.
fn band_share(spec: &dhf_dsp::Spectrogram, cfg: &StftConfig, lo_hz: f64, hi_hz: f64) -> f64 {
    let lo = cfg.frequency_to_bin(lo_hz);
    let hi = cfg.frequency_to_bin(hi_hz);
    let mut band = 0.0;
    let mut total = 0.0;
    for b in 1..spec.bins() {
        for m in 0..spec.frames() {
            let p = spec.at(b, m).norm_sqr();
            total += p;
            if b >= lo && b <= hi {
                band += p;
            }
        }
    }
    if total > 0.0 {
        band / total
    } else {
        0.0
    }
}

fn main() {
    println!("=== Figure 7: sheep-2 spectrograms and separated fetal signal ===");
    let scale = if fast_mode() { 0.15 } else { 0.25 };
    let recording = simulate(&InvivoConfig::sheep2().scaled(scale));
    let fs = recording.config.fs;
    let dir = artifact_dir();

    // Analysis segment: a window in the middle of the record.
    let seg_len = (SEGMENT_S * fs) as usize;
    let mid = recording.len() / 2;
    let lo = mid.saturating_sub(seg_len / 2);
    let hi = (lo + seg_len).min(recording.len());

    let stft_cfg =
        StftConfig::new((10.0 * fs) as usize, (2.5 * fs) as usize, fs).expect("stft config");
    let fetal_band = recording.config.fetal_band;
    let iterations = dhf_iterations().min(150);

    for (lambda, nm) in [(0usize, 740), (1usize, 850)] {
        let window = &recording.mixed[lambda][lo..hi];
        let dc = dc_level(window);
        let ac: Vec<f64> = window.iter().map(|&v| v - dc).collect();

        let mixed_spec = stft(&ac, &stft_cfg).expect("stft");
        let top = stft_cfg.frequency_to_bin(6.0);
        let frames = mixed_spec.frames();
        let crop = |s: &dhf_dsp::Spectrogram| -> Vec<f64> {
            let mut img = vec![0.0f64; (top + 1) * frames];
            for b in 0..=top {
                for m in 0..frames {
                    img[b * frames + m] = s.at(b, m).abs();
                }
            }
            img
        };
        let mixed_path = dir.join(format!("fig7_sheep2_{nm}nm_mixed.pgm"));
        write_pgm(&mixed_path, &crop(&mixed_spec), top + 1, frames);

        // Separate the fetal signal with DHF.
        let tracks =
            vec![recording.f0.maternal[lo..hi].to_vec(), recording.f0.fetal[lo..hi].to_vec()];
        let mut cfg = bench_dhf_config();
        cfg.inpaint.iterations = iterations;
        let fetal = separate(&ac, fs, &tracks, &cfg)
            .map(|r| r.sources[1].clone())
            .unwrap_or_else(|_| vec![0.0; ac.len()]);
        let fetal_spec = stft(&fetal, &stft_cfg).expect("stft");
        let fetal_path = dir.join(format!("fig7_sheep2_{nm}nm_fetal.pgm"));
        write_pgm(&fetal_path, &crop(&fetal_spec), top + 1, frames);

        let before = band_share(&mixed_spec, &stft_cfg, fetal_band.0, fetal_band.1);
        let after = band_share(&fetal_spec, &stft_cfg, fetal_band.0, fetal_band.1);
        println!(
            "{nm} nm: fetal-band energy share {:.1}% -> {:.1}% after separation",
            100.0 * before,
            100.0 * after
        );
        println!("  mixed  -> {}", mixed_path.display());
        println!("  fetal  -> {}", fetal_path.display());
    }
    println!();
    println!("blood draws (red lines in the paper's figure):");
    for d in &recording.draws {
        println!("  t = {:>6.1} s, SaO2 = {:.3}", d.time_s, d.sao2);
    }
}
