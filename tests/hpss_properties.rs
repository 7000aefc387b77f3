//! Property tests for the HPSS stage, pinning the two contracts the
//! transient-rejection path rests on:
//!
//! 1. The shared 2-D median filter (`dhf_dsp::median`) is **bit-identical**
//!    to the obvious gather-and-sort reference across shapes and kernel
//!    widths, including the shrinking edge-clamped windows and even-width
//!    forcing.
//! 2. The streaming front filter (`dhf_stream::FrontFilter`), the
//!    workspace's only median-mask HPSS, is **bit-identical** over its
//!    whole output to a test-local oracle that rebuilds the harmonic
//!    resynthesis from the definition. The filter keeps no state between
//!    calls, so one `filter` call over a whole recording is the offline
//!    split, and this oracle is its reference.

use dhf::dsp::median::median_filter_2d;
use dhf::dsp::stft::{istft, stft, StftConfig};
use dhf::stream::{FrontFilter, HpssFrontConfig};
use proptest::prelude::*;
use std::f64::consts::TAU;

const FS: f64 = 100.0;

/// Gather-and-sort median: the reference `median_filter_2d` must equal.
fn naive_median(win: &mut [f64]) -> f64 {
    win.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let n = win.len();
    if n % 2 == 1 {
        win[n / 2]
    } else {
        0.5 * (win[n / 2 - 1] + win[n / 2])
    }
}

/// Median-mask HPSS from the definition: subtract the mean, zero-pad to
/// full-frame coverage, take the free STFT's bin-major magnitude image,
/// median it along time within each bin row (harmonic enhancement) and
/// along frequency within each frame (percussive enhancement), apply the
/// soft harmonic gain `eh / (eh + ep + 1e-10)`, invert, trim and restore
/// the mean. Inputs shorter than one window pass through.
fn oracle(x: &[f64], cfg: &HpssFrontConfig) -> Vec<f64> {
    let (w, hop) = (cfg.window_len, cfg.hop);
    if x.len() < w {
        return x.to_vec();
    }
    let mean = x.iter().sum::<f64>() / x.len() as f64;
    let covering_frames = (x.len() - w).div_ceil(hop) + 1;
    let mut padded: Vec<f64> = x.iter().map(|&v| v - mean).collect();
    padded.resize((covering_frames - 1) * hop + w, 0.0);
    let mut spec = stft(&padded, &StftConfig::new(w, hop, FS).unwrap()).unwrap();
    let (bins, frames) = (spec.bins(), spec.frames());
    let mag = spec.magnitude();

    // Even kernel widths are forced to the next odd.
    let (ht, hf) = ((cfg.kernel_time | 1) / 2, (cfg.kernel_freq | 1) / 2);
    let mut gain = vec![0.0; bins * frames];
    let mut win = Vec::new();
    for b in 0..bins {
        for m in 0..frames {
            win.clear();
            win.extend(
                (m.saturating_sub(ht)..(m + ht + 1).min(frames)).map(|t| mag[b * frames + t]),
            );
            let h = naive_median(&mut win);
            win.clear();
            win.extend((b.saturating_sub(hf)..(b + hf + 1).min(bins)).map(|f| mag[f * frames + m]));
            let p = naive_median(&mut win);
            let eh = (h * cfg.margin_h).powf(cfg.power);
            let ep = (p * cfg.margin_p).powf(cfg.power);
            gain[b * frames + m] = eh / (eh + ep + 1e-10);
        }
    }
    spec.apply_mask_in_place(&gain);
    istft(&spec)[..x.len()].iter().map(|&v| v + mean).collect()
}

/// The shared click-train-over-tones fixture: sustained tones at `f1`/`f2`
/// plus an exponentially decaying click every `click_every` samples, on a
/// DC level `dc`.
fn clicky_tones(
    n: usize,
    f1: f64,
    f2: f64,
    a2: f64,
    click_every: usize,
    click_amp: f64,
    dc: f64,
) -> Vec<f64> {
    let mut x: Vec<f64> = (0..n)
        .map(|i| {
            let t = i as f64 / FS;
            dc + (TAU * f1 * t).sin() + a2 * (TAU * f2 * t).sin()
        })
        .collect();
    let mut i = click_every;
    while i < n {
        for j in 0..12.min(n - i) {
            x[i + j] += click_amp * (-(j as f64) / 4.0).exp();
        }
        i += click_every;
    }
    x
}

/// Fails on the first sample whose bits differ from the oracle's.
fn assert_matches_oracle(x: &[f64], cfg: &HpssFrontConfig) -> Result<(), TestCaseError> {
    let mut filter = FrontFilter::new(cfg.clone(), FS).unwrap();
    let got = filter.filter(x);
    let want = oracle(x, cfg);
    prop_assert_eq!(got.len(), want.len());
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        prop_assert_eq!(g.to_bits(), w.to_bits(), "sample {} of {}: {} != {}", i, x.len(), g, w);
    }
    Ok(())
}

#[test]
fn front_filter_matches_oracle_at_default_config() {
    let cfg = HpssFrontConfig::default();
    for n in [100, 127, 128, 129, 1873, 3000, 4800] {
        let x = clicky_tones(n, 1.3, 4.1, 0.4, 150, 2.5, 5.0);
        assert_matches_oracle(&x, &cfg).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn median_2d_is_bit_identical_to_gather_sort(
        rows in 1usize..9,
        cols in 1usize..9,
        kr in 1usize..8,
        kc in 1usize..8,
        values in prop::collection::vec(-1e3f64..1e3, 64),
    ) {
        let img = &values[..rows * cols];
        let got = median_filter_2d(img, rows, cols, kr, kc);
        // The filter forces even kernel widths to the next odd.
        let (hr, hc) = ((kr | 1) / 2, (kc | 1) / 2);
        let mut win = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                win.clear();
                for rr in r.saturating_sub(hr)..(r + hr + 1).min(rows) {
                    for cc in c.saturating_sub(hc)..(c + hc + 1).min(cols) {
                        win.push(img[rr * cols + cc]);
                    }
                }
                let want = naive_median(&mut win);
                prop_assert_eq!(
                    got[r * cols + c].to_bits(),
                    want.to_bits(),
                    "({},{}) kernel {}x{}: {} != {}",
                    r, c, kr, kc, got[r * cols + c], want
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn front_filter_is_bit_identical_to_oracle(
        window_len in 16usize..200,
        hop_div in 1usize..5,
        kernel_time in 1usize..24,
        kernel_freq in 1usize..24,
        power in 0.5f64..4.0,
        // Negative draws clamp to a zero margin, a quarter of the cases.
        margin_h in -1.0f64..3.0,
        margin_p in -1.0f64..3.0,
        dc in -5.0f64..5.0,
        // Log-uniform lengths of 54..3197 samples: about one case in seven
        // is shorter than its window and must pass through.
        log_len in 4.0f64..8.07,
        f1 in 0.8f64..3.0,
        f2 in 3.5f64..8.0,
        a2 in 0.1f64..1.0,
        click_every in 60usize..260,
        click_amp in 0.5f64..3.0,
    ) {
        let cfg = HpssFrontConfig {
            window_len,
            hop: window_len / hop_div,
            kernel_time,
            kernel_freq,
            power,
            margin_h: margin_h.max(0.0),
            margin_p: margin_p.max(0.0),
        };
        let x = clicky_tones(log_len.exp() as usize, f1, f2, a2, click_every, click_amp, dc);
        assert_matches_oracle(&x, &cfg)?;
    }
}
