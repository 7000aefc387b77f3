//! **Figure 3** — in-painting quality of the four convolution-prior
//! variants on the same masked quasi-periodic spectrogram:
//!
//! 1. conventional convolutions,
//! 2. harmonic convolutions configured as in Zhang et al. [21]
//!    (anchor > 1, max-pooling in frequency),
//! 3. the Spectrally Accurate design (anchor 1, no frequency pooling),
//! 4. SpAc plus time dilation.
//!
//! Expected shape: harmonic variants reveal the vertical harmonic pattern
//! earlier than conventional convolutions; the SpAc variants reach lower
//! hidden-region error than the anchor>1 + pooling baseline; dilation
//! helps further on pattern-aligned (constant-frequency) inputs.

use dhf_bench::fast_mode;
use dhf_nn::ablation::PriorVariant;
use dhf_nn::{DeepPriorNet, NetConfig};
use dhf_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds a pattern-aligned-style magnitude image: constant harmonic rows
/// (the target at 1 "Hz" with decaying harmonics) plus a weak noise floor,
/// with a block of frames hidden, mimicking a crossover mask.
fn masked_ridge_image(bins: usize, frames: usize) -> (Tensor, Tensor, Vec<usize>) {
    let mut target = Tensor::filled(&[1, bins, frames], 0.03);
    let bins_per_hz = 8;
    for (h, amp) in [(1, 0.9f32), (2, 0.55), (3, 0.30), (4, 0.15)] {
        let row = h * bins_per_hz;
        if row < bins {
            for m in 0..frames {
                target.data_mut()[row * frames + m] = amp;
            }
        }
    }
    // Hide three frame bands (simulated crossovers) across all bins.
    let hidden: Vec<usize> = vec![frames / 5, frames / 2, 4 * frames / 5];
    let mut mask = Tensor::filled(&[1, bins, frames], 1.0);
    for &h in &hidden {
        for dm in 0..3usize {
            let m = (h + dm).min(frames - 1);
            for b in 0..bins {
                mask.data_mut()[b * frames + m] = 0.0;
            }
        }
    }
    (target, mask, hidden)
}

/// Mean squared error over the hidden cells only.
fn hidden_mse(output: &Tensor, truth: &Tensor, mask: &Tensor) -> f64 {
    let mut err = 0.0f64;
    let mut count = 0usize;
    for i in 0..truth.numel() {
        if mask.data()[i] < 0.5 {
            let d = (output.data()[i] - truth.data()[i]) as f64;
            err += d * d;
            count += 1;
        }
    }
    err / count.max(1) as f64
}

fn main() {
    let bins = 40;
    let frames = 48;
    let iters_list: Vec<usize> = if fast_mode() { vec![20, 60] } else { vec![50, 150, 300] };
    let (target, mask, _hidden) = masked_ridge_image(bins, frames);

    println!("=== Figure 3: hidden-region reconstruction MSE by prior variant ===");
    println!("(image {bins}x{frames}, three hidden frame bands, same budget per variant)");
    print!("{:<40}", "variant");
    for it in &iters_list {
        print!(" | MSE@{it:<5}");
    }
    println!();
    println!("{}", "-".repeat(40 + iters_list.len() * 13));

    let base = NetConfig { base_channels: 8, depth: 2, ..NetConfig::default() };
    let mut results: Vec<(String, Vec<f64>)> = Vec::new();
    for variant in PriorVariant::all(6) {
        let cfg = variant.configure(&base);
        let mut row = Vec::new();
        for &iters in &iters_list {
            let mut rng = StdRng::seed_from_u64(0xF163);
            let mut net = DeepPriorNet::new(&cfg, bins, frames, &mut rng).expect("network builds");
            net.fit(&target, &mask, iters, 0.01);
            row.push(hidden_mse(&net.output_image(), &target, &mask));
        }
        print!("{:<40}", variant.label());
        for v in &row {
            print!(" | {v:>9.2e}");
        }
        println!();
        results.push((variant.label(), row));
    }

    // Shape check: SpAc-dilated beats the Zhang baseline at the final
    // budget, as Figure 3 demonstrates.
    let last = iters_list.len() - 1;
    let baseline = results[1].1[last];
    let spac_dil = results[3].1[last];
    println!();
    println!(
        "shape check: SpAc+dilation {spac_dil:.2e} vs harmonic baseline {baseline:.2e} -> {}",
        if spac_dil < baseline { "SpAc WINS (matches paper)" } else { "MISMATCH" }
    );
}
