//! Criterion micro-benchmarks of the computational kernels underlying the
//! paper pipeline: FFT, STFT, harmonic convolution forward/backward, one
//! Adam step of the full SpAc LU-Net, and pattern alignment. After the
//! criterion group, a per-kernel A/B prints each `dhf_dsp::simd` entry
//! point's time per call at the scalar and the native dispatch level.

use criterion::{criterion_group, Criterion};
use dhf_bench::Stopwatch;
use dhf_core::PatternAligner;
use dhf_dsp::fft::fft_real;
use dhf_dsp::simd;
use dhf_dsp::stft::{stft, StftConfig};
use dhf_nn::{DeepPriorNet, NetConfig};
use dhf_tensor::ops::harmonic;
use dhf_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_fft(c: &mut Criterion) {
    let x: Vec<f64> = (0..4096).map(|i| (i as f64 * 0.37).sin()).collect();
    c.bench_function("fft_real_4096", |b| b.iter(|| black_box(fft_real(black_box(&x)))));
    let y: Vec<f64> = (0..6000).map(|i| (i as f64 * 0.21).cos()).collect();
    c.bench_function("fft_real_6000_bluestein", |b| b.iter(|| black_box(fft_real(black_box(&y)))));
}

fn bench_fft_plan_cache(c: &mut Criterion) {
    use dhf_dsp::fft::FftPlanner;
    use dhf_dsp::Complex;
    let x: Vec<f64> = (0..512).map(|i| (i as f64 * 0.23).sin()).collect();
    // Hot path: one planner reused across frames — twiddles, bit-reversal
    // and scratch are built exactly once.
    let mut planner = FftPlanner::new();
    let mut half = Vec::new();
    c.bench_function("rfft_512_cached_plan", |b| {
        b.iter(|| {
            planner.rfft_into(black_box(&x), &mut half);
            black_box(&half);
        })
    });
    assert_eq!(planner.plans_built(), 2, "repeated same-size transforms must share one plan set");
    // The full-size complex transform the packed path replaced: promoting
    // the real frame to 512 complex points costs roughly twice the work.
    let mut buf = Vec::new();
    c.bench_function("fft_complex_promoted_512_cached_plan", |b| {
        b.iter(|| {
            buf.clear();
            buf.extend(x.iter().map(|&v| Complex::from_real(v)));
            planner.fft_inplace(black_box(&mut buf));
            black_box(&buf);
        })
    });
    // Cold path: a fresh planner per transform rebuilds every table — the
    // cost the cache removes from the per-frame hot loop.
    c.bench_function("rfft_512_cold_plan", |b| {
        b.iter(|| {
            let mut p = FftPlanner::new();
            let mut h = Vec::new();
            p.rfft_into(black_box(&x), &mut h);
            black_box(h)
        })
    });
}

fn bench_stft(c: &mut Criterion) {
    let fs = 100.0;
    let x: Vec<f64> = (0..9000).map(|i| (i as f64 * 0.11).sin()).collect();
    let cfg = StftConfig::new(512, 128, fs).unwrap();
    c.bench_function("stft_9000x512", |b| b.iter(|| black_box(stft(black_box(&x), &cfg).unwrap())));
    // Engine variant: reuses the spectrogram buffer as well as the plan.
    let mut engine = dhf_dsp::StftEngine::new();
    let mut spec = engine.stft(&x, &cfg).unwrap();
    c.bench_function("stft_9000x512_engine_reused", |b| {
        b.iter(|| {
            engine.stft_into(black_box(&x), &cfg, &mut spec).unwrap();
            black_box(spec.frames());
        })
    });
}

fn bench_harmonic_conv(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    // Pin the production scalar: the tensor stack is generic over f32/f64.
    let x: Tensor<f32> = Tensor::rand_normal(&[8, 65, 88], 1.0, &mut rng);
    let w = Tensor::rand_normal(&[8, 8, 4, 3], 0.2, &mut rng);
    let mut out = Tensor::zeros(&[8, 65, 88]);
    c.bench_function("harmonic_conv_fwd_8x65x88", |b| {
        b.iter(|| harmonic::forward(black_box(&x), black_box(&w), 1, 13, &mut out))
    });
    let go = Tensor::rand_normal(&[8, 65, 88], 1.0, &mut rng);
    let mut gx = Tensor::zeros(&[8, 65, 88]);
    let mut gw = Tensor::zeros(&[8, 8, 4, 3]);
    c.bench_function("harmonic_conv_bwd_8x65x88", |b| {
        b.iter(|| {
            harmonic::backward(
                black_box(&x),
                black_box(&w),
                black_box(&go),
                1,
                13,
                &mut gx,
                &mut gw,
            )
        })
    });
}

fn bench_deep_prior_step(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(2);
    let cfg = NetConfig::default();
    let mut net = DeepPriorNet::new(&cfg, 65, 88, &mut rng).unwrap();
    let target = Tensor::filled(&[1, 65, 88], 0.2);
    let mask = Tensor::filled(&[1, 65, 88], 1.0);
    c.bench_function("spac_lunet_adam_step_65x88", |b| {
        b.iter(|| black_box(net.fit(black_box(&target), black_box(&mask), 1, 0.01)))
    });
}

fn bench_pattern_alignment(c: &mut Criterion) {
    let fs = 100.0;
    let n = 9000;
    let track: Vec<f64> = (0..n).map(|i| 1.3 + 0.2 * (i as f64 / 900.0).sin()).collect();
    let signal: Vec<f64> = (0..n).map(|i| (i as f64 * 0.13).sin()).collect();
    let aligner = PatternAligner::new(&track, fs, 16.0).unwrap();
    c.bench_function("unwarp_9000", |b| {
        b.iter(|| black_box(aligner.unwarp(black_box(&signal)).unwrap()))
    });
}

fn config() -> Criterion {
    Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3))
}

/// Per-kernel A/B: forced-scalar against native dispatch for the kernel
/// entry points the pipeline calls, isolated from pipeline overhead. Each
/// row prints both times per call and their ratio (scalar over native).
///
/// The plane kernels, the single butterfly stage and the split combine
/// run at n = 4096. The other rows use the sizes the pipeline runs: the
/// 64-point radix-2 of one 128-sample STFT frame, and the 4096-point
/// radix-2 and `cmul_in_place` of the 1500-point Bluestein transform
/// behind the band-energy spectrum of a 3000-sample chunk; `fft_real_*`
/// are those two whole real transforms on a held planner.
fn kernel_ab() {
    use dhf_dsp::fft::FftPlanner;
    use dhf_dsp::Complex;
    use std::f64::consts::{PI, TAU};
    let n = 4096usize;
    let a: Vec<f64> = (0..n).map(|i| ((i * 37 + 11) % 97) as f64 / 97.0 - 0.5).collect();
    let b: Vec<f64> = (0..n).map(|i| ((i * 53 + 29) % 89) as f64 / 89.0 - 0.5).collect();
    let cplx: Vec<Complex> = a.iter().zip(&b).map(|(&r, &i)| Complex::new(r, i)).collect();
    // Unit-modulus factors keep repeated in-place products away from
    // overflow and denormals.
    let unit: Vec<Complex> = (0..n).map(|k| Complex::cis(-TAU * k as f64 / n as f64)).collect();

    // Best-of-3 wall clock of `f` run `iters` times under each dispatch
    // mode, as `[scalar, native]` microseconds per call.
    let ab = |iters: usize, f: &mut dyn FnMut()| -> [f64; 2] {
        let mut best = [f64::INFINITY; 2];
        for (slot, scalar) in [true, false].into_iter().enumerate() {
            simd::force_scalar(scalar);
            for _ in 0..3 {
                let sw = Stopwatch::start();
                for _ in 0..iters {
                    f();
                }
                best[slot] = best[slot].min(sw.secs() * 1e6 / iters as f64);
            }
        }
        simd::force_scalar(false);
        best
    };
    // Every butterfly stage of a `len`-point radix-2 transform (the bit
    // reversal is a permutation, not a kernel), with the stage twiddles
    // `FftPlanner` caches.
    let radix2 = |len: usize, iters: usize| {
        let stages: Vec<Vec<Complex>> = (1..=len.trailing_zeros())
            .map(|s| {
                (0..1usize << (s - 1))
                    .map(|k| Complex::cis(-TAU * k as f64 / (1u64 << s) as f64))
                    .collect()
            })
            .collect();
        let mut buf = cplx[..len].to_vec();
        ab(iters, &mut || {
            for tw in &stages {
                simd::radix2_stage(black_box(&mut buf), tw, tw.len(), false);
            }
        })
    };
    let rfft = |len: usize, iters: usize| {
        let mut planner = FftPlanner::new();
        let mut half = Vec::new();
        ab(iters, &mut || planner.rfft_into(black_box(&a[..len]), black_box(&mut half)))
    };

    let mut out = vec![0.0f64; n];
    let r_mul =
        ab(2000, &mut || simd::mul_add_in_place(black_box(&mut out), black_box(&a), black_box(&b)));
    let r_mag =
        ab(2000, &mut || simd::magnitude_into(black_box(&mut out), black_box(&a), black_box(&b)));
    let r_sum = ab(2000, &mut || {
        black_box(simd::sum_sq(black_box(&a)));
    });
    let mut buf = cplx.clone();
    let r_fly = ab(2000, &mut || {
        simd::radix2_stage(black_box(&mut buf), black_box(&unit[..n / 2]), n / 2, false)
    });
    let twc: Vec<Complex> = (0..=n).map(|k| Complex::cis(-PI * k as f64 / n as f64)).collect();
    let (mut re, mut im) = (vec![0.0f64; n + 1], vec![0.0f64; n + 1]);
    let r_comb = ab(2000, &mut || {
        simd::real_split_combine_soa(
            black_box(&cplx),
            black_box(&twc),
            black_box(&mut re),
            black_box(&mut im),
        )
    });
    let mut buf = cplx.clone();
    let r_cmul =
        ab(2000, &mut || simd::cmul_in_place(black_box(&mut buf), black_box(&unit), false));

    let rows = [
        ("mul_add_in_place", r_mul),
        ("magnitude_into", r_mag),
        ("sum_sq", r_sum),
        ("radix2_stage", r_fly),
        ("real_split_combine_soa", r_comb),
        ("radix2_64", radix2(64, 50_000)),
        ("radix2_4096", radix2(4096, 200)),
        ("cmul_in_place_4096", r_cmul),
        ("fft_real_128", rfft(128, 50_000)),
        ("fft_real_3000", rfft(3000, 100)),
    ];
    println!("\n== dispatch A/B: scalar vs native ({}), best of 3 ==", simd::active_level());
    println!("{:<24} {:>12} {:>12} {:>8}", "kernel", "scalar_us", "native_us", "speedup");
    for (name, [scalar, native]) in rows {
        println!("{name:<24} {scalar:>12.3} {native:>12.3} {:>7.2}x", scalar / native);
    }
}

criterion_group! {
    name = kernels;
    config = config();
    targets = bench_fft, bench_fft_plan_cache, bench_stft, bench_harmonic_conv,
              bench_deep_prior_step, bench_pattern_alignment
}

fn main() {
    kernels();
    kernel_ab();
}
