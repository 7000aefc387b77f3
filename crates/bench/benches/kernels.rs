//! Criterion micro-benchmarks of the computational kernels underlying the
//! paper pipeline: FFT, STFT, harmonic convolution forward/backward, one
//! Adam step of the full SpAc LU-Net, and pattern alignment.

use criterion::{criterion_group, criterion_main, Criterion};
use dhf_core::PatternAligner;
use dhf_dsp::fft::fft_real;
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

criterion_group! {
    name = kernels;
    config = config();
    targets = bench_fft, bench_fft_plan_cache, bench_stft, bench_harmonic_conv,
              bench_deep_prior_step, bench_pattern_alignment
}

criterion_main!(kernels);
