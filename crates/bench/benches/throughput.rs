//! Streaming-engine throughput: samples/sec and sessions/sec of the
//! chunked online separator versus offline [`dhf_core::separate`], plus
//! the plan-cache invariant (steady-state chunks build no new FFT plans —
//! same-size repeated transforms reuse one cached plan, so the hot path
//! does no per-frame twiddle recomputation).
//!
//! Besides the human-readable summary, the run writes a machine-readable
//! `BENCH_dsp.json` (samples/sec offline + streaming, plan counts) into
//! `target/bench-artifacts/` so the perf trajectory is tracked across
//! PRs; CI runs the fast mode and uploads it as an artifact.
//!
//! Knobs: `DHF_FAST=1` shrinks the workload for smoke runs.

use criterion::{criterion_group, Criterion};
use dhf_bench::{
    dhf_iterations, fast_mode, stage_breakdown_json, write_bench_json, JsonObject, Stopwatch,
};
use dhf_core::{DhfConfig, RoundContext};
use dhf_dsp::simd;
use dhf_nn::{DeepPriorNet, NetConfig};
use dhf_stream::{separate_streamed, HpssFrontConfig, StreamingConfig, StreamingSeparator};
use dhf_tensor::{Scalar, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// Two drifting quasi-periodic sources, rendered long enough for many
/// chunks.
fn make_mix(fs: f64, n: usize) -> (Vec<f64>, Vec<Vec<f64>>) {
    let track1: Vec<f64> = (0..n)
        .map(|i| 1.35 + 0.30 * (i as f64 / n as f64 * std::f64::consts::TAU * 6.0).sin())
        .collect();
    let track2: Vec<f64> = (0..n)
        .map(|i| 2.50 + 0.45 * (i as f64 / n as f64 * std::f64::consts::TAU * 9.0).cos())
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
    (mix, vec![track1, track2])
}

/// Deterministic low-cost pipeline so the bench isolates engine overhead
/// (chunking, stitching, FFT planning) from deep-prior training time.
fn bench_dhf_cfg() -> DhfConfig {
    DhfConfig::fast().with_harmonic_interp()
}

fn stream_cfg() -> StreamingConfig {
    StreamingConfig::new(3000, 600, bench_dhf_cfg()).expect("valid streaming config")
}

fn bench_offline(c: &mut Criterion) {
    let fs = 100.0;
    let n = if fast_mode() { 6000 } else { 9000 };
    let (mix, tracks) = make_mix(fs, n);
    c.bench_function("offline_separate", |b| {
        b.iter(|| {
            black_box(
                dhf_core::separate(black_box(&mix), fs, black_box(&tracks), &bench_dhf_cfg())
                    .unwrap(),
            )
        })
    });
}

fn bench_streaming_session(c: &mut Criterion) {
    let fs = 100.0;
    let n = if fast_mode() { 6000 } else { 9000 };
    let (mix, tracks) = make_mix(fs, n);
    let cfg = stream_cfg();
    c.bench_function("streaming_full_session", |b| {
        b.iter(|| black_box(separate_streamed(black_box(&mix), fs, &tracks, &cfg).unwrap()))
    });
}

fn bench_streaming_steady_state(c: &mut Criterion) {
    let fs = 100.0;
    let n = 9000;
    let (mix, tracks) = make_mix(fs, n);
    let cfg = stream_cfg();
    let hop = cfg.hop();
    let mut sep = StreamingSeparator::new(fs, 2, cfg).expect("session");
    // Warm up: one full chunk builds every plan the stream will need.
    let t: Vec<&[f64]> = tracks.iter().map(|t| &t[..3000]).collect();
    sep.push(&mix[..3000], &t).expect("warm-up push");
    let plans_after_first = sep.fft_plans_built();
    let mut offset = 3000usize;
    c.bench_function("streaming_one_chunk_advance", |b| {
        b.iter(|| {
            // Feed exactly one hop (cycling through the source material),
            // which triggers exactly one chunk separation.
            if offset + hop > n {
                offset = 3000;
            }
            let t: Vec<&[f64]> = tracks.iter().map(|t| &t[offset..offset + hop]).collect();
            let blocks = sep.push(&mix[offset..offset + hop], &t).expect("push");
            offset += hop;
            black_box(blocks)
        })
    });
    // The plan-cache invariant: every steady-state chunk reused the plans
    // built by chunk 1 — no per-frame (or even per-chunk) twiddle
    // recomputation.
    assert_eq!(
        sep.fft_plans_built(),
        plans_after_first,
        "steady-state chunks must not build FFT plans"
    );
    println!(
        "plan cache: {} plans after chunk 1, {} after {} chunks — reuse holds",
        plans_after_first,
        sep.fft_plans_built(),
        (sep.samples_emitted() / hop.max(1)).max(1),
    );
}

/// Wall-clock throughput summary: samples/sec per session and concurrent
/// sessions/sec-of-signal a single core sustains in real time. Repeats
/// each path a few times and scores the best pass (steady state, warm
/// plan caches), then records everything in `BENCH_dsp.json`.
fn throughput_summary() {
    let fs = 100.0;
    let n = if fast_mode() { 6000 } else { 18000 };
    let reps = 5;
    let (mix, tracks) = make_mix(fs, n);
    let cfg = stream_cfg();
    let track_refs: Vec<&[f64]> = tracks.iter().map(Vec::as_slice).collect();

    // Streaming path: one persistent session, reset between passes so its
    // plan cache and spectrogram workspace stay warm (the serving regime).
    let mut sep = StreamingSeparator::new(fs, 2, cfg).expect("session");
    let mut t_stream = f64::INFINITY;
    let mut dropped = 0;
    for _ in 0..reps {
        sep.reset();
        let sw = Stopwatch::start();
        sep.push(&mix, &track_refs).expect("streamed push");
        dropped = sep.flush().expect("streamed flush").dropped_samples;
        t_stream = t_stream.min(sw.secs());
    }
    let stream_plans = sep.fft_plans_built();

    // HPSS front filter A/B: the same persistent-session methodology with
    // the transient-rejection filter enabled, so the enabled path's
    // overhead is tracked across PRs (the filter is off by default and
    // costs nothing when disabled — `sep` above measures that path).
    let hpss_cfg = stream_cfg().with_hpss_front(HpssFrontConfig::default());
    let mut sep_hpss = StreamingSeparator::new(fs, 2, hpss_cfg).expect("hpss session");
    let mut t_stream_hpss = f64::INFINITY;
    for _ in 0..reps {
        sep_hpss.reset();
        let sw = Stopwatch::start();
        sep_hpss.push(&mix, &track_refs).expect("hpss streamed push");
        let _ = sep_hpss.flush().expect("hpss streamed flush");
        t_stream_hpss = t_stream_hpss.min(sw.secs());
    }

    // Offline path, two methodologies so the perf trajectory stays
    // comparable across PRs:
    //  * cold — one single pass through the free `dhf_core::separate`
    //    (fresh context, plan construction included): exactly what the
    //    pre-PR-5 summary measured;
    //  * warm — best of `reps` passes through one reusable context.
    let sw = Stopwatch::start();
    let _ = dhf_core::separate(&mix, fs, &tracks, &bench_dhf_cfg()).expect("offline cold");
    let t_offline_cold = sw.secs();

    let mut ctx = RoundContext::new(&bench_dhf_cfg());
    ctx.set_collect_reports(false);
    let mut t_offline = f64::INFINITY;
    for _ in 0..reps {
        let sw = Stopwatch::start();
        let _ = ctx.separate(&mix, fs, &tracks, 0).expect("offline");
        t_offline = t_offline.min(sw.secs());
    }
    let offline_plans = ctx.fft_plans_built();

    // Scalar-vs-SIMD A/B on the same warm context: pin dispatch to the
    // scalar reference kernels, repeat the warm-offline measurement, and
    // release the override. The results are bit-identical either way (the
    // kernel-layer contract); only the wall clock moves. Note the
    // end-to-end ratio understates the kernels themselves: the scalar
    // references are written to autovectorize at the 128-bit baseline,
    // and much of a separation round is non-kernel code — the per-kernel
    // ratios below isolate the dispatch levels.
    let simd_level = simd::active_level().to_string();
    simd::force_scalar(true);
    let mut t_offline_scalar = f64::INFINITY;
    for _ in 0..reps {
        let sw = Stopwatch::start();
        let _ = ctx.separate(&mix, fs, &tracks, 0).expect("offline scalar");
        t_offline_scalar = t_offline_scalar.min(sw.secs());
    }
    simd::force_scalar(false);
    let kernel_ratios = kernel_ab();

    // Stage-level cost breakdown (dhf_obs tracing): the paper-default
    // configuration versus the fast configuration on the same (shorter)
    // profile signal. This is the per-stage evidence behind the
    // "deep-prior fit dominates full-config cost" claim: compare the
    // nn_fit row across the two tables.
    let warm_block = warm_start_ab();

    let n_prof = if fast_mode() { 3000 } else { 6000 };
    let (pmix, ptracks) = make_mix(fs, n_prof);
    let mut full_cfg = DhfConfig::default();
    full_cfg.inpaint.iterations = dhf_iterations();
    let full_bd = profile_stages(&pmix, fs, &ptracks, &full_cfg, if fast_mode() { 1 } else { 2 });
    let fast_bd = profile_stages(&pmix, fs, &ptracks, &DhfConfig::fast(), 3);

    let signal_secs = n as f64 / fs;
    let stream_sps = n as f64 / t_stream;
    let offline_sps = n as f64 / t_offline;
    let offline_cold_sps = n as f64 / t_offline_cold;
    let offline_scalar_sps = n as f64 / t_offline_scalar;
    let simd_speedup = t_offline_scalar / t_offline;
    // A session produces fs samples per wall-clock second; one core can
    // interleave this many sessions while staying real-time.
    let sessions = stream_sps / fs;
    println!("\n== streaming throughput ({signal_secs:.0} s signal, fs {fs} Hz) ==");
    println!(
        "offline   : {:>10.0} samples/sec warm  ({:.4} s, {offline_plans} plans; \
         {offline_cold_sps:.0} cold single-pass)",
        offline_sps, t_offline
    );
    println!(
        "streaming : {:>10.0} samples/sec  ({:.4} s, {dropped} dropped, {stream_plans} plans)",
        stream_sps, t_stream
    );
    let stream_hpss_sps = n as f64 / t_stream_hpss;
    let hpss_overhead = t_stream_hpss / t_stream;
    println!(
        "hpss front: {stream_hpss_sps:>10.0} samples/sec  ({:.4} s, {hpss_overhead:.3}x the \
         filter-off wall)",
        t_stream_hpss
    );
    println!("capacity  : {sessions:>10.1} concurrent real-time sessions/core");
    println!(
        "simd      : {simd_level} kernels {simd_speedup:.2}x over scalar \
         ({offline_scalar_sps:.0} samples/sec forced-scalar)"
    );
    println!(
        "\n== stage breakdown, full config ({} iterations, {:.0} s signal) ==\n{full_bd}",
        full_cfg.inpaint.iterations,
        n_prof as f64 / fs,
    );
    println!("== stage breakdown, fast config (same signal) ==\n{fast_bd}");

    let json = JsonObject::new()
        .str("bench", "throughput")
        .str("mode", if fast_mode() { "fast" } else { "full" })
        .num("fs", fs)
        .int("signal_samples", n as u64)
        .int("best_of", reps as u64)
        .num("offline_samples_per_sec", offline_sps)
        .num("offline_cold_samples_per_sec", offline_cold_sps)
        .num("streaming_samples_per_sec", stream_sps)
        .num("realtime_sessions_per_core", sessions)
        .int("offline_plans_built", offline_plans as u64)
        .int("streaming_plans_built", stream_plans as u64)
        .int("dropped_samples", dropped as u64)
        .obj(
            "hpss_front_filter",
            JsonObject::new()
                .num("streaming_samples_per_sec_off", stream_sps)
                .num("streaming_samples_per_sec_on", stream_hpss_sps)
                .num("overhead_x", hpss_overhead),
        )
        .obj(
            "scalar_vs_simd",
            JsonObject::new()
                .str("simd_level", &simd_level)
                .num("offline_samples_per_sec_scalar", offline_scalar_sps)
                .num("offline_samples_per_sec_simd", offline_sps)
                .num("speedup", simd_speedup)
                .obj("kernels", kernel_ratios),
        )
        .obj("warm_start", warm_block)
        .obj(
            "stage_breakdown",
            JsonObject::new()
                .int("profile_signal_samples", n_prof as u64)
                .int("full_iterations", full_cfg.inpaint.iterations as u64)
                .obj("full", stage_breakdown_json(&full_bd))
                .obj("fast", stage_breakdown_json(&fast_bd)),
        );
    let path = write_bench_json("BENCH_dsp.json", &json);
    println!("wrote {}", path.display());
}

/// Warm-start A/B: a full-configuration (paper-budget) deep-prior
/// streaming session with and without warm starting, timed on the
/// steady-state one-chunk advance — the latency a live consumer sees
/// once the first chunk has trained the prior. Also records the
/// f32-vs-f64 single-fit A/B behind the tensor stack's production
/// precision (the accuracy side of that trade is pinned by
/// `dhf_nn`'s precision tests).
fn warm_start_ab() -> JsonObject {
    let fs = 100.0;
    let chunk = 3000usize;
    let overlap = 600usize;
    // The true full-config budget, not the fast-mode override: the
    // warm-start claim is about making the paper configuration stream at
    // interactive latency, so the A/B always measures that configuration
    // (one source keeps the absolute cost bounded — per-fit cost scales
    // linearly in sources and the ratio is per fit).
    let dhf = DhfConfig::default();
    let full_iters = dhf.inpaint.iterations;
    let cold_cfg = StreamingConfig::new(chunk, overlap, dhf).expect("cold config");
    let warm_cfg = cold_cfg.clone().with_warm_start();
    let hop = cold_cfg.hop();
    let n = chunk + hop;
    let (mix, tracks) = make_mix(fs, n);
    let tracks = &tracks[..1];

    // First chunk (always a cold fit), then time exactly one chunk
    // advance: one more push of `hop` samples triggers one separation.
    let advance = |cfg: &StreamingConfig| -> (f64, u64, u64) {
        let mut sep = StreamingSeparator::new(fs, 1, cfg.clone()).expect("session");
        let t: Vec<&[f64]> = tracks.iter().map(|t| &t[..chunk]).collect();
        sep.push(&mix[..chunk], &t).expect("first chunk");
        let t: Vec<&[f64]> = tracks.iter().map(|t| &t[chunk..]).collect();
        let sw = Stopwatch::start();
        let blocks = sep.push(&mix[chunk..], &t).expect("one-chunk advance");
        let secs = sw.secs();
        black_box(blocks);
        (secs, sep.warm_hits(), sep.cold_fits())
    };
    let (t_cold, cold_session_hits, _) = advance(&cold_cfg);
    let (t_warm, warm_hits, warm_session_colds) = advance(&warm_cfg);
    assert_eq!(cold_session_hits, 0, "the cold session must never resume weights");
    assert_eq!(warm_hits, 1, "the warm session's second chunk must resume weights");
    assert_eq!(warm_session_colds, 1, "only the warm session's first chunk cold-fits");
    let speedup = t_cold / t_warm;

    // f32-vs-f64 fit A/B on a full-config-shaped prior (best of 3).
    fn fit_secs<S: Scalar>(iters: usize) -> f64 {
        let (bins, frames) = (64, 48);
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let mut rng = StdRng::seed_from_u64(0xF32);
            let mut net: DeepPriorNet<S> =
                DeepPriorNet::new(&NetConfig::default(), bins, frames, &mut rng).expect("net");
            let target = Tensor::filled(&[1, bins, frames], S::from_f32(0.3));
            let mask = Tensor::filled(&[1, bins, frames], S::ONE);
            let sw = Stopwatch::start();
            black_box(net.fit(&target, &mask, iters, 0.01));
            best = best.min(sw.secs());
        }
        best
    }
    let fit_iters = if fast_mode() { 40 } else { 120 };
    let t_f32 = fit_secs::<f32>(fit_iters);
    let t_f64 = fit_secs::<f64>(fit_iters);

    println!("\n== warm start, full config ({full_iters} iterations, 1 source) ==");
    println!("one-chunk advance: cold {t_cold:.3} s, warm {t_warm:.3} s — {speedup:.1}x");
    println!(
        "nn fit precision : f32 {t_f32:.3} s, f64 {t_f64:.3} s — {:.2}x ({fit_iters} iters)",
        t_f64 / t_f32
    );

    JsonObject::new()
        .int("full_iterations", full_iters as u64)
        .int("chunk_samples", chunk as u64)
        .num("one_chunk_advance_secs_cold", t_cold)
        .num("one_chunk_advance_secs_warm", t_warm)
        .num("warm_speedup", speedup)
        .int("warm_fits", warm_hits)
        .obj(
            "f32_vs_f64",
            JsonObject::new()
                .int("fit_iterations", fit_iters as u64)
                .num("fit_secs_f32", t_f32)
                .num("fit_secs_f64", t_f64)
                .num("f32_speedup", t_f64 / t_f32),
        )
}

/// Stage-level profile of the offline pipeline under one configuration:
/// opens the tracing gate, runs `reps` separations, and drains this
/// thread's span ring into a fresh breakdown. The gate is opened only
/// around the profiled passes so every timing section above stays
/// untraced (tracing is cheap, but the summary measures the pipeline,
/// not the pipeline-plus-profiler).
fn profile_stages(
    mix: &[f64],
    fs: f64,
    tracks: &[Vec<f64>],
    cfg: &DhfConfig,
    reps: usize,
) -> dhf_obs::StageBreakdown {
    // Empty the ring first so leftovers from earlier sections cannot
    // leak into this profile.
    let mut discard = dhf_obs::StageBreakdown::new();
    dhf_obs::drain_thread_into(&mut discard);
    dhf_obs::set_enabled(true);
    for _ in 0..reps.max(1) {
        let _ = dhf_core::separate(mix, fs, tracks, cfg).expect("profiled separate");
    }
    dhf_obs::set_enabled(false);
    let mut bd = dhf_obs::StageBreakdown::new();
    dhf_obs::drain_thread_into(&mut bd);
    bd
}

/// Per-kernel A/B: forced-scalar against native dispatch for the kernel
/// entry points the pipeline calls, isolated from pipeline overhead. Each
/// row records both times per call and their ratio (scalar over native).
///
/// The plane kernels, the single butterfly stage and the split combine
/// run at n = 4096. The other rows use the sizes the pipeline runs: the
/// 64-point radix-2 of one 128-sample STFT frame, and the 4096-point
/// radix-2 and `cmul_in_place` of the 1500-point Bluestein transform
/// behind the band-energy spectrum of a 3000-sample chunk; `fft_real_*`
/// are those two whole real transforms on a held planner.
fn kernel_ab() -> JsonObject {
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
    // mode, as microseconds per call.
    let ab = |iters: usize, f: &mut dyn FnMut()| -> JsonObject {
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
        JsonObject::new()
            .num("scalar_us", best[0])
            .num("native_us", best[1])
            .num("speedup", best[0] / best[1])
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

    JsonObject::new()
        .obj("mul_add_in_place", r_mul)
        .obj("magnitude_into", r_mag)
        .obj("sum_sq", r_sum)
        .obj("radix2_stage", r_fly)
        .obj("real_split_combine_soa", r_comb)
        .obj("radix2_64", radix2(64, 50_000))
        .obj("radix2_4096", radix2(4096, 200))
        .obj("cmul_in_place_4096", r_cmul)
        .obj("fft_real_128", rfft(128, 50_000))
        .obj("fft_real_3000", rfft(3000, 100))
}

fn config() -> Criterion {
    Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3))
}

criterion_group! {
    name = throughput;
    config = config();
    targets = bench_offline, bench_streaming_session, bench_streaming_steady_state
}

fn main() {
    throughput();
    throughput_summary();
}
