//! Property-based tests on the core invariants, spanning crates.

use dhf::core::PatternAligner;
use dhf::dsp::fft::{fft, ifft, FftPlanner};
use dhf::dsp::stft::{istft, stft, StftConfig};
use dhf::dsp::window::{cola_deviation, WindowKind};
use dhf::dsp::Complex;
use dhf::metrics::{average_mse, average_sdr_db, mse, sdr_db};
use dhf::synth::{PeriodSchedule, QuasiPeriodicSource, Template};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// FFT round trip is the identity for arbitrary signals and lengths
    /// (radix-2 and Bluestein paths alike).
    #[test]
    fn fft_round_trip(len in 2usize..300, seed in 0u64..1000) {
        let x: Vec<Complex> = (0..len)
            .map(|i| {
                let v = ((i as u64).wrapping_mul(seed + 1) % 1000) as f64 / 500.0 - 1.0;
                Complex::new(v, -0.5 * v)
            })
            .collect();
        let y = ifft(&fft(&x));
        for (a, b) in x.iter().zip(&y) {
            prop_assert!((*a - *b).abs() < 1e-6);
        }
    }

    /// Packed real FFT round trip: `irfft(rfft(x)) == x` to ≤1e-9 for
    /// arbitrary real signals across power-of-two, even, odd, and prime
    /// lengths (the odd path exercises the Bluestein fallback).
    #[test]
    fn rfft_round_trip(choice in 0usize..12, seed in 0u64..1000) {
        // Explicit roster so every structural case is hit: pow2, even
        // non-pow2, odd composite, and primes.
        let len = [2usize, 4, 8, 256, 6, 30, 100, 9, 45, 7, 127, 251][choice];
        let x: Vec<f64> = (0..len)
            .map(|i| (((i as u64).wrapping_mul(seed + 7)) % 1000) as f64 / 500.0 - 1.0)
            .collect();
        let mut planner = FftPlanner::new();
        let (mut re, mut im) = (vec![0.0; len / 2 + 1], vec![0.0; len / 2 + 1]);
        planner.rfft_split_into(&x, &mut re, &mut im);
        let mut back = Vec::new();
        planner.irfft_split_into(&re, &im, len, &mut back);
        prop_assert_eq!(back.len(), len);
        for (a, b) in x.iter().zip(&back) {
            prop_assert!((a - b).abs() <= 1e-9, "len {}: {} vs {}", len, a, b);
        }
    }

    /// The packed real path agrees with the full complex transform
    /// (promote to complex, transform, take the half spectrum) to ≤1e-9 —
    /// the equivalence that justified deleting the promotion branch.
    #[test]
    fn rfft_matches_full_complex_fft(choice in 0usize..12, seed in 0u64..1000) {
        let len = [2usize, 4, 8, 256, 6, 30, 100, 9, 45, 7, 127, 251][choice];
        let x: Vec<f64> = (0..len)
            .map(|i| (((i as u64).wrapping_mul(3 * seed + 11)) % 997) as f64 / 498.5 - 1.0)
            .collect();
        let mut planner = FftPlanner::new();
        let (mut re, mut im) = (vec![0.0; len / 2 + 1], vec![0.0; len / 2 + 1]);
        planner.rfft_split_into(&x, &mut re, &mut im);
        let full = fft(&x.iter().map(|&v| Complex::from_real(v)).collect::<Vec<_>>());
        for (k, b) in full.iter().take(len / 2 + 1).enumerate() {
            let a = Complex::new(re[k], im[k]);
            prop_assert!((a - *b).abs() <= 1e-9, "len {} bin {}: {} vs {}", len, k, a, b);
        }
    }

    /// Parseval: FFT preserves energy (up to 1/N convention).
    #[test]
    fn fft_parseval(len in 2usize..200, seed in 0u64..1000) {
        let x: Vec<Complex> = (0..len)
            .map(|i| Complex::from_real((((i as u64) * (seed + 3)) % 97) as f64 / 48.5 - 1.0))
            .collect();
        let spec = fft(&x);
        let et: f64 = x.iter().map(|c| c.norm_sqr()).sum();
        let ef: f64 = spec.iter().map(|c| c.norm_sqr()).sum::<f64>() / len as f64;
        prop_assert!((et - ef).abs() < 1e-6 * et.max(1.0));
    }

    /// Hann and rectangular windows satisfy COLA at every hop that evenly
    /// divides half the window — the precondition the ISTFT relies on.
    #[test]
    fn window_cola_at_dividing_hops(exp in 5u32..10, div in 1u32..4) {
        let len = 1usize << exp;           // 32..512
        let hop = len >> div;              // len/2, len/4, len/8
        let hann = WindowKind::Hann.samples(len);
        prop_assert!(
            cola_deviation(&hann, hop) < 1e-12,
            "Hann len {} hop {} deviates", len, hop
        );
        let rect = WindowKind::Rectangular.samples(len);
        prop_assert!(
            cola_deviation(&rect, hop) < 1e-12,
            "Rect len {} hop {} deviates", len, hop
        );
    }

    /// STFT → ISTFT is a perfect interior reconstruction for *any* COLA
    /// window/hop combination, not just the pipeline default.
    #[test]
    fn stft_istft_perfect_reconstruction(exp in 5u32..9, div in 2u32..4, seed in 0u64..500) {
        let window = 1usize << exp;        // 32..256
        let hop = window >> div;           // window/4 or window/8
        let n = window * 10;
        let x: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64;
                (t * 0.061 + seed as f64).sin()
                    + 0.4 * (t * 0.173).cos()
                    + 0.1 * ((i as u64).wrapping_mul(seed + 11) % 997) as f64 / 997.0
            })
            .collect();
        let cfg = StftConfig::new(window, hop, 40.0).unwrap();
        let spec = stft(&x, &cfg).unwrap();
        let y = istft(&spec);
        prop_assert_eq!(y.len(), n);
        for i in window..n - window {
            prop_assert!(
                (x[i] - y[i]).abs() < 1e-8,
                "window {} hop {} sample {}: {} vs {}", window, hop, i, x[i], y[i]
            );
        }
    }

    /// STFT → ISTFT reconstructs the interior exactly for COLA configs.
    #[test]
    fn stft_round_trip(seed in 0u64..500) {
        let fs = 50.0;
        let n = 1200;
        let x: Vec<f64> = (0..n)
            .map(|i| {
                let t = i as f64;
                (t * 0.07 + seed as f64).sin() + 0.3 * (t * 0.19).cos()
            })
            .collect();
        let cfg = StftConfig::new(128, 32, fs).unwrap();
        let spec = stft(&x, &cfg).unwrap();
        let y = istft(&spec);
        for i in 128..n - 128 {
            prop_assert!((x[i] - y[i]).abs() < 1e-8, "sample {}", i);
        }
    }

    /// Unwarp/restore round trip approximates the identity for smooth
    /// quasi-periodic signals and arbitrary schedules.
    #[test]
    fn pattern_alignment_round_trip(seed in 0u64..200) {
        let fs = 100.0;
        let n = 3000;
        let f_lo = 0.8 + (seed % 7) as f64 * 0.1;
        let f_hi = f_lo + 0.4;
        let track: Vec<f64> = (0..n)
            .map(|i| {
                let x = i as f64 / n as f64;
                f_lo + (f_hi - f_lo) * 0.5 * (1.0 + (std::f64::consts::TAU * x).sin())
            })
            .collect();
        let mut phase = 0.0;
        let signal: Vec<f64> = track
            .iter()
            .map(|&f| {
                phase += std::f64::consts::TAU * f / fs;
                phase.sin()
            })
            .collect();
        let aligner = PatternAligner::new(&track, fs, 32.0).unwrap();
        let un = aligner.unwarp(&signal).unwrap();
        let back = aligner.restore(&un).unwrap();
        let mut err = 0.0;
        for i in 200..n - 300 {
            err += (back[i] - signal[i]).abs();
        }
        let mean_err = err / (n - 500) as f64;
        prop_assert!(mean_err < 0.05, "mean error {}", mean_err);
    }

    /// Rendered sources respect their schedule's frequency band.
    #[test]
    fn rendered_f0_stays_in_band(seed in 0u64..300) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let f_min = 0.9;
        let f_max = 2.1;
        let sched = PeriodSchedule::random(20.0, f_min, f_max, 0.5, 0.1, &mut rng);
        let sig = QuasiPeriodicSource::new(Template::Ppg, sched).render(100.0, 2000);
        prop_assert!(sig.f0.iter().all(|&f| f >= f_min - 1e-9 && f <= f_max + 1e-9));
    }

    /// SDR is shift-sensitive but exact-match is infinite, and adding
    /// noise can only lower it.
    #[test]
    fn sdr_monotone_in_noise(amp1 in 0.01f64..0.2, amp2 in 0.3f64..1.0) {
        let x: Vec<f64> = (0..500).map(|i| (i as f64 * 0.2).sin()).collect();
        let noisy = |a: f64| -> Vec<f64> {
            x.iter().enumerate().map(|(i, &v)| v + a * ((i % 13) as f64 - 6.0) / 6.0).collect()
        };
        let clean_sdr = sdr_db(&x, &noisy(amp1));
        let dirty_sdr = sdr_db(&x, &noisy(amp2));
        prop_assert!(clean_sdr > dirty_sdr);
    }

    /// The paper's aggregation rules: linear-scale SDR average lies
    /// between min and max; geometric MSE mean is between min and max.
    #[test]
    fn aggregation_bounds(a in -10.0f64..30.0, b in -10.0f64..30.0) {
        let avg = average_sdr_db(&[a, b]);
        prop_assert!(avg >= a.min(b) - 1e-9 && avg <= a.max(b) + 1e-9);
        let ma = 10f64.powf(a / 10.0) * 1e-4;
        let mb = 10f64.powf(b / 10.0) * 1e-4;
        let gm = average_mse(&[ma, mb]);
        prop_assert!(gm >= ma.min(mb) - 1e-12 && gm <= ma.max(mb) + 1e-12);
    }

    /// MSE of an estimate equals MSE of the reference against it
    /// (symmetry) and is zero iff identical.
    #[test]
    fn mse_symmetry(seed in 0u64..100) {
        let x: Vec<f64> = (0..64).map(|i| ((i as u64 + seed) % 17) as f64 / 8.0).collect();
        let y: Vec<f64> = (0..64).map(|i| ((i as u64 * 3 + seed) % 19) as f64 / 9.0).collect();
        prop_assert!((mse(&x, &y) - mse(&y, &x)).abs() < 1e-12);
        prop_assert_eq!(mse(&x, &x), 0.0);
    }
}
