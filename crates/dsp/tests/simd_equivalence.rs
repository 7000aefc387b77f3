//! The SIMD bit-identity invariant (property tests): every kernel in
//! [`dhf_dsp::simd`] must return **bit-identical** results at every
//! dispatch level the host can run — the scalar source compiled for the
//! baseline, and on x86_64 its AVX2 twins plus the hand-written AVX2
//! complex kernels — for any input values and any length, including
//! every tail residue `len % 4 ∈ {0, 1, 2, 3}` (the widest lane is four
//! `f64`s, so the residue decides how much remainder handling runs).
//!
//! This is the contract that lets runtime dispatch (and the
//! `DHF_FORCE_SCALAR` escape hatch) change *which instructions execute*
//! without ever changing results — the serving determinism invariant in
//! `dhf_serve` builds directly on it.

use dhf_dsp::simd::{self, Level};
use dhf_dsp::Complex;
use proptest::prelude::*;
use std::sync::Mutex;

/// The dispatch switch is process-global, so tests that pin it must not
/// interleave (results would still agree — that is the very invariant —
/// but each test's claimed level coverage would not be trustworthy).
static DISPATCH: Mutex<()> = Mutex::new(());

/// Levels this host can run: the scalar level, then the detected level
/// when it is wider.
fn available_levels() -> Vec<Level> {
    simd::force_scalar(false);
    let mut levels = vec![Level::Scalar, simd::active_level()];
    levels.dedup();
    levels
}

/// Pins dispatch to `level`, one of [`available_levels`].
fn pin(level: Level) {
    simd::force_scalar(level == Level::Scalar);
}

/// Restores auto dispatch even if an assertion unwinds mid-test.
struct AutoDispatch;
impl Drop for AutoDispatch {
    fn drop(&mut self) {
        simd::force_scalar(false);
    }
}

/// Deterministic value stream from a drawn seed: finite values spanning
/// signs and magnitudes, with exact `0.0`/`-0.0` sprinkled in (the bit
/// comparison distinguishes the two zeros).
fn values(seed: u64, n: usize) -> Vec<f64> {
    let mut state = seed | 1;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state
    };
    (0..n)
        .map(|_| {
            let r = next();
            match r % 16 {
                0 => 0.0,
                1 => -0.0,
                2 => 1e-300 * (1.0 + (r >> 32) as f64),
                3 => -3.5e300 * ((r >> 32) as f64 / 4294967296.0),
                4..=7 => ((r >> 11) as f64 / (1u64 << 53) as f64) * 2e9 - 1e9,
                _ => ((r >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0,
            }
        })
        .collect()
}

fn complex_values(seed: u64, n: usize) -> Vec<Complex> {
    values(seed, 2 * n).chunks_exact(2).map(|p| Complex::new(p[0], p[1])).collect()
}

fn bits(a: &[f64]) -> Vec<u64> {
    a.iter().map(|v| v.to_bits()).collect()
}

fn cbits(a: &[Complex]) -> Vec<u64> {
    a.iter().flat_map(|c| [c.re.to_bits(), c.im.to_bits()]).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Elementwise and reduction kernels over real planes. The length is
    /// built as `4·q + r` with the residue drawn uniformly, so every
    /// tail shape is exercised by construction.
    #[test]
    fn plane_kernels_are_bit_identical_across_levels(
        q in 0usize..24,
        r in 0usize..4,
        seed in 1u64..u64::MAX,
        scale in -1e6f64..1e6,
    ) {
        let n = 4 * q + r;
        let a = values(seed, n);
        let b = values(seed.rotate_left(17) ^ 0xabcd, n);
        let acc0 = values(seed.rotate_left(39) ^ 0x1234, n);

        let _guard = DISPATCH.lock().unwrap();
        let _auto = AutoDispatch;
        // Scalar reference results, computed once through the public
        // reference module (the semantic source of truth).
        let mut want_mul = vec![0.0; n];
        simd::scalar::mul_into(&mut want_mul, &a, &b);
        let mut want_mul_add = acc0.clone();
        simd::scalar::mul_add_in_place(&mut want_mul_add, &a, &b);
        let mut want_add = acc0.clone();
        simd::scalar::add_in_place(&mut want_add, &a);
        let mut want_sub = acc0.clone();
        simd::scalar::sub_in_place(&mut want_sub, &a);
        let mut want_scale = acc0.clone();
        simd::scalar::scale_in_place(&mut want_scale, scale);
        let mut want_mag = vec![0.0; n];
        simd::scalar::magnitude_into(&mut want_mag, &a, &b);
        let want_sum = simd::scalar::sum_sq(&a);

        for level in available_levels() {
            pin(level);
            let mut out = vec![0.0; n];
            simd::mul_into(&mut out, &a, &b);
            prop_assert_eq!(bits(&out), bits(&want_mul), "mul_into at {} (n {})", level, n);

            let mut buf = a.clone();
            simd::mul_in_place(&mut buf, &b);
            prop_assert_eq!(bits(&buf), bits(&want_mul), "mul_in_place at {}", level);

            let mut buf = acc0.clone();
            simd::mul_add_in_place(&mut buf, &a, &b);
            prop_assert_eq!(bits(&buf), bits(&want_mul_add), "mul_add at {}", level);

            let mut buf = acc0.clone();
            simd::add_in_place(&mut buf, &a);
            prop_assert_eq!(bits(&buf), bits(&want_add), "add at {}", level);

            let mut buf = acc0.clone();
            simd::sub_in_place(&mut buf, &a);
            prop_assert_eq!(bits(&buf), bits(&want_sub), "sub at {}", level);

            let mut buf = acc0.clone();
            simd::scale_in_place(&mut buf, scale);
            prop_assert_eq!(bits(&buf), bits(&want_scale), "scale at {}", level);

            let mut out = vec![0.0; n];
            simd::magnitude_into(&mut out, &a, &b);
            prop_assert_eq!(bits(&out), bits(&want_mag), "magnitude at {}", level);

            prop_assert_eq!(
                simd::sum_sq(&a).to_bits(), want_sum.to_bits(),
                "sum_sq at {} (n {})", level, n
            );
        }
    }

    /// Complex kernels: butterfly stages, pointwise complex multiplies
    /// (plain and conjugated), and both split-twiddle real-FFT combines.
    /// `m` sweeps past several multiples of the lane width so the vector
    /// loop, the scalar edge bins, and the odd-leftover paths all run.
    #[test]
    fn complex_kernels_are_bit_identical_across_levels(
        half_log in 0u32..6,
        blocks in 1usize..4,
        flags in 0usize..4,
        m in 1usize..34,
        seed in 1u64..u64::MAX,
    ) {
        let (inverse, conj) = (flags & 1 != 0, flags & 2 != 0);
        let half = 1usize << half_log;
        let n = 2 * half * blocks;
        let buf0 = complex_values(seed, n);
        let tw: Vec<Complex> = (0..half)
            .map(|k| Complex::cis(-std::f64::consts::PI * k as f64 / half as f64))
            .collect();
        let z = complex_values(seed ^ 0x5555, m);
        let b = complex_values(seed.rotate_left(23) ^ 0x9999, m);
        let split_tw: Vec<Complex> = (0..=m)
            .map(|k| Complex::cis(-std::f64::consts::PI * k as f64 / m as f64))
            .collect();

        let _guard = DISPATCH.lock().unwrap();
        let _auto = AutoDispatch;
        let mut want_stage = buf0.clone();
        simd::scalar::radix2_stage(&mut want_stage, &tw, half, inverse);
        let mut want_cmul = vec![Complex::ZERO; m];
        simd::scalar::cmul_into(&mut want_cmul, &z, &b, conj);
        let (mut want_re, mut want_im) = (vec![0.0; m + 1], vec![0.0; m + 1]);
        simd::scalar::real_split_combine_soa(&z, &split_tw, &mut want_re, &mut want_im);
        let mut want_aos = vec![Complex::ZERO; m + 1];
        simd::scalar::real_split_combine_aos(&z, &split_tw, &mut want_aos);

        for level in available_levels() {
            pin(level);
            let mut buf = buf0.clone();
            simd::radix2_stage(&mut buf, &tw, half, inverse);
            prop_assert_eq!(
                cbits(&buf), cbits(&want_stage),
                "radix2_stage at {} (half {}, blocks {})", level, half, blocks
            );

            let mut out = vec![Complex::ZERO; m];
            simd::cmul_into(&mut out, &z, &b, conj);
            prop_assert_eq!(cbits(&out), cbits(&want_cmul), "cmul_into at {}", level);

            let mut acc = z.clone();
            simd::cmul_in_place(&mut acc, &b, conj);
            prop_assert_eq!(cbits(&acc), cbits(&want_cmul), "cmul_in_place at {}", level);

            let (mut re, mut im) = (vec![0.0; m + 1], vec![0.0; m + 1]);
            simd::real_split_combine_soa(&z, &split_tw, &mut re, &mut im);
            prop_assert_eq!(bits(&re), bits(&want_re), "combine re at {} (m {})", level, m);
            prop_assert_eq!(bits(&im), bits(&want_im), "combine im at {} (m {})", level, m);

            let mut out = vec![Complex::ZERO; m + 1];
            simd::real_split_combine_aos(&z, &split_tw, &mut out);
            prop_assert_eq!(cbits(&out), cbits(&want_aos), "combine aos at {} (m {})", level, m);
        }
    }

    /// The whole-transform view: a packed real FFT and its inverse must
    /// come out bit-identical whichever level ran them (the transforms
    /// chain every kernel above, so this catches any level-dependent
    /// re-association the per-kernel tests might miss).
    #[test]
    fn fft_outputs_are_bit_identical_across_levels(
        n_log in 1u32..9,
        seed in 1u64..u64::MAX,
    ) {
        let n = 1usize << n_log;
        let signal = values(seed, n);
        let _guard = DISPATCH.lock().unwrap();
        let _auto = AutoDispatch;

        let mut reference: Option<(Vec<u64>, Vec<u64>)> = None;
        for level in available_levels() {
            pin(level);
            let spec = dhf_dsp::fft::fft_real(&signal);
            let back = dhf_dsp::fft::ifft_real(&spec, n);
            let got = (cbits(&spec), bits(&back));
            match &reference {
                None => reference = Some(got),
                Some(want) => {
                    prop_assert_eq!(&got.0, &want.0, "rfft spectrum at {} (n {})", level, n);
                    prop_assert_eq!(&got.1, &want.1, "irfft round trip at {} (n {})", level, n);
                }
            }
        }
    }
}

/// `X[k]` by the per-bin formula with wrapped indices: `z[k % m]`
/// against `z̄[(m - k) % m]`. The kernels special-case the two wrapping
/// bins (`k = 0` and `k = m`) and walk the interior mirror without a
/// modulo; this independent oracle pins that split, which the
/// cross-level tests above cannot see because they compare against
/// `simd::scalar` itself.
fn split_bin_oracle(z: &[Complex], tw: &[Complex], k: usize) -> Complex {
    let m = z.len();
    let a = z[k % m];
    let b = z[(m - k) % m].conj();
    let ze = (a + b).scale(0.5);
    let d = a - b;
    let zo = Complex::new(d.im, -d.re).scale(0.5);
    ze + tw[k] * zo
}

#[test]
fn split_combine_matches_wrapped_index_oracle() {
    let _guard = DISPATCH.lock().unwrap();
    let _auto = AutoDispatch;
    let planes = |re: &[f64], im: &[f64]| -> Vec<u64> {
        re.iter().zip(im).flat_map(|(r, i)| [r.to_bits(), i.to_bits()]).collect()
    };
    for m in 1usize..=65 {
        for seed in [1u64, 0x5eed, 0xdead_beef] {
            let z = complex_values(seed ^ m as u64, m);
            let tw = complex_values(seed.rotate_left(29) ^ m as u64, m + 1);
            let want: Vec<Complex> = (0..=m).map(|k| split_bin_oracle(&z, &tw, k)).collect();
            let want = cbits(&want);

            let mut aos = vec![Complex::ZERO; m + 1];
            let (mut re, mut im) = (vec![0.0; m + 1], vec![0.0; m + 1]);
            simd::scalar::real_split_combine_aos(&z, &tw, &mut aos);
            assert_eq!(cbits(&aos), want, "scalar aos (m {m}, seed {seed:#x})");
            simd::scalar::real_split_combine_soa(&z, &tw, &mut re, &mut im);
            assert_eq!(planes(&re, &im), want, "scalar soa (m {m}, seed {seed:#x})");

            for level in available_levels() {
                pin(level);
                simd::real_split_combine_aos(&z, &tw, &mut aos);
                assert_eq!(cbits(&aos), want, "aos at {level} (m {m}, seed {seed:#x})");
                simd::real_split_combine_soa(&z, &tw, &mut re, &mut im);
                assert_eq!(planes(&re, &im), want, "soa at {level} (m {m}, seed {seed:#x})");
            }
        }
    }
}
