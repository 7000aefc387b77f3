//! Fast Fourier transforms.
//!
//! Three engines are provided behind one entry point:
//!
//! * an in-place iterative radix-2 Cooley–Tukey transform for power-of-two
//!   lengths,
//! * Bluestein's chirp-z algorithm for arbitrary lengths, which reduces an
//!   N-point DFT to a circular convolution carried out with the radix-2
//!   engine, and
//! * a *packed real* transform ([`FftPlanner::rfft_split_into`] /
//!   [`FftPlanner::irfft_split_into`]): an even-length real N-point DFT
//!   computed via one N/2-point complex transform by packing even samples
//!   into the real lane and odd samples into the imaginary lane, then
//!   unscrambling with a cached split-twiddle table into separate
//!   real/imaginary planes (the SoA spectrogram layout). Real transforms
//!   of odd length fall back to the full complex engine (Bluestein).
//!
//! All per-size state (bit-reversal permutations, stage twiddle tables,
//! Bluestein chirps and pre-transformed convolution kernels, real-split
//! twiddles) lives in an [`FftPlanner`]: the first transform of a given
//! size builds a plan, every later transform of that size reuses it, so
//! repeated same-size transforms — the STFT hot path — do no twiddle
//! recomputation. The free functions ([`fft`], [`ifft`],
//! [`power_spectrum`], …) delegate to a thread-local planner and therefore
//! share plans within a thread; performance-critical callers running many
//! frames (streaming separation, benches) should hold their own
//! [`FftPlanner`] and use the `*_into` scratch-buffer entry points.
//!
//! The convention is the unnormalized forward DFT
//! `X[k] = Σ_n x[n]·e^{-2πi·kn/N}`; [`ifft`] divides by `N`, so
//! `ifft(fft(x)) == x`.

use crate::complex::Complex;
use crate::simd;
use std::cell::RefCell;
use std::collections::HashMap;

/// Cached state for one power-of-two transform size.
#[derive(Debug, Clone)]
struct Radix2Plan {
    n: usize,
    /// Bit-reversal permutation: `bitrev[i]` is the source index of `i`.
    bitrev: Vec<u32>,
    /// Forward stage twiddles, concatenated by stage: the stage with
    /// butterfly span `len` stores `cis(-2π·k/len)` for `k < len/2` at
    /// offset `len/2 - 1` (total `n - 1` entries). The inverse kernel
    /// conjugates on the fly.
    twiddles: Vec<Complex>,
}

impl Radix2Plan {
    fn new(n: usize) -> Self {
        debug_assert!(n.is_power_of_two());
        let mut bitrev = vec![0u32; n];
        let mut j = 0usize;
        for slot in bitrev.iter_mut().skip(1) {
            let mut bit = n >> 1;
            while j & bit != 0 {
                j ^= bit;
                bit >>= 1;
            }
            j |= bit;
            *slot = j as u32;
        }
        let mut twiddles = Vec::with_capacity(n.saturating_sub(1));
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            for k in 0..half {
                let ang = -2.0 * std::f64::consts::PI * k as f64 / len as f64;
                twiddles.push(Complex::cis(ang));
            }
            len <<= 1;
        }
        Radix2Plan { n, bitrev, twiddles }
    }

    /// In-place radix-2 transform using the cached tables. `inverse`
    /// selects the conjugate (un-normalized) kernel.
    fn execute(&self, buf: &mut [Complex], inverse: bool) {
        let n = self.n;
        debug_assert_eq!(buf.len(), n);
        if n <= 1 {
            return;
        }
        for i in 1..n {
            let j = self.bitrev[i] as usize;
            if i < j {
                buf.swap(i, j);
            }
        }
        let mut len = 2;
        while len <= n {
            let half = len / 2;
            let tw = &self.twiddles[half - 1..half - 1 + half];
            simd::radix2_stage(buf, tw, half, inverse);
            len <<= 1;
        }
    }
}

/// Cached state for one non-power-of-two (Bluestein) transform size.
#[derive(Debug, Clone)]
struct BluesteinPlan {
    /// Convolution length: next power of two ≥ `2n - 1`.
    m: usize,
    /// Forward chirp `e^{-iπ k²/N}` (k² reduced mod 2N for stability).
    /// The inverse transform conjugates on the fly.
    chirp: Vec<Complex>,
    /// Radix-2 spectrum of the forward convolution kernel `b[k] = conj(chirp[k])`.
    kernel_fwd: Vec<Complex>,
    /// Radix-2 spectrum of the inverse convolution kernel `b[k] = chirp[k]`.
    kernel_inv: Vec<Complex>,
}

impl BluesteinPlan {
    fn new(n: usize, radix2_m: &Radix2Plan) -> Self {
        let m = radix2_m.n;
        debug_assert!(m >= 2 * n - 1);
        let pi = std::f64::consts::PI;
        let mut chirp = Vec::with_capacity(n);
        for k in 0..n {
            let kk = (k as u128 * k as u128) % (2 * n as u128);
            chirp.push(Complex::cis(-pi * kk as f64 / n as f64));
        }
        let mut kernel_fwd = vec![Complex::ZERO; m];
        let mut kernel_inv = vec![Complex::ZERO; m];
        kernel_fwd[0] = chirp[0].conj();
        kernel_inv[0] = chirp[0];
        for k in 1..n {
            let c = chirp[k].conj();
            kernel_fwd[k] = c;
            kernel_fwd[m - k] = c;
            kernel_inv[k] = chirp[k];
            kernel_inv[m - k] = chirp[k];
        }
        radix2_m.execute(&mut kernel_fwd, false);
        radix2_m.execute(&mut kernel_inv, false);
        BluesteinPlan { m, chirp, kernel_fwd, kernel_inv }
    }

    /// `chirp[k]` with the transform direction applied.
    #[inline]
    fn chirp_at(&self, k: usize, inverse: bool) -> Complex {
        if inverse {
            self.chirp[k].conj()
        } else {
            self.chirp[k]
        }
    }
}

/// Cached split-twiddle table for one even packed-real transform size.
///
/// The N-point real DFT is computed as one M = N/2-point complex DFT of
/// `z[m] = x[2m] + i·x[2m+1]`; recovering `X[k]` from `Z` needs the
/// twiddles `e^{-2πi·k/N}` for `k ≤ M`, cached here.
#[derive(Debug, Clone)]
struct RealPlan {
    /// `cis(-2π·k/n)` for `k = 0..=n/2`.
    twiddle: Vec<Complex>,
}

impl RealPlan {
    fn new(n: usize) -> Self {
        debug_assert!(n >= 2 && n % 2 == 0);
        let m = n / 2;
        let mut twiddle = Vec::with_capacity(m + 1);
        for k in 0..=m {
            twiddle.push(Complex::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64));
        }
        RealPlan { twiddle }
    }
}

/// A reusable FFT planner: computes and caches per-size plan state
/// (twiddle tables, bit-reversal permutations, Bluestein chirps and
/// kernel spectra, real-split twiddles) so that repeated transforms of the
/// same size pay the table-construction cost exactly once.
///
/// # Example
///
/// ```
/// use dhf_dsp::fft::FftPlanner;
///
/// let mut planner = FftPlanner::new();
/// let (mut re, mut im) = (vec![0.0; 257], vec![0.0; 257]);
/// for _ in 0..100 {
///     let frame = vec![1.0f64; 512];
///     planner.rfft_split_into(&frame, &mut re, &mut im);
/// }
/// // 100 same-size real transforms built exactly two plans: the 256-point
/// // complex half-size plan plus the 512-point real-split table.
/// assert_eq!(planner.plans_built(), 2);
/// assert!((re[0] - 512.0).abs() < 1e-9);
/// ```
#[derive(Debug, Default)]
pub struct FftPlanner {
    radix2: HashMap<usize, Radix2Plan>,
    bluestein: HashMap<usize, BluesteinPlan>,
    real: HashMap<usize, RealPlan>,
    /// Number of plans constructed over the planner's lifetime (cache
    /// misses); cache hits leave it unchanged.
    plans_built: usize,
    /// Scratch for the Bluestein convolution (length `m`).
    conv_scratch: Vec<Complex>,
    /// Scratch for the packed real transform (length `n/2`, or `n` on the
    /// odd-length complex fallback).
    real_scratch: Vec<Complex>,
}

impl FftPlanner {
    /// Creates an empty planner; plans are built lazily per size.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of plans constructed so far (one per distinct size and
    /// engine). Repeated same-size transforms do not increase this.
    pub fn plans_built(&self) -> usize {
        self.plans_built
    }

    fn ensure_radix2(&mut self, n: usize) {
        let plans_built = &mut self.plans_built;
        self.radix2.entry(n).or_insert_with(|| {
            *plans_built += 1;
            Radix2Plan::new(n)
        });
    }

    fn ensure_bluestein(&mut self, n: usize) {
        let m = (2 * n - 1).next_power_of_two();
        self.ensure_radix2(m);
        let plans_built = &mut self.plans_built;
        let radix2 = &self.radix2;
        self.bluestein.entry(n).or_insert_with(|| {
            *plans_built += 1;
            BluesteinPlan::new(n, &radix2[&m])
        });
    }

    /// Un-normalized transform of arbitrary length, in place.
    fn transform(&mut self, buf: &mut [Complex], inverse: bool) {
        let n = buf.len();
        if n <= 1 {
            return;
        }
        if n.is_power_of_two() {
            self.ensure_radix2(n);
            self.radix2[&n].execute(buf, inverse);
            return;
        }
        self.ensure_bluestein(n);
        // Take the scratch out so the plan borrows stay immutable.
        let mut a = std::mem::take(&mut self.conv_scratch);
        let plan = &self.bluestein[&n];
        let m = plan.m;
        let radix2_m = &self.radix2[&m];
        a.clear();
        a.resize(m, Complex::ZERO);
        // Chirp premultiply; the inverse transform conjugates the chirp,
        // which is exactly `cmul_into` with `conj_b`.
        simd::cmul_into(&mut a[..n], &buf[..n], &plan.chirp, inverse);
        radix2_m.execute(&mut a, false);
        let kernel = if inverse { &plan.kernel_inv } else { &plan.kernel_fwd };
        simd::cmul_in_place(&mut a, kernel, false);
        radix2_m.execute(&mut a, true);
        let scale = 1.0 / m as f64;
        for k in 0..n {
            buf[k] = a[k].scale(scale) * plan.chirp_at(k, inverse);
        }
        self.conv_scratch = a;
    }

    /// Forward DFT in place (arbitrary length).
    pub fn fft_inplace(&mut self, buf: &mut [Complex]) {
        self.transform(buf, false);
    }

    /// Inverse DFT in place, with the 1/N normalization.
    pub fn ifft_inplace(&mut self, buf: &mut [Complex]) {
        let n = buf.len();
        if n == 0 {
            return;
        }
        self.transform(buf, true);
        let scale = 1.0 / n as f64;
        for c in buf.iter_mut() {
            *c = c.scale(scale);
        }
    }

    fn ensure_real(&mut self, n: usize) {
        let plans_built = &mut self.plans_built;
        self.real.entry(n).or_insert_with(|| {
            *plans_built += 1;
            RealPlan::new(n)
        });
    }

    /// Forward DFT of a real signal, scattering the non-redundant half
    /// spectrum (`n/2 + 1` bins for even `n`, `(n+1)/2` for odd `n`) into
    /// separate real/imaginary planes (the SoA spectrogram layout).
    ///
    /// Even lengths run the packed path — one `n/2`-point complex
    /// transform plus an O(n) split — so a real transform costs roughly
    /// half a complex one. Odd lengths fall back to the full complex
    /// engine (Bluestein). Reuses internal scratch, so repeated calls of
    /// one size allocate nothing after the first.
    ///
    /// # Panics
    ///
    /// Panics if `re`/`im` are not exactly `n/2 + 1` bins long (`(n+1)/2`
    /// for odd `n`).
    pub fn rfft_split_into(&mut self, input: &[f64], re: &mut [f64], im: &mut [f64]) {
        let n = input.len();
        let bins = if n == 0 { 0 } else { n / 2 + 1 };
        assert_eq!(re.len(), bins, "re plane size inconsistent with input length");
        assert_eq!(im.len(), bins, "im plane size inconsistent with input length");
        if n == 0 {
            return;
        }
        if n == 1 {
            re[0] = input[0];
            im[0] = 0.0;
            return;
        }
        let mut buf = std::mem::take(&mut self.real_scratch);
        buf.clear();
        if n % 2 != 0 {
            // Odd length: full complex transform, keep the half spectrum.
            buf.extend(input.iter().map(|&x| Complex::from_real(x)));
            self.transform(&mut buf, false);
            for ((r, i), c) in re.iter_mut().zip(im.iter_mut()).zip(&buf) {
                *r = c.re;
                *i = c.im;
            }
        } else {
            self.ensure_real(n);
            buf.extend(input.chunks_exact(2).map(|p| Complex::new(p[0], p[1])));
            self.transform(&mut buf, false);
            simd::real_split_combine_soa(&buf, &self.real[&n].twiddle, re, im);
        }
        self.real_scratch = buf;
    }

    /// Rebuilds the packed `n/2`-point spectrum `Z[k]` from the half
    /// spectrum `X[k] = re[k] + i·im[k]`, `k = 0..=n/2`, transforms it
    /// back, and unpacks the interleaved even/odd real samples into `out`.
    fn irfft_unpack(&mut self, re: &[f64], im: &[f64], n: usize, out: &mut Vec<f64>) {
        let m = n / 2;
        self.ensure_real(n);
        let mut buf = std::mem::take(&mut self.real_scratch);
        buf.clear();
        buf.resize(m, Complex::ZERO);
        {
            let tw = &self.real[&n].twiddle;
            for (k, slot) in buf.iter_mut().enumerate() {
                let xa = Complex::new(re[k], im[k]);
                let xb = Complex::new(re[m - k], im[m - k]).conj();
                let ze = (xa + xb).scale(0.5);
                let d = (xa - xb).scale(0.5);
                let zo = d * tw[k].conj();
                // Z[k] = Ze + i·Zo.
                *slot = ze + Complex::new(-zo.im, zo.re);
            }
        }
        self.transform(&mut buf, true);
        let scale = 1.0 / m as f64;
        out.reserve(n);
        for z in &buf {
            out.push(z.re * scale);
            out.push(z.im * scale);
        }
        self.real_scratch = buf;
    }

    /// Odd-length inverse real transform: Hermitian mirror + full complex
    /// inverse (Bluestein fallback of the packed path).
    fn irfft_odd(&mut self, re: &[f64], im: &[f64], n: usize, out: &mut Vec<f64>) {
        let bins = n / 2 + 1;
        let mut buf = std::mem::take(&mut self.real_scratch);
        buf.clear();
        buf.resize(n, Complex::ZERO);
        for ((slot, &r), &i) in buf.iter_mut().zip(re).zip(im) {
            *slot = Complex::new(r, i);
        }
        for k in bins..n {
            buf[k] = buf[n - k].conj();
        }
        self.transform(&mut buf, true);
        let scale = 1.0 / n as f64;
        out.extend(buf.iter().map(|c| c.re * scale));
        self.real_scratch = buf;
    }

    /// Inverse of [`FftPlanner::rfft_split_into`]: reconstructs a
    /// length-`n` real signal from the half spectrum held in the `re`/`im`
    /// planes into `out` (cleared first), via one `n/2`-point inverse
    /// complex transform for even `n`.
    ///
    /// # Panics
    ///
    /// Panics if `re.len() != im.len()` or their length is inconsistent
    /// with `n` (must equal `n/2 + 1` for even `n` or `(n+1)/2` for odd
    /// `n`).
    pub fn irfft_split_into(&mut self, re: &[f64], im: &[f64], n: usize, out: &mut Vec<f64>) {
        assert_eq!(re.len(), im.len(), "re/im plane length mismatch");
        out.clear();
        if n == 0 {
            return;
        }
        let expected = (n / 2 + 1).min(n);
        assert_eq!(re.len(), expected, "half spectrum length inconsistent with signal length");
        if n == 1 {
            out.push(re[0]);
        } else if n % 2 != 0 {
            self.irfft_odd(re, im, n, out);
        } else {
            self.irfft_unpack(re, im, n, out);
        }
    }
}

// The serving runtime ships planner-holding sessions across worker
// threads at open; a non-`Send` field sneaking in must fail the build,
// not the deployment.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<FftPlanner>();
};

thread_local! {
    /// Shared planner behind the free-function API: all `fft`/`ifft`/
    /// `power_spectrum` calls on one thread reuse its plan cache.
    static THREAD_PLANNER: RefCell<FftPlanner> = RefCell::new(FftPlanner::new());
}

/// Runs `f` with the calling thread's shared [`FftPlanner`].
pub fn with_thread_planner<T>(f: impl FnOnce(&mut FftPlanner) -> T) -> T {
    THREAD_PLANNER.with(|p| f(&mut p.borrow_mut()))
}

/// Forward DFT of arbitrary length.
///
/// Power-of-two lengths use radix-2 directly; other lengths fall back to
/// Bluestein's algorithm. The input is borrowed and an owned spectrum is
/// returned. Plans are cached in a thread-local [`FftPlanner`].
///
/// # Example
///
/// ```
/// use dhf_dsp::{fft::fft, Complex};
/// let x = vec![Complex::ONE; 6]; // constant signal of non-pow2 length
/// let spec = fft(&x);
/// assert!((spec[0].re - 6.0).abs() < 1e-9);
/// for k in 1..6 {
///     assert!(spec[k].abs() < 1e-9);
/// }
/// ```
pub fn fft(input: &[Complex]) -> Vec<Complex> {
    let mut buf = input.to_vec();
    with_thread_planner(|p| p.fft_inplace(&mut buf));
    buf
}

/// Inverse DFT with 1/N normalization so that `ifft(fft(x)) == x`.
///
/// # Example
///
/// ```
/// use dhf_dsp::{fft::{fft, ifft}, Complex};
/// let x: Vec<Complex> = (0..10).map(|i| Complex::new(i as f64, -(i as f64))).collect();
/// let y = ifft(&fft(&x));
/// for (a, b) in x.iter().zip(&y) {
///     assert!((*a - *b).abs() < 1e-9);
/// }
/// ```
pub fn ifft(input: &[Complex]) -> Vec<Complex> {
    let mut buf = input.to_vec();
    with_thread_planner(|p| p.ifft_inplace(&mut buf));
    buf
}

/// Power spectrum `|X[k]|²` of a real signal over the non-redundant half
/// (`N/2 + 1` bins for even `N`, `(N+1)/2` for odd `N`), via the packed
/// real path ([`FftPlanner::rfft_split_into`]) on the thread-local planner.
///
/// # Example
///
/// ```
/// use dhf_dsp::fft::power_spectrum;
/// let x = vec![1.0, 0.0, -1.0, 0.0]; // cos at Nyquist/2
/// let p = power_spectrum(&x);
/// assert_eq!(p.len(), 3);
/// assert!((p[1] - 4.0).abs() < 1e-12);
/// ```
pub fn power_spectrum(input: &[f64]) -> Vec<f64> {
    let bins = if input.is_empty() { 0 } else { input.len() / 2 + 1 };
    let (mut re, mut im) = (vec![0.0; bins], vec![0.0; bins]);
    with_thread_planner(|p| p.rfft_split_into(input, &mut re, &mut im));
    for (r, &i) in re.iter_mut().zip(&im) {
        *r = *r * *r + i * i;
    }
    re
}

/// Frequency (Hz) of each bin of an `n`-point DFT at sample rate `fs`,
/// for the non-negative half `0..=n/2`.
pub fn rfft_frequencies(n: usize, fs: f64) -> Vec<f64> {
    (0..=n / 2).map(|k| k as f64 * fs / n as f64).collect()
}

/// Linear (acyclic) autocorrelation of `x` for non-negative lags,
/// normalized so lag 0 equals 1 (unless the signal is all-zero).
///
/// Computed in O(N log N) via zero-padded FFT.
pub fn autocorrelation(x: &[f64]) -> Vec<f64> {
    let n = x.len();
    if n == 0 {
        return Vec::new();
    }
    let m = (2 * n).next_power_of_two();
    let mut buf = vec![Complex::ZERO; m];
    for (i, &v) in x.iter().enumerate() {
        buf[i] = Complex::from_real(v);
    }
    with_thread_planner(|p| {
        p.fft_inplace(&mut buf);
        for v in buf.iter_mut() {
            *v = Complex::from_real(v.norm_sqr());
        }
        p.ifft_inplace(&mut buf);
    });
    let r0 = buf[0].re;
    let norm = if r0.abs() < f64::EPSILON { 1.0 } else { r0 };
    (0..n).map(|k| buf[k].re / norm).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_dft(x: &[Complex]) -> Vec<Complex> {
        let n = x.len();
        (0..n)
            .map(|k| {
                (0..n)
                    .map(|t| {
                        x[t] * Complex::cis(-2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64)
                    })
                    .sum()
            })
            .collect()
    }

    fn assert_spec_close(a: &[Complex], b: &[Complex], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((*x - *y).abs() < tol, "{x} vs {y}");
        }
    }

    /// Half spectrum of `x` through the split-plane transform.
    fn rfft_planes(planner: &mut FftPlanner, x: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let bins = if x.is_empty() { 0 } else { x.len() / 2 + 1 };
        let (mut re, mut im) = (vec![0.0; bins], vec![0.0; bins]);
        planner.rfft_split_into(x, &mut re, &mut im);
        (re, im)
    }

    fn test_signal(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|i| {
                Complex::new(
                    (i as f64 * 0.37).sin() + 0.3 * (i as f64 * 1.7).cos(),
                    (i as f64 * 0.11).cos() - 0.2,
                )
            })
            .collect()
    }

    #[test]
    fn radix2_matches_naive_dft() {
        for &n in &[1usize, 2, 4, 8, 16, 64] {
            let x = test_signal(n);
            assert_spec_close(&fft(&x), &naive_dft(&x), 1e-8 * n as f64);
        }
    }

    #[test]
    fn bluestein_matches_naive_dft() {
        for &n in &[3usize, 5, 6, 7, 12, 60, 100] {
            let x = test_signal(n);
            assert_spec_close(&fft(&x), &naive_dft(&x), 1e-8 * n as f64);
        }
    }

    #[test]
    fn ifft_inverts_fft_all_lengths() {
        for &n in &[1usize, 2, 3, 5, 8, 17, 100, 128] {
            let x = test_signal(n);
            let y = ifft(&fft(&x));
            assert_spec_close(&x, &y, 1e-8 * n as f64);
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let n = 128;
        let x = test_signal(n);
        let spec = fft(&x);
        let et: f64 = x.iter().map(|c| c.norm_sqr()).sum();
        let ef: f64 = spec.iter().map(|c| c.norm_sqr()).sum::<f64>() / n as f64;
        assert!((et - ef).abs() < 1e-8 * et);
    }

    #[test]
    fn pure_tone_concentrates_in_one_bin() {
        let n = 256;
        let f = 17.0;
        let x: Vec<f64> =
            (0..n).map(|i| (2.0 * std::f64::consts::PI * f * i as f64 / n as f64).sin()).collect();
        let mags: Vec<f64> = power_spectrum(&x).iter().map(|p| p.sqrt()).collect();
        let peak = mags.iter().enumerate().max_by(|a, b| a.1.partial_cmp(b.1).unwrap()).unwrap().0;
        assert_eq!(peak, 17);
        // everything else is numerically zero
        for (k, &m) in mags.iter().enumerate() {
            if k != 17 {
                assert!(m < 1e-9, "bin {k} leaked {m}");
            }
        }
    }

    #[test]
    fn real_round_trip_even_and_odd() {
        let mut planner = FftPlanner::new();
        for &n in &[8usize, 9, 100, 101] {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.73).sin() + 0.1).collect();
            let (re, im) = rfft_planes(&mut planner, &x);
            let mut y = Vec::new();
            planner.irfft_split_into(&re, &im, n, &mut y);
            assert_eq!(y.len(), n);
            for (a, b) in x.iter().zip(&y) {
                assert!((a - b).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn rfft_frequencies_span_zero_to_nyquist() {
        let f = rfft_frequencies(100, 100.0);
        assert_eq!(f.len(), 51);
        assert!((f[0]).abs() < 1e-12);
        assert!((f[50] - 50.0).abs() < 1e-12);
        assert!((f[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn autocorrelation_peaks_at_signal_period() {
        let fs = 100.0;
        let period = 25; // 4 Hz at 100 Hz sampling
        let x: Vec<f64> = (0..1000)
            .map(|i| (2.0 * std::f64::consts::PI * i as f64 / period as f64).sin())
            .collect();
        let ac = autocorrelation(&x);
        assert!((ac[0] - 1.0).abs() < 1e-9);
        // find the max away from lag 0
        let lag = (10..200).max_by(|&a, &b| ac[a].partial_cmp(&ac[b]).unwrap()).unwrap();
        let freq = fs / lag as f64;
        assert!((freq - 4.0).abs() < 0.2, "estimated {freq} Hz");
    }

    #[test]
    fn empty_input_is_fine() {
        assert!(fft(&[]).is_empty());
        assert!(ifft(&[]).is_empty());
        assert!(autocorrelation(&[]).is_empty());
    }

    #[test]
    fn planner_reuses_one_plan_set_for_repeated_size() {
        let mut planner = FftPlanner::new();
        let x: Vec<f64> = (0..512).map(|i| (i as f64 * 0.17).sin()).collect();
        let (mut re, mut im) = (vec![0.0; 257], vec![0.0; 257]);
        for _ in 0..64 {
            planner.rfft_split_into(&x, &mut re, &mut im);
        }
        // One real-split table (512) + one half-size radix-2 plan (256).
        assert_eq!(planner.plans_built(), 2, "same-size transforms must share one plan set");
        // A second size adds one more split table + one more radix-2 plan.
        rfft_planes(&mut planner, &[0.5f64; 1024]);
        assert_eq!(planner.plans_built(), 4);
    }

    #[test]
    fn planner_bluestein_caches_kernel_and_radix2() {
        let mut planner = FftPlanner::new();
        let x = test_signal(60);
        for _ in 0..16 {
            let mut buf = x.clone();
            planner.fft_inplace(&mut buf);
        }
        // One Bluestein plan (size 60) + one radix-2 plan (size 128).
        assert_eq!(planner.plans_built(), 2);
        // The cached path still matches the naive DFT.
        let mut buf = x.clone();
        planner.fft_inplace(&mut buf);
        assert_spec_close(&buf, &naive_dft(&x), 1e-8 * 60.0);
    }

    #[test]
    fn packed_rfft_matches_full_complex_transform() {
        // Pow2, even non-pow2, odd, and prime lengths: the packed path
        // must agree with promoting to a full complex DFT to ≤1e-9.
        let mut planner = FftPlanner::new();
        for &n in &[2usize, 4, 6, 8, 30, 64, 101, 127, 128, 256, 510] {
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.61).sin() + 0.2).collect();
            let full: Vec<Complex> = {
                let mut buf: Vec<Complex> = x.iter().map(|&v| Complex::from_real(v)).collect();
                planner.fft_inplace(&mut buf);
                buf[..n / 2 + 1].to_vec()
            };
            let (re, im) = rfft_planes(&mut planner, &x);
            let half: Vec<Complex> =
                re.iter().zip(&im).map(|(&r, &i)| Complex::new(r, i)).collect();
            assert_spec_close(&half, &full, 1e-9);
        }
    }

    #[test]
    fn packed_rfft_tiny_lengths() {
        let mut planner = FftPlanner::new();
        let mut back = vec![1.0];
        let (re, im) = rfft_planes(&mut planner, &[]);
        assert!(re.is_empty() && im.is_empty());
        planner.irfft_split_into(&re, &im, 0, &mut back);
        assert!(back.is_empty());
        let (re, im) = rfft_planes(&mut planner, &[3.5]);
        assert_eq!((re.as_slice(), im.as_slice()), (&[3.5][..], &[0.0][..]));
        planner.irfft_split_into(&re, &im, 1, &mut back);
        assert_eq!(back, vec![3.5]);
        let (re, im) = rfft_planes(&mut planner, &[1.0, -2.0]);
        assert!((re[0] - -1.0).abs() < 1e-12 && im[0].abs() < 1e-12);
        assert!((re[1] - 3.0).abs() < 1e-12 && im[1].abs() < 1e-12);
        planner.irfft_split_into(&re, &im, 2, &mut back);
        assert!((back[0] - 1.0).abs() < 1e-12 && (back[1] - -2.0).abs() < 1e-12);
    }

    #[test]
    fn planner_inverse_matches_forward_inverse_pair() {
        let mut planner = FftPlanner::new();
        for &n in &[12usize, 64, 90] {
            let x = test_signal(n);
            let mut buf = x.clone();
            planner.fft_inplace(&mut buf);
            planner.ifft_inplace(&mut buf);
            assert_spec_close(&x, &buf, 1e-8 * n as f64);
        }
    }
}
