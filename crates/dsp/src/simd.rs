//! Runtime-dispatched SIMD kernels for the spectral hot path.
//!
//! Every inner loop the separation pipeline leans on — radix-2
//! butterflies, the packed-real split-twiddle combine, window multiplies,
//! overlap-add accumulation, per-bin gain application, magnitude
//! extraction, and the energy reduction — funnels through the kernels in
//! this module.
//!
//! # One source, compiled twice
//!
//! [`scalar`] is the only source of every kernel. Each scalar kernel is
//! `#[inline(always)]`, so it is compiled once for the target's baseline
//! (what [`Level::Scalar`] runs) and, on x86_64, once more inside an
//! AVX2 twin — a `#[target_feature(enable = "avx2")]` function whose body
//! is the scalar call — where LLVM vectorizes the same loops to 256-bit
//! lanes ([`Level::Avx2`]). Three kernels keep hand-written AVX2
//! intrinsics, because the autovectorizer handles their array-of-structs
//! complex products poorly: [`radix2_stage`], [`cmul_into`] and
//! [`cmul_in_place`]. Every other target runs the scalar source, which
//! its compiler vectorizes at the baseline.
//!
//! # Determinism contract
//!
//! Every dispatch level is **bit-identical** to [`scalar`] on all inputs.
//! Compiling a loop for wider lanes changes instructions, not arithmetic:
//! IEEE-754 operations are exactly rounded, rustc never contracts a
//! multiply and an add into an FMA, and LLVM does not reassociate
//! floating-point adds, so each element sees the same operations in the
//! same order. The one reduction, [`sum_sq`], stripes over four
//! accumulators combined as `(acc0 + acc1) + (acc2 + acc3)` plus a
//! sequential tail in the source itself, so no lane width reorders it.
//! The hand kernels keep the scalar operand order for the real part of
//! each complex product and rely only on the commutativity of IEEE
//! addition for the imaginary part, which is bit-exact.
//!
//! This contract is what lets the serving runtime guarantee bit-identical
//! serve-vs-serial results while still picking the fastest kernels per
//! machine, and it is locked by proptests across all remainder lanes
//! (`len % 4 ∈ {0, 1, 2, 3}`).
//!
//! # Dispatch
//!
//! [`active_level`] is [`Level::Avx2`] when runtime detection finds AVX2,
//! unless [`force_scalar`] (benches and tests) or the `DHF_FORCE_SCALAR`
//! environment variable (`1`/`true`, read once per process — the CI
//! knob) pins [`Level::Scalar`].
//!
//! # Adding a kernel
//!
//! 1. Write it in [`scalar`], `#[inline(always)]` — that defines the
//!    semantics, including any reduction order.
//! 2. Add the dispatching wrapper here, with slice-length `assert`s.
//! 3. List it in the `avx2` module's `twins!` invocation.
//! 4. Extend the bit-identity proptests with it.
//!
//! A hand-written AVX2 form replaces a twin only when it beats the twin
//! in the `kernels` bench's per-kernel dispatch A/B *and* the gain shows
//! up end to end.

// This module is the one sanctioned exception to the workspace-wide
// `unsafe_code = "deny"`: every unsafe block is a call into the `avx2`
// module after runtime detection, a pointer load/store whose bounds the
// dispatcher's asserts establish, or a raw slice-to-lane
// reinterpretation.
#![allow(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]

use crate::complex::Complex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

/// A SIMD dispatch level: what [`active_level`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// The [`scalar`] source compiled for the target's baseline.
    Scalar,
    /// x86_64 AVX2 (runtime-detected): the AVX2 twins of the scalar
    /// source plus the hand-written complex kernels.
    Avx2,
}

impl std::fmt::Display for Level {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Level::Scalar => write!(f, "scalar"),
            Level::Avx2 => write!(f, "avx2"),
        }
    }
}

/// Set by [`force_scalar`].
static FORCE_SCALAR: AtomicBool = AtomicBool::new(false);

/// What the hardware (and the `DHF_FORCE_SCALAR` env knob) supports,
/// resolved once per process.
fn detected_level() -> Level {
    static DETECTED: OnceLock<Level> = OnceLock::new();
    *DETECTED.get_or_init(|| {
        let forced = std::env::var("DHF_FORCE_SCALAR")
            .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
            .unwrap_or(false);
        if forced {
            return Level::Scalar;
        }
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            return Level::Avx2;
        }
        Level::Scalar
    })
}

/// The dispatch level kernels will actually use right now.
pub fn active_level() -> Level {
    if FORCE_SCALAR.load(Ordering::Relaxed) {
        Level::Scalar
    } else {
        detected_level()
    }
}

/// `force_scalar(true)` pins every kernel to [`Level::Scalar`];
/// `force_scalar(false)` returns to the detected level.
///
/// The switch is process-wide. Thanks to the bit-identity contract,
/// flipping it concurrently with running kernels changes which
/// instructions execute but never the results.
pub fn force_scalar(on: bool) {
    FORCE_SCALAR.store(on, Ordering::Relaxed);
}

/// Views a complex buffer as its interleaved `[re, im, …]` lane data.
///
/// Sound because [`Complex`] is `#[repr(C)] { re: f64, im: f64 }`: the
/// slice covers exactly `2 · len` contiguous `f64`s with no padding, and
/// `f64` admits every bit pattern.
#[inline]
pub fn complex_lanes(buf: &[Complex]) -> &[f64] {
    // SAFETY: see the doc comment — repr(C) guarantees layout, the length
    // is exact, and the lifetime is inherited from the borrow.
    unsafe { std::slice::from_raw_parts(buf.as_ptr().cast::<f64>(), buf.len() * 2) }
}

/// Mutable form of [`complex_lanes`].
#[inline]
pub fn complex_lanes_mut(buf: &mut [Complex]) -> &mut [f64] {
    // SAFETY: as `complex_lanes`, plus exclusivity carried over from the
    // unique borrow.
    unsafe { std::slice::from_raw_parts_mut(buf.as_mut_ptr().cast::<f64>(), buf.len() * 2) }
}

macro_rules! dispatch {
    ($name:ident ( $($arg:expr),* )) => {{
        #[cfg(target_arch = "x86_64")]
        if active_level() == Level::Avx2 {
            // SAFETY: `active_level()` reports `Avx2` only when runtime
            // detection confirmed the feature; slice bounds were checked
            // by the caller's asserts.
            return unsafe { avx2::$name($($arg),*) };
        }
        scalar::$name($($arg),*)
    }};
}

/// `out[i] = a[i] · b[i]`.
///
/// # Panics
///
/// Panics if the three slices differ in length.
pub fn mul_into(out: &mut [f64], a: &[f64], b: &[f64]) {
    assert_eq!(out.len(), a.len(), "mul_into length mismatch");
    assert_eq!(out.len(), b.len(), "mul_into length mismatch");
    dispatch!(mul_into(out, a, b))
}

/// `a[i] *= b[i]`.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn mul_in_place(a: &mut [f64], b: &[f64]) {
    assert_eq!(a.len(), b.len(), "mul_in_place length mismatch");
    dispatch!(mul_in_place(a, b))
}

/// `acc[i] += a[i] · b[i]` (separate multiply and add — no FMA — so every
/// dispatch level rounds identically).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn mul_add_in_place(acc: &mut [f64], a: &[f64], b: &[f64]) {
    assert_eq!(acc.len(), a.len(), "mul_add_in_place length mismatch");
    assert_eq!(acc.len(), b.len(), "mul_add_in_place length mismatch");
    dispatch!(mul_add_in_place(acc, a, b))
}

/// `acc[i] += a[i]`.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn add_in_place(acc: &mut [f64], a: &[f64]) {
    assert_eq!(acc.len(), a.len(), "add_in_place length mismatch");
    dispatch!(add_in_place(acc, a))
}

/// `acc[i] -= a[i]`.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn sub_in_place(acc: &mut [f64], a: &[f64]) {
    assert_eq!(acc.len(), a.len(), "sub_in_place length mismatch");
    dispatch!(sub_in_place(acc, a))
}

/// `a[i] *= s`.
pub fn scale_in_place(a: &mut [f64], s: f64) {
    dispatch!(scale_in_place(a, s))
}

/// `out[i] = √(re[i]² + im[i]²)`.
///
/// Note this is the plain square-root form, not `hypot`: it is what every
/// lane width computes identically (hardware `sqrt` is exactly rounded),
/// at the cost of `hypot`'s protection against overflow at magnitudes
/// around `1e154` — far beyond any spectrogram this pipeline produces.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn magnitude_into(out: &mut [f64], re: &[f64], im: &[f64]) {
    assert_eq!(out.len(), re.len(), "magnitude_into length mismatch");
    assert_eq!(out.len(), im.len(), "magnitude_into length mismatch");
    dispatch!(magnitude_into(out, re, im))
}

/// `Σ a[i]²` with the deterministic virtual-4-lane reduction order.
pub fn sum_sq(a: &[f64]) -> f64 {
    dispatch!(sum_sq(a))
}

/// One radix-2 butterfly stage over every block of `buf`: for each block
/// of `2·half` elements and each `k < half`,
/// `v = buf[i+k+half] · w_k`, `buf[i+k] = u + v`, `buf[i+k+half] = u - v`,
/// where `w_k = tw[k]` (conjugated when `inverse`).
///
/// # Panics
///
/// Panics if `tw.len() != half` or `buf.len()` is not a multiple of
/// `2·half`.
pub fn radix2_stage(buf: &mut [Complex], tw: &[Complex], half: usize, inverse: bool) {
    assert_eq!(tw.len(), half, "twiddle slice must cover one butterfly span");
    assert_eq!(buf.len() % (2 * half), 0, "buffer must hold whole butterfly blocks");
    dispatch!(radix2_stage(buf, tw, half, inverse))
}

/// Pointwise complex multiply `a[i] *= b[i]` (`b` conjugated when
/// `conj_b`).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn cmul_in_place(a: &mut [Complex], b: &[Complex], conj_b: bool) {
    assert_eq!(a.len(), b.len(), "cmul_in_place length mismatch");
    dispatch!(cmul_in_place(a, b, conj_b))
}

/// Pointwise complex multiply `out[i] = a[i] · b[i]` (`b` conjugated when
/// `conj_b`).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn cmul_into(out: &mut [Complex], a: &[Complex], b: &[Complex], conj_b: bool) {
    assert_eq!(out.len(), a.len(), "cmul_into length mismatch");
    assert_eq!(out.len(), b.len(), "cmul_into length mismatch");
    dispatch!(cmul_into(out, a, b, conj_b))
}

/// Packed-real split-twiddle combine into SoA planes: recovers the half
/// spectrum `X[k]`, `k = 0..=m`, of a real signal from the spectrum `z`
/// of its packed `m`-point complex transform, writing real parts to `re`
/// and imaginary parts to `im`.
///
/// `X[k] = Ze + tw[k]·Zo` with `Ze = (z[k] + z̄[m-k])/2` and
/// `Zo = -i·(z[k] - z̄[m-k])/2` (indices mod `m`).
///
/// # Panics
///
/// Panics if `z` is empty, `tw.len() != z.len() + 1` or the output planes
/// are not `z.len() + 1` long.
pub fn real_split_combine_soa(z: &[Complex], tw: &[Complex], re: &mut [f64], im: &mut [f64]) {
    let m = z.len();
    assert_eq!(tw.len(), m + 1, "split twiddle table length mismatch");
    assert_eq!(re.len(), m + 1, "re plane length mismatch");
    assert_eq!(im.len(), m + 1, "im plane length mismatch");
    dispatch!(real_split_combine_soa(z, tw, re, im))
}

/// As [`real_split_combine_soa`], but writing an array-of-structs half
/// spectrum.
///
/// # Panics
///
/// Panics if `z` is empty, `tw.len() != z.len() + 1` or
/// `out.len() != z.len() + 1`.
pub fn real_split_combine_aos(z: &[Complex], tw: &[Complex], out: &mut [Complex]) {
    let m = z.len();
    assert_eq!(tw.len(), m + 1, "split twiddle table length mismatch");
    assert_eq!(out.len(), m + 1, "half spectrum length mismatch");
    dispatch!(real_split_combine_aos(z, tw, out))
}

/// Scalar kernels — the only source of every kernel, and the reference
/// every dispatch level must match bit for bit.
///
/// Each kernel is `#[inline(always)]` so that the AVX2 twins compile its
/// body with AVX2 enabled (see the module docs). The reduction kernel
/// stripes over a virtual lane width of four in the source, so no vector
/// width reorders it.
pub mod scalar {
    use super::Complex;

    /// `out[i] = a[i] · b[i]`.
    #[inline(always)]
    pub fn mul_into(out: &mut [f64], a: &[f64], b: &[f64]) {
        for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
            *o = x * y;
        }
    }

    /// `a[i] *= b[i]`.
    #[inline(always)]
    pub fn mul_in_place(a: &mut [f64], b: &[f64]) {
        for (x, &y) in a.iter_mut().zip(b) {
            *x *= y;
        }
    }

    /// `acc[i] += a[i] · b[i]`.
    #[inline(always)]
    pub fn mul_add_in_place(acc: &mut [f64], a: &[f64], b: &[f64]) {
        for ((o, &x), &y) in acc.iter_mut().zip(a).zip(b) {
            *o += x * y;
        }
    }

    /// `acc[i] += a[i]`.
    #[inline(always)]
    pub fn add_in_place(acc: &mut [f64], a: &[f64]) {
        for (o, &x) in acc.iter_mut().zip(a) {
            *o += x;
        }
    }

    /// `acc[i] -= a[i]`.
    #[inline(always)]
    pub fn sub_in_place(acc: &mut [f64], a: &[f64]) {
        for (o, &x) in acc.iter_mut().zip(a) {
            *o -= x;
        }
    }

    /// `a[i] *= s`.
    #[inline(always)]
    pub fn scale_in_place(a: &mut [f64], s: f64) {
        for x in a.iter_mut() {
            *x *= s;
        }
    }

    /// `out[i] = √(re[i]² + im[i]²)`.
    #[inline(always)]
    pub fn magnitude_into(out: &mut [f64], re: &[f64], im: &[f64]) {
        for ((o, &r), &i) in out.iter_mut().zip(re).zip(im) {
            *o = (r * r + i * i).sqrt();
        }
    }

    /// `Σ a[i]²` striped over four accumulators: `acc[j] += a[4c+j]²`,
    /// combined as `(acc0 + acc1) + (acc2 + acc3)` plus a sequential
    /// tail. This exact order is the determinism contract for every
    /// dispatch level.
    #[inline(always)]
    pub fn sum_sq(a: &[f64]) -> f64 {
        let main = a.len() & !3;
        let mut acc = [0.0f64; 4];
        for chunk in a[..main].chunks_exact(4) {
            for (s, &v) in acc.iter_mut().zip(chunk) {
                *s += v * v;
            }
        }
        let mut tail = 0.0;
        for &v in &a[main..] {
            tail += v * v;
        }
        ((acc[0] + acc[1]) + (acc[2] + acc[3])) + tail
    }

    /// One radix-2 butterfly stage (see the dispatching wrapper).
    #[inline(always)]
    pub fn radix2_stage(buf: &mut [Complex], tw: &[Complex], half: usize, inverse: bool) {
        // The direction is fixed for the whole stage: branch once, so the
        // butterfly loop itself is branch-free.
        if inverse {
            butterflies(buf, tw, half, Complex::conj);
        } else {
            butterflies(buf, tw, half, |t| t);
        }
    }

    /// [`radix2_stage`] with twiddle `k` taken as `w(tw[k])`.
    #[inline(always)]
    fn butterflies(
        buf: &mut [Complex],
        tw: &[Complex],
        half: usize,
        w: impl Fn(Complex) -> Complex,
    ) {
        for block in buf.chunks_exact_mut(2 * half) {
            let (lo, hi) = block.split_at_mut(half);
            for ((u, v), &t) in lo.iter_mut().zip(hi).zip(tw) {
                let x = *u;
                let y = *v * w(t);
                *u = x + y;
                *v = x - y;
            }
        }
    }

    /// Pointwise `a[i] *= b[i]` (conjugating `b` first when `conj_b`).
    #[inline(always)]
    pub fn cmul_in_place(a: &mut [Complex], b: &[Complex], conj_b: bool) {
        if conj_b {
            for (x, &y) in a.iter_mut().zip(b) {
                *x *= y.conj();
            }
        } else {
            for (x, &y) in a.iter_mut().zip(b) {
                *x *= y;
            }
        }
    }

    /// Pointwise `out[i] = a[i] · b[i]` (conjugating `b` first when
    /// `conj_b`).
    #[inline(always)]
    pub fn cmul_into(out: &mut [Complex], a: &[Complex], b: &[Complex], conj_b: bool) {
        let items = out.iter_mut().zip(a).zip(b);
        if conj_b {
            for ((o, &x), &y) in items {
                *o = x * y.conj();
            }
        } else {
            for ((o, &x), &y) in items {
                *o = x * y;
            }
        }
    }

    /// `X[k] = Ze + t·Zo` of the packed real transform, from `a = z[k]`,
    /// the conjugated mirror `b = z̄[m-k]` and `t = tw[k]`.
    #[inline(always)]
    fn split_bin(a: Complex, b: Complex, t: Complex) -> Complex {
        let ze = (a + b).scale(0.5);
        let d = a - b;
        // Zo = d·(-i)/2.
        let zo = Complex::new(d.im, -d.re).scale(0.5);
        ze + t * zo
    }

    /// Split-twiddle combine into SoA planes (see the dispatching
    /// wrapper).
    #[inline(always)]
    pub fn real_split_combine_soa(z: &[Complex], tw: &[Complex], re: &mut [f64], im: &mut [f64]) {
        let m = z.len();
        // Bins 0 and m both read z[0] (the mirror index wraps mod m); the
        // interior pairs z[k] with z[m-k] and needs no modulo.
        for k in [0, m] {
            let x = split_bin(z[0], z[0].conj(), tw[k]);
            re[k] = x.re;
            im[k] = x.im;
        }
        let interior = re[1..m]
            .iter_mut()
            .zip(&mut im[1..m])
            .zip(&z[1..])
            .zip(z[1..].iter().rev())
            .zip(&tw[1..m]);
        for ((((r, i), &a), &b), &t) in interior {
            let x = split_bin(a, b.conj(), t);
            *r = x.re;
            *i = x.im;
        }
    }

    /// Split-twiddle combine into an AoS half spectrum.
    #[inline(always)]
    pub fn real_split_combine_aos(z: &[Complex], tw: &[Complex], out: &mut [Complex]) {
        let m = z.len();
        // Edge and interior bins as in `real_split_combine_soa`.
        for k in [0, m] {
            out[k] = split_bin(z[0], z[0].conj(), tw[k]);
        }
        let interior = out[1..m].iter_mut().zip(&z[1..]).zip(z[1..].iter().rev()).zip(&tw[1..m]);
        for (((o, &a), &b), &t) in interior {
            *o = split_bin(a, b.conj(), t);
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! The AVX2 level: an AVX2 twin of every scalar kernel except the
    //! three complex-product kernels, which are hand-written over one
    //! two-complexes-per-vector multiply ([`cmul2`]).

    use super::{scalar, Complex};
    use core::arch::x86_64::{
        __m256d, _mm256_add_pd, _mm256_addsub_pd, _mm256_loadu_pd, _mm256_movedup_pd,
        _mm256_mul_pd, _mm256_permute_pd, _mm256_set_pd, _mm256_storeu_pd, _mm256_sub_pd,
        _mm256_xor_pd,
    };

    /// Compiles each listed [`scalar`] kernel a second time with AVX2
    /// enabled. The twins are `unsafe fn` only because a safe
    /// `#[target_feature]` function needs Rust 1.86 and the workspace's
    /// `rust-version` is 1.80.
    macro_rules! twins {
        ($($name:ident($($arg:ident: $ty:ty),*) $(-> $ret:ty)?;)*) => {$(
            /// The AVX2 twin of the [`scalar`] kernel of the same name.
            ///
            /// # Safety
            ///
            /// The CPU must support AVX2.
            #[target_feature(enable = "avx2")]
            pub(super) unsafe fn $name($($arg: $ty),*) $(-> $ret)? {
                scalar::$name($($arg),*)
            }
        )*};
    }

    twins! {
        mul_into(out: &mut [f64], a: &[f64], b: &[f64]);
        mul_in_place(a: &mut [f64], b: &[f64]);
        mul_add_in_place(acc: &mut [f64], a: &[f64], b: &[f64]);
        add_in_place(acc: &mut [f64], a: &[f64]);
        sub_in_place(acc: &mut [f64], a: &[f64]);
        scale_in_place(a: &mut [f64], s: f64);
        magnitude_into(out: &mut [f64], re: &[f64], im: &[f64]);
        sum_sq(a: &[f64]) -> f64;
        real_split_combine_soa(z: &[Complex], tw: &[Complex], re: &mut [f64], im: &mut [f64]);
        real_split_combine_aos(z: &[Complex], tw: &[Complex], out: &mut [Complex]);
    }

    /// Two packed complex products `[v0·w0, v1·w1]`, with `w` conjugated
    /// first when `conj_w`. Per complex, the real lane gets
    /// `v.re·w.re − v.im·w.im` and the imaginary lane
    /// `v.im·w.re + v.re·w.im`: the scalar products and rounding order.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn cmul2(v: __m256d, w: __m256d, conj_w: bool) -> __m256d {
        // Pure register arithmetic: the intrinsics are safe inside a
        // function gated on the same feature.
        let w = if conj_w { _mm256_xor_pd(w, _mm256_set_pd(-0.0, 0.0, -0.0, 0.0)) } else { w };
        let wr = _mm256_movedup_pd(w); // [w0.re, w0.re, w1.re, w1.re]
        let wi = _mm256_permute_pd(w, 0b1111); // [w0.im ×2, w1.im ×2]
        let t1 = _mm256_mul_pd(v, wr);
        let vs = _mm256_permute_pd(v, 0b0101); // swap re/im per complex
        let t2 = _mm256_mul_pd(vs, wi);
        // lane re = t1 − t2, lane im = t1 + t2.
        _mm256_addsub_pd(t1, t2)
    }

    /// One radix-2 butterfly stage, two butterflies (one twiddle pair)
    /// per vector; stages with an odd `half` run the scalar source.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2; `tw.len() == half` and `buf` holds
    /// whole `2·half` blocks (asserted by the dispatcher).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn radix2_stage(
        buf: &mut [Complex],
        tw: &[Complex],
        half: usize,
        inverse: bool,
    ) {
        if half % 2 != 0 {
            scalar::radix2_stage(buf, tw, half, inverse);
            return;
        }
        let pt = tw.as_ptr().cast::<f64>();
        for block in buf.chunks_exact_mut(2 * half) {
            let (lo, hi) = block.split_at_mut(half);
            let (pu, pv) = (lo.as_mut_ptr().cast::<f64>(), hi.as_mut_ptr().cast::<f64>());
            for j in (0..2 * half).step_by(4) {
                // SAFETY: `half` is even, so j + 4 ≤ 2·half, the f64
                // length of `lo`, `hi` and `tw` (repr(C) puts complex c at
                // f64 offset 2c).
                unsafe {
                    let u = _mm256_loadu_pd(pu.add(j));
                    let vw = cmul2(_mm256_loadu_pd(pv.add(j)), _mm256_loadu_pd(pt.add(j)), inverse);
                    _mm256_storeu_pd(pu.add(j), _mm256_add_pd(u, vw));
                    _mm256_storeu_pd(pv.add(j), _mm256_sub_pd(u, vw));
                }
            }
        }
    }

    /// `out[i] = a[i] · b[i]` (`b` conjugated when `conj_b`) for the first
    /// `pairs` pairs of complexes, two complexes per vector.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2, and `out`, `a` and `b` must each be
    /// valid for `4·pairs` f64s. `out` may equal `a`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn cmul_pairs(out: *mut f64, a: *const f64, b: *const f64, pairs: usize, conj_b: bool) {
        for j in (0..4 * pairs).step_by(4) {
            // SAFETY: j + 4 ≤ 4·pairs, inside all three buffers; each
            // vector is read before its slot is written.
            unsafe {
                let x = _mm256_loadu_pd(a.add(j));
                let y = _mm256_loadu_pd(b.add(j));
                _mm256_storeu_pd(out.add(j), cmul2(x, y, conj_b));
            }
        }
    }

    /// Pointwise `a[i] *= b[i]`, two complexes per vector.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2; `a.len() == b.len()` (asserted by the
    /// dispatcher).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn cmul_in_place(a: &mut [Complex], b: &[Complex], conj_b: bool) {
        let main = a.len() & !1;
        let pa = a.as_mut_ptr().cast::<f64>();
        // SAFETY: `a` and `b` hold at least `main` complexes; the product
        // is written back through the pointer it was read from.
        unsafe { cmul_pairs(pa, pa, b.as_ptr().cast(), main / 2, conj_b) };
        scalar::cmul_in_place(&mut a[main..], &b[main..], conj_b);
    }

    /// Pointwise `out[i] = a[i] · b[i]`, two complexes per vector.
    ///
    /// # Safety
    ///
    /// The CPU must support AVX2; the three slices have equal length
    /// (asserted by the dispatcher).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn cmul_into(
        out: &mut [Complex],
        a: &[Complex],
        b: &[Complex],
        conj_b: bool,
    ) {
        let main = out.len() & !1;
        let (po, pa, pb) = (out.as_mut_ptr().cast(), a.as_ptr().cast(), b.as_ptr().cast());
        // SAFETY: all three slices hold at least `main` complexes.
        unsafe { cmul_pairs(po, pa, pb, main / 2, conj_b) };
        scalar::cmul_into(&mut out[main..], &a[main..], &b[main..], conj_b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The dispatch switch is process-wide: tests that flip it take this
    /// lock so each one really covers the levels it claims.
    static DISPATCH: Mutex<()> = Mutex::new(());

    fn data(n: usize, seed: u64) -> Vec<f64> {
        // Small deterministic LCG; values span sign and magnitude.
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        (0..n)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((s >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 4.0
            })
            .collect()
    }

    fn cdata(n: usize, seed: u64) -> Vec<Complex> {
        let re = data(n, seed);
        let im = data(n, seed ^ 0xABCD);
        re.into_iter().zip(im).map(|(r, i)| Complex::new(r, i)).collect()
    }

    /// Runs `f` at the scalar level and then at the detected one,
    /// restoring auto dispatch afterwards.
    fn with_each_level(mut f: impl FnMut(Level)) {
        let _guard = DISPATCH.lock().unwrap();
        force_scalar(true);
        f(active_level());
        force_scalar(false);
        f(active_level());
    }

    #[test]
    fn plane_kernels_bit_identical_across_levels_and_remainders() {
        for n in [0, 1, 2, 3, 4, 5, 6, 7, 8, 15, 33, 64, 257] {
            let a = data(n, 1);
            let b = data(n, 2);
            let mut want_mul = vec![0.0; n];
            scalar::mul_into(&mut want_mul, &a, &b);
            let mut want_acc = data(n, 3);
            scalar::mul_add_in_place(&mut want_acc, &a, &b);
            let mut want_mag = vec![0.0; n];
            scalar::magnitude_into(&mut want_mag, &a, &b);
            let want_ss = scalar::sum_sq(&a);

            with_each_level(|l| {
                let mut got = vec![0.0; n];
                mul_into(&mut got, &a, &b);
                assert_eq!(got, want_mul, "mul_into n={n} level={l}");
                let mut acc = data(n, 3);
                mul_add_in_place(&mut acc, &a, &b);
                assert_eq!(acc, want_acc, "mul_add n={n} level={l}");
                let mut mag = vec![0.0; n];
                magnitude_into(&mut mag, &a, &b);
                assert_eq!(mag, want_mag, "magnitude n={n} level={l}");
                assert_eq!(sum_sq(&a).to_bits(), want_ss.to_bits(), "sum_sq n={n} level={l}");
            });
        }
    }

    #[test]
    fn complex_kernels_bit_identical_across_levels() {
        for half in [1usize, 2, 3, 4, 8, 16] {
            let n = 4 * half; // two blocks
            let tw = cdata(half, 7);
            let src = cdata(n, 8);
            for inverse in [false, true] {
                let mut want = src.clone();
                scalar::radix2_stage(&mut want, &tw, half, inverse);
                with_each_level(|l| {
                    let mut got = src.clone();
                    radix2_stage(&mut got, &tw, half, inverse);
                    assert_eq!(got, want, "radix2 half={half} inv={inverse} level={l}");
                });
            }
        }
        for n in [0usize, 1, 2, 3, 5, 8, 31] {
            let a = cdata(n, 11);
            let b = cdata(n, 12);
            for conj_b in [false, true] {
                let mut want = a.clone();
                scalar::cmul_in_place(&mut want, &b, conj_b);
                with_each_level(|l| {
                    let mut got = a.clone();
                    cmul_in_place(&mut got, &b, conj_b);
                    assert_eq!(got, want, "cmul n={n} conj={conj_b} level={l}");
                });
            }
        }
        for m in [1usize, 2, 3, 4, 5, 8, 16, 33] {
            let z = cdata(m, 21);
            let tw = cdata(m + 1, 22);
            let mut want = vec![Complex::ZERO; m + 1];
            scalar::real_split_combine_aos(&z, &tw, &mut want);
            let mut want_re = vec![0.0; m + 1];
            let mut want_im = vec![0.0; m + 1];
            scalar::real_split_combine_soa(&z, &tw, &mut want_re, &mut want_im);
            with_each_level(|l| {
                let mut got = vec![Complex::ZERO; m + 1];
                real_split_combine_aos(&z, &tw, &mut got);
                assert_eq!(got, want, "combine aos m={m} level={l}");
                let mut gre = vec![0.0; m + 1];
                let mut gim = vec![0.0; m + 1];
                real_split_combine_soa(&z, &tw, &mut gre, &mut gim);
                assert_eq!(gre, want_re, "combine soa re m={m} level={l}");
                assert_eq!(gim, want_im, "combine soa im m={m} level={l}");
            });
        }
    }

    #[test]
    fn force_scalar_pins_and_releases_dispatch() {
        let _guard = DISPATCH.lock().unwrap();
        force_scalar(true);
        assert_eq!(active_level(), Level::Scalar);
        force_scalar(false);
        assert_eq!(active_level(), detected_level());
        // Avx2 is reported only where the CPU runs it.
        #[cfg(target_arch = "x86_64")]
        if active_level() == Level::Avx2 {
            assert!(std::arch::is_x86_feature_detected!("avx2"));
        }
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(active_level(), Level::Scalar);
    }

    #[test]
    fn complex_lane_views_share_layout() {
        let mut buf = cdata(5, 31);
        let flat: Vec<f64> = buf.iter().flat_map(|c| [c.re, c.im]).collect();
        assert_eq!(complex_lanes(&buf), &flat[..]);
        complex_lanes_mut(&mut buf)[3] = 42.0;
        assert_eq!(buf[1].im, 42.0);
    }
}
