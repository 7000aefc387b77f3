//! The spectral kernels.
//!
//! Every inner loop the separation pipeline leans on — radix-2
//! butterflies, the packed-real split-twiddle combine, window multiplies,
//! overlap-add accumulation, per-bin gain application, magnitude
//! extraction, and the band-energy reduction — funnels through the
//! kernels in this module.
//!
//! # One source, written for the autovectorizer
//!
//! Each kernel is one safe loop over zipped slices, which the compiler
//! vectorizes at the target's baseline (SSE2 on x86_64). The source fixes
//! the arithmetic: rustc never contracts a multiply and an add into an
//! FMA, and LLVM does not reassociate floating-point adds, so each
//! element sees the same IEEE-754 operations in the same order whatever
//! instructions the compiler picks.
//!
//! The one reduction, [`sum_sq`], writes its order out: four accumulators
//! combined as `(acc0 + acc1) + (acc2 + acc3)` plus a sequential tail.
//! The independent accumulators let the loop vectorize without
//! reassociating anything, and because the order is in the source, every
//! build computes the same sum. Its result ranks the peeling order of the
//! separation rounds, so a different order could reorder the rounds.

use crate::complex::Complex;

/// `out[i] = a[i] · b[i]`.
///
/// # Panics
///
/// Panics if the three slices differ in length.
pub fn mul_into(out: &mut [f64], a: &[f64], b: &[f64]) {
    assert_eq!(out.len(), a.len(), "mul_into length mismatch");
    assert_eq!(out.len(), b.len(), "mul_into length mismatch");
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *o = x * y;
    }
}

/// `a[i] *= b[i]`.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn mul_in_place(a: &mut [f64], b: &[f64]) {
    assert_eq!(a.len(), b.len(), "mul_in_place length mismatch");
    for (x, &y) in a.iter_mut().zip(b) {
        *x *= y;
    }
}

/// `acc[i] += a[i] · b[i]` (separate multiply and add — no FMA).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn mul_add_in_place(acc: &mut [f64], a: &[f64], b: &[f64]) {
    assert_eq!(acc.len(), a.len(), "mul_add_in_place length mismatch");
    assert_eq!(acc.len(), b.len(), "mul_add_in_place length mismatch");
    for ((o, &x), &y) in acc.iter_mut().zip(a).zip(b) {
        *o += x * y;
    }
}

/// `acc[i] += a[i]`.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn add_in_place(acc: &mut [f64], a: &[f64]) {
    assert_eq!(acc.len(), a.len(), "add_in_place length mismatch");
    for (o, &x) in acc.iter_mut().zip(a) {
        *o += x;
    }
}

/// `acc[i] -= a[i]`.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn sub_in_place(acc: &mut [f64], a: &[f64]) {
    assert_eq!(acc.len(), a.len(), "sub_in_place length mismatch");
    for (o, &x) in acc.iter_mut().zip(a) {
        *o -= x;
    }
}

/// `out[i] = √(re[i]² + im[i]²)`.
///
/// Note this is the plain square-root form, not `hypot`: it vectorizes
/// (hardware `sqrt` is exactly rounded), at the cost of `hypot`'s
/// protection against overflow at magnitudes around `1e154` — far beyond
/// any spectrogram this pipeline produces.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn magnitude_into(out: &mut [f64], re: &[f64], im: &[f64]) {
    assert_eq!(out.len(), re.len(), "magnitude_into length mismatch");
    assert_eq!(out.len(), im.len(), "magnitude_into length mismatch");
    for ((o, &r), &i) in out.iter_mut().zip(re).zip(im) {
        *o = (r * r + i * i).sqrt();
    }
}

/// `Σ re[i]² + im[i]²`, the energy of a band of spectral bins held in
/// `re`/`im` planes, in a fixed order: bin `2c` adds `re²` to `acc0` and
/// `im²` to `acc1`, bin `2c + 1` adds `re²` to `acc2` and `im²` to
/// `acc3`, and an odd last bin gives the tail `re² + im²`. The result is
/// `((acc0 + acc1) + (acc2 + acc3)) + tail`.
///
/// # Panics
///
/// Panics if the planes differ in length.
pub fn sum_sq(re: &[f64], im: &[f64]) -> f64 {
    assert_eq!(re.len(), im.len(), "sum_sq length mismatch");
    let (re_pairs, im_pairs) = (re.chunks_exact(2), im.chunks_exact(2));
    let tail = match (re_pairs.remainder(), im_pairs.remainder()) {
        ([r], [i]) => r * r + i * i,
        _ => 0.0,
    };
    let mut acc = [0.0f64; 4];
    for (r, i) in re_pairs.zip(im_pairs) {
        acc[0] += r[0] * r[0];
        acc[1] += i[0] * i[0];
        acc[2] += r[1] * r[1];
        acc[3] += i[1] * i[1];
    }
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + tail
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
    // The direction is fixed for the whole stage: branch once, so the
    // butterfly loop itself is branch-free.
    if inverse {
        butterflies(buf, tw, half, Complex::conj);
    } else {
        butterflies(buf, tw, half, |t| t);
    }
}

/// [`radix2_stage`] with twiddle `k` taken as `w(tw[k])`.
fn butterflies(buf: &mut [Complex], tw: &[Complex], half: usize, w: impl Fn(Complex) -> Complex) {
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

/// Pointwise complex multiply `a[i] *= b[i]` (`b` conjugated when
/// `conj_b`).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn cmul_in_place(a: &mut [Complex], b: &[Complex], conj_b: bool) {
    assert_eq!(a.len(), b.len(), "cmul_in_place length mismatch");
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

/// Pointwise complex multiply `out[i] = a[i] · b[i]` (`b` conjugated when
/// `conj_b`).
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn cmul_into(out: &mut [Complex], a: &[Complex], b: &[Complex], conj_b: bool) {
    assert_eq!(out.len(), a.len(), "cmul_into length mismatch");
    assert_eq!(out.len(), b.len(), "cmul_into length mismatch");
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

/// `X[k] = Ze + t·Zo` of the packed real transform, from `a = z[k]`, the
/// conjugated mirror `b = z̄[m-k]` and `t = tw[k]`.
fn split_bin(a: Complex, b: Complex, t: Complex) -> Complex {
    let ze = (a + b).scale(0.5);
    let d = a - b;
    // Zo = d·(-i)/2.
    let zo = Complex::new(d.im, -d.re).scale(0.5);
    ze + t * zo
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
    // Bins 0 and m both read z[0] (the mirror index wraps mod m); the
    // interior pairs z[k] with z[m-k] and needs no modulo.
    for k in [0, m] {
        let x = split_bin(z[0], z[0].conj(), tw[k]);
        re[k] = x.re;
        im[k] = x.im;
    }
    let interior =
        re[1..m].iter_mut().zip(&mut im[1..m]).zip(&z[1..]).zip(z[1..].iter().rev()).zip(&tw[1..m]);
    for ((((r, i), &a), &b), &t) in interior {
        let x = split_bin(a, b.conj(), t);
        *r = x.re;
        *i = x.im;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `sum_sq` against its order written out over the interleaved
    /// `[re₀, im₀, re₁, im₁, …]` lanes: lane `4c + j` goes to accumulator
    /// `j`, the leftover lanes to a sequential tail. Every lane residue
    /// appears among 0–9 bins.
    #[test]
    fn sum_sq_keeps_its_four_accumulator_order() {
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            // Values of one order of magnitude, so no term swamps the
            // others and a changed order changes the rounding.
            ((s >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 4.0
        };
        for n in 0..=9 {
            let lanes: Vec<f64> = (0..2 * n).map(|_| next()).collect();
            let re: Vec<f64> = lanes.iter().step_by(2).copied().collect();
            let im: Vec<f64> = lanes.iter().skip(1).step_by(2).copied().collect();
            let main = lanes.len() & !3;
            let mut acc = [0.0f64; 4];
            for chunk in lanes[..main].chunks_exact(4) {
                for (sum, &v) in acc.iter_mut().zip(chunk) {
                    *sum += v * v;
                }
            }
            let mut tail = 0.0;
            for &v in &lanes[main..] {
                tail += v * v;
            }
            let want = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + tail;
            assert_eq!(sum_sq(&re, &im).to_bits(), want.to_bits(), "{n} bins");
        }
    }
}
