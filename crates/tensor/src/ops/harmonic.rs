//! Dilated harmonic convolution (paper Eqs. 1, 2 and 8).
//!
//! Where a standard convolution looks at *adjacent* frequency bins, the
//! harmonic convolution's frequency neighbourhood at bin `ω` is the set of
//! integer multiples `round(k·ω / anchor)` for `k = 1..=H`:
//!
//! * `anchor = 1` (the paper's *Spectrally Accurate* setting) visits only
//!   forward harmonics `ω, 2ω, 3ω, …`;
//! * `anchor > 1` (the Zhang et al. baseline) also visits fractional —
//!   "backward" — positions like `ω/2`, which the paper shows weakens the
//!   prior.
//!
//! The time dimension uses ordinary taps spaced `dil_t` apart (Eq. 8), so a
//! pattern-aligned source, constant in frequency, is predicted from its own
//! past and future at the *same* bin.
//!
//! Input layout `[in_ch, F, T]`, weight `[out_ch, in_ch, H, KT]` (harmonic
//! index × time taps), output `[out_ch, F, T]`. Out-of-range harmonic rows
//! contribute zero (zero padding in frequency); time is zero padded too.
//!
//! # Kernels
//!
//! Each pass keeps a small tile of results in registers and feeds it whole
//! rows gathered through the harmonic row map:
//!
//! * **forward**: 4 output channels × 8 frames of one bin, summed over input
//!   channel, harmonic and time tap, from a copy of `x` zero-padded in time;
//! * **grad x**: 4 input channels × 8 frames of one input row, summed over
//!   the output channels and the (bin, harmonic) pairs that read that row,
//!   from a copy of `grad_out` zero-padded in time;
//! * **grad w**: 8 output channels × 4 input channels of one (harmonic, tap)
//!   weight plane, summed frame by frame from channel-last copies of
//!   `grad_out` and `x`.
//!
//! Channels are padded to whole tiles and frames to whole 8-frame blocks,
//! so every tile loads and stores unconditionally; that is what lets the
//! compiler keep the tile in vector registers. The padded results are
//! computed and dropped.
//!
//! Every element keeps the accumulation order of plain scatter loops over
//! `(co, ci, f, k, j, t)`:
//!
//! * `out[co, f, t]` starts at zero and adds `x·w` over `ci`, then `k`,
//!   then `j`;
//! * `grad_x[ci, r, t]` starts from its value on entry and adds `g·w` over
//!   `co`, then the `(f, k)` with `row(k, f) = r` in `f`-then-`k` order,
//!   then `j`;
//! * `grad_w[co, ci, k, j]` adds, for each `f` in order, one partial sum
//!   that starts at zero and runs over `t` in order.
//!
//! So the results are bit-identical to those loops
//! (`crates/tensor/tests/harmonic_oracle.rs` pins them on `to_bits()`) for
//! finite operands. The kernels add `0·w` for a time tap that reads the
//! padding, and the forward no longer skips exact-zero weights; with finite
//! operands that adds a zero to a sum and changes nothing, but a non-finite
//! weight or input then turns such a term into NaN (`0·∞`) where the loops
//! skipped it. A `-0.0` held in `grad_x` on entry may also come back as
//! `+0.0`.

use crate::scalar::Scalar;
use crate::Tensor;

/// Validates shapes, returning `(cin, f, t, cout, harmonics, kt)`.
///
/// # Panics
///
/// Panics on rank/extent mismatches, an even time-kernel extent, or a zero
/// anchor.
pub fn check_shapes<S: Scalar>(
    x: &Tensor<S>,
    w: &Tensor<S>,
    anchor: usize,
) -> (usize, usize, usize, usize, usize, usize) {
    assert_eq!(x.shape().len(), 3, "harmonic conv input must be [C,F,T]");
    assert_eq!(w.shape().len(), 4, "harmonic conv weight must be [Cout,Cin,H,KT]");
    assert!(anchor >= 1, "anchor must be >= 1");
    let (cin, f, t) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    let (cout, wcin, harm, kt) = (w.shape()[0], w.shape()[1], w.shape()[2], w.shape()[3]);
    assert_eq!(cin, wcin, "harmonic conv channel mismatch: input {cin}, weight {wcin}");
    assert!(kt % 2 == 1, "time kernel extent must be odd");
    assert!(harm >= 1, "need at least one harmonic");
    (cin, f, t, cout, harm, kt)
}

/// Frequency row accessed by harmonic `k` (1-based) at bin `f` with the
/// given anchor; `None` when it falls outside `0..bins`.
#[inline]
pub fn harmonic_row(k: usize, f: usize, anchor: usize, bins: usize) -> Option<usize> {
    let row = ((k * f) as f64 / anchor as f64).round() as usize;
    (row < bins).then_some(row)
}

/// Channels per register tile: output channels in the forward tile, input
/// channels in the grad-x and grad-w tiles.
const CB: usize = 4;
/// Frames per forward and grad-x tile.
const TB: usize = 8;
/// Output channels per grad-w tile.
const OB: usize = 8;

/// The `N` elements of `s` from `at` on.
#[inline]
fn tile<S, const N: usize>(s: &[S], at: usize) -> &[S; N] {
    s[at..at + N].try_into().expect("tile length")
}

/// The `N` elements of `s` from `at` on, writable.
#[inline]
fn tile_mut<S, const N: usize>(s: &mut [S], at: usize) -> &mut [S; N] {
    (&mut s[at..at + N]).try_into().expect("tile length")
}

/// `acc[c][l] += a[l] · b[c]`: one rank-1 update of a register tile.
#[inline]
fn rank1<S: Scalar, const R: usize, const L: usize>(acc: &mut [[S; L]; R], a: &[S; L], b: &[S; R]) {
    for (row, &bc) in acc.iter_mut().zip(b) {
        for (v, &al) in row.iter_mut().zip(a) {
            *v += al * bc;
        }
    }
}

/// [`harmonic_row`] of every (bin, harmonic): entry `f · harm + k − 1`.
fn row_table(f: usize, harm: usize, anchor: usize) -> Vec<Option<usize>> {
    (0..f).flat_map(|fq| (1..=harm).map(move |k| harmonic_row(k, fq, anchor, f))).collect()
}

/// Time shift `(j − kt/2)·dil_t` of every tap `j`.
fn tap_shifts(kt: usize, dil_t: usize) -> impl Iterator<Item = (usize, isize)> {
    let half = kt / 2;
    (0..kt).map(move |j| (j, (j as isize - half as isize) * dil_t as isize))
}

/// Time layout of the padded copies: rows of `t` frames are stored at
/// offset `pad` in rows of `tp = pad + tt + pad`, where `tt` rounds `t` up
/// to whole tiles and `pad` is the largest shift of a tap that can read
/// inside the image. Taps shifted `t` frames or more read only padding and
/// are left out of `taps`.
struct TimePad {
    t: usize,
    tt: usize,
    pad: usize,
    tp: usize,
    taps: Vec<(usize, isize)>,
}

impl TimePad {
    fn new(t: usize, kt: usize, dil_t: usize) -> Self {
        let taps: Vec<_> = tap_shifts(kt, dil_t).filter(|&(_, s)| s.unsigned_abs() < t).collect();
        let pad = taps.iter().map(|&(_, s)| s.unsigned_abs()).max().unwrap_or(0);
        let tt = t.div_ceil(TB) * TB;
        TimePad { t, tt, pad, tp: tt + 2 * pad, taps }
    }

    /// `rows` rows of `t` frames, zero-padded to rows of `tp`.
    fn pad_rows<S: Scalar>(&self, src: &[S], rows: usize) -> Vec<S> {
        let mut out = vec![S::ZERO; rows * self.tp];
        for r in 0..rows {
            out[r * self.tp + self.pad..][..self.t].copy_from_slice(&src[r * self.t..][..self.t]);
        }
        out
    }
}

/// Forward harmonic convolution. `out` must be pre-shaped to `[cout, F, T]`.
///
/// # Panics
///
/// Panics on the shape errors of [`check_shapes`] and when `out` is not
/// `[cout, F, T]`.
pub fn forward<S: Scalar>(
    x: &Tensor<S>,
    w: &Tensor<S>,
    anchor: usize,
    dil_t: usize,
    out: &mut Tensor<S>,
) {
    let (cin, f, t, cout, harm, kt) = check_shapes(x, w, anchor);
    assert_eq!(out.shape(), &[cout, f, t], "harmonic conv output shape");
    let tp = TimePad::new(t, kt, dil_t);
    let xp = tp.pad_rows(x.data(), cin * f);
    // Weights as [ci][k][j][co], output channels padded to whole tiles.
    let cop = cout.div_ceil(CB) * CB;
    let per_co = cin * harm * kt;
    let mut wt = vec![S::ZERO; per_co * cop];
    for (i, &v) in w.data().iter().enumerate() {
        wt[(i % per_co) * cop + i / per_co] = v;
    }
    let taps: Vec<(usize, usize)> =
        tp.taps.iter().map(|&(j, s)| (j * cop, (tp.pad as isize + s) as usize)).collect();
    let rows = row_table(f, harm, anchor);

    let mut op = vec![S::ZERO; cop * f * tp.tt];
    for cb in (0..cop).step_by(CB) {
        for (fq, frow) in rows.chunks_exact(harm).enumerate() {
            for t0 in (0..tp.tt).step_by(TB) {
                let mut acc = [[S::ZERO; TB]; CB];
                for ci in 0..cin {
                    for (k, row) in frow.iter().enumerate() {
                        let Some(row) = *row else { continue };
                        let xrow = (ci * f + row) * tp.tp + t0;
                        let wk = (ci * harm + k) * kt * cop + cb;
                        for &(wj, xj) in &taps {
                            rank1(&mut acc, tile(&xp, xrow + xj), tile(&wt, wk + wj));
                        }
                    }
                }
                for (c, a) in acc.iter().enumerate() {
                    *tile_mut(&mut op, ((cb + c) * f + fq) * tp.tt + t0) = *a;
                }
            }
        }
    }
    let od = out.data_mut();
    for r in 0..cout * f {
        od[r * t..][..t].copy_from_slice(&op[r * tp.tt..][..t]);
    }
}

/// Valid output-time range `[lo, hi)` such that `ot + shift ∈ [0, t)`.
#[inline]
fn time_bounds(shift: isize, t: usize) -> (usize, usize) {
    let lo = if shift < 0 { (-shift) as usize } else { 0 };
    let hi = if shift > 0 { t.saturating_sub(shift as usize) } else { t };
    (lo.min(t), hi)
}

/// Backward pass: accumulates input and weight gradients.
///
/// # Panics
///
/// Panics on the shape errors of [`check_shapes`] and when `grad_out` is
/// not `[cout, F, T]`, `grad_x` not `x`'s shape or `grad_w` not `w`'s.
#[allow(clippy::too_many_arguments)]
pub fn backward<S: Scalar>(
    x: &Tensor<S>,
    w: &Tensor<S>,
    grad_out: &Tensor<S>,
    anchor: usize,
    dil_t: usize,
    grad_x: &mut Tensor<S>,
    grad_w: &mut Tensor<S>,
) {
    let (cin, f, t, cout, harm, _) = check_shapes(x, w, anchor);
    assert_eq!(grad_out.shape(), &[cout, f, t], "harmonic conv grad_out shape");
    assert_eq!(grad_x.shape(), x.shape(), "harmonic conv grad_x shape");
    assert_eq!(grad_w.shape(), w.shape(), "harmonic conv grad_w shape");
    let rows = row_table(f, harm, anchor);
    let cip = cin.div_ceil(CB) * CB;
    grad_input(w, grad_out, &rows, dil_t, cip, grad_x);
    grad_weight(x, grad_out, &rows, dil_t, cip, grad_w);
}

/// `grad_x += ∂L/∂x`, one 4-channel × 8-frame tile of an input row at a
/// time, gathering the (bin, harmonic) pairs that read the row.
fn grad_input<S: Scalar>(
    w: &Tensor<S>,
    grad_out: &Tensor<S>,
    rows: &[Option<usize>],
    dil_t: usize,
    cip: usize,
    grad_x: &mut Tensor<S>,
) {
    let (cin, f, t) = (grad_x.shape()[0], grad_x.shape()[1], grad_x.shape()[2]);
    let (cout, harm, kt) = (w.shape()[0], w.shape()[2], w.shape()[3]);
    let tp = TimePad::new(t, kt, dil_t);
    let gp = tp.pad_rows(grad_out.data(), cout * f);
    // Weights as [co][k][j][ci], input channels padded to whole tiles.
    let per_ci = harm * kt;
    let mut wx = vec![S::ZERO; cout * per_ci * cip];
    for (i, &v) in w.data().iter().enumerate() {
        let (co, ci, kj) = (i / (cin * per_ci), i / per_ci % cin, i % per_ci);
        wx[(co * per_ci + kj) * cip + ci] = v;
    }
    let taps: Vec<(usize, usize)> =
        tp.taps.iter().map(|&(j, s)| (j * cip, (tp.pad as isize - s) as usize)).collect();
    // (row, bin, harmonic) of every in-range read, grouped by row in
    // bin-then-harmonic order.
    let mut reads: Vec<(usize, usize, usize)> = rows
        .iter()
        .enumerate()
        .filter_map(|(i, row)| row.map(|r| (r, i / harm, i % harm)))
        .collect();
    reads.sort_unstable();

    let mut gxp = vec![S::ZERO; cip * f * tp.tt];
    let gxd = grad_x.data_mut();
    for r in 0..cin * f {
        gxp[r * tp.tt..][..t].copy_from_slice(&gxd[r * t..][..t]);
    }
    for cb in (0..cip).step_by(CB) {
        for group in reads.chunk_by(|a, b| a.0 == b.0) {
            let r = group[0].0;
            for t0 in (0..tp.tt).step_by(TB) {
                let at = |c: usize| ((cb + c) * f + r) * tp.tt + t0;
                let mut acc: [[S; TB]; CB] = std::array::from_fn(|c| *tile(&gxp, at(c)));
                for co in 0..cout {
                    for &(_, fq, k) in group {
                        let grow = (co * f + fq) * tp.tp + t0;
                        let wk = (co * harm + k) * kt * cip + cb;
                        for &(wj, gj) in &taps {
                            rank1(&mut acc, tile(&gp, grow + gj), tile(&wx, wk + wj));
                        }
                    }
                }
                for (c, a) in acc.iter().enumerate() {
                    *tile_mut(&mut gxp, at(c)) = *a;
                }
            }
        }
    }
    for r in 0..cin * f {
        gxd[r * t..][..t].copy_from_slice(&gxp[r * tp.tt..][..t]);
    }
}

/// `grad_w += ∂L/∂w`, one 8-output × 4-input-channel tile of a (harmonic,
/// tap) weight plane at a time, each weight summing its frames in order.
fn grad_weight<S: Scalar>(
    x: &Tensor<S>,
    grad_out: &Tensor<S>,
    rows: &[Option<usize>],
    dil_t: usize,
    cip: usize,
    grad_w: &mut Tensor<S>,
) {
    let (cin, f, t) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    let (cout, harm, kt) = (grad_w.shape()[0], grad_w.shape()[2], grad_w.shape()[3]);
    let cop = cout.div_ceil(OB) * OB;
    // Channel-last copies, channels padded to whole tiles:
    // gc[(fq·t + ot)·cop + co] and xc[(row·t + it)·cip + ci].
    let mut gc = vec![S::ZERO; f * t * cop];
    for (i, &v) in grad_out.data().iter().enumerate() {
        gc[(i % (f * t)) * cop + i / (f * t)] = v;
    }
    let mut xc = vec![S::ZERO; f * t * cip];
    for (i, &v) in x.data().iter().enumerate() {
        xc[(i % (f * t)) * cip + i / (f * t)] = v;
    }
    // Weight gradients as [k][j][ci][co], padded like the tiles.
    let per_co = cin * harm * kt;
    let gw_at = |i: usize| {
        let (co, ci, k, j) = (i / per_co, i / (harm * kt) % cin, i / kt % harm, i % kt);
        ((k * kt + j) * cip + ci) * cop + co
    };
    let gwd = grad_w.data_mut();
    let mut gwp = vec![S::ZERO; harm * kt * cip * cop];
    for (i, &v) in gwd.iter().enumerate() {
        gwp[gw_at(i)] = v;
    }
    for (fq, frow) in rows.chunks_exact(harm).enumerate() {
        for (k, row) in frow.iter().enumerate() {
            let Some(row) = *row else { continue };
            for (j, shift) in tap_shifts(kt, dil_t) {
                let (lo, hi) = time_bounds(shift, t);
                for ob in (0..cop).step_by(OB) {
                    for ib in (0..cip).step_by(CB) {
                        let mut acc = [[S::ZERO; OB]; CB];
                        for ot in lo..hi {
                            let it = (ot as isize + shift) as usize;
                            rank1(
                                &mut acc,
                                tile(&gc, (fq * t + ot) * cop + ob),
                                tile(&xc, (row * t + it) * cip + ib),
                            );
                        }
                        for (c, a) in acc.iter().enumerate() {
                            let at = ((k * kt + j) * cip + ib + c) * cop + ob;
                            let dst: &mut [S; OB] = tile_mut(&mut gwp, at);
                            for (d, &v) in dst.iter_mut().zip(a) {
                                *d += v;
                            }
                        }
                    }
                }
            }
        }
    }
    for (i, g) in gwd.iter_mut().enumerate() {
        *g = gwp[gw_at(i)];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harmonic_row_forward_only_with_anchor_one() {
        assert_eq!(harmonic_row(1, 3, 1, 16), Some(3));
        assert_eq!(harmonic_row(2, 3, 1, 16), Some(6));
        assert_eq!(harmonic_row(3, 3, 1, 16), Some(9));
        assert_eq!(harmonic_row(3, 6, 1, 16), None); // 18 out of range
    }

    #[test]
    fn harmonic_row_anchor_two_gives_backward_access() {
        // k=1, anchor=2 → ω/2: the "inaccurate backward neighbour" the
        // paper's SpAc design removes.
        assert_eq!(harmonic_row(1, 6, 2, 16), Some(3));
        assert_eq!(harmonic_row(2, 6, 2, 16), Some(6));
        assert_eq!(harmonic_row(3, 6, 2, 16), Some(9));
    }

    #[test]
    fn first_harmonic_identity_reproduces_input() {
        let x = Tensor::from_vec(&[1, 4, 3], (0..12).map(|v| v as f32).collect());
        // H=2, KT=1; only k=1 has weight 1 → output = input row f.
        let w = Tensor::from_vec(&[1, 1, 2, 1], vec![1.0, 0.0]);
        let mut out = Tensor::zeros(&[1, 4, 3]);
        forward(&x, &w, 1, 1, &mut out);
        assert_eq!(out.data(), x.data());
    }

    #[test]
    fn second_harmonic_reads_doubled_bin() {
        let mut x = Tensor::zeros(&[1, 8, 2]);
        // put energy at bin 6
        x.data_mut()[6 * 2] = 5.0;
        x.data_mut()[6 * 2 + 1] = 7.0;
        // Only k=2 active.
        let w = Tensor::from_vec(&[1, 1, 2, 1], vec![0.0, 1.0]);
        let mut out = Tensor::zeros(&[1, 8, 2]);
        forward(&x, &w, 1, 1, &mut out);
        // out[f=3] = x[2*3=6]
        assert_eq!(out.at3(0, 3, 0), 5.0);
        assert_eq!(out.at3(0, 3, 1), 7.0);
        // out[f=4] = x[8] -> out of range → 0
        assert_eq!(out.at3(0, 4, 0), 0.0);
    }

    #[test]
    fn time_dilation_shifts_taps() {
        let x = Tensor::from_vec(&[1, 1, 6], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        // H=1, KT=3, dil_t=2; taps (past, centre, future) = (1, 0, 1):
        // out[t] = x[t-2] + x[t+2].
        let w = Tensor::from_vec(&[1, 1, 1, 3], vec![1.0, 0.0, 1.0]);
        let mut out = Tensor::zeros(&[1, 1, 6]);
        forward(&x, &w, 1, 2, &mut out);
        assert_eq!(out.data(), &[3.0, 4.0, 6.0, 8.0, 3.0, 4.0]);
    }

    #[test]
    fn backward_matches_finite_differences() {
        let x = Tensor::from_vec(&[2, 6, 5], (0..60).map(|v| (v as f32 * 0.31).sin()).collect());
        let w = Tensor::from_vec(
            &[2, 2, 3, 3],
            (0..36).map(|v| (v as f32 * 0.57).cos() * 0.3).collect(),
        );
        let anchor = 1;
        let dil = 2;
        let loss = |x: &Tensor, w: &Tensor| -> f32 {
            let mut o = Tensor::zeros(&[2, 6, 5]);
            forward(x, w, anchor, dil, &mut o);
            // Weighted sum so gradients differ per position.
            o.data().iter().enumerate().map(|(i, &v)| v * (i % 5 + 1) as f32).sum()
        };
        let mut go = Tensor::zeros(&[2, 6, 5]);
        for (i, v) in go.data_mut().iter_mut().enumerate() {
            *v = (i % 5 + 1) as f32;
        }
        let mut gx = Tensor::zeros(&[2, 6, 5]);
        let mut gw = Tensor::zeros(&[2, 2, 3, 3]);
        backward(&x, &w, &go, anchor, dil, &mut gx, &mut gw);

        let eps = 1e-2f32;
        let base = loss(&x, &w);
        for i in (0..60).step_by(11) {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let num = (loss(&xp, &w) - base) / eps;
            assert!((num - gx.data()[i]).abs() < 0.05, "gx[{i}]: {num} vs {}", gx.data()[i]);
        }
        for i in (0..36).step_by(5) {
            let mut wp = w.clone();
            wp.data_mut()[i] += eps;
            let num = (loss(&x, &wp) - base) / eps;
            assert!((num - gw.data()[i]).abs() < 0.05, "gw[{i}]: {num} vs {}", gw.data()[i]);
        }
    }

    #[test]
    #[should_panic(expected = "anchor")]
    fn zero_anchor_panics() {
        let x: Tensor = Tensor::zeros(&[1, 4, 4]);
        let w = Tensor::zeros(&[1, 1, 2, 1]);
        let mut out = Tensor::zeros(&[1, 4, 4]);
        forward(&x, &w, 0, 1, &mut out);
    }

    #[test]
    #[should_panic(expected = "harmonic conv output shape")]
    fn forward_checks_output_shape() {
        let x: Tensor = Tensor::zeros(&[1, 4, 3]);
        let w = Tensor::zeros(&[1, 1, 2, 1]);
        let mut out = Tensor::zeros(&[1, 4, 4]);
        forward(&x, &w, 1, 1, &mut out);
    }

    /// Runs `backward` on a `[2, 4, 3]` input and `[3, 2, 2, 1]` weight with
    /// the given operand shapes.
    fn backward_with(go: &[usize], gx: &[usize], gw: &[usize]) {
        let x: Tensor = Tensor::zeros(&[2, 4, 3]);
        let w = Tensor::zeros(&[3, 2, 2, 1]);
        let (go, mut gx, mut gw) = (Tensor::zeros(go), Tensor::zeros(gx), Tensor::zeros(gw));
        backward(&x, &w, &go, 1, 1, &mut gx, &mut gw);
    }

    #[test]
    #[should_panic(expected = "harmonic conv grad_out shape")]
    fn backward_checks_grad_out_shape() {
        backward_with(&[3, 4, 4], &[2, 4, 3], &[3, 2, 2, 1]);
    }

    #[test]
    #[should_panic(expected = "harmonic conv grad_x shape")]
    fn backward_checks_grad_x_shape() {
        backward_with(&[3, 4, 3], &[2, 4, 4], &[3, 2, 2, 1]);
    }

    #[test]
    #[should_panic(expected = "harmonic conv grad_w shape")]
    fn backward_checks_grad_w_shape() {
        backward_with(&[3, 4, 3], &[2, 4, 3], &[3, 1, 2, 1]);
    }
}
