//! Zero-padded ("same") 2-D convolution with independent dilation per axis.
//!
//! Input layout `[in_ch, H, W]`, weight layout `[out_ch, in_ch, KH, KW]`,
//! output `[out_ch, H, W]`. Kernel extents must be odd so the padding that
//! keeps spatial size is well defined.

use crate::scalar::Scalar;
use crate::Tensor;

/// Validates shapes and returns `(cin, h, w, cout, kh, kw)`.
///
/// # Panics
///
/// Panics on rank or extent mismatches, or even kernel extents.
pub fn check_shapes<S: Scalar>(
    x: &Tensor<S>,
    w: &Tensor<S>,
) -> (usize, usize, usize, usize, usize, usize) {
    assert_eq!(x.shape().len(), 3, "conv2d input must be [C,H,W], got {:?}", x.shape());
    assert_eq!(w.shape().len(), 4, "conv2d weight must be [Cout,Cin,KH,KW], got {:?}", w.shape());
    let (cin, h, wd) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    let (cout, wcin, kh, kw) = (w.shape()[0], w.shape()[1], w.shape()[2], w.shape()[3]);
    assert_eq!(cin, wcin, "conv2d channel mismatch: input {cin}, weight {wcin}");
    assert!(kh % 2 == 1 && kw % 2 == 1, "conv2d kernel extents must be odd");
    (cin, h, wd, cout, kh, kw)
}

/// Forward convolution. `out` must be pre-shaped to `[cout, H, W]`.
///
/// # Panics
///
/// Panics on the shape errors of [`check_shapes`] and when `out` is not
/// `[cout, H, W]`.
pub fn forward<S: Scalar>(
    x: &Tensor<S>,
    w: &Tensor<S>,
    dil_h: usize,
    dil_w: usize,
    out: &mut Tensor<S>,
) {
    let (cin, h, wd, cout, kh, kw) = check_shapes(x, w);
    assert_eq!(out.shape(), &[cout, h, wd], "conv2d output shape");
    let pad_h = (kh / 2) * dil_h;
    let pad_w = (kw / 2) * dil_w;
    let xd = x.data();
    let wdat = w.data();
    let od = out.data_mut();
    od.iter_mut().for_each(|v| *v = S::ZERO);

    for co in 0..cout {
        for ci in 0..cin {
            let wbase = ((co * cin) + ci) * kh * kw;
            let xbase = ci * h * wd;
            for ki in 0..kh {
                // Input row corresponding to output row `oh`:
                // ih = oh + ki*dil_h - pad_h
                let row_off = ki * dil_h;
                for kj in 0..kw {
                    let wv = wdat[wbase + ki * kw + kj];
                    if wv == S::ZERO {
                        continue;
                    }
                    let col_off = kj * dil_w;
                    // Valid output rows: 0 <= oh + row_off - pad_h < h.
                    let oh_lo = pad_h.saturating_sub(row_off);
                    let oh_hi = (h + pad_h).saturating_sub(row_off).min(h);
                    let ow_lo = pad_w.saturating_sub(col_off);
                    let ow_hi = (wd + pad_w).saturating_sub(col_off).min(wd);
                    for oh in oh_lo..oh_hi {
                        let ih = oh + row_off - pad_h;
                        let orow = (co * h + oh) * wd;
                        let irow = xbase + ih * wd;
                        for ow in ow_lo..ow_hi {
                            let iw = ow + col_off - pad_w;
                            od[orow + ow] += xd[irow + iw] * wv;
                        }
                    }
                }
            }
        }
    }
}

/// Backward pass: accumulates `∂L/∂x` into `grad_x` and `∂L/∂w` into
/// `grad_w` given upstream `grad_out`.
///
/// # Panics
///
/// Panics on the shape errors of [`check_shapes`] and when `grad_out` is
/// not `[cout, H, W]`, `grad_x` not `x`'s shape or `grad_w` not `w`'s.
#[allow(clippy::too_many_arguments)]
pub fn backward<S: Scalar>(
    x: &Tensor<S>,
    w: &Tensor<S>,
    grad_out: &Tensor<S>,
    dil_h: usize,
    dil_w: usize,
    grad_x: &mut Tensor<S>,
    grad_w: &mut Tensor<S>,
) {
    let (cin, h, wd, cout, kh, kw) = check_shapes(x, w);
    assert_eq!(grad_out.shape(), &[cout, h, wd], "conv2d grad_out shape");
    assert_eq!(grad_x.shape(), x.shape(), "conv2d grad_x shape");
    assert_eq!(grad_w.shape(), w.shape(), "conv2d grad_w shape");
    let pad_h = (kh / 2) * dil_h;
    let pad_w = (kw / 2) * dil_w;
    let xd = x.data();
    let wdat = w.data();
    let god = grad_out.data();
    let gxd = grad_x.data_mut();

    // ∂L/∂x and ∂L/∂w in one sweep over the same index space as forward.
    for co in 0..cout {
        for ci in 0..cin {
            let wbase = ((co * cin) + ci) * kh * kw;
            let xbase = ci * h * wd;
            for ki in 0..kh {
                let row_off = ki * dil_h;
                for kj in 0..kw {
                    let col_off = kj * dil_w;
                    let oh_lo = pad_h.saturating_sub(row_off);
                    let oh_hi = (h + pad_h).saturating_sub(row_off).min(h);
                    let ow_lo = pad_w.saturating_sub(col_off);
                    let ow_hi = (wd + pad_w).saturating_sub(col_off).min(wd);
                    let wv = wdat[wbase + ki * kw + kj];
                    let mut gw_acc = S::ZERO;
                    for oh in oh_lo..oh_hi {
                        let ih = oh + row_off - pad_h;
                        let orow = (co * h + oh) * wd;
                        let irow = xbase + ih * wd;
                        for ow in ow_lo..ow_hi {
                            let iw = ow + col_off - pad_w;
                            let g = god[orow + ow];
                            gxd[irow + iw] += g * wv;
                            gw_acc += g * xd[irow + iw];
                        }
                    }
                    grad_w.data_mut()[wbase + ki * kw + kj] += gw_acc;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_kernel_reproduces_input() {
        let x = Tensor::from_vec(&[1, 3, 3], (1..=9).map(|v| v as f32).collect());
        let mut w = Tensor::zeros(&[1, 1, 3, 3]);
        w.data_mut()[4] = 1.0; // centre tap
        let mut out = Tensor::zeros(&[1, 3, 3]);
        forward(&x, &w, 1, 1, &mut out);
        assert_eq!(out.data(), x.data());
    }

    #[test]
    fn box_kernel_averages_neighbours() {
        let x = Tensor::filled(&[1, 4, 4], 1.0);
        let w = Tensor::filled(&[1, 1, 3, 3], 1.0);
        let mut out = Tensor::zeros(&[1, 4, 4]);
        forward(&x, &w, 1, 1, &mut out);
        // Interior points see all 9 taps; corners only 4.
        assert_eq!(out.at3(0, 1, 1), 9.0);
        assert_eq!(out.at3(0, 0, 0), 4.0);
        assert_eq!(out.at3(0, 0, 1), 6.0);
    }

    #[test]
    fn dilation_reaches_further() {
        // 5 columns, kernel [1,1,1,3] with dilation 2 spans columns ±2.
        let x = Tensor::from_vec(&[1, 1, 5], vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        let w = Tensor::from_vec(&[1, 1, 1, 3], vec![1.0, 0.0, 1.0]);
        let mut out = Tensor::zeros(&[1, 1, 5]);
        forward(&x, &w, 1, 2, &mut out);
        // out[t] = x[t-2] + x[t+2] (zero padded)
        assert_eq!(out.data(), &[3.0, 4.0, 6.0, 2.0, 3.0]);
    }

    #[test]
    fn multi_channel_sums_over_input_channels() {
        let x = Tensor::from_vec(&[2, 1, 2], vec![1.0, 2.0, 10.0, 20.0]);
        // One output channel, centre taps 1 for both input channels.
        let mut w = Tensor::zeros(&[1, 2, 1, 1]);
        w.data_mut()[0] = 1.0;
        w.data_mut()[1] = 1.0;
        let mut out = Tensor::zeros(&[1, 1, 2]);
        forward(&x, &w, 1, 1, &mut out);
        assert_eq!(out.data(), &[11.0, 22.0]);
    }

    #[test]
    fn backward_matches_finite_differences() {
        let x = Tensor::from_vec(&[2, 3, 4], (0..24).map(|v| (v as f32 * 0.3).sin()).collect());
        let w = Tensor::from_vec(
            &[2, 2, 3, 3],
            (0..36).map(|v| (v as f32 * 0.7).cos() * 0.2).collect(),
        );
        let mut out = Tensor::zeros(&[2, 3, 4]);
        forward(&x, &w, 1, 1, &mut out);
        // Loss = sum(out); upstream gradient of ones.
        let go = Tensor::filled(&[2, 3, 4], 1.0);
        let mut gx = Tensor::zeros(&[2, 3, 4]);
        let mut gw = Tensor::zeros(&[2, 2, 3, 3]);
        backward(&x, &w, &go, 1, 1, &mut gx, &mut gw);

        let eps = 1e-3f32;
        let loss = |x: &Tensor, w: &Tensor| -> f32 {
            let mut o = Tensor::zeros(&[2, 3, 4]);
            forward(x, w, 1, 1, &mut o);
            o.sum()
        };
        for i in (0..24).step_by(5) {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let num = (loss(&xp, &w) - loss(&x, &w)) / eps;
            assert!((num - gx.data()[i]).abs() < 1e-2, "gx[{i}]: {num} vs {}", gx.data()[i]);
        }
        for i in (0..36).step_by(7) {
            let mut wp = w.clone();
            wp.data_mut()[i] += eps;
            let num = (loss(&x, &wp) - loss(&x, &w)) / eps;
            assert!((num - gw.data()[i]).abs() < 1e-2, "gw[{i}]: {num} vs {}", gw.data()[i]);
        }
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn mismatched_channels_panic() {
        let x: Tensor = Tensor::zeros(&[2, 3, 3]);
        let w = Tensor::zeros(&[1, 3, 3, 3]);
        let mut out = Tensor::zeros(&[1, 3, 3]);
        forward(&x, &w, 1, 1, &mut out);
    }

    #[test]
    #[should_panic(expected = "odd")]
    fn even_kernel_panics() {
        let x: Tensor = Tensor::zeros(&[1, 3, 3]);
        let w = Tensor::zeros(&[1, 1, 2, 2]);
        let mut out = Tensor::zeros(&[1, 3, 3]);
        forward(&x, &w, 1, 1, &mut out);
    }

    #[test]
    #[should_panic(expected = "conv2d output shape")]
    fn forward_checks_output_shape() {
        let x: Tensor = Tensor::zeros(&[1, 4, 3]);
        let w = Tensor::zeros(&[1, 1, 3, 3]);
        let mut out = Tensor::zeros(&[1, 4, 4]);
        forward(&x, &w, 1, 1, &mut out);
    }

    /// Runs `backward` on a `[2, 4, 3]` input and `[1, 2, 3, 3]` weight with
    /// the given operand shapes.
    fn backward_with(go: &[usize], gx: &[usize], gw: &[usize]) {
        let x: Tensor = Tensor::zeros(&[2, 4, 3]);
        let w = Tensor::zeros(&[1, 2, 3, 3]);
        let (go, mut gx, mut gw) = (Tensor::zeros(go), Tensor::zeros(gx), Tensor::zeros(gw));
        backward(&x, &w, &go, 1, 1, &mut gx, &mut gw);
    }

    #[test]
    #[should_panic(expected = "conv2d grad_out shape")]
    fn backward_checks_grad_out_shape() {
        backward_with(&[1, 4, 4], &[2, 4, 3], &[1, 2, 3, 3]);
    }

    #[test]
    #[should_panic(expected = "conv2d grad_x shape")]
    fn backward_checks_grad_x_shape() {
        backward_with(&[1, 4, 3], &[2, 4, 2], &[1, 2, 3, 3]);
    }

    #[test]
    #[should_panic(expected = "conv2d grad_w shape")]
    fn backward_checks_grad_w_shape() {
        backward_with(&[1, 4, 3], &[2, 4, 3], &[1, 1, 3, 3]);
    }
}
