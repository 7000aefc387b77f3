//! The harmonic convolution kernels pinned bit for bit to plain scatter
//! loops over `(co, ci, f, k, j, t)`.
//!
//! The register-blocked kernels in `ops::harmonic` promise every output
//! element the accumulation order of the loops below, so their results must
//! match on `to_bits()`, in `f32` and `f64`, for any shape: channel counts
//! that do not fill a tile, time dilations that reach past the signal, and
//! gradient buffers that already hold values (the graph accumulates into
//! them).

use dhf_tensor::ops::harmonic::{self, harmonic_row};
use dhf_tensor::{Scalar, Tensor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Valid output-time range `[lo, hi)` such that `ot + shift ∈ [0, t)`.
fn time_bounds(shift: isize, t: usize) -> (usize, usize) {
    let lo = if shift < 0 { (-shift) as usize } else { 0 };
    let hi = if shift > 0 { t.saturating_sub(shift as usize) } else { t };
    (lo.min(t), hi)
}

/// Forward as scatter loops: each product is added straight into its
/// output element, skipping zero weights and out-of-range taps.
fn oracle_forward<S: Scalar>(
    x: &Tensor<S>,
    w: &Tensor<S>,
    anchor: usize,
    dil_t: usize,
    out: &mut Tensor<S>,
) {
    let (cin, f, t) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    let (cout, harm, kt) = (w.shape()[0], w.shape()[2], w.shape()[3]);
    let half = kt / 2;
    let (xd, wd) = (x.data(), w.data());
    let od = out.data_mut();
    od.iter_mut().for_each(|v| *v = S::ZERO);
    for co in 0..cout {
        for ci in 0..cin {
            let wbase = ((co * cin) + ci) * harm * kt;
            for fq in 0..f {
                let orow = (co * f + fq) * t;
                for k in 1..=harm {
                    let Some(row) = harmonic_row(k, fq, anchor, f) else { continue };
                    let irow = (ci * f + row) * t;
                    for j in 0..kt {
                        let wv = wd[wbase + (k - 1) * kt + j];
                        if wv == S::ZERO {
                            continue;
                        }
                        let shift = (j as isize - half as isize) * dil_t as isize;
                        let (ot_lo, ot_hi) = time_bounds(shift, t);
                        for ot in ot_lo..ot_hi {
                            let it = (ot as isize + shift) as usize;
                            od[orow + ot] += xd[irow + it] * wv;
                        }
                    }
                }
            }
        }
    }
}

/// Backward as scatter loops: grad-x products go straight into their
/// element, and each (co, ci, f, k, j) adds one partial sum over time to
/// its weight gradient.
fn oracle_backward<S: Scalar>(
    x: &Tensor<S>,
    w: &Tensor<S>,
    grad_out: &Tensor<S>,
    (anchor, dil_t): (usize, usize),
    grad_x: &mut Tensor<S>,
    grad_w: &mut Tensor<S>,
) {
    let (cin, f, t) = (x.shape()[0], x.shape()[1], x.shape()[2]);
    let (cout, harm, kt) = (w.shape()[0], w.shape()[2], w.shape()[3]);
    let half = kt / 2;
    let (xd, wd, god) = (x.data(), w.data(), grad_out.data());
    let gxd = grad_x.data_mut();
    let gwd = grad_w.data_mut();
    for co in 0..cout {
        for ci in 0..cin {
            let wbase = ((co * cin) + ci) * harm * kt;
            for fq in 0..f {
                let orow = (co * f + fq) * t;
                for k in 1..=harm {
                    let Some(row) = harmonic_row(k, fq, anchor, f) else { continue };
                    let irow = (ci * f + row) * t;
                    for j in 0..kt {
                        let widx = wbase + (k - 1) * kt + j;
                        let wv = wd[widx];
                        let shift = (j as isize - half as isize) * dil_t as isize;
                        let (ot_lo, ot_hi) = time_bounds(shift, t);
                        let mut gw_acc = S::ZERO;
                        for ot in ot_lo..ot_hi {
                            let it = (ot as isize + shift) as usize;
                            let g = god[orow + ot];
                            gxd[irow + it] += g * wv;
                            gw_acc += g * xd[irow + it];
                        }
                        gwd[widx] += gw_acc;
                    }
                }
            }
        }
    }
}

/// One convolution shape.
#[derive(Debug, Clone, Copy)]
struct Case {
    cin: usize,
    cout: usize,
    f: usize,
    t: usize,
    harm: usize,
    kt: usize,
    anchor: usize,
    dil_t: usize,
}

/// Uniform values in `[-1, 1)` drawn at full `f64` precision, with a share
/// `zeros` of exact zeros.
fn random<S: Scalar>(shape: &[usize], zeros: f64, rng: &mut StdRng) -> Tensor<S> {
    let n = shape.iter().product();
    let data = (0..n)
        .map(|_| if rng.gen_bool(zeros) { S::ZERO } else { S::from_f64(rng.gen_range(-1.0..1.0)) })
        .collect();
    Tensor::from_vec(shape, data)
}

fn bits<S: Scalar>(t: &Tensor<S>) -> Vec<u64> {
    // Widening to f64 is exact and keeps the sign of zero.
    t.data().iter().map(|v| v.to_f64().to_bits()).collect()
}

fn assert_same_bits<S: Scalar>(got: &Tensor<S>, want: &Tensor<S>, what: &str, case: &Case) {
    let (g, w) = (bits(got), bits(want));
    if let Some(i) = (0..g.len()).find(|&i| g[i] != w[i]) {
        panic!(
            "{what} differs at {i}: {} vs oracle {} ({case:?}, {})",
            got.data()[i],
            want.data()[i],
            std::any::type_name::<S>()
        );
    }
}

fn check<S: Scalar>(case: &Case, rng: &mut StdRng) {
    let Case { cin, cout, f, t, harm, kt, anchor, dil_t } = *case;
    let x: Tensor<S> = random(&[cin, f, t], 0.05, rng);
    let w: Tensor<S> = random(&[cout, cin, harm, kt], 0.1, rng);
    let go: Tensor<S> = random(&[cout, f, t], 0.05, rng);

    let mut want = Tensor::zeros(&[cout, f, t]);
    oracle_forward(&x, &w, anchor, dil_t, &mut want);
    // The kernel must overwrite whatever the buffer held.
    let mut got = Tensor::filled(&[cout, f, t], S::from_f32(7.0));
    harmonic::forward(&x, &w, anchor, dil_t, &mut got);
    assert_same_bits(&got, &want, "forward", case);

    // Gradients accumulate into buffers that already hold values.
    let gx0: Tensor<S> = random(&[cin, f, t], 0.0, rng);
    let gw0: Tensor<S> = random(&[cout, cin, harm, kt], 0.0, rng);
    let (mut gx_want, mut gw_want) = (gx0.clone(), gw0.clone());
    oracle_backward(&x, &w, &go, (anchor, dil_t), &mut gx_want, &mut gw_want);
    let (mut gx, mut gw) = (gx0, gw0);
    harmonic::backward(&x, &w, &go, anchor, dil_t, &mut gx, &mut gw);
    assert_same_bits(&gx, &gx_want, "grad_x", case);
    assert_same_bits(&gw, &gw_want, "grad_w", case);
}

fn check_both(case: &Case, rng: &mut StdRng) {
    check::<f32>(case, rng);
    check::<f64>(case, rng);
}

#[test]
fn random_shapes_match_the_scatter_loops_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0x4A2E_0C0F);
    for anchor in 1..=3 {
        for kt in [1, 3, 5] {
            for _ in 0..12 {
                let t = rng.gen_range(1..=50);
                let case = Case {
                    cin: rng.gen_range(1..=9),
                    cout: rng.gen_range(1..=9),
                    f: rng.gen_range(1..=65),
                    t,
                    harm: rng.gen_range(1..=5),
                    kt,
                    anchor,
                    // Up to beyond the signal, where taps read only padding.
                    dil_t: rng.gen_range(1..=t + 3),
                };
                check_both(&case, &mut rng);
            }
        }
    }
}

#[test]
fn edge_extents_match_the_scatter_loops_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0x4A2E_0C10);
    let base = Case { cin: 3, cout: 5, f: 17, t: 11, harm: 4, kt: 3, anchor: 1, dil_t: 2 };
    for (f, t) in [(1, 1), (1, 50), (65, 1), (2, 8), (65, 50)] {
        check_both(&Case { f, t, ..base }, &mut rng);
    }
    for dil_t in [1, 5, 6, 10, 11, 12, 40] {
        check_both(&Case { dil_t, kt: 5, ..base }, &mut rng);
    }
    for c in 1..=9 {
        check_both(&Case { cin: c, cout: 10 - c, ..base }, &mut rng);
    }
}

#[test]
fn wide_channel_layers_match_the_scatter_loops_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0x4A2E_0C11);
    // The deep prior's widest layer takes 48 channels: a 32-channel
    // bottleneck concatenated with a 16-channel skip.
    let layer = Case { cin: 48, cout: 16, f: 17, t: 44, harm: 4, kt: 3, anchor: 1, dil_t: 10 };
    check_both(&layer, &mut rng);
    check_both(&Case { cin: 48, cout: 48, f: 33, t: 24, dil_t: 11, ..layer }, &mut rng);
    check_both(&Case { cin: 5, cout: 48, f: 65, t: 9, anchor: 2, ..layer }, &mut rng);
    check_both(
        &Case { cin: 48, cout: 7, f: 9, t: 50, kt: 5, anchor: 3, dil_t: 3, ..layer },
        &mut rng,
    );
}
