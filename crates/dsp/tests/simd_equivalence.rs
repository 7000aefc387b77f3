//! The split-twiddle combine against an independent oracle:
//! [`dhf_dsp::simd`]'s packed-real combine must be **bit-identical** to
//! the per-bin formula with wrapped indices, for every transform size up
//! to 65 and values spanning signs and magnitudes.

use dhf_dsp::simd;
use dhf_dsp::Complex;

/// Deterministic value stream from a seed: finite values spanning signs
/// and magnitudes, with exact `0.0`/`-0.0` sprinkled in (the bit
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

fn cbits(a: &[Complex]) -> Vec<u64> {
    a.iter().flat_map(|c| [c.re.to_bits(), c.im.to_bits()]).collect()
}

/// `X[k]` by the per-bin formula with wrapped indices: `z[k % m]`
/// against `z̄[(m - k) % m]`. The kernel special-cases the two wrapping
/// bins (`k = 0` and `k = m`) and walks the interior mirror without a
/// modulo; this independent oracle pins that split.
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
    let planes = |re: &[f64], im: &[f64]| -> Vec<u64> {
        re.iter().zip(im).flat_map(|(r, i)| [r.to_bits(), i.to_bits()]).collect()
    };
    for m in 1usize..=65 {
        for seed in [1u64, 0x5eed, 0xdead_beef] {
            let z = complex_values(seed ^ m as u64, m);
            let tw = complex_values(seed.rotate_left(29) ^ m as u64, m + 1);
            let want: Vec<Complex> = (0..=m).map(|k| split_bin_oracle(&z, &tw, k)).collect();
            let (mut re, mut im) = (vec![0.0; m + 1], vec![0.0; m + 1]);
            simd::real_split_combine_soa(&z, &tw, &mut re, &mut im);
            assert_eq!(planes(&re, &im), cbits(&want), "m {m}, seed {seed:#x}");
        }
    }
}
