//! Local-extremum detection, used by EMD's sifting step.

/// Indices of strict local maxima (`x[i-1] < x[i] > x[i+1]`), with plateau
/// handling: the centre of a flat top counts once.
pub fn local_maxima(x: &[f64]) -> Vec<usize> {
    extrema(x, true)
}

/// Indices of strict local minima.
pub fn local_minima(x: &[f64]) -> Vec<usize> {
    extrema(x, false)
}

fn extrema(x: &[f64], maxima: bool) -> Vec<usize> {
    let n = x.len();
    let mut out = Vec::new();
    if n < 3 {
        return out;
    }
    let better = |a: f64, b: f64| if maxima { a > b } else { a < b };
    let mut i = 1;
    while i < n - 1 {
        if better(x[i], x[i - 1]) {
            // Walk over a possible plateau.
            let start = i;
            while i < n - 1 && x[i + 1] == x[i] {
                i += 1;
            }
            if i < n - 1 && better(x[i], x[i + 1]) {
                out.push((start + i) / 2);
            }
        }
        i += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_maxima_and_minima_of_sine() {
        let x: Vec<f64> =
            (0..200).map(|i| (2.0 * std::f64::consts::PI * i as f64 / 50.0).sin()).collect();
        let maxima = local_maxima(&x);
        let minima = local_minima(&x);
        assert_eq!(maxima.len(), 4);
        assert_eq!(minima.len(), 4);
        // First maximum near sample 12.5, first minimum near 37.5.
        assert!(maxima[0].abs_diff(12) <= 1);
        assert!(minima[0].abs_diff(37) <= 1);
    }

    #[test]
    fn plateau_counts_once() {
        let x = [0.0, 1.0, 1.0, 1.0, 0.0];
        assert_eq!(local_maxima(&x), vec![2]);
    }

    #[test]
    fn endpoints_are_not_extrema() {
        let x = [5.0, 1.0, 4.0];
        assert_eq!(local_maxima(&x), Vec::<usize>::new());
        assert_eq!(local_minima(&x), vec![1]);
    }

    #[test]
    fn short_input_has_no_extrema() {
        assert!(local_maxima(&[1.0, 2.0]).is_empty());
        assert!(local_minima(&[]).is_empty());
    }
}
