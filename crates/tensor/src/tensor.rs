//! Dense row-major tensors, generic over the element [`Scalar`].

use crate::scalar::Scalar;
use rand::Rng;

/// A dense, row-major, heap-allocated array with shape metadata.
///
/// The element type defaults to `f32` (the production compute path); an
/// `f64` instantiation exists as the accuracy reference. Shapes follow the
/// conventions of the NN stack: images are `[channels, freq, time]`,
/// convolution weights are `[out_ch, in_ch, k_freq, k_time]`, biases are
/// `[channels]`, and scalars are `[1]`.
///
/// # Example
///
/// ```
/// use dhf_tensor::Tensor;
/// let t: Tensor = Tensor::zeros(&[2, 3]);
/// assert_eq!(t.numel(), 6);
/// assert_eq!(t.shape(), &[2, 3]);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Tensor<S: Scalar = f32> {
    shape: Vec<usize>,
    data: Vec<S>,
}

impl<S: Scalar> Tensor<S> {
    /// Creates a tensor of zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        Tensor { shape: shape.to_vec(), data: vec![S::ZERO; shape.iter().product()] }
    }

    /// Creates a tensor filled with `value`.
    pub fn filled(shape: &[usize], value: S) -> Self {
        Tensor { shape: shape.to_vec(), data: vec![value; shape.iter().product()] }
    }

    /// Creates a scalar tensor of shape `[1]`.
    pub fn scalar(value: S) -> Self {
        Tensor { shape: vec![1], data: vec![value] }
    }

    /// Wraps an existing buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the product of `shape`.
    pub fn from_vec(shape: &[usize], data: Vec<S>) -> Self {
        assert_eq!(
            data.len(),
            shape.iter().product::<usize>(),
            "data length does not match shape {shape:?}"
        );
        Tensor { shape: shape.to_vec(), data }
    }

    /// Samples i.i.d. uniform values in `[lo, hi)`.
    ///
    /// Draws are always made in `f32` and widened, so the same seed yields
    /// the same initial weights in every precision (the f64 reference then
    /// differs from the f32 path only through arithmetic, not inputs).
    pub fn rand_uniform<R: Rng>(shape: &[usize], lo: f32, hi: f32, rng: &mut R) -> Self {
        let n: usize = shape.iter().product();
        let data = (0..n).map(|_| S::from_f32(rng.gen_range(lo..hi))).collect();
        Tensor { shape: shape.to_vec(), data }
    }

    /// Samples i.i.d. standard-normal values scaled by `std`.
    ///
    /// Like [`Tensor::rand_uniform`], draws are made in `f32` and widened so
    /// initialization is precision-invariant per seed.
    pub fn rand_normal<R: Rng>(shape: &[usize], std: f32, rng: &mut R) -> Self {
        let n: usize = shape.iter().product();
        // Box–Muller; rand's distributions feature is avoided on purpose.
        let mut data = Vec::with_capacity(n);
        while data.len() < n {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f32::consts::PI * u2;
            data.push(S::from_f32(r * theta.cos() * std));
            if data.len() < n {
                data.push(S::from_f32(r * theta.sin() * std));
            }
        }
        Tensor { shape: shape.to_vec(), data }
    }

    /// The tensor's shape.
    #[inline]
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    #[inline]
    pub fn numel(&self) -> usize {
        self.data.len()
    }

    /// Borrow of the flat data buffer.
    #[inline]
    pub fn data(&self) -> &[S] {
        &self.data
    }

    /// Mutable borrow of the flat data buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [S] {
        &mut self.data
    }

    /// Reinterprets the buffer under a new shape with equal element count.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(mut self, shape: &[usize]) -> Self {
        assert_eq!(self.numel(), shape.iter().product::<usize>(), "reshape element count mismatch");
        self.shape = shape.to_vec();
        self
    }

    /// Flat index of `[c, h, w]` in a rank-3 tensor.
    ///
    /// # Panics
    ///
    /// Debug-panics if the tensor is not rank 3 or the index is out of range.
    #[inline]
    pub fn idx3(&self, c: usize, h: usize, w: usize) -> usize {
        debug_assert_eq!(self.shape.len(), 3);
        debug_assert!(c < self.shape[0] && h < self.shape[1] && w < self.shape[2]);
        (c * self.shape[1] + h) * self.shape[2] + w
    }

    /// Value at `[c, h, w]`.
    #[inline]
    pub fn at3(&self, c: usize, h: usize, w: usize) -> S {
        self.data[self.idx3(c, h, w)]
    }

    /// Sum of all elements.
    pub fn sum(&self) -> S {
        self.data.iter().copied().sum()
    }

    /// Mean of all elements (0 for an empty tensor).
    pub fn mean(&self) -> S {
        if self.data.is_empty() {
            S::ZERO
        } else {
            self.sum() / S::from_usize(self.numel())
        }
    }

    /// Largest absolute element (0 for an empty tensor).
    pub fn max_abs(&self) -> S {
        self.data.iter().fold(S::ZERO, |m, &v| m.max(v.abs()))
    }

    /// Elementwise map into a new tensor.
    pub fn map(&self, f: impl Fn(S) -> S) -> Tensor<S> {
        Tensor { shape: self.shape.clone(), data: self.data.iter().map(|&v| f(v)).collect() }
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.data.iter_mut().for_each(|v| *v = S::ZERO);
    }

    /// Ensures this tensor has `shape`, reallocating only when needed, and
    /// zero-fills it.
    pub fn reset_to(&mut self, shape: &[usize]) {
        let n: usize = shape.iter().product();
        if self.data.len() != n {
            self.data = vec![S::ZERO; n];
        } else {
            self.fill_zero();
        }
        if self.shape != shape {
            self.shape = shape.to_vec();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn construction_shapes() {
        assert_eq!(Tensor::<f32>::zeros(&[2, 3, 4]).numel(), 24);
        assert_eq!(Tensor::filled(&[3], 2.0f32).data(), &[2.0, 2.0, 2.0]);
        assert_eq!(Tensor::scalar(5.0f32).shape(), &[1]);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn from_vec_validates_length() {
        let _ = Tensor::from_vec(&[2, 2], vec![1.0f32; 3]);
    }

    #[test]
    fn idx3_is_row_major() {
        let t: Tensor = Tensor::from_vec(&[2, 2, 3], (0..12).map(|i| i as f32).collect());
        assert_eq!(t.at3(0, 0, 0), 0.0);
        assert_eq!(t.at3(0, 1, 2), 5.0);
        assert_eq!(t.at3(1, 0, 0), 6.0);
        assert_eq!(t.at3(1, 1, 1), 10.0);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(&[2, 3], vec![1.0f32, 2., 3., 4., 5., 6.]).reshape(&[3, 2]);
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.data()[4], 5.0);
    }

    #[test]
    fn rand_normal_statistics() {
        let mut rng = StdRng::seed_from_u64(7);
        let t: Tensor = Tensor::rand_normal(&[10_000], 2.0, &mut rng);
        let mean = t.mean();
        let var = t.data().iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / t.numel() as f32;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn rand_uniform_bounds() {
        let mut rng = StdRng::seed_from_u64(3);
        let t: Tensor = Tensor::rand_uniform(&[1000], -0.5, 0.5, &mut rng);
        assert!(t.data().iter().all(|&v| (-0.5..0.5).contains(&v)));
    }

    #[test]
    fn rand_draws_are_precision_invariant_per_seed() {
        let mut rng32 = StdRng::seed_from_u64(11);
        let mut rng64 = StdRng::seed_from_u64(11);
        let a: Tensor<f32> = Tensor::rand_normal(&[64], 0.7, &mut rng32);
        let b: Tensor<f64> = Tensor::rand_normal(&[64], 0.7, &mut rng64);
        for (&x, &y) in a.data().iter().zip(b.data()) {
            assert_eq!(x as f64, y);
        }
        let mut rng32 = StdRng::seed_from_u64(12);
        let mut rng64 = StdRng::seed_from_u64(12);
        let a: Tensor<f32> = Tensor::rand_uniform(&[64], -0.3, 0.3, &mut rng32);
        let b: Tensor<f64> = Tensor::rand_uniform(&[64], -0.3, 0.3, &mut rng64);
        for (&x, &y) in a.data().iter().zip(b.data()) {
            assert_eq!(x as f64, y);
        }
    }

    #[test]
    fn reset_to_reuses_allocation() {
        let mut t = Tensor::filled(&[4], 1.0f32);
        let ptr = t.data().as_ptr();
        t.reset_to(&[2, 2]);
        assert_eq!(t.shape(), &[2, 2]);
        assert_eq!(t.data(), &[0.0; 4]);
        assert_eq!(t.data().as_ptr(), ptr);
    }

    #[test]
    fn map_and_reductions() {
        let t = Tensor::from_vec(&[3], vec![1.0f32, -2.0, 3.0]);
        assert_eq!(t.sum(), 2.0);
        assert_eq!(t.mean(), 2.0 / 3.0);
        assert_eq!(t.max_abs(), 3.0);
        assert_eq!(t.map(|v| v * v).data(), &[1.0, 4.0, 9.0]);
    }
}
