//! A dense, row-major tensor of `f32` with shape bookkeeping.
//!
//! tinyml keeps tensors deliberately simple: contiguous storage, explicit
//! shapes, no broadcasting. Layers operate on single samples (the trainer
//! loops over minibatches and averages gradients), which keeps every kernel
//! a readable nested loop.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A dense tensor: `data.len() == shape.iter().product()`, row-major.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Tensor {
    pub shape: Vec<usize>,
    pub data: Vec<f32>,
}

impl Tensor {
    /// Tensor filled with a constant.
    pub fn full(shape: &[usize], v: f32) -> Self {
        let n = shape.iter().product();
        Tensor { shape: shape.to_vec(), data: vec![v; n] }
    }

    /// Wraps a data vector; panics if the length does not match the shape.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Self {
        let n: usize = shape.iter().product();
        assert_eq!(n, data.len(), "tensor data length {} != shape product {}", data.len(), n);
        Tensor { shape: shape.to_vec(), data }
    }

    /// Uniform random values in `[-scale, scale]` from a seeded RNG
    /// (deterministic initialization keeps training reproducible).
    pub fn uniform(shape: &[usize], scale: f32, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n: usize = shape.iter().product();
        let data = (0..n).map(|_| rng.gen_range(-scale..=scale)).collect();
        Tensor { shape: shape.to_vec(), data }
    }

    /// Gives the tensor `shape`, keeping its allocations. Element values
    /// are unspecified afterwards: the caller overwrites every one (the
    /// inference path's reused output buffers).
    pub fn reshape_for_write(&mut self, shape: &[usize]) {
        self.shape.clear();
        self.shape.extend_from_slice(shape);
        self.data.resize(shape.iter().product(), 0.0);
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the tensor has no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Rank (number of axes).
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Linear index of a 3-axis coordinate (for `[C, H, W]` tensors).
    #[inline]
    fn idx3(&self, c: usize, h: usize, w: usize) -> usize {
        debug_assert_eq!(self.rank(), 3);
        (c * self.shape[1] + h) * self.shape[2] + w
    }

    /// Value at `[c, h, w]`.
    #[inline]
    pub fn at3(&self, c: usize, h: usize, w: usize) -> f32 {
        self.data[self.idx3(c, h, w)]
    }

    /// Mutable value at `[c, h, w]`.
    #[inline]
    pub fn at3_mut(&mut self, c: usize, h: usize, w: usize) -> &mut f32 {
        let i = self.idx3(c, h, w);
        &mut self.data[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_full_from_vec() {
        let z = Tensor::full(&[2, 3], 0.0);
        assert_eq!(z.len(), 6);
        assert!(z.data.iter().all(|&v| v == 0.0));
        let f = Tensor::full(&[4], 2.0);
        assert_eq!(f.data, vec![2.0; 4]);
        let t = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.rank(), 2);
    }

    #[test]
    #[should_panic(expected = "shape product")]
    fn from_vec_checks_length() {
        Tensor::from_vec(&[3], vec![1.0]);
    }

    #[test]
    fn uniform_is_deterministic_and_bounded() {
        let a = Tensor::uniform(&[100], 0.5, 42);
        let b = Tensor::uniform(&[100], 0.5, 42);
        assert_eq!(a, b);
        assert!(a.data.iter().all(|&v| (-0.5..=0.5).contains(&v)));
        let c = Tensor::uniform(&[100], 0.5, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn idx3_is_row_major() {
        let t = Tensor::from_vec(&[2, 3, 4], (0..24).map(|i| i as f32).collect());
        assert_eq!(t.at3(0, 0, 0), 0.0);
        assert_eq!(t.at3(0, 0, 3), 3.0);
        assert_eq!(t.at3(0, 1, 0), 4.0);
        assert_eq!(t.at3(1, 0, 0), 12.0);
        assert_eq!(t.at3(1, 2, 3), 23.0);
    }
}
