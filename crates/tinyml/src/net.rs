//! Sequential network container.

use crate::layers::Layer;
use crate::tensor::Tensor;

/// A stack of layers applied in order. The standard container for every
//  model in this workspace (the TC-localization CNN is a Sequential).
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

/// The two activation buffers [`Sequential::infer`] alternates between.
/// One per scoring thread, reused from call to call: after the first
/// call inference allocates nothing.
#[derive(Default)]
pub struct Scratch(Tensor, Tensor);

impl Sequential {
    /// Creates an empty network.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer (builder style).
    #[allow(clippy::should_implement_trait)] // Keras-style builder, not arithmetic
    pub fn add<L: Layer + 'static>(mut self, layer: L) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True when the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Full forward pass (caches per-layer activations for backward).
    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        let mut cur = x.clone();
        for l in &mut self.layers {
            cur = l.forward(&cur);
        }
        cur
    }

    /// Inference pass: [`Sequential::forward`]'s output bit for bit, with
    /// nothing cached and no allocation — each layer reads one of
    /// `scratch`'s buffers and writes the other. `&self`, so threads share
    /// one model and bring their own `scratch`.
    pub fn infer<'s>(&self, x: &Tensor, scratch: &'s mut Scratch) -> &'s Tensor {
        let Scratch(cur, next) = scratch;
        let mut layers = self.layers.iter();
        match layers.next() {
            Some(first) => first.infer(x, cur),
            None => cur.clone_from(x),
        }
        for l in layers {
            l.infer(cur, next);
            std::mem::swap(cur, next);
        }
        cur
    }

    /// Full backward pass from `dL/d(output)`: accumulates every layer's
    /// parameter gradients. The first layer's `dL/d(input)` has no reader,
    /// so it runs [`Layer::backward_params`] and is spared computing it.
    pub fn backward(&mut self, grad_out: &Tensor) {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return;
        };
        let mut cur: Option<Tensor> = None;
        for l in rest.iter_mut().rev() {
            cur = Some(l.backward(cur.as_ref().unwrap_or(grad_out)));
        }
        first.backward_params(cur.as_ref().unwrap_or(grad_out));
    }

    /// Zeroes every parameter gradient.
    pub fn zero_grad(&mut self) {
        for l in &mut self.layers {
            l.zero_grad();
        }
    }

    /// Parameter/gradient pairs across all layers (optimizer interface).
    pub fn params_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        self.layers.iter_mut().flat_map(|l| l.params_grads()).collect()
    }

    /// Immutable parameter views across all layers (serialization).
    pub fn params(&self) -> Vec<&Tensor> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    /// Total trainable parameter count.
    pub fn param_count(&self) -> usize {
        self.params().iter().map(|t| t.len()).sum()
    }

    /// Layer names in order (diagnostics / architecture fingerprint).
    pub fn layer_names(&self) -> Vec<&'static str> {
        self.layers.iter().map(|l| l.name()).collect()
    }

    /// Loads flat parameter data in [`Sequential::params`] order. Lengths
    /// must match exactly.
    pub fn load_params(&mut self, flat: &[Vec<f32>]) -> Result<(), String> {
        let mut pairs = self.params_grads();
        if pairs.len() != flat.len() {
            return Err(format!(
                "parameter tensor count mismatch: model has {}, file has {}",
                pairs.len(),
                flat.len()
            ));
        }
        for (i, ((p, _), src)) in pairs.iter_mut().zip(flat).enumerate() {
            if p.len() != src.len() {
                return Err(format!(
                    "parameter {i} length mismatch: model {}, file {}",
                    p.len(),
                    src.len()
                ));
            }
            p.data.copy_from_slice(src);
        }
        Ok(())
    }
}

impl Default for Sequential {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, ReLU, Sigmoid};

    fn tiny_net() -> Sequential {
        Sequential::new()
            .add(Dense::new(2, 3, 1))
            .add(ReLU::new())
            .add(Dense::new(3, 1, 2))
            .add(Sigmoid::new())
    }

    #[test]
    fn forward_produces_expected_shape() {
        let mut net = tiny_net();
        let y = net.forward(&Tensor::from_vec(&[2], vec![0.3, -0.8]));
        assert_eq!(y.shape, vec![1]);
        assert!(y.data[0] > 0.0 && y.data[0] < 1.0);
    }

    #[test]
    fn param_count_and_names() {
        let net = tiny_net();
        // Dense(2,3): 6 + 3; Dense(3,1): 3 + 1 -> 13.
        assert_eq!(net.param_count(), 13);
        assert_eq!(net.layer_names(), vec!["dense", "relu", "dense", "sigmoid"]);
    }

    #[test]
    fn backward_runs_after_forward() {
        let mut net = tiny_net();
        net.zero_grad();
        let y = net.forward(&Tensor::from_vec(&[2], vec![1.0, 1.0]));
        net.backward(&Tensor::full(&y.shape, 1.0));
        // Some parameter gradient must be non-zero.
        let any_nonzero = net.params_grads().iter().any(|(_, g)| g.data.iter().any(|&v| v != 0.0));
        assert!(any_nonzero);
    }

    #[test]
    fn load_params_roundtrip() {
        let mut a = tiny_net();
        let mut b = tiny_net();
        // Perturb a's parameters, then copy into b.
        for (p, _) in a.params_grads() {
            for v in &mut p.data {
                *v += 0.5;
            }
        }
        let flat: Vec<Vec<f32>> = a.params().iter().map(|t| t.data.clone()).collect();
        b.load_params(&flat).unwrap();
        let x = Tensor::from_vec(&[2], vec![0.2, 0.9]);
        assert_eq!(a.forward(&x).data, b.forward(&x).data);
    }

    #[test]
    fn load_params_rejects_mismatch() {
        let mut net = tiny_net();
        assert!(net.load_params(&[vec![0.0; 3]]).is_err());
        let wrong_lengths: Vec<Vec<f32>> = (0..4).map(|_| vec![0.0f32]).collect();
        assert!(net.load_params(&wrong_lengths).is_err());
    }
}
