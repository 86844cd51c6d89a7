//! Sequential network container.

use crate::layers::Layer;
use crate::tensor::Tensor;

/// A stack of layers applied in order. The standard container for every
//  model in this workspace (the TC-localization CNN is a Sequential).
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

/// The two activation buffers [`Sequential::infer`] and
/// [`Sequential::infer_block`] alternate between. One per scoring thread,
/// reused from call to call: after the first call at a block width,
/// inference at that width allocates nothing (a block of 8 TC-CNN patches
/// holds about 100 KB).
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

    /// Inference pass on one sample, with no allocation — each layer reads
    /// one of `scratch`'s buffers and writes the other. `&self`, so
    /// threads share one model and bring their own `scratch`. The block
    /// kernels of [`Sequential::infer_block`] at a block of one.
    pub fn infer<'s>(&self, x: &Tensor, scratch: &'s mut Scratch) -> &'s Tensor {
        self.infer_block::<1>(x, scratch)
    }

    /// Inference on a block of `S` samples interleaved innermost: `x` is
    /// the samples' common shape plus a trailing `S` axis (a `[C, H, W]`
    /// sample makes a `[C, H, W, S]` block, element `[c, y, x, s]` being
    /// sample `s`'s `[c, y, x]`), and so is the output. Every layer's one
    /// forward kernel runs the block at once ([`crate::layers::Forward`]),
    /// and each sample's outputs are bitwise those [`Sequential::infer`]
    /// gives it alone (NaN payloads aside, as for every kernel).
    pub fn infer_block<'s, const S: usize>(
        &self,
        x: &Tensor,
        scratch: &'s mut Scratch,
    ) -> &'s Tensor {
        let Scratch(cur, next) = scratch;
        let mut layers = self.layers.iter().map(|l| l.forward());
        match layers.next() {
            Some(first) => first.run::<S>(x, cur),
            None => cur.clone_from(x),
        }
        for l in layers {
            l.run::<S>(cur, next);
            std::mem::swap(cur, next);
        }
        cur
    }

    /// The layers, in order (the trainer walks them one by one).
    pub(crate) fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Mutable parameter views across all layers, in
    /// [`Sequential::params`] order (the optimizer and the loader).
    pub(crate) fn params_mut(&mut self) -> Vec<&mut Tensor> {
        self.layers.iter_mut().flat_map(|l| l.params_mut()).collect()
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
        let mut params = self.params_mut();
        if params.len() != flat.len() {
            return Err(format!(
                "parameter tensor count mismatch: model has {}, file has {}",
                params.len(),
                flat.len()
            ));
        }
        for (i, (p, src)) in params.iter_mut().zip(flat).enumerate() {
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

    fn infer(net: &Sequential, x: &[f32]) -> Vec<f32> {
        net.infer(&Tensor::from_vec(&[x.len()], x.to_vec()), &mut Scratch::default()).data.clone()
    }

    #[test]
    fn infer_produces_expected_shape() {
        let y = infer(&tiny_net(), &[0.3, -0.8]);
        assert_eq!(y.len(), 1);
        assert!(y[0] > 0.0 && y[0] < 1.0);
    }

    #[test]
    fn param_count_and_names() {
        let net = tiny_net();
        // Dense(2,3): 6 + 3; Dense(3,1): 3 + 1 -> 13.
        assert_eq!(net.param_count(), 13);
        assert_eq!(net.layer_names(), vec!["dense", "relu", "dense", "sigmoid"]);
    }

    #[test]
    fn load_params_roundtrip() {
        let mut a = tiny_net();
        let mut b = tiny_net();
        // Perturb a's parameters, then copy into b.
        for p in a.params_mut() {
            for v in &mut p.data {
                *v += 0.5;
            }
        }
        let flat: Vec<Vec<f32>> = a.params().iter().map(|t| t.data.clone()).collect();
        b.load_params(&flat).unwrap();
        assert_eq!(infer(&a, &[0.2, 0.9]), infer(&b, &[0.2, 0.9]));
    }

    #[test]
    fn load_params_rejects_mismatch() {
        let mut net = tiny_net();
        assert!(net.load_params(&[vec![0.0; 3]]).is_err());
        let wrong_lengths: Vec<Vec<f32>> = (0..4).map(|_| vec![0.0f32]).collect();
        assert!(net.load_params(&wrong_lengths).is_err());
    }
}
