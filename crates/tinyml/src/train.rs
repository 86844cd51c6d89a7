//! Minibatch SGD with momentum.

use crate::net::Sequential;
use crate::tensor::Tensor;

/// Stochastic gradient descent with classical momentum. Velocity buffers
/// are lazily sized to the model on first `step`.
pub struct Sgd {
    pub lr: f32,
    pub momentum: f32,
    velocity: Vec<Vec<f32>>,
}

impl Sgd {
    /// Creates an optimizer with the given learning rate and momentum
    /// coefficient (0 = plain SGD).
    pub fn new(lr: f32, momentum: f32) -> Self {
        Sgd { lr, momentum, velocity: Vec::new() }
    }

    /// Applies one update step using the gradients currently accumulated in
    /// the model, scaled by `1/batch_size` (gradients are summed over the
    /// minibatch by the backward passes).
    #[allow(clippy::needless_range_loop)] // parallel-array update reads clearer indexed
    pub fn step(&mut self, net: &mut Sequential, batch_size: usize) {
        let scale = 1.0 / batch_size.max(1) as f32;
        let mut pairs = net.params_grads();
        if self.velocity.len() != pairs.len() {
            self.velocity = pairs.iter().map(|(p, _)| vec![0.0; p.len()]).collect();
        }
        for ((p, g), v) in pairs.iter_mut().zip(&mut self.velocity) {
            for i in 0..p.len() {
                let grad = g.data[i] * scale;
                v[i] = self.momentum * v[i] - self.lr * grad;
                p.data[i] += v[i];
            }
        }
    }
}

/// One labelled sample: input tensor and target tensor.
pub type Sample = (Tensor, Tensor);

/// Result of one training epoch.
#[derive(Debug, Clone, Copy)]
pub struct EpochStats {
    pub mean_loss: f32,
    pub batches: usize,
}

/// Trains `net` for one epoch over `samples` with the provided loss
/// function, in minibatches of `batch_size`. The loss function returns
/// `(loss_value, dL/d(prediction))`.
pub fn train_epoch<F>(
    net: &mut Sequential,
    opt: &mut Sgd,
    samples: &[Sample],
    batch_size: usize,
    loss_fn: F,
) -> EpochStats
where
    F: Fn(&Tensor, &Tensor) -> (f32, Tensor),
{
    let _span = if obs::global_active() { Some(obs::trace::span("train_epoch")) } else { None };
    let mut total_loss = 0.0f64;
    let mut batches = 0usize;
    for chunk in samples.chunks(batch_size.max(1)) {
        net.zero_grad();
        let mut batch_loss = 0.0f32;
        for (x, t) in chunk {
            let y = net.forward(x);
            let (l, g) = loss_fn(&y, t);
            batch_loss += l;
            net.backward(&g);
        }
        opt.step(net, chunk.len());
        total_loss += (batch_loss / chunk.len() as f32) as f64;
        batches += 1;
    }
    EpochStats {
        mean_loss: if batches > 0 { (total_loss / batches as f64) as f32 } else { f32::NAN },
        batches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Dense, Sigmoid, Tanh};

    /// Mean-squared error: `L = mean((y - t)^2)`.
    /// Returns `(loss, dL/dy)`.
    fn mse(pred: &Tensor, target: &Tensor) -> (f32, Tensor) {
        assert_eq!(pred.shape, target.shape, "mse shape mismatch");
        let n = pred.len().max(1) as f32;
        let mut loss = 0.0;
        let mut grad = Tensor::full(&pred.shape, 0.0);
        for i in 0..pred.len() {
            let d = pred.data[i] - target.data[i];
            loss += d * d;
            grad.data[i] = 2.0 * d / n;
        }
        (loss / n, grad)
    }

    /// Binary cross-entropy over probabilities in `(0, 1)`:
    /// `L = -mean(t·ln y + (1-t)·ln(1-y))`. Predictions are clamped away from
    /// 0/1 for numerical stability. Returns `(loss, dL/dy)`.
    fn bce(pred: &Tensor, target: &Tensor) -> (f32, Tensor) {
        assert_eq!(pred.shape, target.shape, "bce shape mismatch");
        const EPS: f32 = 1e-6;
        let n = pred.len().max(1) as f32;
        let mut loss = 0.0;
        let mut grad = Tensor::full(&pred.shape, 0.0);
        for i in 0..pred.len() {
            let y = pred.data[i].clamp(EPS, 1.0 - EPS);
            let t = target.data[i];
            loss += -(t * y.ln() + (1.0 - t) * (1.0 - y).ln());
            grad.data[i] = (y - t) / (y * (1.0 - y)) / n;
        }
        (loss / n, grad)
    }

    #[test]
    fn sgd_moves_parameters_downhill() {
        // Single linear neuron learning y = 2x.
        let mut net = Sequential::new().add(Dense::new(1, 1, 5));
        let mut opt = Sgd::new(0.05, 0.0);
        let samples: Vec<Sample> = (0..20)
            .map(|i| {
                let x = (i as f32 - 10.0) / 10.0;
                (Tensor::from_vec(&[1], vec![x]), Tensor::from_vec(&[1], vec![2.0 * x]))
            })
            .collect();
        let first = train_epoch(&mut net, &mut opt, &samples, 4, mse).mean_loss;
        let mut last = first;
        for _ in 0..200 {
            last = train_epoch(&mut net, &mut opt, &samples, 4, mse).mean_loss;
        }
        assert!(last < first * 0.01, "loss did not drop: {first} -> {last}");
        // Learned weight should approach 2.
        let y = net.forward(&Tensor::from_vec(&[1], vec![1.0]));
        assert!((y.data[0] - 2.0).abs() < 0.1, "weight learned {}", y.data[0]);
    }

    #[test]
    fn momentum_accelerates_convergence() {
        let make_samples = || -> Vec<Sample> {
            (0..16)
                .map(|i| {
                    let x = i as f32 / 16.0;
                    (Tensor::from_vec(&[1], vec![x]), Tensor::from_vec(&[1], vec![0.5 * x + 0.1]))
                })
                .collect()
        };
        let run = |momentum: f32| -> f32 {
            let mut net = Sequential::new().add(Dense::new(1, 1, 9));
            let mut opt = Sgd::new(0.01, momentum);
            let samples = make_samples();
            let mut loss = 0.0;
            for _ in 0..50 {
                loss = train_epoch(&mut net, &mut opt, &samples, 4, mse).mean_loss;
            }
            loss
        };
        let plain = run(0.0);
        let with_momentum = run(0.9);
        assert!(
            with_momentum < plain,
            "momentum should converge faster: plain {plain}, momentum {with_momentum}"
        );
    }

    #[test]
    fn xor_is_learnable() {
        // Classic nonlinear sanity check for the full backprop stack.
        let mut net = Sequential::new()
            .add(Dense::new(2, 8, 21))
            .add(Tanh::new())
            .add(Dense::new(8, 1, 22))
            .add(Sigmoid::new());
        let mut opt = Sgd::new(0.5, 0.9);
        let samples: Vec<Sample> = vec![
            (Tensor::from_vec(&[2], vec![0.0, 0.0]), Tensor::from_vec(&[1], vec![0.0])),
            (Tensor::from_vec(&[2], vec![0.0, 1.0]), Tensor::from_vec(&[1], vec![1.0])),
            (Tensor::from_vec(&[2], vec![1.0, 0.0]), Tensor::from_vec(&[1], vec![1.0])),
            (Tensor::from_vec(&[2], vec![1.0, 1.0]), Tensor::from_vec(&[1], vec![0.0])),
        ];
        for _ in 0..800 {
            train_epoch(&mut net, &mut opt, &samples, 4, bce);
        }
        for (x, t) in &samples {
            let y = net.forward(x).data[0];
            assert!(
                (y - t.data[0]).abs() < 0.25,
                "xor({:?}) predicted {y}, want {}",
                x.data,
                t.data[0]
            );
        }
    }

    #[test]
    fn empty_sample_set_is_safe() {
        let mut net = Sequential::new().add(Dense::new(1, 1, 1));
        let mut opt = Sgd::new(0.1, 0.0);
        let stats = train_epoch(&mut net, &mut opt, &[], 4, mse);
        assert_eq!(stats.batches, 0);
        assert!(stats.mean_loss.is_nan());
    }
}
