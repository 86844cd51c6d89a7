//! Minibatch SGD with momentum, two phases per minibatch.
//!
//! The weights are fixed from one [`Sgd`] step to the next, so the samples
//! of a minibatch are independent until their gradients are summed. Each
//! minibatch therefore runs as two scopes on the global `par` pool, each
//! of at most one job per lane, every job claiming the next unit of work
//! until none is left (ReLU makes some samples and some conv channels far
//! cheaper than others, so fixed shares would leave a lane idle):
//!
//! * **phase A**, one unit per sample: it runs every layer's `infer` into
//!   the sample's own [`Tape`] of activations, then the loss, then every
//!   layer's `input_grad` from the last layer to the second, leaving
//!   `dL/d(output)` of every layer on the tape (the first layer's
//!   `dL/d(input)` has no reader and is not computed);
//! * **phase B**, one unit per output row of a parameter layer (conv
//!   channels first, then dense rows): it adds that row's `dL/dθ` from
//!   every sample's tape, visiting the samples in batch order, into a
//!   buffer its lane reuses from unit to unit, then stores the finished
//!   row into [`Sgd`]'s gradients once. Phase B sums privately because
//!   summing in place had two lanes writing the same cache lines sample
//!   after sample — a layer's bias gradients are adjacent floats, and a
//!   36-float conv1 row straddles two lines — so each lane's stores kept
//!   evicting the other's.
//!
//! So every gradient element sees the add sequence of a per-sample
//! backward pass over cached activations (the oracle in
//! `tests/train_equivalence.rs`) — sample by sample, and each layer's own
//! order inside a sample — and the trained weights are bitwise the same at
//! every pool width. One lane runs the same two phases inline.

use crate::net::Sequential;
use crate::tensor::Tensor;
use std::sync::Mutex;

/// Stochastic gradient descent with classical momentum. It owns the
/// gradient and velocity buffers, one per parameter tensor, sized to the
/// model on first use.
pub struct Sgd {
    pub lr: f32,
    pub momentum: f32,
    velocity: Vec<Vec<f32>>,
    grads: Vec<Tensor>,
}

impl Sgd {
    /// Creates an optimizer with the given learning rate and momentum
    /// coefficient (0 = plain SGD).
    pub fn new(lr: f32, momentum: f32) -> Self {
        Sgd { lr, momentum, velocity: Vec::new(), grads: Vec::new() }
    }

    /// The parameter gradients summed over the last minibatch, in
    /// [`Sequential::params`] order.
    pub fn grads(&self) -> &[Tensor] {
        &self.grads
    }

    /// Applies one update step using the gradients of the last minibatch,
    /// scaled by `1/batch_size` (they are sums over the minibatch).
    fn step(&mut self, net: &mut Sequential, batch_size: usize) {
        let scale = 1.0 / batch_size.max(1) as f32;
        let params = net.params_mut();
        if self.velocity.len() != params.len() {
            self.velocity = params.iter().map(|p| vec![0.0; p.len()]).collect();
        }
        for ((p, g), v) in params.into_iter().zip(&self.grads).zip(&mut self.velocity) {
            for ((p, &g), v) in p.data.iter_mut().zip(&g.data).zip(v.iter_mut()) {
                let grad = g * scale;
                *v = self.momentum * *v - self.lr * grad;
                *p += *v;
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

/// One sample's record of phase A, its buffers reused from minibatch to
/// minibatch: `acts[l]` is layer `l`'s output and `grads[l]` is
/// `dL/d acts[l]`.
#[derive(Default)]
struct Tape {
    acts: Vec<Tensor>,
    grads: Vec<Tensor>,
}

impl Tape {
    /// Phase A for one sample `(x, t)`; returns its loss.
    fn record<F>(&mut self, net: &Sequential, (x, t): &Sample, loss_fn: &F) -> f32
    where
        F: Fn(&Tensor, &Tensor) -> (f32, Tensor),
    {
        let layers = net.layers();
        let n = layers.len();
        self.acts.resize_with(n, Tensor::default);
        self.grads.resize_with(n, Tensor::default);
        for (l, layer) in layers.iter().enumerate() {
            let (done, rest) = self.acts.split_at_mut(l);
            layer.infer(done.last().unwrap_or(x), &mut rest[0]);
        }
        let (loss, g) = loss_fn(self.acts.last().unwrap_or(x), t);
        if let Some(last) = self.grads.last_mut() {
            *last = g;
        }
        for l in (1..n).rev() {
            let (below, above) = self.grads.split_at_mut(l);
            let (x, y) = (&self.acts[l - 1], &self.acts[l]);
            layers[l].input_grad(x, y, &above[0], &mut below[l - 1]);
        }
        loss
    }

    /// Layer `l`'s input: the sample's own for the first layer.
    fn input<'a>(&'a self, x: &'a Tensor, l: usize) -> &'a Tensor {
        if l == 0 {
            x
        } else {
            &self.acts[l - 1]
        }
    }
}

/// One unit of phase B: output row `row` of layer `layer`, and that row's
/// slots in [`Sgd`]'s gradients, written once, when the unit is done.
struct RowGrads<'g> {
    layer: usize,
    row: usize,
    gw: &'g mut [f32],
    gb: &'g mut f32,
}

/// Phase B: sets `grads` (in [`Sequential::params`] order) to the sum of
/// every sample's parameter gradients from its tape. Each output row of
/// every parameter layer is one unit; one job per entry of `lane_rows`
/// claims the units in layer order. A unit visits the samples in batch
/// order, summing into its lane's buffer, and then stores the row.
fn add_param_grads(
    net: &Sequential,
    batch: &[Sample],
    tapes: &[&Tape],
    grads: &mut [Tensor],
    lane_rows: &[Mutex<Vec<f32>>],
) {
    let layers = net.layers();
    let mut grads = grads.iter_mut();
    let mut units = Vec::new();
    for (layer, l) in layers.iter().enumerate().filter(|(_, l)| l.param_rows() > 0) {
        let mut next = || &mut grads.next().expect("a [w, b] gradient pair per layer").data;
        let (gw, gb) = (next(), next());
        let row_len = gw.len() / l.param_rows();
        for (row, (gw, gb)) in gw.chunks_exact_mut(row_len).zip(gb.iter_mut()).enumerate() {
            units.push(Mutex::new(RowGrads { layer, row, gw, gb }));
        }
    }
    par::global().par_map_lanes(lane_rows.len(), &units, |lane, _, unit| {
        let RowGrads { layer, row, ref mut gw, ref mut gb } =
            *unit.lock().expect("each unit is locked once, by one job");
        let mut sum_w = lane_rows[lane].lock().expect("a lane runs one unit at a time");
        sum_w.clear();
        sum_w.resize(gw.len(), 0.0);
        let mut sum_b = 0.0;
        for ((x, _), tape) in batch.iter().zip(tapes) {
            let (input, grad_out) = (tape.input(x, layer), &tape.grads[layer]);
            layers[layer].add_param_grads(input, grad_out, row, &mut sum_w, &mut sum_b);
        }
        gw.copy_from_slice(&sum_w);
        **gb = sum_b;
    });
}

/// Trains `net` for one epoch over `samples` with the provided loss
/// function, in minibatches of `batch_size`. The loss function returns
/// `(loss_value, dL/d(prediction))`. Each minibatch runs the two phases of
/// the module docs on the global pool, then one [`Sgd`] step.
pub fn train_epoch<F>(
    net: &mut Sequential,
    opt: &mut Sgd,
    samples: &[Sample],
    batch_size: usize,
    loss_fn: F,
) -> EpochStats
where
    F: Fn(&Tensor, &Tensor) -> (f32, Tensor) + Sync,
{
    let _span = if obs::global_active() { Some(obs::trace::span("train_epoch")) } else { None };
    let pool = par::global();
    let batch_size = batch_size.max(1);
    let mut tapes: Vec<Mutex<Tape>> =
        (0..batch_size.min(samples.len())).map(|_| Mutex::default()).collect();
    let lane_rows: Vec<Mutex<Vec<f32>>> = (0..pool.threads()).map(|_| Mutex::default()).collect();
    opt.grads = net.params().iter().map(|p| Tensor::full(&p.shape, 0.0)).collect();
    let mut total_loss = 0.0f64;
    let mut batches = 0usize;
    for chunk in samples.chunks(batch_size) {
        let tapes = &mut tapes[..chunk.len()];
        let model = &*net;
        let losses = pool.par_map_lanes(pool.threads(), tapes, |_, i, tape| {
            let mut tape = tape.lock().expect("each tape is locked once, by one job");
            tape.record(model, &chunk[i], &loss_fn)
        });
        let poisoned = "phase A finished without a panic";
        let tapes: Vec<&Tape> = tapes.iter_mut().map(|t| &*t.get_mut().expect(poisoned)).collect();
        add_param_grads(net, chunk, &tapes, &mut opt.grads, &lane_rows);
        let batch_loss = losses.iter().fold(0.0f32, |sum, loss| sum + loss);
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
    use crate::layers::{Dense, ReLU, Sigmoid};
    use crate::net::Scratch;

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
        let y = net.infer(&Tensor::from_vec(&[1], vec![1.0]), &mut Scratch::default()).data[0];
        assert!((y - 2.0).abs() < 0.1, "weight learned {y}");
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
            .add(ReLU)
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
            let y = net.infer(x, &mut Scratch::default()).data[0];
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
