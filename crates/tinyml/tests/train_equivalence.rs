//! The two-phase trainer against the per-sample cached backward chain.
//!
//! `train_epoch` runs each minibatch as per-sample tapes (phase A) and
//! weight gradients one output row at a time (phase B) on the global pool. The oracle
//! below is the trainer it replaced: per sample, a forward pass that caches
//! every layer's input and output, the loss, then one backward pass from
//! the last layer to the first that returns `dL/dx` and accumulates the
//! parameter gradients into the model's buffers, and after the minibatch a
//! momentum step. On random small nets, minibatch sizes that leave a
//! partial last batch, and loss gradients with a random share of ±0.0, the
//! trainer's gradients after one minibatch, its parameters and mean loss
//! after two epochs, and every layer's `input_grad` must equal the oracle's
//! by `to_bits`. `scripts/check.sh` runs this file at `PAR_THREADS` 1, 2
//! and 4.

mod common;

use proptest::prelude::*;
use tinyml::layers::{Conv2d, Dense, Flatten, Layer, MaxPool2d, ReLU, Sigmoid};
use tinyml::net::Sequential;
use tinyml::tensor::Tensor;
use tinyml::train::{train_epoch, Sample, Sgd};

const LR: f32 = 0.05;
const MOMENTUM: f32 = 0.9;

/// One layer of a random net.
#[derive(Clone, Copy, Debug)]
enum Kind {
    Conv { in_ch: usize, out_ch: usize, k: usize, pad: usize, seed: u64 },
    Pool,
    Relu,
    Sigmoid,
    Flatten,
    Dense { input: usize, output: usize, seed: u64 },
}

/// splitmix64: the deterministic stream a case's architecture and data
/// come from.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A random architecture for `[in_ch, h, w]` inputs: up to two conv blocks
/// (conv, an optional activation, an optional 2x2 pool), maybe an
/// activation in front, then up to two dense layers behind a flatten, or
/// none, so the loss gradient can also reach a pool or a conv directly.
fn random_net(mix: &mut Mix, in_ch: usize, h: usize, w: usize) -> Vec<Kind> {
    let act = |mix: &mut Mix| [None, Some(Kind::Relu), Some(Kind::Sigmoid)][mix.below(3)];
    let mut kinds = Vec::new();
    kinds.extend(if mix.below(3) == 0 { act(mix) } else { None });
    let (mut c, mut h, mut w) = (in_ch, h, w);
    for _ in 0..1 + mix.below(2) {
        let k = [1, 3][mix.below(2)];
        let pad = mix.below(2);
        if h + 2 * pad < k || w + 2 * pad < k {
            continue;
        }
        let out_ch = 1 + mix.below(6);
        kinds.push(Kind::Conv { in_ch: c, out_ch, k, pad, seed: mix.next() });
        (c, h, w) = (out_ch, h + 2 * pad + 1 - k, w + 2 * pad + 1 - k);
        kinds.extend(act(mix));
        if h % 2 == 0 && w % 2 == 0 && mix.below(2) == 0 {
            kinds.push(Kind::Pool);
            (h, w) = (h / 2, w / 2);
        }
    }
    let dense = mix.below(3);
    if dense > 0 || mix.below(2) == 0 {
        kinds.push(Kind::Flatten);
    }
    let mut n = c * h * w;
    for _ in 0..dense {
        let output = 1 + mix.below(7);
        kinds.push(Kind::Dense { input: n, output, seed: mix.next() });
        n = output;
        kinds.extend(act(mix));
    }
    kinds
}

/// The architecture twice, with the same initial weights: as a
/// `Sequential` for the trainer and as bare layers for the oracle.
fn models(kinds: &[Kind]) -> (Sequential, Vec<Box<dyn Layer>>) {
    type Models = (Sequential, Vec<Box<dyn Layer>>);
    fn push<L: Layer + 'static>((net, mut chain): Models, make: impl Fn() -> L) -> Models {
        chain.push(Box::new(make()));
        (net.add(make()), chain)
    }
    kinds.iter().fold((Sequential::new(), Vec::new()), |m, &kind| match kind {
        Kind::Conv { in_ch, out_ch, k, pad, seed } => push(m, || {
            let mut conv = Conv2d::new(in_ch, out_ch, k, pad, seed);
            // Non-zero biases, so a dropped bias gradient shows.
            conv.b = Tensor::uniform(&[out_ch], 0.3, seed ^ 1);
            conv
        }),
        Kind::Pool => push(m, || MaxPool2d::new(2)),
        Kind::Relu => push(m, ReLU::new),
        Kind::Sigmoid => push(m, Sigmoid::new),
        Kind::Flatten => push(m, Flatten::new),
        Kind::Dense { input, output, seed } => push(m, || Dense::new(input, output, seed)),
    })
}

/// Squared error, with the gradient forced to +0.0 or −0.0 on the elements
/// a hash of the target picks (`zero_per_8` in 8 of them).
fn loss_with_zeros(zero_per_8: u64) -> impl Fn(&Tensor, &Tensor) -> (f32, Tensor) + Sync {
    move |y: &Tensor, t: &Tensor| {
        let n = y.len() as f32;
        let mut loss = 0.0f32;
        let mut g = Tensor::full(&y.shape, 0.0);
        for (i, ((&yv, &tv), gv)) in y.data.iter().zip(&t.data).zip(&mut g.data).enumerate() {
            let d = yv - tv;
            loss += d * d;
            let r = Mix(tv.to_bits() as u64 ^ (i as u64) << 32).next();
            *gv = match r % 8 {
                z if z < zero_per_8 && r & 8 == 0 => 0.0,
                z if z < zero_per_8 => -0.0,
                _ => 2.0 * d / n,
            };
        }
        (loss / n, g)
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The per-sample cached chain: the layers, their kinds, one gradient
/// buffer per parameter tensor, and the momentum buffers.
struct Oracle {
    layers: Vec<Box<dyn Layer>>,
    kinds: Vec<Kind>,
    grads: Vec<Vec<f32>>,
    velocity: Vec<Vec<f32>>,
}

impl Oracle {
    fn new(kinds: &[Kind]) -> Self {
        let layers = models(kinds).1;
        let shapes: Vec<usize> = layers.iter().flat_map(|l| l.params()).map(|p| p.len()).collect();
        let zeros = || shapes.iter().map(|&n| vec![0.0; n]).collect();
        Oracle { layers, kinds: kinds.to_vec(), grads: zeros(), velocity: zeros() }
    }

    /// Forward with every layer's input cached: `acts[l]` is layer `l`'s input,
    /// `acts[l + 1]` its output.
    fn forward(&self, x: &Tensor) -> Vec<Tensor> {
        let mut acts = vec![x.clone()];
        for l in &self.layers {
            let mut y = Tensor::default();
            l.infer(acts.last().unwrap(), &mut y);
            acts.push(y);
        }
        acts
    }

    /// Layer `l`'s backward: returns `dL/dx` and accumulates its parameter
    /// gradients into `grads[p..]`, the loops of the per-sample trainer.
    #[allow(clippy::needless_range_loop)] // the oracle mirrors the math
    fn backward(&mut self, l: usize, x: &Tensor, y: &Tensor, g: &Tensor, p: usize) -> Tensor {
        let mut gx = Tensor::full(&x.shape, 0.0);
        match self.kinds[l] {
            Kind::Conv { k, pad, .. } => {
                let w = self.layers[l].params()[0].data.clone();
                let (gw, rest) = self.grads[p..].split_first_mut().unwrap();
                gx.data = common::conv_backward(x, &w, g, k, pad, gw, &mut rest[0]);
            }
            Kind::Dense { input, output, .. } => {
                let w = self.layers[l].params()[0].data.clone();
                let (gw, rest) = self.grads[p..].split_first_mut().unwrap();
                let gb = &mut rest[0];
                for o in 0..output {
                    gb[o] += g.data[o];
                    for i in 0..input {
                        gw[o * input + i] += g.data[o] * x.data[i];
                        gx.data[i] += g.data[o] * w[o * input + i];
                    }
                }
            }
            Kind::Pool => {
                let (c, h, w) = (x.shape[0], x.shape[1], x.shape[2]);
                let (oh, ow) = (h / 2, w / 2);
                for ci in 0..c {
                    for oy in 0..oh {
                        for ox in 0..ow {
                            let mut best = f32::NEG_INFINITY;
                            let mut arg = (ci * h + 2 * oy) * w + 2 * ox;
                            for dy in 0..2 {
                                for dx in 0..2 {
                                    let i = (ci * h + 2 * oy + dy) * w + 2 * ox + dx;
                                    if x.data[i] > best {
                                        (best, arg) = (x.data[i], i);
                                    }
                                }
                            }
                            gx.data[arg] += g.data[(ci * oh + oy) * ow + ox];
                        }
                    }
                }
            }
            Kind::Relu => {
                for i in 0..gx.len() {
                    gx.data[i] = if x.data[i] > 0.0 { g.data[i] } else { 0.0 };
                }
            }
            Kind::Sigmoid => {
                for i in 0..gx.len() {
                    gx.data[i] = g.data[i] * y.data[i] * (1.0 - y.data[i]);
                }
            }
            Kind::Flatten => gx.data.copy_from_slice(&g.data),
        }
        gx
    }

    /// One minibatch: zeroed gradients, then per sample forward, loss and
    /// backward; returns the summed loss and every layer's `dL/dx` of the
    /// batch's first sample (layer 0 excluded: nothing reads it).
    fn minibatch<F>(&mut self, batch: &[Sample], loss_fn: &F) -> (f32, Vec<Tensor>)
    where
        F: Fn(&Tensor, &Tensor) -> (f32, Tensor),
    {
        self.grads.iter_mut().for_each(|g| g.fill(0.0));
        let firsts: Vec<usize> = self
            .layers
            .iter()
            .scan(0, |p, l| {
                let first = *p;
                *p += l.params().len();
                Some(first)
            })
            .collect();
        let mut batch_loss = 0.0f32;
        let mut first_chain = Vec::new();
        for (s, (x, t)) in batch.iter().enumerate() {
            let acts = self.forward(x);
            let (loss, mut g) = loss_fn(acts.last().unwrap(), t);
            batch_loss += loss;
            for l in (0..self.layers.len()).rev() {
                g = self.backward(l, &acts[l], &acts[l + 1], &g, firsts[l]);
                if s == 0 && l > 0 {
                    first_chain.push(g.clone());
                }
            }
        }
        first_chain.reverse();
        (batch_loss, first_chain)
    }

    /// The momentum step on the summed gradients, scaled by `1/batch`.
    fn step(&mut self, batch: usize) {
        let scale = 1.0 / batch as f32;
        let params = self.layers.iter_mut().flat_map(|l| l.params_mut());
        for ((p, g), v) in params.zip(&self.grads).zip(&mut self.velocity) {
            for i in 0..p.len() {
                v[i] = MOMENTUM * v[i] - LR * (g[i] * scale);
                p.data[i] += v[i];
            }
        }
    }

    fn params(&self) -> Vec<Vec<u32>> {
        self.layers.iter().flat_map(|l| l.params()).map(|p| bits(&p.data)).collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn two_phase_trainer_is_bitwise_the_cached_chain(
        in_ch in 1usize..4,
        h in 1usize..9,
        w in 1usize..9,
        batch in 1usize..18,
        n_samples in 1usize..40,
        zero_per_8 in 0u64..7,
        seed in any::<u64>(),
    ) {
        let mut mix = Mix(seed);
        let kinds = random_net(&mut mix, in_ch, h, w);
        prop_assume!(!kinds.is_empty());
        let mut oracle = Oracle::new(&kinds);
        let out_shape = oracle.forward(&Tensor::full(&[in_ch, h, w], 0.0)).pop().unwrap().shape;
        let samples: Vec<Sample> = (0..n_samples as u64)
            .map(|i| {
                let x = Tensor::uniform(&[in_ch, h, w], 1.5, seed ^ (2 * i + 1));
                (x, Tensor::uniform(&out_shape, 1.0, seed ^ (2 * i + 2)))
            })
            .collect();
        let loss_fn = loss_with_zeros(zero_per_8);

        // One minibatch: the summed gradients, and every layer's dL/dx.
        let first = &samples[..batch.min(n_samples)];
        let mut net = models(&kinds).0;
        let mut opt = Sgd::new(LR, MOMENTUM);
        let stats = train_epoch(&mut net, &mut opt, first, batch, &loss_fn);
        let (want_loss, chain) = oracle.minibatch(first, &loss_fn);
        let got: Vec<Vec<u32>> = opt.grads().iter().map(|g| bits(&g.data)).collect();
        let want: Vec<Vec<u32>> = oracle.grads.iter().map(|g| bits(g)).collect();
        prop_assert_eq!(got, want, "gradients after one minibatch of {:?}", kinds);
        prop_assert_eq!(
            stats.mean_loss.to_bits(),
            ((want_loss / first.len() as f32) as f64 as f32).to_bits()
        );
        let acts = oracle.forward(&first[0].0);
        let mut g = loss_fn(acts.last().unwrap(), &first[0].1).1;
        for l in (1..kinds.len()).rev() {
            let mut gx = Tensor::full(&[1], f32::NAN);
            oracle.layers[l].input_grad(&acts[l], &acts[l + 1], &g, &mut gx);
            prop_assert_eq!(&gx.shape, &chain[l - 1].shape);
            prop_assert_eq!(bits(&gx.data), bits(&chain[l - 1].data), "dL/dx of {:?}", kinds[l]);
            g = gx;
        }

        // Two epochs from scratch: the parameters and each epoch's mean loss.
        let mut net = models(&kinds).0;
        let mut opt = Sgd::new(LR, MOMENTUM);
        let mut oracle = Oracle::new(&kinds);
        for epoch in 0..2 {
            let stats = train_epoch(&mut net, &mut opt, &samples, batch, &loss_fn);
            let mut total = 0.0f64;
            for chunk in samples.chunks(batch) {
                let (loss, _) = oracle.minibatch(chunk, &loss_fn);
                oracle.step(chunk.len());
                total += (loss / chunk.len() as f32) as f64;
            }
            let mean = (total / samples.chunks(batch).len() as f64) as f32;
            prop_assert_eq!(stats.mean_loss.to_bits(), mean.to_bits(), "epoch {}", epoch);
        }
        let got: Vec<Vec<u32>> = net.params().iter().map(|p| bits(&p.data)).collect();
        prop_assert_eq!(got, oracle.params(), "parameters after two epochs of {:?}", kinds);
    }
}
