//! Differentiable layers.
//!
//! Each layer processes a single sample: convolutional layers take `[C, H, W]`
//! tensors, dense layers take flat `[N]` tensors. A layer has two forward
//! entries that compute the same values bit for bit:
//!
//! * `infer(&self, x, out)` — inference. Caches nothing, writes into a
//!   caller-owned `out` whose storage is reused from call to call, and
//!   runs serially, so one model is shared by every thread that scores
//!   with it ([`Layer`] is `Send + Sync`).
//! * `forward(&mut self, x)` — training. Runs `infer` into a fresh
//!   tensor, then caches whatever `backward` needs.
//!
//! `backward` receives `dL/d(output)` and returns `dL/d(input)` while
//! *accumulating* parameter gradients (the trainer zeroes them once per
//! minibatch and averages); `backward_params` accumulates the same
//! parameter gradients for a first layer, whose `dL/d(input)` has no
//! reader.
//!
//! [`Conv2d`], where training and inference spend their time, has one
//! kernel each way, both serial and both bitwise equal to the naive
//! per-pixel loops (which live in `tests/` as the oracles). The forward
//! works one output pixel at a time across a lane array of output
//! channels; the backward is one pass over the non-zero output gradients
//! that updates weight, bias and input gradients together. [`Dense`]'s
//! forward accumulates a block of output rows per pass over its input,
//! bitwise equal to the per-row loop (also in `tests/`). The lane kernels
//! leave the sign and payload of a NaN unspecified: where two NaN
//! operands meet in one add, which comes out depends on the operand order
//! the compiler picks.

use crate::tensor::Tensor;
use std::cell::RefCell;

/// Output channels [`Conv2d::infer`] accumulates together, one per lane.
const LANES: usize = 8;

/// The lane count used in place of [`LANES`] by a convolution with at
/// least this many output channels.
const WIDE_LANES: usize = 16;

/// Output rows [`Dense::infer`] accumulates together, one per lane.
const DENSE_ROWS: usize = 8;

thread_local! {
    /// This thread's tap-major copy of the weights of the convolution it
    /// is running (see [`Conv2d::infer`]).
    static TAP_MAJOR: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Common interface over all layers.
pub trait Layer: Send + Sync {
    /// Inference: the layer's output for `x`, written into `out`.
    fn infer(&self, x: &Tensor, out: &mut Tensor);
    /// Training forward pass: [`Layer::infer`]'s values, with the
    /// activations the backward pass needs cached.
    fn forward(&mut self, x: &Tensor) -> Tensor;
    /// Backward pass: takes `dL/dy`, returns `dL/dx`, accumulates `dL/dθ`.
    fn backward(&mut self, grad_out: &Tensor) -> Tensor;
    /// [`Layer::backward`] for a layer whose `dL/dx` nobody reads (a
    /// network's first layer): accumulates the same `dL/dθ`, bit for bit.
    /// The default runs `backward` and drops `dL/dx`; a layer that can
    /// skip computing it overrides this.
    fn backward_params(&mut self, grad_out: &Tensor) {
        self.backward(grad_out);
    }
    /// Parameter/gradient pairs, empty for stateless layers.
    fn params_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        Vec::new()
    }
    /// Immutable view of the parameters (serialization).
    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }
    /// Zeroes accumulated parameter gradients.
    fn zero_grad(&mut self) {}
    /// Diagnostic layer name.
    fn name(&self) -> &'static str;
}

/// `infer` into a fresh tensor: what every `forward` starts with.
fn infer_new(layer: &impl Layer, x: &Tensor) -> Tensor {
    let mut y = Tensor::default();
    layer.infer(x, &mut y);
    y
}

/// Fully-connected layer: `y = W x + b`, `W: [out, in]`.
pub struct Dense {
    pub w: Tensor,
    pub b: Tensor,
    pub gw: Tensor,
    pub gb: Tensor,
    cache_x: Option<Tensor>,
}

impl Dense {
    /// He-style uniform initialization with a deterministic seed.
    pub fn new(input: usize, output: usize, seed: u64) -> Self {
        let scale = (2.0 / input as f32).sqrt();
        Dense {
            w: Tensor::uniform(&[output, input], scale, seed),
            b: Tensor::full(&[output], 0.0),
            gw: Tensor::full(&[output, input], 0.0),
            gb: Tensor::full(&[output], 0.0),
            cache_x: None,
        }
    }

    fn input_len(&self) -> usize {
        self.w.shape[1]
    }
    fn output_len(&self) -> usize {
        self.w.shape[0]
    }
}

impl Layer for Dense {
    /// The crate's one dense kernel.
    ///
    /// Works on `DENSE_ROWS` (8) output rows per pass over the input, so
    /// their add chains do not wait on each other: each row's accumulator
    /// starts at its bias and adds `w · x` in ascending input order, the
    /// one-row-at-a-time loop's sequence, so every output equals it bitwise
    /// (±0.0 and ±inf included; the sign and payload of a NaN are not
    /// specified). A final block of fewer rows runs the same loop, its
    /// spare lanes repeating its last row and their sums dropped.
    fn infer(&self, x: &Tensor, out: &mut Tensor) {
        assert_eq!(x.len(), self.input_len(), "dense input length mismatch");
        let in_n = self.input_len();
        let x = &x.data[..in_n];
        out.reshape_for_write(&[self.output_len()]);
        for (blk, y) in out.data.chunks_mut(DENSE_ROWS).enumerate() {
            let row_of = |lane: usize| blk * DENSE_ROWS + lane.min(y.len() - 1);
            let rows: [&[f32]; DENSE_ROWS] =
                std::array::from_fn(|lane| &self.w.data[row_of(lane) * in_n..][..in_n]);
            let mut acc: [f32; DENSE_ROWS] = std::array::from_fn(|lane| self.b.data[row_of(lane)]);
            for (i, &xi) in x.iter().enumerate() {
                for (a, row) in acc.iter_mut().zip(&rows) {
                    *a += row[i] * xi;
                }
            }
            y.copy_from_slice(&acc[..y.len()]);
        }
    }

    fn forward(&mut self, x: &Tensor) -> Tensor {
        let y = infer_new(self, x);
        self.cache_x = Some(x.clone());
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x = self.cache_x.as_ref().expect("backward before forward");
        let (out_n, in_n) = (self.output_len(), self.input_len());
        assert_eq!(grad_out.len(), out_n);
        let mut gx = vec![0.0f32; in_n];
        for o in 0..out_n {
            let g = grad_out.data[o];
            self.gb.data[o] += g;
            let wrow = &self.w.data[o * in_n..(o + 1) * in_n];
            let gwrow = &mut self.gw.data[o * in_n..(o + 1) * in_n];
            for i in 0..in_n {
                gwrow[i] += g * x.data[i];
                gx[i] += g * wrow[i];
            }
        }
        Tensor::from_vec(&[in_n], gx)
    }

    fn params_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        vec![(&mut self.w, &mut self.gw), (&mut self.b, &mut self.gb)]
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.w, &self.b]
    }

    fn zero_grad(&mut self) {
        self.gw.data.fill(0.0);
        self.gb.data.fill(0.0);
    }

    fn name(&self) -> &'static str {
        "dense"
    }
}

/// 2-D convolution, stride 1, symmetric zero padding.
/// Input `[IC, H, W]`, weights `[OC, IC, K, K]`, output `[OC, H', W']`
/// with `H' = H + 2·pad − K + 1`.
pub struct Conv2d {
    pub w: Tensor,
    pub b: Tensor,
    pub gw: Tensor,
    pub gb: Tensor,
    pub kernel: usize,
    pub pad: usize,
    in_ch: usize,
    out_ch: usize,
    cache_x: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution with deterministic initialization.
    pub fn new(in_ch: usize, out_ch: usize, kernel: usize, pad: usize, seed: u64) -> Self {
        let fan_in = (in_ch * kernel * kernel) as f32;
        let scale = (2.0 / fan_in).sqrt();
        Conv2d {
            w: Tensor::uniform(&[out_ch, in_ch, kernel, kernel], scale, seed),
            b: Tensor::full(&[out_ch], 0.0),
            gw: Tensor::full(&[out_ch, in_ch, kernel, kernel], 0.0),
            gb: Tensor::full(&[out_ch], 0.0),
            kernel,
            pad,
            in_ch,
            out_ch,
            cache_x: None,
        }
    }

    fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (h + 2 * self.pad + 1 - self.kernel, w + 2 * self.pad + 1 - self.kernel)
    }

    /// The crate's one convolution backward kernel: accumulates `gw` and
    /// `gb`, and `dL/dx` into `gx` when one is given.
    ///
    /// One pass over the non-zero `grad_out` elements in `(o, yy, xx)`
    /// order. Each adds `g` to `gb[o]` and, for every input channel and
    /// every row the pixel's clipped kernel window covers, updates the
    /// clipped `kx` span of `gw[o, c, ky, ·]` and of `gx[c, iy, ·]` as two
    /// contiguous slice updates. So every `gw`/`gb` element accumulates
    /// its terms in ascending `(yy, xx)` and every `gx` element in
    /// ascending `(o, yy, xx)`, the per-pixel nest's order. A zero
    /// gradient (±0.0) is skipped, as in that nest; after pooling and ReLU
    /// most of them are.
    fn accumulate_grads(&mut self, grad_out: &Tensor, mut gx: Option<&mut Tensor>) {
        let Conv2d { w, gw, gb, kernel: k, pad, in_ch, out_ch, cache_x, .. } = self;
        let (k, pad, in_ch) = (*k, *pad, *in_ch);
        let x = cache_x.as_ref().expect("backward before forward");
        let (h, wd) = (x.shape[1], x.shape[2]);
        let (oh, ow) = (h + 2 * pad + 1 - k, wd + 2 * pad + 1 - k);
        assert_eq!(grad_out.shape, [*out_ch, oh, ow]);
        let taps = in_ch * k * k;
        for (o, g_plane) in grad_out.data.chunks_exact(oh * ow).enumerate() {
            let w_o = &w.data[o * taps..(o + 1) * taps];
            let gw_o = &mut gw.data[o * taps..(o + 1) * taps];
            for (yy, g_row) in g_plane.chunks_exact(ow).enumerate() {
                let ky_span = tap_span(yy, k, pad, h);
                for (xx, &g) in g_row.iter().enumerate() {
                    if g == 0.0 {
                        continue;
                    }
                    gb.data[o] += g;
                    let kx = tap_span(xx, k, pad, wd);
                    if kx.is_empty() {
                        continue;
                    }
                    let ix = xx + kx.start - pad..xx + kx.end - pad;
                    for c in 0..in_ch {
                        for ky in ky_span.clone() {
                            let row = (c * h + yy + ky - pad) * wd;
                            let wi = (c * k + ky) * k;
                            let ws = wi + kx.start..wi + kx.end;
                            let xs = &x.data[row + ix.start..row + ix.end];
                            for (gwv, &xv) in gw_o[ws.clone()].iter_mut().zip(xs) {
                                *gwv += g * xv;
                            }
                            if let Some(gx) = gx.as_deref_mut() {
                                let gxs = &mut gx.data[row + ix.start..row + ix.end];
                                for (gxv, &wv) in gxs.iter_mut().zip(&w_o[ws]) {
                                    *gxv += g * wv;
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

/// The kernel offsets `lo..hi` whose tap from output position `pos`
/// lands inside an input axis of length `len` (input index
/// `pos + offset − pad`); empty when every tap falls in the padding.
fn tap_span(pos: usize, k: usize, pad: usize, len: usize) -> std::ops::Range<usize> {
    let lo = pad.saturating_sub(pos).min(k);
    let hi = (len + pad).saturating_sub(pos).min(k);
    lo..hi.max(lo)
}

impl Conv2d {
    /// [`Conv2d::infer`]'s kernel at `L` lanes, with `wt` the calling
    /// thread's tap-major weight buffer.
    fn infer_lanes<const L: usize>(&self, x: &Tensor, out: &mut Tensor, wt: &mut Vec<f32>) {
        let (h, w) = (x.shape[1], x.shape[2]);
        let (oh, ow) = self.out_hw(h, w);
        let (k, pad, in_ch, out_ch) = (self.kernel, self.pad, self.in_ch, self.out_ch);
        let taps = in_ch * k * k;
        let plane = oh * ow;
        // `wt[block][tap][lane]` = weight of output channel `block·L + lane`
        // at `tap`; lanes past `out_ch` stay zero.
        wt.clear();
        wt.resize(out_ch.div_ceil(L) * taps * L, 0.0);
        for (o, w_o) in self.w.data.chunks_exact(taps).enumerate() {
            let block = &mut wt[(o / L) * taps * L..][..taps * L];
            for (lanes, &v) in block.chunks_exact_mut(L).zip(w_o) {
                lanes[o % L] = v;
            }
        }
        for (blk, wt_b) in wt.chunks_exact(taps * L).enumerate() {
            let o0 = blk * L;
            let live = L.min(out_ch - o0);
            let mut bias = [0.0f32; L];
            bias[..live].copy_from_slice(&self.b.data[o0..o0 + live]);
            for yy in 0..oh {
                let ky_span = tap_span(yy, k, pad, h);
                for xx in 0..ow {
                    let mut acc = bias;
                    let kx = tap_span(xx, k, pad, w);
                    if !kx.is_empty() {
                        let ix = xx + kx.start - pad..xx + kx.end - pad;
                        for c in 0..in_ch {
                            for ky in ky_span.clone() {
                                let row = (c * h + yy + ky - pad) * w;
                                let xs = &x.data[row + ix.start..row + ix.end];
                                let t = (c * k + ky) * k;
                                let (ws, _) =
                                    wt_b[(t + kx.start) * L..(t + kx.end) * L].as_chunks::<L>();
                                for (&xv, wv) in xs.iter().zip(ws) {
                                    for (a, &wl) in acc.iter_mut().zip(wv) {
                                        *a += wl * xv;
                                    }
                                }
                            }
                        }
                    }
                    for (l, &a) in acc[..live].iter().enumerate() {
                        out.data[(o0 + l) * plane + yy * ow + xx] = a;
                    }
                }
            }
        }
    }
}

impl Layer for Conv2d {
    /// The crate's one convolution forward kernel.
    ///
    /// Works one output pixel and a lane array of output channels at a
    /// time — `WIDE_LANES` (16) for a layer with at least that many output
    /// channels, `LANES` (8) otherwise: an accumulator array starts as the
    /// channels' biases, then every tap `(c, ky, kx)` inside the pixel's
    /// clipped window, in ascending order, adds `input × weights` across
    /// the lanes, reading the weights from a tap-major copy so each tap's
    /// lanes are contiguous. The lanes are then scattered to their output
    /// planes. Every output element therefore sees the naive per-pixel
    /// loop's multiply-add sequence — bias first, taps ascending, clipped
    /// taps skipped, not multiplied by zero — and equals it bitwise, ±inf
    /// and −0.0 included (the sign and payload of a NaN are not
    /// specified), at either width. The tap-major copy is rebuilt from `w`
    /// on every call into a buffer each thread keeps, so it is never stale
    /// and, after a thread's first call, costs no allocation.
    fn infer(&self, x: &Tensor, out: &mut Tensor) {
        assert_eq!(x.rank(), 3, "conv2d expects [C,H,W]");
        assert_eq!(x.shape[0], self.in_ch, "conv2d channel mismatch");
        let (oh, ow) = self.out_hw(x.shape[1], x.shape[2]);
        out.reshape_for_write(&[self.out_ch, oh, ow]);
        TAP_MAJOR.with_borrow_mut(|wt| {
            if self.out_ch >= WIDE_LANES {
                self.infer_lanes::<WIDE_LANES>(x, out, wt);
            } else {
                self.infer_lanes::<LANES>(x, out, wt);
            }
        });
    }

    fn forward(&mut self, x: &Tensor) -> Tensor {
        let y = infer_new(self, x);
        self.cache_x = Some(x.clone());
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let x_shape = self.cache_x.as_ref().expect("backward before forward").shape.clone();
        let mut gx = Tensor::full(&x_shape, 0.0);
        self.accumulate_grads(grad_out, Some(&mut gx));
        gx
    }

    fn backward_params(&mut self, grad_out: &Tensor) {
        self.accumulate_grads(grad_out, None);
    }

    fn params_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        vec![(&mut self.w, &mut self.gw), (&mut self.b, &mut self.gb)]
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.w, &self.b]
    }

    fn zero_grad(&mut self) {
        self.gw.data.fill(0.0);
        self.gb.data.fill(0.0);
    }

    fn name(&self) -> &'static str {
        "conv2d"
    }
}

/// Max pooling over non-overlapping `k × k` windows (stride = k). Input
/// spatial dims must be divisible by `k`.
pub struct MaxPool2d {
    pub k: usize,
    cache_argmax: Vec<usize>,
    cache_in_shape: Vec<usize>,
}

impl MaxPool2d {
    /// Creates a pool with window/stride `k`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "pool window must be positive");
        MaxPool2d { k, cache_argmax: Vec::new(), cache_in_shape: Vec::new() }
    }
}

impl MaxPool2d {
    /// Writes each window's maximum into `out` and reports its input
    /// index to `winner(output index, input index)`.
    fn pool(&self, x: &Tensor, out: &mut Tensor, mut winner: impl FnMut(usize, usize)) {
        assert_eq!(x.rank(), 3, "maxpool expects [C,H,W]");
        let (c, h, w) = (x.shape[0], x.shape[1], x.shape[2]);
        assert_eq!(h % self.k, 0, "pool window must divide height");
        assert_eq!(w % self.k, 0, "pool window must divide width");
        let (oh, ow) = (h / self.k, w / self.k);
        out.reshape_for_write(&[c, oh, ow]);
        for ci in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0;
                    for dy in 0..self.k {
                        for dx in 0..self.k {
                            let idx = x.idx3(ci, oy * self.k + dy, ox * self.k + dx);
                            if x.data[idx] > best {
                                best = x.data[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    let oidx = out.idx3(ci, oy, ox);
                    out.data[oidx] = best;
                    winner(oidx, best_idx);
                }
            }
        }
    }
}

impl Layer for MaxPool2d {
    fn infer(&self, x: &Tensor, out: &mut Tensor) {
        self.pool(x, out, |_, _| {});
    }

    fn forward(&mut self, x: &Tensor) -> Tensor {
        let mut y = Tensor::default();
        let mut argmax = vec![0; x.len() / (self.k * self.k)];
        self.pool(x, &mut y, |oidx, iidx| argmax[oidx] = iidx);
        self.cache_argmax = argmax;
        self.cache_in_shape = x.shape.clone();
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert_eq!(grad_out.len(), self.cache_argmax.len(), "backward before forward");
        let mut gx = Tensor::full(&self.cache_in_shape, 0.0);
        for (oidx, &iidx) in self.cache_argmax.iter().enumerate() {
            gx.data[iidx] += grad_out.data[oidx];
        }
        gx
    }

    fn name(&self) -> &'static str {
        "maxpool2d"
    }
}

/// Flattens any tensor to rank 1 (and restores the shape on backward).
#[derive(Default)]
pub struct Flatten {
    cache_shape: Vec<usize>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Flatten {
    fn infer(&self, x: &Tensor, out: &mut Tensor) {
        out.reshape_for_write(&[x.len()]);
        out.data.copy_from_slice(&x.data);
    }

    fn forward(&mut self, x: &Tensor) -> Tensor {
        self.cache_shape = x.shape.clone();
        infer_new(self, x)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        grad_out.reshape(&self.cache_shape)
    }

    fn name(&self) -> &'static str {
        "flatten"
    }
}

/// Rectified linear unit.
#[derive(Default)]
pub struct ReLU {
    cache_mask: Vec<bool>,
}

impl ReLU {
    /// Creates a ReLU activation.
    pub fn new() -> Self {
        Self::default()
    }
}

/// `out = f(x)` element by element, in `x`'s shape.
fn map_into(x: &Tensor, out: &mut Tensor, f: impl Fn(f32) -> f32) {
    out.reshape_for_write(&x.shape);
    for (o, &v) in out.data.iter_mut().zip(&x.data) {
        *o = f(v);
    }
}

impl Layer for ReLU {
    fn infer(&self, x: &Tensor, out: &mut Tensor) {
        map_into(x, out, |v| v.max(0.0));
    }

    fn forward(&mut self, x: &Tensor) -> Tensor {
        self.cache_mask = x.data.iter().map(|&v| v > 0.0).collect();
        infer_new(self, x)
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert_eq!(grad_out.len(), self.cache_mask.len(), "backward before forward");
        let data = grad_out
            .data
            .iter()
            .zip(&self.cache_mask)
            .map(|(&g, &m)| if m { g } else { 0.0 })
            .collect();
        Tensor::from_vec(&grad_out.shape, data)
    }

    fn name(&self) -> &'static str {
        "relu"
    }
}

/// Logistic sigmoid.
#[derive(Default)]
pub struct Sigmoid {
    cache_y: Vec<f32>,
}

impl Sigmoid {
    /// Creates a sigmoid activation.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Sigmoid {
    fn infer(&self, x: &Tensor, out: &mut Tensor) {
        map_into(x, out, |v| 1.0 / (1.0 + (-v).exp()));
    }

    fn forward(&mut self, x: &Tensor) -> Tensor {
        let y = infer_new(self, x);
        self.cache_y = y.data.clone();
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert_eq!(grad_out.len(), self.cache_y.len(), "backward before forward");
        let data =
            grad_out.data.iter().zip(&self.cache_y).map(|(&g, &y)| g * y * (1.0 - y)).collect();
        Tensor::from_vec(&grad_out.shape, data)
    }

    fn name(&self) -> &'static str {
        "sigmoid"
    }
}

/// Hyperbolic tangent.
#[derive(Default)]
pub struct Tanh {
    cache_y: Vec<f32>,
}

impl Tanh {
    /// Creates a tanh activation.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Layer for Tanh {
    fn infer(&self, x: &Tensor, out: &mut Tensor) {
        map_into(x, out, f32::tanh);
    }

    fn forward(&mut self, x: &Tensor) -> Tensor {
        let y = infer_new(self, x);
        self.cache_y = y.data.clone();
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        assert_eq!(grad_out.len(), self.cache_y.len(), "backward before forward");
        let data =
            grad_out.data.iter().zip(&self.cache_y).map(|(&g, &y)| g * (1.0 - y * y)).collect();
        Tensor::from_vec(&grad_out.shape, data)
    }

    fn name(&self) -> &'static str {
        "tanh"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dense_forward_known_values() {
        let mut d = Dense::new(2, 2, 0);
        d.w.data = vec![1.0, 2.0, 3.0, 4.0]; // rows: [1,2], [3,4]
        d.b.data = vec![0.5, -0.5];
        let y = d.forward(&Tensor::from_vec(&[2], vec![1.0, 1.0]));
        assert_eq!(y.data, vec![3.5, 6.5]);
    }

    #[test]
    fn dense_backward_gradients() {
        let mut d = Dense::new(2, 1, 0);
        d.w.data = vec![2.0, -1.0];
        d.b.data = vec![0.0];
        let x = Tensor::from_vec(&[2], vec![3.0, 4.0]);
        d.forward(&x);
        let gx = d.backward(&Tensor::from_vec(&[1], vec![1.0]));
        assert_eq!(gx.data, vec![2.0, -1.0]); // dL/dx = W^T g
        assert_eq!(d.gw.data, vec![3.0, 4.0]); // dL/dW = g x^T
        assert_eq!(d.gb.data, vec![1.0]);
    }

    #[test]
    fn conv_identity_kernel_passes_input_through() {
        let mut c = Conv2d::new(1, 1, 1, 0, 0);
        c.w.data = vec![1.0];
        c.b.data = vec![0.0];
        let x = Tensor::from_vec(&[1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let y = c.forward(&x);
        assert_eq!(y.data, x.data);
        assert_eq!(y.shape, x.shape);
    }

    #[test]
    fn conv_3x3_box_filter_sums_neighbourhood() {
        let mut c = Conv2d::new(1, 1, 3, 1, 0);
        c.w.data = vec![1.0; 9];
        c.b.data = vec![0.0];
        let x = Tensor::from_vec(&[1, 3, 3], vec![1.0; 9]);
        let y = c.forward(&x);
        assert_eq!(y.shape, vec![1, 3, 3]);
        // Center cell sees all 9 ones; corner sees 4.
        assert_eq!(y.at3(0, 1, 1), 9.0);
        assert_eq!(y.at3(0, 0, 0), 4.0);
        assert_eq!(y.at3(0, 0, 1), 6.0);
    }

    #[test]
    fn conv_valid_padding_shrinks_output() {
        let mut c = Conv2d::new(2, 3, 3, 0, 7);
        let x = Tensor::uniform(&[2, 5, 6], 1.0, 1);
        let y = c.forward(&x);
        assert_eq!(y.shape, vec![3, 3, 4]);
    }

    #[test]
    fn maxpool_forward_and_routing() {
        let mut p = MaxPool2d::new(2);
        let x = Tensor::from_vec(&[1, 2, 4], vec![1.0, 5.0, 2.0, 0.0, 3.0, 4.0, 1.0, 9.0]);
        let y = p.forward(&x);
        assert_eq!(y.shape, vec![1, 1, 2]);
        assert_eq!(y.data, vec![5.0, 9.0]);
        let gx = p.backward(&Tensor::from_vec(&[1, 1, 2], vec![1.0, 2.0]));
        // Gradient routes only to the argmax positions.
        assert_eq!(gx.data, vec![0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0]);
    }

    #[test]
    fn relu_masks_negative_gradient() {
        let mut r = ReLU::new();
        let y = r.forward(&Tensor::from_vec(&[3], vec![-1.0, 0.0, 2.0]));
        assert_eq!(y.data, vec![0.0, 0.0, 2.0]);
        let gx = r.backward(&Tensor::from_vec(&[3], vec![1.0, 1.0, 1.0]));
        assert_eq!(gx.data, vec![0.0, 0.0, 1.0]);
    }

    #[test]
    fn sigmoid_range_and_derivative_peak() {
        let mut s = Sigmoid::new();
        let y = s.forward(&Tensor::from_vec(&[3], vec![-100.0, 0.0, 100.0]));
        assert!(y.data[0] < 1e-6);
        assert!((y.data[1] - 0.5).abs() < 1e-6);
        assert!(y.data[2] > 1.0 - 1e-6);
        let g = s.backward(&Tensor::from_vec(&[3], vec![1.0, 1.0, 1.0]));
        assert!((g.data[1] - 0.25).abs() < 1e-6); // σ'(0) = 1/4
    }

    #[test]
    fn flatten_roundtrip() {
        let mut f = Flatten::new();
        let x = Tensor::uniform(&[2, 3, 4], 1.0, 3);
        let y = f.forward(&x);
        assert_eq!(y.shape, vec![24]);
        let gx = f.backward(&y);
        assert_eq!(gx.shape, vec![2, 3, 4]);
        assert_eq!(gx.data, x.data);
    }

    /// Finite-difference gradient check for a layer with parameters.
    fn grad_check<L: Layer>(layer: &mut L, x: &Tensor, tol: f32) {
        // Loss = sum(forward(x)); analytic gradient via backward(ones).
        layer.zero_grad();
        let y = layer.forward(x);
        let ones = Tensor::full(&y.shape, 1.0);
        let gx = layer.backward(&ones);

        let eps = 1e-2f32;
        // Check input gradient at a few positions.
        for probe in 0..x.len().min(5) {
            let mut xp = x.clone();
            xp.data[probe] += eps;
            let mut xm = x.clone();
            xm.data[probe] -= eps;
            let fp: f32 = layer.forward(&xp).data.iter().sum();
            let fm: f32 = layer.forward(&xm).data.iter().sum();
            let numeric = (fp - fm) / (2.0 * eps);
            assert!(
                (numeric - gx.data[probe]).abs() < tol,
                "input grad mismatch at {probe}: numeric {numeric}, analytic {}",
                gx.data[probe]
            );
        }
    }

    #[test]
    fn dense_gradient_check() {
        let mut d = Dense::new(4, 3, 11);
        grad_check(&mut d, &Tensor::uniform(&[4], 1.0, 12), 1e-2);
    }

    #[test]
    fn conv_gradient_check() {
        let mut c = Conv2d::new(2, 2, 3, 1, 13);
        grad_check(&mut c, &Tensor::uniform(&[2, 4, 4], 1.0, 14), 1e-2);
    }

    #[test]
    fn conv_param_gradient_check() {
        // Verify dL/dW numerically for one weight.
        let mut c = Conv2d::new(1, 1, 3, 1, 15);
        let x = Tensor::uniform(&[1, 4, 4], 1.0, 16);
        c.zero_grad();
        let y = c.forward(&x);
        c.backward(&Tensor::full(&y.shape, 1.0));
        let analytic = c.gw.data[4]; // center tap

        let eps = 1e-2f32;
        c.w.data[4] += eps;
        let fp: f32 = c.forward(&x).data.iter().sum();
        c.w.data[4] -= 2.0 * eps;
        let fm: f32 = c.forward(&x).data.iter().sum();
        c.w.data[4] += eps;
        let numeric = (fp - fm) / (2.0 * eps);
        assert!((numeric - analytic).abs() < 1e-2, "numeric {numeric} vs analytic {analytic}");
    }
}
