//! Differentiable layers.
//!
//! A layer holds its parameters and nothing else — no activation caches,
//! no gradients — and every entry takes `&self`, so one model is shared by
//! every thread that scores or trains with it ([`Layer`] is `Send + Sync`):
//!
//! * `infer(x, out)` — the output for one sample `x`, written into a
//!   caller-owned `out` whose storage is reused from call to call;
//! * `input_grad(x, y, grad_out, gx)` — `dL/dx` from the sample's input,
//!   the output `infer` made of it, and `dL/dy`;
//! * `add_param_grads(x, grad_out, row, gw, gb)` — for a layer with
//!   parameters, adds one sample's `dL/dθ` of one output row to that
//!   row's caller-owned gradients.
//!
//! Every layer's forward is one kernel body over a block of `S` samples
//! interleaved innermost (see [`Forward`]): a convolution's input is
//! `[C, H, W, S]`, a dense layer's `[N, S]`, and at `S = 1` the trailing
//! axis is dropped, so a block of one is a sample in its own layout.
//! `infer` and the trainer run the body at `S = 1`; a caller scoring many
//! samples ([`crate::net::Sequential::infer_block`]) picks a wider `S`.
//! The trainer ([`crate::train`]) runs `infer` and `input_grad` per sample
//! and `add_param_grads` per output row; each keeps the loops and add
//! order of a per-sample backward pass over cached activations (the oracle
//! in `tests/train_equivalence.rs`), so the gradients equal it bit for bit.
//!
//! [`Conv2d`], where training and inference spend their time, has one
//! kernel each way, both serial and both bitwise equal to the naive
//! per-pixel loops (which live in `tests/` as the oracles). The forward
//! works one output pixel at a time on a block of output channels × the
//! block's samples, every sample sharing the pixel's clipped window; the
//! backward kernels are passes over the non-zero output gradients,
//! walking a pixel's taps as one fixed-size, unrolled block when its
//! 3 × 3 window lies wholly inside the input and clipped to the input
//! otherwise (border pixels, other kernel sizes). [`Dense`]'s forward
//! accumulates a block of output rows × samples per pass over its input,
//! bitwise equal to the per-row loop (also in `tests/`). Each sample of a
//! block gets the bits it would get alone. The blocked kernels leave the
//! sign and payload of a NaN unspecified: where two NaN operands meet in
//! one add, which comes out depends on the operand order the compiler
//! picks.

use crate::tensor::Tensor;
use std::cell::RefCell;
use std::ops::Range;

/// Output channels [`Conv2d`]'s single-sample forward accumulates
/// together, one per lane.
const LANES: usize = 8;

/// The lane count used in place of [`LANES`] by a single-sample
/// convolution with at least this many output channels.
const WIDE_LANES: usize = 16;

/// Output channels [`Conv2d`]'s forward accumulates together on a block of
/// several samples. Each lane then holds one accumulator per sample, so
/// the block's samples supply the independent add chains, and 4 lanes × 8
/// samples fill half the 16 SSE registers. At 8 lanes the accumulators
/// spill and the compiler leaves the kernel scalar, about 4x slower.
const BLOCK_LANES: usize = 4;

/// Output rows [`Dense`]'s single-sample forward accumulates together,
/// one per lane.
const DENSE_ROWS: usize = 8;

/// Output rows [`Dense`]'s forward accumulates together on a block of
/// several samples, as [`BLOCK_LANES`] is to [`LANES`].
const BLOCK_DENSE_ROWS: usize = 4;

/// The kernel size whose unclipped windows the conv backward walks as one
/// fixed-size window (see [`Conv2d::walk_grads`]): the TC-localization
/// CNN's 3 × 3.
const WINDOW_K: usize = 3;

/// What a fixed-size window's slice lookups rely on.
const INSIDE: &str = "an unclipped window lies inside its tensor";

thread_local! {
    /// This thread's tap-major copy of the weights of the convolution it
    /// is running (see [`Conv2d::infer_block`]).
    static TAP_MAJOR: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// A layer's forward kernel, which runs on a block of any number `S` of
/// samples interleaved innermost (see the module docs).
/// [`crate::net::Sequential`] runs a model's layers through it.
pub enum Forward<'a> {
    Conv(&'a Conv2d),
    Dense(&'a Dense),
    MaxPool(&'a MaxPool2d),
    Flatten,
    ReLU,
    Sigmoid,
}

impl Forward<'_> {
    /// The layer's output for the block of `S` samples `x`, into `out`.
    pub(crate) fn run<const S: usize>(&self, x: &Tensor, out: &mut Tensor) {
        match self {
            Forward::Conv(conv) => conv.infer_block::<S>(x, out),
            Forward::Dense(dense) => dense.infer_block::<S>(x, out),
            Forward::MaxPool(pool) => pool.infer_block::<S>(x, out),
            Forward::Flatten => {
                let n = sample_dims::<S>(x).iter().product::<usize>();
                reshape_block::<S>(out, &[n]);
                out.data.copy_from_slice(&x.data);
            }
            Forward::ReLU => map_into(x, out, |v| v.max(0.0)),
            Forward::Sigmoid => map_into(x, out, |v| 1.0 / (1.0 + (-v).exp())),
        }
    }
}

/// The sample shape of `t`, a block of `S` samples: all of its shape at
/// `S = 1`, all but the trailing `S` axis otherwise.
fn sample_dims<const S: usize>(t: &Tensor) -> &[usize] {
    if S == 1 {
        return &t.shape;
    }
    let (&s, dims) = t.shape.split_last().expect("a block has a sample axis");
    assert_eq!(s, S, "block width mismatch");
    dims
}

/// Gives `t` the shape of a block of `S` samples of shape `sample` (see
/// [`sample_dims`]), keeping its allocations; every element is then
/// overwritten by the caller.
fn reshape_block<const S: usize>(t: &mut Tensor, sample: &[usize]) {
    t.shape.clear();
    t.shape.extend_from_slice(sample);
    if S > 1 {
        t.shape.push(S);
    }
    t.data.resize(t.shape.iter().product(), 0.0);
}

/// Common interface over all layers.
pub trait Layer: Send + Sync {
    /// The layer's forward kernel.
    fn forward(&self) -> Forward<'_>;
    /// The layer's output for one sample `x`, written into `out`: the
    /// [`Layer::forward`] kernel on a block of one.
    fn infer(&self, x: &Tensor, out: &mut Tensor) {
        self.forward().run::<1>(x, out);
    }
    /// `dL/dx` into `gx`, given the sample's input `x`, the output `y`
    /// that [`Layer::infer`] made of it and `grad_out` = `dL/dy`.
    fn input_grad(&self, x: &Tensor, y: &Tensor, grad_out: &Tensor, gx: &mut Tensor);
    /// Output rows of the parameters (a convolution's output channels, a
    /// dense layer's rows); 0 for a layer without parameters. A layer
    /// with parameters has exactly `[w, b]`: `w` row-major with this many
    /// rows, `b` one value per row.
    fn param_rows(&self) -> usize {
        0
    }
    /// Adds one sample's `dL/dw` and `dL/db` of output row `row` into `gw`
    /// (that row of the weight gradients) and `gb` (its bias gradient).
    /// `x` is the sample's input and `grad_out` its `dL/dy`.
    fn add_param_grads(
        &self,
        _x: &Tensor,
        _grad_out: &Tensor,
        _row: usize,
        _gw: &mut [f32],
        _gb: &mut f32,
    ) {
    }
    /// The parameters (serialization), empty for stateless layers.
    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }
    /// Mutable views of the parameters, in [`Layer::params`] order.
    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }
    /// Diagnostic layer name.
    fn name(&self) -> &'static str;
}

/// Fully-connected layer: `y = W x + b`, `W: [out, in]`.
pub struct Dense {
    pub w: Tensor,
    pub b: Tensor,
}

impl Dense {
    /// He-style uniform initialization with a deterministic seed.
    pub fn new(input: usize, output: usize, seed: u64) -> Self {
        let scale = (2.0 / input as f32).sqrt();
        Dense { w: Tensor::uniform(&[output, input], scale, seed), b: Tensor::full(&[output], 0.0) }
    }

    fn input_len(&self) -> usize {
        self.w.shape[1]
    }
    fn output_len(&self) -> usize {
        self.w.shape[0]
    }

    /// The crate's one dense kernel, on a block of `S` samples `[N, S]`.
    ///
    /// Works on a block of output rows × the `S` samples per pass over the
    /// input — `DENSE_ROWS` (8) rows for a single sample,
    /// `BLOCK_DENSE_ROWS` (4) for a block of several — so their add chains
    /// do not wait on each other: each accumulator starts at its row's
    /// bias and adds `w · x` in ascending input order, the
    /// one-row-at-a-time loop's sequence, so every output equals it
    /// bitwise (±0.0 and ±inf included; the sign and payload of a NaN are
    /// not specified). A final block of fewer rows runs the same loop, its
    /// spare lanes repeating its last row.
    fn infer_block<const S: usize>(&self, x: &Tensor, out: &mut Tensor) {
        let in_n = self.input_len();
        assert_eq!(
            sample_dims::<S>(x).iter().product::<usize>(),
            in_n,
            "dense input length mismatch"
        );
        reshape_block::<S>(out, &[self.output_len()]);
        if S == 1 {
            self.block_rows::<S, DENSE_ROWS>(x, out);
        } else {
            self.block_rows::<S, BLOCK_DENSE_ROWS>(x, out);
        }
    }

    /// [`Dense::infer_block`] at `R` rows per pass.
    fn block_rows<const S: usize, const R: usize>(&self, x: &Tensor, out: &mut Tensor) {
        let (in_n, out_n) = (self.input_len(), self.output_len());
        let xs = &x.data.as_chunks::<S>().0[..in_n];
        for blk in 0..out_n.div_ceil(R) {
            let row_of = |lane: usize| (blk * R + lane).min(out_n - 1);
            let rows: [&[f32]; R] =
                std::array::from_fn(|lane| &self.w.data[row_of(lane) * in_n..][..in_n]);
            let mut acc: [[f32; S]; R] = std::array::from_fn(|lane| [self.b.data[row_of(lane)]; S]);
            for (i, xv) in xs.iter().enumerate() {
                for (a, row) in acc.iter_mut().zip(&rows) {
                    let wv = row[i];
                    for (a, &xs) in a.iter_mut().zip(xv) {
                        *a += wv * xs;
                    }
                }
            }
            // Every lane stores (a spare lane rewrites the last row with
            // that row's own bits), so the lanes are indexed by constants
            // only and stay in registers.
            for (lane, a) in acc.iter().enumerate() {
                out.data[row_of(lane) * S..][..S].copy_from_slice(a);
            }
        }
    }
}

impl Layer for Dense {
    fn forward(&self) -> Forward<'_> {
        Forward::Dense(self)
    }

    /// `gx[i]` starts at 0.0 and adds `g[o] · w[o][i]` over ascending `o`.
    fn input_grad(&self, _x: &Tensor, _y: &Tensor, grad_out: &Tensor, gx: &mut Tensor) {
        let in_n = self.input_len();
        assert_eq!(grad_out.len(), self.output_len());
        gx.reshape_for_write(&[in_n]);
        gx.data.fill(0.0);
        for (&g, wrow) in grad_out.data.iter().zip(self.w.data.chunks_exact(in_n)) {
            for (gxv, &wv) in gx.data.iter_mut().zip(wrow) {
                *gxv += g * wv;
            }
        }
    }

    fn param_rows(&self) -> usize {
        self.output_len()
    }

    /// `gb += g[row]`, then `gw[i] += g[row] · x[i]` for every `i`.
    fn add_param_grads(
        &self,
        x: &Tensor,
        grad_out: &Tensor,
        row: usize,
        gw: &mut [f32],
        gb: &mut f32,
    ) {
        assert_eq!(grad_out.len(), self.output_len());
        let g = grad_out.data[row];
        *gb += g;
        for (gwv, &xv) in gw.iter_mut().zip(&x.data[..self.input_len()]) {
            *gwv += g * xv;
        }
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.w, &self.b]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.w, &mut self.b]
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
    pub kernel: usize,
    pub pad: usize,
    in_ch: usize,
    out_ch: usize,
}

impl Conv2d {
    /// Creates a convolution with deterministic initialization.
    pub fn new(in_ch: usize, out_ch: usize, kernel: usize, pad: usize, seed: u64) -> Self {
        let fan_in = (in_ch * kernel * kernel) as f32;
        let scale = (2.0 / fan_in).sqrt();
        Conv2d {
            w: Tensor::uniform(&[out_ch, in_ch, kernel, kernel], scale, seed),
            b: Tensor::full(&[out_ch], 0.0),
            kernel,
            pad,
            in_ch,
            out_ch,
        }
    }

    fn out_hw(&self, h: usize, w: usize) -> (usize, usize) {
        (h + 2 * self.pad + 1 - self.kernel, w + 2 * self.pad + 1 - self.kernel)
    }

    /// The walk both backward kernels share: over the non-zero `grad_out`
    /// elements of output channels `rows`, in `(o, yy, xx)` order, calls
    /// `pixel(g)`, then `taps(o, g, ..)` for the pixel's taps that land
    /// inside the input, input channel by input channel, ascending. When
    /// the kernel is [`WINDOW_K`] wide and the pixel's window lies wholly
    /// inside the input, a channel is one [`Taps::Window`], which the
    /// callee walks as a fixed-size block the compiler unrolls. Every other
    /// pixel (a border one, or any pixel of another kernel size) is
    /// clipped: one [`Taps::Run`] per input channel and kernel row its
    /// window touches. Either way each tap is visited once per pixel, so
    /// every gradient element keeps the per-pixel nest's add order. A zero
    /// gradient (±0.0) is skipped, as in the per-pixel nest; after pooling
    /// and ReLU most of them are. Callers mark `taps` `#[inline(always)]`:
    /// left out of line, every [`Taps`] goes through memory and a runtime
    /// match, which made the kernels about a third slower.
    fn walk_grads(
        &self,
        x: &Tensor,
        grad_out: &Tensor,
        rows: Range<usize>,
        mut pixel: impl FnMut(f32),
        mut taps: impl FnMut(usize, f32, Taps),
    ) {
        let (k, pad, in_ch) = (self.kernel, self.pad, self.in_ch);
        let (h, wd) = (x.shape[1], x.shape[2]);
        let (oh, ow) = self.out_hw(h, wd);
        assert_eq!(grad_out.shape, [self.out_ch, oh, ow]);
        for o in rows {
            let g_plane = &grad_out.data[o * oh * ow..(o + 1) * oh * ow];
            for (yy, g_row) in g_plane.chunks_exact(ow).enumerate() {
                let ky_span = tap_span(yy, k, pad, h);
                for (xx, &g) in g_row.iter().enumerate() {
                    if g == 0.0 {
                        continue;
                    }
                    pixel(g);
                    let kx = tap_span(xx, k, pad, wd);
                    if k == WINDOW_K && ky_span.len() == k && kx.len() == k {
                        let xi = (yy - pad) * wd + xx - pad;
                        for c in 0..in_ch {
                            taps(o, g, Taps::Window { xi: c * h * wd + xi, wi: c * k * k });
                        }
                        continue;
                    }
                    if kx.is_empty() {
                        continue;
                    }
                    let ix = xx + kx.start - pad..xx + kx.end - pad;
                    for c in 0..in_ch {
                        for ky in ky_span.clone() {
                            let row = (c * h + yy + ky - pad) * wd;
                            let wi = (c * k + ky) * k;
                            let xs = row + ix.start..row + ix.end;
                            taps(o, g, Taps::Run { xs, ws: wi + kx.start..wi + kx.end });
                        }
                    }
                }
            }
        }
    }
}

/// One input channel's share of a pixel's taps in [`Conv2d::walk_grads`].
enum Taps {
    /// A whole `WINDOW_K × WINDOW_K` window: `xi` indexes its top-left
    /// input, `wi` the channel's first weight in `w[o]`; row `ky` of the
    /// window is `WINDOW_K` inputs from `xi + ky · width`.
    Window { xi: usize, wi: usize },
    /// One kernel row of a clipped window: `xs` indexes the row's inputs,
    /// `ws` the matching weights of `w[o]`.
    Run { xs: Range<usize>, ws: Range<usize> },
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
    /// The crate's one convolution forward kernel, on a block of `S`
    /// samples `[C, H, W, S]`.
    ///
    /// Works one output pixel at a time on a lane array of output channels
    /// × the block's samples — on one sample `WIDE_LANES` (16) channels
    /// for a layer with at least that many output channels and `LANES`
    /// (8) otherwise, on a block of several `BLOCK_LANES` (4): each
    /// accumulator starts as its channel's bias, then every tap
    /// `(c, ky, kx)` inside the pixel's clipped window, in ascending
    /// order, adds `weight × input`, reading the weights from a tap-major
    /// copy so each tap's lanes are contiguous. Every sample of a block
    /// shares the pixel's window, so no lane is masked. A final block of
    /// fewer channels repeats its last channel in the spare lanes. The
    /// lanes are then scattered to their output planes. Every
    /// output element therefore sees the naive per-pixel loop's
    /// multiply-add sequence — bias first, taps ascending, clipped taps
    /// skipped, not multiplied by zero — and equals it bitwise, ±inf and
    /// −0.0 included (the sign and payload of a NaN are not specified), at
    /// any block and lane width. The tap-major copy is rebuilt from `w` on
    /// every call into a buffer each thread keeps, so it is never stale
    /// and, after a thread's first call, costs no allocation.
    fn infer_block<const S: usize>(&self, x: &Tensor, out: &mut Tensor) {
        let &[in_ch, h, w] = sample_dims::<S>(x) else { panic!("conv2d expects [C,H,W]") };
        assert_eq!(in_ch, self.in_ch, "conv2d channel mismatch");
        let (oh, ow) = self.out_hw(h, w);
        reshape_block::<S>(out, &[self.out_ch, oh, ow]);
        TAP_MAJOR.with_borrow_mut(|wt| {
            if S == 1 && self.out_ch >= WIDE_LANES {
                self.block_lanes::<S, WIDE_LANES>(x, out, wt);
            } else if S == 1 {
                self.block_lanes::<S, LANES>(x, out, wt);
            } else {
                self.block_lanes::<S, BLOCK_LANES>(x, out, wt);
            }
        });
    }

    /// [`Conv2d::infer_block`] at `L` lanes of output channels, with `wt` the
    /// calling thread's tap-major weight buffer.
    fn block_lanes<const S: usize, const L: usize>(
        &self,
        x: &Tensor,
        out: &mut Tensor,
        wt: &mut Vec<f32>,
    ) {
        let &[_, h, w] = sample_dims::<S>(x) else { unreachable!("checked by infer_block") };
        let (oh, ow) = self.out_hw(h, w);
        let (k, pad, in_ch, out_ch) = (self.kernel, self.pad, self.in_ch, self.out_ch);
        let taps = in_ch * k * k;
        let plane = oh * ow;
        // `wt[block][tap][lane]` = weight of output channel `block·L + lane`
        // at `tap`; the spare lanes of a final, short block repeat its last
        // channel.
        wt.clear();
        wt.resize(out_ch.div_ceil(L) * taps * L, 0.0);
        for (blk, wt_b) in wt.chunks_exact_mut(taps * L).enumerate() {
            for (lanes, t) in wt_b.chunks_exact_mut(L).zip(0..taps) {
                for (lane, v) in lanes.iter_mut().enumerate() {
                    *v = self.w.data[(blk * L + lane).min(out_ch - 1) * taps + t];
                }
            }
        }
        for (blk, wt_b) in wt.chunks_exact(taps * L).enumerate() {
            // `acc[lane][s]`: output channel `channel(lane)`, sample `s`.
            let channel = |lane: usize| (blk * L + lane).min(out_ch - 1);
            let bias: [[f32; S]; L] = std::array::from_fn(|lane| [self.b.data[channel(lane)]; S]);
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
                                let (xs, _) = x.data[(row + ix.start) * S..(row + ix.end) * S]
                                    .as_chunks::<S>();
                                let t = (c * k + ky) * k;
                                let (ws, _) =
                                    wt_b[(t + kx.start) * L..(t + kx.end) * L].as_chunks::<L>();
                                for (xv, wv) in xs.iter().zip(ws) {
                                    for (a, &wl) in acc.iter_mut().zip(wv) {
                                        for (a, &xs) in a.iter_mut().zip(xv) {
                                            *a += wl * xs;
                                        }
                                    }
                                }
                            }
                        }
                    }
                    // Every lane stores (a spare lane rewrites the last
                    // channel with that channel's own bits), so the lanes
                    // are indexed by constants only and stay in registers.
                    let pixel = yy * ow + xx;
                    for (lane, a) in acc.iter().enumerate() {
                        out.data[(channel(lane) * plane + pixel) * S..][..S].copy_from_slice(a);
                    }
                }
            }
        }
    }
}

impl Layer for Conv2d {
    fn forward(&self) -> Forward<'_> {
        Forward::Conv(self)
    }

    /// Every non-zero `g` of every output channel adds `g · w` over its
    /// pixel's unclipped window, so each `gx` element accumulates its
    /// terms in ascending `(o, yy, xx)`, the per-pixel nest's order.
    fn input_grad(&self, x: &Tensor, _y: &Tensor, grad_out: &Tensor, gx: &mut Tensor) {
        gx.reshape_for_write(&x.shape);
        gx.data.fill(0.0);
        let row_len = self.in_ch * self.kernel * self.kernel;
        let wd = x.shape[2];
        self.walk_grads(
            x,
            grad_out,
            0..self.out_ch,
            |_| {},
            #[inline(always)]
            |o, g, taps| {
                let w_o = &self.w.data[o * row_len..(o + 1) * row_len];
                match taps {
                    Taps::Window { xi, wi } => {
                        let ws = w_o[wi..].first_chunk::<{ WINDOW_K * WINDOW_K }>().expect(INSIDE);
                        for (ky, ws) in ws.as_chunks::<WINDOW_K>().0.iter().enumerate() {
                            let gxs = gx.data[xi + ky * wd..]
                                .first_chunk_mut::<WINDOW_K>()
                                .expect(INSIDE);
                            for (gxv, &wv) in gxs.iter_mut().zip(ws) {
                                *gxv += g * wv;
                            }
                        }
                    }
                    Taps::Run { xs, ws } => {
                        for (gxv, &wv) in gx.data[xs].iter_mut().zip(&w_o[ws]) {
                            *gxv += g * wv;
                        }
                    }
                }
            },
        );
    }

    fn param_rows(&self) -> usize {
        self.out_ch
    }

    /// Every non-zero `g` of output channel `row` adds itself to `gb` and
    /// `g · x` over its pixel's unclipped window to `gw`, so each element
    /// accumulates its terms in ascending `(yy, xx)`.
    fn add_param_grads(
        &self,
        x: &Tensor,
        grad_out: &Tensor,
        row: usize,
        gw: &mut [f32],
        gb: &mut f32,
    ) {
        let wd = x.shape[2];
        self.walk_grads(
            x,
            grad_out,
            row..row + 1,
            |g| *gb += g,
            #[inline(always)]
            |_, g, taps| match taps {
                Taps::Window { xi, wi } => {
                    let gws = gw[wi..].first_chunk_mut::<{ WINDOW_K * WINDOW_K }>().expect(INSIDE);
                    for (ky, gws) in gws.as_chunks_mut::<WINDOW_K>().0.iter_mut().enumerate() {
                        let xs = x.data[xi + ky * wd..].first_chunk::<WINDOW_K>().expect(INSIDE);
                        for (gwv, &xv) in gws.iter_mut().zip(xs) {
                            *gwv += g * xv;
                        }
                    }
                }
                Taps::Run { xs, ws } => {
                    for (gwv, &xv) in gw[ws].iter_mut().zip(&x.data[xs]) {
                        *gwv += g * xv;
                    }
                }
            },
        );
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.w, &self.b]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.w, &mut self.b]
    }

    fn name(&self) -> &'static str {
        "conv2d"
    }
}

/// Max pooling over non-overlapping `k × k` windows (stride = k). Input
/// spatial dims must be divisible by `k`.
pub struct MaxPool2d {
    pub k: usize,
}

impl MaxPool2d {
    /// Creates a pool with window/stride `k`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "pool window must be positive");
        MaxPool2d { k }
    }

    /// The output sample shape for `x`, a block of `S` samples, and
    /// `winner(output index, input index, value)` for every window of every
    /// sample, in output order: the first strictly greatest element, or the
    /// window's first element with −inf when none exceeds −inf (a window of
    /// only −inf or NaN).
    fn pool<const S: usize>(
        &self,
        x: &Tensor,
        mut winner: impl FnMut(usize, usize, f32),
    ) -> [usize; 3] {
        let &[c, h, w] = sample_dims::<S>(x) else { panic!("maxpool expects [C,H,W]") };
        assert_eq!(h % self.k, 0, "pool window must divide height");
        assert_eq!(w % self.k, 0, "pool window must divide width");
        let (oh, ow) = (h / self.k, w / self.k);
        for ci in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best = [f32::NEG_INFINITY; S];
                    let mut best_idx = [(ci * h + oy * self.k) * w + ox * self.k; S];
                    for dy in 0..self.k {
                        for dx in 0..self.k {
                            let idx = (ci * h + oy * self.k + dy) * w + ox * self.k + dx;
                            let xs = &x.data[idx * S..][..S];
                            for ((b, bi), &v) in best.iter_mut().zip(&mut best_idx).zip(xs) {
                                if v > *b {
                                    *b = v;
                                    *bi = idx;
                                }
                            }
                        }
                    }
                    let o = (ci * oh + oy) * ow + ox;
                    for (s, (&b, &bi)) in best.iter().zip(&best_idx).enumerate() {
                        winner(o * S + s, bi * S + s, b);
                    }
                }
            }
        }
        [c, oh, ow]
    }

    /// The pooled block of `S` samples.
    fn infer_block<const S: usize>(&self, x: &Tensor, out: &mut Tensor) {
        let &[c, h, w] = sample_dims::<S>(x) else { panic!("maxpool expects [C,H,W]") };
        reshape_block::<S>(out, &[c, h / self.k, w / self.k]);
        self.pool::<S>(x, |oidx, _, v| out.data[oidx] = v);
    }
}

impl Layer for MaxPool2d {
    fn forward(&self) -> Forward<'_> {
        Forward::MaxPool(self)
    }

    /// Recomputes each window's winner and adds its gradient there, into
    /// zeros: the `+=` turns a −0.0 gradient into +0.0.
    fn input_grad(&self, x: &Tensor, _y: &Tensor, grad_out: &Tensor, gx: &mut Tensor) {
        gx.reshape_for_write(&x.shape);
        gx.data.fill(0.0);
        let shape = self.pool::<1>(x, |oidx, iidx, _| gx.data[iidx] += grad_out.data[oidx]);
        assert_eq!(grad_out.shape, shape, "maxpool grad_out shape");
    }

    fn name(&self) -> &'static str {
        "maxpool2d"
    }
}

/// Flattens any tensor to rank 1 (and its gradient back to the input shape).
#[derive(Default)]
pub struct Flatten;

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten
    }
}

impl Layer for Flatten {
    fn forward(&self) -> Forward<'_> {
        Forward::Flatten
    }

    fn input_grad(&self, x: &Tensor, _y: &Tensor, grad_out: &Tensor, gx: &mut Tensor) {
        gx.reshape_for_write(&x.shape);
        gx.data.copy_from_slice(&grad_out.data);
    }

    fn name(&self) -> &'static str {
        "flatten"
    }
}

/// `out = f(x)` element by element, in `x`'s shape (any block width).
fn map_into(x: &Tensor, out: &mut Tensor, f: impl Fn(f32) -> f32) {
    out.reshape_for_write(&x.shape);
    for (o, &v) in out.data.iter_mut().zip(&x.data) {
        *o = f(v);
    }
}

/// `gx = f(g, v)` element by element over `grad_out` and `v` (the layer's
/// input or output), in `grad_out`'s shape.
fn grad_into(grad_out: &Tensor, v: &Tensor, gx: &mut Tensor, f: impl Fn(f32, f32) -> f32) {
    assert_eq!(grad_out.len(), v.len(), "activation grad_out length");
    gx.reshape_for_write(&grad_out.shape);
    for ((o, &g), &v) in gx.data.iter_mut().zip(&grad_out.data).zip(&v.data) {
        *o = f(g, v);
    }
}

/// Rectified linear unit.
#[derive(Default)]
pub struct ReLU;

impl ReLU {
    /// Creates a ReLU activation.
    pub fn new() -> Self {
        ReLU
    }
}

impl Layer for ReLU {
    fn forward(&self) -> Forward<'_> {
        Forward::ReLU
    }

    /// The gradient where `x > 0`, 0.0 elsewhere.
    fn input_grad(&self, x: &Tensor, _y: &Tensor, grad_out: &Tensor, gx: &mut Tensor) {
        grad_into(grad_out, x, gx, |g, x| if x > 0.0 { g } else { 0.0 });
    }

    fn name(&self) -> &'static str {
        "relu"
    }
}

/// Logistic sigmoid.
#[derive(Default)]
pub struct Sigmoid;

impl Sigmoid {
    /// Creates a sigmoid activation.
    pub fn new() -> Self {
        Sigmoid
    }
}

impl Layer for Sigmoid {
    fn forward(&self) -> Forward<'_> {
        Forward::Sigmoid
    }

    fn input_grad(&self, _x: &Tensor, y: &Tensor, grad_out: &Tensor, gx: &mut Tensor) {
        grad_into(grad_out, y, gx, |g, y| g * y * (1.0 - y));
    }

    fn name(&self) -> &'static str {
        "sigmoid"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(layer: &impl Layer, x: &Tensor) -> Tensor {
        let mut y = Tensor::default();
        layer.infer(x, &mut y);
        y
    }

    fn input_grad(layer: &impl Layer, x: &Tensor, g: &Tensor) -> Tensor {
        let mut gx = Tensor::full(&[1], f32::NAN); // a stale buffer of another shape
        layer.input_grad(x, &run(layer, x), g, &mut gx);
        gx
    }

    /// `(gw, gb)` of one sample, row by row.
    fn param_grads(layer: &impl Layer, x: &Tensor, g: &Tensor) -> (Vec<f32>, Vec<f32>) {
        let [w, b] = layer.params()[..] else { panic!("a layer with [w, b]") };
        let (mut gw, mut gb) = (vec![0.0; w.len()], vec![0.0; b.len()]);
        for (row, (gw, gb)) in gw.chunks_exact_mut(w.len() / b.len()).zip(&mut gb).enumerate() {
            layer.add_param_grads(x, g, row, gw, gb);
        }
        (gw, gb)
    }

    #[test]
    fn dense_infer_known_values() {
        let mut d = Dense::new(2, 2, 0);
        d.w.data = vec![1.0, 2.0, 3.0, 4.0]; // rows: [1,2], [3,4]
        d.b.data = vec![0.5, -0.5];
        let y = run(&d, &Tensor::from_vec(&[2], vec![1.0, 1.0]));
        assert_eq!(y.data, vec![3.5, 6.5]);
    }

    #[test]
    fn dense_gradients() {
        let mut d = Dense::new(2, 1, 0);
        d.w.data = vec![2.0, -1.0];
        d.b.data = vec![0.0];
        let x = Tensor::from_vec(&[2], vec![3.0, 4.0]);
        let g = Tensor::from_vec(&[1], vec![1.0]);
        assert_eq!(input_grad(&d, &x, &g).data, vec![2.0, -1.0]); // dL/dx = W^T g
        let (gw, gb) = param_grads(&d, &x, &g);
        assert_eq!(gw, vec![3.0, 4.0]); // dL/dW = g x^T
        assert_eq!(gb, vec![1.0]);
    }

    #[test]
    fn conv_identity_kernel_passes_input_through() {
        let mut c = Conv2d::new(1, 1, 1, 0, 0);
        c.w.data = vec![1.0];
        c.b.data = vec![0.0];
        let x = Tensor::from_vec(&[1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        let y = run(&c, &x);
        assert_eq!(y.data, x.data);
        assert_eq!(y.shape, x.shape);
    }

    #[test]
    fn conv_3x3_box_filter_sums_neighbourhood() {
        let mut c = Conv2d::new(1, 1, 3, 1, 0);
        c.w.data = vec![1.0; 9];
        c.b.data = vec![0.0];
        let x = Tensor::from_vec(&[1, 3, 3], vec![1.0; 9]);
        let y = run(&c, &x);
        assert_eq!(y.shape, vec![1, 3, 3]);
        // Center cell sees all 9 ones; corner sees 4.
        assert_eq!(y.at3(0, 1, 1), 9.0);
        assert_eq!(y.at3(0, 0, 0), 4.0);
        assert_eq!(y.at3(0, 0, 1), 6.0);
    }

    #[test]
    fn conv_valid_padding_shrinks_output() {
        let c = Conv2d::new(2, 3, 3, 0, 7);
        let x = Tensor::uniform(&[2, 5, 6], 1.0, 1);
        assert_eq!(run(&c, &x).shape, vec![3, 3, 4]);
    }

    #[test]
    fn maxpool_infer_and_routing() {
        let p = MaxPool2d::new(2);
        let x = Tensor::from_vec(&[1, 2, 4], vec![1.0, 5.0, 2.0, 0.0, 3.0, 4.0, 1.0, 9.0]);
        let y = run(&p, &x);
        assert_eq!(y.shape, vec![1, 1, 2]);
        assert_eq!(y.data, vec![5.0, 9.0]);
        let gx = input_grad(&p, &x, &Tensor::from_vec(&[1, 1, 2], vec![1.0, -0.0]));
        // Gradient routes only to the argmax positions; a −0.0 lands as +0.0.
        assert_eq!(gx.shape, x.shape);
        assert_eq!(gx.data, vec![0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]);
        assert_eq!(gx.data[7].to_bits(), 0);
    }

    #[test]
    fn maxpool_routes_a_window_without_winner_inside_it() {
        let p = MaxPool2d::new(2);
        let ninf = f32::NEG_INFINITY;
        let x = Tensor::from_vec(&[2, 2, 2], vec![1.0, 5.0, 2.0, 0.0, ninf, ninf, ninf, ninf]);
        assert_eq!(run(&p, &x).data, vec![5.0, ninf]);
        let gx = input_grad(&p, &x, &Tensor::from_vec(&[2, 1, 1], vec![1.0, 2.0]));
        // Channel 1's window has no element above −inf: its gradient goes
        // to that window's first element, not to channel 0's.
        assert_eq!(gx.data, vec![0.0, 1.0, 0.0, 0.0, 2.0, 0.0, 0.0, 0.0]);
        assert_eq!(gx.data[0], 0.0);
    }

    #[test]
    fn relu_masks_negative_gradient() {
        let r = ReLU::new();
        let x = Tensor::from_vec(&[3], vec![-1.0, 0.0, 2.0]);
        assert_eq!(run(&r, &x).data, vec![0.0, 0.0, 2.0]);
        let gx = input_grad(&r, &x, &Tensor::from_vec(&[3], vec![1.0, 1.0, 1.0]));
        assert_eq!(gx.data, vec![0.0, 0.0, 1.0]);
    }

    #[test]
    fn sigmoid_range_and_derivative_peak() {
        let s = Sigmoid::new();
        let x = Tensor::from_vec(&[3], vec![-100.0, 0.0, 100.0]);
        let y = run(&s, &x);
        assert!(y.data[0] < 1e-6);
        assert!((y.data[1] - 0.5).abs() < 1e-6);
        assert!(y.data[2] > 1.0 - 1e-6);
        let g = input_grad(&s, &x, &Tensor::from_vec(&[3], vec![1.0, 1.0, 1.0]));
        assert!((g.data[1] - 0.25).abs() < 1e-6); // σ'(0) = 1/4
    }

    #[test]
    fn flatten_roundtrip() {
        let f = Flatten::new();
        let x = Tensor::uniform(&[2, 3, 4], 1.0, 3);
        let y = run(&f, &x);
        assert_eq!(y.shape, vec![24]);
        let gx = input_grad(&f, &x, &y);
        assert_eq!(gx.shape, vec![2, 3, 4]);
        assert_eq!(gx.data, x.data);
    }

    /// Finite-difference check of `input_grad` for `L = sum(infer(x))`.
    fn grad_check(layer: &impl Layer, x: &Tensor, tol: f32) {
        let ones = Tensor::full(&run(layer, x).shape, 1.0);
        let gx = input_grad(layer, x, &ones);
        let eps = 1e-2f32;
        for probe in 0..x.len().min(5) {
            let mut xp = x.clone();
            xp.data[probe] += eps;
            let mut xm = x.clone();
            xm.data[probe] -= eps;
            let fp: f32 = run(layer, &xp).data.iter().sum();
            let fm: f32 = run(layer, &xm).data.iter().sum();
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
        grad_check(&Dense::new(4, 3, 11), &Tensor::uniform(&[4], 1.0, 12), 1e-2);
    }

    #[test]
    fn conv_gradient_check() {
        grad_check(&Conv2d::new(2, 2, 3, 1, 13), &Tensor::uniform(&[2, 4, 4], 1.0, 14), 1e-2);
    }

    #[test]
    fn conv_param_gradient_check() {
        // Verify dL/dW numerically for one weight.
        let mut c = Conv2d::new(1, 1, 3, 1, 15);
        let x = Tensor::uniform(&[1, 4, 4], 1.0, 16);
        let (gw, _) = param_grads(&c, &x, &Tensor::full(&[1, 4, 4], 1.0));
        let analytic = gw[4]; // center tap

        let eps = 1e-2f32;
        c.w.data[4] += eps;
        let fp: f32 = run(&c, &x).data.iter().sum();
        c.w.data[4] -= 2.0 * eps;
        let fm: f32 = run(&c, &x).data.iter().sum();
        let numeric = (fp - fm) / (2.0 * eps);
        assert!((numeric - analytic).abs() < 1e-2, "numeric {numeric} vs analytic {analytic}");
    }
}
