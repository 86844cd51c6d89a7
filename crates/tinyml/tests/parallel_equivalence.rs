//! Oracle equivalence for the conv kernels.
//!
//! Conv2d has one forward kernel, serial and a pixel at a time across
//! lanes of output channels (× the samples of a block; here, one sample);
//! it keeps every output element's multiply-add order, so it must match
//! the naive per-pixel reference below *bitwise*.
//! Its two gradient kernels, `input_grad` and `add_param_grads`, are
//! serial passes over the non-zero output gradients and must match the
//! per-pixel backward nest bitwise too (every weight/bias gradient
//! accumulates in `(yy, xx)` order, every input gradient in `(o, yy, xx)`
//! order), on dense and on mostly-zero gradients alike. They walk a 3×3
//! window that lies inside the input as one fixed-size block and clip
//! every other window, so the cases below put NaN and ±inf gradients on
//! both kinds of pixel, use geometries with no or one unclipped pixel per
//! axis, and add into weight gradients that start non-zero or at −0.0.

use tinyml::layers::{Conv2d, Layer};
use tinyml::tensor::Tensor;

/// A multi-channel geometry (8·30·30·4·9 ≈ 260k MACs) with padded borders.
const IN_CH: usize = 4;
const OUT_CH: usize = 8;
const K: usize = 3;
const H: usize = 32;
const W: usize = 32;

/// Naive direct convolution, the serial per-pixel oracle: bias first,
/// taps in ascending `(c, ky, kx)`, clipped taps skipped.
fn reference_forward(x: &Tensor, conv: &Conv2d) -> Tensor {
    let (h, ww) = (x.shape[1], x.shape[2]);
    let (w, b, pad) = (&conv.w, &conv.b, conv.pad);
    let (out_ch, in_ch) = (w.shape[0], w.shape[1]);
    let oh = h + 2 * pad + 1 - K;
    let ow = ww + 2 * pad + 1 - K;
    let mut y = Tensor::full(&[out_ch, oh, ow], 0.0);
    let p = pad as isize;
    for o in 0..out_ch {
        for yy in 0..oh {
            for xx in 0..ow {
                let mut acc = b.data[o];
                for c in 0..in_ch {
                    for ky in 0..K {
                        let iy = yy as isize + ky as isize - p;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..K {
                            let ix = xx as isize + kx as isize - p;
                            if ix < 0 || ix >= ww as isize {
                                continue;
                            }
                            acc += w.data[((o * in_ch + c) * K + ky) * K + kx]
                                * x.at3(c, iy as usize, ix as usize);
                        }
                    }
                }
                *y.at3_mut(o, yy, xx) = acc;
            }
        }
    }
    y
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data.iter().map(|v| v.to_bits()).collect()
}

fn infer(layer: &impl Layer, x: &Tensor) -> Tensor {
    let mut y = Tensor::default();
    layer.infer(x, &mut y);
    y
}

/// A conv with every bias distinct and non-zero, so a kernel that
/// dropped or misplaced the bias could not pass.
fn conv_with_biases(in_ch: usize, out_ch: usize, pad: usize, seed: u64) -> Conv2d {
    let mut conv = Conv2d::new(in_ch, out_ch, K, pad, seed);
    for (o, b) in conv.b.data.iter_mut().enumerate() {
        *b = 0.25 - 0.1 * o as f32;
    }
    conv
}

#[test]
fn conv2d_forward_is_bitwise_reference() {
    let conv = conv_with_biases(IN_CH, OUT_CH, 1, 42);
    let x = Tensor::uniform(&[IN_CH, H, W], 1.0, 7);
    let y = infer(&conv, &x);
    let expect = reference_forward(&x, &conv);
    assert_eq!(y.shape, expect.shape);
    assert_eq!(bits(&y), bits(&expect), "forward must be bitwise-identical to the reference");
}

/// The per-pixel backward nest, the oracle of the fused kernel: over
/// `(o, yy, xx)` ascending, a non-zero `g` adds to `gb[o]` and, per
/// unclipped tap of its `k × k` window, `g·x` to `gw` and `g·w` to `gx`. `gw` and `gb` start as
/// `gw0` and `gb0`, `gx` at zero. Returns `(gw, gb, gx)`.
fn reference_backward(
    x: &Tensor,
    conv: &Conv2d,
    go: &Tensor,
    (gw0, gb0): (&Tensor, &Tensor),
) -> (Tensor, Tensor, Tensor) {
    let (in_ch, h, ww) = (x.shape[0], x.shape[1], x.shape[2]);
    let (oh, ow) = (go.shape[1], go.shape[2]);
    let (w, p, k) = (&conv.w, conv.pad as isize, conv.kernel);
    let (mut gw, mut gb) = (gw0.clone(), gb0.clone());
    let mut gx = Tensor::full(&x.shape, 0.0);
    let out_ch = go.shape[0];
    for o in 0..out_ch {
        for yy in 0..oh {
            for xx in 0..ow {
                let g = go.at3(o, yy, xx);
                if g == 0.0 {
                    continue;
                }
                gb.data[o] += g;
                for c in 0..in_ch {
                    for ky in 0..k {
                        let iy = yy as isize + ky as isize - p;
                        if iy < 0 || iy >= h as isize {
                            continue;
                        }
                        for kx in 0..k {
                            let ix = xx as isize + kx as isize - p;
                            if ix < 0 || ix >= ww as isize {
                                continue;
                            }
                            let wi = ((o * in_ch + c) * k + ky) * k + kx;
                            let xi = (c * h + iy as usize) * ww + ix as usize;
                            gw.data[wi] += g * x.data[xi];
                            gx.data[xi] += g * w.data[wi];
                        }
                    }
                }
            }
        }
    }
    (gw, gb, gx)
}

/// Runs `conv`'s `input_grad` and `add_param_grads` on `(x, go)` and pins
/// `gx`, `gw` and `gb` to the per-pixel oracle by `to_bits`.
fn assert_backward_is_reference(conv: &Conv2d, x: &Tensor, go: &Tensor) {
    let zeros = (Tensor::full(&conv.w.shape, 0.0), Tensor::full(&conv.b.shape, 0.0));
    assert_backward_from(conv, x, go, zeros);
}

/// [`assert_backward_is_reference`] with `add_param_grads` adding into
/// `gw` and `gb` that start as given.
fn assert_backward_from(conv: &Conv2d, x: &Tensor, go: &Tensor, (gw0, gb0): (Tensor, Tensor)) {
    let mut gx = Tensor::default();
    conv.input_grad(x, &infer(conv, x), go, &mut gx);
    let (mut gw, mut gb) = (gw0.clone(), gb0.clone());
    let row_len = gw.len() / gb.len();
    for (row, (gw, gb)) in gw.data.chunks_exact_mut(row_len).zip(&mut gb.data).enumerate() {
        conv.add_param_grads(x, go, row, gw, gb);
    }
    let (ref_gw, ref_gb, ref_gx) = reference_backward(x, conv, go, (&gw0, &gb0));
    // Both sides accumulate every element in the same order: bitwise equal.
    assert_eq!(bits(&gw), bits(&ref_gw), "gw must be bitwise-identical");
    assert_eq!(bits(&gb), bits(&ref_gb), "gb must be bitwise-identical");
    assert_eq!(bits(&gx), bits(&ref_gx), "gx must be bitwise-identical");
}

#[test]
fn conv2d_backward_is_bitwise_reference() {
    let conv = Conv2d::new(IN_CH, OUT_CH, K, 1, 42);
    let x = Tensor::uniform(&[IN_CH, H, W], 1.0, 7);
    let go = Tensor::uniform(&[OUT_CH, H, W], 1.0, 13);
    assert_backward_is_reference(&conv, &x, &go);
}

/// The gradient a conv sees in training is mostly zeros (after ReLU and
/// max pooling at least 3 in 4): the kernel's zero skip must drop exactly
/// the terms the oracle drops, −0.0 included, NaN/±inf inputs must reach
/// `gw` through the same multiply-adds, and NaN/±inf weights must reach
/// `gx` only through taps the border does not clip.
#[test]
fn conv2d_sparse_backward_with_specials_is_bitwise_reference() {
    let mut conv = Conv2d::new(IN_CH, OUT_CH, K, 1, 43);
    // Specials on corner taps, which the border clips.
    conv.w.data[0] = f32::INFINITY;
    conv.w.data[K * K - 1] = f32::NAN;
    let mut x = Tensor::uniform(&[IN_CH, H, W], 1.0, 8);
    // One kind per input channel, on the clipped border and inside. Each
    // `gw` element sums over one channel, so it meets at most one NaN
    // source: which of two NaNs an add returns is not specified.
    for (c, v) in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0].into_iter().enumerate() {
        x.data[c * H * W + 7] = v;
        x.data[c * H * W + 11 * W + 9] = v;
    }
    let mut go = Tensor::uniform(&[OUT_CH, H, W], 1.0, 14);
    for (i, g) in go.data.iter_mut().enumerate() {
        match i % 8 {
            0 | 3 | 5 | 6 | 7 => *g = 0.0,
            2 => *g = -0.0,
            _ => {}
        }
    }
    let zeros = go.data.iter().filter(|&&g| g == 0.0).count();
    assert!(zeros * 4 >= go.len() * 3, "at least 75% of grad_out is ±0.0");
    assert_backward_is_reference(&conv, &x, &go);
}

/// NaN and ±inf gradients flow through the unclipped-window walk
/// (interior pixels) and the clipped one (border pixels) exactly as
/// through the per-pixel nest: an infinite `g` times a clipped tap's zero
/// would be NaN, so a window that pads instead of clipping shows. One kind
/// per output channel, at pixels whose windows do not overlap, so no `gx`
/// element meets two different NaNs (which one an add returns is not
/// specified); `gw` and `gb` start at −0.0, non-zero, and zero.
#[test]
fn conv2d_backward_special_gradients_are_bitwise_reference() {
    let conv = Conv2d::new(IN_CH, OUT_CH, K, 1, 44);
    let x = Tensor::uniform(&[IN_CH, H, W], 1.0, 9);
    let mut go = Tensor::uniform(&[OUT_CH, H, W], 1.0, 15);
    let kinds = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
    // (interior pixel, border pixel) per kind.
    let spots = [[(5, 5), (0, 9)], [(11, 20), (31, 3)], [(20, 12), (17, W - 1)]];
    for (o, (v, spots)) in kinds.into_iter().zip(spots).enumerate() {
        for (yy, xx) in spots {
            go.data[(o * H + yy) * W + xx] = v;
        }
    }
    for (i, g) in go.data.iter_mut().enumerate() {
        if g.is_finite() && i % 3 != 0 {
            *g = if i % 2 == 0 { 0.0 } else { -0.0 };
        }
    }
    for start in [-0.0, 0.5, 0.0] {
        let gw0 = Tensor::full(&conv.w.shape, start);
        let gb0 = Tensor::full(&conv.b.shape, start);
        assert_backward_from(&conv, &x, &go, (gw0, gb0));
    }
}

/// Geometries whose unclipped interior is empty or one pixel wide along
/// an axis, or every pixel (no padding), at 3×3 and at other kernel sizes
/// (which are always clipped): the split between the fixed-size window
/// and the clipped walk must be bitwise-invisible, adding into `gw` and
/// `gb` that start at −0.0 or at random values. A −0.0 start stays −0.0
/// only where nothing adds to it, so a walk that added a clipped tap's
/// `g · 0` would show.
#[test]
fn conv2d_backward_is_bitwise_at_thin_interiors() {
    for k in [1usize, 3, 5] {
        for pad in 0..=k / 2 + 1 {
            for (h, w) in [(1usize, 1usize), (1, 4), (2, 2), (2, 5), (3, 3), (3, 6), (4, 1), (5, 4)]
            {
                if h + 2 * pad < k || w + 2 * pad < k {
                    continue;
                }
                let mut conv = Conv2d::new(3, 2, k, pad, (k * 100 + pad * 10 + h) as u64);
                conv.w.data[0] = f32::INFINITY;
                let x = Tensor::uniform(&[3, h, w], 1.0, (h * 10 + w) as u64);
                let (oh, ow) = (h + 2 * pad + 1 - k, w + 2 * pad + 1 - k);
                let mut go = Tensor::uniform(&[2, oh, ow], 1.0, (pad * 7 + w) as u64);
                for g in go.data.iter_mut().step_by(3) {
                    *g = -0.0;
                }
                let negzero = (Tensor::full(&conv.w.shape, -0.0), Tensor::full(&[2], -0.0));
                assert_backward_from(&conv, &x, &go, negzero);
                let random =
                    (Tensor::uniform(&conv.w.shape, 1.0, 3), Tensor::uniform(&[2], 1.0, 4));
                assert_backward_from(&conv, &x, &go, random);
            }
        }
    }
}

/// The lane kernel's window clipping and output-channel blocking must be
/// bitwise-invisible at every geometry: widths of one column, widths
/// narrower than the kernel's reach, odd and ragged widths, paddings that
/// move the clipped range, and channel counts that leave a partial block
/// of lanes, at both lane widths (8 below 16 output channels, 16 from
/// there on).
#[test]
fn conv2d_lane_kernel_is_bitwise_across_widths() {
    let mut out = Tensor::default();
    for (in_ch, out_ch) in [(3, 5), (2, 11), (3, 16), (2, 17), (2, 20)] {
        for pad in 0..3usize {
            for w in [1usize, 2, 3, 7, 8, 9, 15, 16, 17, 23, 31] {
                if w + 2 * pad < K {
                    continue;
                }
                let conv = conv_with_biases(in_ch, out_ch, pad, 91);
                let x = Tensor::uniform(&[in_ch, 9, w], 1.0, (w * 10 + pad) as u64);
                let expect = bits(&reference_forward(&x, &conv));
                // `out` arrives holding the previous geometry's values.
                conv.infer(&x, &mut out);
                assert_eq!(bits(&out), expect, "{out_ch} channels, pad {pad} w {w}");
            }
        }
    }
}

/// `infer` reads the weights through a tap-major copy it keeps between
/// calls: changing `w` (or running another conv on the same thread) in
/// between must never leave the next call reading the old weights.
#[test]
fn conv2d_infer_never_reads_stale_weights() {
    let mut conv = conv_with_biases(IN_CH, OUT_CH, 1, 17);
    let other = conv_with_biases(OUT_CH, 3, 1, 18);
    let x = Tensor::uniform(&[IN_CH, 10, 12], 1.0, 19);
    let mut out = Tensor::default();
    conv.infer(&x, &mut out);
    assert_eq!(bits(&out), bits(&reference_forward(&x, &conv)));
    for (i, v) in conv.w.data.iter_mut().enumerate() {
        *v = if i % 3 == 0 { -*v } else { 0.5 * *v + 0.01 };
    }
    conv.infer(&x, &mut out);
    assert_eq!(bits(&out), bits(&reference_forward(&x, &conv)), "after changing w");
    let mut mid = Tensor::default();
    other.infer(&out, &mut mid);
    conv.w.data[0] = 3.0;
    conv.infer(&x, &mut out);
    assert_eq!(bits(&out), bits(&reference_forward(&x, &conv)), "after another conv ran");
}

/// NaN, ±inf and −0.0 inputs flow through the lane kernel exactly as
/// through the per-pixel reference (every element does the same
/// multiply-adds, and a clipped tap is skipped, not multiplied by zero).
/// A tap the padding clips is skipped, not multiplied by a zero: with an
/// infinite corner weight, the outputs whose window clips that corner
/// stay finite (`inf · 0` would make them NaN), the rest are infinite.
#[test]
fn conv2d_clipped_taps_are_skipped_not_zeroed() {
    let mut conv = conv_with_biases(2, 3, 1, 21);
    conv.w.data[0] = f32::INFINITY; // o = 0, c = 0, (ky, kx) = (0, 0)
    let x = Tensor::uniform(&[2, 5, 7], 1.0, 22);
    let y = infer(&conv, &x);
    assert_eq!(bits(&y), bits(&reference_forward(&x, &conv)));
    for yy in 0..5 {
        for xx in 0..7 {
            let v = y.at3(0, yy, xx);
            let clipped = yy == 0 || xx == 0;
            assert_eq!(v.is_finite(), clipped, "output (0, {yy}, {xx}) = {v}");
        }
    }
}

#[test]
fn conv2d_forward_specials_stay_bitwise() {
    for (in_ch, out_ch) in [(1, 1), (2, 6), (2, 17)] {
        let conv = conv_with_biases(in_ch, out_ch, 1, 5);
        let mut x = Tensor::uniform(&[in_ch, 6, 19], 1.0, 6);
        // Interior cells and cells on the clipped border alike.
        x.data[0] = -0.0;
        x.data[7] = f32::NAN;
        x.data[18] = f32::INFINITY;
        x.data[20] = f32::INFINITY;
        x.data[33] = f32::NEG_INFINITY;
        x.data[40] = -0.0;
        x.data[6 * 19 - 1] = f32::NAN;
        let expect = bits(&reference_forward(&x, &conv));
        let mut out = Tensor::full(&[3], f32::NAN);
        conv.infer(&x, &mut out);
        assert_eq!(bits(&out), expect, "specials propagate bitwise, whatever `out` held");
    }
}
