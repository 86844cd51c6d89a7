//! Oracle equivalence for the conv kernels.
//!
//! Conv2d has one forward kernel, serial and row-at-a-time, shared by
//! `infer` and `forward`; it keeps every output element's multiply-add
//! order, so it must match the naive per-pixel reference below *bitwise*.
//! The backward pass is serial too, and its weight/bias and input
//! gradients must match a direct re-derivation of the gradient formulas
//! bitwise (every element accumulates its terms in `(o, yy, xx)` order).

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
    let mut y = Tensor::zeros(&[out_ch, oh, ow]);
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
    let mut conv = conv_with_biases(IN_CH, OUT_CH, 1, 42);
    let x = Tensor::uniform(&[IN_CH, H, W], 1.0, 7);
    let y = conv.forward(&x);
    let expect = reference_forward(&x, &conv);
    assert_eq!(y.shape, expect.shape);
    assert_eq!(bits(&y), bits(&expect), "forward must be bitwise-identical to the reference");
}

#[test]
fn conv2d_backward_is_bitwise_reference() {
    // Gradients from the layer against a direct serial re-derivation of
    // the gradient formulas.
    let mut conv = Conv2d::new(IN_CH, OUT_CH, K, 1, 42);
    let x = Tensor::uniform(&[IN_CH, H, W], 1.0, 7);
    let y = conv.forward(&x);
    let go = Tensor::uniform(&y.shape, 1.0, 13);
    conv.zero_grad();
    let gx = conv.backward(&go);

    // Serial oracle.
    let (w, _b) = {
        let ps = conv.params();
        (ps[0].clone(), ps[1].clone())
    };
    let (oh, ow) = (y.shape[1], y.shape[2]);
    let mut ref_gw = vec![0.0f32; OUT_CH * IN_CH * K * K];
    let mut ref_gb = vec![0.0f32; OUT_CH];
    let mut ref_gx = vec![0.0f32; IN_CH * H * W];
    let p = 1isize;
    #[allow(clippy::needless_range_loop)] // serial oracle mirrors the layer's loop nest
    for o in 0..OUT_CH {
        for yy in 0..oh {
            for xx in 0..ow {
                let g = go.at3(o, yy, xx);
                if g == 0.0 {
                    continue;
                }
                ref_gb[o] += g;
                for c in 0..IN_CH {
                    for ky in 0..K {
                        let iy = yy as isize + ky as isize - p;
                        if iy < 0 || iy >= H as isize {
                            continue;
                        }
                        for kx in 0..K {
                            let ix = xx as isize + kx as isize - p;
                            if ix < 0 || ix >= W as isize {
                                continue;
                            }
                            let wi = ((o * IN_CH + c) * K + ky) * K + kx;
                            let xi = (c * H + iy as usize) * W + ix as usize;
                            ref_gw[wi] += g * x.data[xi];
                            ref_gx[xi] += g * w.data[wi];
                        }
                    }
                }
            }
        }
    }

    let pairs = conv.params_grads();
    let (gw, gb) = {
        let (wp, bp) = (&pairs[0], &pairs[1]);
        (wp.1.data.clone(), bp.1.data.clone())
    };
    drop(pairs);
    // Both sides accumulate every element in the same order: bitwise equal.
    assert_eq!(gw, ref_gw, "gw must be bitwise-identical");
    assert_eq!(gb, ref_gb, "gb must be bitwise-identical");
    assert_eq!(gx.data, ref_gx, "gx must be bitwise-identical");
}

/// The row kernel's column clipping and output-channel blocking must be
/// bitwise-invisible at every geometry: widths of one column, widths
/// narrower than the kernel's reach, odd and ragged widths, paddings that
/// move the clipped range, and channel counts that leave a partial block.
#[test]
fn conv2d_row_kernel_is_bitwise_across_widths() {
    let mut out = Tensor::default();
    for pad in 0..3usize {
        for w in [1usize, 2, 3, 7, 8, 9, 15, 16, 17, 23, 31] {
            if w + 2 * pad < K {
                continue;
            }
            let mut conv = conv_with_biases(3, 5, pad, 91);
            let x = Tensor::uniform(&[3, 9, w], 1.0, (w * 10 + pad) as u64);
            let expect = bits(&reference_forward(&x, &conv));
            // `out` arrives holding the previous geometry's values.
            conv.infer(&x, &mut out);
            assert_eq!(bits(&out), expect, "infer, pad {pad} w {w}");
            assert_eq!(bits(&conv.forward(&x)), expect, "forward, pad {pad} w {w}");
        }
    }
}

/// NaN, ±inf and −0.0 inputs flow through the row kernel exactly as
/// through the per-pixel reference (every element does the same
/// multiply-adds, and a clipped tap is skipped, not multiplied by zero).
#[test]
fn conv2d_forward_specials_stay_bitwise() {
    for (in_ch, out_ch) in [(1, 1), (2, 6)] {
        let mut conv = conv_with_biases(in_ch, out_ch, 1, 5);
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
        assert_eq!(bits(&conv.forward(&x)), expect, "specials must propagate bitwise");
        let mut out = Tensor::full(&[3], f32::NAN);
        conv.infer(&x, &mut out);
        assert_eq!(bits(&out), expect, "infer must not see its output buffer's old values");
    }
}
