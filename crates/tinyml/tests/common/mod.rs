//! The per-pixel conv oracles the tinyml test files share: direct nests
//! over a `[in_ch, h, w]` input, stride 1, zero padding, whose
//! multiply-add order the layer's kernels must keep bit for bit.

// Each test file uses the oracles it needs.
#![allow(dead_code)]

use tinyml::tensor::Tensor;

/// The forward nest: per output pixel `(o, yy, xx)`, bias first, then the
/// taps in ascending `(c, ky, kx)`, clipped taps skipped (not multiplied
/// by zero). `w` is `[out_ch, in_ch, k, k]`, `b` one bias per output
/// channel. Returns `[out_ch, oh, ow]`.
pub fn conv_forward(x: &Tensor, w: &[f32], b: &[f32], k: usize, pad: usize) -> Tensor {
    let (in_ch, h, wd) = (x.shape[0], x.shape[1], x.shape[2]);
    let (oh, ow) = (h + 2 * pad + 1 - k, wd + 2 * pad + 1 - k);
    let mut y = Tensor::full(&[b.len(), oh, ow], 0.0);
    for (o, &bias) in b.iter().enumerate() {
        for yy in 0..oh {
            for xx in 0..ow {
                let mut acc = bias;
                for_each_tap(in_ch, h, wd, k, pad, (yy, xx), |c, wi, xi| {
                    acc += w[o * in_ch * k * k + c * k * k + wi] * x.data[xi];
                });
                *y.at3_mut(o, yy, xx) = acc;
            }
        }
    }
    y
}

/// The backward nest: over `(o, yy, xx)` ascending, a non-zero output
/// gradient `g` adds to `gb[o]` and, per unclipped tap of its window,
/// `g·x` to `gw` and `g·w` to `gx`. `gw` and `gb` are added into as they
/// are given; `gx` starts at zero and is returned.
#[allow(clippy::needless_range_loop)] // the oracle mirrors the math
pub fn conv_backward(
    x: &Tensor,
    w: &[f32],
    go: &Tensor,
    k: usize,
    pad: usize,
    gw: &mut [f32],
    gb: &mut [f32],
) -> Vec<f32> {
    let (in_ch, h, wd) = (x.shape[0], x.shape[1], x.shape[2]);
    let (out_ch, oh, ow) = (go.shape[0], go.shape[1], go.shape[2]);
    let mut gx = vec![0.0f32; x.len()];
    for o in 0..out_ch {
        for yy in 0..oh {
            for xx in 0..ow {
                let g = go.at3(o, yy, xx);
                if g == 0.0 {
                    continue;
                }
                gb[o] += g;
                for_each_tap(in_ch, h, wd, k, pad, (yy, xx), |c, wi, xi| {
                    let wi = o * in_ch * k * k + c * k * k + wi;
                    gw[wi] += g * x.data[xi];
                    gx[xi] += g * w[wi];
                });
            }
        }
    }
    gx
}

/// Calls `tap(c, ky * k + kx, input index)` for every tap of output pixel
/// `(yy, xx)`'s window that lies inside the input, in ascending
/// `(c, ky, kx)`.
fn for_each_tap(
    in_ch: usize,
    h: usize,
    wd: usize,
    k: usize,
    pad: usize,
    (yy, xx): (usize, usize),
    mut tap: impl FnMut(usize, usize, usize),
) {
    for c in 0..in_ch {
        for ky in 0..k {
            let iy = (yy + ky) as isize - pad as isize;
            if iy < 0 || iy >= h as isize {
                continue;
            }
            for kx in 0..k {
                let ix = (xx + kx) as isize - pad as isize;
                if ix < 0 || ix >= wd as isize {
                    continue;
                }
                tap(c, ky * k + kx, (c * h + iy as usize) * wd + ix as usize);
            }
        }
    }
}
