//! The forward kernels' cost promises, on the TC-localization CNN's own
//! shapes: conv1 (4→8 at 16×16) and conv2 (8→16 at 8×8), 73,728 MACs each.
//!
//! * The forward vectorises across output channels, so a layer with many
//!   channels on a small plane costs no more per multiply-add than one
//!   with few channels on a large plane. A kernel bound by per-row or
//!   per-tap overhead shows as conv2 costing more per MAC than conv1.
//! * A block of samples gives the forward one independent add chain per
//!   output channel and sample, so the whole CNN scores a block of 8
//!   patches for much less per patch than one patch alone. A block kernel
//!   that runs its samples one after the other shows as a ratio near 1.
//! * The weight-gradient kernel walks an unclipped window as one
//!   fixed-size block, so it costs well under the shared per-pixel
//!   backward nest on the same gradients. A walk that hands out per-row
//!   clipped slices shows as a ratio near or over 1.

mod common;

use std::time::Instant;
use tinyml::layers::{Conv2d, Dense, Flatten, Layer, MaxPool2d, ReLU, Sigmoid};
use tinyml::net::{Scratch, Sequential};
use tinyml::tensor::Tensor;

/// Largest ratio of conv2's median per-MAC forward cost to conv1's before
/// it is a regression. On a 2-core host the channel-vectorised kernel read
/// 0.75–0.90 in 20 runs of this test at 8 lanes for both layers, and
/// 0.59–0.63 in 10 with conv2 at 16 lanes; the row-at-a-time kernel it
/// replaced read 1.55–1.72 in 10.
const CONV2_OVER_CONV1_PER_MAC_BOUND: f64 = 1.1;

/// Multiply-adds of one forward pass (every tap, clipped ones included).
fn macs(in_ch: usize, out_ch: usize, k: usize, h: usize, w: usize) -> f64 {
    (out_ch * h * w * in_ch * k * k) as f64
}

/// Gate (`scripts/check.sh`, release): over 31 interleaved reps of 200
/// `infer` calls at each shape, conv2's median ns/MAC stays within
/// [`CONV2_OVER_CONV1_PER_MAC_BOUND`] of conv1's.
#[test]
#[ignore = "timing gate: run in release by scripts/check.sh"]
fn conv2_shape_costs_per_mac_about_what_conv1_shape_costs() {
    const CALLS: usize = 200;
    let shapes = [(4usize, 8usize, 16usize), (8, 16, 8)];
    let cases: Vec<(Conv2d, Tensor, f64)> = shapes
        .iter()
        .enumerate()
        .map(|(i, &(ic, oc, hw))| {
            let conv = Conv2d::new(ic, oc, 3, 1, 40 + i as u64);
            let x = Tensor::uniform(&[ic, hw, hw], 1.0, 50 + i as u64);
            (conv, x, macs(ic, oc, 3, hw, hw))
        })
        .collect();
    let mut out = Tensor::default();
    let mut samples = [Vec::new(), Vec::new()];
    for _ in 0..31 {
        for ((conv, x, macs), s) in cases.iter().zip(&mut samples) {
            let start = Instant::now();
            for _ in 0..CALLS {
                conv.infer(std::hint::black_box(x), &mut out);
                std::hint::black_box(&out);
            }
            s.push(start.elapsed().as_nanos() as f64 / (CALLS as f64 * macs));
        }
    }
    let [conv1, conv2] = samples.map(|mut v| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    });
    let ratio = conv2 / conv1;
    println!(
        "conv forward: conv1 {conv1:.3} ns/MAC, conv2 {conv2:.3} ns/MAC, ratio {ratio:.2} \
         (bound {CONV2_OVER_CONV1_PER_MAC_BOUND})"
    );
    assert!(
        ratio <= CONV2_OVER_CONV1_PER_MAC_BOUND,
        "conv2 costs {ratio:.2}x conv1 per MAC, over the {CONV2_OVER_CONV1_PER_MAC_BOUND}x bound"
    );
}

/// Largest ratio of the conv1 shape's median `add_param_grads` cost (all
/// eight rows, 80% of `grad_out` zero) to the median cost of the shared
/// per-pixel backward nest (`common::conv_backward`, which walks the same
/// non-zero gradients and also accumulates `gx`) on the same inputs before
/// it is a regression. The reference is fixed, so a faster or slower
/// forward kernel does not move this gate. See EXPERIMENTS K7 for the
/// runs it was set from.
const WEIGHT_GRAD_OVER_NEST_BOUND: f64 = 0.55;

/// Gate (`scripts/check.sh`, release): over 31 interleaved reps of 200
/// calls each, the conv1 shape's `add_param_grads` over all eight rows, on
/// a gradient four in five of whose elements are ±0.0, costs at most
/// [`WEIGHT_GRAD_OVER_NEST_BOUND`] times the per-pixel backward nest.
#[test]
#[ignore = "timing gate: run in release by scripts/check.sh"]
fn conv1_weight_grads_cost_well_under_the_per_pixel_nest() {
    const CALLS: usize = 200;
    let (ic, oc, hw) = (4usize, 8usize, 16usize);
    let conv = Conv2d::new(ic, oc, 3, 1, 40);
    let x = Tensor::uniform(&[ic, hw, hw], 1.0, 50);
    let mut g = Tensor::uniform(&[oc, hw, hw], 1.0, 60);
    for (i, v) in g.data.iter_mut().enumerate() {
        let r = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 59;
        if !r.is_multiple_of(5) {
            *v = if r & 1 == 0 { 0.0 } else { -0.0 };
        }
    }
    let zeros = g.data.iter().filter(|&&v| v == 0.0).count();
    assert!((0.75..0.85).contains(&(zeros as f64 / g.len() as f64)), "{zeros} zeros");
    let (mut gw, mut gb) = (vec![0.0f32; conv.w.len()], vec![0.0f32; oc]);
    let mut samples = [Vec::new(), Vec::new()];
    for _ in 0..31 {
        let start = Instant::now();
        for _ in 0..CALLS {
            let gx = common::conv_backward(
                std::hint::black_box(&x),
                &conv.w.data,
                &g,
                3,
                1,
                &mut gw,
                &mut gb,
            );
            std::hint::black_box(&gx);
        }
        samples[0].push(start.elapsed().as_nanos() as f64 / CALLS as f64);
        let start = Instant::now();
        for _ in 0..CALLS {
            for (row, (gw, gb)) in gw.chunks_exact_mut(ic * 9).zip(&mut gb).enumerate() {
                conv.add_param_grads(std::hint::black_box(&x), &g, row, gw, gb);
            }
            std::hint::black_box(&gw);
        }
        samples[1].push(start.elapsed().as_nanos() as f64 / CALLS as f64);
    }
    let [nest, weight_grad] = samples.map(|mut v| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    });
    let ratio = weight_grad / nest;
    println!(
        "conv1 weight grads: {weight_grad:.0} ns per call, per-pixel nest {nest:.0} ns, \
         ratio {ratio:.3} (bound {WEIGHT_GRAD_OVER_NEST_BOUND})"
    );
    assert!(
        ratio <= WEIGHT_GRAD_OVER_NEST_BOUND,
        "conv1 weight grads cost {ratio:.3}x the per-pixel nest, over the \
         {WEIGHT_GRAD_OVER_NEST_BOUND}x bound"
    );
}

/// Largest ratio of the TC-CNN's median per-patch cost on a block of
/// [`BLOCK`] patches to its median cost on one patch alone before it is a
/// regression. See EXPERIMENTS K6 for the runs it was set from.
const BLOCK_OVER_SINGLE_PER_PATCH_BOUND: f64 = 0.8;

/// The block width the gate times: the TC localizer's.
const BLOCK: usize = 8;

/// The layers of `extremes::tc::TcCnn::new(16, seed)`.
fn tc_cnn(seed: u64) -> Sequential {
    Sequential::new()
        .add(Conv2d::new(4, 8, 3, 1, seed))
        .add(ReLU::new())
        .add(MaxPool2d::new(2))
        .add(Conv2d::new(8, 16, 3, 1, seed + 1))
        .add(ReLU::new())
        .add(MaxPool2d::new(2))
        .add(Flatten::new())
        .add(Dense::new(16 * 4 * 4, 48, seed + 2))
        .add(ReLU::new())
        .add(Dense::new(48, 3, seed + 3))
        .add(Sigmoid::new())
}

/// `samples`, all of one shape, as one block interleaved innermost.
fn interleave(samples: &[Tensor]) -> Tensor {
    let n = samples.len();
    let mut shape = samples[0].shape.clone();
    shape.push(n);
    let mut block = Tensor::full(&shape, 0.0);
    for (s, x) in samples.iter().enumerate() {
        for (i, &v) in x.data.iter().enumerate() {
            block.data[i * n + s] = v;
        }
    }
    block
}

/// One call of `net` on `x` per call of the closure: `Sequential::infer`
/// on a sample, `Sequential::infer_block` on a block of [`BLOCK`].
fn scorer<'a>(net: &'a Sequential, x: &'a Tensor, block: bool) -> impl FnMut() + 'a {
    let mut scratch = Scratch::default();
    move || {
        let x = std::hint::black_box(x);
        let y = if block {
            net.infer_block::<BLOCK>(x, &mut scratch)
        } else {
            net.infer(x, &mut scratch)
        };
        std::hint::black_box(y);
    }
}

/// Medians over 31 interleaved reps of `calls` calls of each of `runs`, in
/// µs per patch, where one call of run `r` scores `patches[r]` patches.
fn medians_us<const N: usize>(
    calls: usize,
    patches: [usize; N],
    runs: &mut [impl FnMut(); N],
) -> [f64; N] {
    let mut samples: [Vec<f64>; N] = std::array::from_fn(|_| Vec::new());
    for _ in 0..31 {
        for ((run, s), &p) in runs.iter_mut().zip(&mut samples).zip(&patches) {
            let start = Instant::now();
            for _ in 0..calls {
                run();
            }
            s.push(start.elapsed().as_nanos() as f64 / 1e3 / (calls * p) as f64);
        }
    }
    samples.map(|mut v| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    })
}

/// Gate (`scripts/check.sh`, release): over 31 interleaved reps, the
/// TC-CNN's median cost per patch through `Sequential::infer_block` on a
/// block of [`BLOCK`] patches is at most
/// [`BLOCK_OVER_SINGLE_PER_PATCH_BOUND`] times its median cost through
/// `Sequential::infer` on one patch. It also prints conv1 and conv2 alone,
/// per patch, at both widths.
#[test]
#[ignore = "timing gate: run in release by scripts/check.sh"]
fn a_block_of_patches_costs_per_patch_well_below_one_patch_alone() {
    let net = tc_cnn(70);
    let conv1 = Sequential::new().add(Conv2d::new(4, 8, 3, 1, 70));
    let conv2 = Sequential::new().add(Conv2d::new(8, 16, 3, 1, 71));
    let patches: Vec<Tensor> =
        (0..BLOCK as u64).map(|s| Tensor::uniform(&[4, 16, 16], 1.0, 80 + s)).collect();
    let mid: Vec<Tensor> =
        (0..BLOCK as u64).map(|s| Tensor::uniform(&[8, 8, 8], 1.0, 90 + s)).collect();
    let (block, mid_block) = (interleave(&patches), interleave(&mid));
    let [single, blocked, c1, c1_block, c2, c2_block] = medians_us(
        200,
        [1, BLOCK, 1, BLOCK, 1, BLOCK],
        &mut [
            scorer(&net, &patches[0], false),
            scorer(&net, &block, true),
            scorer(&conv1, &patches[0], false),
            scorer(&conv1, &block, true),
            scorer(&conv2, &mid[0], false),
            scorer(&conv2, &mid_block, true),
        ],
    );
    let ratio = blocked / single;
    println!(
        "TC-CNN forward per patch: {single:.1} us alone, {blocked:.1} us in a block of {BLOCK}, \
         ratio {ratio:.2} (bound {BLOCK_OVER_SINGLE_PER_PATCH_BOUND}); conv1 {c1:.1} -> \
         {c1_block:.1} us, conv2 {c2:.1} -> {c2_block:.1} us"
    );
    assert!(
        ratio <= BLOCK_OVER_SINGLE_PER_PATCH_BOUND,
        "a block of {BLOCK} costs {ratio:.2}x one patch alone per patch, over the \
         {BLOCK_OVER_SINGLE_PER_PATCH_BOUND}x bound"
    );
}
