//! The conv forward kernel's width promise: it vectorises across output
//! channels, so a layer with many channels on a small plane costs no more
//! per multiply-add than one with few channels on a large plane. Both
//! shapes are the TC-localization CNN's own: conv1 (4→8 at 16×16) and
//! conv2 (8→16 at 8×8), 73,728 MACs each. A kernel bound by per-row or
//! per-tap overhead shows as conv2 costing more per MAC than conv1.

use std::time::Instant;
use tinyml::layers::{Conv2d, Layer};
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
