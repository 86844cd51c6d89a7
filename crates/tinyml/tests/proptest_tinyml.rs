//! Property tests for the neural-network substrate: convolution against an
//! independent reference implementation, a block of samples against each
//! sample alone, pooling invariants, and serialization round-trips over
//! random architectures.

mod common;

use proptest::prelude::*;
use tinyml::layers::{Conv2d, Dense, Flatten, Layer, MaxPool2d, ReLU, Sigmoid};
use tinyml::net::{Scratch, Sequential};
use tinyml::serialize::{load_model, save_model};
use tinyml::tensor::Tensor;

fn bits(t: &Tensor) -> Vec<u32> {
    t.data.iter().map(|v| v.to_bits()).collect()
}

/// Appends one layer `make` builds to `net`, and an identical one to `chain`.
fn both<L: Layer + 'static>(
    net: Sequential,
    chain: &mut Vec<Box<dyn Layer>>,
    make: impl Fn() -> L,
) -> Sequential {
    chain.push(Box::new(make()));
    net.add(make())
}

/// The block width of [`infer_blocked`]: the TC localizer's.
const BLOCK: usize = 8;

/// `samples` through `Sequential::infer_block` [`BLOCK`] at a time, as the
/// TC localizer packs its tiles: each block interleaves its samples
/// innermost, a short last block repeats its last sample in the spare
/// lanes, and each live lane's output is unpacked.
fn infer_blocked(net: &Sequential, samples: &[Tensor]) -> Vec<Tensor> {
    let mut shape = samples[0].shape.clone();
    shape.push(BLOCK);
    let mut block = Tensor::full(&shape, 0.0);
    let mut scratch = Scratch::default();
    let mut outs = Vec::new();
    for group in samples.chunks(BLOCK) {
        for lane in 0..BLOCK {
            let x = &group[lane.min(group.len() - 1)];
            for (i, &v) in x.data.iter().enumerate() {
                block.data[i * BLOCK + lane] = v;
            }
        }
        let y = net.infer_block::<BLOCK>(&block, &mut scratch);
        let (&width, dims) = y.shape.split_last().expect("a block has a sample axis");
        assert_eq!(width, BLOCK);
        for lane in 0..group.len() {
            let data = y.data.iter().skip(lane).step_by(BLOCK).copied().collect();
            outs.push(Tensor::from_vec(dims, data));
        }
    }
    outs
}

/// Bits with every NaN alike: the kernels leave a NaN's sign and payload
/// unspecified.
fn nan_class_bits(t: &Tensor) -> Vec<u32> {
    t.data.iter().map(|v| if v.is_nan() { f32::NAN.to_bits() } else { v.to_bits() }).collect()
}

/// One of `x`'s elements, chosen by `r`, made `v`.
fn plant(x: &mut Tensor, r: u64, v: f32) {
    let i = r as usize % x.len();
    x.data[i] = v;
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// A block of samples through `Sequential::infer_block` gives every
    /// sample the bits `Sequential::infer` gives it alone, over random
    /// (pool) → (conv → activation → (pool)) → flatten → (dense → ReLU →
    /// dense → (sigmoid)) nets with kernels 1/3/5, pads 0–2 and planes from
    /// one column wide, for 1 to 17 samples, so full, short and one-sample
    /// blocks all occur. Biases start at −0.0, some weights are ±inf and
    /// some inputs NaN, ±0.0 or 1.0. A pool whose output reaches the net's
    /// output unchanged shows which of two tied zeros it kept (the first,
    /// as it keeps the first strictly greater value). NaN outputs are
    /// compared as a class.
    #[test]
    fn a_block_of_samples_is_bitwise_each_sample_alone(
        in_ch in 1usize..5,
        mid_ch in 1usize..11,
        half_k in 0usize..3,
        pad in 0usize..3,
        h in 1usize..9,
        w in 1usize..12,
        lead_pool in any::<bool>(),
        conv in any::<bool>(),
        relu in any::<bool>(),
        pool in any::<bool>(),
        head in any::<bool>(),
        hidden in 1usize..11,
        out_sigmoid in any::<bool>(),
        infs in any::<bool>(),
        n in 1usize..=17,
        seed in any::<u64>(),
    ) {
        let k = 2 * half_k + 1;
        // A leading pool halves a plane of twice the drawn size.
        let (ih, iw) = if lead_pool { (2 * h, 2 * w) } else { (h, w) };
        let mut net = Sequential::new();
        if lead_pool {
            net = net.add(MaxPool2d::new(2));
        }
        let mut flat = in_ch * h * w;
        if conv {
            prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
            let (oh, ow) = (h + 2 * pad + 1 - k, w + 2 * pad + 1 - k);
            let mut conv = Conv2d::new(in_ch, mid_ch, k, pad, seed);
            conv.b = Tensor::uniform(&[mid_ch], 1.0, seed ^ 3);
            conv.b.data[0] = -0.0;
            if infs {
                plant(&mut conv.w, seed >> 8, f32::INFINITY);
            }
            net = net.add(conv);
            net = if relu { net.add(ReLU::new()) } else { net.add(Sigmoid::new()) };
            let pool = pool && oh % 2 == 0 && ow % 2 == 0;
            if pool {
                net = net.add(MaxPool2d::new(2));
            }
            flat = mid_ch * oh * ow / if pool { 4 } else { 1 };
        }
        net = net.add(Flatten::new());
        if head {
            let mut dense = Dense::new(flat, hidden, seed ^ 4);
            dense.b.data[0] = -0.0;
            if infs {
                plant(&mut dense.w, seed >> 16, f32::NEG_INFINITY);
            }
            net = net.add(dense).add(ReLU::new()).add(Dense::new(hidden, 3, seed ^ 5));
            if out_sigmoid {
                net = net.add(Sigmoid::new());
            }
        }
        let samples: Vec<Tensor> = (0..n as u64)
            .map(|i| {
                let mut x = Tensor::uniform(&[in_ch, ih, iw], 2.0, seed ^ (10 + i));
                let r = (seed ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                for (j, v) in x.data.iter_mut().enumerate() {
                    match (r ^ j as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 61 {
                        0 => *v = 0.0,
                        1 => *v = -0.0,
                        2 => *v = 1.0,
                        _ => {}
                    }
                }
                if r.is_multiple_of(5) {
                    plant(&mut x, r >> 3, f32::NAN);
                }
                x
            })
            .collect();
        let got = infer_blocked(&net, &samples);
        prop_assert_eq!(got.len(), n);
        for (i, (x, got)) in samples.iter().zip(&got).enumerate() {
            let want = net.infer(x, &mut Scratch::default()).clone();
            prop_assert_eq!(&got.shape, &want.shape);
            prop_assert_eq!(nan_class_bits(got), nan_class_bits(&want), "sample {} of {}", i, n);
        }
    }

    /// The one conv kernel equals the reference bit for bit over kernels 1/3/5, paddings that
    /// clip none, some or all of a tap's reach, widths down to one column,
    /// and channel counts that are not multiples of the lane width.
    #[test]
    fn conv_matches_reference_bitwise(
        in_ch in 1usize..7,
        out_ch in 1usize..11,
        half_k in 0usize..3,
        pad in 0usize..3,
        h in 1usize..12,
        w in 1usize..20,
        seed in any::<u64>(),
    ) {
        let k = 2 * half_k + 1;
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
        let mut conv = Conv2d::new(in_ch, out_ch, k, pad, seed);
        conv.b = Tensor::uniform(&[out_ch], 1.0, seed ^ 2);
        let x = Tensor::uniform(&[in_ch, h, w], 1.0, seed ^ 1);
        let want = common::conv_forward(&x, &conv.w.data, &conv.b.data, k, pad);
        let mut got = Tensor::full(&[2, 2], f32::NAN);
        conv.infer(&x, &mut got);
        prop_assert_eq!(&got.shape, &want.shape);
        prop_assert_eq!(bits(&got), bits(&want));
    }

    /// The conv gradient kernels equal the per-pixel nest bit for bit in
    /// `gw`, `gb` (`add_param_grads`, row by row, into buffers that start
    /// at 0.0, −0.0 or random values) and `gx` (`input_grad`) over the
    /// forward's geometries, on gradients with a random share of ±0.0
    /// (which both skip) and, in some cases, a NaN, +inf and −inf on output
    /// channels 0, 1 and 2 at random pixels. Windows of two channels may
    /// overlap there, and which of two NaNs an add returns is not
    /// specified, so `gx` is then compared with every NaN alike.
    #[test]
    fn conv_backward_matches_reference_bitwise(
        in_ch in 1usize..7,
        out_ch in 1usize..11,
        half_k in 0usize..3,
        pad in 0usize..3,
        h in 1usize..10,
        w in 1usize..16,
        zero_per_4 in 0u64..5,
        start in 0u8..3,
        specials in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let k = 2 * half_k + 1;
        prop_assume!(h + 2 * pad >= k && w + 2 * pad >= k);
        let x = Tensor::uniform(&[in_ch, h, w], 1.0, seed ^ 1);
        let (oh, ow) = (h + 2 * pad + 1 - k, w + 2 * pad + 1 - k);
        let mut go = Tensor::uniform(&[out_ch, oh, ow], 1.0, seed ^ 2);
        for (i, g) in go.data.iter_mut().enumerate() {
            let r = (seed ^ i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60;
            if r % 4 < zero_per_4 {
                *g = if r & 4 == 0 { 0.0 } else { -0.0 };
            }
        }
        if specials {
            let kinds = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY];
            for (o, v) in kinds.into_iter().enumerate().take(out_ch) {
                let at = (seed >> (8 * o)) as usize % (oh * ow);
                go.data[o * oh * ow + at] = v;
            }
        }
        let conv = Conv2d::new(in_ch, out_ch, k, pad, seed);
        let mut y = Tensor::default();
        conv.infer(&x, &mut y);
        let mut gx = Tensor::full(&[3], f32::NAN);
        conv.input_grad(&x, &y, &go, &mut gx);
        let taps = in_ch * k * k;
        let (gw0, gb0) = match start {
            0 => (vec![0.0f32; out_ch * taps], vec![0.0f32; out_ch]),
            1 => (vec![-0.0f32; out_ch * taps], vec![-0.0f32; out_ch]),
            _ => (
                Tensor::uniform(&[out_ch * taps], 1.0, seed ^ 3).data,
                Tensor::uniform(&[out_ch], 1.0, seed ^ 4).data,
            ),
        };
        let (mut want_gw, mut want_gb) = (gw0.clone(), gb0.clone());
        let want_gx =
            common::conv_backward(&x, &conv.w.data, &go, k, pad, &mut want_gw, &mut want_gb);
        let fbits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<u32>>();
        let nan_alike = |v: &[f32]| {
            let bits = |f: &f32| if f.is_nan() { f32::NAN.to_bits() } else { f.to_bits() };
            v.iter().map(bits).collect::<Vec<u32>>()
        };
        if specials {
            prop_assert_eq!(nan_alike(&gx.data), nan_alike(&want_gx));
        } else {
            prop_assert_eq!(bits(&gx), fbits(&want_gx));
        }
        let (mut gw, mut gb) = (gw0, gb0);
        for (row, (gw, gb)) in gw.chunks_exact_mut(taps).zip(&mut gb).enumerate() {
            conv.add_param_grads(&x, &go, row, gw, gb);
        }
        prop_assert_eq!(fbits(&gw), fbits(&want_gw));
        prop_assert_eq!(fbits(&gb), fbits(&want_gb));
    }

    /// `Sequential::infer` equals the layers' `infer` run one by one into
    /// fresh tensors, bit for bit, over random conv → activation → (pool)
    /// → flatten → dense nets, with one `Scratch` reused across inputs of
    /// different sizes.
    #[test]
    fn infer_matches_layer_chain_bitwise(
        in_ch in 1usize..6,
        mid_ch in 1usize..10,
        half_k in 0usize..3,
        pad in 0usize..3,
        relu in any::<bool>(),
        pool in any::<bool>(),
        hidden in 1usize..9,
        seed in any::<u64>(),
    ) {
        let k = 2 * half_k + 1;
        let mut scratch = Scratch::default();
        for (h, w) in [(7usize, 9usize), (4, 6), (6, 13), (5, 1)] {
            if h + 2 * pad < k || w + 2 * pad < k {
                continue;
            }
            let (oh, ow) = (h + 2 * pad + 1 - k, w + 2 * pad + 1 - k);
            let pool = pool && oh % 2 == 0 && ow % 2 == 0;
            let flat = mid_ch * oh * ow / if pool { 4 } else { 1 };
            let mut chain = Vec::new();
            let mut conv = Conv2d::new(in_ch, mid_ch, k, pad, seed);
            conv.b = Tensor::uniform(&[mid_ch], 1.0, seed ^ 3);
            let conv_b = conv.b.clone();
            let mut net = both(Sequential::new(), &mut chain, || {
                let mut c = Conv2d::new(in_ch, mid_ch, k, pad, seed);
                c.b = conv_b.clone();
                c
            });
            net = if relu {
                both(net, &mut chain, ReLU::new)
            } else {
                both(net, &mut chain, Sigmoid::new)
            };
            if pool {
                net = both(net, &mut chain, || MaxPool2d::new(2));
            }
            net = both(net, &mut chain, Flatten::new);
            net = both(net, &mut chain, || Dense::new(flat, hidden, seed ^ 4));
            net = both(net, &mut chain, ReLU::new);
            net = both(net, &mut chain, || Dense::new(hidden, 3, seed ^ 5));
            let net = both(net, &mut chain, Sigmoid::new);
            for s in 0..2 {
                let x = Tensor::uniform(&[in_ch, h, w], 2.0, seed ^ (10 + s));
                let want = chain.iter().fold(x.clone(), |cur, l| {
                    let mut next = Tensor::default();
                    l.infer(&cur, &mut next);
                    next
                });
                let got = net.infer(&x, &mut scratch);
                prop_assert_eq!(&got.shape, &want.shape);
                prop_assert_eq!(bits(got), bits(&want), "{}x{} input", h, w);
            }
        }
    }

    /// Max pooling: every output is the max of its window, outputs are a
    /// subset of inputs, and the backward pass conserves gradient mass.
    #[test]
    fn maxpool_invariants(
        ch in 1usize..4,
        blocks in 1usize..4,
        k in 1usize..4,
        seed in any::<u64>(),
    ) {
        let hw = blocks * k;
        let pool = MaxPool2d::new(k);
        let x = Tensor::uniform(&[ch, hw, hw], 1.0, seed);
        let mut y = Tensor::default();
        pool.infer(&x, &mut y);
        prop_assert_eq!(&y.shape, &vec![ch, blocks, blocks]);
        // Every pooled value exists in the input and dominates its window.
        for c in 0..ch {
            for by in 0..blocks {
                for bx in 0..blocks {
                    let v = y.at3(c, by, bx);
                    let mut found = false;
                    for dy in 0..k {
                        for dx in 0..k {
                            let iv = x.at3(c, by * k + dy, bx * k + dx);
                            prop_assert!(iv <= v + 1e-6);
                            if (iv - v).abs() < 1e-9 {
                                found = true;
                            }
                        }
                    }
                    prop_assert!(found, "pooled value not found in window");
                }
            }
        }
        // Backward conserves total gradient.
        let g = Tensor::full(&y.shape, 1.0);
        let mut gx = Tensor::default();
        pool.input_grad(&x, &y, &g, &mut gx);
        let total: f32 = gx.data.iter().sum();
        prop_assert!((total - y.len() as f32).abs() < 1e-4);
    }

    /// Save/load reproduces predictions for random small architectures.
    #[test]
    fn serialize_roundtrip_random_arch(
        hidden in 1usize..16,
        conv_ch in 1usize..5,
        seed in any::<u64>(),
    ) {
        let build = |s: u64| {
            Sequential::new()
                .add(Conv2d::new(1, conv_ch, 3, 1, s))
                .add(ReLU::new())
                .add(MaxPool2d::new(2))
                .add(Flatten::new())
                .add(Dense::new(conv_ch * 3 * 3, hidden, s + 1))
                .add(Dense::new(hidden, 2, s + 2))
        };
        let dir = std::env::temp_dir().join("tinyml-proptest");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("m-{seed}-{hidden}-{conv_ch}.tml"));

        let a = build(seed);
        save_model(&a, &path).unwrap();
        let mut b = build(seed ^ 0xFFFF); // different init, same architecture
        load_model(&mut b, &path).unwrap();

        let x = Tensor::uniform(&[1, 6, 6], 1.0, seed ^ 2);
        let (mut sa, mut sb) = (Scratch::default(), Scratch::default());
        prop_assert_eq!(&a.infer(&x, &mut sa).data, &b.infer(&x, &mut sb).data);
        std::fs::remove_file(path).ok();
    }
}
