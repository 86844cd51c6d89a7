//! Oracle equivalence for the dense kernel.
//!
//! `Dense::infer` accumulates a block of output rows per pass over the
//! input, but every row still starts at its bias and adds `w · x` in
//! ascending input order. So it must equal the one-row-at-a-time loop
//! below bitwise, at every input and output size (a final partial block
//! of rows included) and with ±0.0 and ±inf among inputs and weights.
//! The one thing left unspecified is which NaN comes out where two NaN
//! operands meet in an add: there only NaN-ness is compared.

use proptest::prelude::*;
use tinyml::layers::{Dense, Layer};
use tinyml::tensor::Tensor;

/// The per-row scalar loop: bias first, then `w[o][i] · x[i]` for
/// ascending `i`. Also reports, per row, whether two NaNs ever met in one
/// of its adds.
fn dense_oracle(d: &Dense, x: &[f32]) -> (Vec<f32>, Vec<bool>) {
    let in_n = x.len();
    let out_n = d.b.len();
    let mut y = Vec::with_capacity(out_n);
    let mut nan_met = Vec::with_capacity(out_n);
    for o in 0..out_n {
        let row = &d.w.data[o * in_n..(o + 1) * in_n];
        let mut acc = d.b.data[o];
        let mut met = false;
        for i in 0..in_n {
            let p = row[i] * x[i];
            met |= acc.is_nan() && p.is_nan();
            acc += p;
        }
        y.push(acc);
        nan_met.push(met);
    }
    (y, nan_met)
}

/// splitmix64: a tiny deterministic stream for the values of one case.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A finite value in [-2, 2), or one of ±0.0 / ±inf with the given
    /// per-mille odds.
    fn value(&mut self, zero_pm: u64, inf_pm: u64) -> f32 {
        let r = self.next();
        let pick = r % 1000;
        let neg = (r >> 20) & 1 == 1;
        if pick < zero_pm {
            if neg {
                -0.0
            } else {
                0.0
            }
        } else if pick < zero_pm + inf_pm {
            if neg {
                f32::NEG_INFINITY
            } else {
                f32::INFINITY
            }
        } else {
            ((r >> 32) as f32 / u32::MAX as f32) * 4.0 - 2.0
        }
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn dense_infer_is_bitwise_the_per_row_loop(
        in_n in 1usize..300,
        out_n in 1usize..42,
        seed in any::<u64>(),
        specials in any::<bool>(),
        with_nan in any::<bool>(),
        nan_at in any::<usize>(),
    ) {
        let mut mix = Mix(seed);
        let (zero_pm, inf_pm) = if specials { (120, 15) } else { (0, 0) };
        let mut d = Dense::new(in_n, out_n, seed);
        for v in d.w.data.iter_mut().chain(d.b.data.iter_mut()) {
            *v = mix.value(zero_pm, inf_pm);
        }
        let mut x: Vec<f32> = (0..in_n).map(|_| mix.value(zero_pm, inf_pm)).collect();
        // At most one NaN input: one NaN source per output element, besides
        // the NaNs that inf · 0 and inf − inf make.
        if with_nan {
            x[nan_at % in_n] = f32::NAN;
        }
        let (want, nan_met) = dense_oracle(&d, &x);
        let x = Tensor::from_vec(&[in_n], x);

        // `out` arrives holding another shape's stale values.
        let mut out = Tensor::full(&[out_n + 3], f32::NAN);
        d.infer(&x, &mut out);
        prop_assert_eq!(out.len(), out_n);
        for o in 0..out_n {
            if nan_met[o] {
                prop_assert!(out.data[o].is_nan(), "row {}: {} is not NaN", o, out.data[o]);
            } else {
                prop_assert_eq!(
                    out.data[o].to_bits(),
                    want[o].to_bits(),
                    "row {} of {}x{}: {} vs {}", o, out_n, in_n, out.data[o], want[o]
                );
            }
        }
    }
}

/// Every output count from 1 to 25 (each remainder of a block of 8, and
/// whole blocks) against the per-row loop, values finite and signed zeros
/// included, so a kernel that mishandles the final partial block fails.
#[test]
fn dense_partial_row_blocks_are_bitwise_the_per_row_loop() {
    let mut out = Tensor::default();
    for out_n in 1..=25 {
        for in_n in [1usize, 7, 64, 256] {
            let mut mix = Mix((out_n * 1000 + in_n) as u64);
            let mut d = Dense::new(in_n, out_n, out_n as u64);
            for v in d.w.data.iter_mut().chain(d.b.data.iter_mut()) {
                *v = mix.value(100, 0);
            }
            let x: Vec<f32> = (0..in_n).map(|_| mix.value(100, 0)).collect();
            let (want, _) = dense_oracle(&d, &x);
            d.infer(&Tensor::from_vec(&[in_n], x), &mut out);
            assert_eq!(bits(&out.data), bits(&want), "{out_n} rows of {in_n} inputs");
        }
    }
}
