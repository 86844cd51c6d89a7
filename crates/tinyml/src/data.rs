//! Synthetic labelled datasets.
//!
//! The paper trains its TC-localization CNN on historical reanalysis
//! labelled with observed cyclone tracks — data we do not have offline. This
//! module generates the closest synthetic equivalent: multi-channel patches
//! containing (or not) an idealized cyclone signature — a sea-level-pressure
//! depression, an annular wind maximum, a warm core and a vorticity blob —
//! at a known center, plus background weather noise. The generator matches
//! the structural signature the `esm` crate's event injector produces, so a
//! model trained here transfers to simulated model output.

use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One labelled patch: `(input [4, size, size], target [present, cy, cx])`
/// with `cy`/`cx` normalized to `[0, 1]` patch coordinates (0 when absent).
pub type PatchSample = (Tensor, Tensor);

/// Configuration for the synthetic cyclone-patch generator.
#[derive(Debug, Clone)]
pub struct PatchGenConfig {
    /// Patch edge length in pixels.
    pub size: usize,
    /// Fraction of samples that contain a cyclone.
    pub positive_fraction: f64,
    /// Background noise amplitude relative to the cyclone signal.
    pub noise: f32,
}

impl Default for PatchGenConfig {
    fn default() -> Self {
        PatchGenConfig { size: 16, positive_fraction: 0.5, noise: 0.25 }
    }
}

/// Writes an idealized cyclone signature centered at `(cy, cx)` (pixel
/// coordinates) into a 4-channel patch, additive over existing content.
/// `intensity` in `(0, 1]` scales the whole signature.
fn inject_cyclone(patch: &mut Tensor, cy: f32, cx: f32, intensity: f32) {
    assert_eq!(patch.rank(), 3);
    assert_eq!(patch.shape[0], 4);
    let (h, w) = (patch.shape[1], patch.shape[2]);
    let r_eye = 0.08 * h as f32; // eye radius
    let r_max = 0.22 * h as f32; // radius of maximum wind
    for y in 0..h {
        for x in 0..w {
            let dy = y as f32 - cy;
            let dx = x as f32 - cx;
            let r = (dy * dy + dx * dx).sqrt();
            // Pressure: deep gaussian depression.
            let psl = -intensity * (-(r / (1.8 * r_max)).powi(2)).exp();
            // Wind: annulus peaking at r_max, calm eye.
            let wind = intensity * (r / r_max) * (-(r / r_max).powi(2) / 2.0).exp() * 1.65;
            // Warm core: tighter gaussian.
            let temp = 0.6 * intensity * (-(r / (r_eye + r_max * 0.5)).powi(2)).exp();
            // Vorticity: same sign blob, slightly wider than the eye.
            let vort = intensity * (-(r / r_max).powi(2)).exp();
            *patch.at3_mut(0, y, x) += psl;
            *patch.at3_mut(1, y, x) += wind;
            *patch.at3_mut(2, y, x) += temp;
            *patch.at3_mut(3, y, x) += vort;
        }
    }
}

/// Generates `n` labelled patches with a deterministic RNG seed.
pub fn generate_patches(cfg: &PatchGenConfig, n: usize, seed: u64) -> Vec<PatchSample> {
    let mut rng = StdRng::seed_from_u64(seed);
    let s = cfg.size;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        // Smooth-ish background noise: white noise plus a random gradient.
        let mut patch = Tensor::full(&[4, s, s], 0.0);
        let gx: f32 = rng.gen_range(-0.3..0.3);
        let gy: f32 = rng.gen_range(-0.3..0.3);
        for c in 0..4 {
            for y in 0..s {
                for x in 0..s {
                    let grad = gx * x as f32 / s as f32 + gy * y as f32 / s as f32;
                    *patch.at3_mut(c, y, x) = grad + rng.gen_range(-cfg.noise..cfg.noise);
                }
            }
        }

        let positive = rng.gen_bool(cfg.positive_fraction);
        let target = if positive {
            // Keep centers away from the border so the full signature fits.
            let margin = (s as f32 * 0.2).max(2.0);
            let cy = rng.gen_range(margin..(s as f32 - margin));
            let cx = rng.gen_range(margin..(s as f32 - margin));
            let intensity = rng.gen_range(0.7..1.3);
            inject_cyclone(&mut patch, cy, cx, intensity);
            Tensor::from_vec(&[3], vec![1.0, cy / s as f32, cx / s as f32])
        } else {
            Tensor::from_vec(&[3], vec![0.0, 0.0, 0.0])
        };
        out.push((patch, target));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic() {
        let cfg = PatchGenConfig::default();
        let a = generate_patches(&cfg, 5, 42);
        let b = generate_patches(&cfg, 5, 42);
        for ((xa, ta), (xb, tb)) in a.iter().zip(&b) {
            assert_eq!(xa.data, xb.data);
            assert_eq!(ta.data, tb.data);
        }
        let c = generate_patches(&cfg, 5, 43);
        assert_ne!(a[0].0.data, c[0].0.data);
    }

    #[test]
    fn positive_fraction_respected() {
        let cfg = PatchGenConfig { positive_fraction: 1.0, ..Default::default() };
        let all = generate_patches(&cfg, 20, 1);
        assert!(all.iter().all(|(_, t)| t.data[0] == 1.0));
        let cfg = PatchGenConfig { positive_fraction: 0.0, ..Default::default() };
        let none = generate_patches(&cfg, 20, 1);
        assert!(none.iter().all(|(_, t)| t.data[0] == 0.0));
    }

    #[test]
    fn cyclone_signature_has_expected_structure() {
        let mut patch = Tensor::full(&[4, 32, 32], 0.0);
        inject_cyclone(&mut patch, 16.0, 16.0, 1.0);
        // Pressure minimum at the center.
        let mut min_pos = (0, 0);
        let mut min_val = f32::INFINITY;
        for y in 0..32 {
            for x in 0..32 {
                if patch.at3(0, y, x) < min_val {
                    min_val = patch.at3(0, y, x);
                    min_pos = (y, x);
                }
            }
        }
        assert_eq!(min_pos, (16, 16));
        assert!(min_val < -0.5);
        // Wind calm in the eye, stronger at radius of max wind.
        let eye_wind = patch.at3(1, 16, 16);
        let ring_wind = patch.at3(1, 16, 16 + 7);
        assert!(ring_wind > eye_wind + 0.3, "ring {ring_wind} vs eye {eye_wind}");
        // Warm core and positive vorticity at center.
        assert!(patch.at3(2, 16, 16) > 0.3);
        assert!(patch.at3(3, 16, 16) > 0.5);
    }

    #[test]
    fn labels_are_normalized_and_interior() {
        let cfg = PatchGenConfig { positive_fraction: 1.0, size: 24, ..Default::default() };
        for (_, t) in generate_patches(&cfg, 30, 7) {
            assert!(t.data[1] > 0.0 && t.data[1] < 1.0);
            assert!(t.data[2] > 0.0 && t.data[2] < 1.0);
        }
    }

    #[test]
    fn positive_patches_are_distinguishable_from_negative() {
        // The pressure-channel minimum should separate the two classes —
        // a sanity check that the learning problem is well-posed.
        let pos_cfg = PatchGenConfig { positive_fraction: 1.0, ..Default::default() };
        let neg_cfg = PatchGenConfig { positive_fraction: 0.0, ..Default::default() };
        let pos = generate_patches(&pos_cfg, 10, 3);
        let neg = generate_patches(&neg_cfg, 10, 3);
        let min_of = |t: &Tensor| {
            t.data[..t.shape[1] * t.shape[2]].iter().fold(f32::INFINITY, |m, &v| m.min(v))
        };
        let pos_mean: f32 = pos.iter().map(|(x, _)| min_of(x)).sum::<f32>() / 10.0;
        let neg_mean: f32 = neg.iter().map(|(x, _)| min_of(x)).sum::<f32>() / 10.0;
        assert!(pos_mean < neg_mean - 0.2, "pos {pos_mean} vs neg {neg_mean}");
    }
}
