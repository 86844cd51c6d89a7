//! CNN-based tropical-cyclone localization.
//!
//! Section 5.4's pipeline, end to end: (i) post-process the model fields
//! (regrid, tile into non-overlapping patches, feature-scale), (ii) infer
//! with a pre-trained CNN that outputs `[presence, center-y, center-x]`
//! per patch, (iii) geo-reference predicted centers back onto the global
//! map. The CNN is genuinely trained (on the synthetic labelled vortex
//! patches of `tinyml::data`, standing in for the historical reanalysis
//! the authors used) and serialized, so the workflow's inference tasks
//! load a *pre-trained* model exactly as the paper describes.

use gridded::{Field2, TileSpec, Tiling, ZScoreScaler};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use tinyml::data::{generate_patches, PatchGenConfig, PatchSample};
use tinyml::layers::{Conv2d, Dense, Flatten, MaxPool2d, ReLU, Sigmoid};
use tinyml::loss::detection_loss;
use tinyml::net::{Scratch, Sequential};
use tinyml::serialize::{load_model, save_model, ModelError};
use tinyml::tensor::Tensor;
use tinyml::train::{train_epoch, Sgd};

/// Tiles [`TcCnn::localize`] scores at once, one per sample lane of the
/// forward kernels.
const BLOCK: usize = 8;

/// A CNN-predicted cyclone center.
#[derive(Debug, Clone, Copy)]
pub struct CnnDetection {
    pub lat: f64,
    pub lon: f64,
    /// Detection confidence in `[0, 1]`.
    pub confidence: f32,
    /// Tile coordinates `(row, col)` the prediction came from.
    pub tile: (usize, usize),
}

/// One timestep of the four input fields.
#[derive(Debug, Clone)]
pub struct FieldSet {
    pub psl: Field2,
    pub wind: Field2,
    pub tas: Field2,
    pub vort: Field2,
}

impl FieldSet {
    /// Bilinearly regrids all four fields onto `grid` (the paper's
    /// "regridding the CMCC-CM3 file" preprocessing step).
    pub fn regrid(&self, grid: &gridded::Grid) -> FieldSet {
        FieldSet {
            psl: gridded::regrid_bilinear(&self.psl, grid),
            wind: gridded::regrid_bilinear(&self.wind, grid),
            tas: gridded::regrid_bilinear(&self.tas, grid),
            vort: gridded::regrid_bilinear(&self.vort, grid),
        }
    }

    /// Extracts the 4-channel tensor of tile `(r, c)`.
    fn tile(&self, tiling: &Tiling, r: usize, c: usize) -> Tensor {
        let p = tiling.patch;
        let mut data = Vec::with_capacity(4 * p * p);
        data.extend(tiling.extract(&self.psl, r, c));
        data.extend(tiling.extract(&self.wind, r, c));
        data.extend(tiling.extract(&self.tas, r, c));
        data.extend(tiling.extract(&self.vort, r, c));
        Tensor::from_vec(&[4, p, p], data)
    }
}

/// The analysis grid for CNN tiling: a global grid whose cell size puts a
/// vortex of `vortex_radius_deg` at ~3.5 patch pixels (the scale the
/// synthetic training distribution uses), with dimensions rounded up to
/// multiples of `patch` so the tiling is exact.
pub fn analysis_grid(vortex_radius_deg: f64, patch: usize) -> gridded::Grid {
    let pixel_deg = (vortex_radius_deg / 3.5).max(0.25);
    let round_up = |n: usize| n.div_ceil(patch) * patch;
    let nlat = round_up(((180.0 / pixel_deg).round() as usize).max(patch));
    gridded::Grid::global(nlat, 2 * nlat)
}

/// Builds a labelled patch dataset from real (simulated-climate) fields
/// with known cyclone centers — the reproduction's equivalent of training
/// on historical reanalysis labelled with observed tracks. Each timestep
/// contributes every tile containing a truth center as a positive sample
/// (label = normalized in-tile center position) plus `negatives_per_positive`
/// randomly chosen cyclone-free tiles.
pub fn extract_labeled_patches(
    steps: &[(FieldSet, Vec<(f64, f64)>)],
    patch: usize,
    negatives_per_positive: usize,
    seed: u64,
) -> Vec<PatchSample> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    for (fields, centers) in steps {
        let tiling = Tiling::plan(fields.psl.grid.clone(), TileSpec { patch });
        if tiling.is_empty() {
            continue;
        }
        let mut positive_tiles = Vec::new();
        for &(lat, lon) in centers {
            let i = fields.psl.grid.lat_index(lat);
            let j = fields.psl.grid.lon_index(lon);
            if let Some((r, c, pi, pj)) = tiling.locate(i, j) {
                positive_tiles.push((r, c));
                let target = Tensor::from_vec(
                    &[3],
                    vec![1.0, (pi as f32 + 0.5) / patch as f32, (pj as f32 + 0.5) / patch as f32],
                );
                out.push((fields.tile(&tiling, r, c), target));
            }
        }
        // Negatives only from timesteps that contributed positives, keeping
        // the class balance exactly `negatives_per_positive`:1.
        let n_neg = positive_tiles.len() * negatives_per_positive;
        let mut tries = 0;
        let mut taken = 0;
        while taken < n_neg && tries < n_neg * 20 {
            tries += 1;
            let r = rng.gen_range(0..tiling.rows);
            let c = rng.gen_range(0..tiling.cols);
            if positive_tiles.contains(&(r, c)) {
                continue;
            }
            out.push((fields.tile(&tiling, r, c), Tensor::from_vec(&[3], vec![0.0, 0.0, 0.0])));
            taken += 1;
        }
    }
    out
}

/// The localization model: a small convolutional network over 4-channel
/// patches (`psl`, `wind`, `tas`, `vort`), each patch standardized
/// per-channel before inference. Inference is `&self` and serial inside a
/// block of tiles, so one loaded model serves every thread of the process.
pub struct TcCnn {
    net: Sequential,
    /// Patch edge length in cells.
    pub patch: usize,
    /// Detection threshold on the presence output.
    pub threshold: f32,
}

impl TcCnn {
    /// Builds the architecture for a given patch size, a multiple of 4
    /// (the two 2 × 2 pools must tile it exactly).
    pub fn new(patch: usize, seed: u64) -> Self {
        assert!(patch.is_multiple_of(4), "patch size must be divisible by 4 (two pools)");
        let after_pool = patch / 4;
        let net = Sequential::new()
            .add(Conv2d::new(4, 8, 3, 1, seed))
            .add(ReLU::new())
            .add(MaxPool2d::new(2))
            .add(Conv2d::new(8, 16, 3, 1, seed + 1))
            .add(ReLU::new())
            .add(MaxPool2d::new(2))
            .add(Flatten::new())
            .add(Dense::new(16 * after_pool * after_pool, 48, seed + 2))
            .add(ReLU::new())
            .add(Dense::new(48, 3, seed + 3))
            .add(Sigmoid::new());
        TcCnn { net, patch, threshold: 0.5 }
    }

    /// Standardizes a 4-channel patch per channel (the "feature scaling"
    /// step; scale-free, so it transfers between training units and
    /// physical model units).
    pub fn standardize(patch: &mut Tensor) {
        assert_eq!(patch.rank(), 3);
        let (h, w) = (patch.shape[1], patch.shape[2]);
        let plane = h * w;
        for c in 0..patch.shape[0] {
            let slice = &mut patch.data[c * plane..(c + 1) * plane];
            let scaler = ZScoreScaler::fit(slice);
            scaler.apply_slice(slice);
        }
    }

    /// Trains on synthetic labelled vortex patches. Returns the final
    /// epoch's mean composite loss.
    pub fn train_synthetic(&mut self, samples: usize, epochs: usize, seed: u64) -> f32 {
        let cfg = PatchGenConfig { size: self.patch, positive_fraction: 0.5, noise: 0.3 };
        let data = generate_patches(&cfg, samples, seed);
        self.train_on(data, epochs, 0.05)
    }

    /// Trains on an arbitrary labelled patch set (patches are standardized
    /// in place here, so pass raw extractions). Returns the final epoch's
    /// mean composite loss (the mean of its minibatch means).
    pub fn train_on(&mut self, mut data: Vec<PatchSample>, epochs: usize, lr: f32) -> f32 {
        for (x, _) in &mut data {
            Self::standardize(x);
        }
        // Deterministic shuffle: extraction order groups samples by
        // timestep, which correlates minibatches and destabilizes SGD.
        let mut rng = StdRng::seed_from_u64(0x5AFF1E);
        for i in (1..data.len()).rev() {
            data.swap(i, rng.gen_range(0..=i));
        }
        let mut opt = Sgd::new(lr, 0.9);
        let loss_fn = |y: &Tensor, t: &Tensor| {
            let (loss, gprob, gxy) = detection_loss(
                y.data[0],
                (y.data[1], y.data[2]),
                t.data[0],
                (t.data[1], t.data[2]),
                4.0,
            );
            (loss, Tensor::from_vec(&[3], vec![gprob, gxy.0, gxy.1]))
        };
        let mut last = f32::NAN;
        for _ in 0..epochs {
            last = train_epoch(&mut self.net, &mut opt, &data, 16, loss_fn).mean_loss;
        }
        last
    }

    /// Runs the model on one standardized patch, returning
    /// `(presence probability, cy, cx)` in normalized patch coordinates.
    pub fn infer_patch(&self, patch: &Tensor) -> (f32, f32, f32) {
        let mut scratch = Scratch::default();
        let y = self.net.infer(patch, &mut scratch);
        (y.data[0], y.data[1], y.data[2])
    }

    /// The full localization pipeline on one timestep of model fields:
    /// tile → standardize → infer → geo-reference. All fields must share a
    /// grid; the tiling drops partial edge tiles (as the paper's regrid
    /// step guarantees divisibility, callers regrid first when needed).
    /// Tiles are standardized one at a time and scored [`BLOCK`] at a time,
    /// in row-major order, through one patch buffer, one block buffer and
    /// one pair of activation buffers, so nothing is allocated per tile. A
    /// short last block repeats its last tile in the spare lanes and drops
    /// their results. Every tile's outputs are bitwise those of
    /// [`TcCnn::infer_patch`] on it alone.
    fn localize(
        &self,
        psl: &Field2,
        wind: &Field2,
        tas: &Field2,
        vort: &Field2,
    ) -> Vec<CnnDetection> {
        let tiling = Tiling::plan(psl.grid.clone(), TileSpec { patch: self.patch });
        let cells = self.patch * self.patch;
        let mut patch = Tensor::full(&[4, self.patch, self.patch], 0.0);
        let mut block = Tensor::full(&[4, self.patch, self.patch, BLOCK], 0.0);
        let mut scratch = Scratch::default();
        let mut out = Vec::new();
        let tiles = tiling.rows * tiling.cols;
        for first in (0..tiles).step_by(BLOCK) {
            let live = BLOCK.min(tiles - first);
            for lane in 0..live {
                let (r, c) = ((first + lane) / tiling.cols, (first + lane) % tiling.cols);
                for (field, plane) in
                    [psl, wind, tas, vort].into_iter().zip(patch.data.chunks_mut(cells))
                {
                    tiling.extract_into(field, r, c, plane);
                }
                Self::standardize(&mut patch);
                let lanes = if lane + 1 == live { lane..BLOCK } else { lane..lane + 1 };
                for (&v, samples) in patch.data.iter().zip(block.data.chunks_exact_mut(BLOCK)) {
                    samples[lanes.clone()].fill(v);
                }
            }
            let y = self.net.infer_block::<BLOCK>(&block, &mut scratch);
            for lane in 0..live {
                let p = y.data[lane];
                if p > self.threshold {
                    let (r, c) = ((first + lane) / tiling.cols, (first + lane) % tiling.cols);
                    let pixel = |v: f32| ((v * self.patch as f32) as usize).min(self.patch - 1);
                    let (py, px) = (pixel(y.data[BLOCK + lane]), pixel(y.data[2 * BLOCK + lane]));
                    let (lat, lon) = tiling.to_latlon(r, c, py, px);
                    out.push(CnnDetection { lat, lon, confidence: p, tile: (r, c) });
                }
            }
        }
        out
    }

    /// The localization pipeline (tile → standardize → infer →
    /// geo-reference) on one timestep's [`FieldSet`].
    pub fn localize_set(&self, set: &FieldSet) -> Vec<CnnDetection> {
        self.localize(&set.psl, &set.wind, &set.tas, &set.vort)
    }

    /// Saves the trained model.
    pub fn save(&self, path: &Path) -> Result<(), ModelError> {
        save_model(&self.net, path)
    }

    /// Loads a previously trained model into a matching architecture.
    pub fn load(patch: usize, path: &Path) -> Result<Self, ModelError> {
        let mut model = TcCnn::new(patch, 0);
        load_model(&mut model.net, path)?;
        Ok(model)
    }

    /// Trainable parameter count (diagnostics).
    pub fn param_count(&self) -> usize {
        self.net.param_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl TcCnn {
        /// Classification accuracy + mean localization error (in pixels, on
        /// true positives) over a labelled evaluation set.
        fn evaluate(&self, samples: usize, seed: u64) -> (f64, f64) {
            let cfg = PatchGenConfig { size: self.patch, positive_fraction: 0.5, noise: 0.3 };
            let mut data = generate_patches(&cfg, samples, seed);
            let mut correct = 0usize;
            let mut err_px = 0.0f64;
            let mut positives = 0usize;
            for (x, t) in &mut data {
                Self::standardize(x);
                let (p, cy, cx) = self.infer_patch(x);
                let predicted = p > self.threshold;
                let actual = t.data[0] > 0.5;
                if predicted == actual {
                    correct += 1;
                }
                if actual {
                    positives += 1;
                    let s = self.patch as f32;
                    let dy = (cy - t.data[1]) * s;
                    let dx = (cx - t.data[2]) * s;
                    err_px += ((dy * dy + dx * dx) as f64).sqrt();
                }
            }
            (
                correct as f64 / samples as f64,
                if positives > 0 { err_px / positives as f64 } else { f64::NAN },
            )
        }
    }

    /// One shared trained model for the expensive tests.
    fn trained() -> TcCnn {
        let mut m = TcCnn::new(16, 7);
        m.train_synthetic(240, 12, 100);
        m
    }

    #[test]
    fn training_reduces_loss() {
        let mut m = TcCnn::new(16, 3);
        let first = m.train_synthetic(120, 1, 5);
        let later = m.train_synthetic(120, 10, 5);
        assert!(later < first, "loss should fall: {first} -> {later}");
    }

    #[test]
    fn trained_model_classifies_and_localizes() {
        let m = trained();
        // Held-out seed.
        let (acc, err) = m.evaluate(120, 999);
        assert!(acc > 0.8, "held-out accuracy {acc}");
        assert!(err < 4.0, "mean center error {err} px on 16px patches");
    }

    #[test]
    fn untrained_model_is_near_chance() {
        let m = TcCnn::new(16, 11);
        let (acc, _) = m.evaluate(100, 999);
        assert!(acc < 0.75, "untrained accuracy {acc} suspiciously high");
    }

    #[test]
    fn standardize_zero_means_unit_vars() {
        let mut p = Tensor::uniform(&[4, 8, 8], 5.0, 3);
        for v in &mut p.data[..64] {
            *v += 100.0; // strong channel offset
        }
        TcCnn::standardize(&mut p);
        for c in 0..4 {
            let ch = &p.data[c * 64..(c + 1) * 64];
            let mean: f32 = ch.iter().sum::<f32>() / 64.0;
            assert!(mean.abs() < 1e-3, "channel {c} mean {mean}");
        }
    }

    #[test]
    fn save_load_roundtrip_preserves_predictions() {
        let dir = std::env::temp_dir().join("extremes-cnn");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("tc.tml");
        let m = trained();
        m.save(&path).unwrap();
        let loaded = TcCnn::load(16, &path).unwrap();
        let cfg = PatchGenConfig { size: 16, ..Default::default() };
        let mut sample = generate_patches(&cfg, 1, 5)[0].0.clone();
        TcCnn::standardize(&mut sample);
        let a = m.infer_patch(&sample);
        let b = loaded.infer_patch(&sample);
        assert_eq!(a, b);
    }

    #[test]
    fn localize_finds_planted_vortex_and_georeferences() {
        use gridded::Grid;
        let m = trained();
        // 64x64 global grid = 4x4 tiles of 16. Plant one vortex mid-tile.
        let g = Grid::global(64, 64);
        let mut psl = Field2::constant(g.clone(), 0.0);
        let mut wind = Field2::constant(g.clone(), 0.0);
        let mut tas = Field2::constant(g.clone(), 0.0);
        let mut vort = Field2::constant(g.clone(), 0.0);
        // Mild background noise.
        let mut rng_state = 12345u64;
        let mut noise = || {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            ((rng_state >> 33) as f32 / (1u64 << 31) as f32 - 0.5) * 0.5
        };
        for idx in 0..g.len() {
            psl.data[idx] = noise();
            wind.data[idx] = noise();
            tas.data[idx] = noise();
            vort.data[idx] = noise();
        }
        // Vortex at grid cell (24, 40) => tile (1, 2), pixel (8, 8).
        let (ci, cj) = (24usize, 40usize);
        for i in 0..g.nlat {
            for j in 0..g.nlon {
                let dy = i as f32 - ci as f32;
                let dx = j as f32 - cj as f32;
                let r = (dy * dy + dx * dx).sqrt();
                let rn = r / 3.5;
                if rn < 4.0 {
                    psl.data[g.index(i, j)] -= (-rn * rn).exp();
                    wind.data[g.index(i, j)] += 1.65 * rn * (-rn * rn / 2.0).exp();
                    tas.data[g.index(i, j)] += 0.6 * (-rn * rn).exp();
                    vort.data[g.index(i, j)] += (-rn * rn).exp();
                }
            }
        }
        let dets = m.localize(&psl, &wind, &tas, &vort);
        assert!(
            dets.iter().any(|d| d.tile == (1, 2)),
            "vortex tile not flagged; detections: {dets:?}"
        );
        // The flagged center must geo-reference near the planted cell.
        let best = dets.iter().find(|d| d.tile == (1, 2)).unwrap();
        let err = Grid::distance_km(best.lat, best.lon, g.lat(ci), g.lon(cj));
        assert!(err < 2500.0, "geo-referencing error {err} km");
        // And the quiet corner tile should not fire.
        assert!(
            dets.iter().filter(|d| d.tile == (3, 3)).count() == 0,
            "false positive in quiet tile"
        );
    }

    /// One loaded model is shared by every scoring thread.
    #[test]
    fn model_is_shared_across_threads() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<TcCnn>();
    }

    /// `localize` (tiles scored [`BLOCK`] at a time through reused
    /// buffers) equals the per-patch oracle — `FieldSet::tile` →
    /// `standardize` → `Sequential::infer` into a fresh `Scratch` per tile —
    /// in every detection's bits, on random fields with a NaN cell and a
    /// constant tile thrown in. The grids have 15 tiles (a full block and a
    /// short one), 1 tile (a block of one live lane) and 16 tiles (two full
    /// blocks).
    #[test]
    fn localize_is_bitwise_the_per_patch_oracle() {
        let mut m = TcCnn::new(16, 21);
        m.train_synthetic(60, 2, 4);
        // Fire on most tiles, so the comparison covers more than a few.
        m.threshold = 0.05;
        let mut state = 0x2545F4914F6CDD1Du64;
        for (nlat, nlon) in [(48, 80), (16, 16), (64, 64)] {
            let grid = gridded::Grid::global(nlat, nlon);
            let mut field = |scale: f32| {
                let data = (0..grid.len())
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        ((state >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * scale
                    })
                    .collect();
                Field2::from_vec(grid.clone(), data)
            };
            let mut set = FieldSet {
                psl: field(900.0),
                wind: field(30.0),
                tas: field(12.0),
                vort: field(1e-3),
            };
            let tiling = Tiling::plan(grid.clone(), TileSpec { patch: m.patch });
            set.tas.data[5] = f32::NAN;
            let (tr, tc) = (tiling.rows / 2, tiling.cols / 2);
            for i in 16 * tr..16 * (tr + 1) {
                set.vort.data[i * grid.nlon + 16 * tc..][..16].fill(0.25);
            }

            let mut want = Vec::new();
            for r in 0..tiling.rows {
                for c in 0..tiling.cols {
                    let mut patch = set.tile(&tiling, r, c);
                    TcCnn::standardize(&mut patch);
                    let y = m.net.infer(&patch, &mut Scratch::default()).clone();
                    if y.data[0] > m.threshold {
                        let pixel = |v: f32| ((v * m.patch as f32) as usize).min(m.patch - 1);
                        let (lat, lon) = tiling.to_latlon(r, c, pixel(y.data[1]), pixel(y.data[2]));
                        want.push((lat.to_bits(), lon.to_bits(), y.data[0].to_bits(), (r, c)));
                    }
                }
            }
            let got: Vec<_> = m
                .localize_set(&set)
                .iter()
                .map(|d| (d.lat.to_bits(), d.lon.to_bits(), d.confidence.to_bits(), d.tile))
                .collect();
            let tiles = tiling.rows * tiling.cols;
            assert!(
                want.len() >= tiles.min(4),
                "{nlat}x{nlon}: only {} of {tiles} tiles fired; the comparison needs some",
                want.len()
            );
            assert_eq!(got, want, "{nlat}x{nlon} grid, {tiles} tiles");
        }
    }

    #[test]
    fn architecture_has_reasonable_size() {
        let m = TcCnn::new(16, 0);
        let n = m.param_count();
        assert!(n > 10_000 && n < 100_000, "param count {n}");
    }
}
