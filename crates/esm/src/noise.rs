//! Spatially-coherent AR(1) weather noise.
//!
//! White noise per cell looks nothing like weather; real synoptic
//! variability is correlated over ~1000 km and persists for days. The
//! generator draws white noise on a coarse grid, upsamples it bilinearly
//! (spatial coherence), and evolves it as an AR(1) process in time
//! (temporal persistence).

use gridded::{regrid_bilinear, Field2, Grid};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Stateful weather-noise generator for one variable.
pub struct WeatherNoise {
    grid: Grid,
    coarse: Grid,
    /// Lag-1 autocorrelation per step.
    rho: f32,
    /// Standard deviation of the stationary process.
    sigma: f32,
    state: Field2,
    rng: StdRng,
}

impl WeatherNoise {
    /// Creates a generator on `grid` with decorrelation factor `factor`
    /// (higher = smoother fields), AR(1) coefficient `rho` and stationary
    /// standard deviation `sigma`.
    pub fn new(grid: Grid, factor: usize, rho: f32, sigma: f32, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&rho), "rho must be in [0, 1)");
        let coarse = Grid {
            nlat: (grid.nlat / factor.max(1)).max(2),
            nlon: (grid.nlon / factor.max(1)).max(2),
            ..grid
        };
        let mut gen = WeatherNoise {
            state: Field2::constant(grid.clone(), 0.0),
            grid,
            coarse,
            rho,
            sigma,
            rng: StdRng::seed_from_u64(seed),
        };
        // Spin up: initialize from the stationary distribution.
        gen.state = gen.fresh(1.0);
        gen
    }

    /// One fresh coherent field with the given standard deviation.
    fn fresh(&mut self, sd: f32) -> Field2 {
        let mut coarse = Field2::constant(self.coarse.clone(), 0.0);
        for v in &mut coarse.data {
            // Box–Muller-ish: sum of uniforms approximates a gaussian well
            // enough and avoids branch-heavy sampling in the hot loop.
            let s: f32 = (0..4).map(|_| self.rng.gen_range(-1.0f32..1.0)).sum();
            *v = s * 0.5 * sd * 1.732; // var(sum of 4 U(-1,1)) = 4/3
        }
        regrid_bilinear(&coarse, &self.grid)
    }

    /// Advances the process one step and returns the current field.
    pub fn step(&mut self) -> &Field2 {
        let innovation_sd = self.sigma * (1.0 - self.rho * self.rho).sqrt();
        let fresh = self.fresh(innovation_sd);
        let rho = self.rho;
        for (s, f) in self.state.data.iter_mut().zip(&fresh.data) {
            *s = rho * *s + f;
        }
        &self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn make(seed: u64) -> WeatherNoise {
        WeatherNoise::new(Grid::test_small(), 6, 0.8, 2.0, seed)
    }

    /// Population covariance of two equal-length samples (the variance
    /// when both are the same sample).
    fn cov(a: &[f32], b: &[f32]) -> f64 {
        let n = a.len() as f64;
        let mean = |x: &[f32]| x.iter().map(|&v| v as f64).sum::<f64>() / n;
        let (ma, mb) = (mean(a), mean(b));
        a.iter().zip(b).map(|(&x, &y)| (x as f64 - ma) * (y as f64 - mb)).sum::<f64>() / n
    }

    fn pearson(a: &[f32], b: &[f32]) -> f64 {
        cov(a, b) / (cov(a, a) * cov(b, b)).sqrt()
    }

    #[test]
    fn deterministic_under_seed() {
        let mut a = make(5);
        let mut b = make(5);
        for _ in 0..3 {
            assert_eq!(a.step().data, b.step().data);
        }
        let mut c = make(6);
        assert_ne!(a.step().data, c.step().data);
    }

    #[test]
    fn stationary_variance_is_roughly_sigma() {
        let mut g = make(11);
        // Let the AR(1) process mix, then pool variance over steps.
        for _ in 0..20 {
            g.step();
        }
        let mut pooled = Vec::new();
        for _ in 0..30 {
            pooled.extend_from_slice(&g.step().data);
        }
        let sd = cov(&pooled, &pooled).sqrt();
        assert!((1.0..3.5).contains(&sd), "stationary sd {sd}, wanted ~2");
    }

    #[test]
    fn temporal_persistence() {
        let mut g = make(13);
        for _ in 0..10 {
            g.step();
        }
        let a = g.state.data.clone();
        let b = g.step().data.clone();
        let corr = pearson(&a, &b);
        assert!(corr > 0.5, "lag-1 correlation {corr} too low for rho=0.8");
    }

    #[test]
    fn spatial_coherence() {
        // Neighbouring cells must correlate strongly; distant cells less.
        let mut g = make(17);
        let mut near = Vec::new();
        let mut pairs_a = Vec::new();
        let mut pairs_b = Vec::new();
        for _ in 0..40 {
            let f = g.step();
            let gr = &f.grid;
            near.push((f.get(gr.nlat / 2, 10), f.get(gr.nlat / 2, 11)));
            pairs_a.push(f.get(gr.nlat / 2, 10));
            pairs_b.push(f.get(gr.nlat / 2, gr.nlon / 2 + 10));
        }
        let a: Vec<f32> = near.iter().map(|p| p.0).collect();
        let b: Vec<f32> = near.iter().map(|p| p.1).collect();
        let c_near = pearson(&a, &b);
        let c_far = pearson(&pairs_a, &pairs_b);
        assert!(c_near > 0.8, "adjacent-cell correlation {c_near}");
        assert!(c_far < c_near, "far correlation {c_far} should be below near {c_near}");
    }

    #[test]
    fn mean_is_near_zero() {
        let mut g = make(23);
        let mut sum = 0.0f64;
        let mut n = 0usize;
        for _ in 0..20 {
            let f = g.step();
            sum += f.data.iter().map(|&v| v as f64).sum::<f64>();
            n += f.data.len();
        }
        let mean = sum / n as f64;
        assert!(mean.abs() < 0.3, "noise mean {mean} should be ~0");
    }
}
