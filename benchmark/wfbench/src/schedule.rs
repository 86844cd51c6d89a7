//! Seeded open-loop arrival schedule.
//!
//! The schedule is a pure function of `(seed, phase)`: arrival times,
//! tenants, cube keys and which requests are identical (and may
//! therefore coalesce) are all drawn here, before the generator starts,
//! so the program only ever receives generated inputs.

/// splitmix64: small, seedable, good enough for traffic draws.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Index drawn with probability proportional to `weights`.
    pub fn weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().sum();
        let mut x = self.next_f64() * total;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Arrival {
    /// When the request is due, microseconds after the phase starts.
    pub due_us: u64,
    pub tenant: usize,
    pub cube: usize,
    /// Shared requests carry no per-request tag: two of them for the same
    /// cube are identical and coalesce while one is in flight.
    pub shared: bool,
}

/// Fraction of requests without a per-request tag.
pub const SHARED_FRACTION: f64 = 0.25;

/// Popularity of cube `k` is proportional to `1/(k+1)`: a few hot cubes
/// and a tail, so the working set is larger than what is usually hot.
pub fn zipf_weights(cubes: usize) -> Vec<f64> {
    (0..cubes).map(|k| 1.0 / (k as f64 + 1.0)).collect()
}

/// Exponential inter-arrival gaps at `rate_hz` over `duration_s`; tenants
/// drawn uniformly, cubes by [`zipf_weights`]. `phase` decorrelates the
/// phases of one run.
pub fn arrivals(
    seed: u64,
    phase: u64,
    rate_hz: f64,
    duration_s: f64,
    tenants: usize,
    cubes: usize,
) -> Vec<Arrival> {
    let mut rng = Rng::new(seed ^ phase.wrapping_mul(0xA076_1D64_78BD_642F));
    let uniform = vec![1.0; tenants.max(1)];
    let popularity = zipf_weights(cubes.max(1));
    let mut out = Vec::new();
    let mut t = 0.0f64;
    loop {
        t += -(1.0 - rng.next_f64()).ln() / rate_hz;
        if t >= duration_s {
            return out;
        }
        out.push(Arrival {
            due_us: (t * 1e6) as u64,
            tenant: rng.weighted(&uniform),
            cube: rng.weighted(&popularity),
            shared: rng.next_f64() < SHARED_FRACTION,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_different_seed_differs() {
        let a = arrivals(7, 1, 200.0, 2.0, 4, 6);
        let b = arrivals(7, 1, 200.0, 2.0, 4, 6);
        let c = arrivals(8, 1, 200.0, 2.0, 4, 6);
        let other_phase = arrivals(7, 2, 200.0, 2.0, 4, 6);
        assert_eq!(a, b, "arrival times, tenants and key draws repeat for a seed");
        assert_ne!(a, c);
        assert_ne!(a, other_phase);
    }

    #[test]
    fn schedule_has_the_requested_shape() {
        let a = arrivals(42, 1, 500.0, 8.0, 4, 6);
        let n = a.len() as f64;
        assert!((n - 4000.0).abs() < 4.0 * 4000f64.sqrt(), "Poisson count, got {n}");
        assert!(a.windows(2).all(|w| w[0].due_us <= w[1].due_us), "due times ascend");
        assert!(a.last().unwrap().due_us < 8_000_000);
        let shared = a.iter().filter(|r| r.shared).count() as f64 / n;
        assert!((shared - SHARED_FRACTION).abs() < 0.03, "shared fraction {shared}");
        let per_cube: Vec<usize> =
            (0..6).map(|k| a.iter().filter(|r| r.cube == k).count()).collect();
        assert!(per_cube.windows(2).all(|w| w[0] > w[1]), "popularity falls: {per_cube:?}");
        assert!(per_cube[5] > 0, "the tail is visited");
        for t in 0..4 {
            let share = a.iter().filter(|r| r.tenant == t).count() as f64 / n;
            assert!((share - 0.25).abs() < 0.03, "tenant {t} share {share}");
        }
    }
}
