//! Model configuration.

use crate::forcing::Scenario;
use gridded::Grid;

/// Configuration of a coupled run.
#[derive(Debug, Clone)]
pub struct EsmConfig {
    /// Horizontal grid shared by both components.
    pub grid: Grid,
    /// Output timesteps per day (the paper's files hold 4 × 6-hourly).
    pub timesteps_per_day: usize,
    /// Days per simulated year (365 in production; tests shrink it).
    pub days_per_year: usize,
    /// First simulated year.
    pub start_year: i32,
    /// Greenhouse-gas scenario driving the projection.
    pub scenario: Scenario,
    /// Master RNG seed: equal seeds reproduce bit-identical runs.
    pub seed: u64,
    /// Atmosphere–ocean flux exchanges per output timestep ("every few
    /// minutes" in the paper; each output step spans several couplings).
    pub couplings_per_step: usize,
    /// Expected tropical-cyclone geneses per year (global).
    pub tc_per_year: f64,
    /// Expected heat-wave events per year (global).
    pub heatwaves_per_year: f64,
    /// Expected cold-spell events per year (global).
    pub coldspells_per_year: f64,
}

impl EsmConfig {
    /// Small geometry for tests and examples: 48 × 72 global grid,
    /// shortened year.
    pub fn test_small() -> Self {
        EsmConfig {
            grid: Grid::test_small(),
            timesteps_per_day: 4,
            days_per_year: 36,
            start_year: 2030,
            scenario: Scenario::Ssp245,
            seed: 42,
            couplings_per_step: 4,
            tc_per_year: 10.0,
            heatwaves_per_year: 8.0,
            coldspells_per_year: 6.0,
        }
    }

    /// Builder: override the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: override the scenario.
    pub fn with_scenario(mut self, s: Scenario) -> Self {
        self.scenario = s;
        self
    }

    /// Builder: override the year length.
    pub fn with_days_per_year(mut self, d: usize) -> Self {
        self.days_per_year = d;
        self
    }

    /// Builder: override the grid.
    pub fn with_grid(mut self, g: Grid) -> Self {
        self.grid = g;
        self
    }

    /// Day-of-year (0-based) → fractional season phase in `[0, 1)`.
    pub fn season_phase(&self, day: usize) -> f64 {
        day as f64 / self.days_per_year as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_override_fields() {
        let c = EsmConfig::test_small()
            .with_seed(7)
            .with_scenario(Scenario::Historical)
            .with_days_per_year(10);
        assert_eq!(c.seed, 7);
        assert_eq!(c.scenario, Scenario::Historical);
        assert_eq!(c.days_per_year, 10);
    }

    #[test]
    fn season_phase_spans_unit_interval() {
        let c = EsmConfig::test_small();
        assert_eq!(c.season_phase(0), 0.0);
        assert!(c.season_phase(c.days_per_year - 1) < 1.0);
        assert!((c.season_phase(c.days_per_year / 2) - 0.5).abs() < 0.03);
    }
}
