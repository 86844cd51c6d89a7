//! The flux coupler.
//!
//! "Every few minutes the heat, momentum and mass fluxes are sent from the
//! atmosphere to the ocean and the sea surface temperature, the sea ice
//! cover and the surface velocities are sent from the ocean to the
//! atmosphere" (Section 4.2.3). The coupler implements that contract:
//! between output timesteps it runs `couplings_per_step` exchange cycles,
//! accumulating bulk-formula heat flux into the ocean and handing the
//! updated SST/ice back to the atmosphere, while keeping exchange
//! statistics for introspection.

use crate::atmos::Atmosphere;
use crate::ocean::Ocean;
use gridded::Field2;

/// Exchange statistics (one record per exchange cycle family).
#[derive(Debug, Default, Clone, Copy)]
pub struct CouplerStats {
    /// Total atmosphere→ocean exchange cycles executed.
    pub a2o_exchanges: u64,
    /// Total ocean→atmosphere exchange cycles executed.
    pub o2a_exchanges: u64,
    /// Net heat transferred to the ocean (K-equivalent, summed field mean).
    pub net_heat_to_ocean: f64,
}

/// The coupler between the two components.
#[derive(Default)]
pub struct Coupler {
    pub stats: CouplerStats,
}

/// Bulk heat-transfer coefficient per exchange (K of SST change per K of
/// air–sea temperature difference, per coupling cycle).
const HEAT_EXCHANGE_COEFF: f32 = 0.002;

impl Coupler {
    /// Creates a coupler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `cycles` flux-exchange cycles between components, then returns
    /// the SST field the atmosphere should see at the next step.
    pub fn exchange(&mut self, atmos: &Atmosphere, ocean: &mut Ocean, cycles: usize) -> Field2 {
        // Atmosphere -> ocean: bulk heat flux proportional to the air–sea
        // temperature difference, suppressed under ice.
        let mut delta = Field2::constant(ocean.grid.clone(), 0.0);
        for idx in 0..delta.data.len() {
            let open_water = 1.0 - ocean.ice.data[idx];
            let dt = atmos.tas.data[idx] - ocean.sst.data[idx];
            delta.data[idx] = HEAT_EXCHANGE_COEFF * dt * open_water * cycles as f32;
        }
        ocean.absorb_flux(&delta);
        ocean.update_ice();
        self.stats.a2o_exchanges += cycles as u64;
        self.stats.net_heat_to_ocean += delta.mean() * cycles as f64 / cycles as f64;

        // Ocean -> atmosphere: SST (and implicitly ice) for the next step.
        self.stats.o2a_exchanges += cycles as u64;
        ocean.sst.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EsmConfig;
    use crate::events::YearEvents;

    fn setup() -> (EsmConfig, Atmosphere, Ocean, Coupler) {
        let cfg = EsmConfig::test_small();
        let atmos = Atmosphere::new(&cfg);
        let ocean = Ocean::new(&cfg);
        (cfg, atmos, ocean, Coupler::new())
    }

    #[test]
    fn exchange_counts_cycles() {
        let (cfg, mut atmos, mut ocean, mut coupler) = setup();
        let sst0 = ocean.sst.clone();
        let ev = YearEvents { year: 2030, thermal: vec![], tcs: vec![] };
        atmos.step(&cfg, 0, 0, 0.0, &sst0, &ev);
        coupler.exchange(&atmos, &mut ocean, cfg.couplings_per_step);
        assert_eq!(coupler.stats.a2o_exchanges, cfg.couplings_per_step as u64);
        assert_eq!(coupler.stats.o2a_exchanges, cfg.couplings_per_step as u64);
    }

    #[test]
    fn warm_air_heats_the_ocean() {
        let (_cfg, mut atmos, mut ocean, mut coupler) = setup();
        // Force a hot atmosphere everywhere.
        atmos.tas = Field2::constant(ocean.grid.clone(), 320.0);
        let before = ocean.sst.area_mean();
        coupler.exchange(&atmos, &mut ocean, 10);
        assert!(ocean.sst.area_mean() > before, "SST should rise under hot air");
    }

    #[test]
    fn ice_suppresses_exchange() {
        let (_cfg, mut atmos, mut ocean, mut coupler) = setup();
        atmos.tas = Field2::constant(ocean.grid.clone(), 320.0);
        // Fully ice-covered ocean: no flux.
        ocean.ice = Field2::constant(ocean.grid.clone(), 1.0);
        let before = ocean.sst.clone();
        coupler.exchange(&atmos, &mut ocean, 10);
        let max_change = ocean
            .sst
            .data
            .iter()
            .zip(&before.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f32, f32::max);
        assert!(max_change < 1e-5, "ice should block heat flux, saw {max_change}");
    }

    #[test]
    fn returned_sst_matches_ocean_state() {
        let (cfg, mut atmos, mut ocean, mut coupler) = setup();
        let ev = YearEvents { year: 2030, thermal: vec![], tcs: vec![] };
        atmos.step(&cfg, 0, 0, 0.0, &ocean.sst.clone(), &ev);
        let returned = coupler.exchange(&atmos, &mut ocean, 4);
        assert_eq!(returned.data, ocean.sst.data);
    }

    #[test]
    fn more_cycles_move_more_heat() {
        let (_cfg, mut atmos, _, _) = setup();
        atmos.tas = Field2::constant(atmos.grid.clone(), 320.0);
        let run = |cycles: usize| {
            let cfg = EsmConfig::test_small();
            let mut ocean = Ocean::new(&cfg);
            let mut coupler = Coupler::new();
            let before = ocean.sst.area_mean();
            coupler.exchange(&atmos, &mut ocean, cycles);
            ocean.sst.area_mean() - before
        };
        assert!(run(20) > run(2));
    }
}
