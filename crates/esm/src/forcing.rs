//! Greenhouse-gas forcing scenarios.
//!
//! CMCC-CM3 evolves "without any external support except for the
//! greenhouse gases concentrations, that are provided year by year"
//! (Section 4.2.3). This module supplies those concentrations for a
//! historical reconstruction and two SSP-like projections, and converts
//! them to a global-mean warming offset through the standard logarithmic
//! CO₂ forcing (ΔF = 5.35 ln(C/C₀) W m⁻²) scaled by a transient climate
//! response.

/// Forcing scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Historical concentrations up to 2014 (held flat after).
    Historical,
    /// Middle-of-the-road projection (≈ SSP2-4.5).
    Ssp245,
    /// High-emission projection (≈ SSP5-8.5).
    Ssp585,
}

/// Pre-industrial reference CO₂ concentration (ppm).
pub const CO2_PREINDUSTRIAL: f64 = 280.0;

impl Scenario {
    /// CO₂-equivalent concentration for a calendar year, in ppm.
    /// Piecewise exponential/linear fits anchored at observed values
    /// (1850: 285, 2014: 397) and canonical end-of-century levels
    /// (SSP2-4.5 → ≈ 600 ppm, SSP5-8.5 → ≈ 1100 ppm by 2100).
    fn co2_ppm(self, year: i32) -> f64 {
        let y = year as f64;
        let historical = |y: f64| {
            // Exponential growth 1850 -> 2014.
            let t = ((y - 1850.0) / (2014.0 - 1850.0)).clamp(0.0, 1.0);
            285.0 * (397.0f64 / 285.0).powf(t)
        };
        match self {
            Scenario::Historical => historical(y.min(2014.0)),
            Scenario::Ssp245 => {
                if y <= 2014.0 {
                    historical(y)
                } else {
                    let t = ((y - 2014.0) / (2100.0 - 2014.0)).clamp(0.0, 1.5);
                    397.0 + (600.0 - 397.0) * t
                }
            }
            Scenario::Ssp585 => {
                if y <= 2014.0 {
                    historical(y)
                } else {
                    let t = ((y - 2014.0) / (2100.0 - 2014.0)).clamp(0.0, 1.5);
                    // Accelerating pathway.
                    397.0 + (1100.0 - 397.0) * t * t.max(0.4)
                }
            }
        }
    }

    /// Radiative forcing relative to pre-industrial, W m⁻².
    fn forcing_wm2(self, year: i32) -> f64 {
        5.35 * (self.co2_ppm(year) / CO2_PREINDUSTRIAL).ln()
    }

    /// Global-mean surface warming offset relative to pre-industrial, K.
    /// Uses a transient response of 0.5 K per W m⁻² (≈ TCR 1.8 K per CO₂
    /// doubling), adequate for a surrogate.
    pub fn warming_k(self, year: i32) -> f64 {
        0.5 * self.forcing_wm2(year)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn historical_anchors() {
        assert!((Scenario::Historical.co2_ppm(1850) - 285.0).abs() < 1.0);
        assert!((Scenario::Historical.co2_ppm(2014) - 397.0).abs() < 1.0);
        // Flat after 2014.
        assert_eq!(Scenario::Historical.co2_ppm(2050), Scenario::Historical.co2_ppm(2014));
    }

    #[test]
    fn scenarios_agree_before_divergence() {
        for y in [1900, 1980, 2014] {
            let h = Scenario::Historical.co2_ppm(y);
            assert!((Scenario::Ssp245.co2_ppm(y) - h).abs() < 1e-9);
            assert!((Scenario::Ssp585.co2_ppm(y) - h).abs() < 1e-9);
        }
    }

    #[test]
    fn ssp585_exceeds_ssp245_after_2014() {
        for y in [2030, 2050, 2080, 2100] {
            assert!(Scenario::Ssp585.co2_ppm(y) > Scenario::Ssp245.co2_ppm(y), "year {y}");
        }
    }

    #[test]
    fn concentrations_monotonic_in_projection() {
        for s in [Scenario::Ssp245, Scenario::Ssp585] {
            let mut prev = s.co2_ppm(2015);
            for y in 2016..=2100 {
                let c = s.co2_ppm(y);
                assert!(c >= prev - 1e-9, "{s:?} not monotonic at {y}");
                prev = c;
            }
        }
    }

    #[test]
    fn warming_is_positive_and_ordered() {
        let w45 = Scenario::Ssp245.warming_k(2080);
        let w85 = Scenario::Ssp585.warming_k(2080);
        assert!(w45 > 0.5, "SSP2-4.5 2080 warming {w45}");
        assert!(w85 > w45);
        assert!(w85 < 8.0, "surrogate warming should stay physical: {w85}");
    }

    #[test]
    fn forcing_formula_doubling() {
        // Doubled CO2 must give ~3.7 W/m2.
        let f = 5.35 * (2.0f64).ln();
        assert!((f - 3.71).abs() < 0.01);
    }
}
