//! Extreme-event generation with ground truth.
//!
//! The case study analyses two families of extremes (Section 5): heat
//! waves / cold spells and tropical cyclones. A surrogate model whose
//! noise never produces either would leave the analytics pipelines
//! untested, so events are injected explicitly, with physically-shaped
//! anomalies — and, crucially, the generator records the **truth** (when,
//! where, how strong), which is what lets the repository *verify* the
//! detection pipelines rather than merely run them.

use crate::config::EsmConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Heat wave or cold spell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ThermalKind {
    HeatWave,
    ColdSpell,
}

/// One multi-day regional temperature anomaly event.
#[derive(Debug, Clone)]
pub struct ThermalEvent {
    pub kind: ThermalKind,
    /// First day-of-year (0-based) of the event.
    pub start_day: usize,
    /// Length in days (≥ 6, so ETCCDI-style criteria can fire).
    pub duration: usize,
    pub center_lat: f64,
    pub center_lon: f64,
    /// Gaussian e-folding radius in degrees.
    pub radius_deg: f64,
    /// Peak anomaly in kelvin (positive for heat waves, negative for cold
    /// spells).
    pub amplitude_k: f64,
}

impl ThermalEvent {
    /// True while the event is active on `day`.
    fn active(&self, day: usize) -> bool {
        day >= self.start_day && day < self.start_day + self.duration
    }

    /// The event's footprint on `day`, or `None` while it is inactive: the
    /// day's peak anomaly and the longitude metric factor, computed once so
    /// [`ThermalFootprint::at`] does only per-location work. Trapezoidal in
    /// time (one-day ramp up/down) so the event doesn't appear as a
    /// discontinuity.
    pub fn footprint(&self, day: usize) -> Option<ThermalFootprint<'_>> {
        if !self.active(day) {
            return None;
        }
        let into = (day - self.start_day) as f64;
        let remaining = (self.start_day + self.duration - 1 - day) as f64;
        let ramp = (into + 1.0).min(remaining + 1.0).min(1.5) / 1.5;
        Some(ThermalFootprint {
            event: self,
            peak_k: self.amplitude_k * ramp,
            // Longitude shrinks with latitude; use a simple metric factor.
            dlon_km_scale: self.center_lat.to_radians().cos().max(0.2),
        })
    }
}

/// One active thermal event on one day (from [`ThermalEvent::footprint`]).
pub struct ThermalFootprint<'a> {
    event: &'a ThermalEvent,
    /// `amplitude_k · ramp` for the day, in kelvin.
    peak_k: f64,
    /// `cos(center_lat)`, floored at 0.2.
    dlon_km_scale: f64,
}

impl ThermalFootprint<'_> {
    /// Temperature anomaly contributed at a location (kelvin): Gaussian in
    /// space around the event's center.
    pub fn at(&self, lat: f64, lon: f64) -> f64 {
        let e = self.event;
        let dlat = lat - e.center_lat;
        let mut dlon = (lon - e.center_lon).rem_euclid(360.0);
        if dlon > 180.0 {
            dlon -= 360.0;
        }
        let r2 = (dlat / e.radius_deg).powi(2) + (dlon * self.dlon_km_scale / e.radius_deg).powi(2);
        self.peak_k * (-r2).exp()
    }
}

/// One 6-hourly position/intensity sample of a tropical cyclone.
#[derive(Debug, Clone, Copy)]
pub struct TcTrackPoint {
    /// Day-of-year, 0-based.
    pub day: usize,
    /// Output timestep within the day.
    pub step: usize,
    pub lat: f64,
    pub lon: f64,
    /// Central pressure in hPa.
    pub center_pressure_hpa: f64,
    /// Maximum sustained wind in m/s.
    pub max_wind_ms: f64,
}

/// A full cyclone lifetime.
#[derive(Debug, Clone)]
pub struct TcTrack {
    pub id: usize,
    pub points: Vec<TcTrackPoint>,
}

impl TcTrack {
    /// The sample at `(day, step)` if the cyclone is alive then.
    pub fn at(&self, day: usize, step: usize) -> Option<&TcTrackPoint> {
        self.points.iter().find(|p| p.day == day && p.step == step)
    }
}

/// All events of one simulated year, with ground truth.
#[derive(Debug, Clone)]
pub struct YearEvents {
    pub year: i32,
    pub thermal: Vec<ThermalEvent>,
    pub tcs: Vec<TcTrack>,
}

/// Knuth's Poisson sampler (fine for the small rates used here).
fn poisson(rng: &mut StdRng, lambda: f64) -> usize {
    let l = (-lambda).exp();
    let mut k = 0usize;
    let mut p = 1.0;
    loop {
        p *= rng.gen::<f64>();
        if p <= l {
            return k;
        }
        k += 1;
        if k > 1000 {
            return k; // safety net for absurd rates
        }
    }
}

impl YearEvents {
    /// Deterministically generates the events of `year` from the run seed.
    pub fn generate(cfg: &EsmConfig, year: i32) -> YearEvents {
        let mut rng =
            StdRng::seed_from_u64(cfg.seed ^ (year as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let dpy = cfg.days_per_year;

        let mut thermal = Vec::new();
        for (kind, rate) in [
            (ThermalKind::HeatWave, cfg.heatwaves_per_year),
            (ThermalKind::ColdSpell, cfg.coldspells_per_year),
        ] {
            let n = poisson(&mut rng, rate);
            for _ in 0..n {
                let northern = rng.gen_bool(0.5);
                // Events in the hemisphere's hot (heat waves) / cold
                // (cold spells) season: NH summer is mid-year.
                let warm_season = matches!(kind, ThermalKind::HeatWave) == northern;
                let season_center: f64 = if warm_season { 0.55 } else { 0.05 };
                let phase: f64 = season_center + rng.gen_range(-0.12..0.12);
                let start_day = ((phase.rem_euclid(1.0)) * dpy as f64) as usize % dpy.max(1);
                let duration = rng.gen_range(6..=14).min(dpy.saturating_sub(start_day)).max(1);
                let lat_mag = rng.gen_range(28.0..62.0);
                let amplitude = rng.gen_range(6.5..12.0);
                thermal.push(ThermalEvent {
                    kind,
                    start_day,
                    duration,
                    center_lat: if northern { lat_mag } else { -lat_mag },
                    center_lon: rng.gen_range(0.0..360.0),
                    radius_deg: rng.gen_range(9.0..20.0),
                    amplitude_k: if kind == ThermalKind::HeatWave { amplitude } else { -amplitude },
                });
            }
        }

        let mut tcs = Vec::new();
        let n_tc = poisson(&mut rng, cfg.tc_per_year);
        for id in 0..n_tc {
            tcs.push(Self::gen_tc(cfg, &mut rng, id));
        }

        YearEvents { year, thermal, tcs }
    }

    fn gen_tc(cfg: &EsmConfig, rng: &mut StdRng, id: usize) -> TcTrack {
        let dpy = cfg.days_per_year;
        let spd = cfg.timesteps_per_day;
        let northern = rng.gen_bool(0.55);
        // Genesis in the hemisphere's late-summer TC season.
        let phase: f64 = (if northern { 0.65 } else { 0.12 }) + rng.gen_range(-0.1..0.1);
        let genesis_day = ((phase.rem_euclid(1.0)) * dpy as f64) as usize % dpy.max(1);
        let life_days = rng.gen_range(5..=10).min(dpy - genesis_day).max(1);

        let mut lat: f64 = rng.gen_range(8.0..18.0) * if northern { 1.0 } else { -1.0 };
        let mut lon: f64 = rng.gen_range(0.0..360.0);
        let peak_deficit = rng.gen_range(35.0..90.0); // hPa below ambient
        let total_steps = life_days * spd;

        let mut points = Vec::with_capacity(total_steps);
        for s in 0..total_steps {
            let day = genesis_day + s / spd;
            let step = s % spd;
            // Intensity: grow to peak at 40% of life, then decay.
            let life_frac = s as f64 / total_steps.max(1) as f64;
            let intensity =
                if life_frac < 0.4 { life_frac / 0.4 } else { 1.0 - 0.8 * (life_frac - 0.4) / 0.6 };
            let deficit = peak_deficit * intensity.max(0.1);
            let pressure = 1010.0 - deficit;
            let max_wind = 6.3 * deficit.sqrt(); // empirical wind–pressure

            points.push(TcTrackPoint {
                day,
                step,
                lat,
                lon,
                center_pressure_hpa: pressure,
                max_wind_ms: max_wind,
            });

            // Motion: trade-wind westward drift plus beta-drift poleward,
            // accelerating recurvature in the second half of life.
            let poleward = (0.12 + 0.3 * life_frac) * if northern { 1.0 } else { -1.0 };
            let westward = -1.4 + 1.6 * life_frac; // recurves eastward late
            lat += poleward + rng.gen_range(-0.08..0.08);
            lon = (lon + westward + rng.gen_range(-0.15..0.15)).rem_euclid(360.0);
            lat = lat.clamp(-55.0, 55.0);
        }

        TcTrack { id, points }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> EsmConfig {
        EsmConfig::test_small().with_days_per_year(365)
    }

    #[test]
    fn generation_is_deterministic_per_year() {
        let c = cfg();
        let a = YearEvents::generate(&c, 2030);
        let b = YearEvents::generate(&c, 2030);
        assert_eq!(a.thermal.len(), b.thermal.len());
        assert_eq!(a.tcs.len(), b.tcs.len());
        if let (Some(x), Some(y)) = (a.tcs.first(), b.tcs.first()) {
            assert_eq!(x.points[0].lat, y.points[0].lat);
        }
        let c2 = YearEvents::generate(&c, 2031);
        // Different year: different draw (overwhelmingly likely).
        assert!(
            a.thermal.len() != c2.thermal.len()
                || a.tcs.len() != c2.tcs.len()
                || a.tcs.first().map(|t| t.points[0].lon)
                    != c2.tcs.first().map(|t| t.points[0].lon)
        );
    }

    #[test]
    fn event_counts_near_configured_rates() {
        let c = cfg();
        let mut hw = 0usize;
        let mut tc = 0usize;
        let years = 40;
        for y in 0..years {
            let e = YearEvents::generate(&c, 2030 + y);
            hw += e.thermal.iter().filter(|t| t.kind == ThermalKind::HeatWave).count();
            tc += e.tcs.len();
        }
        let hw_rate = hw as f64 / years as f64;
        let tc_rate = tc as f64 / years as f64;
        assert!((hw_rate - c.heatwaves_per_year).abs() < 2.5, "hw rate {hw_rate}");
        assert!((tc_rate - c.tc_per_year).abs() < 3.0, "tc rate {tc_rate}");
    }

    #[test]
    fn heat_waves_meet_detection_criteria() {
        let c = cfg();
        for y in 0..10 {
            for e in YearEvents::generate(&c, 2030 + y).thermal {
                assert!(e.duration >= 1);
                if e.start_day + 6 <= c.days_per_year {
                    // Full events are long and strong enough for the +5 K,
                    // >=6-day criterion at their center.
                    if e.duration >= 6 {
                        let mid = e.start_day + e.duration / 2;
                        let peak = e.footprint(mid).unwrap().at(e.center_lat, e.center_lon).abs();
                        assert!(peak > 5.0, "peak anomaly {peak} too weak to detect");
                    }
                }
                match e.kind {
                    ThermalKind::HeatWave => assert!(e.amplitude_k > 0.0),
                    ThermalKind::ColdSpell => assert!(e.amplitude_k < 0.0),
                }
            }
        }
    }

    #[test]
    fn thermal_anomaly_shape() {
        let e = ThermalEvent {
            kind: ThermalKind::HeatWave,
            start_day: 100,
            duration: 10,
            center_lat: 45.0,
            center_lon: 10.0,
            radius_deg: 10.0,
            amplitude_k: 8.0,
        };
        assert!(e.footprint(99).is_none());
        assert!(e.footprint(110).is_none());
        let day = e.footprint(105).unwrap();
        let center = day.at(45.0, 10.0);
        assert!(center > 7.0);
        let off = day.at(45.0, 40.0);
        assert!(off < center * 0.2, "anomaly should decay away from center");
        // Wrap-around longitude: 10 deg == 370 deg.
        assert!((day.at(45.0, 370.0) - center).abs() < 1e-9);
    }

    /// The whole anomaly formula evaluated per location: the oracle
    /// [`ThermalFootprint`]'s once-per-day terms must match bit for bit.
    fn anomaly_oracle(e: &ThermalEvent, day: usize, lat: f64, lon: f64) -> f64 {
        if !e.active(day) {
            return 0.0;
        }
        let into = (day - e.start_day) as f64;
        let remaining = (e.start_day + e.duration - 1 - day) as f64;
        let ramp = (into + 1.0).min(remaining + 1.0).min(1.5) / 1.5;
        let dlat = lat - e.center_lat;
        let mut dlon = (lon - e.center_lon).rem_euclid(360.0);
        if dlon > 180.0 {
            dlon -= 360.0;
        }
        let dlon_km_scale = e.center_lat.to_radians().cos().max(0.2);
        let r2 = (dlat / e.radius_deg).powi(2) + (dlon * dlon_km_scale / e.radius_deg).powi(2);
        e.amplitude_k * ramp * (-r2).exp()
    }

    #[test]
    fn footprint_is_bitwise_the_per_location_formula() {
        let c = cfg();
        let grid = gridded::Grid::global(96, 144);
        let mut checked = 0;
        for y in 0..4 {
            for e in YearEvents::generate(&c, 2030 + y).thermal {
                for day in e.start_day.saturating_sub(1)..e.start_day + e.duration + 1 {
                    let fp = e.footprint(day);
                    for i in 0..grid.nlat {
                        for j in 0..grid.nlon {
                            let (lat, lon) = (grid.lat(i), grid.lon(j));
                            let got = fp.as_ref().map_or(0.0, |f| f.at(lat, lon));
                            let want = anomaly_oracle(&e, day, lat, lon);
                            assert_eq!(
                                got.to_bits(),
                                want.to_bits(),
                                "day {day} at ({lat}, {lon})"
                            );
                            checked += 1;
                        }
                    }
                }
            }
        }
        assert!(checked > 100_000, "only {checked} locations compared");
    }

    #[test]
    fn tc_tracks_are_physical() {
        let c = cfg();
        let events = YearEvents::generate(&c, 2033);
        for tc in &events.tcs {
            assert!(!tc.points.is_empty());
            assert!(
                tc.points.iter().any(|p| p.center_pressure_hpa < 990.0),
                "TC must deepen below ambient"
            );
            for p in &tc.points {
                assert!((-60.0..=60.0).contains(&p.lat));
                assert!((0.0..360.0).contains(&p.lon));
                assert!(p.center_pressure_hpa < 1010.0);
                assert!(p.max_wind_ms > 0.0);
            }
            // Consecutive positions move a bounded distance (<~300 km/6 h).
            for w in tc.points.windows(2) {
                let d = gridded::Grid::distance_km(w[0].lat, w[0].lon, w[1].lat, w[1].lon);
                assert!(d < 350.0, "track jump of {d} km");
            }
            // Poleward drift overall.
            let first = tc.points.first().unwrap();
            let last = tc.points.last().unwrap();
            assert!(last.lat.abs() >= first.lat.abs() - 1.0);
        }
    }

    #[test]
    fn tc_at_lookup() {
        let c = cfg();
        let events = YearEvents::generate(&c, 2035);
        if let Some(tc) = events.tcs.first() {
            let p0 = tc.points[0];
            assert!(tc.at(p0.day, p0.step).is_some());
            assert!(tc.at(c.days_per_year + 1, 0).is_none());
        }
    }

    #[test]
    fn poisson_mean_is_lambda() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 3000;
        let sum: usize = (0..n).map(|_| poisson(&mut rng, 4.0)).sum();
        let mean = sum as f64 / n as f64;
        assert!((mean - 4.0).abs() < 0.25, "poisson mean {mean}");
    }
}
