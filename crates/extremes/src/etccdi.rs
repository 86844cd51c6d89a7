//! The wider ETCCDI index family.
//!
//! The paper's heat/cold-wave definitions cite the ETCCDI/ETCCDMI daily
//! temperature indices (its reference \[31\]). Beyond the three wave indices
//! of Section 5.3, operational climate services compute the standard
//! ETCCDI set; this module implements the temperature members on the same
//! datacube substrate, so a workflow can extend its per-year analysis with
//! one extra task per index:
//!
//! * threshold counts — frost days (TN < 0 °C), summer days (TX > 25 °C),
//!   icing days (TX < 0 °C), tropical nights (TN > 20 °C);
//! * percentile exceedances — TX90p / TN10p (fraction of days above the
//!   calendar 90th / below the 10th percentile of a reference period);
//! * spell indices — WSDI / CSDI (annual days in ≥6-day runs beyond the
//!   percentile thresholds);
//! * absolute extremes — TXx, TNn.

use crate::heatwave::{exceedance_chain, mask_expr, wave_runs};
use datacube::exec::ExecConfig;
use datacube::expr::Expr;
use datacube::fuse::Pipeline;
use datacube::model::Cube;
use datacube::ops::{self, ReduceOp};
use datacube::Result;

/// Count of days satisfying `value CMP threshold` per cell (a map cube).
/// `cmp` is an `oph_predicate`-style condition like `"<273.15"`. One
/// `apply → reduce` chain: the mask cube is never materialized.
fn threshold_days(daily: &Cube, cmp: &str, cfg: ExecConfig) -> Result<Cube> {
    let chain = Pipeline::new().apply(mask_expr(cmp)?).reduce(ReduceOp::Sum, &time_dim(daily)?);
    Ok(chain.run(daily, cfg)?.cube)
}

/// Frost days: annual count with daily minimum below 0 °C.
pub fn frost_days(daily_tmin_k: &Cube, cfg: ExecConfig) -> Result<Cube> {
    threshold_days(daily_tmin_k, "<273.15", cfg)
}

/// Icing days: annual count with daily maximum below 0 °C.
pub fn icing_days(daily_tmax_k: &Cube, cfg: ExecConfig) -> Result<Cube> {
    threshold_days(daily_tmax_k, "<273.15", cfg)
}

/// Summer days: annual count with daily maximum above 25 °C.
pub fn summer_days(daily_tmax_k: &Cube, cfg: ExecConfig) -> Result<Cube> {
    threshold_days(daily_tmax_k, ">298.15", cfg)
}

/// Tropical nights: annual count with daily minimum above 20 °C.
pub fn tropical_nights(daily_tmin_k: &Cube, cfg: ExecConfig) -> Result<Cube> {
    threshold_days(daily_tmin_k, ">293.15", cfg)
}

/// TXx: the year's hottest daily maximum per cell.
pub fn txx(daily_tmax: &Cube, cfg: ExecConfig) -> Result<Cube> {
    ops::reduce(daily_tmax, ReduceOp::Max, &time_dim(daily_tmax)?, cfg)
}

/// TNn: the year's coldest daily minimum per cell.
pub fn tnn(daily_tmin: &Cube, cfg: ExecConfig) -> Result<Cube> {
    ops::reduce(daily_tmin, ReduceOp::Min, &time_dim(daily_tmin)?, cfg)
}

fn time_dim(cube: &Cube) -> Result<String> {
    cube.implicit_dims()
        .first()
        .map(|d| d.name.clone())
        .ok_or_else(|| datacube::Error::SchemaMismatch("cube has no time axis".into()))
}

/// Fraction of days with `daily - threshold CMP` per cell, in `[0, 1]`:
/// the exceedance count as one `intercube → apply → reduce` chain, then
/// the division by the day count as its own f64 `x / days` apply.
fn day_fraction(daily: &Cube, threshold: &Cube, cmp: &str, cfg: ExecConfig) -> Result<Cube> {
    let chain = exceedance_chain(threshold, cmp)?.reduce(ReduceOp::Sum, &time_dim(daily)?);
    let count = chain.run(daily, cfg)?.cube;
    let days = daily.implicit_len() as f64;
    ops::apply(&count, &Expr::parse(&format!("x / {days}"))?, cfg)
}

/// TX90p-style exceedance rate: fraction of days with `daily > threshold`
/// per cell, in `[0, 1]`.
pub fn exceedance_rate(daily: &Cube, threshold: &Cube, cfg: ExecConfig) -> Result<Cube> {
    day_fraction(daily, threshold, ">0", cfg)
}

/// TN10p-style deficit rate: fraction of days with `daily < threshold`.
pub fn deficit_rate(daily: &Cube, threshold: &Cube, cfg: ExecConfig) -> Result<Cube> {
    day_fraction(daily, threshold, "<0", cfg)
}

/// WSDI: annual count of days in runs of ≥ `min_len` consecutive days with
/// `daily > threshold` (warm spell duration index). `CSDI` is the same
/// with the comparison flipped. One `intercube → apply → map_series`
/// chain, the same run-length scan as the heat-wave indices.
pub fn spell_duration_index(
    daily: &Cube,
    threshold: &Cube,
    min_len: usize,
    cold: bool,
    cfg: ExecConfig,
) -> Result<Cube> {
    let chain = exceedance_chain(threshold, if cold { "<0" } else { ">0" })?.map_series(
        "sdi",
        1,
        move |row, out| {
            let days: usize = wave_runs(row, min_len).iter().map(|&(_, l)| l).sum();
            out[0] = days as f32;
        },
    );
    Ok(chain.run(daily, cfg)?.cube)
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacube::model::Dimension;

    fn cfg() -> ExecConfig {
        ExecConfig::with_servers(2)
    }

    /// One cell: a year of 10 days with known values.
    fn daily(values: Vec<f32>) -> Cube {
        let n = values.len();
        Cube::from_dense(
            "t",
            vec![
                Dimension::explicit("cell", vec![0.0]),
                Dimension::implicit("day", (0..n).map(|d| d as f64).collect::<Vec<_>>()),
            ],
            values,
            1,
            1,
        )
        .unwrap()
    }

    fn scalar_threshold(v: f32) -> Cube {
        Cube::from_dense("t", vec![Dimension::explicit("cell", vec![0.0])], vec![v], 1, 1).unwrap()
    }

    #[test]
    fn threshold_counts() {
        // tmin: 3 frost days, 2 tropical nights.
        let tmin =
            daily(vec![270.0, 272.0, 274.0, 273.0, 295.0, 294.0, 280.0, 285.0, 290.0, 275.0]);
        assert_eq!(frost_days(&tmin, cfg()).unwrap().to_dense(), vec![3.0]);
        assert_eq!(tropical_nights(&tmin, cfg()).unwrap().to_dense(), vec![2.0]);

        let tmax =
            daily(vec![299.0, 300.0, 272.0, 298.15, 290.0, 310.0, 272.5, 298.2, 260.0, 280.0]);
        assert_eq!(summer_days(&tmax, cfg()).unwrap().to_dense(), vec![4.0]);
        assert_eq!(icing_days(&tmax, cfg()).unwrap().to_dense(), vec![3.0]);
    }

    #[test]
    fn absolute_extremes() {
        let tmax = daily(vec![280.0, 310.5, 290.0, 305.0]);
        assert_eq!(txx(&tmax, cfg()).unwrap().to_dense(), vec![310.5]);
        let tmin = daily(vec![270.0, 250.25, 260.0, 255.0]);
        assert_eq!(tnn(&tmin, cfg()).unwrap().to_dense(), vec![250.25]);
    }

    #[test]
    fn exceedance_and_deficit_rates() {
        let d = daily(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        let thr = scalar_threshold(7.5);
        let tx90p = exceedance_rate(&d, &thr, cfg()).unwrap();
        assert!((tx90p.to_dense()[0] - 0.3).abs() < 1e-6, "3 of 10 days above 7.5");
        let thr = scalar_threshold(2.5);
        let tn10p = deficit_rate(&d, &thr, cfg()).unwrap();
        assert!((tn10p.to_dense()[0] - 0.2).abs() < 1e-6, "2 of 10 days below 2.5");
    }

    #[test]
    fn warm_spell_duration_index() {
        // 7 consecutive warm days qualify; an isolated 3-day burst does not.
        let mut vals = vec![0.0f32; 20];
        for v in vals.iter_mut().take(10).skip(3) {
            *v = 10.0; // days 3..10 (7 days)
        }
        for v in vals.iter_mut().take(17).skip(14) {
            *v = 10.0; // days 14..17 (3 days)
        }
        let d = daily(vals);
        let thr = scalar_threshold(5.0);
        let wsdi = spell_duration_index(&d, &thr, 6, false, cfg()).unwrap();
        assert_eq!(wsdi.to_dense(), vec![7.0]);

        // CSDI with everything above threshold finds nothing.
        let csdi = spell_duration_index(&d, &thr, 6, true, cfg()).unwrap();
        // Days below 5.0: 0,1,2 (3) + 10..14 (4) + 17..20 (3) -> runs of 3,4,3, none >= 6.
        assert_eq!(csdi.to_dense(), vec![0.0]);
    }

    #[test]
    fn multi_cell_cubes_work() {
        // Two cells, different exceedance patterns.
        let vals = vec![
            300.0, 300.0, 260.0, 260.0, // cell 0: 2 frost days (tmin < 273.15)
            270.0, 270.0, 270.0, 280.0, // cell 1: 3 frost days
        ];
        let cube = Cube::from_dense(
            "tmin",
            vec![
                Dimension::explicit("cell", vec![0.0, 1.0]),
                Dimension::implicit("day", vec![0.0, 1.0, 2.0, 3.0]),
            ],
            vals,
            2,
            2,
        )
        .unwrap();
        assert_eq!(frost_days(&cube, cfg()).unwrap().to_dense(), vec![2.0, 3.0]);
    }
}
