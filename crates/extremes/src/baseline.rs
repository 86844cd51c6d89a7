//! Long-term baseline climatologies.
//!
//! The heat/cold-wave definitions compare daily extremes against
//! "historical averages (e.g., computed over a 20-year period) for a given
//! area" (Section 5.3). A baseline here is a `(lat, lon)` cube with no
//! implicit dimension: one mean value per cell, computed from a stack of
//! per-year daily cubes. In the workflow it is loaded into the datacube
//! store **once** and reused for every simulated year — the optimization
//! bench C2 quantifies.

use datacube::exec::ExecConfig;
use datacube::model::Cube;
use datacube::ops::{self, ReduceOp};
use datacube::{Error, Result};

/// Computes the per-cell mean over the time axis of each year-cube, then
/// averages across years. All cubes must share the explicit space.
pub fn compute_baseline(years: &[&Cube], cfg: ExecConfig) -> Result<Cube> {
    let first = years
        .first()
        .ok_or_else(|| Error::SchemaMismatch("baseline needs at least one year".into()))?;
    let rows = first.rows();
    let mut acc = vec![0.0f64; rows];
    for y in years {
        if y.rows() != rows {
            return Err(Error::SchemaMismatch(format!(
                "year cube has {} rows, expected {rows}",
                y.rows()
            )));
        }
        let time_dim = y
            .implicit_dims()
            .first()
            .map(|d| d.name.clone())
            .ok_or_else(|| Error::SchemaMismatch("year cube has no implicit time".into()))?;
        let mean = ops::reduce(y, ReduceOp::Avg, &time_dim, cfg)?;
        for f in mean.frags_in_row_order() {
            for (i, &v) in f.data.iter().enumerate() {
                acc[f.row_start + i] += v as f64;
            }
        }
    }
    let n = years.len() as f64;
    let data: Vec<f32> = acc.into_iter().map(|v| (v / n) as f32).collect();
    let dims: Vec<_> = first.explicit_dims().into_iter().cloned().collect();
    let mut cube = Cube::from_dense(&first.measure, dims, data, first.frags.len(), 1)?;
    cube.description = format!("baseline over {} years", years.len());
    Ok(cube)
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacube::model::Dimension;

    fn year_cube(offset: f32, nt: usize) -> Cube {
        let dims = vec![
            Dimension::explicit("lat", vec![-30.0, 30.0]),
            Dimension::explicit("lon", vec![0.0, 180.0]),
            Dimension::implicit("time", (0..nt).map(|t| t as f64).collect::<Vec<_>>()),
        ];
        // Row r: series r + offset + t.
        let mut data = Vec::new();
        for r in 0..4 {
            for t in 0..nt {
                data.push(r as f32 + offset + t as f32);
            }
        }
        Cube::from_dense("tasmax", dims, data, 2, 1).unwrap()
    }

    #[test]
    fn baseline_is_mean_over_years_and_days() {
        let a = year_cube(0.0, 4); // per-cell mean: r + 1.5
        let b = year_cube(2.0, 4); // per-cell mean: r + 3.5
        let base = compute_baseline(&[&a, &b], ExecConfig::serial()).unwrap();
        assert_eq!(base.implicit_len(), 1);
        assert_eq!(base.to_dense(), vec![2.5, 3.5, 4.5, 5.5]);
    }

    #[test]
    fn single_year_baseline() {
        let a = year_cube(1.0, 3);
        let base = compute_baseline(&[&a], ExecConfig::serial()).unwrap();
        assert_eq!(base.to_dense(), vec![2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn mismatched_years_rejected() {
        let a = year_cube(0.0, 4);
        let dims =
            vec![Dimension::explicit("lat", vec![0.0]), Dimension::implicit("time", vec![0.0])];
        let b = Cube::from_dense("tasmax", dims, vec![1.0], 1, 1).unwrap();
        assert!(compute_baseline(&[&a, &b], ExecConfig::serial()).is_err());
        assert!(compute_baseline(&[], ExecConfig::serial()).is_err());
    }
}
