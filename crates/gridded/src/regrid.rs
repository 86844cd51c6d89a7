//! Regridding: bilinear interpolation between regular lat/lon grids.
//!
//! The TC-localization pipeline in the paper regrids the CMCC-CM3 output
//! before tiling it into CNN patches (Section 5.4); [`regrid_bilinear`]
//! implements that step.

use crate::field::Field2;
use crate::grid::Grid;

/// Destination cell count at which the regrid dispatches rows onto the
/// shared pool; below it the per-task overhead exceeds the stencil work.
const REGRID_PAR_MIN_CELLS: usize = 1 << 14;

/// Bilinearly interpolates `src` onto `dst_grid`.
///
/// Longitude wraps on global source grids; latitude clamps at the poles.
/// NaNs in the source propagate to any destination cell whose stencil
/// touches them (conservative behaviour for masked data). Every output
/// row is independent, so large targets are computed row-parallel on the
/// shared [`par`] pool — results are bitwise-identical to serial because
/// each cell's stencil arithmetic is self-contained.
pub fn regrid_bilinear(src: &Field2, dst_grid: &Grid) -> Field2 {
    let sg = &src.grid;
    let mut out = vec![0.0f32; dst_grid.len()];

    let slat0 = sg.lat(0);
    let dlat = sg.dlat();
    let slon0 = sg.lon(0);
    let dlon = sg.dlon();

    // The column stencil `(j0, j1, tx)` depends on the destination column
    // only: computed once here, not once per destination row.
    let cols: Vec<(usize, usize, f32)> = (0..dst_grid.nlon)
        .map(|j| {
            let lon = dst_grid.lon(j);
            let mut fx = (lon - slon0) / dlon;
            if sg.is_global_lon() {
                fx = fx.rem_euclid(sg.nlon as f64);
            }
            let x0 = fx.floor();
            let tx = (fx - x0) as f32;
            let j0raw = x0.max(0.0) as usize;
            if sg.is_global_lon() {
                let j0 = j0raw % sg.nlon;
                (j0, (j0 + 1) % sg.nlon, tx)
            } else {
                let j0 = j0raw.min(sg.nlon - 1);
                let j1 = (j0 + 1).min(sg.nlon - 1);
                let tx = if fx < 0.0 || fx > (sg.nlon - 1) as f64 { 0.0 } else { tx };
                (j0, j1, tx)
            }
        })
        .collect();

    let row = |i: usize, out_row: &mut [f32]| {
        let lat = dst_grid.lat(i);
        // Fractional row position in the source's cell-center coordinates.
        let fy = (lat - slat0) / dlat;
        let y0 = fy.floor();
        let ty = (fy - y0) as f32;
        let i0 = (y0.max(0.0) as usize).min(sg.nlat - 1);
        let i1 = (i0 + 1).min(sg.nlat - 1);
        let ty = if fy < 0.0 || fy > (sg.nlat - 1) as f64 { 0.0 } else { ty };

        for (slot, &(j0, j1, tx)) in out_row.iter_mut().zip(&cols) {
            let v00 = src.get(i0, j0);
            let v01 = src.get(i0, j1);
            let v10 = src.get(i1, j0);
            let v11 = src.get(i1, j1);
            let top = v00 * (1.0 - tx) + v01 * tx;
            let bot = v10 * (1.0 - tx) + v11 * tx;
            *slot = top * (1.0 - ty) + bot * ty;
        }
    };

    if dst_grid.len() >= REGRID_PAR_MIN_CELLS && dst_grid.nlat > 1 {
        par::par_chunks_mut(&mut out, dst_grid.nlon, |i, out_row| row(i, out_row));
    } else {
        for (i, out_row) in out.chunks_mut(dst_grid.nlon).enumerate() {
            row(i, out_row);
        }
    }
    Field2::from_vec(dst_grid.clone(), out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The loop as it stood before the column stencil was hoisted: every
    /// cell recomputes `(j0, j1, tx)`. Kept as the bitwise oracle.
    fn regrid_per_cell(src: &Field2, dst_grid: &Grid) -> Vec<f32> {
        let sg = &src.grid;
        let mut out = vec![0.0f32; dst_grid.len()];
        for (i, out_row) in out.chunks_mut(dst_grid.nlon).enumerate() {
            let fy = (dst_grid.lat(i) - sg.lat(0)) / sg.dlat();
            let y0 = fy.floor();
            let ty = (fy - y0) as f32;
            let i0 = (y0.max(0.0) as usize).min(sg.nlat - 1);
            let i1 = (i0 + 1).min(sg.nlat - 1);
            let ty = if fy < 0.0 || fy > (sg.nlat - 1) as f64 { 0.0 } else { ty };
            for (j, slot) in out_row.iter_mut().enumerate() {
                let mut fx = (dst_grid.lon(j) - sg.lon(0)) / sg.dlon();
                if sg.is_global_lon() {
                    fx = fx.rem_euclid(sg.nlon as f64);
                }
                let x0 = fx.floor();
                let tx = (fx - x0) as f32;
                let j0raw = x0.max(0.0) as usize;
                let (j0, j1, tx) = if sg.is_global_lon() {
                    let j0 = j0raw % sg.nlon;
                    (j0, (j0 + 1) % sg.nlon, tx)
                } else {
                    let j0 = j0raw.min(sg.nlon - 1);
                    let j1 = (j0 + 1).min(sg.nlon - 1);
                    let tx = if fx < 0.0 || fx > (sg.nlon - 1) as f64 { 0.0 } else { tx };
                    (j0, j1, tx)
                };
                let top = src.get(i0, j0) * (1.0 - tx) + src.get(i0, j1) * tx;
                let bot = src.get(i1, j0) * (1.0 - tx) + src.get(i1, j1) * tx;
                *slot = top * (1.0 - ty) + bot * ty;
            }
        }
        out
    }

    /// Hoisting the column stencil moves no bit: global sources (wrap),
    /// regional sources whose destination overhangs every edge (clamps),
    /// pole rows, NaN cells, and a destination big enough for the pooled
    /// row split.
    #[test]
    fn hoisted_column_stencil_is_bitwise_the_per_cell_loop() {
        let noisy = |grid: Grid, seed: u32| {
            let mut state = seed;
            let data = (0..grid.len())
                .map(|i| {
                    state = state.wrapping_mul(1664525).wrapping_add(1013904223);
                    if i % 37 == 5 {
                        f32::NAN
                    } else {
                        (state >> 8) as f32 / 65536.0 - 128.0
                    }
                })
                .collect();
            Field2::from_vec(grid, data)
        };
        let regional = Grid {
            nlat: 9,
            nlon: 14,
            lat_south: 10.0,
            lat_north: 40.0,
            lon_west: 100.0,
            lon_east: 160.0,
        };
        let overhang = Grid {
            nlat: 13,
            nlon: 17,
            lat_south: 0.0,
            lat_north: 50.0,
            lon_west: 90.0,
            lon_east: 170.0,
        };
        let cases = [
            (Grid::global(24, 36), Grid::global(64, 128)),
            (Grid::global(24, 36), Grid::global(7, 13)),
            (Grid::global(16, 24), Grid::global(128, 256)),
            (regional.clone(), overhang),
            (regional, Grid::global(12, 20)),
        ];
        for (k, (src_grid, dst)) in cases.into_iter().enumerate() {
            let src = noisy(src_grid, 17 + k as u32);
            let got: Vec<u32> =
                regrid_bilinear(&src, &dst).data.iter().map(|v| v.to_bits()).collect();
            let want: Vec<u32> = regrid_per_cell(&src, &dst).iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "case {k}");
        }
    }

    #[test]
    fn identity_regrid_is_exact() {
        let g = Grid::global(8, 12);
        let data: Vec<f32> = (0..g.len()).map(|i| i as f32).collect();
        let f = Field2::from_vec(g.clone(), data.clone());
        let out = regrid_bilinear(&f, &g);
        for (a, b) in out.data.iter().zip(&data) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn constant_field_survives_any_regrid() {
        let f = Field2::constant(Grid::global(16, 24), 5.5);
        let out = regrid_bilinear(&f, &Grid::global(7, 13));
        for v in &out.data {
            assert!((v - 5.5).abs() < 1e-5);
        }
    }

    #[test]
    fn linear_in_latitude_is_reproduced() {
        // Bilinear interpolation reproduces fields linear in latitude away
        // from the polar clamp rows.
        let g = Grid::global(32, 8);
        let mut f = Field2::constant(g.clone(), 0.0);
        for i in 0..g.nlat {
            for j in 0..g.nlon {
                f.set(i, j, g.lat(i) as f32);
            }
        }
        let dst = Grid::global(16, 8);
        let out = regrid_bilinear(&f, &dst);
        for i in 1..dst.nlat - 1 {
            for j in 0..dst.nlon {
                let want = dst.lat(i) as f32;
                let got = out.get(i, j);
                assert!((got - want).abs() < 0.4, "row {i}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn longitude_wraps_on_global_grids() {
        // A bump at the dateline edge must interpolate smoothly across wrap.
        let g = Grid::global(4, 8);
        let mut f = Field2::constant(g.clone(), 0.0);
        for i in 0..g.nlat {
            f.set(i, 0, 10.0);
            f.set(i, g.nlon - 1, 10.0);
        }
        // Destination cell centered exactly on the wrap point between the
        // last and first source columns.
        let dst = Grid::global(4, 16);
        let out = regrid_bilinear(&f, &dst);
        // No output value should exceed the source max or go negative by a
        // large margin (bilinear is bounded by its stencil).
        for v in &out.data {
            assert!(*v >= -1e-5 && *v <= 10.0 + 1e-5);
        }
        // And the wrap column should see a contribution from the edge bump.
        let near_wrap = out.get(1, 0).max(out.get(1, dst.nlon - 1));
        assert!(near_wrap > 4.0, "wrap interpolation lost the edge bump: {near_wrap}");
    }
}
