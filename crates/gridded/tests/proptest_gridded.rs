//! Property tests on the raster toolbox invariants.

use gridded::{regrid_bilinear, Field2, Grid, TileSpec, Tiling};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Bilinear regridding is bounded by the source field's range.
    #[test]
    fn regrid_is_bounded(
        (snlat, snlon) in (4usize..12, 6usize..16),
        (dnlat, dnlon) in (3usize..14, 4usize..20),
        seed in any::<u64>(),
    ) {
        let sg = Grid::global(snlat, snlon);
        let data: Vec<f32> = (0..sg.len())
            .map(|i| (((i as u64).wrapping_mul(seed | 1) >> 16) % 1000) as f32 / 10.0)
            .collect();
        let f = Field2::from_vec(sg, data);
        let lo = f.data.iter().copied().fold(f32::INFINITY, f32::min);
        let hi = f.data.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let out = regrid_bilinear(&f, &Grid::global(dnlat, dnlon));
        for v in &out.data {
            prop_assert!(*v >= lo - 1e-4 && *v <= hi + 1e-4, "{v} outside [{lo},{hi}]");
        }
    }

    /// Tile extraction partitions the covered region: every covered cell
    /// appears exactly once across all tiles.
    #[test]
    fn tiling_partitions(
        (nlat, nlon) in (4usize..20, 4usize..24),
        patch in 2usize..6,
    ) {
        let g = Grid::global(nlat, nlon);
        let f = Field2::from_vec(g.clone(), (0..g.len()).map(|i| i as f32).collect());
        let t = Tiling::plan(g, TileSpec { patch });
        let mut covered: Vec<f32> = t.extract_all(&f).into_iter().flatten().collect();
        prop_assert_eq!(covered.len(), t.rows * t.cols * patch * patch);
        covered.sort_by(|a, b| a.partial_cmp(b).unwrap());
        covered.dedup();
        prop_assert_eq!(covered.len(), t.rows * t.cols * patch * patch);
    }

    /// locate() finds the tile pixel whose geo-reference is the cell's own
    /// coordinates, on every covered cell.
    #[test]
    fn tile_locate_roundtrip(
        (nlat, nlon) in (4usize..16, 4usize..16),
        patch in 1usize..5,
        cell in any::<u64>(),
    ) {
        let g = Grid::global(nlat, nlon);
        let t = Tiling::plan(g.clone(), TileSpec { patch });
        prop_assume!(!t.is_empty());
        let i = (cell as usize) % (t.rows * patch);
        let j = ((cell >> 16) as usize) % (t.cols * patch);
        let (r, c, pi, pj) = t.locate(i, j).unwrap();
        prop_assert_eq!(t.to_latlon(r, c, pi, pj), (g.lat(i), g.lon(j)));
    }

    /// Area weights always sum to one and are non-negative.
    #[test]
    fn area_weights_normalized((nlat, nlon) in (1usize..40, 1usize..40)) {
        let g = Grid::global(nlat, nlon);
        let w = g.area_weights();
        prop_assert!((w.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        prop_assert!(w.iter().all(|&x| x >= 0.0));
    }

    /// Haversine distance satisfies symmetry and the triangle inequality on
    /// random triples.
    #[test]
    fn haversine_metric(
        a in (-89.0f64..89.0, 0.0f64..360.0),
        b in (-89.0f64..89.0, 0.0f64..360.0),
        c in (-89.0f64..89.0, 0.0f64..360.0),
    ) {
        let d = |p: (f64, f64), q: (f64, f64)| Grid::distance_km(p.0, p.1, q.0, q.1);
        prop_assert!((d(a, b) - d(b, a)).abs() < 1e-6);
        prop_assert!(d(a, c) <= d(a, b) + d(b, c) + 1e-6);
        prop_assert!(d(a, a) < 1e-9);
    }
}
