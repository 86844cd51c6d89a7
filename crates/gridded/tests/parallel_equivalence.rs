//! Parallel-vs-serial equivalence for the pooled gridded paths.
//!
//! The in-crate unit tests all use grids below the parallel dispatch
//! threshold, so these tests use large grids that take the pooled path
//! and check them against serial oracles. Row/tile kernels are
//! self-contained (no cross-row accumulation), so results must be
//! *bitwise* identical to serial, not merely close.

use gridded::field::Field2;
use gridded::grid::Grid;
use gridded::regrid::regrid_bilinear;
use gridded::tile::{TileSpec, Tiling};

fn wavy(g: &Grid) -> Field2 {
    let mut f = Field2::constant(g.clone(), 0.0);
    for i in 0..g.nlat {
        for j in 0..g.nlon {
            let v = ((i * 31 + j * 17) % 101) as f32 / 7.0 - 5.0;
            f.set(i, j, v);
        }
    }
    f
}

#[test]
fn large_identity_regrid_takes_parallel_path_and_is_exact() {
    // 128*192 = 24576 destination cells: above the dispatch threshold.
    let g = Grid::global(128, 192);
    let f = wavy(&g);
    let out = regrid_bilinear(&f, &g);
    for i in 0..g.nlat {
        for j in 0..g.nlon {
            let (a, b) = (out.get(i, j), f.get(i, j));
            assert!((a - b).abs() < 1e-4, "({i},{j}): {a} vs {b}");
        }
    }
}

#[test]
fn large_constant_regrid_is_constant() {
    let f = Field2::constant(Grid::global(96, 144), 3.25);
    let out = regrid_bilinear(&f, &Grid::global(160, 240));
    for v in &out.data {
        assert!((v - 3.25).abs() < 1e-5);
    }
}

#[test]
fn large_extract_all_matches_per_tile_extract_bitwise() {
    // 20*20 tiles of 8x8 = 25600 covered cells: extract_all fans tiles
    // out onto the pool, while Tiling::extract stays serial — comparing
    // the two is a direct parallel-vs-serial equivalence check.
    let g = Grid::global(160, 160);
    let f = wavy(&g);
    let t = Tiling::plan(g, TileSpec { patch: 8 });
    assert_eq!(t.rows * t.cols, 400);
    let all = t.extract_all(&f);
    assert_eq!(all.len(), 400);
    for r in 0..t.rows {
        for c in 0..t.cols {
            assert_eq!(all[r * t.cols + c], t.extract(&f, r, c), "tile ({r},{c})");
        }
    }
}
