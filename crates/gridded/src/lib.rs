//! # gridded — geospatial grids, fields and the raster toolbox
//!
//! Shared substrate for the ESM surrogate, the datacube engine and the
//! ML pipelines: regular latitude/longitude grids, 2-D/3-D field containers,
//! bilinear regridding, non-overlapping patch tiling (with the inverse
//! geo-referencing map the TC-localization workflow needs) and feature
//! scaling.
//!
//! The paper's CMCC-CM3 runs at 0.25° (768 latitudes × 1152 longitudes);
//! [`grid::Grid::cmcc_cm3`] reproduces exactly that geometry, while smaller
//! constructors keep tests and examples laptop-sized.

pub mod field;
pub mod grid;
pub mod regrid;
pub mod scale;
pub mod tile;

pub use field::{Field2, Field3};
pub use grid::Grid;
pub use regrid::regrid_bilinear;
pub use scale::ZScoreScaler;
pub use tile::{TileSpec, Tiling};
