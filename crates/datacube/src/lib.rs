//! # datacube — an Ophidia-style High Performance Data Analytics engine
//!
//! The paper's heat/cold-wave indices are computed with PyOphidia, the
//! Python bindings of the Ophidia HPDA framework (Section 4.2.2): an
//! array-based datacube engine that partitions multidimensional scientific
//! data into *fragments* distributed over in-memory I/O servers, executes
//! operator pipelines in parallel over those fragments, and keeps
//! intermediate cubes in memory between operators. This crate reimplements
//! that model:
//!
//! * [`model::Cube`] — datacubes with *explicit* (fragmented, e.g. lat/lon)
//!   and *implicit* (in-array, e.g. time) dimensions;
//! * [`ops`] — the operator set the workflow uses: `importnc`,
//!   `reduce`, `apply` (with an `oph_predicate`-style expression language,
//!   [`expr`]), `intercube`, `concat_implicit`, `exportnc`;
//! * [`fuse`] — the one execution engine behind those operators: compiles
//!   an apply→intercube→reduce chain (or a single operator) into one
//!   vectorized kernel per fragment, bitwise-equal to the scalar kernels
//!   kept in [`ops::scalar`] as its test oracle;
//! * [`exec`] — lane dispatch of fragment kernels over a configurable
//!   number of simulated I/O servers;
//! * [`store::CubeStore`] — the in-memory cube container that lets a
//!   pipeline load the 20-year baseline climatology **once** and reuse it
//!   across every year of the simulation (the paper's Section 5.3
//!   optimization, claim C2 in EXPERIMENTS.md);
//! * [`server`] — a PyOphidia-like client façade (`Client`, `CubeHandle`)
//!   with an operator audit trail, mirroring how Listing 1 of the paper
//!   drives Ophidia from workflow tasks.

pub mod cache;
pub mod error;
pub mod exec;
pub mod expr;
pub mod fuse;
pub mod model;
pub mod ops;
pub mod server;
pub mod store;

pub use cache::{CacheStats, CubeCache};
pub use error::{Error, Result};
pub use exec::ExecConfig;
pub use expr::Expr;
pub use model::{Cube, DimKind, Dimension};
pub use ops::ReduceOp;
pub use server::{Client, CubeHandle};
pub use store::{CubeId, CubeStore};
