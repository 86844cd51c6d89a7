//! # esm — a coupled Earth-System-Model surrogate for CMCC-CM3
//!
//! The paper's workflow starts from CMCC-CM3, a CESM-based coupled climate
//! model (CAM6 atmosphere + NEMO ocean at 0.25°, 768 × 1152 cells) that
//! writes one ~271 MB NetCDF file per simulated day: 6-hourly fields of
//! ~20 single-precision variables (Section 5.2). Running a real ESM is a
//! supercomputer-scale job; this crate implements the closest surrogate
//! that exercises the same downstream code paths:
//!
//! * a coupled stepper ([`model::CoupledModel`]) with an energy-balance
//!   atmosphere ([`atmos`]) — zonal climatology, seasonal and diurnal
//!   cycles, AR(1) spatially-coherent weather noise, pressure-derived winds
//!   — and a slab ocean ([`ocean`]) exchanging fluxes through a coupler
//!   ([`coupler`]) at a fixed sub-daily interval, exactly the
//!   atmosphere↔ocean contract Section 4.2.3 describes;
//! * greenhouse-gas forcing scenarios ([`forcing`]) supplying the yearly
//!   concentrations that drive the projection;
//! * an extreme-event generator ([`events`]) that injects the phenomena
//!   the case study analyses — multi-day heat waves and cold spells, and
//!   tropical cyclones with Holland-profile pressure/wind/warm-core
//!   structure following parametric genesis/track/intensity rules — while
//!   recording the **ground truth** needed to verify the detection
//!   pipelines;
//! * the daily output writer ([`output`]) producing `esm-YYYY-DDD.ncx`
//!   files whose full-resolution size reproduces the paper's 271 MB/day
//!   arithmetic;
//! * a multi-year run driver ([`run`]) with per-file progress callbacks,
//!   which is what the workflow's ESM task wraps.

pub mod atmos;
pub mod config;
pub mod coupler;
pub mod events;
pub mod forcing;
pub mod model;
pub mod noise;
pub mod ocean;
pub mod output;
pub mod run;
pub mod surface;

pub use config::EsmConfig;
pub use events::{TcTrack, TcTrackPoint, ThermalEvent, ThermalKind, YearEvents};
pub use forcing::Scenario;
pub use model::{CoupledModel, DailyFields};
pub use run::{RunSummary, Simulation};
