//! # extremes — climate-extreme analytics: heat/cold waves and tropical cyclones
//!
//! The domain layer of the case study (Sections 5.3 and 5.4 of the paper):
//!
//! * [`heatwave`] — ETCCDI-style heat-wave / cold-spell indices on
//!   datacubes: longest duration (HWD), event count (HWN) and frequency
//!   (HWF) per year, using the +5 °C / −5 °C, ≥ 6-consecutive-days
//!   criterion the paper states, built on run-length analytics;
//! * [`tc`] — tropical-cyclone analysis: a deterministic detector
//!   (pressure minima + wind + vorticity + warm core), a trajectory
//!   stitcher, the CNN localization pipeline (regrid → tile → scale →
//!   infer → geo-reference) and verification metrics against the ESM's
//!   ground truth;
//! * [`etccdi`] — the wider ETCCDI daily-temperature index family the
//!   paper's wave definitions come from (threshold counts, percentile
//!   exceedances, spell-duration indices, absolute extremes);
//! * [`validate`] — the result-validation step (workflow step 5);
//! * [`maps`] — map products (workflow step 6): ASCII and PGM/PPM
//!   renderings of index maps, reproducing Figure 4.

pub mod etccdi;
pub mod heatwave;
pub mod incremental;
pub mod maps;
pub mod tc;
pub mod validate;

pub use heatwave::{HeatwaveIndices, WaveParams};
pub use incremental::{CellRuns, EtccdiState, WaveState};
pub use tc::cnn::TcCnn;
pub use tc::detect::{detect_timestep, Detection, DetectorParams};
pub use tc::serve::{BatchPolicy, BatchStats, CnnService};
pub use tc::track::{stitch_tracks, Track};
