//! An injected error at the `esm.year` site surfaces as an I/O error.
//!
//! This test arms the process-wide chaos hook at `esm.year`, which every
//! simulation in the process consults at each year boundary. It therefore
//! lives in a test binary of its own: beside the crate's unit tests, a
//! concurrent simulation could take the error meant for this one.

use esm::{EsmConfig, Simulation};
use std::sync::Arc;

#[test]
fn chaos_error_at_year_boundary_surfaces_as_io_error() {
    let _guard = obs::chaos::install(Arc::new(|site: &str| {
        (site == "esm.year").then_some((obs::chaos::Fault::Error, 0))
    }));
    let dir = std::env::temp_dir().join("esm-chaos-year");
    std::fs::remove_dir_all(&dir).ok();
    let mut sim = Simulation::new(EsmConfig::test_small().with_days_per_year(3), &dir).unwrap();
    let err = sim.run_years(1, |_, _, _| {}).unwrap_err();
    assert!(err.to_string().contains("chaos"), "unexpected error: {err}");
    assert_eq!(sim.years_completed(), 0);
    assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 0, "no files before the fault");
}
