//! Result validation (workflow step 5: "the output of the analysis is then
//! validated and stored on disk").
//!
//! Checks that index cubes are structurally sound and physically plausible
//! before they are exported: no non-finite values, counts and durations in
//! legal ranges, frequencies in `[0, 1]`, and internal consistency between
//! the three indices (a cell with waves must have a duration ≥ the minimum;
//! a cell without waves must have zero duration and frequency).

use crate::heatwave::{HeatwaveIndices, WaveParams};
use datacube::model::Cube;

/// One validation finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    pub check: &'static str,
    pub detail: String,
}

/// Outcome of validating one year's indices.
#[derive(Debug, Clone)]
pub struct ValidationReport {
    pub findings: Vec<Finding>,
    pub cells_checked: usize,
}

impl ValidationReport {
    /// True when no problems were found.
    pub fn passed(&self) -> bool {
        self.findings.is_empty()
    }
}

fn check_finite(cube: &Cube, name: &'static str, findings: &mut Vec<Finding>) {
    let bad = cube.to_dense().iter().filter(|v| !v.is_finite()).count();
    if bad > 0 {
        findings.push(Finding { check: name, detail: format!("{bad} non-finite values") });
    }
}

/// Validates the three indices of one year against the wave parameters and
/// the number of days in the analysed year.
pub fn validate_indices(
    idx: &HeatwaveIndices,
    params: WaveParams,
    days_in_year: usize,
) -> ValidationReport {
    let mut findings = Vec::new();

    check_finite(&idx.duration_max, "duration-finite", &mut findings);
    check_finite(&idx.number, "number-finite", &mut findings);
    check_finite(&idx.frequency, "frequency-finite", &mut findings);

    let dur = idx.duration_max.to_dense();
    let num = idx.number.to_dense();
    let freq = idx.frequency.to_dense();

    if dur.len() != num.len() || num.len() != freq.len() {
        findings.push(Finding {
            check: "shape",
            detail: format!("index sizes differ: {} / {} / {}", dur.len(), num.len(), freq.len()),
        });
        return ValidationReport { findings, cells_checked: 0 };
    }

    for (cell, ((&d, &n), &f)) in dur.iter().zip(&num).zip(&freq).enumerate() {
        if d < 0.0 || d > days_in_year as f32 {
            findings.push(Finding {
                check: "duration-range",
                detail: format!("cell {cell}: duration {d} outside [0, {days_in_year}]"),
            });
        }
        if n < 0.0 || n.fract() != 0.0 {
            findings.push(Finding {
                check: "number-integer",
                detail: format!("cell {cell}: wave count {n} not a non-negative integer"),
            });
        }
        if !(0.0..=1.0).contains(&f) {
            findings.push(Finding {
                check: "frequency-range",
                detail: format!("cell {cell}: frequency {f} outside [0, 1]"),
            });
        }
        // Cross-index consistency.
        if n > 0.0 && (d as usize) < params.min_duration {
            findings.push(Finding {
                check: "consistency",
                detail: format!(
                    "cell {cell}: {n} waves but max duration {d} < minimum {}",
                    params.min_duration
                ),
            });
        }
        if n == 0.0 && (d != 0.0 || f != 0.0) {
            findings.push(Finding {
                check: "consistency",
                detail: format!("cell {cell}: no waves but duration {d} / frequency {f}"),
            });
        }
        // n waves of >= min_duration days occupy at least n*min days.
        let implied_min_freq = n * params.min_duration as f32 / days_in_year as f32;
        if f + 1e-6 < implied_min_freq {
            findings.push(Finding {
                check: "consistency",
                detail: format!(
                    "cell {cell}: frequency {f} below implied minimum {implied_min_freq}"
                ),
            });
        }
        if findings.len() > 50 {
            break; // cap report size; the year is clearly corrupt
        }
    }

    ValidationReport { findings, cells_checked: dur.len() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacube::exec::ExecConfig;
    use datacube::model::{Cube, Dimension};

    fn indices_from(daily: Vec<f32>, ndays: usize, ncells: usize) -> HeatwaveIndices {
        let dims = vec![
            Dimension::explicit("cell", (0..ncells).map(|i| i as f64).collect::<Vec<_>>()),
            Dimension::implicit("day", (0..ndays).map(|d| d as f64).collect::<Vec<_>>()),
        ];
        let daily = Cube::from_dense("t", dims, daily, 1, 1).unwrap();
        let bdims =
            vec![Dimension::explicit("cell", (0..ncells).map(|i| i as f64).collect::<Vec<_>>())];
        let baseline = Cube::from_dense("t", bdims, vec![300.0; ncells], 1, 1).unwrap();
        crate::heatwave::compute_indices(
            &daily,
            &baseline,
            WaveParams::default(),
            false,
            ExecConfig::serial(),
        )
        .unwrap()
    }

    /// Overwrites a cube's first value (payloads are immutable, so the
    /// fragment gets a fresh buffer).
    fn set_first(cube: &mut Cube, value: f32) {
        let mut data = cube.frags[0].data.as_slice().to_vec();
        data[0] = value;
        cube.frags[0].data = data.into();
    }

    #[test]
    fn genuine_pipeline_output_passes() {
        let ndays = 20;
        let mut data = Vec::new();
        // Cell with an 8-day wave, cell quiet.
        for d in 0..ndays {
            data.push(if (3..11).contains(&d) { 309.0 } else { 300.0 });
        }
        data.extend(std::iter::repeat_n(299.0, ndays));
        let idx = indices_from(data, ndays, 2);
        let report = validate_indices(&idx, WaveParams::default(), ndays);
        assert!(report.passed(), "findings: {:?}", report.findings);
        assert_eq!(report.cells_checked, 2);
    }

    #[test]
    fn corrupted_duration_is_flagged() {
        let ndays = 20;
        let data = vec![300.0; ndays];
        let mut idx = indices_from(data, ndays, 1);
        set_first(&mut idx.duration_max, 999.0);
        let report = validate_indices(&idx, WaveParams::default(), ndays);
        assert!(!report.passed());
        assert!(report.findings.iter().any(|f| f.check == "duration-range"));
    }

    #[test]
    fn non_finite_values_flagged() {
        let ndays = 10;
        let mut idx = indices_from(vec![300.0; ndays], ndays, 1);
        set_first(&mut idx.frequency, f32::NAN);
        let report = validate_indices(&idx, WaveParams::default(), ndays);
        assert!(report.findings.iter().any(|f| f.check == "frequency-finite"));
    }

    #[test]
    fn inconsistent_count_duration_flagged() {
        let ndays = 20;
        let mut idx = indices_from(vec![300.0; ndays], ndays, 1);
        // Claim a wave but leave duration at zero.
        set_first(&mut idx.number, 2.0);
        let report = validate_indices(&idx, WaveParams::default(), ndays);
        assert!(report.findings.iter().any(|f| f.check == "consistency"));
    }

    #[test]
    fn fractional_count_flagged() {
        let ndays = 20;
        let mut idx = indices_from(vec![300.0; ndays], ndays, 1);
        set_first(&mut idx.number, 1.5);
        set_first(&mut idx.duration_max, 8.0);
        set_first(&mut idx.frequency, 0.6);
        let report = validate_indices(&idx, WaveParams::default(), ndays);
        assert!(report.findings.iter().any(|f| f.check == "number-integer"));
    }

    #[test]
    fn report_is_capped_for_corrupt_years() {
        let ndays = 10;
        let ncells = 200;
        let mut idx = indices_from(vec![300.0; ndays * ncells], ndays, ncells);
        // All cells out of range.
        idx.frequency.frags[0].data = vec![7.0; idx.frequency.frags[0].data.len()].into();
        let report = validate_indices(&idx, WaveParams::default(), ndays);
        assert!(!report.passed());
        assert!(report.findings.len() <= 52, "report should be capped");
    }
}
