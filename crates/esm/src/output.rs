//! Daily output writer.
//!
//! One NCX file per simulated day, named `esm-YYYY-DDD.ncx` (DDD = 1-based
//! day of year), with dimensions `(time, lat, lon)` and the ~20 variables
//! of [`crate::model::OUTPUT_VARIABLES`] — the structure Section 5.2
//! describes. At the paper's resolution the payload arithmetic reproduces
//! the stated ~271 MB per file and ~100 GB per year.

use crate::model::DailyFields;
use gridded::Grid;
use ncformat::{DataType, Value, Writer};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// File name for a given simulated date.
pub fn file_name(year: i32, day0: usize) -> String {
    format!("esm-{year}-{:03}.ncx", day0 + 1)
}

/// Writes one day of output to `dir`, returning the file path. Uses the
/// streaming writer so only one variable stack is serialized at a time.
pub fn write_daily(dir: &Path, fields: &DailyFields) -> ncformat::Result<PathBuf> {
    let (year, day0) = (fields.year, fields.day);
    let grid = &fields.vars[0].1.grid;
    let spd = fields.vars[0].1.ntime;
    let path = dir.join(file_name(year, day0));
    // Write to a temp name then rename, so directory watchers never observe
    // a half-written day file.
    let tmp = dir.join(format!(".tmp-{}", file_name(year, day0)));

    let mut w = Writer::create(&tmp)?;
    w.set_attribute("model", Value::from("CMCC-CM3-surrogate"));
    w.set_attribute("year", Value::from(year as i64));
    w.set_attribute("day_of_year", Value::from(day0 as i64 + 1));
    w.add_dimension("time", spd)?;
    w.add_dimension("lat", grid.nlat)?;
    w.add_dimension("lon", grid.nlon)?;
    // Size the file up front: coordinate variables plus the ~20 stacks.
    let payload = ((spd + grid.nlat + grid.nlon) * DataType::F64.size()) as u64
        + fields.vars.len() as u64 * (grid.len() * spd * DataType::F32.size()) as u64;
    w.reserve(payload)?;
    w.add_variable_f64(
        "time",
        &["time"],
        &(0..spd).map(|t| t as f64 * 24.0 / spd as f64).collect::<Vec<_>>(),
        vec![],
    )?;
    w.add_variable_f64("lat", &["lat"], &grid.lats(), vec![])?;
    w.add_variable_f64("lon", &["lon"], &grid.lons(), vec![])?;
    for (name, field) in &fields.vars {
        w.add_variable_f32(name, &["time", "lat", "lon"], &field.data, vec![])?;
    }
    w.finish()?;
    // Chaos site "esm.write_day": `Poison` tears the file — cut to half
    // its length, trailing header lost, as a crash mid-copy leaves it —
    // before it lands, so every reader of this day gets a typed error.
    if obs::chaos::fire("esm.write_day") == Some(obs::chaos::Fault::Poison) {
        let f = std::fs::OpenOptions::new().write(true).open(&tmp)?;
        f.set_len(f.metadata()?.len() / 2)?;
    }
    std::fs::rename(&tmp, &path)?;
    Ok(path)
}

/// One simulated day held in memory: the same per-variable `(time, lat,
/// lon)` stacks `write_daily` serializes, as cheaply clonable
/// `Arc<[f32]>` windows ready to hand straight to analytics without an
/// encode→write→poll→read→decode round-trip.
#[derive(Debug, Clone)]
pub struct DayBlock {
    pub year: i32,
    /// 0-based day of year.
    pub day: usize,
    pub grid: Grid,
    pub steps_per_day: usize,
    /// `(name, stack)` in the model's output-variable order; each stack
    /// is `steps_per_day * grid.len()` values, time-major.
    pub vars: Vec<(String, Arc<[f32]>)>,
}

impl DayBlock {
    /// Captures a day of model output as shared in-memory windows.
    pub fn from_fields(fields: &DailyFields) -> Self {
        DayBlock {
            year: fields.year,
            day: fields.day,
            grid: fields.vars[0].1.grid.clone(),
            steps_per_day: fields.vars[0].1.ntime,
            vars: fields
                .vars
                .iter()
                .map(|(n, f)| (n.clone(), Arc::from(f.data.as_slice())))
                .collect(),
        }
    }

    /// The stack for one variable.
    pub fn var(&self, name: &str) -> Option<&Arc<[f32]>> {
        self.vars.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// Total f32 payload carried by this block, in bytes.
    pub fn payload_bytes(&self) -> u64 {
        self.vars.iter().map(|(_, v)| (v.len() * DataType::F32.size()) as u64).sum()
    }
}

/// Payload size in bytes of one daily file at a given geometry (header
/// metadata excluded; it is O(kB)).
pub fn daily_payload_bytes(nlat: usize, nlon: usize, steps: usize, nvars: usize) -> u64 {
    let per_var = (nlat * nlon * steps) as u64 * DataType::F32.size() as u64;
    // Coordinate variables are negligible but counted for honesty.
    let coords = ((nlat + nlon + steps) * DataType::F64.size()) as u64;
    per_var * nvars as u64 + coords
}

/// The paper's Section 5.2 numbers at full resolution.
pub fn paper_daily_mb() -> f64 {
    daily_payload_bytes(768, 1152, 4, 20) as f64 / (1024.0 * 1024.0)
}

/// Approximate bytes per simulated year at full resolution.
pub fn paper_yearly_gb() -> f64 {
    paper_daily_mb() * 365.0 / 1024.0
}

/// Convenience: predicted dataset payload for arbitrary configs (what
/// wfbench's `esm.write_MBps` divides by).
pub fn predicted_payload(fields: &DailyFields) -> u64 {
    let grid = &fields.vars[0].1.grid;
    let spd = fields.vars[0].1.ntime;
    ncformat::payload_size(
        &fields.vars.iter().map(|_| (DataType::F32, grid.len() * spd)).collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EsmConfig;
    use crate::model::CoupledModel;
    use ncformat::Reader;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("esm-output").join(name);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn file_names_are_one_based_days() {
        assert_eq!(file_name(2030, 0), "esm-2030-001.ncx");
        assert_eq!(file_name(2031, 364), "esm-2031-365.ncx");
    }

    #[test]
    fn paper_file_size() {
        // Section 5.2: "daily NetCDF files of size 271 MB with dimensions
        // of 768 x 1152 x 4 including around 20 variables" and "nearly
        // 100 GB" per year.
        let mb = paper_daily_mb();
        assert!(
            (268.0..274.0).contains(&mb),
            "daily file should be ~271 MB at paper resolution, got {mb:.1}"
        );
        let gb = paper_yearly_gb();
        assert!((92.0..100.5).contains(&gb), "yearly volume ~96-100 GB, got {gb:.1}");
    }

    #[test]
    fn write_and_read_back_daily_file() {
        let dir = tmpdir("roundtrip");
        let mut m = CoupledModel::new(EsmConfig::test_small().with_days_per_year(3));
        let fields = m.step_day();
        let path = write_daily(&dir, &fields).unwrap();
        assert_eq!(path.file_name().unwrap().to_str().unwrap(), "esm-2030-001.ncx");

        let rd = Reader::open(&path).unwrap();
        assert_eq!(rd.dimension("time").unwrap().size, 4);
        assert_eq!(rd.dimension("lat").unwrap().size, 48);
        assert_eq!(rd.dimension("lon").unwrap().size, 72);
        assert_eq!(rd.variables().len(), 23); // 20 vars + 3 coordinate vars
        let tas = rd.read_all_f32("tas").unwrap();
        assert_eq!(tas, fields.get("tas").unwrap().data);
        assert_eq!(rd.attribute("year").unwrap().as_f64(), Some(2030.0));
        // Lat coordinates come from the grid.
        let lats = rd.read_all_f64("lat").unwrap();
        assert!((lats[0] - (-88.125)).abs() < 1e-9);
    }

    #[test]
    fn no_tmp_files_left_behind() {
        let dir = tmpdir("tmpclean");
        let mut m = CoupledModel::new(EsmConfig::test_small().with_days_per_year(2));
        write_daily(&dir, &m.step_day()).unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
            .collect();
        assert!(leftovers.is_empty());
    }

    #[test]
    fn day_block_holds_the_day_fields() {
        let mut m = CoupledModel::new(EsmConfig::test_small().with_days_per_year(2));
        let fields = m.step_day();
        let block = DayBlock::from_fields(&fields);
        assert_eq!(block.var("tas").unwrap().as_ref(), fields.get("tas").unwrap().data.as_slice());
        assert_eq!(block.payload_bytes(), predicted_payload(&fields));
    }

    #[test]
    fn predicted_payload_matches_actual_file_size() {
        let dir = tmpdir("sizecheck");
        let mut m = CoupledModel::new(EsmConfig::test_small().with_days_per_year(2));
        let fields = m.step_day();
        let predicted = predicted_payload(&fields);
        let path = write_daily(&dir, &fields).unwrap();
        let actual = std::fs::metadata(&path).unwrap().len();
        // Header + coordinates add a little; payload dominates.
        assert!(actual >= predicted);
        assert!(actual < predicted + 64 * 1024, "actual {actual} vs predicted {predicted}");
    }
}
