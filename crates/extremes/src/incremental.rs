//! Incremental per-year extreme-index state.
//!
//! The streaming data plane hands analytics one year at a time; computing
//! record-to-date indices by re-running the batch pipeline over the whole
//! growing record would make year N cost O(N). This module carries the
//! per-cell accumulators across year boundaries instead — the run-length
//! state machine of [`crate::heatwave::wave_runs`] resumes from its open
//! run, threshold counts keep running sums, absolute extremes keep
//! running max/min — so each year is one pass over *new* data only.
//!
//! Every accumulator is constructed to be **bitwise-equal** to the batch
//! recompute over the concatenated record:
//!
//! * spells: a run spanning a year boundary is a single run, exactly as a
//!   batch scan over the concatenated mask would see it; an open run at
//!   the record end qualifies once it reaches the minimum length, exactly
//!   like [`crate::heatwave::scan_runs`]'s final emit;
//! * counts: the 0/1 masks sum to integers, and f32 addition of integers
//!   below 2^24 is exact, so per-year partial sums equal the batch sum;
//! * extremes: `max`/`min` folds are order-insensitive for the same
//!   element set (matching `ReduceOp::Max`/`Min` semantics).

use crate::heatwave::{HeatwaveIndices, WaveParams};
use datacube::model::{Cube, Dimension, SharedData};
use datacube::Result;

/// Per-cell run-length accumulator: statistics of closed runs plus the
/// length of the run still open at the newest day. This is the
/// `wave_runs` state machine split at an arbitrary point so it can resume
/// across year boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CellRuns {
    closed_longest: u32,
    closed_count: u32,
    closed_days: u32,
    open: u32,
}

impl CellRuns {
    /// Feeds one day. `min_len` decides whether a run qualifies when it
    /// closes.
    #[inline]
    fn push(&mut self, hot: bool, min_len: u32) {
        if hot {
            self.open += 1;
        } else {
            if self.open >= min_len {
                self.closed_longest = self.closed_longest.max(self.open);
                self.closed_count += 1;
                self.closed_days += self.open;
            }
            self.open = 0;
        }
    }

    /// `(longest, count, days)` of the record so far. The still-open run
    /// counts once it reaches `min_len` — exactly the final-emit rule of
    /// the batch scan, so this equals `wave_stats` over the concatenated
    /// mask at any split point.
    #[inline]
    fn stats(&self, min_len: u32) -> (u32, u32, u32) {
        let (mut longest, mut count, mut days) =
            (self.closed_longest, self.closed_count, self.closed_days);
        if self.open >= min_len {
            longest = longest.max(self.open);
            count += 1;
            days += self.open;
        }
        (longest, count, days)
    }
}

/// Record-to-date heat-wave (or cold-spell) index state for every cell of
/// a cube: the anomaly predicate of [`crate::heatwave::compute_indices`]
/// applied year by year, with the run-length machine carried across the
/// boundary.
pub struct WaveState {
    params: WaveParams,
    cold: bool,
    /// Dense per-cell baseline rows (`rows * baseline_ilen` values).
    baseline: Vec<f32>,
    baseline_ilen: usize,
    /// Explicit output dims, cloned from the baseline cube.
    dims: Vec<Dimension>,
    nfrag: usize,
    io_servers: usize,
    measure: String,
    cells: Vec<CellRuns>,
    days_total: usize,
}

impl WaveState {
    /// Builds empty state against a `(lat, lon | day-of-year)` baseline
    /// (an implicit length of 1 broadcasts, like `intercube`).
    pub fn new(
        baseline: &Cube,
        params: WaveParams,
        cold: bool,
        nfrag: usize,
        io_servers: usize,
    ) -> Self {
        let rows = baseline.rows();
        WaveState {
            params,
            cold,
            baseline: baseline.to_dense(),
            baseline_ilen: baseline.implicit_len().max(1),
            dims: baseline.explicit_dims().into_iter().cloned().collect(),
            nfrag,
            io_servers,
            measure: baseline.measure.clone(),
            cells: vec![CellRuns::default(); rows],
            days_total: 0,
        }
    }

    /// Folds one year's `(lat, lon | day)` daily-extreme cube into the
    /// record. Day `d` compares against baseline day `d` (calendar
    /// alignment), matching the per-year elementwise subtraction of the
    /// batch pipeline.
    pub fn update(&mut self, daily: &Cube) -> Result<()> {
        if daily.rows() != self.cells.len() {
            return Err(datacube::Error::SchemaMismatch(format!(
                "daily cube has {} cells, state has {}",
                daily.rows(),
                self.cells.len()
            )));
        }
        let ilen = daily.implicit_len().max(1);
        let (thr, min_len, cold) =
            (self.params.threshold_k, self.params.min_duration as u32, self.cold);
        for frag in &daily.frags {
            for r in 0..frag.row_count {
                let cell = frag.row_start + r;
                let row = &frag.data[r * ilen..(r + 1) * ilen];
                let base =
                    &self.baseline[cell * self.baseline_ilen..(cell + 1) * self.baseline_ilen];
                let state = &mut self.cells[cell];
                for (d, &v) in row.iter().enumerate() {
                    // Same ops as the fused pipeline: f32 subtract, then
                    // the strict predicate (NaN compares false → cold).
                    let anom = v - base[if self.baseline_ilen == 1 { 0 } else { d }];
                    let hot = if cold { anom < -thr } else { anom > thr };
                    state.push(hot, min_len);
                }
            }
        }
        self.measure = daily.measure.clone();
        self.days_total += ilen;
        Ok(())
    }

    /// Record-to-date index maps, value-identical to
    /// [`crate::heatwave::compute_indices`] over the concatenated record
    /// (with the baseline tiled per year).
    pub fn indices(&self) -> Result<HeatwaveIndices> {
        let min_len = self.params.min_duration as u32;
        let total = self.days_total;
        let duration_max = self.index_cube("hwd", |c| c.stats(min_len).0 as f32)?;
        let number = self.index_cube("hwn", |c| c.stats(min_len).1 as f32)?;
        let frequency = self.index_cube("hwf", |c| {
            let days = c.stats(min_len).2;
            if total == 0 {
                0.0
            } else {
                (days as f64 / total as f64) as f32
            }
        })?;
        Ok(HeatwaveIndices { duration_max, number, frequency })
    }

    fn index_cube(&self, name: &str, f: impl Fn(&CellRuns) -> f32) -> Result<Cube> {
        let data = SharedData::from_fn(self.cells.len(), |out| {
            for (o, c) in out.iter_mut().zip(&self.cells) {
                *o = f(c);
            }
        });
        let mut dims = self.dims.clone();
        dims.push(Dimension::implicit(name, vec![0.0]));
        let mut cube = Cube::from_shared(&self.measure, dims, data, self.nfrag, self.io_servers)?;
        cube.description = format!("map_series({name})");
        Ok(cube)
    }
}

/// Record-to-date ETCCDI counters and absolute extremes: frost days and
/// TNn from daily minima, summer days and TXx from daily maxima.
pub struct EtccdiState {
    frost: Vec<f32>,
    summer: Vec<f32>,
    txx: Vec<f32>,
    tnn: Vec<f32>,
    days_total: usize,
}

impl EtccdiState {
    pub fn new(rows: usize) -> Self {
        EtccdiState {
            frost: vec![0.0; rows],
            summer: vec![0.0; rows],
            txx: vec![f32::NEG_INFINITY; rows],
            tnn: vec![f32::INFINITY; rows],
            days_total: 0,
        }
    }

    /// Folds one year of daily maxima and minima into the counters.
    pub fn update(&mut self, tmax: &Cube, tmin: &Cube) -> Result<()> {
        if tmax.rows() != self.frost.len() || tmin.rows() != self.frost.len() {
            return Err(datacube::Error::SchemaMismatch(
                "year cube cell count differs from state".into(),
            ));
        }
        let ilen = tmax.implicit_len().max(1);
        for frag in &tmax.frags {
            for r in 0..frag.row_count {
                let cell = frag.row_start + r;
                for &v in &frag.data[r * ilen..(r + 1) * ilen] {
                    // Same predicates as `etccdi::summer_days` / `txx`.
                    self.summer[cell] += f32::from(v > 298.15);
                    self.txx[cell] = self.txx[cell].max(v);
                }
            }
        }
        let ilen = tmin.implicit_len().max(1);
        for frag in &tmin.frags {
            for r in 0..frag.row_count {
                let cell = frag.row_start + r;
                for &v in &frag.data[r * ilen..(r + 1) * ilen] {
                    self.frost[cell] += f32::from(v < 273.15);
                    self.tnn[cell] = self.tnn[cell].min(v);
                }
            }
        }
        self.days_total += ilen;
        Ok(())
    }

    /// Record-to-date per-cell values, in cell row order:
    /// `(frost_days, summer_days, txx, tnn)`.
    pub fn values(&self) -> (&[f32], &[f32], &[f32], &[f32]) {
        (&self.frost, &self.summer, &self.txx, &self.tnn)
    }

    pub fn days(&self) -> usize {
        self.days_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::etccdi;
    use crate::heatwave::{compute_indices, wave_stats};
    use datacube::exec::ExecConfig;
    use datacube::ops;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn cell_runs_match_batch_scan_at_every_split() {
        let mut rng = StdRng::seed_from_u64(7);
        for min_len in [1usize, 2, 3, 6] {
            for _ in 0..50 {
                let n = rng.gen_range(0..80);
                let mask: Vec<f32> =
                    (0..n).map(|_| if rng.gen_range(0..3) > 0 { 1.0 } else { 0.0 }).collect();
                // Feed in random chunks (the year boundaries).
                let mut acc = CellRuns::default();
                let mut i = 0;
                while i < n {
                    let take = rng.gen_range(1..=(n - i));
                    for &v in &mask[i..i + take] {
                        acc.push(v > 0.5, min_len as u32);
                    }
                    i += take;
                    // At *every* intermediate split the snapshot must
                    // equal the batch scan over the prefix.
                    let (l, c, d) = acc.stats(min_len as u32);
                    let (bl, bc, bd) = wave_stats(&mask[..i], min_len);
                    assert_eq!((l as usize, c as usize, d as usize), (bl, bc, bd));
                }
            }
        }
    }

    /// Random multi-year daily cubes plus a per-day baseline.
    fn random_years(
        rng: &mut StdRng,
        cells: usize,
        dpy: usize,
        years: usize,
        lo: f32,
    ) -> (Vec<Cube>, Cube) {
        use datacube::model::Dimension;
        let dims_base =
            vec![Dimension::explicit("cell", (0..cells).map(|c| c as f64).collect::<Vec<_>>())];
        let year_cubes: Vec<Cube> = (0..years)
            .map(|_| {
                let mut dims = dims_base.clone();
                dims.push(Dimension::implicit(
                    "day",
                    (0..dpy).map(|d| d as f64).collect::<Vec<_>>(),
                ));
                let data: Vec<f32> =
                    (0..cells * dpy).map(|_| lo + rng.gen_range(0..140) as f32 / 10.0).collect();
                Cube::from_dense("tasmax", dims, data, 2, 1).unwrap()
            })
            .collect();
        let mut bdims = dims_base;
        bdims.push(Dimension::implicit("day", (0..dpy).map(|d| d as f64).collect::<Vec<_>>()));
        let bdata: Vec<f32> =
            (0..cells * dpy).map(|_| 298.0 + rng.gen_range(0..40) as f32 / 10.0).collect();
        let baseline = Cube::from_dense("tasmax", bdims, bdata, 2, 1).unwrap();
        (year_cubes, baseline)
    }

    #[test]
    fn wave_state_matches_batch_recompute_bitwise() {
        let cfg = ExecConfig::serial();
        let mut rng = StdRng::seed_from_u64(11);
        for cold in [false, true] {
            let (years, baseline) = random_years(&mut rng, 6, 25, 3, 295.0);
            let params = WaveParams { threshold_k: 5.0, min_duration: 4 };
            let mut state = WaveState::new(&baseline, params, cold, 2, 1);
            let mut seen: Vec<&Cube> = Vec::new();
            for y in &years {
                state.update(y).unwrap();
                seen.push(y);
                // Batch recompute over the concatenated record, baseline
                // tiled once per year.
                let record = ops::concat_implicit(&seen, "day").unwrap();
                let tiled: Vec<&Cube> = std::iter::repeat_n(&baseline, seen.len()).collect();
                let base_rec = ops::concat_implicit(&tiled, "day").unwrap();
                let batch = compute_indices(&record, &base_rec, params, cold, cfg).unwrap();
                let inc = state.indices().unwrap();
                assert_eq!(inc.duration_max.to_dense(), batch.duration_max.to_dense());
                assert_eq!(inc.number.to_dense(), batch.number.to_dense());
                assert_eq!(inc.frequency.to_dense(), batch.frequency.to_dense());
                assert_eq!(inc.duration_max.description, batch.duration_max.description);
            }
        }
    }

    #[test]
    fn etccdi_state_matches_batch_recompute_bitwise() {
        let cfg = ExecConfig::serial();
        let mut rng = StdRng::seed_from_u64(23);
        let (tmax_years, _) = random_years(&mut rng, 5, 20, 3, 295.0);
        let (tmin_years, _) = random_years(&mut rng, 5, 20, 3, 266.0);
        let mut state = EtccdiState::new(5);
        let mut maxes: Vec<&Cube> = Vec::new();
        let mut mins: Vec<&Cube> = Vec::new();
        for (tx, tn) in tmax_years.iter().zip(&tmin_years) {
            state.update(tx, tn).unwrap();
            maxes.push(tx);
            mins.push(tn);
            let rec_max = ops::concat_implicit(&maxes, "day").unwrap();
            let rec_min = ops::concat_implicit(&mins, "day").unwrap();
            let (frost, summer, txx, tnn) = state.values();
            assert_eq!(frost, etccdi::frost_days(&rec_min, cfg).unwrap().to_dense().as_slice());
            assert_eq!(summer, etccdi::summer_days(&rec_max, cfg).unwrap().to_dense().as_slice());
            assert_eq!(txx, etccdi::txx(&rec_max, cfg).unwrap().to_dense().as_slice());
            assert_eq!(tnn, etccdi::tnn(&rec_min, cfg).unwrap().to_dense().as_slice());
            assert!(frost.iter().sum::<f32>() > 0.0, "frost predicate must actually fire");
            assert!(summer.iter().sum::<f32>() > 0.0, "summer predicate must actually fire");
        }
    }

    #[test]
    fn wave_state_rejects_mismatched_shapes() {
        use datacube::model::Dimension;
        let base = Cube::from_dense(
            "t",
            vec![Dimension::explicit("cell", vec![0.0, 1.0])],
            vec![300.0, 300.0],
            1,
            1,
        )
        .unwrap();
        let mut state = WaveState::new(&base, WaveParams::default(), false, 1, 1);
        let wrong = Cube::from_dense(
            "t",
            vec![Dimension::explicit("cell", vec![0.0]), Dimension::implicit("day", vec![0.0])],
            vec![300.0],
            1,
            1,
        )
        .unwrap();
        assert!(state.update(&wrong).is_err());
    }
}
