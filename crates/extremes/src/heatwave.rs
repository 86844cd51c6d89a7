//! Heat-wave / cold-spell indices.
//!
//! Section 5.3: "A heat wave is a period of unusually hot weather that
//! typically lasts six or more days. To be considered a heat wave, the
//! maximum temperature must be 5 °C higher than the historical averages
//! ... conversely for a cold wave the minimum temperature must be 5 °C
//! lower". The three indices computed per year are maps of
//! (i) the longest wave duration (HWD), (ii) the number of waves (HWN)
//! and (iii) the frequency of wave days (HWF).
//!
//! The pipeline mirrors the paper's Ophidia sub-workflow — anomaly =
//! `intercube(daily, baseline, Sub)`; mask = `apply(predicate(...))`;
//! per-cell run-length statistics via `map_series` — as ONE chain on the
//! datacube engine ([`exceedance_chain`] plus a terminal), so each index
//! is a single pass over the daily cube with no intermediate cube.

use datacube::exec::ExecConfig;
use datacube::expr::Expr;
use datacube::fuse::Pipeline;
use datacube::model::{Cube, Dimension, Fragment};
use datacube::ops::InterOp;
use datacube::Result;

/// The 0/1 mask expression `oph_predicate(x CMP, 1, 0)`; `cmp` is an
/// `oph_predicate`-style condition like `">5"` or `"<273.15"`.
pub(crate) fn mask_expr(cmp: &str) -> Result<Expr> {
    Expr::from_oph_predicate("x", cmp, "1", "0")
}

/// The chain every exceedance index starts with: `daily - reference`
/// (per-row broadcast when `reference` has no time axis), then the 0/1
/// mask of `anomaly CMP`. Callers append the terminal (or none, for the
/// mask cube itself) and run it over the daily cube.
pub(crate) fn exceedance_chain(reference: &Cube, cmp: &str) -> Result<Pipeline<'static>> {
    Ok(Pipeline::new().intercube(reference, InterOp::Sub).apply(mask_expr(cmp)?))
}

/// Assembles a single-value-per-cell index cube from the fused statistics
/// cube, selecting component `which` of each cell's record (the stats
/// cube's implicit axis). Mirrors the shape
/// a `map_series` terminal with `out_len = 1` produces: explicit dims
/// preserved, one implicit dim named `name`.
fn split_stat(stats: &Cube, which: usize, name: &str) -> Result<Cube> {
    let stride = stats.implicit_len().max(1);
    let frags = stats
        .frags
        .iter()
        .map(|f| Fragment {
            row_start: f.row_start,
            row_count: f.row_count,
            server: f.server,
            data: f.data.chunks(stride).map(|rec| rec[which]).collect(),
        })
        .collect();
    let mut dims: Vec<Dimension> = stats.explicit_dims().into_iter().cloned().collect();
    dims.push(Dimension::implicit(name, vec![0.0]));
    let out = Cube {
        measure: stats.measure.clone(),
        dims,
        frags,
        description: format!("map_series({name})"),
    };
    out.validate()?;
    Ok(out)
}

/// Wave criteria.
#[derive(Debug, Clone, Copy)]
pub struct WaveParams {
    /// Anomaly threshold in kelvin (5.0 per the paper; applied as `> +t`
    /// for heat waves and `< -t` for cold spells).
    pub threshold_k: f32,
    /// Minimum consecutive days for a wave (6 per the paper).
    pub min_duration: usize,
}

impl Default for WaveParams {
    fn default() -> Self {
        WaveParams { threshold_k: 5.0, min_duration: 6 }
    }
}

/// The three index maps of one year.
pub struct HeatwaveIndices {
    /// Longest wave duration per cell (days).
    pub duration_max: Cube,
    /// Number of waves per cell.
    pub number: Cube,
    /// Fraction of days belonging to waves per cell, in `[0, 1]`.
    pub frequency: Cube,
}

/// Lane width of the blocked run scan (the datacube engine's element-wise
/// phase uses the same eight-lane blocks).
const SCAN_LANES: usize = 8;

/// The shared run-length scan core: emits every hot run (`v > 0.5`) of
/// length ≥ `min_len` as `emit(start, length)`, in series order.
///
/// The series is consumed in [`SCAN_LANES`]-wide blocks, each first
/// collapsed to a hot-lane bitmask: an all-cold block closes any open run
/// in O(1) and an all-hot block extends it in O(1), so the per-element
/// state machine only runs inside mixed blocks (run boundaries). Emission
/// order and results are identical to the one-element-at-a-time scan for
/// every input, including NaN (NaN > 0.5 is false → cold).
fn scan_runs(mask: &[f32], min_len: usize, mut emit: impl FnMut(usize, usize)) {
    let n = mask.len();
    let mut start: Option<usize> = None;
    let mut i = 0usize;
    while i + SCAN_LANES <= n {
        let block = &mask[i..i + SCAN_LANES];
        let mut bits = 0u32;
        for (l, &v) in block.iter().enumerate() {
            bits |= u32::from(v > 0.5) << l;
        }
        match bits {
            0 => {
                if let Some(s) = start {
                    if i - s >= min_len {
                        emit(s, i - s);
                    }
                    start = None;
                }
            }
            0xFF => {
                if start.is_none() {
                    start = Some(i);
                }
            }
            _ => {
                for l in 0..SCAN_LANES {
                    let hot = bits & (1 << l) != 0;
                    match (hot, start) {
                        (true, None) => start = Some(i + l),
                        (false, Some(s)) => {
                            if i + l - s >= min_len {
                                emit(s, i + l - s);
                            }
                            start = None;
                        }
                        _ => {}
                    }
                }
            }
        }
        i += SCAN_LANES;
    }
    for (k, &v) in mask.iter().enumerate().skip(i) {
        let hot = v > 0.5;
        match (hot, start) {
            (true, None) => start = Some(k),
            (false, Some(s)) => {
                if k - s >= min_len {
                    emit(s, k - s);
                }
                start = None;
            }
            _ => {}
        }
    }
    if let Some(s) = start {
        if n - s >= min_len {
            emit(s, n - s);
        }
    }
}

/// Runs of consecutive exceedances of length ≥ `min_len` in a 0/1 mask
/// series. Returns `(start, length)` pairs.
pub fn wave_runs(mask: &[f32], min_len: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    scan_runs(mask, min_len, |s, l| out.push((s, l)));
    out
}

/// All three per-cell wave statistics — `(longest, count, wave_days)` —
/// from one allocation-free scan. This is the kernel the fused index
/// pipeline runs per cell.
pub fn wave_stats(mask: &[f32], min_len: usize) -> (usize, usize, usize) {
    let (mut longest, mut count, mut days) = (0usize, 0usize, 0usize);
    scan_runs(mask, min_len, |_, l| {
        longest = longest.max(l);
        count += 1;
        days += l;
    });
    (longest, count, days)
}

/// Number of qualifying runs.
pub fn wave_count(mask: &[f32], min_len: usize) -> usize {
    wave_stats(mask, min_len).1
}

/// Fraction of days inside qualifying runs.
pub fn wave_frequency(mask: &[f32], min_len: usize) -> f64 {
    if mask.is_empty() {
        return 0.0;
    }
    wave_stats(mask, min_len).2 as f64 / mask.len() as f64
}

/// [`exceedance_chain`] of a wave: heat waves use
/// `daily_max - baseline > threshold`; cold spells negate both sides.
fn wave_chain(baseline: &Cube, params: WaveParams, cold: bool) -> Result<Pipeline<'static>> {
    let t = params.threshold_k;
    exceedance_chain(baseline, &if cold { format!("<-{t}") } else { format!(">{t}") })
}

/// Builds the 0/1 exceedance mask cube (see [`wave_chain`]).
pub fn exceedance_mask(
    daily: &Cube,
    baseline: &Cube,
    params: WaveParams,
    cold: bool,
    cfg: ExecConfig,
) -> Result<Cube> {
    Ok(wave_chain(baseline, params, cold)?.run(daily, cfg)?.cube)
}

/// Computes the three indices from a `(lat, lon | day)` daily-extreme cube
/// and a `(lat, lon)` baseline.
pub fn compute_indices(
    daily: &Cube,
    baseline: &Cube,
    params: WaveParams,
    cold: bool,
    cfg: ExecConfig,
) -> Result<HeatwaveIndices> {
    let min_len = params.min_duration;
    // One fused pass over each fragment: anomaly subtraction, the 0/1
    // exceedance predicate, and the per-cell run-length statistics all run
    // inside a single kernel — every day of the daily cube is touched
    // exactly once, with no intermediate anomaly or mask cube.
    let stats = wave_chain(baseline, params, cold)?
        .map_series("stat", 3, move |row, out| {
            let (longest, count, days) = wave_stats(row, min_len);
            out[0] = longest as f32;
            out[1] = count as f32;
            out[2] = if row.is_empty() { 0.0 } else { (days as f64 / row.len() as f64) as f32 };
        })
        .run(daily, cfg)?
        .cube;
    let duration_max = split_stat(&stats, 0, "hwd")?;
    let number = split_stat(&stats, 1, "hwn")?;
    let frequency = split_stat(&stats, 2, "hwf")?;
    Ok(HeatwaveIndices { duration_max, number, frequency })
}

#[cfg(test)]
mod tests {
    use super::*;
    use datacube::model::Dimension;

    #[test]
    fn runs_detected_with_min_length() {
        //                 0    1    2    3    4    5    6    7    8    9
        let m = [0.0, 1.0, 1.0, 1.0, 0.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        assert_eq!(wave_runs(&m, 3), vec![(1, 3), (5, 5)]);
        assert_eq!(wave_runs(&m, 4), vec![(5, 5)]);
        assert_eq!(wave_runs(&m, 6), vec![]);
        assert_eq!(wave_stats(&m, 3).0, 5);
        assert_eq!(wave_count(&m, 3), 2);
        assert!((wave_frequency(&m, 3) - 0.8).abs() < 1e-12);
    }

    #[test]
    fn run_reaching_series_end_counts() {
        let m = [0.0, 0.0, 1.0, 1.0, 1.0];
        assert_eq!(wave_runs(&m, 3), vec![(2, 3)]);
        let all = [1.0; 7];
        assert_eq!(wave_runs(&all, 6), vec![(0, 7)]);
    }

    #[test]
    fn empty_and_cold_series() {
        assert!(wave_runs(&[], 6).is_empty());
        assert_eq!(wave_stats(&[0.0; 30], 6).0, 0);
        assert_eq!(wave_frequency(&[], 6), 0.0);
    }

    /// One cell with a known 8-day heat wave, one cell quiet.
    fn daily_cube() -> (Cube, Cube) {
        let ndays = 30;
        let dims = vec![
            Dimension::explicit("lat", vec![40.0]),
            Dimension::explicit("lon", vec![10.0, 200.0]),
            Dimension::implicit("day", (0..ndays).map(|d| d as f64).collect::<Vec<_>>()),
        ];
        let mut data = Vec::new();
        // Cell 0: baseline 300, +8 K anomaly on days 10..18.
        for d in 0..ndays {
            data.push(if (10..18).contains(&d) { 308.0 } else { 300.0 });
        }
        // Cell 1: flat at baseline.
        data.extend(std::iter::repeat_n(295.0, ndays));
        let daily = Cube::from_dense("tasmax", dims, data, 2, 1).unwrap();
        let bdims = vec![
            Dimension::explicit("lat", vec![40.0]),
            Dimension::explicit("lon", vec![10.0, 200.0]),
        ];
        let baseline = Cube::from_dense("tasmax", bdims, vec![300.0, 295.0], 2, 1).unwrap();
        (daily, baseline)
    }

    #[test]
    fn indices_on_known_event() {
        let (daily, baseline) = daily_cube();
        let idx =
            compute_indices(&daily, &baseline, WaveParams::default(), false, ExecConfig::serial())
                .unwrap();
        assert_eq!(idx.duration_max.to_dense(), vec![8.0, 0.0]);
        assert_eq!(idx.number.to_dense(), vec![1.0, 0.0]);
        let f = idx.frequency.to_dense();
        assert!((f[0] - 8.0 / 30.0).abs() < 1e-6);
        assert_eq!(f[1], 0.0);
    }

    #[test]
    fn short_events_do_not_qualify() {
        // 5-day anomaly < 6-day minimum.
        let ndays = 20;
        let dims = vec![
            Dimension::explicit("lat", vec![0.0]),
            Dimension::implicit("day", (0..ndays).map(|d| d as f64).collect::<Vec<_>>()),
        ];
        let data: Vec<f32> =
            (0..ndays).map(|d| if (5..10).contains(&d) { 310.0 } else { 300.0 }).collect();
        let daily = Cube::from_dense("tasmax", dims, data, 1, 1).unwrap();
        let bdims = vec![Dimension::explicit("lat", vec![0.0])];
        let baseline = Cube::from_dense("tasmax", bdims, vec![300.0], 1, 1).unwrap();
        let idx =
            compute_indices(&daily, &baseline, WaveParams::default(), false, ExecConfig::serial())
                .unwrap();
        assert_eq!(idx.number.to_dense(), vec![0.0]);
        assert_eq!(idx.duration_max.to_dense(), vec![0.0]);
    }

    #[test]
    fn threshold_is_strict_five_kelvin() {
        // +5.0 exactly must NOT trigger (paper: "must be 5 °C higher").
        let ndays = 10;
        let dims = vec![
            Dimension::explicit("lat", vec![0.0]),
            Dimension::implicit("day", (0..ndays).map(|d| d as f64).collect::<Vec<_>>()),
        ];
        let exact = Cube::from_dense("t", dims.clone(), vec![305.0; ndays], 1, 1).unwrap();
        let above = Cube::from_dense("t", dims, vec![305.1; ndays], 1, 1).unwrap();
        let bdims = vec![Dimension::explicit("lat", vec![0.0])];
        let baseline = Cube::from_dense("t", bdims, vec![300.0], 1, 1).unwrap();
        let p = WaveParams::default();
        let i_exact = compute_indices(&exact, &baseline, p, false, ExecConfig::serial()).unwrap();
        let i_above = compute_indices(&above, &baseline, p, false, ExecConfig::serial()).unwrap();
        assert_eq!(i_exact.number.to_dense(), vec![0.0]);
        assert_eq!(i_above.number.to_dense(), vec![1.0]);
    }

    #[test]
    fn cold_spell_uses_negative_threshold() {
        let ndays = 14;
        let dims = vec![
            Dimension::explicit("lat", vec![0.0]),
            Dimension::implicit("day", (0..ndays).map(|d| d as f64).collect::<Vec<_>>()),
        ];
        // 7 cold days at -9 K anomaly.
        let data: Vec<f32> = (0..ndays).map(|d| if d < 7 { 261.0 } else { 272.0 }).collect();
        let daily = Cube::from_dense("tasmin", dims, data, 1, 1).unwrap();
        let bdims = vec![Dimension::explicit("lat", vec![0.0])];
        let baseline = Cube::from_dense("tasmin", bdims, vec![270.0], 1, 1).unwrap();
        let p = WaveParams::default();
        let cold = compute_indices(&daily, &baseline, p, true, ExecConfig::serial()).unwrap();
        assert_eq!(cold.duration_max.to_dense(), vec![7.0]);
        // The same data run through the *heat* pipeline finds nothing.
        let heat = compute_indices(&daily, &baseline, p, false, ExecConfig::serial()).unwrap();
        assert_eq!(heat.number.to_dense(), vec![0.0]);
    }

    #[test]
    fn two_separate_waves_counted() {
        let ndays = 30;
        let dims = vec![
            Dimension::explicit("lat", vec![0.0]),
            Dimension::implicit("day", (0..ndays).map(|d| d as f64).collect::<Vec<_>>()),
        ];
        let data: Vec<f32> = (0..ndays)
            .map(|d| if (2..9).contains(&d) || (15..25).contains(&d) { 307.0 } else { 300.0 })
            .collect();
        let daily = Cube::from_dense("t", dims, data, 1, 1).unwrap();
        let bdims = vec![Dimension::explicit("lat", vec![0.0])];
        let baseline = Cube::from_dense("t", bdims, vec![300.0], 1, 1).unwrap();
        let idx =
            compute_indices(&daily, &baseline, WaveParams::default(), false, ExecConfig::serial())
                .unwrap();
        assert_eq!(idx.number.to_dense(), vec![2.0]);
        assert_eq!(idx.duration_max.to_dense(), vec![10.0]);
        assert!((idx.frequency.to_dense()[0] - 17.0 / 30.0).abs() < 1e-6);
    }
}
