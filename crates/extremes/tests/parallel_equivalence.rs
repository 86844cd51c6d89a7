//! Parallel-vs-serial equivalence for the fused, pooled run-length
//! kernels: the heat-wave indices and the spell-duration index must not
//! depend on the lane count, and the fused single-scan statistics must
//! match the standalone per-cell scans exactly.

use datacube::exec::ExecConfig;
use datacube::model::{Cube, Dimension};
use extremes::etccdi::spell_duration_index;
use extremes::heatwave::{
    compute_indices, exceedance_mask, wave_count, wave_frequency, wave_runs, wave_stats, WaveParams,
};

/// Many cells with varied exceedance patterns across several fragments.
fn synthetic_daily(cells: usize, ndays: usize, nfrag: usize) -> (Cube, Cube) {
    let dims = vec![
        Dimension::explicit("cell", (0..cells).map(|c| c as f64).collect::<Vec<_>>()),
        Dimension::implicit("day", (0..ndays).map(|d| d as f64).collect::<Vec<_>>()),
    ];
    let mut data = Vec::with_capacity(cells * ndays);
    for c in 0..cells {
        for d in 0..ndays {
            // Pseudo-random hot spells: deterministic, cell-dependent.
            let hot = (c * 13 + d * 7) % 23 < 9 || (d >= c % 11 && d < c % 11 + 7);
            data.push(if hot { 308.0 } else { 300.0 });
        }
    }
    let daily = Cube::from_dense("tasmax", dims, data, nfrag, 2).unwrap();
    let bdims = vec![Dimension::explicit("cell", (0..cells).map(|c| c as f64).collect::<Vec<_>>())];
    let baseline = Cube::from_dense("tasmax", bdims, vec![300.0; cells], nfrag, 2).unwrap();
    (daily, baseline)
}

#[test]
fn indices_are_lane_count_invariant() {
    let (daily, baseline) = synthetic_daily(97, 60, 7);
    let p = WaveParams::default();
    let serial = compute_indices(&daily, &baseline, p, false, ExecConfig::serial()).unwrap();
    for servers in [2, 4, 8] {
        let par = compute_indices(&daily, &baseline, p, false, ExecConfig::with_servers(servers))
            .unwrap();
        assert_eq!(par.duration_max.to_dense(), serial.duration_max.to_dense());
        assert_eq!(par.number.to_dense(), serial.number.to_dense());
        assert_eq!(par.frequency.to_dense(), serial.frequency.to_dense());
    }
}

#[test]
fn fused_scan_matches_standalone_per_cell_functions() {
    let (daily, baseline) = synthetic_daily(64, 45, 5);
    let p = WaveParams::default();
    let cfg = ExecConfig::with_servers(3);
    let idx = compute_indices(&daily, &baseline, p, false, cfg).unwrap();
    let mask = exceedance_mask(&daily, &baseline, p, false, cfg).unwrap();
    let dense_mask = mask.to_dense();
    let ndays = mask.implicit_len();
    let (hwd, hwn, hwf) =
        (idx.duration_max.to_dense(), idx.number.to_dense(), idx.frequency.to_dense());
    for (c, row) in dense_mask.chunks(ndays).enumerate() {
        assert_eq!(hwd[c], wave_stats(row, p.min_duration).0 as f32, "cell {c} HWD");
        assert_eq!(hwn[c], wave_count(row, p.min_duration) as f32, "cell {c} HWN");
        assert_eq!(hwf[c], wave_frequency(row, p.min_duration) as f32, "cell {c} HWF");
    }
}

/// The blocked 8-lane run scan must reproduce the one-element-at-a-time
/// state machine exactly: every length around the lane boundary, masks
/// with runs that start/end mid-block, and NaN treated as cold.
#[test]
fn wave_runs_blocked_scan_matches_scalar_reference() {
    // Scalar reference: the pre-vectorization per-element scan.
    fn reference(mask: &[f32], min_len: usize) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut start = None;
        for (i, &v) in mask.iter().enumerate() {
            let hot = v > 0.5;
            match (hot, start) {
                (true, None) => start = Some(i),
                (false, Some(s)) => {
                    if i - s >= min_len {
                        out.push((s, i - s));
                    }
                    start = None;
                }
                _ => {}
            }
        }
        if let Some(s) = start {
            if mask.len() - s >= min_len {
                out.push((s, mask.len() - s));
            }
        }
        out
    }

    for len in 0..48usize {
        for seed in 0..12u64 {
            let mask: Vec<f32> = (0..len)
                .map(|i| {
                    let h =
                        (i as u64).wrapping_mul(seed.wrapping_mul(2) + 0x9e37).wrapping_add(seed)
                            % 7;
                    match h {
                        0..=2 => 1.0,
                        3 => f32::NAN, // NaN > 0.5 is false: cold in both paths
                        _ => 0.0,
                    }
                })
                .collect();
            for min_len in 1..7 {
                assert_eq!(
                    wave_runs(&mask, min_len),
                    reference(&mask, min_len),
                    "len {len} seed {seed} min_len {min_len}"
                );
            }
        }
    }
    // All-hot and all-cold series at exact block multiples.
    for len in [8usize, 16, 24] {
        assert_eq!(wave_runs(&vec![1.0; len], 6), vec![(0, len)]);
        assert_eq!(wave_runs(&vec![0.0; len], 1), vec![]);
    }
}

#[test]
fn spell_duration_index_is_lane_count_invariant() {
    let (daily, baseline) = synthetic_daily(41, 50, 4);
    let serial = spell_duration_index(&daily, &baseline, 6, false, ExecConfig::serial()).unwrap();
    let par =
        spell_duration_index(&daily, &baseline, 6, false, ExecConfig::with_servers(5)).unwrap();
    assert_eq!(par.to_dense(), serial.to_dense());
}
