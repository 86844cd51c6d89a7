//! Property tests on the extremes analytics invariants.

use datacube::exec::ExecConfig;
use datacube::expr::Expr;
use datacube::model::{Cube, Dimension};
use datacube::ops::scalar;
use datacube::ops::{InterOp, ReduceOp};
use extremes::etccdi;
use extremes::heatwave::{
    exceedance_mask, wave_count, wave_frequency, wave_runs, wave_stats, WaveParams,
};
use extremes::tc::metrics::verify;
use proptest::prelude::*;

/// `(cell | day)` daily cube: kelvin-range values with NaN-payload, ±inf,
/// -0.0 and +0.0 cells mixed in (`cold` = every day far below every
/// threshold), plus a finite per-cell threshold cube with no time axis.
fn daily_and_threshold(
    cells: usize,
    days: usize,
    nfrag: usize,
    cold: bool,
    seed: u64,
) -> (Cube, Cube) {
    let mut state = seed;
    let mut next = move || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    };
    let cell_dim = Dimension::explicit("cell", (0..cells).map(|c| c as f64).collect::<Vec<_>>());
    let data: Vec<f32> = (0..cells * days)
        .map(|_| match next() % 20 {
            _ if cold => 200.0,
            0 => f32::from_bits(0x7fc0_1234),
            1 => f32::INFINITY,
            2 => f32::NEG_INFINITY,
            3 => -0.0,
            4 => 0.0,
            _ => 255.0 + (next() % 600) as f32 / 10.0,
        })
        .collect();
    let dims = vec![
        cell_dim.clone(),
        Dimension::implicit("day", (0..days).map(|d| d as f64).collect::<Vec<_>>()),
    ];
    let daily = Cube::from_dense("tas", dims, data, nfrag, 2).unwrap();
    let thr: Vec<f32> = (0..cells).map(|_| 280.0 + (next() % 100) as f32 / 10.0).collect();
    (daily, Cube::from_dense("thr", vec![cell_dim], thr, nfrag.max(2) - 1, 1).unwrap())
}

/// Bitwise identity of two operator results: values, dims, provenance.
fn assert_same(what: &str, engine: &Cube, oracle: &Cube) {
    let bits = |c: &Cube| c.to_dense().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
    assert_eq!(bits(engine), bits(oracle), "{what}: values");
    assert_eq!(engine.dims, oracle.dims, "{what}: dims");
    assert_eq!(engine.description, oracle.description, "{what}: description");
    assert_eq!(engine.measure, oracle.measure, "{what}: measure");
}

/// The 0/1 mask `apply(predicate(x CMP, 1, 0))` on the scalar kernel.
fn scalar_mask(cube: &Cube, cmp: &str, cfg: ExecConfig) -> Cube {
    scalar::apply(cube, &Expr::from_oph_predicate("x", cmp, "1", "0").unwrap(), cfg)
}

/// `intercube(Sub) → mask` written out with the scalar kernels — the
/// prefix of every exceedance index.
fn scalar_exceedance(daily: &Cube, reference: &Cube, cmp: &str, cfg: ExecConfig) -> Cube {
    scalar_mask(&scalar::intercube(daily, reference, InterOp::Sub, cfg).unwrap(), cmp, cfg)
}

/// Random 0/1 mask series.
fn mask_strategy() -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(prop_oneof![Just(0.0f32), Just(1.0f32)], 0..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Run-length invariants: runs are disjoint, in-bounds, at least
    /// min_len long, fully hot, and maximal (bounded by cold or edges).
    #[test]
    fn wave_runs_are_maximal_hot_intervals(mask in mask_strategy(), min_len in 1usize..8) {
        let runs = wave_runs(&mask, min_len);
        let mut prev_end = 0usize;
        for &(start, len) in &runs {
            prop_assert!(len >= min_len);
            prop_assert!(start + len <= mask.len());
            prop_assert!(start >= prev_end, "runs must be disjoint and ordered");
            prev_end = start + len;
            // Entirely hot.
            prop_assert!(mask[start..start + len].iter().all(|&v| v > 0.5));
            // Maximal: cold (or boundary) on both sides.
            if start > 0 {
                prop_assert!(mask[start - 1] <= 0.5);
            }
            if start + len < mask.len() {
                prop_assert!(mask[start + len] <= 0.5);
            }
        }
    }

    /// Aggregate indices are consistent with the run list.
    #[test]
    fn indices_agree_with_runs(mask in mask_strategy(), min_len in 1usize..8) {
        let runs = wave_runs(&mask, min_len);
        prop_assert_eq!(wave_count(&mask, min_len), runs.len());
        prop_assert_eq!(
            wave_stats(&mask, min_len).0,
            runs.iter().map(|&(_, l)| l).max().unwrap_or(0)
        );
        let days: usize = runs.iter().map(|&(_, l)| l).sum();
        let freq = wave_frequency(&mask, min_len);
        if mask.is_empty() {
            prop_assert_eq!(freq, 0.0);
        } else {
            prop_assert!((freq - days as f64 / mask.len() as f64).abs() < 1e-12);
        }
        prop_assert!((0.0..=1.0).contains(&freq));
    }

    /// Raising the minimum duration can only shrink every index.
    #[test]
    fn indices_monotone_in_min_duration(mask in mask_strategy()) {
        for min_len in 1usize..7 {
            prop_assert!(wave_count(&mask, min_len) >= wave_count(&mask, min_len + 1));
            prop_assert!(wave_frequency(&mask, min_len) >= wave_frequency(&mask, min_len + 1));
            let l1 = wave_stats(&mask, min_len).0;
            let l2 = wave_stats(&mask, min_len + 1).0;
            prop_assert!(l1 >= l2);
        }
    }

    /// Appending a cold day never changes existing runs' contribution.
    #[test]
    fn cold_suffix_preserves_indices(mask in mask_strategy(), min_len in 1usize..8) {
        let mut extended = mask.clone();
        extended.push(0.0);
        prop_assert_eq!(wave_count(&mask, min_len), wave_count(&extended, min_len));
        prop_assert_eq!(wave_stats(&mask, min_len).0, wave_stats(&extended, min_len).0);
    }

    /// Every batch index is one chain on the datacube engine; each must be
    /// bit for bit (values, dims, `description`) the same chain written
    /// out operator by operator with the scalar kernels — NaN/±0/inf cells
    /// and an all-cold year included.
    #[test]
    fn batch_indices_match_the_scalar_operator_chains(
        cells in 1usize..9,
        days in 1usize..40,
        nfrag in 1usize..5,
        min_len in 1usize..7,
        kind in 0u8..4,
        seed in any::<u64>(),
    ) {
        let cfg = ExecConfig::with_servers(3);
        let (daily, thr) = daily_and_threshold(cells, days, nfrag, kind == 0, seed);
        let count = |cmp: &str| {
            scalar::reduce(&scalar_mask(&daily, cmp, cfg), ReduceOp::Sum, "day", cfg).unwrap()
        };
        assert_same("frost_days", &etccdi::frost_days(&daily, cfg).unwrap(), &count("<273.15"));
        assert_same("icing_days", &etccdi::icing_days(&daily, cfg).unwrap(), &count("<273.15"));
        assert_same("summer_days", &etccdi::summer_days(&daily, cfg).unwrap(), &count(">298.15"));
        let engine = etccdi::tropical_nights(&daily, cfg).unwrap();
        assert_same("tropical_nights", &engine, &count(">293.15"));
        let oracle = scalar::reduce(&daily, ReduceOp::Max, "day", cfg).unwrap();
        assert_same("txx", &etccdi::txx(&daily, cfg).unwrap(), &oracle);
        let oracle = scalar::reduce(&daily, ReduceOp::Min, "day", cfg).unwrap();
        assert_same("tnn", &etccdi::tnn(&daily, cfg).unwrap(), &oracle);

        // Rates: the exceedance count, then its own f64 `x / days` divide.
        let divide = Expr::parse(&format!("x / {}", days as f64)).unwrap();
        for (cmp, engine) in [
            (">0", etccdi::exceedance_rate(&daily, &thr, cfg).unwrap()),
            ("<0", etccdi::deficit_rate(&daily, &thr, cfg).unwrap()),
        ] {
            let mask = scalar_exceedance(&daily, &thr, cmp, cfg);
            let count = scalar::reduce(&mask, ReduceOp::Sum, "day", cfg).unwrap();
            assert_same("rate", &engine, &scalar::apply(&count, &divide, cfg));
        }
        for cold in [false, true] {
            let mask = scalar_exceedance(&daily, &thr, if cold { "<0" } else { ">0" }, cfg);
            let oracle = scalar::map_series(&mask, "sdi", 1, cfg, |row| {
                vec![wave_runs(row, min_len).iter().map(|&(_, l)| l).sum::<usize>() as f32]
            });
            let engine = etccdi::spell_duration_index(&daily, &thr, min_len, cold, cfg).unwrap();
            assert_same("spell_duration_index", &engine, &oracle.unwrap());

            let params = WaveParams { threshold_k: 5.0, min_duration: min_len };
            let oracle = scalar_exceedance(&daily, &thr, if cold { "<-5" } else { ">5" }, cfg);
            let engine = exceedance_mask(&daily, &thr, params, cold, cfg).unwrap();
            assert_same("exceedance_mask", &engine, &oracle);
        }
    }

    /// Verification metrics invariants: POD and FAR in [0,1], hits bounded
    /// by both sets, identity scoring is perfect.
    #[test]
    fn verify_score_bounds(
        truth in proptest::collection::vec((0usize..20, -60.0f64..60.0, 0.0f64..360.0), 0..20),
        pred in proptest::collection::vec((0usize..20, -60.0f64..60.0, 0.0f64..360.0), 0..20),
        radius in 50.0f64..2000.0,
    ) {
        let s = verify(&truth, &pred, radius);
        prop_assert_eq!(s.hits + s.misses, truth.len());
        prop_assert_eq!(s.hits + s.false_alarms, pred.len());
        if !truth.is_empty() {
            prop_assert!((0.0..=1.0).contains(&s.pod));
        }
        prop_assert!((0.0..=1.0).contains(&s.far));
        if s.hits > 0 {
            prop_assert!(s.mean_error_km <= radius + 1e-9);
        }

        // Perfect self-match.
        let perfect = verify(&truth, &truth, radius);
        prop_assert_eq!(perfect.hits, truth.len());
        prop_assert_eq!(perfect.false_alarms, 0);
    }
}

/// On a zero-length time axis engine and oracle agree like anywhere else:
/// the reductions' identities per cell, empty masks, the usual dims and
/// provenance.
#[test]
fn batch_indices_are_defined_on_a_zero_length_time_axis() {
    let cfg = ExecConfig::with_servers(2);
    let (daily, thr) = daily_and_threshold(5, 0, 3, false, 1);
    let expect = |what: &str, engine: datacube::Result<Cube>, oracle: Cube, value: f32| {
        let engine = engine.unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_same(what, &engine, &oracle);
        assert!(engine.to_dense().iter().all(|v| v.to_bits() == value.to_bits()), "{what}");
        assert_eq!(engine.rows(), 5, "{what}");
    };
    let count = |cmp| scalar::reduce(&scalar_mask(&daily, cmp, cfg), ReduceOp::Sum, "day", cfg);
    expect("frost_days", etccdi::frost_days(&daily, cfg), count("<273.15").unwrap(), 0.0);
    expect("summer_days", etccdi::summer_days(&daily, cfg), count(">298.15").unwrap(), 0.0);
    let fold = |op| scalar::reduce(&daily, op, "day", cfg).unwrap();
    expect("txx", etccdi::txx(&daily, cfg), fold(ReduceOp::Max), f32::NEG_INFINITY);
    expect("tnn", etccdi::tnn(&daily, cfg), fold(ReduceOp::Min), f32::INFINITY);
    let mask = scalar_exceedance(&daily, &thr, ">0", cfg);
    let spells = scalar::map_series(&mask, "sdi", 1, cfg, |row| {
        vec![wave_runs(row, 6).iter().map(|&(_, l)| l).sum::<usize>() as f32]
    });
    let wsdi = etccdi::spell_duration_index(&daily, &thr, 6, false, cfg);
    expect("wsdi", wsdi, spells.unwrap(), 0.0);
    // 0 exceedances over 0 days: the f64 divide yields NaN, not a panic.
    let rate = etccdi::exceedance_rate(&daily, &thr, cfg).unwrap();
    assert!(rate.to_dense().iter().all(|v| v.is_nan()));
    let engine = exceedance_mask(&daily, &thr, WaveParams::default(), true, cfg).unwrap();
    assert_same("exceedance_mask", &engine, &scalar_exceedance(&daily, &thr, "<-5", cfg));
    assert_eq!((engine.rows(), engine.implicit_len(), engine.len()), (5, 0, 0));
}
