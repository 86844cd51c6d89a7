//! Bit-level pin of the coupled model's output. A digest of every bit of
//! every output variable of `CoupledModel::step_day`, over enough days that
//! thermal events and tropical cyclones are carved into the fields, is
//! compared against a constant. A refactor of the model's inner loops
//! (hoisting invariants, reordering work) must leave these digests alone;
//! a deliberate change of the model's physics updates them and says so.

use esm::{CoupledModel, EsmConfig};
use gridded::Grid;

/// FNV-1a over each variable's name and the `to_bits` of all its values,
/// day after day.
fn digest_days(cfg: EsmConfig, days: usize) -> (u64, usize, usize) {
    let mut m = CoupledModel::new(cfg);
    let spd = m.cfg.timesteps_per_day;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    let (mut thermal_days, mut tc_steps) = (0, 0);
    for _ in 0..days {
        let (_, day) = m.date();
        let ev = m.year_events();
        thermal_days += ev.thermal.iter().filter(|e| e.footprint(day).is_some()).count();
        tc_steps += (0..spd)
            .map(|s| ev.tcs.iter().filter(|t| t.at(day, s).is_some()).count())
            .sum::<usize>();
        let out = m.step_day();
        assert_eq!(out.vars.len(), 20);
        for (name, field) in &out.vars {
            eat(name.as_bytes());
            for v in &field.data {
                eat(&v.to_bits().to_le_bytes());
            }
        }
    }
    (h, thermal_days, tc_steps)
}

/// All 20 variables over the whole 36-day `test_small` year (48 × 72).
const TEST_SMALL_DIGEST: u64 = 0xcafc_f674_192e_ecf6;

/// All 20 variables over a 10-day year at 96 × 144.
const GRID_96X144_DIGEST: u64 = 0x5b4d_1cf1_2cee_98d8;

#[test]
fn test_small_year_is_bitwise_pinned() {
    let (h, thermal, tcs) = digest_days(EsmConfig::test_small(), 36);
    println!("test_small digest {h:#018x}: {thermal} thermal event-days, {tcs} TC steps");
    assert!(thermal > 0 && tcs > 0, "the pinned days must carry events: {thermal} / {tcs}");
    assert_eq!(h, TEST_SMALL_DIGEST, "test_small output moved: {h:#018x}");
}

#[test]
fn grid_96x144_days_are_bitwise_pinned() {
    let cfg = EsmConfig::test_small().with_grid(Grid::global(96, 144)).with_days_per_year(10);
    let (h, thermal, tcs) = digest_days(cfg, 10);
    println!("96x144 digest {h:#018x}: {thermal} thermal event-days, {tcs} TC steps");
    assert!(thermal > 0 && tcs > 0, "the pinned days must carry events: {thermal} / {tcs}");
    assert_eq!(h, GRID_96X144_DIGEST, "96x144 output moved: {h:#018x}");
}
