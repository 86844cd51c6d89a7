//! Property tests for the zero-copy data plane: every operator run on an
//! arbitrarily fragmented cube must produce output **bitwise identical**
//! (`f32::to_bits`) to the same operator run on the single-fragment, serial
//! equivalent. Floating-point tolerance is deliberately NOT used — the
//! shared-buffer kernels are required to preserve the exact iteration
//! order of a dense implementation, so results must match to the bit.

use datacube::exec::ExecConfig;
use datacube::fuse::Pipeline;
use datacube::model::{Cube, Dimension};
use datacube::ops::{self, InterOp, ReduceOp};
use proptest::prelude::*;

/// Builds a (lat, lon | time) cube with deterministic pseudo-random data
/// and the requested fragmentation.
fn build(nlat: usize, nlon: usize, nt: usize, nfrag: usize, servers: usize, seed: u64) -> Cube {
    let dims = vec![
        Dimension::explicit("lat", (0..nlat).map(|i| i as f64).collect::<Vec<_>>()),
        Dimension::explicit("lon", (0..nlon).map(|i| i as f64).collect::<Vec<_>>()),
        Dimension::implicit("time", (0..nt).map(|i| i as f64).collect::<Vec<_>>()),
    ];
    let data: Vec<f32> = (0..nlat * nlon * nt)
        .map(|i| {
            let h = (i as u64).wrapping_mul(seed | 1).wrapping_add(0x9e37_79b9);
            ((h >> 11) % 2000) as f32 / 7.0 - 140.0
        })
        .collect();
    Cube::from_dense("m", dims, data, nfrag, servers).unwrap()
}

/// Bitwise image of a dense payload — equality here is exact, NaN-safe and
/// sign-of-zero-sensitive.
fn bits(c: &Cube) -> Vec<u32> {
    c.to_dense().iter().map(|v| v.to_bits()).collect()
}

/// The workload's shape: 90 singleton-day maps over a 96×144 grid (13,824
/// rows, 8 fragments on 2 servers) stack into one 90-day series per cell.
#[test]
fn concat_of_ninety_singleton_days() {
    let days: Vec<Cube> = (0..90)
        .map(|d| {
            let dims = vec![
                Dimension::explicit("lat", (0..96).map(|i| i as f64).collect::<Vec<_>>()),
                Dimension::explicit("lon", (0..144).map(|i| i as f64).collect::<Vec<_>>()),
                Dimension::implicit("day", vec![d as f64]),
            ];
            let data = (0..13_824).map(|cell| (cell * 90 + d) as f32).collect();
            Cube::from_dense("tasmax", dims, data, 8, 2).unwrap()
        })
        .collect();
    let refs: Vec<&Cube> = days.iter().collect();
    let year = ops::concat_implicit(&refs, "day").unwrap();
    year.validate().unwrap();
    assert_eq!(
        year.dim("day").unwrap().coords.to_vec(),
        (0..90).map(f64::from).collect::<Vec<_>>()
    );
    assert_eq!(year.to_dense(), (0..13_824 * 90).map(|v| v as f32).collect::<Vec<_>>());
    for (out, day) in year.frags.iter().zip(&days[0].frags) {
        assert_eq!(
            (out.row_start, out.row_count, out.server),
            (day.row_start, day.row_count, day.server)
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Binary ops on fragmented operands (including mismatched layouts on
    /// the two sides and per-row broadcast) are bitwise equal to the
    /// single-fragment run.
    #[test]
    fn intercube_bitwise_equals_dense(
        nlat in 1usize..6,
        nlon in 1usize..6,
        nt in 1usize..8,
        nfrag_a in 1usize..9,
        nfrag_b in 1usize..9,
        servers in 1usize..4,
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
    ) {
        let cfg = ExecConfig::with_servers(servers);
        let serial = ExecConfig::serial();
        for op in [InterOp::Add, InterOp::Sub, InterOp::Mul, InterOp::Div] {
            let a = build(nlat, nlon, nt, nfrag_a, servers, seed_a);
            let b = build(nlat, nlon, nt, nfrag_b, 1, seed_b);
            let a1 = build(nlat, nlon, nt, 1, 1, seed_a);
            let b1 = build(nlat, nlon, nt, 1, 1, seed_b);
            let frag = ops::intercube(&a, &b, op, cfg).unwrap();
            let dense = ops::intercube(&a1, &b1, op, serial).unwrap();
            prop_assert_eq!(bits(&frag), bits(&dense), "intercube {:?} not bitwise equal", op);

            // Broadcast path: b reduced to one value per row.
            let bb = ops::reduce(&b, ReduceOp::Avg, "time", cfg).unwrap();
            let bb1 = ops::reduce(&b1, ReduceOp::Avg, "time", serial).unwrap();
            let frag = ops::intercube(&a, &bb, op, cfg).unwrap();
            let dense = ops::intercube(&a1, &bb1, op, serial).unwrap();
            prop_assert_eq!(bits(&frag), bits(&dense), "broadcast {:?} not bitwise equal", op);
        }
    }

    /// Reductions over the implicit axis are bitwise equal to the
    /// single-fragment run for every kernel.
    #[test]
    fn reduce_bitwise_equals_dense(
        nlat in 1usize..6,
        nlon in 1usize..6,
        nt in 1usize..10,
        nfrag in 1usize..9,
        servers in 1usize..4,
        seed in any::<u64>(),
    ) {
        let frag_cube = build(nlat, nlon, nt, nfrag, servers, seed);
        let dense_cube = build(nlat, nlon, nt, 1, 1, seed);
        for op in [ReduceOp::Max, ReduceOp::Min, ReduceOp::Sum, ReduceOp::Avg, ReduceOp::CountPositive] {
            let f = ops::reduce(&frag_cube, op, "time", ExecConfig::with_servers(servers)).unwrap();
            let d = ops::reduce(&dense_cube, op, "time", ExecConfig::serial()).unwrap();
            prop_assert_eq!(bits(&f), bits(&d), "reduce {:?} not bitwise equal", op);
        }
    }

    /// Merging day stacks (concat over the implicit axis) with arbitrary —
    /// including mutually mismatched — fragmentations is bitwise equal to
    /// the single-fragment run.
    #[test]
    fn merge_bitwise_equals_dense(
        nlat in 1usize..5,
        nlon in 1usize..5,
        nt_a in 1usize..6,
        nt_b in 1usize..6,
        nfrag_a in 1usize..8,
        nfrag_b in 1usize..8,
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
    ) {
        let a = build(nlat, nlon, nt_a, nfrag_a, 2, seed_a);
        let b = build(nlat, nlon, nt_b, nfrag_b, 1, seed_b);
        let a1 = build(nlat, nlon, nt_a, 1, 1, seed_a);
        let b1 = build(nlat, nlon, nt_b, 1, 1, seed_b);
        let f = ops::concat_implicit(&[&a, &b], "time").unwrap();
        let d = ops::concat_implicit(&[&a1, &b1], "time").unwrap();
        prop_assert_eq!(bits(&f), bits(&d));
        f.validate().unwrap();
    }

    /// Stacking 1–12 cubes of mixed implicit lengths (1–5) and mutually
    /// mismatched fragmentations (1–7 fragments each) equals the naive
    /// dense interleave bit for bit, and the output has the first cube's
    /// fragment layout, servers included.
    #[test]
    fn concat_equals_dense_interleave_in_first_layout(
        nlat in 1usize..5,
        nlon in 1usize..5,
        shapes in proptest::collection::vec((1usize..6, 1usize..8, 1usize..4, any::<u64>()), 1..13),
    ) {
        let cubes: Vec<Cube> = shapes
            .iter()
            .map(|&(nt, nfrag, servers, seed)| build(nlat, nlon, nt, nfrag, servers, seed))
            .collect();
        let refs: Vec<&Cube> = cubes.iter().collect();
        let out = ops::concat_implicit(&refs, "time").unwrap();
        out.validate().unwrap();
        let mut naive = Vec::new();
        for row in 0..nlat * nlon {
            for c in &cubes {
                let ilen = c.implicit_len();
                naive.extend(c.to_dense()[row * ilen..(row + 1) * ilen].iter().map(|v| v.to_bits()));
            }
        }
        prop_assert_eq!(bits(&out), naive);
        let layout = |c: &Cube| -> Vec<(usize, usize, usize)> {
            c.frags.iter().map(|f| (f.row_start, f.row_count, f.server)).collect()
        };
        prop_assert_eq!(layout(&out), layout(&cubes[0]));
    }

    /// Identity chains must *share* payload buffers with their source
    /// (the O(1) view guarantee), not copy them.
    #[test]
    fn views_share_buffers(
        nlat in 1usize..5,
        nlon in 1usize..5,
        nt in 1usize..6,
        nfrag in 1usize..6,
        seed in any::<u64>(),
    ) {
        let c = build(nlat, nlon, nt, nfrag, 2, seed);
        // A chain that compiles to the identity runs no kernel at all.
        let out = Pipeline::new().run(&c, ExecConfig::with_servers(2)).unwrap().cube;
        for (a, b) in c.frags.iter().zip(&out.frags) {
            prop_assert!(a.data.same_buffer(&b.data), "identity chain copied a payload");
        }
    }
}
