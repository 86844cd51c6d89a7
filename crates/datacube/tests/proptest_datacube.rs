//! Property tests: operator results must be independent of fragmentation
//! and parallelism, and must agree with straightforward dense oracles.

use datacube::exec::ExecConfig;
use datacube::expr::Expr;
use datacube::model::{Cube, Dimension};
use datacube::ops::{self, InterOp, ReduceOp};
use proptest::prelude::*;

/// Builds a (rows | time) cube with deterministic pseudo-random data.
fn build(rows: usize, nt: usize, nfrag: usize, servers: usize, seed: u64) -> Cube {
    let dims = vec![
        Dimension::explicit("cell", (0..rows).map(|i| i as f64).collect::<Vec<_>>()),
        Dimension::implicit("time", (0..nt).map(|i| i as f64).collect::<Vec<_>>()),
    ];
    let data: Vec<f32> = (0..rows * nt)
        .map(|i| ((i as u64).wrapping_mul(seed | 1).wrapping_add(17) % 1000) as f32 / 10.0 - 50.0)
        .collect();
    Cube::from_dense("m", dims, data, nfrag, servers).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The same logical cube must produce identical operator results for
    /// every fragmentation and server count.
    #[test]
    fn results_invariant_under_fragmentation(
        rows in 1usize..20,
        nt in 1usize..12,
        nfrag_a in 1usize..8,
        nfrag_b in 1usize..8,
        servers in 1usize..5,
        seed in any::<u64>(),
    ) {
        let a = build(rows, nt, nfrag_a, 1, seed);
        let b = build(rows, nt, nfrag_b, servers, seed);
        let cfg_a = ExecConfig::serial();
        let cfg_b = ExecConfig::with_servers(servers);

        for op in [ReduceOp::Max, ReduceOp::Min, ReduceOp::Sum, ReduceOp::Avg, ReduceOp::CountPositive] {
            let ra = ops::reduce(&a, op, "time", cfg_a).unwrap().to_dense();
            let rb = ops::reduce(&b, op, "time", cfg_b).unwrap().to_dense();
            prop_assert_eq!(ra, rb, "reduce {:?} differs across fragmentations", op);
        }

        let expr = Expr::parse("predicate(x > 0, x * 2, -1)").unwrap();
        prop_assert_eq!(
            ops::apply(&a, &expr, cfg_a).unwrap().to_dense(),
            ops::apply(&b, &expr, cfg_b).unwrap().to_dense()
        );
    }

    /// reduce agrees with a dense oracle.
    #[test]
    fn reduce_matches_oracle(
        rows in 1usize..15,
        nt in 1usize..10,
        nfrag in 1usize..6,
        seed in any::<u64>(),
    ) {
        let c = build(rows, nt, nfrag, 2, seed);
        let dense = c.to_dense();
        let cfg = ExecConfig::with_servers(3);

        let max = ops::reduce(&c, ReduceOp::Max, "time", cfg).unwrap().to_dense();
        let sum = ops::reduce(&c, ReduceOp::Sum, "time", cfg).unwrap().to_dense();
        for r in 0..rows {
            let series = &dense[r * nt..(r + 1) * nt];
            let want_max = series.iter().copied().fold(f32::NEG_INFINITY, f32::max);
            let want_sum: f32 = series.iter().sum();
            prop_assert_eq!(max[r], want_max);
            prop_assert!((sum[r] - want_sum).abs() < 1e-3);
        }
    }

    /// apply(expr) agrees with direct evaluation.
    #[test]
    fn apply_matches_eval(
        rows in 1usize..10,
        nt in 1usize..8,
        seed in any::<u64>(),
    ) {
        let c = build(rows, nt, 3, 2, seed);
        let expr = Expr::parse("max(x, 0) - min(x, 0) + predicate(x >= 10, 1, 0)").unwrap();
        let out = ops::apply(&c, &expr, ExecConfig::with_servers(2)).unwrap().to_dense();
        for (o, v) in out.iter().zip(c.to_dense()) {
            prop_assert_eq!(*o, expr.eval(v as f64) as f32);
        }
    }

    /// a - a == 0 and (a - b) + b == a for intercube.
    #[test]
    fn intercube_algebra(
        rows in 1usize..12,
        nt in 1usize..8,
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
    ) {
        let cfg = ExecConfig::with_servers(2);
        let a = build(rows, nt, 2, 1, seed_a);
        let b = build(rows, nt, 2, 1, seed_b);
        let zero = ops::intercube(&a, &a, InterOp::Sub, cfg).unwrap();
        prop_assert!(zero.to_dense().iter().all(|&v| v == 0.0));
        let diff = ops::intercube(&a, &b, InterOp::Sub, cfg).unwrap();
        let back = ops::intercube(&diff, &b, InterOp::Add, cfg).unwrap();
        for (x, y) in back.to_dense().iter().zip(a.to_dense()) {
            prop_assert!((x - y).abs() < 1e-3);
        }
    }

    /// Expressions never panic on arbitrary finite input and predicates
    /// always yield one of their two branches.
    #[test]
    fn predicate_is_total(v in -1e6f64..1e6, t in -100f64..100.0, e in -100f64..100.0) {
        let expr = Expr::Predicate {
            lhs: Box::new(Expr::X),
            cmp: datacube::expr::Cmp::Gt,
            rhs: Box::new(Expr::Const(0.0)),
            then: Box::new(Expr::Const(t)),
            otherwise: Box::new(Expr::Const(e)),
        };
        let out = expr.eval(v);
        prop_assert!(out == t || out == e);
        prop_assert_eq!(out == t, v > 0.0);
    }
}
