//! Differential kernel conformance: every fused pipeline must be
//! **bitwise**-equal (`f32::to_bits`) to the scalar operator-by-operator
//! oracle — same cells, same dims, same description — under
//! proptest-generated fragmentations, server counts,
//! chain shapes (multi-stage chains and the single-operator chains the
//! public operators are), non-multiple-of-`LANES` series lengths, and
//! NaN/±inf payloads. Both engine shape rules are hit: a bare terminal
//! reads rows in place, an identity chain shares the source buffers.
//!
//! Scope of the bitwise contract (see `fuse` module docs / DESIGN.md):
//! NaN payloads live only in the *source* cube, intercube partner cubes
//! are finite, and the expression pool is NaN-linear (each binary node
//! has at most one NaN-capable operand), because IEEE 754 leaves the
//! payload unspecified when two distinct NaNs meet at a commutative op —
//! there both results are NaN but the bit pattern is not pinned down.

use datacube::exec::ExecConfig;
use datacube::expr::Expr;
use datacube::fuse::Pipeline;
use datacube::model::{Cube, Dimension};
use datacube::ops::{self, InterOp, ReduceOp};
use proptest::prelude::*;

const REDUCE_OPS: [ReduceOp; 5] =
    [ReduceOp::Max, ReduceOp::Min, ReduceOp::Sum, ReduceOp::Avg, ReduceOp::CountPositive];

/// A quiet-NaN with a recognizable payload: survives every pipeline stage
/// unchanged only if the kernels really propagate bits, not just NaN-ness.
const NAN_PAYLOAD: u32 = 0x7fc0_1234;

/// Deterministic splitmix-style generator so chain shapes derive from one
/// proptest-supplied seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Cell value mixing ordinary magnitudes with specials: NaN payloads,
/// ±inf, and -0.0 all appear with ~6% probability each.
fn cell_value(rng: &mut Rng) -> f32 {
    match rng.below(16) {
        0 => f32::from_bits(NAN_PAYLOAD),
        1 => f32::INFINITY,
        2 => f32::NEG_INFINITY,
        3 => -0.0,
        _ => (rng.below(2000) as f32 / 10.0) - 100.0,
    }
}

/// `(cell | time)` cube with specials in the payload.
fn build_src(rows: usize, nt: usize, nfrag: usize, servers: usize, rng: &mut Rng) -> Cube {
    let dims = vec![
        Dimension::explicit("cell", (0..rows).map(|i| i as f64).collect::<Vec<_>>()),
        Dimension::implicit("time", (0..nt).map(|i| i as f64).collect::<Vec<_>>()),
    ];
    let data: Vec<f32> = (0..rows * nt).map(|_| cell_value(rng)).collect();
    Cube::from_dense("m", dims, data, nfrag, servers).unwrap()
}

/// Finite partner cube for intercube stages, matching the source's
/// explicit dims and the chain's *current* implicit length (or no implicit
/// dim at all — the broadcast case — when `ilen` is 0).
fn build_partner(rows: usize, nfrag: usize, servers: usize, ilen: usize, rng: &mut Rng) -> Cube {
    let mut dims =
        vec![Dimension::explicit("cell", (0..rows).map(|i| i as f64).collect::<Vec<_>>())];
    if ilen > 0 {
        dims.push(Dimension::implicit("time", (0..ilen).map(|i| i as f64).collect::<Vec<_>>()));
    }
    let n = rows * ilen.max(1);
    // Offset away from zero so Div partners never divide by 0.
    let data: Vec<f32> = (0..n).map(|_| (rng.below(100) as f32 / 7.0) + 0.5).collect();
    Cube::from_dense("b", dims, data, nfrag, servers).unwrap()
}

/// NaN-linear expression pool: at most one x-dependent operand feeds each
/// binary node, so NaN bit patterns traverse deterministically.
fn expr_pool() -> Vec<Expr> {
    [
        "x * 2 + 1",
        "abs(x)",
        "-(x - 2) / 3",
        "max(x, 0.25)",
        "min(x, 10) * 0.5",
        "sqrt(abs(x))",
        "predicate(x > 0, x, -x)",
        "predicate(x >= 5, 1, 0)",
        // Masks whose compared value and results do not read `x`: the
        // engine folds them to a compare-and-pick on -0.0, NaN and ±inf.
        "predicate(x < -5, 1, 0)",
        "predicate(x <= -(0), -1, 2 * 3)",
        "predicate(x > 0 / 0, 1, 0)",
        "predicate(x != 1 / 0, -(0), 0)",
    ]
    .iter()
    .map(|s| Expr::parse(s).unwrap())
    .collect()
}

/// A trailing-window reduction (`op` over each `window`-long run of a
/// row) in write-into-slice form.
fn rolling_kernel(op: ReduceOp, window: usize) -> impl Fn(&[f32], &mut [f32]) + Send + Sync {
    move |row, out| {
        for (o, w) in out.iter_mut().zip(row.windows(window)) {
            *o = op.apply(w);
        }
    }
}

/// A single-operator chain — what each public operator of `ops` is: every
/// reduce op and both series terminals alone (engine rule 1: the terminal
/// reads source rows in place), an apply, and an intercube with and
/// without broadcast.
fn build_single(
    rng: &mut Rng,
    rows: usize,
    nt: usize,
    nfrag: usize,
    servers: usize,
) -> (Pipeline<'static>, String) {
    let p = Pipeline::new();
    match rng.below(5) {
        0 => {
            let op = REDUCE_OPS[rng.below(5) as usize];
            (p.reduce(op, "time"), format!("single reduce({op:?})"))
        }
        1 => {
            let window = 1 + rng.below(nt as u64) as usize;
            let op = REDUCE_OPS[rng.below(5) as usize];
            let kernel = rolling_kernel(op, window);
            (
                p.map_series("time_rolling", nt - window + 1, kernel),
                format!("single rolling({op:?},{window})"),
            )
        }
        2 => {
            let pool = expr_pool();
            (p.apply(pool[rng.below(pool.len() as u64) as usize].clone()), "single apply".into())
        }
        k => {
            let ilen = if k == 3 { nt } else { 0 };
            let b = build_partner(rows, nfrag, servers, ilen, rng);
            let op =
                [InterOp::Add, InterOp::Sub, InterOp::Mul, InterOp::Div][rng.below(4) as usize];
            (p.intercube(&b, op), format!("single inter({op:?},b{ilen})"))
        }
    }
}

/// Builds a random legal chain over `src`: one time in four a
/// single-operator chain ([`build_single`]), otherwise 0–4 element-wise
/// stages (apply / intercube) and an optional terminal (reduce or
/// map_series). Returns the pipeline plus a shape
/// string for failure messages.
fn build_chain(
    rng: &mut Rng,
    rows: usize,
    nt: usize,
    nfrag: usize,
    servers: usize,
) -> (Pipeline<'static>, String) {
    if rng.below(4) == 0 {
        return build_single(rng, rows, nt, nfrag, servers);
    }
    let pool = expr_pool();
    let mut p = Pipeline::new();
    let mut shape = String::new();
    let nstages = rng.below(5);
    for _ in 0..nstages {
        match rng.below(2) {
            0 => {
                let e = &pool[rng.below(pool.len() as u64) as usize];
                shape.push_str("apply ");
                p = p.apply(e.clone());
            }
            _ => {
                let broadcast = rng.below(3) == 0;
                let ilen = if broadcast { 0 } else { nt };
                let b = build_partner(rows, nfrag, servers, ilen, rng);
                let op =
                    [InterOp::Add, InterOp::Sub, InterOp::Mul, InterOp::Div][rng.below(4) as usize];
                shape.push_str(&format!("inter({op:?},b{ilen}) "));
                p = p.intercube(&b, op);
            }
        }
    }
    match rng.below(3) {
        0 => {
            let op = REDUCE_OPS[rng.below(5) as usize];
            shape.push_str(&format!("reduce({op:?})"));
            p = p.reduce(op, "time");
        }
        1 => {
            shape.push_str(&format!("map_series(cumsum,{nt})"));
            p = p.map_series("csum", nt, |row, out| {
                let mut acc = 0.0f32;
                for (o, &v) in out.iter_mut().zip(row) {
                    acc += v;
                    *o = acc;
                }
            });
        }
        _ => {}
    }
    (p, shape)
}

/// Asserts bitwise equality between the fused run and the scalar oracle.
fn assert_bitwise(p: &Pipeline, src: &Cube, cfg: ExecConfig, shape: &str) {
    let fused = p.run(src, cfg).unwrap_or_else(|e| panic!("fused {shape}: {e}"));
    let oracle = p.run_scalar(src, cfg).unwrap_or_else(|e| panic!("oracle {shape}: {e}"));
    let fb: Vec<u32> = fused.cube.to_dense().iter().map(|v| v.to_bits()).collect();
    let ob: Vec<u32> = oracle.cube.to_dense().iter().map(|v| v.to_bits()).collect();
    prop_assert_eq!(fb, ob, "primary output differs for chain `{}`", shape);
    prop_assert_eq!(&fused.cube.dims, &oracle.cube.dims, "dims differ for chain `{}`", shape);
    prop_assert_eq!(
        &fused.cube.description,
        &oracle.cube.description,
        "description differs for chain `{}`",
        shape
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The core differential property: random chain × random
    /// fragmentation × NaN/inf payloads — fused == scalar, bit for bit.
    #[test]
    fn fused_matches_scalar_oracle_bitwise(
        rows in 1usize..10,
        nt in 1usize..21,          // crosses the 8-lane boundary both ways
        nfrag in 1usize..8,
        servers in 1usize..5,
        seed in any::<u64>(),
    ) {
        let mut rng = Rng(seed);
        let src = build_src(rows, nt, nfrag, servers, &mut rng);
        let (p, shape) = build_chain(&mut rng, rows, nt, nfrag, servers);
        assert_bitwise(&p, &src, ExecConfig::with_servers(servers), &shape);
    }

    /// Refragmenting the same logical cube must not change a single bit of
    /// the fused result (fragment boundaries land mid-lane-block).
    #[test]
    fn fused_result_invariant_under_fragmentation(
        rows in 1usize..10,
        nt in 1usize..21,
        nfrag_a in 1usize..8,
        nfrag_b in 1usize..8,
        seed in any::<u64>(),
    ) {
        let mut rng = Rng(seed);
        // One data stream, two fragmentations: regenerate with a cloned rng.
        let mut rng_b = Rng(seed);
        let a = build_src(rows, nt, nfrag_a, 1, &mut rng);
        let b = build_src(rows, nt, nfrag_b, 3, &mut rng_b);
        let (p, shape) = build_chain(&mut rng, rows, nt, nfrag_a, 1);
        let ra = p.run(&a, ExecConfig::serial()).unwrap();
        let rb = p.run(&b, ExecConfig::with_servers(3)).unwrap();
        let bits_a: Vec<u32> = ra.cube.to_dense().iter().map(|v| v.to_bits()).collect();
        let bits_b: Vec<u32> = rb.cube.to_dense().iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(bits_a, bits_b, "fragmentation changed fused bits for `{}`", shape);
    }

    /// Every reduce op over every series length (including lengths far
    /// from lane multiples) agrees bitwise with the scalar oracle even
    /// when the series is all-specials.
    #[test]
    fn reduce_terminals_conform_on_special_payloads(
        nt in 1usize..33,
        nfrag in 1usize..5,
        seed in any::<u64>(),
    ) {
        let mut rng = Rng(seed);
        let src = build_src(4, nt, nfrag, 2, &mut rng);
        for op in REDUCE_OPS {
            let p = Pipeline::new().apply(Expr::parse("x * 2").unwrap()).reduce(op, "time");
            assert_bitwise(&p, &src, ExecConfig::with_servers(2), &format!("apply+reduce({op:?})"));
            // Terminal only: the engine reads the all-specials rows in place.
            let p = Pipeline::new().reduce(op, "time");
            assert_bitwise(&p, &src, ExecConfig::with_servers(2), &format!("reduce({op:?})"));
        }
    }
}

/// The bare `reduce` loop (engine rule 1, one loop per op) against the
/// oracle on rows built to catch a re-associated fold: +0.0, -0.0, a NaN
/// with a payload, +inf and -inf each placed at every position of rows of
/// length 1–17 and 362. The fillers around them are signed zeros with
/// negatives (the max is a zero) or with positives (the min is a zero),
/// rotated so the first zero sits at each of four offsets. A sequential
/// fold keeps the first zero; a max/min split into partial accumulators
/// returns the other one on some of these rows.
#[test]
fn bare_reduce_is_bitwise_sequential_on_specials() {
    let specials = [0.0f32, -0.0, f32::from_bits(NAN_PAYLOAD), f32::INFINITY, f32::NEG_INFINITY];
    let fillers = [[0.0f32, -0.0, -1.5, -2.5], [-0.0, 0.0, 1.5, 2.5]];
    for len in (1..=17).chain([362]) {
        let mut rows: Vec<Vec<f32>> = vec![vec![f32::from_bits(NAN_PAYLOAD); len]];
        for set in fillers {
            for k in 0..set.len() {
                for s in specials {
                    for pos in 0..len {
                        let mut row: Vec<f32> =
                            (0..len).map(|i| set[(i + k) % set.len()]).collect();
                        row[pos] = s;
                        rows.push(row);
                    }
                }
            }
        }
        let dims = vec![
            Dimension::explicit("cell", (0..rows.len()).map(|i| i as f64).collect::<Vec<_>>()),
            Dimension::implicit("time", (0..len).map(|i| i as f64).collect::<Vec<_>>()),
        ];
        let src = Cube::from_dense("m", dims, rows.concat(), 3, 2).unwrap();
        for op in REDUCE_OPS {
            let p = Pipeline::new().reduce(op, "time");
            let cfg = ExecConfig::with_servers(2);
            let bits = |c: &Cube| c.to_dense().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
            let (fused, oracle) = (p.run(&src, cfg).unwrap(), p.run_scalar(&src, cfg).unwrap());
            assert_eq!(bits(&fused.cube), bits(&oracle.cube), "reduce({op:?}) over length {len}");
        }
    }
}

/// Gate (`scripts/check.sh`, release): on the shape of wfbench's
/// `datacube.reduce_max_ms` probe (13,824 rows × 362), the median of 15
/// `reduce(Max)` runs is at most 1.5× the median of 15 `reduce(Sum)` runs.
/// Both are strictly sequential folds over the same traversal, so a larger
/// ratio is a regression in the Max kernel, not arithmetic it must do.
#[test]
#[ignore = "timing gate: run in release by scripts/check.sh"]
fn bare_reduce_max_costs_about_what_sum_costs() {
    let (rows, ilen) = (13_824usize, 362usize);
    let data: Vec<f32> = (0..rows * ilen).map(|i| ((i % 977) as f32).sin()).collect();
    let dims = vec![
        Dimension::explicit("cell", (0..rows).map(|i| i as f64).collect::<Vec<_>>()),
        Dimension::implicit("t", (0..ilen).map(|i| i as f64).collect::<Vec<_>>()),
    ];
    let cube = Cube::from_dense("v", dims, data, 8, 2).unwrap();
    let cfg = ExecConfig::with_servers(2);
    let time = |op: ReduceOp| {
        let t = std::time::Instant::now();
        std::hint::black_box(ops::reduce(&cube, op, "t", cfg).unwrap());
        t.elapsed().as_secs_f64()
    };
    let (mut max, mut sum) = (Vec::new(), Vec::new());
    for _ in 0..15 {
        max.push(time(ReduceOp::Max));
        sum.push(time(ReduceOp::Sum));
    }
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let (max, sum) = (median(&mut max), median(&mut sum));
    println!("reduce over 13824x362: Max {:.2} ms, Sum {:.2} ms", max * 1e3, sum * 1e3);
    assert!(max <= 1.5 * sum, "reduce(Max) {max:.4} s vs reduce(Sum) {sum:.4} s");
}

/// Schema violations must surface identically from the fused path and the
/// scalar oracle (same error variants as the standalone operators).
#[test]
fn errors_conform_between_fused_and_scalar() {
    let mut rng = Rng(7);
    let src = build_src(3, 10, 2, 1, &mut rng);
    let cfg = ExecConfig::serial();
    let bad = [
        Pipeline::new().reduce(ReduceOp::Sum, "missing"),
        Pipeline::new().reduce(ReduceOp::Sum, "cell"),
    ];
    for p in &bad {
        let ef = p.run(&src, cfg).map(|_| ()).unwrap_err();
        let eo = p.run_scalar(&src, cfg).map(|_| ()).unwrap_err();
        assert_eq!(
            std::mem::discriminant(&ef),
            std::mem::discriminant(&eo),
            "fused `{ef}` vs oracle `{eo}`"
        );
    }
}

/// Every public operator of `ops` is a one-node chain on the engine: its
/// values (`to_bits`), dims and `description` must be exactly what the
/// scalar kernel of the same name produces, specials and ragged lane tails
/// included.
#[test]
fn public_operators_match_their_scalar_kernels() {
    fn same(what: &str, engine: &Cube, oracle: &Cube) {
        let bits = |c: &Cube| c.to_dense().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
        assert_eq!(bits(engine), bits(oracle), "{what}: values");
        assert_eq!(engine.dims, oracle.dims, "{what}: dims");
        assert_eq!(engine.description, oracle.description, "{what}: description");
        assert_eq!(engine.measure, oracle.measure, "{what}: measure");
    }
    let cfg = ExecConfig::with_servers(3);
    for (seed, nt) in [(1u64, 1usize), (2, 7), (3, 8), (4, 13), (5, 20)] {
        let mut rng = Rng(seed);
        let src = build_src(5, nt, 3, 2, &mut rng);
        for op in REDUCE_OPS {
            let engine = ops::reduce(&src, op, "time", cfg).unwrap();
            same("reduce", &engine, &ops::scalar::reduce(&src, op, "time", cfg).unwrap());
            let window = 1 + nt / 2;
            let engine = Pipeline::new()
                .map_series("time_rolling", nt - window + 1, |row, out| {
                    for (o, w) in out.iter_mut().zip(row.windows(window)) {
                        *o = op.apply(w);
                    }
                })
                .run(&src, cfg);
            let rolling =
                |row: &[f32]| -> Vec<f32> { row.windows(window).map(|w| op.apply(w)).collect() };
            let oracle =
                ops::scalar::map_series(&src, "time_rolling", nt - window + 1, cfg, rolling);
            same("rolling map_series", &engine.unwrap().cube, &oracle.unwrap());
        }
        for expr in expr_pool() {
            let engine = ops::apply(&src, &expr, cfg).unwrap();
            same("apply", &engine, &ops::scalar::apply(&src, &expr, cfg));
        }
        for ilen in [nt, 0] {
            let b = build_partner(5, 2, 1, ilen, &mut rng);
            for op in [InterOp::Add, InterOp::Sub, InterOp::Mul, InterOp::Div] {
                let engine = ops::intercube(&src, &b, op, cfg).unwrap();
                same("intercube", &engine, &ops::scalar::intercube(&src, &b, op, cfg).unwrap());
            }
        }
        // Pure data movement plus a NaN-linear op: two separately compiled
        // copies of an accumulating closure may commute a NaN + NaN add.
        let engine = Pipeline::new()
            .map_series("flip", nt, |row, out| {
                for (o, v) in out.iter_mut().zip(row.iter().rev()) {
                    *o = v * 0.5;
                }
            })
            .run(&src, cfg)
            .unwrap();
        let flip = |row: &[f32]| row.iter().rev().map(|v| v * 0.5).collect::<Vec<f32>>();
        let oracle = ops::scalar::map_series(&src, "flip", nt, cfg, flip).unwrap();
        same("map_series", &engine.cube, &oracle);
    }
}
