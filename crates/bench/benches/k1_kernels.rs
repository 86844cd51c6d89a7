//! K1 — per-kernel effective bandwidth of the fused vectorized kernels.
//!
//! Each kernel runs over a year-sized workload and reports one
//! `[k1_kernels] kernel=<name> bytes=<n> ns=<n> gbps=<x>` line, where
//! `bytes` is the kernel's streamed operand traffic (reads + writes of
//! payload data; for conv2d, 4 bytes per multiply-accumulate) and `gbps`
//! is that traffic divided by the best-of-N wall time. The scalar
//! operator chain (`run_scalar`: the oracle kernels of `ops::scalar`, no
//! longer a production path) is timed alongside its fused equivalent so
//! the fusion speedup shows per kernel, not just end to end; `reduce_max`
//! is the public `ops::reduce`, a one-node chain on the engine. The
//! recorded per-layer numbers (`datacube.fused_chain_ms`,
//! `datacube.reduce_max_ms`) are taken with `benchmark/run.sh` and
//! checked with its `compare`.

use bench::{baseline_cube, year_cube};
use datacube::exec::ExecConfig;
use datacube::expr::Expr;
use datacube::fuse::Pipeline;
use datacube::ops::InterOp;
use datacube::ops::{self, ReduceOp};
use std::time::Instant;
use tinyml::layers::{Conv2d, Layer};
use tinyml::tensor::Tensor;

const NLAT: usize = 96;
const NLON: usize = 144;
const DAYS: usize = 365;
const NFRAG: usize = 16;

/// Best-of-`reps` wall time in nanoseconds, after one warmup call.
fn time_best(reps: usize, mut f: impl FnMut()) -> u128 {
    f();
    let mut best = u128::MAX;
    for _ in 0..reps {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_nanos());
    }
    best
}

fn report(name: &str, bytes: usize, ns: u128) {
    // bytes / ns is numerically GB/s.
    let gbps = bytes as f64 / ns.max(1) as f64;
    println!("[k1_kernels] kernel={name} bytes={bytes} ns={ns} gbps={gbps:.3}");
}

fn main() {
    let cube = year_cube(NLAT, NLON, DAYS, NFRAG, 9);
    let baseline = baseline_cube(NLAT, NLON, NFRAG);
    let cfg = ExecConfig::with_servers(4);
    let n = NLAT * NLON * DAYS;
    let rows = NLAT * NLON;
    let mask_expr = Expr::from_oph_predicate("x", ">5", "1", "0").unwrap();

    // Single fused apply: stream n in, n out.
    let p = Pipeline::new().apply(mask_expr.clone());
    let ns = time_best(5, || {
        std::hint::black_box(p.run(&cube, cfg).unwrap());
    });
    report("fused_apply", n * 8, ns);

    // The heat-wave chain (anomaly − baseline, mask, reduce) fused vs the
    // operator-by-operator oracle: identical bits, different traversals.
    let chain = Pipeline::new()
        .intercube(&baseline, InterOp::Sub)
        .apply(mask_expr)
        .reduce(ReduceOp::Sum, "day");
    let traffic = (n + 2 * rows) * 4; // read n + baseline, write rows
    let ns = time_best(5, || {
        std::hint::black_box(chain.run(&cube, cfg).unwrap());
    });
    report("fused_sub_mask_reduce", traffic, ns);
    let ns = time_best(3, || {
        std::hint::black_box(chain.run_scalar(&cube, cfg).unwrap());
    });
    report("scalar_sub_mask_reduce", traffic, ns);

    // Standalone reduce over the day axis.
    let ns = time_best(5, || {
        std::hint::black_box(ops::reduce(&cube, ReduceOp::Max, "day", cfg).unwrap());
    });
    report("reduce_max", (n + rows) * 4, ns);

    // Blocked run-length scan over year-long 0/1 series.
    let mask: Vec<f32> = (0..n).map(|i| if (i / 5) % 3 == 0 { 1.0 } else { 0.0 }).collect();
    let ns = time_best(5, || {
        let mut acc = 0usize;
        for row in mask.chunks(DAYS) {
            acc += extremes::heatwave::wave_stats(row, 6).0;
        }
        std::hint::black_box(acc);
    });
    report("wave_scan", n * 4, ns);

    // Lane-blocked conv2d forward (TC-patch shaped workload).
    let (ic, oc, k, h, w) = (8usize, 16usize, 3usize, 64usize, 64usize);
    let mut conv = Conv2d::new(ic, oc, k, 1, 3);
    let x = Tensor::uniform(&[ic, h, w], 1.0, 4);
    let macs = oc * h * w * ic * k * k;
    let ns = time_best(5, || {
        std::hint::black_box(conv.forward(&x));
    });
    report("conv2d_forward", macs * 4, ns);
}
