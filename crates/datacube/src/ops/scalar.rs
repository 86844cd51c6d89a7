//! The scalar operator kernels: the bitwise **oracle** of the engine.
//!
//! One sweep per operator over every fragment, `apply` re-walking the
//! [`Expr`] AST per element — what [`crate::fuse`] is proven against.
//! The one non-test caller is [`crate::fuse::Pipeline::run_scalar`]
//! (`scripts/check.sh` greps that nothing else names this module);
//! production reaches these operators through their engine-backed
//! namesakes in [`crate::ops`]. Nothing here calls back into the engine.

use super::{InterOp, ReduceOp};
use crate::error::{Error, Result};
use crate::exec::{par_map_fragments_named, ExecConfig};
use crate::expr::Expr;
use crate::model::{Cube, DimKind, Dimension, Fragment, SharedData};

/// The rows of a fragment, `ilen` values each. Unlike `chunks(ilen)` this
/// is defined on a zero-length implicit axis: `row_count` empty rows, which
/// is what the engine folds there (each reduction's identity per cell).
fn rows(f: &Fragment, ilen: usize) -> impl Iterator<Item = &[f32]> {
    let data = f.data.as_slice();
    (0..f.row_count).map(move |r| &data[r * ilen..(r + 1) * ilen])
}

/// Scalar kernel of [`super::reduce`]: a fast path when the row *is* the
/// series, a gather-into-scratch general path otherwise.
pub fn reduce(cube: &Cube, op: ReduceOp, dim: &str, cfg: ExecConfig) -> Result<Cube> {
    let d = cube.dim(dim)?;
    if d.kind != DimKind::Implicit {
        return Err(Error::WrongDimensionKind { dim: dim.into(), need: "implicit" });
    }
    let idims = cube.implicit_dims();
    // Strides of implicit dims within a row (row-major).
    let pos = idims.iter().position(|x| x.name == dim).expect("dim checked");
    let after: usize = idims[pos + 1..].iter().map(|x| x.len()).product();
    let target = idims[pos].len();
    let ilen = cube.implicit_len();
    let out_ilen = ilen / target.max(1);

    let frags = par_map_fragments_named(cfg, "reduce", &cube.frags, |f| {
        if after == 1 && target == ilen {
            // Fast path (the common case: one implicit dimension, fully
            // reduced): the row *is* the series — no gather, no scratch.
            SharedData::from_iter_len(f.row_count, rows(f, ilen).map(|row| op.apply(row)))
        } else {
            let before = ilen / (target * after).max(1);
            SharedData::from_fn(f.row_count * out_ilen, |out| {
                let mut series = vec![0.0f32; target];
                let mut w = 0usize;
                for row in rows(f, ilen) {
                    // Iterate over the reduced layout: (before, after) pairs.
                    for b in 0..before {
                        for a in 0..after {
                            for (t, s) in series.iter_mut().enumerate() {
                                *s = row[b * target * after + t * after + a];
                            }
                            out[w] = op.apply(&series);
                            w += 1;
                        }
                    }
                }
            })
        }
    });

    let dims: Vec<Dimension> = cube.dims.iter().filter(|d| d.name != dim).cloned().collect();
    let out = Cube {
        measure: cube.measure.clone(),
        dims,
        frags,
        description: format!("reduce({op:?}, {dim})"),
    };
    out.validate()?;
    Ok(out)
}

/// Scalar kernel of [`super::apply`]: one AST walk per element.
pub fn apply(cube: &Cube, expr: &Expr, cfg: ExecConfig) -> Cube {
    let frags = par_map_fragments_named(cfg, "apply", &cube.frags, |f| {
        SharedData::from_iter_len(f.data.len(), f.data.iter().map(|&v| expr.eval(v as f64) as f32))
    });
    Cube {
        measure: cube.measure.clone(),
        dims: cube.dims.clone(),
        frags,
        description: "apply(expr)".into(),
    }
}

/// Scalar kernel of [`super::intercube`]: `b`'s fragments are looked up in
/// place with a row cursor; neither side is densified.
pub fn intercube(a: &Cube, b: &Cube, op: InterOp, cfg: ExecConfig) -> Result<Cube> {
    if a.rows() != b.rows() {
        return Err(Error::SchemaMismatch(format!(
            "row spaces differ: {} vs {}",
            a.rows(),
            b.rows()
        )));
    }
    let ilen_a = a.implicit_len();
    let ilen_b = b.implicit_len();
    if ilen_b != ilen_a && ilen_b != 1 {
        return Err(Error::SchemaMismatch(format!(
            "implicit lengths incompatible: {ilen_a} vs {ilen_b}"
        )));
    }
    let b_frags = b.frags_in_row_order();

    let frags = par_map_fragments_named(cfg, "intercube", &a.frags, |f| {
        SharedData::from_fn(f.data.len(), |out| {
            let mut w = 0usize;
            let mut bi = b_frags.partition_point(|bf| bf.row_start + bf.row_count <= f.row_start);
            for (local_row, row) in rows(f, ilen_a).enumerate() {
                let grow = f.row_start + local_row;
                while b_frags[bi].row_start + b_frags[bi].row_count <= grow {
                    bi += 1;
                }
                let bf = b_frags[bi];
                let blo = (grow - bf.row_start) * ilen_b;
                let brow = &bf.data.as_slice()[blo..blo + ilen_b];
                for (k, &va) in row.iter().enumerate() {
                    let vb = if ilen_b == 1 { brow[0] } else { brow[k] };
                    out[w] = op.apply(va, vb);
                    w += 1;
                }
            }
        })
    });
    let out = Cube {
        measure: a.measure.clone(),
        dims: a.dims.clone(),
        frags,
        description: format!("intercube({op:?})"),
    };
    out.validate()?;
    Ok(out)
}

/// Scalar kernel of [`super::map_series`].
pub fn map_series<F>(
    cube: &Cube,
    out_dim: &str,
    out_len: usize,
    cfg: ExecConfig,
    f: F,
) -> Result<Cube>
where
    F: Fn(&[f32]) -> Vec<f32> + Sync,
{
    let ilen = cube.implicit_len();
    let frags = par_map_fragments_named(cfg, "map_series", &cube.frags, |frag| {
        let mut out = Vec::with_capacity(frag.row_count * out_len);
        for row in rows(frag, ilen) {
            let mapped = f(row);
            // Rows are appended exactly as returned — neither truncated nor
            // padded — so any arity violation shows in the length check below.
            out.extend_from_slice(&mapped);
        }
        SharedData::from(out)
    });
    // Verify arity before constructing the cube.
    for frag in &frags {
        if frag.data.len() != frag.row_count * out_len {
            return Err(Error::SeriesLength {
                expected: frag.row_count * out_len,
                actual: frag.data.len(),
            });
        }
    }
    let mut dims: Vec<Dimension> = cube.explicit_dims().into_iter().cloned().collect();
    if out_len > 0 {
        dims.push(Dimension::implicit(out_dim, (0..out_len).map(|i| i as f64).collect::<Vec<_>>()));
    }
    let out = Cube {
        measure: cube.measure.clone(),
        dims,
        frags,
        description: format!("map_series({out_dim})"),
    };
    out.validate()?;
    Ok(out)
}
