//! The cube execution engine: every operator chain is one pass per fragment.
//!
//! [`Pipeline::run`] is the only production code that traverses fragment
//! payloads for the datacube operators: the public operators of
//! [`crate::ops`] are one-node chains on it, the extremes indices longer
//! ones. Run operator by operator, a chain of apply → intercube → reduce
//! touches each byte once *per operator*; climate analytics
//! throughput is bound by how few times each byte is touched, so the
//! engine compiles the chain into a single fused per-fragment kernel:
//! the fragment's [`SharedData`] window is traversed exactly once, with
//! the element-wise stages evaluated on `LANES`-wide blocks (hand
//! unrolled; the optimizer turns the per-lane loops into SIMD — no
//! nightly features). An `apply` of the mask shape
//! `predicate(x ⋈ c, a, b)`, where `c`, `a` and `b` do not read `x`, is
//! folded into a branchless compare-and-pick on the three values; every
//! other `apply` walks its tree with [`Expr::eval`], the oracle's own
//! evaluator, one lane at a time.
//!
//! # Fusion legality rules
//!
//! * Element-wise stages (`apply`, `intercube`) keep every element
//!   position, so the compiler lowers them to a stage list evaluated
//!   position by position on each source row.
//! * At most one **terminal** (a `reduce` or a `map_series`) is allowed,
//!   and it must be last: a reduction changes the index space, after
//!   which element positions no longer line up with the source row.
//!
//! # Shape rules
//!
//! Decided from the *compiled* chain — never by a caller, an option or
//! the environment — so a one-node chain costs what its scalar operator
//! cost:
//!
//! 1. **Terminal in place.** With no element-wise stage (a bare `reduce`
//!    or `map_series`), the terminal reads each source row
//!    where it lies instead of through lane blocks and scratch.
//! 2. **Identity shares.** A chain that compiles to the identity (no
//!    stage, no terminal) returns the source fragments' shared buffers.
//!
//! A one-node chain reports its operator's own name (`reduce`, `apply`, …)
//! to spans, `datacube_kernel_us{op}` and `OperatorDone`, longer chains
//! `fuse`; the output `description` is what the chain's last operator
//! writes when run on its own.
//!
//! # Bitwise conformance & the summation-order contract
//!
//! The scalar operator-by-operator kernels stay in-tree as the **oracle**:
//! [`Pipeline::run_scalar`] — the only non-test code allowed to name
//! [`crate::ops::scalar`] — executes the same chain through them, and the
//! differential suite (`tests/fused_conformance.rs`) asserts `to_bits`
//! equality against [`Pipeline::run`] under random chains,
//! fragmentations, lane remainders, and NaN/inf payloads. This works
//! because every fused stage performs the identical f32/f64 operation
//! sequence per element, and reductions follow the [`ReduceOp`] ordering
//! contract: accumulation is strictly sequential in series order — never
//! re-associated into per-lane partials — so fused == unfused bitwise
//! regardless of lane width or thread count.

use crate::error::{Error, Result};
use crate::exec::{par_map_fragments_named, ExecConfig};
use crate::expr::{Cmp, Expr};
use crate::model::{Cube, DimKind, Dimension, Fragment, SharedData};
use crate::ops::{self, InterOp, ReduceOp};

/// Lane width of the element-wise phase. Blocks of eight keep the
/// per-lane loops unrollable into SIMD by the optimizer without any
/// nightly features; partial tails are padded (per-element operations are
/// pure, so computing garbage lanes and discarding them is safe).
const LANES: usize = 8;

/// Per-row series kernel of a `map_series` terminal: reads the (virtual)
/// row and writes exactly `out_len` values. It may borrow for `'f`.
pub type SeriesFn<'f> = dyn Fn(&[f32], &mut [f32]) + Send + Sync + 'f;

enum Step {
    Apply(Expr),
    Inter { b: Cube, op: InterOp },
}

impl Step {
    /// `(operator name, output description)` of this step run on its own.
    fn label(&self) -> (&'static str, String) {
        match self {
            Step::Apply(_) => ("apply", "apply(expr)".into()),
            Step::Inter { op, .. } => ("intercube", format!("intercube({op:?})")),
        }
    }
}

enum Terminal<'f> {
    Reduce { op: ReduceOp, dim: String },
    Series { out_dim: String, out_len: usize, f: Box<SeriesFn<'f>> },
}

impl Terminal<'_> {
    /// As [`Step::label`].
    fn label(&self) -> (&'static str, String) {
        match self {
            Terminal::Reduce { op, dim } => ("reduce", format!("reduce({op:?}, {dim})")),
            Terminal::Series { out_dim, .. } => ("map_series", format!("map_series({out_dim})")),
        }
    }
}

/// Result of a fused run: the pipeline output.
pub struct FusedOutput {
    pub cube: Cube,
}

/// A fusible operator chain, built once and runnable against any
/// compatible source cube. See the module docs for legality rules.
///
/// ```
/// # use datacube::{fuse::Pipeline, ops::{InterOp, ReduceOp}, Expr, ExecConfig};
/// # use datacube::model::{Cube, Dimension};
/// # let dims = vec![Dimension::explicit("x", vec![0.0]),
/// #                 Dimension::implicit("t", vec![0.0, 1.0, 2.0, 3.0])];
/// # let cube = Cube::from_dense("v", dims, vec![1.0, -2.0, 3.0, -4.0], 1, 1).unwrap();
/// let p = Pipeline::new()
///     .apply(Expr::parse("abs(x)").unwrap())
///     .reduce(ReduceOp::Max, "t");
/// let out = p.run(&cube, ExecConfig::serial()).unwrap();
/// assert_eq!(out.cube.to_dense(), vec![4.0]);
/// ```
pub struct Pipeline<'f> {
    steps: Vec<Step>,
    terminal: Option<Terminal<'f>>,
    err: Option<String>,
}

impl Default for Pipeline<'_> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'f> Pipeline<'f> {
    pub fn new() -> Self {
        Pipeline { steps: Vec::new(), terminal: None, err: None }
    }

    /// Records the first legality violation `broken` names.
    fn check(&mut self, broken: bool, msg: &str) {
        if broken && self.err.is_none() {
            self.err = Some(msg.into());
        }
    }

    fn push(mut self, step: Step) -> Self {
        self.check(self.terminal.is_some(), "steps after a terminal are not fusible");
        self.steps.push(step);
        self
    }

    fn end(mut self, terminal: Terminal<'f>) -> Self {
        self.check(self.terminal.is_some(), "a pipeline supports a single terminal");
        self.terminal = Some(terminal);
        self
    }

    /// Applies an element-wise expression (as [`ops::apply`]).
    pub fn apply(self, expr: Expr) -> Self {
        self.push(Step::Apply(expr))
    }

    /// Element-wise arithmetic against cube `b` (as [`ops::intercube`]:
    /// same row space; `b`'s implicit length must match the chain's
    /// current implicit length or be 1, broadcasting per row). `b` is
    /// captured by O(1) clone — payload buffers are shared.
    pub fn intercube(self, b: &Cube, op: InterOp) -> Self {
        self.push(Step::Inter { b: b.clone(), op })
    }

    /// Terminal reduction over implicit dimension `dim` (as
    /// [`ops::reduce`]). Must be the last stage.
    pub fn reduce(self, op: ReduceOp, dim: &str) -> Self {
        self.end(Terminal::Reduce { op, dim: dim.into() })
    }

    /// Terminal per-row series transform (as the scalar oracle's
    /// `map_series`, with the kernel writing into a preallocated `out_len`
    /// slice instead of returning a `Vec`). Must be the last stage.
    pub fn map_series(
        self,
        out_dim: &str,
        out_len: usize,
        f: impl Fn(&[f32], &mut [f32]) + Send + Sync + 'f,
    ) -> Self {
        self.end(Terminal::Series { out_dim: out_dim.into(), out_len, f: Box::new(f) })
    }

    /// Runs the chain as ONE fused kernel per fragment of `src`.
    pub fn run(&self, src: &Cube, cfg: ExecConfig) -> Result<FusedOutput> {
        let c = self.compile(src)?;
        let last = match &self.terminal {
            Some(t) => Some(t.label()),
            None => self.steps.last().map(Step::label),
        };
        let nodes = self.steps.len() + usize::from(self.terminal.is_some());
        let op = match &last {
            Some((name, _)) if nodes == 1 => name,
            _ => "fuse",
        };
        let frags = if c.stages.is_empty() && c.terminal.is_none() {
            // Shape rule 2: nothing to compute — share the source buffers.
            src.frags.clone()
        } else {
            par_map_fragments_named(cfg, op, &src.frags, |f| {
                fill(f.row_count * c.out_row_len, |dst| c.run_fragment(f, dst))
            })
        };
        let description = last.map_or_else(|| src.description.clone(), |(_, d)| d);
        let cube = Cube { measure: src.measure.clone(), dims: c.out_dims, frags, description };
        cube.validate()?;
        Ok(FusedOutput { cube })
    }

    /// Runs the same chain operator-by-operator through
    /// [`crate::ops::scalar`] — the oracle the conformance suite compares
    /// against bitwise. It calls the scalar kernels directly and never
    /// re-enters the engine it judges.
    pub fn run_scalar(&self, src: &Cube, cfg: ExecConfig) -> Result<FusedOutput> {
        if let Some(msg) = &self.err {
            return Err(Error::SchemaMismatch(msg.clone()));
        }
        let mut cur = src.clone();
        for step in &self.steps {
            cur = match step {
                Step::Apply(e) => ops::scalar::apply(&cur, e, cfg),
                Step::Inter { b, op } => ops::scalar::intercube(&cur, b, *op, cfg)?,
            };
        }
        let cube = match &self.terminal {
            None => cur,
            Some(Terminal::Reduce { op, dim }) => ops::scalar::reduce(&cur, *op, dim, cfg)?,
            Some(Terminal::Series { out_dim, out_len, f }) => {
                let n = *out_len;
                ops::scalar::map_series(&cur, out_dim, n, cfg, |row| {
                    let mut out = vec![0.0f32; n];
                    f(row, &mut out);
                    out
                })?
            }
        };
        Ok(FusedOutput { cube })
    }

    /// Validates the chain against `src`'s schema and lowers it to the
    /// kernel program: stage list, terminal geometry, output dims.
    fn compile<'p>(&'p self, src: &Cube) -> Result<Compiled<'p>> {
        if let Some(msg) = &self.err {
            return Err(Error::SchemaMismatch(msg.clone()));
        }
        let ilen = src.implicit_len();
        let mut dims = src.dims.clone();
        let mut stages: Vec<CStage<'p>> = Vec::new();
        for step in &self.steps {
            stages.push(match step {
                Step::Apply(e) => match ConstSelect::fold(e) {
                    Some(cs) => CStage::Select(cs),
                    None => CStage::Apply(e),
                },
                Step::Inter { b, op } => {
                    if src.rows() != b.rows() {
                        return Err(Error::SchemaMismatch(format!(
                            "row spaces differ: {} vs {}",
                            src.rows(),
                            b.rows()
                        )));
                    }
                    let ilen_b = b.implicit_len();
                    if ilen_b != ilen && ilen_b != 1 {
                        return Err(Error::SchemaMismatch(format!(
                            "implicit lengths incompatible: {ilen} vs {ilen_b}"
                        )));
                    }
                    CStage::Inter { op: *op, ilen_b, border: b.frags_in_row_order() }
                }
            });
        }

        // Terminal geometry + output dims.
        let (terminal, out_row_len) = match &self.terminal {
            None => (None, ilen),
            Some(Terminal::Reduce { op, dim }) => {
                let (before, target, after) = implicit_geom(&dims, dim)?;
                dims.retain(|x| x.name != *dim);
                (Some(CTerm::Reduce { op: *op, before, target, after }), before * after)
            }
            Some(Terminal::Series { out_dim, out_len, f }) => {
                dims.retain(|x| x.kind == DimKind::Explicit);
                if *out_len > 0 {
                    dims.push(Dimension::implicit(
                        out_dim,
                        (0..*out_len).map(|i| i as f64).collect::<Vec<_>>(),
                    ));
                }
                (Some(CTerm::Series { f: f.as_ref() }), *out_len)
            }
        };
        Ok(Compiled { stages, ilen, terminal, out_dims: dims, out_row_len })
    }
}

/// `(before, target, after)` extents around implicit dimension `dim` in
/// the in-row layout of `dims`; the schema errors are those of the scalar
/// operators.
fn implicit_geom(dims: &[Dimension], dim: &str) -> Result<(usize, usize, usize)> {
    let d =
        dims.iter().find(|x| x.name == dim).ok_or_else(|| Error::UnknownDimension(dim.into()))?;
    if d.kind != DimKind::Implicit {
        return Err(Error::WrongDimensionKind { dim: dim.into(), need: "implicit" });
    }
    let idims: Vec<&Dimension> = dims.iter().filter(|x| x.kind == DimKind::Implicit).collect();
    let pos = idims.iter().position(|x| x.name == dim).expect("dim checked");
    let extent = |ds: &[&Dimension]| ds.iter().map(|x| x.len()).product();
    Ok((extent(&idims[..pos]), idims[pos].len(), extent(&idims[pos + 1..])))
}

/// [`SharedData::from_fn`] that still runs `write` (over an empty slice)
/// when `len` is 0: a zero-length output must not skip the traversal that
/// calls the series kernel.
fn fill(len: usize, write: impl FnOnce(&mut [f32])) -> SharedData {
    if len == 0 {
        write(&mut []);
        return SharedData::empty();
    }
    SharedData::from_fn(len, write)
}

/// Whether `e` reads the measure value `x` anywhere.
fn reads_x(e: &Expr) -> bool {
    match e {
        Expr::Const(_) => false,
        Expr::X => true,
        Expr::Neg(a) | Expr::Abs(a) | Expr::Sqrt(a) | Expr::Exp(a) | Expr::Ln(a) => reads_x(a),
        Expr::Add(a, b)
        | Expr::Sub(a, b)
        | Expr::Mul(a, b)
        | Expr::Div(a, b)
        | Expr::Max(a, b)
        | Expr::Min(a, b) => reads_x(a) || reads_x(b),
        Expr::Predicate { lhs, rhs, then, otherwise, .. } => {
            [lhs, rhs, then, otherwise].iter().any(|e| reads_x(e))
        }
    }
}

/// A `predicate(x ⋈ rhs, then_v, otherwise)` mask with its three operands
/// evaluated: one f64 compare and a constant pick per lane.
#[derive(Debug, Clone, Copy, PartialEq)]
struct ConstSelect {
    cmp: Cmp,
    rhs: f64,
    then_v: f64,
    otherwise: f64,
}

impl ConstSelect {
    /// Folds `predicate(x ⋈ rhs, then, otherwise)` when none of `rhs`,
    /// `then` and `otherwise` reads `x`; `None` for every other shape.
    /// Bitwise equal to [`Expr::eval`]: a subtree without `x` gives the
    /// same f64 at every element, and the select takes one branch just as
    /// the tree walk does.
    fn fold(e: &Expr) -> Option<ConstSelect> {
        match e {
            Expr::Predicate { lhs, cmp, rhs, then, otherwise }
                if matches!(**lhs, Expr::X)
                    && ![rhs, then, otherwise].iter().any(|e| reads_x(e)) =>
            {
                Some(ConstSelect {
                    cmp: *cmp,
                    rhs: rhs.eval(0.0),
                    then_v: then.eval(0.0),
                    otherwise: otherwise.eval(0.0),
                })
            }
            _ => None,
        }
    }

    #[inline]
    fn eval(self, x: f64) -> f64 {
        if self.cmp.eval(x, self.rhs) {
            self.then_v
        } else {
            self.otherwise
        }
    }
}

enum CStage<'p> {
    /// An expression walked per element by [`Expr::eval`].
    Apply(&'p Expr),
    /// A mask folded by [`ConstSelect::fold`].
    Select(ConstSelect),
    Inter {
        op: InterOp,
        ilen_b: usize,
        /// `b`'s fragments sorted by `row_start`.
        border: Vec<&'p Fragment>,
    },
}

enum CTerm<'p> {
    Reduce { op: ReduceOp, before: usize, target: usize, after: usize },
    Series { f: &'p SeriesFn<'p> },
}

impl CTerm<'_> {
    /// Folds one (virtual) row into its output row.
    #[inline]
    fn finish(&self, series: &[f32], out: &mut [f32]) {
        match self {
            CTerm::Reduce { op, before: 1, after: 1, .. } => out[0] = op.apply(series),
            CTerm::Reduce { op, before, target, after } => {
                // Same (b, a) output order and strictly sequential
                // per-output t-order accumulation as the scalar general
                // path (the ReduceOp ordering contract).
                let mut w = 0usize;
                for b in 0..*before {
                    for a in 0..*after {
                        let mut acc = op.begin();
                        for t in 0..*target {
                            op.step(&mut acc, series[b * target * after + t * after + a]);
                        }
                        out[w] = op.finish(acc, *target);
                        w += 1;
                    }
                }
            }
            CTerm::Series { f } => f(series, out),
        }
    }
}

/// `op` over each `ilen`-long row of `data`. Inlined at call sites with a
/// constant `op`, where [`ReduceOp::step`] reduces to that op's arithmetic.
#[inline(always)]
fn fold_rows(op: ReduceOp, data: &[f32], ilen: usize, dst: &mut [f32]) {
    for (r, o) in dst.iter_mut().enumerate() {
        *o = op.apply(&data[r * ilen..][..ilen]);
    }
}

struct Compiled<'p> {
    stages: Vec<CStage<'p>>,
    /// Row length of the source and of every element-wise stage.
    ilen: usize,
    terminal: Option<CTerm<'p>>,
    out_dims: Vec<Dimension>,
    out_row_len: usize,
}

impl Compiled<'_> {
    /// The fused kernel body: every row of `f` goes through the
    /// element-wise phase, then to the terminal.
    fn run_fragment(&self, f: &Fragment, dst: &mut [f32]) {
        let (ilen, orl) = (self.ilen, self.out_row_len);
        let data = f.data.as_slice();
        let row = |r: usize| &data[r * ilen..(r + 1) * ilen];
        if let (true, Some(t)) = (self.stages.is_empty(), &self.terminal) {
            // Shape rule 1: nothing stands between the source row and the
            // terminal, so it reads each row in place — one tight loop,
            // the terminal dispatch hoisted out of it (day cubes have
            // 4-element rows: per-row bookkeeping would dominate).
            match t {
                CTerm::Reduce { op, before: 1, after: 1, .. } => match op {
                    ReduceOp::Max => fold_rows(ReduceOp::Max, data, ilen, dst),
                    ReduceOp::Min => fold_rows(ReduceOp::Min, data, ilen, dst),
                    ReduceOp::Sum => fold_rows(ReduceOp::Sum, data, ilen, dst),
                    ReduceOp::Avg => fold_rows(ReduceOp::Avg, data, ilen, dst),
                    ReduceOp::CountPositive => fold_rows(ReduceOp::CountPositive, data, ilen, dst),
                },
                _ => (0..f.row_count).for_each(|r| t.finish(row(r), &mut dst[r * orl..][..orl])),
            }
            return;
        }
        // One cursor per stage into an intercube stage's `border`: the `b`
        // fragment of the current row (unused by the other stages).
        let mut cursors: Vec<usize> = self
            .stages
            .iter()
            .map(|s| match s {
                CStage::Inter { border, .. } => {
                    border.partition_point(|bf| bf.row_start + bf.row_count <= f.row_start)
                }
                _ => 0,
            })
            .collect();
        let mut scratch = vec![0.0f32; if self.terminal.is_some() { ilen } else { 0 }];
        for r in 0..f.row_count {
            let out_row = &mut dst[r * orl..(r + 1) * orl];
            // Straight into the output row when there is no terminal, else
            // into the scratch row the terminal then folds.
            let ew = if self.terminal.is_some() { &mut scratch[..] } else { &mut out_row[..] };
            self.elementwise(row(r), f.row_start + r, &mut cursors, ew);
            if let Some(t) = &self.terminal {
                t.finish(&scratch, out_row);
            }
        }
    }

    /// The element-wise phase of global row `grow`: `row` is evaluated in
    /// [`LANES`]-wide blocks through the stage list into `ew`. Partial tail
    /// blocks pad
    /// with the block's first valid lane — all operations are pure
    /// per-element, so the padded lanes compute garbage that is simply not
    /// stored.
    #[inline]
    fn elementwise(&self, row: &[f32], grow: usize, cursors: &mut [usize], ew: &mut [f32]) {
        // Advance each intercube stage's fragment cursor to this row.
        for (stage, bi) in self.stages.iter().zip(cursors.iter_mut()) {
            if let CStage::Inter { border, .. } = stage {
                while border[*bi].row_start + border[*bi].row_count <= grow {
                    *bi += 1;
                }
            }
        }
        let v = self.ilen;
        let mut j = 0usize;
        while j < v {
            let n = (v - j).min(LANES);
            let mut va = [0.0f32; LANES];
            va[..n].copy_from_slice(&row[j..j + n]);
            for l in n..LANES {
                va[l] = va[0];
            }
            for (stage, &bi) in self.stages.iter().zip(cursors.iter()) {
                match stage {
                    CStage::Apply(e) => {
                        for v in va[..n].iter_mut() {
                            *v = e.eval(*v as f64) as f32;
                        }
                    }
                    CStage::Select(cs) => {
                        for v in va.iter_mut() {
                            *v = cs.eval(*v as f64) as f32;
                        }
                    }
                    CStage::Inter { op, ilen_b, border } => {
                        let off = (grow - border[bi].row_start) * ilen_b;
                        let brow = &border[bi].data.as_slice()[off..off + ilen_b];
                        let mut vb = [0.0f32; LANES];
                        if *ilen_b == 1 {
                            vb = [brow[0]; LANES];
                        } else {
                            vb[..n].copy_from_slice(&brow[j..j + n]);
                            for l in n..LANES {
                                vb[l] = vb[0];
                            }
                        }
                        for l in 0..LANES {
                            va[l] = op.apply(va[l], vb[l]);
                        }
                    }
                }
            }
            ew[j..j + n].copy_from_slice(&va[..n]);
            j += n;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Dimension;

    fn cfg() -> ExecConfig {
        ExecConfig::with_servers(2)
    }

    /// 2x2 grid, 6 timesteps: row r, step t holds r*100 + t*t - 3.
    fn sample(nfrag: usize) -> Cube {
        let dims = vec![
            Dimension::explicit("lat", vec![-45.0, 45.0]),
            Dimension::explicit("lon", vec![0.0, 180.0]),
            Dimension::implicit("time", (0..6).map(|t| t as f64).collect::<Vec<_>>()),
        ];
        let mut data = Vec::new();
        for r in 0..4 {
            for t in 0..6 {
                data.push((r * 100 + t * t) as f32 - 3.0);
            }
        }
        Cube::from_dense("v", dims, data, nfrag, 2).unwrap()
    }

    fn bits(c: &Cube) -> Vec<u32> {
        c.to_dense().iter().map(|v| v.to_bits()).collect()
    }

    fn assert_conforms(p: &Pipeline, src: &Cube) {
        let fused = p.run(src, cfg()).unwrap();
        let scalar = p.run_scalar(src, cfg()).unwrap();
        assert_eq!(bits(&fused.cube), bits(&scalar.cube));
        assert_eq!(fused.cube.dims, scalar.cube.dims);
    }

    #[test]
    fn empty_chain_is_identity() {
        let src = sample(3);
        let out = Pipeline::new().run(&src, cfg()).unwrap();
        assert_eq!(out.cube.to_dense(), src.to_dense());
    }

    #[test]
    fn single_stage_chains_match_scalar() {
        let src = sample(3);
        assert_conforms(&Pipeline::new().apply(Expr::parse("2*x + 1").unwrap()), &src);
        assert_conforms(&Pipeline::new().intercube(&src, InterOp::Mul), &src);
        assert_conforms(&Pipeline::new().reduce(ReduceOp::Sum, "time"), &src);
        for op in [ReduceOp::Max, ReduceOp::Min, ReduceOp::Avg, ReduceOp::CountPositive] {
            assert_conforms(&Pipeline::new().reduce(op, "time"), &src);
        }
    }

    #[test]
    fn full_chain_with_broadcast_and_terminal() {
        let src = sample(4);
        let base = Pipeline::new().reduce(ReduceOp::Avg, "time").run(&src, cfg()).unwrap().cube;
        let p = Pipeline::new()
            .intercube(&base, InterOp::Sub)
            .apply(Expr::from_oph_predicate("x", ">0", "1", "0").unwrap())
            .reduce(ReduceOp::CountPositive, "time");
        assert_conforms(&p, &src);
    }

    /// Whether an `apply` of `e` compiles to the select stage.
    fn selects(e: Expr) -> bool {
        let p = Pipeline::new().apply(e);
        let c = p.compile(&sample(1)).unwrap();
        matches!(c.stages[..], [CStage::Select(_)])
    }

    #[test]
    fn masks_compile_to_the_select_stage() {
        let mask =
            |measure: &str, cond: &str| Expr::from_oph_predicate(measure, cond, "1", "0").unwrap();
        // The default heat and cold conditions (a 5.0 K threshold, an f32),
        // formatted as the wave chains and the serving query format them.
        let t = 5.0f32;
        for cond in [format!(">{t}"), format!("<-{t}"), "<=-0.5".into(), ">(2-7)".into()] {
            assert!(selects(mask("x", &cond)), "{cond}");
        }
        assert!(selects(mask("measure", "<-5")));
        assert!(!selects(Expr::parse("predicate(x > 0, x, -x)").unwrap()));
        let cold = ConstSelect::fold(&mask("x", "<-5"));
        assert_eq!(
            cold,
            Some(ConstSelect { cmp: Cmp::Lt, rhs: -5.0, then_v: 1.0, otherwise: 0.0 })
        );
    }

    #[test]
    fn map_series_terminal_matches_scalar() {
        let src = sample(5);
        let p = Pipeline::new().map_series("cs", 6, |row, out| {
            let mut acc = 0.0f32;
            for (i, &x) in row.iter().enumerate() {
                acc += x;
                out[i] = acc;
            }
        });
        assert_conforms(&p, &src);
    }

    #[test]
    fn schema_errors_mirror_the_scalar_operators() {
        let src = sample(2);
        let r = Pipeline::new().reduce(ReduceOp::Max, "ghost").run(&src, cfg());
        assert!(matches!(r, Err(Error::UnknownDimension(_))));
        let other =
            Cube::from_dense("w", vec![Dimension::explicit("x", vec![0.0])], vec![1.0], 1, 1)
                .unwrap();
        let r = Pipeline::new().intercube(&other, InterOp::Add).run(&src, cfg());
        assert!(matches!(r, Err(Error::SchemaMismatch(_))));
        let r = Pipeline::new().reduce(ReduceOp::Max, "lat").run(&src, cfg());
        assert!(matches!(r, Err(Error::WrongDimensionKind { .. })));
    }

    #[test]
    fn illegal_shapes_are_rejected() {
        let src = sample(2);
        // Steps after a terminal.
        let p = Pipeline::new().reduce(ReduceOp::Max, "time").apply(Expr::parse("x").unwrap());
        assert!(p.run(&src, cfg()).is_err());
        assert!(p.run_scalar(&src, cfg()).is_err());
        // Double terminal.
        let p = Pipeline::new().reduce(ReduceOp::Max, "time").reduce(ReduceOp::Min, "time");
        assert!(p.run(&src, cfg()).is_err());
    }

    #[test]
    fn nan_and_inf_payloads_stay_bitwise() {
        let dims = vec![
            Dimension::explicit("x", vec![0.0, 1.0]),
            Dimension::implicit("t", (0..5).map(|t| t as f64).collect::<Vec<_>>()),
        ];
        let data = vec![
            f32::NAN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
            1.0,
            f32::from_bits(0x7fc0_1234), // NaN with payload
            2.0,
            f32::NAN,
            -3.0,
            0.0,
        ];
        let src = Cube::from_dense("v", dims, data, 2, 1).unwrap();
        let p = Pipeline::new()
            .apply(Expr::parse("predicate(x > 0, x, -x)").unwrap())
            .intercube(&src, InterOp::Div)
            .reduce(ReduceOp::Sum, "t");
        assert_conforms(&p, &src);
        let p = Pipeline::new().reduce(ReduceOp::Avg, "t");
        assert_conforms(&p, &src);
    }

    #[test]
    fn fused_emits_one_operator_event() {
        let rx = obs::global().subscribe_with_capacity(obs::DEFAULT_CAPACITY);
        let src = sample(3);
        Pipeline::new()
            .apply(Expr::parse("x+1").unwrap())
            .reduce(ReduceOp::Max, "time")
            .run(&src, cfg())
            .unwrap();
        let events = rx.drain();
        let fuse_ops = events
            .iter()
            .filter(|e| matches!(e.kind, obs::EventKind::OperatorDone { op: "fuse", .. }))
            .count();
        assert_eq!(fuse_ops, 1, "the whole chain runs as one operator");

        // A one-node chain is that operator: it reports the operator's own
        // name, and an identity chain runs no kernel at all. (7 fragments:
        // no other test in this process emits events of that size.)
        let dims = vec![
            Dimension::explicit("cell", (0..7).map(|c| c as f64).collect::<Vec<_>>()),
            Dimension::implicit("time", vec![0.0, 1.0]),
        ];
        let src = Cube::from_dense("v", dims, vec![1.0; 14], 7, 2).unwrap();
        Pipeline::new().reduce(ReduceOp::Max, "time").run(&src, cfg()).unwrap();
        Pipeline::new().run(&src, cfg()).unwrap();
        let names: Vec<&str> = rx
            .drain()
            .iter()
            .filter_map(|e| match e.kind {
                obs::EventKind::OperatorDone { op, fragments: 7, .. } => Some(op),
                _ => None,
            })
            .collect();
        assert_eq!(names, ["reduce"]);
    }
}
