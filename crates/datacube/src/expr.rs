//! The element-wise expression mini-language behind `apply`.
//!
//! Ophidia's `oph_apply` operator evaluates small array expressions such as
//! `oph_predicate('OPH_INT','OPH_INT',measure,'x','>0','1','0')` (Listing 1
//! of the paper). This module provides an equivalent language over the
//! scalar `x` (the measure value at each element):
//!
//! ```text
//! expr     := term (('+'|'-') term)*
//! term     := unary (('*'|'/') unary)*
//! unary    := '-' unary | atom
//! atom     := NUMBER | 'x' | 'measure' | '(' expr ')'
//!           | fn '(' expr (',' expr)* ')'
//! fn       := predicate | max | min | abs | sqrt | exp | ln
//! cond     := expr ('>'|'>='|'<'|'<='|'=='|'!=') expr   (inside predicate)
//! ```
//!
//! `predicate(cond, then, else)` is the `oph_predicate` equivalent; the
//! compatibility constructor [`Expr::from_oph_predicate`] accepts the
//! Ophidia-style argument triple directly.

use crate::error::{Error, Result};

/// A parsed, evaluable expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Const(f64),
    X,
    Neg(Box<Expr>),
    Add(Box<Expr>, Box<Expr>),
    Sub(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
    Div(Box<Expr>, Box<Expr>),
    /// `predicate(cond, then, else)`, cond = lhs cmp rhs.
    Predicate {
        lhs: Box<Expr>,
        cmp: Cmp,
        rhs: Box<Expr>,
        then: Box<Expr>,
        otherwise: Box<Expr>,
    },
    Max(Box<Expr>, Box<Expr>),
    Min(Box<Expr>, Box<Expr>),
    Abs(Box<Expr>),
    Sqrt(Box<Expr>),
    Exp(Box<Expr>),
    Ln(Box<Expr>),
}

/// Comparison operator inside a predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cmp {
    Gt,
    Ge,
    Lt,
    Le,
    Eq,
    Ne,
}

impl Cmp {
    fn eval(self, a: f64, b: f64) -> bool {
        match self {
            Cmp::Gt => a > b,
            Cmp::Ge => a >= b,
            Cmp::Lt => a < b,
            Cmp::Le => a <= b,
            Cmp::Eq => a == b,
            Cmp::Ne => a != b,
        }
    }
}

impl Expr {
    /// Parses an expression from source text.
    pub fn parse(src: &str) -> Result<Expr> {
        let tokens = lex(src)?;
        let mut p = Parser { tokens, pos: 0 };
        let e = p.expr()?;
        if p.pos != p.tokens.len() {
            return Err(Error::Expr(format!("trailing input at token {}", p.pos)));
        }
        Ok(e)
    }

    /// Builds the Ophidia-compatible predicate: measure string (must be
    /// an expression over `x`), a comparison against zero written like
    /// `">0"` / `"<=5"` / `"!=0"`, and then/else expressions — mirroring
    /// `oph_predicate('…','…', measure, 'x', '>0', '1', '0')`.
    pub fn from_oph_predicate(
        measure: &str,
        cond: &str,
        then: &str,
        otherwise: &str,
    ) -> Result<Expr> {
        let lhs = Expr::parse(measure)?;
        let cond = cond.trim();
        let (cmp, rest) = if let Some(r) = cond.strip_prefix(">=") {
            (Cmp::Ge, r)
        } else if let Some(r) = cond.strip_prefix("<=") {
            (Cmp::Le, r)
        } else if let Some(r) = cond.strip_prefix("==") {
            (Cmp::Eq, r)
        } else if let Some(r) = cond.strip_prefix("!=") {
            (Cmp::Ne, r)
        } else if let Some(r) = cond.strip_prefix('>') {
            (Cmp::Gt, r)
        } else if let Some(r) = cond.strip_prefix('<') {
            (Cmp::Lt, r)
        } else {
            return Err(Error::Expr(format!("bad oph_predicate condition '{cond}'")));
        };
        let rhs = Expr::parse(rest)?;
        Ok(Expr::Predicate {
            lhs: Box::new(lhs),
            cmp,
            rhs: Box::new(rhs),
            then: Box::new(Expr::parse(then)?),
            otherwise: Box::new(Expr::parse(otherwise)?),
        })
    }

    /// Evaluates the expression at measure value `x`.
    pub fn eval(&self, x: f64) -> f64 {
        match self {
            Expr::Const(c) => *c,
            Expr::X => x,
            Expr::Neg(e) => -e.eval(x),
            Expr::Add(a, b) => a.eval(x) + b.eval(x),
            Expr::Sub(a, b) => a.eval(x) - b.eval(x),
            Expr::Mul(a, b) => a.eval(x) * b.eval(x),
            Expr::Div(a, b) => a.eval(x) / b.eval(x),
            Expr::Predicate { lhs, cmp, rhs, then, otherwise } => {
                if cmp.eval(lhs.eval(x), rhs.eval(x)) {
                    then.eval(x)
                } else {
                    otherwise.eval(x)
                }
            }
            Expr::Max(a, b) => a.eval(x).max(b.eval(x)),
            Expr::Min(a, b) => a.eval(x).min(b.eval(x)),
            Expr::Abs(e) => e.eval(x).abs(),
            Expr::Sqrt(e) => e.eval(x).sqrt(),
            Expr::Exp(e) => e.eval(x).exp(),
            Expr::Ln(e) => e.eval(x).ln(),
        }
    }
}

/// Lane width of the vectorized evaluator. Blocks of eight keep the
/// per-lane loops unrollable into SIMD by the optimizer without any
/// nightly features; callers pad partial tails (per-element operations
/// are pure, so computing garbage lanes and discarding them is safe).
pub const LANES: usize = 8;

/// One instruction of a compiled expression [`Tape`]: a postfix stack
/// operation over `[f64; LANES]` blocks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TapeOp {
    /// Push a constant, splatted across lanes.
    Const(f64),
    /// Push the measure block `x`.
    X,
    Neg,
    Add,
    Sub,
    Mul,
    Div,
    Max,
    Min,
    Abs,
    Sqrt,
    Exp,
    Ln,
    /// `predicate(lhs cmp rhs, then, else)`: pops `else`, `then`, `rhs`,
    /// `lhs` and pushes a per-lane select. Both branches are evaluated for
    /// all lanes; because every operation is a pure math function, the
    /// discarded branch's value is bit-for-bit irrelevant and the selected
    /// lane equals what [`Expr::eval`]'s short-circuit would have produced.
    Select(Cmp),
}

/// A flat, vectorizable compilation of an [`Expr`]: the tree is walked
/// once at compile time instead of once per element, and evaluation runs
/// on [`LANES`]-wide blocks. Per-lane results are bitwise identical to
/// [`Expr::eval`] — the same f64 operations are applied in the same
/// order to each element, with no cross-lane interaction.
#[derive(Debug, Clone, PartialEq)]
pub struct Tape {
    ops: Vec<TapeOp>,
    max_depth: usize,
}

impl Tape {
    /// Creates a reusable evaluator (owns the operand stack so per-block
    /// evaluation allocates nothing).
    pub fn evaluator(&self) -> TapeEval<'_> {
        TapeEval { tape: self, stack: vec![[0.0; LANES]; self.max_depth.max(1)] }
    }

    /// Peephole: recognizes the mask idiom `predicate(x ⋈ c, a, b)` —
    /// the single hottest expression shape in the index pipelines — and
    /// collapses it to a branchless constant-select kernel. Returns
    /// `None` for every other tape. The kernel performs the exact f64
    /// compare-and-select the stack evaluator would, so results stay
    /// bitwise identical.
    pub fn const_select(&self) -> Option<ConstSelect> {
        match self.ops.as_slice() {
            [TapeOp::X, TapeOp::Const(rhs), TapeOp::Const(then_v), TapeOp::Const(otherwise), TapeOp::Select(cmp)] => {
                Some(ConstSelect { cmp: *cmp, rhs: *rhs, then_v: *then_v, otherwise: *otherwise })
            }
            _ => None,
        }
    }
}

/// A collapsed `predicate(x ⋈ rhs, then_v, otherwise)` kernel (see
/// [`Tape::const_select`]): one f64 compare and a constant pick per lane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstSelect {
    cmp: Cmp,
    rhs: f64,
    then_v: f64,
    otherwise: f64,
}

impl ConstSelect {
    /// Evaluates one element; bitwise equal to the full tape (and tree)
    /// evaluation of the originating predicate expression.
    #[inline]
    pub fn eval(self, x: f64) -> f64 {
        if self.cmp.eval(x, self.rhs) {
            self.then_v
        } else {
            self.otherwise
        }
    }
}

/// Reusable block evaluator for a [`Tape`].
pub struct TapeEval<'t> {
    tape: &'t Tape,
    stack: Vec<[f64; LANES]>,
}

impl TapeEval<'_> {
    /// Evaluates the tape on one block of lane inputs, writing the result
    /// block to `out`. Every lane `l` receives exactly `expr.eval(x[l])`.
    pub fn eval_block(&mut self, x: &[f64; LANES], out: &mut [f64; LANES]) {
        let stack = &mut self.stack;
        let mut sp = 0usize;
        for op in &self.tape.ops {
            match *op {
                TapeOp::Const(c) => {
                    stack[sp] = [c; LANES];
                    sp += 1;
                }
                TapeOp::X => {
                    stack[sp] = *x;
                    sp += 1;
                }
                TapeOp::Neg => {
                    for v in stack[sp - 1].iter_mut() {
                        *v = -*v;
                    }
                }
                TapeOp::Add => {
                    sp -= 1;
                    let (lo, hi) = stack.split_at_mut(sp);
                    let (a, b) = (&mut lo[sp - 1], &hi[0]);
                    for l in 0..LANES {
                        a[l] += b[l];
                    }
                }
                TapeOp::Sub => {
                    sp -= 1;
                    let (lo, hi) = stack.split_at_mut(sp);
                    let (a, b) = (&mut lo[sp - 1], &hi[0]);
                    for l in 0..LANES {
                        a[l] -= b[l];
                    }
                }
                TapeOp::Mul => {
                    sp -= 1;
                    let (lo, hi) = stack.split_at_mut(sp);
                    let (a, b) = (&mut lo[sp - 1], &hi[0]);
                    for l in 0..LANES {
                        a[l] *= b[l];
                    }
                }
                TapeOp::Div => {
                    sp -= 1;
                    let (lo, hi) = stack.split_at_mut(sp);
                    let (a, b) = (&mut lo[sp - 1], &hi[0]);
                    for l in 0..LANES {
                        a[l] /= b[l];
                    }
                }
                TapeOp::Max => {
                    sp -= 1;
                    let (lo, hi) = stack.split_at_mut(sp);
                    let (a, b) = (&mut lo[sp - 1], &hi[0]);
                    for l in 0..LANES {
                        a[l] = a[l].max(b[l]);
                    }
                }
                TapeOp::Min => {
                    sp -= 1;
                    let (lo, hi) = stack.split_at_mut(sp);
                    let (a, b) = (&mut lo[sp - 1], &hi[0]);
                    for l in 0..LANES {
                        a[l] = a[l].min(b[l]);
                    }
                }
                TapeOp::Abs => {
                    for v in stack[sp - 1].iter_mut() {
                        *v = v.abs();
                    }
                }
                TapeOp::Sqrt => {
                    for v in stack[sp - 1].iter_mut() {
                        *v = v.sqrt();
                    }
                }
                TapeOp::Exp => {
                    for v in stack[sp - 1].iter_mut() {
                        *v = v.exp();
                    }
                }
                TapeOp::Ln => {
                    for v in stack[sp - 1].iter_mut() {
                        *v = v.ln();
                    }
                }
                TapeOp::Select(cmp) => {
                    sp -= 3;
                    let (lo, hi) = stack.split_at_mut(sp);
                    let lhs = &mut lo[sp - 1];
                    let (rhs, rest) = hi.split_first().unwrap();
                    let (then, rest) = rest.split_first().unwrap();
                    let otherwise = &rest[0];
                    for l in 0..LANES {
                        lhs[l] = if cmp.eval(lhs[l], rhs[l]) { then[l] } else { otherwise[l] };
                    }
                }
            }
        }
        debug_assert_eq!(sp, 1, "tape must leave exactly one result");
        *out = stack[0];
    }
}

impl Expr {
    /// Compiles the expression to a flat [`Tape`] for block evaluation.
    pub fn tape(&self) -> Tape {
        fn emit(e: &Expr, ops: &mut Vec<TapeOp>, depth: usize, max: &mut usize) {
            // `depth` is the stack height *before* this node's result is
            // pushed; track the high-water mark as operands pile up.
            let bump = |d: usize, max: &mut usize| {
                if d > *max {
                    *max = d;
                }
            };
            match e {
                Expr::Const(c) => {
                    ops.push(TapeOp::Const(*c));
                    bump(depth + 1, max);
                }
                Expr::X => {
                    ops.push(TapeOp::X);
                    bump(depth + 1, max);
                }
                Expr::Neg(a) => {
                    emit(a, ops, depth, max);
                    ops.push(TapeOp::Neg);
                }
                Expr::Add(a, b) | Expr::Sub(a, b) | Expr::Mul(a, b) | Expr::Div(a, b) => {
                    emit(a, ops, depth, max);
                    emit(b, ops, depth + 1, max);
                    ops.push(match e {
                        Expr::Add(..) => TapeOp::Add,
                        Expr::Sub(..) => TapeOp::Sub,
                        Expr::Mul(..) => TapeOp::Mul,
                        _ => TapeOp::Div,
                    });
                }
                Expr::Max(a, b) | Expr::Min(a, b) => {
                    emit(a, ops, depth, max);
                    emit(b, ops, depth + 1, max);
                    ops.push(if matches!(e, Expr::Max(..)) { TapeOp::Max } else { TapeOp::Min });
                }
                Expr::Abs(a) | Expr::Sqrt(a) | Expr::Exp(a) | Expr::Ln(a) => {
                    emit(a, ops, depth, max);
                    ops.push(match e {
                        Expr::Abs(..) => TapeOp::Abs,
                        Expr::Sqrt(..) => TapeOp::Sqrt,
                        Expr::Exp(..) => TapeOp::Exp,
                        _ => TapeOp::Ln,
                    });
                }
                Expr::Predicate { lhs, cmp, rhs, then, otherwise } => {
                    emit(lhs, ops, depth, max);
                    emit(rhs, ops, depth + 1, max);
                    emit(then, ops, depth + 2, max);
                    emit(otherwise, ops, depth + 3, max);
                    ops.push(TapeOp::Select(*cmp));
                }
            }
        }
        let mut ops = Vec::new();
        let mut max_depth = 0usize;
        emit(self, &mut ops, 0, &mut max_depth);
        Tape { ops, max_depth }
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Num(f64),
    X,
    Ident(String),
    Plus,
    Minus,
    Star,
    Slash,
    LParen,
    RParen,
    Comma,
    Cmp(Cmp),
}

fn lex(src: &str) -> Result<Vec<Tok>> {
    let mut out = Vec::new();
    let bytes = src.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' | '\n' | '\r' => i += 1,
            '+' => {
                out.push(Tok::Plus);
                i += 1;
            }
            '-' => {
                out.push(Tok::Minus);
                i += 1;
            }
            '*' => {
                out.push(Tok::Star);
                i += 1;
            }
            '/' => {
                out.push(Tok::Slash);
                i += 1;
            }
            '(' => {
                out.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                out.push(Tok::RParen);
                i += 1;
            }
            ',' => {
                out.push(Tok::Comma);
                i += 1;
            }
            '>' | '<' | '=' | '!' => {
                let two = &src[i..(i + 2).min(src.len())];
                let (cmp, adv) = match two {
                    ">=" => (Cmp::Ge, 2),
                    "<=" => (Cmp::Le, 2),
                    "==" => (Cmp::Eq, 2),
                    "!=" => (Cmp::Ne, 2),
                    _ if c == '>' => (Cmp::Gt, 1),
                    _ if c == '<' => (Cmp::Lt, 1),
                    _ => return Err(Error::Expr(format!("unexpected character '{c}'"))),
                };
                out.push(Tok::Cmp(cmp));
                i += adv;
            }
            '0'..='9' | '.' => {
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_digit()
                        || bytes[i] == b'.'
                        || bytes[i] == b'e'
                        || bytes[i] == b'E'
                        || ((bytes[i] == b'-' || bytes[i] == b'+')
                            && i > start
                            && (bytes[i - 1] == b'e' || bytes[i - 1] == b'E')))
                {
                    i += 1;
                }
                let n: f64 = src[start..i]
                    .parse()
                    .map_err(|_| Error::Expr(format!("bad number '{}'", &src[start..i])))?;
                out.push(Tok::Num(n));
            }
            'a'..='z' | 'A'..='Z' | '_' => {
                let start = i;
                while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                    i += 1;
                }
                let word = &src[start..i];
                match word {
                    "x" | "measure" => out.push(Tok::X),
                    _ => out.push(Tok::Ident(word.to_string())),
                }
            }
            other => return Err(Error::Expr(format!("unexpected character '{other}'"))),
        }
    }
    Ok(out)
}

struct Parser {
    tokens: Vec<Tok>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect(&mut self, t: Tok) -> Result<()> {
        match self.next() {
            Some(got) if got == t => Ok(()),
            got => Err(Error::Expr(format!("expected {t:?}, got {got:?}"))),
        }
    }

    fn expr(&mut self) -> Result<Expr> {
        let mut lhs = self.term()?;
        loop {
            match self.peek() {
                Some(Tok::Plus) => {
                    self.next();
                    lhs = Expr::Add(Box::new(lhs), Box::new(self.term()?));
                }
                Some(Tok::Minus) => {
                    self.next();
                    lhs = Expr::Sub(Box::new(lhs), Box::new(self.term()?));
                }
                _ => return Ok(lhs),
            }
        }
    }

    fn term(&mut self) -> Result<Expr> {
        let mut lhs = self.unary()?;
        loop {
            match self.peek() {
                Some(Tok::Star) => {
                    self.next();
                    lhs = Expr::Mul(Box::new(lhs), Box::new(self.unary()?));
                }
                Some(Tok::Slash) => {
                    self.next();
                    lhs = Expr::Div(Box::new(lhs), Box::new(self.unary()?));
                }
                _ => return Ok(lhs),
            }
        }
    }

    fn unary(&mut self) -> Result<Expr> {
        if matches!(self.peek(), Some(Tok::Minus)) {
            self.next();
            return Ok(Expr::Neg(Box::new(self.unary()?)));
        }
        self.atom()
    }

    fn atom(&mut self) -> Result<Expr> {
        match self.next() {
            Some(Tok::Num(n)) => Ok(Expr::Const(n)),
            Some(Tok::X) => Ok(Expr::X),
            Some(Tok::LParen) => {
                let e = self.expr()?;
                self.expect(Tok::RParen)?;
                Ok(e)
            }
            Some(Tok::Ident(name)) => self.call(&name),
            got => Err(Error::Expr(format!("unexpected token {got:?}"))),
        }
    }

    fn call(&mut self, name: &str) -> Result<Expr> {
        self.expect(Tok::LParen)?;
        match name {
            "predicate" | "oph_predicate" => {
                // predicate(lhs CMP rhs, then, else)
                let lhs = self.expr()?;
                let cmp = match self.next() {
                    Some(Tok::Cmp(c)) => c,
                    got => return Err(Error::Expr(format!("expected comparison, got {got:?}"))),
                };
                let rhs = self.expr()?;
                self.expect(Tok::Comma)?;
                let then = self.expr()?;
                self.expect(Tok::Comma)?;
                let otherwise = self.expr()?;
                self.expect(Tok::RParen)?;
                Ok(Expr::Predicate {
                    lhs: Box::new(lhs),
                    cmp,
                    rhs: Box::new(rhs),
                    then: Box::new(then),
                    otherwise: Box::new(otherwise),
                })
            }
            "max" | "min" => {
                let a = self.expr()?;
                self.expect(Tok::Comma)?;
                let b = self.expr()?;
                self.expect(Tok::RParen)?;
                Ok(if name == "max" {
                    Expr::Max(Box::new(a), Box::new(b))
                } else {
                    Expr::Min(Box::new(a), Box::new(b))
                })
            }
            "abs" | "sqrt" | "exp" | "ln" => {
                let a = self.expr()?;
                self.expect(Tok::RParen)?;
                Ok(match name {
                    "abs" => Expr::Abs(Box::new(a)),
                    "sqrt" => Expr::Sqrt(Box::new(a)),
                    "exp" => Expr::Exp(Box::new(a)),
                    _ => Expr::Ln(Box::new(a)),
                })
            }
            other => Err(Error::Expr(format!("unknown function '{other}'"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(src: &str, x: f64) -> f64 {
        Expr::parse(src).unwrap().eval(x)
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(ev("1+2*3", 0.0), 7.0);
        assert_eq!(ev("(1+2)*3", 0.0), 9.0);
        assert_eq!(ev("2*x+1", 3.0), 7.0);
        assert_eq!(ev("-x*2", 4.0), -8.0);
        assert_eq!(ev("10/4", 0.0), 2.5);
        assert_eq!(ev("1 - 2 - 3", 0.0), -4.0, "subtraction is left-associative");
    }

    #[test]
    fn measure_alias() {
        assert_eq!(ev("measure + 1", 2.0), 3.0);
    }

    #[test]
    fn functions() {
        assert_eq!(ev("max(x, 0)", -3.0), 0.0);
        assert_eq!(ev("min(x, 0)", -3.0), -3.0);
        assert_eq!(ev("abs(x)", -2.5), 2.5);
        assert_eq!(ev("sqrt(x)", 9.0), 3.0);
        assert!((ev("ln(exp(x))", 1.5) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn predicate_forms() {
        let e = Expr::parse("predicate(x > 0, 1, 0)").unwrap();
        assert_eq!(e.eval(5.0), 1.0);
        assert_eq!(e.eval(-5.0), 0.0);
        assert_eq!(e.eval(0.0), 0.0);
        let e = Expr::parse("predicate(x >= 0, x, -x)").unwrap();
        assert_eq!(e.eval(-4.0), 4.0);
        let e = Expr::parse("predicate(x != 3, 10, 20)").unwrap();
        assert_eq!(e.eval(3.0), 20.0);
    }

    #[test]
    fn oph_predicate_compat() {
        // The paper's Listing 1 mask: oph_predicate(..., 'x', '>0', '1', '0').
        let e = Expr::from_oph_predicate("x", ">0", "1", "0").unwrap();
        assert_eq!(e.eval(2.0), 1.0);
        assert_eq!(e.eval(0.0), 0.0);
        let e = Expr::from_oph_predicate("x", "<=5", "x", "5").unwrap();
        assert_eq!(e.eval(3.0), 3.0);
        assert_eq!(e.eval(9.0), 5.0);
        assert!(Expr::from_oph_predicate("x", "~0", "1", "0").is_err());
    }

    #[test]
    fn scientific_notation() {
        assert_eq!(ev("1e3 + 2.5e-1", 0.0), 1000.25);
    }

    #[test]
    fn parse_errors() {
        assert!(Expr::parse("").is_err());
        assert!(Expr::parse("1 +").is_err());
        assert!(Expr::parse("foo(x)").is_err());
        assert!(Expr::parse("(1").is_err());
        assert!(Expr::parse("1 2").is_err());
        assert!(Expr::parse("x ? 1 : 0").is_err());
        assert!(Expr::parse("predicate(x, 1, 0)").is_err(), "predicate needs a comparison");
    }

    #[test]
    fn tape_matches_tree_eval_bitwise() {
        // Note: each binary node keeps at most one x-dependent operand.
        // When two *distinct* NaN bit patterns meet at a commutative op
        // (e.g. `-x * x` at x = NaN), IEEE leaves the result payload
        // unspecified and LLVM may lower the two code paths with swapped
        // operands — that case is outside the bitwise contract (see
        // DESIGN.md). Everything else, including NaN payloads through
        // selects and single-NaN arithmetic, must match exactly.
        let exprs = [
            "2*x + 1",
            "predicate(x > 0, 1, 0)",
            "predicate(x >= 0, sqrt(x), -x)",
            "max(min(x, 5), -5) / 3",
            "abs(x) + exp(-2*x) - ln(max(x, 0.5))",
            "predicate(x > 1, 2, predicate(x > 0, 1, 0))",
            "-(x - 2) / 3",
        ];
        let inputs =
            [-3.5, 0.0, -0.0, 1.0, 2.0, 1e30, -1e-30, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        for src in exprs {
            let e = Expr::parse(src).unwrap();
            let tape = e.tape();
            let mut ev = tape.evaluator();
            // Exercise partial blocks too: the padded lanes repeat input 0.
            let mut x = [inputs[0]; LANES];
            x[..inputs.len().min(LANES)].copy_from_slice(&inputs[..inputs.len().min(LANES)]);
            let mut out = [0.0; LANES];
            ev.eval_block(&x, &mut out);
            for l in 0..LANES {
                assert_eq!(
                    out[l].to_bits(),
                    e.eval(x[l]).to_bits(),
                    "{src} at x={} lane {l}",
                    x[l]
                );
            }
        }
    }

    #[test]
    fn tape_depth_is_exact_for_predicate() {
        let e = Expr::parse("predicate(x > 0, 1, 0)").unwrap();
        let t = e.tape();
        assert_eq!(t.max_depth, 4, "lhs+rhs+then+else live at once");
        assert_eq!(t.ops.len(), 5);
    }

    #[test]
    fn nested_predicates() {
        // Three-way classification.
        let e = Expr::parse("predicate(x > 1, 2, predicate(x > 0, 1, 0))").unwrap();
        assert_eq!(e.eval(5.0), 2.0);
        assert_eq!(e.eval(0.5), 1.0);
        assert_eq!(e.eval(-1.0), 0.0);
    }
}
