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
//!
//! [`Expr::eval`] is the language's one evaluator: the scalar oracle and
//! the fused engine both walk the tree with it. The engine only folds the
//! mask shape `predicate(x ⋈ c, a, b)` — `c`, `a` and `b` any subtrees that
//! do not read `x` — into a compare-and-pick on the three values this
//! evaluator gives them (see [`crate::fuse`]).

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
    pub(crate) fn eval(self, a: f64, b: f64) -> bool {
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
    fn nested_predicates() {
        // Three-way classification.
        let e = Expr::parse("predicate(x > 1, 2, predicate(x > 0, 1, 0))").unwrap();
        assert_eq!(e.eval(5.0), 2.0);
        assert_eq!(e.eval(0.5), 1.0);
        assert_eq!(e.eval(-1.0), 0.0);
    }
}
