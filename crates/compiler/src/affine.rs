//! Affine expressions over loop variables.
//!
//! File-access functions in the IR are affine combinations of enclosing
//! loop indices, the process identifier `p`, and a constant — the class of
//! references the paper analyzes with the Omega library.

use std::collections::BTreeMap;
use std::fmt;

/// An affine expression `c0 + Σ ci · vi` over named integer variables.
///
/// # Example
///
/// ```
/// use sdds_compiler::affine::AffineExpr;
///
/// // 100 + 8*i + 2*p
/// let e = AffineExpr::constant(100).with_term("i", 8).with_term("p", 2);
/// let env = [("i", 3), ("p", 5)];
/// assert_eq!(e.eval(|v| env.iter().find(|(n, _)| *n == v).map(|(_, x)| *x)).unwrap(), 134);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct AffineExpr {
    constant: i64,
    /// Variable name -> coefficient; zero coefficients are never stored.
    terms: BTreeMap<String, i64>,
}

impl AffineExpr {
    /// The zero expression.
    pub fn zero() -> Self {
        Self::default()
    }

    /// A constant expression.
    pub fn constant(c: i64) -> Self {
        AffineExpr {
            constant: c,
            terms: BTreeMap::new(),
        }
    }

    /// A single variable with coefficient 1.
    pub fn var(name: &str) -> Self {
        AffineExpr::zero().with_term(name, 1)
    }

    /// Returns this expression plus `coeff · name` (builder style).
    pub fn with_term(mut self, name: &str, coeff: i64) -> Self {
        self.add_term(name, coeff);
        self
    }

    /// Adds `coeff · name` in place.
    pub fn add_term(&mut self, name: &str, coeff: i64) {
        if coeff == 0 {
            return;
        }
        let entry = self.terms.entry(name.to_owned()).or_insert(0);
        *entry += coeff;
        if *entry == 0 {
            self.terms.remove(name);
        }
    }

    /// Adds a constant in place.
    pub fn add_constant(&mut self, c: i64) {
        self.constant += c;
    }

    /// The constant part.
    pub fn constant_part(&self) -> i64 {
        self.constant
    }

    /// The coefficient of `name` (zero if absent).
    pub fn coeff(&self, name: &str) -> i64 {
        self.terms.get(name).copied().unwrap_or(0)
    }

    /// Iterates `(variable, coefficient)` pairs in name order.
    pub fn terms(&self) -> impl Iterator<Item = (&str, i64)> {
        self.terms.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Returns `true` if the expression is a constant.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// The set of variables appearing with non-zero coefficient.
    pub fn variables(&self) -> impl Iterator<Item = &str> {
        self.terms.keys().map(String::as_str)
    }

    /// Evaluates the expression with `lookup` supplying variable values.
    ///
    /// # Errors
    ///
    /// Returns the name of the first unbound variable.
    pub fn eval<F>(&self, lookup: F) -> Result<i64, &str>
    where
        F: Fn(&str) -> Option<i64>,
    {
        let mut acc = self.constant;
        for (name, coeff) in &self.terms {
            let v = lookup(name).ok_or(name.as_str())?;
            acc += coeff * v;
        }
        Ok(acc)
    }

    /// Structural sum of two expressions.
    pub fn plus(&self, other: &AffineExpr) -> AffineExpr {
        let mut out = self.clone();
        out.constant += other.constant;
        for (name, coeff) in &other.terms {
            out.add_term(name, *coeff);
        }
        out
    }
}

impl From<i64> for AffineExpr {
    fn from(c: i64) -> Self {
        AffineExpr::constant(c)
    }
}

impl fmt::Display for AffineExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut wrote = false;
        if self.constant != 0 || self.terms.is_empty() {
            write!(f, "{}", self.constant)?;
            wrote = true;
        }
        for (name, coeff) in &self.terms {
            if wrote {
                if *coeff >= 0 {
                    write!(f, " + ")?;
                } else {
                    write!(f, " - ")?;
                }
                let mag = coeff.unsigned_abs();
                if mag == 1 {
                    write!(f, "{name}")?;
                } else {
                    write!(f, "{mag}*{name}")?;
                }
            } else {
                if *coeff == 1 {
                    write!(f, "{name}")?;
                } else if *coeff == -1 {
                    write!(f, "-{name}")?;
                } else {
                    write!(f, "{coeff}*{name}")?;
                }
            }
            wrote = true;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_eval() {
        let e = AffineExpr::constant(10)
            .with_term("i", 3)
            .with_term("j", -1);
        let val = e
            .eval(|v| match v {
                "i" => Some(4),
                "j" => Some(2),
                _ => None,
            })
            .unwrap();
        assert_eq!(val, 20);
    }

    #[test]
    fn unbound_variable_reports_name() {
        let e = AffineExpr::var("k");
        assert_eq!(e.eval(|_| None), Err("k"));
    }

    #[test]
    fn zero_coefficients_collapse() {
        let mut e = AffineExpr::var("i");
        e.add_term("i", -1);
        assert!(e.is_constant());
        assert_eq!(e.coeff("i"), 0);
        let e2 = AffineExpr::zero().with_term("x", 0);
        assert!(e2.is_constant());
    }

    #[test]
    fn plus_combines() {
        let a = AffineExpr::constant(1).with_term("i", 2);
        let b = AffineExpr::constant(3).with_term("i", 4).with_term("j", 1);
        let c = a.plus(&b);
        assert_eq!(c.constant_part(), 4);
        assert_eq!(c.coeff("i"), 6);
        assert_eq!(c.coeff("j"), 1);
    }

    #[test]
    fn variables_listed() {
        let e = AffineExpr::var("b").with_term("a", 2);
        let vars: Vec<&str> = e.variables().collect();
        assert_eq!(vars, vec!["a", "b"]); // sorted
    }

    #[test]
    fn display_forms() {
        assert_eq!(AffineExpr::zero().to_string(), "0");
        assert_eq!(AffineExpr::constant(5).to_string(), "5");
        assert_eq!(AffineExpr::var("i").to_string(), "i");
        assert_eq!(
            AffineExpr::constant(2).with_term("i", -3).to_string(),
            "2 - 3*i"
        );
        assert_eq!(AffineExpr::var("i").with_term("j", 1).to_string(), "i + j");
    }

    #[test]
    fn from_i64() {
        let e: AffineExpr = 42.into();
        assert_eq!(e.eval(|_| None).unwrap(), 42);
    }
}
