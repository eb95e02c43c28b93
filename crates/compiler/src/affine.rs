//! Affine expressions over loop variables.
//!
//! File-access functions in the IR are affine combinations of enclosing
//! loop indices, the process identifier `p`, and a constant — the class of
//! references the paper analyzes with the Omega library.

use std::collections::BTreeMap;

/// An affine expression `c0 + Σ ci · vi` over named integer variables.
///
/// # Example
///
/// ```
/// use sdds_compiler::ir::ExprBuilder;
///
/// // 100 + 8*i + 2*p
/// let e = ExprBuilder::new().plus(100).term("i", 8).term("p", 2).build();
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
    /// A constant expression.
    pub fn constant(c: i64) -> Self {
        AffineExpr {
            constant: c,
            terms: BTreeMap::new(),
        }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::ExprBuilder;

    #[test]
    fn builder_and_eval() {
        let e = ExprBuilder::new()
            .plus(10)
            .term("i", 3)
            .term("j", -1)
            .build();
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
        let e = ExprBuilder::new().term("k", 1).build();
        assert_eq!(e.eval(|_| None), Err("k"));
    }

    #[test]
    fn zero_coefficients_collapse() {
        let mut e = ExprBuilder::new().term("i", 1).term("j", 2).build();
        e.add_term("i", -1);
        assert_eq!(e.variables().collect::<Vec<_>>(), vec!["j"]);
        let e2 = ExprBuilder::new().term("x", 0).build();
        assert_eq!(e2.variables().count(), 0);
    }

    #[test]
    fn variables_listed() {
        let e = ExprBuilder::new().term("b", 1).term("a", 2).build();
        let vars: Vec<&str> = e.variables().collect();
        assert_eq!(vars, vec!["a", "b"]); // sorted
    }

    #[test]
    fn constant_evaluates_without_bindings() {
        assert_eq!(AffineExpr::constant(42).eval(|_| None), Ok(42));
    }
}
