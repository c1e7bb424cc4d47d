//! MILP model description.

use crate::error::IlpError;
use crate::expr::{LinExpr, SparseVec, VarId};
use crate::simplex::SparseLp;
use crate::sparse::CscMatrix;

/// Optimisation direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sense {
    /// Minimise the objective.
    Minimize,
    /// Maximise the objective.
    Maximize,
}

/// Domain of a variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarKind {
    /// Real-valued.
    Continuous,
    /// Integer-valued.
    Integer,
    /// Integer restricted to `{0, 1}`.
    Binary,
}

/// Relational operator of a constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConstraintOp {
    /// `expr ≤ rhs`
    Leq,
    /// `expr ≥ rhs`
    Geq,
    /// `expr = rhs`
    Eq,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct VarDef {
    pub name: String,
    pub kind: VarKind,
    pub lb: f64,
    pub ub: f64,
}

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Constraint {
    pub expr: LinExpr,
    pub op: ConstraintOp,
    pub rhs: f64,
}

/// A mixed-integer linear program.
///
/// ```
/// use fpva_ilp::{Model, Sense};
/// let mut m = Model::new(Sense::Minimize);
/// let x = m.integer_var("x", 0.0, 10.0);
/// let y = m.continuous_var("y", 0.0, f64::INFINITY);
/// m.add_geq(x + y, 3.5);
/// m.set_objective(2.0 * x + y);
/// assert_eq!(m.var_count(), 2);
/// assert_eq!(m.constraint_count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    sense: Sense,
    vars: Vec<VarDef>,
    constraints: Vec<Constraint>,
    objective: LinExpr,
}

impl Model {
    /// An empty model with the given optimisation direction.
    pub fn new(sense: Sense) -> Self {
        Model {
            sense,
            vars: Vec::new(),
            constraints: Vec::new(),
            objective: LinExpr::new(),
        }
    }

    /// Adds a binary (0/1) variable.
    pub fn binary_var(&mut self, name: impl Into<String>) -> VarId {
        self.push_var(name.into(), VarKind::Binary, 0.0, 1.0)
    }

    /// Adds an integer variable with inclusive bounds.
    ///
    /// # Panics
    ///
    /// Panics if `lb > ub`, `lb` is not finite, or either bound is NaN.
    pub fn integer_var(&mut self, name: impl Into<String>, lb: f64, ub: f64) -> VarId {
        self.push_var(name.into(), VarKind::Integer, lb, ub)
    }

    /// Adds a continuous variable with inclusive bounds (`ub` may be
    /// `f64::INFINITY`).
    ///
    /// # Panics
    ///
    /// Panics if `lb > ub`, `lb` is not finite, or either bound is NaN.
    pub fn continuous_var(&mut self, name: impl Into<String>, lb: f64, ub: f64) -> VarId {
        self.push_var(name.into(), VarKind::Continuous, lb, ub)
    }

    fn push_var(&mut self, name: String, kind: VarKind, lb: f64, ub: f64) -> VarId {
        assert!(!lb.is_nan() && !ub.is_nan(), "variable {name}: NaN bound");
        assert!(
            lb.is_finite(),
            "variable {name}: lower bound must be finite"
        );
        assert!(lb <= ub, "variable {name}: empty domain [{lb}, {ub}]");
        let id = VarId(self.vars.len());
        self.vars.push(VarDef { name, kind, lb, ub });
        id
    }

    /// Adds the constraint `expr (op) rhs`.
    pub fn add_constraint(&mut self, expr: impl Into<LinExpr>, op: ConstraintOp, rhs: f64) {
        let expr = expr.into();
        // Fold the expression constant into the right-hand side.
        let c = expr.constant();
        let mut e = expr;
        e.add_constant(-c);
        self.constraints.push(Constraint {
            expr: e,
            op,
            rhs: rhs - c,
        });
    }

    /// Adds `expr ≤ rhs`.
    pub fn add_leq(&mut self, expr: impl Into<LinExpr>, rhs: f64) {
        self.add_constraint(expr, ConstraintOp::Leq, rhs);
    }

    /// Adds `expr ≥ rhs`.
    pub fn add_geq(&mut self, expr: impl Into<LinExpr>, rhs: f64) {
        self.add_constraint(expr, ConstraintOp::Geq, rhs);
    }

    /// Adds `expr = rhs`.
    pub fn add_eq(&mut self, expr: impl Into<LinExpr>, rhs: f64) {
        self.add_constraint(expr, ConstraintOp::Eq, rhs);
    }

    /// Sets the objective expression (constants are allowed and carried
    /// through to reported objective values).
    pub fn set_objective(&mut self, expr: impl Into<LinExpr>) {
        self.objective = expr.into();
    }

    /// Optimisation direction.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Number of variables.
    pub fn var_count(&self) -> usize {
        self.vars.len()
    }

    /// Number of constraints.
    pub fn constraint_count(&self) -> usize {
        self.constraints.len()
    }

    /// Kind of a variable.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to this model.
    pub fn var_kind(&self, v: VarId) -> VarKind {
        self.vars[v.0].kind
    }

    /// Bounds of a variable.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to this model.
    pub fn var_bounds(&self, v: VarId) -> (f64, f64) {
        (self.vars[v.0].lb, self.vars[v.0].ub)
    }

    /// Name of a variable.
    ///
    /// # Panics
    ///
    /// Panics if `v` does not belong to this model.
    pub fn var_name(&self, v: VarId) -> &str {
        &self.vars[v.0].name
    }

    /// The objective expression.
    pub fn objective(&self) -> &LinExpr {
        &self.objective
    }

    pub(crate) fn vars(&self) -> &[VarDef] {
        &self.vars
    }

    pub(crate) fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Whether every integer/binary variable has integral objective
    /// coefficients — enables the branch-and-bound ceiling bound.
    pub(crate) fn objective_is_integral(&self) -> bool {
        self.objective.constant().fract() == 0.0
            && self.objective.terms().all(|(v, c)| {
                c.fract() == 0.0
                    && matches!(self.vars[v.0].kind, VarKind::Binary | VarKind::Integer)
            })
    }

    /// Lowers the model to a prepared [`SparseLp`] plus its root bound
    /// vectors, assembling the CSC constraint matrix straight from the
    /// (already sparse) constraint expressions — no dense row or tableau
    /// intermediate is ever built.
    ///
    /// The returned objective is in **minimisation form**: coefficients
    /// are negated for [`Sense::Maximize`] models, and the objective
    /// constant is dropped (callers re-evaluate reported objectives
    /// through [`Model::objective`]).
    pub fn to_sparse_lp(&self) -> (SparseLp, Vec<f64>, Vec<f64>) {
        let n = self.vars.len();
        let sign = match self.sense {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        let mut objective = vec![0.0; n];
        for (v, c) in self.objective.terms() {
            objective[v.0] = sign * c;
        }
        // Constraints are stored row-wise but arrive here column-sorted
        // for free: scanning rows in index order pushes each column's
        // entries in ascending row order, which is exactly the
        // `SparseVec::push` contract (LinExpr terms are unique per row).
        let mut columns = vec![SparseVec::new(); n];
        for (i, c) in self.constraints.iter().enumerate() {
            for (v, a) in c.expr.terms() {
                columns[v.0].push(i, a);
            }
        }
        let cols = CscMatrix::from_columns(self.constraints.len(), &columns);
        let ops = self.constraints.iter().map(|c| c.op).collect();
        let rhs = self.constraints.iter().map(|c| c.rhs).collect();
        let lower = self.vars.iter().map(|v| v.lb).collect();
        let upper = self.vars.iter().map(|v| v.ub).collect();
        (SparseLp::new(objective, cols, ops, rhs), lower, upper)
    }

    /// Validates coefficients and variable references.
    ///
    /// # Errors
    ///
    /// Returns [`IlpError::BadModel`] on non-finite coefficients or
    /// references to variables of another model.
    pub fn validate(&self) -> Result<(), IlpError> {
        let n = self.vars.len();
        let check = |e: &LinExpr, what: &str| -> Result<(), IlpError> {
            if !e.is_finite() {
                return Err(IlpError::BadModel(format!(
                    "{what}: non-finite coefficient"
                )));
            }
            if let Some((v, _)) = e.terms().find(|(v, _)| v.0 >= n) {
                return Err(IlpError::BadModel(format!("{what}: unknown variable {v}")));
            }
            Ok(())
        };
        check(&self.objective, "objective")?;
        for (i, c) in self.constraints.iter().enumerate() {
            check(&c.expr, &format!("constraint #{i}"))?;
            if !c.rhs.is_finite() {
                return Err(IlpError::BadModel(format!(
                    "constraint #{i}: non-finite rhs"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_definitions() {
        let mut m = Model::new(Sense::Minimize);
        let b = m.binary_var("b");
        let i = m.integer_var("i", -3.0, 3.0);
        let c = m.continuous_var("c", 0.0, f64::INFINITY);
        assert_eq!(m.var_kind(b), VarKind::Binary);
        assert_eq!(m.var_bounds(b), (0.0, 1.0));
        assert_eq!(m.var_kind(i), VarKind::Integer);
        assert_eq!(m.var_bounds(i), (-3.0, 3.0));
        assert_eq!(m.var_kind(c), VarKind::Continuous);
        assert_eq!(m.var_name(i), "i");
    }

    #[test]
    #[should_panic(expected = "empty domain")]
    fn inverted_bounds_panic() {
        Model::new(Sense::Minimize).integer_var("x", 2.0, 1.0);
    }

    #[test]
    fn constraint_constant_folding() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.binary_var("x");
        m.add_leq(LinExpr::from(x) + 5.0, 6.0);
        let c = &m.constraints()[0];
        assert_eq!(c.rhs, 1.0);
        assert_eq!(c.expr.constant(), 0.0);
    }

    #[test]
    fn integral_objective_detection() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.binary_var("x");
        m.set_objective(2.0 * x);
        assert!(m.objective_is_integral());
        m.set_objective(1.5 * x);
        assert!(!m.objective_is_integral());
        let y = m.continuous_var("y", 0.0, 1.0);
        m.set_objective(LinExpr::from(x) + y);
        assert!(!m.objective_is_integral());
    }

    #[test]
    fn validate_catches_bad_coefficients() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.binary_var("x");
        m.add_leq(f64::NAN * x, 1.0);
        assert!(matches!(m.validate(), Err(IlpError::BadModel(_))));
    }

    #[test]
    fn validate_catches_foreign_vars() {
        let mut other = Model::new(Sense::Minimize);
        for _ in 0..10 {
            other.binary_var("y");
        }
        let foreign = VarId(7);
        let mut m = Model::new(Sense::Minimize);
        let _x = m.binary_var("x");
        m.add_leq(LinExpr::from(foreign), 1.0);
        assert!(matches!(m.validate(), Err(IlpError::BadModel(_))));
    }

    #[test]
    fn to_sparse_lp_applies_sense_and_keeps_sparsity() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.binary_var("x");
        let y = m.integer_var("y", -1.0, 4.0);
        let _gap = m.continuous_var("gap", 0.0, f64::INFINITY); // never referenced
        m.add_leq(2.0 * x + y, 3.0);
        m.add_geq(LinExpr::from(y), -1.0);
        m.set_objective(3.0 * x - y + 10.0);
        let (lp, lower, upper) = m.to_sparse_lp();
        assert_eq!(lp.var_count(), 3);
        assert_eq!(lp.row_count(), 2);
        assert_eq!(lower, vec![0.0, -1.0, 0.0]);
        assert_eq!(upper, vec![1.0, 4.0, f64::INFINITY]);
        // Maximisation is lowered to minimisation: objective negated.
        let sol = lp.solve(&lower, &upper, None);
        assert_eq!(sol.status, crate::simplex::LpStatus::Optimal);
        // max 3x - y: x = 1, y = -1 -> minimised form -4 (constant dropped).
        assert!((sol.objective - (-4.0)).abs() < 1e-6, "{}", sol.objective);
    }

    #[test]
    fn validate_ok_model() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.binary_var("x");
        m.add_leq(LinExpr::from(x), 1.0);
        m.set_objective(LinExpr::from(x));
        assert!(m.validate().is_ok());
    }
}
