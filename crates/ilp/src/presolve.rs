//! Static presolve: a reduction-and-diagnostics pass over a [`Model`].
//!
//! [`presolve`] runs between model construction and
//! [`Model::to_sparse_lp`]: it removes empty and singleton rows, fixed
//! and empty columns, substitutes implied-free column singletons, merges
//! duplicate rows, detects redundant and forcing rows by interval
//! (activity) arithmetic, and certifies obvious infeasibility or
//! unboundedness without ever factorizing a basis. Every deduction is a
//! consequence of interval arithmetic over the variable bounds, so the
//! certified verdicts remain proofs — exactly the property branch-and-
//! bound relies on when it consumes `Infeasible`/`Optimal` outcomes.
//!
//! The [`Postsolve`] record maps any solution of the reduced model back
//! to the original variable space, so solver signatures (and reported
//! solutions) are unchanged by presolve.

use crate::model::{ConstraintOp, Model, Sense, VarKind};
use std::collections::{BTreeMap, BTreeSet};

/// Feasibility slack: a row is declared infeasible only when its best
/// achievable activity misses the rhs by more than this.
const FEAS_TOL: f64 = 1e-7;
/// Integrality tolerance used when rounding integer bounds.
const INT_TOL: f64 = 1e-6;
/// Two bounds closer than this collapse the variable to a fixed value.
const FIX_TOL: f64 = 1e-9;
/// Relative tolerance for treating two rows as exact scalar multiples.
const DUP_TOL: f64 = 1e-12;
/// Fixpoint pass cap — each pass is a full row + column sweep.
const MAX_PASSES: usize = 10;

/// Reduction counters accumulated by [`presolve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PresolveStats {
    /// Constraints eliminated (empty, singleton, redundant, forcing,
    /// duplicate, or substituted away).
    pub rows_removed: usize,
    /// Variables eliminated (fixed or substituted out).
    pub cols_removed: usize,
    /// Variable bounds strictly tightened.
    pub tightenings: usize,
    /// Fixpoint passes executed.
    pub passes: usize,
}

/// Static numerics diagnostics for a model (also used by `fpva-lint`).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NumericsReport {
    /// Smallest non-zero |coefficient| in the constraint matrix.
    pub min_abs_coeff: f64,
    /// Largest |coefficient| in the constraint matrix.
    pub max_abs_coeff: f64,
    /// Largest |rhs|.
    pub max_abs_rhs: f64,
    /// Coefficients with magnitude below `1e-7` (likely noise).
    pub tiny_coeffs: usize,
    /// Coefficients with magnitude above `1e7` (conditioning hazard).
    pub huge_coeffs: usize,
    /// Row pairs with identical support whose coefficient vectors are
    /// (nearly) proportional — near-linear dependence.
    pub near_parallel_rows: usize,
}

/// How the reduced problem relates to the original.
#[derive(Debug, Clone)]
pub enum PresolveOutcome {
    /// A smaller (possibly identical) model remains to be solved.
    Reduced(Model),
    /// Presolve fixed every variable; the values are a certified optimal
    /// assignment in the **original** variable space.
    Solved(Vec<f64>),
    /// The model is proven infeasible by interval arithmetic alone.
    Infeasible {
        /// Human-readable certificate of the contradiction.
        reason: String,
    },
    /// The model is feasible and the objective improves without bound.
    Unbounded,
}

/// A single undo step; applied in reverse order by [`Postsolve::restore`].
#[derive(Debug, Clone)]
enum Action {
    /// `var` was fixed to `value`.
    Fix { var: usize, value: f64 },
    /// `var` was substituted out of row `coeff·var + Σ terms = / ≤ / ≥ rhs`;
    /// restore as `clamp((rhs − Σ aᵢ·xᵢ) / coeff, lb, ub)`.
    Substitute {
        var: usize,
        coeff: f64,
        rhs: f64,
        terms: Vec<(usize, f64)>,
        lb: f64,
        ub: f64,
    },
}

/// Maps solutions of the reduced model back to original variables.
#[derive(Debug, Clone)]
pub struct Postsolve {
    original_n: usize,
    /// original index → reduced index (None when eliminated).
    forward: Vec<Option<usize>>,
    actions: Vec<Action>,
}

impl Postsolve {
    /// Number of variables in the original model.
    pub fn original_var_count(&self) -> usize {
        self.original_n
    }

    /// Number of variables surviving into the reduced model.
    pub fn reduced_var_count(&self) -> usize {
        self.forward.iter().flatten().count()
    }

    /// Exports the reduction record for exact-arithmetic auditing by
    /// [`crate::certify::certify_outcome`]: the variable mapping plus
    /// every action, in application order.
    pub fn certificate(&self) -> crate::certify::PresolveCertificate {
        use crate::certify::PresolveAction;
        crate::certify::PresolveCertificate {
            original_vars: self.original_n,
            forward: self.forward.clone(),
            actions: self
                .actions
                .iter()
                .map(|a| match a {
                    Action::Fix { var, value } => PresolveAction::Fix {
                        var: *var,
                        value: *value,
                    },
                    Action::Substitute {
                        var,
                        coeff,
                        rhs,
                        terms,
                        lb,
                        ub,
                    } => PresolveAction::Substitute {
                        var: *var,
                        coeff: *coeff,
                        rhs: *rhs,
                        terms: terms.clone(),
                        lb: *lb,
                        ub: *ub,
                    },
                })
                .collect(),
        }
    }

    /// Lifts a reduced-model assignment to the original variable space.
    ///
    /// # Panics
    ///
    /// Panics if `reduced` is shorter than the reduced variable count.
    pub fn restore(&self, reduced: &[f64]) -> Vec<f64> {
        let mut full = vec![f64::NAN; self.original_n];
        for (orig, fwd) in self.forward.iter().enumerate() {
            if let Some(j) = fwd {
                full[orig] = reduced[*j];
            }
        }
        // Reverse order: an action's `terms` only reference variables
        // that were still alive when it was recorded, i.e. variables
        // restored by later (already-undone) actions or kept variables.
        for action in self.actions.iter().rev() {
            match action {
                Action::Fix { var, value } => full[*var] = *value,
                Action::Substitute {
                    var,
                    coeff,
                    rhs,
                    terms,
                    lb,
                    ub,
                } => {
                    let rest: f64 = terms.iter().map(|&(v, a)| a * full[v]).sum();
                    full[*var] = ((rhs - rest) / coeff).clamp(*lb, *ub);
                }
            }
        }
        full
    }
}

/// Result of [`presolve`]: outcome, undo record, counters, diagnostics.
#[derive(Debug, Clone)]
pub struct Presolved {
    /// The reduced problem (or a certified terminal verdict).
    pub outcome: PresolveOutcome,
    /// Undo record lifting reduced solutions back to original variables.
    pub postsolve: Postsolve,
    /// Reduction counters.
    pub stats: PresolveStats,
    /// Numerics diagnostics of the **original** model.
    pub numerics: NumericsReport,
}

struct WVar {
    kind: VarKind,
    lb: f64,
    ub: f64,
    obj: f64,
    alive: bool,
}

struct WRow {
    terms: BTreeMap<usize, f64>,
    op: ConstraintOp,
    rhs: f64,
}

#[derive(Debug)]
struct Infeasible(String);

struct Work {
    sign: f64, // +1 minimize, -1 maximize
    vars: Vec<WVar>,
    rows: Vec<Option<WRow>>,
    col_rows: Vec<BTreeSet<usize>>,
    actions: Vec<Action>,
    stats: PresolveStats,
}

/// Activity bounds of a set of terms: finite part plus infinity counts.
#[derive(Default, Clone, Copy)]
struct Activity {
    min_fin: f64,
    max_fin: f64,
    min_ninf: usize, // terms contributing -inf to the min activity
    max_pinf: usize, // terms contributing +inf to the max activity
}

impl Activity {
    fn min(&self) -> f64 {
        if self.min_ninf > 0 {
            f64::NEG_INFINITY
        } else {
            self.min_fin
        }
    }
    fn max(&self) -> f64 {
        if self.max_pinf > 0 {
            f64::INFINITY
        } else {
            self.max_fin
        }
    }
    /// Min activity of all terms except `(v, a)`'s contribution.
    fn min_without(&self, contrib: f64) -> f64 {
        if contrib == f64::NEG_INFINITY {
            if self.min_ninf == 1 {
                self.min_fin
            } else {
                f64::NEG_INFINITY
            }
        } else if self.min_ninf > 0 {
            f64::NEG_INFINITY
        } else {
            self.min_fin - contrib
        }
    }
    fn max_without(&self, contrib: f64) -> f64 {
        if contrib == f64::INFINITY {
            if self.max_pinf == 1 {
                self.max_fin
            } else {
                f64::INFINITY
            }
        } else if self.max_pinf > 0 {
            f64::INFINITY
        } else {
            self.max_fin - contrib
        }
    }
}

impl Work {
    /// Contribution of one term to the minimum activity (may be -inf).
    fn min_contrib(&self, v: usize, a: f64) -> f64 {
        if a > 0.0 {
            a * self.vars[v].lb
        } else {
            a * self.vars[v].ub
        }
    }
    fn max_contrib(&self, v: usize, a: f64) -> f64 {
        if a > 0.0 {
            a * self.vars[v].ub
        } else {
            a * self.vars[v].lb
        }
    }

    fn activity(&self, terms: &[(usize, f64)]) -> Activity {
        let mut act = Activity::default();
        for &(v, a) in terms {
            let lo = self.min_contrib(v, a);
            let hi = self.max_contrib(v, a);
            if lo == f64::NEG_INFINITY {
                act.min_ninf += 1;
            } else {
                act.min_fin += lo;
            }
            if hi == f64::INFINITY {
                act.max_pinf += 1;
            } else {
                act.max_fin += hi;
            }
        }
        act
    }

    fn remove_row(&mut self, r: usize) {
        if let Some(row) = self.rows[r].take() {
            for &v in row.terms.keys() {
                self.col_rows[v].remove(&r);
            }
            self.stats.rows_removed += 1;
        }
    }

    /// Fixes `v` to `value` (rounded for integers, clamped into bounds)
    /// and substitutes it out of every row it appears in.
    fn fix(&mut self, v: usize, value: f64) -> Result<(), Infeasible> {
        let var = &self.vars[v];
        if !var.alive {
            return Ok(());
        }
        let value = if var.kind == VarKind::Continuous {
            value
        } else {
            if (value - value.round()).abs() > INT_TOL {
                return Err(Infeasible(format!(
                    "integer variable x{v} forced to fractional value {value}"
                )));
            }
            value.round()
        };
        if value < var.lb - FEAS_TOL || value > var.ub + FEAS_TOL {
            return Err(Infeasible(format!(
                "variable x{v} forced to {value} outside [{}, {}]",
                var.lb, var.ub
            )));
        }
        let value = value.clamp(var.lb, var.ub);
        self.vars[v].alive = false;
        self.stats.cols_removed += 1;
        self.actions.push(Action::Fix { var: v, value });
        for r in std::mem::take(&mut self.col_rows[v]) {
            if let Some(row) = self.rows[r].as_mut() {
                if let Some(a) = row.terms.remove(&v) {
                    row.rhs -= a * value;
                }
            }
        }
        Ok(())
    }

    /// Tightens the upper bound; returns whether it improved.
    fn tighten_ub(&mut self, v: usize, mut new_ub: f64) -> Result<bool, Infeasible> {
        let var = &self.vars[v];
        if !var.alive {
            return Ok(false);
        }
        if var.kind != VarKind::Continuous {
            new_ub = (new_ub + INT_TOL).floor();
        }
        let cur = var.ub;
        let improves = if cur.is_finite() {
            new_ub < cur - FIX_TOL * (1.0 + cur.abs())
        } else {
            new_ub.is_finite()
        };
        if !improves {
            return Ok(false);
        }
        if new_ub < var.lb - FEAS_TOL {
            return Err(Infeasible(format!(
                "variable x{v}: implied upper bound {new_ub} below lower bound {}",
                var.lb
            )));
        }
        let lb = var.lb;
        self.vars[v].ub = new_ub.max(lb);
        self.stats.tightenings += 1;
        if self.vars[v].ub - lb <= FIX_TOL {
            self.fix(v, lb)?;
        }
        Ok(true)
    }

    fn tighten_lb(&mut self, v: usize, mut new_lb: f64) -> Result<bool, Infeasible> {
        let var = &self.vars[v];
        if !var.alive {
            return Ok(false);
        }
        if var.kind != VarKind::Continuous {
            new_lb = (new_lb - INT_TOL).ceil();
        }
        let cur = var.lb;
        let improves = new_lb > cur + FIX_TOL * (1.0 + cur.abs());
        if !improves {
            return Ok(false);
        }
        if new_lb > var.ub + FEAS_TOL {
            return Err(Infeasible(format!(
                "variable x{v}: implied lower bound {new_lb} above upper bound {}",
                var.ub
            )));
        }
        let ub = var.ub;
        self.vars[v].lb = new_lb.min(ub);
        self.stats.tightenings += 1;
        if ub.is_finite() && ub - self.vars[v].lb <= FIX_TOL {
            self.fix(v, ub)?;
        }
        Ok(true)
    }

    /// Applies a singleton row `a·x (op) rhs` as a bound and removes it.
    fn singleton_row(
        &mut self,
        v: usize,
        a: f64,
        op: ConstraintOp,
        rhs: f64,
    ) -> Result<(), Infeasible> {
        let bound = rhs / a;
        match (op, a > 0.0) {
            (ConstraintOp::Leq, true) | (ConstraintOp::Geq, false) => {
                self.tighten_ub(v, bound)?;
            }
            (ConstraintOp::Leq, false) | (ConstraintOp::Geq, true) => {
                self.tighten_lb(v, bound)?;
            }
            (ConstraintOp::Eq, _) => {
                let var = &self.vars[v];
                if bound < var.lb - FEAS_TOL || bound > var.ub + FEAS_TOL {
                    return Err(Infeasible(format!(
                        "singleton equality fixes x{v} to {bound} outside [{}, {}]",
                        var.lb, var.ub
                    )));
                }
                self.fix(v, bound)?;
            }
        }
        Ok(())
    }

    /// One full sweep over the rows; returns whether anything changed.
    fn row_pass(&mut self) -> Result<bool, Infeasible> {
        let mut changed = false;
        for r in 0..self.rows.len() {
            let Some(row) = self.rows[r].as_ref() else {
                continue;
            };
            let op = row.op;
            let rhs = row.rhs;
            let terms: Vec<(usize, f64)> = row.terms.iter().map(|(&v, &a)| (v, a)).collect();

            if terms.is_empty() {
                let ok = match op {
                    ConstraintOp::Leq => rhs >= -FEAS_TOL,
                    ConstraintOp::Geq => rhs <= FEAS_TOL,
                    ConstraintOp::Eq => rhs.abs() <= FEAS_TOL,
                };
                if !ok {
                    return Err(Infeasible(format!(
                        "constraint #{r} reduced to the contradiction 0 {op:?} {rhs}"
                    )));
                }
                self.remove_row(r);
                changed = true;
                continue;
            }
            if terms.len() == 1 {
                let (v, a) = terms[0];
                self.remove_row(r);
                self.singleton_row(v, a, op, rhs)?;
                changed = true;
                continue;
            }

            let act = self.activity(&terms);
            let (minact, maxact) = (act.min(), act.max());
            // Certified infeasibility: even the most favourable bound
            // assignment misses the rhs.
            let infeasible = match op {
                ConstraintOp::Leq => minact > rhs + FEAS_TOL,
                ConstraintOp::Geq => maxact < rhs - FEAS_TOL,
                ConstraintOp::Eq => minact > rhs + FEAS_TOL || maxact < rhs - FEAS_TOL,
            };
            if infeasible {
                return Err(Infeasible(format!(
                    "constraint #{r}: activity range [{minact}, {maxact}] cannot meet {op:?} {rhs}"
                )));
            }
            // Redundancy: satisfied by every assignment within bounds.
            let redundant = match op {
                ConstraintOp::Leq => maxact <= rhs,
                ConstraintOp::Geq => minact >= rhs,
                ConstraintOp::Eq => false,
            };
            if redundant {
                self.remove_row(r);
                changed = true;
                continue;
            }
            // Forcing: the rhs is only reachable with every variable at
            // the extreme bound it contributes (tight tolerance — this
            // *fixes* variables, so it must be a near-exact hit).
            let force_min =
                minact.is_finite() && (rhs - minact).abs() <= 1e-9 && op != ConstraintOp::Geq;
            let force_max =
                maxact.is_finite() && (rhs - maxact).abs() <= 1e-9 && op != ConstraintOp::Leq;
            if force_min || force_max {
                for &(v, a) in &terms {
                    let var = &self.vars[v];
                    let val = if (a > 0.0) == force_min {
                        var.lb
                    } else {
                        var.ub
                    };
                    self.fix(v, val)?;
                }
                self.remove_row(r);
                changed = true;
                continue;
            }
            // Implied-bound tightening, integer variables only: floor/
            // ceil rounding keeps the deduction exact, so no integer
            // point is ever cut off (continuous implied bounds are left
            // to the simplex to avoid FP-rounding unsoundness).
            for &(v, a) in &terms {
                if self.vars[v].kind == VarKind::Continuous || !self.vars[v].alive {
                    continue;
                }
                if op != ConstraintOp::Geq {
                    // Σ ≤ rhs ⇒ a·x ≤ rhs − minact(others)
                    let others = act.min_without(self.min_contrib(v, a));
                    if others.is_finite() {
                        let bound = (rhs - others) / a;
                        let t = if a > 0.0 {
                            self.tighten_ub(v, bound)?
                        } else {
                            self.tighten_lb(v, bound)?
                        };
                        changed |= t;
                    }
                }
                if op != ConstraintOp::Leq {
                    // Σ ≥ rhs ⇒ a·x ≥ rhs − maxact(others)
                    let others = act.max_without(self.max_contrib(v, a));
                    if others.is_finite() {
                        let bound = (rhs - others) / a;
                        let t = if a > 0.0 {
                            self.tighten_lb(v, bound)?
                        } else {
                            self.tighten_ub(v, bound)?
                        };
                        changed |= t;
                    }
                }
                if self.rows[r].is_none() {
                    break; // a fix emptied and removed this row
                }
            }
        }
        Ok(changed)
    }

    /// Merges duplicate rows (identical support, proportional coeffs).
    fn duplicate_pass(&mut self) -> Result<bool, Infeasible> {
        let mut groups: BTreeMap<Vec<usize>, Vec<usize>> = BTreeMap::new();
        for (r, row) in self.rows.iter().enumerate() {
            if let Some(row) = row {
                if row.terms.len() >= 2 {
                    groups
                        .entry(row.terms.keys().copied().collect())
                        .or_default()
                        .push(r);
                }
            }
        }
        let mut changed = false;
        for rows in groups.values().filter(|g| g.len() >= 2) {
            for i in 0..rows.len() {
                for j in (i + 1)..rows.len() {
                    if self.rows[rows[i]].is_none() || self.rows[rows[j]].is_none() {
                        continue;
                    }
                    changed |= self.try_merge(rows[i], rows[j])?;
                }
            }
        }
        Ok(changed)
    }

    /// Attempts to merge row `rj` into row `ri`; both share support.
    fn try_merge(&mut self, ri: usize, rj: usize) -> Result<bool, Infeasible> {
        let (a, b) = (
            self.rows[ri].as_ref().unwrap(),
            self.rows[rj].as_ref().unwrap(),
        );
        let (&first, &ai) = a.terms.iter().next().unwrap();
        let k = b.terms[&first] / ai;
        for (v, &av) in &a.terms {
            let bv = b.terms[v];
            if (bv - k * av).abs() > DUP_TOL * (1.0 + (k * av).abs()) {
                return Ok(false);
            }
        }
        // Normalise row j onto row i's scale: b/k (op flips when k < 0).
        let rhs_j = b.rhs / k;
        let op_j = match (b.op, k > 0.0) {
            (op, true) => op,
            (ConstraintOp::Leq, false) => ConstraintOp::Geq,
            (ConstraintOp::Geq, false) => ConstraintOp::Leq,
            (ConstraintOp::Eq, false) => ConstraintOp::Eq,
        };
        let (op_i, rhs_i) = (a.op, a.rhs);
        use ConstraintOp::{Eq, Geq, Leq};
        let merged = match (op_i, op_j) {
            (Eq, Eq) => {
                if (rhs_i - rhs_j).abs() > FEAS_TOL {
                    return Err(Infeasible(format!(
                        "duplicate equalities #{ri} and #{rj} demand {rhs_i} and {rhs_j}"
                    )));
                }
                self.remove_row(rj);
                true
            }
            (Eq, Leq) | (Leq, Eq) => {
                let (eq, le) = if op_i == Eq {
                    (rhs_i, rhs_j)
                } else {
                    (rhs_j, rhs_i)
                };
                if eq > le + FEAS_TOL {
                    return Err(Infeasible(format!(
                        "rows #{ri}/#{rj}: equality at {eq} violates duplicate ≤ {le}"
                    )));
                }
                let keep = self.rows[ri].as_mut().unwrap();
                keep.op = Eq;
                keep.rhs = eq;
                self.remove_row(rj);
                true
            }
            (Eq, Geq) | (Geq, Eq) => {
                let (eq, ge) = if op_i == Eq {
                    (rhs_i, rhs_j)
                } else {
                    (rhs_j, rhs_i)
                };
                if eq < ge - FEAS_TOL {
                    return Err(Infeasible(format!(
                        "rows #{ri}/#{rj}: equality at {eq} violates duplicate ≥ {ge}"
                    )));
                }
                let keep = self.rows[ri].as_mut().unwrap();
                keep.op = Eq;
                keep.rhs = eq;
                self.remove_row(rj);
                true
            }
            (Leq, Leq) => {
                self.rows[ri].as_mut().unwrap().rhs = rhs_i.min(rhs_j);
                self.remove_row(rj);
                true
            }
            (Geq, Geq) => {
                self.rows[ri].as_mut().unwrap().rhs = rhs_i.max(rhs_j);
                self.remove_row(rj);
                true
            }
            (Leq, Geq) | (Geq, Leq) => {
                let (le, ge) = if op_i == Leq {
                    (rhs_i, rhs_j)
                } else {
                    (rhs_j, rhs_i)
                };
                if ge > le + FEAS_TOL {
                    return Err(Infeasible(format!(
                        "rows #{ri}/#{rj}: duplicate ≥ {ge} contradicts ≤ {le}"
                    )));
                }
                if (le - ge).abs() <= DUP_TOL * (1.0 + le.abs()) {
                    let keep = self.rows[ri].as_mut().unwrap();
                    keep.op = Eq;
                    keep.rhs = le;
                    self.remove_row(rj);
                    true
                } else {
                    false // a genuine two-sided range; keep both rows
                }
            }
        };
        Ok(merged)
    }

    /// Column sweep: empty columns and implied-free column singletons.
    fn col_pass(&mut self) -> Result<bool, Infeasible> {
        let mut changed = false;
        for v in 0..self.vars.len() {
            if !self.vars[v].alive {
                continue;
            }
            let count = self.col_rows[v].len();
            if count == 0 {
                // Empty column: fix at the cheapest bound when finite;
                // an improving infinite direction is left alive — the
                // finalisation step certifies Unbounded only once the
                // rest of the model is known feasible (zero rows left).
                let c = self.sign * self.vars[v].obj;
                if c < 0.0 && self.vars[v].ub.is_infinite() {
                    continue;
                }
                let val = if c < 0.0 {
                    self.vars[v].ub
                } else {
                    self.vars[v].lb
                };
                self.fix(v, val)?;
                changed = true;
                continue;
            }
            if count == 1 && self.vars[v].kind == VarKind::Continuous && self.vars[v].obj == 0.0 {
                let r = *self.col_rows[v].iter().next().unwrap();
                changed |= self.substitute_singleton(v, r);
            }
        }
        Ok(changed)
    }

    /// Substitutes a zero-cost continuous column singleton out of its
    /// only row. Equality rows need the implied-free condition; for
    /// inequality rows the variable acts as a bounded slack.
    fn substitute_singleton(&mut self, v: usize, r: usize) -> bool {
        let Some(row) = self.rows[r].as_ref() else {
            return false;
        };
        if row.terms.len() < 2 {
            return false; // leave singleton rows to the row pass
        }
        let a = row.terms[&v];
        let (op, rhs) = (row.op, row.rhs);
        let others: Vec<(usize, f64)> = row
            .terms
            .iter()
            .filter(|&(&w, _)| w != v)
            .map(|(&w, &c)| (w, c))
            .collect();
        let (lb, ub) = (self.vars[v].lb, self.vars[v].ub);

        let record = |work: &mut Work| {
            work.actions.push(Action::Substitute {
                var: v,
                coeff: a,
                rhs,
                terms: others.clone(),
                lb,
                ub,
            });
            work.vars[v].alive = false;
            work.col_rows[v].clear();
            work.stats.cols_removed += 1;
        };

        match op {
            ConstraintOp::Eq => {
                // Implied-free check: the row itself confines v to
                // [(rhs − omax)/a, (rhs − omin)/a] (a > 0); only when
                // that interval sits inside [lb, ub] can the explicit
                // bounds be dropped along with the row.
                let oact = self.activity(&others);
                let (omin, omax) = (oact.min(), oact.max());
                if !omin.is_finite() || !omax.is_finite() {
                    return false;
                }
                let (ilo, ihi) = if a > 0.0 {
                    ((rhs - omax) / a, (rhs - omin) / a)
                } else {
                    ((rhs - omin) / a, (rhs - omax) / a)
                };
                let pad = FIX_TOL * (1.0 + ilo.abs().max(ihi.abs()));
                if ilo < lb - pad || ihi > ub + pad {
                    return false;
                }
                record(self);
                self.remove_row(r);
                true
            }
            ConstraintOp::Leq | ConstraintOp::Geq => {
                // a·v + rest (op) rhs is satisfiable in v exactly when
                // rest (op) rhs − extreme(a·v); the extreme is -inf/+inf
                // for an unbounded slack (row vanishes) and a finite
                // shift otherwise.
                let extreme = if (op == ConstraintOp::Leq) == (a > 0.0) {
                    a * lb
                } else {
                    a * ub // may be ±inf
                };
                record(self);
                if extreme.is_infinite() {
                    self.remove_row(r);
                } else {
                    let row = self.rows[r].as_mut().unwrap();
                    row.terms.remove(&v);
                    row.rhs -= extreme;
                }
                true
            }
        }
    }
}

/// Runs the presolve pass over `model`.
///
/// The input is unchanged; the result holds the reduced model (or a
/// certified verdict), the [`Postsolve`] undo record, reduction
/// counters, and a numerics report. Call after [`Model::validate`] —
/// non-finite data may otherwise panic.
pub fn presolve(model: &Model) -> Presolved {
    let numerics = numerics_report(model);
    let n = model.var_count();
    let sign = match model.sense() {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };
    let mut work = Work {
        sign,
        vars: model
            .vars()
            .iter()
            .map(|v| WVar {
                kind: v.kind,
                lb: v.lb,
                ub: v.ub,
                obj: 0.0,
                alive: true,
            })
            .collect(),
        rows: Vec::with_capacity(model.constraint_count()),
        col_rows: vec![BTreeSet::new(); n],
        actions: Vec::new(),
        stats: PresolveStats::default(),
    };
    for (v, c) in model.objective().terms() {
        work.vars[v.index()].obj = c;
    }
    for (r, c) in model.constraints().iter().enumerate() {
        let terms: BTreeMap<usize, f64> = c.expr.terms().map(|(v, a)| (v.index(), a)).collect();
        for &v in terms.keys() {
            work.col_rows[v].insert(r);
        }
        work.rows.push(Some(WRow {
            terms,
            op: c.op,
            rhs: c.rhs,
        }));
    }

    let fixpoint = |work: &mut Work| -> Result<(), Infeasible> {
        // Normalise integer bounds and collapse degenerate domains first.
        for v in 0..work.vars.len() {
            if work.vars[v].kind != VarKind::Continuous {
                let lb = (work.vars[v].lb - INT_TOL).ceil();
                let ub = (work.vars[v].ub + INT_TOL).floor();
                if ub < lb {
                    return Err(Infeasible(format!(
                        "integer variable x{v} has empty domain [{lb}, {ub}]"
                    )));
                }
                work.vars[v].lb = lb;
                work.vars[v].ub = ub;
            }
            let (lb, ub) = (work.vars[v].lb, work.vars[v].ub);
            if ub.is_finite() && ub - lb <= FIX_TOL {
                work.fix(v, lb)?;
            }
        }
        for _ in 0..MAX_PASSES {
            work.stats.passes += 1;
            let mut changed = work.row_pass()?;
            changed |= work.duplicate_pass()?;
            changed |= work.col_pass()?;
            if !changed {
                break;
            }
        }
        Ok(())
    };

    let verdict = fixpoint(&mut work);
    let mut forward = vec![None; n];
    let postsolve = |work: &Work, forward: Vec<Option<usize>>| Postsolve {
        original_n: n,
        forward,
        actions: work.actions.clone(),
    };

    if let Err(Infeasible(reason)) = verdict {
        return Presolved {
            outcome: PresolveOutcome::Infeasible { reason },
            postsolve: postsolve(&work, forward),
            stats: work.stats,
            numerics,
        };
    }

    if work.rows.iter().all(Option::is_none) {
        // No constraints left: every remaining variable sits at its
        // cheapest bound. An improving infinite direction is now a
        // certificate of unboundedness (the model is trivially feasible).
        for v in 0..work.vars.len() {
            if !work.vars[v].alive {
                continue;
            }
            let c = work.sign * work.vars[v].obj;
            if c < 0.0 && work.vars[v].ub.is_infinite() {
                return Presolved {
                    outcome: PresolveOutcome::Unbounded,
                    postsolve: postsolve(&work, forward),
                    stats: work.stats,
                    numerics,
                };
            }
            let val = if c < 0.0 {
                work.vars[v].ub
            } else {
                work.vars[v].lb
            };
            work.fix(v, val)
                .expect("bound endpoints are always in range");
        }
        let ps = postsolve(&work, forward);
        let values = ps.restore(&[]);
        return Presolved {
            outcome: PresolveOutcome::Solved(values),
            postsolve: ps,
            stats: work.stats,
            numerics,
        };
    }

    // Build the reduced model.
    let mut reduced = Model::new(model.sense());
    let mut next = 0usize;
    for (v, wv) in work.vars.iter().enumerate() {
        if !wv.alive {
            continue;
        }
        forward[v] = Some(next);
        next += 1;
        let name = model.var_name(crate::expr::VarId(v));
        match wv.kind {
            VarKind::Binary if wv.lb == 0.0 && wv.ub == 1.0 => {
                reduced.binary_var(name);
            }
            VarKind::Binary | VarKind::Integer => {
                reduced.integer_var(name, wv.lb, wv.ub);
            }
            VarKind::Continuous => {
                reduced.continuous_var(name, wv.lb, wv.ub);
            }
        }
    }
    for row in work.rows.iter().flatten() {
        let mut expr = crate::expr::LinExpr::new();
        for (&v, &a) in &row.terms {
            expr.add_term(
                crate::expr::VarId(forward[v].expect("term var is alive")),
                a,
            );
        }
        reduced.add_constraint(expr, row.op, row.rhs);
    }
    let mut obj = crate::expr::LinExpr::new();
    let mut constant = model.objective().constant();
    for (v, wv) in work.vars.iter().enumerate() {
        if wv.alive && wv.obj != 0.0 {
            obj.add_term(crate::expr::VarId(forward[v].unwrap()), wv.obj);
        }
    }
    // Fixed variables fold their objective contribution into the
    // constant so reduced and original objectives agree pointwise.
    for action in &work.actions {
        if let Action::Fix { var, value } = action {
            constant += model.objective().coeff(crate::expr::VarId(*var)) * value;
        }
    }
    obj.add_constant(constant);
    reduced.set_objective(obj);

    Presolved {
        outcome: PresolveOutcome::Reduced(reduced),
        postsolve: postsolve(&work, forward),
        stats: work.stats,
        numerics,
    }
}

/// Computes static numerics diagnostics for `model`.
pub fn numerics_report(model: &Model) -> NumericsReport {
    let mut rep = NumericsReport {
        min_abs_coeff: f64::INFINITY,
        ..NumericsReport::default()
    };
    let mut supports: BTreeMap<Vec<usize>, Vec<Vec<f64>>> = BTreeMap::new();
    for c in model.constraints() {
        rep.max_abs_rhs = rep.max_abs_rhs.max(c.rhs.abs());
        let mut vars = Vec::new();
        let mut coeffs = Vec::new();
        for (v, a) in c.expr.terms() {
            let m = a.abs();
            rep.min_abs_coeff = rep.min_abs_coeff.min(m);
            rep.max_abs_coeff = rep.max_abs_coeff.max(m);
            if m < 1e-7 {
                rep.tiny_coeffs += 1;
            }
            if m > 1e7 {
                rep.huge_coeffs += 1;
            }
            vars.push(v.index());
            coeffs.push(a);
        }
        if vars.len() >= 2 {
            supports.entry(vars).or_default().push(coeffs);
        }
    }
    if !rep.min_abs_coeff.is_finite() {
        rep.min_abs_coeff = 0.0;
    }
    for rows in supports.values().filter(|r| r.len() >= 2) {
        for i in 0..rows.len() {
            for j in (i + 1)..rows.len() {
                let k = rows[j][0] / rows[i][0];
                let near = rows[i]
                    .iter()
                    .zip(&rows[j])
                    .all(|(&a, &b)| (b - k * a).abs() <= 1e-3 * (1.0 + (k * a).abs()));
                if near {
                    rep.near_parallel_rows += 1;
                }
            }
        }
    }
    rep
}

/// Per-node integer bound propagation over the (reduced) model's rows.
///
/// Branch-and-bound applies this to every node's bound vectors before
/// solving the LP relaxation: floor/ceil implied bounds on integer
/// variables are exact deductions, so nodes pruned here are pruned with
/// certainty and the search's certified verdicts are preserved.
/// One propagation row: sparse terms, operator and right-hand side.
type PropRow = (Vec<(usize, f64)>, ConstraintOp, f64);

#[derive(Debug, Clone)]
pub(crate) struct Propagator {
    rows: Vec<PropRow>,
    is_int: Vec<bool>,
    passes: usize,
}

impl Propagator {
    pub(crate) fn new(model: &Model) -> Self {
        let rows = model
            .constraints()
            .iter()
            .map(|c| {
                let terms: Vec<(usize, f64)> =
                    c.expr.terms().map(|(v, a)| (v.index(), a)).collect();
                (terms, c.op, c.rhs)
            })
            .collect();
        let is_int = model
            .vars()
            .iter()
            .map(|v| v.kind != VarKind::Continuous)
            .collect();
        Propagator {
            rows,
            is_int,
            passes: 3,
        }
    }

    /// Tightens integer entries of `lower`/`upper` in place. Returns the
    /// number of tightenings, or `None` when a domain empties or a row
    /// becomes unsatisfiable (the node can be pruned without an LP).
    pub(crate) fn propagate(&self, lower: &mut [f64], upper: &mut [f64]) -> Option<usize> {
        let mut tightened = 0usize;
        for _ in 0..self.passes {
            let before = tightened;
            for (terms, op, rhs) in &self.rows {
                let mut min_fin = 0.0;
                let mut max_fin = 0.0;
                let mut min_ninf = 0usize;
                let mut max_pinf = 0usize;
                for &(v, a) in terms {
                    let lo = if a > 0.0 { a * lower[v] } else { a * upper[v] };
                    let hi = if a > 0.0 { a * upper[v] } else { a * lower[v] };
                    if lo == f64::NEG_INFINITY {
                        min_ninf += 1;
                    } else {
                        min_fin += lo;
                    }
                    if hi == f64::INFINITY {
                        max_pinf += 1;
                    } else {
                        max_fin += hi;
                    }
                }
                let minact = if min_ninf > 0 {
                    f64::NEG_INFINITY
                } else {
                    min_fin
                };
                let maxact = if max_pinf > 0 { f64::INFINITY } else { max_fin };
                let infeasible = match op {
                    ConstraintOp::Leq => minact > rhs + FEAS_TOL,
                    ConstraintOp::Geq => maxact < rhs - FEAS_TOL,
                    ConstraintOp::Eq => minact > rhs + FEAS_TOL || maxact < rhs - FEAS_TOL,
                };
                if infeasible {
                    return None;
                }
                for &(v, a) in terms {
                    if !self.is_int[v] {
                        continue;
                    }
                    let lo = if a > 0.0 { a * lower[v] } else { a * upper[v] };
                    let hi = if a > 0.0 { a * upper[v] } else { a * lower[v] };
                    if *op != ConstraintOp::Geq {
                        let others = if lo == f64::NEG_INFINITY {
                            if min_ninf == 1 {
                                min_fin
                            } else {
                                f64::NEG_INFINITY
                            }
                        } else if min_ninf > 0 {
                            f64::NEG_INFINITY
                        } else {
                            min_fin - lo
                        };
                        if others.is_finite() {
                            let b = (rhs - others) / a;
                            if a > 0.0 {
                                let nb = (b + INT_TOL).floor();
                                if nb < upper[v] - 0.5 {
                                    upper[v] = nb;
                                    tightened += 1;
                                    if upper[v] < lower[v] {
                                        return None;
                                    }
                                }
                            } else {
                                let nb = (b - INT_TOL).ceil();
                                if nb > lower[v] + 0.5 {
                                    lower[v] = nb;
                                    tightened += 1;
                                    if upper[v] < lower[v] {
                                        return None;
                                    }
                                }
                            }
                        }
                    }
                    if *op != ConstraintOp::Leq {
                        let others = if hi == f64::INFINITY {
                            if max_pinf == 1 {
                                max_fin
                            } else {
                                f64::INFINITY
                            }
                        } else if max_pinf > 0 {
                            f64::INFINITY
                        } else {
                            max_fin - hi
                        };
                        if others.is_finite() {
                            let b = (rhs - others) / a;
                            if a > 0.0 {
                                let nb = (b - INT_TOL).ceil();
                                if nb > lower[v] + 0.5 {
                                    lower[v] = nb;
                                    tightened += 1;
                                    if upper[v] < lower[v] {
                                        return None;
                                    }
                                }
                            } else {
                                let nb = (b + INT_TOL).floor();
                                if nb < upper[v] - 0.5 {
                                    upper[v] = nb;
                                    tightened += 1;
                                    if upper[v] < lower[v] {
                                        return None;
                                    }
                                }
                            }
                        }
                    }
                }
            }
            if tightened == before {
                break;
            }
        }
        Some(tightened)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinExpr;
    use crate::model::Sense;

    fn reduced(p: &Presolved) -> &Model {
        match &p.outcome {
            PresolveOutcome::Reduced(m) => m,
            other => panic!("expected Reduced, got {other:?}"),
        }
    }

    #[test]
    fn singleton_equality_fixes_variable() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.binary_var("x");
        let y = m.binary_var("y");
        m.add_eq(LinExpr::from(x), 1.0);
        m.add_leq(x + y, 2.0); // becomes y <= 1 (redundant) after the fix
        m.set_objective(x + y);
        let p = presolve(&m);
        assert!(p.stats.rows_removed >= 2);
        assert!(p.stats.cols_removed >= 1);
        match &p.outcome {
            // y alone remains, or everything got solved outright.
            PresolveOutcome::Reduced(r) => assert!(r.var_count() <= 1),
            PresolveOutcome::Solved(v) => {
                assert_eq!(v[0], 1.0);
                assert_eq!(v[1], 0.0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn forcing_row_fixes_every_variable() {
        // x + y >= 2 over binaries: only (1, 1) works.
        let mut m = Model::new(Sense::Minimize);
        let x = m.binary_var("x");
        let y = m.binary_var("y");
        m.add_geq(x + y, 2.0);
        m.set_objective(x + y);
        let p = presolve(&m);
        match &p.outcome {
            PresolveOutcome::Solved(v) => assert_eq!(v, &vec![1.0, 1.0]),
            other => panic!("expected Solved, got {other:?}"),
        }
    }

    #[test]
    fn certified_infeasible_without_factorizing() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.binary_var("x");
        let y = m.binary_var("y");
        m.add_geq(x + y, 3.0);
        m.set_objective(x + y);
        let p = presolve(&m);
        assert!(matches!(p.outcome, PresolveOutcome::Infeasible { .. }));
    }

    #[test]
    fn fractional_singleton_equality_on_integer_is_infeasible() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.integer_var("x", 0.0, 10.0);
        m.add_eq(2.0 * x, 5.0);
        m.set_objective(LinExpr::from(x));
        let p = presolve(&m);
        assert!(matches!(p.outcome, PresolveOutcome::Infeasible { .. }));
    }

    #[test]
    fn redundant_row_is_dropped() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.binary_var("x");
        let y = m.binary_var("y");
        m.add_leq(x + y, 5.0); // max activity 2 <= 5
        m.add_geq(x + y, 1.0); // kept
        m.set_objective(x + y);
        let p = presolve(&m);
        assert_eq!(p.stats.rows_removed, 1);
        assert_eq!(reduced(&p).constraint_count(), 1);
    }

    #[test]
    fn duplicate_rows_merge_to_tightest() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.binary_var("x");
        let y = m.binary_var("y");
        m.add_leq(x + y, 1.0);
        m.add_leq(2.0 * x + 2.0 * y, 4.0); // scaled duplicate, rhs 2 > 1
        m.set_objective(x + y);
        let p = presolve(&m);
        assert_eq!(reduced(&p).constraint_count(), 1);
        assert!(p.stats.rows_removed >= 1);
    }

    #[test]
    fn contradictory_duplicate_equalities_are_infeasible() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.continuous_var("x", 0.0, 10.0);
        let y = m.continuous_var("y", 0.0, 10.0);
        m.add_eq(x + y, 3.0);
        m.add_eq(2.0 * x + 2.0 * y, 8.0); // says x + y = 4
        m.set_objective(LinExpr::from(x));
        let p = presolve(&m);
        assert!(matches!(p.outcome, PresolveOutcome::Infeasible { .. }));
    }

    #[test]
    fn implied_free_singleton_substitution_roundtrips() {
        // s appears only in the equality, has zero cost, and the row
        // confines it to [0, 2] inside its [-,5] bounds -> substituted.
        let mut m = Model::new(Sense::Minimize);
        let x = m.continuous_var("x", 0.0, 1.0);
        let y = m.continuous_var("y", 0.0, 1.0);
        let s = m.continuous_var("s", -3.0, 5.0);
        m.add_eq(x + y + s, 2.0);
        m.add_geq(x + y, 0.5);
        m.set_objective(x + y);
        let p = presolve(&m);
        let r = reduced(&p);
        assert_eq!(r.var_count(), 2);
        // Solve-by-hand reduced optimum: x + y = 0.5. Restore s.
        let full = p.postsolve.restore(&[0.5, 0.0]);
        assert_eq!(full.len(), 3);
        assert!((full[0] + full[1] + full[2] - 2.0).abs() < 1e-9);
        assert!(full[2] >= -3.0 && full[2] <= 5.0);
    }

    #[test]
    fn bounds_only_model_is_solved_outright() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.integer_var("x", 0.0, 7.0);
        let y = m.continuous_var("y", -2.0, 3.0);
        m.set_objective(2.0 * x - y);
        let p = presolve(&m);
        match &p.outcome {
            PresolveOutcome::Solved(v) => assert_eq!(v, &vec![7.0, -2.0]),
            other => panic!("expected Solved, got {other:?}"),
        }
    }

    #[test]
    fn free_improving_direction_is_certified_unbounded() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.integer_var("x", 0.0, f64::INFINITY);
        m.set_objective(LinExpr::from(x));
        let p = presolve(&m);
        assert!(matches!(p.outcome, PresolveOutcome::Unbounded));
    }

    #[test]
    fn empty_contradictory_row_is_infeasible() {
        let mut m = Model::new(Sense::Minimize);
        let _x = m.binary_var("x");
        m.add_geq(LinExpr::new(), 1.0); // 0 >= 1
        let p = presolve(&m);
        assert!(matches!(p.outcome, PresolveOutcome::Infeasible { .. }));
    }

    #[test]
    fn integer_implied_bounds_tighten() {
        // 3x + y <= 4, y in [1, 10] integer -> x <= 1 (from floor(3/3)).
        let mut m = Model::new(Sense::Maximize);
        let x = m.integer_var("x", 0.0, 10.0);
        let y = m.integer_var("y", 1.0, 10.0);
        m.add_leq(3.0 * x + y, 4.0);
        m.set_objective(x + y);
        let p = presolve(&m);
        assert!(p.stats.tightenings >= 1);
        let r = reduced(&p);
        let xr = crate::expr::VarId(0);
        assert_eq!(r.var_bounds(xr).1, 1.0);
    }

    #[test]
    fn numerics_report_flags_extremes() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.continuous_var("x", 0.0, 1.0);
        let y = m.continuous_var("y", 0.0, 1.0);
        m.add_leq(1e-9 * x + 1e9 * y, 1.0);
        m.add_leq(x + y, 1.0);
        m.add_leq(x + y + 1e-12 * LinExpr::from(x), 2.0); // ~ parallel to row 1
        m.set_objective(x + y);
        let rep = numerics_report(&m);
        assert_eq!(rep.tiny_coeffs, 1);
        assert_eq!(rep.huge_coeffs, 1);
        assert!(rep.max_abs_coeff >= 1e9);
        assert!(rep.min_abs_coeff <= 1e-9);
        assert_eq!(rep.near_parallel_rows, 1);
        assert_eq!(rep.max_abs_rhs, 2.0);
    }

    #[test]
    fn propagator_prunes_and_tightens() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.integer_var("x", 0.0, 10.0);
        let y = m.integer_var("y", 0.0, 10.0);
        m.add_leq(x + y, 3.0);
        m.add_geq(x + y, 1.0);
        m.set_objective(x + y);
        let prop = Propagator::new(&m);
        let mut lo = vec![0.0, 0.0];
        let mut hi = vec![10.0, 10.0];
        let t = prop.propagate(&mut lo, &mut hi).unwrap();
        assert!(t >= 2);
        assert_eq!(hi, vec![3.0, 3.0]);
        // Branching x >= 4 contradicts x + y <= 3.
        let mut lo = vec![4.0, 0.0];
        let mut hi = vec![10.0, 10.0];
        assert!(prop.propagate(&mut lo, &mut hi).is_none());
    }

    #[test]
    fn postsolve_forward_maps_kept_vars() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.binary_var("x");
        let y = m.binary_var("y");
        let z = m.binary_var("z");
        m.add_eq(LinExpr::from(y), 1.0); // y fixed
        m.add_geq(x + z, 1.0);
        m.set_objective(x + y + z);
        let p = presolve(&m);
        assert_eq!(p.postsolve.original_var_count(), 3);
        assert_eq!(p.postsolve.reduced_var_count(), 2);
        let full = p.postsolve.restore(&[1.0, 0.0]);
        assert_eq!(full, vec![1.0, 1.0, 0.0]);
    }
}
