//! Predicate selectivities and result-size derivation.
//!
//! Column values are uniform integers over known domains, so selectivities
//! — and therefore intermediate and result cardinalities — are exact,
//! deterministic functions of the query. This is what lets the simulator
//! skip materializing tuples while keeping the regression problem faithful:
//! the *cost* side is what carries the noise, not the cardinalities.
//!
//! Terminology follows the paper's Table 3:
//! * the **operand** cardinality `N_O` is the raw table size,
//! * the **intermediate** cardinality `N_I` is the tuples surviving the
//!   most selective ("primary") predicate — the portion an index scan would
//!   fetch,
//! * the **result** cardinality `N_R` is the tuples surviving *all*
//!   predicates.

use crate::catalog::TableDef;
use crate::query::{JoinQuery, Predicate, UnaryQuery};

/// Fraction of a uniform column's rows accepted by a range predicate.
pub fn predicate_selectivity(table: &TableDef, pred: &Predicate) -> f64 {
    let Some(col) = table.columns.get(pred.column) else {
        return 1.0; // Unknown column: treat as non-filtering.
    };
    let domain = col.domain_max as f64 + 1.0;
    let lo = pred.lo.unwrap_or(0).min(col.domain_max) as f64;
    let hi = pred.hi.unwrap_or(col.domain_max).min(col.domain_max) as f64;
    if hi < lo {
        return 0.0;
    }
    ((hi - lo + 1.0) / domain).clamp(0.0, 1.0)
}

/// Combined selectivity of conjunctive predicates (independence assumed).
pub fn conjunctive_selectivity(table: &TableDef, preds: &[Predicate]) -> f64 {
    preds
        .iter()
        .map(|p| predicate_selectivity(table, p))
        .product()
}

/// Selectivity of the most selective single predicate (`1.0` when there are
/// none) — the share of the table an index on that predicate's column would
/// have to fetch.
pub fn primary_selectivity(table: &TableDef, preds: &[Predicate]) -> f64 {
    preds
        .iter()
        .map(|p| predicate_selectivity(table, p))
        .fold(1.0, f64::min)
}

/// Derived cardinalities of a unary query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnarySizes {
    /// Operand cardinality `N_O`.
    pub operand: u64,
    /// Intermediate cardinality `N_I` (after the primary predicate).
    pub intermediate: u64,
    /// Result cardinality `N_R` (after all predicates).
    pub result: u64,
}

/// Computes `N_O`, `N_I`, `N_R` for a unary query.
pub fn unary_sizes(table: &TableDef, q: &UnaryQuery) -> UnarySizes {
    let n = table.cardinality as f64;
    let inter = n * primary_selectivity(table, &q.predicates);
    let result = n * conjunctive_selectivity(table, &q.predicates);
    UnarySizes {
        operand: table.cardinality,
        intermediate: inter.round() as u64,
        result: result.round() as u64,
    }
}

/// Derived cardinalities of a join query.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JoinSizes {
    /// Left operand cardinality `N_O1`.
    pub left_operand: u64,
    /// Right operand cardinality `N_O2`.
    pub right_operand: u64,
    /// Left intermediate cardinality `N_I1` (after left local predicates).
    pub left_intermediate: u64,
    /// Right intermediate cardinality `N_I2` (after right local predicates).
    pub right_intermediate: u64,
    /// Join result cardinality `N_R`.
    pub result: u64,
}

impl JoinSizes {
    /// `N_I1 × N_I2`, the Cartesian product of the intermediates —
    /// a basic explanatory variable of the paper's join classes.
    pub fn cartesian(&self) -> u128 {
        self.left_intermediate as u128 * self.right_intermediate as u128
    }
}

/// Computes the cardinalities of a two-way equijoin.
///
/// The equijoin selectivity over uniform columns is `1 / max(d1, d2)` where
/// `d` are the join-column domain sizes (containment assumption).
pub fn join_sizes(left: &TableDef, right: &TableDef, q: &JoinQuery) -> JoinSizes {
    let li = left.cardinality as f64 * conjunctive_selectivity(left, &q.left_predicates);
    let ri = right.cardinality as f64 * conjunctive_selectivity(right, &q.right_predicates);
    let d1 = left
        .columns
        .get(q.left_col)
        .map_or(1.0, |c| c.domain_max as f64 + 1.0);
    let d2 = right
        .columns
        .get(q.right_col)
        .map_or(1.0, |c| c.domain_max as f64 + 1.0);
    let join_sel = 1.0 / d1.max(d2).max(1.0);
    JoinSizes {
        left_operand: left.cardinality,
        right_operand: right.cardinality,
        left_intermediate: li.round() as u64,
        right_intermediate: ri.round() as u64,
        result: (li * ri * join_sel).round() as u64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{ColumnDef, IndexKind, TableId};

    fn table(card: u64, domains: &[u64]) -> TableDef {
        TableDef {
            id: TableId(1),
            cardinality: card,
            columns: domains
                .iter()
                .enumerate()
                .map(|(i, &d)| ColumnDef {
                    name: format!("a{}", i + 1).into(),
                    width: 4,
                    domain_max: d,
                    index: IndexKind::None,
                })
                .collect(),
            tuple_overhead: 8,
        }
    }

    #[test]
    fn full_range_predicate_selects_everything() {
        let t = table(1000, &[99]);
        let p = Predicate::between(0, 0, 99);
        assert!((predicate_selectivity(&t, &p) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn half_range_selects_half() {
        let t = table(1000, &[99]); // domain {0..99}, 100 values
        let p = Predicate::between(0, 0, 49);
        assert!((predicate_selectivity(&t, &p) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_range_selects_nothing() {
        let t = table(1000, &[99]);
        let p = Predicate {
            column: 0,
            lo: Some(60),
            hi: Some(40),
        };
        assert_eq!(predicate_selectivity(&t, &p), 0.0);
    }

    #[test]
    fn unknown_column_is_non_filtering() {
        let t = table(1000, &[99]);
        assert_eq!(predicate_selectivity(&t, &Predicate::gt(5, 10)), 1.0);
    }

    #[test]
    fn conjunction_multiplies() {
        let t = table(10_000, &[99, 99]);
        let preds = vec![Predicate::between(0, 0, 49), Predicate::between(1, 0, 9)];
        assert!((conjunctive_selectivity(&t, &preds) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn unary_sizes_track_selectivities() {
        let t = table(10_000, &[99, 99]);
        let q = UnaryQuery {
            table: t.id,
            projection: vec![],
            predicates: vec![Predicate::between(0, 0, 49), Predicate::between(1, 0, 9)],
            order_by: None,
        };
        let s = unary_sizes(&t, &q);
        assert_eq!(s.operand, 10_000);
        assert_eq!(s.intermediate, 1_000); // Most selective pred: 10%.
        assert_eq!(s.result, 500);
        // Invariant: N_R <= N_I <= N_O.
        assert!(s.result <= s.intermediate && s.intermediate <= s.operand);
    }

    #[test]
    fn unary_without_predicates_is_identity() {
        let t = table(500, &[9]);
        let q = UnaryQuery {
            table: t.id,
            projection: vec![0],
            predicates: vec![],
            order_by: None,
        };
        let s = unary_sizes(&t, &q);
        assert_eq!(s.intermediate, 500);
        assert_eq!(s.result, 500);
    }

    #[test]
    fn join_sizes_use_domain_containment() {
        let l = table(1_000, &[99]); // domain 100
        let r = table(2_000, &[199]); // domain 200
        let q = JoinQuery {
            left: l.id,
            right: r.id,
            left_col: 0,
            right_col: 0,
            left_predicates: vec![],
            right_predicates: vec![],
            projection: vec![],
        };
        let s = join_sizes(&l, &r, &q);
        // 1000 * 2000 / 200 = 10,000.
        assert_eq!(s.result, 10_000);
        assert_eq!(s.cartesian(), 2_000_000);
    }

    #[test]
    fn join_local_predicates_shrink_intermediates() {
        let l = table(1_000, &[99]);
        let r = table(1_000, &[99]);
        let q = JoinQuery {
            left: l.id,
            right: r.id,
            left_col: 0,
            right_col: 0,
            left_predicates: vec![Predicate::between(0, 0, 49)],
            right_predicates: vec![Predicate::between(0, 0, 9)],
            projection: vec![],
        };
        let s = join_sizes(&l, &r, &q);
        assert_eq!(s.left_intermediate, 500);
        assert_eq!(s.right_intermediate, 100);
        assert!(s.result <= s.left_intermediate * s.right_intermediate);
    }
}
