//! Access-path selection by the simulated local DBMS.
//!
//! The local optimizer is part of the black box: the MDBS only *predicts*
//! which access method is "most likely" to be used (that prediction is what
//! drives query classification, paper §4.1), while the local DBS actually
//! picks one. Keeping the two decisions in separate crates mirrors the real
//! information asymmetry — and the prediction rule in `mdbs-core` is
//! deliberately written against the same observable schema facts (index
//! kinds, selectivities) that this module uses.

use crate::catalog::{IndexKind, TableDef};
use crate::query::{JoinQuery, UnaryQuery};
use crate::selectivity::{predicate_selectivity, primary_selectivity};
use crate::vendor::VendorProfile;

/// The physical operator a local DBS executes a unary query with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryAccess {
    /// Full sequential scan of the operand table.
    SeqScan,
    /// Range scan through the clustered index.
    ClusteredIndexScan,
    /// Lookup through a non-clustered index (one page per fetched tuple).
    NonClusteredIndexScan,
}

/// The physical operator for a two-way join.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinAccess {
    /// Block nested-loop join (no usable index).
    NestedLoop,
    /// Sort-merge join (no usable index, both inputs large).
    SortMerge,
    /// Index nested-loop join driven through the inner table's index.
    IndexNestedLoop,
}

impl std::fmt::Display for UnaryAccess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            UnaryAccess::SeqScan => "SeqScan",
            UnaryAccess::ClusteredIndexScan => "ClusteredIndexScan",
            UnaryAccess::NonClusteredIndexScan => "NonClusteredIndexScan",
        };
        f.write_str(name)
    }
}

impl std::fmt::Display for JoinAccess {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            JoinAccess::NestedLoop => "NestedLoop",
            JoinAccess::SortMerge => "SortMerge",
            JoinAccess::IndexNestedLoop => "IndexNestedLoop",
        };
        f.write_str(name)
    }
}

/// Picks the access method for a unary query the way a cost-based local
/// optimizer of the era would:
///
/// 1. a clustered index matching a predicate always wins,
/// 2. a non-clustered index is used only when the predicate is selective
///    enough (below the vendor's cutoff),
/// 3. otherwise scan sequentially.
pub fn choose_unary(table: &TableDef, q: &UnaryQuery, vendor: &VendorProfile) -> UnaryAccess {
    let mut best: Option<(UnaryAccess, f64)> = None;
    for p in &q.predicates {
        let Some(col) = table.columns.get(p.column) else {
            continue;
        };
        let sel = predicate_selectivity(table, p);
        match col.index {
            IndexKind::Clustered => {
                // Clustered range scans beat anything for sel < ~1.
                if sel < 0.95 {
                    return UnaryAccess::ClusteredIndexScan;
                }
            }
            IndexKind::NonClustered => {
                if sel <= vendor.unclustered_cutoff && best.map_or(true, |(_, s)| sel < s) {
                    best = Some((UnaryAccess::NonClusteredIndexScan, sel));
                }
            }
            IndexKind::None => {}
        }
    }
    best.map_or(UnaryAccess::SeqScan, |(a, _)| a)
}

/// Picks the access method for a join:
///
/// 1. an index on the inner join column enables index nested loops when the
///    outer intermediate is small enough,
/// 2. otherwise sort-merge when both inputs are large,
/// 3. otherwise block nested loops.
pub fn choose_join(
    left: &TableDef,
    right: &TableDef,
    q: &JoinQuery,
    vendor: &VendorProfile,
) -> JoinAccess {
    let right_indexed = right
        .columns
        .get(q.right_col)
        .is_some_and(|c| c.index != IndexKind::None);
    let left_indexed = left
        .columns
        .get(q.left_col)
        .is_some_and(|c| c.index != IndexKind::None);
    let li = left.cardinality as f64 * primary_selectivity(left, &q.left_predicates);
    let ri = right.cardinality as f64 * primary_selectivity(right, &q.right_predicates);
    if (right_indexed && li <= 0.3 * right.cardinality as f64)
        || (left_indexed && ri <= 0.3 * left.cardinality as f64)
    {
        return JoinAccess::IndexNestedLoop;
    }
    let big = vendor.buffer_pages as f64 * vendor.page_size as f64 / 64.0;
    if li > big && ri > big {
        JoinAccess::SortMerge
    } else {
        JoinAccess::NestedLoop
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{ColumnDef, TableId};
    use crate::query::Predicate;

    fn table(card: u64, indexes: &[(usize, IndexKind)]) -> TableDef {
        let mut columns: Vec<ColumnDef> = (0..9)
            .map(|i| ColumnDef {
                name: format!("a{}", i + 1).into(),
                width: 4,
                domain_max: 9_999,
                index: IndexKind::None,
            })
            .collect();
        for &(i, kind) in indexes {
            columns[i].index = kind;
        }
        TableDef {
            id: TableId(1),
            cardinality: card,
            columns,
            tuple_overhead: 8,
        }
    }

    fn unary(preds: Vec<Predicate>) -> UnaryQuery {
        UnaryQuery {
            table: TableId(1),
            projection: vec![0],
            predicates: preds,
            order_by: None,
        }
    }

    #[test]
    fn no_index_means_seqscan() {
        let t = table(10_000, &[]);
        let v = VendorProfile::oracle8();
        assert_eq!(
            choose_unary(&t, &unary(vec![Predicate::lt(4, 100)]), &v),
            UnaryAccess::SeqScan
        );
    }

    #[test]
    fn clustered_index_wins() {
        let t = table(10_000, &[(0, IndexKind::Clustered)]);
        let v = VendorProfile::oracle8();
        assert_eq!(
            choose_unary(&t, &unary(vec![Predicate::lt(0, 5_000)]), &v),
            UnaryAccess::ClusteredIndexScan
        );
    }

    #[test]
    fn nonclustered_index_needs_selectivity() {
        let t = table(10_000, &[(2, IndexKind::NonClustered)]);
        let v = VendorProfile::oracle8();
        // 5% selectivity -> below Oracle's 12% cutoff -> index used.
        assert_eq!(
            choose_unary(&t, &unary(vec![Predicate::lt(2, 500)]), &v),
            UnaryAccess::NonClusteredIndexScan
        );
        // 50% selectivity -> seq scan.
        assert_eq!(
            choose_unary(&t, &unary(vec![Predicate::lt(2, 5_000)]), &v),
            UnaryAccess::SeqScan
        );
    }

    #[test]
    fn vendor_cutoffs_differ() {
        let t = table(10_000, &[(2, IndexKind::NonClustered)]);
        // 15% selectivity: DB2 (cutoff 18%) uses the index, Oracle (12%) not.
        let q = unary(vec![Predicate::lt(2, 1_500)]);
        assert_eq!(
            choose_unary(&t, &q, &VendorProfile::db2v5()),
            UnaryAccess::NonClusteredIndexScan
        );
        assert_eq!(
            choose_unary(&t, &q, &VendorProfile::oracle8()),
            UnaryAccess::SeqScan
        );
    }

    #[test]
    fn join_without_index_small_inputs_nested_loop() {
        let l = table(5_000, &[]);
        let r = table(5_000, &[]);
        let q = JoinQuery {
            left: l.id,
            right: r.id,
            left_col: 4,
            right_col: 4,
            left_predicates: vec![],
            right_predicates: vec![],
            projection: vec![],
        };
        assert_eq!(
            choose_join(&l, &r, &q, &VendorProfile::oracle8()),
            JoinAccess::NestedLoop
        );
    }

    #[test]
    fn join_with_inner_index_uses_it() {
        let l = table(1_000, &[]);
        let r = table(100_000, &[(4, IndexKind::NonClustered)]);
        let q = JoinQuery {
            left: l.id,
            right: r.id,
            left_col: 4,
            right_col: 4,
            left_predicates: vec![],
            right_predicates: vec![],
            projection: vec![],
        };
        assert_eq!(
            choose_join(&l, &r, &q, &VendorProfile::oracle8()),
            JoinAccess::IndexNestedLoop
        );
    }

    #[test]
    fn huge_unindexed_join_sort_merges() {
        let l = table(250_000, &[]);
        let r = table(250_000, &[]);
        let q = JoinQuery {
            left: l.id,
            right: r.id,
            left_col: 4,
            right_col: 4,
            left_predicates: vec![],
            right_predicates: vec![],
            projection: vec![],
        };
        assert_eq!(
            choose_join(&l, &r, &q, &VendorProfile::db2v5()),
            JoinAccess::SortMerge
        );
    }
}
