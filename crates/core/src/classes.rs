//! Query classification (paper §4.1).
//!
//! "We group local queries on a local database system into classes based on
//! their potential access methods to be employed" — using only information
//! visible at the global level: query shape, operand schemas, index kinds
//! and catalog selectivities. Queries in one class share a performance
//! behaviour describable by a common cost model.
//!
//! The three classes the paper evaluates are:
//! * `G1` — unary queries without usable indexes (sequential scans),
//! * `G2` — unary queries with a usable *non-clustered* index for ranges,
//! * `G3` — join queries without usable indexes.
//!
//! Two further classes round out the taxonomy of the underlying static
//! method: unary queries served by a *clustered* index, and joins that can
//! be driven through an index.

use crate::variables::VariableFamily;
use mdbs_sim::catalog::{IndexKind, LocalCatalog};
use mdbs_sim::query::Query;
use mdbs_sim::selectivity::predicate_selectivity;

/// Selectivity below which a non-clustered index is assumed usable at
/// classification time (a conservative, vendor-independent bound).
pub const NONCLUSTERED_CLASS_CUTOFF: f64 = 0.10;

/// A homogeneous local query class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum QueryClass {
    /// `G1`: unary, no usable index — sequential scan expected.
    UnaryNoIndex,
    /// `G2`: unary, usable non-clustered index for a range predicate.
    UnaryNonClusteredIndex,
    /// Unary, usable clustered index (the `R^{cl}` example of §4.1).
    UnaryClusteredIndex,
    /// `G3`: two-way join, no usable index on either join column.
    JoinNoIndex,
    /// Two-way join with a usable index on a join column.
    JoinIndexed,
}

impl QueryClass {
    /// All classes, in report order.
    pub fn all() -> [QueryClass; 5] {
        [
            QueryClass::UnaryNoIndex,
            QueryClass::UnaryNonClusteredIndex,
            QueryClass::UnaryClusteredIndex,
            QueryClass::JoinNoIndex,
            QueryClass::JoinIndexed,
        ]
    }

    /// The paper's three representative classes.
    pub fn paper_classes() -> [QueryClass; 3] {
        [
            QueryClass::UnaryNoIndex,
            QueryClass::UnaryNonClusteredIndex,
            QueryClass::JoinNoIndex,
        ]
    }

    /// The paper's label for this class, where it has one.
    pub fn label(self) -> &'static str {
        match self {
            QueryClass::UnaryNoIndex => "G1 (unary, no index)",
            QueryClass::UnaryNonClusteredIndex => "G2 (unary, non-clustered index)",
            QueryClass::UnaryClusteredIndex => "Gc (unary, clustered index)",
            QueryClass::JoinNoIndex => "G3 (join, no index)",
            QueryClass::JoinIndexed => "Gj (join, indexed)",
        }
    }

    /// The variable family (Table 3 column set) of this class.
    pub fn family(self) -> VariableFamily {
        match self {
            QueryClass::UnaryNoIndex
            | QueryClass::UnaryNonClusteredIndex
            | QueryClass::UnaryClusteredIndex => VariableFamily::Unary,
            QueryClass::JoinNoIndex | QueryClass::JoinIndexed => VariableFamily::Join,
        }
    }

    /// Checks that every index of a model's `var_indexes` names a candidate
    /// variable of this class's family, so projecting an observation of
    /// the class cannot index past its end. Catalog decoders call this on
    /// every model and accumulator they key to a class; `Err` is the
    /// message.
    pub(crate) fn check_var_indexes(self, var_indexes: &[usize]) -> Result<(), String> {
        let width = self.family().all().len();
        match var_indexes.iter().find(|&&i| i >= width) {
            Some(i) => Err(format!(
                "variable index {i} out of range for class {} ({width} candidate variables)",
                self.as_str()
            )),
            None => Ok(()),
        }
    }
}

/// Classifies a local query using only globally visible information.
///
/// Returns `None` for queries referencing tables the MDBS does not know.
pub fn classify(catalog: &LocalCatalog, query: &Query) -> Option<QueryClass> {
    match query {
        Query::Unary(u) => {
            let t = catalog.table(u.table)?;
            let mut best: Option<QueryClass> = None;
            for p in &u.predicates {
                let Some(col) = t.columns.get(p.column) else {
                    continue;
                };
                let sel = predicate_selectivity(t, p);
                match col.index {
                    IndexKind::Clustered if sel < 0.95 => {
                        return Some(QueryClass::UnaryClusteredIndex);
                    }
                    IndexKind::NonClustered if sel <= NONCLUSTERED_CLASS_CUTOFF => {
                        best = Some(QueryClass::UnaryNonClusteredIndex);
                    }
                    _ => {}
                }
            }
            Some(best.unwrap_or(QueryClass::UnaryNoIndex))
        }
        Query::Join(j) => {
            let l = catalog.table(j.left)?;
            let r = catalog.table(j.right)?;
            let left_indexed = l
                .columns
                .get(j.left_col)
                .is_some_and(|c| c.index != IndexKind::None);
            let right_indexed = r
                .columns
                .get(j.right_col)
                .is_some_and(|c| c.index != IndexKind::None);
            Some(if left_indexed || right_indexed {
                QueryClass::JoinIndexed
            } else {
                QueryClass::JoinNoIndex
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mdbs_sim::catalog::TableId;
    use mdbs_sim::datagen::standard_database;
    use mdbs_sim::query::{JoinQuery, Predicate, UnaryQuery};

    fn db() -> LocalCatalog {
        standard_database(42)
    }

    #[test]
    fn unary_without_indexable_predicates_is_g1() {
        let db = db();
        let t = &db.tables()[1]; // Even table: no clustered index.
        let q = Query::Unary(UnaryQuery {
            table: t.id,
            projection: vec![0],
            predicates: vec![Predicate::lt(4, t.columns[4].domain_max / 2)],
            order_by: None,
        });
        assert_eq!(classify(&db, &q), Some(QueryClass::UnaryNoIndex));
    }

    #[test]
    fn selective_range_on_a3_is_g2() {
        let db = db();
        let t = &db.tables()[1];
        // a3 (index 2) carries a non-clustered index; 5% selectivity.
        let q = Query::Unary(UnaryQuery {
            table: t.id,
            projection: vec![0],
            predicates: vec![Predicate::lt(2, t.columns[2].domain_max / 20)],
            order_by: None,
        });
        assert_eq!(classify(&db, &q), Some(QueryClass::UnaryNonClusteredIndex));
    }

    #[test]
    fn unselective_range_on_a3_falls_back_to_g1() {
        let db = db();
        let t = &db.tables()[1];
        let q = Query::Unary(UnaryQuery {
            table: t.id,
            projection: vec![0],
            predicates: vec![Predicate::lt(2, t.columns[2].domain_max / 2)],
            order_by: None,
        });
        assert_eq!(classify(&db, &q), Some(QueryClass::UnaryNoIndex));
    }

    #[test]
    fn clustered_index_dominates() {
        let db = db();
        let t = &db.tables()[0]; // Odd table: clustered on a1.
        let q = Query::Unary(UnaryQuery {
            table: t.id,
            projection: vec![0],
            predicates: vec![
                Predicate::lt(0, t.columns[0].domain_max / 2),
                Predicate::lt(2, t.columns[2].domain_max / 50),
            ],
            order_by: None,
        });
        assert_eq!(classify(&db, &q), Some(QueryClass::UnaryClusteredIndex));
    }

    #[test]
    fn join_on_unindexed_columns_is_g3() {
        let db = db();
        let q = Query::Join(JoinQuery {
            left: db.tables()[2].id,
            right: db.tables()[3].id,
            left_col: 4,
            right_col: 4,
            left_predicates: vec![],
            right_predicates: vec![],
            projection: vec![],
        });
        assert_eq!(classify(&db, &q), Some(QueryClass::JoinNoIndex));
    }

    #[test]
    fn join_on_indexed_column_is_indexed_class() {
        let db = db();
        let q = Query::Join(JoinQuery {
            left: db.tables()[2].id,
            right: db.tables()[3].id,
            left_col: 4,
            right_col: 2, // a3 is non-clustered indexed everywhere.
            left_predicates: vec![],
            right_predicates: vec![],
            projection: vec![],
        });
        assert_eq!(classify(&db, &q), Some(QueryClass::JoinIndexed));
    }

    #[test]
    fn unknown_table_unclassifiable() {
        let db = db();
        let q = Query::Unary(UnaryQuery {
            table: TableId(99),
            projection: vec![],
            predicates: vec![],
            order_by: None,
        });
        assert_eq!(classify(&db, &q), None);
    }

    #[test]
    fn class_families() {
        assert_eq!(QueryClass::UnaryNoIndex.family(), VariableFamily::Unary);
        assert_eq!(QueryClass::JoinNoIndex.family(), VariableFamily::Join);
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::BTreeSet<_> =
            QueryClass::all().iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), 5);
    }
}
