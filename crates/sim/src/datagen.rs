//! Synthetic local databases.
//!
//! The paper's experiments use, per local DBS, "12 randomly-generated
//! tables (R1 … R12) with cardinalities ranging from 3,000 to 250,000.
//! Each table has a number of indexed columns and various selectivities
//! for different columns" (§5). [`standard_database`] reproduces that
//! layout deterministically from a seed so both simulated vendors host
//! comparable (but not identical) data.

use crate::catalog::{ColumnDef, IndexKind, LocalCatalog, TableDef, TableId};
use mdbs_stats::rng::Rng;
use std::borrow::Cow;

/// Number of tables in the standard database.
pub const NUM_TABLES: u32 = 12;

/// Smallest / largest table cardinalities, per the paper.
pub const MIN_CARD: u64 = 3_000;
/// Largest table cardinality, per the paper.
pub const MAX_CARD: u64 = 250_000;

/// The column names every standard table carries, in definition order.
/// Columns borrow them, so a table's schema costs no string allocation.
const COLUMN_NAMES: [&str; 9] = ["a1", "a2", "a3", "a4", "a5", "a6", "a7", "a8", "a9"];

/// Builds the standard 12-table local database.
///
/// * Cardinalities grow geometrically from [`MIN_CARD`] to [`MAX_CARD`]
///   with mild seeded jitter, so every size decade is represented.
/// * Every table has 9 integer columns `a1..a9` (like the paper's R7).
/// * Odd-numbered tables get a clustered index on `a1`; every table gets a
///   non-clustered index on `a3`, and larger tables one more on `a8`.
/// * Column domains vary so different predicates have very different
///   selectivities.
pub fn standard_database(seed: u64) -> LocalCatalog {
    let mut rng = Rng::seed_from_u64(seed);
    let mut catalog = LocalCatalog::new();
    let ratio = (MAX_CARD as f64 / MIN_CARD as f64).powf(1.0 / (NUM_TABLES as f64 - 1.0));
    for i in 1..=NUM_TABLES {
        let base = MIN_CARD as f64 * ratio.powi(i as i32 - 1);
        let jitter = rng.gen_range(0.92..1.08);
        let cardinality = ((base * jitter) as u64).clamp(MIN_CARD, MAX_CARD);
        let columns = (1..=9u32)
            .zip(COLUMN_NAMES)
            .map(|(c, name)| {
                let index = match c {
                    1 if i % 2 == 1 => IndexKind::Clustered,
                    3 => IndexKind::NonClustered,
                    8 if cardinality > 50_000 => IndexKind::NonClustered,
                    _ => IndexKind::None,
                };
                ColumnDef {
                    name: Cow::Borrowed(name),
                    width: 4,
                    // Domain sizes spread over decades -> varied selectivity.
                    domain_max: 10u64.pow(2 + (c + i) % 4) + rng.gen_range(0u64..50),
                    index,
                }
            })
            .collect();
        catalog.add_table(TableDef {
            id: TableId(i),
            cardinality,
            columns,
            // Vary tuple lengths across tables (44–92 bytes) so that the
            // tuple-length explanatory variables of paper Table 3 carry
            // real signal rather than being constant.
            tuple_overhead: 8 + (i % 5) * 12,
        });
    }
    catalog
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_twelve_tables() {
        let db = standard_database(42);
        assert_eq!(db.tables().len(), 12);
    }

    #[test]
    fn cardinalities_span_papers_range() {
        let db = standard_database(42);
        let cards: Vec<u64> = db.tables().iter().map(|t| t.cardinality).collect();
        assert!(cards.iter().all(|&c| (MIN_CARD..=MAX_CARD).contains(&c)));
        assert!(*cards.first().unwrap() < 5_000);
        assert!(*cards.last().unwrap() > 200_000);
        // Monotone up to jitter: last table is the biggest.
        assert_eq!(cards.iter().copied().max().unwrap(), *cards.last().unwrap());
    }

    #[test]
    fn deterministic_per_seed() {
        let a = standard_database(7);
        let b = standard_database(7);
        for (ta, tb) in a.tables().iter().zip(b.tables()) {
            assert_eq!(ta, tb);
        }
        let c = standard_database(8);
        assert!(a
            .tables()
            .iter()
            .zip(c.tables())
            .any(|(ta, tc)| ta.cardinality != tc.cardinality));
    }

    #[test]
    fn index_layout_matches_design() {
        let db = standard_database(42);
        for t in db.tables() {
            // a3 always non-clustered indexed.
            assert_eq!(t.columns[2].index, IndexKind::NonClustered);
            // Clustered index exactly on odd tables, on a1.
            if t.id.0 % 2 == 1 {
                assert_eq!(t.clustered_column(), Some(0));
            } else {
                assert_eq!(t.clustered_column(), None);
            }
        }
    }

    #[test]
    fn every_table_has_nine_columns_with_varied_tuple_lengths() {
        let db = standard_database(1);
        let mut lengths = std::collections::BTreeSet::new();
        for t in db.tables() {
            assert_eq!(t.columns.len(), 9);
            assert!((44..=92).contains(&t.tuple_len()), "{}", t.tuple_len());
            lengths.insert(t.tuple_len());
        }
        assert!(lengths.len() >= 3, "tuple lengths do not vary: {lengths:?}");
    }

    #[test]
    fn column_names_are_borrowed_not_allocated() {
        for seed in [42, 43] {
            for t in standard_database(seed).tables() {
                for (i, c) in t.columns.iter().enumerate() {
                    assert!(
                        matches!(c.name, Cow::Borrowed(_)),
                        "{} column {i} owns its name",
                        t.id
                    );
                    assert_eq!(c.name, format!("a{}", i + 1));
                }
            }
        }
    }
}
