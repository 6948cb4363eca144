//! Local database schemas: tables, columns and indexes.
//!
//! The simulator does not materialize tuples — query results and costs are
//! derived analytically from column statistics (uniform value distributions
//! with known domains), which keeps multi-hundred-thousand-tuple databases
//! cheap while staying fully deterministic. What the *global* level of an
//! MDBS legitimately knows about a local table (cardinality, tuple length,
//! which columns are indexed and how) lives here; everything else is
//! internal to the local DBS simulation.

use std::borrow::Cow;

/// Identifies a table within one local database.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TableId(pub u32);

impl std::fmt::Display for TableId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "R{}", self.0)
    }
}

/// How a column is indexed in the local DBS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IndexKind {
    /// No index on this column.
    None,
    /// A clustered (primary-organization) index; at most one per table.
    Clustered,
    /// A non-clustered secondary index.
    NonClustered,
}

/// One column of a local table.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    /// Column name (e.g. `a3`). Borrowed from a static table for the
    /// standard schema, so building it allocates no string per column.
    pub name: Cow<'static, str>,
    /// Width of the column in bytes.
    pub width: u32,
    /// Values are uniform integers in `[0, domain_max]`.
    pub domain_max: u64,
    /// Index on this column, if any.
    pub index: IndexKind,
}

/// One local table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableDef {
    /// Table identity.
    pub id: TableId,
    /// Number of tuples.
    pub cardinality: u64,
    /// Columns in definition order.
    pub columns: Vec<ColumnDef>,
    /// Fixed per-tuple storage overhead in bytes.
    pub tuple_overhead: u32,
}

impl TableDef {
    /// Total tuple length in bytes (columns + overhead).
    pub fn tuple_len(&self) -> u32 {
        self.columns.iter().map(|c| c.width).sum::<u32>() + self.tuple_overhead
    }

    /// Length of a projected tuple carrying the given columns.
    pub fn projected_len(&self, cols: &[usize]) -> u32 {
        cols.iter()
            .filter_map(|&i| self.columns.get(i))
            .map(|c| c.width)
            .sum::<u32>()
            + self.tuple_overhead
    }

    /// The column with a clustered index, if any.
    pub fn clustered_column(&self) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.index == IndexKind::Clustered)
    }

    /// Whether column `i` carries any index.
    pub fn is_indexed(&self, i: usize) -> bool {
        self.columns
            .get(i)
            .is_some_and(|c| c.index != IndexKind::None)
    }
}

/// The schema of one local database.
#[derive(Debug, Clone, Default)]
pub struct LocalCatalog {
    tables: Vec<TableDef>,
}

impl LocalCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        LocalCatalog::default()
    }

    /// Registers a table; panics on duplicate ids (a schema bug).
    pub fn add_table(&mut self, table: TableDef) {
        assert!(
            self.table(table.id).is_none(),
            "duplicate table id {}",
            table.id
        );
        self.tables.push(table);
    }

    /// Looks a table up by id.
    pub fn table(&self, id: TableId) -> Option<&TableDef> {
        self.tables.iter().find(|t| t.id == id)
    }

    /// Mutable lookup — used when occasionally-changing factors (schema
    /// changes, table growth) alter the local database.
    pub fn table_mut(&mut self, id: TableId) -> Option<&mut TableDef> {
        self.tables.iter_mut().find(|t| t.id == id)
    }

    /// Drops a table (e.g. a temporary table after a global join).
    /// Returns whether the table existed.
    pub fn remove_table(&mut self, id: TableId) -> bool {
        let before = self.tables.len();
        self.tables.retain(|t| t.id != id);
        self.tables.len() != before
    }

    /// All tables, in registration order.
    pub fn tables(&self) -> &[TableDef] {
        &self.tables
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> TableDef {
        TableDef {
            id: TableId(7),
            cardinality: 50_000,
            columns: (1..=9)
                .map(|i| ColumnDef {
                    name: format!("a{i}").into(),
                    width: 4,
                    domain_max: 10_000,
                    index: if i == 1 {
                        IndexKind::Clustered
                    } else if i == 3 {
                        IndexKind::NonClustered
                    } else {
                        IndexKind::None
                    },
                })
                .collect(),
            tuple_overhead: 8,
        }
    }

    #[test]
    fn tuple_len_sums_columns_and_overhead() {
        assert_eq!(sample_table().tuple_len(), 9 * 4 + 8);
    }

    #[test]
    fn projected_len_counts_selected_columns() {
        let t = sample_table();
        assert_eq!(t.projected_len(&[0, 4, 6]), 3 * 4 + 8);
        // Out-of-range columns are ignored rather than panicking.
        assert_eq!(t.projected_len(&[100]), 8);
    }

    #[test]
    fn clustered_column_found() {
        assert_eq!(sample_table().clustered_column(), Some(0));
    }

    #[test]
    fn index_lookup() {
        let t = sample_table();
        assert!(t.is_indexed(0));
        assert!(t.is_indexed(2));
        assert!(!t.is_indexed(4));
        assert!(!t.is_indexed(99));
    }

    #[test]
    fn catalog_roundtrip() {
        let mut c = LocalCatalog::new();
        c.add_table(sample_table());
        assert!(c.table(TableId(7)).is_some());
        assert!(c.table(TableId(8)).is_none());
        assert_eq!(c.tables().len(), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate table id")]
    fn duplicate_table_rejected() {
        let mut c = LocalCatalog::new();
        c.add_table(sample_table());
        c.add_table(sample_table());
    }

    #[test]
    fn display_formats_like_the_paper() {
        assert_eq!(TableId(3).to_string(), "R3");
    }
}
