//! Ground-truth query costing for the simulated local DBS.
//!
//! For every physical plan the engine computes an idle-machine resource
//! demand `(init, io seconds, cpu seconds)` from textbook cost formulas,
//! then lets the [`Machine`](crate::machine::Machine) stretch it under the
//! current contention. The derived regression models in `mdbs-core` never
//! see these formulas — they must *recover* the behaviour from observed
//! (query, cost) samples, which is the whole point of the paper.

use crate::access::{choose_join, choose_unary, JoinAccess, UnaryAccess};
use crate::catalog::TableDef;
use crate::query::{JoinQuery, UnaryQuery};
use crate::selectivity::{join_sizes, unary_sizes, JoinSizes, UnarySizes};
use crate::util::pages;
use crate::vendor::VendorProfile;

/// An idle-machine resource demand.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceDemand {
    /// Startup cost in seconds.
    pub init_s: f64,
    /// I/O service time in seconds.
    pub io_s: f64,
    /// CPU service time in seconds.
    pub cpu_s: f64,
}

impl ResourceDemand {
    /// Total idle-machine seconds.
    pub fn total(&self) -> f64 {
        self.init_s + self.io_s + self.cpu_s
    }
}

/// Costs a unary query; also returns the chosen access method and the
/// derived cardinalities.
pub fn cost_unary(
    table: &TableDef,
    q: &UnaryQuery,
    vendor: &VendorProfile,
) -> (ResourceDemand, UnaryAccess, UnarySizes) {
    let sizes = unary_sizes(table, q);
    let access = choose_unary(table, q, vendor);
    let n_preds = q.predicates.len().max(1) as f64;
    let table_pages = pages(sizes.operand, table.tuple_len(), vendor.page_size);
    let mut demand = match access {
        UnaryAccess::SeqScan => ResourceDemand {
            init_s: vendor.init_s,
            io_s: table_pages as f64 * vendor.seq_page_io_s,
            cpu_s: sizes.operand as f64 * vendor.pred_cpu_s * n_preds
                + sizes.result as f64 * vendor.out_cpu_s,
        },
        UnaryAccess::ClusteredIndexScan => {
            // Fetch only the index-qualified fraction, sequentially laid out.
            let fetched_pages = pages(sizes.intermediate, table.tuple_len(), vendor.page_size);
            ResourceDemand {
                init_s: vendor.init_s,
                io_s: (vendor.index_height as f64 * vendor.rand_page_io_s)
                    + fetched_pages as f64 * vendor.seq_page_io_s,
                cpu_s: sizes.intermediate as f64 * vendor.pred_cpu_s * n_preds
                    + sizes.result as f64 * vendor.out_cpu_s,
            }
        }
        UnaryAccess::NonClusteredIndexScan => {
            // Unclustered: roughly one random page per qualifying tuple,
            // capped by the table size.
            let fetched_pages = sizes.intermediate.min(table_pages.max(1) * 4);
            ResourceDemand {
                init_s: vendor.init_s,
                io_s: (vendor.index_height as f64 + fetched_pages as f64) * vendor.rand_page_io_s,
                cpu_s: sizes.intermediate as f64 * vendor.pred_cpu_s * n_preds
                    + sizes.result as f64 * vendor.out_cpu_s,
            }
        }
    };
    // ORDER BY: an N·log N in-memory sort of the result, spilling to an
    // external merge sort when the result exceeds half the buffer pool —
    // unless the requested order falls out of a clustered-index scan on
    // the same column, in which case it is free.
    if let Some(order_col) = q.order_by {
        let ordered_for_free = access == UnaryAccess::ClusteredIndexScan
            && table.clustered_column() == Some(order_col);
        if !ordered_for_free && sizes.result > 1 {
            let n = sizes.result as f64;
            demand.cpu_s += n * n.log2() * vendor.sort_cpu_s;
            let result_pages = pages(sizes.result, table.tuple_len(), vendor.page_size);
            let sort_buffer_pages = vendor.buffer_pages / 2;
            if result_pages > sort_buffer_pages {
                // Spill: write runs once, read them back for the merge.
                demand.io_s += 2.0 * result_pages as f64 * vendor.seq_page_io_s;
            }
        }
    }
    (demand, access, sizes)
}

/// Costs a two-way join; also returns the chosen method and cardinalities.
pub fn cost_join(
    left: &TableDef,
    right: &TableDef,
    q: &JoinQuery,
    vendor: &VendorProfile,
) -> (ResourceDemand, JoinAccess, JoinSizes) {
    let sizes = join_sizes(left, right, q);
    let access = choose_join(left, right, q, vendor);
    let lp = pages(sizes.left_operand, left.tuple_len(), vendor.page_size);
    let rp = pages(sizes.right_operand, right.tuple_len(), vendor.page_size);
    let scan_cpu = (sizes.left_operand + sizes.right_operand) as f64 * vendor.pred_cpu_s;
    let out_cpu = sizes.result as f64 * vendor.out_cpu_s;
    let demand = match access {
        JoinAccess::NestedLoop => {
            // Block nested loops: outer once, inner once per outer block.
            let blocks = (lp as f64 / (vendor.buffer_pages as f64 - 2.0).max(1.0)).ceil();
            ResourceDemand {
                init_s: vendor.init_s * 1.4,
                io_s: (lp as f64 + blocks * rp as f64) * vendor.seq_page_io_s,
                cpu_s: scan_cpu + sizes.cartesian() as f64 * vendor.join_cpu_s + out_cpu,
            }
        }
        JoinAccess::SortMerge => {
            let sort_levels = |n: u64| (n.max(2) as f64).log2();
            ResourceDemand {
                init_s: vendor.init_s * 1.4,
                // Read both, write+read runs once.
                io_s: (3.0 * (lp + rp) as f64) * vendor.seq_page_io_s,
                cpu_s: scan_cpu
                    + sizes.left_intermediate as f64
                        * sort_levels(sizes.left_intermediate)
                        * vendor.sort_cpu_s
                    + sizes.right_intermediate as f64
                        * sort_levels(sizes.right_intermediate)
                        * vendor.sort_cpu_s
                    + (sizes.left_intermediate + sizes.right_intermediate) as f64
                        * vendor.join_cpu_s
                    + out_cpu,
            }
        }
        JoinAccess::IndexNestedLoop => {
            // Drive the smaller (filtered) side, probe the other's index.
            let (outer_tuples, outer_pages) = if sizes.left_intermediate <= sizes.right_intermediate
            {
                (sizes.left_intermediate, lp)
            } else {
                (sizes.right_intermediate, rp)
            };
            ResourceDemand {
                init_s: vendor.init_s * 1.4,
                io_s: outer_pages as f64 * vendor.seq_page_io_s
                    + outer_tuples as f64
                        * (vendor.index_height as f64 * 0.4 + 1.0)
                        * vendor.rand_page_io_s,
                cpu_s: scan_cpu + outer_tuples as f64 * vendor.join_cpu_s * 4.0 + out_cpu,
            }
        }
    };
    (demand, access, sizes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{ColumnDef, IndexKind, TableId};
    use crate::query::Predicate;

    fn table(id: u32, card: u64, clustered: bool) -> TableDef {
        TableDef {
            id: TableId(id),
            cardinality: card,
            columns: (0..9)
                .map(|i| ColumnDef {
                    name: format!("a{}", i + 1).into(),
                    width: 4,
                    domain_max: 9_999,
                    index: match i {
                        0 if clustered => IndexKind::Clustered,
                        2 => IndexKind::NonClustered,
                        _ => IndexKind::None,
                    },
                })
                .collect(),
            tuple_overhead: 8,
        }
    }

    #[test]
    fn seqscan_cost_scales_with_table_size() {
        let v = VendorProfile::oracle8();
        let q = |t: &TableDef| UnaryQuery {
            table: t.id,
            projection: vec![0],
            predicates: vec![Predicate::lt(4, 5_000)],
            order_by: None,
        };
        let small = table(1, 10_000, false);
        let big = table(2, 100_000, false);
        let (ds, a1, _) = cost_unary(&small, &q(&small), &v);
        let (db, a2, _) = cost_unary(&big, &q(&big), &v);
        assert_eq!(a1, UnaryAccess::SeqScan);
        assert_eq!(a2, UnaryAccess::SeqScan);
        // 10x the data should cost several times more even with the fixed
        // startup overhead amortized in.
        assert!(db.total() > 3.5 * ds.total());
    }

    #[test]
    fn clustered_scan_cheaper_than_seqscan_for_selective_query() {
        let v = VendorProfile::oracle8();
        let with_idx = table(1, 100_000, true);
        let without = table(2, 100_000, false);
        let selective = |t: &TableDef| UnaryQuery {
            table: t.id,
            projection: vec![0],
            predicates: vec![Predicate::lt(0, 500)], // 5%,
            order_by: None,
        };
        let (ci, ai, _) = cost_unary(&with_idx, &selective(&with_idx), &v);
        let (cs, asq, _) = cost_unary(&without, &selective(&without), &v);
        assert_eq!(ai, UnaryAccess::ClusteredIndexScan);
        assert_eq!(asq, UnaryAccess::SeqScan);
        assert!(ci.total() < cs.total());
    }

    #[test]
    fn nonclustered_random_io_dominates() {
        let v = VendorProfile::oracle8();
        let t = table(1, 100_000, false);
        let q = UnaryQuery {
            table: t.id,
            projection: vec![0],
            predicates: vec![Predicate::lt(2, 500)], // 5% via non-clustered.,
            order_by: None,
        };
        let (d, a, s) = cost_unary(&t, &q, &v);
        assert_eq!(a, UnaryAccess::NonClusteredIndexScan);
        // ~5000 random reads at ~10 ms.
        assert!(d.io_s > 10.0, "io {}", d.io_s);
        assert_eq!(s.intermediate, 5_000);
    }

    #[test]
    fn join_cost_grows_with_cartesian() {
        let v = VendorProfile::db2v5();
        let l = table(1, 20_000, false);
        let r = table(2, 20_000, false);
        let q = |sel: u64| JoinQuery {
            left: l.id,
            right: r.id,
            left_col: 4,
            right_col: 4,
            left_predicates: vec![Predicate::lt(5, sel)],
            right_predicates: vec![Predicate::lt(5, sel)],
            projection: vec![],
        };
        let (cheap, _, _) = cost_join(&l, &r, &q(1_000), &v);
        let (dear, _, _) = cost_join(&l, &r, &q(9_000), &v);
        assert!(dear.total() > cheap.total());
    }

    #[test]
    fn demand_components_nonnegative() {
        let v = VendorProfile::oracle8();
        let t = table(1, 3_000, true);
        let q = UnaryQuery {
            table: t.id,
            projection: vec![],
            predicates: vec![],
            order_by: None,
        };
        let (d, _, _) = cost_unary(&t, &q, &v);
        assert!(d.init_s > 0.0 && d.io_s >= 0.0 && d.cpu_s >= 0.0);
        assert!(d.total().is_finite());
    }

    #[test]
    fn order_by_adds_sort_cost() {
        let v = VendorProfile::oracle8();
        let t = table(1, 200_000, false);
        let base = UnaryQuery {
            table: t.id,
            projection: vec![0],
            predicates: vec![Predicate::lt(4, 5_000)],
            order_by: None,
        };
        let sorted = UnaryQuery {
            order_by: Some(5),
            ..base.clone()
        };
        let (d0, _, s0) = cost_unary(&t, &base, &v);
        let (d1, _, _) = cost_unary(&t, &sorted, &v);
        assert!(d1.total() > d0.total(), "{} vs {}", d1.total(), d0.total());
        // The N log N CPU term is present.
        let n = s0.result as f64;
        assert!(d1.cpu_s - d0.cpu_s >= 0.9 * n * n.log2() * v.sort_cpu_s);
    }

    #[test]
    fn clustered_order_is_free() {
        let v = VendorProfile::oracle8();
        let t = table(1, 100_000, true); // Clustered on column 0.
        let q = |order: Option<usize>| UnaryQuery {
            table: t.id,
            projection: vec![0],
            predicates: vec![Predicate::lt(0, 2_000)], // 2% via clustered idx.
            order_by: order,
        };
        let (plain, a, _) = cost_unary(&t, &q(None), &v);
        assert_eq!(a, UnaryAccess::ClusteredIndexScan);
        let (on_cluster, _, _) = cost_unary(&t, &q(Some(0)), &v);
        let (on_other, _, _) = cost_unary(&t, &q(Some(5)), &v);
        assert_eq!(on_cluster.total(), plain.total());
        assert!(on_other.total() > plain.total());
    }

    #[test]
    fn big_sorts_spill_to_disk() {
        let v = VendorProfile::oracle8();
        let t = table(1, 250_000, false);
        let q = |order: Option<usize>| UnaryQuery {
            table: t.id,
            projection: vec![0],
            predicates: vec![], // Full table: result far exceeds the buffer.
            order_by: order,
        };
        let (plain, _, _) = cost_unary(&t, &q(None), &v);
        let (sorted, _, _) = cost_unary(&t, &q(Some(3)), &v);
        assert!(sorted.io_s > plain.io_s, "external sort did not spill");
    }

    #[test]
    fn vendors_produce_different_costs() {
        let t = table(1, 50_000, false);
        let q = UnaryQuery {
            table: t.id,
            projection: vec![0, 4, 6],
            predicates: vec![Predicate::gt(2, 9_000), Predicate::lt(7, 2_000)],
            order_by: None,
        };
        let (o, _, _) = cost_unary(&t, &q, &VendorProfile::oracle8());
        let (d, _, _) = cost_unary(&t, &q, &VendorProfile::db2v5());
        assert!((o.total() - d.total()).abs() > 1e-6);
    }
}
