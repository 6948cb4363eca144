//! Property-style tests for the local-DBS and environment simulator, run
//! as seeded deterministic case sweeps over the in-tree [`Rng`]: the same
//! invariants the original randomized suites checked, with inputs that are
//! reproduced exactly on every run.

use mdbs_sim::catalog::{ColumnDef, IndexKind, TableDef, TableId};
use mdbs_sim::contention::{ContentionProfile, Load};
use mdbs_sim::datagen::standard_database;
use mdbs_sim::engine::cost_unary;
use mdbs_sim::machine::{Machine, MachineSpec};
use mdbs_sim::query::{Predicate, Query, UnaryQuery};
use mdbs_sim::selectivity::{predicate_selectivity, unary_sizes};
use mdbs_sim::sql::{parse_query, to_sql};
use mdbs_sim::util::pages;
use mdbs_sim::vendor::VendorProfile;
use mdbs_stats::rng::Rng;

fn table(card: u64, domain: u64) -> TableDef {
    TableDef {
        id: TableId(1),
        cardinality: card,
        columns: (0..9)
            .map(|i| ColumnDef {
                name: format!("a{}", i + 1).into(),
                width: 4,
                domain_max: domain,
                index: IndexKind::None,
            })
            .collect(),
        tuple_overhead: 8,
    }
}

#[test]
fn selectivity_is_a_probability() {
    let mut rng = Rng::seed_from_u64(0x5E1);
    for _ in 0..500 {
        let card = rng.gen_range(1u64..1_000_000);
        let domain = rng.gen_range(1u64..1_000_000);
        let lo = rng.gen_bool(0.5).then(|| rng.gen_range(0u64..1_000_000));
        let hi = rng.gen_bool(0.5).then(|| rng.gen_range(0u64..1_000_000));
        let col = rng.gen_range(0usize..12);
        let t = table(card, domain);
        let p = Predicate {
            column: col,
            lo,
            hi,
        };
        let sel = predicate_selectivity(&t, &p);
        assert!((0.0..=1.0).contains(&sel), "selectivity {sel}");
    }
}

#[test]
fn unary_sizes_are_ordered() {
    let mut rng = Rng::seed_from_u64(0x512E);
    for _ in 0..300 {
        let card = rng.gen_range(1u64..500_000);
        let domain = rng.gen_range(10u64..100_000);
        let cut1 = rng.gen_range(0u64..100_000);
        let cut2 = rng.gen_range(0u64..100_000);
        let t = table(card, domain);
        let q = UnaryQuery {
            table: t.id,
            projection: vec![0, 3],
            predicates: vec![Predicate::lt(1, cut1), Predicate::gt(2, cut2)],
            order_by: None,
        };
        let s = unary_sizes(&t, &q);
        assert!(s.result <= s.intermediate);
        assert!(s.intermediate <= s.operand);
        assert_eq!(s.operand, card);
    }
}

#[test]
fn pages_monotone_in_tuples() {
    let mut rng = Rng::seed_from_u64(0x9A6E);
    for _ in 0..500 {
        let a = rng.gen_range(0u64..1_000_000);
        let b = rng.gen_range(0u64..1_000_000);
        let len = rng.gen_range(1u32..512);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(pages(lo, len, 8192) <= pages(hi, len, 8192));
        // Enough space for all bytes.
        assert!(pages(hi, len, 8192) * 8192 >= hi * len as u64);
    }
}

#[test]
fn machine_factors_monotone_in_load() {
    let mut rng = Rng::seed_from_u64(0x3AC);
    for _ in 0..300 {
        let p1 = rng.gen_range(0.0f64..200.0);
        let p2 = rng.gen_range(0.0f64..200.0);
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        let mut m = Machine::new(MachineSpec::default());
        m.set_load(Load::background(lo));
        let (c_lo, i_lo) = (m.cpu_factor(), m.io_factor());
        m.set_load(Load::background(hi));
        assert!(m.cpu_factor() >= c_lo);
        assert!(m.io_factor() >= i_lo);
        assert!(m.cpu_factor() >= 1.0 && m.io_factor() >= 1.0 - 1e-12);
    }
}

#[test]
fn elapsed_scales_with_demand() {
    let mut rng = Rng::seed_from_u64(0xE1A);
    for _ in 0..300 {
        let io = rng.gen_range(0.0f64..100.0);
        let cpu = rng.gen_range(0.0f64..100.0);
        let procs = rng.gen_range(0.0f64..150.0);
        let mut m = Machine::new(MachineSpec::default());
        m.set_load(Load::background(procs));
        let once = m.elapsed(0.1, io, cpu);
        let twice = m.elapsed(0.1, 2.0 * io, 2.0 * cpu);
        assert!(twice >= once);
        assert!(once >= 0.1); // At least the (stretched) init cost.
    }
}

#[test]
fn uniform_contention_sampling_in_range() {
    let mut meta = Rng::seed_from_u64(0x41F0);
    for _ in 0..100 {
        let lo = meta.gen_range(0.0f64..100.0);
        let width = meta.gen_range(0.0f64..100.0);
        let seed = meta.gen_range(0u64..500);
        let hi = lo + width;
        let p = ContentionProfile::Uniform { lo, hi };
        let mut rng = Rng::seed_from_u64(seed);
        for _ in 0..20 {
            let v = p.sample(&mut rng);
            assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        }
    }
}

#[test]
fn clustered_sampling_never_negative() {
    let mut meta = Rng::seed_from_u64(0xC1F0);
    for _ in 0..100 {
        let n_modes = meta.gen_range(1usize..4);
        let modes: Vec<(f64, f64, f64)> = (0..n_modes)
            .map(|_| {
                (
                    meta.gen_range(0.0f64..150.0),
                    meta.gen_range(0.1f64..20.0),
                    meta.gen_range(0.01f64..1.0),
                )
            })
            .collect();
        let seed = meta.gen_range(0u64..200);
        let p = ContentionProfile::Clustered { modes };
        let mut rng = Rng::seed_from_u64(seed);
        for _ in 0..20 {
            assert!(p.sample(&mut rng) >= 0.0);
        }
    }
}

#[test]
fn engine_demand_is_finite_and_positive() {
    let mut rng = Rng::seed_from_u64(0xE26);
    for _ in 0..300 {
        let card = rng.gen_range(1u64..500_000);
        let cut = rng.gen_range(0u64..10_000);
        let vendor = if rng.gen_bool(0.5) {
            VendorProfile::oracle8()
        } else {
            VendorProfile::db2v5()
        };
        let t = table(card, 10_000);
        let q = UnaryQuery {
            table: t.id,
            projection: vec![0],
            predicates: vec![Predicate::lt(4, cut)],
            order_by: None,
        };
        let (d, _, _) = cost_unary(&t, &q, &vendor);
        assert!(d.init_s > 0.0);
        assert!(d.io_s.is_finite() && d.io_s >= 0.0);
        assert!(d.cpu_s.is_finite() && d.cpu_s >= 0.0);
    }
}

#[test]
fn observed_cost_positive_under_any_load() {
    let mut meta = Rng::seed_from_u64(0x0B5);
    for _ in 0..60 {
        let procs = meta.gen_range(0.0f64..180.0);
        let seed = meta.gen_range(0u64..100);
        let tbl = meta.gen_range(0usize..12);
        let mut agent =
            mdbs_sim::MdbsAgent::new(VendorProfile::oracle8(), standard_database(42), seed);
        agent.set_load(Load::background(procs));
        let t = &agent.catalog().tables()[tbl];
        let q = mdbs_sim::Query::Unary(UnaryQuery {
            table: t.id,
            projection: vec![0],
            predicates: vec![Predicate::lt(4, t.columns[4].domain_max / 2)],
            order_by: None,
        });
        let e = agent.run(&q).unwrap();
        assert!(e.cost_s > 0.0 && e.cost_s.is_finite());
    }
}

/// SQL render/parse round-trips for arbitrary valid unary queries.
#[test]
fn sql_roundtrip_unary() {
    let db = standard_database(42);
    let mut rng = Rng::seed_from_u64(0x5A1);
    for _ in 0..300 {
        let tbl = rng.gen_range(0usize..12);
        let t = &db.tables()[tbl];
        let n_proj = rng.gen_range(0usize..5);
        let proj: std::collections::BTreeSet<usize> =
            (0..n_proj).map(|_| rng.gen_range(0usize..9)).collect();
        let n_preds = rng.gen_range(0usize..3);
        let predicates: Vec<Predicate> = (0..n_preds)
            .map(|_| {
                let c = rng.gen_range(0usize..9);
                let a = rng.gen_range(0u64..5000);
                let b = rng.gen_range(0u64..5000);
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                Predicate::between(c, lo, hi)
            })
            .collect();
        let q = Query::Unary(UnaryQuery {
            table: t.id,
            projection: proj.into_iter().collect(),
            predicates,
            order_by: None,
        });
        let sql = to_sql(&db, &q);
        let parsed =
            parse_query(&db, &sql).unwrap_or_else(|e| panic!("`{sql}` failed to re-parse: {e}"));
        assert_eq!(parsed, q, "sql was `{sql}`");
    }
}
