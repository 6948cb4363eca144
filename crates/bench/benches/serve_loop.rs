//! Sustained-QPS and tail-latency bench for the long-lived estimation
//! server ([`mdbs_core::server`]).
//!
//! Two kinds of numbers come out:
//!
//! * `replay/*` — wall-clock cost of replaying a scripted trace through
//!   the serving loop at different worker counts (the real CPU cost of
//!   sustained estimation traffic, and of an observation stream that
//!   triggers an incremental refit);
//! * `virtual/*` — metrics in **virtual trace time**, injected with
//!   [`Harness::record`]: per-request latency percentiles and virtual
//!   nanoseconds per answered request (sustained throughput is its
//!   reciprocal). These are deterministic replay outputs, identical on
//!   every host and at every `--jobs` count;
//! * `layer/*` — wall-clock cost of the per-request set-up steps every
//!   served request pays before its probe and estimate: building an
//!   agent (most of it the site's `standard_database`), and parsing SQL
//!   (one G1 statement plus one G3 join per iteration).

use mdbs_bench::harness::Harness;
use mdbs_bench::workloads::Site;
use mdbs_core::catalog::{GlobalCatalog, SiteId};
use mdbs_core::classes::QueryClass;
use mdbs_core::derive::{derive_cost_model, DerivationConfig};
use mdbs_core::maintenance::MaintenanceConfig;
use mdbs_core::model::ModelAccumulator;
use mdbs_core::pipeline::PipelineCtx;
use mdbs_core::registry::ModelRegistry;
use mdbs_core::server::{fleet_from_snapshot, EstimationServer, RequestTrace, ServeConfig};
use mdbs_core::states::StateAlgorithm;
use mdbs_core::store::CatalogSnapshot;
use mdbs_sim::datagen::standard_database;
use mdbs_sim::sql::parse_query;

const G1_SQLS: &[&str] = &[
    "select a1 from R2 where a2 < 100",
    "select a1, a5 from R8 where a5 > 100 and a6 < 500",
    "select a3 from R4 where a4 > 200",
    "select a1, a3 from R6 where a6 < 900",
];

/// A two-way join (class G3) for the SQL-parse layer row.
const G3_SQL: &str = "select R2.a1, R3.a2 from R2 join R3 on R2.a5 = R3.a5 \
                      where R2.a2 < 500 and R3.a6 > 100";

/// One maintained oracle/G1 model with its warm-start accumulator.
fn seeded_catalog() -> GlobalCatalog {
    let mut agent = Site::Oracle.dynamic_agent(50);
    let derived = derive_cost_model(
        &mut agent,
        QueryClass::UnaryNoIndex,
        StateAlgorithm::Iupma,
        &DerivationConfig::quick(),
        &mut PipelineCtx::seeded(51),
    )
    .expect("seed derivation succeeds");
    let mut catalog = GlobalCatalog::new();
    let site = SiteId::from("oracle");
    catalog.insert_model(
        site.clone(),
        QueryClass::UnaryNoIndex,
        derived.model.clone(),
    );
    catalog.insert_accumulator(
        site,
        QueryClass::UnaryNoIndex,
        ModelAccumulator::from_observations(&derived.model, &derived.observations),
    );
    catalog
}

/// `requests` estimation requests, 20 per virtual second.
fn request_trace(requests: usize) -> RequestTrace {
    let mut text = String::new();
    for i in 0..requests {
        text.push_str(&format!(
            "@{:.3} request oracle {}\n",
            i as f64 * 0.05,
            G1_SQLS[i % G1_SQLS.len()]
        ));
    }
    let trace = RequestTrace::parse(&text);
    assert!(trace.errors.is_empty(), "bench trace must be clean");
    trace
}

/// An observation stream exactly long enough to trigger one incremental
/// refit (the cheap online-maintenance path; rederivation is benched by
/// `derivation` already).
fn observe_trace(observations: usize) -> RequestTrace {
    let mut text = String::new();
    for i in 0..observations {
        text.push_str(&format!(
            "@{:.3} observe oracle {}\n",
            i as f64 * 0.5,
            G1_SQLS[i % G1_SQLS.len()]
        ));
    }
    let trace = RequestTrace::parse(&text);
    assert!(trace.errors.is_empty(), "bench trace must be clean");
    trace
}

fn replay(
    catalog: &GlobalCatalog,
    trace: &RequestTrace,
    refit_threshold: usize,
    workers: usize,
) -> mdbs_core::server::ServeReport {
    let snapshot = CatalogSnapshot::at_version(catalog.clone(), 0);
    let registry = ModelRegistry::from_snapshot(&snapshot);
    let fleet = fleet_from_snapshot(
        &snapshot,
        MaintenanceConfig::default(),
        DerivationConfig::quick(),
        StateAlgorithm::Iupma,
        |site| site.0 == "oracle",
    )
    .expect("fleet builds from the catalog");
    let config = ServeConfig::builder()
        .refit_threshold(refit_threshold)
        .workers(Some(workers))
        .build()
        .expect("sane config");
    let mut server = EstimationServer::new(registry, fleet, config);
    server.run(
        trace,
        |site: &SiteId, seed: u64| (site.0 == "oracle").then(|| Site::Oracle.dynamic_agent(seed)),
        &mut PipelineCtx::seeded(52),
    )
}

fn main() {
    let mut h = Harness::new("serve_loop");

    let catalog = seeded_catalog();
    let requests = request_trace(200);
    let observations = observe_trace(24);

    // Wall-clock cost of sustained estimation traffic.
    for workers in [1usize, 4] {
        h.bench(&format!("replay/requests_200_jobs{workers}"), 1, 5, || {
            replay(&catalog, &requests, usize::MAX, workers)
        });
    }
    // Wall-clock cost of the observe -> drift-check -> incremental-refit
    // maintenance path (24 observations, refit at 24).
    h.bench("replay/observe_24_refit", 1, 3, || {
        replay(&catalog, &observations, 24, 4)
    });

    // Per-request set-up layers, one call per timed iteration.
    h.bench("layer/agent_make", 50, 1000, || {
        Site::Oracle.dynamic_agent(7)
    });
    let schema = standard_database(Site::Oracle.db_seed());
    h.bench("layer/sql_parse", 50, 1000, || {
        (
            parse_query(&schema, G1_SQLS[1]).expect("G1 statement parses"),
            parse_query(&schema, G3_SQL).expect("G3 join parses"),
        )
    });

    // Virtual-time service quality of the same replay: deterministic, so
    // one run is the distribution.
    let report = replay(&catalog, &requests, usize::MAX, 4);
    assert!(report.answered > 0, "request replay answered nothing");
    assert_eq!(report.incremental_refits, 0);
    h.record(
        "virtual/request_latency",
        report.answered,
        (report.latency_p50_s * 1e9) as u128,
        (report.latency_p95_s * 1e9) as u128,
    );
    // Sustained throughput, expressed as virtual time per answered request
    // so it fits the harness's ns-denominated report (QPS = 1e9 / median).
    let ns_per_answer = (report.virtual_makespan_s * 1e9) as u128 / report.answered as u128;
    h.record(
        "virtual/ns_per_answered",
        report.answered,
        ns_per_answer,
        ns_per_answer,
    );

    h.finish();
}
