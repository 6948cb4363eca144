//! Overhead bench for the serving-loop observability layer
//! ([`mdbs_core::server`] + [`mdbs_obs::recorder`]).
//!
//! Replays the same mixed request/observation trace twice — recording off
//! (no telemetry, heartbeats disabled, flight recorder disabled) and
//! recording on (traced context, 1s virtual heartbeats, a 256-deep flight
//! ring drained to JSONL) — and reports the wall-clock cost of each.
//! The recorder rides outside the virtual clock, so the bench also
//! *asserts* that full recording costs zero virtual throughput: answered
//! counts, makespan and latency percentiles must be bit-identical.

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

const G1_SQLS: &[&str] = &[
    "select a1 from R2 where a2 < 100",
    "select a1, a5 from R8 where a5 > 100 and a6 < 500",
    "select a3 from R4 where a4 > 200",
    "select a1, a3 from R6 where a6 < 900",
];

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

/// Requests at 20/virtual-second with an observation after every fourth,
/// so the ledger, the heartbeat stream and the request ring all fill.
fn mixed_trace(requests: usize) -> RequestTrace {
    let mut text = String::new();
    for i in 0..requests {
        let at = i as f64 * 0.05;
        text.push_str(&format!(
            "@{at:.3} request oracle {}\n",
            G1_SQLS[i % G1_SQLS.len()]
        ));
        if i % 4 == 3 {
            text.push_str(&format!(
                "@{:.3} observe oracle {}\n",
                at + 0.01,
                G1_SQLS[i % G1_SQLS.len()]
            ));
        }
    }
    let trace = RequestTrace::parse(&text);
    assert!(trace.errors.is_empty(), "bench trace must be clean");
    trace
}

/// Replays the trace; `recording` switches the whole observability layer
/// (telemetry sink, heartbeats, flight recorder + JSONL drain) on or off.
/// Returns the report and the number of flight-dump bytes produced.
fn replay(
    catalog: &GlobalCatalog,
    trace: &RequestTrace,
    workers: usize,
    recording: bool,
) -> (mdbs_core::server::ServeReport, usize) {
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
        .refit_threshold(usize::MAX)
        .workers(Some(workers))
        .heartbeat_s(if recording { 1.0 } else { 0.0 })
        .flight_capacity(if recording { 256 } else { 0 })
        .build()
        .expect("sane config");
    let mut server = EstimationServer::new(registry, fleet, config);
    let mut ctx = if recording {
        PipelineCtx::traced(52)
    } else {
        PipelineCtx::seeded(52)
    };
    let report = server.run(
        trace,
        |site: &SiteId, seed: u64| (site.0 == "oracle").then(|| Site::Oracle.dynamic_agent(seed)),
        &mut ctx,
    );
    let dumped = if recording {
        server.recorder().dump_jsonl().len()
    } else {
        0
    };
    (report, dumped)
}

fn main() {
    let mut h = Harness::new("serve_observability");

    let catalog = seeded_catalog();
    let trace = mixed_trace(160);

    // Wall-clock cost of the same replay with the recording layer off/on.
    h.bench("replay/mixed_160_recording_off", 1, 5, || {
        replay(&catalog, &trace, 4, false)
    });
    h.bench("replay/mixed_160_recording_on", 1, 5, || {
        replay(&catalog, &trace, 4, true)
    });

    // Virtual-time service quality must be recording-invariant.
    let (base, no_bytes) = replay(&catalog, &trace, 4, false);
    let (full, bytes) = replay(&catalog, &trace, 4, true);
    assert_eq!(no_bytes, 0);
    assert!(bytes > 0, "recording run produced no flight dump");
    assert!(full.heartbeats >= 2, "recording run must heartbeat");
    assert_eq!(base.answered, full.answered);
    assert_eq!(
        base.virtual_makespan_s.to_bits(),
        full.virtual_makespan_s.to_bits(),
        "recording leaked into the virtual clock"
    );
    assert_eq!(base.latency_p50_s.to_bits(), full.latency_p50_s.to_bits());
    assert_eq!(base.latency_p95_s.to_bits(), full.latency_p95_s.to_bits());

    // Virtual throughput with full recording (identical to recording-off
    // by the asserts above; recorded so regressions show up in the JSON).
    assert!(full.answered > 0, "replay answered nothing");
    let ns_per_answer = (full.virtual_makespan_s * 1e9) as u128 / full.answered as u128;
    h.record(
        "virtual/ns_per_answered_recording_on",
        full.answered,
        ns_per_answer,
        ns_per_answer,
    );

    h.finish();
}
