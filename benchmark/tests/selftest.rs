//! Self-tests of the benchmark: its generators, the workload properties
//! the README promises, and the agreement between the metric tables and
//! `BENCHMARK.json`.

use mdbs_benchmark::run::{replay_reports, BURST_REQUESTS};
use mdbs_benchmark::traced::batch_sizes;
use mdbs_benchmark::{gen, metrics, sites, Workload};
use mdbs_core::sampling::planned_sample_size;
use mdbs_core::store::snapshot_to_bytes;
use mdbs_obs::json::{parse, Json};
use std::collections::BTreeSet;

fn catalog_bytes(seed: u64) -> Vec<u8> {
    let outcomes = sites::derive_catalog(gen::catalog_seed(seed, 0), 2);
    snapshot_to_bytes(&sites::snapshot_of(&outcomes))
}

#[test]
fn generators_are_deterministic_per_seed() {
    assert_eq!(gen::burst_trace(7, 300), gen::burst_trace(7, 300));
    assert_ne!(gen::burst_trace(7, 300), gen::burst_trace(8, 300));
    assert_eq!(gen::drift_trace(7), gen::drift_trace(7));
    assert_ne!(gen::drift_trace(7), gen::drift_trace(8));
    assert_eq!(gen::drift_traces(7), gen::drift_traces(7));
    let traces: BTreeSet<String> = gen::drift_traces(7).into_iter().collect();
    assert_eq!(traces.len(), gen::DRIFT_TRACES);
    assert_eq!(gen::catalog_seed(7, 3), gen::catalog_seed(7, 3));
    assert_ne!(gen::catalog_seed(7, 3), gen::catalog_seed(7, 4));
    assert_ne!(gen::test_seed(7, 0), gen::test_seed(8, 0));
    assert_eq!(catalog_bytes(7), catalog_bytes(7));
}

#[test]
fn serve_burst_batches_span_one_to_batch_max_with_zero_sheds() {
    for seed in 1..=3 {
        let reports = replay_reports(Workload::ServeBurst, seed, 2, &catalog_bytes(seed)).unwrap();
        assert_eq!(reports.len(), 1);
        let report = &reports[0];
        assert_eq!(report.requests, BURST_REQUESTS);
        assert_eq!(report.answered, report.requests, "{}", report.rendered);
        assert_eq!(report.shed_queue_full + report.shed_deadline, 0);
        let sizes: BTreeSet<usize> = batch_sizes(&report.rendered).into_iter().collect();
        let want: BTreeSet<usize> = (1..=gen::BATCH_MAX).collect();
        assert_eq!(sizes, want, "seed {seed}");
    }
}

#[test]
fn serve_drift_reaches_every_rung_of_the_ladder() {
    for seed in 1..=3 {
        let reports = replay_reports(Workload::ServeDrift, seed, 2, &catalog_bytes(seed)).unwrap();
        assert_eq!(reports.len(), gen::DRIFT_TRACES);
        for (k, report) in reports.iter().enumerate() {
            assert!(report.incremental_refits >= 1, "seed {seed}/{k}: no refit");
            assert!(
                report.correction_escalations >= 1,
                "seed {seed}/{k}: no escalation"
            );
            assert!(
                report.rederivations >= 1,
                "seed {seed}/{k}: no rederivation"
            );
            assert_eq!(report.answered, report.requests, "{}", report.rendered);
            assert!(report.ledger_p50_abs_rel_err > 0.0);
        }
    }
}

#[test]
fn derive_catalog_succeeds_on_every_job_at_eq4_sample_sizes() {
    let outcomes = sites::derive_catalog(gen::catalog_seed(1, 0), 2);
    assert_eq!(outcomes.len(), 6);
    for outcome in &outcomes {
        let derived = outcome.result.as_ref().expect("job succeeds");
        let planned = planned_sample_size(outcome.job.class.family(), 6);
        assert!((421..=601).contains(&planned), "planned n {planned}");
        assert!(derived.observations.len() >= planned);
        assert!(derived.model.num_states() <= 6);
    }
}

fn names(bench: &Json, key: &str) -> Vec<(String, String)> {
    let Some(Json::Arr(items)) = bench.get(key) else {
        panic!("BENCHMARK.json has no `{key}` list");
    };
    items
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn metric_tables_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let bench = parse(&text).expect("BENCHMARK.json parses");
    let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(names(&bench, "end_to_end"), table(metrics::END_TO_END));
    assert_eq!(names(&bench, "per_layer"), table(metrics::PER_LAYER));
    let Some(Json::Arr(workloads)) = bench.get("workloads") else {
        panic!("no workloads");
    };
    let listed: Vec<&str> = workloads
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap())
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(listed, ours);
}
