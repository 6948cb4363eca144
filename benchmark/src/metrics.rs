//! The metric names the benchmark prints, with their units. These tables
//! and `BENCHMARK.json` must agree; a self-test holds them together.

/// End-to-end metrics, printed by every untraced run of every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("replay_us_per_event.p50", "us"),
    ("replay_us_per_event.tail", "us"),
    ("virtual_latency_p95_s", "s"),
    ("est_rel_err_p50", "ratio"),
    ("derive_catalog_ms.p50", "ms"),
    ("derive_catalog_ms.tail", "ms"),
    ("catalog_store_ms.p50", "ms"),
    ("catalog_load_ms.p50", "ms"),
    ("pct_good_estimates", "%"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, printed by every traced run of every workload
/// (0 where the workload does not run the layer).
pub const PER_LAYER: &[(&str, &str)] = &[
    // Serving hot path (serve_burst moves these).
    ("server.replay_ns", "ns"),
    ("server.trace_parse_ns", "ns"),
    ("sim.agent.make_calls", "count"),
    ("sim.agent.make_ns", "ns"),
    ("sim.sql.parse_ns", "ns"),
    ("classes.classify_ns", "ns"),
    ("sim.agent.probe_ns", "ns"),
    ("registry.estimate_calls", "count"),
    ("registry.estimate_ns", "ns"),
    ("pool.run_jobs_calls", "count"),
    ("pool.dispatch_ns", "ns"),
    ("pool.parallelism", "ratio"),
    ("server.batch_size_mean", "count"),
    ("server.loop_self_ns", "ns"),
    ("obs.recorder_dump_ns", "ns"),
    ("server.report_json_ns", "ns"),
    ("trace.overhead_ns", "ns"),
    ("trace.spans", "count"),
    // Write path beside reads (serve_drift moves these).
    ("sim.engine.run_ns", "ns"),
    ("maintenance.refits", "count"),
    ("maintenance.refit_ns", "ns"),
    ("maintenance.rederivations", "count"),
    ("maintenance.rederive_ns", "ns"),
    ("correction.escalations", "count"),
    ("registry.versions_published", "count"),
    // Derivation (these move derive_catalog_ms.* on every workload).
    ("derive.sampling_ns", "ns"),
    ("sim.engine.queries_run", "count"),
    ("states.determine_ns", "ns"),
    ("states.iterations", "count"),
    ("states.merges", "count"),
    ("selection.select_ns", "ns"),
    ("selection.low_corr_dropped", "count"),
    ("selection.vif_screened", "count"),
    ("selection.vars_eliminated", "count"),
    ("selection.vars_added", "count"),
    ("selection.vif_rejections", "count"),
    ("model.fit_ns", "ns"),
    ("model.fit_n", "count"),
    ("model.fit_k", "count"),
    ("model.fit_qr_bytes", "bytes"),
    ("pool.derive_efficiency", "ratio"),
    // Catalog store.
    ("store.encode_ns", "ns"),
    ("store.file_ns", "ns"),
    ("store.bytes", "bytes"),
    ("store.decode_ns", "ns"),
    // Run accounting.
    ("run.failed_fraction", "ratio"),
];

/// Measured values of one run, keyed by metric name.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Measured {
    values: Vec<(&'static str, f64)>,
}

impl Measured {
    /// Sets `name` (must be in one of the tables) to `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// The result's `metrics` object over `table`: every listed metric,
    /// 0 where unset, with its unit.
    pub fn to_json(&self, table: &[(&str, &str)]) -> String {
        let fields: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let v = self.get(name).unwrap_or(0.0);
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    json_num(v)
                )
            })
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

/// A JSON number with all the digits Rust's shortest round-trip form
/// gives; non-finite values become 0 (JSON has no NaN).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}
