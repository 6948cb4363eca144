//! The traced run: per-layer metrics, measured from outside by timing
//! calls into the libraries' public functions, with every layer boundary
//! the benchmark calls recorded as a span in memory and written out at
//! the end.

use crate::clock::{timed, union_ns, SpanLog, Stopwatch};
use crate::gen;
use crate::run::{
    account, outputs, remove_if_present, replay, serial_replay, setup, Catalog, ReplayOutputs,
    RunResult, Serving, MIN_REPS, TRACED_MIN_REPS,
};
use crate::sites::{self, agent, catalog_config, catalog_jobs, snapshot_of};
use crate::stats::median_ns;
use crate::Args;
use mdbs_core::catalog::SiteId;
use mdbs_core::classes::classify;
use mdbs_core::correction::EstimateQuery;
use mdbs_core::derive::{derive_cost_model, DerivationConfig};
use mdbs_core::model::fit_cost_model;
use mdbs_core::pipeline::PipelineCtx;
use mdbs_core::pool;
use mdbs_core::registry::ModelRegistry;
use mdbs_core::server::{EstimationServer, RequestTrace, ServeReport, TraceEvent};
use mdbs_core::states::StateAlgorithm;
use mdbs_core::store::{
    snapshot_from_bytes, snapshot_to_bytes, CatalogFormat, CatalogStore, FileCatalogStore,
};
use mdbs_obs::Telemetry;
use mdbs_sim::sql::parse_query;
use mdbs_stats::rng::split_stream;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Per-layer numbers of one traced replay.
#[derive(Debug, Default)]
struct ReplayLayers {
    total: u64,
    parse: u64,
    dump: u64,
    make_calls: u64,
    make_sum: u64,
    make_covered: u64,
}

/// The traced catalog phase: one `derive_all` for the catalog the
/// serving phase uses; `derive_cost_model` per job with a traced
/// `PipelineCtx`, whose own stage spans (`derive.sampling`,
/// `derive.states`, `derive.selection`) and `selection.*` counters give
/// the derivation layers; one canonical `fit_cost_model` per job timed
/// from outside; a pool run of the pipeline per job for pool efficiency;
/// and the store layers.
pub(crate) fn traced_catalog(
    seed: u64,
    workers: usize,
    path: &Path,
    res: &mut RunResult,
) -> Result<Catalog, String> {
    let log = SpanLog::new();
    let outcomes = sites::derive_catalog(gen::catalog_seed(seed, 0), workers);
    res.attempted += outcomes.len() as u64;
    let failed_jobs = outcomes.iter().filter(|o| o.result.is_err()).count() as u64;
    res.failed += failed_jobs;
    res.check("derive_catalog: every job succeeds", failed_jobs == 0);
    let snap = snapshot_of(&outcomes);

    // The pipeline per job, serially, with its own seeds.
    let jobs = catalog_jobs();
    let cfg = catalog_config(workers).derivation;
    let seeds: Vec<(u64, u64)> = (0..jobs.len() as u64)
        .map(|i| {
            let root = gen::catalog_seed(seed, 0);
            (split_stream(root, 2 * i), split_stream(root, 2 * i + 1))
        })
        .collect();
    let mut layers = DeriveLayers::default();
    let mut serial_models = Vec::new();
    for (i, job) in jobs.iter().enumerate() {
        let (env_seed, gen_seed) = seeds[i];
        let mut agent = agent(&job.site.0, env_seed).expect("known site");
        let mut ctx = PipelineCtx::traced(gen_seed);
        let root = log.open("derive.job", None, i as u64);
        let (derived, _) = log.span("derive.pipeline", Some(root), i as u64, || {
            derive_cost_model(&mut agent, job.class, job.algorithm, &cfg, &mut ctx)
        });
        let derived = derived.map_err(|e| format!("derivation failed: {e}"))?;
        let model = &derived.model;
        // One canonical fit at this job's n and k; the largest job's is kept.
        let (fit, ns) = log.span("model.fit", Some(root), i as u64, || {
            fit_cost_model(
                model.form,
                model.states.clone(),
                model.var_indexes.clone(),
                model.var_names.clone(),
                &derived.observations,
            )
        });
        log.close(root);
        let fit = fit.map_err(|e| format!("canonical fit failed: {e}"))?;
        if derived.observations.len() >= layers.fit_n {
            layers.fit_n = derived.observations.len();
            layers.fit_k = fit.fit.k;
            layers.fit_ns = ns;
        }
        layers.add(&ctx, agent.executions());
        serial_models.push(model.render());
    }

    // The whole pipeline per job on the pool: efficiency = Σ job ns /
    // (workers × wall).
    let root = log.open("pool.derive", None, 0);
    let (pooled, wall) = timed(|| {
        pool::run_jobs(
            jobs.clone(),
            pool::effective_workers(Some(workers), jobs.len()),
            |i, job| {
                let (env_seed, gen_seed) = seeds[i];
                let mut agent = agent(&job.site.0, env_seed).expect("known site");
                let (derived, _) = log.span("derive.pipeline", Some(root), i as u64, || {
                    derive_cost_model(
                        &mut agent,
                        job.class,
                        job.algorithm,
                        &cfg,
                        &mut PipelineCtx::seeded(gen_seed),
                    )
                });
                derived.map(|d| d.model.render())
            },
        )
    });
    log.close(root);
    let (pooled, pool_report) = pooled;
    let job_ns: u64 = log
        .spans()
        .iter()
        .filter(|s| s.name == "derive.pipeline" && s.parent == Some(root))
        .map(|s| s.dur_ns())
        .sum();
    res.attempted += 2 * jobs.len() as u64;
    res.check(
        "derive: traced serial pipeline and pooled pipeline give the same models",
        pooled
            .iter()
            .zip(&serial_models)
            .all(|(p, s)| p.as_ref().ok() == Some(s)),
    );

    // Store layers, repeated for stable medians.
    let store = FileCatalogStore::new(path, CatalogFormat::Binary);
    let mut tel = Telemetry::disabled();
    store
        .store(&snap, &mut tel)
        .map_err(|e| format!("catalog store failed: {e}"))?;
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read catalog: {e}"))?;
    let (mut encode, mut file, mut decode) = (Vec::new(), Vec::new(), Vec::new());
    let mut round_trip = true;
    for rep in 0..MIN_REPS as u64 {
        let (encoded, ns) = log.span("store.encode", None, rep, || snapshot_to_bytes(&snap));
        encode.push(ns);
        remove_if_present(path)?;
        let (written, ns) = log.span("store.file", None, rep, || std::fs::write(path, &encoded));
        written.map_err(|e| format!("cannot write catalog: {e}"))?;
        file.push(ns);
        let (decoded, ns) = log.span("store.decode", None, rep, || snapshot_from_bytes(&bytes));
        let (decoded, _, _) = decoded.map_err(|e| format!("catalog decode failed: {e}"))?;
        decode.push(ns);
        round_trip &= encoded == bytes && snapshot_to_bytes(&decoded) == bytes;
    }
    res.check(
        "catalog store: load(store(catalog)) is byte-identical",
        round_trip,
    );

    let m = &mut res.metrics;
    m.set("derive.sampling_ns", layers.sampling_ns);
    m.set("sim.engine.queries_run", layers.queries_run as f64);
    m.set("states.determine_ns", layers.states_ns);
    m.set("states.iterations", layers.iterations as f64);
    m.set("states.merges", layers.merges as f64);
    m.set("selection.select_ns", layers.selection_ns);
    for name in SELECTION_COUNTERS {
        m.set(name, layers.selection_counters[name] as f64);
    }
    m.set("model.fit_ns", layers.fit_ns as f64);
    m.set("model.fit_n", layers.fit_n as f64);
    m.set("model.fit_k", layers.fit_k as f64);
    let (n, k) = (layers.fit_n as f64, layers.fit_k as f64);
    m.set("model.fit_qr_bytes", 8.0 * n * n + 8.0 * n * k);
    m.set(
        "pool.derive_efficiency",
        job_ns as f64 / (pool_report.workers as f64 * wall as f64),
    );
    m.set("store.encode_ns", median_ns(&encode));
    m.set("store.file_ns", median_ns(&file));
    m.set("store.bytes", bytes.len() as f64);
    m.set("store.decode_ns", median_ns(&decode));
    write_spans(&log, &path.with_extension("derive.spans.jsonl"), res)?;
    Ok(Catalog { outcomes, bytes })
}

/// The variable-selection counters `derive_cost_model` records.
const SELECTION_COUNTERS: [&str; 5] = [
    "selection.low_corr_dropped",
    "selection.vif_screened",
    "selection.vars_eliminated",
    "selection.vars_added",
    "selection.vif_rejections",
];

/// Derivation layer totals over every job.
#[derive(Debug, Default)]
struct DeriveLayers {
    sampling_ns: f64,
    queries_run: u64,
    states_ns: f64,
    iterations: u64,
    merges: u64,
    selection_ns: f64,
    selection_counters: BTreeMap<&'static str, u64>,
    fit_ns: u64,
    fit_n: usize,
    fit_k: usize,
}

impl DeriveLayers {
    /// Adds one job's stage spans and counters, read from its traced
    /// pipeline context, and the engine runs its agent made.
    fn add(&mut self, ctx: &PipelineCtx, queries_run: u64) {
        for span in ctx.telemetry.spans() {
            let ns = span.wall_ms * 1e6;
            match span.name.as_str() {
                "derive.sampling" => self.sampling_ns += ns,
                "derive.selection" => self.selection_ns += ns,
                "derive.states" => {
                    self.states_ns += ns;
                    for (key, value) in &span.fields {
                        let value = value.as_f64().unwrap_or(0.0) as u64;
                        match key.as_str() {
                            "iterations" => self.iterations += value,
                            "merges" => self.merges += value,
                            _ => {}
                        }
                    }
                }
                _ => {}
            }
        }
        for name in SELECTION_COUNTERS {
            *self.selection_counters.entry(name).or_insert(0) +=
                ctx.telemetry.metrics.counter(name);
        }
        self.queries_run += queries_run;
    }
}

/// The traced serving phase: untraced and traced replays for the tracing
/// overhead, traced replays with agent construction timed inside the
/// `make_agent` closure, the in-pool layers re-executed per request, pool
/// dispatch on no-op jobs with the replay's batch sizes, and the
/// maintenance layers of the write path.
pub(crate) fn traced_serving(
    s: &Serving<'_>,
    workers: usize,
    seconds: f64,
    res: &mut RunResult,
    out_dir: &Path,
    args: &Args,
) -> Result<(), String> {
    let trace = RequestTrace::parse(s.trace_text);
    let events = trace.len() + trace.errors.len();
    // Per-line agent seeds → trace line, so agent spans carry request ids.
    let line_of: BTreeMap<u64, u64> = trace
        .events
        .iter()
        .map(|e| (split_stream(s.seed, e.lineno as u64), e.lineno as u64))
        .collect();
    let log = SpanLog::new();
    let clock = Stopwatch::start();
    let budget = seconds * 0.5;

    // Alternate untraced and traced replays so drift in host speed hits
    // both sides alike.
    let mut untraced = Vec::new();
    let mut traced: Vec<ReplayLayers> = Vec::new();
    let mut first: Option<ReplayOutputs> = None;
    let mut identical = true;
    let mut balanced = true;
    let mut last: Option<(ServeReport, EstimationServer, PipelineCtx)> = None;
    while traced.len() < TRACED_MIN_REPS || clock.secs() < budget {
        let mut server = setup(s.bytes, s.config)?;
        let (report, ctx, flight, ns) = replay(&mut server, s);
        untraced.push(ns);
        balanced &= account(&report, events, res);
        let out = outputs(&report, &ctx, flight);
        match &first {
            Some(o) => identical &= *o == out,
            None => first = Some(out),
        }

        let mut server = setup(s.bytes, s.config)?;
        let root = log.open("replay", None, traced.len() as u64);
        // The run span's index is known only once it opens; the agent
        // factory reads it from here.
        let run_span = AtomicUsize::new(usize::MAX);
        let make = |site: &SiteId, seed: u64| {
            let start = log.now();
            let a = agent(&site.0, seed);
            let id = line_of.get(&seed).copied().unwrap_or(0);
            let parent = Some(run_span.load(Ordering::Relaxed)).filter(|&p| p != usize::MAX);
            log.record("sim.agent.make", start, log.now(), parent, id);
            a
        };
        let (report, ctx, flight, total) = {
            let parse_idx = log.open("server.trace_parse", Some(root), 0);
            let parsed = RequestTrace::parse(s.trace_text);
            log.close(parse_idx);
            let run_idx = log.open("server.run", Some(root), 0);
            run_span.store(run_idx, Ordering::Relaxed);
            let mut ctx = PipelineCtx::traced(s.seed);
            let report = server.run(&parsed, make, &mut ctx);
            log.close(run_idx);
            let dump_idx = log.open("obs.recorder_dump", Some(root), 0);
            let flight = server.recorder().dump_jsonl();
            log.close(dump_idx);
            let total = log.close(root);
            (report, ctx, flight, total)
        };
        balanced &= account(&report, events, res);
        identical &= first.as_ref() == Some(&outputs(&report, &ctx, flight));
        let spans = log.spans_from(root);
        let child = |name: &str| {
            spans
                .iter()
                .filter(|sp| sp.parent == Some(root) && sp.name == name)
                .map(|sp| sp.dur_ns())
                .sum::<u64>()
        };
        let run_idx = run_span.load(Ordering::Relaxed);
        let run = &spans[run_idx - root];
        let makes: Vec<_> = spans
            .iter()
            .filter(|sp| sp.parent == Some(run_idx) && sp.name == "sim.agent.make")
            .collect();
        traced.push(ReplayLayers {
            total,
            parse: child("server.trace_parse"),
            dump: child("obs.recorder_dump"),
            make_calls: makes.len() as u64,
            make_sum: makes.iter().map(|sp| sp.dur_ns()).sum(),
            make_covered: union_ns(
                makes.iter().map(|sp| (sp.start_ns, sp.end_ns)),
                run.start_ns,
                run.end_ns,
            ),
        });
        last = Some((report, server, ctx));
    }
    res.check(
        "serve: answered + no_model + shed + errors = requests",
        balanced,
    );
    res.check(
        "serve: traced and untraced replays produce identical outputs",
        identical,
    );
    let one_worker = serial_replay(s)?;
    res.check(
        "serve: outputs identical to a one-worker replay",
        first.as_ref() == Some(&one_worker),
    );
    let (report, server, ctx) = last.expect("at least one traced replay");

    // Report rendering, outside the replay.
    let mut json_ns = Vec::new();
    for rep in 0..MIN_REPS as u64 {
        let (_, ns) = log.span("server.report_json", None, rep, || {
            report.to_json().render()
        });
        json_ns.push(ns);
    }

    // In-pool layers, re-executed per request against the replayed
    // registry, plus the engine runs behind observations.
    let reexec = reexecute(&trace, s, &server, &log)?;

    // Pool dispatch on no-op jobs, one run per replayed batch.
    let sizes = batch_sizes(&report.rendered);
    let root = log.open("pool.dispatch_all", None, 0);
    let mut dispatch_ns = 0;
    for (b, &size) in sizes.iter().enumerate() {
        let (_, ns) = log.span("pool.dispatch", Some(root), b as u64, || {
            pool::run_jobs(
                vec![(); size],
                pool::effective_workers(Some(workers), size),
                |_, ()| (),
            )
        });
        dispatch_ns += ns;
    }
    log.close(root);
    res.check(
        "serve: batch sizes recovered from the report",
        sizes.len() == report.batches,
    );

    // Write path: per-call refit and rederivation costs × their counts.
    let (refit_ns, rederive_ns) = maintenance_costs(&server, &report, s.seed, &log)?;

    // Medians over the traced replays.
    let med = |f: fn(&ReplayLayers) -> u64| median_ns(&traced.iter().map(f).collect::<Vec<_>>());
    let total = med(|l| l.total);
    let make_sum = med(|l| l.make_sum);
    let make_covered = med(|l| l.make_covered);
    let parallelism = if make_covered > 0.0 {
        (make_sum / make_covered).max(1.0)
    } else {
        1.0
    };
    // Requests run these layers on the pool, so their wall share is the
    // serial re-execution over the pool's parallelism; observations run
    // them on the serial event loop and count in full.
    let request_path = reexec.parse_ns + reexec.classify_ns + reexec.probe_ns + reexec.estimate_ns
        - reexec.observe_ns;
    let in_pool = request_path as f64 / parallelism + reexec.observe_ns as f64;
    let attributed = med(|l| l.parse)
        + med(|l| l.dump)
        + make_covered
        + in_pool
        + dispatch_ns as f64
        + reexec.engine_ns as f64
        + refit_ns
        + rederive_ns;
    let overhead = total - median_ns(&untraced);

    let m = &mut res.metrics;
    m.set("server.replay_ns", total);
    m.set("server.trace_parse_ns", med(|l| l.parse));
    m.set("sim.agent.make_calls", med(|l| l.make_calls));
    m.set("sim.agent.make_ns", make_sum);
    m.set("sim.sql.parse_ns", reexec.parse_ns as f64);
    m.set("classes.classify_ns", reexec.classify_ns as f64);
    m.set("sim.agent.probe_ns", reexec.probe_ns as f64);
    m.set("registry.estimate_calls", reexec.estimate_calls as f64);
    m.set("registry.estimate_ns", reexec.estimate_ns as f64);
    m.set("pool.run_jobs_calls", report.batches as f64);
    m.set("pool.dispatch_ns", dispatch_ns as f64);
    m.set("pool.parallelism", parallelism);
    m.set(
        "server.batch_size_mean",
        ctx.telemetry
            .metrics
            .histogram("serve.batch_size")
            .map_or(0.0, |h| h.mean()),
    );
    let loop_self = total - attributed;
    m.set("server.loop_self_ns", loop_self);
    m.set("obs.recorder_dump_ns", med(|l| l.dump));
    m.set("server.report_json_ns", median_ns(&json_ns));
    m.set("trace.overhead_ns", overhead);
    m.set("sim.engine.run_ns", reexec.engine_ns as f64);
    m.set("maintenance.refits", report.incremental_refits as f64);
    m.set("maintenance.refit_ns", refit_ns);
    m.set("maintenance.rederivations", report.rederivations as f64);
    m.set("maintenance.rederive_ns", rederive_ns);
    m.set(
        "correction.escalations",
        report.correction_escalations as f64,
    );
    let base_version = {
        let (snap, _, _) = snapshot_from_bytes(s.bytes).map_err(|e| e.to_string())?;
        ModelRegistry::from_snapshot(&snap).version()
    };
    m.set(
        "registry.versions_published",
        server.registry.version().saturating_sub(base_version) as f64,
    );
    m.set("trace.spans", log.len() as f64);
    let spans_path = out_dir.join(format!("spans-{}.jsonl", args.workload));
    res.notes.push(format!(
        "traced replays: {} (+{} untraced), in-pool parallelism {parallelism:.2}",
        traced.len(),
        untraced.len(),
    ));
    if loop_self < 0.0 {
        res.notes.push(format!(
            "WARNING: server.loop_self_ns is negative ({:.3} ms): the attributed layers add up to more than the traced replay, so at least one of them is over-counted",
            loop_self / 1e6
        ));
    }
    write_spans(&log, &spans_path, res)?;
    Ok(())
}

/// Layer totals of the per-request re-execution.
#[derive(Debug, Default)]
struct Reexec {
    parse_ns: u64,
    classify_ns: u64,
    probe_ns: u64,
    estimate_calls: u64,
    estimate_ns: u64,
    engine_ns: u64,
    /// The part of parse + classify + probe + estimate spent on
    /// observations, which the server runs on its serial event loop
    /// rather than on the pool.
    observe_ns: u64,
}

/// Re-executes, per trace event and outside the server, the calls
/// `serve_one` and `observe_one` make after building their agent — SQL
/// parse, classify, tick + probe, registry estimate — and, for
/// observations, the engine run. Each call is a span carrying the
/// request's line number.
fn reexecute(
    trace: &RequestTrace,
    s: &Serving<'_>,
    server: &EstimationServer,
    log: &SpanLog,
) -> Result<Reexec, String> {
    let mut out = Reexec::default();
    let root = log.open("reexec", None, 0);
    for ev in &trace.events {
        let id = ev.lineno as u64;
        let (site, sql, observe) = match &ev.event {
            TraceEvent::Request { site, sql } => (site, sql, false),
            TraceEvent::Observe { site, sql } => (site, sql, true),
            TraceEvent::Degrade { .. } => continue,
        };
        let mut agent = agent(&site.0, split_stream(s.seed, id)).ok_or("unknown site")?;
        let schema = agent.catalog().clone();
        let (query, parse_ns) = log.span("sim.sql.parse", Some(root), id, || {
            parse_query(&schema, sql)
        });
        let query = query.map_err(|e| format!("trace SQL does not parse: {e}"))?;
        let (class, classify_ns) = log.span("classes.classify", Some(root), id, || {
            classify(&schema, &query)
        });
        class.ok_or("trace SQL does not classify")?;
        let (probe, probe_ns) = log.span("sim.agent.probe", Some(root), id, || {
            agent.tick();
            agent.probe()
        });
        let (_, estimate_ns) = log.span("registry.estimate", Some(root), id, || {
            server
                .registry
                .estimate(&EstimateQuery::raw(site, &schema, &query, probe))
        });
        out.parse_ns += parse_ns;
        out.classify_ns += classify_ns;
        out.probe_ns += probe_ns;
        out.estimate_calls += 1;
        out.estimate_ns += estimate_ns;
        if observe {
            out.observe_ns += parse_ns + classify_ns + probe_ns + estimate_ns;
            let (exec, ns) = log.span("sim.engine.run", Some(root), id, || agent.run(&query));
            exec.map_err(|e| format!("engine run failed: {e}"))?;
            out.engine_ns += ns;
        }
    }
    log.close(root);
    Ok(out)
}

/// Batch sizes of a replay, recovered from its rendered report: every
/// dispatched request's line carries its batch's completion time, and the
/// serial backend gives each batch a distinct one.
pub fn batch_sizes(rendered: &str) -> Vec<usize> {
    let mut by_completion: BTreeMap<&str, usize> = BTreeMap::new();
    for line in rendered.lines() {
        if let Some(pos) = line.find("->@") {
            let rest = &line[pos + 3..];
            let end = rest.find(' ').unwrap_or(rest.len());
            *by_completion.entry(&rest[..end]).or_insert(0) += 1;
        }
    }
    by_completion.into_values().collect()
}

/// Per-call cost × count for the write path's two maintenance rungs:
/// `ModelAccumulator::refit` over every maintained model, and a
/// rederivation (`derive_cost_model` at the fleet's configuration) per
/// maintained class. Zero when the replay did neither.
fn maintenance_costs(
    server: &EstimationServer,
    report: &ServeReport,
    seed: u64,
    log: &SpanLog,
) -> Result<(f64, f64), String> {
    let mut refit = 0.0;
    if report.incremental_refits > 0 {
        let mut ns = Vec::new();
        for (i, (_, maintainer)) in server.fleet().iter().enumerate() {
            let (fit, t) = log.span("maintenance.refit", None, i as u64, || {
                maintainer.accumulator().refit()
            });
            fit.map_err(|e| format!("refit failed: {e}"))?;
            ns.push(t);
        }
        refit = ns.iter().sum::<u64>() as f64 / ns.len().max(1) as f64
            * report.incremental_refits as f64;
    }
    let mut rederive = 0.0;
    if report.rederivations > 0 {
        let mut ns = Vec::new();
        for (i, (site, maintainer)) in server.fleet().iter().enumerate() {
            let mut agent = agent(&site.0, split_stream(seed, i as u64)).ok_or("unknown site")?;
            let (derived, t) = log.span("maintenance.rederive", None, i as u64, || {
                derive_cost_model(
                    &mut agent,
                    maintainer.class(),
                    StateAlgorithm::Iupma,
                    &DerivationConfig::quick(),
                    &mut PipelineCtx::seeded(seed ^ i as u64),
                )
            });
            derived.map_err(|e| format!("rederivation failed: {e}"))?;
            ns.push(t);
        }
        rederive =
            ns.iter().sum::<u64>() as f64 / ns.len().max(1) as f64 * report.rederivations as f64;
    }
    Ok((refit, rederive))
}

/// Writes the spans to `path` as JSONL and notes each layer's self time,
/// summed over the run.
fn write_spans(log: &SpanLog, path: &Path, res: &mut RunResult) -> Result<(), String> {
    std::fs::write(path, log.to_jsonl())
        .map_err(|e| format!("cannot write spans to `{}`: {e}", path.display()))?;
    res.notes
        .push(format!("{} spans written to {}", log.len(), path.display()));
    for (name, ns) in log.self_ns() {
        res.notes
            .push(format!("self time {name}: {:.3} ms", ns as f64 / 1e6));
    }
    Ok(())
}
