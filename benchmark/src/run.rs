//! One benchmark run: the shared lifecycle, the checks, and the untraced
//! (end-to-end) and traced (per-layer) measurements.
//!
//! Lifecycle of every run, whatever the workload:
//!
//! 1. **catalog** — derive the 2-site × 3-class catalog with `derive_all`
//!    at the paper's default configuration, store it through a binary
//!    `FileCatalogStore` and load it back; repeated, each repetition one
//!    timed unit;
//! 2. **validation** — held-out test queries against every derived model;
//! 3. **set-up + replay** — catalog bytes → snapshot → registry + fleet →
//!    server (set-up), then the workload's trace text → `ServeReport` plus
//!    the flight-recorder dump (replay); repeated, a fresh server each
//!    time, rotating through the workload's traces.
//!
//! The workload picks the traces; the measured seconds split between phases
//! 1 and 3 in the same shares for every workload ([`CATALOG_SHARE`]). Each
//! phase runs a fixed number of repetitions, set by `--seconds`, the
//! phase's share and its reference cost ([`reps`]), never by how fast the
//! code under test is: two commits compared at the same
//! `--seconds` take the same samples and report their tails at the same
//! percentile. The untraced run interleaves catalog repetitions and
//! replays evenly ([`schedule`]), so every phase's samples spread over the
//! whole run.

use crate::clock::{timed, Stopwatch};
use crate::gen::{self, BATCH_DELAY_S, BATCH_MAX, QUEUE_CAPACITY, SERVICE_COST_S};
use crate::host::peak_rss_mb;
use crate::metrics::Measured;
use crate::sites::{self, agent, snapshot_of};
use crate::stats::{median, median_ns, tail};
use crate::{traced, Args, Workload};
use mdbs_core::catalog::SiteId;
use mdbs_core::derive::DerivationConfig;
use mdbs_core::maintenance::MaintenanceConfig;
use mdbs_core::pipeline::PipelineCtx;
use mdbs_core::registry::ModelRegistry;
use mdbs_core::server::{
    fleet_from_snapshot, EstimationServer, RequestTrace, ServeConfig, ServeReport,
};
use mdbs_core::states::StateAlgorithm;
use mdbs_core::store::{
    snapshot_from_bytes, snapshot_to_bytes, CatalogFormat, CatalogStore, FileCatalogStore,
};
use mdbs_core::validate::{quality, run_test_queries, TestPoint};
use mdbs_obs::telemetry::strip_wall_clock;
use mdbs_obs::Telemetry;
use mdbs_sim::MdbsAgent;
use std::path::Path;

/// Fewest repetitions of any percentile'd unit: with 30 samples the tail
/// is rank 20 of 30 (p66.7), above the median with ten samples beyond it.
pub const MIN_REPS: usize = 30;
/// Fewest traced replays. The traced run reports medians only, so it
/// needs no tail.
pub const TRACED_MIN_REPS: usize = 10;
/// Reference wall seconds of one catalog repetition (derive, five store +
/// load round trips) on the 2-vCPU host the counts were sized on.
const CATALOG_REF_S: f64 = 0.24;
/// Reference wall seconds of one set-up + replay of the `serve_burst`
/// trace.
const BURST_REPLAY_REF_S: f64 = 0.8;
/// Reference wall seconds of one set-up + replay of the drift trace.
const DRIFT_REPLAY_REF_S: f64 = 0.72;
/// Set-ups timed after each catalog repetition. Set-up takes well under
/// a millisecond and its speed swings from one second to the next on a
/// shared host, so `setup_s` is the median of many set-ups spread over
/// the whole run, each timed right after a derivation rather than after
/// a replay, whose leftover allocations differ between workloads.
const SETUPS_PER_CATALOG: usize = 10;
/// Held-out test queries per derived model.
pub const TEST_QUERIES: usize = 100;
/// Catalog repetitions whose models are validated on held-out queries.
pub const VALIDATED_CATALOGS: usize = 8;
/// Store + load round trips per derived catalog.
pub const STORE_REPS: usize = 5;
/// Requests in the `serve_burst` trace. The host's speed swings over
/// stretches of seconds, so the tail percentile decides how often a run's
/// tail lands in a slow stretch: at 2000 requests a run takes 175 replays
/// and reports p94, which a slow stretch over 6% of the run moves; at
/// 12 000 it takes about 30 and reports about p67.
pub const BURST_REQUESTS: usize = 12_000;
/// Share of `--seconds` the catalog phase is sized for; the serving phase
/// is sized for the rest. The catalog phase is where derivation, state
/// determination, selection and the store dominate, so it gets a large
/// share of every run.
pub const CATALOG_SHARE: f64 = 0.4;

/// What a run produced.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Every check passed.
    pub correct: bool,
    /// Operations attempted: derivation jobs plus trace events replayed.
    pub attempted: u64,
    /// Operations failed: failed jobs, shed/errored/unanswered requests
    /// and failed checks.
    pub failed: u64,
    /// The measured metrics.
    pub metrics: Measured,
    /// `(check, passed)` for every check made.
    pub checks: Vec<(String, bool)>,
    /// Human-readable notes (sample counts, tail percentiles).
    pub notes: Vec<String>,
}

impl RunResult {
    pub(crate) fn check(&mut self, name: impl Into<String>, ok: bool) {
        if !ok {
            self.failed += 1;
        }
        self.checks.push((name.into(), ok));
    }
}

/// Everything a workload fixes before a run starts.
struct Plan {
    /// Reference wall seconds of one set-up + replay of a trace.
    replay_ref_s: f64,
    /// The traces the replays rotate through: replay `i` serves trace
    /// `i % traces.len()`. The traced run serves the first only.
    traces: Vec<String>,
    config: ServeConfig,
}

/// Repetitions of a phase given `share` of `seconds` at `ref_s` reference
/// seconds per repetition, at least [`MIN_REPS`]. A pure function of the
/// arguments, so it is the same on every commit and every host.
pub fn reps(seconds: f64, share: f64, ref_s: f64) -> usize {
    ((seconds * share / ref_s).round() as usize).max(MIN_REPS)
}

/// The serving config: `serve_burst`'s, or `serve_drift`'s with
/// correction on, no batch delay and the drift service cost.
fn serve_config(workers: usize, drift: bool) -> ServeConfig {
    let builder = ServeConfig::builder()
        .queue_capacity(QUEUE_CAPACITY)
        .batch_max(BATCH_MAX)
        .batch_delay_s(BATCH_DELAY_S)
        .service_cost_s(SERVICE_COST_S)
        .deadline_s(2.0)
        .refit_threshold(12)
        .workers(Some(workers));
    let builder = if drift {
        builder
            .correction(true)
            .batch_delay_s(0.0)
            .service_cost_s(gen::DRIFT_SERVICE_COST_S)
    } else {
        builder
    };
    builder.build().expect("benchmark serve config is valid")
}

fn maintenance_config() -> MaintenanceConfig {
    MaintenanceConfig::builder()
        .window(20)
        .min_observations(10)
        .min_good_fraction(0.5)
        .build()
        .expect("benchmark maintenance config is valid")
}

fn plan(workload: Workload, seed: u64, workers: usize) -> Plan {
    match workload {
        Workload::ServeBurst => Plan {
            replay_ref_s: BURST_REPLAY_REF_S,
            traces: vec![gen::burst_trace(seed, BURST_REQUESTS)],
            config: serve_config(workers, false),
        },
        Workload::ServeDrift => Plan {
            replay_ref_s: DRIFT_REPLAY_REF_S,
            traces: gen::drift_traces(seed),
            config: serve_config(workers, true),
        },
    }
}

/// One untimed set-up + replay of each of `workload`'s traces for `seed`
/// against the catalog `bytes`: what the self-tests inspect.
pub fn replay_reports(
    workload: Workload,
    seed: u64,
    workers: usize,
    bytes: &[u8],
) -> Result<Vec<ServeReport>, String> {
    let plan = plan(workload, seed, workers);
    plan.traces
        .iter()
        .map(|trace_text| {
            let s = Serving {
                bytes,
                trace_text,
                config: &plan.config,
                seed: gen::serve_seed(seed),
            };
            let mut server = setup(bytes, s.config)?;
            Ok(replay(&mut server, &s).0)
        })
        .collect()
}

/// Runs one benchmark invocation, writing scratch files under `out_dir`.
pub fn run(args: &Args, workers: usize, out_dir: &Path) -> Result<RunResult, String> {
    std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("cannot create `{}`: {e}", out_dir.display()))?;
    let plan = plan(args.workload, args.seed, workers);
    let mut res = RunResult::default();
    let store_path = out_dir.join(format!("catalog-{}.mdbc", args.workload));
    if args.trace {
        let catalog = traced::traced_catalog(args.seed, workers, &store_path, &mut res)?;
        let serving = Serving {
            bytes: &catalog.bytes,
            trace_text: &plan.traces[0],
            config: &plan.config,
            seed: gen::serve_seed(args.seed),
        };
        traced::traced_serving(&serving, workers, args.seconds, &mut res, out_dir, args)?;
    } else {
        untraced(args, workers, &plan, &store_path, &mut res)?;
    }
    let _ = std::fs::remove_file(&store_path);
    res.correct = res.checks.iter().all(|(_, ok)| *ok) && res.failed == 0;
    let attempted = res.attempted.max(1);
    res.metrics
        .set("run.failed_fraction", res.failed as f64 / attempted as f64);
    Ok(res)
}

/// One step of an untraced run's schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// One catalog repetition (phases 1 and 2, and set-up samples).
    Catalog,
    /// One set-up + replay (phase 3).
    Replay,
}

/// `catalogs` catalog repetitions and `replays` replays, interleaved
/// evenly so that both spread over the whole run: the host's speed swings
/// over seconds, and every phase then samples the same mix of fast and
/// slow stretches. The first step is a catalog, which the replays serve.
pub fn schedule(catalogs: usize, replays: usize) -> Vec<Step> {
    let (mut c, mut r) = (0, 0);
    let mut out = Vec::with_capacity(catalogs + replays);
    while c < catalogs || r < replays {
        // Whichever side is further behind its share goes next.
        if r == replays || (c < catalogs && c * replays <= r * catalogs) {
            out.push(Step::Catalog);
            c += 1;
        } else {
            out.push(Step::Replay);
            r += 1;
        }
    }
    out
}

/// The untraced run: the end-to-end metrics.
fn untraced(
    args: &Args,
    workers: usize,
    plan: &Plan,
    store_path: &Path,
    res: &mut RunResult,
) -> Result<(), String> {
    let catalogs = reps(args.seconds, CATALOG_SHARE, CATALOG_REF_S);
    let replays = reps(args.seconds, 1.0 - CATALOG_SHARE, plan.replay_ref_s);
    let mut cat = CatalogSamples::new(args.seed, workers, store_path);
    let serve_seed = gen::serve_seed(args.seed);
    let mut rep = ReplaySamples::new(&plan.traces);
    let mut peak_rss = None;
    for step in schedule(catalogs, replays) {
        match step {
            Step::Catalog => cat.step(&plan.config, res)?,
            Step::Replay => rep.step(&cat.first()?.bytes, &plan.config, serve_seed, res)?,
        }
        // Peak memory of deriving the catalog and serving the trace once,
        // read before the repetitions mix the two phases' heaps: glibc's
        // per-thread arenas keep what the pool threads free, and how the
        // interleaved phases fragment them varies from run to run.
        if step == Step::Replay && peak_rss.is_none() {
            peak_rss = Some(peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?);
        }
    }
    let (catalog, rel_errs, setup_ns) = cat.finish(res);
    let replays = rep.finish(&catalog.bytes, &plan.config, serve_seed, res)?;
    let per_event = &replays.per_event_us;
    let (tail_pct, tail_us) = tail(per_event);
    // One figure per trace; with several traces, their median.
    let per_trace =
        |f: fn(&ServeReport) -> f64| median(&replays.reports.iter().map(f).collect::<Vec<_>>());
    let m = &mut res.metrics;
    m.set("setup_s", median_ns(&setup_ns) / 1e9);
    m.set("replay_us_per_event.p50", median(per_event));
    m.set("replay_us_per_event.tail", tail_us);
    m.set("virtual_latency_p95_s", per_trace(|r| r.latency_p95_s));
    let est_err = if plan.config.correction {
        per_trace(|r| r.ledger_p50_abs_rel_err)
    } else {
        median(&rel_errs)
    };
    m.set("est_rel_err_p50", est_err);
    m.set("peak_rss_mb", peak_rss.unwrap_or(0.0));
    res.notes.push(format!(
        "replays: {} over {} trace(s) of {:?} events, tail = p{tail_pct:.1}; {} set-ups",
        per_event.len(),
        replays.events.len(),
        replays.events,
        setup_ns.len()
    ));
    Ok(())
}

// ---------------------------------------------------------------------------
// Phases 1 and 2: catalog and validation.
// ---------------------------------------------------------------------------

/// The derived catalog a run serves.
pub(crate) struct Catalog {
    pub(crate) outcomes: Vec<mdbs_core::derive::BatchOutcome>,
    pub(crate) bytes: Vec<u8>,
}

/// The catalog phase's samples so far. Each repetition derives a fresh
/// catalog (its own catalog seed, so the medians cover many catalogs),
/// stores and loads it [`STORE_REPS`] times, validates the first
/// [`VALIDATED_CATALOGS`] on held-out queries (untimed), and times
/// [`SETUPS_PER_CATALOG`] set-ups from the first catalog's bytes one by
/// one, each server dropped untimed.
struct CatalogSamples<'a> {
    seed: u64,
    workers: usize,
    path: &'a Path,
    store: FileCatalogStore,
    derive_ns: Vec<u64>,
    store_ns: Vec<u64>,
    load_ns: Vec<u64>,
    setup_ns: Vec<u64>,
    first: Option<Catalog>,
    points: Vec<TestPoint>,
    round_trip: bool,
    all_jobs: bool,
}

impl<'a> CatalogSamples<'a> {
    fn new(seed: u64, workers: usize, path: &'a Path) -> Self {
        CatalogSamples {
            seed,
            workers,
            path,
            store: FileCatalogStore::new(path, CatalogFormat::Binary),
            derive_ns: Vec::new(),
            store_ns: Vec::new(),
            load_ns: Vec::new(),
            setup_ns: Vec::new(),
            first: None,
            points: Vec::new(),
            round_trip: true,
            all_jobs: true,
        }
    }

    /// The first catalog, which the replays serve.
    fn first(&self) -> Result<&Catalog, String> {
        self.first
            .as_ref()
            .ok_or_else(|| "no catalog derived before the first replay".to_string())
    }

    /// One catalog repetition.
    fn step(&mut self, config: &ServeConfig, res: &mut RunResult) -> Result<(), String> {
        let rep = self.derive_ns.len();
        let (outcomes, ns) =
            timed(|| sites::derive_catalog(gen::catalog_seed(self.seed, rep), self.workers));
        self.derive_ns.push(ns);
        res.attempted += outcomes.len() as u64;
        let failed_jobs = outcomes.iter().filter(|o| o.result.is_err()).count();
        res.failed += failed_jobs as u64;
        self.all_jobs &= failed_jobs == 0;
        let snap = snapshot_of(&outcomes);
        let encoded = snapshot_to_bytes(&snap);
        let mut tel = Telemetry::disabled();
        let mut bytes = Vec::new();
        for _ in 0..STORE_REPS {
            // Store to a fresh file: truncating the previous one costs ext4
            // (with `discard`) several times the store itself, and that
            // cost swings from run to run.
            remove_if_present(self.path)?;
            let (stored, ns) = timed(|| self.store.store(&snap, &mut tel));
            stored.map_err(|e| format!("catalog store failed: {e}"))?;
            self.store_ns.push(ns);
            let (loaded, ns) = timed(|| self.store.load(&mut tel));
            let loaded = loaded.map_err(|e| format!("catalog load failed: {e}"))?;
            self.load_ns.push(ns);
            bytes = std::fs::read(self.path).map_err(|e| format!("cannot read catalog: {e}"))?;
            self.round_trip &= bytes == encoded && snapshot_to_bytes(&loaded) == bytes;
        }
        if rep < VALIDATED_CATALOGS {
            self.points.extend(validate(self.seed, rep, &outcomes)?);
        }
        let first = self.first.get_or_insert(Catalog { outcomes, bytes });
        for _ in 0..SETUPS_PER_CATALOG {
            let (server, ns) = timed(|| setup(&first.bytes, config));
            server?;
            self.setup_ns.push(ns);
        }
        Ok(())
    }

    /// Checks that every job succeeded, that every stored file held
    /// exactly the encoded catalog and `load(store(catalog))` re-encoded
    /// to it, that deriving the first catalog again at one worker gives
    /// the same bytes, and that validation answered every query; sets the
    /// catalog metrics. Returns the first catalog, every held-out
    /// |relative error| and every set-up's ns.
    fn finish(self, res: &mut RunResult) -> (Catalog, Vec<f64>, Vec<u64>) {
        let first = self.first.expect("a run derives at least one catalog");
        let again = sites::derive_catalog(gen::catalog_seed(self.seed, 0), 1);
        res.check("derive_catalog: every job succeeds", self.all_jobs);
        res.check(
            "derive_catalog: catalog bytes identical when derived again at one worker",
            snapshot_to_bytes(&snapshot_of(&again)) == first.bytes,
        );
        res.check(
            "catalog store: load(store(catalog)) is byte-identical",
            self.round_trip,
        );
        res.check(
            "validation: every model answered its held-out queries",
            self.points.len()
                == VALIDATED_CATALOGS.min(self.derive_ns.len())
                    * first.outcomes.len()
                    * TEST_QUERIES,
        );
        let derive_ms: Vec<f64> = self.derive_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
        let (tail_pct, tail_ms) = tail(&derive_ms);
        let m = &mut res.metrics;
        m.set("derive_catalog_ms.p50", median(&derive_ms));
        m.set("derive_catalog_ms.tail", tail_ms);
        m.set("catalog_store_ms.p50", median_ns(&self.store_ns) / 1e6);
        m.set("catalog_load_ms.p50", median_ns(&self.load_ns) / 1e6);
        m.set("pct_good_estimates", quality(&self.points).good_pct);
        res.notes.push(format!(
            "catalog: {} derivations, tail = p{tail_pct:.1}; {} held-out test queries",
            derive_ms.len(),
            self.points.len()
        ));
        (
            first,
            self.points.iter().map(TestPoint::relative_error).collect(),
            self.setup_ns,
        )
    }
}

/// Removes `path` if it exists (not timed), so the next store writes a
/// fresh file.
pub(crate) fn remove_if_present(path: &Path) -> Result<(), String> {
    match std::fs::remove_file(path) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
            Err(format!("cannot remove `{}`: {e}", path.display()))
        }
        _ => Ok(()),
    }
}

/// Runs [`TEST_QUERIES`] held-out test queries against every model of
/// catalog repetition `rep`.
fn validate(
    seed: u64,
    rep: usize,
    outcomes: &[mdbs_core::derive::BatchOutcome],
) -> Result<Vec<TestPoint>, String> {
    let mut points = Vec::new();
    for (i, outcome) in outcomes.iter().enumerate() {
        let Ok(derived) = &outcome.result else {
            continue;
        };
        let test_seed = gen::test_seed(seed, rep * outcomes.len() + i);
        let mut agent = agent(&outcome.job.site.0, test_seed).expect("known site");
        let got = run_test_queries(
            &mut agent,
            outcome.job.class,
            &derived.model,
            TEST_QUERIES,
            test_seed,
        )
        .map_err(|e| format!("held-out test queries failed: {e}"))?;
        points.extend(got);
    }
    Ok(points)
}

// ---------------------------------------------------------------------------
// Phase 3: set-up + replay.
// ---------------------------------------------------------------------------

/// The fixed inputs of the serving phase.
pub(crate) struct Serving<'a> {
    pub(crate) bytes: &'a [u8],
    pub(crate) trace_text: &'a str,
    pub(crate) config: &'a ServeConfig,
    pub(crate) seed: u64,
}

/// Catalog bytes → snapshot → registry + fleet → server.
pub(crate) fn setup(bytes: &[u8], config: &ServeConfig) -> Result<EstimationServer, String> {
    let (snap, _, _) =
        snapshot_from_bytes(bytes).map_err(|e| format!("catalog decode failed: {e}"))?;
    let registry = ModelRegistry::from_snapshot(&snap);
    let fleet = fleet_from_snapshot(
        &snap,
        maintenance_config(),
        DerivationConfig::quick(),
        StateAlgorithm::Iupma,
        |_| true,
    )
    .map_err(|e| format!("fleet construction failed: {e}"))?;
    Ok(EstimationServer::new(registry, fleet, config.clone()))
}

/// The deterministic outputs of one replay, compared across repetitions
/// and worker counts.
#[derive(Debug, PartialEq)]
pub(crate) struct ReplayOutputs {
    rendered: String,
    flight: String,
    telemetry: String,
}

/// One replay, timed: trace text → report + flight dump.
pub(crate) fn replay(
    server: &mut EstimationServer,
    s: &Serving<'_>,
) -> (ServeReport, PipelineCtx, String, u64) {
    let sw = Stopwatch::start();
    let trace = RequestTrace::parse(s.trace_text);
    let mut ctx = PipelineCtx::traced(s.seed);
    let report = server.run(&trace, plain_agent, &mut ctx);
    let flight = server.recorder().dump_jsonl();
    (report, ctx, flight, sw.ns())
}

pub(crate) fn outputs(report: &ServeReport, ctx: &PipelineCtx, flight: String) -> ReplayOutputs {
    ReplayOutputs {
        rendered: report.rendered.clone(),
        flight,
        telemetry: strip_wall_clock(&ctx.telemetry.render_jsonl()),
    }
}

pub(crate) fn plain_agent(site: &SiteId, seed: u64) -> Option<MdbsAgent> {
    agent(&site.0, seed)
}

/// Counts one replay's requests into `res` and checks the accounting
/// identity answered + no_model + shed + errors = requests.
pub(crate) fn account(report: &ServeReport, events: usize, res: &mut RunResult) -> bool {
    res.attempted += events as u64;
    res.failed +=
        (report.no_model + report.errors + report.shed_queue_full + report.shed_deadline) as u64;
    report.answered
        + report.no_model
        + report.shed_queue_full
        + report.shed_deadline
        + report.errors
        == report.requests
}

/// The serving phase's results.
struct Replays {
    /// Wall µs per event of every replay, in replay order.
    per_event_us: Vec<f64>,
    /// Events per trace.
    events: Vec<usize>,
    /// The first replay's report of every trace.
    reports: Vec<ServeReport>,
}

/// The serving phase's samples so far: one set-up (untimed) + replay per
/// step, rotating through the traces, each replay's outputs compared with
/// the first of its trace.
struct ReplaySamples<'a> {
    traces: &'a [String],
    events: Vec<usize>,
    per_event_us: Vec<f64>,
    first: Vec<Option<(ServeReport, ReplayOutputs)>>,
    identical: bool,
    balanced: bool,
}

impl<'a> ReplaySamples<'a> {
    fn new(traces: &'a [String]) -> Self {
        let events = traces
            .iter()
            .map(|text| {
                let t = RequestTrace::parse(text);
                t.len() + t.errors.len()
            })
            .collect();
        ReplaySamples {
            traces,
            events,
            per_event_us: Vec::new(),
            first: traces.iter().map(|_| None).collect(),
            identical: true,
            balanced: true,
        }
    }

    /// One set-up + timed replay of the next trace in rotation.
    fn step(
        &mut self,
        bytes: &[u8],
        config: &ServeConfig,
        seed: u64,
        res: &mut RunResult,
    ) -> Result<(), String> {
        let k = self.per_event_us.len() % self.traces.len();
        let s = Serving {
            bytes,
            trace_text: &self.traces[k],
            config,
            seed,
        };
        let mut server = setup(bytes, config)?;
        let (report, ctx, flight, ns) = replay(&mut server, &s);
        self.per_event_us
            .push(ns as f64 / 1e3 / self.events[k] as f64);
        self.balanced &= account(&report, self.events[k], res);
        let out = outputs(&report, &ctx, flight);
        match &self.first[k] {
            Some((_, o)) => self.identical &= *o == out,
            None => self.first[k] = Some((report, out)),
        }
        Ok(())
    }

    /// Replays every trace once more at one worker and checks the
    /// accounting identity and that every replay's outputs equal the first
    /// of its trace and that trace's one-worker replay.
    fn finish(
        self,
        bytes: &[u8],
        config: &ServeConfig,
        seed: u64,
        res: &mut RunResult,
    ) -> Result<Replays, String> {
        let mut reports = Vec::with_capacity(self.traces.len());
        let mut one_worker = true;
        for (text, first) in self.traces.iter().zip(self.first) {
            let (report, out) = first.ok_or("a run replays every trace at least once")?;
            let s = Serving {
                bytes,
                trace_text: text,
                config,
                seed,
            };
            one_worker &= out == serial_replay(&s)?;
            reports.push(report);
        }
        res.check(
            "serve: answered + no_model + shed + errors = requests",
            self.balanced,
        );
        res.check(
            "serve: report, flight dump and stripped telemetry identical across repetitions",
            self.identical,
        );
        res.check(
            "serve: outputs identical to a one-worker replay",
            one_worker,
        );
        Ok(Replays {
            per_event_us: self.per_event_us,
            events: self.events,
            reports,
        })
    }
}

/// The reference replay at one worker.
pub(crate) fn serial_replay(s: &Serving<'_>) -> Result<ReplayOutputs, String> {
    let mut config = s.config.clone();
    config.workers = Some(1);
    let mut server = setup(s.bytes, &config)?;
    let serial = Serving {
        config: &config,
        ..*s
    };
    let (report, ctx, flight, _) = replay(&mut server, &serial);
    Ok(outputs(&report, &ctx, flight))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reps_scale_with_seconds_and_keep_a_floor() {
        assert_eq!(reps(35.0, 0.7, BURST_REPLAY_REF_S), 31);
        assert_eq!(reps(45.0, 1.0 - CATALOG_SHARE, BURST_REPLAY_REF_S), 34);
        assert_eq!(reps(45.0, CATALOG_SHARE, CATALOG_REF_S), 75);
        assert_eq!(reps(30.0, 0.8, CATALOG_REF_S), 100);
        assert_eq!(reps(30.0, 0.7, DRIFT_REPLAY_REF_S), MIN_REPS);
        assert_eq!(reps(1.0, 0.3, CATALOG_REF_S), MIN_REPS);
    }

    #[test]
    fn schedule_interleaves_evenly_and_starts_with_a_catalog() {
        let steps = schedule(3, 6);
        use Step::{Catalog as C, Replay as R};
        assert_eq!(steps, [C, R, R, C, R, R, C, R, R]);
        let steps = schedule(44, 175);
        assert_eq!(steps[0], C);
        assert_eq!(steps.iter().filter(|&&s| s == C).count(), 44);
        assert_eq!(steps.len(), 219);
        assert_eq!(schedule(2, 0), [C, C]);
    }
}
