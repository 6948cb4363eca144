//! Seeded workload generators. Every input a run feeds the program — trace
//! text, derivation jobs, held-out test seeds — is drawn from the run's
//! `--seed` here, so the program receives only the generated inputs and
//! the same seed always gives the same inputs.

use crate::sites::{schema, CLASSES, SITES};
use mdbs_core::sampling::SampleGenerator;
use mdbs_sim::sql::to_sql;
use mdbs_stats::rng::{split_stream, Rng};

/// Serving-loop knobs shared by the generators and the server config.
/// The generators keep the backlog small enough that nothing is shed.
pub const SERVICE_COST_S: f64 = 0.01;
/// Service cost per request in `serve_drift`, which dispatches without a
/// batch delay: a request arriving while a batch is in service waits for
/// it, so about a fifth of the requests queue.
pub const DRIFT_SERVICE_COST_S: f64 = 0.07;
/// The durable I/O slowdown `serve_drift` applies to each site in turn.
pub const DRIFT_DEGRADE: f64 = 12.0;
/// Micro-batch delay (virtual s) a partial batch waits for company.
pub const BATCH_DELAY_S: f64 = 0.05;
/// Largest micro-batch.
pub const BATCH_MAX: usize = 8;
/// Admission-queue capacity.
pub const QUEUE_CAPACITY: usize = 64;
/// Largest burst a global optimizer sends at one instant.
pub const BURST_MAX: usize = 24;
/// Backlog (virtual s of queued service) the burst generator lets a
/// burst find: at most 30 queued requests plus one burst of 24 stays
/// below the queue capacity and far below the 2 s deadline.
const BACKLOG_LIMIT_S: f64 = 0.3;

/// Distinct SQL texts per (site, class) the traces draw from.
const SQL_POOL: usize = 32;

/// Stream keys, so each generated input has its own RNG stream.
const STREAM_SQL: u64 = 0x53514c;
const STREAM_ARRIVALS: u64 = 0x415252;
const STREAM_CATALOG: u64 = 0x434154;
const STREAM_TEST: u64 = 0x544553;
const STREAM_SERVE: u64 = 0x535256;
const STREAM_DRIFT: u64 = 0x445246;

/// Drift traces a `serve_drift` run replays in rotation.
pub const DRIFT_TRACES: usize = 4;

/// The seed `derive_all` splits every job's streams from, for catalog
/// repetition `rep`.
pub fn catalog_seed(seed: u64, rep: usize) -> u64 {
    split_stream(split_stream(seed, STREAM_CATALOG), rep as u64)
}

/// The seed of the held-out test queries for job `job`.
pub fn test_seed(seed: u64, job: usize) -> u64 {
    split_stream(split_stream(seed, STREAM_TEST), job as u64)
}

/// The serving loop's root seed (per-line agents split from it).
pub fn serve_seed(seed: u64) -> u64 {
    split_stream(seed, STREAM_SERVE)
}

/// Pools of SQL text per (site, class): `pools[site][class]`, generated
/// with the library's own per-class query generator against each site's
/// schema, so every text parses and classifies into its class.
pub struct SqlPools {
    pools: Vec<Vec<Vec<String>>>,
}

impl SqlPools {
    /// Pools for `seed`.
    pub fn new(seed: u64) -> SqlPools {
        let root = split_stream(seed, STREAM_SQL);
        let pools = SITES
            .iter()
            .enumerate()
            .map(|(si, site)| {
                let catalog = schema(site);
                CLASSES
                    .iter()
                    .enumerate()
                    .map(|(ci, (class, _))| {
                        let mut generator =
                            SampleGenerator::new(split_stream(root, (si * 8 + ci) as u64));
                        (0..SQL_POOL)
                            .map(|_| to_sql(&catalog, &generator.generate(*class, &catalog)))
                            .collect()
                    })
                    .collect()
            })
            .collect();
        SqlPools { pools }
    }

    /// A random SQL text for site index `site`, class index `class`.
    pub fn pick(&self, rng: &mut Rng, site: usize, class: usize) -> &str {
        let pool = &self.pools[site][class];
        &pool[rng.gen_range(0..pool.len())]
    }

    /// A random `(site name, SQL)` over both sites and all three classes.
    pub fn pick_any(&self, rng: &mut Rng) -> (&'static str, &str) {
        let site = rng.gen_range(0..SITES.len());
        let class = rng.gen_range(0..CLASSES.len());
        (SITES[site], self.pick(rng, site, class))
    }
}

/// `serve_burst` trace text: `requests` estimation requests in bursts of
/// 1..=24 at one virtual instant (a global optimizer pricing alternative
/// plans), separated by idle gaps of 0.2–1.4× the burst's service time.
/// A gap is stretched whenever the queued work would otherwise exceed
/// [`BACKLOG_LIMIT_S`], so the queue never fills and no deadline passes.
pub fn burst_trace(seed: u64, requests: usize) -> String {
    let pools = SqlPools::new(seed);
    let mut rng = Rng::seed_from_u64(split_stream(seed, STREAM_ARRIVALS));
    let mut text = String::from("# serve_burst: read-only estimation bursts\n");
    let mut at = 0.0f64;
    let mut backlog = 0.0f64;
    let mut emitted = 0;
    while emitted < requests {
        let burst = rng.gen_range(1..=BURST_MAX).min(requests - emitted);
        for _ in 0..burst {
            let (site, sql) = pools.pick_any(&mut rng);
            text.push_str(&format!("@{at:.4} request {site} {sql}\n"));
        }
        emitted += burst;
        let work = burst as f64 * SERVICE_COST_S + BATCH_DELAY_S;
        backlog += work;
        let mut gap = work * (0.2 + 1.2 * rng.gen_f64());
        if backlog - gap > BACKLOG_LIMIT_S {
            gap = gap.max(backlog);
        }
        backlog = (backlog - gap).max(0.0);
        // Round to the trace's resolution so the generator's clock and the
        // server's agree.
        at = ((at + gap) * 1e4).round() / 1e4;
    }
    text
}

/// The `serve_drift` traces of a run: [`DRIFT_TRACES`] independent
/// [`drift_trace`]s drawn from `seed`. How many rederivations a trace trips
/// varies from trace to trace and sets most of its replay cost, so a run
/// replays several in rotation and its medians sit between their costs
/// rather than on one trace's.
pub fn drift_traces(seed: u64) -> Vec<String> {
    let root = split_stream(seed, STREAM_DRIFT);
    (0..DRIFT_TRACES as u64)
        .map(|k| drift_trace(split_stream(root, k)))
        .collect()
}

/// `serve_drift` trace text: four rounds, each site in turn twice (order
/// drawn from the seed). A round is a healthy phase of 72 observations, a
/// durable 12× I/O degradation (compounding on the second visit), then
/// 72 more observations, with 0–6 estimation requests for both sites at
/// random instants of each virtual second. Four rounds rather than two
/// halve the seed-to-seed spread of the pooled ledger median.
///
/// The degrade is heavy enough to walk the whole escalation ladder on the
/// degraded site: volume refits while healthy, saturated corrections
/// (escalated refit, then cell suspension), and finally the drift monitor
/// tripping a rederivation.
pub fn drift_trace(seed: u64) -> String {
    const ROUNDS: usize = 4;
    const HEALTHY: usize = 72;
    const DEGRADED: usize = 72;
    let pools = SqlPools::new(seed);
    let mut rng = Rng::seed_from_u64(split_stream(seed, STREAM_ARRIVALS));
    let mut events: Vec<(f64, String)> = Vec::new();
    let mut at = 0.0f64;
    let first = rng.gen_range(0..SITES.len());
    for round in 0..ROUNDS {
        let site = (first + round) % SITES.len();
        for step in 0..(HEALTHY + DEGRADED) {
            if step == HEALTHY {
                events.push((at, format!("degrade {} {DRIFT_DEGRADE}", SITES[site])));
                at += 0.5;
            }
            let class = rng.gen_range(0..CLASSES.len());
            let sql = pools.pick(&mut rng, site, class);
            events.push((at, format!("observe {} {sql}", SITES[site])));
            // 0..=6 requests at random instants of the next virtual second.
            for _ in 0..rng.gen_range(0..=6usize) {
                let t = at + rng.gen_f64();
                let (rsite, rsql) = pools.pick_any(&mut rng);
                events.push((t, format!("request {rsite} {rsql}")));
            }
            at += 1.0;
        }
    }
    events.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut text = String::from("# serve_drift: reads beside observations and degrades\n");
    for (t, line) in events {
        text.push_str(&format!("@{t:.4} {line}\n"));
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sql_pools_are_seeded() {
        let a = SqlPools::new(3);
        let b = SqlPools::new(3);
        let c = SqlPools::new(4);
        assert_eq!(a.pools, b.pools);
        assert_ne!(a.pools, c.pools);
    }
}
