//! The paper's testbed as the benchmark builds it: two simulated local
//! DBSs (Oracle-8.0-like and DB2-5.0-like), each hosting the standard
//! 12-table database under uniform dynamic contention, and the three
//! representative query classes G1/G2/G3.

use mdbs_core::catalog::{GlobalCatalog, SiteId};
use mdbs_core::classes::QueryClass;
use mdbs_core::derive::{derive_all, BatchConfig, BatchOutcome, DerivationConfig, DeriveJob};
use mdbs_core::model::ModelAccumulator;
use mdbs_core::pipeline::PipelineCtx;
use mdbs_core::states::StateAlgorithm;
use mdbs_core::store::CatalogSnapshot;
use mdbs_sim::datagen::standard_database;
use mdbs_sim::{ContentionProfile, LoadBuilder, LocalCatalog, MdbsAgent, VendorProfile};

/// Site names, in job order.
pub const SITES: [&str; 2] = ["oracle", "db2"];

/// The paper's three representative classes with their table labels.
pub const CLASSES: [(QueryClass, &str); 3] = [
    (QueryClass::UnaryNoIndex, "G1"),
    (QueryClass::UnaryNonClusteredIndex, "G2"),
    (QueryClass::JoinNoIndex, "G3"),
];

fn vendor(site: &str) -> Option<(VendorProfile, u64)> {
    match site {
        "oracle" => Some((VendorProfile::oracle8(), 42)),
        "db2" => Some((VendorProfile::db2v5(), 43)),
        _ => None,
    }
}

/// A fresh agent for `site` in the uniform dynamic environment (20–125
/// background processes), or `None` for an unknown site.
pub fn agent(site: &str, env_seed: u64) -> Option<MdbsAgent> {
    let (profile, db_seed) = vendor(site)?;
    let mut agent = MdbsAgent::new(profile, standard_database(db_seed), env_seed);
    agent.set_load_builder(LoadBuilder::new(ContentionProfile::Uniform {
        lo: 20.0,
        hi: 125.0,
    }));
    Some(agent)
}

/// The local schema of `site` (what the generators render SQL against).
pub fn schema(site: &str) -> LocalCatalog {
    let (_, db_seed) = vendor(site).expect("known site");
    standard_database(db_seed)
}

/// The catalog's derivation jobs: 2 sites × 3 classes, IUPMA.
pub fn catalog_jobs() -> Vec<DeriveJob> {
    SITES
        .iter()
        .flat_map(|site| {
            CLASSES
                .iter()
                .map(|(class, _)| DeriveJob::new(*site, *class, StateAlgorithm::Iupma))
        })
        .collect()
}

/// The paper's default derivation configuration: eq. (4) sample sizes,
/// up to 6 states, the eq. (2) probing-cost estimator fitted.
pub fn catalog_config(workers: usize) -> BatchConfig {
    BatchConfig {
        derivation: DerivationConfig::default(),
        workers: Some(workers),
    }
}

/// Derives every job with [`derive_all`] on `workers` pool workers.
pub fn derive_catalog(seed: u64, workers: usize) -> Vec<BatchOutcome> {
    derive_all(
        catalog_jobs(),
        &catalog_config(workers),
        |job, env_seed| agent(&job.site.0, env_seed).expect("jobs name known sites"),
        &mut PipelineCtx::seeded(seed),
    )
}

/// Assembles the derived models into a versioned snapshot the way the
/// CLI's `derive` does: model, fit accumulator and probing-cost estimator
/// per successful job.
pub fn snapshot_of(outcomes: &[BatchOutcome]) -> CatalogSnapshot {
    let mut catalog = GlobalCatalog::new();
    for outcome in outcomes {
        let Ok(derived) = &outcome.result else {
            continue;
        };
        let site: SiteId = outcome.job.site.clone();
        catalog.insert_model(site.clone(), outcome.job.class, derived.model.clone());
        catalog.insert_accumulator(
            site.clone(),
            outcome.job.class,
            ModelAccumulator::from_observations(&derived.model, &derived.observations),
        );
        if let Some(est) = &derived.probe_estimator {
            catalog.insert_probe_estimator(site, est.clone());
        }
    }
    CatalogSnapshot::at_version(catalog, 1)
}
