//! The model registry: the one catalog that prices.
//!
//! A [`GlobalCatalog`](crate::catalog::GlobalCatalog) is the paper's
//! picture of "cost model parameters kept in the MDBS catalog" — what is
//! stored and persisted. Pricing reads a [`ModelRegistry`] loaded from it
//! ([`ModelRegistry::from_snapshot`]):
//! a `RwLock` map from `(site, class)` to an [`Arc`]'d immutable model,
//! swapped whole on publish — readers either see the old complete model or
//! the new complete model, never half of one — plus a monotone global
//! version so callers can tell *which*. [`ModelRegistry::estimate`] is the
//! only code that turns a query into an [`EstimateDetail`]; the serving
//! paths reach it through [`crate::server::price_request`].
//!
//! One lock guards the whole map. A workload serves a handful of models,
//! publishes only from the serial maintenance path, and is read by at most
//! one pool worker per core, so sharding buys nothing. The map is a
//! `BTreeMap`, so any iteration is in `(site, class)` order.

use crate::catalog::SiteId;
use crate::classes::{classify, QueryClass};
use crate::correction::{Correction, EstimateQuery};
use crate::model::CostModel;
use crate::store::CatalogSnapshot;
use mdbs_obs::Telemetry;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// One published model snapshot: immutable once registered.
#[derive(Debug, Clone)]
pub struct RegisteredModel {
    /// The site the model covers.
    pub site: SiteId,
    /// The query class the model covers.
    pub class: QueryClass,
    /// The registry-global version at which this snapshot was published.
    pub version: u64,
    /// The fitted multi-states cost model.
    pub model: CostModel,
}

/// A served estimate with its full provenance: the snapshot version it
/// was computed against, the contention state the probing cost mapped
/// to, and what the online correction layer did to the raw model output —
/// everything a flight record or accuracy ledger needs to explain the
/// number. Computed against one `Arc` snapshot, so the fields are always
/// mutually coherent even while maintenance republishes.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimateDetail {
    /// The estimated query cost to serve (corrected when a warm
    /// correction cell applied; otherwise the raw model output).
    pub estimate: f64,
    /// The raw model output before any correction — what the correction
    /// ledger learns from.
    pub raw_estimate: f64,
    /// Multiplicative correction factor applied (1.0 when none).
    pub correction: f64,
    /// Whether a correction cell actually adjusted this estimate.
    pub corrected: bool,
    /// The correction cell's residual scale — the `±` confidence the
    /// serving loop annotates answers with (0.0 when uncorrected).
    pub confidence: f64,
    /// Version of the snapshot the estimate came from.
    pub version: u64,
    /// Index of the contention state `probe_cost` mapped to.
    pub state: usize,
    /// The paper's label for that state (`S1` = highest contention).
    pub state_label: String,
}

/// Versioned `(site, class) → CostModel` map. See the module docs.
#[derive(Debug, Default)]
pub struct ModelRegistry {
    models: RwLock<BTreeMap<(SiteId, QueryClass), Arc<RegisteredModel>>>,
    version: AtomicU64,
    publishes: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl ModelRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ModelRegistry::default()
    }

    /// Publishes (or replaces) the model for a site/class pair, returning
    /// the new snapshot's version. The swap is atomic from a reader's point
    /// of view: concurrent [`ModelRegistry::get`] calls observe either the
    /// previous snapshot or this one, whole.
    // ctx: serial-only
    pub fn publish(&self, site: SiteId, class: QueryClass, model: CostModel) -> u64 {
        let version = self.version.fetch_add(1, Ordering::Relaxed) + 1;
        let entry = Arc::new(RegisteredModel {
            site: site.clone(),
            class,
            version,
            model,
        });
        self.models
            .write()
            .expect("registry lock poisoned")
            .insert((site, class), entry);
        self.publishes.fetch_add(1, Ordering::Relaxed);
        version
    }

    /// The current snapshot for a site/class pair, if any. Cheap: one
    /// read lock and an `Arc` clone.
    pub fn get(&self, site: &SiteId, class: QueryClass) -> Option<Arc<RegisteredModel>> {
        let found = self
            .models
            .read()
            .expect("registry lock poisoned")
            .get(&(site.clone(), class))
            .cloned();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// The registry-global version: increments on every publish, so a
    /// changed version means *some* model changed.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Relaxed)
    }

    /// Number of registered site/class pairs.
    pub fn len(&self) -> usize {
        self.models.read().expect("registry lock poisoned").len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The estimation entry point: classify the query, look up the
    /// snapshot, extract the Table-3 variables, project them onto the
    /// model's selected subset, evaluate the model in the contention state
    /// implied by the probing cost, and apply the attached correction
    /// ledger (if any, and warm). The whole estimate is computed against
    /// one `Arc` snapshot, so every [`EstimateDetail`] field is mutually
    /// coherent even while maintenance republishes underneath — a reader
    /// can assert the versions it observes never regress.
    ///
    /// `None` when the query cannot be classified or no model is
    /// registered for its class.
    pub fn estimate(&self, q: &EstimateQuery<'_>) -> Option<EstimateDetail> {
        let class = classify(q.schema, q.query)?;
        let snapshot = self.get(q.site, class)?;
        let model = &snapshot.model;
        let x = class.family().extract(q.schema, q.query)?;
        let x_sel: Vec<f64> = model.var_indexes.iter().map(|&i| x[i]).collect();
        let state = model.states.state_of(q.probe_cost);
        let state_label = model.states.paper_label(state);
        let raw = model.estimate(&x_sel, q.probe_cost);
        let correction = q
            .correction
            .map(|ledger| ledger.correct(&q.site.0, &state_label, raw))
            .unwrap_or_else(|| Correction::none(raw));
        Some(EstimateDetail {
            estimate: correction.estimate,
            raw_estimate: raw,
            correction: correction.factor,
            corrected: correction.applied,
            confidence: correction.confidence,
            version: snapshot.version,
            state,
            state_label,
        })
    }

    /// Loads a versioned [`CatalogSnapshot`]: publishes every model in
    /// `(site, class)` order as versions `1..=k`, then advances the
    /// registry version to at least the snapshot's — so models published
    /// *after* a warm start get versions strictly greater than anything
    /// already persisted, keeping registry versions and snapshot versions
    /// on one monotone axis. A bare catalog loads as
    /// `CatalogSnapshot::at_version(catalog, 0)`.
    pub fn from_snapshot(snap: &CatalogSnapshot) -> Self {
        let registry = ModelRegistry::new();
        let catalog = &snap.catalog;
        for site in catalog.sites() {
            for class in catalog.classes_for(&site) {
                let model = catalog.model(&site, class).expect("listed by the catalog");
                registry.publish(site.clone(), class, model.clone());
            }
        }
        registry.version.fetch_max(snap.version, Ordering::Relaxed);
        registry
    }

    /// Folds the registry's access counters into a telemetry collection:
    /// `registry.publishes`, `registry.hits`, `registry.misses` (all
    /// deterministic for a deterministic access sequence) and the current
    /// `registry.version` gauge.
    pub fn fold_metrics(&self, tel: &mut Telemetry) {
        tel.inc("registry.publishes", self.publishes.load(Ordering::Relaxed));
        tel.inc("registry.hits", self.hits.load(Ordering::Relaxed));
        tel.inc("registry.misses", self.misses.load(Ordering::Relaxed));
        tel.gauge("registry.version", self.version() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::GlobalCatalog;
    use crate::model::{fit_cost_model, ModelForm};
    use crate::observation::Observation;
    use crate::qualvar::StateSet;
    use crate::store::{snapshot_from_bytes, snapshot_to_bytes};
    use mdbs_sim::datagen::standard_database;
    use mdbs_sim::query::{Predicate, Query, UnaryQuery};

    /// A toy one-state model `cost = intercept + slope·x`.
    fn toy_model(slope: f64) -> CostModel {
        let obs: Vec<Observation> = (0..30)
            .map(|i| {
                let x = (i % 10) as f64 * 100.0;
                Observation {
                    x: vec![x],
                    cost: 1.0 + slope * x + (i % 3) as f64 * 1e-3,
                    probe_cost: 1.0,
                }
            })
            .collect();
        fit_cost_model(
            ModelForm::Coincident,
            StateSet::single(),
            vec![0],
            vec!["N_O".into()],
            &obs,
        )
        .unwrap()
    }

    #[test]
    fn publish_then_get_roundtrips() {
        let reg = ModelRegistry::new();
        assert!(reg.is_empty());
        let v = reg.publish("oracle".into(), QueryClass::UnaryNoIndex, toy_model(0.01));
        assert_eq!(v, 1);
        assert_eq!(reg.len(), 1);
        let snap = reg.get(&"oracle".into(), QueryClass::UnaryNoIndex).unwrap();
        assert_eq!(snap.version, 1);
        assert_eq!(snap.class, QueryClass::UnaryNoIndex);
        assert!(reg.get(&"oracle".into(), QueryClass::JoinNoIndex).is_none());
    }

    #[test]
    fn republish_bumps_version_and_swaps_whole_model() {
        let reg = ModelRegistry::new();
        reg.publish("s".into(), QueryClass::UnaryNoIndex, toy_model(0.01));
        let old = reg.get(&"s".into(), QueryClass::UnaryNoIndex).unwrap();
        reg.publish("s".into(), QueryClass::UnaryNoIndex, toy_model(0.02));
        let new = reg.get(&"s".into(), QueryClass::UnaryNoIndex).unwrap();
        assert!(new.version > old.version);
        assert_ne!(
            old.model.coefficients, new.model.coefficients,
            "snapshots are distinct objects"
        );
        // The old Arc stays valid for readers that still hold it.
        assert_eq!(old.version, 1);
    }

    /// Three models inserted out of `(site, class)` order.
    fn three_model_catalog() -> GlobalCatalog {
        let mut catalog = GlobalCatalog::new();
        catalog.insert_model("b".into(), QueryClass::UnaryNoIndex, toy_model(0.03));
        catalog.insert_model("a".into(), QueryClass::JoinNoIndex, toy_model(0.02));
        catalog.insert_model("a".into(), QueryClass::UnaryNoIndex, toy_model(0.01));
        catalog
    }

    #[test]
    fn from_snapshot_publishes_in_key_order_and_resumes_versions() {
        let in_key_order = [
            ("a", QueryClass::UnaryNoIndex, 0.01),
            ("a", QueryClass::JoinNoIndex, 0.02),
            ("b", QueryClass::UnaryNoIndex, 0.03),
        ];
        for snap_version in [0, 2, 3, 7] {
            let snap = CatalogSnapshot::at_version(three_model_catalog(), snap_version);
            let reg = ModelRegistry::from_snapshot(&snap);
            assert_eq!(reg.len(), 3);
            for (k, (site, class, slope)) in in_key_order.into_iter().enumerate() {
                let entry = reg.get(&site.into(), class).unwrap();
                assert_eq!(entry.version, k as u64 + 1, "{site} {class:?}");
                assert_eq!(entry.model.coefficients, toy_model(slope).coefficients);
            }
            assert_eq!(reg.version(), snap_version.max(3));
            let next = reg.publish("c".into(), QueryClass::UnaryNoIndex, toy_model(0.04));
            assert!(next > snap_version, "{next} after snapshot v{snap_version}");
            assert_eq!(next, reg.version());
        }
    }

    #[test]
    fn catalog_roundtrip_preserves_models() {
        // The same catalog loaded directly, through the text format and
        // through the binary format prices every query identically.
        let snap = CatalogSnapshot::at_version(three_model_catalog(), 5);
        let (text, text_version) =
            GlobalCatalog::import_versioned(&snap.catalog.export_versioned(snap.version)).unwrap();
        let (binary, _, _) = snapshot_from_bytes(&snapshot_to_bytes(&snap)).unwrap();
        let direct = ModelRegistry::from_snapshot(&snap);
        let from_text =
            ModelRegistry::from_snapshot(&CatalogSnapshot::at_version(text, text_version));
        let from_binary = ModelRegistry::from_snapshot(&binary);
        let db = standard_database(42);
        let mut priced = 0;
        for t in db.tables() {
            let q = Query::Unary(UnaryQuery {
                table: t.id,
                projection: vec![0],
                predicates: vec![Predicate::lt(1, t.columns[1].domain_max / 3)],
                order_by: None,
            });
            for site in ["a", "b", "c"].map(SiteId::from) {
                for probe in [0.5, 1.0, 4.0] {
                    let q = EstimateQuery::raw(&site, &db, &q, probe);
                    let expected = direct.estimate(&q);
                    priced += usize::from(expected.is_some());
                    assert_eq!(from_text.estimate(&q), expected, "text copy");
                    assert_eq!(from_binary.estimate(&q), expected, "binary copy");
                }
            }
        }
        assert!(priced > 0, "some queries hit a model");
    }

    #[test]
    fn fold_metrics_reports_access_counters() {
        let reg = ModelRegistry::new();
        reg.publish("s".into(), QueryClass::UnaryNoIndex, toy_model(0.01));
        reg.get(&"s".into(), QueryClass::UnaryNoIndex);
        reg.get(&"s".into(), QueryClass::JoinNoIndex);
        let mut tel = Telemetry::enabled();
        reg.fold_metrics(&mut tel);
        assert_eq!(tel.metrics.counter("registry.publishes"), 1);
        assert_eq!(tel.metrics.counter("registry.hits"), 1);
        assert_eq!(tel.metrics.counter("registry.misses"), 1);
    }

    #[test]
    fn concurrent_readers_see_whole_snapshots_during_swaps() {
        let reg = ModelRegistry::new();
        reg.publish("s".into(), QueryClass::UnaryNoIndex, toy_model(0.01));
        #[allow(clippy::disallowed_methods)]
        // lint:allow(no-raw-threads): torn-read stress test needs raw racing threads; nothing output-relevant is computed
        std::thread::scope(|scope| {
            let reg = &reg;
            scope.spawn(move || {
                for i in 0..200 {
                    let slope = 0.01 + (i % 7) as f64 * 0.001;
                    reg.publish("s".into(), QueryClass::UnaryNoIndex, toy_model(slope));
                }
            });
            for _ in 0..2 {
                scope.spawn(move || {
                    for _ in 0..500 {
                        let snap = reg
                            .get(&"s".into(), QueryClass::UnaryNoIndex)
                            .expect("model never absent once published");
                        // A torn model would break internal invariants;
                        // estimating exercises the coefficient table.
                        let est = snap.model.estimate(&[100.0], 1.0);
                        assert!(est.is_finite());
                    }
                });
            }
        });
        assert_eq!(reg.len(), 1);
        assert_eq!(reg.version(), 201);
    }
}
