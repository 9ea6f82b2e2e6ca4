//! The MIDAS facade: the deployment, a user's query policy and what one
//! query reports back. [`Midas::runtime`] opens the pipeline over them.

use midas_cloud::federation::example_federation;
use midas_cloud::{Federation, SiteId};
use midas_engines::{Catalog, EngineKind, Placement};
use midas_ires::CandidateConfig;
use midas_moo::select::Constraints;

/// A user's query policy: objective weights plus optional budgets
/// (Algorithm 2's `S` and `B`).
#[derive(Debug, Clone)]
pub struct QueryPolicy {
    /// Weighted-sum preferences over `(time, money)`.
    pub weights: Vec<f64>,
    /// Optional per-metric upper bounds.
    pub constraints: Constraints,
}

impl QueryPolicy {
    /// Balanced time/money policy, unconstrained.
    pub fn balanced() -> Self {
        QueryPolicy {
            weights: vec![0.5, 0.5],
            constraints: Constraints::none(2),
        }
    }

    /// Time-first policy.
    pub fn fastest() -> Self {
        QueryPolicy {
            weights: vec![1.0, 0.0],
            constraints: Constraints::none(2),
        }
    }

    /// Money-first policy.
    pub fn cheapest() -> Self {
        QueryPolicy {
            weights: vec![0.0, 1.0],
            constraints: Constraints::none(2),
        }
    }

    /// Adds a monetary budget in dollars.
    pub fn with_money_budget(mut self, dollars: f64) -> Self {
        self.constraints = self.constraints.with_bound(1, dollars);
        self
    }
}

/// What one submitted query returns to the user.
#[derive(Debug, Clone)]
pub struct MidasReport {
    /// The query label.
    pub label: String,
    /// Size of the enumerated QEP space.
    pub space_size: usize,
    /// Size of the Pareto plan set.
    pub pareto_size: usize,
    /// Expected `(time, money)` of the chosen plan.
    pub predicted_costs: Vec<f64>,
    /// Observed `(time, money)` after execution.
    pub actual_costs: Vec<f64>,
    /// The result table's row count.
    pub result_rows: usize,
    /// Content fingerprint of the result table (order-sensitive; see
    /// `Table::fingerprint`). The snapshot-isolation harnesses compare this
    /// against executing the query standalone on its pinned catalog
    /// version.
    pub result_fingerprint: u64,
    /// Bytes of base-table data this query's execution read in place —
    /// the same number over a flat catalog and over a version's chunks.
    pub catalog_shared_bytes: u64,
    /// The configuration Algorithm 2 selected (join site, engine, instance,
    /// VM count) — the "plan" half of the decision, pinned by the
    /// runtime-vs-sequential-reference determinism harnesses.
    pub chosen: CandidateConfig,
}

/// The MIDAS deployment: federation, placement and data.
pub struct Midas {
    federation: Federation,
    placement: Placement,
}

impl Midas {
    /// The paper's running deployment: cloud A (Amazon catalog, Hive) and
    /// cloud B (Azure catalog, PostgreSQL), WAN-linked.
    pub fn example_deployment(tables_on_a: &[&str], tables_on_b: &[&str]) -> (Self, SiteId, SiteId) {
        let (federation, a, b) = example_federation();
        let mut placement = Placement::new();
        for t in tables_on_a {
            placement.place(t, a, EngineKind::Hive);
        }
        for t in tables_on_b {
            placement.place(t, b, EngineKind::PostgreSql);
        }
        (
            Midas {
                federation,
                placement,
            },
            a,
            b,
        )
    }

    /// The federation graph.
    pub fn federation(&self) -> &Federation {
        &self.federation
    }

    /// The table placement.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// Opens a concurrent multi-tenant runtime over this deployment with
    /// `workers` threads (see [`crate::runtime::FederationRuntime`]) — the
    /// one plan → execute → learn driver — and the default [`RuntimeConfig`]
    /// otherwise (seed 42, strong drift); build one with
    /// [`FederationRuntime::new`] to set more. The catalog is shared by
    /// `Arc` handle — no table bytes are copied.
    ///
    /// [`RuntimeConfig`]: crate::runtime::RuntimeConfig
    /// [`FederationRuntime::new`]: crate::runtime::FederationRuntime::new
    pub fn runtime<'a>(
        &'a self,
        catalog: &Catalog,
        workers: usize,
    ) -> crate::runtime::FederationRuntime<'a> {
        crate::runtime::FederationRuntime::new(
            &self.federation,
            &self.placement,
            catalog.clone(),
            crate::runtime::RuntimeConfig {
                workers,
                ..Default::default()
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::{FederationRuntime, RuntimeConfig, RuntimeJob};
    use midas_tpch::gen::{GenConfig, TpchDb};
    use midas_tpch::queries::q12;

    #[test]
    fn dream_comes_online_after_enough_runs() {
        let (midas, _, _) = Midas::example_deployment(&["lineitem"], &["orders"]);
        let db = TpchDb::generate(GenConfig::new(0.002, 3));
        let runtime = FederationRuntime::new(
            midas.federation(),
            midas.placement(),
            db.catalog().clone(),
            RuntimeConfig {
                workers: 1,
                max_vms: 2,
                ..RuntimeConfig::default()
            },
        );
        let jobs = (1993..=1997)
            .map(|year| RuntimeJob::new("clinic", q12("MAIL", "SHIP", year), QueryPolicy::fastest()))
            .collect();
        let report = runtime.run(jobs);
        assert!(report.failed.is_empty(), "failures: {:?}", report.failed);
        assert_eq!(report.completed.len(), 5);
        // With L = 4 features, m = L + 2 = 6 runs are needed to fit, so
        // five runs never come online.
        let learning = &report.learning;
        assert_eq!(learning.len(), 1);
        assert_eq!((learning[0].class.as_str(), learning[0].observations), ("Q12", 5));
        assert_eq!(learning[0].fit, Ok(None), "5 runs < L + 2 = 6: DREAM not fittable yet");
        {
            let modelling = runtime.registry().get("Q12").expect("class recorded");
            let modelling = modelling.lock().expect("modelling lock");
            assert_eq!(modelling.history().len(), 5);
            assert_eq!(modelling.estimator_name(), "DREAM");
        }
        // The sixth run makes the class fittable: its report fits once.
        let sixth = RuntimeJob::new("clinic", q12("MAIL", "SHIP", 1998), QueryPolicy::fastest());
        let report = runtime.run(vec![sixth]);
        assert!(report.failed.is_empty(), "failures: {:?}", report.failed);
        let fit = report.learning[0].fit.clone().expect("no numeric failure");
        assert_eq!(fit.map(|f| f.window_used), Some(6));
        assert_eq!(report.learning[0].observations, 6);
    }
}
