//! The MIDAS facade: one type wiring the whole pipeline together.

use midas_cloud::federation::example_federation;
use midas_cloud::{Federation, SiteId};
use midas_dream::DreamEstimator;
use midas_engines::sim::DriftIntensity;
use midas_engines::{Catalog, EngineKind, Placement};
use midas_ires::optimizer::{moqp_exhaustive, MoqpOutcome};
use midas_ires::scheduler::{Scheduler, SchedulerConfig, SchedulerError};
use midas_ires::{CandidateConfig, EnumerationSpace, Modelling, PlanCostModel};
use midas_moo::select::Constraints;
use midas_moo::WeightedSumModel;
use midas_tpch::TwoTableQuery;
use std::collections::HashMap;

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
    /// DREAM's training-window size after learning from this run, if the
    /// modelling history was already deep enough to fit.
    pub dream_window: Option<usize>,
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
    /// runtime-vs-scheduler determinism harness.
    pub chosen: CandidateConfig,
}

/// The MIDAS deployment: federation, placement and data.
pub struct Midas {
    federation: Federation,
    placement: Placement,
    drift: DriftIntensity,
    seed: u64,
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
                drift: DriftIntensity::Strong,
                seed: 42,
            },
            a,
            b,
        )
    }

    /// Overrides the drift intensity (default: strong).
    pub fn with_drift(mut self, drift: DriftIntensity) -> Self {
        self.drift = drift;
        self
    }

    /// Overrides the simulation seed (default: 42).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
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
    /// `workers` threads (see [`crate::runtime::FederationRuntime`]). The
    /// runtime inherits the deployment's seed and drift, so a one-worker
    /// runtime replays exactly what [`Midas::session`] would do. The
    /// catalog is shared by `Arc` handle — no table bytes are copied.
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
                seed: self.seed,
                drift: self.drift,
                ..Default::default()
            },
        )
    }

    /// Opens a session: scheduler plus per-query-class online learners.
    pub fn session(&self) -> MidasSession<'_> {
        let scheduler = Scheduler::new(
            &self.federation,
            self.placement.clone(),
            SchedulerConfig {
                seed: self.seed,
                drift: self.drift,
                work_scale: 1.0,
            },
        );
        MidasSession {
            federation: &self.federation,
            placement: &self.placement,
            scheduler,
            modelling: HashMap::new(),
            max_vms: 8,
        }
    }
}

/// An open session: owns the drifting environment and the learned models.
pub struct MidasSession<'a> {
    federation: &'a Federation,
    placement: &'a Placement,
    scheduler: Scheduler<'a>,
    modelling: HashMap<String, Modelling>,
    max_vms: u32,
}

impl MidasSession<'_> {
    /// Caps the VM count considered during enumeration (default 8).
    pub fn set_max_vms(&mut self, max_vms: u32) {
        self.max_vms = max_vms.max(1);
    }

    /// Runs the full MIDAS pipeline for one query:
    /// enumerate → cost → Pareto → Algorithm 2 → execute → learn.
    pub fn submit(
        &mut self,
        query: &TwoTableQuery,
        tables: &Catalog,
        policy: &QueryPolicy,
    ) -> Result<MidasReport, SchedulerError> {
        let space =
            EnumerationSpace::for_query(self.federation, self.placement, query, self.max_vms)
                .map_err(SchedulerError::Engine)?;
        // Profile once: the cost model and the fragment outputs the chosen
        // plan's execution takes over instead of recomputing.
        let (model, profiled) = PlanCostModel::profile(self.placement, query, tables)
            .map_err(SchedulerError::Engine)?;
        let weights = WeightedSumModel::new(&policy.weights);
        let outcome: MoqpOutcome = moqp_exhaustive(
            &space,
            &model,
            self.federation,
            &weights,
            &policy.constraints,
        );

        let executed = self
            .scheduler
            .execute_profiled(query, &outcome.chosen, tables, &profiled)?;

        // Learn: per query class (Q12, Q13, …), keyed by the class prefix.
        let n_features = executed.features.len();
        let modelling = self.modelling.entry(query.class().to_string()).or_insert_with(|| {
            Modelling::new(n_features, 2, Box::new(DreamEstimator::paper_defaults(2)))
        });
        modelling.record(&executed.features, &executed.costs)?;
        // Mirrors ModellingRegistry::observe: a shallow history keeps
        // collecting, any other refit failure is a real estimation problem.
        let dream_window = match modelling.refit() {
            Ok(report) => Some(report.window_used),
            Err(midas_dream::EstimationError::NotEnoughData { .. }) => None,
            Err(e) => return Err(e.into()),
        };

        Ok(MidasReport {
            label: query.label.clone(),
            space_size: space.len(),
            pareto_size: outcome.pareto.len(),
            predicted_costs: outcome.chosen_costs,
            actual_costs: executed.costs,
            dream_window,
            result_rows: executed.outcome.result.n_rows(),
            result_fingerprint: executed.outcome.result.fingerprint(),
            catalog_shared_bytes: executed.outcome.catalog_shared_bytes,
            chosen: outcome.chosen,
        })
    }

    /// The modelling module of a query class, if any runs were recorded.
    pub fn modelling(&self, class: &str) -> Option<&Modelling> {
        self.modelling.get(class)
    }

    /// Simulated seconds elapsed in this session.
    pub fn clock_s(&self) -> f64 {
        self.scheduler.clock_s()
    }

    /// Lets idle time pass between queries (drift keeps evolving).
    pub fn idle(&mut self, ticks: usize, dt_s: f64) {
        self.scheduler.idle(ticks, dt_s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use midas_tpch::gen::{GenConfig, TpchDb};
    use midas_tpch::medical::{generate_medical, medical_query};
    use midas_tpch::queries::q12;

    #[test]
    fn full_pipeline_on_tpch() {
        let (midas, _, _) = Midas::example_deployment(&["lineitem"], &["orders"]);
        let db = TpchDb::generate(GenConfig::new(0.002, 3));
        let mut session = midas.session();
        session.set_max_vms(4);
        let report = session
            .submit(&q12("MAIL", "SHIP", 1994), db.catalog(), &QueryPolicy::balanced())
            .unwrap();
        assert!(report.space_size > 0);
        assert!(report.pareto_size > 0);
        assert!(report.predicted_costs[0] > 0.0);
        assert!(report.actual_costs[0] > 0.0);
        assert!(report.result_rows > 0);
        // First run: history of size 1 cannot fit MLR.
        assert_eq!(report.dream_window, None);
    }

    #[test]
    fn dream_comes_online_after_enough_runs() {
        let (midas, _, _) = Midas::example_deployment(&["lineitem"], &["orders"]);
        let db = TpchDb::generate(GenConfig::new(0.002, 3));
        let mut session = midas.session();
        session.set_max_vms(2);
        let mut last = None;
        for (i, year) in (1993..=1997).enumerate() {
            let report = session
                .submit(
                    &q12("MAIL", "SHIP", year),
                    db.catalog(),
                    &QueryPolicy::fastest(),
                )
                .unwrap();
            // With L = 4 features, m = L + 2 = 6 runs are needed to fit,
            // so five runs never come online — checked below.
            let _ = i;
            last = report.dream_window;
            session.idle(2, 30.0);
        }
        assert!(last.is_none(), "5 runs < L + 2 = 6: DREAM not fittable yet");
        let modelling = session.modelling("Q12").unwrap();
        assert_eq!(modelling.history().len(), 5);
        assert_eq!(modelling.estimator_name(), "DREAM");
    }

    #[test]
    fn policies_steer_the_choice() {
        let (midas, _, _) = Midas::example_deployment(&["lineitem"], &["orders"]);
        let midas = midas.with_drift(DriftIntensity::None);
        let db = TpchDb::generate(GenConfig::new(0.002, 9));
        let q = q12("AIR", "TRUCK", 1995);

        let mut fast_session = midas.session();
        let fast = fast_session
            .submit(&q, db.catalog(), &QueryPolicy::fastest())
            .unwrap();
        let mut cheap_session = midas.session();
        let cheap = cheap_session
            .submit(&q, db.catalog(), &QueryPolicy::cheapest())
            .unwrap();
        // The time-first plan must not be slower than the money-first plan
        // in prediction; the money-first plan must not cost more.
        assert!(fast.predicted_costs[0] <= cheap.predicted_costs[0] + 1e-9);
        assert!(cheap.predicted_costs[1] <= fast.predicted_costs[1] + 1e-9);
    }

    #[test]
    fn medical_example_21_runs_end_to_end() {
        let (midas, _, _) = Midas::example_deployment(&["patient"], &["generalinfo"]);
        let tables = generate_medical(400, 0.5, 21);
        let mut session = midas.session();
        let report = session
            .submit(
                &medical_query(None),
                &tables,
                &QueryPolicy::balanced().with_money_budget(5.0),
            )
            .unwrap();
        assert!(report.label.contains("Medical"));
        assert!(report.result_rows > 0);
    }
}
