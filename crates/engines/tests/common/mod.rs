//! What the delta-state suites share: growing tables cut into chunks, the
//! versions holding a prefix of them, the check of a state against one
//! full run, and the planner-level round trip through the fragment cache.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use midas_cloud::federation::example_federation;
use midas_cloud::SiteId;
use midas_engines::cache::{CacheScope, FragmentResultCache};
use midas_engines::data::Table;
use midas_engines::exec::{
    ExecutionOutcome, FederatedQuery, Fragment, ResultCacheBinding, SharedExecutor,
};
use midas_engines::ops::{PhysicalPlan, WorkProfile};
use midas_engines::sim::{DriftIntensity, SimulationEnv, SiteAdmission};
use midas_engines::version::{CatalogVersion, ChunkedTable};
use midas_engines::{
    profile_fragments, profile_fragments_cached, DeltaState, EngineError, EngineKind,
};
use proptest::prelude::*;

/// Up to 47 generated rows of `row`'s shape.
pub fn rows_of<S: Strategy>(row: S) -> impl Strategy<Value = Vec<S::Value>> {
    proptest::collection::vec(row, 0..48)
}

/// `rows` cut into chunks at the (modulo-resolved) cut points: empty
/// chunks occur, leading, interior and trailing. `table(i, rows)` builds
/// chunk `i`.
pub fn chunks_of<R>(
    rows: &[R],
    cuts: &[usize],
    table: impl Fn(usize, &[R]) -> Table,
) -> Vec<Arc<Table>> {
    let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (rows.len() + 1)).collect();
    bounds.sort_unstable();
    bounds.push(rows.len());
    let mut start = 0;
    let chunks = bounds.into_iter().enumerate().map(|(i, end)| {
        let chunk = Arc::new(table(i, &rows[start..end]));
        start = end;
        chunk
    });
    chunks.collect()
}

/// A version holding each `(name, chunks, n)` table as the first `n` of its
/// chunks — every version shares its chunks with the others, pointer for
/// pointer.
pub fn version_of(tables: &[(&str, &[Arc<Table>], usize)]) -> CatalogVersion {
    let table = |&(name, chunks, n): &(&str, &[Arc<Table>], usize)| {
        ChunkedTable::from_chunks(name, chunks[..n].to_vec()).expect("one schema")
    };
    CatalogVersion::from_chunked(tables.iter().map(table).collect())
}

pub fn scan(table: &str) -> Box<PhysicalPlan> {
    Box::new(PhysicalPlan::Scan {
        table: table.to_string(),
    })
}

pub type Run = Result<(Table, WorkProfile), EngineError>;

/// `state` against one full run: table (name included), fingerprint, work.
pub fn same_as(state: &DeltaState, full: &Run, ctx: &str) -> Result<(), TestCaseError> {
    let Ok((table, work)) = full else {
        return Err(TestCaseError::fail(format!(
            "{ctx}: the full run failed: {full:?}"
        )));
    };
    prop_assert_eq!(&**state.table(), table, "{}: table", ctx);
    prop_assert_eq!(state.table().fingerprint(), table.fingerprint(), "{}", ctx);
    prop_assert_eq!(&state.work(), work, "{}: work profile", ctx);
    Ok(())
}

/// A state computed in full, checked against the full run: `Some` state
/// when both ran, `None` when both failed.
pub fn computed(
    state: Result<DeltaState, EngineError>,
    full: &Run,
    ctx: &str,
) -> Result<Option<DeltaState>, TestCaseError> {
    match state {
        Ok(state) => same_as(&state, full, ctx).map(|()| Some(state)),
        Err(_) => {
            prop_assert!(
                full.is_err(),
                "{}: compute failed where the full run did not",
                ctx
            );
            Ok(None)
        }
    }
}

/// Plans `plans` — the prepares, then the fragments that read them —
/// through `cache` at `version` for `tenant`, checks every output against
/// `profile_fragments`, and runs them with the hand-off, filling the cache:
/// each prepare at the site given with it, a fragment without a site at
/// the last prepare's.
pub fn plan_and_run(
    cache: &FragmentResultCache,
    plans: &[(&PhysicalPlan, Option<usize>)],
    version: &CatalogVersion,
    tenant: &str,
) -> ExecutionOutcome {
    let (fed, a, b) = example_federation();
    let sites = [a, b];
    let ids: HashMap<String, u64> = version.table_ids();
    let binding = ResultCacheBinding {
        cache,
        scope: CacheScope::FederationGlobal,
        tenant,
        table_ids: &ids,
    };
    let planned: Vec<(&PhysicalPlan, Option<SiteId>)> = plans
        .iter()
        .map(|&(plan, site)| (plan, site.map(|s| sites[s])))
        .collect();
    let bare: Vec<&PhysicalPlan> = plans.iter().map(|&(plan, _)| plan).collect();
    let profiled = profile_fragments_cached(&bare, version, binding).unwrap();
    let expected = profile_fragments(&bare, version).unwrap();
    for (got, want) in profiled.iter().zip(&expected) {
        assert_eq!(got.table, want.table);
        assert_eq!(got.table.fingerprint(), want.table.fingerprint());
        assert_eq!(got.work, want.work);
    }
    let mut site = a;
    let fragments = planned.iter().map(|&(plan, at)| {
        site = at.unwrap_or(site);
        Fragment {
            plan: plan.clone(),
            site,
            engine: EngineKind::PostgreSql,
            instance: if site == a { "a1.large" } else { "B2S" }.to_string(),
            vm_count: 1,
        }
    });
    let query = FederatedQuery {
        fragments: fragments.collect(),
    };
    let mut env = SimulationEnv::new();
    for site in fed.site_ids() {
        env.register_site(site, 7, DriftIntensity::Mild);
    }
    let (env, admission) = (Mutex::new(env), SiteAdmission::unmetered());
    SharedExecutor::new(&fed, &env, &admission)
        .with_result_cache(binding)
        .with_profiled_fragments(&profiled)
        .run(&query, version)
        .unwrap()
}
