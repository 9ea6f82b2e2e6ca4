//! The live-data harness of the streaming [`FederationRuntime`]:
//!
//! 1. **Sequential oracle parity** — a 1-worker streaming runtime consuming
//!    the deterministic ingest/query tape must reproduce, bit-for-bit, the
//!    sequential `Reference` of `common/` replaying the *same*
//!    admission/ingest interleaving over `pin()`ned flat copies of its own
//!    copy-on-write catalog: identical plans, predicted/observed costs,
//!    result fingerprints, base-table bytes read, learned histories and
//!    simulated clock — and each job must pin exactly the catalog version
//!    the tape implies.
//! 2. **Snapshot isolation under real concurrency** — with multiple
//!    workers, parallel fragments and un-synchronized ingest, every query's
//!    result must be bit-identical to executing it alone against its pinned
//!    catalog version (proptest over random interleavings, plus a directed
//!    multi-worker run).
//! 3. **Per-tenant fairness** — a chatty tenant's burst must not starve a
//!    quiet tenant: round-robin service bounds the quiet tenant's delay at
//!    one job per other tenant, not the burst length.
//! 4. **Nothing served compacts** — the runtime reads its pinned versions
//!    chunk by chunk, so every version it served reports zero compaction
//!    bytes until an oracle `pin()`s it, and the ledger still equals the
//!    flat oracle's with both cache tiers on.
//! 5. **A publish costs the next plan its delta** — planning extends the
//!    row-wise prepares a publish retired over the appended chunks, once
//!    per window (a count derived from the hot set), never across
//!    `PerTenant` tenants, never for a job pinned to an older version, and
//!    without moving any ledger off the cache-off runtime's. The combines
//!    do too: each window after the first advances the delta state of
//!    every combine whose join has one growing side and computes the rest
//!    in full, at one worker and at two, ledgers unmoved.

mod common;

use common::{ledgers, Ledger, Reference};
use midas::runtime::{FederationRuntime, RuntimeConfig, RuntimeJob, TenantReport};
use midas::{Midas, QueryPolicy};
use midas_engines::cache::PlanFingerprint;
use midas_engines::fused::row_wise_table;
use midas_engines::version::CatalogVersion;
use midas_tpch::gen::{DeltaStream, GenConfig, TpchDb};
use midas_tpch::medical::{generate_medical, medical_delta, medical_query};
use midas_tpch::queries::{q12, q13, q14, q17};
use midas_tpch::stream::{streaming_workload, StreamEvent, StreamSpec};
use proptest::prelude::*;
use std::sync::Arc;

/// The per-tenant policy mix the benches use.
fn policy_for(tenant: &str) -> QueryPolicy {
    match tenant {
        "hospital-A" => QueryPolicy::balanced(),
        "hospital-B" => QueryPolicy::fastest(),
        "hospital-C" => QueryPolicy::cheapest(),
        _ => QueryPolicy::balanced().with_money_budget(100.0),
    }
}

/// A reference over flat oracle catalogs: it runs with both cache tiers
/// off, so its jobs hit nothing the runtime's cache served.
fn uncached(config: &RuntimeConfig) -> RuntimeConfig {
    RuntimeConfig {
        fragment_cache_bytes: 0,
        plan_cache_bytes: 0,
        ..*config
    }
}

/// The runtime's own version a job pinned, from the versions its producer
/// captured: `runtime.versioned_catalog().current()` at start and after
/// every publish. The producer is the only publisher, so `versions[n]` is
/// the very version `n` the jobs pinned.
fn pinned_of<'v>(versions: &'v [Arc<CatalogVersion>], r: &TenantReport) -> &'v CatalogVersion {
    let version = &versions[r.pinned_version as usize];
    assert_eq!(version.version(), r.pinned_version);
    version
}

/// A ledger with the cache hits it owes to the runtime's cache cleared.
fn cache_free(ledger: &Ledger) -> Ledger {
    Ledger {
        cache_hits: 0,
        ..ledger.clone()
    }
}

#[test]
fn one_worker_stream_matches_the_sequential_replay_oracle() {
    let (midas, _, _) = Midas::example_deployment(&["lineitem", "customer"], &["orders", "part"]);
    let db = TpchDb::generate(GenConfig::new(0.002, 5));
    let tape = streaming_workload(&db, &StreamSpec::hospitals(9, 2));

    // Streaming side: one worker; `drain` after every query imposes the
    // tape's exact admission/ingest interleaving on the runtime.
    let runtime = midas.runtime(db.catalog(), 1);
    let ((), report) = runtime.serve(|ingress| {
        for event in &tape {
            match event {
                StreamEvent::Query { tenant, query, .. } => {
                    ingress.submit(RuntimeJob::new(
                        tenant,
                        (**query).clone(),
                        policy_for(tenant),
                    ));
                    ingress.drain();
                }
                StreamEvent::Ingest { deltas, .. } => {
                    let receipt = ingress.ingest_batch(deltas.clone()).expect("ingest");
                    assert!(receipt.stats.shared_bytes > 0);
                }
            }
        }
    });
    assert!(report.failed.is_empty(), "failures: {:?}", report.failed);

    // Oracle side: the sequential reference replaying the same tape
    // against its own copy-on-write catalog.
    let reference = Reference::new(&midas, db.catalog(), uncached(runtime.config()), None);
    let oracle_catalog = db.versioned_catalog();
    let mut oracle = Vec::new();
    let mut pinned_lineitem_rows = Vec::new();
    for event in &tape {
        match event {
            StreamEvent::Query { tenant, query, .. } => {
                let pinned = oracle_catalog.current().pin();
                pinned_lineitem_rows.push(pinned.get("lineitem").map_or(0, |t| t.n_rows()));
                let job = RuntimeJob::new(tenant, (**query).clone(), policy_for(tenant));
                let ledger = reference.job(oracle.len(), &job, &pinned);
                oracle.push((oracle_catalog.version(), ledger));
            }
            StreamEvent::Ingest { deltas, .. } => {
                oracle_catalog.append_batch(deltas.clone()).expect("ingest");
            }
        }
    }

    // Bit-for-bit, not approximate: both paths must take the exact same
    // arithmetic through costing, selection, simulation and learning.
    let served = ledgers(&report);
    assert_eq!(served.len(), oracle.len());
    for ((r, ledger), (version, expected)) in report.completed.iter().zip(&served).zip(&oracle) {
        let label = &ledger.label;
        assert_eq!(r.pinned_version, *version, "{label}: pinned the wrong catalog version");
        assert_eq!(cache_free(ledger), *expected, "{label}: ledger drifted");
    }

    // The simulated world and the learned state ended identically.
    reference.assert_end_state(&runtime, &report, "one-worker stream");

    // Both catalogs published the same number of versions, and later
    // queries saw strictly more data than version-0 queries.
    assert_eq!(report.catalog_version, oracle_catalog.version());
    assert!(report.ingest.bytes_shared > 0);
    let first = &report.completed[0];
    let last = report.completed.last().expect("non-empty");
    assert!(last.pinned_version > first.pinned_version);
    // The oracle pinned the same versions (checked bit-for-bit above), and
    // its last pin saw strictly more data than its first.
    assert!(
        pinned_lineitem_rows.last().expect("non-empty")
            > pinned_lineitem_rows.first().expect("non-empty")
    );
}

#[test]
fn concurrent_workers_keep_snapshot_isolation_under_live_ingest() {
    let (midas, _, _) = Midas::example_deployment(&["lineitem", "customer"], &["orders", "part"]);
    let db = TpchDb::generate(GenConfig::new(0.002, 5));
    let tape = streaming_workload(&db, &StreamSpec::hospitals(11, 3));

    // Multiple workers, parallel fragments, and *no* drain barriers:
    // admissions race executions and ingest publishes mid-flight.
    let runtime = FederationRuntime::new(
        midas.federation(),
        midas.placement(),
        db.catalog().clone(),
        RuntimeConfig {
            workers: 4,
            ..RuntimeConfig::default()
        },
    );
    let mut queries_by_sequence = Vec::new();
    let (versions, report) = runtime.serve(|ingress| {
        let mut versions = vec![runtime.versioned_catalog().current()];
        for event in &tape {
            match event {
                StreamEvent::Query {
                    tenant,
                    sequence,
                    query,
                } => {
                    let seq = ingress.submit(RuntimeJob::new(
                        tenant,
                        (**query).clone(),
                        policy_for(tenant),
                    ));
                    assert_eq!(seq, *sequence, "tape and ingress disagree on order");
                    queries_by_sequence.push((**query).clone());
                }
                StreamEvent::Ingest { deltas, .. } => {
                    ingress.ingest_batch(deltas.clone()).expect("ingest");
                    versions.push(runtime.versioned_catalog().current());
                }
            }
        }
        versions
    });
    assert!(report.failed.is_empty(), "failures: {:?}", report.failed);
    assert_eq!(report.completed.len(), queries_by_sequence.len());
    assert!(report.ingest.bytes_shared > 0);

    // Pinned versions are monotone in admission order (the producer thread
    // interleaves submits and ingests sequentially)...
    for pair in report.completed.windows(2) {
        assert!(pair[0].pinned_version <= pair[1].pinned_version);
    }
    // ...at least one job saw post-ingest data...
    assert!(report
        .completed
        .iter()
        .any(|r| r.pinned_version > 0));
    // ...the runtime compacted none of the versions it served (checked
    // for all of them before the oracle below pins any)...
    for r in &report.completed {
        assert_eq!(
            pinned_of(&versions, r).compaction_bytes(),
            0,
            "{}: serving compacted v{}",
            r.report.label,
            r.pinned_version
        );
    }
    // ...and EVERY result is bit-identical to executing the query alone
    // against its pinned version, no matter how workers interleaved.
    for r in &report.completed {
        let expected = queries_by_sequence[r.sequence]
            .standalone_fingerprint(&pinned_of(&versions, r).pin())
            .expect("standalone oracle executes");
        assert_eq!(
            r.report.result_fingerprint, expected,
            "{}: snapshot isolation violated (pinned v{})",
            r.report.label,
            r.pinned_version
        );
    }
}

/// A hot set repeated across publishes with both cache tiers on: plan
/// and fragment hits, invalidation and re-planning over multi-chunk
/// versions, on one worker and on two. The runtime's ledger equals the
/// sequential `Reference` replaying the tape over `pin()`ned flat catalogs,
/// and no version the runtime served was compacted by it.
#[test]
fn cached_stream_over_chunked_versions_matches_the_flat_oracle() {
    let (midas, _, _) = Midas::example_deployment(&["lineitem", "customer"], &["orders", "part"]);
    let db = TpchDb::generate(GenConfig::new(0.002, 5));
    let hot = [
        q12("MAIL", "SHIP", 1994),
        q13("special", "requests"),
        q14(1995, 3),
    ];
    let mut stream = DeltaStream::new(&db, 17);
    let batches: Vec<_> = (0..4).map(|_| stream.next_batch(40).into_batch()).collect();
    // Five windows of two passes over the hot set, a publish between
    // windows; `Some(query)` submits, `None` publishes the next batch.
    let mut tape: Vec<Option<&midas_tpch::TwoTableQuery>> = Vec::new();
    for window in 0..=batches.len() {
        if window > 0 {
            tape.push(None);
        }
        tape.extend(hot.iter().chain(hot.iter()).map(Some));
    }
    let policy = QueryPolicy::balanced();
    let job = |version: u64, query: &midas_tpch::TwoTableQuery| {
        RuntimeJob::new(&format!("hospital-{}", version % 2), query.clone(), policy.clone())
    };

    let serve = |workers: usize| {
        let runtime = FederationRuntime::new(
            midas.federation(),
            midas.placement(),
            db.catalog().clone(),
            RuntimeConfig {
                workers,
                ..RuntimeConfig::default()
            },
        );
        let (versions, report) = runtime.serve(|ingress| {
            let mut versions = vec![runtime.versioned_catalog().current()];
            let mut publishes = batches.iter();
            for event in &tape {
                match event {
                    Some(query) => {
                        ingress.submit(job(ingress.version(), query));
                        ingress.drain();
                    }
                    None => {
                        let batch = publishes.next().expect("one batch per publish").clone();
                        ingress.ingest_batch(batch).expect("ingest");
                        versions.push(runtime.versioned_catalog().current());
                    }
                }
            }
            versions
        });
        assert!(report.failed.is_empty(), "failures: {:?}", report.failed);
        assert!(report.cache.plan.invalidations > 0);
        for r in &report.completed {
            let compacted = pinned_of(&versions, r).compaction_bytes();
            assert_eq!(compacted, 0, "{}: serving compacted", r.report.label);
        }
        (runtime, report)
    };
    let one = serve(1);
    let two = serve(2);
    assert!(two.1.completed.iter().any(|r| r.worker == 1), "second worker idle");

    // The oracle: the sequential reference, no caches, flat compacted
    // catalogs.
    let reference = Reference::new(&midas, db.catalog(), uncached(one.0.config()), None);
    let oracle_catalog = db.versioned_catalog();
    let mut publishes = batches.iter();
    let mut oracle = Vec::new();
    for event in &tape {
        match event {
            Some(query) => {
                let version = oracle_catalog.version();
                let pinned = oracle_catalog.current().pin();
                let ledger = reference.job(oracle.len(), &job(version, query), &pinned);
                oracle.push((version, ledger));
            }
            None => {
                let batch = publishes.next().expect("one batch per publish").clone();
                oracle_catalog.append_batch(batch).expect("ingest");
            }
        }
    }
    assert_eq!(oracle.last().expect("non-empty").0, 4);

    for (runtime, report) in [&one, &two] {
        let served = ledgers(report);
        assert_eq!(served.len(), oracle.len());
        for (i, ((r, ledger), (version, expected))) in
            report.completed.iter().zip(&served).zip(&oracle).enumerate()
        {
            assert_eq!(r.sequence, i);
            assert_eq!(r.pinned_version, *version, "{}", ledger.label);
            assert_eq!(cache_free(ledger), *expected, "{}: ledger drifted", ledger.label);
            // The second pass of a window finds every fragment cached; the
            // two worker counts agree on every job's hits.
            assert_eq!(r.cache_hits, one.1.completed[i].cache_hits, "{}", ledger.label);
            if i % (2 * hot.len()) >= hot.len() {
                assert_eq!(r.cache_hits, 3, "{}: job {i} missed", ledger.label);
            }
        }
        let workers = runtime.config().workers;
        reference.assert_end_state(runtime, report, &format!("cached stream, {workers} workers"));
    }
}

/// Row-wise prepares of `hot` over the tables every publish appends to,
/// each once: what one window after a publish extends, by construction.
fn extendable_prepares(hot: &[midas_tpch::TwoTableQuery]) -> u64 {
    let appended = ["orders", "lineitem"];
    let mut prepares: Vec<PlanFingerprint> = Vec::new();
    for plan in hot.iter().flat_map(|q| [&q.left_prepare, &q.right_prepare]) {
        let fingerprint = PlanFingerprint::of_plan(plan);
        if row_wise_table(plan).is_some_and(|t| appended.contains(&t))
            && !prepares.contains(&fingerprint)
        {
            prepares.push(fingerprint);
        }
    }
    prepares.len() as u64
}

/// Nine windows of a hot set, a publish between windows, both cache tiers
/// on: planning extends each row-wise prepare over the appended chunks,
/// exactly once per window, and every ledger is the cache-off runtime's
/// and the sequential `Reference`'s, at one worker and at two. Two workers
/// racing through whole windows — two planners of one prepare at once —
/// extend the same number of times and serve every job its own version.
#[test]
fn predecessors_extend_once_per_window_and_change_no_ledger() {
    let (midas, _, _) = Midas::example_deployment(&["lineitem", "customer"], &["orders", "part"]);
    let db = TpchDb::generate(GenConfig::new(0.002, 5));
    let hot = [
        q12("MAIL", "SHIP", 1994),
        q12("AIR", "REG AIR", 1995),
        q13("special", "requests"),
        q14(1995, 3),
        q17("Brand#23", "MED BOX"),
        q17("Brand#13", "JUMBO PKG"),
    ];
    let windows = 9;
    let mut stream = DeltaStream::new(&db, 23);
    let batches: Vec<_> = (1..windows).map(|_| stream.next_batch(40).into_batch()).collect();
    let policy = QueryPolicy::balanced();
    let job = |query: &midas_tpch::TwoTableQuery| {
        RuntimeJob::new("hospital-A", query.clone(), policy.clone())
    };
    let serve = |config: RuntimeConfig, drain_each: bool| {
        let runtime = FederationRuntime::new(
            midas.federation(),
            midas.placement(),
            db.catalog().clone(),
            config,
        );
        let (versions, report) = runtime.serve(|ingress| {
            let mut versions = vec![runtime.versioned_catalog().current()];
            for window in 0..windows {
                if window > 0 {
                    ingress.ingest_batch(batches[window - 1].clone()).expect("ingest");
                    versions.push(runtime.versioned_catalog().current());
                }
                for query in hot.iter().chain(&hot) {
                    ingress.submit(job(query));
                    if drain_each {
                        ingress.drain();
                    }
                }
                ingress.drain();
            }
            versions
        });
        assert!(report.failed.is_empty(), "failures: {:?}", report.failed);
        (runtime, versions, report)
    };
    let config = |workers| RuntimeConfig {
        workers,
        ..RuntimeConfig::default()
    };
    let one = serve(config(1), true);
    let two = serve(config(2), true);
    let cold = serve(uncached(&config(1)), true);
    let raced = serve(config(2), false);

    let extensions = extendable_prepares(&hot) * (windows as u64 - 1);
    assert_eq!(extendable_prepares(&hot), 6);
    for (ctx, (_, _, report)) in [("one", &one), ("two", &two), ("raced", &raced)] {
        let planning = report.cache.planning;
        assert_eq!(planning.extended, extensions, "{ctx}: {planning:?}");
        assert!(planning.extended_rows > 0, "{ctx}: {planning:?}");
    }
    // Drained, the planners met every prepare in the same order.
    assert_eq!(one.2.cache.planning, two.2.cache.planning);
    assert_eq!(cold.2.cache.planning, Default::default(), "no cache, no predecessors");

    let reference = Reference::new(&midas, db.catalog(), uncached(one.0.config()), None);
    let oracle_catalog = db.versioned_catalog();
    let mut oracle = Vec::new();
    for window in 0..windows {
        if window > 0 {
            oracle_catalog.append_batch(batches[window - 1].clone()).expect("ingest");
        }
        let pinned = oracle_catalog.current().pin();
        for query in hot.iter().chain(&hot) {
            oracle.push(reference.job(oracle.len(), &job(query), &pinned));
        }
    }
    let expected: Vec<Ledger> = ledgers(&cold.2).iter().map(cache_free).collect();
    assert_eq!(expected, oracle, "the cache-off runtime left the reference's ledger");
    for (ctx, (runtime, _, report)) in [("one", &one), ("two", &two)] {
        let served: Vec<Ledger> = ledgers(report).iter().map(cache_free).collect();
        assert_eq!(served, oracle, "{ctx}: ledger drifted");
        reference.assert_end_state(runtime, report, ctx);
    }
    let (_, versions, report) = &raced;
    for r in &report.completed {
        let query = &hot[r.sequence % hot.len()];
        let expected = query
            .standalone_fingerprint(&pinned_of(versions, r).pin())
            .expect("standalone oracle executes");
        assert_eq!(r.report.result_fingerprint, expected, "{}", r.report.label);
    }
}

/// Combines of `hot` whose delta state a publish appending to `orders` and
/// `lineitem` extends: a prepare reads an appended table, so the join has
/// a growing side — Q13's, Q14's and Q17's one, Q12's both, under a count
/// (R3 in `fused`'s module docs).
fn extendable_combines(hot: &[midas_tpch::TwoTableQuery]) -> u64 {
    let appended = ["orders", "lineitem"];
    let grows = |t: &str| appended.contains(&t);
    let reads = |q: &&midas_tpch::TwoTableQuery| grows(&q.left_table) || grows(&q.right_table);
    hot.iter().filter(reads).count() as u64
}

/// Nine windows of a hot set, a publish between windows, both cache tiers
/// on: planning advances the delta state of every combine — Q12's two,
/// whose join's sides both grow, Q13's, Q14's and both Q17s' — over the
/// rows their prepares appended, once per window after the first, and
/// declines none. Every ledger is the cache-off runtime's, at one worker
/// and at two.
#[test]
fn combines_extend_once_per_window_and_change_no_ledger() {
    let (midas, _, _) = Midas::example_deployment(&["lineitem", "customer"], &["orders", "part"]);
    let db = TpchDb::generate(GenConfig::new(0.002, 5));
    let hot = [
        q12("MAIL", "SHIP", 1994),
        q12("AIR", "REG AIR", 1995),
        q13("special", "requests"),
        q14(1995, 3),
        q17("Brand#23", "MED BOX"),
        q17("Brand#13", "JUMBO PKG"),
    ];
    let windows = 9;
    let mut stream = DeltaStream::new(&db, 37);
    let batches: Vec<_> = (1..windows).map(|_| stream.next_batch(40).into_batch()).collect();
    let policy = QueryPolicy::balanced();
    let serve = |config: RuntimeConfig| {
        let runtime = FederationRuntime::new(
            midas.federation(),
            midas.placement(),
            db.catalog().clone(),
            config,
        );
        let ((), report) = runtime.serve(|ingress| {
            for window in 0..windows {
                if window > 0 {
                    ingress.ingest_batch(batches[window - 1].clone()).expect("ingest");
                }
                for query in hot.iter().chain(&hot) {
                    ingress.submit(RuntimeJob::new("hospital-A", query.clone(), policy.clone()));
                    ingress.drain();
                }
            }
        });
        assert!(report.failed.is_empty(), "failures: {:?}", report.failed);
        report
    };
    let config = |workers| RuntimeConfig {
        workers,
        ..RuntimeConfig::default()
    };
    let cold = serve(uncached(&config(1)));
    let expected: Vec<Ledger> = ledgers(&cold).iter().map(cache_free).collect();
    assert_eq!(extendable_combines(&hot), 6);
    let extended = extendable_combines(&hot) * (windows as u64 - 1);
    let declined = (hot.len() as u64 - extendable_combines(&hot)) * (windows as u64 - 1);
    for workers in [1, 2] {
        let report = serve(config(workers));
        let planning = report.cache.planning;
        let ctx = format!("{workers} workers: {planning:?}");
        assert_eq!(planning.combines_extended, extended, "{ctx}");
        assert_eq!(planning.combines_declined, declined, "{ctx}");
        assert_eq!(planning.combines_computed, hot.len() as u64 + declined, "{ctx}");
        let served: Vec<Ledger> = ledgers(&report).iter().map(cache_free).collect();
        assert_eq!(served, expected, "{workers} workers: ledger drifted");
    }
    assert_eq!(cold.cache.planning, Default::default(), "no cache, no states");
}

/// A job pinned to an older version is planned after a newer job advanced
/// the predecessor of its prepares: it computes them in full over its own
/// version and leaves the predecessor where the newer job put it. The
/// newer version comes from an out-of-band append, which retires nothing.
#[test]
fn a_late_job_of_an_older_version_computes_its_own_result() {
    let (midas, _, _) = Midas::example_deployment(&["lineitem", "customer"], &["orders", "part"]);
    let db = TpchDb::generate(GenConfig::new(0.002, 5));
    let mut stream = DeltaStream::new(&db, 29);
    let (first, second) = (stream.next_batch(40), stream.next_batch(40));
    // Pacing holds the tenant's blocking job on its site for a while, so
    // the queue order below does not depend on how fast the worker is.
    let runtime = FederationRuntime::new(
        midas.federation(),
        midas.placement(),
        db.catalog().clone(),
        RuntimeConfig {
            workers: 1,
            pacing: 0.05,
            ..RuntimeConfig::default()
        },
    );
    let balanced = QueryPolicy::balanced();
    let q12 = q12("MAIL", "SHIP", 1994);
    let (versions, report) = runtime.serve(|ingress| {
        let mut versions = vec![runtime.versioned_catalog().current()];
        ingress.submit(RuntimeJob::new("hospital-A", q12.clone(), balanced.clone()));
        ingress.drain();
        // The publish keeps Q12's prepares as predecessors at version 0.
        ingress.ingest_batch(first.into_batch()).expect("ingest");
        versions.push(runtime.versioned_catalog().current());
        ingress.submit(RuntimeJob::new("hospital-B", q14(1995, 3), balanced.clone()));
        let busy = || runtime.admission_stats().iter().any(|(_, s)| s.in_use > 0);
        for _ in 0..10_000 {
            if busy() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(busy(), "the blocking job never took a site slot");
        // Queued behind its tenant's job in flight, pinned to version 1.
        ingress.submit(RuntimeJob::new("hospital-B", q12.clone(), balanced.clone()));
        runtime.versioned_catalog().append_batch(second.into_batch()).expect("append");
        versions.push(runtime.versioned_catalog().current());
        // The rotation reaches hospital-A before hospital-B's next job.
        ingress.submit(RuntimeJob::new("hospital-A", q12.clone(), balanced.clone()));
        ingress.drain();
        versions
    });
    assert!(report.failed.is_empty(), "failures: {:?}", report.failed);
    let [_, _, late, newer] = &report.completed[..] else {
        panic!("four jobs complete: {:?}", report.completed.len());
    };
    assert_eq!((late.pinned_version, newer.pinned_version), (1, 2));
    assert!(newer.completion < late.completion, "the newer job was planned first");
    for r in [late, newer] {
        let expected = q12
            .standalone_fingerprint(&pinned_of(&versions, r).pin())
            .expect("standalone oracle executes");
        assert_eq!(r.report.result_fingerprint, expected, "v{}", r.pinned_version);
    }
    // Version 2 extended both Q12 prepares over two appended chunks;
    // version 1 computed both in full, beside Q14's two and the first job's.
    let planning = report.cache.planning;
    assert_eq!((planning.extended, planning.computed), (2, 6), "{planning:?}");
}

/// Under `PerTenant` a tenant never extends another tenant's prepare: the
/// second tenant's first plan after a publish computes in full, the first
/// tenant's extends its own.
#[test]
fn per_tenant_scope_never_extends_across_tenants() {
    let (midas, _, _) = Midas::example_deployment(&["lineitem", "customer"], &["orders", "part"]);
    let db = TpchDb::generate(GenConfig::new(0.002, 5));
    let runtime = FederationRuntime::new(
        midas.federation(),
        midas.placement(),
        db.catalog().clone(),
        RuntimeConfig {
            workers: 1,
            cache_scope: midas_engines::cache::CacheScope::PerTenant,
            ..RuntimeConfig::default()
        },
    );
    let batch = DeltaStream::new(&db, 31).next_batch(40).into_batch();
    let q12 = q12("MAIL", "SHIP", 1994);
    let job = |tenant: &str| RuntimeJob::new(tenant, q12.clone(), QueryPolicy::balanced());
    let mut steps = Vec::new();
    let ((), report) = runtime.serve(|ingress| {
        ingress.submit(job("hospital-A"));
        ingress.drain();
        ingress.ingest_batch(batch).expect("ingest");
        for tenant in ["hospital-B", "hospital-A"] {
            ingress.submit(job(tenant));
            ingress.drain();
            steps.push(runtime.cache_stats().planning);
        }
    });
    assert!(report.failed.is_empty(), "failures: {:?}", report.failed);
    let (b, a) = (steps[0], steps[1]);
    assert_eq!((b.extended, b.computed), (0, 4), "B extended A's prepare: {b:?}");
    assert_eq!((a.extended, a.computed), (2, 4), "A did not extend its own: {a:?}");
    let fingerprints: Vec<u64> = report.completed.iter().map(|r| r.report.result_fingerprint).collect();
    assert_eq!(fingerprints[1], fingerprints[2], "both tenants read version 1");
}

/// The combine-level twin of the test above: under `PerTenant` the second
/// tenant's first Q17 plan after a publish computes its combine in full,
/// the first tenant's advances its own delta state.
#[test]
fn per_tenant_scope_never_extends_another_tenants_combine() {
    let (midas, _, _) = Midas::example_deployment(&["lineitem", "customer"], &["orders", "part"]);
    let db = TpchDb::generate(GenConfig::new(0.002, 5));
    let runtime = FederationRuntime::new(
        midas.federation(),
        midas.placement(),
        db.catalog().clone(),
        RuntimeConfig {
            workers: 1,
            cache_scope: midas_engines::cache::CacheScope::PerTenant,
            ..RuntimeConfig::default()
        },
    );
    let batch = DeltaStream::new(&db, 31).next_batch(40).into_batch();
    let q17 = q17("Brand#23", "MED BOX");
    let job = |tenant: &str| RuntimeJob::new(tenant, q17.clone(), QueryPolicy::balanced());
    let mut steps = Vec::new();
    let ((), report) = runtime.serve(|ingress| {
        ingress.submit(job("hospital-A"));
        ingress.drain();
        ingress.ingest_batch(batch).expect("ingest");
        for tenant in ["hospital-B", "hospital-A"] {
            ingress.submit(job(tenant));
            ingress.drain();
            steps.push(runtime.cache_stats().planning);
        }
    });
    assert!(report.failed.is_empty(), "failures: {:?}", report.failed);
    let (b, a) = (steps[0], steps[1]);
    assert_eq!((b.combines_extended, b.combines_computed), (0, 2), "B extended A's state: {b:?}");
    let a_combines = (a.combines_extended, a.combines_computed);
    assert_eq!(a_combines, (1, 2), "A did not extend its own: {a:?}");
    let fingerprints: Vec<u64> = report.completed.iter().map(|r| r.report.result_fingerprint).collect();
    assert_eq!(fingerprints[1], fingerprints[2], "both tenants read version 1");
}

/// The combine-level twin of `a_late_job_of_an_older_version_computes_its_
/// own_result`: a Q17 job pinned to version 1 is planned after a version-2
/// job advanced its combine's delta state; it declines the state, computes
/// the combine over its own version, and both results are their versions'.
#[test]
fn a_late_job_of_an_older_version_computes_its_own_combine() {
    let (midas, _, _) = Midas::example_deployment(&["lineitem", "customer"], &["orders", "part"]);
    let db = TpchDb::generate(GenConfig::new(0.002, 5));
    let mut stream = DeltaStream::new(&db, 29);
    let (first, second) = (stream.next_batch(40), stream.next_batch(40));
    let runtime = FederationRuntime::new(
        midas.federation(),
        midas.placement(),
        db.catalog().clone(),
        RuntimeConfig {
            workers: 1,
            pacing: 0.05,
            ..RuntimeConfig::default()
        },
    );
    let balanced = QueryPolicy::balanced();
    let q17 = q17("Brand#23", "MED BOX");
    let (versions, report) = runtime.serve(|ingress| {
        let mut versions = vec![runtime.versioned_catalog().current()];
        ingress.submit(RuntimeJob::new("hospital-A", q17.clone(), balanced.clone()));
        ingress.drain();
        // The publish keeps Q17's combine state at version 0.
        ingress.ingest_batch(first.into_batch()).expect("ingest");
        versions.push(runtime.versioned_catalog().current());
        ingress.submit(RuntimeJob::new("hospital-B", q14(1995, 3), balanced.clone()));
        let busy = || runtime.admission_stats().iter().any(|(_, s)| s.in_use > 0);
        for _ in 0..10_000 {
            if busy() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(busy(), "the blocking job never took a site slot");
        // Queued behind its tenant's job in flight, pinned to version 1.
        ingress.submit(RuntimeJob::new("hospital-B", q17.clone(), balanced.clone()));
        runtime.versioned_catalog().append_batch(second.into_batch()).expect("append");
        versions.push(runtime.versioned_catalog().current());
        // The rotation reaches hospital-A before hospital-B's next job.
        ingress.submit(RuntimeJob::new("hospital-A", q17.clone(), balanced.clone()));
        ingress.drain();
        versions
    });
    assert!(report.failed.is_empty(), "failures: {:?}", report.failed);
    let [_, _, late, newer] = &report.completed[..] else {
        panic!("four jobs complete: {:?}", report.completed.len());
    };
    assert_eq!((late.pinned_version, newer.pinned_version), (1, 2));
    assert!(newer.completion < late.completion, "the newer job was planned first");
    for r in [late, newer] {
        let expected = q17
            .standalone_fingerprint(&pinned_of(&versions, r).pin())
            .expect("standalone oracle executes");
        assert_eq!(r.report.result_fingerprint, expected, "v{}", r.pinned_version);
    }
    // Version 2 advanced the state kept at version 0; version 1 declined
    // it and computed in full, beside the first job's and Q14's.
    let planning = report.cache.planning;
    let combines =
        (planning.combines_extended, planning.combines_computed, planning.combines_declined);
    assert_eq!(combines, (1, 3, 1), "{planning:?}");
}

#[test]
fn round_robin_service_prevents_tenant_starvation() {
    let (midas, _, _) = Midas::example_deployment(&["patient"], &["generalinfo"]);
    let catalog = generate_medical(300, 0.5, 21);
    let runtime = FederationRuntime::new(
        midas.federation(),
        midas.placement(),
        catalog,
        RuntimeConfig {
            workers: 1,
            max_vms: 2,
            ..RuntimeConfig::default()
        },
    );

    // A chatty tenant floods 8 jobs before a quiet tenant's 2 arrive.
    let mut jobs = Vec::new();
    for _ in 0..8 {
        jobs.push(RuntimeJob::new(
            "chatty",
            medical_query(Some("CT")),
            QueryPolicy::balanced(),
        ));
    }
    for _ in 0..2 {
        jobs.push(RuntimeJob::new(
            "quiet",
            medical_query(Some("MR")),
            QueryPolicy::fastest(),
        ));
    }
    let report = runtime.run(jobs);
    assert!(report.failed.is_empty(), "failures: {:?}", report.failed);
    assert_eq!(report.completed.len(), 10);

    let quiet_completions: Vec<usize> = report
        .completed
        .iter()
        .filter(|r| r.tenant == "quiet")
        .map(|r| r.completion)
        .collect();
    // Round-robin interleaves: chatty, quiet, chatty, quiet, chatty, …
    // Under strict FIFO the quiet tenant would finish 9th and 10th
    // (completions {8, 9}); fairness bounds it to one chatty job ahead of
    // each quiet job.
    assert_eq!(
        quiet_completions,
        vec![1, 3],
        "quiet tenant starved: completions {quiet_completions:?}"
    );
    // Within one tenant, submission order is preserved.
    let chatty_completions: Vec<usize> = report
        .completed
        .iter()
        .filter(|r| r.tenant == "chatty")
        .map(|r| r.completion)
        .collect();
    let mut sorted = chatty_completions.clone();
    sorted.sort_unstable();
    assert_eq!(chatty_completions, sorted);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The ISSUE's snapshot-isolation property: interleave ingest batches
    /// with queries at random, and every query's result must match its
    /// pinned version's standalone execution — with 2 workers and parallel
    /// fragments on, so executions genuinely overlap ingest.
    #[test]
    fn random_interleavings_preserve_snapshot_isolation(
        seed in 0u64..1000,
        ops in proptest::collection::vec((0usize..5, 10usize..60), 3..9),
    ) {
        let (midas, _, _) = Midas::example_deployment(&["patient"], &["generalinfo"]);
        let base_patients = 150usize;
        let catalog = generate_medical(base_patients, 0.5, seed);
        let runtime = FederationRuntime::new(
            midas.federation(),
            midas.placement(),
            catalog,
            RuntimeConfig {
                workers: 2,
                max_vms: 2,
                seed,
                ..RuntimeConfig::default()
            },
        );

        let modalities = ["CT", "MR", "US", "XR", "PET"];
        let mut queries = Vec::new();
        let (versions, report) = runtime.serve(|ingress| {
            let mut versions = vec![runtime.versioned_catalog().current()];
            let mut next_uid = base_patients as i64;
            for (i, &(kind, size)) in ops.iter().enumerate() {
                if kind == 0 {
                    // Ingest a wave of new admissions.
                    let delta = medical_delta(size, 0.5, seed ^ (i as u64) << 17, next_uid);
                    next_uid += size as i64;
                    ingress.ingest_batch(delta).expect("ingest");
                    versions.push(runtime.versioned_catalog().current());
                } else {
                    // Submit a tenant query (kind picks the modality).
                    let query = medical_query(Some(modalities[kind % modalities.len()]));
                    let tenant = if kind % 2 == 0 { "clinic-A" } else { "clinic-B" };
                    ingress.submit(RuntimeJob::new(tenant, query.clone(), policy_for(tenant)));
                    queries.push(query);
                }
            }
            versions
        });
        prop_assert!(report.failed.is_empty(), "failures: {:?}", report.failed);
        prop_assert_eq!(report.completed.len(), queries.len());
        prop_assert!(report.ingest.appends == 0 || report.ingest.bytes_shared > 0);
        for r in &report.completed {
            let expected = queries[r.sequence]
                .standalone_fingerprint(&pinned_of(&versions, r).pin())
                .expect("standalone oracle executes");
            prop_assert_eq!(
                r.report.result_fingerprint,
                expected,
                "{} pinned v{}",
                r.report.label,
                r.pinned_version
            );
        }
        // Versions pinned are monotone in admission order.
        for pair in report.completed.windows(2) {
            prop_assert!(pair[0].pinned_version <= pair[1].pinned_version);
        }
    }
}
