//! The live-data harness of the streaming [`FederationRuntime`]:
//!
//! 1. **Sequential oracle parity** — a 1-worker streaming runtime consuming
//!    the deterministic ingest/query tape must reproduce, bit-for-bit, a
//!    sequential `MidasSession` replaying the *same* admission/ingest
//!    interleaving against its own copy-on-write catalog: identical plans,
//!    predicted/observed costs, result fingerprints, learned histories and
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

use midas::runtime::{FederationRuntime, RuntimeConfig, RuntimeJob};
use midas::{Midas, QueryPolicy};
use midas_tpch::gen::{DeltaStream, GenConfig, TpchDb};
use midas_tpch::medical::{generate_medical, medical_delta, medical_query};
use midas_tpch::queries::{q12, q13, q14};
use midas_tpch::stream::{streaming_workload, StreamEvent, StreamSpec};
use proptest::prelude::*;

/// The per-tenant policy mix the benches use.
fn policy_for(tenant: &str) -> QueryPolicy {
    match tenant {
        "hospital-A" => QueryPolicy::balanced(),
        "hospital-B" => QueryPolicy::fastest(),
        "hospital-C" => QueryPolicy::cheapest(),
        _ => QueryPolicy::balanced().with_money_budget(100.0),
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

    // Oracle side: a sequential session replaying the same tape against
    // its own copy-on-write catalog.
    let mut session = midas.session();
    let oracle_catalog = db.versioned_catalog();
    let mut legacy = Vec::new();
    let mut expected_versions = Vec::new();
    let mut pinned_lineitem_rows = Vec::new();
    for event in &tape {
        match event {
            StreamEvent::Query { tenant, query, .. } => {
                expected_versions.push(oracle_catalog.version());
                let pinned = oracle_catalog.current().pin();
                pinned_lineitem_rows
                    .push(pinned.get("lineitem").map_or(0, |t| t.n_rows()));
                legacy.push(
                    session
                        .submit(query, &pinned, &policy_for(tenant))
                        .expect("sequential submit succeeds"),
                );
            }
            StreamEvent::Ingest { deltas, .. } => {
                oracle_catalog.append_batch(deltas.clone()).expect("ingest");
            }
        }
    }

    assert_eq!(report.completed.len(), legacy.len());
    for ((concurrent, sequential), version) in report
        .completed
        .iter()
        .zip(legacy.iter())
        .zip(expected_versions.iter())
    {
        let c = &concurrent.report;
        assert_eq!(
            concurrent.pinned_version(),
            *version,
            "{}: pinned the wrong catalog version",
            c.label
        );
        assert_eq!(c.label, sequential.label);
        assert_eq!(c.chosen, sequential.chosen, "{}: plan drifted", c.label);
        // Bit-for-bit, not approximate: both paths must take the exact
        // same arithmetic through costing, selection, simulation, learning.
        assert_eq!(c.predicted_costs, sequential.predicted_costs, "{}", c.label);
        assert_eq!(c.actual_costs, sequential.actual_costs, "{}", c.label);
        assert_eq!(c.dream_window, sequential.dream_window, "{}", c.label);
        assert_eq!(c.result_rows, sequential.result_rows, "{}", c.label);
        assert_eq!(
            c.result_fingerprint, sequential.result_fingerprint,
            "{}: result drifted",
            c.label
        );
    }

    // The simulated world and the learned state ended identically.
    assert_eq!(runtime.clock_s(), session.clock_s());
    for class in runtime.registry().class_names() {
        let shared = runtime.registry().get(&class).expect("class exists");
        let shared = shared.lock().expect("modelling lock");
        let sequential = session
            .modelling(&class)
            .unwrap_or_else(|| panic!("oracle never saw {class}"));
        assert_eq!(shared.history().len(), sequential.history().len());
        for (a, b) in shared
            .history()
            .all()
            .iter()
            .zip(sequential.history().all().iter())
        {
            assert_eq!(a.features, b.features, "{class}: features drifted");
            assert_eq!(a.costs, b.costs, "{class}: costs drifted");
        }
    }

    // Both catalogs published the same number of versions, and later
    // queries saw strictly more data than version-0 queries.
    assert_eq!(report.catalog_version, oracle_catalog.version());
    assert!(report.ingest.bytes_shared > 0);
    let first = &report.completed[0];
    let last = report.completed.last().expect("non-empty");
    assert!(last.pinned_version() > first.pinned_version());
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
            retain_pinned_snapshots: true,
            ..RuntimeConfig::default()
        },
    );
    let mut queries_by_sequence = Vec::new();
    let ((), report) = runtime.serve(|ingress| {
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
                }
            }
        }
    });
    assert!(report.failed.is_empty(), "failures: {:?}", report.failed);
    assert_eq!(report.completed.len(), queries_by_sequence.len());
    assert!(report.ingest.bytes_shared > 0);

    // Pinned versions are monotone in admission order (the producer thread
    // interleaves submits and ingests sequentially)...
    for pair in report.completed.windows(2) {
        assert!(pair[0].pinned_version() <= pair[1].pinned_version());
    }
    // ...at least one job saw post-ingest data...
    assert!(report
        .completed
        .iter()
        .any(|r| r.pinned_version() > 0));
    // ...the runtime compacted none of the versions it served (checked
    // for all of them before the oracle below pins any)...
    let pinned_of = |r: &midas::runtime::TenantReport| {
        r.pinned
            .clone()
            .expect("retain_pinned_snapshots is on for this runtime")
    };
    for r in &report.completed {
        assert_eq!(
            pinned_of(r).compaction_bytes(),
            0,
            "{}: serving compacted v{}",
            r.report.label,
            r.pinned_version()
        );
    }
    // ...and EVERY result is bit-identical to executing the query alone
    // against its pinned version, no matter how workers interleaved.
    for r in &report.completed {
        let pinned = pinned_of(r);
        let expected = queries_by_sequence[r.sequence]
            .standalone_fingerprint(&pinned.pin())
            .expect("standalone oracle executes");
        assert_eq!(
            r.report.result_fingerprint, expected,
            "{}: snapshot isolation violated (pinned v{})",
            r.report.label,
            r.pinned_version()
        );
    }
}

/// A hot set repeated across publishes with both cache tiers on: plan
/// and fragment hits, invalidation and re-planning over multi-chunk
/// versions, on one worker and on two. The runtime's ledger equals a
/// `MidasSession` replaying the tape over `pin()`ned flat catalogs, and no
/// version the runtime served was compacted by it.
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

    let serve = |workers: usize| {
        let runtime = FederationRuntime::new(
            midas.federation(),
            midas.placement(),
            db.catalog().clone(),
            RuntimeConfig {
                workers,
                retain_pinned_snapshots: true,
                ..RuntimeConfig::default()
            },
        );
        let ((), report) = runtime.serve(|ingress| {
            let mut publishes = batches.iter();
            for event in &tape {
                match event {
                    Some(query) => {
                        let tenant = format!("hospital-{}", ingress.version() % 2);
                        ingress.submit(RuntimeJob::new(&tenant, (*query).clone(), policy.clone()));
                        ingress.drain();
                    }
                    None => {
                        let batch = publishes.next().expect("one batch per publish").clone();
                        ingress.ingest_batch(batch).expect("ingest");
                    }
                }
            }
        });
        assert!(report.failed.is_empty(), "failures: {:?}", report.failed);
        assert!(report.cache.plan.invalidations > 0);
        (report, runtime.clock_s())
    };
    let (one, one_clock) = serve(1);
    let (two, two_clock) = serve(2);
    for report in [&one, &two] {
        for r in &report.completed {
            let pinned = r.pinned.as_ref().expect("retained");
            assert_eq!(pinned.compaction_bytes(), 0, "{}: serving compacted", r.report.label);
        }
    }
    assert!(two.completed.iter().any(|r| r.worker == 1), "second worker idle");

    // The oracle: a sequential session, no caches, flat compacted catalogs.
    let mut session = midas.session();
    let oracle_catalog = db.versioned_catalog();
    let mut publishes = batches.iter();
    let mut oracle = Vec::new();
    for event in &tape {
        match event {
            Some(query) => {
                let pinned = oracle_catalog.current().pin();
                oracle.push((
                    oracle_catalog.version(),
                    session.submit(query, &pinned, &policy).expect("submits"),
                ));
            }
            None => {
                let batch = publishes.next().expect("one batch per publish").clone();
                oracle_catalog.append_batch(batch).expect("ingest");
            }
        }
    }
    assert_eq!(oracle.last().expect("non-empty").0, 4);

    for (report, clock) in [(&one, one_clock), (&two, two_clock)] {
        assert_eq!(report.completed.len(), oracle.len());
        for (i, (r, (version, expected))) in report.completed.iter().zip(&oracle).enumerate() {
            let c = &r.report;
            assert_eq!(r.sequence, i);
            assert_eq!(r.pinned_version(), *version, "{}", c.label);
            assert_eq!(c.chosen, expected.chosen, "{}: plan drifted", c.label);
            assert_eq!(c.predicted_costs, expected.predicted_costs, "{}", c.label);
            assert_eq!(c.actual_costs, expected.actual_costs, "{}", c.label);
            assert_eq!(c.dream_window, expected.dream_window, "{}", c.label);
            assert_eq!(c.result_rows, expected.result_rows, "{}", c.label);
            assert_eq!(c.result_fingerprint, expected.result_fingerprint, "{}", c.label);
            assert_eq!(c.catalog_shared_bytes, expected.catalog_shared_bytes, "{}", c.label);
            // The second pass of a window finds every fragment cached; the
            // two worker counts agree on every job's hits.
            assert_eq!(r.cache_hits, one.completed[i].cache_hits, "{}", c.label);
            if i % (2 * hot.len()) >= hot.len() {
                assert_eq!(r.cache_hits, 3, "{}: job {i} missed", c.label);
            }
        }
        assert_eq!(clock, session.clock_s());
    }
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
                retain_pinned_snapshots: true,
                ..RuntimeConfig::default()
            },
        );

        let modalities = ["CT", "MR", "US", "XR", "PET"];
        let mut queries = Vec::new();
        let ((), report) = runtime.serve(|ingress| {
            let mut next_uid = base_patients as i64;
            for (i, &(kind, size)) in ops.iter().enumerate() {
                if kind == 0 {
                    // Ingest a wave of new admissions.
                    let delta = medical_delta(size, 0.5, seed ^ (i as u64) << 17, next_uid);
                    next_uid += size as i64;
                    ingress.ingest_batch(delta).expect("ingest");
                } else {
                    // Submit a tenant query (kind picks the modality).
                    let query = medical_query(Some(modalities[kind % modalities.len()]));
                    let tenant = if kind % 2 == 0 { "clinic-A" } else { "clinic-B" };
                    ingress.submit(RuntimeJob::new(tenant, query.clone(), policy_for(tenant)));
                    queries.push(query);
                }
            }
        });
        prop_assert!(report.failed.is_empty(), "failures: {:?}", report.failed);
        prop_assert_eq!(report.completed.len(), queries.len());
        prop_assert!(report.ingest.appends == 0 || report.ingest.bytes_shared > 0);
        for r in &report.completed {
            let pinned = r
                .pinned
                .as_ref()
                .expect("retain_pinned_snapshots is on for this runtime");
            let expected = queries[r.sequence]
                .standalone_fingerprint(&pinned.pin())
                .expect("standalone oracle executes");
            prop_assert_eq!(
                r.report.result_fingerprint,
                expected,
                "{} pinned v{}",
                r.report.label,
                r.pinned_version()
            );
        }
        // Versions pinned are monotone in admission order.
        for pair in report.completed.windows(2) {
            prop_assert!(pair[0].pinned_version() <= pair[1].pinned_version());
        }
    }
}
