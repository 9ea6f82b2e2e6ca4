//! The multi-tenant caching layer, driven through the public API.
//!
//! Sixteen hospital tenants keep re-issuing the same handful of medical
//! queries — the textbook fragment-cache workload. This example plays
//! three acts:
//!
//! 1. **cold → warm** — the same batch served twice by one runtime under
//!    the default [`CacheScope::FederationGlobal`]: the second pass is
//!    answered entirely from the shared fragment result cache
//!    (bit-identical to recomputation, the differential suites pin that),
//!    and the warm throughput shows it;
//! 2. **the privacy knob** — the identical workload under
//!    [`CacheScope::PerTenant`]: results never cross a tenant boundary,
//!    so each tenant warms its own private entries and the first service
//!    per tenant is cold again;
//! 3. **freshness** — an ingest publish retires the affected catalog
//!    version's entries; the re-issued query recomputes against the new
//!    admissions instead of being served yesterday's snapshot.
//!
//! ```text
//! cargo run --release --example cached_federation
//! ```
//!
//! [`CacheScope::FederationGlobal`]: midas_repro::engines::CacheScope
//! [`CacheScope::PerTenant`]: midas_repro::engines::CacheScope

use midas_repro::engines::CacheScope;
use midas_repro::midas::runtime::{FederationRuntime, RuntimeConfig, RuntimeJob};
use midas_repro::midas::{Midas, QueryPolicy};
use midas_repro::tpch::medical::{generate_medical, medical_delta, medical_query};

const TENANTS: usize = 16;
const ROUNDS: usize = 4;
const PATIENTS: usize = 2_000;

/// Each of the 16 hospitals re-issues one modality query per round — a
/// few distinct query shapes shared by many tenants.
fn workload() -> Vec<RuntimeJob> {
    let modalities = ["CT", "MR", "US", "XR", "PET"];
    let mut jobs = Vec::new();
    for round in 0..ROUNDS {
        for tenant in 0..TENANTS {
            jobs.push(RuntimeJob::new(
                &format!("hospital-{tenant:02}"),
                medical_query(Some(modalities[(tenant + round) % modalities.len()])),
                QueryPolicy::balanced(),
            ));
        }
    }
    jobs
}

fn runtime_with_scope(midas: &Midas, scope: CacheScope) -> FederationRuntime<'_> {
    FederationRuntime::new(
        midas.federation(),
        midas.placement(),
        generate_medical(PATIENTS, 0.5, 42),
        RuntimeConfig {
            workers: 2,
            max_vms: 2,
            cache_scope: scope,
            ..RuntimeConfig::default()
        },
    )
}

fn main() {
    let (midas, _, _) = Midas::example_deployment(&["patient"], &["generalinfo"]);
    let jobs = workload();
    let n_jobs = jobs.len();

    // Act 1: cold pass, then the identical batch served warm.
    let shared = runtime_with_scope(&midas, CacheScope::FederationGlobal);
    let cold = shared.run(jobs.clone());
    assert!(cold.failed.is_empty(), "failures: {:?}", cold.failed);
    let after_cold = shared.cache_stats();
    let warm = shared.run(jobs.clone());
    assert!(warm.failed.is_empty());
    let after_warm = shared.cache_stats();

    println!("act 1 — federation-global sharing, {TENANTS} tenants x {ROUNDS} rounds:");
    println!(
        "  cold pass: {:>7.1} qps  ({} fragment computations, {} shared hits)",
        cold.throughput_qps, after_cold.fragment.misses, after_cold.fragment.hits
    );
    let warm_hits = after_warm.fragment.hits - after_cold.fragment.hits;
    let warm_misses = after_warm.fragment.misses - after_cold.fragment.misses;
    println!(
        "  warm pass: {:>7.1} qps  ({warm_misses} computations, {warm_hits} hits — {:.1}x)",
        warm.throughput_qps,
        warm.throughput_qps / cold.throughput_qps
    );
    assert_eq!(warm_misses, 0, "the warm pass should be all hits");
    assert_eq!(warm_hits, 3 * n_jobs as u64);
    // Identical distinct queries across tenants computed only once even
    // in the cold pass: the federation shares fragments tenant-to-tenant.
    assert!(after_cold.fragment.hits > 0, "cold pass never shared across tenants");

    // Act 2: the privacy knob. Same workload, per-tenant scope — tenants
    // never observe each other's cache entries (results, like records,
    // stay inside the tenant boundary).
    let private = runtime_with_scope(&midas, CacheScope::PerTenant);
    let report = private.run(jobs.clone());
    assert!(report.failed.is_empty());
    let stats = private.cache_stats();
    println!("\nact 2 — per-tenant privacy scope, same workload:");
    println!(
        "  {} fragment computations vs {} under sharing — every tenant warms its own entries",
        stats.fragment.misses, after_cold.fragment.misses
    );
    println!(
        "  {} hits, all of them tenant-local re-issues",
        stats.fragment.hits
    );
    assert!(
        stats.fragment.misses > after_cold.fragment.misses,
        "per-tenant scope must recompute what sharing would have reused"
    );
    // Per-tenant entries keyed apart: each tenant's first service of a
    // query shape is a miss even though 15 other tenants ran it already.
    let first_services: usize = report
        .completed
        .iter()
        .filter(|r| r.cache_hits == 0)
        .count();
    assert!(first_services >= TENANTS, "cross-tenant sharing leaked through the scope");

    // Act 3: freshness. Publish an admissions wave, then re-issue: the
    // affected version's entries are invalidated, the query recomputes
    // against the new catalog version — never a stale snapshot.
    let before = shared.cache_stats();
    let ((), _report) = shared.serve(|ingress| {
        let receipt = ingress
            .ingest_batch(medical_delta(500, 0.5, 7, PATIENTS as i64))
            .expect("ingest");
        println!(
            "\nact 3 — published catalog v{} ({} new patients):",
            receipt.version, 500
        );
    });
    let invalidated = shared.cache_stats();
    println!(
        "  {} cached fragments invalidated by the publish",
        invalidated.fragment.invalidations - before.fragment.invalidations
    );
    assert!(invalidated.fragment.invalidations > before.fragment.invalidations);

    let fresh = shared.run(vec![RuntimeJob::new(
        "hospital-00",
        medical_query(Some("CT")),
        QueryPolicy::balanced(),
    )]);
    assert!(fresh.failed.is_empty());
    let served = &fresh.completed[0];
    println!(
        "  re-issued CT query pinned v{} and recomputed ({} cached fragments used)",
        served.pinned_version,
        served.cache_hits
    );
    assert_eq!(served.pinned_version, 1, "the re-issue must see the new version");
    assert_eq!(served.cache_hits, 0, "stale entries must not serve the new version");

    println!(
        "\nshared results, tenant privacy on a knob, publish-exact invalidation — \
         and every cached answer bit-identical to recomputation"
    );
}
