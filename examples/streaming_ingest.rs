//! Live hospital ingest while tenants query: the streaming `Ingress` API.
//!
//! The paper's federation never stops admitting patients — new records
//! arrive *while* other hospitals run their analytic queries. This example
//! drives the [`FederationRuntime`]'s streaming mode end to end:
//!
//! 1. the runtime owns a copy-on-write **versioned catalog** (version 0 =
//!    the initial registry);
//! 2. a producer thread interleaves tenant queries (`ingress.submit`) with
//!    admission waves (`ingress.ingest_batch`) while 2 workers drain;
//! 3. each job *pins* the catalog version current at admission — early
//!    queries keep their snapshot bit-for-bit, later ones see the new
//!    patients — and appending a wave recopies **zero** bytes of prior
//!    data (the chunks are `Arc`-shared).
//!
//! ```text
//! cargo run --release --example streaming_ingest
//! ```
//!
//! [`FederationRuntime`]: midas::runtime::FederationRuntime

use midas_repro::midas::runtime::{FederationRuntime, RuntimeConfig, RuntimeJob};
use midas_repro::midas::{Midas, QueryPolicy};
use midas_repro::tpch::medical::{generate_medical, medical_delta, medical_query};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (midas, _a, _b) = Midas::example_deployment(&["patient"], &["generalinfo"]);

    // The registry at opening time: 2 000 patients, 40% with shared records.
    let base_patients = 2_000usize;
    let catalog = generate_medical(base_patients, 0.4, 7);
    println!(
        "version 0: {} patients, {} shared general-info records\n",
        catalog.try_get("patient")?.n_rows(),
        catalog.try_get("generalinfo")?.n_rows()
    );

    let runtime = FederationRuntime::new(
        midas.federation(),
        midas.placement(),
        catalog,
        RuntimeConfig {
            workers: 2,
            max_vms: 4,
            ..RuntimeConfig::default()
        },
    );

    // A day at the clinic: each "hour", two tenants query the registry and
    // one admission wave of 150 patients arrives.
    let modalities = ["CT", "MR", "US", "XR"];
    // The producer keeps every version it publishes (index = version
    // number) so the printout below can count the patients each job saw.
    let (versions, report) = runtime.serve(|ingress| {
        let mut versions = vec![runtime.versioned_catalog().current()];
        let mut next_uid = base_patients as i64;
        for hour in 0..4 {
            ingress.submit(RuntimeJob::new(
                "clinic-A",
                medical_query(Some(modalities[hour % modalities.len()])),
                QueryPolicy::fastest(),
            ));
            ingress.submit(RuntimeJob::new(
                "clinic-B",
                medical_query(None),
                QueryPolicy::cheapest(),
            ));
            let receipt = ingress
                .ingest_batch(medical_delta(150, 0.4, 100 + hour as u64, next_uid))
                .expect("admission wave ingests");
            versions.push(runtime.versioned_catalog().current());
            next_uid += 150;
            println!(
                "hour {hour}: published catalog v{} (+{} rows, {} prior bytes shared)",
                receipt.version,
                receipt.stats.delta_rows,
                receipt.stats.shared_bytes,
            );
        }
        // Wait for the backlog before the "evening report".
        ingress.drain();
        versions
    });
    let patients = |version: u64| versions[version as usize].table_rows("patient").unwrap_or(0);

    println!("\ncompleted {} queries, {} failed", report.completed.len(), report.failed.len());
    println!(
        "catalog at v{}; ingest totals: {} rows in {} versions, {} prior bytes Arc-shared",
        report.catalog_version,
        report.ingest.rows_ingested,
        report.ingest.versions_published,
        report.ingest.bytes_shared
    );
    for r in &report.completed {
        println!(
            "  #{:<2} {:<22} {:<9} pinned v{} ({} patients visible) -> {} rows, {:.2} s / ${:.5}",
            r.sequence,
            r.report.label,
            r.tenant,
            r.pinned_version,
            patients(r.pinned_version),
            r.report.result_rows,
            r.report.actual_costs[0],
            r.report.actual_costs[1],
        );
    }

    // Snapshot isolation, visibly: the same all-modalities query returns
    // more rows at the head version than at version 0.
    let early = report
        .completed
        .iter()
        .find(|r| r.pinned_version == 0)
        .expect("some job pinned version 0");
    let late = report
        .completed
        .iter()
        .rev()
        .find(|r| r.pinned_version > 0)
        .expect("some job admitted after an ingest");
    println!(
        "\nsnapshot isolation: v{} saw {} patients, v{} saw {}",
        early.pinned_version,
        patients(early.pinned_version),
        late.pinned_version,
        patients(late.pinned_version),
    );
    Ok(())
}
