//! Quickstart: stand up a two-cloud federation, run one federated TPC-H
//! query through the full MIDAS pipeline, and inspect the report.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use midas_repro::midas::{Midas, QueryPolicy, RuntimeJob};
use midas_repro::tpch::gen::{GenConfig, TpchDb};
use midas_repro::tpch::queries::q12;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A federation shaped like the paper's running example: lineitem lives
    // in cloud A (Amazon catalog, Hive), orders in cloud B (Azure catalog,
    // PostgreSQL), joined by a WAN link.
    let (midas, _cloud_a, _cloud_b) = Midas::example_deployment(&["lineitem"], &["orders"]);

    // A small deterministic TPC-H database.
    let db = TpchDb::generate(GenConfig::new(0.01, 42));
    println!(
        "generated TPC-H SF 0.01: {} lineitems, {} orders ({} KiB total)",
        db.table("lineitem").expect("generated").n_rows(),
        db.table("orders").expect("generated").n_rows(),
        db.total_bytes() / 1024
    );

    // Submit Q12 with a balanced time/money policy, then six more
    // instances of the same query class, to a one-worker runtime that
    // serves them in order. For each it enumerates the QEP space, costs
    // every candidate, builds the Pareto set, picks a plan with Algorithm 2,
    // executes it on the simulated engines and records the observation for
    // DREAM, which fits the class once when the report is built.
    let years = [1995, 1996, 1997, 1993, 1994, 1995];
    let first = RuntimeJob::new("clinic", q12("MAIL", "SHIP", 1994), QueryPolicy::balanced());
    let jobs = std::iter::once(first)
        .chain(years.iter().map(|&year| {
            RuntimeJob::new("clinic", q12("AIR", "RAIL", year), QueryPolicy::fastest())
        }))
        .collect();
    let served = midas.runtime(db.catalog(), 1).run(jobs);
    if let Some(failed) = served.failed.first() {
        return Err(failed.error.clone().into());
    }
    let report = &served.completed[0].report;

    println!("\n{}", report.label);
    println!("  QEP space          : {} equivalent plans", report.space_size);
    println!("  Pareto plan set    : {} plans", report.pareto_size);
    println!(
        "  predicted (t, $)   : {:.2} s, ${:.5}",
        report.predicted_costs[0], report.predicted_costs[1]
    );
    println!(
        "  observed  (t, $)   : {:.2} s, ${:.5}",
        report.actual_costs[0], report.actual_costs[1]
    );
    println!("  result rows        : {}", report.result_rows);

    for (year, r) in years.iter().zip(&served.completed[1..]) {
        println!("year {year}: observed {:.2} s", r.report.actual_costs[0]);
    }
    // DREAM comes online once the class's history reaches L + 2
    // observations; seven runs are enough.
    for class in &served.learning {
        println!("DREAM {class}");
    }
    Ok(())
}
