//! Example 2.1 from the paper: a medical query over a cloud federation.
//!
//! ```sql
//! SELECT p.PatientSex, i.GeneralNames
//! FROM Patient p, GeneralInfo i
//! WHERE p.UID = i.UID
//! ```
//!
//! `Patient` is stored in cloud A under Hive; `GeneralInfo` (records shared
//! by other clinics for mobile patients) in cloud B under PostgreSQL. The
//! example contrasts user policies — fastest, cheapest, and budgeted — and
//! shows the money/time trade-off Table 1's pricing creates.
//!
//! ```text
//! cargo run --release --example medical_federation
//! ```

use midas_repro::midas::{Midas, QueryPolicy, RuntimeJob};
use midas_repro::tpch::medical::{generate_medical, medical_query};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let (midas, _a, _b) = Midas::example_deployment(&["patient"], &["generalinfo"]);

    // A registry of 5 000 patients; 40% have shared records from other
    // clinics (the paper's mobile-patient motivation).
    let tables = generate_medical(5_000, 0.4, 7);
    println!(
        "patient registry: {} patients, {} shared general-info records",
        tables.try_get("patient")?.n_rows(),
        tables.try_get("generalinfo")?.n_rows()
    );

    // The same query under three policies, then a clinic workload of
    // modality-filtered variants arriving over the day. One worker serves
    // them in submission order while DREAM learns the class's cost model.
    let policies = [
        ("fastest", QueryPolicy::fastest()),
        ("cheapest", QueryPolicy::cheapest()),
        ("balanced + $0.02 budget", QueryPolicy::balanced().with_money_budget(0.02)),
    ];
    let modalities = ["CT", "MR", "US", "XR", "PET", "CT", "MR", "US"];
    let jobs = policies
        .iter()
        .map(|(_, policy)| RuntimeJob::new("clinic", medical_query(None), policy.clone()))
        .chain(modalities.iter().map(|&modality| {
            RuntimeJob::new("clinic", medical_query(Some(modality)), QueryPolicy::balanced())
        }))
        .collect();
    let runtime = midas.runtime(&tables, 1);
    let served = runtime.run(jobs);
    if let Some(failed) = served.failed.first() {
        return Err(failed.error.clone().into());
    }
    let (by_policy, workload) = served.completed.split_at(policies.len());

    for ((name, _), r) in policies.iter().zip(by_policy) {
        let report = &r.report;
        println!(
            "\npolicy {name}:\n  chosen from {} plans (Pareto set {})\n  predicted {:.2} s / ${:.5}   observed {:.2} s / ${:.5}   rows {}",
            report.space_size,
            report.pareto_size,
            report.predicted_costs[0],
            report.predicted_costs[1],
            report.actual_costs[0],
            report.actual_costs[1],
            report.result_rows
        );
    }

    println!("\nclinic workload (DREAM learning online):");
    for r in workload {
        println!("  {:28} observed {:6.2} s", r.report.label, r.report.actual_costs[0]);
    }
    // The class's fit, made once when the report was built.
    for class in &served.learning {
        println!("  DREAM {class}");
    }
    println!(
        "\nsimulated clock after the workload: {:.0} s",
        runtime.clock_s()
    );
    Ok(())
}
