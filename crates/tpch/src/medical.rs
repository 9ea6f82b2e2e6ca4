//! The medical schema of Example 2.1.
//!
//! ```sql
//! SELECT p.PatientSex, i.GeneralNames
//! FROM Patient p, GeneralInfo i
//! WHERE p.UID = i.UID
//! ```
//!
//! `Patient` lives in cloud A under Hive, `GeneralInfo` in cloud B under
//! PostgreSQL. The generator emulates a DICOM-flavoured registry: a hospital
//! has a `Patient` row per admitted patient and `GeneralInfo` rows shared
//! from other clinics for a subset of them (mobile patients).

use crate::queries::{QueryId, TwoTableQuery};
use midas_engines::data::{Column, ColumnData, Table};
use midas_engines::expr::Expr;
use midas_engines::ops::{JoinType, PhysicalPlan};
use midas_engines::version::VersionedCatalog;
use midas_engines::Catalog;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Generates `patient` and `generalinfo` tables.
///
/// `coverage` is the fraction of patients that have shared general-info
/// records (mobile patients seen elsewhere).
pub fn generate_medical(n_patients: usize, coverage: f64, seed: u64) -> Catalog {
    let (patient, generalinfo) = medical_tables(n_patients, coverage, seed, 0);
    let mut m = Catalog::new();
    m.insert("patient", patient);
    m.insert("generalinfo", generalinfo);
    m
}

/// [`generate_medical`] as the base version of a copy-on-write
/// [`VersionedCatalog`]; successive [`medical_delta`] batches publish new
/// admissions while pinned queries keep their snapshot.
pub fn generate_medical_versioned(n_patients: usize, coverage: f64, seed: u64) -> VersionedCatalog {
    VersionedCatalog::new(generate_medical(n_patients, coverage, seed))
}

/// An ingest delta of `n_new` freshly admitted patients whose UIDs start at
/// `start_uid + 1`, plus their shared general-info records (the same
/// per-patient record model as [`generate_medical`]). Returned as
/// `(table name, delta)` pairs ready for
/// [`VersionedCatalog::append_batch`], so one hospital admission wave is
/// one atomic version bump.
///
/// The batch is a pure function of its arguments — a streaming run and its
/// sequential replay oracle generate bit-identical admissions.
pub fn medical_delta(
    n_new: usize,
    coverage: f64,
    seed: u64,
    start_uid: i64,
) -> Vec<(String, Table)> {
    let (patient, generalinfo) = medical_tables(n_new, coverage, seed, start_uid);
    vec![
        ("patient".to_string(), patient),
        ("generalinfo".to_string(), generalinfo),
    ]
}

/// The shared generator body: `n_patients` patients with UIDs
/// `start_uid + 1 ..= start_uid + n_patients`, plus shared records for a
/// `coverage` fraction of them.
fn medical_tables(
    n_patients: usize,
    coverage: f64,
    seed: u64,
    start_uid: i64,
) -> (Table, Table) {
    let mut rng = StdRng::seed_from_u64(seed);
    let sexes = ["F", "M", "O"];
    let modalities = ["CT", "MR", "US", "XR", "PET"];

    let mut uid = Vec::with_capacity(n_patients);
    let mut sex = Vec::with_capacity(n_patients);
    let mut age = Vec::with_capacity(n_patients);
    let mut modality = Vec::with_capacity(n_patients);
    for i in 0..n_patients {
        uid.push(start_uid + i as i64 + 1);
        sex.push(sexes[rng.gen_range(0..sexes.len())].to_string());
        age.push(rng.gen_range(0..100i64));
        modality.push(modalities[rng.gen_range(0..modalities.len())].to_string());
    }
    let patient = Table::new(
        "patient",
        vec![
            Column::new("UID", ColumnData::Int64(uid)),
            Column::new("PatientSex", ColumnData::Utf8(sex)),
            Column::new("PatientAge", ColumnData::Int64(age)),
            Column::new("Modality", ColumnData::Utf8(modality)),
        ],
    )
    .expect("generated columns are aligned");

    let mut gi_uid = Vec::new();
    let mut gi_names = Vec::new();
    let mut gi_hospital = Vec::new();
    for i in 0..n_patients {
        if rng.gen_bool(coverage.clamp(0.0, 1.0)) {
            // Each shared patient has 1..=3 records from other clinics.
            let patient_uid = start_uid + i as i64 + 1;
            for r in 0..rng.gen_range(1..=3) {
                gi_uid.push(patient_uid);
                gi_names.push(format!("GeneralName#{patient_uid:06}-{r}"));
                gi_hospital.push(format!("clinic-{}", rng.gen_range(1..=12)));
            }
        }
    }
    let generalinfo = Table::new(
        "generalinfo",
        vec![
            Column::new("UID", ColumnData::Int64(gi_uid)),
            Column::new("GeneralNames", ColumnData::Utf8(gi_names)),
            Column::new("Hospital", ColumnData::Utf8(gi_hospital)),
        ],
    )
    .expect("generated columns are aligned");
    (patient, generalinfo)
}

/// Example 2.1's query as a two-table federated template.
///
/// Optionally restricts to one modality (a realistic clinic filter that
/// varies the prepared-input size, like the TPC-H parameters do).
pub fn medical_query(modality: Option<&str>) -> TwoTableQuery {
    // patient: 0 UID 1 PatientSex 2 PatientAge 3 Modality
    let base = PhysicalPlan::Scan {
        table: "patient".to_string(),
    };
    let filtered = match modality {
        Some(m) => PhysicalPlan::Filter {
            input: Box::new(base),
            predicate: Expr::col(3).eq(Expr::str(m)),
        },
        None => base,
    };
    let left_prepare = PhysicalPlan::Project {
        input: Box::new(filtered),
        exprs: vec![
            ("UID".to_string(), Expr::col(0)),
            ("PatientSex".to_string(), Expr::col(1)),
        ],
    };
    // generalinfo: 0 UID 1 GeneralNames 2 Hospital
    let right_prepare = PhysicalPlan::Project {
        input: Box::new(PhysicalPlan::Scan {
            table: "generalinfo".to_string(),
        }),
        exprs: vec![
            ("UID".to_string(), Expr::col(0)),
            ("GeneralNames".to_string(), Expr::col(1)),
        ],
    };
    let combine = PhysicalPlan::Project {
        // join output: 0 UID 1 PatientSex 2 r.UID 3 GeneralNames
        input: Box::new(PhysicalPlan::HashJoin {
            left: Box::new(PhysicalPlan::Scan {
                table: "@frag0".to_string(),
            }),
            right: Box::new(PhysicalPlan::Scan {
                table: "@frag1".to_string(),
            }),
            left_keys: vec![0],
            right_keys: vec![0],
            join_type: JoinType::Inner,
        }),
        exprs: vec![
            ("PatientSex".to_string(), Expr::col(1)),
            ("GeneralNames".to_string(), Expr::col(3)),
        ],
    };
    TwoTableQuery {
        id: QueryId::Q12, // reuse the enum slot closest in shape; label disambiguates
        label: match modality {
            Some(m) => format!("Medical(modality={m})"),
            None => "Medical(all)".to_string(),
        },
        left_table: "patient".to_string(),
        right_table: "generalinfo".to_string(),
        left_prepare,
        right_prepare,
        combine,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use midas_engines::execute_fused;
    use midas_engines::Value;

    #[test]
    fn generator_produces_linked_tables() {
        let tables = generate_medical(500, 0.4, 11);
        let p = tables.try_get("patient").unwrap();
        let g = tables.try_get("generalinfo").unwrap();
        assert_eq!(p.n_rows(), 500);
        assert!(g.n_rows() > 100, "coverage 0.4 should share >100 records");
        // Every generalinfo UID references an existing patient.
        let max_uid = p.n_rows() as i64;
        for i in 0..g.n_rows() {
            match g.row(i)[0] {
                Value::Int64(uid) => assert!(uid >= 1 && uid <= max_uid),
                ref other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn example_21_query_joins_on_uid() {
        let tables = generate_medical(300, 0.5, 3);
        let q = medical_query(None);
        let mut catalog = tables.clone();
        let (left, _) = execute_fused(&q.left_prepare, &catalog).unwrap();
        let (right, _) = execute_fused(&q.right_prepare, &catalog).unwrap();
        catalog.insert("@frag0".to_string(), left);
        catalog.insert("@frag1".to_string(), right.clone());
        let (out, _) = execute_fused(&q.combine, &catalog).unwrap();
        // Inner join: one output row per generalinfo record.
        assert_eq!(out.n_rows(), right.n_rows());
        assert_eq!(out.n_columns(), 2);
        assert_eq!(out.columns()[0].name, "PatientSex");
        assert_eq!(out.columns()[1].name, "GeneralNames");
    }

    #[test]
    fn modality_filter_shrinks_left_input() {
        let tables = generate_medical(400, 0.5, 5);
        let all = medical_query(None);
        let ct = medical_query(Some("CT"));
        let (left_all, _) = execute_fused(&all.left_prepare, &tables).unwrap();
        let (left_ct, _) = execute_fused(&ct.left_prepare, &tables).unwrap();
        assert!(left_ct.n_rows() < left_all.n_rows());
        assert!(left_ct.n_rows() > 0);
        assert!(ct.label.contains("CT"));
    }

    #[test]
    fn medical_delta_extends_the_registry_in_place() {
        let versioned = generate_medical_versioned(200, 0.4, 6);
        let base_patients = versioned.current().table_rows("patient").unwrap();
        let receipt = versioned
            .append_batch(medical_delta(50, 0.4, 61, base_patients as i64))
            .unwrap();
        assert_eq!(receipt.version, 1);
        assert!(receipt.stats.shared_bytes > 0);
        let head = versioned.current();
        assert_eq!(head.table_rows("patient"), Some(base_patients + 50));
        // Every generalinfo UID (old and new) references an existing patient.
        let pinned = head.pin();
        let max_uid = (base_patients + 50) as i64;
        let g = pinned.get("generalinfo").unwrap();
        for i in 0..g.n_rows() {
            match g.row(i)[0] {
                Value::Int64(uid) => assert!(uid >= 1 && uid <= max_uid),
                ref other => panic!("{other:?}"),
            }
        }
        // New admissions are joinable: some UIDs exceed the base registry.
        let has_new = (0..g.n_rows()).any(|i| match g.row(i)[0] {
            Value::Int64(uid) => uid > base_patients as i64,
            _ => false,
        });
        assert!(has_new, "delta produced no shared records past the base");
        // Deltas replay bit-for-bit.
        assert_eq!(
            medical_delta(50, 0.4, 61, base_patients as i64),
            medical_delta(50, 0.4, 61, base_patients as i64)
        );
    }

    #[test]
    fn deterministic_generation() {
        let a = generate_medical(100, 0.3, 9);
        let b = generate_medical(100, 0.3, 9);
        assert_eq!(a.try_get("generalinfo").unwrap(), b.try_get("generalinfo").unwrap());
    }
}
