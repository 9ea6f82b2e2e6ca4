//! Property tests of the copy-on-write version layer: however a table is
//! sliced into delta chunks, the pinned snapshot is bit-identical to the
//! contiguous table, pin-time compaction runs at most once per version,
//! and executing a plan against a pinned version equals executing it
//! against the equivalent flat catalog.

use midas_engines::data::{Column, ColumnData, Table};
use midas_engines::expr::Expr;
use midas_engines::ops::{execute, PhysicalPlan};
use midas_engines::{Catalog, EngineError, VersionedCatalog};
use std::sync::Arc;
use proptest::prelude::*;

/// A deterministic little fact table of `rows` rows.
fn fact(rows: usize) -> Table {
    Table::new(
        "fact",
        vec![
            Column::new("k", ColumnData::Int64((0..rows as i64).collect())),
            Column::new(
                "grp",
                ColumnData::Int64((0..rows as i64).map(|i| i % 7).collect()),
            ),
            Column::new(
                "v",
                ColumnData::Float64((0..rows).map(|i| i as f64 * 0.25 - 3.0).collect()),
            ),
            Column::new(
                "tag",
                ColumnData::Utf8((0..rows).map(|i| format!("t{}", i % 5)).collect()),
            ),
        ],
    )
    .unwrap()
}

/// Splits `rows` into a base prefix plus delta batches at `cuts` (fractions
/// of the tail), returning (base table, deltas).
fn split(rows: usize, cuts: &[usize]) -> (Table, Vec<Table>) {
    let whole = fact(rows);
    let mut bounds = vec![0usize];
    for &c in cuts {
        let prev = *bounds.last().unwrap();
        let next = (prev + 1 + c % rows.max(1)).min(rows);
        bounds.push(next);
    }
    bounds.push(rows);
    bounds.dedup();
    let slice = |lo: usize, hi: usize| {
        let idx: Vec<usize> = (lo..hi).collect();
        whole.take(&idx)
    };
    let base = slice(0, bounds[1]);
    let deltas = bounds
        .windows(2)
        .skip(1)
        .map(|w| slice(w[0], w[1]))
        .collect();
    (base, deltas)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn any_chunking_pins_the_contiguous_table(
        rows in 8usize..200,
        cuts in proptest::collection::vec(1usize..60, 0..5),
    ) {
        let (base, deltas) = split(rows, &cuts);
        let n_deltas = deltas.len();
        let mut catalog = Catalog::new();
        catalog.insert("fact", base);
        let versioned = VersionedCatalog::new(catalog);
        let mut prior_rows = versioned.current().table_rows("fact").unwrap();
        for delta in deltas {
            let receipt = versioned.append("fact", delta).unwrap();
            // Every prior byte is carried as an Arc handle, never copied.
            let prior = fact(rows).take(&(0..prior_rows).collect::<Vec<_>>());
            prop_assert_eq!(receipt.stats.shared_bytes, prior.estimated_bytes());
            prior_rows = versioned.current().table_rows("fact").unwrap();
        }
        let head = versioned.current();
        prop_assert_eq!(head.version(), n_deltas as u64);
        prop_assert_eq!(head.table_rows("fact"), Some(rows));
        // Compaction bytes are paid once per version, not once per pin.
        prop_assert_eq!(head.compaction_bytes(), 0);
        let pinned = head.pin();
        let first_pin = head.compaction_bytes();
        let _ = head.pin();
        prop_assert_eq!(head.compaction_bytes(), first_pin);
        prop_assert_eq!(
            pinned.get("fact").unwrap().fingerprint(),
            fact(rows).fingerprint()
        );
    }

    #[test]
    fn pinned_execution_matches_flat_catalog(
        rows in 8usize..150,
        cuts in proptest::collection::vec(1usize..40, 1..4),
        threshold in 0i64..7,
    ) {
        let (base, deltas) = split(rows, &cuts);
        let mut catalog = Catalog::new();
        catalog.insert("fact", base);
        let versioned = VersionedCatalog::new(catalog);
        for delta in deltas {
            versioned.append("fact", delta).unwrap();
        }
        let plan = PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::Scan {
                table: "fact".to_string(),
            }),
            predicate: Expr::col(1).ge(Expr::int(threshold)),
        };
        let mut flat = Catalog::new();
        flat.insert("fact", fact(rows));
        let (pinned_result, pinned_work) = execute(&plan, &versioned.current().pin()).unwrap();
        let (flat_result, flat_work) = execute(&plan, &flat).unwrap();
        prop_assert_eq!(pinned_result.fingerprint(), flat_result.fingerprint());
        prop_assert_eq!(pinned_work, flat_work);
    }
}

#[test]
fn old_pins_survive_later_ingest_untouched() {
    let whole = fact(60);
    let mut catalog = Catalog::new();
    catalog.insert("fact", whole.take(&(0..40).collect::<Vec<_>>()));
    let versioned = VersionedCatalog::new(catalog);
    let v0 = versioned.current();
    let pinned_v0 = v0.pin();
    versioned
        .append("fact", whole.take(&(40..60).collect::<Vec<_>>()))
        .unwrap();
    // The old pin still reads 40 rows; the head reads 60.
    assert_eq!(pinned_v0.get("fact").unwrap().n_rows(), 40);
    assert_eq!(
        versioned.current().pin().get("fact").unwrap().n_rows(),
        60
    );
    assert_eq!(
        versioned.current().pin().get("fact").unwrap().fingerprint(),
        whole.fingerprint()
    );
}

#[test]
fn an_empty_delta_publishes_a_version_and_no_chunk() {
    let whole = fact(60);
    let mut catalog = Catalog::new();
    catalog.insert("fact", whole.take(&(0..40).collect::<Vec<_>>()));
    let versioned = VersionedCatalog::new(catalog);
    versioned
        .append("fact", whole.take(&(40..60).collect::<Vec<_>>()))
        .unwrap();
    let before = versioned.current();
    let pinned = before.pin();

    let (receipt, superseded) = versioned
        .append_batch_traced(vec![("fact".to_string(), whole.take(&[]))])
        .unwrap();
    // The version advances and the receipt says what arrived: nothing.
    assert_eq!((receipt.version, receipt.stats.delta_rows), (2, 0));
    assert!(superseded.is_empty(), "no table state was retired: {superseded:?}");
    let after = versioned.current();
    let (was, is) = (before.table("fact").unwrap(), after.table("fact").unwrap());
    assert_eq!(is.chunk_count(), 2);
    assert_eq!(is.id(), was.id());
    // The compaction the earlier pin paid for is the later pin's too.
    assert!(Arc::ptr_eq(
        pinned.get_shared("fact").unwrap(),
        after.pin().get_shared("fact").unwrap()
    ));

    // A malformed delta is rejected whether or not it has rows.
    let wrong = Table::new("fact", vec![Column::new("k", ColumnData::Float64(Vec::new()))]);
    assert!(matches!(
        versioned.append("fact", wrong.unwrap()),
        Err(EngineError::TypeMismatch { .. })
    ));
    assert_eq!(versioned.version(), 2);
}
