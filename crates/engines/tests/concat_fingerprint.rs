//! Property tests of `Table::concat` splicing and the null-aware
//! `Table::fingerprint`: concatenating any chunking of a table — chunks
//! with and without validity masks, empty chunks included — must
//! fingerprint (and compare) equal to the contiguous table, and the
//! garbage stored under NULL slots must never influence the fingerprint.

use midas_engines::data::{Column, ColumnData, Table};
use proptest::prelude::*;

/// One generated row: `(int value, int valid, string idx, string valid,
/// float value)`; a "valid" of 0 marks the slot NULL.
type Row = ((i64, i64), (usize, i64), f64);

const WORDS: [&str; 4] = ["alpha", "beta", "", "delta"];

fn rows_strategy(max: usize) -> impl Strategy<Value = Vec<Row>> {
    proptest::collection::vec(
        ((-50i64..50, 0i64..2), (0usize..4, 0i64..2), -5.0..5.0f64),
        0..max,
    )
}

/// Builds the three-column test table; `garbage` perturbs the values
/// stored under invalid slots without changing the logical content.
fn table_of(rows: &[Row], garbage: i64) -> Table {
    let ints: Vec<i64> = rows
        .iter()
        .map(|r| if r.0 .1 != 0 { r.0 .0 } else { r.0 .0 ^ garbage })
        .collect();
    let int_valid: Vec<bool> = rows.iter().map(|r| r.0 .1 != 0).collect();
    let strs: Vec<String> = rows
        .iter()
        .map(|r| {
            if r.1 .1 != 0 {
                WORDS[r.1 .0].to_string()
            } else {
                format!("dead-{garbage}")
            }
        })
        .collect();
    let str_valid: Vec<bool> = rows.iter().map(|r| r.1 .1 != 0).collect();
    let floats: Vec<f64> = rows.iter().map(|r| r.2).collect();
    Table::new(
        "t",
        vec![
            Column::with_validity("i", ColumnData::Int64(ints), int_valid),
            Column::with_validity("s", ColumnData::Utf8(strs.into()), str_valid),
            Column::new("f", ColumnData::Float64(floats)),
        ],
    )
    .expect("aligned")
}

/// Cuts `t` into chunks at the given fractional split points. A chunk with
/// no NULL rows is rebuilt *mask-free* so the splice has to merge masked
/// and unmasked chunks.
fn chunks_of(t: &Table, cuts: &[usize]) -> Vec<Table> {
    let n = t.n_rows();
    if n == 0 {
        // One empty chunk: concat of *zero* chunks legitimately collapses
        // to a zero-column table, which is not the contiguous `t`.
        return vec![t.take(&[])];
    }
    let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (n + 1)).collect();
    bounds.push(0);
    bounds.push(n);
    bounds.sort_unstable();
    bounds.dedup();
    bounds
        .windows(2)
        .map(|w| {
            let ids: Vec<usize> = (w[0]..w[1]).collect();
            let chunk = t.take(&ids);
            let columns = chunk
                .columns()
                .iter()
                .map(|c| {
                    let all_valid = (0..c.len()).all(|i| c.is_valid(i));
                    if all_valid {
                        Column::new(&c.name, (*c.data).clone())
                    } else {
                        c.clone()
                    }
                })
                .collect();
            Table::new("t", columns).expect("aligned")
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Concat of any split equals (and fingerprints equal to) the
    /// contiguous table, and the fingerprint is blind to NULL-slot garbage.
    #[test]
    fn concat_of_random_splits_fingerprints_like_the_contiguous_table(
        rows in rows_strategy(40),
        cuts in proptest::collection::vec(0usize..64, 0..6),
        garbage in 1i64..1000,
    ) {
        let whole = table_of(&rows, 0);
        let spliced = {
            let chunks = chunks_of(&whole, &cuts);
            let refs: Vec<&Table> = chunks.iter().collect();
            Table::concat("t", &refs).expect("shared schema")
        };
        prop_assert_eq!(spliced.n_rows(), whole.n_rows());
        prop_assert_eq!(spliced.fingerprint(), whole.fingerprint());
        // Logical equality too, row by row (garbage under NULLs may differ
        // representationally, so compare extracted values).
        for i in 0..whole.n_rows() {
            prop_assert_eq!(spliced.row(i), whole.row(i));
        }
        // A twin with different garbage under its NULL slots fingerprints
        // identically — contiguous and spliced.
        let twin = table_of(&rows, garbage);
        prop_assert_eq!(twin.fingerprint(), whole.fingerprint());
        let twin_spliced = {
            let chunks = chunks_of(&twin, &cuts);
            let refs: Vec<&Table> = chunks.iter().collect();
            Table::concat("t", &refs).expect("shared schema")
        };
        prop_assert_eq!(twin_spliced.fingerprint(), whole.fingerprint());
    }
}
