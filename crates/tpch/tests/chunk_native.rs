//! Chunk-native execution of the paper's queries: a database cut into
//! chunks must answer every query exactly as the flat database does, and
//! running over the chunks must never compact a snapshot.

use std::sync::Arc;

use midas_engines::ops::{execute_scalar, WorkProfile};
use midas_engines::version::{CatalogVersion, ChunkedTable};
use midas_engines::{execute_fused, Catalog, Table, MORSEL_ROWS};
use midas_tpch::gen::{GenConfig, TpchDb};
use midas_tpch::queries::{q12, q13, q14, q17, TwoTableQuery};

/// `db` as a version whose every table is cut into consecutive row ranges
/// of `chunk_rows` rows (the last one shorter), each chunk named after its
/// table.
fn chunked(db: &TpchDb, chunk_rows: usize) -> CatalogVersion {
    let tables = db
        .catalog()
        .iter()
        .map(|(name, table)| {
            let n = table.n_rows();
            let chunks = (0..n.div_ceil(chunk_rows).max(1))
                .map(|c| {
                    let rows: Vec<usize> = (c * chunk_rows..n.min((c + 1) * chunk_rows)).collect();
                    Arc::new(table.take(&rows))
                })
                .collect();
            ChunkedTable::from_chunks(name, chunks).expect("chunks share the table's schema")
        })
        .collect();
    CatalogVersion::from_chunked(tables)
}

/// Both prepares fused over `version`'s chunks, the combine fused over
/// their outputs as `@frag0` / `@frag1`.
fn execute_chunk_native(q: &TwoTableQuery, version: &CatalogVersion) -> (Table, [WorkProfile; 3]) {
    let (left, left_profile) = execute_fused(&q.left_prepare, version).expect("left prepare runs");
    let (right, right_profile) =
        execute_fused(&q.right_prepare, version).expect("right prepare runs");
    let mut frags = Catalog::new();
    frags.insert("@frag0".to_string(), left);
    frags.insert("@frag1".to_string(), right);
    let (out, combine_profile) = execute_fused(&q.combine, &frags).expect("combine runs");
    (out, [left_profile, right_profile, combine_profile])
}

/// Chunk-native execution of the paper's four queries matches the scalar
/// reference over the flat database bit-for-bit — tables, fingerprints and
/// all three work profiles — and pays **zero** snapshot compaction doing
/// it, whether a morsel spans several chunks (4 096-row chunks) or a chunk
/// spans a morsel boundary (chunks a morsel and a quarter long).
#[test]
fn chunk_native_queries_match_flat_execution() {
    let flat = TpchDb::generate(GenConfig::new(0.01, 11));
    let versions = [4_096, MORSEL_ROWS + MORSEL_ROWS / 4].map(|rows| chunked(&flat, rows));
    assert!(
        versions
            .iter()
            .all(|v| v.table("lineitem").expect("cut").chunk_count() > 1),
        "lineitem spans several chunks"
    );
    let queries = [
        q12("MAIL", "SHIP", 1994),
        q13("special", "requests"),
        q14(1995, 9),
        q17("Brand#23", "MED BOX"),
    ];
    for q in &queries {
        let mut catalog = flat.catalog().clone();
        let (ref_out, ref_profiles) = q
            .execute_local(&mut catalog, execute_scalar)
            .expect("flat execution runs");
        for version in &versions {
            let (out, profiles) = execute_chunk_native(q, version);
            assert_eq!(out, ref_out, "{} diverges", q.label);
            assert_eq!(out.fingerprint(), ref_out.fingerprint());
            assert_eq!(profiles, ref_profiles, "{} profiles diverge", q.label);
        }
    }
    for version in &versions {
        assert_eq!(
            version.compaction_bytes(),
            0,
            "chunk-native pipeline must never compact a snapshot"
        );
    }
}
