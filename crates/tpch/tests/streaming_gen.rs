//! SF-invariance of streaming generation: `TpchDb::generate_chunked`
//! must reproduce `TpchDb::generate` **exactly** — same rows, same
//! encodings, same fingerprints — at every chunk size and under both
//! string encodings, and chunk-native query execution over the streamed
//! database must match flat execution without ever compacting a
//! snapshot.

use midas_engines::MORSEL_ROWS;
use midas_tpch::gen::{GenConfig, StringEncoding, TpchDb};
use midas_tpch::queries::{q12_with, q13, q14, q17_with};

const TABLES: [&str; 8] = [
    "region", "nation", "customer", "part", "supplier", "partsupp", "orders", "lineitem",
];

fn configs() -> Vec<GenConfig> {
    vec![
        GenConfig::new(0.01, 42),
        GenConfig::new(0.01, 42).dictionary_encoded(),
        // A capped config exercises the rescale path too.
        GenConfig {
            scale_factor: 0.02,
            seed: 7,
            max_lineitem_rows: Some(20_000),
            encoding: StringEncoding::Plain,
        },
    ]
}

/// Streaming generation at SF 0.01 reproduces the materialized generator
/// bit-for-bit at several chunk sizes, under both encodings and under the
/// row cap — per-table contents, names and fingerprints all equal.
#[test]
fn streaming_generation_reproduces_materialized_exactly() {
    for config in configs() {
        let flat = TpchDb::generate(config);
        for chunk_rows in [97usize, 1_000, 1 << 20] {
            let chunked = TpchDb::generate_chunked(config, chunk_rows);
            assert_eq!(chunked.rescale, flat.rescale);
            assert_eq!(chunked.encoding(), flat.encoding());
            for name in TABLES {
                let reference = flat.table(name).expect("table exists");
                let ct = chunked.version().table(name).expect("table exists");
                assert_eq!(ct.name(), name);
                assert_eq!(ct.n_rows(), reference.n_rows(), "{name} rows");
                for chunk in ct.chunks() {
                    assert_eq!(chunk.name, name, "chunks carry the table name");
                }
                let snap = ct.snapshot();
                assert_eq!(
                    snap.as_ref(),
                    reference,
                    "{name} diverges at chunk_rows={chunk_rows} ({:?})",
                    config.encoding
                );
                assert_eq!(snap.fingerprint(), reference.fingerprint());
            }
            // Small chunks really do split the growing tables.
            if chunk_rows == 97 {
                let li = chunked.version().table("lineitem").expect("exists");
                assert!(
                    li.chunk_count() > 1,
                    "lineitem should be multi-chunk at chunk_rows=97"
                );
            }
        }
    }
}

/// Chunk-native execution of the paper's four queries over the streamed
/// database matches flat vectorized execution bit-for-bit — tables,
/// fingerprints and all three work profiles — and pays **zero** snapshot
/// compaction doing it, whether a morsel spans several chunks (4 096-row
/// chunks) or a chunk spans a morsel boundary (chunks a morsel and a
/// quarter long).
#[test]
fn chunk_native_queries_match_flat_execution() {
    for config in [GenConfig::new(0.01, 11), GenConfig::new(0.01, 11).dictionary_encoded()] {
        let flat = TpchDb::generate(config);
        let streamed = [4_096, MORSEL_ROWS + MORSEL_ROWS / 4]
            .map(|chunk_rows| TpchDb::generate_chunked(config, chunk_rows));
        let enc = config.encoding;
        let queries = [
            q12_with(enc, "MAIL", "SHIP", 1994),
            q13("special", "requests"),
            q14(1995, 9),
            q17_with(enc, "Brand#23", "MED BOX"),
        ];
        for q in &queries {
            let mut catalog = flat.catalog().clone();
            let (ref_out, ref_profiles) = q
                .execute_local(&mut catalog, midas_engines::ops::execute)
                .expect("flat execution runs");
            for chunked in &streamed {
                let (out, profiles) = q
                    .execute_fused_chunked(chunked.version())
                    .expect("chunk-native execution runs");
                assert_eq!(out, ref_out, "{} diverges", q.label);
                assert_eq!(out.fingerprint(), ref_out.fingerprint());
                assert_eq!(profiles, ref_profiles, "{} profiles diverge", q.label);
            }
        }
        for chunked in &streamed {
            assert_eq!(
                chunked.version().compaction_bytes(),
                0,
                "chunk-native pipeline must never compact a snapshot"
            );
        }
    }
}
