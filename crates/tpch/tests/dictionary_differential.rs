//! Differential test: the dictionary-encoded database answers the paper's
//! queries identically to the plain string database.
//!
//! One seed generates one *logical* database under either
//! [`StringEncoding`]; only the physical layout of the four low-cardinality
//! columns differs. Every query must therefore select the same rows and
//! compute the same aggregates — with group-by keys decoding back to the
//! exact strings of the plain path.

use midas_engines::data::{ColumnData, DataType, Value};
use midas_engines::execute_fused;
use midas_tpch::gen::{GenConfig, StringEncoding, TpchDb};
use midas_tpch::queries::{q12, q12_with, q13, q14, q17_with, TwoTableQuery};
use midas_tpch::TpchDictionaries;
use std::collections::HashMap;

fn run(q: &TwoTableQuery, db: &TpchDb) -> midas_engines::Table {
    let mut catalog = db.catalog().clone();
    let (out, _) = q
        .execute_local(&mut catalog, |plan, c| execute_fused(plan, c))
        .expect("query runs");
    out
}

fn dbs() -> (TpchDb, TpchDb) {
    let plain = TpchDb::generate(GenConfig::new(0.002, 11));
    let dict = TpchDb::generate(GenConfig::new(0.002, 11).dictionary_encoded());
    (plain, dict)
}

#[test]
fn encodings_generate_the_same_logical_rows() {
    let (plain, dict) = dbs();
    let dicts = TpchDictionaries::spec();

    // The encoded columns flipped to Int64...
    for (table, column) in [
        ("lineitem", "l_shipmode"),
        ("orders", "o_orderpriority"),
        ("part", "p_brand"),
        ("part", "p_container"),
    ] {
        let p = plain.table(table).unwrap().column_by_name(column).unwrap();
        let d = dict.table(table).unwrap().column_by_name(column).unwrap();
        assert_eq!(p.data.data_type(), DataType::Utf8, "{table}.{column}");
        assert_eq!(d.data.data_type(), DataType::Int64, "{table}.{column}");
        // ...and every code decodes to exactly the plain string.
        let domain = dicts.for_column(table, column).expect("encoded column");
        let (ColumnData::Utf8(strings), ColumnData::Int64(codes)) = (&*p.data, &*d.data) else {
            panic!("unexpected column layouts for {table}.{column}");
        };
        assert_eq!(strings.len(), codes.len());
        for (s, code) in strings.iter().zip(codes.iter()) {
            assert_eq!(domain.decode(*code as u32), Some(s), "{table}.{column}");
        }
    }

    // Untouched columns are bit-identical (same RNG stream under both
    // encodings).
    for table in ["customer", "supplier", "nation", "region", "partsupp"] {
        assert_eq!(plain.table(table), dict.table(table), "{table}");
    }
    let p_type = plain.table("part").unwrap().column_by_name("p_type").unwrap();
    let d_type = dict.table("part").unwrap().column_by_name("p_type").unwrap();
    assert_eq!(p_type, d_type, "high-cardinality p_type stays UTF-8");
}

#[test]
fn q12_group_by_on_codes_matches_the_string_path() {
    let (plain, dict) = dbs();
    let dicts = TpchDictionaries::spec();
    for (m1, m2, year) in [("MAIL", "SHIP", 1994), ("AIR", "RAIL", 1995)] {
        let out_plain = run(&q12(m1, m2, year), &plain);
        let out_dict = run(&q12_with(StringEncoding::Dictionary, m1, m2, year), &dict);
        assert_eq!(out_plain.n_rows(), out_dict.n_rows(), "Q12({m1},{m2},{year})");

        // The dict result groups by ship-mode *code*; decode its rows and
        // compare as key → counts maps (the sort orders legitimately differ:
        // codes sort in spec order, strings lexicographically).
        let collect = |t: &midas_engines::Table, decode: bool| -> HashMap<String, (i64, i64)> {
            (0..t.n_rows())
                .map(|i| {
                    let row = t.row(i);
                    let key = match &row[0] {
                        Value::Utf8(s) => {
                            assert!(!decode);
                            s.clone()
                        }
                        Value::Int64(code) => {
                            assert!(decode);
                            dicts.ship_mode.decode(*code as u32).expect("valid code").to_string()
                        }
                        other => panic!("unexpected group key {other:?}"),
                    };
                    let (Value::Int64(high), Value::Int64(low)) = (&row[1], &row[2]) else {
                        panic!("unexpected count columns {row:?}");
                    };
                    (key, (*high, *low))
                })
                .collect()
        };
        assert_eq!(
            collect(&out_plain, false),
            collect(&out_dict, true),
            "Q12({m1},{m2},{year})"
        );
    }
}

#[test]
fn q17_code_predicates_match_the_string_path() {
    let (plain, dict) = dbs();
    for (brand, container) in [("Brand#23", "MED BOX"), ("Brand#12", "SM CASE")] {
        let out_plain = run(
            &q17_with(StringEncoding::Plain, brand, container),
            &plain,
        );
        let out_dict = run(
            &q17_with(StringEncoding::Dictionary, brand, container),
            &dict,
        );
        // The filtered part keys are identical, so the whole numeric
        // pipeline downstream is bit-for-bit equal.
        assert_eq!(out_plain, out_dict, "Q17({brand},{container})");
    }
}

#[test]
fn untouched_queries_are_unaffected_by_the_encoding() {
    let (plain, dict) = dbs();
    // Q13 (comments) and Q14 (part types) only touch columns that stay
    // UTF-8 under both encodings.
    for q in [q13("special", "requests"), q14(1995, 9)] {
        assert_eq!(run(&q, &plain), run(&q, &dict), "{}", q.label);
    }
}

#[test]
fn unknown_domain_values_select_nothing_under_either_encoding() {
    let (plain, dict) = dbs();
    let out_plain = run(&q17_with(StringEncoding::Plain, "Brand#99", "MED BOX"), &plain);
    let out_dict = run(
        &q17_with(StringEncoding::Dictionary, "Brand#99", "MED BOX"),
        &dict,
    );
    // Q17's aggregate over an empty join is a single all-NULL-ish row or
    // zero rows depending on plan shape; both paths must agree exactly.
    assert_eq!(out_plain, out_dict);
}
