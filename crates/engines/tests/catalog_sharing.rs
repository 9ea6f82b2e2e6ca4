//! The zero-copy catalog contract:
//!
//! 1. Executing through a *shared* `Arc` catalog produces bit-for-bit the
//!    results and `WorkProfile`s of the historical owned-map path (emulated
//!    by deep-copying every base table into a private catalog per query).
//! 2. Catalog seeding inside the federated executor is `Arc::clone` only:
//!    zero cloned bytes, refcounts return to baseline after the run.
//! 3. Running over a `CatalogVersion` seeds nothing, compacts nothing, and
//!    reports the shared volume its compacted copy would — to the byte.

use midas_engines::data::{Column, ColumnData, Table};
use midas_engines::exec::{FederatedQuery, Fragment, SharedExecutor};
use midas_engines::expr::Expr;
use midas_engines::ops::{execute_scalar, AggExpr, JoinType, PhysicalPlan};
use midas_engines::sim::{DriftIntensity, SimulationEnv, SiteAdmission};
use midas_engines::version::{CatalogVersion, ChunkedTable};
use midas_engines::{execute_fused, Catalog, EngineKind};
use midas_cloud::federation::example_federation;
use std::sync::{Arc, Mutex};

fn lineitems(rows: usize) -> Table {
    Table::new(
        "lineitem",
        vec![
            Column::new(
                "okey",
                ColumnData::Int64((0..rows as i64).map(|i| i / 3).collect()),
            ),
            Column::new(
                "qty",
                ColumnData::Float64((0..rows).map(|i| (i % 50) as f64 + 1.0).collect()),
            ),
            Column::new(
                "mode",
                ColumnData::Utf8(
                    (0..rows)
                        .map(|i| ["AIR", "RAIL", "SHIP"][i % 3].to_string())
                        .collect(),
                ),
            ),
        ],
    )
    .unwrap()
}

fn orders(rows: usize) -> Table {
    Table::new(
        "orders",
        vec![
            Column::new("okey", ColumnData::Int64((0..rows as i64).collect())),
            Column::new(
                "prio",
                ColumnData::Utf8(
                    (0..rows)
                        .map(|i| ["1-URGENT", "3-MEDIUM"][i % 2].to_string())
                        .collect(),
                ),
            ),
        ],
    )
    .unwrap()
}

fn join_plan() -> PhysicalPlan {
    PhysicalPlan::Sort {
        input: Box::new(PhysicalPlan::Aggregate {
            input: Box::new(PhysicalPlan::HashJoin {
                left: Box::new(PhysicalPlan::Filter {
                    input: Box::new(PhysicalPlan::Scan {
                        table: "lineitem".to_string(),
                    }),
                    predicate: Expr::col(1).lt(Expr::float(40.0)),
                }),
                right: Box::new(PhysicalPlan::Scan {
                    table: "orders".to_string(),
                }),
                left_keys: vec![0],
                right_keys: vec![0],
                join_type: JoinType::Inner,
            }),
            group_by: vec![2],
            aggs: vec![
                ("n".to_string(), AggExpr::Count),
                (
                    "urgent".to_string(),
                    AggExpr::CountIf(Expr::col(4).eq(Expr::str("1-URGENT"))),
                ),
                ("qty".to_string(), AggExpr::Sum(Expr::col(1))),
            ],
        }),
        by: vec![(0, false)],
    }
}

/// The historical per-query behaviour: every base table deep-copied into a
/// fresh private catalog.
fn owned_map_catalog() -> Catalog {
    let mut cat = Catalog::new();
    cat.insert("lineitem", lineitems(600));
    cat.insert("orders", orders(150));
    cat
}

#[test]
fn shared_arc_catalog_matches_owned_map_path_bit_for_bit() {
    let shared = owned_map_catalog();
    let plan = join_plan();

    // Owned-map path: a fresh deep copy of every table per execution.
    let owned = {
        let mut cat = Catalog::new();
        for (name, table) in shared.iter() {
            cat.insert(name, (**table).clone());
        }
        cat
    };

    let (owned_table, owned_profile) = execute_scalar(&plan, &owned).expect("owned path runs");
    for _ in 0..3 {
        // Repeated executions over the *same* shared catalog (what the
        // concurrent runtime does) must keep reproducing the owned result.
        let (t, p) = execute_fused(&plan, &shared).expect("shared path runs");
        assert_eq!(t, owned_table, "result tables drifted");
        assert_eq!(p, owned_profile, "work profiles drifted");
        let (ts, ps) = execute_scalar(&plan, &shared).expect("scalar runs");
        assert_eq!(ts, owned_table);
        assert_eq!(ps, owned_profile);
    }
}

#[test]
fn concurrent_readers_of_one_catalog_agree() {
    let shared = owned_map_catalog();
    let plan = join_plan();
    let (expected, expected_profile) = execute_scalar(&plan, &shared).expect("baseline runs");

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                scope.spawn(|| execute_fused(&plan, &shared).expect("threaded run"))
            })
            .collect();
        for h in handles {
            let (t, p) = h.join().expect("no panic");
            assert_eq!(t, expected);
            assert_eq!(p, expected_profile);
        }
    });
    // No reader leaked a reference.
    assert_eq!(Arc::strong_count(shared.get_shared("lineitem").unwrap()), 1);
}

fn two_site_query(a: midas_cloud::SiteId, b: midas_cloud::SiteId) -> FederatedQuery {
    FederatedQuery {
        fragments: vec![
            Fragment {
                plan: PhysicalPlan::Filter {
                    input: Box::new(PhysicalPlan::Scan {
                        table: "lineitem".to_string(),
                    }),
                    predicate: Expr::col(1).lt(Expr::float(40.0)),
                },
                site: a,
                engine: EngineKind::Hive,
                instance: "a1.large".to_string(),
                vm_count: 2,
            },
            Fragment {
                plan: PhysicalPlan::Scan {
                    table: "orders".to_string(),
                },
                site: b,
                engine: EngineKind::PostgreSql,
                instance: "B2S".to_string(),
                vm_count: 1,
            },
            Fragment {
                plan: PhysicalPlan::HashJoin {
                    left: Box::new(PhysicalPlan::Scan {
                        table: "@frag0".to_string(),
                    }),
                    right: Box::new(PhysicalPlan::Scan {
                        table: "@frag1".to_string(),
                    }),
                    left_keys: vec![0],
                    right_keys: vec![0],
                    join_type: JoinType::Inner,
                },
                site: a,
                engine: EngineKind::Spark,
                instance: "a1.large".to_string(),
                vm_count: 2,
            },
        ],
    }
}

#[test]
fn federated_seeding_is_arc_clone_only() {
    let (fed, a, b) = example_federation();
    let mut env = SimulationEnv::new();
    for site in fed.site_ids() {
        env.register_site(site, 7, DriftIntensity::Mild);
    }
    let env = Mutex::new(env);
    let admission = SiteAdmission::new(fed.admission_capacities());
    let catalog = owned_map_catalog();

    let out = SharedExecutor::new(&fed, &env, &admission)
        .run(&two_site_query(a, b), &catalog)
        .expect("runs");

    // The referenced volume is both base tables.
    let expected_shared = catalog.try_get("lineitem").expect("seeded").estimated_bytes()
        + catalog.try_get("orders").expect("seeded").estimated_bytes();
    assert_eq!(out.catalog_shared_bytes, expected_shared);
    // The run's `@frag` outputs, a slice by position, were dropped on
    // completion: no reference to a base table outlives the run.
    assert_eq!(Arc::strong_count(catalog.get_shared("lineitem").unwrap()), 1);
    assert_eq!(Arc::strong_count(catalog.get_shared("orders").unwrap()), 1);
    assert!(out.result.n_rows() > 0);
}

/// `lineitem` in five uneven chunks beside a one-chunk `orders`. The
/// `mode` strings average a fractional length, and at these cuts the
/// per-chunk byte estimates truncate to one byte less, summed, than the
/// whole table's.
fn chunked_version() -> CatalogVersion {
    let lineitem = lineitems(600);
    let chunks = [0u32..23, 23..100, 100..101, 101..350, 350..600]
        .map(|rows| Arc::new(lineitem.take_ids(&rows.collect::<Vec<u32>>())))
        .to_vec();
    CatalogVersion::from_chunked(vec![
        ChunkedTable::from_chunks("lineitem", chunks).expect("one schema"),
        ChunkedTable::from_shared("orders", Arc::new(orders(150))),
    ])
}

#[test]
fn versioned_run_shares_the_bytes_its_compacted_copy_would() {
    let (fed, a, b) = example_federation();
    let run = |tables: midas_engines::TableSource<'_>| {
        let mut env = SimulationEnv::new();
        for site in fed.site_ids() {
            env.register_site(site, 7, DriftIntensity::Mild);
        }
        let env = Mutex::new(env);
        let admission = SiteAdmission::new(fed.admission_capacities());
        SharedExecutor::new(&fed, &env, &admission)
            .run(&two_site_query(a, b), tables)
            .expect("runs")
    };
    let version = chunked_version();
    let chunked = run((&version).into());
    assert_eq!(version.compaction_bytes(), 0, "the run compacted a table");

    let pinned = version.pin();
    let flat = run((&pinned).into());
    let compacted = pinned.try_get("lineitem").expect("pinned");
    assert_eq!(
        chunked.catalog_shared_bytes,
        compacted.estimated_bytes() + pinned.try_get("orders").expect("pinned").estimated_bytes()
    );
    assert_eq!(chunked.catalog_shared_bytes, flat.catalog_shared_bytes);
    // The sum of per-chunk estimates is a different number: the run must
    // not have used it.
    assert_ne!(
        version.table("lineitem").expect("registered").estimated_bytes(),
        compacted.estimated_bytes()
    );
    assert_eq!(chunked.result, flat.result);
    assert_eq!(chunked.elapsed_s.to_bits(), flat.elapsed_s.to_bits());
    assert_eq!(chunked.money, flat.money);
    for (c, f) in chunked.fragments.iter().zip(flat.fragments.iter()) {
        assert_eq!(c.work, f.work);
    }
}
