//! Executor benchmarks: the relational substrate's throughput on the
//! TPC-H two-table queries — generation, scan/filter, join and the full
//! federated execution path.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use midas_cloud::federation::example_federation;
use midas_engines::ops::execute_scalar;
use midas_engines::sim::{DriftIntensity, SimulationEnv};
use midas_engines::version::{CatalogVersion, ChunkedTable};
use midas_engines::{
    execute_fused, AggExpr, Catalog, Column, ColumnData, EngineKind, Expr, JoinType, PhysicalPlan,
    Placement, CombineState, RowWiseOutput, Table, TableSource,
};
use midas_ires::scheduler::{Scheduler, SchedulerConfig};
use midas_ires::CandidateConfig;
use midas_tpch::dates::{add_months, ymd};
use midas_tpch::gen::{DeltaStream, GenConfig, TpchDb};
use midas_tpch::queries::{q12, q13, q14, q17, TwoTableQuery};
use std::hint::black_box;
use std::sync::Arc;

fn bench_generation(c: &mut Criterion) {
    let mut group = c.benchmark_group("tpch_generate");
    group.sample_size(10);
    for &sf in &[0.001f64, 0.005] {
        group.bench_with_input(BenchmarkId::new("sf", format!("{sf}")), &sf, |b, &sf| {
            b.iter(|| black_box(TpchDb::generate(GenConfig::new(sf, 1))))
        });
    }
    group.finish();
}

fn bench_operators(c: &mut Criterion) {
    let db = TpchDb::generate(GenConfig::new(0.01, 2));
    let catalog = db.catalog();
    let queries: Vec<(&str, TwoTableQuery)> = vec![
        ("q12", q12("MAIL", "SHIP", 1994)),
        ("q13", q13("special", "requests")),
        ("q14", q14(1995, 9)),
        ("q17", q17("Brand#23", "MED BOX")),
    ];
    let mut group = c.benchmark_group("relational_execution");
    group.sample_size(10);
    for (name, q) in &queries {
        group.bench_function(BenchmarkId::new("prepare_left", *name), |b| {
            b.iter(|| black_box(execute_fused(&q.left_prepare, catalog).expect("runs")))
        });
    }
    group.finish();
}

fn bench_federated_execution(c: &mut Criterion) {
    let (fed, a, b) = example_federation();
    let mut placement = Placement::new();
    placement.place("lineitem", a, EngineKind::Hive);
    placement.place("orders", b, EngineKind::PostgreSql);
    let db = TpchDb::generate(GenConfig::new(0.005, 4));
    let config = CandidateConfig {
        join_site: a,
        join_engine: EngineKind::Spark,
        instance_idx: 2,
        vm_count: 2,
    };
    let mut group = c.benchmark_group("federated_execution");
    group.sample_size(10);
    group.bench_function("q12_end_to_end", |bch| {
        bch.iter(|| {
            let mut sched = Scheduler::new(
                &fed,
                placement.clone(),
                SchedulerConfig {
                    seed: 5,
                    drift: DriftIntensity::Mild,
                    work_scale: 1.0,
                },
            );
            black_box(
                sched
                    .execute_with_config(&q12("MAIL", "SHIP", 1994), &config, db.catalog())
                    .expect("runs"),
            )
        })
    });
    group.finish();
    // Keep the env type in use so the bench compiles stand-alone.
    let _ = SimulationEnv::new();
}

/// The headline perf comparison: the fused executor the runtime serves with
/// against the scalar reference path on the paper's two-table queries,
/// full local pipeline (both prepares plus combine). The two must agree bit
/// for bit (`executor_equivalence.rs`); this is the place to read how far
/// apart they run.
fn bench_scalar_vs_fused(c: &mut Criterion) {
    let db = TpchDb::generate(GenConfig::new(0.01, 2));
    let queries: Vec<(&str, TwoTableQuery)> = vec![
        ("q12", q12("MAIL", "SHIP", 1994)),
        ("q13", q13("special", "requests")),
        ("q14", q14(1995, 9)),
        ("q17", q17("Brand#23", "MED BOX")),
    ];
    let fused = |plan: &PhysicalPlan, c: &Catalog| execute_fused(plan, c);
    let mut group = c.benchmark_group("scalar_vs_fused");
    group.sample_size(10);
    for (name, q) in &queries {
        let mut cat = db.catalog().clone();
        group.bench_function(BenchmarkId::new("scalar", *name), |b| {
            b.iter(|| black_box(q.execute_local(&mut cat, execute_scalar).expect("runs")))
        });
        group.bench_function(BenchmarkId::new("fused", *name), |b| {
            b.iter(|| black_box(q.execute_local(&mut cat, fused).expect("runs")))
        });
    }
    group.finish();
}

/// The per-row costs a cold `tpch_cold` job is made of, at its scale
/// (SF 0.1, 600 k lineitems) and through the executor the runtime serves
/// with. Each kernel that sizes its work by its smaller side sits beside the
/// case that cannot:
///
/// * group discovery into 20 k groups (Q17's `avg(l_quantity) group by
///   l_partkey`) — over the dense `l_partkey` (addressed directly) and over
///   the same rows with the keys spread out (hashed);
/// * Q12's combine join, 3 k lineitems with 150 k orders, in both argument
///   orders — the table is built on the 3 k either way;
/// * Q17's `@frag0 ⋈ @frag1`, 600 k lineitems probing the 24 parts of one
///   brand and container — chain heads addressed by `p_partkey`, a key
///   outside their range reading the sentinel head — and the same join over
///   keys × 1 009 (hashed);
/// * the selection programs: Q12's five-conjunct left filter (the string
///   `IN` runs on the survivors of the four date comparisons), Q14's date
///   range, and Q13's right prepare, `NOT (CONTAINS w1 AND CONTAINS w2)`
///   over 150 k order comments (`w2` tested only where `w1` hit; the `NOT`
///   is the complement);
/// * Q12's right prepare, two whole columns of `orders` — shared with the
///   base table, not copied, 150 k strings included — and the same prepare
///   over the 17 chunks `ingest_mixed` leaves `orders` in (16 appended
///   batches of 60 orders), where the chunks' string bytes are concatenated
///   with one copy each; and Q17's left prepare, three whole numeric
///   columns of `lineitem` cut into three chunks, each value copied once
///   from its chunk;
/// * what planning runs after a publish: Q13's right prepare extended by
///   one 60-order delta, and Q17's and Q13's whole queries — both prepares
///   extended, then the combine's delta state advanced over the rows they
///   appended.
///
/// Read the 600 k-row cases as ns/row = time / 600 k.
fn bench_cold_path_kernels(c: &mut Criterion) {
    let db = TpchDb::generate(GenConfig::new(0.1, 42));
    let scan = |table: &str| {
        Box::new(PhysicalPlan::Scan {
            table: table.to_string(),
        })
    };
    let mut catalog = db.catalog().clone();
    let lineitem = db.catalog().get("lineitem").expect("generated");
    // lineitem: 1 l_partkey, 3 l_quantity, 6 l_shipdate.
    let discovery = |table: &str, key: usize, value: usize| PhysicalPlan::Aggregate {
        input: scan(table),
        group_by: vec![key],
        aggs: vec![("avg_qty".to_string(), AggExpr::Avg(Expr::col(value)))],
    };
    let ColumnData::Int64(partkeys) = &*lineitem.column(1).expect("l_partkey").data else {
        panic!("l_partkey is an Int64 column");
    };
    let spread = |keys: &[i64]| {
        Column::new(
            "k",
            ColumnData::Int64(keys.iter().map(|k| k * 1009).collect()),
        )
    };
    let quantity = lineitem.column(3).expect("l_quantity").clone();
    let sparse = Table::new("sparse", vec![spread(partkeys), quantity]).expect("aligned");
    catalog.insert("sparse", sparse);

    let q17 = q17("Brand#23", "MED BOX");
    let q17_sides = [
        ("q17_lineitem", &q17.left_prepare),
        ("q17_part", &q17.right_prepare),
    ];
    for (name, prepare) in q17_sides {
        let (fragment, _) = execute_fused(prepare, db.catalog()).expect("runs");
        catalog.insert(name, fragment);
    }
    let parts = catalog.get("q17_part").expect("inserted above");
    let ColumnData::Int64(partkeys) = &*parts.column(0).expect("p_partkey").data else {
        panic!("p_partkey is an Int64 column");
    };
    let sparse_part = Table::new("sparse_part", vec![spread(partkeys)]).expect("one column");
    catalog.insert("sparse_part", sparse_part);

    let q = q12("MAIL", "SHIP", 1994);
    let PhysicalPlan::Project { input: q12_filter, .. } = &q.left_prepare else {
        panic!("Q12's left prepare projects its filter's output");
    };
    for (name, prepare) in [("@frag0", &q.left_prepare), ("@frag1", &q.right_prepare)] {
        let (fragment, _) = execute_fused(prepare, db.catalog()).expect("runs");
        catalog.insert(name, fragment);
    }
    let join = |left: &str, right: &str| PhysicalPlan::HashJoin {
        left: scan(left),
        right: scan(right),
        left_keys: vec![0],
        right_keys: vec![0],
        join_type: JoinType::Inner,
    };
    let start = ymd(1995, 9, 1);
    let date_range = PhysicalPlan::Filter {
        input: scan("lineitem"),
        predicate: Expr::col(6)
            .ge(Expr::date(start))
            .and(Expr::col(6).lt(Expr::date(add_months(start, 1)))),
    };
    let q13 = q13("special", "requests");
    let n = lineitem.n_rows();
    let cut = |from: usize, to: usize| {
        Arc::new(lineitem.take_ids(&(from as u32..to as u32).collect::<Vec<_>>()))
    };
    let chunks = vec![cut(0, n / 3), cut(n / 3, 2 * n / 3), cut(2 * n / 3, n)];
    let chunked = ChunkedTable::from_chunks("lineitem", chunks).expect("one schema");
    let three_chunks = CatalogVersion::from_chunked(vec![chunked]);
    let versions = db.versioned_catalog();
    let generated = versions.current();
    let mut deltas = DeltaStream::new(&db, 42);
    let mut publish = || {
        versions.append_batch(deltas.next_batch(60).into_batch()).expect("one schema");
        versions.current()
    };
    let ingested = (0..16).map(|_| publish()).last().expect("16 publishes");
    // One version per timed call and the warm-up, each one more delta.
    let later: Vec<_> = (0..16).map(|_| publish()).collect();
    let flat = TableSource::from(&catalog);
    let mut group = c.benchmark_group("cold_path_kernels");
    group.sample_size(10);
    for (name, plan, tables) in [
        ("group_600k_dense_20k", &discovery("lineitem", 1, 3), flat),
        ("group_discovery_600k_to_20k", &discovery("sparse", 0, 1), flat),
        ("join_3k_probe_150k", &join("@frag0", "@frag1"), flat),
        ("join_150k_probe_3k", &join("@frag1", "@frag0"), flat),
        ("join_600k_probe_dense", &join("q17_lineitem", "q17_part"), flat),
        ("join_600k_probe_sparse", &join("sparse", "sparse_part"), flat),
        ("filter_q12_left", &**q12_filter, flat),
        ("date_range_filter_600k", &date_range, flat),
        ("filter_q13_not_contains_pair", &q13.right_prepare, flat),
        ("project_whole_string_column", &q.right_prepare, flat),
        ("project_string_column_17_chunks", &q.right_prepare, (&ingested).into()),
        ("project_numeric_three_chunks", &q17.left_prepare, (&three_chunks).into()),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| black_box(execute_fused(plan, tables).expect("runs")))
        });
    }
    // What planning runs after a publish: Q13's right prepare over the 17
    // chunks of `orders`, extended by the next 60-order delta per call.
    let prepare = &q13.right_prepare;
    let mut extended = RowWiseOutput::compute(prepare, &ingested).expect("row-wise").expect("runs");
    let mut next = later.iter();
    group.bench_function("extend_q13_right_by_one_delta", |b| {
        b.iter(|| next.next().map(|v| black_box(extended.extend(prepare, v).expect("extends"))))
    });
    // What planning runs for a whole query after a publish: Q17's and
    // Q13's two prepares extended by the next delta, then the combine's
    // delta state advanced over the rows they appended.
    for (name, q) in [("extend_q17_combine_by_one_delta", &q17), ("extend_q13_combine_by_one_delta", &q13)] {
        let prepare = |plan: &PhysicalPlan| {
            RowWiseOutput::compute(plan, &ingested).expect("row-wise").expect("runs")
        };
        let mut prepared = [prepare(&q.left_prepare), prepare(&q.right_prepare)];
        let [left, right] = &prepared;
        let mut state = CombineState::compute(&q.combine, &[left, right]).expect("runs");
        let mut next = later.iter();
        group.bench_function(name, |b| {
            b.iter(|| {
                let v = next.next()?;
                let [left, right] = &mut prepared;
                left.extend(&q.left_prepare, v).expect("extends");
                right.extend(&q.right_prepare, v).expect("extends");
                Some(black_box(state.extend(&q.combine, &[left, right]).expect("extends")))
            })
        });
    }
    // What planning runs for a query class's first job: the combine's one
    // full run over its two prepares, state kept — Q13's groupjoin and
    // Q17's key-set aggregate.
    for (name, q) in [("q13_combine_cold", &q13), ("q17_combine_cold", &q17)] {
        let prepare = |plan: &PhysicalPlan| {
            RowWiseOutput::compute(plan, &generated).expect("row-wise").expect("runs")
        };
        let [left, right] = [prepare(&q.left_prepare), prepare(&q.right_prepare)];
        group.bench_function(name, |b| {
            b.iter(|| black_box(CombineState::compute(&q.combine, &[&left, &right]).expect("runs")))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_generation,
    bench_operators,
    bench_federated_execution,
    bench_scalar_vs_fused,
    bench_cold_path_kernels
);
criterion_main!(benches);
