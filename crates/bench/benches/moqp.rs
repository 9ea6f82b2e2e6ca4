//! Bench companion to **Figure 3**: wall-clock of the three MOQP pipelines
//! (NSGA-II+Algorithm 2, scalarized-WSM GA, exhaustive) over one QEP space —
//! at 12 VMs, at the benchmark's 70 (2 310 candidates), and the exact front
//! alone over Example 3.1's 18 200-configuration pool. `verify.sh` runs it
//! in `--test` mode: a front that went quadratic again would turn that
//! stage from milliseconds into seconds.

use criterion::{criterion_group, criterion_main, Criterion};
use midas_cloud::federation::example_federation;
use midas_engines::{EngineKind, Placement};
use midas_ires::optimizer::{moqp_exhaustive, moqp_ga, moqp_wsm};
use midas_ires::{CandidateConfig, EnumerationSpace, PlanCostModel};
use midas_moo::select::Constraints;
use midas_moo::{Nsga2Config, WeightedSumModel};
use midas_tpch::gen::{GenConfig, TpchDb};
use midas_tpch::queries::q12;
use std::hint::black_box;

fn bench_moqp(c: &mut Criterion) {
    let (fed, a, b) = example_federation();
    let mut placement = Placement::new();
    placement.place("lineitem", a, EngineKind::Hive);
    placement.place("orders", b, EngineKind::PostgreSql);
    let db = TpchDb::generate(GenConfig::new(0.005, 3));
    let query = q12("MAIL", "SHIP", 1994);
    let space = EnumerationSpace::for_query(&fed, &placement, &query, 12).expect("placed");
    let model = PlanCostModel::build(&placement, &query, db.catalog()).expect("buildable");
    let weights = WeightedSumModel::new(&[0.5, 0.5]);
    let none = Constraints::none(2);
    let ga_cfg = Nsga2Config {
        population: 40,
        generations: 25,
        seed: 5,
        ..Nsga2Config::default()
    };

    let mut group = c.benchmark_group("moqp_pipelines");
    group.sample_size(10);
    group.bench_function("nsga2_plus_algorithm2", |bch| {
        bch.iter(|| black_box(moqp_ga(&space, &model, &fed, &weights, &none, ga_cfg)))
    });
    group.bench_function("wsm_scalarized_ga", |bch| {
        bch.iter(|| black_box(moqp_wsm(&space, &model, &fed, &weights, ga_cfg)))
    });
    group.bench_function("exhaustive", |bch| {
        bch.iter(|| black_box(moqp_exhaustive(&space, &model, &fed, &weights, &none)))
    });

    // The `estimation_replay` workload's space and GA budget.
    let space = EnumerationSpace::for_query(&fed, &placement, &query, 70).expect("placed");
    assert_eq!(space.len(), 2310);
    group.bench_function("exhaustive_2310", |bch| {
        bch.iter(|| black_box(moqp_exhaustive(&space, &model, &fed, &weights, &none)))
    });
    group.bench_function("nsga2_2310", |bch| {
        let ga = Nsga2Config::default();
        bch.iter(|| black_box(moqp_ga(&space, &model, &fed, &weights, &none, ga)))
    });

    // Example 3.1's pool, as `qep_enumeration.rs` builds it; costed once,
    // only the front is timed.
    let n_instances = fed.site(a).catalog.instances().len();
    let costs: Vec<Vec<f64>> = (0..18_200u64)
        .map(|i| {
            let config = CandidateConfig {
                join_site: a,
                join_engine: EngineKind::ALL[(i % 3) as usize],
                instance_idx: (i as usize / 3) % n_instances,
                vm_count: (i % 16) as u32 + 1,
            };
            model.cost(&fed, &config)
        })
        .collect();
    group.bench_function("exhaustive_front_18200", |bch| {
        bch.iter(|| black_box(midas_moo::pareto_front_indices(black_box(&costs))))
    });
    group.finish();
}

fn bench_nsga_variants(c: &mut Criterion) {
    use midas_moo::{IntBoxProblem, Moead, MoeadConfig, Nsga2, NsgaG, NsgaGConfig};
    // A pure optimization benchmark on a synthetic 3-gene problem.
    let problem = IntBoxProblem::new(vec![20, 20, 20], 2, |g| {
        let x = g[0] as f64;
        let y = g[1] as f64;
        let z = g[2] as f64;
        vec![(x - 10.0).powi(2) + z, (y - 10.0).powi(2) + (20.0 - z)]
    });
    let cfg = Nsga2Config {
        population: 50,
        generations: 30,
        seed: 9,
        ..Nsga2Config::default()
    };
    let mut group = c.benchmark_group("nsga_variants");
    group.sample_size(10);
    group.bench_function("nsga2", |b| {
        b.iter(|| black_box(Nsga2::new(&problem, cfg).run()))
    });
    group.bench_function("nsga_g", |b| {
        b.iter(|| {
            black_box(
                NsgaG::new(
                    &problem,
                    NsgaGConfig {
                        base: cfg,
                        divisions: 8,
                    },
                )
                .run(),
            )
        })
    });
    group.bench_function("moea_d", |b| {
        b.iter(|| {
            black_box(
                Moead::new(
                    &problem,
                    MoeadConfig {
                        population: 50,
                        generations: 30,
                        seed: 9,
                        ..MoeadConfig::default()
                    },
                )
                .run(),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_moqp, bench_nsga_variants);
criterion_main!(benches);
