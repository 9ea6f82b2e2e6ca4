//! Cross-algorithm integration tests: NSGA-II and NSGA-G on shared
//! benchmark problems, judged by the indicators module.

use midas_moo::indicators::{coverage, hypervolume_2d};
use midas_moo::{IntBoxProblem, Nsga2, Nsga2Config, NsgaG, NsgaGConfig, WeightedSumModel};

/// Discretized ZDT1-flavoured problem: convex front f2 = 1 - sqrt(f1).
fn zdt1ish() -> IntBoxProblem<impl Fn(&[usize]) -> Vec<f64>> {
    const K: usize = 200;
    IntBoxProblem::new(vec![K + 1, 5], 2, move |g| {
        let x = g[0] as f64 / K as f64;
        let noise = g[1] as f64 * 0.02; // a second gene that only hurts
        vec![x + noise, 1.0 - x.sqrt() + noise]
    })
}

fn front_of(costs: Vec<Vec<f64>>) -> Vec<Vec<f64>> {
    costs
}

#[test]
fn all_three_algorithms_cover_the_convex_front() {
    let p = zdt1ish();
    let reference = [2.0, 2.0];

    let nsga2_front = front_of(
        Nsga2::new(&p, Nsga2Config::default())
            .pareto_front()
            .into_iter()
            .map(|i| i.costs)
            .collect(),
    );
    let nsgag_front = front_of(
        NsgaG::new(&p, NsgaGConfig::default())
            .pareto_front()
            .into_iter()
            .map(|i| i.costs)
            .collect(),
    );

    // The true front's hypervolume w.r.t. (2,2) is ~3.67; both algorithms
    // must come reasonably close.
    for (name, front) in [("nsga2", &nsga2_front), ("nsga_g", &nsgag_front)] {
        let hv = hypervolume_2d(front, &reference);
        assert!(hv > 3.3, "{name} hypervolume {hv} too low ({} pts)", front.len());
    }
}

#[test]
fn nsga2_is_not_dominated_wholesale_by_the_others() {
    let p = zdt1ish();
    let nsga2_front: Vec<Vec<f64>> = Nsga2::new(&p, Nsga2Config::default())
        .pareto_front()
        .into_iter()
        .map(|i| i.costs)
        .collect();
    let nsgag_front: Vec<Vec<f64>> = NsgaG::new(&p, NsgaGConfig::default())
        .pareto_front()
        .into_iter()
        .map(|i| i.costs)
        .collect();
    // Neither front fully covers the other (both are decent approximations).
    let c_ab = coverage(&nsga2_front, &nsgag_front);
    let c_ba = coverage(&nsgag_front, &nsga2_front);
    assert!(c_ab < 1.0 || c_ba < 1.0);
    // And each covers at least part of the other.
    assert!(c_ab + c_ba > 0.0);
}

#[test]
fn weighted_sum_cannot_reach_a_concave_front_interior() {
    // Concave front: f2 = sqrt(1 - f1^2). WSM over the *true front points*
    // always selects an extreme, while a Pareto front keeps the interior
    // points. This is the classic WSM limitation the paper's Section 2.6
    // alludes to.
    const K: usize = 100;
    let front: Vec<Vec<f64>> = (0..=K)
        .map(|i| {
            let x = i as f64 / K as f64;
            vec![x, (1.0 - x * x).sqrt()]
        })
        .collect();
    for w in [0.1, 0.3, 0.5, 0.7, 0.9] {
        let wsm = WeightedSumModel::new(&[w, 1.0 - w]);
        // Raw weighted sum over the concave front: optimum at an endpoint.
        let best = front
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                let sa = w * a[0] + (1.0 - w) * a[1];
                let sb = w * b[0] + (1.0 - w) * b[1];
                sa.partial_cmp(&sb).expect("finite")
            })
            .map(|(i, _)| i)
            .expect("front non-empty");
        assert!(
            best == 0 || best == K,
            "raw weighted sum picked interior point {best} at w={w}"
        );
        let _ = wsm; // normalized scores are exercised elsewhere
    }
}

#[test]
fn ranked_population_is_sorted_by_rank() {
    let p = zdt1ish();
    let (pop, _) = NsgaG::new(&p, NsgaGConfig::default()).run();
    for w in pop.windows(2) {
        assert!(w[0].rank <= w[1].rank);
    }
}
