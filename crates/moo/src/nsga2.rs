//! NSGA-II — the fast elitist multi-objective genetic algorithm
//! (Deb, Pratap, Agarwal, Meyarivan 2002), the optimizer the paper plugs
//! into the IReS Multi-Objective Optimizer.

use crate::pareto::{crowding_distance, fast_non_dominated_sort};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A multi-objective problem NSGA-II can search.
///
/// Genomes are opaque; the problem supplies sampling, variation and
/// evaluation. All randomness flows through the provided RNG so runs are
/// reproducible from the seed in [`Nsga2Config`].
pub trait MooProblem {
    /// Genome representation.
    type Genome: Clone;

    /// Number of (minimized) objectives.
    fn n_objectives(&self) -> usize;

    /// Samples a random genome.
    fn random_genome(&self, rng: &mut StdRng) -> Self::Genome;

    /// Evaluates a genome to its cost vector (all metrics minimized).
    fn evaluate(&self, genome: &Self::Genome) -> Vec<f64>;

    /// Recombines two parents into one child.
    fn crossover(&self, a: &Self::Genome, b: &Self::Genome, rng: &mut StdRng) -> Self::Genome;

    /// Mutates a genome in place.
    fn mutate(&self, genome: &mut Self::Genome, rng: &mut StdRng);
}

/// NSGA-II tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct Nsga2Config {
    /// Population size (also the offspring count per generation).
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
    /// Probability of applying crossover (else the first parent is cloned).
    pub crossover_prob: f64,
    /// Probability of mutating each child.
    pub mutation_prob: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Nsga2Config {
    fn default() -> Self {
        Nsga2Config {
            population: 60,
            generations: 50,
            crossover_prob: 0.9,
            mutation_prob: 0.3,
            seed: 42,
        }
    }
}

/// An evaluated individual in the final population.
#[derive(Debug, Clone)]
pub struct RankedIndividual<G> {
    /// The genome.
    pub genome: G,
    /// Its cost vector.
    pub costs: Vec<f64>,
    /// Non-domination rank (0 = Pareto front of the final population).
    pub rank: usize,
}

/// The NSGA-II runner.
pub struct Nsga2<'p, P: MooProblem> {
    problem: &'p P,
    config: Nsga2Config,
}

impl<'p, P: MooProblem> Nsga2<'p, P> {
    /// Binds the algorithm to a problem.
    pub fn new(problem: &'p P, config: Nsga2Config) -> Self {
        Nsga2 { problem, config }
    }

    /// Runs the GA and returns the final population, rank-annotated and
    /// sorted best-first (rank, then crowding). `evaluations` out-param via
    /// the returned tuple counts objective evaluations performed.
    pub fn run(&self) -> (Vec<RankedIndividual<P::Genome>>, usize) {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let pop_size = self.config.population.max(2);
        let mut evaluations = 0usize;

        // Parents first, then (inside a generation) their children; the two
        // pools are where a generation's members wait to be moved — not
        // cloned — into the next one.
        let mut genomes: Vec<P::Genome> = Vec::with_capacity(2 * pop_size);
        let mut costs: Vec<Vec<f64>> = Vec::with_capacity(2 * pop_size);
        let mut genome_pool = Vec::with_capacity(2 * pop_size);
        let mut cost_pool = Vec::with_capacity(2 * pop_size);
        genomes.extend((0..pop_size).map(|_| self.problem.random_genome(&mut rng)));
        for g in &genomes {
            evaluations += 1;
            costs.push(self.problem.evaluate(g));
        }

        for _ in 0..self.config.generations {
            let (ranks, crowd) = rank_and_crowd(&costs);

            // Variation: binary tournaments pick parents, crossover+mutation
            // produce pop_size children.
            for _ in 0..pop_size {
                let a = tournament(&ranks, &crowd, &mut rng);
                let b = tournament(&ranks, &crowd, &mut rng);
                let mut child = if rng.gen_bool(self.config.crossover_prob) {
                    self.problem.crossover(&genomes[a], &genomes[b], &mut rng)
                } else {
                    genomes[a].clone()
                };
                if rng.gen_bool(self.config.mutation_prob) {
                    self.problem.mutate(&mut child, &mut rng);
                }
                genomes.push(child);
            }
            for g in &genomes[pop_size..] {
                evaluations += 1;
                costs.push(self.problem.evaluate(g));
            }

            // Environmental selection over parents + children.
            let survivors = select_survivors(&costs, pop_size);
            keep_in_order(&mut genomes, &mut genome_pool, &survivors);
            keep_in_order(&mut costs, &mut cost_pool, &survivors);
        }

        // Final ranking for the caller.
        let (rank_of, crowd) = rank_and_crowd(&costs);
        let mut order: Vec<usize> = (0..costs.len()).collect();
        order.sort_by(|&a, &b| {
            rank_of[a]
                .cmp(&rank_of[b])
                .then(crowd[b].partial_cmp(&crowd[a]).expect("NaN crowding"))
        });
        keep_in_order(&mut genomes, &mut genome_pool, &order);
        keep_in_order(&mut costs, &mut cost_pool, &order);
        let result = genomes
            .into_iter()
            .zip(costs)
            .zip(order)
            .map(|((genome, costs), i)| RankedIndividual {
                genome,
                costs,
                rank: rank_of[i],
            })
            .collect();
        (result, evaluations)
    }

    /// Runs the GA and returns only the final Pareto front (rank 0).
    pub fn pareto_front(&self) -> Vec<RankedIndividual<P::Genome>> {
        let (pop, _) = self.run();
        pop.into_iter().filter(|ind| ind.rank == 0).collect()
    }
}

/// Computes (rank per index, crowding per index) for a whole population.
fn rank_and_crowd(costs: &[Vec<f64>]) -> (Vec<usize>, Vec<f64>) {
    let fronts = fast_non_dominated_sort(costs);
    let mut rank = vec![0usize; costs.len()];
    let mut crowd = vec![0.0f64; costs.len()];
    for (r, front) in fronts.iter().enumerate() {
        let refs: Vec<&[f64]> = front.iter().map(|&i| costs[i].as_slice()).collect();
        let d = crowding_distance(&refs);
        for (&i, &di) in front.iter().zip(d.iter()) {
            rank[i] = r;
            crowd[i] = di;
        }
    }
    (rank, crowd)
}

/// Replaces `items` by its members `order[0], order[1], …` (distinct
/// indices), moving each. `pool` is scratch space, empty between calls, so
/// once it has grown a generation allocates nothing here.
fn keep_in_order<T>(items: &mut Vec<T>, pool: &mut Vec<Option<T>>, order: &[usize]) {
    pool.extend(items.drain(..).map(Some));
    items.extend(
        order
            .iter()
            .map(|&i| pool[i].take().expect("selected indices are distinct")),
    );
    pool.clear();
}

/// Binary tournament on (rank asc, crowding desc).
fn tournament(ranks: &[usize], crowd: &[f64], rng: &mut StdRng) -> usize {
    let n = ranks.len();
    let a = rng.gen_range(0..n);
    let b = rng.gen_range(0..n);
    if ranks[a] < ranks[b] {
        a
    } else if ranks[b] < ranks[a] {
        b
    } else if crowd[a] >= crowd[b] {
        a
    } else {
        b
    }
}

/// NSGA-II environmental selection: fill by fronts, break the last front by
/// crowding distance. Returns the selected indices.
fn select_survivors(costs: &[Vec<f64>], target: usize) -> Vec<usize> {
    let fronts = fast_non_dominated_sort(costs);
    let mut chosen = Vec::with_capacity(target);
    for front in fronts {
        if chosen.len() + front.len() <= target {
            chosen.extend(front);
            if chosen.len() == target {
                break;
            }
        } else {
            let refs: Vec<&[f64]> = front.iter().map(|&i| costs[i].as_slice()).collect();
            let d = crowding_distance(&refs);
            let mut by_crowd: Vec<usize> = (0..front.len()).collect();
            by_crowd.sort_by(|&a, &b| d[b].partial_cmp(&d[a]).expect("NaN crowding"));
            for &k in by_crowd.iter().take(target - chosen.len()) {
                chosen.push(front[k]);
            }
            break;
        }
    }
    chosen
}

/// A ready-made [`MooProblem`] over integer boxes: genomes are `Vec<usize>`
/// with per-gene cardinalities and a caller-supplied evaluator.
///
/// This matches QEP search spaces exactly: gene 0 = engine assignment,
/// gene 1 = VM count on cloud A, gene 2 = instance type, …
pub struct IntBoxProblem<F>
where
    F: Fn(&[usize]) -> Vec<f64>,
{
    cardinalities: Vec<usize>,
    n_objectives: usize,
    evaluator: F,
}

impl<F> IntBoxProblem<F>
where
    F: Fn(&[usize]) -> Vec<f64>,
{
    /// Builds a problem where gene `i` ranges over `0..cardinalities[i]`.
    ///
    /// Panics if any cardinality is zero.
    pub fn new(cardinalities: Vec<usize>, n_objectives: usize, evaluator: F) -> Self {
        assert!(
            cardinalities.iter().all(|&c| c > 0),
            "every gene needs at least one value"
        );
        IntBoxProblem {
            cardinalities,
            n_objectives,
            evaluator,
        }
    }

    /// Total size of the search space (product of cardinalities), saturating.
    pub fn space_size(&self) -> usize {
        self.cardinalities
            .iter()
            .fold(1usize, |acc, &c| acc.saturating_mul(c))
    }
}

impl<F> MooProblem for IntBoxProblem<F>
where
    F: Fn(&[usize]) -> Vec<f64>,
{
    type Genome = Vec<usize>;

    fn n_objectives(&self) -> usize {
        self.n_objectives
    }

    fn random_genome(&self, rng: &mut StdRng) -> Vec<usize> {
        self.cardinalities
            .iter()
            .map(|&c| rng.gen_range(0..c))
            .collect()
    }

    fn evaluate(&self, genome: &Vec<usize>) -> Vec<f64> {
        (self.evaluator)(genome)
    }

    fn crossover(&self, a: &Vec<usize>, b: &Vec<usize>, rng: &mut StdRng) -> Vec<usize> {
        // Uniform crossover.
        a.iter()
            .zip(b.iter())
            .map(|(&x, &y)| if rng.gen_bool(0.5) { x } else { y })
            .collect()
    }

    fn mutate(&self, genome: &mut Vec<usize>, rng: &mut StdRng) {
        // Reset one random gene.
        let i = rng.gen_range(0..genome.len());
        genome[i] = rng.gen_range(0..self.cardinalities[i]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Classic 2-objective test problem on a discretized segment:
    /// f1 = x, f2 = 1 - x over x in {0, 1/K, ..., 1}. The whole space is
    /// Pareto-optimal, so NSGA-II should spread across it.
    fn segment_problem() -> IntBoxProblem<impl Fn(&[usize]) -> Vec<f64>> {
        const K: usize = 100;
        IntBoxProblem::new(vec![K + 1], 2, move |g| {
            let x = g[0] as f64 / K as f64;
            vec![x, 1.0 - x]
        })
    }

    /// Problem with a unique optimum so convergence is checkable:
    /// f1 = f2 = distance from (3, 4).
    fn convex_problem() -> IntBoxProblem<impl Fn(&[usize]) -> Vec<f64>> {
        IntBoxProblem::new(vec![10, 10], 2, |g| {
            let d = ((g[0] as f64 - 3.0).powi(2) + (g[1] as f64 - 4.0).powi(2)).sqrt();
            vec![d + g[0] as f64 * 0.01, d + g[1] as f64 * 0.01]
        })
    }

    #[test]
    fn finds_the_unique_optimum() {
        let p = convex_problem();
        let nsga = Nsga2::new(&p, Nsga2Config::default());
        let front = nsga.pareto_front();
        assert!(!front.is_empty());
        assert!(
            front.iter().any(|ind| ind.genome == vec![3, 4]),
            "optimum not found; front = {:?}",
            front.iter().map(|i| i.genome.clone()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn front_is_mutually_non_dominated() {
        let p = segment_problem();
        let nsga = Nsga2::new(&p, Nsga2Config::default());
        let front = nsga.pareto_front();
        for a in &front {
            for b in &front {
                assert!(!crate::dominance::pareto_dominates(&a.costs, &b.costs));
            }
        }
    }

    #[test]
    fn front_spreads_over_the_segment() {
        let p = segment_problem();
        let nsga = Nsga2::new(
            &p,
            Nsga2Config {
                population: 40,
                generations: 30,
                ..Nsga2Config::default()
            },
        );
        let front = nsga.pareto_front();
        let xs: Vec<f64> = front.iter().map(|i| i.costs[0]).collect();
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        assert!(max - min > 0.5, "front collapsed: [{min}, {max}]");
    }

    #[test]
    fn deterministic_given_seed() {
        let p = convex_problem();
        let cfg = Nsga2Config {
            seed: 7,
            ..Nsga2Config::default()
        };
        let (a, ea) = Nsga2::new(&p, cfg).run();
        let (b, eb) = Nsga2::new(&p, cfg).run();
        assert_eq!(ea, eb);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.genome, y.genome);
            assert_eq!(x.costs, y.costs);
        }
    }

    #[test]
    fn evaluation_budget_is_accounted() {
        let p = convex_problem();
        let cfg = Nsga2Config {
            population: 10,
            generations: 5,
            ..Nsga2Config::default()
        };
        let (_, evals) = Nsga2::new(&p, cfg).run();
        // init pop + one offspring batch per generation
        assert_eq!(evals, 10 + 10 * 5);
    }

    #[test]
    fn space_size_saturates() {
        let p = IntBoxProblem::new(vec![usize::MAX, 2], 1, |_| vec![0.0]);
        assert_eq!(p.space_size(), usize::MAX);
    }

    #[test]
    #[should_panic(expected = "at least one value")]
    fn zero_cardinality_panics() {
        let _ = IntBoxProblem::new(vec![0], 1, |_| vec![0.0]);
    }

    // ---- The implementation before the pair-once / move-not-clone rewrite,
    // ---- kept verbatim as the oracle `run` is pinned against.

    fn legacy_fast_non_dominated_sort(costs: &[Vec<f64>]) -> Vec<Vec<usize>> {
        use crate::dominance::pareto_dominates;
        let n = costs.len();
        if n == 0 {
            return Vec::new();
        }
        let mut dominated: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut counts = vec![0usize; n];
        for i in 0..n {
            for j in (i + 1)..n {
                if pareto_dominates(&costs[i], &costs[j]) {
                    dominated[i].push(j);
                    counts[j] += 1;
                } else if pareto_dominates(&costs[j], &costs[i]) {
                    dominated[j].push(i);
                    counts[i] += 1;
                }
            }
        }
        let mut fronts: Vec<Vec<usize>> = Vec::new();
        let mut current: Vec<usize> = (0..n).filter(|&i| counts[i] == 0).collect();
        while !current.is_empty() {
            let mut next = Vec::new();
            for &i in &current {
                for &j in &dominated[i] {
                    counts[j] -= 1;
                    if counts[j] == 0 {
                        next.push(j);
                    }
                }
            }
            fronts.push(std::mem::take(&mut current));
            current = next;
        }
        fronts
    }

    fn legacy_rank_and_crowd(costs: &[Vec<f64>]) -> (Vec<usize>, Vec<f64>) {
        let fronts = legacy_fast_non_dominated_sort(costs);
        let mut rank = vec![0usize; costs.len()];
        let mut crowd = vec![0.0f64; costs.len()];
        for (r, front) in fronts.iter().enumerate() {
            let refs: Vec<&[f64]> = front.iter().map(|&i| costs[i].as_slice()).collect();
            let d = crowding_distance(&refs);
            for (&i, &di) in front.iter().zip(d.iter()) {
                rank[i] = r;
                crowd[i] = di;
            }
        }
        (rank, crowd)
    }

    fn legacy_select_survivors(costs: &[Vec<f64>], target: usize) -> Vec<usize> {
        let fronts = legacy_fast_non_dominated_sort(costs);
        let mut chosen = Vec::with_capacity(target);
        for front in fronts {
            if chosen.len() + front.len() <= target {
                chosen.extend(front);
                if chosen.len() == target {
                    break;
                }
            } else {
                let refs: Vec<&[f64]> = front.iter().map(|&i| costs[i].as_slice()).collect();
                let d = crowding_distance(&refs);
                let mut by_crowd: Vec<usize> = (0..front.len()).collect();
                by_crowd.sort_by(|&a, &b| d[b].partial_cmp(&d[a]).expect("NaN crowding"));
                for &k in by_crowd.iter().take(target - chosen.len()) {
                    chosen.push(front[k]);
                }
                break;
            }
        }
        chosen
    }

    fn legacy_run<P: MooProblem>(
        problem: &P,
        config: Nsga2Config,
    ) -> (Vec<RankedIndividual<P::Genome>>, usize) {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let pop_size = config.population.max(2);
        let mut evaluations = 0usize;

        let mut genomes: Vec<P::Genome> = (0..pop_size)
            .map(|_| problem.random_genome(&mut rng))
            .collect();
        let mut costs: Vec<Vec<f64>> = genomes
            .iter()
            .map(|g| {
                evaluations += 1;
                problem.evaluate(g)
            })
            .collect();

        for _ in 0..config.generations {
            let (ranks, crowd) = legacy_rank_and_crowd(&costs);
            let mut child_genomes = Vec::with_capacity(pop_size);
            for _ in 0..pop_size {
                let a = tournament(&ranks, &crowd, &mut rng);
                let b = tournament(&ranks, &crowd, &mut rng);
                let mut child = if rng.gen_bool(config.crossover_prob) {
                    problem.crossover(&genomes[a], &genomes[b], &mut rng)
                } else {
                    genomes[a].clone()
                };
                if rng.gen_bool(config.mutation_prob) {
                    problem.mutate(&mut child, &mut rng);
                }
                child_genomes.push(child);
            }
            let child_costs: Vec<Vec<f64>> = child_genomes
                .iter()
                .map(|g| {
                    evaluations += 1;
                    problem.evaluate(g)
                })
                .collect();
            genomes.extend(child_genomes);
            costs.extend(child_costs);
            let survivors = legacy_select_survivors(&costs, pop_size);
            genomes = survivors.iter().map(|&i| genomes[i].clone()).collect();
            costs = survivors.iter().map(|&i| costs[i].clone()).collect();
        }

        let fronts = legacy_fast_non_dominated_sort(&costs);
        let mut rank_of = vec![0usize; costs.len()];
        for (r, front) in fronts.iter().enumerate() {
            for &i in front {
                rank_of[i] = r;
            }
        }
        let (_, crowd) = legacy_rank_and_crowd(&costs);
        let mut order: Vec<usize> = (0..costs.len()).collect();
        order.sort_by(|&a, &b| {
            rank_of[a]
                .cmp(&rank_of[b])
                .then(crowd[b].partial_cmp(&crowd[a]).expect("NaN crowding"))
        });
        let result = order
            .into_iter()
            .map(|i| RankedIndividual {
                genome: genomes[i].clone(),
                costs: costs[i].clone(),
                rank: rank_of[i],
            })
            .collect();
        (result, evaluations)
    }

    /// A QEP-shaped space (engine × instance × site × 70 VM counts) whose
    /// costs are rounded to one decimal: most of the population ties on an
    /// objective, so crowding boundaries and tournament ties — where a slip
    /// in member order would show — decide who survives.
    fn duplicate_heavy_problem() -> IntBoxProblem<impl Fn(&[usize]) -> Vec<f64>> {
        IntBoxProblem::new(vec![2, 3, 4, 70], 2, |g| {
            let vms = (g[3] + 1) as f64;
            let time = 40.0 / vms + 3.0 * g[0] as f64 + g[1] as f64;
            let money = 0.07 * vms * (g[2] + 1) as f64 + 0.5 * g[1] as f64;
            vec![(time * 10.0).round() / 10.0, (money * 10.0).round() / 10.0]
        })
    }

    fn assert_run_matches_legacy<P>(problem: &P, what: &str)
    where
        P: MooProblem,
        P::Genome: PartialEq + std::fmt::Debug,
    {
        for seed in [1, 2, 3, 7, 42, 1234] {
            let config = Nsga2Config {
                population: 40,
                generations: 25,
                seed,
                ..Nsga2Config::default()
            };
            let (want, want_evals) = legacy_run(problem, config);
            let (got, got_evals) = Nsga2::new(problem, config).run();
            assert_eq!(got_evals, want_evals, "{what} seed {seed}");
            assert_eq!(got_evals, 40 * 26, "{what} seed {seed}: no memoisation");
            assert_eq!(got.len(), want.len(), "{what} seed {seed}");
            for (k, (g, w)) in got.iter().zip(&want).enumerate() {
                assert_eq!(g.genome, w.genome, "{what} seed {seed} member {k}");
                assert_eq!(g.rank, w.rank, "{what} seed {seed} member {k}");
                let bits = |c: &[f64]| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&g.costs),
                    bits(&w.costs),
                    "{what} seed {seed} member {k}"
                );
            }
        }
    }

    #[test]
    fn run_reproduces_the_legacy_population_bit_for_bit() {
        assert_run_matches_legacy(&convex_problem(), "convex");
        assert_run_matches_legacy(&segment_problem(), "segment");
        assert_run_matches_legacy(&duplicate_heavy_problem(), "duplicate-heavy");
    }

    #[test]
    fn sort_keeps_the_legacy_member_order() {
        let p = duplicate_heavy_problem();
        let mut rng = StdRng::seed_from_u64(9);
        for n in [0, 1, 2, 63, 64, 65, 120, 200] {
            // Two objectives (the flat path), then the same points lifted
            // to three (the general one).
            let two: Vec<Vec<f64>> = (0..n)
                .map(|_| p.evaluate(&p.random_genome(&mut rng)))
                .collect();
            let three: Vec<Vec<f64>> = two
                .iter()
                .map(|c| vec![c[0], c[1], ((c[0] * 7.0 + c[1]) % 5.0).round()])
                .collect();
            for costs in [two, three] {
                assert_eq!(
                    fast_non_dominated_sort(&costs),
                    legacy_fast_non_dominated_sort(&costs),
                    "n = {n}, arity {}",
                    costs.first().map_or(0, |c| c.len())
                );
            }
        }
    }
}
