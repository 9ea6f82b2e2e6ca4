//! # midas-moo
//!
//! Multi-objective optimization for Multi-Objective Query Processing (MOQP).
//!
//! The paper's pipeline (Section 3, Figure 3): after the Modelling module
//! predicts a cost *vector* per candidate query execution plan, a
//! multi-objective optimizer builds a **Pareto plan set**, and Algorithm 2
//! (`BestInPareto`) picks the final plan with the user's constraints `B` and
//! weighted-sum scores `S`. The paper motivates NSGA-II over a pure Weighted
//! Sum Model because re-weighting a WSM requires a fresh optimization run and
//! small weight changes can swing the result.
//!
//! Contents:
//!
//! * [`dominance`] — Pareto dominance over cost vectors (all metrics
//!   minimized), Eq. 1–3.
//! * [`pareto`] — Pareto-front extraction, fast non-dominated sort and
//!   crowding distance (the NSGA-II building blocks).
//! * [`nsga2`] — NSGA-II (Deb et al. 2002) over a pluggable
//!   [`nsga2::MooProblem`].
//! * [`nsgag`] — NSGA-G (Le, Kantere, d'Orazio 2018): NSGA-II with
//!   grid-based survival selection, the authors' own follow-up baseline.
//! * [`wsm`] — the Weighted Sum Model (Helff & Orazio 2016) with
//!   min–max normalization, plus a scalarized GA for the Figure 3 contrast.
//! * [`select`] — Algorithm 2: `BestInPareto` under constraints.
//! * [`indicators`] — front-quality indicators (exact 2-D hypervolume,
//!   spacing, coverage).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Objective-wise loops index on purpose (k-th objective of every member).
#![allow(clippy::needless_range_loop)]

pub mod dominance;
pub mod indicators;
pub mod nsga2;
pub mod nsgag;
pub mod pareto;
pub mod select;
pub mod wsm;

pub use dominance::{dominates, strictly_dominates, Dominance};
pub use nsga2::{IntBoxProblem, MooProblem, Nsga2, Nsga2Config, RankedIndividual};
pub use nsgag::{NsgaG, NsgaGConfig};
pub use pareto::{crowding_distance, fast_non_dominated_sort, pareto_front_indices};
pub use select::{best_in_pareto, Constraints};
pub use wsm::{weighted_sum, WeightedSumModel};
