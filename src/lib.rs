//! # midas-repro
//!
//! Umbrella crate for the reproduction of *"Dynamic estimation for medical
//! data management in a cloud federation"* (Le, Kantere, d'Orazio — EDBT/ICDT
//! 2019 workshops). It re-exports every workspace crate under one roof so the
//! examples and the cross-crate integration tests have a single dependency.
//!
//! Layer map (bottom to top):
//!
//! * [`linalg`] — dense matrices, solvers, statistics.
//! * [`dream`] — the paper's contribution: MLR + Algorithm 1 (adaptive
//!   training-window regression) behind the [`dream::CostEstimator`] trait.
//! * [`mlearn`] — the IReS baseline learners (least squares, bagging, MLP)
//!   and the Best-ML-model selector ("BML").
//! * [`moo`] — multi-objective optimization: Pareto dominance, NSGA-II,
//!   NSGA-G, weighted sum, Algorithm 2 (`best_in_pareto`).
//! * [`cloud`] — the cloud-federation substrate: providers, Table 1 instance
//!   catalogs, pricing, networking, data placement.
//! * [`engines`] — the multi-engine execution substrate: a columnar
//!   relational executor with Hive/PostgreSQL/Spark performance profiles and
//!   simulated load drift.
//! * [`tpch`] — TPC-H-style generator, the two-table queries Q12/Q13/Q14/Q17,
//!   and the medical schema of Example 2.1.
//! * [`ires`] — the IReS-like layer: history store, Modelling module, QEP
//!   enumeration, multi-objective optimizer integration.
//! * [`midas`] — the full system facade: submit → estimate → Pareto →
//!   select → execute → learn.

#![forbid(unsafe_code)]

pub use midas;
pub use midas_cloud as cloud;
pub use midas_dream as dream;
pub use midas_engines as engines;
pub use midas_ires as ires;
pub use midas_linalg as linalg;
pub use midas_mlearn as mlearn;
pub use midas_moo as moo;
pub use midas_tpch as tpch;
