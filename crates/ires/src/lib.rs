//! # midas-ires
//!
//! The IReS-like layer (paper Section 2.4): everything between a parsed
//! query and its execution on the federation.
//!
//! * [`modelling`] — the **Modelling module**: an execution-history store
//!   plus any [`midas_dream::CostEstimator`] (DREAM or the BML baselines)
//!   behind one facade, mirroring Figure 2's dataflow.
//! * [`enumerate`] — **QEP enumeration**: the space of equivalent plans for
//!   a two-table federated query (join site × engine × instance type × VM
//!   count), including the Example 3.1 configuration counting.
//! * [`costmodel`] — an analytic per-configuration cost evaluator built from
//!   one real execution's work profile; it powers the optimizer experiments
//!   where thousands of equivalent QEPs must be costed cheaply.
//! * [`optimizer`] — the **Multi-Objective Optimizer**: the Pareto/GA
//!   pipeline (NSGA-II → Pareto set → Algorithm 2) and the Weighted Sum
//!   Model pipeline it is compared against in Figure 3.
//! * [`scheduler`] — the submit→enumerate→estimate→select→execute→learn
//!   loop binding it all together.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod costmodel;
pub mod enumerate;
pub mod modelling;
pub mod optimizer;
pub mod scheduler;

pub use costmodel::{CostModelError, PlanCostModel};
pub use enumerate::{assemble, CandidateConfig, EnumerationSpace};
pub use modelling::{ClassLearning, Modelling, ModellingRegistry};
pub use optimizer::{moqp_ga, moqp_wsm, MoqpOutcome};
pub use scheduler::{ExecutedQuery, Scheduler, SchedulerConfig, SchedulerError};
