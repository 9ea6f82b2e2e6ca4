//! # midas
//!
//! **MIDAS** — the Medical Data Management System on a cloud federation
//! (paper Figure 1), assembled from the workspace substrates:
//!
//! ```text
//!        user query + policy
//!                │
//!        ┌───────▼────────┐   IReS layer (midas-ires)
//!        │  Interface     │
//!        │  Modelling ◄───┼── DREAM (midas-dream) / BML (midas-mlearn)
//!        │  MO Optimizer ◄┼── NSGA-II / WSM (midas-moo)
//!        │  Generating QEP│
//!        └───────┬────────┘
//!                │ chosen federated plan
//!     ┌──────────▼───────────┐  multi-engine layer (midas-engines)
//!     │ Hive │ PostgreSQL │ Spark   on cloud sites (midas-cloud)
//!     └──────────────────────┘
//! ```
//!
//! [`runtime`] is the one driver of the submit → estimate → Pareto → select
//! → execute → learn loop, [`system`] holds the deployment and the query
//! policy it serves, and [`experiments`] hosts the drivers that regenerate
//! the paper's Tables 3/4, Figure 3 and Example 3.1.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod runtime;
pub mod system;

pub use runtime::{
    FailedJob, FederationRuntime, Ingress, LatencyStats, RuntimeCacheStats, RuntimeConfig,
    RuntimeError, RuntimeJob, RuntimeReport, TenantQueueStats, TenantReport, TenantStats,
};
pub use system::{Midas, MidasReport, QueryPolicy};
