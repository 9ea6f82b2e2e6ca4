//! # midas-tpch
//!
//! A from-scratch, deterministic TPC-H-style workload substrate.
//!
//! The paper evaluates DREAM on the TPC-H benchmark at 100 MiB and 1 GiB,
//! restricted to the queries touching exactly two tables — Q12, Q13, Q14 and
//! Q17 — because those split naturally across a two-cloud federation (one
//! table per cloud, as in Example 2.1). This crate supplies:
//!
//! * [`dates`] — civil-date ↔ day-number conversion (TPC-H dates span
//!   1992-01-01 .. 1998-12-31),
//! * [`gen`] — a seeded generator for the eight TPC-H tables with the spec's
//!   cardinality ratios and a *row cap* that rescales the database uniformly
//!   (the substitution documented in DESIGN.md): one layout, built by one
//!   code path, plus [`DeltaStream`] ingest batches that continue its keys,
//! * [`queries`] — plan templates for Q12/Q13/Q14/Q17 as two-table federated
//!   queries (prepare-left, prepare-right, combine),
//! * [`workload`] — parameterized query-instance streams (rotating ship
//!   modes, date windows, brands…) so input sizes vary run to run,
//! * [`medical`] — the Patient/GeneralInfo schema of Example 2.1 and its
//!   join query, for the medical examples,
//! * [`stream`] — the streaming medical workload: a deterministic tape of
//!   hospital ingest deltas interleaved with Q12–Q17 tenant queries, for
//!   the live-data (copy-on-write catalog) runtime harnesses.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dates;
pub mod gen;
pub mod medical;
pub mod queries;
pub mod stream;
pub mod workload;

pub use gen::{DeltaStream, GenConfig, TpchDb, TpchDelta};
pub use queries::{QueryId, TwoTableQuery};
pub use stream::{streaming_workload, StreamEvent, StreamSpec};
pub use workload::{QueryInstance, WorkloadGenerator};
