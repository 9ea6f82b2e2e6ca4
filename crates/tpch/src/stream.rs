//! The streaming medical workload: hospitals ingest while tenants query.
//!
//! The paper's setting is a *live* federation — new records keep arriving
//! as hospitals admit patients, while other tenants run their analytic
//! queries. This module turns that into a deterministic event tape:
//! interleaved **ingest events** (delta batches from a
//! [`DeltaStream`] — new orders plus their lineitems, one atomic catalog
//! version bump each) and **query events** (Q12–Q17 instances drawn from
//! per-tenant split-seeded [`WorkloadGenerator`] streams, the generator
//! the benchmark's `tpch_cold` and `ingest_mixed` workloads draw from).
//!
//! The tape is a pure function of `(db shape, spec)`: a streaming runtime
//! consuming it concurrently and a sequential oracle replaying it
//! event-by-event see bit-identical deltas and bit-identical query
//! parameters — which is what makes the snapshot-isolation harnesses able
//! to pin results against per-version standalone execution.

use crate::gen::{DeltaStream, TpchDb};
use crate::queries::QueryId;
use crate::workload::WorkloadGenerator;
use midas_engines::data::Table;
use midas_engines::sim::split_seed;
use crate::TwoTableQuery;

/// One event of the streaming tape.
#[derive(Debug, Clone)]
pub enum StreamEvent {
    /// A hospital ingest wave: `(table, delta)` pairs to publish as one
    /// atomic catalog version bump.
    Ingest {
        /// Index of the ingest batch in the tape (0-based).
        batch: u64,
        /// The delta tables.
        deltas: Vec<(String, Table)>,
    },
    /// A tenant query submission.
    Query {
        /// The submitting tenant.
        tenant: String,
        /// Position of this query in the tape's submission order.
        sequence: usize,
        /// The bound query instance.
        query: Box<TwoTableQuery>,
    },
}

/// Shape of a [`streaming_workload`] tape.
#[derive(Debug, Clone)]
pub struct StreamSpec {
    /// Base seed; split per tenant and per delta batch.
    pub seed: u64,
    /// Tenant names; tenant `t` cycles through the paper's query classes
    /// with its own parameter stream.
    pub tenants: Vec<String>,
    /// Rounds; each round submits one query per tenant.
    pub rounds: usize,
    /// Emit an ingest event after every `ingest_every` queries (0 = never).
    pub ingest_every: usize,
    /// New orders per ingest batch.
    pub orders_per_batch: usize,
}

impl StreamSpec {
    /// The default four-hospital mix used by the benches.
    pub fn hospitals(seed: u64, rounds: usize) -> Self {
        StreamSpec {
            seed,
            tenants: ["hospital-A", "hospital-B", "hospital-C", "hospital-D"]
                .map(String::from)
                .to_vec(),
            rounds,
            ingest_every: 3,
            orders_per_batch: 60,
        }
    }
}

/// Builds the deterministic event tape for `spec` over `db` (see the
/// module docs). Queries appear in round-robin tenant order per round;
/// after every `ingest_every` queries the next [`DeltaStream`] batch is
/// spliced in.
pub fn streaming_workload(db: &TpchDb, spec: &StreamSpec) -> Vec<StreamEvent> {
    let classes = QueryId::PAPER_SET;
    let mut deltas = DeltaStream::new(db, split_seed(spec.seed, 0xD417A));
    // One instance stream per (tenant, class), generated once up front
    // (round `r` takes element `r` — identical to popping the last of the
    // first `r + 1`, without regenerating the prefix every round).
    let instances: Vec<Vec<_>> = (0..spec.tenants.len())
        .map(|t| {
            let stream = WorkloadGenerator::new(split_seed(spec.seed, t as u64));
            classes
                .iter()
                .map(|&class| stream.instances(class, spec.rounds))
                .collect::<Vec<_>>()
        })
        .collect();
    let mut events = Vec::new();
    let mut sequence = 0usize;
    // `round` both indexes the per-class streams *and* rotates the class
    // pick, so an iterator rewrite would obscure the tape definition.
    #[allow(clippy::needless_range_loop)]
    for round in 0..spec.rounds {
        for (t, tenant) in spec.tenants.iter().enumerate() {
            let class_idx = (round + t) % classes.len();
            let instance = instances[t][class_idx][round].clone();
            events.push(StreamEvent::Query {
                tenant: tenant.clone(),
                sequence,
                query: Box::new(instance.query),
            });
            sequence += 1;
            if spec.ingest_every > 0 && sequence.is_multiple_of(spec.ingest_every) {
                let delta = deltas.next_batch(spec.orders_per_batch);
                events.push(StreamEvent::Ingest {
                    batch: delta.batch,
                    deltas: delta.into_batch(),
                });
            }
        }
    }
    events
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::GenConfig;

    fn tape() -> (TpchDb, Vec<StreamEvent>) {
        let db = TpchDb::generate(GenConfig::new(0.002, 5));
        let events = streaming_workload(&db, &StreamSpec::hospitals(7, 3));
        (db, events)
    }

    #[test]
    fn tape_interleaves_queries_and_ingest() {
        let (_, events) = tape();
        let queries = events
            .iter()
            .filter(|e| matches!(e, StreamEvent::Query { .. }))
            .count();
        let ingests = events
            .iter()
            .filter(|e| matches!(e, StreamEvent::Ingest { .. }))
            .count();
        assert_eq!(queries, 12, "3 rounds x 4 tenants");
        assert_eq!(ingests, 4, "one ingest per 3 queries");
        // Sequences are the query submission order.
        let seqs: Vec<usize> = events
            .iter()
            .filter_map(|e| match e {
                StreamEvent::Query { sequence, .. } => Some(*sequence),
                _ => None,
            })
            .collect();
        assert_eq!(seqs, (0..12).collect::<Vec<_>>());
    }

    #[test]
    fn tape_is_deterministic_and_applies_cleanly() {
        let (db, events) = tape();
        let again = streaming_workload(&db, &StreamSpec::hospitals(7, 3));
        assert_eq!(events.len(), again.len());
        for (a, b) in events.iter().zip(again.iter()) {
            match (a, b) {
                (
                    StreamEvent::Query {
                        tenant: ta,
                        query: qa,
                        ..
                    },
                    StreamEvent::Query {
                        tenant: tb,
                        query: qb,
                        ..
                    },
                ) => {
                    assert_eq!(ta, tb);
                    assert_eq!(qa.label, qb.label);
                }
                (
                    StreamEvent::Ingest { deltas: da, .. },
                    StreamEvent::Ingest { deltas: db_, .. },
                ) => {
                    assert_eq!(da, db_);
                }
                // LINT: panic-ok — replay-oracle assertion in a test
                // helper: two identically seeded tapes must agree.
                _ => panic!("tapes diverged in event kind"),
            }
        }
        // Every ingest batch appends cleanly as one version bump.
        let versioned = db.versioned_catalog();
        for event in events {
            if let StreamEvent::Ingest { deltas, .. } = event {
                let receipt = versioned.append_batch(deltas).unwrap();
                assert!(receipt.stats.shared_bytes > 0);
            }
        }
        assert_eq!(versioned.version(), 4);
    }

    #[test]
    fn tenants_draw_distinct_parameter_streams() {
        let (_, events) = tape();
        let mut labels_by_tenant: std::collections::HashMap<&str, Vec<&str>> =
            std::collections::HashMap::new();
        for e in &events {
            if let StreamEvent::Query { tenant, query, .. } = e {
                labels_by_tenant
                    .entry(tenant.as_str())
                    .or_default()
                    .push(query.label.as_str());
            }
        }
        assert_eq!(labels_by_tenant.len(), 4);
        let a = &labels_by_tenant["hospital-A"];
        let b = &labels_by_tenant["hospital-B"];
        assert_ne!(a, b, "tenants must not share one parameter stream");
    }
}
