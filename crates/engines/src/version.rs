//! Versioned copy-on-write catalogs — the live-data half of the data plane.
//!
//! The paper's hospital federation never stops ingesting: new patient
//! records and lineitems arrive *while* tenants query. [`Catalog`] is
//! immutable by design (that is what lets every worker and fragment share
//! it without locks), so liveness comes from a layer above it:
//!
//! * [`ChunkedTable`] — an append-only table as an ordered list of
//!   immutable [`Arc<Table>`] chunks. Appending a delta batch builds a new
//!   `ChunkedTable` whose prior chunks are `Arc::clone`d handles of the old
//!   one: **zero bytes of prior data are recopied** — prior chunks carry
//!   forward as handles by construction ([`AppendStats::shared_bytes`]
//!   counts them).
//! * [`CatalogVersion`] — one immutable published state of every table.
//!   The serving stack (fused executor, cost model, scheduler, runtime)
//!   reads it **in place**: it takes a `&CatalogVersion` as a
//!   [`TableSource`](crate::fused::TableSource) and scans chunks, so a
//!   publish costs its delta and nothing else. [`CatalogVersion::pin`] is
//!   the other way to read one, for code that needs contiguous tables —
//!   the scalar executor, oracles, tests: a plain [`Catalog`] in which
//!   every multi-chunk table has been compacted by [`Table::concat`] (once
//!   per version, cached) and single-chunk tables hand out their chunk.
//!   That copy is the one byte
//!   cost this store can pay per version, so it is measured —
//!   [`ChunkedTable::compaction_bytes`] — and `streaming_ingest.rs` gates
//!   it at zero for every version the runtime served.
//! * [`VersionedCatalog`] — the mutable head: `append`/`append_batch` build
//!   the next version copy-on-write (handle copies for untouched tables)
//!   and publish it atomically. Readers that pinned an older version keep
//!   their snapshot untouched — **snapshot isolation** — while later
//!   admissions observe the fresh rows.

use crate::catalog::Catalog;
use crate::data::Table;
use crate::error::EngineError;
use crate::lock_recover;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Source of process-unique [`ChunkedTable`] identities (see
/// [`ChunkedTable::id`]).
static NEXT_TABLE_ID: AtomicU64 = AtomicU64::new(1);

fn next_table_id() -> u64 {
    NEXT_TABLE_ID.fetch_add(1, Ordering::Relaxed)
}

/// Byte accounting of one delta append (see the module docs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AppendStats {
    /// Rows in the appended delta chunk.
    pub delta_rows: usize,
    /// Estimated bytes of the appended delta chunk (the only new data).
    pub delta_bytes: u64,
    /// Bytes of prior chunks carried into the new table by `Arc::clone`
    /// (handle copies, never byte copies — the copy-on-write invariant).
    pub shared_bytes: u64,
}

impl AppendStats {
    fn merge(&mut self, other: AppendStats) {
        self.delta_rows += other.delta_rows;
        self.delta_bytes += other.delta_bytes;
        self.shared_bytes += other.shared_bytes;
    }
}

/// An append-only table: immutable chunks sharing one schema.
pub struct ChunkedTable {
    name: String,
    /// Process-unique content identity (see [`ChunkedTable::id`]).
    id: u64,
    chunks: Vec<Arc<Table>>,
    n_rows: usize,
    /// The compacted single-table view, materialized at most once per
    /// version and shared by every pin of that version. Pre-seeded for
    /// single-chunk tables, so never-appended tables never compact.
    snapshot: OnceLock<Arc<Table>>,
}

impl fmt::Debug for ChunkedTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ChunkedTable")
            .field("name", &self.name)
            .field("chunks", &self.chunks.len())
            .field("n_rows", &self.n_rows)
            .field("compacted", &self.snapshot.get().is_some())
            .finish()
    }
}

impl ChunkedTable {
    /// Wraps an already-shared table as a one-chunk chunked table (the
    /// snapshot is the chunk itself — no compaction ever needed).
    pub fn from_shared(name: impl Into<String>, table: Arc<Table>) -> Self {
        let n_rows = table.n_rows();
        let snapshot = OnceLock::new();
        let _ = snapshot.set(Arc::clone(&table));
        ChunkedTable {
            name: name.into(),
            id: next_table_id(),
            chunks: vec![table],
            n_rows,
            snapshot,
        }
    }

    /// Builds a chunked table directly from pre-built chunks (no
    /// materialized intermediate table, no compaction debt). All chunks
    /// must share one schema; at least one chunk is required (a zero-row
    /// chunk is fine). A single-chunk table pre-seeds its snapshot like
    /// [`ChunkedTable::from_shared`], so it never pays compaction either.
    pub fn from_chunks(
        name: impl Into<String>,
        chunks: Vec<Arc<Table>>,
    ) -> Result<ChunkedTable, EngineError> {
        let name = name.into();
        let base = chunks.first().ok_or_else(|| EngineError::TypeMismatch {
            context: format!("chunked table {name:?} needs at least one chunk"),
        })?;
        for c in &chunks[1..] {
            if c.schema() != base.schema() {
                return Err(EngineError::TypeMismatch {
                    context: format!(
                        "chunk for table {:?} has schema {:?}, expected {:?}",
                        name,
                        c.schema(),
                        base.schema()
                    ),
                });
            }
        }
        let snapshot = OnceLock::new();
        if chunks.len() == 1 {
            let _ = snapshot.set(Arc::clone(&chunks[0]));
        }
        let n_rows = chunks.iter().map(|c| c.n_rows()).sum();
        Ok(ChunkedTable {
            name,
            id: next_table_id(),
            chunks,
            n_rows,
            snapshot,
        })
    }

    /// Process-unique identity of this table's *content state*.
    ///
    /// A fresh id is minted whenever a `ChunkedTable` is constructed — and
    /// appending builds a new table — so two handles share an id iff they
    /// are the same `Arc`'d table carried across versions untouched (which
    /// copy-on-write publishes guarantee is content-identical). That makes
    /// `(name, id)` a sound cache-key component: equal ids imply equal
    /// rows, and any publish that touches a table retires its id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The table's logical name (chunk tables may carry their own names).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Logical row count across all chunks.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of immutable chunks.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// The chunk handles, in append order.
    pub fn chunks(&self) -> &[Arc<Table>] {
        &self.chunks
    }

    /// Estimated bytes across all chunks.
    pub fn estimated_bytes(&self) -> u64 {
        self.chunks.iter().map(|c| c.estimated_bytes()).sum()
    }

    /// Builds the successor table: all prior chunks shared by `Arc::clone`,
    /// plus `delta` as a new chunk. The delta's schema must match; its rows
    /// append after all existing rows. A delta of no rows has no successor
    /// to build: the table itself is handed back — same chunks, same
    /// [`id`](ChunkedTable::id) — so no cache entry over it is retired for
    /// no new row and no later scan walks an empty slab.
    ///
    /// Prior chunks carry forward as handle copies *by construction* —
    /// `shared_bytes` reports their volume. (An earlier revision compared
    /// the cloned handles against their own sources by pointer identity;
    /// that gate was vacuous — freshly `Arc::clone`d handles are
    /// pointer-equal to their source by definition — so the recurring-cost
    /// measurement now lives at `pin()` time instead: see
    /// [`ChunkedTable::compaction_bytes`].)
    pub fn append(
        self: &Arc<Self>,
        delta: Table,
    ) -> Result<(Arc<ChunkedTable>, AppendStats), EngineError> {
        let base = self.chunks.first().expect("a chunked table has >= 1 chunk");
        if delta.schema() != base.schema() {
            return Err(EngineError::TypeMismatch {
                context: format!(
                    "delta for table {:?} has schema {:?}, expected {:?}",
                    self.name,
                    delta.schema(),
                    base.schema()
                ),
            });
        }
        let stats = AppendStats {
            delta_rows: delta.n_rows(),
            delta_bytes: delta.estimated_bytes(),
            shared_bytes: self.estimated_bytes(),
        };
        if delta.n_rows() == 0 {
            return Ok((Arc::clone(self), stats));
        }
        let mut chunks = Vec::with_capacity(self.chunks.len() + 1);
        chunks.extend(self.chunks.iter().map(Arc::clone));
        let n_rows = self.n_rows + delta.n_rows();
        chunks.push(Arc::new(delta));
        Ok((
            Arc::new(ChunkedTable {
                name: self.name.clone(),
                id: next_table_id(),
                chunks,
                n_rows,
                snapshot: OnceLock::new(),
            }),
            stats,
        ))
    }

    /// The contiguous single-table view of this chunked table.
    ///
    /// Single-chunk tables return their chunk handle (`Arc::clone`, zero
    /// copy). Multi-chunk tables compact via [`Table::concat`] exactly once
    /// — the result is cached in the version and every later pin shares it.
    pub fn snapshot(&self) -> Arc<Table> {
        Arc::clone(self.snapshot.get_or_init(|| {
            let parts: Vec<&Table> = self.chunks.iter().map(Arc::as_ref).collect();
            Arc::new(
                Table::concat(&self.name, &parts)
                    .expect("chunks of one table share a schema by construction"),
            )
        }))
    }

    /// Whether the compacted view has been materialized (or never needed).
    pub fn is_compacted(&self) -> bool {
        self.snapshot.get().is_some()
    }

    /// Bytes materialized by `pin()`-time compaction of this table — the
    /// one byte cost the copy-on-write store can pay per version.
    ///
    /// Single-chunk tables (never appended, or wrapping a pre-shared
    /// snapshot) report 0: their snapshot *is* their chunk, no bytes move.
    /// A multi-chunk table reports its snapshot's size once the snapshot
    /// has been built, and 0 before — so both "the serving path never
    /// pins" (0 after any number of jobs) and "repeated pins compact at
    /// most once" (pin twice, the number does not grow) are observable.
    pub fn compaction_bytes(&self) -> u64 {
        if self.chunks.len() > 1 {
            self.snapshot.get().map_or(0, |s| s.estimated_bytes())
        } else {
            0
        }
    }
}

/// One immutable published state of the whole data store.
pub struct CatalogVersion {
    version: u64,
    tables: HashMap<String, Arc<ChunkedTable>>,
}

impl fmt::Debug for CatalogVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CatalogVersion")
            .field("version", &self.version)
            .field("tables", &self.tables.len())
            .field("rows", &self.total_rows())
            .finish()
    }
}

impl CatalogVersion {
    /// Builds a standalone version 0 directly from chunked tables, so
    /// chunk-native scans run it without any `pin()` compaction.
    pub fn from_chunked(tables: Vec<ChunkedTable>) -> CatalogVersion {
        CatalogVersion {
            version: 0,
            tables: tables
                .into_iter()
                .map(|t| (t.name.clone(), Arc::new(t)))
                .collect(),
        }
    }

    /// Monotonically increasing version number (0 = the base catalog).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The chunked table registered under `name`.
    pub fn table(&self, name: &str) -> Option<&Arc<ChunkedTable>> {
        self.tables.get(name)
    }

    /// Row count of one table at this version.
    pub fn table_rows(&self, name: &str) -> Option<usize> {
        self.tables.get(name).map(|t| t.n_rows())
    }

    /// Total rows across all tables at this version.
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(|t| t.n_rows()).sum()
    }

    /// Registered table names in arbitrary order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(String::as_str)
    }

    /// The `(name → id)` identity map of this version's tables — the
    /// table-identity component of result-cache keys (see
    /// [`ChunkedTable::id`]). Tables untouched since an earlier version
    /// keep their id, so content-identical pins key identically across
    /// versions.
    pub fn table_ids(&self) -> HashMap<String, u64> {
        self.tables
            .iter()
            .map(|(name, table)| (name.clone(), table.id()))
            .collect()
    }

    /// Lends this version out as a plain [`Catalog`] of contiguous tables:
    /// one `Arc<Table>` snapshot per table, a multi-chunk table compacted
    /// (every row copied) on the first call and cached for later ones.
    /// For consumers that need flat tables — the sequential reference, the
    /// scalar oracle, tests. Nothing that serves runtime jobs
    /// calls it (`repro_lint`'s `serving-pin` rule): planning and
    /// execution take the version itself and scan its chunks.
    pub fn pin(&self) -> Catalog {
        self.tables
            .iter()
            .map(|(name, table)| (name.clone(), table.snapshot()))
            .collect()
    }

    /// Total bytes materialized compacting this version's multi-chunk
    /// tables so far (see [`ChunkedTable::compaction_bytes`]). Stable under
    /// repeated [`CatalogVersion::pin`] calls — compaction happens at most
    /// once per version.
    pub fn compaction_bytes(&self) -> u64 {
        self.tables.values().map(|t| t.compaction_bytes()).sum()
    }
}

/// Cumulative ingest accounting of a [`VersionedCatalog`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Delta chunks appended.
    pub appends: u64,
    /// Versions published (batch appends publish one version).
    pub versions_published: u64,
    /// Rows ingested across all deltas.
    pub rows_ingested: u64,
    /// Bytes ingested across all deltas (the only data ever copied in).
    pub bytes_ingested: u64,
    /// Prior-chunk bytes carried forward by `Arc::clone` across all appends.
    pub bytes_shared: u64,
}

/// A receipt for one published ingest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestReceipt {
    /// The version the ingest published (visible to admissions from now on).
    pub version: u64,
    /// Byte accounting of the append(s) behind it.
    pub stats: AppendStats,
}

/// The mutable head of the versioned store (see the module docs).
///
/// All mutation goes through one lock; readers never take it — they hold
/// `Arc<CatalogVersion>` handles obtained at admission time and keep their
/// snapshot for as long as they need it.
pub struct VersionedCatalog {
    current: Mutex<Arc<CatalogVersion>>,
    stats: Mutex<IngestStats>,
}

impl fmt::Debug for VersionedCatalog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VersionedCatalog")
            .field("current", &*self.current())
            .finish()
    }
}

impl VersionedCatalog {
    /// Version 0: every table of `base` becomes a one-chunk chunked table
    /// (handle copies — no table bytes move).
    pub fn new(base: Catalog) -> Self {
        let tables = base
            .iter()
            .map(|(name, table)| {
                (
                    name.to_string(),
                    Arc::new(ChunkedTable::from_shared(name, Arc::clone(table))),
                )
            })
            .collect();
        VersionedCatalog {
            current: Mutex::new(Arc::new(CatalogVersion { version: 0, tables })),
            stats: Mutex::new(IngestStats::default()),
        }
    }

    /// The currently published version (an atomic handle read; the version
    /// itself is immutable).
    pub fn current(&self) -> Arc<CatalogVersion> {
        Arc::clone(&lock_recover(&self.current))
    }

    /// The currently published version number.
    pub fn version(&self) -> u64 {
        self.current().version()
    }

    /// Appends one delta batch to `table` and publishes the successor
    /// version. Prior chunks — and every *other* table — are carried by
    /// `Arc::clone`; queries pinned to older versions are unaffected.
    pub fn append(&self, table: &str, delta: Table) -> Result<IngestReceipt, EngineError> {
        self.append_batch(vec![(table.to_string(), delta)])
    }

    /// Appends deltas to several tables and publishes them as **one**
    /// atomic version bump — an admission observes either none or all of
    /// the batch (new orders never appear without their lineitems).
    pub fn append_batch(
        &self,
        deltas: Vec<(String, Table)>,
    ) -> Result<IngestReceipt, EngineError> {
        self.append_batch_traced(deltas).map(|(receipt, _)| receipt)
    }

    /// [`VersionedCatalog::append_batch`], additionally returning the
    /// `(name, id)` pairs of the table states this publish *superseded* —
    /// exactly what a result cache keyed on table identity must
    /// invalidate. Captured inside the head lock, so the trace is
    /// race-free against concurrent publishes.
    pub fn append_batch_traced(
        &self,
        deltas: Vec<(String, Table)>,
    ) -> Result<(IngestReceipt, Vec<(String, u64)>), EngineError> {
        let mut head = lock_recover(&self.current);
        let mut tables: HashMap<String, Arc<ChunkedTable>> = head
            .tables
            .iter()
            .map(|(name, table)| (name.clone(), Arc::clone(table)))
            .collect();
        let mut batch = AppendStats::default();
        let mut appends = 0u64;
        let mut superseded = Vec::new();
        for (name, delta) in deltas {
            let existing = tables
                .get(&name)
                .ok_or_else(|| EngineError::UnknownTable(name.clone()))?;
            let (next, stats) = existing.append(delta)?;
            // An empty delta hands the table back: nothing was superseded.
            if next.id() != existing.id() {
                superseded.push((name.clone(), existing.id()));
                appends += 1;
            }
            batch.merge(stats);
            tables.insert(name, next);
        }
        let version = head.version + 1;
        // The superseded version — chunk vectors and any snapshot a flat
        // oracle compacted — is freed after the head lock is released, so
        // no `current()` ever waits behind a deallocation.
        let retired =
            std::mem::replace(&mut *head, Arc::new(CatalogVersion { version, tables }));
        drop(head);
        drop(retired);
        let mut stats = lock_recover(&self.stats);
        stats.appends += appends;
        stats.versions_published += 1;
        stats.rows_ingested += batch.delta_rows as u64;
        stats.bytes_ingested += batch.delta_bytes;
        stats.bytes_shared += batch.shared_bytes;
        Ok((
            IngestReceipt {
                version,
                stats: batch,
            },
            superseded,
        ))
    }

    /// Cumulative ingest accounting since construction.
    pub fn stats(&self) -> IngestStats {
        *lock_recover(&self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Column, ColumnData};

    fn table(name: &str, lo: i64, hi: i64) -> Table {
        Table::new(
            name,
            vec![
                Column::new("k", ColumnData::Int64((lo..hi).collect())),
                Column::new(
                    "s",
                    ColumnData::Utf8((lo..hi).map(|i| format!("v{i}")).collect()),
                ),
            ],
        )
        .unwrap()
    }

    fn base() -> Catalog {
        let mut cat = Catalog::new();
        cat.insert("t", table("t", 0, 10));
        cat.insert("fixed", table("fixed", 0, 3));
        cat
    }

    #[test]
    fn append_shares_every_prior_chunk() {
        let versioned = VersionedCatalog::new(base());
        let v0 = versioned.current();
        let receipt = versioned.append("t", table("t", 10, 15)).unwrap();
        assert_eq!(receipt.version, 1);
        assert_eq!(receipt.stats.delta_rows, 5);
        assert!(receipt.stats.shared_bytes > 0);

        let v1 = versioned.current();
        assert_eq!(v1.version(), 1);
        assert_eq!(v1.table_rows("t"), Some(15));
        // Prior chunk is pointer-identical across versions.
        assert!(Arc::ptr_eq(
            &v0.table("t").unwrap().chunks()[0],
            &v1.table("t").unwrap().chunks()[0]
        ));
        // Untouched tables share their whole ChunkedTable.
        assert!(Arc::ptr_eq(
            v0.table("fixed").unwrap(),
            v1.table("fixed").unwrap()
        ));
        // The old version still sees the old rows.
        assert_eq!(v0.table_rows("t"), Some(10));
    }

    #[test]
    fn table_ids_track_content_identity_across_versions() {
        let versioned = VersionedCatalog::new(base());
        let v0 = versioned.current();
        let ids0 = v0.table_ids();
        let (receipt, superseded) = versioned
            .append_batch_traced(vec![("t".to_string(), table("t", 10, 12))])
            .unwrap();
        assert_eq!(receipt.version, 1);
        // The publish reports exactly the superseded (name, id) pair.
        assert_eq!(superseded, vec![("t".to_string(), ids0["t"])]);
        let ids1 = versioned.current().table_ids();
        // Appended table retires its id; untouched table keeps it — so
        // cache entries over "fixed" keep hitting across the publish while
        // entries over "t" can never be served to a v1 admission.
        assert_ne!(ids1["t"], ids0["t"]);
        assert_eq!(ids1["fixed"], ids0["fixed"]);
        // Ids are unique across distinct tables too.
        assert_ne!(ids0["t"], ids0["fixed"]);
    }

    #[test]
    fn pin_compacts_once_per_version_and_matches_contiguous() {
        let versioned = VersionedCatalog::new(base());
        versioned.append("t", table("t", 10, 14)).unwrap();
        let v1 = versioned.current();
        assert!(!v1.table("t").unwrap().is_compacted());
        let pinned_a = v1.pin();
        assert!(v1.table("t").unwrap().is_compacted());
        let pinned_b = v1.pin();
        // Both pins share one compaction.
        assert!(Arc::ptr_eq(
            pinned_a.get_shared("t").unwrap(),
            pinned_b.get_shared("t").unwrap()
        ));
        // Never-appended tables pin their original chunk, zero copies.
        assert!(Arc::ptr_eq(
            pinned_a.get_shared("fixed").unwrap(),
            &v1.table("fixed").unwrap().chunks()[0]
        ));
        // Compaction is bit-identical to generating contiguously.
        assert_eq!(
            pinned_a.get("t").unwrap().fingerprint(),
            table("t", 0, 14).fingerprint()
        );
    }

    #[test]
    fn batch_append_publishes_one_atomic_version() {
        let versioned = VersionedCatalog::new(base());
        let receipt = versioned
            .append_batch(vec![
                ("t".to_string(), table("t", 10, 12)),
                ("fixed".to_string(), table("fixed", 3, 4)),
            ])
            .unwrap();
        assert_eq!(receipt.version, 1);
        assert_eq!(versioned.version(), 1);
        let stats = versioned.stats();
        assert_eq!(stats.appends, 2);
        assert_eq!(stats.versions_published, 1);
        assert_eq!(stats.rows_ingested, 3);
    }

    #[test]
    fn schema_and_name_errors_surface() {
        let versioned = VersionedCatalog::new(base());
        let bad_schema = Table::new(
            "t",
            vec![Column::new("k", ColumnData::Float64(vec![1.0]))],
        )
        .unwrap();
        assert!(matches!(
            versioned.append("t", bad_schema),
            Err(EngineError::TypeMismatch { .. })
        ));
        assert!(matches!(
            versioned.append("ghost", table("ghost", 0, 1)),
            Err(EngineError::UnknownTable(_))
        ));
        // Failed appends publish nothing.
        assert_eq!(versioned.version(), 0);
        assert_eq!(versioned.stats(), IngestStats::default());
    }

    #[test]
    fn no_publish_or_refused_append_changes_a_schema() {
        // What lets admission read its schema environment once: every
        // version's schemas are version 0's.
        use crate::analyze::SchemaCatalog;
        let versioned = VersionedCatalog::new(base());
        let before = SchemaCatalog::from_version(&versioned.current());
        assert!(matches!(before.get("t"), Some(Some(schema)) if schema.width() == 2));
        versioned
            .append_batch(vec![
                ("t".to_string(), table("t", 10, 12)),
                ("fixed".to_string(), table("fixed", 3, 4)),
            ])
            .unwrap();
        let after = versioned.current();
        assert_eq!(after.table("t").unwrap().chunk_count(), 2);
        assert_eq!(after.table("fixed").unwrap().chunk_count(), 2);
        assert_eq!(SchemaCatalog::from_version(&after), before);

        let bad_schema = Table::new(
            "t",
            vec![Column::new("k", ColumnData::Float64(vec![1.0]))],
        )
        .unwrap();
        assert!(versioned.append("t", bad_schema).is_err());
        assert!(versioned.append("ghost", table("ghost", 0, 1)).is_err());
        assert_eq!(versioned.version(), 1);
        assert_eq!(SchemaCatalog::from_version(&versioned.current()), before);
    }

    #[test]
    fn concurrent_ingest_and_pins_stay_isolated() {
        let versioned = VersionedCatalog::new(base());
        std::thread::scope(|scope| {
            for round in 0..4 {
                let versioned = &versioned;
                scope.spawn(move || {
                    let lo = 10 + round * 3;
                    versioned.append("t", table("t", lo, lo + 3)).unwrap();
                });
                scope.spawn(move || {
                    let v = versioned.current();
                    let rows = v.table_rows("t").unwrap();
                    // A pin observes exactly its version's rows, no matter
                    // how many ingests race past it.
                    assert_eq!(v.pin().get("t").unwrap().n_rows(), rows);
                });
            }
        });
        assert_eq!(versioned.version(), 4);
        assert_eq!(versioned.current().table_rows("t"), Some(22));
    }

    #[test]
    fn compaction_bytes_count_once_per_version() {
        let versioned = VersionedCatalog::new(base());
        let v0 = versioned.current();
        // Version 0 is all single-chunk tables: nothing to compact, ever.
        let _ = v0.pin();
        assert_eq!(v0.compaction_bytes(), 0);

        versioned.append("t", table("t", 10, 14)).unwrap();
        let v1 = versioned.current();
        // Before the first pin nothing has been materialized.
        assert_eq!(v1.compaction_bytes(), 0);
        let _ = v1.pin();
        let after_first = v1.compaction_bytes();
        assert!(after_first > 0);
        // Untouched single-chunk tables contribute nothing.
        assert_eq!(v1.table("fixed").unwrap().compaction_bytes(), 0);
        // Repeated pins share the cached snapshot: the number must not grow.
        let _ = v1.pin();
        let _ = v1.pin();
        assert_eq!(v1.compaction_bytes(), after_first);
    }
}
