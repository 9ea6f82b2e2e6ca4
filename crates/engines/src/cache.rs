//! Multi-tenant result caching: canonical plan fingerprints, privacy
//! scopes, and a byte-budgeted fair-share LRU.
//!
//! At millions of users most federation traffic is *the same* query: every
//! hospital re-scans `generalinfo`, every tenant re-plans the same query
//! shapes. This module makes result reuse a pure keying exercise over
//! state the engine already maintains:
//!
//! # Cache keys
//!
//! A cached value is correct to serve iff its key *uniquely determines*
//! the computation that produced it. A [`CacheKey`] has three components:
//!
//! 1. **Scope** — the sharing domain (see *Scopes* below). Two entries in
//!    different scopes never collide, by key inequality alone.
//! 2. **Plan fingerprint** — [`PlanFingerprint`] is a canonical,
//!    *injective* byte encoding of one or more [`PhysicalPlan`] trees:
//!    every operator, expression, literal (floats by bit pattern), column
//!    index and table name is tag-and-length encoded, so two plans share a
//!    fingerprint iff they are structurally identical. The full encoding
//!    is kept and compared on equality — the 64-bit hash is only a table
//!    index, so hash collisions cannot alias two different plans.
//! 3. **Table identity** — the `(name, id)` pairs of every base table the
//!    plan reads, where the id is the
//!    [`ChunkedTable`](crate::version::ChunkedTable) identity
//!    (`ChunkedTable::id`): a process-unique number minted whenever a
//!    table's content could differ from any previously existing table.
//!    Appending a delta builds a *new* chunked table with a *new* id,
//!    while untouched tables carry their `Arc` (and id) across versions.
//!    A job pinned to catalog version `v` therefore hits entries computed
//!    by *any* earlier job whose pinned tables were content-identical —
//!    across versions, tenants and worker counts — and can never hit an
//!    entry from a different table state.
//!
//! Because the executor is deterministic (results, fingerprints and
//! [`WorkProfile`]s are pinned bit-identical across fused/scalar paths,
//! chunkings and worker counts by the differential suites),
//! equal keys imply bit-identical outputs: a cache hit returns exactly
//! what recomputation would have.
//!
//! # Pressure and the plan cache
//!
//! Congestion-aware planning raises an aliasing hazard the key must not
//! be asked to solve: a plan selected under one transient pressure state
//! is wrong to serve under another, yet pressure changes far too often to
//! be a useful key component (keying on it would shatter the cache into
//! single-use entries). The runtime resolves this **by construction**
//! rather than by key: a cached planning entry stores only the enumerated
//! QEP space and the *pressure-free* base cost model — both pure
//! functions of the key's (scope, plan fingerprint, table identity) —
//! and every job applies its own admission-time pressure sample to a
//! clone of the retrieved model *after* lookup/insertion. Transient
//! congestion therefore never enters a cached value, hits stay correct
//! under any pressure state, and no quantized-pressure key component (or
//! bypass-when-pressured mode) is needed.
//!
//! # Invalidation
//!
//! Entries never go stale *logically* — a publish mints new table ids, so
//! later admissions key differently and miss. Invalidation exists to
//! reclaim memory promptly: on an ingest publish the runtime calls
//! [`FragmentResultCache::invalidate_tables`] with the superseded
//! `(name, id)` pairs of exactly the appended tables, dropping their
//! entries while entries over untouched tables survive. Entries that
//! escape eager invalidation (e.g. raced publishes, appends made beside
//! the runtime) age out through the LRU byte budget.
//!
//! # Predecessors
//!
//! A fragment that planning computes keeps a *delta state*
//! ([`DeltaState`], `fused`'s module docs, §5): its output with every
//! operator's exact totals, what its aggregates and join sides keep, and
//! what it read of each source. The state rides on the fragment's entry,
//! is charged to the byte budget with it (`DeltaState::bytes` on top of
//! the table) and leaves with it when the LRU evicts it. Invalidation keeps
//! the states of the entries it drops as *predecessors* — one generation,
//! which the next publish replaces, prepares and combines alike — while
//! counting the entries in `invalidations` and dropping them from
//! `resident_*`. A predecessor is keyed by a *slot*: its exact key with
//! the tables' states dropped — scope, plans and table names — so under
//! [`CacheScope::PerTenant`] no tenant extends another's. A prepare's and
//! a combine's slots never meet: the plans their keys fingerprint differ.
//!
//! Planning (`exec::profile_fragments_cached`) probes a prepare's exact
//! key, then its slot's predecessor; a combine, once its prepares are
//! planned, probes its slot alone. A predecessor is advanced over the rows
//! appended since, under its own lock (two planners of one fragment extend
//! once). A state that cannot advance — a late job's older version, one
//! another writer grew, a join whose right side grew under anything but a
//! count, a poisoned lock — is left as it is, and the fragment is computed
//! in full. These probes count
//! in [`PlanningStats`], never in [`CacheStats`], and touch no recency, so
//! execution's hits, misses and admissions are what they were.
//!
//! # Scopes
//!
//! Cross-tenant sharing of cached results in a *medical* federation is a
//! privacy decision, not just a performance one (cSELENE's problem). The
//! [`CacheScope`] policy knob picks the sharing domain, and with it the
//! scope component of every key — a fragment's, a predecessor slot's, a
//! cached plan's and an admission verdict's — from the tenant alone:
//!
//! * [`CacheScope::PerTenant`] — every key names the tenant: no tenant
//!   can hit, extend or read another tenant's cached work. The byte
//!   budget and its fair-share eviction are still one for all tenants
//!   (until ROADMAP's `[isolation]`), so one tenant's inserts can evict
//!   another's entries, which that tenant then sees in its own hits,
//!   simulated costs and latency.
//! * [`CacheScope::FederationGlobal`] — one shared domain; maximum reuse.
//!
//! # Eviction
//!
//! [`ScopedCache`] holds a byte budget. Admission of an entry that would
//! exceed it evicts least-recently-used entries first **from the owner
//! currently holding the most resident bytes** (fair-share): a tenant
//! flooding the cache with distinct entries reclaims its *own* space and
//! cannot wash out another tenant's hot entries. All tie-breaks are
//! deterministic (lexicographic owner, oldest stamp). A fragment output is
//! charged its full estimated bytes even when its columns share buffers
//! with base data (a whole-column projection's do), so budgets, evictions
//! and `resident_bytes` do not depend on what else holds those bytes.

use crate::data::Value;
use crate::expr::Expr;
use crate::fused::DeltaState;
use crate::ops::{AggExpr, JoinType, PhysicalPlan, WorkProfile};
use crate::data::Table;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};

/// Where a cached result may be shared (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheScope {
    /// Entries are private to the submitting tenant.
    PerTenant,
    /// One federation-wide sharing domain (maximum reuse).
    #[default]
    FederationGlobal,
}

impl CacheScope {
    /// The scope component of a cache key for work submitted by `tenant`.
    pub fn key(&self, tenant: &str) -> String {
        match self {
            CacheScope::PerTenant => format!("tenant:{tenant}"),
            CacheScope::FederationGlobal => String::new(),
        }
    }
}

/// A canonical, collision-safe fingerprint of one or more physical plans.
///
/// The full injective encoding is retained and compared on `Eq`; the
/// precomputed FNV-1a hash only accelerates map lookup. See the module
/// docs for the injectivity argument.
#[derive(Debug, Clone)]
pub struct PlanFingerprint {
    bytes: Arc<[u8]>,
    hash: u64,
}

impl PlanFingerprint {
    /// Fingerprints a single plan tree.
    pub fn of_plan(plan: &PhysicalPlan) -> Self {
        Self::of_plans(std::iter::once(plan))
    }

    /// Fingerprints an ordered sequence of plan trees (e.g. the prepare
    /// and combine plans of one query) as one canonical unit.
    pub fn of_plans<'a>(plans: impl IntoIterator<Item = &'a PhysicalPlan>) -> Self {
        let mut bytes = Vec::with_capacity(64);
        for plan in plans {
            bytes.push(0xF0); // plan separator (no operator tag uses it)
            encode_plan(plan, &mut bytes);
        }
        let hash = fnv1a(&bytes);
        PlanFingerprint {
            bytes: bytes.into(),
            hash,
        }
    }

    /// The 64-bit lookup hash (FNV-1a over the canonical encoding).
    pub fn hash64(&self) -> u64 {
        self.hash
    }

    /// Length of the canonical encoding in bytes.
    pub fn encoded_len(&self) -> usize {
        self.bytes.len()
    }
}

impl PartialEq for PlanFingerprint {
    fn eq(&self, other: &Self) -> bool {
        // Hash first (cheap reject), then the full encoding — equality is
        // decided by the injective bytes, never by the hash alone.
        self.hash == other.hash && self.bytes == other.bytes
    }
}

impl Eq for PlanFingerprint {}

impl Hash for PlanFingerprint {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// FNV-1a over a byte slice.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn encode_str(s: &str, out: &mut Vec<u8>) {
    out.extend_from_slice(&(s.len() as u64).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn encode_usize(v: usize, out: &mut Vec<u8>) {
    out.extend_from_slice(&(v as u64).to_le_bytes());
}

fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Int64(x) => {
            out.push(1);
            out.extend_from_slice(&x.to_le_bytes());
        }
        Value::Float64(x) => {
            out.push(2);
            out.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Value::Utf8(s) => {
            out.push(3);
            encode_str(s, out);
        }
        Value::Date(d) => {
            out.push(4);
            out.extend_from_slice(&d.to_le_bytes());
        }
        Value::Bool(b) => {
            out.push(5);
            out.push(*b as u8);
        }
        Value::Null => out.push(6),
    }
}

fn encode_expr(e: &Expr, out: &mut Vec<u8>) {
    match e {
        Expr::Col(i) => {
            out.push(1);
            encode_usize(*i, out);
        }
        Expr::Lit(v) => {
            out.push(2);
            encode_value(v, out);
        }
        Expr::Bin { op, left, right } => {
            out.push(3);
            out.push(*op as u8);
            encode_expr(left, out);
            encode_expr(right, out);
        }
        Expr::Not(inner) => {
            out.push(4);
            encode_expr(inner, out);
        }
        Expr::InList { expr, list } => {
            out.push(5);
            encode_expr(expr, out);
            encode_usize(list.len(), out);
            for v in list {
                encode_value(v, out);
            }
        }
        Expr::IsNull(inner) => {
            out.push(6);
            encode_expr(inner, out);
        }
        Expr::Contains { expr, needle } => {
            out.push(7);
            encode_expr(expr, out);
            encode_str(needle, out);
        }
    }
}

fn encode_agg(agg: &AggExpr, out: &mut Vec<u8>) {
    match agg {
        AggExpr::Count => out.push(1),
        AggExpr::Sum(e) => {
            out.push(2);
            encode_expr(e, out);
        }
        AggExpr::Avg(e) => {
            out.push(3);
            encode_expr(e, out);
        }
        AggExpr::Min(e) => {
            out.push(4);
            encode_expr(e, out);
        }
        AggExpr::Max(e) => {
            out.push(5);
            encode_expr(e, out);
        }
        AggExpr::CountIf(e) => {
            out.push(6);
            encode_expr(e, out);
        }
        AggExpr::SumIf { value, predicate } => {
            out.push(7);
            encode_expr(value, out);
            encode_expr(predicate, out);
        }
    }
}

/// Each operator's tag is fixed (2 and 8 are unused): renumbering them
/// would move every plan's fingerprint.
fn encode_plan(plan: &PhysicalPlan, out: &mut Vec<u8>) {
    match plan {
        PhysicalPlan::Scan { table } => {
            out.push(1);
            encode_str(table, out);
        }
        PhysicalPlan::Filter { input, predicate } => {
            out.push(3);
            encode_expr(predicate, out);
            encode_plan(input, out);
        }
        PhysicalPlan::Project { input, exprs } => {
            out.push(4);
            encode_usize(exprs.len(), out);
            for (name, e) in exprs {
                encode_str(name, out);
                encode_expr(e, out);
            }
            encode_plan(input, out);
        }
        PhysicalPlan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            join_type,
        } => {
            out.push(5);
            out.push(match join_type {
                JoinType::Inner => 1,
                JoinType::LeftOuter => 2,
            });
            encode_usize(left_keys.len(), out);
            for k in left_keys {
                encode_usize(*k, out);
            }
            encode_usize(right_keys.len(), out);
            for k in right_keys {
                encode_usize(*k, out);
            }
            encode_plan(left, out);
            encode_plan(right, out);
        }
        PhysicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            out.push(6);
            encode_usize(group_by.len(), out);
            for g in group_by {
                encode_usize(*g, out);
            }
            encode_usize(aggs.len(), out);
            for (name, agg) in aggs {
                encode_str(name, out);
                encode_agg(agg, out);
            }
            encode_plan(input, out);
        }
        PhysicalPlan::Sort { input, by } => {
            out.push(7);
            encode_usize(by.len(), out);
            for (col, desc) in by {
                encode_usize(*col, out);
                out.push(*desc as u8);
            }
            encode_plan(input, out);
        }
    }
}

/// A complete cache key: sharing scope, canonical plan encoding, and the
/// identities of every base table the computation read (see the module
/// docs for why equal keys imply bit-identical cached values).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    scope: String,
    fingerprint: PlanFingerprint,
    tables: Vec<(String, u64)>,
}

impl CacheKey {
    /// Builds a key from its three components. `tables` is sorted by name
    /// internally so construction order never splits equal keys.
    pub fn new(
        scope: String,
        fingerprint: PlanFingerprint,
        mut tables: Vec<(String, u64)>,
    ) -> Self {
        tables.sort();
        CacheKey {
            scope,
            fingerprint,
            tables,
        }
    }

    /// Whether this key reads the table identified by `(name, id)`.
    pub fn reads_table(&self, name: &str, id: u64) -> bool {
        self.tables.iter().any(|(n, i)| n == name && *i == id)
    }

    /// The key's scope component.
    pub fn scope(&self) -> &str {
        &self.scope
    }

    /// Rough heap footprint of the key itself (counted into the entry's
    /// byte charge so millions of tiny entries cannot dodge the budget).
    fn estimated_bytes(&self) -> u64 {
        (self.scope.len()
            + self.fingerprint.encoded_len()
            + self
                .tables
                .iter()
                .map(|(n, _)| n.len() + 8)
                .sum::<usize>()) as u64
    }
}

/// Hit/miss/eviction counters and resident totals of one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries admitted.
    pub insertions: u64,
    /// Entries removed to respect the byte budget.
    pub evictions: u64,
    /// Entries removed by explicit invalidation (ingest publishes).
    pub invalidations: u64,
    /// Insertions rejected because a single value exceeded the budget.
    pub rejected: u64,
    /// Bytes currently resident.
    pub resident_bytes: u64,
    /// Entries currently resident.
    pub resident_entries: u64,
}

struct CacheEntry<V> {
    value: V,
    bytes: u64,
    owner: String,
    /// Monotone recency stamp — unique per touch, so LRU choice within an
    /// owner is fully deterministic.
    last_used: u64,
}

struct CacheInner<K, V> {
    entries: HashMap<K, CacheEntry<V>>,
    /// Resident bytes per owner, for fair-share eviction.
    owner_bytes: HashMap<String, u64>,
    stamp: u64,
    stats: CacheStats,
}

/// A concurrent byte-budgeted LRU map with fair-share eviction (see the
/// module docs). `V` is cloned out on hit, so values are typically `Arc`s.
pub struct ScopedCache<K, V> {
    inner: Mutex<CacheInner<K, V>>,
    budget_bytes: u64,
}

impl<K: Hash + Eq + Clone, V: Clone> ScopedCache<K, V> {
    /// An empty cache holding at most `budget_bytes` of charged value
    /// bytes. A budget of 0 disables admission entirely.
    pub fn new(budget_bytes: u64) -> Self {
        ScopedCache {
            inner: Mutex::new(CacheInner {
                entries: HashMap::new(),
                owner_bytes: HashMap::new(),
                stamp: 0,
                stats: CacheStats::default(),
            }),
            budget_bytes,
        }
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> u64 {
        self.budget_bytes
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheInner<K, V>> {
        crate::lock_recover(&self.inner)
    }

    /// Looks `key` up, refreshing its recency on a hit.
    pub fn get(&self, key: &K) -> Option<V> {
        let mut inner = self.lock();
        inner.stamp += 1;
        let stamp = inner.stamp;
        match inner.entries.get_mut(key) {
            Some(entry) => {
                entry.last_used = stamp;
                let value = entry.value.clone();
                inner.stats.hits += 1;
                Some(value)
            }
            None => {
                inner.stats.misses += 1;
                None
            }
        }
    }

    /// Admits `key → value`, charged `bytes` against the budget and owned
    /// by `owner` for fair-share eviction. Evicts (LRU within the
    /// biggest-footprint owner) until the value fits; returns `false` if
    /// the value alone exceeds the whole budget (never admitted).
    pub fn insert(&self, key: K, value: V, bytes: u64, owner: &str) -> bool {
        if bytes > self.budget_bytes {
            let mut inner = self.lock();
            inner.stats.rejected += 1;
            return false;
        }
        let mut inner = self.lock();
        inner.stamp += 1;
        let stamp = inner.stamp;
        // Replace-in-place keeps the owner accounting exact.
        if let Some(old) = inner.entries.remove(&key) {
            inner.stats.resident_bytes -= old.bytes;
            inner.stats.resident_entries -= 1;
            debit_owner(&mut inner.owner_bytes, &old.owner, old.bytes);
        }
        while inner.stats.resident_bytes + bytes > self.budget_bytes {
            if !evict_one(&mut inner) {
                break;
            }
        }
        inner.stats.resident_bytes += bytes;
        inner.stats.resident_entries += 1;
        inner.stats.insertions += 1;
        *inner.owner_bytes.entry(owner.to_string()).or_insert(0) += bytes;
        inner.entries.insert(
            key,
            CacheEntry {
                value,
                bytes,
                owner: owner.to_string(),
                last_used: stamp,
            },
        );
        true
    }

    /// Removes every entry whose key matches `pred`; returns how many were
    /// dropped (counted as invalidations).
    pub fn invalidate_matching(&self, pred: impl Fn(&K) -> bool) -> u64 {
        self.remove_matching(pred).len() as u64
    }

    /// [`ScopedCache::invalidate_matching`], handing the dropped entries
    /// back. They move out under the lock and are freed by the caller after
    /// it: dropping a fragment table is the slow part, and `get`s must not
    /// wait on it.
    fn remove_matching(&self, pred: impl Fn(&K) -> bool) -> Vec<(K, V)> {
        let mut guard = self.lock();
        let inner = &mut *guard;
        let removed: Vec<(K, CacheEntry<V>)> = inner.entries.extract_if(|k, _| pred(k)).collect();
        for (_, entry) in &removed {
            inner.stats.resident_bytes -= entry.bytes;
            inner.stats.resident_entries -= 1;
            debit_owner(&mut inner.owner_bytes, &entry.owner, entry.bytes);
        }
        inner.stats.invalidations += removed.len() as u64;
        drop(guard);
        removed.into_iter().map(|(key, entry)| (key, entry.value)).collect()
    }

    /// Drops every entry (stats counters are preserved, residency zeroed).
    pub fn clear(&self) {
        let mut inner = self.lock();
        let dropped = inner.entries.len() as u64;
        inner.entries.clear();
        inner.owner_bytes.clear();
        inner.stats.invalidations += dropped;
        inner.stats.resident_bytes = 0;
        inner.stats.resident_entries = 0;
    }

    /// A snapshot of the cache's counters.
    pub fn stats(&self) -> CacheStats {
        self.lock().stats
    }

    /// Bytes currently charged to `owner`.
    pub fn owner_resident_bytes(&self, owner: &str) -> u64 {
        self.lock().owner_bytes.get(owner).copied().unwrap_or(0)
    }
}

fn debit_owner(owner_bytes: &mut HashMap<String, u64>, owner: &str, bytes: u64) {
    if let Some(total) = owner_bytes.get_mut(owner) {
        *total = total.saturating_sub(bytes);
        if *total == 0 {
            owner_bytes.remove(owner);
        }
    }
}

/// Evicts one entry: LRU within the owner holding the most resident bytes
/// (ties broken toward the lexicographically smallest owner, then the
/// oldest stamp — stamps are unique, so the victim is deterministic).
/// Returns `false` when the cache is empty.
fn evict_one<K: Hash + Eq + Clone, V>(inner: &mut CacheInner<K, V>) -> bool {
    let Some(victim_owner) = inner
        .owner_bytes
        .iter()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
        .map(|(owner, _)| owner.clone())
    else {
        return false;
    };
    let Some(victim_key) = inner
        .entries
        .iter()
        .filter(|(_, e)| e.owner == victim_owner)
        .min_by_key(|(_, e)| e.last_used)
        .map(|(k, _)| k.clone())
    else {
        // Accounting said the owner holds bytes but no entry matches —
        // drop the stale owner row rather than loop forever.
        inner.owner_bytes.remove(&victim_owner);
        return !inner.owner_bytes.is_empty();
    };
    if let Some(entry) = inner.entries.remove(&victim_key) {
        inner.stats.resident_bytes -= entry.bytes;
        inner.stats.resident_entries -= 1;
        inner.stats.evictions += 1;
        debit_owner(&mut inner.owner_bytes, &entry.owner, entry.bytes);
    }
    true
}

/// One cached fragment output: the result table and the work profile the
/// execution measured (both bit-identical to what recomputation would
/// produce — the simulation layer consumes them unchanged).
#[derive(Debug)]
pub struct CachedFragment {
    /// The fragment's output table.
    pub table: Arc<Table>,
    /// The operator work the (original) execution performed.
    pub work: WorkProfile,
    /// For a fragment planning computed or extended, its delta state beside
    /// its predecessor slot (see *Predecessors* in the module docs).
    pub(crate) state: Option<(CacheKey, DeltaState)>,
}

/// What planning did for the prepares and combines it profiled through the
/// fragment cache (`exec::profile_fragments_cached`). Execution's own lookups
/// are [`CacheStats`]; these count none of them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanningStats {
    /// Prepares taken as they were: an exact cached output, or a
    /// predecessor another planner had already advanced to the version.
    pub reused: u64,
    /// Prepares extended from their predecessor over appended chunks.
    pub extended: u64,
    /// Rows of the appended chunks those extensions read.
    pub extended_rows: u64,
    /// Prepares computed in full.
    pub computed: u64,
    /// Rows those full computations scanned
    /// ([`WorkProfile::scanned_rows`]).
    pub computed_rows: u64,
    /// Combines taken from their delta state: advanced over the rows their
    /// prepares appended, or found already advanced to them.
    pub combines_extended: u64,
    /// Combines computed in full, declined ones included.
    pub combines_computed: u64,
    /// Combines computed in full although a delta state was found: it
    /// could not advance to the job's prepares.
    pub combines_declined: u64,
}

/// The shared fragment-result cache (see the module docs): identical
/// prepare/combine fragments across tenants share one `Arc`'d computation
/// instead of recomputing.
pub struct FragmentResultCache {
    cache: ScopedCache<CacheKey, Arc<CachedFragment>>,
    /// The one generation of predecessors, keyed by their slot, each
    /// behind the lock that advances it.
    predecessors: Mutex<HashMap<CacheKey, Arc<Mutex<DeltaState>>>>,
    planning: Mutex<PlanningStats>,
}

/// The predecessor slot of an exact key: its scope, its plan and its table
/// names, whatever state of the tables.
pub(crate) fn slot_key(key: &CacheKey) -> CacheKey {
    CacheKey {
        scope: key.scope.clone(),
        fingerprint: key.fingerprint.clone(),
        tables: key.tables.iter().map(|(name, _)| (name.clone(), 0)).collect(),
    }
}

impl FragmentResultCache {
    /// An empty cache with a byte budget (0 disables admission).
    pub fn new(budget_bytes: u64) -> Self {
        FragmentResultCache {
            cache: ScopedCache::new(budget_bytes),
            predecessors: Mutex::new(HashMap::new()),
            planning: Mutex::new(PlanningStats::default()),
        }
    }

    /// Looks a fragment key up.
    pub fn get(&self, key: &CacheKey) -> Option<Arc<CachedFragment>> {
        self.cache.get(key)
    }

    /// Planning's look at a fragment key: it counts no hit or miss and
    /// touches no recency, leaving the cache exactly as it found it.
    pub fn peek(&self, key: &CacheKey) -> Option<Arc<CachedFragment>> {
        self.cache.lock().entries.get(key).map(|entry| Arc::clone(&entry.value))
    }

    /// The delta state the last publish kept in the slot of `key` — same
    /// scope, plans and table names, any state of the tables — if it kept
    /// one.
    pub fn predecessor(&self, key: &CacheKey) -> Option<Arc<Mutex<DeltaState>>> {
        crate::lock_recover(&self.predecessors).get(&slot_key(key)).cloned()
    }

    /// Counts what planning did for one fragment.
    pub(crate) fn count_planning(&self, count: impl FnOnce(&mut PlanningStats)) {
        count(&mut crate::lock_recover(&self.planning));
    }

    /// A snapshot of the planning counters.
    pub fn planning_stats(&self) -> PlanningStats {
        *crate::lock_recover(&self.planning)
    }

    /// Admits a fragment output under `key`, owned by `owner` (the
    /// submitting tenant) for fair-share eviction, charged its full
    /// [`Table::estimated_bytes`] whatever buffers it shares (see the
    /// module docs' *Eviction*), and its delta state on top.
    pub fn insert(&self, key: CacheKey, fragment: Arc<CachedFragment>, owner: &str) -> bool {
        let state = fragment.state.as_ref().map_or(0, |(_, s)| s.bytes());
        let bytes = fragment.table.estimated_bytes()
            + state
            + 48 * fragment.work.ops.len() as u64
            + key.estimated_bytes()
            + 128;
        self.cache.insert(key, fragment, bytes, owner)
    }

    /// Drops every entry that read any of the superseded `(name, id)`
    /// tables — the ingest-publish hook. Entries over untouched tables
    /// survive. The delta states of the dropped entries become the one
    /// generation of predecessors, replacing the last publish's (see the
    /// module docs). Returns the number of entries dropped.
    pub fn invalidate_tables(&self, stale: &[(String, u64)]) -> u64 {
        if stale.is_empty() {
            return 0;
        }
        let removed = self
            .cache
            .remove_matching(|key| stale.iter().any(|(n, id)| key.reads_table(n, *id)));
        let generation: HashMap<_, _> = removed
            .iter()
            .filter_map(|(_, fragment)| {
                let (slot, state) = fragment.state.clone()?;
                Some((slot, Arc::new(Mutex::new(state))))
            })
            .collect();
        let dropped = removed.len() as u64;
        // The entries go first, so a predecessor is its table's only holder
        // once no job reads it; the old generation is freed outside the lock.
        drop(removed);
        let old = std::mem::replace(&mut *crate::lock_recover(&self.predecessors), generation);
        drop(old);
        dropped
    }

    /// A snapshot of the cache's counters.
    pub fn stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> u64 {
        self.cache.budget_bytes()
    }

    /// Bytes currently charged to `owner`.
    pub fn owner_resident_bytes(&self, owner: &str) -> u64 {
        self.cache.owner_resident_bytes(owner)
    }

    /// Drops every entry.
    pub fn clear(&self) {
        self.cache.clear()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Column, ColumnData};

    fn scan(table: &str) -> PhysicalPlan {
        PhysicalPlan::Scan {
            table: table.to_string(),
        }
    }

    fn filter(table: &str, col: usize, lit: i64) -> PhysicalPlan {
        PhysicalPlan::Filter {
            input: Box::new(scan(table)),
            predicate: Expr::col(col).eq(Expr::int(lit)),
        }
    }

    #[test]
    fn fingerprints_are_structural_and_injective() {
        assert_eq!(
            PlanFingerprint::of_plan(&filter("t", 0, 7)),
            PlanFingerprint::of_plan(&filter("t", 0, 7))
        );
        // Any structural difference splits the fingerprint.
        assert_ne!(
            PlanFingerprint::of_plan(&filter("t", 0, 7)),
            PlanFingerprint::of_plan(&filter("t", 0, 8))
        );
        assert_ne!(
            PlanFingerprint::of_plan(&filter("t", 0, 7)),
            PlanFingerprint::of_plan(&filter("t", 1, 7))
        );
        assert_ne!(
            PlanFingerprint::of_plan(&filter("t", 0, 7)),
            PlanFingerprint::of_plan(&filter("u", 0, 7))
        );
        // Value type tags matter: Int64(7) != Float64(7.0) != Utf8("7").
        let lit = |v: Value| PhysicalPlan::Filter {
            input: Box::new(scan("t")),
            predicate: Expr::col(0).eq(Expr::Lit(v)),
        };
        let ints = PlanFingerprint::of_plan(&lit(Value::Int64(7)));
        let floats = PlanFingerprint::of_plan(&lit(Value::Float64(7.0)));
        let strs = PlanFingerprint::of_plan(&lit(Value::Utf8("7".into())));
        assert_ne!(ints, floats);
        assert_ne!(ints, strs);
        assert_ne!(floats, strs);
        // Plan sequences are order-sensitive and length-sensitive.
        let ab = PlanFingerprint::of_plans([&scan("a"), &scan("b")]);
        let ba = PlanFingerprint::of_plans([&scan("b"), &scan("a")]);
        let a = PlanFingerprint::of_plan(&scan("a"));
        assert_ne!(ab, ba);
        assert_ne!(ab, a);
    }

    #[test]
    fn equality_checks_full_bytes_not_just_the_hash() {
        // Two fingerprints with forcibly equal hashes but different bytes
        // must not compare equal (the collision-safety contract).
        let a = PlanFingerprint {
            bytes: vec![1, 2, 3].into(),
            hash: 99,
        };
        let b = PlanFingerprint {
            bytes: vec![4, 5, 6].into(),
            hash: 99,
        };
        assert_ne!(a, b);
    }

    #[test]
    fn cache_key_table_order_is_canonical() {
        let fp = PlanFingerprint::of_plan(&scan("t"));
        let k1 = CacheKey::new(
            String::new(),
            fp.clone(),
            vec![("b".into(), 2), ("a".into(), 1)],
        );
        let k2 = CacheKey::new(
            String::new(),
            fp.clone(),
            vec![("a".into(), 1), ("b".into(), 2)],
        );
        assert_eq!(k1, k2);
        assert!(k1.reads_table("a", 1));
        assert!(!k1.reads_table("a", 2));
        // Scope splits otherwise-identical keys.
        let scoped = CacheKey::new("tenant:x".into(), fp, vec![("a".into(), 1)]);
        assert_ne!(k1, scoped);
    }

    #[test]
    fn scope_keys_differ_by_policy() {
        assert_eq!(CacheScope::PerTenant.key("h-A"), "tenant:h-A");
        assert_eq!(CacheScope::FederationGlobal.key("h-A"), "");
        // Different tenants split under PerTenant.
        assert_ne!(CacheScope::PerTenant.key("h-A"), CacheScope::PerTenant.key("h-B"));
    }

    #[test]
    fn lru_respects_the_byte_budget() {
        let cache: ScopedCache<u32, u32> = ScopedCache::new(100);
        for i in 0..10u32 {
            assert!(cache.insert(i, i, 30, "t"));
            assert!(cache.stats().resident_bytes <= 100);
        }
        let stats = cache.stats();
        assert_eq!(stats.resident_entries, 3);
        assert_eq!(stats.resident_bytes, 90);
        assert_eq!(stats.evictions, 7);
        // The three most recent survive; older ones were evicted.
        assert!(cache.get(&9).is_some());
        assert!(cache.get(&8).is_some());
        assert!(cache.get(&7).is_some());
        assert!(cache.get(&0).is_none());
        // Recency now reads 9 < 8 < 7; the next eviction takes 9 (LRU)
        // while the just-touched 7 survives.
        assert!(cache.insert(10, 10, 30, "t"));
        assert!(cache.get(&7).is_some(), "recently touched entry was evicted");
        assert!(cache.get(&9).is_none(), "LRU entry survived");
    }

    #[test]
    fn oversized_values_are_rejected_not_admitted() {
        let cache: ScopedCache<u32, u32> = ScopedCache::new(100);
        assert!(!cache.insert(1, 1, 101, "t"));
        let stats = cache.stats();
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.resident_entries, 0);
        // A zero-budget cache admits nothing.
        let off: ScopedCache<u32, u32> = ScopedCache::new(0);
        assert!(!off.insert(1, 1, 1, "t"));
        assert!(off.get(&1).is_none());
    }

    #[test]
    fn eviction_is_fair_share_by_owner() {
        let cache: ScopedCache<u32, u32> = ScopedCache::new(100);
        // A healthy tenant holds one hot 20-byte entry.
        assert!(cache.insert(0, 0, 20, "healthy"));
        // A rogue floods the remaining space and far past it.
        for i in 1..20u32 {
            assert!(cache.insert(i, i, 20, "rogue"));
        }
        // Fair share: the rogue (holding the most bytes) evicted its own
        // entries; the healthy tenant's entry is untouched.
        assert!(cache.get(&0).is_some(), "healthy entry was washed out");
        assert_eq!(cache.owner_resident_bytes("healthy"), 20);
        assert_eq!(cache.owner_resident_bytes("rogue"), 80);
        assert!(cache.stats().evictions > 0);
    }

    #[test]
    fn replacing_an_entry_keeps_accounting_exact() {
        let cache: ScopedCache<u32, u32> = ScopedCache::new(100);
        assert!(cache.insert(1, 1, 40, "a"));
        assert!(cache.insert(1, 2, 10, "b"));
        let stats = cache.stats();
        assert_eq!(stats.resident_entries, 1);
        assert_eq!(stats.resident_bytes, 10);
        assert_eq!(cache.owner_resident_bytes("a"), 0);
        assert_eq!(cache.owner_resident_bytes("b"), 10);
        assert_eq!(cache.get(&1), Some(2));
    }

    #[test]
    fn invalidation_drops_exactly_the_matching_entries() {
        let cache: ScopedCache<u32, u32> = ScopedCache::new(1000);
        for i in 0..10u32 {
            cache.insert(i, i, 10, "t");
        }
        let dropped = cache.invalidate_matching(|k| k % 2 == 0);
        assert_eq!(dropped, 5);
        let stats = cache.stats();
        assert_eq!(stats.invalidations, 5);
        assert_eq!(stats.resident_entries, 5);
        assert_eq!(stats.resident_bytes, 50);
        assert!(cache.get(&2).is_none());
        assert!(cache.get(&3).is_some());
    }

    #[test]
    fn fragment_cache_invalidates_by_table_identity() {
        let table = Arc::new(
            Table::new(
                "t",
                vec![Column::new("k", ColumnData::Int64(vec![1, 2, 3]))],
            )
            .unwrap(),
        );
        let cache = FragmentResultCache::new(1 << 20);
        let fragment = Arc::new(CachedFragment {
            table: Arc::clone(&table),
            work: WorkProfile::default(),
            state: None,
        });
        let key_t7 = CacheKey::new(
            String::new(),
            PlanFingerprint::of_plan(&scan("t")),
            vec![("t".into(), 7)],
        );
        let key_t9 = CacheKey::new(
            String::new(),
            PlanFingerprint::of_plan(&scan("t")),
            vec![("t".into(), 9)],
        );
        let key_u7 = CacheKey::new(
            String::new(),
            PlanFingerprint::of_plan(&scan("u")),
            vec![("u".into(), 7)],
        );
        cache.insert(key_t7.clone(), Arc::clone(&fragment), "a");
        cache.insert(key_t9.clone(), Arc::clone(&fragment), "a");
        cache.insert(key_u7.clone(), Arc::clone(&fragment), "a");
        // Superseding t@7 drops exactly that entry: t@9 (a later version
        // of the same table) and u@7 (an unrelated table) survive.
        assert_eq!(cache.invalidate_tables(&[("t".to_string(), 7)]), 1);
        assert!(cache.get(&key_t7).is_none());
        assert!(cache.get(&key_t9).is_some());
        assert!(cache.get(&key_u7).is_some());
        assert_eq!(cache.invalidate_tables(&[]), 0);
    }
}
