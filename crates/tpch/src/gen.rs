//! Deterministic TPC-H-style data generation.
//!
//! Cardinalities follow the spec's ratios per scale factor SF: 150k·SF
//! customers, 10 orders per customer, 1–7 lineitems per order, 200k·SF parts,
//! 10k·SF suppliers, 80k·SF·10 partsupp rows, fixed nation/region. Columns
//! are restricted to those the reproduced queries (plus obvious filler)
//! touch; the substitution is documented in DESIGN.md.
//!
//! **Row cap.** Generating SF 1 verbatim means ~6 M lineitems. When
//! [`GenConfig::max_lineitem_rows`] is set and the expected lineitem count
//! exceeds it, *every* table is rescaled by the same ratio, preserving join
//! fan-outs and selectivities. The effective scale factor is reported so
//! experiments can label results honestly.
//!
//! **Streaming generation.** [`TpchDb::generate_chunked`] produces the
//! same database chunk-at-a-time, dbgen-style, directly into
//! [`ChunkedTable`]s — no table is ever held as one materialized `Vec`
//! run. Every generator draws from the identical RNG stream in the
//! identical row order whether it emits one chunk or many (chunking only
//! decides where accumulated rows are flushed), so the chunked database
//! is bit-for-bit the materialized one at every chunk size:
//! [`TpchDb::generate`] itself is the `chunk_rows = ∞` special case of
//! the streaming path. Chunk tables carry their table's own name, so
//! snapshots and chunk-native execution are name-identical too.

use crate::dates;
use midas_engines::data::{Column, ColumnData, Table, Utf8Column};
use midas_engines::sim::split_seed;
use midas_engines::version::{CatalogVersion, ChunkedTable, VersionedCatalog};
use midas_engines::Catalog;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The seven lineitem ship modes of the spec.
pub const SHIP_MODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];

/// The five order priorities of the spec.
pub const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];

/// Part type components (`p_type` = syllable1 syllable2 syllable3).
const TYPE_S1: [&str; 6] = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"];
const TYPE_S2: [&str; 5] = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"];
const TYPE_S3: [&str; 5] = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"];

/// Container size components (`p_container` = size kind).
pub const CONTAINER_SIZES: [&str; 5] = ["SM", "MED", "LG", "JUMBO", "WRAP"];

/// Container kind components (`p_container` = size kind).
pub const CONTAINER_KINDS: [&str; 8] = ["CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"];

/// Lexicon for comment columns; "special" + "requests" drive Q13.
const WORDS: [&str; 16] = [
    "special", "requests", "pending", "furious", "express", "deposits", "packages", "accounts",
    "theodolites", "instructions", "dependencies", "foxes", "ideas", "platelets", "asymptotes",
    "pinto",
];

/// How the generator materializes low-cardinality string columns.
///
/// Dictionary encoding never changes the generated *logical* rows — codes
/// are positional in the same spec value order the generator draws from,
/// and the RNG stream is identical under both encodings — only the physical
/// column type changes (`Utf8` strings vs `Int64` codes). The code ↔ value
/// mappings live in [`crate::dict::TpchDictionaries`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StringEncoding {
    /// UTF-8 string columns (the original layout).
    #[default]
    Plain,
    /// Integer dictionary codes for `l_shipmode`, `o_orderpriority`,
    /// `p_brand` and `p_container`, so predicates and group-by on them
    /// compare machine words instead of byte strings. High-cardinality
    /// strings (comments, part types, names) stay UTF-8.
    Dictionary,
}

/// Generator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenConfig {
    /// TPC-H scale factor (0.1 ≈ 100 MiB, 1.0 ≈ 1 GiB of raw data).
    pub scale_factor: f64,
    /// RNG seed; equal configs generate identical databases.
    pub seed: u64,
    /// Cap on physical lineitem rows; `None` generates the full count.
    pub max_lineitem_rows: Option<usize>,
    /// Physical layout of the low-cardinality string columns.
    pub encoding: StringEncoding,
}

impl GenConfig {
    /// Convenience constructor with no row cap.
    pub fn new(scale_factor: f64, seed: u64) -> Self {
        GenConfig {
            scale_factor,
            seed,
            max_lineitem_rows: None,
            encoding: StringEncoding::default(),
        }
    }

    /// Switches the low-cardinality string columns to dictionary codes
    /// (builder style).
    pub fn dictionary_encoded(mut self) -> Self {
        self.encoding = StringEncoding::Dictionary;
        self
    }

    /// The paper's 100 MiB dataset (SF 0.1), uncapped.
    pub fn sf_100mib(seed: u64) -> Self {
        Self::new(0.1, seed)
    }

    /// The paper's 1 GiB dataset (SF 1.0), capped at 1.2 M physical
    /// lineitems — the uniform-rescale substitution from DESIGN.md.
    pub fn sf_1gib(seed: u64) -> Self {
        GenConfig {
            scale_factor: 1.0,
            seed,
            max_lineitem_rows: Some(1_200_000),
            encoding: StringEncoding::default(),
        }
    }
}

/// A generated database.
///
/// Tables are held in a shared [`Catalog`] (`Arc<Table>` entries), so
/// handing the database to an executor, a cost model or a concurrent
/// runtime never copies table bytes — callers `Arc::clone` their way to
/// the data.
#[derive(Debug, Clone)]
pub struct TpchDb {
    tables: Catalog,
    /// The configuration that produced it.
    pub config: GenConfig,
    /// Ratio of physical to nominal rows after the cap (1.0 = uncapped).
    pub rescale: f64,
}

/// Row counts after scale factor and row cap, shared by the materialized
/// and streaming generation paths.
struct Cardinalities {
    n_customers: usize,
    n_orders: usize,
    n_parts: usize,
    n_suppliers: usize,
    rescale: f64,
}

fn cardinalities(config: &GenConfig) -> Cardinalities {
    let sf = config.scale_factor;
    // Nominal cardinalities.
    let nominal_customers = (150_000.0 * sf).round().max(1.0) as usize;
    let nominal_orders = nominal_customers * 10;
    let expected_lineitems = nominal_orders * 4; // E[1..=7] = 4
    let rescale = match config.max_lineitem_rows {
        Some(cap) if expected_lineitems > cap => cap as f64 / expected_lineitems as f64,
        _ => 1.0,
    };
    let n_customers = ((nominal_customers as f64 * rescale) as usize).max(1);
    Cardinalities {
        n_customers,
        n_orders: n_customers * 10,
        n_parts: (((200_000.0 * sf) * rescale) as usize).max(1),
        n_suppliers: (((10_000.0 * sf) * rescale) as usize).max(1),
        rescale,
    }
}

impl TpchDb {
    /// Generates the database.
    pub fn generate(config: GenConfig) -> Self {
        let card = cardinalities(&config);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut tables = Catalog::new();
        tables.insert("region", gen_region());
        tables.insert("nation", gen_nation());
        tables.insert("customer", gen_customer(card.n_customers, &mut rng));
        tables.insert("part", gen_part(card.n_parts, &mut rng, config.encoding));
        tables.insert("supplier", gen_supplier(card.n_suppliers, &mut rng));
        let orders = gen_orders(card.n_orders, 0, card.n_customers, &mut rng, config.encoding);
        let lineitem = gen_lineitem(
            &orders,
            card.n_parts,
            card.n_suppliers,
            &mut rng,
            config.encoding,
        );
        tables.insert(
            "partsupp",
            gen_partsupp(card.n_parts, card.n_suppliers, &mut rng),
        );
        tables.insert("orders", orders);
        tables.insert("lineitem", lineitem);

        TpchDb {
            tables,
            config,
            rescale: card.rescale,
        }
    }

    /// Generates the same database **streamed**: every table is built
    /// chunk-at-a-time (roughly `chunk_rows` rows per chunk; orders never
    /// split from their lineitem group) directly into [`ChunkedTable`]s,
    /// without a materialized whole-table intermediate. The RNG streams
    /// are the ones [`TpchDb::generate`] consumes, row for row, so the
    /// chunked database is bit-identical to the materialized one — same
    /// rows, same dictionary encodings — at every `chunk_rows`.
    pub fn generate_chunked(config: GenConfig, chunk_rows: usize) -> TpchChunkedDb {
        let chunk_rows = chunk_rows.max(1);
        let card = cardinalities(&config);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let chunked = |name: &str, chunks: Vec<Arc<Table>>| {
            ChunkedTable::from_chunks(name, chunks).expect("generated chunks share one schema")
        };
        let mut tables = Vec::with_capacity(8);
        tables.push(chunked("region", vec![Arc::new(gen_region())]));
        tables.push(chunked("nation", vec![Arc::new(gen_nation())]));
        tables.push(chunked(
            "customer",
            gen_customer_chunks(card.n_customers, chunk_rows, &mut rng),
        ));
        tables.push(chunked(
            "part",
            gen_part_chunks(card.n_parts, chunk_rows, &mut rng, config.encoding),
        ));
        tables.push(chunked(
            "supplier",
            gen_supplier_chunks(card.n_suppliers, chunk_rows, &mut rng),
        ));
        let orders = gen_orders_chunks(
            card.n_orders,
            0,
            chunk_rows,
            card.n_customers,
            &mut rng,
            config.encoding,
        );
        let lineitem = gen_lineitem_chunks(
            orders.iter().map(Arc::as_ref),
            chunk_rows,
            card.n_parts,
            card.n_suppliers,
            &mut rng,
            config.encoding,
        );
        tables.push(chunked(
            "partsupp",
            gen_partsupp_chunks(card.n_parts, card.n_suppliers, chunk_rows, &mut rng),
        ));
        tables.push(chunked("orders", orders));
        tables.push(chunked("lineitem", lineitem));

        TpchChunkedDb {
            version: CatalogVersion::from_chunked(tables),
            config,
            rescale: card.rescale,
        }
    }

    /// The physical layout of this database's low-cardinality string
    /// columns. Queries must be built for the *same* encoding
    /// ([`crate::queries::q12_with`]/[`crate::queries::q17_with`]): a plain
    /// string predicate against a code column (or vice versa) compares
    /// across types, which — like any type-mismatched predicate in the
    /// engine — matches no row and silently returns an empty result.
    pub fn encoding(&self) -> StringEncoding {
        self.config.encoding
    }

    /// The shared execution catalog, keyed by lowercase table name.
    pub fn catalog(&self) -> &Catalog {
        &self.tables
    }

    /// The database as the base version (version 0) of a copy-on-write
    /// [`VersionedCatalog`] — the live-data entry point: ingest deltas from
    /// a [`DeltaStream`] publish successor versions while pinned queries
    /// keep their snapshot. Handle copies only; no table bytes move.
    pub fn versioned_catalog(&self) -> VersionedCatalog {
        VersionedCatalog::new(self.tables.clone())
    }

    /// One table by name.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name)
    }

    /// Total estimated bytes across all tables.
    pub fn total_bytes(&self) -> u64 {
        self.tables.estimated_bytes()
    }

    /// A prefix *snapshot* of the database: every growing table truncated to
    /// the first `fraction` of its rows (clamped to `[0, 1]`; `nation` and
    /// `region` stay fixed).
    ///
    /// This models the evolving data store the paper's medical setting
    /// implies — records accumulate over time, so successive executions of
    /// one query see different data volumes. Keys are uniformly distributed,
    /// so a prefix keeps join fan-outs proportional (dangling foreign keys
    /// simply drop out of inner joins, as they would in a live system where
    /// dimension rows arrive late).
    pub fn snapshot(&self, fraction: f64) -> Catalog {
        self.snapshot_per_table(|_| fraction)
    }

    /// Like [`TpchDb::snapshot`] but with a per-table fraction.
    ///
    /// Different tables accrue at different rates in a federation (each
    /// clinic feeds its own cloud), which also keeps the size regressors of
    /// two-table queries *linearly independent* — a single global growth
    /// factor would make them collinear.
    pub fn snapshot_per_table(&self, fraction: impl Fn(&str) -> f64) -> Catalog {
        let mut out = Catalog::new();
        for (name, table) in self.tables.iter() {
            if name == "nation" || name == "region" {
                // Fixed dimensions are shared, not copied.
                out.insert_shared(name, std::sync::Arc::clone(table));
                continue;
            }
            let f = fraction(name).clamp(0.0, 1.0);
            let keep = ((table.n_rows() as f64 * f).round() as usize).min(table.n_rows());
            let indices: Vec<usize> = (0..keep).collect();
            out.insert(name, table.take(&indices));
        }
        out
    }
}

/// A database generated chunk-at-a-time by [`TpchDb::generate_chunked`],
/// held as the base [`CatalogVersion`] of chunk-native tables.
///
/// Queries run against [`TpchChunkedDb::version`] directly (e.g. through
/// `execute_fused`) without ever compacting a snapshot —
/// `self.version().compaction_bytes()` stays 0 until someone explicitly
/// pins. The logical contents are bit-identical to
/// [`TpchDb::generate`] with the same [`GenConfig`].
pub struct TpchChunkedDb {
    version: CatalogVersion,
    /// The configuration that produced it.
    pub config: GenConfig,
    /// Ratio of physical to nominal rows after the cap (1.0 = uncapped).
    pub rescale: f64,
}

impl TpchChunkedDb {
    /// The chunk-native catalog version holding every table.
    pub fn version(&self) -> &CatalogVersion {
        &self.version
    }

    /// The physical layout of the low-cardinality string columns (see
    /// [`TpchDb::encoding`]).
    pub fn encoding(&self) -> StringEncoding {
        self.config.encoding
    }

    /// Total chunks across all tables.
    pub fn total_chunks(&self) -> usize {
        self.version
            .names()
            .filter_map(|n| self.version.table(n))
            .map(|t| t.chunk_count())
            .sum()
    }
}

/// One ingest batch produced by a [`DeltaStream`]: freshly placed orders
/// and their lineitems, keyed past everything generated before.
#[derive(Debug, Clone)]
pub struct TpchDelta {
    /// Index of the batch in its stream (0-based).
    pub batch: u64,
    /// New `orders` rows.
    pub orders: Table,
    /// The new orders' `lineitem` rows.
    pub lineitem: Table,
}

impl TpchDelta {
    /// Total rows across both tables.
    pub fn rows(&self) -> usize {
        self.orders.n_rows() + self.lineitem.n_rows()
    }

    /// The batch as `(table name, delta)` pairs for
    /// [`VersionedCatalog::append_batch`] — one atomic version bump, so no
    /// admission ever observes orders without their lineitems.
    pub fn into_batch(self) -> Vec<(String, Table)> {
        vec![
            ("orders".to_string(), self.orders),
            ("lineitem".to_string(), self.lineitem),
        ]
    }
}

/// A deterministic stream of ingest deltas continuing a database's key
/// space — the "hospitals keep admitting patients" half of the streaming
/// workload.
///
/// Each batch draws from its own split-seeded RNG stream
/// (`split_seed(seed, batch_index)`), so batch `k` is a pure function of
/// `(db shape, seed, k)` no matter how batches interleave with queries:
/// the streaming runtime and its sequential replay oracle generate
/// bit-identical deltas. New orders reference *existing* customers, parts
/// and suppliers, so every query class keeps joining against them, and
/// order keys continue strictly past the keys generated so far.
#[derive(Debug, Clone)]
pub struct DeltaStream {
    seed: u64,
    next_orderkey: i64,
    n_customers: usize,
    n_parts: usize,
    n_suppliers: usize,
    encoding: StringEncoding,
    batch_index: u64,
}

impl DeltaStream {
    /// A stream continuing `db`'s key space.
    pub fn new(db: &TpchDb, seed: u64) -> Self {
        DeltaStream {
            seed,
            next_orderkey: db.table("orders").map_or(0, |t| t.n_rows() as i64),
            n_customers: db.table("customer").map_or(1, |t| t.n_rows()),
            n_parts: db.table("part").map_or(1, |t| t.n_rows()),
            n_suppliers: db.table("supplier").map_or(1, |t| t.n_rows()),
            encoding: db.encoding(),
            batch_index: 0,
        }
    }

    /// Batches generated so far.
    pub fn batches_generated(&self) -> u64 {
        self.batch_index
    }

    /// Generates the next delta batch of `n_orders` orders (plus their 1–7
    /// lineitems each).
    pub fn next_batch(&mut self, n_orders: usize) -> TpchDelta {
        let batch = self.batch_index;
        let mut rng = StdRng::seed_from_u64(split_seed(self.seed, batch));
        let orders = gen_orders(
            n_orders,
            self.next_orderkey,
            self.n_customers,
            &mut rng,
            self.encoding,
        );
        let lineitem = gen_lineitem(
            &orders,
            self.n_parts,
            self.n_suppliers,
            &mut rng,
            self.encoding,
        );
        self.next_orderkey += n_orders as i64;
        self.batch_index += 1;
        TpchDelta {
            batch,
            orders,
            lineitem,
        }
    }
}

fn gen_region() -> Table {
    let names = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"];
    Table::new(
        "region",
        vec![
            Column::new("r_regionkey", ColumnData::Int64((0..5).collect())),
            Column::new("r_name", ColumnData::Utf8(names.into_iter().collect())),
        ],
    )
    .expect("static columns are aligned")
}

fn gen_nation() -> Table {
    // 25 nations, 5 per region as in the spec's spirit.
    let names = [
        "ALGERIA", "ARGENTINA", "BRAZIL", "CANADA", "EGYPT", "ETHIOPIA", "FRANCE", "GERMANY",
        "INDIA", "INDONESIA", "IRAN", "IRAQ", "JAPAN", "JORDAN", "KENYA", "MOROCCO", "MOZAMBIQUE",
        "PERU", "CHINA", "ROMANIA", "SAUDI ARABIA", "VIETNAM", "RUSSIA", "UNITED KINGDOM",
        "UNITED STATES",
    ];
    Table::new(
        "nation",
        vec![
            Column::new("n_nationkey", ColumnData::Int64((0..25).collect())),
            Column::new("n_name", ColumnData::Utf8(names.into_iter().collect())),
            Column::new(
                "n_regionkey",
                ColumnData::Int64((0..25).map(|i| i % 5).collect()),
            ),
        ],
    )
    .expect("static columns are aligned")
}

/// Writes one comment into `s`, reused from row to row.
fn comment(rng: &mut StdRng, s: &mut String) {
    s.clear();
    let n = rng.gen_range(3..=7);
    for i in 0..n {
        if i > 0 {
            s.push(' ');
        }
        s.push_str(WORDS[rng.gen_range(0..WORDS.len())]);
    }
}

/// `[start, len)` chunk spans of at most `chunk_rows` rows over `n` rows
/// (one empty span when `n == 0`, so every table gets at least one
/// chunk). Spans only decide where a generator flushes accumulated rows;
/// its RNG draws run in global row order regardless.
fn chunk_spans(n: usize, chunk_rows: usize) -> impl Iterator<Item = (usize, usize)> {
    let mut start = 0usize;
    let mut done = false;
    std::iter::from_fn(move || {
        if done {
            return None;
        }
        let len = chunk_rows.min(n - start);
        let span = (start, len);
        start += len;
        if start >= n {
            done = true;
        }
        Some(span)
    })
}

/// Unwraps the one chunk the `chunk_rows = usize::MAX` streaming path
/// produces — the materialized generators are that special case, keeping
/// one code path (and one RNG stream) for both layouts.
fn single_chunk(mut chunks: Vec<Arc<Table>>) -> Table {
    let only = chunks.pop().expect("at least one chunk");
    debug_assert!(chunks.is_empty(), "usize::MAX chunk rows yield one chunk");
    Arc::try_unwrap(only).expect("sole handle to a fresh chunk")
}

fn gen_customer_chunks(n: usize, chunk_rows: usize, rng: &mut StdRng) -> Vec<Arc<Table>> {
    let segments = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"];
    chunk_spans(n, chunk_rows)
        .map(|(start, len)| {
            let mut keys = Vec::with_capacity(len);
            let mut names = Utf8Column::with_capacity(len, 18 * len);
            let mut nations = Vec::with_capacity(len);
            let mut segs = Utf8Column::with_capacity(len, 0);
            let mut bals = Vec::with_capacity(len);
            for i in start..start + len {
                let key = i as i64 + 1;
                keys.push(key);
                names.push_fmt(format_args!("Customer#{key:09}"));
                nations.push(rng.gen_range(0..25i64));
                segs.push(segments[rng.gen_range(0..segments.len())]);
                bals.push(rng.gen_range(-999.99..9999.99));
            }
            Arc::new(
                Table::new(
                    "customer",
                    vec![
                        Column::new("c_custkey", ColumnData::Int64(keys)),
                        Column::new("c_name", ColumnData::Utf8(names)),
                        Column::new("c_nationkey", ColumnData::Int64(nations)),
                        Column::new("c_mktsegment", ColumnData::Utf8(segs)),
                        Column::new("c_acctbal", ColumnData::Float64(bals)),
                    ],
                )
                .expect("generated columns are aligned"),
            )
        })
        .collect()
}

fn gen_customer(n: usize, rng: &mut StdRng) -> Table {
    single_chunk(gen_customer_chunks(n, usize::MAX, rng))
}

fn gen_part_chunks(
    n: usize,
    chunk_rows: usize,
    rng: &mut StdRng,
    encoding: StringEncoding,
) -> Vec<Arc<Table>> {
    chunk_spans(n, chunk_rows)
        .map(|(start, len)| {
            let mut keys = Vec::with_capacity(len);
            // Draw the low-cardinality component indices first; the same
            // draws in the same order under either encoding, so one seed
            // generates one logical database regardless of physical layout.
            let mut brand_mn = Vec::with_capacity(len);
            let mut types = Utf8Column::with_capacity(len, 0);
            let mut container_sk = Vec::with_capacity(len);
            let mut prices = Vec::with_capacity(len);
            for i in start..start + len {
                let key = i as i64 + 1;
                keys.push(key);
                brand_mn.push((rng.gen_range(1..=5i64), rng.gen_range(1..=5i64)));
                types.push_fmt(format_args!(
                    "{} {} {}",
                    TYPE_S1[rng.gen_range(0..TYPE_S1.len())],
                    TYPE_S2[rng.gen_range(0..TYPE_S2.len())],
                    TYPE_S3[rng.gen_range(0..TYPE_S3.len())]
                ));
                container_sk.push((
                    rng.gen_range(0..CONTAINER_SIZES.len()),
                    rng.gen_range(0..CONTAINER_KINDS.len()),
                ));
                prices.push(900.0 + (key % 1000) as f64 * 0.1);
            }
            let brand = match encoding {
                StringEncoding::Plain => {
                    let mut brands = Utf8Column::with_capacity(len, 8 * len);
                    for (m, n) in &brand_mn {
                        brands.push_fmt(format_args!("Brand#{m}{n}"));
                    }
                    ColumnData::Utf8(brands)
                }
                StringEncoding::Dictionary => ColumnData::Int64(
                    brand_mn.iter().map(|(m, n)| (m - 1) * 5 + (n - 1)).collect(),
                ),
            };
            let container = match encoding {
                StringEncoding::Plain => {
                    let mut containers = Utf8Column::with_capacity(len, 0);
                    for &(s, k) in &container_sk {
                        let (size, kind) = (CONTAINER_SIZES[s], CONTAINER_KINDS[k]);
                        containers.push_fmt(format_args!("{size} {kind}"));
                    }
                    ColumnData::Utf8(containers)
                }
                StringEncoding::Dictionary => ColumnData::Int64(
                    container_sk
                        .iter()
                        .map(|(s, k)| (s * CONTAINER_KINDS.len() + k) as i64)
                        .collect(),
                ),
            };
            Arc::new(
                Table::new(
                    "part",
                    vec![
                        Column::new("p_partkey", ColumnData::Int64(keys)),
                        Column::new("p_brand", brand),
                        Column::new("p_type", ColumnData::Utf8(types)),
                        Column::new("p_container", container),
                        Column::new("p_retailprice", ColumnData::Float64(prices)),
                    ],
                )
                .expect("generated columns are aligned"),
            )
        })
        .collect()
}

fn gen_part(n: usize, rng: &mut StdRng, encoding: StringEncoding) -> Table {
    single_chunk(gen_part_chunks(n, usize::MAX, rng, encoding))
}

fn gen_supplier_chunks(n: usize, chunk_rows: usize, rng: &mut StdRng) -> Vec<Arc<Table>> {
    chunk_spans(n, chunk_rows)
        .map(|(start, len)| {
            let mut keys = Vec::with_capacity(len);
            let mut names = Utf8Column::with_capacity(len, 18 * len);
            let mut nations = Vec::with_capacity(len);
            for i in start..start + len {
                keys.push(i as i64 + 1);
                names.push_fmt(format_args!("Supplier#{:09}", i + 1));
                nations.push(rng.gen_range(0..25i64));
            }
            Arc::new(
                Table::new(
                    "supplier",
                    vec![
                        Column::new("s_suppkey", ColumnData::Int64(keys)),
                        Column::new("s_name", ColumnData::Utf8(names)),
                        Column::new("s_nationkey", ColumnData::Int64(nations)),
                    ],
                )
                .expect("generated columns are aligned"),
            )
        })
        .collect()
}

fn gen_supplier(n: usize, rng: &mut StdRng) -> Table {
    single_chunk(gen_supplier_chunks(n, usize::MAX, rng))
}

fn gen_partsupp_chunks(
    n_parts: usize,
    n_suppliers: usize,
    chunk_rows: usize,
    rng: &mut StdRng,
) -> Vec<Arc<Table>> {
    // 4 suppliers per part, as in the spec; chunks split on part
    // boundaries so each part's 4 rows stay together.
    let parts_per_chunk = (chunk_rows / 4).max(1);
    chunk_spans(n_parts, parts_per_chunk)
        .map(|(start, len)| {
            let mut parts = Vec::with_capacity(len * 4);
            let mut supps = Vec::with_capacity(len * 4);
            let mut avail = Vec::with_capacity(len * 4);
            for p in start..start + len {
                for s in 0..4 {
                    parts.push(p as i64 + 1);
                    supps.push(((p + s * (n_parts / 4).max(1)) % n_suppliers.max(1)) as i64 + 1);
                    avail.push(rng.gen_range(1..10_000i64));
                }
            }
            Arc::new(
                Table::new(
                    "partsupp",
                    vec![
                        Column::new("ps_partkey", ColumnData::Int64(parts)),
                        Column::new("ps_suppkey", ColumnData::Int64(supps)),
                        Column::new("ps_availqty", ColumnData::Int64(avail)),
                    ],
                )
                .expect("generated columns are aligned"),
            )
        })
        .collect()
}

fn gen_partsupp(n_parts: usize, n_suppliers: usize, rng: &mut StdRng) -> Table {
    single_chunk(gen_partsupp_chunks(n_parts, n_suppliers, usize::MAX, rng))
}

fn gen_orders_chunks(
    n: usize,
    start_key: i64,
    chunk_rows: usize,
    n_customers: usize,
    rng: &mut StdRng,
    encoding: StringEncoding,
) -> Vec<Arc<Table>> {
    let start = dates::tpch_start();
    let end = dates::tpch_end() - 151; // spec: last order date leaves room for shipping
    chunk_spans(n, chunk_rows)
        .map(|(span_start, len)| {
            let mut keys = Vec::with_capacity(len);
            let mut custs = Vec::with_capacity(len);
            let mut odates = Vec::with_capacity(len);
            let mut prio_idx = Vec::with_capacity(len);
            let mut comments = Utf8Column::with_capacity(len, 0);
            let mut text = String::new();
            for i in span_start..span_start + len {
                keys.push(start_key + i as i64 + 1);
                custs.push(rng.gen_range(0..n_customers as i64) + 1);
                odates.push(rng.gen_range(start..=end));
                prio_idx.push(rng.gen_range(0..PRIORITIES.len()));
                comment(rng, &mut text);
                comments.push(&text);
            }
            let priority = match encoding {
                StringEncoding::Plain => {
                    ColumnData::Utf8(prio_idx.iter().map(|&i| PRIORITIES[i]).collect())
                }
                StringEncoding::Dictionary => {
                    ColumnData::Int64(prio_idx.iter().map(|&i| i as i64).collect())
                }
            };
            Arc::new(
                Table::new(
                    "orders",
                    vec![
                        Column::new("o_orderkey", ColumnData::Int64(keys)),
                        Column::new("o_custkey", ColumnData::Int64(custs)),
                        Column::new("o_orderdate", ColumnData::Date(odates)),
                        Column::new("o_orderpriority", priority),
                        Column::new("o_comment", ColumnData::Utf8(comments)),
                    ],
                )
                .expect("generated columns are aligned"),
            )
        })
        .collect()
}

fn gen_orders(
    n: usize,
    start_key: i64,
    n_customers: usize,
    rng: &mut StdRng,
    encoding: StringEncoding,
) -> Table {
    single_chunk(gen_orders_chunks(
        n,
        start_key,
        usize::MAX,
        n_customers,
        rng,
        encoding,
    ))
}

/// Accumulates lineitem rows for one chunk; flushed on order boundaries.
#[derive(Default)]
struct LineitemBuilder {
    l_orderkey: Vec<i64>,
    l_partkey: Vec<i64>,
    l_suppkey: Vec<i64>,
    l_quantity: Vec<f64>,
    l_extendedprice: Vec<f64>,
    l_discount: Vec<f64>,
    l_shipdate: Vec<i32>,
    l_commitdate: Vec<i32>,
    l_receiptdate: Vec<i32>,
    l_shipmode: Vec<usize>,
}

impl LineitemBuilder {
    fn len(&self) -> usize {
        self.l_orderkey.len()
    }

    /// Drains the accumulated rows into one chunk table.
    fn flush(&mut self, encoding: StringEncoding) -> Arc<Table> {
        let l_shipmode = std::mem::take(&mut self.l_shipmode);
        let shipmode = match encoding {
            StringEncoding::Plain => {
                ColumnData::Utf8(l_shipmode.iter().map(|&i| SHIP_MODES[i]).collect())
            }
            StringEncoding::Dictionary => {
                ColumnData::Int64(l_shipmode.iter().map(|&i| i as i64).collect())
            }
        };
        Arc::new(
            Table::new(
                "lineitem",
                vec![
                    Column::new(
                        "l_orderkey",
                        ColumnData::Int64(std::mem::take(&mut self.l_orderkey)),
                    ),
                    Column::new(
                        "l_partkey",
                        ColumnData::Int64(std::mem::take(&mut self.l_partkey)),
                    ),
                    Column::new(
                        "l_suppkey",
                        ColumnData::Int64(std::mem::take(&mut self.l_suppkey)),
                    ),
                    Column::new(
                        "l_quantity",
                        ColumnData::Float64(std::mem::take(&mut self.l_quantity)),
                    ),
                    Column::new(
                        "l_extendedprice",
                        ColumnData::Float64(std::mem::take(&mut self.l_extendedprice)),
                    ),
                    Column::new(
                        "l_discount",
                        ColumnData::Float64(std::mem::take(&mut self.l_discount)),
                    ),
                    Column::new(
                        "l_shipdate",
                        ColumnData::Date(std::mem::take(&mut self.l_shipdate)),
                    ),
                    Column::new(
                        "l_commitdate",
                        ColumnData::Date(std::mem::take(&mut self.l_commitdate)),
                    ),
                    Column::new(
                        "l_receiptdate",
                        ColumnData::Date(std::mem::take(&mut self.l_receiptdate)),
                    ),
                    Column::new("l_shipmode", shipmode),
                ],
            )
            .expect("generated columns are aligned"),
        )
    }
}

fn gen_lineitem_chunks<'o>(
    orders_chunks: impl Iterator<Item = &'o Table>,
    chunk_rows: usize,
    n_parts: usize,
    n_suppliers: usize,
    rng: &mut StdRng,
    encoding: StringEncoding,
) -> Vec<Arc<Table>> {
    let mut chunks = Vec::new();
    let mut b = LineitemBuilder::default();
    for orders in orders_chunks {
        let okeys = match &*orders.column_by_name("o_orderkey").expect("schema").data {
            ColumnData::Int64(v) => v,
            // LINT: panic-ok — the orders generator in this file fixes the
            // column type.
            _ => unreachable!("o_orderkey is Int64"),
        };
        let odates = match &*orders.column_by_name("o_orderdate").expect("schema").data {
            ColumnData::Date(v) => v,
            // LINT: panic-ok — the orders generator in this file fixes the
            // column type.
            _ => unreachable!("o_orderdate is Date"),
        };
        for (okey, odate) in okeys.iter().zip(odates.iter()) {
            let lines = rng.gen_range(1..=7);
            for _ in 0..lines {
                let partkey = rng.gen_range(0..n_parts as i64) + 1;
                let qty = rng.gen_range(1..=50i64);
                b.l_orderkey.push(*okey);
                b.l_partkey.push(partkey);
                b.l_suppkey.push(rng.gen_range(0..n_suppliers.max(1) as i64) + 1);
                b.l_quantity.push(qty as f64);
                // Spec-ish: extended price grows with quantity and part key.
                b.l_extendedprice
                    .push(qty as f64 * (900.0 + (partkey % 1000) as f64 * 0.1));
                b.l_discount.push(rng.gen_range(0..=10) as f64 / 100.0);
                let ship = odate + rng.gen_range(1..=121);
                let commit = odate + rng.gen_range(30..=90);
                let receipt = ship + rng.gen_range(1..=30);
                b.l_shipdate.push(ship);
                b.l_commitdate.push(commit);
                b.l_receiptdate.push(receipt);
                b.l_shipmode.push(rng.gen_range(0..SHIP_MODES.len()));
            }
            // An order's lineitems never split across chunks.
            if b.len() >= chunk_rows {
                chunks.push(b.flush(encoding));
            }
        }
    }
    if b.len() > 0 || chunks.is_empty() {
        chunks.push(b.flush(encoding));
    }
    chunks
}

fn gen_lineitem(
    orders: &Table,
    n_parts: usize,
    n_suppliers: usize,
    rng: &mut StdRng,
    encoding: StringEncoding,
) -> Table {
    single_chunk(gen_lineitem_chunks(
        std::iter::once(orders),
        usize::MAX,
        n_parts,
        n_suppliers,
        rng,
        encoding,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TpchDb {
        TpchDb::generate(GenConfig::new(0.002, 7))
    }

    #[test]
    fn cardinality_ratios_hold() {
        let db = tiny();
        let c = db.table("customer").unwrap().n_rows();
        let o = db.table("orders").unwrap().n_rows();
        let l = db.table("lineitem").unwrap().n_rows();
        assert_eq!(c, 300); // 150_000 * 0.002
        assert_eq!(o, c * 10);
        // Lineitems per order average 4 (1..=7 uniform).
        let per_order = l as f64 / o as f64;
        assert!((3.4..4.6).contains(&per_order), "lines/order = {per_order}");
        assert_eq!(db.table("nation").unwrap().n_rows(), 25);
        assert_eq!(db.table("region").unwrap().n_rows(), 5);
        assert_eq!(
            db.table("partsupp").unwrap().n_rows(),
            db.table("part").unwrap().n_rows() * 4
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = TpchDb::generate(GenConfig::new(0.002, 9));
        let b = TpchDb::generate(GenConfig::new(0.002, 9));
        assert_eq!(a.table("lineitem").unwrap(), b.table("lineitem").unwrap());
        let c = TpchDb::generate(GenConfig::new(0.002, 10));
        assert_ne!(a.table("lineitem").unwrap(), c.table("lineitem").unwrap());
    }

    #[test]
    fn row_cap_rescales_uniformly() {
        let uncapped = TpchDb::generate(GenConfig::new(0.01, 3));
        let capped = TpchDb::generate(GenConfig {
            scale_factor: 0.01,
            seed: 3,
            max_lineitem_rows: Some(10_000),
            encoding: StringEncoding::default(),
        });
        assert!(capped.rescale < 1.0);
        assert!(capped.table("lineitem").unwrap().n_rows() <= 12_000);
        // Ratios survive the cap.
        let ratio = |db: &TpchDb| {
            db.table("orders").unwrap().n_rows() as f64
                / db.table("customer").unwrap().n_rows() as f64
        };
        assert_eq!(ratio(&uncapped), 10.0);
        assert_eq!(ratio(&capped), 10.0);
    }

    #[test]
    fn larger_scale_factor_means_more_bytes() {
        let small = TpchDb::generate(GenConfig::new(0.001, 1));
        let large = TpchDb::generate(GenConfig::new(0.004, 1));
        assert!(large.total_bytes() > 2 * small.total_bytes());
    }

    #[test]
    fn date_invariants_hold() {
        let db = tiny();
        let li = db.table("lineitem").unwrap();
        let ship = match &*li.column_by_name("l_shipdate").unwrap().data {
            ColumnData::Date(v) => v,
            _ => panic!(),
        };
        let receipt = match &*li.column_by_name("l_receiptdate").unwrap().data {
            ColumnData::Date(v) => v,
            _ => panic!(),
        };
        for (s, r) in ship.iter().zip(receipt.iter()) {
            assert!(r > s, "receipt must follow ship");
        }
    }

    #[test]
    fn orders_reference_existing_customers() {
        let db = tiny();
        let n_cust = db.table("customer").unwrap().n_rows() as i64;
        let orders = db.table("orders").unwrap();
        let custs = match &*orders.column_by_name("o_custkey").unwrap().data {
            ColumnData::Int64(v) => v,
            _ => panic!(),
        };
        assert!(custs.iter().all(|&c| c >= 1 && c <= n_cust));
    }

    #[test]
    fn snapshot_truncates_growing_tables_only() {
        let db = tiny();
        let snap = db.snapshot(0.5);
        assert_eq!(
            snap.try_get("orders").unwrap().n_rows(),
            (db.table("orders").unwrap().n_rows() as f64 * 0.5).round() as usize
        );
        assert_eq!(snap.try_get("nation").unwrap().n_rows(), 25);
        assert_eq!(snap.try_get("region").unwrap().n_rows(), 5);
        // Clamping.
        assert_eq!(db.snapshot(2.0).try_get("orders").unwrap().n_rows(), db.table("orders").unwrap().n_rows());
        assert_eq!(db.snapshot(-1.0).try_get("orders").unwrap().n_rows(), 0);
        // A prefix: first rows agree.
        assert_eq!(snap.try_get("customer").unwrap().row(0), db.table("customer").unwrap().row(0));
    }

    #[test]
    fn delta_stream_continues_keys_and_replays_deterministically() {
        let db = tiny();
        let n_orders = db.table("orders").unwrap().n_rows() as i64;
        let mut stream = DeltaStream::new(&db, 3);
        let first = stream.next_batch(40);
        let second = stream.next_batch(25);
        assert_eq!(first.orders.n_rows(), 40);
        // Keys continue strictly past the base and the prior batch.
        let keys = |t: &Table| match &*t.column_by_name("o_orderkey").unwrap().data {
            ColumnData::Int64(v) => v.clone(),
            _ => panic!(),
        };
        assert_eq!(keys(&first.orders)[0], n_orders + 1);
        assert_eq!(keys(&second.orders)[0], n_orders + 41);
        // Lineitems reference their own batch's orders.
        let li_keys = match &*first.lineitem.column_by_name("l_orderkey").unwrap().data {
            ColumnData::Int64(v) => v.clone(),
            _ => panic!(),
        };
        assert!(li_keys.iter().all(|k| (n_orders + 1..=n_orders + 40).contains(k)));
        // Streams replay: batch k is a pure function of (db, seed, k).
        let mut replay = DeltaStream::new(&db, 3);
        assert_eq!(replay.next_batch(40).lineitem, first.lineitem);
        assert_eq!(replay.next_batch(25).orders, second.orders);
        assert_eq!(replay.batches_generated(), 2);
        // Deltas share the base schema, so they append cleanly.
        let versioned = db.versioned_catalog();
        let receipt = versioned.append_batch(first.into_batch()).unwrap();
        assert_eq!(receipt.version, 1);
        assert!(receipt.stats.shared_bytes > 0);
        assert_eq!(
            versioned.current().table_rows("orders"),
            Some(n_orders as usize + 40)
        );
    }

    #[test]
    fn ship_modes_are_from_the_domain() {
        let db = tiny();
        let li = db.table("lineitem").unwrap();
        let modes = match &*li.column_by_name("l_shipmode").unwrap().data {
            ColumnData::Utf8(v) => v,
            _ => panic!(),
        };
        assert!(modes.iter().all(|m| SHIP_MODES.contains(&m)));
        // All 7 modes appear in a non-trivial dataset.
        let distinct: std::collections::HashSet<&str> = modes.iter().collect();
        assert_eq!(distinct.len(), 7);
    }
}
