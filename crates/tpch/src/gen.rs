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
//! **One layout.** Every table is built by one function that allocates each
//! column once, sized for its row count (lineitem at the spec's maximum of
//! 7 lines per order; a string column at its domain's widest value), and
//! fills it in one row loop. A chunked view of the data is a split of these
//! tables (`ChunkedTable::from_chunks`), not a second generator.

use crate::dates;
use midas_engines::data::{Column, ColumnData, Table, Utf8Column};
use midas_engines::sim::split_seed;
use midas_engines::version::VersionedCatalog;
use midas_engines::Catalog;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The seven lineitem ship modes of the spec.
pub const SHIP_MODES: [&str; 7] = ["REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"];

/// The five order priorities of the spec.
pub const PRIORITIES: [&str; 5] = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"];

/// Part type components (`p_type` = syllable1 syllable2 syllable3).
const TYPE_S1: [&str; 6] = ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"];
const TYPE_S2: [&str; 5] = ["ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED"];
const TYPE_S3: [&str; 5] = ["TIN", "NICKEL", "BRASS", "STEEL", "COPPER"];

/// Container size components (`p_container` = size kind).
const CONTAINER_SIZES: [&str; 5] = ["SM", "MED", "LG", "JUMBO", "WRAP"];

/// Container kind components (`p_container` = size kind).
const CONTAINER_KINDS: [&str; 8] = ["CASE", "BOX", "BAG", "JAR", "PKG", "PACK", "CAN", "DRUM"];

/// Lexicon for comment columns; "special" + "requests" drive Q13.
const WORDS: [&str; 16] = [
    "special", "requests", "pending", "furious", "express", "deposits", "packages", "accounts",
    "theodolites", "instructions", "dependencies", "foxes", "ideas", "platelets", "asymptotes",
    "pinto",
];

/// Generator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenConfig {
    /// TPC-H scale factor (0.1 ≈ 100 MiB, 1.0 ≈ 1 GiB of raw data).
    pub scale_factor: f64,
    /// RNG seed; equal configs generate identical databases.
    pub seed: u64,
    /// Cap on physical lineitem rows; `None` generates the full count.
    pub max_lineitem_rows: Option<usize>,
    /// Inert: the generator has one layout. It stays only because the
    /// benchmark's `estimation_replay` workload spells it in a struct
    /// literal; it goes when that file next changes (the `[stage-trace]`
    /// item's PR B).
    #[doc(hidden)]
    pub encoding: (),
}

impl GenConfig {
    /// Convenience constructor with no row cap.
    pub fn new(scale_factor: f64, seed: u64) -> Self {
        GenConfig {
            scale_factor,
            seed,
            max_lineitem_rows: None,
            encoding: (),
        }
    }

    /// The paper's 100 MiB dataset (SF 0.1), uncapped.
    pub fn sf_100mib(seed: u64) -> Self {
        Self::new(0.1, seed)
    }

    /// The paper's 1 GiB dataset (SF 1.0), capped at 1.2 M physical
    /// lineitems — the uniform-rescale substitution from DESIGN.md.
    pub fn sf_1gib(seed: u64) -> Self {
        GenConfig {
            max_lineitem_rows: Some(1_200_000),
            ..Self::new(1.0, seed)
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

impl TpchDb {
    /// Generates the database.
    pub fn generate(config: GenConfig) -> Self {
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
        let n_orders = n_customers * 10;
        let n_parts = (((200_000.0 * sf) * rescale) as usize).max(1);
        let n_suppliers = (((10_000.0 * sf) * rescale) as usize).max(1);

        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut tables = Catalog::new();
        tables.insert("region", gen_region());
        tables.insert("nation", gen_nation());
        tables.insert("customer", gen_customer(n_customers, &mut rng));
        tables.insert("part", gen_part(n_parts, &mut rng));
        tables.insert("supplier", gen_supplier(n_suppliers, &mut rng));
        let orders = gen_orders(n_orders, 0, n_customers, &mut rng);
        let lineitem = gen_lineitem(&orders, n_parts, n_suppliers, &mut rng);
        tables.insert("partsupp", gen_partsupp(n_parts, n_suppliers, &mut rng));
        tables.insert("orders", orders);
        tables.insert("lineitem", lineitem);

        TpchDb {
            tables,
            config,
            rescale,
        }
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
        let orders = gen_orders(n_orders, self.next_orderkey, self.n_customers, &mut rng);
        let lineitem = gen_lineitem(&orders, self.n_parts, self.n_suppliers, &mut rng);
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

/// Bytes of the longest value of `domain`: a string column of `n` values
/// drawn from it is sized at `n` times this, so it never reallocates.
fn widest(domain: &[&str]) -> usize {
    domain.iter().map(|s| s.len()).max().unwrap_or(0)
}

fn gen_customer(n: usize, rng: &mut StdRng) -> Table {
    let segments = ["AUTOMOBILE", "BUILDING", "FURNITURE", "MACHINERY", "HOUSEHOLD"];
    let mut keys = Vec::with_capacity(n);
    let mut names = Utf8Column::with_capacity(n, 18 * n);
    let mut nations = Vec::with_capacity(n);
    let mut segs = Utf8Column::with_capacity(n, n * widest(&segments));
    let mut bals = Vec::with_capacity(n);
    for i in 0..n {
        let key = i as i64 + 1;
        keys.push(key);
        names.push_fmt(format_args!("Customer#{key:09}"));
        nations.push(rng.gen_range(0..25i64));
        segs.push(segments[rng.gen_range(0..segments.len())]);
        bals.push(rng.gen_range(-999.99..9999.99));
    }
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
    .expect("generated columns are aligned")
}

fn gen_part(n: usize, rng: &mut StdRng) -> Table {
    let type_bytes = widest(&TYPE_S1) + widest(&TYPE_S2) + widest(&TYPE_S3) + 2;
    let container_bytes = widest(&CONTAINER_SIZES) + widest(&CONTAINER_KINDS) + 1;
    let mut keys = Vec::with_capacity(n);
    let mut brands = Utf8Column::with_capacity(n, 8 * n);
    let mut types = Utf8Column::with_capacity(n, n * type_bytes);
    let mut containers = Utf8Column::with_capacity(n, n * container_bytes);
    let mut prices = Vec::with_capacity(n);
    for i in 0..n {
        let key = i as i64 + 1;
        keys.push(key);
        let (m, k) = (rng.gen_range(1..=5i64), rng.gen_range(1..=5i64));
        brands.push_fmt(format_args!("Brand#{m}{k}"));
        types.push_fmt(format_args!(
            "{} {} {}",
            TYPE_S1[rng.gen_range(0..TYPE_S1.len())],
            TYPE_S2[rng.gen_range(0..TYPE_S2.len())],
            TYPE_S3[rng.gen_range(0..TYPE_S3.len())]
        ));
        containers.push_fmt(format_args!(
            "{} {}",
            CONTAINER_SIZES[rng.gen_range(0..CONTAINER_SIZES.len())],
            CONTAINER_KINDS[rng.gen_range(0..CONTAINER_KINDS.len())]
        ));
        prices.push(900.0 + (key % 1000) as f64 * 0.1);
    }
    Table::new(
        "part",
        vec![
            Column::new("p_partkey", ColumnData::Int64(keys)),
            Column::new("p_brand", ColumnData::Utf8(brands)),
            Column::new("p_type", ColumnData::Utf8(types)),
            Column::new("p_container", ColumnData::Utf8(containers)),
            Column::new("p_retailprice", ColumnData::Float64(prices)),
        ],
    )
    .expect("generated columns are aligned")
}

fn gen_supplier(n: usize, rng: &mut StdRng) -> Table {
    let mut keys = Vec::with_capacity(n);
    let mut names = Utf8Column::with_capacity(n, 18 * n);
    let mut nations = Vec::with_capacity(n);
    for i in 0..n {
        keys.push(i as i64 + 1);
        names.push_fmt(format_args!("Supplier#{:09}", i + 1));
        nations.push(rng.gen_range(0..25i64));
    }
    Table::new(
        "supplier",
        vec![
            Column::new("s_suppkey", ColumnData::Int64(keys)),
            Column::new("s_name", ColumnData::Utf8(names)),
            Column::new("s_nationkey", ColumnData::Int64(nations)),
        ],
    )
    .expect("generated columns are aligned")
}

fn gen_partsupp(n_parts: usize, n_suppliers: usize, rng: &mut StdRng) -> Table {
    // 4 suppliers per part, as in the spec.
    let mut parts = Vec::with_capacity(n_parts * 4);
    let mut supps = Vec::with_capacity(n_parts * 4);
    let mut avail = Vec::with_capacity(n_parts * 4);
    for p in 0..n_parts {
        for s in 0..4 {
            parts.push(p as i64 + 1);
            supps.push(((p + s * (n_parts / 4).max(1)) % n_suppliers.max(1)) as i64 + 1);
            avail.push(rng.gen_range(1..10_000i64));
        }
    }
    Table::new(
        "partsupp",
        vec![
            Column::new("ps_partkey", ColumnData::Int64(parts)),
            Column::new("ps_suppkey", ColumnData::Int64(supps)),
            Column::new("ps_availqty", ColumnData::Int64(avail)),
        ],
    )
    .expect("generated columns are aligned")
}

fn gen_orders(n: usize, start_key: i64, n_customers: usize, rng: &mut StdRng) -> Table {
    let start = dates::tpch_start();
    let end = dates::tpch_end() - 151; // spec: last order date leaves room for shipping
    let mut keys = Vec::with_capacity(n);
    let mut custs = Vec::with_capacity(n);
    let mut odates = Vec::with_capacity(n);
    let mut priorities = Utf8Column::with_capacity(n, n * widest(&PRIORITIES));
    // A comment is at most 7 words and 6 spaces.
    let mut comments = Utf8Column::with_capacity(n, n * 7 * (widest(&WORDS) + 1));
    let mut text = String::new();
    for i in 0..n {
        keys.push(start_key + i as i64 + 1);
        custs.push(rng.gen_range(0..n_customers as i64) + 1);
        odates.push(rng.gen_range(start..=end));
        priorities.push(PRIORITIES[rng.gen_range(0..PRIORITIES.len())]);
        comment(rng, &mut text);
        comments.push(&text);
    }
    Table::new(
        "orders",
        vec![
            Column::new("o_orderkey", ColumnData::Int64(keys)),
            Column::new("o_custkey", ColumnData::Int64(custs)),
            Column::new("o_orderdate", ColumnData::Date(odates)),
            Column::new("o_orderpriority", ColumnData::Utf8(priorities)),
            Column::new("o_comment", ColumnData::Utf8(comments)),
        ],
    )
    .expect("generated columns are aligned")
}

fn gen_lineitem(orders: &Table, n_parts: usize, n_suppliers: usize, rng: &mut StdRng) -> Table {
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
    // Sized for the spec's maximum of 7 lines per order, so no column
    // ever reallocates.
    let cap = 7 * okeys.len();
    let mut l_orderkey = Vec::with_capacity(cap);
    let mut l_partkey = Vec::with_capacity(cap);
    let mut l_suppkey = Vec::with_capacity(cap);
    let mut l_quantity = Vec::with_capacity(cap);
    let mut l_extendedprice = Vec::with_capacity(cap);
    let mut l_discount = Vec::with_capacity(cap);
    let mut l_shipdate = Vec::with_capacity(cap);
    let mut l_commitdate = Vec::with_capacity(cap);
    let mut l_receiptdate = Vec::with_capacity(cap);
    let mut l_shipmode = Utf8Column::with_capacity(cap, cap * widest(&SHIP_MODES));
    for (&okey, &odate) in okeys.iter().zip(odates.iter()) {
        let lines = rng.gen_range(1..=7);
        for _ in 0..lines {
            let partkey = rng.gen_range(0..n_parts as i64) + 1;
            let qty = rng.gen_range(1..=50i64);
            l_orderkey.push(okey);
            l_partkey.push(partkey);
            l_suppkey.push(rng.gen_range(0..n_suppliers.max(1) as i64) + 1);
            l_quantity.push(qty as f64);
            // Spec-ish: extended price grows with quantity and part key.
            l_extendedprice.push(qty as f64 * (900.0 + (partkey % 1000) as f64 * 0.1));
            l_discount.push(rng.gen_range(0..=10) as f64 / 100.0);
            let ship = odate + rng.gen_range(1..=121);
            let commit = odate + rng.gen_range(30..=90);
            let receipt = ship + rng.gen_range(1..=30);
            l_shipdate.push(ship);
            l_commitdate.push(commit);
            l_receiptdate.push(receipt);
            l_shipmode.push(SHIP_MODES[rng.gen_range(0..SHIP_MODES.len())]);
        }
    }
    Table::new(
        "lineitem",
        vec![
            Column::new("l_orderkey", ColumnData::Int64(l_orderkey)),
            Column::new("l_partkey", ColumnData::Int64(l_partkey)),
            Column::new("l_suppkey", ColumnData::Int64(l_suppkey)),
            Column::new("l_quantity", ColumnData::Float64(l_quantity)),
            Column::new("l_extendedprice", ColumnData::Float64(l_extendedprice)),
            Column::new("l_discount", ColumnData::Float64(l_discount)),
            Column::new("l_shipdate", ColumnData::Date(l_shipdate)),
            Column::new("l_commitdate", ColumnData::Date(l_commitdate)),
            Column::new("l_receiptdate", ColumnData::Date(l_receiptdate)),
            Column::new("l_shipmode", ColumnData::Utf8(l_shipmode)),
        ],
    )
    .expect("generated columns are aligned")
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
            max_lineitem_rows: Some(10_000),
            ..GenConfig::new(0.01, 3)
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
