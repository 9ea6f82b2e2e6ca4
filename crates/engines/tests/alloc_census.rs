//! Allocation census of a cold job's three fragments.
//!
//! A counting `#[global_allocator]` (here, in the test crate — the library
//! crates keep `#![forbid(unsafe_code)]`) watches one instance each of
//! Q12/Q13/Q14/Q17 at SF 0.01 run fragment by fragment through
//! [`execute_fused`], the call [`midas_engines::profile_fragments`] makes
//! per fragment, and asserts that what the executor asks the allocator for
//! follows what an operator *produces*, not what it scans:
//!
//! * a filter+project prepare makes far fewer allocations than it scans
//!   rows (an eagerly built error value per compared row made it 4 and 2
//!   per row on Q12 and Q14);
//! * no block of Q17's combine is larger than one 4-byte column of its
//!   input (a hash table sized by input rows was 56 B × rows for 2 000
//!   groups), its direct-address join tables included;
//! * a prepare that projects whole columns of a flat table allocates the
//!   output table, not its values: they are the source's buffers;
//! * the bytes a combine requests stay a small multiple of its input rows,
//!   and Q12's — a join of few rows with many — a small multiple of the few;
//! * a filter's further morsels each ask for one block (the evaluation's
//!   register file), not one more per `IN`-list;
//! * a projection over several chunks copies each value once, straight
//!   from the chunk it lies in — strings too: a string column is one
//!   offsets buffer and one byte buffer, so concatenating or gathering
//!   strings asks for two blocks, however many rows survive;
//! * extending a row-wise prepare by one appended chunk asks for as many
//!   blocks after a fifth of a table as after all of it;
//! * a cold Q13 / Q17 combine asks for bytes by its groups and the left
//!   rows its join keeps, not by the rows it joins or aggregates: four
//!   times the orders or lineitems ask for at most 1.25× the bytes;
//! * extending Q17's and Q13's combines by one delta asks for bytes in
//!   proportion to the groups their states retain and the delta's rows,
//!   not to the `lineitem` / `orders` rows before it, and for no more than
//!   a full run over the grown prepares (Q13: half of one).
//!
//! Every threshold but one (Q13's bytes, explained there) sits at or below
//! half of what the parent of the PR that added this file read; both
//! readings are recorded beside each assertion, and a threshold added or
//! tightened later records its own parent → new readings the same way.
//! These are counts, not clocks: the same on any host, at any load.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use std::collections::HashSet;
use std::sync::Arc;

use midas_engines::data::{ColumnData, Table};
use midas_engines::ops::{PhysicalPlan, WorkProfile};
use midas_engines::Expr;
use midas_engines::version::{CatalogVersion, ChunkedTable};
use midas_engines::{
    execute_fused, Catalog, CombineState, RowWiseOutput, TableSource, Value, MORSEL_ROWS,
};
use midas_tpch::dates::ymd;
use midas_tpch::gen::{DeltaStream, GenConfig, TpchDb};
use midas_tpch::queries::{q12, q13, q14, q17, TwoTableQuery};

struct Counting;

static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LARGEST: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Only the thread inside [`census`] is counted, so the test harness
    /// and any sibling test cannot disturb a reading. Const-initialised
    /// and `Drop`-free: reading it from the allocator allocates nothing.
    static WATCHED: Cell<bool> = const { Cell::new(false) };
}

fn note(size: usize) {
    if WATCHED.with(Cell::get) {
        COUNT.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
        LARGEST.fetch_max(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's `layout` obligations pass through to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A grown block is a new request of its full new size: that is what
        // the allocator may have to find (and copy into).
        note(new_size);
        // SAFETY: `ptr`/`layout` come from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// What one fragment asked the allocator for.
#[derive(Debug, Clone, Copy)]
struct Census {
    /// Calls to `alloc`/`alloc_zeroed`/`realloc`.
    count: u64,
    /// Sum of the requested sizes.
    bytes: u64,
    /// The largest single request.
    largest: u64,
}

/// Runs `plan` over `tables` on this thread and returns its output and
/// work profile beside the census of everything the execution requested.
fn census<'a>(
    plan: &PhysicalPlan,
    tables: impl Into<TableSource<'a>>,
) -> (Table, WorkProfile, Census) {
    let (out, c) = counted(|| execute_fused(plan, tables));
    let (table, profile) = out.expect("the query runs");
    (table, profile, c)
}

/// Runs `f` on this thread and returns its value beside the census of
/// everything it requested.
fn counted<R>(f: impl FnOnce() -> R) -> (R, Census) {
    COUNT.store(0, Ordering::Relaxed);
    BYTES.store(0, Ordering::Relaxed);
    LARGEST.store(0, Ordering::Relaxed);
    WATCHED.with(|w| w.set(true));
    let out = f();
    WATCHED.with(|w| w.set(false));
    let c = Census {
        count: COUNT.load(Ordering::Relaxed),
        bytes: BYTES.load(Ordering::Relaxed),
        largest: LARGEST.load(Ordering::Relaxed),
    };
    (out, c)
}

/// Versions of `orders` and `lineitem` that start with `prefix` (the two
/// tables' first chunks) and grow by `deltas`, one chunk each: version `k`
/// holds the prefix and the first `k` deltas, sharing every chunk.
fn grown(prefix: [Table; 2], deltas: &[Vec<(String, Table)>]) -> Vec<CatalogVersion> {
    let chunks: Vec<Vec<Arc<Table>>> = prefix
        .into_iter()
        .enumerate()
        .map(|(i, first)| {
            let appended = deltas.iter().map(|batch| Arc::new(batch[i].1.clone()));
            std::iter::once(Arc::new(first)).chain(appended).collect()
        })
        .collect();
    (0..=deltas.len())
        .map(|k| {
            let table = |i: usize, name: &str| {
                ChunkedTable::from_chunks(name, chunks[i][..=k].to_vec()).expect("one schema")
            };
            CatalogVersion::from_chunked(vec![table(0, "orders"), table(1, "lineitem")])
        })
        .collect()
}

/// The three fragments of one query: censuses in execution order (left
/// prepare, right prepare, combine) and the combine's input rows.
fn query_census(q: &TwoTableQuery, base: &Catalog) -> ([Census; 3], u64) {
    let (left, _, lc) = census(&q.left_prepare, base);
    let (right, _, rc) = census(&q.right_prepare, base);
    let rows_in = (left.n_rows() + right.n_rows()) as u64;
    let mut frags = Catalog::new();
    frags.insert("@frag0".to_string(), left);
    frags.insert("@frag1".to_string(), right);
    let (_, _, cc) = census(&q.combine, &frags);
    ([lc, rc, cc], rows_in)
}

/// A version holding `t` alone, cut into three chunks of a third each.
fn three_chunks(t: &Table) -> CatalogVersion {
    let n = t.n_rows();
    let cut = |from: usize, to: usize| {
        Arc::new(t.take_ids(&(from as u32..to as u32).collect::<Vec<_>>()))
    };
    let chunks = vec![cut(0, n / 3), cut(n / 3, 2 * n / 3), cut(2 * n / 3, n)];
    let chunked = ChunkedTable::from_chunks(&t.name, chunks).expect("one schema");
    CatalogVersion::from_chunked(vec![chunked])
}

/// One test, so the readings cannot interleave with another census. The
/// trailing comments are `parent reading → reading of the PR that added
/// this file`, at SF 0.01 (59 941 lineitems).
#[test]
fn a_cold_job_allocates_by_what_it_produces() {
    let db = TpchDb::generate(GenConfig::new(0.01, 42));
    let base = db.catalog();
    let lineitems = base.get("lineitem").expect("generated").n_rows() as u64;

    // Q12 left: a five-conjunct filter over `lineitem`, two columns out.
    let q = q12("MAIL", "SHIP", 1994);
    let ([left, right, combine], rows) = query_census(&q, base);
    // Its ≈ 300 survivors' `l_shipmode`s are one gathered string column.
    assert!(
        left.count <= 177, // 240 117 (4.0 per row) → 353; later 354 → 62
        "Q12 left prepare: {left:?} over {lineitems} rows"
    );

    // Q12 right: two whole columns of `orders`, one of them strings. A
    // whole mask-free column of a one-slab table is projected as its own
    // buffer, so the prepare allocates the output table and nothing per
    // row — the priority column is `orders`' column itself.
    let orders = base.get("orders").expect("generated");
    let n = orders.n_rows();
    assert!(
        right.count <= 16, // 15 014 (one `String` per row) → 12
        "Q12 right prepare: {right:?} over {n} rows"
    );
    let (flat, flat_profile, _) = census(&q.right_prepare, base);
    let priority = flat.column_by_name("o_orderpriority").expect("projected");
    let source = orders.column(3).expect("o_orderpriority");
    assert!(Arc::ptr_eq(&priority.data, &source.data));
    // Over three chunks of `orders` the prepare concatenates them into the
    // table the flat run shares, fingerprint and work profile included —
    // each column one copy of the chunks' buffers, not a `String` per row.
    let (chunked, chunked_profile, gathered) = census(&q.right_prepare, &three_chunks(orders));
    assert!(
        gathered.count <= 16, // 15 025 → 15 027 (one `String` per row); later 15 018 → 16
        "Q12 right prepare over three chunks: {gathered:?} over {n} rows"
    );
    assert_eq!(chunked.fingerprint(), flat.fingerprint());
    assert_eq!(chunked_profile, flat_profile);

    // A filtered string gather: `o_comment` of the orders placed before
    // 1993 (one year in seven), then before 1998. The survivors' comments
    // are gathered into one column, so the count does not grow with them.
    let comments_before = |cut: i32| PhysicalPlan::Project {
        input: Box::new(PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::Scan {
                table: "orders".to_string(),
            }),
            predicate: Expr::col(2).lt(Expr::date(cut)),
        }),
        exprs: vec![("o_comment".to_string(), Expr::col(4))],
    };
    let (few, _, narrow) = census(&comments_before(ymd(1993, 1, 1)), base);
    let (many, _, wide) = census(&comments_before(ymd(1998, 1, 1)), base);
    assert!(many.n_rows() > 5 * few.n_rows(), "{} then {} survivors", few.n_rows(), many.n_rows());
    assert!(
        narrow.count <= 24 && wide.count <= narrow.count, // 2 332 / 13 660 → 18 / 18
        "filtered `o_comment`: {narrow:?} for {} rows, {wide:?} for {}",
        few.n_rows(),
        many.n_rows()
    );

    // Q12 combine: 300 lineitems joined to 15 000 orders under a two-group
    // aggregate. The join builds on the 300 — no table, chain vector or
    // block is sized by the 15 000 it probes with. Their order keys span
    // 14 849 integers, fewer than the 15 297 rows the join reads, so its
    // chain heads are addressed by key: the largest block is that direct
    // table, by construction under 4 B × those rows (the 300-key hash
    // table it replaces read 1.1; bytes 5.2 → 7.0).
    assert!(
        combine.bytes <= 16 * rows, // 74.6 B × rows (a 15 000-key build) → 5.2
        "Q12 combine: {combine:?} over {rows} input rows"
    );
    assert!(
        combine.largest <= 4 * rows, // 34.3 B × rows (the build's table) → 1.1 (300 keys)
        "Q12 combine: {combine:?} over {rows} input rows"
    );

    // Q12 left's filter with a numeric `IN` in place of the ship modes,
    // `l_suppkey IN (7, 11)`: the candidates are split once, when the
    // predicate is compiled. No receipt falls in 1980, so no selection
    // vector grows, and what the four morsels of `lineitem` request beyond
    // what its first morsel alone does is one register file per further
    // morsel.
    let filter = PhysicalPlan::Filter {
        input: Box::new(PhysicalPlan::Scan {
            table: "lineitem".to_string(),
        }),
        predicate: Expr::col(2)
            .in_list(vec![Value::Int64(7), Value::Int64(11)])
            .and(Expr::col(7).lt(Expr::col(8)))
            .and(Expr::col(6).lt(Expr::col(7)))
            .and(Expr::col(8).ge(Expr::date(ymd(1980, 1, 1))))
            .and(Expr::col(8).lt(Expr::date(ymd(1981, 1, 1)))),
    };
    let all = base.get("lineitem").expect("generated");
    let further_morsels = (all.n_rows() as u64).div_ceil(MORSEL_ROWS as u64) - 1;
    assert_eq!(further_morsels, 3, "SF 0.01 is four morsels of lineitems");
    let mut first_morsel = Catalog::new();
    let first_rows: Vec<u32> = (0..MORSEL_ROWS as u32).collect();
    first_morsel.insert("lineitem", all.take_ids(&first_rows));
    let (out, _, whole) = census(&filter, base);
    let (_, _, one) = census(&filter, &first_morsel);
    assert_eq!(out.n_rows(), 0, "a year without receipts");
    assert!(
        whole.count - one.count <= further_morsels, // coded shipmode 6 → 3; l_suppkey 3
        "Q12 left filter, numeric `IN`: {whole:?} over four morsels, {one:?} over one"
    );

    // Q14 left: a date-range filter over `lineitem`.
    let ([left, _, _], _) = query_census(&q14(1995, 9), base);
    assert!(
        left.count < lineitems / 4, // 119 942 (2.0 per row) → 60
        "Q14 left prepare: {left:?} over {lineitems} rows"
    );

    // Q17 combine: `avg(l_quantity) group by l_partkey` over every lineitem
    // (2 000 groups) and two joins against small build sides, both
    // addressed by key (Brand#13 / MED BOX selects three parts at this
    // scale; Brand#23 selected none, leaving the first join nothing to
    // build). Neither direct table outgrows the group ids: no block tops
    // 4 B × input rows.
    let ([_, _, combine], rows) = query_census(&q17("Brand#13", "MED BOX"), base);
    assert!(
        // 35.0 B × rows (the group map) → 4.0 (the group ids); later 1.1 (no
        // group ids: `avg_q` folds only the parts `j1` kept)
        combine.largest <= 4 * rows,
        "Q17 combine: {combine:?} over {rows} input rows"
    );
    assert!(
        combine.bytes <= 24 * rows, // 66.2 B × rows → 12.7 (Brand#13: 8.5 → 8.7); later 3.7
        "Q17 combine: {combine:?} over {rows} input rows"
    );

    // Q17 left over three chunks of `lineitem`: three whole numeric
    // columns, each concatenated once from the chunks' own buffers — no
    // chunk's column is copied out before it is copied in.
    let lineitem = base.get("lineitem").expect("generated");
    let q = q17("Brand#13", "MED BOX");
    let (out, _, merged) = census(&q.left_prepare, &three_chunks(lineitem));
    let out_bytes = out.estimated_bytes();
    assert!(
        10 * merged.bytes <= 11 * out_bytes, // 2.13 × output bytes → 1.00
        "Q17 left prepare over three chunks: {merged:?} for {out_bytes} output bytes"
    );

    // Q13 combine: a 14 k-row left-outer join over a 14 k-row build side
    // with 1 000 distinct keys, a group-by over the join and one over that.
    let ([_, _, combine], rows) = query_census(&q13("special", "requests"), base);
    assert!(
        combine.largest <= 8 * rows, // 33.9 B × rows (a hash table) → 7.2 (a gathered column)
        "Q13 combine: {combine:?} over {rows} input rows"
    );
    // Not half of the parent, and the one threshold here that is not: what
    // is left is what the operators produce — the join's three index
    // vectors with their doublings, the two gathered columns the aggregate
    // reads, group ids and positions — plus one morsel of kernel
    // temporaries (a constant that SF 0.01 spreads over few rows). The
    // join's chain heads are addressed by `c_custkey`, 4 B per customer,
    // where a hash table held 16 B per distinct key. A groupjoin since
    // builds none of the join's vectors or gathered columns: what is left
    // is the per-customer states and one morsel of kernel temporaries.
    assert!(
        combine.bytes <= 64 * rows, // 133.2 B × rows → 84.4; later 57.7 → 49.7 → 19.9
        "Q13 combine: {combine:?} over {rows} input rows"
    );

    // A cold Q13 / Q17 combine asks for bytes by its groups and the rows
    // its join keeps on the left, not by the rows it aggregates: Q13's
    // groupjoin counts each order straight into its customer's group, and
    // Q17's `avg_q` folds only the parts `j1` kept (`fused` module docs,
    // §7). With the fact-side prepare repeated four times — four times the
    // orders a customer counts, the lineitems a part averages, each past
    // one morsel — the combine asks for no more than 1.25× the bytes of a
    // run over it once, and both stay under 32 B per group or kept left row
    // plus 16 B × `MORSEL_ROWS` of kernel temporaries.
    for (q, fact) in [(q13("special", "requests"), 1), (q17("Brand#13", "MED BOX"), 0)] {
        let prepared =
            [&q.left_prepare, &q.right_prepare].map(|p| execute_fused(p, base).unwrap().0);
        // Both prepares lead with the join key, an `Int64` column.
        let keys = |t: &Table| match &*t.column(0).unwrap().data {
            ColumnData::Int64(v) => v.clone(),
            other => panic!("an Int64 key, not {other:?}"),
        };
        let (fact_keys, held) = (keys(&prepared[fact]), keys(&prepared[1 - fact]));
        let held: HashSet<i64> = held.into_iter().collect();
        // Q13's groups are its customers, all kept by the left-outer join;
        // Q17's the parts its lineitems name, `j1` keeping those of the
        // brand and container.
        let (groups, kept) = match fact {
            1 => (held.len(), held.len()),
            _ => {
                let named: HashSet<i64> = fact_keys.iter().copied().collect();
                (named.len(), fact_keys.iter().filter(|k| held.contains(k)).count())
            }
        };
        let (groups, kept) = (groups as u64, kept as u64);
        let combine = |times: usize| {
            let mut frags = Catalog::new();
            for (n, side) in prepared.iter().enumerate() {
                let copies = vec![side; if n == fact { times } else { 1 }];
                frags.insert(format!("@frag{n}"), Table::concat(&side.name, &copies).unwrap());
            }
            census(&q.combine, &frags).2
        };
        let (once, four) = (combine(1), combine(4));
        // Q13 1.13× (parent 3.09×), Q17 1.19× (parent 2.28×).
        assert!(
            4 * four.bytes <= 5 * once.bytes,
            "{}: {four:?} over four times the rows, {once:?} over them once",
            q.label
        );
        // Once: Q13 307 473 B over 1 500 customers (before the groupjoin
        // 781 290), Q17 222 075 B over 2 000 parts and 89 kept lineitems
        // (586 159); four times: Q13 347 897 (2 412 515), Q17 263 334
        // over 356 kept lineitems (1 339 046).
        for (c, times) in [(once, 1), (four, 4)] {
            let kept = if fact == 0 { kept * times } else { kept };
            let bound = 32 * (groups + kept) + 16 * MORSEL_ROWS as u64;
            assert!(
                c.bytes <= bound,
                "{}: {c:?} over {times}× the rows, {groups} groups, {kept} kept left rows",
                q.label
            );
        }
    }

    // Extending a row-wise prepare over 17 chunks by one 60-order delta:
    // Q13 right (a `CONTAINS` filter over `orders`) and Q17 left (three
    // whole `lineitem` columns). The plan runs over the new chunk alone and
    // its output is appended where the old one lies, so what the extension
    // requests does not depend on how many rows precede the delta: the
    // same over all of `orders` / `lineitem` as over a fifth of them.
    let mut stream = DeltaStream::new(&db, 42);
    let deltas: Vec<_> = (0..17).map(|_| stream.next_batch(60).into_batch()).collect();
    let first = |name: &str, fifths: usize| {
        let t = base.get(name).expect("generated");
        t.take_ids(&(0..(t.n_rows() * fifths / 5) as u32).collect::<Vec<_>>())
    };
    for q in [q13("special", "requests").right_prepare, q17("Brand#13", "MED BOX").left_prepare] {
        let extension = |fifths: usize| {
            let versions = grown([first("orders", fifths), first("lineitem", fifths)], &deltas);
            let mut out = RowWiseOutput::compute(&q, &versions[16]).expect("row-wise").unwrap();
            let (rows, c) = counted(|| out.extend(&q, &versions[17]));
            assert!(rows.is_some_and(|r| r > 0), "no extension: {rows:?}");
            assert_eq!(**out.table(), execute_fused(&q, &versions[17]).unwrap().0);
            c
        };
        let (whole, fifth) = (extension(5), extension(1));
        assert!(
            whole.count == fifth.count && whole.count <= 96, // (new) Q13 61, Q17 39
            "extending {q:?}: {whole:?} after every row, {fifth:?} after a fifth"
        );
    }

    // Extending Q17's and Q13's combines by the same delta, at two sizes of
    // `orders` / `lineitem` (all of SF 0.01's and a fifth) beside the whole
    // `part` / `customer`: the state's folds continue over the delta's rows
    // and the operators above them run again over the retained groups —
    // Q17's per-part averages and the few matching lineitems, Q13's
    // per-customer counts — so the bytes requested follow those groups and
    // the delta, not the rows before it.
    for (q, dimension) in [(q17("Brand#13", "MED BOX"), "part"), (q13("special", "requests"), "customer")]
    {
        let groups = base.get(dimension).expect("generated").n_rows() as u64;
        let dimensions = ["customer", "part"].map(|t| Arc::new(base.get(t).expect("generated").clone()));
        let extension = |fifths: usize| {
            let versions = grown([first("orders", fifths), first("lineitem", fifths)], &deltas);
            let with_dimensions = |v: &CatalogVersion| {
                let chunks = |t: &str| v.table(t).expect("grown").chunks().to_vec();
                let mut tables: Vec<ChunkedTable> = ["orders", "lineitem"]
                    .into_iter()
                    .map(|t| ChunkedTable::from_chunks(t, chunks(t)).expect("one schema"))
                    .collect();
                for (t, whole) in ["customer", "part"].into_iter().zip(&dimensions) {
                    let whole = vec![Arc::clone(whole)];
                    tables.push(ChunkedTable::from_chunks(t, whole).expect("one chunk"));
                }
                CatalogVersion::from_chunked(tables)
            };
            let (before, after) = (with_dimensions(&versions[16]), with_dimensions(&versions[17]));
            let prepare = |plan: &PhysicalPlan| {
                let mut out = RowWiseOutput::compute(plan, &before).expect("row-wise").unwrap();
                out.extend(plan, &after).expect("extends");
                (RowWiseOutput::compute(plan, &before).expect("row-wise").unwrap(), out)
            };
            let ((l0, l1), (r0, r1)) = (prepare(&q.left_prepare), prepare(&q.right_prepare));
            let mut state = CombineState::compute(&q.combine, &[&l0, &r0]).expect("runs");
            drop((l0, r0));
            let (rows, c) = counted(|| state.extend(&q.combine, &[&l1, &r1]));
            let rows = rows.expect("extends") as u64;
            let mut frags = Catalog::new();
            frags.insert_shared("@frag0", Arc::clone(l1.table()));
            frags.insert_shared("@frag1", Arc::clone(r1.table()));
            let (full, full_census) = counted(|| execute_fused(&q.combine, &frags));
            let (full, work) = full.expect("runs");
            assert_eq!((&**state.table(), state.work()), (&full, work));
            (c, rows, full_census)
        };
        let ((whole, rows, full), (fifth, _, _)) = (extension(5), extension(1));
        // 192 B per retained group or delta row, at both sizes: Q17 88 and
        // 108 over 2 000 parts and 241 delta lineitems, Q13 44 and 48 over
        // 1 500 customers and 50 delta orders.
        let bound = 192 * (groups + rows);
        assert!(
            whole.bytes <= bound && fifth.bytes <= bound,
            "extending {}: {whole:?} after every row, {fifth:?} after a fifth, over {groups} \
             groups and {rows} delta rows",
            q.label
        );
        // Five times the rows before the delta ask for no more: Q17 0.81×,
        // Q13 0.93× of the fifth's bytes.
        assert!(
            4 * whole.bytes <= 5 * fifth.bytes,
            "extending {}: {whole:?} after every row, {fifth:?} after a fifth",
            q.label
        );
        // The full run each window made before, after every row. Q13's
        // extension asks for at most half of it: 68 321 B against 321 583
        // (103 737 against 836 412 before the groupjoin). Q17's full run
        // folds only the parts `j1` keeps (§7), so its extension, which
        // reruns the join over all of `avg_q`'s groups, asks for no more
        // than it: 196 403 B against 222 818 (270 838 against 636 037).
        let share = if dimension == "customer" { 2 } else { 1 };
        assert!(
            share * whole.bytes <= full.bytes,
            "extending {}: {whole:?}, against a full run's {full:?}",
            q.label
        );
    }
}
