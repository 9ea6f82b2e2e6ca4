//! The shared, zero-copy execution catalog.
//!
//! Every layer of the stack — the relational executor ([`crate::ops`]), the
//! federated simulator ([`crate::exec`]), the IReS scheduler and the
//! concurrent federation runtime — resolves table names against a
//! [`Catalog`]. Entries are [`Arc<Table>`], which is what makes the whole
//! data plane zero-copy:
//!
//! * **Nothing is seeded.** A query's fragments scan the base tables of
//!   the deployment-wide catalog by reference, where they are; its own
//!   `@frag<N>` outputs are a slice beside it, by position, and never
//!   enter a catalog.
//! * **Cloning a catalog is O(entries), not O(data).** The analytic cost
//!   model can take a private copy per query and splice in its prepared
//!   intermediates without duplicating the base data.
//! * **Sharing is thread-safe.** One immutable catalog serves every worker
//!   of the federation runtime and every concurrently executing fragment of
//!   one query; `Table` holds plain column vectors, so `Arc<Table>` is
//!   `Send + Sync` for free.
//!
//! A fragment output (`@frag<N>`) is `Arc::new`-ed once, at position `N`
//! of its run's outputs — owned exactly once, then shared by reference
//! like everything else; a position the run does not hold falls back to
//! the base tables' entry of that name.

use crate::data::Table;
use crate::error::EngineError;
use std::collections::HashMap;
use std::sync::Arc;

/// A name → [`Arc<Table>`] map: the execution-time view of a data store.
///
/// See the module docs for the sharing model. The API mirrors the
/// `HashMap<String, Table>` it replaced, with `insert` taking ownership of
/// a table (wrapping it once) and `insert_shared` adding another reference
/// to an existing one.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: HashMap<String, Arc<Table>>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Wraps a table once and registers it under `name`, returning the
    /// previous entry, if any.
    pub fn insert(&mut self, name: impl Into<String>, table: Table) -> Option<Arc<Table>> {
        self.tables.insert(name.into(), Arc::new(table))
    }

    /// Registers another reference to an already-shared table — the
    /// zero-copy seeding path.
    pub fn insert_shared(
        &mut self,
        name: impl Into<String>,
        table: Arc<Table>,
    ) -> Option<Arc<Table>> {
        self.tables.insert(name.into(), table)
    }

    /// The table registered under `name`, borrowed through its `Arc`.
    pub fn get(&self, name: &str) -> Option<&Table> {
        self.tables.get(name).map(Arc::as_ref)
    }

    /// The table registered under `name`, or a typed
    /// [`EngineError::UnknownTable`] when absent — the fallible lookup
    /// callers use when a missing table is the *input's* fault rather than
    /// a programming error. (The panicking `Index<&str>` impl this
    /// replaces turned every typo into a process abort.)
    pub fn try_get(&self, name: &str) -> Result<&Table, EngineError> {
        self.get(name)
            .ok_or_else(|| EngineError::UnknownTable(name.to_string()))
    }

    /// The shared handle registered under `name` (for `Arc::clone` seeding
    /// and pointer-identity assertions in tests).
    pub fn get_shared(&self, name: &str) -> Option<&Arc<Table>> {
        self.tables.get(name)
    }

    /// Removes and returns the entry under `name`.
    pub fn remove(&mut self, name: &str) -> Option<Arc<Table>> {
        self.tables.remove(name)
    }

    /// Drops every entry (shared tables live on in other holders).
    pub fn clear(&mut self) {
        self.tables.clear();
    }

    /// Whether `name` is registered.
    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True when no table is registered.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Iterates over `(name, shared table)` entries in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Arc<Table>)> {
        self.tables.iter().map(|(name, table)| (name.as_str(), table))
    }

    /// Registered names in arbitrary order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.tables.keys().map(String::as_str)
    }

    /// Total estimated bytes across all registered tables.
    pub fn estimated_bytes(&self) -> u64 {
        self.tables.values().map(|t| t.estimated_bytes()).sum()
    }
}

impl From<HashMap<String, Table>> for Catalog {
    fn from(tables: HashMap<String, Table>) -> Self {
        tables.into_iter().collect()
    }
}

impl FromIterator<(String, Table)> for Catalog {
    fn from_iter<I: IntoIterator<Item = (String, Table)>>(iter: I) -> Self {
        Catalog {
            tables: iter
                .into_iter()
                .map(|(name, table)| (name, Arc::new(table)))
                .collect(),
        }
    }
}

impl FromIterator<(String, Arc<Table>)> for Catalog {
    fn from_iter<I: IntoIterator<Item = (String, Arc<Table>)>>(iter: I) -> Self {
        Catalog {
            tables: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Column, ColumnData};

    fn table(name: &str, rows: i64) -> Table {
        Table::new(
            name,
            vec![Column::new("k", ColumnData::Int64((0..rows).collect()))],
        )
        .unwrap()
    }

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut cat = Catalog::new();
        assert!(cat.is_empty());
        cat.insert("t", table("t", 4));
        assert_eq!(cat.len(), 1);
        assert!(cat.contains("t"));
        assert_eq!(cat.get("t").unwrap().n_rows(), 4);
        assert_eq!(cat.try_get("t").unwrap().n_rows(), 4);
        assert_eq!(cat.remove("t").unwrap().n_rows(), 4);
        assert!(cat.get("t").is_none());
        assert_eq!(
            cat.try_get("t"),
            Err(EngineError::UnknownTable("t".to_string()))
        );
    }

    #[test]
    fn clone_shares_tables_instead_of_copying() {
        let mut cat = Catalog::new();
        cat.insert("t", table("t", 8));
        let copy = cat.clone();
        assert!(Arc::ptr_eq(
            cat.get_shared("t").unwrap(),
            copy.get_shared("t").unwrap()
        ));
    }

    #[test]
    fn insert_shared_adds_a_reference() {
        let shared = Arc::new(table("t", 2));
        let mut cat = Catalog::new();
        cat.insert_shared("t", Arc::clone(&shared));
        assert_eq!(Arc::strong_count(&shared), 2);
        assert!(Arc::ptr_eq(cat.get_shared("t").unwrap(), &shared));
        drop(cat);
        assert_eq!(Arc::strong_count(&shared), 1);
    }

    #[test]
    fn built_from_owned_maps_and_iterators() {
        let mut m = HashMap::new();
        m.insert("a".to_string(), table("a", 1));
        m.insert("b".to_string(), table("b", 2));
        let cat = Catalog::from(m);
        assert_eq!(cat.len(), 2);
        let mut names: Vec<&str> = cat.names().collect();
        names.sort_unstable();
        assert_eq!(names, vec!["a", "b"]);
        assert!(cat.estimated_bytes() > 0);
    }
}
