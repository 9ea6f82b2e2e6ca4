//! Dictionaries for the low-cardinality string columns.
//!
//! Ship modes (7 values), order priorities (5), part brands (25) and part
//! containers (40) are tiny, closed domains; storing them as UTF-8 strings
//! makes every predicate and group-by on them compare byte strings. Under
//! [`crate::gen::StringEncoding::Dictionary`] the generator emits these
//! columns as integer *codes* instead (stored in the engine's native
//! `Int64` columns), so predicates and group-by compare machine words, and
//! this module holds the code ↔ string mappings.
//!
//! Code assignment is positional in the spec's value order — the same order
//! the generator draws from — so encoding never perturbs the generated RNG
//! stream: a plain and a dictionary-encoded database from one seed hold the
//! same logical rows, which is what the `dictionary_differential` test
//! pins.

use crate::gen::{CONTAINER_KINDS, CONTAINER_SIZES, PRIORITIES, SHIP_MODES};
use midas_engines::Utf8Column;
use std::collections::HashMap;

/// An ordered, closed value domain with positional codes.
#[derive(Debug, Clone)]
pub struct Dictionary {
    values: Utf8Column,
    index: HashMap<String, u32>,
}

impl Dictionary {
    /// Builds a dictionary; a value's code is its position.
    pub fn new(values: impl IntoIterator<Item = String>) -> Self {
        let values: Utf8Column = values.into_iter().collect();
        let index = values
            .iter()
            .enumerate()
            .map(|(i, v)| (v.to_string(), i as u32))
            .collect();
        Dictionary { values, index }
    }

    /// The code of a value, if it belongs to the domain.
    pub fn code(&self, value: &str) -> Option<u32> {
        self.index.get(value).copied()
    }

    /// The value of a code, if in range.
    pub fn decode(&self, code: u32) -> Option<&str> {
        let code = code as usize;
        (code < self.values.len()).then(|| &self.values[code])
    }

    /// Domain cardinality.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True for an empty domain.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The values in code order.
    pub fn values(&self) -> &Utf8Column {
        &self.values
    }
}

/// The four dictionary-encoded TPC-H column domains.
#[derive(Debug, Clone)]
pub struct TpchDictionaries {
    /// `l_shipmode` (7 values).
    pub ship_mode: Dictionary,
    /// `o_orderpriority` (5 values).
    pub priority: Dictionary,
    /// `p_brand` (25 values, `Brand#MN` with `M, N ∈ 1..=5`).
    pub brand: Dictionary,
    /// `p_container` (40 values, size × kind).
    pub container: Dictionary,
}

impl TpchDictionaries {
    /// The process-wide cached instance of [`TpchDictionaries::spec`] —
    /// query builders consult it on every construction, so the 77 domain
    /// strings and their hash indices are built exactly once.
    pub fn cached() -> &'static Self {
        static SPEC: std::sync::OnceLock<TpchDictionaries> = std::sync::OnceLock::new();
        SPEC.get_or_init(Self::spec)
    }

    /// The spec-ordered dictionaries matching the generator's code layout.
    pub fn spec() -> Self {
        let brand = (1..=5)
            .flat_map(|m| (1..=5).map(move |n| format!("Brand#{m}{n}")))
            .collect::<Vec<_>>();
        let container = CONTAINER_SIZES
            .iter()
            .flat_map(|s| CONTAINER_KINDS.iter().map(move |k| format!("{s} {k}")))
            .collect::<Vec<_>>();
        TpchDictionaries {
            ship_mode: Dictionary::new(SHIP_MODES.iter().map(|s| s.to_string())),
            priority: Dictionary::new(PRIORITIES.iter().map(|s| s.to_string())),
            brand: Dictionary::new(brand),
            container: Dictionary::new(container),
        }
    }

    /// The dictionary backing a `(table, column)` pair, if that column is
    /// dictionary-encoded.
    pub fn for_column(&self, table: &str, column: &str) -> Option<&Dictionary> {
        match (table, column) {
            ("lineitem", "l_shipmode") => Some(&self.ship_mode),
            ("orders", "o_orderpriority") => Some(&self.priority),
            ("part", "p_brand") => Some(&self.brand),
            ("part", "p_container") => Some(&self.container),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_positional_and_roundtrip() {
        let d = TpchDictionaries::spec();
        assert_eq!(d.ship_mode.len(), 7);
        assert_eq!(d.priority.len(), 5);
        assert_eq!(d.brand.len(), 25);
        assert_eq!(d.container.len(), 40);
        for dict in [&d.ship_mode, &d.priority, &d.brand, &d.container] {
            assert!(!dict.is_empty());
            for (i, v) in dict.values().iter().enumerate() {
                assert_eq!(dict.code(v), Some(i as u32));
                assert_eq!(dict.decode(i as u32), Some(v));
            }
            assert_eq!(dict.code("no such value"), None);
            assert_eq!(dict.decode(dict.len() as u32), None);
        }
    }

    #[test]
    fn brand_and_container_codes_match_the_generator_formula() {
        let d = TpchDictionaries::spec();
        // Generator draws m, n in 1..=5 and codes (m-1)*5 + (n-1).
        assert_eq!(d.brand.code("Brand#11"), Some(0));
        assert_eq!(d.brand.code("Brand#23"), Some(7));
        assert_eq!(d.brand.code("Brand#55"), Some(24));
        // Generator draws size s in 0..5, kind k in 0..8 and codes s*8 + k.
        assert_eq!(d.container.code("SM CASE"), Some(0));
        assert_eq!(d.container.code("MED BOX"), Some(9));
        assert_eq!(d.container.code("WRAP DRUM"), Some(39));
    }

    #[test]
    fn column_lookup_covers_exactly_the_encoded_columns() {
        let d = TpchDictionaries::spec();
        assert!(d.for_column("lineitem", "l_shipmode").is_some());
        assert!(d.for_column("orders", "o_orderpriority").is_some());
        assert!(d.for_column("part", "p_brand").is_some());
        assert!(d.for_column("part", "p_container").is_some());
        assert!(d.for_column("part", "p_type").is_none());
        assert!(d.for_column("orders", "o_comment").is_none());
    }
}
