//! Local tables and the buyer-side database.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use payless_json::{FromJson, Json, ToJson};
use payless_types::{PaylessError, Result, Row, Schema};

/// A local table: schema plus rows, with set-semantics ingestion.
///
/// The execution engine pours market results into local tables as they are
/// retrieved. Remainder queries may legitimately overlap previously stored
/// data (the paper's `Q₄ᴿᵉᵐ` example deliberately re-downloads part of `V₁`
/// when that is cheaper), so ingestion deduplicates rows.
#[derive(Debug, Clone)]
pub struct LocalTable {
    /// Table schema (binding kinds are irrelevant locally).
    pub schema: Schema,
    rows: Vec<Row>,
    seen: HashSet<Row>,
}

impl LocalTable {
    /// An empty table.
    pub fn new(schema: Schema) -> Self {
        LocalTable {
            schema,
            rows: Vec::new(),
            seen: HashSet::new(),
        }
    }

    /// A table pre-populated with `rows` (deduplicated).
    pub fn with_rows(schema: Schema, rows: Vec<Row>) -> Self {
        let mut t = Self::new(schema);
        t.insert_all(rows);
        t
    }

    /// Insert one row if not already present. Returns `true` if inserted.
    pub fn insert(&mut self, row: Row) -> bool {
        debug_assert_eq!(row.arity(), self.schema.arity());
        if self.seen.insert(row.clone()) {
            self.rows.push(row);
            true
        } else {
            false
        }
    }

    /// Insert many rows; returns how many were new.
    pub fn insert_all(&mut self, rows: impl IntoIterator<Item = Row>) -> usize {
        rows.into_iter()
            .map(|r| self.insert(r))
            .filter(|&new| new)
            .count()
    }

    /// All rows, in insertion order.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

// Snapshots keep schema + rows; the dedup set is rebuilt on load.
impl ToJson for LocalTable {
    fn to_json(&self) -> Json {
        Json::obj([
            ("schema", self.schema.to_json()),
            ("rows", self.rows.to_json()),
        ])
    }
}

impl FromJson for LocalTable {
    fn from_json(j: &Json) -> payless_json::Result<Self> {
        Ok(LocalTable::with_rows(
            FromJson::from_json(j.get("schema")?)?,
            FromJson::from_json(j.get("rows")?)?,
        ))
    }
}

/// The buyer's local database: named tables.
#[derive(Debug, Default, Clone)]
pub struct Database {
    tables: HashMap<Arc<str>, LocalTable>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or replace) a table.
    pub fn register(&mut self, table: LocalTable) {
        self.tables.insert(table.schema.table.clone(), table);
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Result<&LocalTable> {
        self.tables
            .get(name)
            .ok_or_else(|| PaylessError::UnknownTable(name.into()))
    }

    /// Mutable lookup, creating an empty table from `schema` if absent.
    pub fn table_or_create(&mut self, schema: &Schema) -> &mut LocalTable {
        self.tables
            .entry(schema.table.clone())
            .or_insert_with(|| LocalTable::new(schema.clone()))
    }

    /// Whether the table exists.
    pub fn contains(&self, name: &str) -> bool {
        self.tables.contains_key(name)
    }

    /// Names of all registered tables (sorted).
    pub fn table_names(&self) -> Vec<Arc<str>> {
        let mut names: Vec<Arc<str>> = self.tables.keys().cloned().collect();
        names.sort();
        names
    }
}

impl ToJson for Database {
    fn to_json(&self) -> Json {
        Json::obj([("tables", self.tables.to_json())])
    }
}

impl FromJson for Database {
    fn from_json(j: &Json) -> payless_json::Result<Self> {
        Ok(Database {
            tables: FromJson::from_json(j.get("tables")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use payless_types::{row, Column, Domain};

    fn schema() -> Schema {
        Schema::new(
            "T",
            vec![
                Column::free("a", Domain::int(0, 100)),
                Column::free("b", Domain::categorical(["x", "y"])),
            ],
        )
    }

    #[test]
    fn insert_deduplicates() {
        let mut t = LocalTable::new(schema());
        assert!(t.insert(row!(1, "x")));
        assert!(!t.insert(row!(1, "x")));
        assert!(t.insert(row!(1, "y")));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn insert_all_counts_new_rows() {
        let mut t = LocalTable::new(schema());
        let n = t.insert_all(vec![row!(1, "x"), row!(2, "x"), row!(1, "x")]);
        assert_eq!(n, 2);
        assert_eq!(t.rows().len(), 2);
    }

    #[test]
    fn with_rows_dedups() {
        let t = LocalTable::with_rows(schema(), vec![row!(1, "x"), row!(1, "x")]);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn database_register_and_lookup() {
        let mut db = Database::new();
        assert!(!db.contains("T"));
        db.register(LocalTable::with_rows(schema(), vec![row!(1, "x")]));
        assert!(db.contains("T"));
        assert_eq!(db.table("T").unwrap().len(), 1);
        assert!(matches!(db.table("U"), Err(PaylessError::UnknownTable(_))));
        assert_eq!(db.table_names(), vec![Arc::<str>::from("T")]);
    }

    #[test]
    fn table_or_create_creates_once() {
        let mut db = Database::new();
        db.table_or_create(&schema()).insert(row!(1, "x"));
        db.table_or_create(&schema()).insert(row!(2, "x"));
        assert_eq!(db.table("T").unwrap().len(), 2);
    }
}
