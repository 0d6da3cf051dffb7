//! Semantic analysis: resolve names and classify predicates.
//!
//! The analyzer turns a bound (parameter-free) [`SelectStmt`] into an
//! [`AnalyzedQuery`]:
//!
//! * per-table **access constraints** — the conjunction of market-expressible
//!   predicates (equality / inclusive integer range / same-column `OR` of
//!   equalities) after merging bounds (`Date >= x AND Date <= y` becomes one
//!   range) and clipping to the attribute's domain;
//! * **join edges** — cross-table column equalities;
//! * **residual predicates** — everything the market interface cannot apply
//!   (`<>`, predicates on output-only attributes, same-table comparisons),
//!   evaluated locally after retrieval;
//! * the resolved output / grouping spec.
//!
//! One dialect rule worth calling out: an *unqualified* column name used in a
//! value predicate applies to **every** `FROM` table carrying that column.
//! This mirrors the paper's query Q1, where `Country = 'United States'`
//! constrains both `Station` and `Weather` (Figure 1 applies it to both
//! RESTful calls). Columns in select lists, joins, and `GROUP BY` must
//! resolve uniquely.

use std::sync::Arc;

use payless_types::{AggFunc, CmpOp, Constraint, Domain, PaylessError, Result, Schema, Value};

use crate::ast::{ColRef, EqOperand, PredAst, Scalar, SelectStmt};
use crate::catalog::{Catalog, TableLocation};

/// A market-expressible constraint on one attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AccessConstraint {
    /// A single equality or inclusive range.
    One(Constraint),
    /// A same-column disjunction of equality values (decomposed into one
    /// RESTful call per value, per Section 1 of the paper).
    AnyOf(Vec<Value>),
}

/// Market-expressible constraints for one table, keyed by column index.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TableAccess {
    /// `(column index, constraint)`, sorted by column index.
    pub constraints: Vec<(usize, AccessConstraint)>,
}

impl TableAccess {
    /// The constraint on `col`, if any.
    pub fn on(&self, col: usize) -> Option<&AccessConstraint> {
        self.constraints
            .iter()
            .find(|(c, _)| *c == col)
            .map(|(_, a)| a)
    }
}

/// One table of the analyzed query.
#[derive(Debug, Clone)]
pub struct TableInfo {
    /// Table name.
    pub name: Arc<str>,
    /// Schema from the catalog.
    pub schema: Schema,
    /// Local or market.
    pub location: TableLocation,
    /// Market-expressible constraints.
    pub access: TableAccess,
}

/// An equi-join edge between two tables, by `(table index, column index)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinEdge {
    /// Left endpoint.
    pub left: (usize, usize),
    /// Right endpoint.
    pub right: (usize, usize),
}

/// A predicate evaluated locally after retrieval.
#[derive(Debug, Clone, PartialEq)]
pub enum ResidualPred {
    /// `table.col op value`.
    CmpValue {
        /// Table index.
        table: usize,
        /// Column index.
        col: usize,
        /// Operator.
        op: CmpOp,
        /// Literal.
        value: Value,
    },
    /// `table.left op table.right` (both columns on the same table).
    CmpCols {
        /// Table index.
        table: usize,
        /// Left column index.
        left: usize,
        /// Operator.
        op: CmpOp,
        /// Right column index.
        right: usize,
    },
}

/// One resolved output item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputItem {
    /// A plain column.
    Column {
        /// Table index.
        table: usize,
        /// Column index.
        col: usize,
    },
    /// An aggregate.
    Agg {
        /// Function.
        func: AggFunc,
        /// Argument; `None` for `COUNT(*)`.
        arg: Option<(usize, usize)>,
    },
}

impl OutputItem {
    /// `true` for aggregate items.
    pub fn is_agg(&self) -> bool {
        matches!(self, OutputItem::Agg { .. })
    }
}

/// The analyzer's result: a fully resolved query graph.
#[derive(Debug, Clone)]
pub struct AnalyzedQuery {
    /// Tables in `FROM` order.
    pub tables: Vec<TableInfo>,
    /// Cross-table equi-join edges.
    pub joins: Vec<JoinEdge>,
    /// Locally evaluated residual predicates.
    pub residuals: Vec<ResidualPred>,
    /// Output items in `SELECT` order (wildcards expanded).
    pub output: Vec<OutputItem>,
    /// Resolved `GROUP BY` columns.
    pub group_by: Vec<(usize, usize)>,
    /// Resolved `ORDER BY` columns.
    pub order_by: Vec<(usize, usize)>,
    /// `DISTINCT`?
    pub distinct: bool,
    /// `true` when constraint merging proved the result empty (e.g.
    /// `a = 1 AND a = 2`, or a range outside the domain). The executor can
    /// return an empty result without touching the market.
    pub unsatisfiable: bool,
}

impl AnalyzedQuery {
    /// Index of the named table within this query, if present.
    pub fn table_index(&self, name: &str) -> Option<usize> {
        self.tables.iter().position(|t| &*t.name == name)
    }

    /// `true` if the query has at least one aggregate output.
    pub fn has_aggregates(&self) -> bool {
        self.output.iter().any(OutputItem::is_agg)
    }
}

/// Per-column constraint accumulator (bounds are merged before the final
/// [`AccessConstraint`] is formed).
#[derive(Debug, Default, Clone)]
struct Acc {
    lo: Option<i64>,
    hi: Option<i64>,
    eq: Option<Value>,
    any_of: Option<Vec<Value>>,
    conflict: bool,
}

impl Acc {
    fn add_eq(&mut self, v: Value) {
        match &self.eq {
            None => self.eq = Some(v),
            Some(prev) if *prev == v => {}
            Some(_) => self.conflict = true,
        }
    }

    fn add_lo(&mut self, v: i64) {
        self.lo = Some(self.lo.map_or(v, |cur| cur.max(v)));
    }

    fn add_hi(&mut self, v: i64) {
        self.hi = Some(self.hi.map_or(v, |cur| cur.min(v)));
    }

    fn add_any_of(&mut self, values: Vec<Value>) {
        self.any_of = Some(match self.any_of.take() {
            None => values,
            Some(prev) => prev.into_iter().filter(|v| values.contains(v)).collect(),
        });
    }

    fn is_empty(&self) -> bool {
        self.lo.is_none() && self.hi.is_none() && self.eq.is_none() && self.any_of.is_none()
    }
}

/// Analyze a bound statement against a catalog.
pub fn analyze(stmt: &SelectStmt, catalog: &dyn Catalog) -> Result<AnalyzedQuery> {
    if stmt.param_count != 0 {
        return Err(PaylessError::Unsupported(
            "statement still has unbound parameters; call bind() first".into(),
        ));
    }

    // Resolve tables.
    let mut tables = Vec::with_capacity(stmt.tables.len());
    for name in &stmt.tables {
        if tables.iter().any(|t: &TableInfo| &*t.name == name.as_str()) {
            return Err(PaylessError::Unsupported(format!(
                "table `{name}` appears twice in FROM (self-joins are not supported)"
            )));
        }
        let schema = catalog
            .schema(name)
            .ok_or_else(|| PaylessError::UnknownTable(name.as_str().into()))?
            .clone();
        let location = catalog.location(name).expect("schema implies location");
        tables.push(TableInfo {
            name: name.as_str().into(),
            schema,
            location,
            access: TableAccess::default(),
        });
    }

    let mut an = Analyzer {
        tables,
        joins: Vec::new(),
        residuals: Vec::new(),
        accs: Default::default(),
        unsatisfiable: false,
    };

    for pred in &stmt.predicates {
        an.predicate(pred)?;
    }
    an.finalize_accumulators()?;

    // Output spec.
    let mut output = Vec::new();
    for item in &stmt.items {
        match item {
            crate::ast::SelectItem::Wildcard => {
                for (tid, t) in an.tables.iter().enumerate() {
                    for cid in 0..t.schema.arity() {
                        output.push(OutputItem::Column {
                            table: tid,
                            col: cid,
                        });
                    }
                }
            }
            crate::ast::SelectItem::Column(c) => {
                let (table, col) = an.resolve_unique(c)?;
                output.push(OutputItem::Column { table, col });
            }
            crate::ast::SelectItem::Agg { func, arg } => {
                let func = AggFunc::from_name(func).ok_or_else(|| {
                    PaylessError::Unsupported(format!("unknown aggregate `{func}`"))
                })?;
                let arg = match arg {
                    None => None,
                    Some(c) => Some(an.resolve_unique(c)?),
                };
                output.push(OutputItem::Agg { func, arg });
            }
        }
    }

    let group_by = stmt
        .group_by
        .iter()
        .map(|c| an.resolve_unique(c))
        .collect::<Result<Vec<_>>>()?;
    let order_by = stmt
        .order_by
        .iter()
        .map(|c| an.resolve_unique(c))
        .collect::<Result<Vec<_>>>()?;

    // With aggregates present, every plain output column must be grouped.
    let has_aggs = output.iter().any(OutputItem::is_agg);
    if has_aggs {
        for item in &output {
            if let OutputItem::Column { table, col } = item {
                if !group_by.contains(&(*table, *col)) {
                    return Err(PaylessError::Unsupported(format!(
                        "column `{}.{}` selected alongside aggregates but not grouped",
                        an.tables[*table].name, an.tables[*table].schema.columns[*col].name
                    )));
                }
            }
        }
    }

    Ok(AnalyzedQuery {
        tables: an.tables,
        joins: an.joins,
        residuals: an.residuals,
        output,
        group_by,
        order_by,
        distinct: stmt.distinct,
        unsatisfiable: an.unsatisfiable,
    })
}

struct Analyzer {
    tables: Vec<TableInfo>,
    joins: Vec<JoinEdge>,
    residuals: Vec<ResidualPred>,
    /// `(table, col)` → accumulator.
    accs: std::collections::BTreeMap<(usize, usize), Acc>,
    unsatisfiable: bool,
}

impl Analyzer {
    /// All `(table, col)` pairs a reference may denote. Qualified references
    /// resolve to exactly one; bare references to every table carrying the
    /// column.
    fn resolve_all(&self, c: &ColRef) -> Result<Vec<(usize, usize)>> {
        match &c.table {
            Some(tname) => {
                let tid = self
                    .tables
                    .iter()
                    .position(|t| &*t.name == tname.as_str())
                    .ok_or_else(|| PaylessError::UnknownTable(tname.as_str().into()))?;
                let cid = self.tables[tid].schema.index_of(&c.column).ok_or_else(|| {
                    PaylessError::UnknownColumn {
                        table: tname.as_str().into(),
                        column: c.column.as_str().into(),
                    }
                })?;
                Ok(vec![(tid, cid)])
            }
            None => {
                let hits: Vec<(usize, usize)> = self
                    .tables
                    .iter()
                    .enumerate()
                    .filter_map(|(tid, t)| t.schema.index_of(&c.column).map(|cid| (tid, cid)))
                    .collect();
                if hits.is_empty() {
                    return Err(PaylessError::UnknownColumn {
                        table: "<any>".into(),
                        column: c.column.as_str().into(),
                    });
                }
                Ok(hits)
            }
        }
    }

    /// Resolve a reference that must denote exactly one column.
    fn resolve_unique(&self, c: &ColRef) -> Result<(usize, usize)> {
        let hits = self.resolve_all(c)?;
        if hits.len() > 1 {
            return Err(PaylessError::Unsupported(format!(
                "ambiguous column `{}` (qualify it with a table name)",
                c.column
            )));
        }
        Ok(hits[0])
    }

    fn domain(&self, t: usize, c: usize) -> &Domain {
        &self.tables[t].schema.columns[c].domain
    }

    fn constrainable(&self, t: usize, c: usize) -> bool {
        self.tables[t].schema.columns[c].binding.constrainable()
    }

    fn type_error(&self, t: usize, c: usize) -> PaylessError {
        PaylessError::TypeMismatch {
            table: self.tables[t].name.clone(),
            column: self.tables[t].schema.columns[c].name.clone(),
        }
    }

    fn predicate(&mut self, pred: &PredAst) -> Result<()> {
        match pred {
            PredAst::Cmp { col, op, value } => {
                let v = lit(value)?;
                for (t, c) in self.resolve_all(col)? {
                    self.value_cmp(t, c, *op, v.clone())?;
                }
                Ok(())
            }
            PredAst::Between { col, lo, hi } => {
                let lo = lit(lo)?;
                let hi = lit(hi)?;
                let (Some(lo), Some(hi)) = (lo.as_int(), hi.as_int()) else {
                    return Err(PaylessError::Unsupported(
                        "BETWEEN requires integer bounds".into(),
                    ));
                };
                for (t, c) in self.resolve_all(col)? {
                    self.value_cmp(t, c, CmpOp::Ge, Value::int(lo))?;
                    self.value_cmp(t, c, CmpOp::Le, Value::int(hi))?;
                }
                Ok(())
            }
            PredAst::JoinEq { left, right } => {
                let l = self.resolve_unique(left)?;
                let r = self.resolve_unique(right)?;
                self.column_eq(l, r)
            }
            PredAst::ColCmp { left, op, right } => {
                let (lt, lc) = self.resolve_unique(left)?;
                let (rt, rc) = self.resolve_unique(right)?;
                if lt != rt {
                    return Err(PaylessError::Unsupported(format!(
                        "non-equality comparison across tables \
                         (`{left} {op} {right}`) is not supported"
                    )));
                }
                self.residuals.push(ResidualPred::CmpCols {
                    table: lt,
                    left: lc,
                    op: *op,
                    right: rc,
                });
                Ok(())
            }
            PredAst::EqChain(ops) => self.eq_chain(ops),
            PredAst::OrEq { col, values } => {
                let values: Vec<Value> = values.iter().map(lit).collect::<Result<Vec<_>>>()?;
                for (t, c) in self.resolve_all(col)? {
                    for v in &values {
                        if !v_compatible(v, self.domain(t, c)) {
                            return Err(self.type_error(t, c));
                        }
                    }
                    if self.constrainable(t, c) {
                        self.accs
                            .entry((t, c))
                            .or_default()
                            .add_any_of(values.clone());
                    } else {
                        return Err(PaylessError::Unsupported(format!(
                            "OR over output-only attribute `{}.{}`",
                            self.tables[t].name, self.tables[t].schema.columns[c].name
                        )));
                    }
                }
                Ok(())
            }
        }
    }

    /// Accumulate `t.c op v`, routing to access constraints or residuals.
    fn value_cmp(&mut self, t: usize, c: usize, op: CmpOp, v: Value) -> Result<()> {
        let domain = self.domain(t, c).clone();
        // Type check: Eq must match kind; ordered ops need integer columns to
        // be access constraints (ordered string comparisons become
        // residuals).
        match op {
            CmpOp::Eq => {
                if !v_compatible(&v, &domain) {
                    return Err(self.type_error(t, c));
                }
                if self.constrainable(t, c) {
                    self.accs.entry((t, c)).or_default().add_eq(v);
                } else {
                    self.residuals.push(ResidualPred::CmpValue {
                        table: t,
                        col: c,
                        op,
                        value: v,
                    });
                }
            }
            CmpOp::Ne => {
                self.residuals.push(ResidualPred::CmpValue {
                    table: t,
                    col: c,
                    op,
                    value: v,
                });
            }
            CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
                let (is_int_col, int_v) = (domain.is_int(), v.as_int());
                match (is_int_col, int_v) {
                    (true, Some(x)) if self.constrainable(t, c) => {
                        let acc = self.accs.entry((t, c)).or_default();
                        match op {
                            CmpOp::Lt => acc.add_hi(x - 1),
                            CmpOp::Le => acc.add_hi(x),
                            CmpOp::Gt => acc.add_lo(x + 1),
                            CmpOp::Ge => acc.add_lo(x),
                            _ => unreachable!(),
                        }
                    }
                    (true, Some(_)) => {
                        self.residuals.push(ResidualPred::CmpValue {
                            table: t,
                            col: c,
                            op,
                            value: v,
                        });
                    }
                    (true, None) => return Err(self.type_error(t, c)),
                    // Ordered comparison over a categorical column: local
                    // residual using the Value total order.
                    (false, _) => {
                        self.residuals.push(ResidualPred::CmpValue {
                            table: t,
                            col: c,
                            op,
                            value: v,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// `l = r` between two resolved columns.
    fn column_eq(&mut self, l: (usize, usize), r: (usize, usize)) -> Result<()> {
        if l.0 == r.0 {
            if l.1 == r.1 {
                return Ok(()); // trivially true
            }
            self.residuals.push(ResidualPred::CmpCols {
                table: l.0,
                left: l.1,
                op: CmpOp::Eq,
                right: r.1,
            });
            return Ok(());
        }
        // Kind compatibility.
        let lk = self.domain(l.0, l.1).is_int();
        let rk = self.domain(r.0, r.1).is_int();
        if lk != rk {
            return Err(self.type_error(r.0, r.1));
        }
        self.joins.push(JoinEdge { left: l, right: r });
        Ok(())
    }

    /// An `a = b = c = …` chain: pairwise equality of all operands.
    fn eq_chain(&mut self, ops: &[EqOperand]) -> Result<()> {
        let mut cols: Vec<(usize, usize)> = Vec::new();
        let mut value: Option<Value> = None;
        for op in ops {
            match op {
                EqOperand::Col(c) => cols.push(self.resolve_unique(c)?),
                EqOperand::Value(s) => {
                    let v = lit(s)?;
                    match &value {
                        None => value = Some(v),
                        Some(prev) if *prev == v => {}
                        Some(_) => {
                            self.unsatisfiable = true;
                            return Ok(());
                        }
                    }
                }
            }
        }
        // Join edges between consecutive columns keep the join graph
        // connected without quadratic edge blowup.
        for pair in cols.windows(2) {
            self.column_eq(pair[0], pair[1])?;
        }
        if let Some(v) = value {
            for (t, c) in cols {
                self.value_cmp(t, c, CmpOp::Eq, v.clone())?;
            }
        }
        Ok(())
    }

    /// Convert accumulators to final access constraints.
    fn finalize_accumulators(&mut self) -> Result<()> {
        let accs = std::mem::take(&mut self.accs);
        for ((t, c), acc) in accs {
            if acc.is_empty() {
                continue;
            }
            if acc.conflict {
                self.unsatisfiable = true;
                continue;
            }
            let domain = self.domain(t, c).clone();
            let constraint = match (&acc.eq, &acc.any_of) {
                (Some(v), any) => {
                    if let Some(any) = any {
                        if !any.contains(v) {
                            self.unsatisfiable = true;
                            continue;
                        }
                    }
                    if !value_in_bounds(v, acc.lo, acc.hi) || !domain.contains(v) {
                        self.unsatisfiable = true;
                        continue;
                    }
                    Some(AccessConstraint::One(eq_constraint(v)))
                }
                (None, Some(any)) => {
                    let mut values: Vec<Value> = any
                        .iter()
                        .filter(|v| value_in_bounds(v, acc.lo, acc.hi) && domain.contains(v))
                        .cloned()
                        .collect();
                    values.sort();
                    values.dedup();
                    match values.len() {
                        0 => {
                            self.unsatisfiable = true;
                            continue;
                        }
                        1 => Some(AccessConstraint::One(eq_constraint(&values[0]))),
                        _ => Some(AccessConstraint::AnyOf(values)),
                    }
                }
                (None, None) => {
                    // Pure range over an integer column.
                    let (dlo, dhi) = domain.int_bounds().expect("ranges only on int columns");
                    let lo = acc.lo.unwrap_or(dlo).max(dlo);
                    let hi = acc.hi.unwrap_or(dhi).min(dhi);
                    if lo > hi {
                        self.unsatisfiable = true;
                        continue;
                    }
                    if lo == dlo && hi == dhi {
                        None // spans the whole domain: no constraint needed
                    } else {
                        Some(AccessConstraint::One(Constraint::range(lo, hi)))
                    }
                }
            };
            if let Some(constraint) = constraint {
                self.tables[t].access.constraints.push((c, constraint));
            }
        }
        for t in &mut self.tables {
            t.access.constraints.sort_by_key(|(c, _)| *c);
        }
        Ok(())
    }
}

fn lit(s: &Scalar) -> Result<Value> {
    match s {
        Scalar::Lit(v) => Ok(v.clone()),
        Scalar::Param(i) => Err(PaylessError::Unsupported(format!(
            "parameter ${i} unbound; call bind() before analyze()"
        ))),
    }
}

fn v_compatible(v: &Value, domain: &Domain) -> bool {
    matches!(
        (v, domain),
        (Value::Int(_), Domain::Int { .. }) | (Value::Str(_), Domain::Categorical(_))
    )
}

fn value_in_bounds(v: &Value, lo: Option<i64>, hi: Option<i64>) -> bool {
    match v.as_int() {
        Some(x) => lo.is_none_or(|l| l <= x) && hi.is_none_or(|h| x <= h),
        None => lo.is_none() && hi.is_none(),
    }
}

fn eq_constraint(v: &Value) -> Constraint {
    match v {
        // Point ranges keep all integer constraints in one representation.
        Value::Int(x) => Constraint::range(*x, *x),
        _ => Constraint::Eq(v.clone()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::MapCatalog;
    use crate::parser::parse;
    use payless_types::Column;

    /// The WHW + EHR catalog of Figure 1a (abridged domains).
    fn whw_catalog() -> MapCatalog {
        let countries = Domain::categorical(["United States", "Canada", "Germany"]);
        let cities = Domain::categorical(["Seattle", "Boston", "Berlin"]);
        MapCatalog::new()
            .with(
                Schema::new(
                    "Station",
                    vec![
                        Column::free("Country", countries.clone()),
                        Column::free("StationID", Domain::int(1, 4000)),
                        Column::free("City", cities.clone()),
                        Column::output("State", Domain::categorical(["WA", "MA", "BE"])),
                    ],
                ),
                TableLocation::Market,
            )
            .with(
                Schema::new(
                    "Weather",
                    vec![
                        Column::free("Country", countries),
                        Column::free("StationID", Domain::int(1, 4000)),
                        Column::free("Date", Domain::int(20140101, 20141231)),
                        Column::output("Temperature", Domain::int(-60, 60)),
                    ],
                ),
                TableLocation::Market,
            )
            .with(
                Schema::new(
                    "ZipMap",
                    vec![
                        Column::free("ZipCode", Domain::int(10000, 99999)),
                        Column::free("City", cities),
                    ],
                ),
                TableLocation::Local,
            )
    }

    fn analyze_sql(sql: &str) -> AnalyzedQuery {
        analyze(&parse(sql).unwrap(), &whw_catalog()).unwrap()
    }

    #[test]
    fn q1_classification() {
        let q = analyze_sql(
            "SELECT Temperature FROM Station, Weather \
             WHERE City = 'Seattle' AND Country = 'United States' AND \
             Date >= 20140601 AND Date <= 20140630 AND \
             Station.StationID = Weather.StationID",
        );
        assert!(!q.unsatisfiable);
        assert_eq!(q.tables.len(), 2);
        // Bare `Country` constrains BOTH tables (the Figure 1 behaviour).
        let station = &q.tables[0];
        let weather = &q.tables[1];
        assert_eq!(
            station.access.on(0),
            Some(&AccessConstraint::One(Constraint::eq("United States")))
        );
        assert_eq!(
            weather.access.on(0),
            Some(&AccessConstraint::One(Constraint::eq("United States")))
        );
        // City on Station only.
        assert_eq!(
            station.access.on(2),
            Some(&AccessConstraint::One(Constraint::eq("Seattle")))
        );
        // Date range merged into one constraint on Weather.
        assert_eq!(
            weather.access.on(2),
            Some(&AccessConstraint::One(Constraint::range(
                20140601, 20140630
            )))
        );
        // One join edge.
        assert_eq!(
            q.joins,
            vec![JoinEdge {
                left: (0, 1),
                right: (1, 1)
            }]
        );
        assert!(q.residuals.is_empty());
        assert_eq!(q.output, vec![OutputItem::Column { table: 1, col: 3 }]);
    }

    #[test]
    fn eq_chain_produces_join_and_bindings() {
        let q = analyze_sql(
            "SELECT AVG(Temperature) FROM Station, Weather \
             WHERE Station.Country = Weather.Country = 'Canada' AND \
             Station.StationID = Weather.StationID GROUP BY City",
        );
        assert_eq!(q.joins.len(), 2); // Country-Country and StationID-StationID
        assert_eq!(
            q.tables[0].access.on(0),
            Some(&AccessConstraint::One(Constraint::eq("Canada")))
        );
        assert_eq!(
            q.tables[1].access.on(0),
            Some(&AccessConstraint::One(Constraint::eq("Canada")))
        );
        assert!(q.has_aggregates());
        assert_eq!(q.group_by, vec![(0, 2)]);
    }

    #[test]
    fn or_of_equalities_becomes_any_of() {
        let q =
            analyze_sql("SELECT * FROM Station WHERE Country = 'Canada' OR Country = 'Germany'");
        assert_eq!(
            q.tables[0].access.on(0),
            Some(&AccessConstraint::AnyOf(vec![
                Value::str("Canada"),
                Value::str("Germany")
            ]))
        );
    }

    #[test]
    fn contradictory_equalities_are_unsatisfiable() {
        let q = analyze_sql("SELECT * FROM Station WHERE City = 'Seattle' AND City = 'Boston'");
        assert!(q.unsatisfiable);
    }

    #[test]
    fn empty_range_is_unsatisfiable() {
        let q = analyze_sql("SELECT * FROM Weather WHERE Date > 20141231");
        assert!(q.unsatisfiable);
    }

    #[test]
    fn out_of_domain_equality_is_unsatisfiable() {
        let q = analyze_sql("SELECT * FROM Station WHERE City = 'Atlantis'");
        assert!(q.unsatisfiable);
    }

    #[test]
    fn whole_domain_range_drops_constraint() {
        let q = analyze_sql("SELECT * FROM Weather WHERE Date >= 20140101");
        assert!(q.tables[0].access.constraints.is_empty());
        assert!(!q.unsatisfiable);
    }

    #[test]
    fn ne_and_output_column_predicates_become_residuals() {
        let q =
            analyze_sql("SELECT * FROM Weather WHERE Temperature >= 30 AND Country <> 'Canada'");
        assert!(q.tables[0].access.constraints.is_empty());
        assert_eq!(q.residuals.len(), 2);
        assert!(matches!(
            q.residuals[0],
            ResidualPred::CmpValue {
                col: 3,
                op: CmpOp::Ge,
                ..
            }
        ));
        assert!(matches!(
            q.residuals[1],
            ResidualPred::CmpValue {
                col: 0,
                op: CmpOp::Ne,
                ..
            }
        ));
    }

    #[test]
    fn same_table_column_comparison_is_residual() {
        let q = analyze_sql("SELECT * FROM Weather WHERE StationID < Date");
        assert_eq!(
            q.residuals,
            vec![ResidualPred::CmpCols {
                table: 0,
                left: 1,
                op: CmpOp::Lt,
                right: 2
            }]
        );
    }

    #[test]
    fn between_merges_to_range() {
        let q = analyze_sql("SELECT * FROM Weather WHERE Date BETWEEN 20140601 AND 20140630");
        assert_eq!(
            q.tables[0].access.on(2),
            Some(&AccessConstraint::One(Constraint::range(
                20140601, 20140630
            )))
        );
    }

    #[test]
    fn wildcard_expands_all_columns() {
        let q = analyze_sql("SELECT * FROM Station, ZipMap WHERE Station.City = ZipMap.City");
        assert_eq!(q.output.len(), 4 + 2);
        assert_eq!(q.tables[1].location, TableLocation::Local);
    }

    #[test]
    fn ambiguous_select_column_rejected() {
        let stmt = parse("SELECT Country FROM Station, Weather").unwrap();
        assert!(matches!(
            analyze(&stmt, &whw_catalog()),
            Err(PaylessError::Unsupported(_))
        ));
    }

    #[test]
    fn unknown_table_and_column() {
        assert!(matches!(
            analyze(&parse("SELECT * FROM Nope").unwrap(), &whw_catalog()),
            Err(PaylessError::UnknownTable(_))
        ));
        assert!(matches!(
            analyze(
                &parse("SELECT * FROM Station WHERE Altitude = 1").unwrap(),
                &whw_catalog()
            ),
            Err(PaylessError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn type_mismatches_rejected() {
        assert!(matches!(
            analyze(
                &parse("SELECT * FROM Station WHERE City = 3").unwrap(),
                &whw_catalog()
            ),
            Err(PaylessError::TypeMismatch { .. })
        ));
        assert!(matches!(
            analyze(
                &parse("SELECT * FROM Weather WHERE Date = 'June'").unwrap(),
                &whw_catalog()
            ),
            Err(PaylessError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn cross_table_inequality_rejected() {
        assert!(matches!(
            analyze(
                &parse("SELECT * FROM Station, Weather WHERE Station.StationID < Weather.Date")
                    .unwrap(),
                &whw_catalog()
            ),
            Err(PaylessError::Unsupported(_))
        ));
    }

    #[test]
    fn ungrouped_column_with_aggregate_rejected() {
        assert!(matches!(
            analyze(
                &parse("SELECT City, AVG(StationID) FROM Station").unwrap(),
                &whw_catalog()
            ),
            Err(PaylessError::Unsupported(_))
        ));
    }

    #[test]
    fn unbound_parameters_rejected() {
        let stmt = parse("SELECT * FROM Station WHERE City = ?").unwrap();
        assert!(analyze(&stmt, &whw_catalog()).is_err());
        let bound = stmt.bind(&[Value::str("Seattle")]).unwrap();
        assert!(analyze(&bound, &whw_catalog()).is_ok());
    }

    #[test]
    fn duplicate_from_table_rejected() {
        assert!(matches!(
            analyze(
                &parse("SELECT * FROM Station, Station").unwrap(),
                &whw_catalog()
            ),
            Err(PaylessError::Unsupported(_))
        ));
    }

    #[test]
    fn or_values_filtered_by_range_bounds() {
        let q = analyze_sql(
            "SELECT * FROM Weather WHERE (Date = 20140601 OR Date = 20140701) \
             AND Date <= 20140615",
        );
        assert_eq!(
            q.tables[0].access.on(2),
            Some(&AccessConstraint::One(Constraint::range(
                20140601, 20140601
            )))
        );
    }

    #[test]
    fn table_index_follows_from_order() {
        let q = analyze_sql(
            "SELECT * FROM Station, Weather, ZipMap \
             WHERE Station.StationID = Weather.StationID AND \
             ZipMap.City = Station.City",
        );
        assert_eq!(q.table_index("Weather"), Some(1));
        assert_eq!(q.table_index("Nope"), None);
    }
}
