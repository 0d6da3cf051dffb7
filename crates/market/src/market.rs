//! The market façade: request validation, execution, and metering.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use payless_types::{transactions, PaylessError, Result, Schema};

use crate::billing::{BillingMeter, BillingReport};
use crate::dataset::{Dataset, MarketTable};
use crate::fault::{corrupt_body, FaultInjector, FaultKind};
use crate::request::{Request, Response};
use crate::wire::{decode_rows, encode_rows};

/// A data market hosting one or more datasets.
///
/// All state is behind `&self`; the market can be shared via `Arc` between
/// the optimizer (which reads schemas and cardinalities) and the execution
/// engine (which issues calls).
#[derive(Debug)]
pub struct DataMarket {
    datasets: Vec<Dataset>,
    /// table name → dataset index.
    directory: HashMap<Arc<str>, usize>,
    meter: BillingMeter,
    /// Optional fault injector; when attached, every validated call
    /// consults its [`crate::FaultPlan`] before (and while) serving.
    injector: Mutex<Option<Arc<FaultInjector>>>,
}

impl DataMarket {
    /// Build a market over the given datasets. Panics if two datasets carry
    /// the same table name (the registry would be ambiguous).
    pub fn new(datasets: Vec<Dataset>) -> Self {
        let mut directory = HashMap::new();
        for (i, ds) in datasets.iter().enumerate() {
            for name in ds.tables.keys() {
                let prev = directory.insert(name.clone(), i);
                assert!(prev.is_none(), "table `{name}` hosted by two datasets");
            }
        }
        DataMarket {
            datasets,
            directory,
            meter: BillingMeter::new(),
            injector: Mutex::new(None),
        }
    }

    /// Attach a fault injector. Subsequent [`DataMarket::get`] calls consult
    /// its plan; with no injector attached (or an empty plan) the call path
    /// is byte-identical to a fault-free market.
    pub fn attach_fault_injector(&self, injector: Arc<FaultInjector>) {
        *self.injector.lock().unwrap() = Some(injector);
    }

    /// The attached fault injector, if any (tests read its accounting).
    pub fn fault_injector(&self) -> Option<Arc<FaultInjector>> {
        self.injector.lock().unwrap().clone()
    }

    /// The dataset hosting `table`, if any.
    pub fn dataset_of(&self, table: &str) -> Option<&Dataset> {
        self.directory.get(table).map(|&i| &self.datasets[i])
    }

    /// The hosted table, if any.
    pub fn table(&self, name: &str) -> Option<&MarketTable> {
        self.dataset_of(name).and_then(|ds| ds.table(name))
    }

    /// Published schema (with binding pattern and domains) for `table`.
    pub fn schema(&self, table: &str) -> Option<&Schema> {
        self.table(table).map(|t| &t.schema)
    }

    /// Published cardinality for `table`.
    pub fn cardinality(&self, table: &str) -> Option<u64> {
        self.table(table).map(|t| t.cardinality())
    }

    /// Page size `t` applying to calls against `table`.
    pub fn page_size(&self, table: &str) -> Option<u64> {
        self.dataset_of(table).map(|ds| ds.page_size)
    }

    /// All hosted table names (sorted, for deterministic iteration).
    pub fn table_names(&self) -> Vec<Arc<str>> {
        let mut names: Vec<Arc<str>> = self.directory.keys().cloned().collect();
        names.sort();
        names
    }

    /// The shared billing meter.
    pub fn meter(&self) -> &BillingMeter {
        &self.meter
    }

    /// Snapshot of the bill so far.
    pub fn bill(&self) -> BillingReport {
        self.meter.report()
    }

    /// Validate and execute a RESTful GET call, charging the meter.
    ///
    /// Validation enforces the binding pattern: a mandatory (`b`) attribute
    /// must carry exactly one constraint, a free (`f`) attribute at most one,
    /// and output attributes none. Constraint types must match attribute
    /// domains (ranges only on numeric attributes, as in Section 2.1).
    pub fn get(&self, request: &Request) -> Result<Response> {
        let table = self
            .table(&request.table)
            .ok_or_else(|| PaylessError::UnknownTable(request.table.clone()))?;
        let page = self
            .page_size(&request.table)
            .expect("dataset exists if table exists");

        let schema = &table.schema;
        let mut resolved: Vec<(usize, payless_types::Constraint)> = Vec::new();
        let mut seen: Vec<usize> = Vec::new();
        for ac in &request.constraints {
            let idx = schema
                .index_of(&ac.attr)
                .ok_or_else(|| PaylessError::UnknownColumn {
                    table: request.table.clone(),
                    column: ac.attr.clone(),
                })?;
            if seen.contains(&idx) {
                return Err(PaylessError::BindingViolation {
                    table: request.table.clone(),
                    detail: format!(
                        "attribute `{}` constrained more than once (disjunctions \
                         are not supported by the access interface)",
                        ac.attr
                    ),
                });
            }
            seen.push(idx);
            let col = &schema.columns[idx];
            if !col.binding.constrainable() {
                return Err(PaylessError::BindingViolation {
                    table: request.table.clone(),
                    detail: format!("attribute `{}` is output-only", ac.attr),
                });
            }
            if !ac.constraint.compatible_with(&col.domain) {
                return Err(PaylessError::TypeMismatch {
                    table: request.table.clone(),
                    column: ac.attr.clone(),
                });
            }
            resolved.push((idx, ac.constraint.clone()));
        }
        // Every mandatory attribute must be bound.
        for idx in schema.mandatory_bindings() {
            if !seen.contains(&idx) {
                return Err(PaylessError::BindingViolation {
                    table: request.table.clone(),
                    detail: format!(
                        "bound attribute `{}` must be given a value",
                        schema.columns[idx].name
                    ),
                });
            }
        }

        // Fault injection happens only on well-formed calls — a malformed
        // request never reaches the network in the first place.
        let injector = self.injector.lock().unwrap().clone();
        let fault = injector.as_ref().and_then(|i| i.decide());
        let note = |kind, wasted_pages| {
            if let Some(inj) = &injector {
                inj.note(kind, wasted_pages);
            }
        };
        match fault {
            Some(FaultKind::Unavailable) => {
                note(FaultKind::Unavailable, 0);
                return Err(PaylessError::Unavailable {
                    table: request.table.clone(),
                    detail: "injected transient seller failure (503)".into(),
                });
            }
            Some(FaultKind::Stall { millis }) => {
                std::thread::sleep(std::time::Duration::from_millis(millis));
                note(FaultKind::Stall { millis }, 0);
                // The call then delivers normally below.
            }
            _ => {}
        }

        let mut rows = table.select(&resolved);
        let records = rows.len() as u64;
        let charged = transactions(records, page);
        self.meter.charge(&request.table, records, charged);
        // A truncated zero-page call has nothing to withhold; treat it as a
        // clean (free) delivery.
        let truncated = matches!(fault, Some(FaultKind::Truncate)) && charged > 0;
        let corrupted = matches!(fault, Some(FaultKind::Corrupt));

        if truncated {
            note(FaultKind::Truncate, charged);
            // Withhold the final page's worth of rows: the client always
            // sees billed pages exceeding ceil(returned / t).
            rows.truncate(((charged - 1) * page) as usize);
            return Ok(Response {
                rows,
                transactions: charged,
            });
        }
        if corrupted {
            note(FaultKind::Corrupt, charged);
            // Round-trip the real payload through the wire codec with a
            // mangled frame, so the corruption is *detected*, not assumed.
            let body = corrupt_body(&encode_rows(&rows));
            let detail = match decode_rows(&body) {
                Err(e) => format!("corrupt payload: {e}"),
                Ok(_) => "corrupt payload went undetected by the codec".into(),
            };
            return Err(PaylessError::BilledFailure {
                table: request.table.clone(),
                pages: charged,
                records,
                detail,
            });
        }
        Ok(Response {
            rows,
            transactions: charged,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use payless_types::{row, Column, Constraint, Domain};

    /// A miniature WHW-like market: Station (free pattern) and Weather
    /// (free pattern) in one dataset, plus a second dataset with a
    /// mandatory-bound table.
    fn toy_market() -> DataMarket {
        let station = MarketTable::new(
            Schema::new(
                "Station",
                vec![
                    Column::free("Country", Domain::categorical(["US", "CA"])),
                    Column::free("StationID", Domain::int(1, 100)),
                    Column::free("City", Domain::categorical(["Seattle", "Boston"])),
                ],
            ),
            vec![
                row!("US", 1, "Seattle"),
                row!("US", 2, "Boston"),
                row!("CA", 3, "Seattle"),
            ],
        );
        let weather = MarketTable::new(
            Schema::new(
                "Weather",
                vec![
                    Column::free("Country", Domain::categorical(["US", "CA"])),
                    Column::free("StationID", Domain::int(1, 100)),
                    Column::free("Date", Domain::int(1, 30)),
                    Column::output("Temp", Domain::int(-50, 60)),
                ],
            ),
            (1..=30)
                .flat_map(|d| {
                    vec![
                        row!("US", 1, d, 10 + (d % 5)),
                        row!("US", 2, d, 8 + (d % 3)),
                        row!("CA", 3, d, -1 - (d % 4)),
                    ]
                })
                .collect(),
        );
        let bound = MarketTable::new(
            Schema::new(
                "Bound",
                vec![
                    Column::bound("key", Domain::int(0, 9)),
                    Column::output("val", Domain::int(0, 99)),
                ],
            ),
            (0..10).map(|k| row!(k, k * k)).collect(),
        );
        DataMarket::new(vec![
            Dataset::new("WHW")
                .with_page_size(10)
                .with_table(station)
                .with_table(weather),
            Dataset::new("Other").with_page_size(100).with_table(bound),
        ])
    }

    #[test]
    fn directory_and_statistics() {
        let m = toy_market();
        assert_eq!(m.cardinality("Station"), Some(3));
        assert_eq!(m.cardinality("Weather"), Some(90));
        assert_eq!(m.page_size("Weather"), Some(10));
        assert_eq!(m.page_size("Bound"), Some(100));
        assert!(m.schema("Nope").is_none());
        assert_eq!(m.table_names().len(), 3);
    }

    #[test]
    fn get_charges_ceil_of_records_over_page() {
        let m = toy_market();
        let resp = m
            .get(&Request::to("Weather").with("Country", Constraint::eq("US")))
            .unwrap();
        assert_eq!(resp.records(), 60);
        assert_eq!(resp.transactions, 6); // 60 records / page 10
        assert_eq!(m.bill().transactions(), 6);
        assert_eq!(m.bill().calls(), 1);
    }

    #[test]
    fn empty_result_is_free() {
        let m = toy_market();
        let resp = m.get(
            &Request::to("Station")
                .with("Country", Constraint::eq("US"))
                .with("City", Constraint::eq("NoSuchCity")),
        );
        // "NoSuchCity" is outside the domain -> type-compatible? It is a
        // string, so compatible; it just matches nothing.
        let resp = resp.unwrap();
        assert_eq!(resp.records(), 0);
        assert_eq!(resp.transactions, 0);
        assert_eq!(m.bill().calls(), 1);
        assert_eq!(m.bill().transactions(), 0);
    }

    #[test]
    fn unknown_table_and_column_errors() {
        let m = toy_market();
        assert!(matches!(
            m.get(&Request::download("Nope")),
            Err(PaylessError::UnknownTable(_))
        ));
        assert!(matches!(
            m.get(&Request::to("Station").with("Nope", Constraint::eq(1))),
            Err(PaylessError::UnknownColumn { .. })
        ));
    }

    #[test]
    fn binding_pattern_enforced() {
        let m = toy_market();
        // Output attribute cannot be constrained.
        assert!(matches!(
            m.get(&Request::to("Weather").with("Temp", Constraint::range(0, 10))),
            Err(PaylessError::BindingViolation { .. })
        ));
        // Mandatory bound attribute must be present.
        assert!(matches!(
            m.get(&Request::download("Bound")),
            Err(PaylessError::BindingViolation { .. })
        ));
        // With the binding it works.
        let resp = m
            .get(&Request::to("Bound").with("key", Constraint::eq(3)))
            .unwrap();
        assert_eq!(resp.rows, vec![row!(3, 9)]);
    }

    #[test]
    fn range_binding_satisfies_mandatory_attribute() {
        let m = toy_market();
        let resp = m
            .get(&Request::to("Bound").with("key", Constraint::range(0, 4)))
            .unwrap();
        assert_eq!(resp.records(), 5);
    }

    #[test]
    fn duplicate_constraint_rejected_as_disjunction() {
        let m = toy_market();
        let err = m.get(
            &Request::to("Station")
                .with("Country", Constraint::eq("US"))
                .with("Country", Constraint::eq("CA")),
        );
        assert!(matches!(err, Err(PaylessError::BindingViolation { .. })));
    }

    #[test]
    fn type_mismatch_rejected() {
        let m = toy_market();
        assert!(matches!(
            m.get(&Request::to("Station").with("Country", Constraint::range(0, 1))),
            Err(PaylessError::TypeMismatch { .. })
        ));
        assert!(matches!(
            m.get(&Request::to("Weather").with("Date", Constraint::eq("June"))),
            Err(PaylessError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn figure1_plan_costs_reproduced_in_miniature() {
        // Figure 1 of the paper in miniature: plan P1 downloads all US
        // weather (6 transactions at page 10) while plan P2 binds the single
        // Seattle station id (1 call x 30 records = 3 transactions at page
        // 10). The bind-join plan is cheaper iff few stations match.
        let m = toy_market();
        let seattle_stations = m
            .get(
                &Request::to("Station")
                    .with("Country", Constraint::eq("US"))
                    .with("City", Constraint::eq("Seattle")),
            )
            .unwrap();
        assert_eq!(seattle_stations.records(), 1);
        let sid = seattle_stations.rows[0].get(1).clone();
        let p2 = m
            .get(
                &Request::to("Weather")
                    .with("Country", Constraint::eq("US"))
                    .with("StationID", Constraint::eq(sid.as_int().unwrap())),
            )
            .unwrap();
        assert_eq!(p2.records(), 30);
        assert_eq!(p2.transactions, 3);
        let p1 = m
            .get(&Request::to("Weather").with("Country", Constraint::eq("US")))
            .unwrap();
        assert_eq!(p1.transactions, 6);
        assert!(p2.transactions < p1.transactions);
    }

    // ------------------------------------------------------------------
    // Fault injection
    // ------------------------------------------------------------------

    use crate::fault::FaultPlan;

    fn us_weather() -> Request {
        Request::to("Weather").with("Country", Constraint::eq("US"))
    }

    #[test]
    fn injected_unavailable_bills_nothing() {
        let m = toy_market();
        m.attach_fault_injector(FaultInjector::new(
            FaultPlan::none().at(0, FaultKind::Unavailable),
        ));
        let err = m.get(&us_weather());
        assert!(matches!(err, Err(PaylessError::Unavailable { .. })));
        assert_eq!(m.bill().calls(), 0);
        assert_eq!(m.bill().transactions(), 0);
        // The retry (call index 1) is past the schedule and succeeds.
        let resp = m.get(&us_weather()).unwrap();
        assert_eq!(resp.transactions, 6);
        assert_eq!(m.fault_injector().unwrap().wasted_pages(), 0);
    }

    #[test]
    fn injected_truncate_bills_full_pages_but_delivers_short() {
        let m = toy_market();
        m.attach_fault_injector(FaultInjector::new(
            FaultPlan::none().at(0, FaultKind::Truncate),
        ));
        let resp = m.get(&us_weather()).unwrap();
        // Billed all 6 pages of the 60-record result, returned only 5
        // pages' worth — always detectable via Eq. (1).
        assert_eq!(resp.transactions, 6);
        assert_eq!(resp.records(), 50);
        assert!(resp.transactions > transactions(resp.records(), 10));
        assert_eq!(m.bill().transactions(), 6);
        let inj = m.fault_injector().unwrap();
        assert_eq!(inj.wasted_pages(), 6);
        assert_eq!(inj.injections(), vec![("truncate", 1)]);
    }

    #[test]
    fn injected_corrupt_is_a_billed_failure_detected_by_the_codec() {
        let m = toy_market();
        m.attach_fault_injector(FaultInjector::new(
            FaultPlan::none().at(0, FaultKind::Corrupt),
        ));
        match m.get(&us_weather()) {
            Err(PaylessError::BilledFailure {
                pages,
                records,
                detail,
                ..
            }) => {
                assert_eq!(pages, 6);
                assert_eq!(records, 60);
                assert!(detail.contains("corrupt payload"), "{detail}");
            }
            other => panic!("expected BilledFailure, got {other:?}"),
        }
        assert_eq!(m.bill().transactions(), 6); // the money is gone
        assert_eq!(m.fault_injector().unwrap().wasted_pages(), 6);
    }

    #[test]
    fn injected_stall_delivers_normally() {
        let m = toy_market();
        m.attach_fault_injector(FaultInjector::new(
            FaultPlan::none().at(0, FaultKind::Stall { millis: 1 }),
        ));
        let resp = m.get(&us_weather()).unwrap();
        assert_eq!(resp.records(), 60);
        assert_eq!(m.bill().transactions(), 6);
        let inj = m.fault_injector().unwrap();
        assert_eq!(inj.wasted_pages(), 0);
        assert_eq!(inj.injections(), vec![("stall", 1)]);
    }

    #[test]
    fn empty_plan_injector_is_invisible() {
        let plain = toy_market();
        let injected = toy_market();
        injected.attach_fault_injector(FaultInjector::new(FaultPlan::none()));
        let ra = plain.get(&us_weather()).unwrap();
        let rb = injected.get(&us_weather()).unwrap();
        assert_eq!(ra.rows, rb.rows);
        assert_eq!(ra.transactions, rb.transactions);
        assert_eq!(plain.bill(), injected.bill());
        assert_eq!(injected.fault_injector().unwrap().injections_total(), 0);
    }

    #[test]
    fn malformed_requests_do_not_consume_fault_indices() {
        let m = toy_market();
        m.attach_fault_injector(FaultInjector::new(
            FaultPlan::none().at(0, FaultKind::Unavailable),
        ));
        // Validation errors fire before injection; call index 0 is still
        // pending afterwards.
        assert!(m.get(&Request::download("Nope")).is_err());
        assert!(matches!(
            m.get(&us_weather()),
            Err(PaylessError::Unavailable { .. })
        ));
    }
}
