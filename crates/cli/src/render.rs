//! Plain-text rendering: result tables and per-query trace reports.

use payless_core::{QueryReport, QueryResult};

/// Maximum rows printed before truncation.
pub const MAX_ROWS: usize = 40;

/// Render a result as an aligned text table, truncating long results.
pub fn render_table(result: &QueryResult) -> String {
    let mut widths: Vec<usize> = result.columns.iter().map(|c| c.len()).collect();
    let shown = result.rows.iter().take(MAX_ROWS);
    let cells: Vec<Vec<String>> = shown
        .map(|r| r.values().iter().map(|v| v.render().into_owned()).collect())
        .collect();
    for row in &cells {
        for (i, c) in row.iter().enumerate() {
            if i < widths.len() && c.len() > widths[i] {
                widths[i] = c.len();
            }
        }
    }
    let mut out = String::new();
    let sep = |out: &mut String| {
        out.push('+');
        for w in &widths {
            out.push_str(&"-".repeat(w + 2));
            out.push('+');
        }
        out.push('\n');
    };
    sep(&mut out);
    out.push('|');
    for (c, w) in result.columns.iter().zip(&widths) {
        out.push_str(&format!(" {c:<w$} |"));
    }
    out.push('\n');
    sep(&mut out);
    for row in &cells {
        out.push('|');
        for (c, w) in row.iter().zip(&widths) {
            out.push_str(&format!(" {c:<w$} |"));
        }
        out.push('\n');
    }
    sep(&mut out);
    if result.rows.len() > MAX_ROWS {
        out.push_str(&format!(
            "({} rows, showing first {MAX_ROWS})\n",
            result.rows.len()
        ));
    } else {
        out.push_str(&format!("({} rows)\n", result.rows.len()));
    }
    out
}

/// Format nanoseconds with a human unit.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Render the per-operator estimate-vs-actual traces as an
/// `EXPLAIN ANALYZE` tree (pre-order, indented by depth).
pub fn render_explain(report: &QueryReport) -> String {
    if report.ops.is_empty() {
        return "(no operator traces — tracing was off for this query)\n".into();
    }
    let mut s = String::from("── explain analyze ──\n");
    for op in &report.ops {
        let pad = "  ".repeat(op.depth);
        s.push_str(&format!("{pad}{}  [{}]\n", op.label, op.est.provenance));
        let e = &op.est;
        let mut line = format!(
            "{pad}  est: rows {:.1}  pages {:.1}  price ${:.2}  calls {:.1}",
            e.rows, e.pages, e.price, e.calls
        );
        if let Some(u) = e.uncovered_fraction {
            line.push_str(&format!("  uncovered {:.0}%", u * 100.0));
        }
        if e.zero_price {
            line.push_str("  zero-price");
        }
        s.push_str(&line);
        s.push('\n');
        let a = &op.actual;
        s.push_str(&format!(
            "{pad}  act: rows {}  pages {} (+{} wasted)  records {}  calls {}  retries {}  {}\n",
            a.rows,
            a.pages,
            a.wasted_pages,
            a.records,
            a.calls,
            a.retries,
            fmt_ns(a.nanos),
        ));
    }
    let est_pages: f64 = report.ops.iter().map(|o| o.est.pages).sum();
    s.push_str(&format!(
        "totals: est {:.1} pages -> {} billed to operators ({} on the ledger)\n",
        est_pages,
        report.operator_pages(),
        report.total_pages(),
    ));
    s
}

/// Render a traced query's report, `EXPLAIN ANALYZE`-style.
pub fn render_report(report: &QueryReport) -> String {
    let mut s = String::from(
        "── query report ──
",
    );
    s.push_str(&format!(
        "phases: analyze {}  optimize {}  execute {}
",
        fmt_ns(report.analyze_nanos),
        fmt_ns(report.optimize_nanos),
        fmt_ns(report.execute_nanos),
    ));
    let c = &report.counters;
    s.push_str(&format!(
        "plan search: {} plans considered; Theorem 2 hoisted {} zero-price; \
         Theorem 3 composed {} subproblems; boxes {} enumerated -> {} kept
",
        c.plans_considered,
        c.theorem2_hoisted,
        c.theorem3_composed,
        c.boxes_enumerated,
        c.boxes_kept,
    ));
    let sqr = report.sqr();
    s.push_str(&format!(
        "SQR: {} full hits, {} partial, {} misses
",
        sqr.full_hits, sqr.partial_hits, sqr.misses,
    ));
    s.push_str(&format!(
        "spend: ${:.2} for {} pages / {} records over {} calls (estimated {:.1}; billed {})
",
        report.total_price(),
        report.total_pages(),
        report.telemetry.total_records(),
        report.telemetry.ledger.len(),
        report.est_cost,
        report.paid_transactions,
    ));
    if report.telemetry.wasted_calls() > 0 {
        s.push_str(&format!(
            "wasted spend: ${:.2} for {} pages over {} faulted calls \
             ({} pages actually delivered)
",
            report.telemetry.wasted_price(),
            report.telemetry.wasted_pages(),
            report.telemetry.wasted_calls(),
            report.telemetry.delivered_pages(),
        ));
    }
    // Retry count (absent on clean runs).
    let retries = report
        .telemetry
        .counters
        .iter()
        .find(|(n, _)| *n == "resilience.retries")
        .map(|(_, v)| *v);
    if let Some(retries) = retries {
        s.push_str(&format!(
            "retries: {retries}
",
        ));
    }
    // Estimate accuracy: one line per table.
    if !report.telemetry.qerrors.is_empty() {
        s.push_str(&format!(
            "q-error: {} estimates scored
",
            report.telemetry.qerrors.len(),
        ));
        for (name, q) in report.q_error_by_table() {
            s.push_str(&format!(
                "  table {:<12} n={} geo-mean {:.2} p50 {:.2} p95 {:.2} max {:.2}
",
                name, q.count, q.geo_mean, q.p50, q.p95, q.max,
            ));
        }
    }
    let by_dataset = report.spend_by_dataset();
    if !by_dataset.is_empty() {
        s.push_str(
            "  dataset        calls   records     pages      price
",
        );
        for d in &by_dataset {
            s.push_str(&format!(
                "  {:<12} {:>7} {:>9} {:>9} {:>9}
",
                d.dataset,
                d.calls,
                d.records,
                d.pages,
                format!("${:.2}", d.price),
            ));
        }
    }
    if !report.telemetry.ledger.is_empty() {
        s.push_str(
            "ledger:
",
        );
        for e in &report.telemetry.ledger {
            s.push_str(&format!(
                "  #{:<3} {:<10} {:<12} {:>7} records / page {:<5} -> {:>5} pages  ${:.2}{}
",
                e.seq,
                e.kind.label(),
                e.table,
                e.records,
                e.page_size,
                e.pages,
                e.price,
                if e.wasted { "  WASTED" } else { "" },
            ));
        }
    }
    if !report.telemetry.spans.is_empty() {
        s.push_str(
            "spans:
",
        );
        for sp in &report.telemetry.spans {
            match &sp.detail {
                Some(d) => s.push_str(&format!(
                    "  {:<16} {:<24} {}
",
                    sp.label,
                    d,
                    fmt_ns(sp.nanos)
                )),
                None => s.push_str(&format!(
                    "  {:<16} {:<24} {}
",
                    sp.label,
                    "",
                    fmt_ns(sp.nanos)
                )),
            }
        }
    }
    for (name, h) in &report.telemetry.sizes {
        s.push_str(&format!(
            "{name}: n={} sum={} p50={} p95={} max={}
",
            h.count, h.sum, h.p50, h.p95, h.max,
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use payless_types::row;

    #[test]
    fn renders_aligned_table() {
        let r = QueryResult {
            columns: vec!["City".into(), "AVG(Temperature)".into()],
            rows: vec![row!("Seattle", 12), row!("B", 7)],
        };
        let s = render_table(&r);
        assert!(s.contains("| City    | AVG(Temperature) |"), "{s}");
        assert!(s.contains("| Seattle | 12               |"), "{s}");
        assert!(s.ends_with("(2 rows)\n"), "{s}");
    }

    #[test]
    fn truncates_long_results() {
        let r = QueryResult {
            columns: vec!["n".into()],
            rows: (0..100).map(|i| row!(i)).collect(),
        };
        let s = render_table(&r);
        assert!(s.contains("(100 rows, showing first 40)"), "{s}");
    }

    #[test]
    fn report_renders_all_sections() {
        use payless_core::{
            CallKind, PlanCounters, QueryReport, SqrStats, TelemetrySnapshot, TransactionRecord,
        };
        let report = QueryReport {
            analyze_nanos: 1_200,
            optimize_nanos: 3_400_000,
            execute_nanos: 2_000_000_000,
            est_cost: 6.0,
            paid_transactions: 7,
            counters: PlanCounters {
                plans_considered: 12,
                boxes_enumerated: 9,
                boxes_kept: 4,
                theorem2_hoisted: 2,
                theorem3_composed: 3,
            },
            telemetry: TelemetrySnapshot {
                ledger: vec![TransactionRecord {
                    seq: 0,
                    dataset: "WHW".into(),
                    table: "Weather".into(),
                    kind: CallKind::Remainder,
                    records: 612,
                    page_size: 100,
                    pages: 7,
                    price: 7.0,
                    wasted: false,
                    at_nanos: 0,
                }],
                sqr: SqrStats {
                    full_hits: 1,
                    partial_hits: 2,
                    misses: 3,
                },
                ..Default::default()
            },
            ..Default::default()
        };
        let s = render_report(&report);
        assert!(s.contains("analyze 1.2 µs"), "{s}");
        assert!(s.contains("optimize 3.40 ms"), "{s}");
        assert!(s.contains("execute 2.00 s"), "{s}");
        assert!(s.contains("12 plans considered"), "{s}");
        assert!(s.contains("Theorem 2 hoisted 2"), "{s}");
        assert!(s.contains("Theorem 3 composed 3"), "{s}");
        assert!(s.contains("1 full hits, 2 partial, 3 misses"), "{s}");
        assert!(s.contains("$7.00 for 7 pages / 612 records"), "{s}");
        assert!(s.contains("WHW"), "{s}");
        assert!(s.contains("remainder"), "{s}");
        // A clean run reports neither wasted spend nor retries.
        assert!(!s.contains("wasted spend"), "{s}");
        assert!(!s.contains("retries:"), "{s}");
        assert!(!s.contains("WASTED"), "{s}");
    }

    #[test]
    fn report_renders_wasted_spend_and_faults() {
        use payless_core::{CallKind, QueryReport, TelemetrySnapshot, TransactionRecord};
        let entry = |seq, pages, wasted| TransactionRecord {
            seq,
            dataset: "WHW".into(),
            table: "Weather".into(),
            kind: CallKind::Remainder,
            records: 100 * pages,
            page_size: 100,
            pages,
            price: pages as f64,
            wasted,
            at_nanos: 0,
        };
        let report = QueryReport {
            paid_transactions: 9,
            telemetry: TelemetrySnapshot {
                counters: vec![("resilience.retries", 3)],
                ledger: vec![entry(0, 3, true), entry(1, 6, false)],
                ..Default::default()
            },
            ..Default::default()
        };
        let s = render_report(&report);
        assert!(
            s.contains("wasted spend: $3.00 for 3 pages over 1 faulted calls"),
            "{s}"
        );
        assert!(s.contains("(6 pages actually delivered)"), "{s}");
        assert!(s.contains("retries: 3\n"), "{s}");
        // Only the wasted entry carries the marker.
        let wasted_lines: Vec<&str> = s.lines().filter(|l| l.ends_with("WASTED")).collect();
        assert_eq!(wasted_lines.len(), 1, "{s}");
        assert!(wasted_lines[0].contains("#0"), "{s}");
    }

    #[test]
    fn empty_result() {
        let r = QueryResult {
            columns: vec!["x".into()],
            rows: vec![],
        };
        let s = render_table(&r);
        assert!(s.contains("(0 rows)"));
    }
}
