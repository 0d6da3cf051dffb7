//! Exporter: Prometheus-style text exposition.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use crate::hub::CumSnapshot;

/// Base metric name: the part before any `{label="…"}` suffix.
fn base(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

/// Prometheus-style text exposition of a cumulative snapshot.
///
/// Counters and gauges emit one sample line each; histograms emit
/// cumulative `_bucket{le="…"}` lines (ascending, ending in `+Inf`),
/// `_sum`, `_count`, and convenience `_p50`/`_p95`/`_p99` gauges so the
/// quantiles are readable without a PromQL engine.
pub fn exposition(cum: &CumSnapshot) -> String {
    let mut out = String::new();
    let mut typed: BTreeSet<String> = BTreeSet::new();
    let mut type_line = |out: &mut String, name: &str, kind: &str| {
        let b = base(name).to_string();
        if typed.insert(format!("{kind}:{b}")) {
            let _ = writeln!(out, "# TYPE {b} {kind}");
        }
    };

    for (name, v) in &cum.counters {
        type_line(&mut out, name, "counter");
        let _ = writeln!(out, "{name} {v}");
    }
    for (name, v) in &cum.gauges {
        type_line(&mut out, name, "gauge");
        let _ = writeln!(out, "{name} {v}");
    }
    for (name, h) in &cum.histograms {
        type_line(&mut out, name, "histogram");
        let mut running = 0u64;
        for &(le, c) in &h.buckets {
            running += c;
            let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {running}");
        }
        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
        let _ = writeln!(out, "{name}_sum {}", h.sum);
        let _ = writeln!(out, "{name}_count {}", h.count);
        for (suffix, p) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
            let q_name = format!("{name}_{suffix}");
            type_line(&mut out, &q_name, "gauge");
            let _ = writeln!(out, "{q_name} {}", h.quantile(p));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use crate::hub::{MetricsConfig, MetricsHub};

    fn busy_hub() -> MetricsHub {
        let hub = MetricsHub::new(MetricsConfig::default());
        hub.market_calls.inc(3);
        hub.pages_billed.inc(120);
        hub.coalesce_waiters.set(2);
        hub.table_views_gauge("Weather").set(7);
        for v in [10u64, 20, 30, 40, 1000] {
            hub.market_call_nanos.record(v);
        }
        hub
    }

    #[test]
    fn exposition_has_types_samples_and_quantiles() {
        let text = busy_hub().exposition();
        assert!(text.contains("# TYPE payless_market_calls_total counter"));
        assert!(text.contains("payless_market_calls_total 3"));
        assert!(text.contains("# TYPE payless_market_call_nanos histogram"));
        assert!(text.contains("payless_market_call_nanos_count 5"));
        assert!(text.contains("payless_market_call_nanos_bucket{le=\"+Inf\"} 5"));
        assert!(text.contains("payless_market_call_nanos_p50 "));
        assert!(text.contains("payless_store_views{table=\"Weather\"} 7"));
        // The labelled gauge shares one TYPE line under its base name.
        assert_eq!(text.matches("# TYPE payless_store_views gauge").count(), 1);
    }

    #[test]
    fn bucket_lines_are_cumulative_and_end_at_count() {
        let text = busy_hub().exposition();
        let mut last = 0u64;
        let mut inf = None;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("payless_market_call_nanos_bucket{le=\"") {
                let (le, v) = rest.split_once("\"} ").unwrap();
                let v: u64 = v.parse().unwrap();
                assert!(v >= last, "bucket lines must be cumulative");
                last = v;
                if le == "+Inf" {
                    inf = Some(v);
                }
            }
        }
        assert_eq!(inf, Some(5));
    }
}
