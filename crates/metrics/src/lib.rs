//! Lock-cheap live metrics for the PayLess serving layer.
//!
//! Per-query telemetry ([`payless-telemetry`]) describes one finished
//! query; this crate aggregates across queries and clients while a mix is
//! still running. Two layers:
//!
//! * **Primitives** — [`Counter`], [`Gauge`], and [`LogHistogram`]: plain
//!   atomics on the write path (one relaxed `fetch_add` per counter hit,
//!   four per histogram record), shareable behind `Arc` with no locks.
//!   Histograms are log-bucketed (8 sub-buckets per power of two, ≤ 12.5 %
//!   relative value error) with exact *counts*, so p50/p95/p99 are exact in
//!   rank space and bucket-bounded in value space.
//! * **Registry** — a name → metric map ([`Registry`]) so exporters can
//!   walk everything that exists; registration is idempotent and returns
//!   the same `Arc` for the same name.
//!
//! Every value is cumulative since the hub was built.
//! [`MetricsHub::exposition`] writes it as Prometheus-style text; a scraper
//! that wants rates (spend, pages/s, queries/s) differences two scrapes.
//!
//! Libraries take an `Option<&MetricsHub>`/`Option<Arc<MetricsHub>>` and
//! never read the environment; every front end builds the hub from
//! [`MetricsConfig::default`].

#![warn(missing_docs)]

mod atomics;
mod buckets;
mod export;
mod hub;
mod registry;

pub use atomics::{Counter, Gauge, HistSnapshot, LogHistogram};
pub use buckets::{bucket_index, bucket_le, BUCKETS};
pub use hub::{CumSnapshot, MetricsConfig, MetricsHub};
pub use registry::Registry;
