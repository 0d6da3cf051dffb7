//! Workloads for the PayLess evaluation (Section 5 of the paper).
//!
//! * [`whw`] — synthetic stand-ins for the Worldwide Historical Weather and
//!   Environmental Hazard Rank datasets of Windows Azure Marketplace, plus
//!   the local `ZipMap` table, and the five query templates of Table 1.
//! * [`tpch`] — a from-scratch TPC-H-shaped generator (8 tables, correct key
//!   structure) with uniform or zipf(θ)-skewed value distributions (the
//!   "TPC-H skew" data of Chaudhuri & Narasayya), and eight SPJ/aggregate
//!   query templates modeled on TPC-H Q1/Q3/Q4/Q5/Q6/Q10/Q12/Q14. `Nation`
//!   and `Region` are local tables, as in the paper's setup.
//! * [`finance`] — a quote-reseller workload whose `Quotes` table has a
//!   **mandatory bound** `Symbol` attribute, making bind joins required
//!   rather than merely cheaper (the paper's Theorem-1 setting).
//! * [`zipf`] — the zipf sampler the generators share.
//!
//! Dates are encoded as **day indexes** (small consecutive integers) instead
//! of `YYYYMMDD` literals so that integer ranges have no invalid gaps; the
//! substitution is recorded in DESIGN.md.
//!
//! Both workloads implement [`QueryWorkload`], the interface the benchmark
//! harness drives: parameterized templates plus valid-instance sampling
//! ("a query instance is valid if it returns non-empty results").

#![warn(missing_docs)]

pub mod client;
pub mod finance;
pub mod mix;
pub mod tpch;
pub mod whw;
pub mod zipf;

use payless_market::{DataMarket, Dataset, MarketTable};
use payless_storage::LocalTable;
use payless_types::Value;
use rand::rngs::StdRng;

pub use client::{drive_mix, submit, QuerySpend, RemoteOutcome};
pub use finance::{Finance, FinanceConfig};
pub use mix::{drive, overlapping_mix, serve_mix, MixItem};
pub use tpch::{Tpch, TpchConfig};
pub use whw::{RealWorkload, WhwConfig};
pub use zipf::Zipf;

/// A benchmark workload: data plus parameterized query templates.
pub trait QueryWorkload {
    /// Tables hosted in the data market.
    fn market_tables(&self) -> &[MarketTable];
    /// Tables in the buyer's local DBMS.
    fn local_tables(&self) -> &[LocalTable];
    /// Parameterized SQL templates (`?` placeholders).
    fn templates(&self) -> &[String];
    /// Sample parameter values for template `t` such that the instance is
    /// valid (returns non-empty results).
    fn sample_params(&self, t: usize, rng: &mut StdRng) -> Vec<Value>;
}

/// Bundle a workload's market tables into a single-dataset [`DataMarket`]
/// with the given page size `t` (tuples per transaction).
pub fn build_market(workload: &(dyn QueryWorkload + '_), page_size: u64) -> DataMarket {
    let mut dataset = Dataset::new("market").with_page_size(page_size);
    for t in workload.market_tables() {
        dataset = dataset.with_table(t.clone());
    }
    DataMarket::new(vec![dataset])
}
