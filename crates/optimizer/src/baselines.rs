//! The paper's comparison systems.
//!
//! * **Minimizing Calls** — the limited-access-pattern optimizer of Florescu
//!   et al. (SIGMOD'99): bushy plans, bind joins, objective = number of
//!   RESTful calls. It is the shared DP engine run with
//!   `OptimizerConfig::min_calls()`, i.e. `CostModel::Calls`.
//! * **Download All** — download every referenced market table wholesale,
//!   then answer all queries locally. [`download_all_cost`] computes the
//!   upfront price; actual downloading is performed by the execution crate.

use payless_types::{transactions, Transactions};

/// Transactions needed to download a whole table of `cardinality` rows at
/// `page_size` tuples per transaction.
///
/// When the table's binding pattern has mandatory bound attributes it cannot
/// be downloaded in one call; the downloader enumerates the bound domain
/// (one call per value), which costs at least the same number of
/// transactions and possibly more due to per-call rounding. The pessimistic
/// per-value rounding is the caller's concern (the executor reports actuals);
/// this helper returns the ideal single-scan price the paper uses.
pub fn download_all_cost(cardinality: u64, page_size: u64) -> Transactions {
    transactions(cardinality, page_size)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn download_cost_matches_eq1() {
        assert_eq!(download_all_cost(19_549_140, 100), 195_492);
        assert_eq!(download_all_cost(3962, 100), 40);
        assert_eq!(download_all_cost(0, 100), 0);
    }
}
