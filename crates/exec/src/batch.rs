//! Cross-query batched purchasing: the serve layer's shared-spend window.
//!
//! The coalescer (see [`crate::coalesce`]) dedupes *overlapping in-flight*
//! purchases; it never makes K concurrent queries fund one market call
//! together. The [`BatchPlanner`] does: a query whose rewrite left
//! uncovered remainders **parks** them here instead of buying immediately.
//! Queries hitting the same table within the batching window join the same
//! open batch; when the window elapses, the member cap is reached, or every
//! active query is parked (so nobody else can arrive), the batch **seals**.
//! The member that sealed it becomes the **leader**: it unions the parked
//! remainder sets (disjointified in join order), runs the rewrite once over
//! the merged remainder, issues the market calls through the resilient
//! chokepoint, and then splits every billed page across the members whose
//! remainders the delivery served.
//!
//! Attribution is exact: delivered rows are partitioned first-match in join
//! order across the members' parked pieces, the per-member row counts are
//! both the attributed records and the weights for [`split_pages`]
//! (largest-remainder rounding), so **Σ member shares == billed pages** for
//! every call — the ledger/meter reconciliation invariant survives N-way
//! splits. Wasted pages split with the same weights; a failed purchase
//! reverts every member's share to wasted-spend accounting.
//!
//! Protocol invariants:
//!
//! * **Bounded waiting.** A parked member waits at most the window before
//!   some member (possibly itself, on timeout) seals the batch. After a
//!   seal, members wait only on their leader, which is running, never
//!   parked — so no cycle of parked queries can deadlock.
//! * **No starvation on quiescence.** When `parked ≥ active` every open
//!   batch seals immediately: all in-flight queries are parked, so waiting
//!   out the window could not add members.
//! * **Unwind safety.** The leader settles through a guard whose `Drop`
//!   fills every unfilled member slot with an error, so a panicking or
//!   failing leader can never strand members on the condvar.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use payless_events::{EventJournal, EventKind, Severity};
use payless_geometry::Region;
use payless_metrics::MetricsHub;

/// Batching knobs. `payless-server` runs the `Default` under
/// `PAYLESS_BATCH=1`; tests set the fields directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// How long an open batch waits for more members before sealing.
    /// `0` seals every batch at its first member — batching off in all
    /// but accounting.
    pub window_ms: u64,
    /// Seal a batch as soon as it has this many members.
    pub max_members: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            window_ms: 4,
            max_members: 8,
        }
    }
}

/// One settled member's slice of a batch purchase. Page shares are exact
/// largest-remainder splits of the billed totals; records are the member's
/// first-match row count, so Σ member records == delivered records too.
#[derive(Debug, Clone, Default)]
pub struct MemberShare {
    /// Id of the batch this share came from (the flight recorder's
    /// `BatchId`).
    pub batch: u64,
    /// Pages of delivered payload attributed to this member.
    pub delivered_pages: u64,
    /// Pages billed but wasted (failed/truncated attempts) attributed to
    /// this member.
    pub wasted_pages: u64,
    /// Delivered records attributed to this member (first-match partition).
    pub records: u64,
    /// Market calls this batch issued; attributed to the leader only.
    pub calls: u64,
    /// How many queries funded the batch (incl. this one).
    pub batch_members: u64,
    /// Set when the leader's purchase failed: the member's share above is
    /// all wasted spend and the member's query must fail with this message.
    pub error: Option<String>,
}

/// One parked member of a batch: its base region and the uncovered
/// remainder pieces its rewrite produced.
#[derive(Debug, Clone)]
pub struct ParkedMember {
    /// Planner-assigned member token (unique across the planner's life).
    pub token: u64,
    /// The base region the member's plan required.
    pub base: Region,
    /// Uncovered remainder pieces of `base` at park time.
    pub pieces: Vec<Region>,
}

/// A sealed batch handed to its leader: members in join order.
#[derive(Debug)]
pub struct SealedBatch {
    /// Planner-assigned batch id (the flight recorder's `BatchId`).
    pub id: u64,
    /// Table all members park against (batches never span tables).
    pub table: String,
    /// Members in join order; attribution partitions rows in this order.
    pub members: Vec<ParkedMember>,
    /// Token of the leader (always one of `members`).
    pub leader: u64,
}

/// What [`BatchPlanner::join`] resolved a parked query into.
pub enum BatchRole {
    /// This query sealed the batch: purchase the merged remainder and
    /// [`BatchPlanner::settle`] the members' shares.
    Leader(SealedBatch),
    /// Another member led; here is this query's settled share.
    Served(MemberShare),
}

#[derive(Debug)]
struct PendingBatch {
    table: String,
    opened: Instant,
    sealed: bool,
    leader: u64,
    members: Vec<ParkedMember>,
}

#[derive(Debug, Default)]
struct PlannerState {
    /// Open (unsealed) batch per table.
    open: HashMap<String, u64>,
    batches: HashMap<u64, PendingBatch>,
    /// Members currently blocked in `join` (parked or awaiting settlement).
    parked: usize,
    next_token: u64,
    next_batch: u64,
    /// Settled shares awaiting pickup, keyed by member token.
    results: HashMap<u64, MemberShare>,
}

/// The serve layer's batching rendezvous. One per [`Serve`]; shared by
/// every in-flight query.
///
/// [`Serve`]: ../../payless_serve/struct.Serve.html
#[derive(Debug)]
pub struct BatchPlanner {
    window: Duration,
    max_members: usize,
    /// Queries currently executing (between `begin_query`/`end_query`).
    /// When every one of them is parked, waiting is pointless — seal.
    active: AtomicUsize,
    /// Pages settled onto members that have not yet finished their query —
    /// the watchdog's transient-drift allowance (see
    /// `payless-serve/src/watchdog.rs`).
    deferred: Arc<AtomicU64>,
    state: Mutex<PlannerState>,
    cv: Condvar,
    metrics: Option<Arc<MetricsHub>>,
    /// Flight recorder: park/seal/leader-election events. `None` costs
    /// nothing.
    events: Option<Arc<EventJournal>>,
}

impl BatchPlanner {
    /// A planner with no open batches.
    pub fn new(cfg: BatchConfig) -> Self {
        BatchPlanner {
            window: Duration::from_millis(cfg.window_ms),
            max_members: cfg.max_members.max(1),
            active: AtomicUsize::new(0),
            deferred: Arc::new(AtomicU64::new(0)),
            state: Mutex::new(PlannerState::default()),
            cv: Condvar::new(),
            metrics: None,
            events: None,
        }
    }

    /// As [`BatchPlanner::new`], reporting batch counts, member counts,
    /// and the deferred-pages gauge into `hub` (`payless_batch_*`).
    pub fn with_metrics(cfg: BatchConfig, hub: Arc<MetricsHub>) -> Self {
        BatchPlanner {
            metrics: Some(hub),
            ..Self::new(cfg)
        }
    }

    /// Journal park/seal/leader-election events into `journal` (the
    /// flight recorder's `batch_*` events).
    pub fn with_events(mut self, journal: Arc<EventJournal>) -> Self {
        self.events = Some(journal);
        self
    }

    fn lock(&self) -> MutexGuard<'_, PlannerState> {
        // The settle guard keeps state consistent on unwind, so a poisoned
        // lock is safe to enter.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The register of pages settled onto still-running members. The serve
    /// watchdog subtracts this from its transient-drift bound.
    pub fn deferred_handle(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.deferred)
    }

    /// Mark one query as executing. Must be paired with
    /// [`BatchPlanner::end_query`]; see [`BatchPlanner::activity`] for the
    /// RAII form the serve layer uses.
    pub fn begin_query(&self) {
        self.active.fetch_add(1, Ordering::SeqCst);
    }

    /// Mark one query as finished executing.
    pub fn end_query(&self) {
        self.active.fetch_sub(1, Ordering::SeqCst);
    }

    /// RAII guard bracketing one executing query.
    pub fn activity(&self) -> ActivityGuard<'_> {
        self.begin_query();
        ActivityGuard { planner: self }
    }

    /// Park `pieces` (the uncovered remainders of `base` over `table`) and
    /// block until this query either leads the sealed batch or receives its
    /// settled share from another leader. `query` is the joining query's
    /// logical id, used only for flight-recorder attribution.
    pub fn join(&self, table: &str, base: Region, pieces: Vec<Region>, query: u64) -> BatchRole {
        let npieces = pieces.len() as u64;
        let mut st = self.lock();
        let token = st.next_token;
        st.next_token += 1;
        let bid = match st.open.get(table) {
            Some(&id) => id,
            None => {
                let id = st.next_batch;
                st.next_batch += 1;
                st.batches.insert(
                    id,
                    PendingBatch {
                        table: table.to_string(),
                        opened: Instant::now(),
                        sealed: false,
                        leader: 0,
                        members: Vec::new(),
                    },
                );
                st.open.insert(table.to_string(), id);
                id
            }
        };
        let batch = st.batches.get_mut(&bid).expect("open batch exists");
        batch.members.push(ParkedMember {
            token,
            base,
            pieces,
        });
        let full = batch.members.len() >= self.max_members;
        st.parked += 1;
        if let Some(hub) = &self.metrics {
            hub.batch_members.inc(1);
        }
        if let Some(j) = &self.events {
            j.emit(Some(query), Severity::Debug, || EventKind::BatchParked {
                batch: bid,
                table: table.to_string(),
                pieces: npieces,
            });
        }
        if full {
            self.seal(&mut st, bid, token, "cap", query);
        }
        // Every active query is parked: nobody is left to join any open
        // batch, so waiting out the window would only add latency.
        if st.parked >= self.active.load(Ordering::SeqCst) {
            self.seal_all(&mut st, query);
        }
        self.cv.notify_all();

        loop {
            if let Some(share) = st.results.remove(&token) {
                st.parked -= 1;
                return BatchRole::Served(share);
            }
            match st.batches.get(&bid) {
                Some(b) if b.sealed => {
                    if b.leader == token {
                        let b = st.batches.remove(&bid).expect("checked above");
                        st.parked -= 1;
                        if let Some(hub) = &self.metrics {
                            hub.batch_batches.inc(1);
                        }
                        if let Some(j) = &self.events {
                            j.emit(Some(query), Severity::Info, || EventKind::BatchLeader {
                                batch: bid,
                                table: b.table.clone(),
                                members: b.members.len() as u64,
                            });
                        }
                        return BatchRole::Leader(SealedBatch {
                            id: bid,
                            table: b.table,
                            members: b.members,
                            leader: token,
                        });
                    }
                    // Sealed under another leader, which is running (never
                    // parked): wait for it to settle or abort.
                    st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
                }
                Some(b) => {
                    let elapsed = b.opened.elapsed();
                    if elapsed >= self.window {
                        self.seal(&mut st, bid, token, "window", query);
                        self.cv.notify_all();
                        continue;
                    }
                    let left = self.window - elapsed;
                    st = self
                        .cv
                        .wait_timeout(st, left)
                        .unwrap_or_else(|e| e.into_inner())
                        .0;
                }
                // Batch taken by its leader; our result has not landed yet.
                None => st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner()),
            }
        }
    }

    fn seal(&self, st: &mut PlannerState, bid: u64, leader: u64, reason: &str, query: u64) {
        if let Some(b) = st.batches.get_mut(&bid) {
            if !b.sealed {
                b.sealed = true;
                b.leader = leader;
                let table = b.table.clone();
                let members = b.members.len() as u64;
                st.open.remove(&table);
                if let Some(j) = &self.events {
                    j.emit(Some(query), Severity::Info, || EventKind::BatchSealed {
                        batch: bid,
                        table,
                        members,
                        reason: reason.to_string(),
                    });
                }
            }
        }
    }

    /// Seal every open batch, each led by its first (longest-waiting)
    /// member. `query` is the quiescence-detecting joiner, for event
    /// attribution.
    fn seal_all(&self, st: &mut PlannerState, query: u64) {
        let ids: Vec<u64> = st.open.values().copied().collect();
        for bid in ids {
            let leader = st.batches[&bid].members[0].token;
            self.seal(st, bid, leader, "quiescence", query);
        }
    }

    /// Distribute a sealed batch's shares. Non-leader members' pages are
    /// added to the deferred register **before** their results become
    /// visible, so the watchdog's transient-drift bound always covers
    /// settled-but-unfinished spend. Returns the leader's own share.
    pub fn settle(&self, batch: &SealedBatch, shares: Vec<MemberShare>) -> MemberShare {
        assert_eq!(batch.members.len(), shares.len(), "one share per member");
        let deferred: u64 = batch
            .members
            .iter()
            .zip(&shares)
            .filter(|(m, _)| m.token != batch.leader)
            .map(|(_, s)| s.delivered_pages + s.wasted_pages)
            .sum();
        if deferred > 0 {
            let now = self.deferred.fetch_add(deferred, Ordering::SeqCst) + deferred;
            if let Some(hub) = &self.metrics {
                hub.batch_deferred_pages.set(now);
            }
        }
        let mut leader_share = MemberShare::default();
        let mut st = self.lock();
        for (m, s) in batch.members.iter().zip(shares) {
            if m.token == batch.leader {
                leader_share = s;
            } else {
                st.results.insert(m.token, s);
            }
        }
        drop(st);
        self.cv.notify_all();
        leader_share
    }

    /// Unwind-safety guard for a batch leader: if the leader returns or
    /// panics without settling, `Drop` fails every other member instead of
    /// stranding them on the condvar.
    pub fn settle_guard<'a>(&'a self, batch: &SealedBatch) -> SettleGuard<'a> {
        SettleGuard {
            planner: self,
            batch: batch.id,
            tokens: batch
                .members
                .iter()
                .map(|m| m.token)
                .filter(|&t| t != batch.leader)
                .collect(),
            members: batch.members.len() as u64,
            settled: false,
        }
    }
}

/// RAII pair for [`BatchPlanner::begin_query`]/[`BatchPlanner::end_query`].
pub struct ActivityGuard<'a> {
    planner: &'a BatchPlanner,
}

impl Drop for ActivityGuard<'_> {
    fn drop(&mut self) {
        self.planner.end_query();
    }
}

/// See [`BatchPlanner::settle_guard`].
pub struct SettleGuard<'a> {
    planner: &'a BatchPlanner,
    batch: u64,
    tokens: Vec<u64>,
    members: u64,
    settled: bool,
}

impl SettleGuard<'_> {
    /// The leader settled normally; disarm the guard.
    pub fn disarm(&mut self) {
        self.settled = true;
    }
}

impl Drop for SettleGuard<'_> {
    fn drop(&mut self) {
        if self.settled {
            return;
        }
        let mut st = self.planner.lock();
        for &t in &self.tokens {
            st.results.entry(t).or_insert_with(|| MemberShare {
                batch: self.batch,
                batch_members: self.members,
                error: Some("batch leader aborted before settling".to_string()),
                ..MemberShare::default()
            });
        }
        drop(st);
        self.planner.cv.notify_all();
    }
}

/// Split `total` pages across members proportionally to `weights`, with
/// largest-remainder rounding so the shares **always sum to exactly
/// `total`** — the invariant that lets Σ per-query ledger pages reconcile
/// with the billing meter after an N-way split. All-zero weights (a billed
/// call that delivered nothing attributable) split equally. Ties in the
/// fractional remainders break toward the lowest index, so the split is
/// deterministic.
pub fn split_pages(total: u64, weights: &[u64]) -> Vec<u64> {
    let n = weights.len();
    if n == 0 {
        return Vec::new();
    }
    let sum: u128 = weights.iter().map(|&w| w as u128).sum();
    if sum == 0 {
        // Equal split: floor everywhere, the first `total % n` members
        // absorb the leftover — the largest-remainder answer for equal
        // weights.
        let base = total / n as u64;
        let extra = (total % n as u64) as usize;
        return (0..n).map(|i| base + u64::from(i < extra)).collect();
    }
    let mut shares: Vec<u64> = Vec::with_capacity(n);
    let mut rems: Vec<(u128, usize)> = Vec::with_capacity(n);
    let mut assigned: u64 = 0;
    for (i, &w) in weights.iter().enumerate() {
        let exact = total as u128 * w as u128;
        let floor = (exact / sum) as u64;
        shares.push(floor);
        assigned += floor;
        rems.push((exact % sum, i));
    }
    let mut leftover = total - assigned;
    // Largest remainder first; lowest index wins ties.
    rems.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    for (_, i) in rems {
        if leftover == 0 {
            break;
        }
        shares[i] += 1;
        leftover -= 1;
    }
    debug_assert_eq!(shares.iter().sum::<u64>(), total);
    shares
}

#[cfg(test)]
mod tests {
    use super::*;
    use payless_geometry::Interval;

    fn r(lo: i64, hi: i64) -> Region {
        Region::new(vec![Interval::new(lo, hi)])
    }

    // ------------------------------------------------------------------
    // split_pages: every rounding path must sum exactly to the total.
    // ------------------------------------------------------------------

    #[test]
    fn split_sums_exactly_for_every_shape() {
        // N up to 64, totals including the 0- and 1-page edge cases.
        for n in 1..=64usize {
            for &total in &[0u64, 1, 2, 7, 63, 64, 65, 1000, 12345] {
                let weights: Vec<u64> = (0..n).map(|i| (i as u64 * 37 + 11) % 13).collect();
                let shares = split_pages(total, &weights);
                assert_eq!(shares.len(), n);
                assert_eq!(shares.iter().sum::<u64>(), total, "n={n} total={total}");
            }
        }
    }

    #[test]
    fn split_with_all_zero_weights_is_an_equal_split() {
        assert_eq!(split_pages(7, &[0, 0, 0]), vec![3, 2, 2]);
        assert_eq!(split_pages(0, &[0, 0]), vec![0, 0]);
        assert_eq!(split_pages(1, &[0, 0, 0, 0]), vec![1, 0, 0, 0]);
        let shares = split_pages(64, &[0u64; 64]);
        assert!(shares.iter().all(|&s| s == 1));
    }

    #[test]
    fn split_is_proportional_and_deterministic() {
        // Exact proportions when the weights divide the total.
        assert_eq!(split_pages(10, &[1, 4]), vec![2, 8]);
        // One leftover page goes to the largest fractional remainder.
        assert_eq!(split_pages(10, &[1, 1, 1]), vec![4, 3, 3]);
        // Tie on remainders: lowest index wins.
        assert_eq!(split_pages(1, &[1, 1]), vec![1, 0]);
        assert_eq!(split_pages(3, &[1, 1]), vec![2, 1]);
        // A zero-weight member gets nothing when others have weight.
        assert_eq!(split_pages(5, &[0, 5]), vec![0, 5]);
        // Determinism: same inputs, same split.
        let w: Vec<u64> = (0..64).map(|i| i % 7).collect();
        assert_eq!(split_pages(101, &w), split_pages(101, &w));
    }

    #[test]
    fn split_single_member_takes_everything() {
        assert_eq!(split_pages(0, &[0]), vec![0]);
        assert_eq!(split_pages(1, &[0]), vec![1]);
        assert_eq!(split_pages(9, &[3]), vec![9]);
    }

    #[test]
    fn split_survives_huge_weights_without_overflow() {
        let w = [u64::MAX, u64::MAX - 1, 1];
        let shares = split_pages(1_000_000, &w);
        assert_eq!(shares.iter().sum::<u64>(), 1_000_000);
    }

    // ------------------------------------------------------------------
    // Planner protocol.
    // ------------------------------------------------------------------

    #[test]
    fn sole_active_query_leads_a_singleton_batch_immediately() {
        let p = BatchPlanner::new(BatchConfig {
            window_ms: 10_000, // would hang if parked >= active didn't seal
            max_members: 8,
        });
        let _a = p.activity();
        match p.join("T", r(0, 9), vec![r(0, 9)], 1) {
            BatchRole::Leader(b) => {
                assert_eq!(b.members.len(), 1);
                assert_eq!(b.leader, b.members[0].token);
                let leader = p.settle(
                    &b,
                    vec![MemberShare {
                        delivered_pages: 3,
                        batch_members: 1,
                        ..MemberShare::default()
                    }],
                );
                assert_eq!(leader.delivered_pages, 3);
                // A singleton batch defers nothing.
                assert_eq!(p.deferred_handle().load(Ordering::SeqCst), 0);
            }
            BatchRole::Served(_) => panic!("sole member must lead"),
        }
    }

    #[test]
    fn member_cap_seals_and_settle_distributes_shares() {
        let p = Arc::new(BatchPlanner::new(BatchConfig {
            window_ms: 10_000,
            max_members: 2,
        }));
        p.begin_query();
        p.begin_query();
        p.begin_query(); // third active query keeps parked < active at join 1
        let pm = Arc::clone(&p);
        let member = std::thread::spawn(move || {
            let role = pm.join("T", r(0, 4), vec![r(0, 4)], 1);
            pm.end_query();
            match role {
                BatchRole::Served(s) => s,
                BatchRole::Leader(_) => panic!("first joiner must not lead a cap-sealed batch"),
            }
        });
        // Wait until the first member is parked.
        while p.lock().parked == 0 {
            std::thread::yield_now();
        }
        let role = p.join("T", r(5, 9), vec![r(5, 9)], 1);
        let batch = match role {
            BatchRole::Leader(b) => b,
            BatchRole::Served(_) => panic!("cap-sealing joiner leads"),
        };
        assert_eq!(batch.members.len(), 2);
        assert_eq!(batch.leader, batch.members[1].token);
        let shares = vec![
            MemberShare {
                delivered_pages: 4,
                records: 4,
                batch_members: 2,
                ..MemberShare::default()
            },
            MemberShare {
                delivered_pages: 6,
                records: 6,
                batch_members: 2,
                calls: 1,
                ..MemberShare::default()
            },
        ];
        let leader_share = p.settle(&batch, shares);
        assert_eq!(leader_share.delivered_pages, 6);
        let got = member.join().unwrap();
        assert_eq!(got.delivered_pages, 4);
        // The non-leader's pages sit in the deferred register until its
        // query completes and the watchdog drains them.
        assert_eq!(p.deferred_handle().load(Ordering::SeqCst), 4);
        p.end_query();
        p.end_query();
    }

    #[test]
    fn settle_guard_fails_members_instead_of_stranding_them() {
        let p = Arc::new(BatchPlanner::new(BatchConfig {
            window_ms: 10_000,
            max_members: 2,
        }));
        p.begin_query();
        p.begin_query();
        p.begin_query();
        let pm = Arc::clone(&p);
        let member = std::thread::spawn(move || {
            let role = pm.join("T", r(0, 4), vec![r(0, 4)], 1);
            pm.end_query();
            match role {
                BatchRole::Served(s) => s,
                BatchRole::Leader(_) => panic!("first joiner must not lead"),
            }
        });
        while p.lock().parked == 0 {
            std::thread::yield_now();
        }
        let batch = match p.join("T", r(5, 9), vec![r(5, 9)], 1) {
            BatchRole::Leader(b) => b,
            BatchRole::Served(_) => panic!("cap-sealing joiner leads"),
        };
        // Leader "aborts": guard dropped without disarm.
        drop(p.settle_guard(&batch));
        let got = member.join().unwrap();
        assert!(got.error.is_some(), "aborted leader must fail its members");
        assert_eq!(got.delivered_pages, 0);
        p.end_query();
        p.end_query();
    }

    #[test]
    fn window_timeout_seals_even_when_others_stay_active() {
        let p = Arc::new(BatchPlanner::new(BatchConfig {
            window_ms: 1,
            max_members: 8,
        }));
        p.begin_query();
        p.begin_query(); // a second active query that never parks
        let role = p.join("T", r(0, 9), vec![r(0, 9)], 1);
        match role {
            BatchRole::Leader(b) => assert_eq!(b.members.len(), 1),
            BatchRole::Served(_) => panic!("timeout seals with the waiter as leader"),
        }
        p.end_query();
        p.end_query();
    }
}
