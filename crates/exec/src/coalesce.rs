//! Single-flight coalescing of overlapping market calls.
//!
//! When two in-flight queries are about to buy overlapping regions of the
//! same table, paying twice is pure waste: the first delivery lands in the
//! shared semantic store, and the second query could have rewritten against
//! it. The [`CallCoalescer`] is the serving layer's rendezvous for exactly
//! that: before buying, a query **claims** the region it is about to buy
//! from. If no in-flight purchase overlaps it, the claim is granted and
//! the query becomes the single flight for that region (dropping the guard
//! releases it). Otherwise the query **waits** for any in-flight
//! purchase to complete, then re-rewrites against the freshly grown store
//! and claims whatever is still uncovered — usually nothing.
//!
//! Protocol invariants (see DESIGN.md "Concurrent serving & call
//! coalescing"):
//!
//! * **No hold-and-wait.** A query holds at most one claim at a time and
//!   never blocks while holding it, so the protocol cannot deadlock.
//! * **No lost wake-ups.** `claim` snapshots the completion counter under
//!   the same lock that detected the overlap; [`CallCoalescer::wait_past`]
//!   sleeps only while the counter still has that value. A flight that
//!   completes between the claim and the wait is therefore observed.
//! * **Progress.** Every wake-up means some flight completed. With
//!   rewriting on, the waiter's remainders shrink (the flight's coverage
//!   is in the store before its guard drops); without rewriting, the
//!   completed flight no longer blocks the claim. Either way the loop
//!   terminates.
//! * **Failure containment.** A flight that fails drops its guard without
//!   recording coverage; waiters wake, find the region still uncovered,
//!   claim it themselves, and buy. Nothing is lost but time.

use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use payless_geometry::Region;
use payless_metrics::MetricsHub;

/// One in-flight purchase: the single flight for its region.
#[derive(Debug)]
struct Flight {
    id: u64,
    table: String,
    region: Region,
}

#[derive(Debug, Default)]
struct FlightBoard {
    in_flight: Vec<Flight>,
    next_id: u64,
    /// Total flights ever completed (guard drops). Monotonic; the condvar's
    /// predicate.
    completions: u64,
}

/// Rendezvous point for single-flight call coalescing. One per serving
/// layer, shared by every in-flight query.
#[derive(Debug, Default)]
pub struct CallCoalescer {
    board: Mutex<FlightBoard>,
    done: Condvar,
    /// Live instrumentation: acquired/contended claims, claim-wait
    /// durations, and the flight/waiter gauges. `None` costs nothing.
    metrics: Option<Arc<MetricsHub>>,
}

/// Outcome of [`CallCoalescer::claim`].
pub enum Claim<'a> {
    /// No overlap: the caller is the single flight for its region. Drop
    /// the guard when the purchase (and its store bookkeeping) is done.
    Acquired(FlightGuard<'a>),
    /// An in-flight purchase overlaps the requested region. Pass `seen`
    /// to [`CallCoalescer::wait_past`], then re-rewrite and re-claim.
    Contended {
        /// Completion count observed while detecting the overlap.
        seen: u64,
        /// The requested region is **contained** in one in-flight
        /// purchase's region (not merely overlapped): that flight's
        /// delivery alone will satisfy this claim, so after the wait the
        /// re-rewrite is expected to find nothing left to buy.
        satisfied: bool,
    },
}

/// Releases a granted claim on drop and wakes every waiter.
pub struct FlightGuard<'a> {
    owner: &'a CallCoalescer,
    id: u64,
}

impl FlightGuard<'_> {
    /// The flight's stable id — the `FlightId` the flight recorder journals
    /// so a claim can be correlated with the purchases made under it.
    pub fn flight_id(&self) -> u64 {
        self.id
    }
}

impl Drop for FlightGuard<'_> {
    fn drop(&mut self) {
        let mut board = self.owner.lock_board();
        board.in_flight.retain(|f| f.id != self.id);
        board.completions += 1;
        if let Some(hub) = &self.owner.metrics {
            hub.coalesce_flights.set(board.in_flight.len() as u64);
        }
        self.owner.done.notify_all();
    }
}

impl CallCoalescer {
    /// A coalescer with no flights in progress.
    pub fn new() -> Self {
        Self::default()
    }

    /// A coalescer that reports claims, waits, and board occupancy to
    /// `hub` (`payless_coalesce_*` metrics).
    pub fn with_metrics(hub: Arc<MetricsHub>) -> Self {
        CallCoalescer {
            metrics: Some(hub),
            ..Self::default()
        }
    }

    fn lock_board(&self) -> MutexGuard<'_, FlightBoard> {
        // A panicking flight still runs FlightGuard::drop, which keeps the
        // board consistent, so a poisoned lock is safe to enter.
        self.board.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Try to become the single flight for `region` of `table`. Never
    /// blocks; see [`Claim`] for the two outcomes.
    pub fn claim<'a>(&'a self, table: &str, region: &Region) -> Claim<'a> {
        let mut board = self.lock_board();
        let contended = board
            .in_flight
            .iter()
            .any(|f| f.table == table && f.region.overlaps(region));
        if contended {
            // Subset satisfaction: some single flight's region contains the
            // requested one, so its delivery alone covers this claim.
            // Checked under the same lock as the overlap, so the two
            // observations cannot disagree.
            let satisfied = board
                .in_flight
                .iter()
                .any(|f| f.table == table && f.region.contains(region));
            if let Some(hub) = &self.metrics {
                hub.coalesce_contended.inc(1);
                if satisfied {
                    hub.coalesce_subset_satisfied.inc(1);
                }
            }
            return Claim::Contended {
                seen: board.completions,
                satisfied,
            };
        }
        let id = board.next_id;
        board.next_id += 1;
        board.in_flight.push(Flight {
            id,
            table: table.to_string(),
            region: region.clone(),
        });
        if let Some(hub) = &self.metrics {
            hub.coalesce_acquired.inc(1);
            hub.coalesce_flights.set(board.in_flight.len() as u64);
        }
        Claim::Acquired(FlightGuard { owner: self, id })
    }

    /// Block until some flight completes after the [`Claim::Contended`]
    /// observation `seen`. Returns immediately if one already has.
    pub fn wait_past(&self, seen: u64) {
        let started = self.metrics.as_ref().map(|hub| {
            hub.coalesce_waiters.add(1);
            Instant::now()
        });
        let board = self.lock_board();
        let _board = self
            .done
            .wait_while(board, |b| b.completions <= seen)
            .unwrap_or_else(|e| e.into_inner());
        drop(_board);
        if let (Some(hub), Some(t0)) = (&self.metrics, started) {
            hub.coalesce_waiters.sub(1);
            hub.coalesce_claim_wait_nanos
                .record(t0.elapsed().as_nanos() as u64);
        }
    }

    /// Number of flights currently in progress (diagnostics).
    pub fn in_flight(&self) -> usize {
        self.lock_board().in_flight.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use payless_geometry::Interval;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    fn r(lo: i64, hi: i64) -> Region {
        Region::new(vec![Interval::new(lo, hi)])
    }

    #[test]
    fn disjoint_regions_do_not_contend() {
        let c = CallCoalescer::new();
        let g1 = match c.claim("T", &r(0, 9)) {
            Claim::Acquired(g) => g,
            Claim::Contended { .. } => panic!("first claim must win"),
        };
        assert!(matches!(c.claim("T", &r(20, 29)), Claim::Acquired(_)));
        assert!(matches!(c.claim("U", &r(0, 9)), Claim::Acquired(_)));
        drop(g1);
        assert_eq!(c.in_flight(), 0);
    }

    #[test]
    fn overlap_contends_until_guard_drops() {
        let c = CallCoalescer::new();
        let g = match c.claim("T", &r(0, 9)) {
            Claim::Acquired(g) => g,
            Claim::Contended { .. } => panic!("first claim must win"),
        };
        let seen = match c.claim("T", &r(5, 14)) {
            Claim::Contended { seen, satisfied } => {
                assert!(!satisfied, "partial overlap is not subset-satisfied");
                seen
            }
            Claim::Acquired(_) => panic!("overlap must contend"),
        };
        drop(g);
        // Completion already happened: wait_past must not block.
        c.wait_past(seen);
        assert!(matches!(c.claim("T", &r(5, 14)), Claim::Acquired(_)));
    }

    #[test]
    fn containment_reports_subset_satisfaction() {
        let c = CallCoalescer::new();
        let _g = match c.claim("T", &r(0, 29)) {
            Claim::Acquired(g) => g,
            Claim::Contended { .. } => panic!("first claim must win"),
        };
        // The requested region inside the in-flight one: satisfied.
        match c.claim("T", &r(22, 29)) {
            Claim::Contended { satisfied, .. } => assert!(satisfied),
            Claim::Acquired(_) => panic!("overlap must contend"),
        }
        // Sticking out of the flight's region: contended but not satisfied.
        match c.claim("T", &r(25, 34)) {
            Claim::Contended { satisfied, .. } => assert!(!satisfied),
            Claim::Acquired(_) => panic!("overlap must contend"),
        };
    }

    #[test]
    fn completion_between_claim_and_wait_is_not_lost() {
        // The lost-wakeup race: leader finishes after the waiter observed
        // contention but before it sleeps. `seen` makes wait_past a no-op.
        let c = Arc::new(CallCoalescer::new());
        let woke = Arc::new(AtomicU64::new(0));
        for _ in 0..50 {
            let g = match c.claim("T", &r(0, 9)) {
                Claim::Acquired(g) => g,
                Claim::Contended { .. } => panic!("board must be empty"),
            };
            let seen = match c.claim("T", &r(0, 9)) {
                Claim::Contended { seen, .. } => seen,
                Claim::Acquired(_) => panic!("overlap must contend"),
            };
            let cc = Arc::clone(&c);
            let ww = Arc::clone(&woke);
            let waiter = std::thread::spawn(move || {
                cc.wait_past(seen);
                ww.fetch_add(1, Ordering::SeqCst);
            });
            drop(g); // complete the flight, possibly before the waiter sleeps
            waiter.join().unwrap();
        }
        assert_eq!(woke.load(Ordering::SeqCst), 50);
    }
}
