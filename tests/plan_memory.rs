//! Memory regression guard for plan shape: no served WHW Q5 may multiply
//! two unrelated tables.
//!
//! Q5 joins Pollution, Station, Weather and the local ZipMap. Money does
//! not fix its join order: every order of the free prefix, and every order
//! of equally priced fetches, pays the same. A left-deep order that joins
//! ZipMap with Weather (or Pollution with Station) before the table that
//! links them materializes a Cartesian product of thousands of rows by
//! thousands; the optimizer's third cost key (estimated intermediate rows)
//! and the connected order of the zero-price prefix exist to rule that out.
//!
//! The binary counts live heap bytes with its own global allocator and
//! runs 32 sampled Q5 instances at scale 0.05 (the `join_hot` size)
//! through a one-client `Serve`, from an empty store, so both the buying
//! and the fully covered plans are exercised. Each query's peak live heap
//! above its starting live heap must stay under [`BUDGET`]. It is the only
//! test in this binary, so no other test's allocations are counted.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use payless_serve::{Serve, ServeConfig};
use payless_workload::{QueryWorkload, RealWorkload, WhwConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The system allocator, counting live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(n: usize) {
    let live = LIVE.fetch_add(n, Ordering::Relaxed) + n;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters only read sizes and never
// touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Largest allowed rise of live heap within one query. Connected Q5 plans
/// stay near 1 MiB at this scale; one cross product exceeds 100 MiB.
const BUDGET: usize = 16 << 20;

/// Q5's index among the Table-1 templates.
const Q5: usize = 4;

#[test]
fn q5_plans_never_materialize_a_cross_product() {
    let w = RealWorkload::generate(&WhwConfig::scaled(0.05));
    let market = Arc::new(payless_workload::build_market(&w, 100));
    let serve = Serve::new(market, w.local_tables(), ServeConfig::one_client());
    let q5 = serve
        .prepare(&w.templates()[Q5])
        .expect("Q5 template parses");
    let mut rng = StdRng::seed_from_u64(48879);
    let mut worst = (0usize, 0usize);
    for i in 0..32 {
        let params = w.sample_params(Q5, &mut rng);
        let start = LIVE.load(Ordering::Relaxed);
        PEAK.store(start, Ordering::Relaxed);
        let answer = serve.run_query(&q5, &params);
        let rise = PEAK.load(Ordering::Relaxed).saturating_sub(start);
        answer.unwrap_or_else(|e| panic!("Q5 instance {i} {params:?} failed: {e}"));
        if rise > worst.1 {
            worst = (i, rise);
        }
        assert!(
            rise <= BUDGET,
            "Q5 instance {i} {params:?} raised live heap by {:.1} MiB (budget {} MiB)",
            rise as f64 / f64::from(1 << 20),
            BUDGET >> 20
        );
    }
    eprintln!(
        "worst Q5 instance: #{} at {:.1} MiB above its start",
        worst.0,
        worst.1 as f64 / f64::from(1 << 20)
    );
}
