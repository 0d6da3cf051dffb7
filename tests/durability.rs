//! Durability suite for the server's one append-only log, `wal.log`: one
//! frame per landed purchase, carrying its spend, its coverage bit, what it
//! taught the statistics and the rows it added to the mirror.
//!
//! The central property: **any byte-prefix truncation** of the log — a crash
//! can tear the tail anywhere, not just on a frame boundary — recovers to a
//! store whose summed ledger reconciles with the recorded absolute meter,
//! covering exactly the purchases whose frames survived and holding exactly
//! their rows. Across a crash torn anywhere inside the last purchase, every
//! region the recovered store covers has all its rows. And since the log is
//! never compacted, it stays bounded by what was bought: under re-buys of
//! stored rows it holds each distinct row once and one frame per `seq`. The
//! store keeps every purchase too, so its view index is bounded the same
//! way: at most one view per logged purchase.
//!
//! Restart: four clients buy through a durable `Serve`; the server
//! recovered from its log covers exactly what the stopped one covered,
//! holds exactly its mirror rows and estimates every probe to the same
//! bits, on 64 seeds. A one-client session that records no coverage (no
//! SQR, or the calls-minimizing baseline) recovers its statistics and its
//! spend the same way.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use payless_exec::{Purchase, PurchaseLog};
use payless_geometry::{Interval, QuerySpace, Region};
use payless_market::{DataMarket, Dataset, MarketTable};
use payless_semantic::{Consistency, CoverClass};
use payless_serve::{run_mix, Mode, Serve, ServeConfig};
use payless_server::persist::{recover, scan_frames, DurableStore, PersistConfig};
use payless_types::{row, Column, Domain, Row, Schema};
use payless_workload::{build_market, serve_mix, QueryWorkload, RealWorkload, WhwConfig};

fn space() -> QuerySpace {
    QuerySpace::of(&Schema::new(
        "T",
        vec![Column::free("A", Domain::int(0, 9_999))],
    ))
}

/// The i-th purchase region; all disjoint, so coverage checks are exact.
fn r(i: usize) -> Region {
    let lo = 10 * i as i64;
    Region::new(vec![Interval::new(lo, lo + 9)])
}

static CASE: AtomicUsize = AtomicUsize::new(0);

/// A per-case scratch directory (proptest cases within one process must
/// not share log files).
fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "payless-durability-{tag}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Log a covered purchase of `region` of `T` that added `rows`.
fn buy(durable: &DurableStore, region: &Region, at: u64, pages: u64, rows: &[Row]) {
    durable.append_purchase(&Purchase {
        table: "T",
        at,
        pages,
        region,
        records: rows.len() as u64,
        coverage: true,
        rows,
    });
}

/// A market hosting `T` alone, to recover a hand-written log over.
fn t_market() -> Arc<DataMarket> {
    let schema = Schema::new("T", vec![Column::free("A", Domain::int(0, 9_999))]);
    let table = MarketTable::new(schema, Vec::new());
    Arc::new(DataMarket::new(vec![Dataset::new("DS").with_table(table)]))
}

/// Recover `dir` over [`t_market`].
fn open_t(dir: &std::path::Path) -> (Serve, Arc<DurableStore>) {
    open_serve(dir, &t_market(), None, ServeConfig::default())
}

/// The recovered mirror rows of `T`, in mirror order.
fn t_rows(serve: &Serve) -> Vec<Row> {
    serve
        .state()
        .with_db(|db| db.table("T").map(|t| t.rows().to_vec()))
        .unwrap_or_default()
}

/// The rows of the i-th purchase, all inside `r(i)`.
fn rows_of(i: usize, n: usize) -> Vec<Row> {
    (0..n).map(|j| row!(10 * i as i64 + j as i64)).collect()
}

mod props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Chop the log at an arbitrary byte and recover: the store must
        /// reconcile, replay exactly the fully-framed prefix, cover exactly
        /// those purchases — never a region whose frame was lost — and hold
        /// exactly their rows, in append order.
        #[test]
        fn any_wal_prefix_truncation_recovers_reconciling(
            appends in 1usize..10,
            frac in 0.0f64..1.0,
        ) {
            let dir = tmpdir("wal-prefix");
            let cfg = PersistConfig::default();
            let mut spends = Vec::new();
            {
                let (durable, _, _) = DurableStore::open(&dir, cfg, &[space()]).unwrap();
                for i in 0..appends {
                    let spend = (i as u64 % 7) + 1;
                    spends.push(spend);
                    buy(&durable, &r(i), i as u64 + 1, spend, &rows_of(i, 2));
                }
            }
            let path = dir.join("wal.log");
            let bytes = std::fs::read(&path).unwrap();
            let cut = (bytes.len() as f64 * frac) as usize;
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let surviving = scan_frames(&bytes[..cut]).0.len();

            let (serve, durable) = open_t(&dir);
            let status = durable.status();
            prop_assert!(status.reconciles());
            prop_assert_eq!(status.recovery.replayed, surviving as u64);
            prop_assert_eq!(status.recovery.rows, 2 * surviving as u64);
            let torn = cut - scan_frames(&bytes[..cut]).1;
            prop_assert_eq!(status.recovery.truncated_bytes, torn as u64);
            let expected: u64 = spends[..surviving].iter().sum();
            let total: u64 = status.tables.iter().map(|t| t.ledger_pages).sum();
            prop_assert_eq!(total, expected);
            let now = appends as u64 + 1;
            let store = serve.state().store();
            for i in 0..appends {
                prop_assert_eq!(
                    store.covers("T", &r(i), Consistency::Weak, now),
                    i < surviving,
                    "purchase {} vs truncation at byte {}",
                    i,
                    cut
                );
            }
            let logged: Vec<Row> = (0..surviving).flat_map(|i| rows_of(i, 2)).collect();
            prop_assert_eq!(t_rows(&serve), logged);
            let _ = std::fs::remove_dir_all(&dir);
        }

        /// Disjoint purchases logged the way `land_delivery` logs them (one
        /// frame each, rows and coverage together) and a crash torn at any
        /// byte of the last purchase's frame: the ledger reconciles, every
        /// earlier purchase is covered, the last one only if its frame
        /// survived whole, and every covered purchase has all its rows.
        #[test]
        fn covered_purchases_keep_their_rows_across_crashes(
            purchases in proptest::collection::vec(1usize..6, 1..8),
            frac in 0.0f64..1.0,
        ) {
            let dir = tmpdir("coverage-rows");
            let cfg = PersistConfig::default();
            let wal = dir.join("wal.log");
            let len = |p: &std::path::Path| std::fs::metadata(p).unwrap().len();
            let last = purchases.len() - 1;
            let (before, after) = {
                let (durable, _, _) = DurableStore::open(&dir, cfg, &[space()]).unwrap();
                for (i, &n) in purchases[..last].iter().enumerate() {
                    buy(&durable, &r(i), i as u64 + 1, n as u64, &rows_of(i, n));
                }
                let before = len(&wal);
                let n = purchases[last];
                buy(&durable, &r(last), last as u64 + 1, n as u64, &rows_of(last, n));
                (before, len(&wal))
            };
            // Keep the first `cut` bytes of the last frame (all of them
            // included).
            let cut = ((after - before + 1) as f64 * frac) as u64;
            let keep = before + cut.min(after - before);
            let bytes = std::fs::read(&wal).unwrap();
            std::fs::write(&wal, &bytes[..keep as usize]).unwrap();

            let (serve, durable) = open_t(&dir);
            prop_assert!(durable.status().reconciles());
            let rows: HashSet<Row> = t_rows(&serve).into_iter().collect();
            let now = purchases.len() as u64 + 1;
            for (i, &n) in purchases.iter().enumerate() {
                let covered = serve.state().store().covers("T", &r(i), Consistency::Weak, now);
                prop_assert_eq!(covered, i < last || keep == after, "purchase {}", i);
                if covered {
                    prop_assert!(
                        rows_of(i, n).iter().all(|row| rows.contains(row)),
                        "purchase {} is covered but lost rows",
                        i
                    );
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }

        /// Random overlapping Weather purchases through a durable `Serve`:
        /// a remainder may re-buy rows the mirror holds, yet the log holds
        /// each distinct row once — at most Σ distinct rows × the largest
        /// encoded row, plus one frame's fixed fields per purchase — and
        /// exactly `last_seq` frames, at least one per stored view. The
        /// same statements run a second time buy nothing.
        #[test]
        fn logs_stay_bounded_under_rebuys(
            queries in proptest::collection::vec((0usize..4, 1i64..20, 0i64..6), 1..12),
        ) {
            let dir = tmpdir("bounded");
            let w = RealWorkload::generate(&WhwConfig {
                stations: 24,
                countries: 4,
                cities_per_country: 3,
                days: 20,
                zips: 40,
                ranks: 100,
                seed: 5,
            });
            let market = Arc::new(build_market(&w, 1));
            let (serve, durable) = open_serve(&dir, &market, Some(&w), ServeConfig::default());
            let mut seqs = Vec::new();
            for _ in 0..2 {
                for &(country, lo, width) in &queries {
                    let sql = format!(
                        "SELECT * FROM Weather WHERE Weather.Country = 'Country{country}' \
                         AND Weather.Date >= {lo} AND Weather.Date <= {}",
                        lo + width
                    );
                    let stmt = serve.prepare(&sql).unwrap();
                    serve.run_query(&stmt, &[]).unwrap();
                }
                seqs.push(durable.status().last_seq);
            }
            prop_assert_eq!(seqs[0], seqs[1], "the second pass bought again");
            let views = serve.state().store().view_count("Weather") as u64;
            prop_assert!(views <= durable.status().last_seq, "{} views", views);
            drop((serve, durable));

            // Each frame ends in the rows it added, after a header of seq,
            // the table, four counters, the coverage byte and the region.
            let wal = std::fs::read(dir.join("wal.log")).unwrap();
            let (frames, _) = scan_frames(&wal);
            let arity = QuerySpace::of(market.schema("Weather").unwrap()).arity();
            let header = 8 + 2 + "Weather".len() + 4 * 8 + 1 + 2 + 16 * arity;
            let rows: Vec<Row> = frames
                .iter()
                .flat_map(|payload| payless_market::decode_rows(&payload[header..]).unwrap())
                .collect();
            prop_assert_eq!(frames.len() as u64, seqs[1]);
            let distinct: HashSet<&Row> = rows.iter().collect();
            prop_assert_eq!(distinct.len(), rows.len(), "a row was logged twice");
            let empty = payless_market::encode_rows(&[]).len();
            let widest = rows
                .iter()
                .map(|row| payless_market::encode_rows(std::slice::from_ref(row)).len() - empty)
                .max()
                .unwrap_or(0);
            // Length and CRC, the header, and an empty row body.
            let fixed = 8 + header + empty;
            prop_assert!(
                wal.len() <= distinct.len() * widest + frames.len() * fixed,
                "wal.log is {} bytes for {} distinct rows in {} frames",
                wal.len(),
                distinct.len(),
                frames.len()
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// A frame whose rows are not rows of its table — here an empty row, which
/// the block check would index past — fails recovery naming the log.
#[test]
fn a_frame_row_of_the_wrong_width_fails_recovery() {
    let dir = tmpdir("width");
    {
        let (durable, _, _) =
            DurableStore::open(&dir, PersistConfig::default(), &[space()]).unwrap();
        buy(&durable, &r(0), 1, 1, &[Row::new(Vec::new())]);
    }
    let market = t_market();
    let build = |store| Serve::with_store(market.clone(), &[], ServeConfig::default(), store);
    let recovered = recover(&dir, PersistConfig::default(), &market, build).map(|_| ());
    let err = recovered.expect_err("a row of the wrong width");
    assert!(err.contains("wal.log seq 1"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Every box whose sides are a quarter of the dimension or the whole of
/// it (a side narrower than four points is only whole): 5^d probes.
fn probe_grid(space: &QuerySpace) -> Vec<Region> {
    let mut grid = vec![Vec::new()];
    for dim in space.dims() {
        let full = dim.full();
        let mut sides = vec![full];
        let step = full.width() as i64 / 4;
        if step > 0 {
            sides.extend((0..4).map(|q| {
                let lo = full.lo + q * step;
                Interval::new(lo, if q == 3 { full.hi } else { lo + step - 1 })
            }));
        }
        grid = grid
            .iter()
            .flat_map(|prefix| {
                sides.iter().map(move |&side| {
                    let mut next = prefix.clone();
                    next.push(side);
                    next
                })
            })
            .collect();
    }
    grid.into_iter().map(Region::new).collect()
}

/// What a restart must preserve of one market table: the cover and class
/// of every probe under `Weak`, the covered fraction, the mirror rows, and
/// the bits of the statistics' estimate of every probe.
type TableState = (Vec<(bool, CoverClass)>, f64, HashSet<Row>, Vec<u64>);

fn table_states(serve: &Serve) -> Vec<(String, TableState)> {
    let store = serve.state().store();
    let stats = serve.state().stats_snapshot();
    let now = serve.now() + 1;
    serve
        .market()
        .table_names()
        .into_iter()
        .map(|name| {
            let space = store.space(&name).expect("market table registered");
            let grid = probe_grid(&space);
            let probes = grid
                .iter()
                .map(|p| {
                    (
                        store.covers(&name, p, Consistency::Weak, now),
                        store.classify(&name, p, Consistency::Weak, now),
                    )
                })
                .collect();
            let rows = serve.state().with_db(|db| {
                db.table(&name)
                    .map(|t| t.rows().iter().cloned().collect())
                    .unwrap_or_default()
            });
            let estimates = grid
                .iter()
                .map(|p| {
                    stats
                        .estimate(&name, p)
                        .expect("market table modelled")
                        .to_bits()
                })
                .collect();
            let state = (probes, store.coverage_fraction(&name), rows, estimates);
            (name.to_string(), state)
        })
        .collect()
}

/// The WHW fixture both restart tests buy from.
fn restart_workload() -> RealWorkload {
    RealWorkload::generate(&WhwConfig {
        stations: 24,
        countries: 4,
        cities_per_country: 3,
        days: 20,
        zips: 40,
        ranks: 100,
        seed: 11,
    })
}

/// Recover `dir` into a `Serve` over `market` (and the local tables of `w`,
/// if any) configured by `cfg`.
fn open_serve(
    dir: &std::path::Path,
    market: &Arc<DataMarket>,
    w: Option<&RealWorkload>,
    cfg: ServeConfig,
) -> (Serve, Arc<DurableStore>) {
    let locals = w.map(RealWorkload::local_tables).unwrap_or_default();
    let build = |store| Serve::with_store(market.clone(), locals, cfg, store);
    recover(dir, PersistConfig::default(), market, build).unwrap()
}

/// Four clients run a seeded mix of all five WHW templates through a
/// durable `Serve`; the server recovered from its log answers every
/// coverage probe as the stopped one did, holds the same mirror rows, and
/// estimates every probe to the same bits — on every seed, whatever order
/// the clients' purchases landed in.
#[test]
fn four_client_restart_recovers_the_stopped_coverage_and_mirror() {
    let w = restart_workload();
    let market = Arc::new(build_market(&w, 10));
    let templates: Vec<usize> = (0..QueryWorkload::templates(&w).len()).collect();
    let cfg = ServeConfig {
        threads: 4,
        ..ServeConfig::default()
    };
    for seed in 0..64u64 {
        let dir = tmpdir("restart");
        let (serve, durable) = open_serve(&dir, &market, Some(&w), cfg.clone());
        let mix = serve_mix(&w, &templates, 4, 32, seed);
        let stmts: Vec<_> = QueryWorkload::templates(&w)
            .iter()
            .map(|sql| serve.prepare(sql).unwrap())
            .collect();
        run_mix(&serve, &mix, &stmts).expect("mix answers");
        assert!(durable.status().last_seq > 0, "seed {seed}: nothing bought");
        let stopped = table_states(&serve);
        drop((serve, durable));

        let (serve, durable) = open_serve(&dir, &market, Some(&w), cfg.clone());
        assert!(durable.status().reconciles(), "seed {seed}");
        assert!(
            table_states(&serve) == stopped,
            "seed {seed}: state differs"
        );
        drop((serve, durable));
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// One client runs a 32-query mix in a mode that records no coverage (no
/// SQR, and the calls-minimizing baseline): every delivery is still logged,
/// so the recovered statistics are bit-equal to the stopped session's and
/// the recovered ledger holds every page the queries paid.
#[test]
fn one_client_non_sqr_restart_recovers_the_statistics_and_the_spend() {
    let w = restart_workload();
    let templates: Vec<usize> = (0..QueryWorkload::templates(&w).len()).collect();
    for mode in [Mode::PayLessNoSqr, Mode::MinCalls] {
        for seed in [1u64, 2] {
            let market = Arc::new(build_market(&w, 10));
            let dir = tmpdir("non-sqr");
            let (serve, durable) = open_serve(&dir, &market, Some(&w), ServeConfig::one_client());
            let stmts: Vec<_> = QueryWorkload::templates(&w)
                .iter()
                .map(|sql| serve.prepare(sql).unwrap())
                .collect();
            let mut paid = 0;
            for item in serve_mix(&w, &templates, 1, 32, seed) {
                let bound = stmts[item.template].bind(&item.params).unwrap();
                let (_, ran, snap) = serve.run(&serve.analyze(&bound).unwrap(), mode, false);
                ran.expect("query answers");
                paid += snap.total_pages();
            }
            assert!(paid > 0, "{mode:?} seed {seed}: nothing bought");
            let stopped = table_states(&serve);
            drop((serve, durable));

            let (serve, durable) = open_serve(&dir, &market, Some(&w), ServeConfig::one_client());
            let status = durable.status();
            assert!(status.reconciles(), "{mode:?} seed {seed}");
            let logged: u64 = status.tables.iter().map(|t| t.ledger_pages).sum();
            assert_eq!(logged, paid, "{mode:?} seed {seed}: pages logged");
            assert!(
                table_states(&serve) == stopped,
                "{mode:?} seed {seed}: state differs"
            );
            drop((serve, durable));
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
