//! Durability suite for the server's two append-only logs: `wal.log`
//! (spend records) and `mirror.log` (the purchased rows).
//!
//! The central property: **any byte-prefix truncation** of the write-ahead
//! log — a crash can tear the tail anywhere, not just on a frame boundary —
//! recovers to a store whose summed ledger reconciles with the recorded
//! absolute meter, covering exactly the purchases whose frames survived.
//! The same holds frame-wise for the mirror log. Across a crash torn
//! anywhere inside the last purchase, every region the recovered store
//! covers has all its rows. And since neither log is ever compacted, both
//! stay bounded by what was bought: under re-buys of stored rows
//! `mirror.log` holds each distinct row once and `wal.log` one frame per
//! spend record. The store keeps every purchase too, so its view index is
//! bounded the same way: at most one view per logged purchase.
//!
//! Restart: four clients buy through a durable `Serve`; the server
//! recovered from its two logs covers exactly what the stopped one covered
//! and holds exactly its mirror rows. Coverage is the union of every
//! logged region, whatever order concurrent clients appended them in.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use payless_geometry::{Interval, QuerySpace, Region};
use payless_semantic::{Consistency, CoverClass, SemanticStore, SharedSemanticStore};
use payless_serve::{run_mix, Serve, ServeConfig};
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

mod props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Chop the WAL at an arbitrary byte and recover: the store must
        /// reconcile, replay exactly the fully-framed prefix, and cover
        /// exactly those purchases — never a region whose record was lost.
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
                    durable.append("T", &r(i), i as u64 + 1, spend);
                }
            }
            let path = dir.join("wal.log");
            let bytes = std::fs::read(&path).unwrap();
            let cut = (bytes.len() as f64 * frac) as usize;
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let surviving = scan_frames(&bytes[..cut]).0.len();

            let (durable, store, _) = DurableStore::open(&dir, cfg, &[space()]).unwrap();
            let status = durable.status();
            prop_assert!(status.reconciles());
            prop_assert_eq!(status.recovery.replayed, surviving as u64);
            let expected: u64 = spends[..surviving].iter().sum();
            let total: u64 = status.tables.iter().map(|t| t.ledger_pages).sum();
            prop_assert_eq!(total, expected);
            let now = appends as u64 + 1;
            for i in 0..appends {
                prop_assert_eq!(
                    store.covers("T", &r(i), Consistency::Weak, now),
                    i < surviving,
                    "purchase {} vs truncation at byte {}",
                    i,
                    cut
                );
            }
            let _ = std::fs::remove_dir_all(&dir);
        }

        /// Same property for the mirror log: recovery yields exactly the
        /// rows of the fully-framed prefix, in append order.
        #[test]
        fn any_mirror_prefix_truncation_recovers_surviving_frames(
            frames in 1usize..8,
            frac in 0.0f64..1.0,
        ) {
            let dir = tmpdir("mirror-prefix");
            let cfg = PersistConfig::default();
            let frame_rows: Vec<Vec<Row>> = (0..frames)
                .map(|i| vec![row!(10 * i as i64), row!(10 * i as i64 + 1)])
                .collect();
            {
                let (durable, _, _) = DurableStore::open(&dir, cfg, &[space()]).unwrap();
                for rows in &frame_rows {
                    durable.append_rows("T", rows);
                }
            }
            let path = dir.join("mirror.log");
            let bytes = std::fs::read(&path).unwrap();
            let cut = (bytes.len() as f64 * frac) as usize;
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let surviving = scan_frames(&bytes[..cut]).0.len();

            let (durable, _, recovered) = DurableStore::open(&dir, cfg, &[space()]).unwrap();
            let expected: Vec<Row> = frame_rows[..surviving].concat();
            let got: Vec<Row> = recovered.into_iter().flat_map(|(_, rows)| rows).collect();
            prop_assert_eq!(got, expected);
            prop_assert_eq!(durable.recovery().mirror_rows, 2 * surviving as u64);
            let _ = std::fs::remove_dir_all(&dir);
        }

        /// Disjoint purchases written the way `land_delivery` writes them
        /// (rows, then the spend through the attached store) and a crash torn
        /// at any byte of the last purchase's writes: the ledger reconciles,
        /// every earlier purchase is covered, the last one only if its spend
        /// record survived whole, and every covered purchase has all its
        /// rows.
        #[test]
        fn covered_purchases_keep_their_rows_across_crashes(
            purchases in proptest::collection::vec(1usize..6, 1..8),
            frac in 0.0f64..1.0,
        ) {
            let dir = tmpdir("coverage-rows");
            let cfg = PersistConfig::default();
            let wal = dir.join("wal.log");
            let mirror = dir.join("mirror.log");
            let len = |p: &std::path::Path| std::fs::metadata(p).unwrap().len();
            let rows_of = |i: usize, n: usize| -> Vec<Row> {
                (0..n).map(|j| row!(10 * i as i64 + j as i64)).collect()
            };
            let last = purchases.len() - 1;
            let (before, after) = {
                let (durable, _, _) = DurableStore::open(&dir, cfg, &[space()]).unwrap();
                let durable = Arc::new(durable);
                let mut base = SemanticStore::new();
                base.register(space());
                let shared = SharedSemanticStore::new(base);
                durable.attach(&shared);
                for (i, &n) in purchases[..last].iter().enumerate() {
                    durable.append_rows("T", &rows_of(i, n));
                    shared.record_spend("T", r(i), i as u64 + 1, n as u64);
                }
                let before = (len(&mirror), len(&wal));
                durable.append_rows("T", &rows_of(last, purchases[last]));
                shared.record_spend("T", r(last), last as u64 + 1, purchases[last] as u64);
                (before, (len(&mirror), len(&wal)))
            };
            // The last purchase wrote its mirror frame, then its WAL frame;
            // keep the first `cut` of those bytes (all of them included).
            let (mirror_n, wal_n) = (after.0 - before.0, after.1 - before.1);
            let cut = ((mirror_n + wal_n + 1) as f64 * frac) as u64;
            let keep_mirror = before.0 + cut.min(mirror_n);
            let keep_wal = before.1 + cut.saturating_sub(mirror_n);
            for (path, keep) in [(&mirror, keep_mirror), (&wal, keep_wal)] {
                let bytes = std::fs::read(path).unwrap();
                std::fs::write(path, &bytes[..keep as usize]).unwrap();
            }

            let (durable, store, recovered) = DurableStore::open(&dir, cfg, &[space()]).unwrap();
            prop_assert!(durable.status().reconciles());
            let rows: HashSet<Row> = recovered.into_iter().flat_map(|(_, rows)| rows).collect();
            let now = purchases.len() as u64 + 1;
            for (i, &n) in purchases.iter().enumerate() {
                let covered = store.covers("T", &r(i), Consistency::Weak, now);
                prop_assert_eq!(covered, i < last || keep_wal == after.1, "purchase {}", i);
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
        /// a remainder may re-buy rows the mirror holds, yet `mirror.log`
        /// holds each distinct row once — at most Σ distinct rows × the
        /// largest encoded row, plus one frame's overhead per delivery that
        /// added rows — and `wal.log` holds exactly `last_seq` frames, at
        /// least one per stored view. The same statements run a second time
        /// buy nothing.
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
            let build = |store| {
                Serve::with_store(market.clone(), w.local_tables(), ServeConfig::default(), store)
            };
            let (serve, durable) =
                recover(&dir, PersistConfig::default(), &market, build).unwrap();
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

            let wal = std::fs::read(dir.join("wal.log")).unwrap();
            let (wal_frames, _) = scan_frames(&wal);
            prop_assert_eq!(wal_frames.len() as u64, durable.status().last_seq);
            let views = serve.state().store().view_count("Weather") as u64;
            prop_assert!(views <= durable.status().last_seq, "{} views", views);

            drop((serve, durable));
            let mirror = std::fs::read(dir.join("mirror.log")).unwrap();
            let (mirror_frames, _) = scan_frames(&mirror);
            let spaces: Vec<QuerySpace> = market
                .table_names()
                .iter()
                .map(|name| QuerySpace::of(market.schema(name).unwrap()))
                .collect();
            let (_, _, recovered) =
                DurableStore::open(&dir, PersistConfig::default(), &spaces).unwrap();
            let rows: Vec<Row> = recovered.into_iter().flat_map(|(_, rows)| rows).collect();
            let distinct: HashSet<&Row> = rows.iter().collect();
            prop_assert_eq!(distinct.len(), rows.len(), "a row was logged twice");
            let empty = payless_market::encode_rows(&[]).len();
            let widest = rows
                .iter()
                .map(|row| payless_market::encode_rows(std::slice::from_ref(row)).len() - empty)
                .max()
                .unwrap_or(0);
            let frame_overhead = 8 + 2 + "Weather".len() + empty;
            prop_assert!(mirror_frames.len() <= wal_frames.len());
            prop_assert!(
                mirror.len() <= distinct.len() * widest + mirror_frames.len() * frame_overhead,
                "mirror.log is {} bytes for {} distinct rows in {} frames",
                mirror.len(),
                distinct.len(),
                mirror_frames.len()
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
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
/// of every probe under `Weak`, the covered fraction, and the mirror rows.
type TableState = (Vec<(bool, CoverClass)>, f64, HashSet<Row>);

fn table_states(serve: &Serve) -> Vec<(String, TableState)> {
    let store = serve.state().store();
    let now = serve.now() + 1;
    serve
        .market()
        .table_names()
        .into_iter()
        .map(|name| {
            let space = store.space(&name).expect("market table registered");
            let probes = probe_grid(&space)
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
            let state = (probes, store.coverage_fraction(&name), rows);
            (name.to_string(), state)
        })
        .collect()
}

/// Four clients run a seeded mix of all five WHW templates through a
/// durable `Serve`; the server recovered from its logs answers every
/// coverage probe as the stopped one did and holds the same mirror rows.
#[test]
fn four_client_restart_recovers_the_stopped_coverage_and_mirror() {
    let w = RealWorkload::generate(&WhwConfig {
        stations: 24,
        countries: 4,
        cities_per_country: 3,
        days: 20,
        zips: 40,
        ranks: 100,
        seed: 11,
    });
    let market = Arc::new(build_market(&w, 10));
    let templates: Vec<usize> = (0..QueryWorkload::templates(&w).len()).collect();
    for seed in [48879u64, 7, 20177, 31337] {
        let dir = tmpdir("restart");
        let open = || {
            let build = |store| {
                let cfg = ServeConfig {
                    threads: 4,
                    ..ServeConfig::default()
                };
                Serve::with_store(market.clone(), w.local_tables(), cfg, store)
            };
            recover(&dir, PersistConfig::default(), &market, build).unwrap()
        };
        let (serve, durable) = open();
        let mix = serve_mix(&w, &templates, 4, 32, seed);
        let stmts: Vec<_> = QueryWorkload::templates(&w)
            .iter()
            .map(|sql| serve.prepare(sql).unwrap())
            .collect();
        run_mix(&serve, &mix, &stmts).expect("mix answers");
        assert!(durable.status().last_seq > 0, "seed {seed}: nothing bought");
        let stopped = table_states(&serve);
        drop((serve, durable));

        let (serve, durable) = open();
        assert!(durable.status().reconciles(), "seed {seed}");
        assert_eq!(table_states(&serve), stopped, "seed {seed}");
        drop((serve, durable));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
