//! True client/server end-to-end suite: a [`payless_server::Server`] bound
//! to a real socket (port 0), driven by the socket-level mix driver from
//! `payless_workload::client`, validated against a serial in-process
//! oracle running the identical seeded mix.
//!
//! The market runs at `page_size = 1`, so delivered pages equal delivered
//! records. The server runs Algorithm 1, so the spend equalities below hold
//! on the mixes and seeds this suite and the nightly chaos sweep search,
//! not by construction; answers equal the oracle on every schedule:
//!
//! * every remote query returns the same rows as the serial oracle;
//! * Σ client-observed pages == the server's billing-meter delta == the
//!   oracle's total spend;
//! * the same holds with the server's market chaos-injected: answers equal
//!   the *clean* oracle and delivered (billed minus wasted) pages equal its
//!   total spend;
//! * after a graceful shutdown, a restart on the same data directory
//!   recovers a reconciling store (ledger == meter per table) **with** its
//!   mirror rows, and re-running the identical mix buys zero pages while
//!   still answering exactly like the oracle;
//! * after a *crash* of the real `payless-server` binary — torn WAL frame
//!   (with and without a snapshot before it), either side of the snapshot
//!   rename, or SIGKILL — pages that survived plus pages re-bought equal
//!   what one uninterrupted run buys.
//!
//! The chaos seed, and the mix seed of the crash legs, come from
//! `PAYLESS_FAULT_SEED` (default 48879, as in tests/fault_matrix.rs); the
//! nightly CI job re-runs this suite at other seeds.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use payless_core::build_market;
use payless_json::Json;
use payless_serve::{digest_row_slice, Serve, ServeConfig};
use payless_server::persist::PersistConfig;
use payless_server::{Server, ServerConfig};
use payless_workload::client::{drive_mix, get_text, shutdown, RemoteOutcome};
use payless_workload::{serve_mix, MixItem, QueryWorkload, RealWorkload, WhwConfig};

/// Must match [`ServerConfig::default`]'s scale: oracle and server have to
/// generate byte-identical WHW data for digest parity.
const SCALE: f64 = 0.02;

/// The two single-table WHW templates, as in tests/serve_concurrency.rs.
const TEMPLATES: [usize; 2] = [0, 1];

static CASE: AtomicUsize = AtomicUsize::new(0);

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "payless-e2e-{tag}-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn report(addr: &str) -> Json {
    let text = get_text(addr, "/v1/report").expect("GET /v1/report");
    payless_json::parse(&text).expect("report is JSON")
}

fn meter_transactions(addr: &str) -> u64 {
    report(addr)
        .get("meter_transactions")
        .and_then(|v| v.as_u64())
        .expect("meter_transactions")
}

fn store_json(addr: &str) -> Json {
    let text = get_text(addr, "/v1/store").expect("GET /v1/store");
    payless_json::parse(&text).expect("store status is JSON")
}

/// Σ per-table ledger pages of a durable server, after checking that every
/// table reconciles: its ledger equals the meter the WAL recorded.
fn reconciled_ledger_pages(status: &Json) -> u64 {
    assert!(status.get("durable").and_then(|v| v.as_bool()).unwrap());
    let mut total = 0;
    for t in status.get("tables").and_then(|v| v.as_arr()).unwrap() {
        let ledger = t.get("ledger_pages").and_then(|v| v.as_u64()).unwrap();
        let meter = t.get("meter_pages").and_then(|v| v.as_u64()).unwrap();
        assert_eq!(
            ledger, meter,
            "a table's ledger and meter differ: a page was double-counted or lost"
        );
        total += ledger;
    }
    total
}

// A test seed is not configuration of the program under test.
#[allow(clippy::disallowed_methods)]
fn fault_seed() -> u64 {
    std::env::var("PAYLESS_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xBEEF)
}

/// Boot a server and hand back its address plus the join handle running
/// the accept loop.
fn boot(cfg: ServerConfig) -> (String, std::thread::JoinHandle<Result<(), String>>) {
    let server = Server::start(cfg).expect("server boots");
    let addr = server.addr().to_string();
    let handle = std::thread::spawn(move || server.run());
    (addr, handle)
}

struct Oracle {
    digests: Vec<u64>,
    total_pages: u64,
}

/// Run `mix` serially, in submission order, on a fresh in-process serve
/// layer over an identical market — the ground truth for both answers and
/// total spend.
fn serial_oracle(mix: &[MixItem]) -> Oracle {
    let w = RealWorkload::generate(&WhwConfig::scaled(SCALE));
    let market = Arc::new(build_market(&w, 1));
    let serve = Serve::new(
        Arc::clone(&market),
        QueryWorkload::local_tables(&w),
        ServeConfig::default(),
    );
    let templates: Vec<_> = QueryWorkload::templates(&w)
        .iter()
        .map(|sql| serve.prepare(sql).expect("workload templates parse"))
        .collect();
    let digests = mix
        .iter()
        .map(|item| {
            let (result, _) = serve
                .run_query(&templates[item.template], &item.params)
                .expect("oracle query answers");
            digest_row_slice(&result.rows)
        })
        .collect();
    Oracle {
        digests,
        total_pages: market.bill().transactions(),
    }
}

fn seeded_mix(clients: usize, queries: usize, seed: u64) -> Vec<MixItem> {
    let w = RealWorkload::generate(&WhwConfig::scaled(SCALE));
    serve_mix(&w, &TEMPLATES, clients, queries, seed)
}

fn assert_matches_oracle(outcomes: &[RemoteOutcome], oracle: &Oracle) {
    assert_eq!(outcomes.len(), oracle.digests.len());
    for (i, (o, want)) in outcomes.iter().zip(&oracle.digests).enumerate() {
        assert_eq!(
            digest_row_slice(&o.rows),
            *want,
            "query {i}: remote rows differ from the serial oracle"
        );
    }
}

#[test]
fn concurrent_remote_mix_matches_serial_oracle_and_reconciles() {
    let mix = seeded_mix(3, 12, 7);
    let oracle = serial_oracle(&mix);

    // Clean, then with the market chaos-injected (the server then retries
    // without limit): faults may add wasted spend, never change an answer
    // or what is delivered.
    for chaos in [None, Some(fault_seed())] {
        let (addr, handle) = boot(ServerConfig {
            fault_seed: chaos,
            ..ServerConfig::default()
        });
        let before = meter_transactions(&addr);
        assert_eq!(before, 0, "fresh server has an untouched meter");
        let outcomes = drive_mix(&addr, &mix, 4).expect("remote drive succeeds");
        let delta = meter_transactions(&addr) - before;

        // `X-Payless-Pages` is everything billed to the query, wasted
        // pages included.
        let billed: u64 = outcomes.iter().map(|o| o.spend.pages).sum();
        let wasted: u64 = outcomes.iter().map(|o| o.spend.wasted_pages).sum();
        assert_eq!(
            billed, delta,
            "Σ client-observed pages must equal the server's meter delta \
             (fault seed {chaos:?})"
        );
        if chaos.is_none() {
            assert_eq!(wasted, 0, "a clean run wastes nothing");
        }
        assert_matches_oracle(&outcomes, &oracle);
        assert_eq!(
            billed - wasted,
            oracle.total_pages,
            "remote delivered spend must equal the serial oracle's \
             (fault seed {chaos:?})"
        );

        shutdown(&addr).expect("graceful shutdown");
        handle.join().expect("server thread").expect("clean exit");
    }
}

#[test]
fn durable_restart_recovers_store_and_rebuys_nothing() {
    let dir = tmpdir("restart");
    let durable_cfg = || ServerConfig {
        data_dir: Some(dir.clone()),
        persist: PersistConfig {
            // Force mid-run snapshots so the restart exercises
            // snapshot + log replay together, not just one of them.
            snapshot_every: 4,
            ..PersistConfig::default()
        },
        ..ServerConfig::default()
    };
    let mix = seeded_mix(3, 12, 11);
    let oracle = serial_oracle(&mix);

    let (addr, handle) = boot(durable_cfg());
    let first = drive_mix(&addr, &mix, 4).expect("first drive succeeds");
    let spent = meter_transactions(&addr);
    assert_matches_oracle(&first, &oracle);
    assert_eq!(spent, oracle.total_pages);
    shutdown(&addr).expect("graceful shutdown");
    handle.join().expect("server thread").expect("clean exit");

    // Restart on the same data directory: a *fresh* market (meter at 0)
    // but the recovered store + mirror. Re-running the identical mix must
    // answer correctly from local state without buying a single page.
    let (addr, handle) = boot(durable_cfg());
    let status = store_json(&addr);
    let recovered_rows = status
        .get("recovery")
        .and_then(|r| r.get("mirror_rows"))
        .and_then(|v| v.as_u64())
        .expect("recovery.mirror_rows");
    assert!(recovered_rows > 0, "restart must recover the mirror rows");
    assert_eq!(reconciled_ledger_pages(&status), oracle.total_pages);

    let again = drive_mix(&addr, &mix, 4).expect("re-drive succeeds");
    assert_matches_oracle(&again, &oracle);
    assert_eq!(
        meter_transactions(&addr),
        0,
        "every page was already purchased before the restart"
    );
    shutdown(&addr).expect("graceful shutdown");
    handle.join().expect("server thread").expect("clean exit");
    let _ = std::fs::remove_dir_all(&dir);
}

/// How long a `payless-server` child gets to write its address, or to exit
/// once it has been told (or rigged) to.
const CHILD_DEADLINE: Duration = Duration::from_secs(20);

/// A `payless-server` child process on port 0. Dropping it kills and reaps
/// the process, so a failed assertion never leaks a server.
struct ChildServer {
    child: Child,
    addr: String,
}

impl ChildServer {
    /// Start the real binary, durable on `dir/data`, with `knobs` as extra
    /// environment and stderr in `dir/server.log`; `addr` is still empty.
    /// Inherited `PAYLESS_*` variables are dropped: the nightly sweep sets
    /// `PAYLESS_FAULT_SEED` for this suite, not for the servers it boots.
    // Scrubbing the child's environment has to enumerate the parent's.
    #[allow(clippy::disallowed_methods)]
    fn launch(dir: &Path, knobs: &[(&str, &str)]) -> ChildServer {
        let addr_file = dir.join("addr");
        let _ = std::fs::remove_file(&addr_file);
        let log = std::fs::File::create(dir.join("server.log")).expect("create server log");
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_payless-server"));
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("PAYLESS_") {
                cmd.env_remove(key);
            }
        }
        let child = cmd
            .env("PAYLESS_LISTEN", "127.0.0.1:0")
            .env("PAYLESS_ADDR_FILE", &addr_file)
            .env("PAYLESS_DATA_DIR", dir.join("data"))
            .envs(knobs.iter().copied())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .expect("spawn payless-server");
        ChildServer {
            child,
            addr: String::new(),
        }
    }

    /// [`ChildServer::launch`], then wait for the address it bound.
    fn spawn(dir: &Path, knobs: &[(&str, &str)]) -> ChildServer {
        let mut server = ChildServer::launch(dir, knobs);
        let addr_file = dir.join("addr");
        let deadline = Instant::now() + CHILD_DEADLINE;
        while server.addr.is_empty() {
            if let Some(status) = server.child.try_wait().expect("poll payless-server") {
                panic!("payless-server exited before binding: {status}");
            }
            assert!(
                Instant::now() < deadline,
                "payless-server never wrote {addr_file:?}"
            );
            std::thread::sleep(Duration::from_millis(5));
            server.addr = std::fs::read_to_string(&addr_file).unwrap_or_default();
        }
        server
    }

    /// Wait for the process to exit on its own: a crash knob firing, or a
    /// graceful shutdown draining.
    fn wait_exit(&mut self) -> ExitStatus {
        let deadline = Instant::now() + CHILD_DEADLINE;
        loop {
            if let Some(status) = self.child.try_wait().expect("poll payless-server") {
                return status;
            }
            assert!(Instant::now() < deadline, "payless-server is still running");
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for ChildServer {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// A knob that is set but unparseable stops the binary before it binds
/// (exit 2, the variable named on stderr) — a crash leg whose
/// `PAYLESS_CRASH_AFTER` did not parse would otherwise pass vacuously.
#[test]
fn malformed_knob_is_a_startup_error() {
    let dir = tmpdir("malformed-knob");
    std::fs::create_dir_all(&dir).expect("create test directory");
    let mut server = ChildServer::launch(&dir, &[("PAYLESS_PAGE", "abc")]);
    let status = server.wait_exit();
    let log = std::fs::read_to_string(dir.join("server.log")).expect("server log");
    assert_eq!(status.code(), Some(2), "exit {status}, log: {log}");
    assert!(log.contains("PAYLESS_PAGE=abc"), "log: {log}");
    assert!(!dir.join("addr").exists(), "the server must not have bound");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crash-injection environment for the `payless-server` binary.
type CrashKnobs = &'static [(&'static str, &'static str)];

/// Crash the durable server mid-mix, restart it on the same directory and
/// re-drive the whole mix: what survived plus what is re-bought must be
/// exactly what one uninterrupted run buys. Over-buy means a recovered page
/// was billed twice; under-buy means the recovered store claims coverage it
/// never paid for.
#[test]
fn crashed_server_recovers_and_rebuys_exactly_the_lost_pages() {
    let mix = seeded_mix(4, 24, fault_seed());
    let oracle = serial_oracle(&mix);

    // An empty knob set means the test SIGKILLs the server from outside.
    let legs: [(&str, CrashKnobs); 5] = [
        // A WAL frame torn halfway: the tail must be cut, never counted.
        ("mid-append", &[("PAYLESS_CRASH_AFTER", "5")]),
        // The same tear after a snapshot: rows bought before it can only
        // come back from mirror.log. (A 24-query mix makes 6-8 appends.)
        (
            "after-snapshot",
            &[
                ("PAYLESS_SNAPSHOT_EVERY", "2"),
                ("PAYLESS_CRASH_AFTER", "5"),
            ],
        ),
        // Snapshot written, not yet renamed over the old one.
        (
            "pre-rename",
            &[
                ("PAYLESS_SNAPSHOT_EVERY", "4"),
                ("PAYLESS_CRASH_IN_SNAPSHOT", "1"),
            ],
        ),
        // Snapshot renamed, WAL not yet truncated: every logged record is
        // also in the snapshot and must not be applied twice.
        (
            "pre-truncate",
            &[
                ("PAYLESS_SNAPSHOT_EVERY", "4"),
                ("PAYLESS_CRASH_IN_SNAPSHOT", "2"),
            ],
        ),
        ("sigkill", &[]),
    ];
    for (leg, knobs) in legs {
        let dir = tmpdir(leg);
        std::fs::create_dir_all(&dir).expect("create leg directory");

        let mut first = ChildServer::spawn(&dir, knobs);
        let drive = std::thread::scope(|s| {
            let drive = s.spawn(|| drive_mix(&first.addr, &mix, 4));
            if knobs.is_empty() {
                // Kill as soon as anything durable has been written.
                let wal = dir.join("data/wal.log");
                let snapshot = dir.join("data/snapshot.json");
                let deadline = Instant::now() + CHILD_DEADLINE;
                while !(wal.metadata().is_ok_and(|m| m.len() > 0) || snapshot.exists()) {
                    assert!(Instant::now() < deadline, "{leg}: nothing was ever logged");
                    std::thread::sleep(Duration::from_millis(1));
                }
                first.child.kill().expect("SIGKILL payless-server");
            }
            drive.join().expect("drive thread")
        });
        let crashed = first.wait_exit();
        assert!(
            !crashed.success(),
            "{leg}: the first server was meant to crash, but exited with {crashed}"
        );
        if leg == "after-snapshot" {
            assert!(
                dir.join("data/snapshot.json").exists(),
                "{leg}: no snapshot was taken before the crash"
            );
        }
        if !knobs.is_empty() {
            // A rigged crash is mid-mix: the fifth append belongs to a query
            // that never hears back, and the snapshotter is woken by the
            // fourth append and dies holding the lock every later purchase
            // needs. A drive that got all 24 answers raced past the crash
            // and left nothing torn to recover.
            assert!(
                drive.is_err(),
                "{leg}: the server was meant to die under the drive, but it finished"
            );
        }

        let mut second = ChildServer::spawn(&dir, &[]);
        let recovered = reconciled_ledger_pages(&store_json(&second.addr));
        if !knobs.is_empty() {
            assert!(
                recovered > 0,
                "{leg}: four whole appends were logged before the crash"
            );
        }
        let outcomes = drive_mix(&second.addr, &mix, 4).expect("re-drive succeeds");
        // The restarted process has a fresh market, so its meter is the
        // re-drive's spend.
        let rebought = meter_transactions(&second.addr);
        assert_matches_oracle(&outcomes, &oracle);
        assert_eq!(
            outcomes.iter().map(|o| o.spend.pages).sum::<u64>(),
            rebought,
            "{leg}: Σ client-observed pages must equal the meter"
        );
        assert_eq!(
            recovered + rebought,
            oracle.total_pages,
            "{leg}: {recovered} page(s) survived the crash + {rebought} re-bought \
             != what an uninterrupted run buys"
        );
        assert_eq!(
            reconciled_ledger_pages(&store_json(&second.addr)),
            oracle.total_pages,
            "{leg}: final ledger"
        );
        shutdown(&second.addr).expect("graceful shutdown");
        let drained = second.wait_exit();
        assert!(drained.success(), "{leg}: graceful exit, got {drained}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
