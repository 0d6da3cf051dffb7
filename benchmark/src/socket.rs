//! The end-to-end run: a real `payless-server` child under closed-loop
//! load from [`CONNECTIONS`] keep-alive connections, every answer checked
//! against the in-process serial oracle and every server's billing meter
//! reconciled against the pages its clients were told they paid.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use payless_core::build_market;
use payless_serve::{digest_row_slice, Serve, ServeConfig};
use payless_workload::{QueryWorkload, RealWorkload};

use crate::client::Conn;
use crate::server::ServerProc;
use crate::streams::{round_start, Draws, Instance, Spec, CONNECTIONS, PAGE_SIZE};

/// A hot workload's set-up (spawn + fill) is repeated for a median — the
/// faster a set-up, the noisier one sample of it — but no further set-up
/// starts once this much has been spent on them: the run's total length
/// has a cap, and a fill costs one round trip per pool instance however
/// slow a round trip is.
const SETUP_BUDGET: Duration = Duration::from_secs(5);

/// Answer digest per pool instance, from a fresh in-process serve layer
/// running the pool serially in pool order — the ground truth every
/// socket response is compared with.
pub fn oracle(data: &RealWorkload, pool: &[Instance]) -> Result<Vec<u64>, String> {
    let market = Arc::new(build_market(data, PAGE_SIZE));
    let serve = Serve::new(market, data.local_tables(), ServeConfig::default());
    let templates = data
        .templates()
        .iter()
        .map(|sql| serve.prepare(sql))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("template: {e}"))?;
    pool.iter()
        .map(|i| {
            serve
                .run_query(&templates[i.template], &i.params)
                .map(|(result, _)| digest_row_slice(&result.rows))
                .map_err(|e| format!("oracle query: {e}"))
        })
        .collect()
}

/// What one client (or the fill pass) saw.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    first_error: Option<String>,
    pages: u64,
    coalesce_waits: u64,
    decode: Duration,
    latencies_ns: Vec<u64>,
}

impl Tally {
    /// One request/response exchange, checked. A failure of any kind —
    /// transport, timeout, non-200, wrong digest — counts once and drops
    /// the connection, whose framing can no longer be trusted.
    fn exchange(&mut self, addr: &str, conn: &mut Option<Conn>, inst: &Instance, want: u64) {
        self.attempted += 1;
        let sent = Instant::now();
        let reply = match conn {
            Some(c) => c.send(&inst.request),
            None => Conn::connect(addr).and_then(|mut c| {
                let reply = c.send(&inst.request);
                *conn = Some(c);
                reply
            }),
        };
        let round_trip = sent.elapsed();
        let checked = reply.and_then(|reply| {
            if reply.status != 200 {
                let text = String::from_utf8_lossy(&reply.body);
                return Err(format!("status {}: {}", reply.status, text.trim()));
            }
            let decoding = Instant::now();
            let rows =
                payless_market::decode_rows(&reply.body).map_err(|e| format!("decode: {e}"))?;
            let got = digest_row_slice(&rows);
            self.decode += decoding.elapsed();
            if got != want {
                return Err(format!(
                    "template {} {:?}: digest {got:#x}, oracle {want:#x}",
                    inst.template, inst.params
                ));
            }
            self.pages += reply.header_u64("x-payless-pages");
            self.coalesce_waits += reply.header_u64("x-payless-coalesce-waits");
            Ok(())
        });
        match checked {
            Ok(()) => self.latencies_ns.push(round_trip.as_nanos() as u64),
            Err(e) => {
                self.failed += 1;
                self.first_error.get_or_insert(e);
                *conn = None;
            }
        }
    }

    fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_error.is_none() {
            self.first_error = other.first_error;
        }
        self.pages += other.pages;
        self.coalesce_waits += other.coalesce_waits;
        self.decode += other.decode;
        self.latencies_ns.extend(other.latencies_ns);
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.first_error.get_or_insert(why);
    }
}

/// Everything the socket run measured.
#[derive(Debug, Default)]
pub struct SocketRun {
    /// Requests sent, fill passes included.
    pub attempted: u64,
    /// Requests that failed, plus one per server whose meter did not
    /// reconcile with the pages its clients observed.
    pub failed: u64,
    /// The first failure, for the log.
    pub first_error: Option<String>,
    /// One sample per set-up: server spawn → health (→ fill pass done).
    pub setup_s: Vec<f64>,
    /// `VmHWM` of each measured server before shutdown, MiB.
    pub peak_rss_mib: Vec<f64>,
    /// Length of the measured phase, seconds.
    pub measured_s: f64,
    /// Sorted round trips of the measured phase's good responses, ns.
    pub latencies_ns: Vec<u64>,
    /// Pages billed over the counted segment …
    pub counted_pages: u64,
    /// … and its query count.
    pub counted_queries: u64,
    /// `X-Payless-Coalesce-Waits` summed over the measured phase.
    pub coalesce_waits: u64,
    /// Client time spent decoding and digesting measured responses.
    pub decode: Duration,
    /// Completed rounds (`scan_cold`); 1 for a hot workload.
    pub rounds: u64,
}

/// Check Σ pages the clients observed against the server's meter, read
/// its peak RSS, and shut it down.
fn retire(server: ServerProc, observed_pages: u64, tally: &mut Tally) -> Option<f64> {
    let report = Conn::connect(&server.addr)
        .and_then(|mut c| c.call("GET", "/v1/report"))
        .and_then(|r| {
            let text = String::from_utf8_lossy(&r.body).into_owned();
            payless_json::parse(&text)
                .and_then(|j| j.get("meter_transactions").and_then(|v| v.as_u64()))
                .map_err(|e| format!("/v1/report: {e}"))
        });
    match report {
        Ok(meter) if meter == observed_pages => {}
        Ok(meter) => tally.fail(format!(
            "Σ X-Payless-Pages = {observed_pages} but meter_transactions = {meter}"
        )),
        Err(e) => tally.fail(e),
    }
    let rss = server.peak_rss_mib();
    if let Err(e) = server.shutdown() {
        tally.fail(e);
    }
    match rss {
        Ok(mib) => Some(mib),
        Err(e) => {
            tally.fail(e);
            None
        }
    }
}

/// Run `per_client(c)` on [`CONNECTIONS`] threads, each with its own
/// keep-alive connection opened before the clock starts; returns the
/// clients' tallies and the wall time of the whole phase.
fn load<F>(addr: &str, per_client: F) -> (Vec<Tally>, Duration)
where
    F: Fn(usize, &mut Tally, &mut Option<Conn>) + Sync,
{
    let mut conns: Vec<Option<Conn>> = (0..CONNECTIONS).map(|_| Conn::connect(addr).ok()).collect();
    let started = Instant::now();
    let tallies = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| {
                let per_client = &per_client;
                s.spawn(move || {
                    let mut tally = Tally::default();
                    per_client(c, &mut tally, conn);
                    tally
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    (tallies, started.elapsed())
}

/// The socket run of one workload: set-up (a hot workload's up to
/// `setups` times), `seconds` of measured closed-loop load (a `scan_cold`
/// round in progress always finishes), reconciliation, shutdown.
#[allow(clippy::too_many_arguments)]
pub fn run(
    bin: &Path,
    spec: &Spec,
    pool: &[Instance],
    digests: &[u64],
    seed: u64,
    seconds: u64,
    setups: usize,
    scratch: &Path,
) -> Result<SocketRun, String> {
    let mut run = SocketRun::default();
    let mut total = Tally::default();
    let mut measured = Tally::default();
    let mut spawned = 0usize;
    let mut boot = || -> Result<(ServerProc, Instant), String> {
        spawned += 1;
        let dir = scratch.join(format!("{}-{spawned}", spec.name));
        let started = Instant::now();
        Ok((ServerProc::spawn(bin, spec, &dir)?, started))
    };

    if spec.hot {
        // Set-up: boot, then the fill pass — the pool once, serially, on
        // one connection, from an empty store. Repeated for a median
        // while the budget lasts; the last server is the one measured.
        let setup_began = Instant::now();
        let server = loop {
            let (server, started) = boot()?;
            let mut fill = Tally::default();
            let mut conn = None;
            for (inst, want) in pool.iter().zip(digests) {
                fill.exchange(&server.addr, &mut conn, inst, *want);
            }
            drop(conn);
            run.setup_s.push(started.elapsed().as_secs_f64());
            run.counted_pages = fill.pages;
            run.counted_queries = pool.len() as u64;
            let fill_pages = fill.pages;
            fill.latencies_ns.clear();
            total.absorb(fill);
            if run.setup_s.len() >= setups || setup_began.elapsed() >= SETUP_BUDGET {
                break server;
            }
            retire(server, fill_pages, &mut total);
        };
        let deadline = Instant::now() + Duration::from_secs(seconds);
        let (tallies, wall) = load(&server.addr, |c, tally, conn| {
            let mut draws = Draws::new(spec, pool.len(), seed, c);
            while Instant::now() < deadline {
                let i = draws.next_index();
                tally.exchange(&server.addr, conn, &pool[i], digests[i]);
            }
        });
        run.measured_s = wall.as_secs_f64();
        tallies.into_iter().for_each(|t| measured.absorb(t));
        run.rounds = 1;
        let observed = run.counted_pages + measured.pages;
        run.peak_rss_mib
            .extend(retire(server, observed, &mut total));
    } else {
        // Identical rounds: a fresh server on an empty data directory
        // (its boot is the set-up), then the whole pool once from the
        // seed's starting point, client `c` taking every CONNECTIONS-th
        // instance from the c-th on.
        let mut elapsed = Duration::ZERO;
        while elapsed < Duration::from_secs(seconds) {
            let (server, started) = boot()?;
            run.setup_s.push(started.elapsed().as_secs_f64());
            let start = round_start(pool.len(), seed);
            let (tallies, wall) = load(&server.addr, |c, tally, conn| {
                for k in (c..pool.len()).step_by(CONNECTIONS) {
                    let i = (start + k) % pool.len();
                    tally.exchange(&server.addr, conn, &pool[i], digests[i]);
                }
            });
            elapsed += wall;
            let mut round = Tally::default();
            tallies.into_iter().for_each(|t| round.absorb(t));
            run.rounds += 1;
            run.counted_pages += round.pages;
            run.counted_queries += pool.len() as u64;
            let observed = round.pages;
            measured.absorb(round);
            run.peak_rss_mib
                .extend(retire(server, observed, &mut total));
        }
        run.measured_s = elapsed.as_secs_f64();
    }
    run.coalesce_waits = measured.coalesce_waits;
    run.decode = measured.decode;
    run.latencies_ns = std::mem::take(&mut measured.latencies_ns);
    run.latencies_ns.sort_unstable();
    total.absorb(measured);
    run.attempted = total.attempted;
    run.failed = total.failed;
    run.first_error = total.first_error;
    Ok(run)
}
