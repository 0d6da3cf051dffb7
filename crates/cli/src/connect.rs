//! `--connect`: drive the deterministic serve mix against a running
//! `payless-server` over real sockets, then build the same reconciled
//! [`ServeReport`] the in-process driver builds — so a `--serve-out` dump
//! of a true client/server run compares field for field with an
//! in-process one.
//!
//! The client regenerates the workload locally (same scale → same market
//! data and mix parameters), replays the pinned mix with K client threads
//! over connection-per-request HTTP, digests the decoded wire rows, and
//! reconciles Σ per-query pages against the server's billing-meter delta
//! fetched from `/v1/report` before and after the drive.

use payless_json::{Json, ToJson};
use payless_serve::{digest_row_slice, QueryRow, ServeReport};
use payless_workload::client::{drive_mix, get_text, shutdown};
use payless_workload::{serve_mix, RealWorkload, WhwConfig};

use crate::app::write_artifact;
use crate::args::{CliArgs, WorkloadKind};

/// Billing-meter totals parsed off `/v1/report`.
struct MeterView {
    calls: u64,
    transactions: u64,
    records: u64,
}

fn get_json(addr: &str, path: &str) -> Result<Json, String> {
    let text = get_text(addr, path)?;
    payless_json::parse(&text).map_err(|e| format!("GET {path}: bad JSON: {e}"))
}

fn meter_view(report: &Json) -> Result<MeterView, String> {
    let field = |name: &str| -> Result<u64, String> {
        report
            .get(name)
            .and_then(|v| v.as_u64())
            .map_err(|e| format!("/v1/report {name}: {e}"))
    };
    Ok(MeterView {
        calls: field("meter_calls")?,
        transactions: field("meter_transactions")?,
        records: field("meter_records")?,
    })
}

/// Poll `/v1/health` until the server answers (or ~10 s elapse) — absorbs
/// the startup race when a script backgrounds the server and immediately
/// drives it.
fn wait_ready(addr: &str) -> Result<(), String> {
    let mut last = String::new();
    for _ in 0..200 {
        match get_text(addr, "/v1/health") {
            Ok(_) => return Ok(()),
            Err(e) => last = e,
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    Err(format!("server at {addr} never became healthy: {last}"))
}

/// Run `--connect`: probe or drive, write artifacts, render a summary.
pub fn run_connect(args: &CliArgs) -> Result<String, String> {
    if args.workload != WorkloadKind::Whw {
        return Err("--connect currently supports --workload whw only".into());
    }
    let addr = args.connect.as_deref().expect("dispatched on --connect");
    wait_ready(addr)?;
    let report_before = get_json(addr, "/v1/report")?;
    let meter_before = meter_view(&report_before)?;

    use std::fmt::Write as _;
    let mut out = String::new();

    if !args.probe {
        let clients = args.clients.unwrap_or(4) as usize;
        let queries = args.queries.unwrap_or(24) as usize;
        let seed = args.seed.unwrap_or(48879);
        // Client threads: `--serve N` (the same flag that sets worker
        // threads in-process), defaulting to one thread per client.
        let threads = args.serve_threads.unwrap_or(clients as u64) as usize;
        let server_page = report_before
            .get("page_size")
            .and_then(|v| v.as_u64())
            .map_err(|e| format!("/v1/report page_size: {e}"))?;

        let w = RealWorkload::generate(&WhwConfig::scaled(args.scale));
        let mix = serve_mix(&w, &[0, 1], clients, queries, seed);
        let outcomes = drive_mix(addr, &mix, threads)?;

        let report_after = get_json(addr, "/v1/report")?;
        let meter_after = meter_view(&report_after)?;
        let coalesce = report_after
            .get("coalesce")
            .and_then(|v| v.as_bool())
            .unwrap_or(true);
        let fault_seed = report_after
            .get_opt("fault_seed")
            .and_then(|v| v.as_u64().ok());

        let per_query: Vec<QueryRow> = mix
            .iter()
            .zip(&outcomes)
            .map(|(item, o)| QueryRow {
                query_id: o.query_id,
                client: item.client as u64,
                template: item.template as u64,
                digest: digest_row_slice(&o.rows),
                rows: o.rows.len() as u64,
                spend: o.spend,
                wall_nanos: o.wall_nanos,
            })
            .collect();

        let report = ServeReport {
            seed,
            clients: clients as u64,
            threads: threads as u64,
            page_size: server_page,
            coalesce,
            fault_seed,
            ..ServeReport::from_rows(
                per_query,
                (
                    meter_after.calls - meter_before.calls,
                    meter_after.transactions - meter_before.transactions,
                    meter_after.records - meter_before.records,
                ),
            )
        };

        // The invariant every PR defends, now across a socket: the sum of
        // what clients were told they spent must equal what the seller's
        // meter says they spent.
        if report.total_pages != report.meter_transactions {
            return Err(format!(
                "remote reconciliation failed: Σ per-query pages {} != meter transaction delta {}",
                report.total_pages, report.meter_transactions
            ));
        }

        if let Some(path) = &args.serve_out {
            write_artifact(path, &report.to_json().to_string_pretty())?;
        }
        let _ = writeln!(
            out,
            "connect: {} queries x {} clients against {} on {} client thread(s), seed {}{}",
            report.queries,
            report.clients,
            addr,
            report.threads,
            report.seed,
            match report.fault_seed {
                Some(fs) => format!(", fault seed {fs}"),
                None => String::new(),
            },
        );
        let _ = writeln!(
            out,
            "  spend: {} pages ({} wasted), {} records, ${:.4}",
            report.total_pages, report.wasted_pages, report.total_records, report.total_price
        );
        let _ = writeln!(
            out,
            "  reconciled: Σ client-reported pages == meter delta at {} transaction(s), {} call(s)",
            report.meter_transactions, report.meter_calls
        );
    } else {
        let _ = writeln!(
            out,
            "probe: {} serving {} template(s), {} queries so far, meter at {} transaction(s)",
            addr,
            report_before
                .get("templates")
                .and_then(|v| v.as_u64())
                .unwrap_or(0),
            report_before
                .get("queries_served")
                .and_then(|v| v.as_u64())
                .unwrap_or(0),
            meter_before.transactions,
        );
    }

    if let Some(path) = &args.store_out {
        let store = get_json(addr, "/v1/store")?;
        write_artifact(path, &store.to_string_pretty())?;
        let durable = store
            .get("durable")
            .and_then(|v| v.as_bool())
            .unwrap_or(false);
        let _ = writeln!(
            out,
            "  store status ({}durable) -> {path}",
            if durable { "" } else { "not " }
        );
    }
    if args.shutdown_after {
        shutdown(addr)?;
        let _ = writeln!(out, "  server at {addr} asked to shut down");
    }
    let _ = writeln!(out, "connect: ok");
    Ok(out.trim_end().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use payless_server::{Server, ServerConfig};
    use payless_workload::client::request;

    #[test]
    fn probe_against_nothing_fails_fast_with_context() {
        let args = CliArgs {
            connect: Some("127.0.0.1:1".into()),
            probe: true,
            ..CliArgs::default()
        };
        // Port 1 is unbound; wait_ready's first failure path must carry
        // the address. Shorten the wait by hitting request() directly.
        let err = request("127.0.0.1:1", "GET", "/v1/health", None).unwrap_err();
        assert!(err.contains("connect"), "{err}");
        let _ = args;
    }

    #[test]
    fn drive_reconciles_against_a_live_server_and_shuts_it_down() {
        let server = Server::start(ServerConfig::default()).expect("server boots");
        let addr = server.addr().to_string();
        let accept_loop = std::thread::spawn(move || server.run());

        let dir = std::env::temp_dir().join(format!("payless-connect-test-{}", std::process::id()));
        let serve_out = dir.join("remote.json");
        let store_out = dir.join("store.json");
        let out = run_connect(&CliArgs {
            connect: Some(addr.clone()),
            // `ServerConfig::default` generates WHW at this scale too; the
            // client regenerates the data to draw the same mix parameters.
            scale: 0.02,
            serve_threads: Some(4),
            serve_out: Some(serve_out.to_string_lossy().into_owned()),
            store_out: Some(store_out.to_string_lossy().into_owned()),
            shutdown_after: true,
            ..CliArgs::default()
        })
        .expect("drive reconciles");
        assert!(out.contains("24 queries x 4 clients"), "{out}");
        assert!(out.contains("reconciled: "), "{out}");
        assert!(out.ends_with("connect: ok"), "{out}");

        let report =
            payless_json::parse(&std::fs::read_to_string(&serve_out).unwrap()).expect("report");
        let field = |name: &str| report.get(name).unwrap().as_u64().unwrap();
        assert_eq!(field("queries"), 24);
        assert_eq!(field("threads"), 4);
        assert!(field("total_pages") > 0, "a fresh store has to buy");
        assert_eq!(field("total_pages"), field("meter_transactions"));
        let store =
            payless_json::parse(&std::fs::read_to_string(&store_out).unwrap()).expect("store");
        assert!(!store.get("durable").unwrap().as_bool().unwrap());

        // `--shutdown-after` must have stopped the accept loop.
        accept_loop
            .join()
            .expect("server thread")
            .expect("clean exit");
        std::fs::remove_dir_all(&dir).ok();
    }
}
