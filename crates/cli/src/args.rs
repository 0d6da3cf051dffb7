//! Hand-rolled argument parsing (no external CLI crates).

use payless_core::Mode;

/// Which demo workload backs the session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadKind {
    /// Synthetic WHW/EHR weather data (the paper's "real data").
    Whw,
    /// TPC-H shaped, uniform values.
    Tpch,
    /// TPC-H shaped, zipf(1) skew.
    TpchSkew,
    /// Quote-reseller data with a mandatory-bound Symbol attribute.
    Finance,
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct CliArgs {
    /// Backing workload.
    pub workload: WorkloadKind,
    /// Generator scale.
    pub scale: f64,
    /// Tuples per transaction.
    pub page_size: u64,
    /// System variant.
    pub mode: Mode,
    /// Data directory the session lives in (its log, `wal.log`):
    /// replayed on start, appended to by every purchase.
    pub session_dir: Option<String>,
    /// Per-query tracing: print an `EXPLAIN ANALYZE`-style report (spend
    /// ledger, SQR hits, plan-search effort, phase timings) after each query.
    pub trace: bool,
    /// Write a `chrome://tracing` / Perfetto JSON document covering every
    /// traced query to this file on exit. Implies `trace`.
    pub trace_out: Option<String>,
    /// Write the most recent `\explain` report as JSON to this file.
    pub explain_out: Option<String>,
    /// Serve mode: replay a deterministic multi-client mix across this many
    /// worker threads instead of starting a shell. `None` = normal shell.
    pub serve_threads: Option<u64>,
    /// Client sessions in the serve mix (`--clients`, default 4).
    pub clients: Option<u64>,
    /// Queries in the serve mix (`--queries`, default 24).
    pub queries: Option<u64>,
    /// Mix seed (`--seed`, default 48879).
    pub seed: Option<u64>,
    /// Write the serve run's reconciled JSON report to this file.
    pub serve_out: Option<String>,
    /// Remote-client mode: drive the deterministic serve mix against a
    /// running `payless-server` at this address instead of serving
    /// in-process. `--serve <threads>` sets the client thread count.
    pub connect: Option<String>,
    /// Write the remote server's `/v1/store` durability status as JSON
    /// (connect mode only).
    pub store_out: Option<String>,
    /// Connect mode: only fetch `/v1/report` + `/v1/store` (no queries).
    pub probe: bool,
    /// Connect mode: POST `/v1/shutdown` after the drive (or probe).
    pub shutdown_after: bool,
    /// Write the Prometheus-style metrics exposition (cumulative counters,
    /// gauges and histograms) to this file on exit.
    pub metrics_out: Option<String>,
    /// Write the flight recorder's JSONL event journal to this file on
    /// exit (the same path doubles as the black-box dump target on abort
    /// or panic). Asking for the file is what turns the recorder on.
    pub events_out: Option<String>,
    /// One-shot SQL; when `None` the shell goes interactive.
    pub sql: Option<String>,
}

impl Default for CliArgs {
    fn default() -> Self {
        CliArgs {
            workload: WorkloadKind::Whw,
            scale: 0.02,
            page_size: 100,
            mode: Mode::PayLess,
            session_dir: None,
            trace: false,
            trace_out: None,
            explain_out: None,
            serve_threads: None,
            clients: None,
            queries: None,
            seed: None,
            serve_out: None,
            connect: None,
            store_out: None,
            probe: false,
            shutdown_after: false,
            metrics_out: None,
            events_out: None,
            sql: None,
        }
    }
}

/// Usage text.
pub const USAGE: &str = "\
payless — pay-less SQL over a simulated cloud data market

USAGE:
    payless [OPTIONS] [SQL]

OPTIONS:
    --workload <whw|tpch|tpch-skew|finance>
                                      demo dataset (default: whw)
    --scale <float>                   generator scale (default: 0.02)
    --page <int>                      tuples per transaction t (default: 100)
    --mode <payless|no-sqr|min-calls|download-all>
                                      system variant (default: payless)
    --session <dir>                   keep the session in a data directory:
                                      every purchase is logged there, and a
                                      restart replays it (nothing to save)
    --trace                           per-query report: spend ledger, SQR
                                      hits, plan search, phase timings
                                      (alias: --report)
    --trace-out <file>                write a chrome://tracing / Perfetto
                                      JSON trace of every traced query on
                                      exit (implies --trace)
    --explain-out <file>              write the latest \\explain report as
                                      JSON to <file>
    --serve <threads>                 concurrent serving mode: replay a
                                      deterministic multi-client mix across
                                      <threads> workers over one shared
                                      semantic store, reconcile spend
                                      against the billing meter, and exit
                                      (whw workload only)
    --clients <int>                   client sessions in the serve mix
                                      (default: 4)
    --queries <int>                   queries in the serve mix (default: 24)
    --seed <int>                      serve mix seed (default: 48879)
    --serve-out <file>                write the serve report as JSON
    --connect <host:port>             drive the serve mix against a running
                                      payless-server over real sockets
                                      instead of in-process; --serve sets
                                      the client thread count, --serve-out
                                      writes the reconciled report
    --store-out <file>                connect mode: write the server's
                                      /v1/store durability status as JSON
    --probe                           connect mode: fetch /v1/report and
                                      /v1/store without running queries
    --shutdown-after                  connect mode: gracefully shut the
                                      server down afterwards
    --metrics-out <file>              write the Prometheus-style metrics
                                      exposition to <file> on exit
    --events-out <file>               write the flight recorder's JSONL
                                      event journal to <file> on exit;
                                      black-box dumps on abort/panic land
                                      at the same path
    -h, --help                        this text

Without SQL, an interactive shell starts. Shell commands:
    \\tables          list tables, access patterns, cardinalities
    \\bill            the cumulative bill
    \\coverage        per-table semantic-store coverage
    \\history         recent queries with estimated vs actual cost
    \\metrics         live metrics in Prometheus exposition format
    \\explain <SQL>   EXPLAIN ANALYZE: execute and print the plan tree with
                     estimated vs actual rows/pages/price per operator
    \\estimate <SQL>  plan + estimated cost without executing (free)
    \\why [query-id]  spend provenance: the calls, retries, faults, and
                     coalesced flights behind the query's bill (default:
                     the most recent journaled query)
    \\quit            exit";

/// Parse argv (excluding the program name).
pub fn parse_args(argv: &[String]) -> Result<CliArgs, String> {
    let mut out = CliArgs::default();
    let mut i = 0;
    let mut positional: Vec<String> = Vec::new();
    while i < argv.len() {
        let arg = &argv[i];
        let take_value = |i: &mut usize| -> Result<String, String> {
            *i += 1;
            argv.get(*i)
                .cloned()
                .ok_or_else(|| format!("missing value after `{arg}`"))
        };
        match arg.as_str() {
            "-h" | "--help" => return Err(USAGE.to_string()),
            "--workload" => {
                out.workload = match take_value(&mut i)?.as_str() {
                    "whw" => WorkloadKind::Whw,
                    "tpch" => WorkloadKind::Tpch,
                    "tpch-skew" => WorkloadKind::TpchSkew,
                    "finance" => WorkloadKind::Finance,
                    other => return Err(format!("unknown workload `{other}`")),
                };
            }
            "--scale" => {
                out.scale = take_value(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad --scale: {e}"))?;
                if out.scale <= 0.0 {
                    return Err("--scale must be positive".into());
                }
            }
            "--page" => {
                out.page_size = take_value(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad --page: {e}"))?;
                if out.page_size == 0 {
                    return Err("--page must be positive".into());
                }
            }
            "--mode" => {
                out.mode = match take_value(&mut i)?.as_str() {
                    "payless" => Mode::PayLess,
                    "no-sqr" => Mode::PayLessNoSqr,
                    "min-calls" => Mode::MinCalls,
                    "download-all" => Mode::DownloadAll,
                    other => return Err(format!("unknown mode `{other}`")),
                };
            }
            "--session" => out.session_dir = Some(take_value(&mut i)?),
            "--trace" | "--report" => out.trace = true,
            "--trace-out" => {
                out.trace_out = Some(take_value(&mut i)?);
                out.trace = true;
            }
            "--explain-out" => out.explain_out = Some(take_value(&mut i)?),
            "--serve" => {
                let threads: u64 = take_value(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad --serve: {e}"))?;
                if threads == 0 {
                    return Err("--serve needs at least one thread".into());
                }
                out.serve_threads = Some(threads);
            }
            "--clients" => {
                let clients: u64 = take_value(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad --clients: {e}"))?;
                if clients == 0 {
                    return Err("--clients must be positive".into());
                }
                out.clients = Some(clients);
            }
            "--queries" => {
                let queries: u64 = take_value(&mut i)?
                    .parse()
                    .map_err(|e| format!("bad --queries: {e}"))?;
                if queries == 0 {
                    return Err("--queries must be positive".into());
                }
                out.queries = Some(queries);
            }
            "--seed" => {
                out.seed = Some(
                    take_value(&mut i)?
                        .parse()
                        .map_err(|e| format!("bad --seed: {e}"))?,
                );
            }
            "--serve-out" => out.serve_out = Some(take_value(&mut i)?),
            "--connect" => {
                let addr = take_value(&mut i)?;
                if !addr.contains(':') {
                    return Err(format!("--connect needs host:port, got `{addr}`"));
                }
                out.connect = Some(addr);
            }
            "--store-out" => out.store_out = Some(take_value(&mut i)?),
            "--probe" => out.probe = true,
            "--shutdown-after" => out.shutdown_after = true,
            "--metrics-out" => out.metrics_out = Some(take_value(&mut i)?),
            "--events-out" => out.events_out = Some(take_value(&mut i)?),
            other if other.starts_with('-') => {
                return Err(format!("unknown option `{other}` (try --help)"))
            }
            _ => positional.push(arg.clone()),
        }
        i += 1;
    }
    if !positional.is_empty() {
        out.sql = Some(positional.join(" "));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn defaults() {
        let a = parse_args(&[]).unwrap();
        assert_eq!(a, CliArgs::default());
    }

    #[test]
    fn full_flags() {
        let a = parse_args(&argv(&[
            "--workload",
            "tpch-skew",
            "--scale",
            "0.5",
            "--page",
            "50",
            "--mode",
            "min-calls",
            "--session",
            "state",
        ]))
        .unwrap();
        assert_eq!(a.workload, WorkloadKind::TpchSkew);
        assert_eq!(a.scale, 0.5);
        assert_eq!(a.page_size, 50);
        assert_eq!(a.mode, Mode::MinCalls);
        assert_eq!(a.session_dir.as_deref(), Some("state"));
        assert!(a.sql.is_none());
    }

    #[test]
    fn trace_flag_and_alias() {
        assert!(parse_args(&argv(&["--trace"])).unwrap().trace);
        assert!(parse_args(&argv(&["--report"])).unwrap().trace);
        assert!(!parse_args(&[]).unwrap().trace);
    }

    #[test]
    fn trace_out_implies_trace() {
        let a = parse_args(&argv(&["--trace-out", "trace.json"])).unwrap();
        assert_eq!(a.trace_out.as_deref(), Some("trace.json"));
        assert!(a.trace);
        assert!(parse_args(&argv(&["--trace-out"])).is_err());
    }

    #[test]
    fn explain_out_takes_a_path() {
        let a = parse_args(&argv(&["--explain-out", "explain.json"])).unwrap();
        assert_eq!(a.explain_out.as_deref(), Some("explain.json"));
        assert!(!a.trace, "explain-out alone leaves tracing off");
        assert!(parse_args(&argv(&["--explain-out"])).is_err());
    }

    #[test]
    fn serve_flags() {
        let a = parse_args(&argv(&[
            "--serve",
            "4",
            "--clients",
            "3",
            "--queries",
            "12",
            "--seed",
            "7",
            "--serve-out",
            "serve.json",
        ]))
        .unwrap();
        assert_eq!(a.serve_threads, Some(4));
        assert_eq!(a.clients, Some(3));
        assert_eq!(a.queries, Some(12));
        assert_eq!(a.seed, Some(7));
        assert_eq!(a.serve_out.as_deref(), Some("serve.json"));
        // Serve mode is opt-in and every knob defaults to unset.
        let d = parse_args(&[]).unwrap();
        assert_eq!(d.serve_threads, None);
        assert_eq!(d.clients, None);
        assert!(parse_args(&argv(&["--serve", "0"])).is_err());
        assert!(parse_args(&argv(&["--clients", "0"])).is_err());
        assert!(parse_args(&argv(&["--serve"])).is_err());
    }

    #[test]
    fn connect_flags() {
        let a = parse_args(&argv(&[
            "--connect",
            "127.0.0.1:7878",
            "--serve",
            "4",
            "--store-out",
            "store.json",
            "--shutdown-after",
        ]))
        .unwrap();
        assert_eq!(a.connect.as_deref(), Some("127.0.0.1:7878"));
        assert_eq!(a.serve_threads, Some(4));
        assert_eq!(a.store_out.as_deref(), Some("store.json"));
        assert!(a.shutdown_after);
        assert!(!a.probe);
        assert!(parse_args(&argv(&["--probe"])).unwrap().probe);
        // host:port shape is validated at parse time.
        assert!(parse_args(&argv(&["--connect", "nocolon"])).is_err());
        assert!(parse_args(&argv(&["--connect"])).is_err());
        let d = parse_args(&[]).unwrap();
        assert_eq!(d.connect, None);
        assert!(!d.shutdown_after);
    }

    #[test]
    fn metrics_out_takes_a_path() {
        let a = parse_args(&argv(&["--metrics-out", "metrics.txt"])).unwrap();
        assert_eq!(a.metrics_out.as_deref(), Some("metrics.txt"));
        assert_eq!(parse_args(&[]).unwrap().metrics_out, None);
        assert!(parse_args(&argv(&["--metrics-out"])).is_err());
    }

    #[test]
    fn events_out_takes_a_path() {
        let a = parse_args(&argv(&["--events-out", "events.jsonl"])).unwrap();
        assert_eq!(a.events_out.as_deref(), Some("events.jsonl"));
        assert_eq!(parse_args(&[]).unwrap().events_out, None);
        assert!(parse_args(&argv(&["--events-out"])).is_err());
    }

    #[test]
    fn positional_sql_joins_words() {
        let a = parse_args(&argv(&["SELECT", "*", "FROM", "Station"])).unwrap();
        assert_eq!(a.sql.as_deref(), Some("SELECT * FROM Station"));
    }

    #[test]
    fn errors() {
        assert!(parse_args(&argv(&["--workload"])).is_err());
        assert!(parse_args(&argv(&["--workload", "excel"])).is_err());
        assert!(parse_args(&argv(&["--scale", "-2"])).is_err());
        assert!(parse_args(&argv(&["--page", "0"])).is_err());
        assert!(parse_args(&argv(&["--mode", "turbo"])).is_err());
        assert!(parse_args(&argv(&["--frobnicate"])).is_err());
        // --help "errors" with the usage text.
        let err = parse_args(&argv(&["--help"])).unwrap_err();
        assert!(err.contains("USAGE"));
    }
}
