//! Network serving front end: a std-only HTTP/1.1 listener over the
//! concurrent serve layer, plus append-log durability of the shared
//! semantic store.
//!
//! The REST surface mirrors the CLI's session commands:
//!
//! | endpoint            | maps to                                        |
//! |---------------------|------------------------------------------------|
//! | `POST /v1/query`    | query submit (binary rows + `X-Payless-*` spend headers) |
//! | `GET /v1/report`    | `\report` — billing meter + server config      |
//! | `GET /v1/metrics`   | `\metrics` — exposition text                   |
//! | `GET /v1/why?query=N` | `\why N` — flight-recorder provenance        |
//! | `GET /v1/store`     | durability status (ledger vs meter, recovery)  |
//! | `GET /v1/health`    | liveness probe                                 |
//! | `POST /v1/shutdown` | graceful drain                                 |
//!
//! Query results ride the existing market wire codec
//! ([`payless_market::encode_rows`]); spend telemetry rides response
//! headers, so a driver can reconcile Σ ledger == meter without a second
//! round trip. Every settled purchase is appended to the write-ahead log
//! before the server answers more traffic (see [`persist`]).

#![warn(missing_docs)]

pub mod http;
pub mod persist;

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use payless_events::{known_queries, render_provenance, EventJournal, EventsConfig};
use payless_exec::RetryPolicy;
use payless_json::{Json, ToJson};
use payless_market::{DataMarket, FaultInjector, FaultPlan};
use payless_metrics::{MetricsConfig, MetricsHub};
use payless_semantic::SemanticStore;
use payless_serve::{query_spend, Serve, ServeConfig};
use payless_sql::SelectStmt;
use payless_types::Value;
use payless_workload::{build_market, QueryWorkload, RealWorkload, WhwConfig};

use http::{read_request, write_response, Request};
use persist::{DurableStore, PersistConfig};

/// Everything the server needs to boot. Libraries never read the
/// environment — `main.rs` hands its own to [`ServerConfig::from_lookup`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Bind address; port `0` picks a free port (tests, CI).
    pub listen: String,
    /// Market page size in records (spend granularity).
    pub page_size: u64,
    /// WHW generator scale (must match the oracle's for digest parity).
    pub scale: f64,
    /// Single-flight call coalescing across concurrent clients.
    pub coalesce: bool,
    /// Chaos-inject the market at this seed (retries become unlimited).
    pub fault_seed: Option<u64>,
    /// Data directory for `wal.log` and `mirror.log`; `None` serves
    /// memory-only.
    pub data_dir: Option<PathBuf>,
    /// Crash injection (ignored without `data_dir`).
    pub persist: PersistConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            listen: "127.0.0.1:0".into(),
            page_size: 1,
            scale: 0.02,
            coalesce: true,
            fault_seed: None,
            data_dir: None,
            persist: PersistConfig::default(),
        }
    }
}

/// One `PAYLESS_*` value: `Ok(None)` when unset, `Err` naming the variable
/// and the value when set to something `T` cannot parse or `ok` rejects.
fn knob<T: std::str::FromStr>(
    get: &impl Fn(&str) -> Option<String>,
    name: &str,
    want: &str,
    ok: impl Fn(&T) -> bool,
) -> Result<Option<T>, String> {
    get(name)
        .map(|raw| {
            raw.parse()
                .ok()
                .filter(&ok)
                .ok_or_else(|| format!("{name}={raw}: expected {want}"))
        })
        .transpose()
}

impl ServerConfig {
    /// Map the `PAYLESS_*` names in `main.rs`'s header table onto a config;
    /// `get` is the environment (a closure, so tests pass a table). Unset
    /// names keep their [`Default`], except `listen`, which gets the fixed
    /// port an operator expects. A value that is set but malformed is an
    /// error, never a silent default: a crash test whose knob did not parse
    /// would pass vacuously.
    pub fn from_lookup(get: impl Fn(&str) -> Option<String>) -> Result<ServerConfig, String> {
        let get = &get;
        let int = |name: &str, min: u64| {
            let want = format!("an integer >= {min}");
            knob(get, name, &want, |v: &u64| *v >= min)
        };
        let switch = |name: &str| -> Result<Option<bool>, String> {
            let v = knob(get, name, "0 or 1", |v: &String| v == "0" || v == "1")?;
            Ok(v.map(|v| v == "1"))
        };
        let d = ServerConfig::default();
        Ok(ServerConfig {
            listen: get("PAYLESS_LISTEN").unwrap_or_else(|| "127.0.0.1:7878".into()),
            page_size: int("PAYLESS_PAGE", 1)?.unwrap_or(d.page_size),
            scale: knob(get, "PAYLESS_SCALE", "a finite number > 0", |s: &f64| {
                s.is_finite() && *s > 0.0
            })?
            .unwrap_or(d.scale),
            coalesce: switch("PAYLESS_COALESCE")?.unwrap_or(d.coalesce),
            fault_seed: int("PAYLESS_FAULT_SEED", 0)?,
            data_dir: get("PAYLESS_DATA_DIR").map(Into::into),
            persist: PersistConfig {
                crash_after_appends: int("PAYLESS_CRASH_AFTER", 1)?,
            },
        })
    }
}

struct Shared {
    serve: Serve,
    market: Arc<DataMarket>,
    templates: Vec<SelectStmt>,
    durable: Option<Arc<DurableStore>>,
    hub: Arc<MetricsHub>,
    journal: Arc<EventJournal>,
    cfg: ServerConfig,
    shutdown: AtomicBool,
    queries_served: AtomicU64,
    active_conns: AtomicU64,
}

/// A running server: listener bound, store recovered.
/// Call [`Server::run`] to serve until a graceful shutdown is requested.
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    shared: Arc<Shared>,
}

impl Server {
    /// Build the market + serve layer (recovering it from `cfg.data_dir`
    /// through [`persist::recover`] when set) and bind the listener. Fails
    /// loudly on an unrecoverable store — never serve from corrupt money
    /// math.
    pub fn start(cfg: ServerConfig) -> Result<Server, String> {
        let w = RealWorkload::generate(&WhwConfig::scaled(cfg.scale));
        let market = Arc::new(build_market(&w, cfg.page_size));
        if let Some(fs) = cfg.fault_seed {
            market.attach_fault_injector(FaultInjector::new(FaultPlan::chaos(fs)));
        }
        let hub = Arc::new(MetricsHub::new(MetricsConfig::default()));
        let journal = EventJournal::from_config(&EventsConfig::default());

        let serve_cfg = ServeConfig {
            coalesce: cfg.coalesce,
            retry: if cfg.fault_seed.is_some() {
                RetryPolicy::unlimited()
            } else {
                RetryPolicy::default()
            },
            metrics: Some(Arc::clone(&hub)),
            events: Some(Arc::clone(&journal)),
            ..ServeConfig::default()
        };
        let build =
            |store| Serve::with_store(Arc::clone(&market), w.local_tables(), serve_cfg, store);
        let (serve, durable) = match &cfg.data_dir {
            Some(dir) => {
                let (serve, durable) = persist::recover(dir, cfg.persist, &market, build)?;
                (serve, Some(durable))
            }
            None => (build(SemanticStore::new()), None),
        };
        let templates = w
            .templates()
            .iter()
            .map(|sql| serve.prepare(sql))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("workload template: {e}"))?;

        let listener =
            TcpListener::bind(&cfg.listen).map_err(|e| format!("bind {}: {e}", cfg.listen))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local addr: {e}"))?;

        let shared = Arc::new(Shared {
            serve,
            market,
            templates,
            durable,
            hub,
            journal,
            cfg,
            shutdown: AtomicBool::new(false),
            queries_served: AtomicU64::new(0),
            active_conns: AtomicU64::new(0),
        });
        Ok(Server {
            listener,
            addr,
            shared,
        })
    }

    /// The bound address (resolves port `0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Accept and serve connections until `POST /v1/shutdown` (one thread
    /// per connection; the serve layer is built for exactly this kind of
    /// concurrency), then drain in-flight connections. Every purchase is
    /// already in the logs, so there is nothing left to write.
    pub fn run(self) -> Result<(), String> {
        let mut workers = Vec::new();
        for conn in self.listener.incoming() {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match conn {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("payless-server: accept failed: {e}");
                    continue;
                }
            };
            let shared = Arc::clone(&self.shared);
            shared.active_conns.fetch_add(1, Ordering::SeqCst);
            workers.push(std::thread::spawn(move || {
                let peer = stream.peer_addr().ok();
                if let Err(e) = serve_connection(&shared, stream) {
                    eprintln!(
                        "payless-server: connection {} dropped: {e}",
                        peer.map(|p| p.to_string()).unwrap_or_default()
                    );
                }
                shared.active_conns.fetch_sub(1, Ordering::SeqCst);
            }));
            // Reap finished workers so a long-lived server does not
            // accumulate join handles.
            workers.retain(|h| !h.is_finished());
        }
        for h in workers {
            let _ = h.join();
        }
        Ok(())
    }
}

/// Handle one connection: parse requests until the peer closes or asks to,
/// answering parse failures with their mapped status before giving up.
fn serve_connection(shared: &Arc<Shared>, stream: TcpStream) -> Result<(), String> {
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = stream;
    loop {
        let req = match read_request(&mut reader) {
            Ok(Some(req)) => req,
            Ok(None) => return Ok(()),
            Err(e) => {
                let (status, reason) = e.status();
                let body = format!("{e}\n");
                let _ = write_response(
                    &mut writer,
                    status,
                    reason,
                    &[],
                    "text/plain",
                    body.as_bytes(),
                    false,
                );
                return Err(e.to_string());
            }
        };
        let keep_alive = req.keep_alive();
        let shutdown_after = req.method == "POST" && req.path == "/v1/shutdown";
        let resp = route(shared, &req);
        write_response(
            &mut writer,
            resp.status,
            resp.reason,
            &resp.headers,
            resp.content_type,
            &resp.body,
            keep_alive && !shutdown_after,
        )
        .map_err(|e| e.to_string())?;
        if shutdown_after {
            shared.shutdown.store(true, Ordering::SeqCst);
            // The accept loop blocks in `incoming()`; poke it awake so it
            // observes the flag without waiting for outside traffic.
            let _ = TcpStream::connect(writer.local_addr().map_err(|e| e.to_string())?);
            return Ok(());
        }
        if !keep_alive {
            return Ok(());
        }
    }
}

struct Response {
    status: u16,
    reason: &'static str,
    headers: Vec<(String, String)>,
    content_type: &'static str,
    body: Vec<u8>,
}

impl Response {
    fn text(status: u16, reason: &'static str, body: impl Into<String>) -> Response {
        Response {
            status,
            reason,
            headers: Vec::new(),
            content_type: "text/plain",
            body: body.into().into_bytes(),
        }
    }

    fn json(j: &Json) -> Response {
        Response {
            status: 200,
            reason: "OK",
            headers: Vec::new(),
            content_type: "application/json",
            body: j.to_string_pretty().into_bytes(),
        }
    }
}

fn route(shared: &Arc<Shared>, req: &Request) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/v1/health") => Response::text(200, "OK", "ok\n"),
        ("POST", "/v1/query") => run_query(shared, req),
        ("GET", "/v1/report") => report(shared),
        ("GET", "/v1/metrics") => Response::text(200, "OK", shared.hub.exposition()),
        ("GET", "/v1/why") => why(shared, req),
        ("GET", "/v1/store") => store_status(shared),
        ("POST", "/v1/shutdown") => Response::text(200, "OK", "shutting down\n"),
        _ => Response::text(
            404,
            "Not Found",
            format!("no route {} {}\n", req.method, req.path),
        ),
    }
}

/// `POST /v1/query`: body `{"template": N, "params": [...]}`, answer is
/// the binary row codec plus the query's [`payless_serve::QuerySpend`] in
/// headers — the same numbers the in-process driver reads off its recorder
/// snapshot.
fn run_query(shared: &Arc<Shared>, req: &Request) -> Response {
    let parsed = std::str::from_utf8(&req.body)
        .map_err(|e| format!("body not UTF-8: {e}"))
        .and_then(|text| payless_json::parse(text).map_err(|e| format!("body not JSON: {e}")));
    let j = match parsed {
        Ok(j) => j,
        Err(e) => return Response::text(400, "Bad Request", format!("{e}\n")),
    };
    let template = match j.get("template").and_then(|v| v.as_u64()) {
        Ok(t) => t as usize,
        Err(e) => return Response::text(400, "Bad Request", format!("template: {e}\n")),
    };
    if template >= shared.templates.len() {
        return Response::text(
            400,
            "Bad Request",
            format!(
                "template {template} out of range ({} templates)\n",
                shared.templates.len()
            ),
        );
    }
    let params: Vec<Value> = match j
        .get("params")
        .map_err(|e| format!("params: {e}"))
        .and_then(|v| payless_json::FromJson::from_json(v).map_err(|e| format!("params: {e}")))
    {
        Ok(p) => p,
        Err(e) => return Response::text(400, "Bad Request", format!("{e}\n")),
    };

    let (query_id, outcome) = shared
        .serve
        .run_query_traced(&shared.templates[template], &params);
    let (result, snap) = match outcome {
        Ok(ok) => ok,
        Err(e) => return Response::text(500, "Internal Server Error", format!("query: {e}\n")),
    };
    shared.queries_served.fetch_add(1, Ordering::SeqCst);
    let mut headers = vec![("X-Payless-Query-Id".to_string(), query_id.to_string())];
    headers.extend(query_spend(&snap).to_headers());
    headers.push(("X-Payless-Rows".to_string(), result.rows.len().to_string()));
    headers.push(("X-Payless-Columns".to_string(), result.columns.join(",")));
    Response {
        status: 200,
        reason: "OK",
        headers,
        content_type: "application/octet-stream",
        body: payless_market::encode_rows(&result.rows),
    }
}

/// `GET /v1/report`: the billing meter plus enough server config for a
/// remote driver to fill a [`payless_serve::ServeReport`] it can validate
/// against the in-process oracle.
fn report(shared: &Arc<Shared>) -> Response {
    let bill = shared.market.bill();
    let mut by_table: Vec<Json> = Vec::new();
    let mut names: Vec<_> = bill.by_table.keys().cloned().collect();
    names.sort();
    for name in names {
        let t = &bill.by_table[&name];
        by_table.push(Json::obj([
            ("table", Json::Str(name.to_string())),
            ("calls", Json::Int(t.calls as i64)),
            ("transactions", Json::Int(t.transactions as i64)),
            ("records", Json::Int(t.records as i64)),
        ]));
    }
    Response::json(&Json::obj([
        ("page_size", Json::Int(shared.cfg.page_size as i64)),
        ("coalesce", Json::Bool(shared.cfg.coalesce)),
        (
            "fault_seed",
            match shared.cfg.fault_seed {
                Some(fs) => Json::Int(fs as i64),
                None => Json::Null,
            },
        ),
        ("templates", Json::Int(shared.templates.len() as i64)),
        (
            "queries_served",
            Json::Int(shared.queries_served.load(Ordering::SeqCst) as i64),
        ),
        ("meter_calls", Json::Int(bill.calls() as i64)),
        ("meter_transactions", Json::Int(bill.transactions() as i64)),
        ("meter_records", Json::Int(bill.records() as i64)),
        ("by_table", Json::Arr(by_table)),
    ]))
}

/// `GET /v1/why?query=N`: the flight recorder's provenance tree; without
/// the parameter, the query ids the journal still remembers.
fn why(shared: &Arc<Shared>, req: &Request) -> Response {
    let events = shared.journal.snapshot();
    match req.query_param("query") {
        Some(q) => match q.parse::<u64>() {
            Ok(id) => Response::text(200, "OK", render_provenance(&events, id)),
            Err(_) => Response::text(400, "Bad Request", format!("bad query id {q:?}\n")),
        },
        None => {
            let known = known_queries(&events);
            let list = known
                .iter()
                .map(|q| q.to_string())
                .collect::<Vec<_>>()
                .join(" ");
            Response::text(200, "OK", format!("queries with recorded events: {list}\n"))
        }
    }
}

/// `GET /v1/store`: durability status — per-table ledger vs meter and what
/// recovery found. `{"durable": false}` without a data directory.
fn store_status(shared: &Arc<Shared>) -> Response {
    match &shared.durable {
        Some(d) => Response::json(&d.status().to_json()),
        None => Response::json(&Json::obj([("durable", Json::Bool(false))])),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lookup(pairs: &[(&str, &str)]) -> Result<ServerConfig, String> {
        ServerConfig::from_lookup(|k| {
            pairs
                .iter()
                .find(|(name, _)| *name == k)
                .map(|(_, v)| v.to_string())
        })
    }

    #[test]
    fn from_lookup_maps_every_name_and_rejects_malformed_values() {
        let d = ServerConfig::default();
        let fixed_port = ServerConfig {
            listen: "127.0.0.1:7878".into(),
            ..d.clone()
        };
        assert_eq!(lookup(&[]).unwrap(), fixed_port);

        // What `benchmark/src/server.rs` sets (ADDR_FILE is `main.rs`'s).
        let bench = lookup(&[
            ("PAYLESS_LISTEN", "127.0.0.1:0"),
            ("PAYLESS_ADDR_FILE", "/tmp/addr"),
            ("PAYLESS_PAGE", "100"),
            ("PAYLESS_SCALE", "0.05"),
            ("PAYLESS_DATA_DIR", "/tmp/data"),
        ]);
        let want = ServerConfig {
            page_size: 100,
            scale: 0.05,
            data_dir: Some("/tmp/data".into()),
            ..d.clone()
        };
        assert_eq!(bench.unwrap(), want);

        let with = |edit: fn(&mut ServerConfig)| {
            let mut c = fixed_port.clone();
            edit(&mut c);
            c
        };
        for (name, value, want) in [
            ("PAYLESS_COALESCE", "0", with(|c| c.coalesce = false)),
            ("PAYLESS_COALESCE", "1", with(|_| ())),
            ("PAYLESS_FAULT_SEED", "0", with(|c| c.fault_seed = Some(0))),
            (
                "PAYLESS_CRASH_AFTER",
                "5",
                with(|c| c.persist.crash_after_appends = Some(5)),
            ),
        ] {
            assert_eq!(lookup(&[(name, value)]).unwrap(), want, "{name}={value}");
        }

        for (name, value) in [
            ("PAYLESS_PAGE", "abc"),
            ("PAYLESS_PAGE", "0"),
            ("PAYLESS_PAGE", ""),
            ("PAYLESS_SCALE", "inf"),
            ("PAYLESS_SCALE", "NaN"),
            ("PAYLESS_SCALE", "0"),
            ("PAYLESS_SCALE", "-1"),
            ("PAYLESS_CRASH_AFTER", "x"),
            ("PAYLESS_CRASH_AFTER", "0"),
            ("PAYLESS_FAULT_SEED", "seven"),
            ("PAYLESS_COALESCE", "false"),
            ("PAYLESS_COALESCE", "2"),
        ] {
            let err = lookup(&[(name, value)]).expect_err(name);
            assert!(
                err.contains(name) && err.contains(&format!("={value}:")),
                "{name}={value}: {err}"
            );
        }
    }
}
