//! `payless-server`: boot the network front end from `PAYLESS_*` knobs.
//!
//! This table is the single definition of the server's knobs. A value that
//! is set but malformed is a startup error (exit 2), never a silent
//! default; switches take `0` or `1` only.
//!
//! | knob                        | meaning                                  | default        |
//! |-----------------------------|------------------------------------------|----------------|
//! | `PAYLESS_LISTEN`            | bind address (`host:port`, port 0 = any) | 127.0.0.1:7878 |
//! | `PAYLESS_ADDR_FILE`         | write the bound address here after bind  | unset          |
//! | `PAYLESS_DATA_DIR`          | `wal.log` + `mirror.log` directory (unset = memory only) | unset |
//! | `PAYLESS_PAGE`              | market page size in records (>= 1)       | 1              |
//! | `PAYLESS_SCALE`             | WHW generator scale (finite, > 0)        | 0.02           |
//! | `PAYLESS_COALESCE`          | `0` disables single-flight coalescing    | 1              |
//! | `PAYLESS_FAULT_SEED`        | chaos-inject the market at this seed     | unset          |
//! | `PAYLESS_CRASH_AFTER`       | abort on the N-th WAL append, N >= 1 (tests) | unset      |

use payless_server::{Server, ServerConfig};

// Configuration enters here and nowhere else in this binary — see
// DESIGN.md; `clippy.toml` bans `std::env` reads everywhere they are not
// allowed by name.
#[allow(clippy::disallowed_methods)]
fn env(key: &str) -> Option<String> {
    std::env::var(key).ok()
}

fn main() {
    let cfg = match ServerConfig::from_lookup(env) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("payless-server: {e}");
            std::process::exit(2);
        }
    };

    let durable = cfg.data_dir.is_some();
    let server = match Server::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("payless-server: {e}");
            std::process::exit(1);
        }
    };
    let addr = server.addr();
    println!("payless-server listening on {addr} (durable: {durable})");
    if let Some(path) = env("PAYLESS_ADDR_FILE") {
        if let Err(e) = std::fs::write(&path, addr.to_string()) {
            eprintln!("payless-server: write {path}: {e}");
            std::process::exit(1);
        }
    }
    if let Err(e) = server.run() {
        eprintln!("payless-server: {e}");
        std::process::exit(1);
    }
    println!("payless-server: graceful shutdown complete");
}
