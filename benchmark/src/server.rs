//! The `payless-server` child process: spawn on port 0, discover the
//! address through `PAYLESS_ADDR_FILE`, and never leak it — dropping the
//! guard kills and reaps the child on every exit path.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::client::Conn;
use crate::streams::{Spec, PAGE_SIZE};

/// How long the server may take to bind, and later to exit.
const PATIENCE: Duration = Duration::from_secs(60);

/// A running server child.
pub struct ServerProc {
    child: Child,
    /// `host:port` the child bound.
    pub addr: String,
    /// Scratch directory of this server, removed with it.
    dir: PathBuf,
}

impl ServerProc {
    /// Spawn `bin` configured for `spec` and wait until `/v1/health`
    /// answers. `dir` is this server's private scratch directory; a durable
    /// workload's data directory is `dir/data`, which must not exist yet.
    /// The child's environment holds the workload's knobs and nothing
    /// else, so no stray `PAYLESS_*` variable can change what is measured.
    pub fn spawn(bin: &Path, spec: &Spec, dir: &Path) -> Result<ServerProc, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let addr_file = dir.join("addr");
        let _ = std::fs::remove_file(&addr_file);
        let mut cmd = Command::new(bin);
        cmd.env_clear()
            .env("PAYLESS_LISTEN", "127.0.0.1:0")
            .env("PAYLESS_ADDR_FILE", &addr_file)
            .env("PAYLESS_PAGE", PAGE_SIZE.to_string())
            .env("PAYLESS_SCALE", spec.scale.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null());
        if spec.durable {
            cmd.env("PAYLESS_DATA_DIR", data_dir(dir));
        }
        let child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut server = ServerProc {
            child,
            addr: String::new(),
            dir: dir.to_path_buf(),
        };
        let deadline = Instant::now() + PATIENCE;
        loop {
            if let Ok(addr) = std::fs::read_to_string(&addr_file) {
                // The file is written in one call after bind; a non-empty
                // read that parses as host:port is complete.
                if addr.contains(':') {
                    server.addr = addr;
                    break;
                }
            }
            if let Some(status) = server.child.try_wait().map_err(|e| e.to_string())? {
                return Err(format!("server exited before binding: {status}"));
            }
            if Instant::now() > deadline {
                return Err("server did not bind in time".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Conn::connect(&server.addr)?.call("GET", "/v1/health")?;
        Ok(server)
    }

    /// Peak resident set size of the child so far (`VmHWM`), in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("read {path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }

    /// Graceful shutdown: `POST /v1/shutdown`, then wait for the child to
    /// drain and exit. The caller must have closed its own connections —
    /// the server joins every connection thread before it exits.
    pub fn shutdown(mut self) -> Result<(), String> {
        Conn::connect(&self.addr)?.call("POST", "/v1/shutdown")?;
        let deadline = Instant::now() + PATIENCE;
        loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(status) if status.success() => return Ok(()),
                Some(status) => return Err(format!("server exited with {status}")),
                None if Instant::now() > deadline => {
                    return Err("server did not exit after /v1/shutdown".into())
                }
                None => std::thread::sleep(Duration::from_millis(1)),
            }
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        // After a clean shutdown both calls are no-ops on a reaped child.
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Data directory of a durable server whose scratch directory is `dir`.
pub fn data_dir(dir: &Path) -> PathBuf {
    dir.join("data")
}
