//! The four workloads and their query streams.
//!
//! A workload's **pool** of query instances is part of its definition,
//! drawn once from [`POOL_SEED`]: what a fill costs in pages and what the
//! server's memory peaks at are properties of the pool, and between two
//! pools they differ by more (6–17 % and 40–75 % measured) than any bound
//! could absorb. `--seed` decides the **stream**: which instances each
//! client asks for, in which order — never a server setting. The server
//! sees only the request bytes built here.

use payless_json::{Json, ToJson};
use payless_types::Value;
use payless_workload::{QueryWorkload, RealWorkload, WhwConfig, Zipf};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Seed of every workload's pool.
pub const POOL_SEED: u64 = 48879;

/// Market page size: the paper's `t` (tuples per transaction).
pub const PAGE_SIZE: u64 = 100;

/// Client threads and keep-alive connections of the socket run. Equal to
/// `nproc` on the 2-core builder; the load comes from one process.
pub const CONNECTIONS: usize = 2;

/// One benchmark workload: the server configuration it runs against and
/// the shape of its query stream.
#[derive(Debug)]
pub struct Spec {
    /// Name as it appears in `BENCHMARK.json`.
    pub name: &'static str,
    /// WHW generator scale (`PAYLESS_SCALE`).
    pub scale: f64,
    /// Serve from a data directory (WAL + mirror log + snapshots).
    pub durable: bool,
    /// Table-1 templates the pool cycles over (0 = Q1 … 4 = Q5).
    pub templates: &'static [usize],
    /// Distinct query instances: the pool of the three hot workloads, one
    /// round of `scan_cold`.
    pub pool: usize,
    /// `true`: the pool is run once as an untimed fill pass and the
    /// measured phase draws zipf(1.0) ranks from it. `false`: the
    /// measured phase is whole rounds of the pool against fresh servers.
    pub hot: bool,
    /// Measured-stream queries of the traced in-process replay.
    pub traced_queries: usize,
}

/// The benchmark's workloads, in `BENCHMARK.json` order. Why each exists
/// is recorded there and in the README.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "point_hot",
        scale: 0.05,
        durable: false,
        templates: &[1],
        pool: 256,
        hot: true,
        traced_queries: 20_000,
    },
    Spec {
        name: "join_hot",
        scale: 0.05,
        durable: false,
        templates: &[2, 3, 4],
        pool: 96,
        hot: true,
        traced_queries: 400,
    },
    Spec {
        name: "scan_cold",
        scale: 0.25,
        durable: true,
        templates: &[0, 2],
        pool: 200,
        hot: false,
        traced_queries: 200,
    },
    Spec {
        name: "mix_zipf",
        scale: 0.05,
        durable: false,
        templates: &[0, 1, 2, 3, 4],
        pool: 256,
        hot: true,
        traced_queries: 500,
    },
];

/// Divides pool sizes and traced counts (`--smoke` passes 10).
#[derive(Debug, Clone, Copy)]
pub struct Sizing {
    /// Divisor; 1 for a real run.
    pub div: usize,
}

impl Sizing {
    /// `n / div`, at least `floor`.
    pub fn of(self, n: usize, floor: usize) -> usize {
        (n / self.div).max(floor)
    }
}

/// One query instance with its request pre-encoded, so the client's send
/// path is a single `write_all`.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Template index.
    pub template: usize,
    /// Parameter values.
    pub params: Vec<Value>,
    /// The complete `POST /v1/query` request, head and body.
    pub request: Vec<u8>,
}

/// The data the server generates for `spec` (same generator, same scale),
/// for the oracle and the in-process replay.
pub fn data(spec: &Spec) -> RealWorkload {
    RealWorkload::generate(&WhwConfig::scaled(spec.scale))
}

fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn encode_request(template: usize, params: &[Value]) -> Vec<u8> {
    let body = Json::obj([
        ("template", Json::Int(template as i64)),
        (
            "params",
            Json::Arr(params.iter().map(|p| p.to_json()).collect()),
        ),
    ])
    .to_string_compact();
    format!(
        "POST /v1/query HTTP/1.1\r\nHost: payless\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// The workload's pool: `n` instances with pairwise distinct parameters,
/// templates round-robin in pool order.
pub fn pool(spec: &Spec, data: &RealWorkload, sizing: Sizing) -> Vec<Instance> {
    let n = sizing.of(spec.pool, spec.templates.len());
    let mut rng = StdRng::seed_from_u64(POOL_SEED ^ fnv(spec.name));
    let mut out: Vec<Instance> = Vec::with_capacity(n);
    while out.len() < n {
        let template = spec.templates[out.len() % spec.templates.len()];
        let params = data.sample_params(template, &mut rng);
        if out
            .iter()
            .any(|i| i.template == template && i.params == params)
        {
            continue;
        }
        let request = encode_request(template, &params);
        out.push(Instance {
            template,
            params,
            request,
        });
    }
    out
}

/// Client `client`'s endless measured stream over a hot pool: zipf(1.0)
/// ranks, rank `k` being pool instance `k`.
pub struct Draws {
    zipf: Zipf,
    rng: StdRng,
}

impl Draws {
    /// The stream of `client` (0-based) for this workload and seed.
    pub fn new(spec: &Spec, pool_len: usize, seed: u64, client: usize) -> Draws {
        let stream = (client as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        Draws {
            zipf: Zipf::new(pool_len, 1.0),
            rng: StdRng::seed_from_u64(seed ^ fnv(spec.name) ^ stream),
        }
    }

    /// Next pool index.
    pub fn next_index(&mut self) -> usize {
        self.zipf.sample(&mut self.rng)
    }
}

/// Where in the pool a `scan_cold` round starts: the seed rotates the
/// round, so what is asked stays the pool while the order it meets the
/// growing store in does not.
pub fn round_start(pool_len: usize, seed: u64) -> usize {
    (seed % pool_len as u64) as usize
}
