//! Durable purchases: two append-only logs in the data directory.
//!
//! At real market prices, losing the semantic store is losing money: every
//! purchased region the store forgets is a region a restarted server buys
//! again. The semantic store keeps every market call and its result, and the
//! statistics are refined from every retrieved result, so coverage, mirror
//! and statistics are all functions of the purchase history: the two logs
//! *are* the state. Both frame each record as
//! `[u32 len LE][payload][u32 crc32 LE]`, and nothing shortens either but
//! recovery's torn-tail cut.
//!
//! - **`wal.log`**: every settled purchase appends one fixed little-endian
//!   record: `seq` (u64), the table (`[u16 len][name]`), logical time `at`,
//!   pages spent, and the table's *absolute* cumulative spend after this
//!   record (`meter`, all u64), then the region as `[u16 dims]` and one
//!   `(lo, hi)` i64 pair per dimension. Appends are serialized under one
//!   mutex, so `meter` is exact.
//! - **`mirror.log`**: the rows behind the coverage — a recovered store that
//!   claims coverage without data answers queries wrong. Every market
//!   delivery appends the rows it added to the mirror as
//!   `[u16 name len][table][payless_market::encode_rows]` (split over as
//!   many frames as it needs) via the executor's
//!   [`payless_exec::RowObserver`], before the purchase's spend record, so
//!   every surviving spend record has its rows earlier in this log. A
//!   re-bought row the mirror already holds is not appended again, so the
//!   log holds each distinct row once. The mirror is a set that never
//!   deletes a row, so the whole log *is* the durable mirror.
//!
//! **Recovery** is [`recover`], for the server and the REPL alike.
//! [`DurableStore::open`] replays the WAL front to back (length bound, CRC,
//! record shape, strictly increasing sequence, a registered table, a region
//! inside that table's query space) through `record` into a warm
//! [`SemanticStore`], and decodes every mirror frame. The first invalid
//! frame of either log — a torn tail from a crash mid-append — cuts that log
//! there; a frame whose CRC holds but whose payload lies fails recovery with
//! an error naming its log. Two independent spend paths cross-check each
//! other: the ledger is re-derived by *summing* replayed spends, and each
//! record also carries the *absolute* meter written at append time; any
//! divergence fails recovery loudly. [`recover`] then builds the serving
//! state around the warm store and, in order, seeds the mirror, re-derives
//! the statistics, and attaches both observers. Re-deriving repeats, for
//! each replayed purchase in log order, the `feedback(region, records)` call
//! the purchase made live, with `records` counted from the recovered mirror
//! rows inside the region — a delivery carries every row of its region, so
//! that count is the delivery's.
//!
//! Replay is exact for one client (the REPL, or a one-client server): the
//! log order is the order purchases landed. With concurrent clients the log
//! orders purchases by when their spend observer ran, which can differ from
//! the order their statistics feedback ran in.
//!
//! Lock order: the spend observer runs with **no shard lock held** (see
//! [`payless_semantic::SharedSemanticStore::attach_observer`]), so the
//! persist mutex never nests inside a shard guard. The row observer appends
//! under the serving layer's mirror write lock, so the mirror lock nests
//! outside the persist mutex; nothing takes them the other way. The
//! in-memory store is momentarily *ahead* of the log (insert settled, append
//! pending); nothing copies the store to disk, so a crash in that window
//! only loses a purchase whose record was never written, which a restarted
//! server buys again. The log is never ahead of the store.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use payless_geometry::{Interval, QuerySpace, Region};
use payless_json::Json;
use payless_market::DataMarket;
use payless_semantic::{SemanticStore, SharedSemanticStore};
use payless_serve::Serve;
use payless_types::Row;

/// Rows recovered for the serving layer's local mirror, per table.
pub type MirrorRows = Vec<(String, Vec<Row>)>;

/// A frame larger than this is treated as log corruption, not a record;
/// [`DurableStore::append_rows`] never writes one.
const MAX_RECORD_BYTES: u32 = 1 << 20;

/// IEEE CRC-32 (the zip/PNG polynomial), table-driven.
const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xedb8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC-32 of `data` — the per-frame checksum recovery validates.
pub fn crc32(data: &[u8]) -> u32 {
    !data.iter().fold(!0u32, |c, &b| {
        (c >> 8) ^ CRC_TABLE[((c ^ b as u32) & 0xff) as usize]
    })
}

/// Deterministic crash injection for the crash tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PersistConfig {
    /// Abort the process on the N-th append, leaving a deliberately torn
    /// frame (length header + half the payload) at the log's tail — the
    /// crash the truncate-and-recover path must survive.
    pub crash_after_appends: Option<u64>,
}

/// What recovery found on disk — surfaced via `/v1/store` so
/// `tests/server_e2e.rs` can assert on it without groveling through server
/// logs.
#[derive(Debug, Clone, Default)]
pub struct RecoveryInfo {
    /// Valid `wal.log` records replayed.
    pub replayed: u64,
    /// Bytes cut off the log tail (a torn frame from a crash mid-append).
    pub truncated_bytes: u64,
    /// Rows replayed from `mirror.log`.
    pub mirror_rows: u64,
    /// Bytes cut off the mirror log's torn tail.
    pub mirror_truncated_bytes: u64,
}

/// Per-table reconciliation row: the two independently derived totals that
/// must agree (summed ledger vs absolute meter of the last record).
#[derive(Debug, Clone)]
pub struct TableLedger {
    /// Market table name.
    pub table: String,
    /// Pages attributed by summing every applied record's spend.
    pub ledger_pages: u64,
    /// Absolute cumulative meter carried by the table's last record.
    pub meter_pages: u64,
}

/// Point-in-time durability status for `/v1/store`.
#[derive(Debug, Clone)]
pub struct PersistStatus {
    /// Last sequence number assigned to an append: the number of records in
    /// `wal.log`.
    pub last_seq: u64,
    /// Appends since the server opened the log.
    pub appends: u64,
    /// What recovery found at startup.
    pub recovery: RecoveryInfo,
    /// Per-table ledger/meter pairs (sorted by table name).
    pub tables: Vec<TableLedger>,
}

impl PersistStatus {
    /// `true` iff every table's summed ledger equals its absolute meter.
    pub fn reconciles(&self) -> bool {
        self.tables.iter().all(|t| t.ledger_pages == t.meter_pages)
    }
}

struct Inner {
    wal: File,
    mirror: File,
    /// Last sequence number assigned.
    seq: u64,
    /// Per-table cumulative pages, derived by summation.
    ledger: BTreeMap<String, u64>,
    /// Per-table absolute meter from the last record (== ledger always,
    /// kept separate so recovery can cross-check the two derivations).
    meter: BTreeMap<String, u64>,
    appends_total: u64,
}

/// The durable store: owns the data directory and serializes every append
/// under one mutex. Construct with [`DurableStore::open`] (which replays the
/// logs); [`recover`] does that and wires the result into serving state.
pub struct DurableStore {
    dir: PathBuf,
    cfg: PersistConfig,
    inner: Mutex<Inner>,
    recovery: RecoveryInfo,
    /// The purchases [`DurableStore::open`] replayed, in log order, until
    /// [`recover`] re-derives the statistics from them.
    replayed: Mutex<Vec<(String, Region)>>,
}

const WAL: &str = "wal.log";
const MIRROR: &str = "mirror.log";

fn io_err<T>(what: &str, e: impl std::fmt::Display) -> Result<T, String> {
    Err(format!("{what}: {e}"))
}

/// One `wal.log` record: a settled purchase.
#[derive(Debug, PartialEq)]
struct WalRecord {
    seq: u64,
    table: String,
    at: u64,
    spend: u64,
    meter: u64,
    region: Region,
}

impl WalRecord {
    /// The frame payload: `seq`, `[u16 len][table]`, `at`, `spend`,
    /// `meter`, `[u16 dims]`, then `(lo, hi)` per dimension.
    fn encode(&self) -> Vec<u8> {
        let name_len = u16::try_from(self.table.len()).expect("table name fits a u16 length");
        let dims = self.region.dims();
        let arity = u16::try_from(dims.len()).expect("region arity fits a u16");
        let mut out = Vec::with_capacity(8 + 2 + self.table.len() + 3 * 8 + 2 + 16 * dims.len());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&name_len.to_le_bytes());
        out.extend_from_slice(self.table.as_bytes());
        for v in [self.at, self.spend, self.meter] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&arity.to_le_bytes());
        for iv in dims {
            out.extend_from_slice(&iv.lo.to_le_bytes());
            out.extend_from_slice(&iv.hi.to_le_bytes());
        }
        out
    }

    /// Decode one frame payload; `Err` names `wal.log`.
    fn decode(payload: &[u8]) -> Result<WalRecord, String> {
        Self::read(&mut Cursor(payload))
            .map_err(|what| format!("wal.log record despite valid CRC: {what}"))
    }

    fn read(c: &mut Cursor<'_>) -> Result<WalRecord, String> {
        let seq = c.u64()?;
        let name_len = c.u16()? as usize;
        let table = std::str::from_utf8(c.take(name_len)?)
            .map_err(|e| format!("table name: {e}"))?
            .to_string();
        let (at, spend, meter) = (c.u64()?, c.u64()?, c.u64()?);
        let arity = c.u16()?;
        if arity == 0 {
            return Err("a region needs at least one dimension".into());
        }
        let dims = (0..arity)
            .map(|_| match (c.i64()?, c.i64()?) {
                (lo, hi) if lo > hi => Err(format!("empty interval [{lo}, {hi}]")),
                (lo, hi) => Ok(Interval::new(lo, hi)),
            })
            .collect::<Result<Vec<_>, String>>()?;
        if !c.0.is_empty() {
            return Err(format!("{} trailing bytes", c.0.len()));
        }
        Ok(WalRecord {
            seq,
            table,
            at,
            spend,
            meter,
            region: Region::new(dims),
        })
    }
}

/// The unread rest of a record payload.
struct Cursor<'a>(&'a [u8]);

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.0.len() < n {
            return Err(format!(
                "short payload: {n} bytes wanted, {} left",
                self.0.len()
            ));
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn i64(&mut self) -> Result<i64, String> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }
}

/// Append `payload` to `out` as `[u32 len][payload][u32 crc]`.
fn frame_into(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
}

/// Append `rows` to `out` as mirror frames `[u16 name len][table][rows]`,
/// halving the rows until every frame fits under [`MAX_RECORD_BYTES`].
fn mirror_frames_into(out: &mut Vec<u8>, table: &str, rows: &[Row]) {
    let name_len = u16::try_from(table.len()).expect("table name fits a u16 length");
    let mut payload = name_len.to_le_bytes().to_vec();
    payload.extend_from_slice(table.as_bytes());
    payload.extend_from_slice(&payless_market::encode_rows(rows));
    if payload.len() <= MAX_RECORD_BYTES as usize {
        frame_into(out, &payload);
    } else {
        assert!(
            rows.len() > 1,
            "one {table} row is over {MAX_RECORD_BYTES} bytes"
        );
        let (head, tail) = rows.split_at(rows.len() / 2);
        mirror_frames_into(out, table, head);
        mirror_frames_into(out, table, tail);
    }
}

/// Decode one mirror frame payload; `Err` names `mirror.log`.
fn decode_mirror_frame(payload: &[u8]) -> Result<(String, Vec<Row>), String> {
    let bad = |what: String| format!("mirror.log frame despite valid CRC: {what}");
    let name_len = match payload {
        [lo, hi, ..] => u16::from_le_bytes([*lo, *hi]) as usize,
        _ => return Err(bad("no table name length".into())),
    };
    let name = payload
        .get(2..2 + name_len)
        .ok_or_else(|| bad(format!("table name length {name_len} past the end")))?;
    let table = std::str::from_utf8(name).map_err(|e| bad(format!("table name: {e}")))?;
    let rows = payless_market::decode_rows(&payload[2 + name_len..])
        .map_err(|e| bad(format!("{table} rows: {e}")))?;
    Ok((table.to_string(), rows))
}

/// Open (creating if needed) the log `name` in `dir`, cut a torn tail off,
/// and leave it positioned to append. Returns the file, its valid frame
/// payloads, and the bytes cut.
fn open_log(dir: &Path, name: &str) -> Result<(File, Vec<Vec<u8>>, u64), String> {
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(false)
        .open(dir.join(name))
        .or_else(|e| io_err(&format!("open {name}"), e))?;
    let mut bytes = Vec::new();
    file.read_to_end(&mut bytes)
        .or_else(|e| io_err(&format!("read {name}"), e))?;
    let (payloads, valid_len) = scan_frames(&bytes);
    if valid_len < bytes.len() {
        // Torn tail from a crash mid-append: cut it off so the next
        // append starts on a frame boundary.
        file.set_len(valid_len as u64)
            .or_else(|e| io_err(&format!("truncate {name} tail"), e))?;
    }
    file.seek(SeekFrom::Start(valid_len as u64))
        .or_else(|e| io_err(&format!("seek {name}"), e))?;
    Ok((file, payloads, (bytes.len() - valid_len) as u64))
}

/// Scan `bytes` front to back, yielding valid payloads and the byte offset
/// where validity ends (the truncation point for a torn tail). Shared by
/// recovery and the prefix-truncation proptest.
pub fn scan_frames(bytes: &[u8]) -> (Vec<Vec<u8>>, usize) {
    let mut payloads = Vec::new();
    let mut off = 0usize;
    while let Some(header) = bytes.get(off..off + 4) {
        let len = u32::from_le_bytes(header.try_into().expect("4 bytes")) as usize;
        if len as u32 > MAX_RECORD_BYTES {
            break;
        }
        let Some(payload) = bytes.get(off + 4..off + 4 + len) else {
            break;
        };
        let Some(crc_bytes) = bytes.get(off + 4 + len..off + 8 + len) else {
            break;
        };
        let crc = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
        if crc != crc32(payload) {
            break;
        }
        payloads.push(payload.to_vec());
        off += 8 + len;
    }
    (payloads, off)
}

/// `true` iff `region` is a box of `space`: one interval per dimension,
/// each inside that dimension's domain.
fn fits(space: &QuerySpace, region: &Region) -> bool {
    region.arity() == space.arity() && space.full_region().contains(region)
}

impl DurableStore {
    /// Open (creating if needed) the data directory, replay `wal.log` into a
    /// warm [`SemanticStore`], decode the mirror rows backing its coverage
    /// from `mirror.log`, and return the durable store positioned to
    /// append. `spaces` registers the market tables records may name. Fails
    /// loudly when the two independently derived spend totals (summed
    /// ledger vs recorded absolute meter) disagree — never serve from
    /// corrupt money math.
    pub fn open(
        dir: &Path,
        cfg: PersistConfig,
        spaces: &[QuerySpace],
    ) -> Result<(DurableStore, SemanticStore, MirrorRows), String> {
        std::fs::create_dir_all(dir)
            .or_else(|e| io_err(&format!("create data dir {}", dir.display()), e))?;
        let mut store = SemanticStore::new();
        for space in spaces {
            store.register(space.clone());
        }

        let (wal, payloads, truncated) = open_log(dir, WAL)?;
        let mut ledger: BTreeMap<String, u64> = BTreeMap::new();
        let mut meter: BTreeMap<String, u64> = BTreeMap::new();
        let mut replayed = Vec::with_capacity(payloads.len());
        for payload in &payloads {
            let rec = WalRecord::decode(payload)?;
            let seq = replayed.len() as u64;
            if rec.seq != seq + 1 {
                return Err(format!(
                    "wal.log sequence gap: expected {}, found {} (log reordered or spliced)",
                    seq + 1,
                    rec.seq
                ));
            }
            let Some(space) = store.space(&rec.table) else {
                return Err(format!(
                    "wal.log seq {} references unregistered table {}",
                    rec.seq, rec.table
                ));
            };
            if !fits(space, &rec.region) {
                return Err(format!(
                    "wal.log seq {}: region {:?} is not a box of {}'s query space",
                    rec.seq,
                    rec.region.dims(),
                    rec.table
                ));
            }
            let entry = ledger.entry(rec.table.clone()).or_insert(0);
            *entry += rec.spend;
            if *entry != rec.meter {
                return Err(format!(
                    "wal.log spend mismatch replaying seq {} for table {}: summed ledger {} != \
                     recorded meter {} (a record was double-applied or lost)",
                    rec.seq, rec.table, *entry, rec.meter
                ));
            }
            meter.insert(rec.table.clone(), rec.meter);
            store.record(&rec.table, rec.region.clone(), rec.at);
            replayed.push((rec.table, rec.region));
        }

        // Every mirror frame replays: the log is the whole mirror.
        let (mirror, mirror_payloads, mirror_truncated) = open_log(dir, MIRROR)?;
        let mut mirror_rows: BTreeMap<String, Vec<Row>> = BTreeMap::new();
        for payload in &mirror_payloads {
            let (table, rows) = decode_mirror_frame(payload)?;
            mirror_rows.entry(table).or_default().extend(rows);
        }

        let recovered: MirrorRows = mirror_rows.into_iter().collect();
        let recovery = RecoveryInfo {
            replayed: replayed.len() as u64,
            truncated_bytes: truncated,
            mirror_rows: recovered.iter().map(|(_, rows)| rows.len() as u64).sum(),
            mirror_truncated_bytes: mirror_truncated,
        };
        let durable = DurableStore {
            dir: dir.to_path_buf(),
            cfg,
            inner: Mutex::new(Inner {
                wal,
                mirror,
                seq: replayed.len() as u64,
                ledger,
                meter,
                appends_total: 0,
            }),
            recovery,
            replayed: Mutex::new(replayed),
        };
        Ok((durable, store, recovered))
    }

    /// What recovery found when this store was opened.
    pub fn recovery(&self) -> &RecoveryInfo {
        &self.recovery
    }

    /// Wire this store into `shared` as its spend observer: every settled
    /// purchase appends one durable record.
    pub fn attach(self: &Arc<Self>, shared: &SharedSemanticStore) {
        let me = Arc::clone(self);
        shared.attach_observer(Arc::new(move |table, region, now, spend| {
            me.append(table, region, now, spend);
        }));
    }

    /// Append one settled purchase. Serialized under the persist mutex so
    /// the absolute `meter` field is exact; panics on I/O failure (a
    /// half-working durability layer is worse than a dead server).
    pub fn append(&self, table: &str, region: &Region, now: u64, spend: u64) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.seq += 1;
        let entry = inner.ledger.entry(table.to_string()).or_insert(0);
        *entry += spend;
        let meter_after = *entry;
        inner.meter.insert(table.to_string(), meter_after);
        let rec = WalRecord {
            seq: inner.seq,
            table: table.to_string(),
            at: now,
            spend,
            meter: meter_after,
            region: region.clone(),
        };
        let payload = rec.encode();
        let mut framed = Vec::with_capacity(payload.len() + 8);
        frame_into(&mut framed, &payload);
        inner.appends_total += 1;
        if self.cfg.crash_after_appends == Some(inner.appends_total) {
            // Deterministic torn write: half a frame, then die. Recovery
            // must truncate exactly here and lose only this record.
            let torn = &framed[..4 + payload.len() / 2];
            let _ = inner.wal.write_all(torn);
            let _ = inner.wal.flush();
            eprintln!(
                "payless-server: injected crash mid-append (seq {})",
                rec.seq
            );
            std::process::abort();
        }
        inner
            .wal
            .write_all(&framed)
            .unwrap_or_else(|e| panic!("wal append failed: {e}"));
        inner
            .wal
            .flush()
            .unwrap_or_else(|e| panic!("wal flush failed: {e}"));
    }

    /// Append the rows one market delivery added to the mirror log. Called
    /// by the executor's row observer *after* the rows landed in the serving
    /// layer's local mirror (still under its write lock) and *before* the
    /// purchase's spend record is appended — so every spend record that
    /// survives a crash has its rows earlier in this log. Panics on I/O
    /// failure, like [`DurableStore::append`].
    pub fn append_rows(&self, table: &str, rows: &[Row]) {
        if rows.is_empty() {
            return;
        }
        let mut framed = Vec::new();
        mirror_frames_into(&mut framed, table, rows);
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner
            .mirror
            .write_all(&framed)
            .unwrap_or_else(|e| panic!("mirror append failed: {e}"));
        inner
            .mirror
            .flush()
            .unwrap_or_else(|e| panic!("mirror flush failed: {e}"));
    }

    /// Always `Ok(false)`: the logs are the state, so there is never a
    /// snapshot to take. Kept with its signature only for
    /// `benchmark/src/ledger.rs`, which polls it after every query;
    /// `clippy.toml` forbids workspace callers.
    pub fn maybe_snapshot(
        &self,
        _shared: &SharedSemanticStore,
        _mirror_dump: &dyn Fn() -> MirrorRows,
    ) -> Result<bool, String> {
        Ok(false)
    }

    /// Current durability status (for `/v1/store`).
    pub fn status(&self) -> PersistStatus {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let tables = inner
            .ledger
            .iter()
            .map(|(table, pages)| TableLedger {
                table: table.clone(),
                ledger_pages: *pages,
                meter_pages: inner.meter.get(table).copied().unwrap_or(0),
            })
            .collect();
        PersistStatus {
            last_seq: inner.seq,
            appends: inner.appends_total,
            recovery: self.recovery.clone(),
            tables,
        }
    }
}

/// Recover the data directory `dir` into a [`Serve`] — the one recovery
/// routine, behind both `Server::start` and the REPL's `--session`. Opens
/// and replays both logs ([`DurableStore::open`] over every table of
/// `market`), hands the warm store to `build` (whose [`Serve::with_store`]
/// resumes the clock after the last logged purchase), then, in this order:
///
/// 1. seeds the serving state's mirror with the rows of `mirror.log`;
/// 2. re-derives the statistics: for each replayed purchase, in log order,
///    the `feedback(region, records)` its delivery made, with `records`
///    counted from the recovered mirror rows inside the region;
/// 3. attaches both observers, so every later purchase is logged.
pub fn recover(
    dir: &Path,
    cfg: PersistConfig,
    market: &DataMarket,
    build: impl FnOnce(SemanticStore) -> Serve,
) -> Result<(Serve, Arc<DurableStore>), String> {
    let spaces: Vec<QuerySpace> = market
        .table_names()
        .iter()
        .map(|name| QuerySpace::of(market.schema(name).expect("listed table")))
        .collect();
    let (durable, store, mirror) = DurableStore::open(dir, cfg, &spaces)?;
    let durable = Arc::new(durable);
    let serve = build(store);
    let shared = serve.state();
    for (table, rows) in mirror {
        let schema = market
            .schema(&table)
            .ok_or_else(|| format!("mirror.log holds rows of unknown table {table}"))?;
        shared.seed_mirror(schema, rows);
    }
    let replayed = std::mem::take(&mut *durable.replayed.lock().unwrap_or_else(|e| e.into_inner()));
    for (table, region) in &replayed {
        shared.replay_feedback(table, region);
    }
    durable.attach(shared.store());
    let me = Arc::clone(&durable);
    shared.attach_row_observer(Arc::new(move |table, rows| me.append_rows(table, rows)));
    Ok((serve, durable))
}

impl std::fmt::Debug for DurableStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableStore")
            .field("dir", &self.dir)
            .field("cfg", &self.cfg)
            .field("recovery", &self.recovery)
            .finish()
    }
}

impl payless_json::ToJson for PersistStatus {
    fn to_json(&self) -> Json {
        Json::obj([
            ("durable", Json::Bool(true)),
            ("last_seq", Json::Int(self.last_seq as i64)),
            ("appends", Json::Int(self.appends as i64)),
            (
                "recovery",
                Json::obj([
                    ("replayed", Json::Int(self.recovery.replayed as i64)),
                    (
                        "truncated_bytes",
                        Json::Int(self.recovery.truncated_bytes as i64),
                    ),
                    ("mirror_rows", Json::Int(self.recovery.mirror_rows as i64)),
                    (
                        "mirror_truncated_bytes",
                        Json::Int(self.recovery.mirror_truncated_bytes as i64),
                    ),
                ]),
            ),
            (
                "tables",
                Json::Arr(
                    self.tables
                        .iter()
                        .map(|t| {
                            Json::obj([
                                ("table", Json::Str(t.table.clone())),
                                ("ledger_pages", Json::Int(t.ledger_pages as i64)),
                                ("meter_pages", Json::Int(t.meter_pages as i64)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use payless_types::{Column, Domain, Schema};

    fn space() -> QuerySpace {
        QuerySpace::of(&Schema::new(
            "T",
            vec![Column::free("A", Domain::int(0, 999))],
        ))
    }

    fn r(lo: i64, hi: i64) -> Region {
        Region::new(vec![Interval::new(lo, hi)])
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("payless-persist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn append_recover_roundtrip_reconciles() {
        let dir = tmpdir("roundtrip");
        let cfg = PersistConfig::default();
        {
            let (durable, store, _) = DurableStore::open(&dir, cfg, &[space()]).unwrap();
            assert_eq!(store.view_count("T"), 0);
            durable.append("T", &r(0, 9), 1, 10);
            durable.append("T", &r(10, 19), 2, 10);
            durable.append("T", &r(100, 149), 3, 50);
        }
        let (durable, mut store, _) = DurableStore::open(&dir, cfg, &[space()]).unwrap();
        store.register(space());
        let status = durable.status();
        assert!(status.reconciles());
        assert_eq!(status.recovery.replayed, 3);
        assert_eq!(status.recovery.truncated_bytes, 0);
        assert_eq!(status.tables.len(), 1);
        assert_eq!(status.tables[0].ledger_pages, 70);
        assert!(store.covers("T", &r(0, 19), payless_semantic::Consistency::Weak, 4));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_truncates_and_loses_only_the_tail() {
        let dir = tmpdir("torn");
        let cfg = PersistConfig::default();
        {
            let (durable, _, _) = DurableStore::open(&dir, cfg, &[space()]).unwrap();
            durable.append("T", &r(0, 9), 1, 10);
            durable.append("T", &r(10, 19), 2, 7);
        }
        // Tear the last frame by chopping 5 bytes off the file.
        let path = dir.join(WAL);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let (durable, _store, _) = DurableStore::open(&dir, cfg, &[space()]).unwrap();
        let status = durable.status();
        assert!(status.reconciles());
        assert_eq!(
            status.recovery.replayed, 1,
            "only the intact record survives"
        );
        assert!(status.recovery.truncated_bytes > 0);
        assert_eq!(status.tables[0].ledger_pages, 10);
        // The truncated log appends cleanly afterwards.
        durable.append("T", &r(10, 19), 3, 7);
        drop(durable);
        let (durable, _, _) = DurableStore::open(&dir, cfg, &[space()]).unwrap();
        assert_eq!(durable.status().tables[0].ledger_pages, 17);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mirror_rows_survive_restart() {
        let dir = tmpdir("mirror");
        let cfg = PersistConfig::default();
        let frame_a = vec![payless_types::row!(0), payless_types::row!(1)];
        let frame_b = vec![payless_types::row!(10)];
        {
            let (durable, _, recovered) = DurableStore::open(&dir, cfg, &[space()]).unwrap();
            assert!(recovered.is_empty());
            durable.append_rows("T", &frame_a);
        }
        {
            // Plain restart: logged rows come back, and the log is left as
            // it was — it is the only copy of the rows.
            let mirror_len = std::fs::metadata(dir.join(MIRROR)).unwrap().len();
            let (durable, _, recovered) = DurableStore::open(&dir, cfg, &[space()]).unwrap();
            assert_eq!(recovered, vec![("T".to_string(), frame_a.clone())]);
            assert_eq!(durable.recovery().mirror_rows, 2);
            assert_eq!(
                std::fs::metadata(dir.join(MIRROR)).unwrap().len(),
                mirror_len
            );
            // A delivery that arrives twice replays twice; the mirror's set
            // insert drops the copy.
            durable.append_rows("T", &frame_a);
            durable.append_rows("T", &frame_b);
        }
        let (durable, _, recovered) = DurableStore::open(&dir, cfg, &[space()]).unwrap();
        let rows: Vec<Row> = recovered.iter().flat_map(|(_, r)| r.clone()).collect();
        assert_eq!(rows, [frame_a.clone(), frame_a, frame_b].concat());
        assert_eq!(durable.recovery().mirror_rows, 5);
        assert_eq!(durable.recovery().mirror_truncated_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A delivery larger than one frame may be is split across frames, so
    /// recovery never mistakes it for a torn tail and cuts it (with every
    /// later frame) off.
    #[test]
    fn oversized_delivery_recovers_every_row() {
        let dir = tmpdir("oversized");
        let cfg = PersistConfig::default();
        let big: Vec<Row> = (0..100_000i64).map(|i| payless_types::row!(i)).collect();
        let last = vec![payless_types::row!(-1)];
        {
            let (durable, _, _) = DurableStore::open(&dir, cfg, &[space()]).unwrap();
            durable.append_rows("T", &big);
            durable.append_rows("T", &last);
        }
        let (durable, _, recovered) = DurableStore::open(&dir, cfg, &[space()]).unwrap();
        assert_eq!(durable.recovery().mirror_truncated_bytes, 0);
        assert_eq!(durable.recovery().mirror_rows, 100_001);
        assert_eq!(recovered, vec![("T".to_string(), [big, last].concat())]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Recovery fails with an error naming `log` when that log holds one
    /// frame with `payload` — no panic, and no allocation sized by a count
    /// the bytes cannot back.
    fn assert_hostile(log: &str, what: &str, payload: &[u8]) {
        let dir = tmpdir(&format!("hostile-{log}"));
        std::fs::create_dir_all(&dir).unwrap();
        let mut framed = Vec::new();
        frame_into(&mut framed, payload);
        std::fs::write(dir.join(log), &framed).unwrap();
        let err = DurableStore::open(&dir, PersistConfig::default(), &[space()])
            .map(|_| ())
            .expect_err(what);
        assert!(err.contains(log), "{what}: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A mirror frame whose CRC holds but whose payload lies.
    #[test]
    fn hostile_mirror_frames_fail_recovery_naming_the_log() {
        let rows = |body: &[u8]| [&[1, 0, b'T'][..], body].concat();
        let cases: [(&str, Vec<u8>); 7] = [
            ("no name length", vec![1]),
            ("name length past the end", vec![9, 0, b'T']),
            (
                "non-UTF-8 name",
                [&[2, 0, 0xff, 0xfe][..], &payless_market::encode_rows(&[])].concat(),
            ),
            ("row count past the body", rows(&[5, 0, 0, 0])),
            (
                "2^32 - 1 rows in a 4-byte body",
                rows(&u32::MAX.to_le_bytes()),
            ),
            ("unknown value tag", rows(&[1, 0, 0, 0, 1, 0, 9])),
            (
                "trailing bytes",
                [rows(&payless_market::encode_rows(&[])), vec![7]].concat(),
            ),
        ];
        for (what, payload) in cases {
            assert_hostile(MIRROR, what, &payload);
        }
    }

    /// A WAL payload with every field but the table name and the region at 1.
    fn wal_payload(name: &[u8], dims: &[(i64, i64)]) -> Vec<u8> {
        let mut out = 1u64.to_le_bytes().to_vec();
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name);
        for _ in 0..3 {
            out.extend_from_slice(&1u64.to_le_bytes());
        }
        out.extend_from_slice(&(dims.len() as u16).to_le_bytes());
        for (lo, hi) in dims {
            out.extend_from_slice(&lo.to_le_bytes());
            out.extend_from_slice(&hi.to_le_bytes());
        }
        out
    }

    #[test]
    fn wal_records_round_trip() {
        let rec = WalRecord {
            seq: 7,
            table: "Weather".into(),
            at: 3,
            spend: 12,
            meter: 40,
            region: Region::new(vec![Interval::new(-5, 9), Interval::new(0, 0)]),
        };
        let payload = rec.encode();
        assert_eq!(payload.len(), 8 + (2 + 7) + 3 * 8 + 2 + 2 * 16);
        assert_eq!(WalRecord::decode(&payload), Ok(rec));
        // The hostile cases below are edits of this valid record.
        let valid = WalRecord {
            seq: 1,
            table: "T".into(),
            at: 1,
            spend: 1,
            meter: 1,
            region: r(0, 9),
        };
        assert_eq!(WalRecord::decode(&wal_payload(b"T", &[(0, 9)])), Ok(valid));
    }

    /// A spend record whose CRC holds but whose payload lies — including a
    /// region of the wrong arity or outside its table's domain, which would
    /// otherwise panic in a debug build and be stored as a malformed view in
    /// a release build.
    #[test]
    fn hostile_wal_records_fail_recovery_naming_the_log() {
        let valid = wal_payload(b"T", &[(0, 9)]);
        let cases: [(&str, Vec<u8>); 11] = [
            ("empty payload", Vec::new()),
            ("short payload", valid[..valid.len() - 1].to_vec()),
            ("trailing bytes", [&valid[..], &[7]].concat()),
            (
                "name length past the end",
                [&1u64.to_le_bytes()[..], &[9, 0, b'T']].concat(),
            ),
            (
                "non-UTF-8 table name",
                wal_payload(&[0xff, 0xfe], &[(0, 9)]),
            ),
            ("unregistered table", wal_payload(b"U", &[(0, 9)])),
            ("no dimensions", wal_payload(b"T", &[])),
            (
                "one dimension too many",
                wal_payload(b"T", &[(0, 9), (0, 9)]),
            ),
            ("lower bound above the upper", wal_payload(b"T", &[(9, 0)])),
            (
                "upper bound past the domain",
                wal_payload(b"T", &[(0, 1000)]),
            ),
            (
                "lower bound before the domain",
                wal_payload(b"T", &[(-1, 9)]),
            ),
        ];
        for (what, payload) in cases {
            assert_hostile(WAL, what, &payload);
        }
    }

    #[test]
    fn duplicated_frame_fails_recovery_loudly() {
        let dir = tmpdir("dup");
        let cfg = PersistConfig::default();
        {
            let (durable, _, _) = DurableStore::open(&dir, cfg, &[space()]).unwrap();
            durable.append("T", &r(0, 9), 1, 10);
        }
        // Replay-splice attack / filesystem duplication: the same frame
        // twice must not silently double the ledger.
        let path = dir.join(WAL);
        let bytes = std::fs::read(&path).unwrap();
        let mut doubled = bytes.clone();
        doubled.extend_from_slice(&bytes);
        std::fs::write(&path, &doubled).unwrap();
        let err = DurableStore::open(&dir, cfg, &[space()]).unwrap_err();
        assert!(
            err.contains("sequence gap") || err.contains("spend mismatch"),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
