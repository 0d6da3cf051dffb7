//! Durable purchases: one append-only log, `wal.log`, in the data
//! directory.
//!
//! The semantic store keeps every market call and its result, and the
//! statistics are refined from every retrieved result, so coverage, mirror
//! and statistics are all functions of one ordered purchase history: the
//! log *is* the state. Each delivery that lands appends one frame under the
//! mirror's write lock, right after its rows and statistics feedback
//! ([`PurchaseLog`]), so log order is landing order for any number of
//! clients.
//!
//! A frame is `[u32 len][payload][u32 crc32]`. The payload is `seq`, the
//! table as `[u16 len][name]`, the logical time `at`, the pages billed, the
//! table's *absolute* cumulative spend after this purchase (`meter`), the
//! rows delivered (`records`), a coverage byte (1 iff the store records the
//! region), the region as `[u16 dims]` plus an `(lo, hi)` pair per
//! dimension, and last the rows the mirror newly added, in the `/v1/query`
//! row codec. Integers are little-endian, u64 (bounds i64) unless sized. A
//! re-bought row is not logged again, so the log holds each distinct row
//! once; only recovery's torn-tail cut ever shortens it.
//!
//! **Recovery** ([`recover`], for the server and the REPL) reads the log
//! once, front to back. [`DurableStore::open`] checks each frame (CRC,
//! shape, strictly increasing `seq`, a registered table, a region inside
//! its query space, the summed ledger equal to the frame's absolute meter)
//! and records covered regions into a warm [`SemanticStore`]; [`recover`]
//! then lands each frame's rows and `feedback(region, records)` in log
//! order ([`SharedState::replay`]). A torn tail from a crash mid-append is
//! cut off; a frame whose CRC holds but whose payload lies, or a directory
//! of the old two-log format (with a `mirror.log`), fails recovery.
//!
//! The in-memory state is momentarily *ahead* of the log (landed, frame
//! pending): a crash then loses only a purchase whose frame was never
//! written, which a restarted server buys again. A frame carries coverage
//! and rows together, so no crash leaves one without the other.

use std::collections::BTreeMap;
use std::fs::OpenOptions;
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use payless_exec::{Purchase, PurchaseLog, SharedState};
use payless_geometry::{Interval, QuerySpace, Region};
use payless_json::Json;
use payless_market::DataMarket;
use payless_semantic::{SemanticStore, SharedSemanticStore};
use payless_serve::Serve;
use payless_types::Row;

/// IEEE CRC-32 (the zip/PNG polynomial), table-driven.
static CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = (c >> 1) ^ (0xedb8_8320 & (c & 1).wrapping_neg());
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

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

/// What recovery found on disk, surfaced via `/v1/store`.
#[derive(Debug, Clone, Default)]
pub struct RecoveryInfo {
    /// Valid frames replayed.
    pub replayed: u64,
    /// Bytes cut off the log tail (a torn frame from a crash mid-append).
    pub truncated_bytes: u64,
    /// Mirror rows the replayed frames carried.
    pub rows: u64,
}

/// Per-table reconciliation row: the two independently derived totals that
/// must agree (summed ledger vs absolute meter of the last frame).
#[derive(Debug, Clone)]
pub struct TableLedger {
    /// Market table name.
    pub table: String,
    /// Pages attributed by summing every applied frame's pages.
    pub ledger_pages: u64,
    /// Absolute cumulative meter carried by the table's last frame.
    pub meter_pages: u64,
}

/// Point-in-time durability status for `/v1/store`.
#[derive(Debug, Clone)]
pub struct PersistStatus {
    /// Last sequence number assigned: the number of frames in `wal.log`.
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

#[derive(Debug)]
struct Inner {
    wal: std::fs::File,
    /// Last sequence number assigned.
    seq: u64,
    /// Per-table cumulative pages, derived by summation.
    ledger: BTreeMap<String, u64>,
    /// Per-table absolute meter from the last frame (== ledger always,
    /// kept separate so recovery can cross-check the two derivations).
    meter: BTreeMap<String, u64>,
    appends_total: u64,
}

/// The durable store: owns the data directory and serializes every append
/// under one mutex. Construct with [`DurableStore::open`] (which checks the
/// log); [`recover`] does that and wires the result into serving state.
#[derive(Debug)]
pub struct DurableStore {
    cfg: PersistConfig,
    inner: Mutex<Inner>,
    recovery: RecoveryInfo,
}

/// One logged purchase, decoded: what [`DurableStore::open`] checked and
/// hands [`recover`] to land again.
#[derive(Debug, PartialEq)]
pub struct Frame {
    seq: u64,
    table: String,
    at: u64,
    pages: u64,
    meter: u64,
    records: u64,
    coverage: bool,
    region: Region,
    rows: Vec<Row>,
}

/// The frame payload logging `p` as purchase `seq`, after which its table's
/// absolute meter reads `meter` (layout in the module doc).
fn encode(seq: u64, meter: u64, p: &Purchase<'_>) -> Vec<u8> {
    let name_len = u16::try_from(p.table.len()).expect("table name fits a u16 length");
    let dims = p.region.dims();
    let arity = u16::try_from(dims.len()).expect("region arity fits a u16");
    let mut out = seq.to_le_bytes().to_vec();
    out.extend_from_slice(&name_len.to_le_bytes());
    out.extend_from_slice(p.table.as_bytes());
    for v in [p.at, p.pages, meter, p.records] {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out.push(u8::from(p.coverage));
    out.extend_from_slice(&arity.to_le_bytes());
    for iv in dims {
        out.extend_from_slice(&iv.lo.to_le_bytes());
        out.extend_from_slice(&iv.hi.to_le_bytes());
    }
    out.extend_from_slice(&payless_market::encode_rows(p.rows));
    out
}

impl Frame {
    /// Decode one frame payload; `Err` names `wal.log`.
    fn decode(payload: &[u8]) -> Result<Frame, String> {
        Self::read(&mut Cursor(payload))
            .map_err(|what| format!("wal.log frame despite valid CRC: {what}"))
    }

    fn read(c: &mut Cursor<'_>) -> Result<Frame, String> {
        let seq = c.u64()?;
        let name_len = u16::from_le_bytes(c.le()?) as usize;
        let table = std::str::from_utf8(c.take(name_len)?)
            .map_err(|e| format!("table name: {e}"))?
            .to_string();
        let (at, pages, meter, records) = (c.u64()?, c.u64()?, c.u64()?, c.u64()?);
        let coverage = match c.take(1)? {
            [0] => false,
            [1] => true,
            other => return Err(format!("coverage byte {other:?}")),
        };
        let arity = u16::from_le_bytes(c.le()?);
        if arity == 0 {
            return Err("a region needs at least one dimension".into());
        }
        let dims = (0..arity)
            .map(|_| match (c.u64()? as i64, c.u64()? as i64) {
                (lo, hi) if lo > hi => Err(format!("empty interval [{lo}, {hi}]")),
                (lo, hi) => Ok(Interval::new(lo, hi)),
            })
            .collect::<Result<Vec<_>, String>>()?;
        let rows = payless_market::decode_rows(c.0).map_err(|e| format!("{table} rows: {e}"))?;
        Ok(Frame {
            seq,
            table,
            at,
            pages,
            meter,
            records,
            coverage,
            region: Region::new(dims),
            rows,
        })
    }
}

/// The unread rest of a frame payload.
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

    /// The next `N` bytes, to read a little-endian integer from.
    fn le<const N: usize>(&mut self) -> Result<[u8; N], String> {
        Ok(self.take(N)?.try_into().expect("N bytes"))
    }

    fn u64(&mut self) -> Result<u64, String> {
        self.le().map(u64::from_le_bytes)
    }
}

/// `payload` framed as `[u32 len][payload][u32 crc]`.
fn framed(payload: &[u8]) -> Vec<u8> {
    let len = u32::try_from(payload.len()).expect("a purchase frame fits a u32 length");
    [
        &len.to_le_bytes()[..],
        payload,
        &crc32(payload).to_le_bytes(),
    ]
    .concat()
}

/// Scan `bytes` front to back, yielding valid payloads and the byte offset
/// where validity ends (the truncation point for a torn tail). A length is
/// only ever sliced out of `bytes`, never trusted past them. Shared by
/// recovery and the prefix-truncation proptest.
pub fn scan_frames(bytes: &[u8]) -> (Vec<&[u8]>, usize) {
    let mut payloads = Vec::new();
    let mut off = 0usize;
    while let Some(header) = bytes.get(off..off + 4) {
        let len = u32::from_le_bytes(header.try_into().expect("4 bytes")) as usize;
        let end = off + 4 + len;
        let (Some(payload), Some(crc_bytes)) = (bytes.get(off + 4..end), bytes.get(end..end + 4))
        else {
            break;
        };
        if u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes")) != crc32(payload) {
            break;
        }
        payloads.push(payload);
        off = end + 4;
    }
    (payloads, off)
}

impl DurableStore {
    /// Open (creating if needed) the data directory and check `wal.log`
    /// (see the module doc), returning the store positioned to append, the
    /// warm [`SemanticStore`] and the decoded frames. `spaces` registers the
    /// tables frames may name. Never serve from corrupt money math.
    pub fn open(
        dir: &Path,
        cfg: PersistConfig,
        spaces: &[QuerySpace],
    ) -> Result<(DurableStore, SemanticStore, Vec<Frame>), String> {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("create data dir {}: {e}", dir.display()))?;
        if dir.join("mirror.log").exists() {
            return Err(format!(
                "{} is in the old two-log format (wal.log + mirror.log), which this \
                 version cannot read: its rows would be lost",
                dir.display()
            ));
        }
        let mut store = SemanticStore::new();
        for space in spaces {
            store.register(space.clone());
        }
        let mut wal = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(dir.join("wal.log"))
            .map_err(|e| format!("open wal.log: {e}"))?;
        let mut bytes = Vec::new();
        wal.read_to_end(&mut bytes)
            .map_err(|e| format!("read wal.log: {e}"))?;
        let (payloads, valid_len) = scan_frames(&bytes);

        let mut ledger: BTreeMap<String, u64> = BTreeMap::new();
        let mut meter: BTreeMap<String, u64> = BTreeMap::new();
        let mut frames = Vec::with_capacity(payloads.len());
        for payload in payloads {
            let f = Frame::decode(payload)?;
            let seq = frames.len() as u64 + 1;
            let spent = ledger.entry(f.table.clone()).or_insert(0);
            *spent += f.pages;
            let problem = match store.space(&f.table) {
                _ if f.seq != seq => format!("sequence gap: expected seq {seq} (log spliced)"),
                None => "unregistered table".to_string(),
                // One interval per dimension, each inside its domain.
                Some(s)
                    if f.region.arity() != s.arity() || !s.full_region().contains(&f.region) =>
                {
                    format!(
                        "region {:?} is not a box of its query space",
                        f.region.dims()
                    )
                }
                _ if *spent != f.meter => format!(
                    "spend mismatch: summed ledger {spent} != recorded meter {} (a frame was \
                     double-applied or lost)",
                    f.meter
                ),
                _ => String::new(),
            };
            if !problem.is_empty() {
                return Err(format!(
                    "wal.log seq {}, table {}: {problem}",
                    f.seq, f.table
                ));
            }
            meter.insert(f.table.clone(), f.meter);
            if f.coverage {
                store.record(&f.table, f.region.clone(), f.at);
            }
            frames.push(f);
        }
        if valid_len < bytes.len() {
            // Torn tail from a crash mid-append: cut it off so the next
            // append starts on a frame boundary.
            wal.set_len(valid_len as u64)
                .map_err(|e| format!("truncate wal.log tail: {e}"))?;
        }
        wal.seek(SeekFrom::Start(valid_len as u64))
            .map_err(|e| format!("seek wal.log: {e}"))?;

        let recovery = RecoveryInfo {
            replayed: frames.len() as u64,
            truncated_bytes: (bytes.len() - valid_len) as u64,
            rows: frames.iter().map(|f| f.rows.len() as u64).sum(),
        };
        let durable = DurableStore {
            cfg,
            inner: Mutex::new(Inner {
                wal,
                seq: frames.len() as u64,
                ledger,
                meter,
                appends_total: 0,
            }),
            recovery,
        };
        Ok((durable, store, frames))
    }

    /// What recovery found when this store was opened.
    pub fn recovery(&self) -> &RecoveryInfo {
        &self.recovery
    }

    /// Does nothing: a purchase is logged where its delivery lands
    /// ([`PurchaseLog::append_purchase`]). Kept for `benchmark/` only.
    pub fn append(&self, _table: &str, _region: &Region, _now: u64, _spend: u64) {}

    /// Does nothing, like `append`. Kept for `benchmark/` only.
    pub fn append_rows(&self, _table: &str, _rows: &[Row]) {}

    /// Always `Ok(false)`: the log is the state, so there is never a
    /// snapshot to take. Kept for `benchmark/` only.
    pub fn maybe_snapshot(
        &self,
        _shared: &SharedSemanticStore,
        _mirror_dump: &dyn Fn() -> Vec<(String, Vec<Row>)>,
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

impl PurchaseLog for DurableStore {
    /// Append `p` as the next frame. Serialized under the persist mutex so
    /// the absolute `meter` field is exact; panics on I/O failure (a
    /// half-working durability layer is worse than a dead server).
    fn append_purchase(&self, p: &Purchase<'_>) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.seq += 1;
        let seq = inner.seq;
        let entry = inner.ledger.entry(p.table.to_string()).or_insert(0);
        *entry += p.pages;
        let meter = *entry;
        inner.meter.insert(p.table.to_string(), meter);
        let payload = encode(seq, meter, p);
        let framed = framed(&payload);
        inner.appends_total += 1;
        if self.cfg.crash_after_appends == Some(inner.appends_total) {
            // Deterministic torn write: half a frame, then die. Recovery
            // must truncate exactly here and lose only this purchase.
            let torn = &framed[..4 + payload.len() / 2];
            let _ = inner.wal.write_all(torn);
            let _ = inner.wal.flush();
            eprintln!("payless-server: injected crash mid-append (seq {seq})");
            std::process::abort();
        }
        let wal = &mut inner.wal;
        wal.write_all(&framed)
            .and_then(|()| wal.flush())
            .unwrap_or_else(|e| panic!("wal append failed: {e}"));
    }
}

/// Recover the data directory `dir` into a [`Serve`] — the one recovery
/// routine, behind both `Server::start` and the REPL's `--session`. Checks
/// the log ([`DurableStore::open`] over every table of `market`), hands the
/// warm store to `build` (whose [`Serve::with_store`] resumes the clock
/// after the last logged coverage), lands every frame's rows and feedback
/// in log order, and attaches the log so every later delivery is logged.
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
    let (durable, store, frames) = DurableStore::open(dir, cfg, &spaces)?;
    let serve = build(store);
    let state: &SharedState = serve.state();
    for f in frames {
        let schema = market.schema(&f.table).expect("open checked the table");
        if f.rows.iter().any(|row| row.arity() != schema.arity()) {
            return Err(format!(
                "wal.log seq {}: a row is not a {} row",
                f.seq, f.table
            ));
        }
        state.replay(schema, &f.region, f.rows, f.records);
    }
    let durable = Arc::new(durable);
    state.attach_log(durable.clone());
    Ok((serve, durable))
}

impl payless_json::ToJson for PersistStatus {
    fn to_json(&self) -> Json {
        let int = |v: u64| Json::Int(v as i64);
        let recovery = &self.recovery;
        let table = |t: &TableLedger| {
            Json::obj([
                ("table", Json::Str(t.table.clone())),
                ("ledger_pages", int(t.ledger_pages)),
                ("meter_pages", int(t.meter_pages)),
            ])
        };
        Json::obj([
            ("durable", Json::Bool(true)),
            ("last_seq", int(self.last_seq)),
            ("appends", int(self.appends)),
            (
                "recovery",
                Json::obj([
                    ("replayed", int(recovery.replayed)),
                    ("truncated_bytes", int(recovery.truncated_bytes)),
                    ("rows", int(recovery.rows)),
                ]),
            ),
            ("tables", Json::Arr(self.tables.iter().map(table).collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use payless_types::{row, Column, Domain, Schema};

    fn space() -> QuerySpace {
        QuerySpace::of(&Schema::new(
            "T",
            vec![Column::free("A", Domain::int(0, 999))],
        ))
    }

    fn r(lo: i64, hi: i64) -> Region {
        Region::new(vec![Interval::new(lo, hi)])
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("payless-persist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn open(dir: &Path) -> (DurableStore, SemanticStore, Vec<Frame>) {
        DurableStore::open(dir, PersistConfig::default(), &[space()]).unwrap()
    }

    /// Log a covered purchase of `region` of `T` that added `rows`.
    fn buy(durable: &DurableStore, region: &Region, at: u64, pages: u64, rows: &[Row]) {
        durable.append_purchase(&Purchase {
            table: "T",
            at,
            pages,
            region,
            records: rows.len() as u64,
            coverage: true,
            rows,
        });
    }

    #[test]
    fn append_recover_roundtrip_reconciles() {
        let dir = tmpdir("roundtrip");
        {
            let (durable, store, _) = open(&dir);
            assert_eq!(store.view_count("T"), 0);
            buy(&durable, &r(0, 9), 1, 10, &[]);
            buy(&durable, &r(10, 19), 2, 10, &[]);
            buy(&durable, &r(100, 149), 3, 50, &[]);
        }
        let (durable, store, frames) = open(&dir);
        let status = durable.status();
        assert!(status.reconciles());
        assert_eq!(status.recovery.replayed, 3);
        assert_eq!(frames.len(), 3);
        assert_eq!(status.recovery.truncated_bytes, 0);
        assert_eq!(status.tables.len(), 1);
        assert_eq!(status.tables[0].ledger_pages, 70);
        assert!(store.covers("T", &r(0, 19), payless_semantic::Consistency::Weak, 4));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_truncates_and_loses_only_the_tail() {
        let dir = tmpdir("torn");
        {
            let (durable, _, _) = open(&dir);
            buy(&durable, &r(0, 9), 1, 10, &[row!(0)]);
            buy(&durable, &r(10, 19), 2, 7, &[row!(10)]);
        }
        // Tear the last frame by chopping 5 bytes off the file.
        let path = dir.join("wal.log");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let (durable, store, frames) = open(&dir);
        let status = durable.status();
        assert!(status.reconciles());
        assert_eq!(
            status.recovery.replayed, 1,
            "only the intact frame survives"
        );
        assert_eq!(frames[0].rows, [row!(0)]);
        assert!(status.recovery.truncated_bytes > 0);
        assert_eq!(status.tables[0].ledger_pages, 10);
        assert!(!store.covers("T", &r(10, 19), payless_semantic::Consistency::Weak, 3));
        // The truncated log appends cleanly afterwards.
        buy(&durable, &r(10, 19), 3, 7, &[row!(10)]);
        drop(durable);
        let (durable, _, _) = open(&dir);
        assert_eq!(durable.status().tables[0].ledger_pages, 17);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mirror_rows_survive_restart() {
        let dir = tmpdir("mirror");
        let (a, b) = (vec![row!(0), row!(1)], vec![row!(10)]);
        {
            let (durable, _, frames) = open(&dir);
            assert!(frames.is_empty());
            buy(&durable, &r(0, 1), 1, 1, &a);
        }
        {
            // Plain restart: the logged rows come back, and the log is left
            // as it was — it is the only copy of the rows.
            let len = std::fs::metadata(dir.join("wal.log")).unwrap().len();
            let (durable, _, frames) = open(&dir);
            assert_eq!(frames[0].rows, a);
            assert_eq!(durable.recovery().rows, 2);
            assert_eq!(std::fs::metadata(dir.join("wal.log")).unwrap().len(), len);
            // A re-buy that added no rows, then one that did.
            buy(&durable, &r(0, 1), 2, 1, &[]);
            buy(&durable, &r(10, 10), 3, 1, &b);
        }
        let (durable, _, frames) = open(&dir);
        let rows: Vec<Vec<Row>> = frames.into_iter().map(|f| f.rows).collect();
        assert_eq!(rows, [a, Vec::new(), b]);
        assert_eq!(durable.recovery().rows, 3);
        assert_eq!(durable.recovery().truncated_bytes, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A delivery of any size is one frame, and recovery never mistakes it
    /// for a torn tail and cuts it (with every later frame) off.
    #[test]
    fn oversized_delivery_recovers_every_row() {
        let dir = tmpdir("oversized");
        let big: Vec<Row> = (0..100_000i64).map(|i| row!(i)).collect();
        let last = vec![row!(-1)];
        {
            let (durable, _, _) = open(&dir);
            buy(&durable, &r(0, 999), 1, 1_000, &big);
            buy(&durable, &r(0, 0), 2, 1, &last);
            assert!(std::fs::metadata(dir.join("wal.log")).unwrap().len() > 1 << 20);
        }
        let (durable, _, frames) = open(&dir);
        assert_eq!(durable.recovery().truncated_bytes, 0);
        assert_eq!(durable.recovery().rows, 100_001);
        assert_eq!(frames.len(), 2);
        let rows: Vec<Row> = frames.into_iter().flat_map(|f| f.rows).collect();
        assert_eq!(rows, [big, last].concat());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Recovery fails with an error naming `wal.log` when it holds one
    /// frame with `payload` — no panic, and no allocation sized by a count
    /// the bytes cannot back.
    fn assert_hostile(what: &str, payload: &[u8]) {
        let dir = tmpdir(&format!("hostile-{what}"));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("wal.log"), framed(payload)).unwrap();
        let err = DurableStore::open(&dir, PersistConfig::default(), &[space()])
            .map(|_| ())
            .expect_err(what);
        assert!(err.contains("wal.log"), "{what}: {err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A purchase payload with every integer field at 1, covered, and the
    /// given table name, region and row body.
    fn payload(name: &[u8], dims: &[(i64, i64)], rows: &[u8]) -> Vec<u8> {
        let mut out = 1u64.to_le_bytes().to_vec();
        out.extend_from_slice(&(name.len() as u16).to_le_bytes());
        out.extend_from_slice(name);
        for _ in 0..4 {
            out.extend_from_slice(&1u64.to_le_bytes());
        }
        out.push(1);
        out.extend_from_slice(&(dims.len() as u16).to_le_bytes());
        for (lo, hi) in dims {
            out.extend_from_slice(&lo.to_le_bytes());
            out.extend_from_slice(&hi.to_le_bytes());
        }
        out.extend_from_slice(rows);
        out
    }

    #[test]
    fn wal_records_round_trip() {
        let region = Region::new(vec![Interval::new(-5, 9), Interval::new(0, 0)]);
        let rows = vec![row!(3, "x"), row!(-4, "ü")];
        let purchase = Purchase {
            table: "Weather",
            at: 3,
            pages: 12,
            region: &region,
            records: 5,
            coverage: false,
            rows: &rows,
        };
        let frame = Frame::decode(&encode(7, 40, &purchase)).unwrap();
        let expected = Frame {
            seq: 7,
            table: "Weather".into(),
            at: 3,
            pages: 12,
            meter: 40,
            records: 5,
            coverage: false,
            region: region.clone(),
            rows,
        };
        assert_eq!(frame, expected);
        // The hostile cases below are edits of this valid frame.
        let valid = Frame::decode(&payload(b"T", &[(0, 9)], &payless_market::encode_rows(&[])));
        assert_eq!(
            valid.map(|f| (f.seq, f.meter, f.coverage)),
            Ok((1, 1, true))
        );
    }

    /// A purchase frame whose CRC holds but whose header lies — including a
    /// region of the wrong arity or outside its table's domain, which would
    /// otherwise panic in a debug build and be stored as a malformed view in
    /// a release build.
    #[test]
    fn hostile_wal_records_fail_recovery_naming_the_log() {
        let no_rows = payless_market::encode_rows(&[]);
        let with = |name: &[u8], dims: &[(i64, i64)]| payload(name, dims, &no_rows);
        let valid = with(b"T", &[(0, 9)]);
        let mut bad_coverage = valid.clone();
        bad_coverage[8 + 2 + 1 + 4 * 8] = 2;
        let cases: [(&str, Vec<u8>); 11] = [
            ("empty payload", Vec::new()),
            ("short payload", valid[..valid.len() - 1].to_vec()),
            (
                "name length past the end",
                [&1u64.to_le_bytes()[..], &[9, 0, b'T']].concat(),
            ),
            ("non-UTF-8 table name", with(&[0xff, 0xfe], &[(0, 9)])),
            ("unregistered table", with(b"U", &[(0, 9)])),
            ("coverage byte neither 0 nor 1", bad_coverage),
            ("no dimensions", with(b"T", &[])),
            ("one dimension too many", with(b"T", &[(0, 9), (0, 9)])),
            ("lower bound above the upper", with(b"T", &[(9, 0)])),
            ("upper bound past the domain", with(b"T", &[(0, 1000)])),
            ("lower bound before the domain", with(b"T", &[(-1, 9)])),
        ];
        for (what, payload) in cases {
            assert_hostile(what, &payload);
        }
    }

    /// A purchase frame whose CRC holds but whose rows lie.
    #[test]
    fn hostile_purchase_rows_fail_recovery_naming_the_log() {
        let rows = |body: &[u8]| payload(b"T", &[(0, 9)], body);
        let cases: [(&str, Vec<u8>); 5] = [
            ("no row count", rows(&[1, 0])),
            ("row count past the body", rows(&[5, 0, 0, 0])),
            (
                "2^32 - 1 rows in a 4-byte body",
                rows(&u32::MAX.to_le_bytes()),
            ),
            ("unknown value tag", rows(&[1, 0, 0, 0, 1, 0, 9])),
            (
                "trailing bytes",
                rows(&[&payless_market::encode_rows(&[])[..], &[7]].concat()),
            ),
        ];
        for (what, payload) in cases {
            assert_hostile(what, &payload);
        }
    }

    #[test]
    fn duplicated_frame_fails_recovery_loudly() {
        let dir = tmpdir("dup");
        {
            let (durable, _, _) = open(&dir);
            buy(&durable, &r(0, 9), 1, 10, &[row!(3)]);
        }
        // Replay-splice attack / filesystem duplication: the same frame
        // twice must not silently double the ledger.
        let path = dir.join("wal.log");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, [&bytes[..], &bytes].concat()).unwrap();
        let err = DurableStore::open(&dir, PersistConfig::default(), &[space()]).unwrap_err();
        assert!(
            err.contains("sequence gap") || err.contains("spend mismatch"),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A data directory of the old two-log format keeps its rows in a
    /// `mirror.log` this version does not read: it refuses to open rather
    /// than serve coverage without its rows.
    #[test]
    fn old_two_log_directory_refuses_to_open() {
        let dir = tmpdir("two-log");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("wal.log"), b"").unwrap();
        std::fs::write(dir.join("mirror.log"), b"").unwrap();
        let err = DurableStore::open(&dir, PersistConfig::default(), &[space()]).unwrap_err();
        assert!(err.contains("two-log format"), "{err}");
        assert!(err.contains("mirror.log"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
