//! Durable purchases: three files in the data directory.
//!
//! At real market prices, losing the semantic store is losing money: every
//! purchased region the store forgets is a region a restarted server buys
//! again. Both logs frame each record as `[u32 len LE][payload][u32 crc32 LE]`.
//!
//! - **`wal.log`**: every settled purchase appends one JSON record carrying
//!   the table, region, logical time, pages spent, and the table's
//!   *absolute* cumulative spend after this record (`meter`). Appends are
//!   serialized under one mutex, so `meter` is exact.
//! - **`mirror.log`**: the rows behind the coverage — a recovered store that
//!   claims coverage without data answers queries wrong. Every market
//!   delivery appends the rows it added to the mirror as
//!   `[u16 name len][table][payless_market::encode_rows]` (split over as
//!   many frames as it needs) via the executor's
//!   [`payless_exec::RowObserver`], before the purchase's spend record, so
//!   every surviving spend record has its rows earlier in this log. A
//!   re-bought row the mirror already holds is not appended again, so the
//!   log holds each distinct row once. The log is **append-only**: nothing
//!   truncates it but recovery's torn-tail cut. The mirror is a set that
//!   never deletes a row, so the whole log *is* the durable mirror.
//! - **`snapshot.json`**: coverage and money only — `applied_seq`, `ledger`
//!   and `store`. The snapshotter writes it to `snapshot.json.tmp`,
//!   atomically renames it, then truncates `wal.log`. A crash between those
//!   steps is safe: rename is atomic, and replay skips WAL records the
//!   snapshot already covers.
//!
//! **Recovery** loads the snapshot, replays the WAL front to back
//! (length bound, CRC, JSON shape, strictly increasing sequence), and
//! replays every mirror frame. The first invalid frame of either log — a
//! torn tail from a crash mid-append — cuts that log there. Two independent
//! spend paths cross-check each other: the ledger is re-derived by
//! *summing* replayed spends, and each record also carries the *absolute*
//! meter written at append time; any divergence fails recovery loudly. A
//! mirror frame whose CRC holds but whose payload does not decode fails
//! recovery too. The serving layer logs each row once; a log written any
//! other way may repeat a row, and the mirror's set insert drops the copy.
//!
//! Lock order: the spend observer runs with **no shard lock held** (see
//! [`payless_semantic::SharedSemanticStore::attach_observer`]), so the
//! persist mutex never nests inside a shard guard. The snapshotter holds
//! the persist mutex while reading the shards (read locks). The row
//! observer appends under the serving layer's mirror write lock, so the
//! mirror lock nests outside the persist mutex. Nothing takes them the
//! other way: snapshots carry no rows, and `Serve::mirror_dump`, which
//! reads the mirror, has no program caller. Those are the only two
//! nestings, each in one direction. The in-memory store is
//! momentarily *ahead* of the log (insert settled, append pending); the
//! snapshotter waits that out ([`SharedSemanticStore::settled`]) before it
//! takes the mutex. The log is never ahead of the store.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};
use std::thread::Thread;

use payless_geometry::Region;
use payless_json::{FromJson, Json, ToJson};
use payless_semantic::SemanticStore;
use payless_semantic::SharedSemanticStore;
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

/// Durability tuning and deterministic crash injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PersistConfig {
    /// Snapshot (and truncate `wal.log`) after this many appends; `0`
    /// disables automatic snapshots (graceful shutdown still snapshots).
    pub snapshot_every: u64,
    /// Abort the process on the N-th append, leaving a deliberately torn
    /// frame (length header + half the payload) at the log's tail — the
    /// crash the truncate-and-recover path must survive.
    pub crash_after_appends: Option<u64>,
    /// Abort mid-snapshot: `1` after writing `snapshot.json.tmp` but
    /// before the atomic rename, `2` after the rename but before the WAL
    /// truncation. Both windows must recover exactly.
    pub crash_in_snapshot: u8,
}

impl Default for PersistConfig {
    fn default() -> Self {
        PersistConfig {
            snapshot_every: 64,
            crash_after_appends: None,
            crash_in_snapshot: 0,
        }
    }
}

/// What recovery found on disk — surfaced via `/v1/store` so
/// `tests/server_e2e.rs` can assert on it without groveling through server
/// logs.
#[derive(Debug, Clone, Default)]
pub struct RecoveryInfo {
    /// Sequence number the loaded snapshot covered (0 = no snapshot).
    pub snapshot_seq: u64,
    /// Valid log records replayed on top of the snapshot.
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
    /// Last sequence number assigned to an append.
    pub last_seq: u64,
    /// Sequence number covered by the snapshot on disk.
    pub applied_seq: u64,
    /// Appends since the server opened the log.
    pub appends: u64,
    /// Snapshots taken since the server opened the log.
    pub snapshots: u64,
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
    /// Last sequence number assigned (snapshot-covered or logged).
    seq: u64,
    /// Sequence number the on-disk snapshot covers.
    applied_seq: u64,
    /// Per-table cumulative pages, derived by summation.
    ledger: BTreeMap<String, u64>,
    /// Per-table absolute meter from the last record (== ledger always,
    /// kept separate so recovery can cross-check the two derivations).
    meter: BTreeMap<String, u64>,
    appends_since_snapshot: u64,
    appends_total: u64,
    snapshots: u64,
}

/// The durable store: owns the data directory and serializes every append
/// and snapshot under one mutex. Construct with [`DurableStore::open`]
/// (which recovers), then wire into the serving layer with
/// [`DurableStore::attach`].
pub struct DurableStore {
    dir: PathBuf,
    cfg: PersistConfig,
    inner: Mutex<Inner>,
    recovery: RecoveryInfo,
    /// See [`DurableStore::wake_when_due`].
    snapshotter: OnceLock<Thread>,
}

const WAL: &str = "wal.log";
const MIRROR: &str = "mirror.log";

fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join("snapshot.json")
}

fn io_err<T>(what: &str, e: impl std::fmt::Display) -> Result<T, String> {
    Err(format!("{what}: {e}"))
}

/// One parsed log record.
struct WalRecord {
    seq: u64,
    table: String,
    at: u64,
    spend: u64,
    meter: u64,
    region: Region,
}

impl WalRecord {
    fn to_json(&self) -> Json {
        Json::obj([
            ("seq", Json::Int(self.seq as i64)),
            ("table", Json::Str(self.table.clone())),
            ("at", Json::Int(self.at as i64)),
            ("spend", Json::Int(self.spend as i64)),
            ("meter", Json::Int(self.meter as i64)),
            ("region", self.region.to_json()),
        ])
    }

    fn from_json(j: &Json) -> payless_json::Result<WalRecord> {
        Ok(WalRecord {
            seq: j.get("seq")?.as_u64()?,
            table: j.get("table")?.as_str()?.to_string(),
            at: j.get("at")?.as_u64()?,
            spend: j.get("spend")?.as_u64()?,
            meter: j.get("meter")?.as_u64()?,
            region: Region::from_json(j.get("region")?)?,
        })
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

impl DurableStore {
    /// Open (creating if needed) the data directory, recover
    /// snapshot + logs into a warm [`SemanticStore`] plus the mirror rows
    /// backing its coverage, and return the durable store positioned to
    /// append. `spaces` pre-registers the market tables so log records can
    /// replay even before the first snapshot. Fails loudly when the two
    /// independently derived spend totals (summed ledger vs recorded
    /// absolute meter) disagree — never serve from corrupt money math.
    pub fn open(
        dir: &Path,
        cfg: PersistConfig,
        spaces: &[payless_geometry::QuerySpace],
    ) -> Result<(DurableStore, SemanticStore, MirrorRows), String> {
        std::fs::create_dir_all(dir)
            .or_else(|e| io_err(&format!("create data dir {}", dir.display()), e))?;
        // A leftover .tmp is a snapshot that never committed; drop it.
        let _ = std::fs::remove_file(snapshot_path(dir).with_extension("json.tmp"));

        let mut store = SemanticStore::new();
        let mut ledger: BTreeMap<String, u64> = BTreeMap::new();
        let mut meter: BTreeMap<String, u64> = BTreeMap::new();
        let mut applied_seq = 0u64;
        let snap_path = snapshot_path(dir);
        if snap_path.exists() {
            let text =
                std::fs::read_to_string(&snap_path).or_else(|e| io_err("read snapshot.json", e))?;
            let j = payless_json::parse(&text).map_err(|e| {
                format!("snapshot.json corrupt (rename is atomic, so this is real corruption): {e}")
            })?;
            applied_seq = j
                .get("applied_seq")
                .and_then(|v| v.as_u64())
                .map_err(|e| format!("snapshot.json applied_seq: {e}"))?;
            for (table, pages) in j
                .get("ledger")
                .and_then(|v| v.as_obj())
                .map_err(|e| format!("snapshot.json ledger: {e}"))?
            {
                let pages = pages
                    .as_u64()
                    .map_err(|e| format!("snapshot.json ledger[{table}]: {e}"))?;
                ledger.insert(table.clone(), pages);
                meter.insert(table.clone(), pages);
            }
            store = SemanticStore::from_json(
                j.get("store")
                    .map_err(|e| format!("snapshot.json store: {e}"))?,
            )
            .map_err(|e| format!("snapshot.json store: {e}"))?;
        }
        for space in spaces {
            store.register(space.clone());
        }

        let (wal, payloads, truncated) = open_log(dir, WAL)?;
        let mut seq = applied_seq;
        let mut replayed = 0u64;
        for payload in &payloads {
            let text = std::str::from_utf8(payload)
                .map_err(|e| format!("wal record not UTF-8 despite valid CRC: {e}"))?;
            let j = payless_json::parse(text).map_err(|e| format!("wal record JSON: {e}"))?;
            let rec = WalRecord::from_json(&j).map_err(|e| format!("wal record shape: {e}"))?;
            if rec.seq <= applied_seq {
                // Snapshot already covers it (crash between rename and
                // truncation leaves such records behind) — skip, or we
                // would double-count its spend.
                continue;
            }
            if rec.seq != seq + 1 {
                return Err(format!(
                    "wal sequence gap: expected {}, found {} (log reordered or spliced)",
                    seq + 1,
                    rec.seq
                ));
            }
            if store.space(&rec.table).is_none() {
                return Err(format!(
                    "wal seq {} references unregistered table {}",
                    rec.seq, rec.table
                ));
            }
            seq = rec.seq;
            let entry = ledger.entry(rec.table.clone()).or_insert(0);
            *entry += rec.spend;
            if *entry != rec.meter {
                return Err(format!(
                    "spend mismatch replaying seq {} for table {}: summed ledger {} != recorded meter {} \
                     (a record was double-applied or lost)",
                    rec.seq, rec.table, *entry, rec.meter
                ));
            }
            meter.insert(rec.table.clone(), rec.meter);
            store.record_spend(&rec.table, rec.region, rec.at, rec.spend);
            replayed += 1;
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
            snapshot_seq: applied_seq,
            replayed,
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
                seq,
                applied_seq,
                ledger,
                meter,
                appends_since_snapshot: payloads.len() as u64,
                appends_total: 0,
                snapshots: 0,
            }),
            recovery,
            snapshotter: OnceLock::new(),
        };
        Ok((durable, store, recovered))
    }

    /// What recovery found when this store was opened.
    pub fn recovery(&self) -> &RecoveryInfo {
        &self.recovery
    }

    /// Have every append that finds a snapshot due unpark `snapshotter`,
    /// which then calls [`DurableStore::maybe_snapshot`]. First caller wins.
    pub fn wake_when_due(&self, snapshotter: Thread) {
        let _ = self.snapshotter.set(snapshotter);
    }

    fn snapshot_due(&self, inner: &Inner) -> bool {
        self.cfg.snapshot_every != 0 && inner.appends_since_snapshot >= self.cfg.snapshot_every
    }

    /// Wire this store into `shared` as its spend observer: every settled
    /// purchase appends one durable record. Call once, after
    /// [`DurableStore::open`]'s warm store has been handed to the serving
    /// layer.
    pub fn attach(self: &std::sync::Arc<Self>, shared: &SharedSemanticStore) {
        let me = std::sync::Arc::clone(self);
        shared.attach_observer(std::sync::Arc::new(move |table, region, now, spend| {
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
        let payload = rec.to_json().to_string_compact().into_bytes();
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
        inner.appends_since_snapshot += 1;
        if self.snapshot_due(&inner) {
            if let Some(t) = self.snapshotter.get() {
                t.unpark();
            }
        }
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

    /// Snapshot now iff the append threshold has been reached.
    /// `_mirror_dump` is never called (snapshots carry no rows); it stays
    /// only for `benchmark/src/ledger.rs` and goes with the next benchmark PR.
    pub fn maybe_snapshot(
        &self,
        shared: &SharedSemanticStore,
        _mirror_dump: &dyn Fn() -> MirrorRows,
    ) -> Result<bool, String> {
        let due = self.snapshot_due(&self.inner.lock().unwrap_or_else(|e| e.into_inner()));
        if due {
            self.snapshot(shared)?;
        }
        Ok(due)
    }

    /// Write the coverage and the money (`applied_seq`, `ledger`, `store`)
    /// and truncate `wal.log`. Holds the persist mutex across the store
    /// read, so the snapshot covers exactly the appends with
    /// `seq <= applied_seq` — an insert racing this snapshot has not yet
    /// taken a sequence number, and will land in the fresh log. Rows stay
    /// in `mirror.log`.
    pub fn snapshot(&self, shared: &SharedSemanticStore) -> Result<(), String> {
        // Gate first, then the mutex: a purchase inserted into the store but
        // still waiting to append would otherwise be snapshotted as coverage
        // the ledger below never paid for.
        let settled = shared.settled();
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let applied_seq = inner.seq;
        let ledger_json = Json::Obj(
            inner
                .ledger
                .iter()
                .map(|(t, p)| (t.clone(), Json::Int(*p as i64)))
                .collect(),
        );
        // Shard read locks nest inside the persist mutex here; observers
        // never hold one while appending, so this cannot cycle.
        let store = shared.snapshot();
        drop(settled);
        let snap = Json::obj([
            ("applied_seq", Json::Int(applied_seq as i64)),
            ("ledger", ledger_json),
            ("store", store.to_json()),
        ]);
        let path = snapshot_path(&self.dir);
        let tmp = path.with_extension("json.tmp");
        {
            let mut f = File::create(&tmp).or_else(|e| io_err("create snapshot tmp", e))?;
            f.write_all(snap.to_string_compact().as_bytes())
                .or_else(|e| io_err("write snapshot tmp", e))?;
            f.flush().or_else(|e| io_err("flush snapshot tmp", e))?;
        }
        if self.cfg.crash_in_snapshot == 1 && inner.appends_total > 0 {
            eprintln!("payless-server: injected crash before snapshot rename");
            std::process::abort();
        }
        std::fs::rename(&tmp, &path).or_else(|e| io_err("rename snapshot", e))?;
        if self.cfg.crash_in_snapshot == 2 && inner.appends_total > 0 {
            eprintln!("payless-server: injected crash before wal truncation");
            std::process::abort();
        }
        inner
            .wal
            .set_len(0)
            .or_else(|e| io_err("truncate wal after snapshot", e))?;
        inner
            .wal
            .seek(SeekFrom::Start(0))
            .or_else(|e| io_err("rewind wal after snapshot", e))?;
        inner.applied_seq = applied_seq;
        inner.appends_since_snapshot = 0;
        inner.snapshots += 1;
        Ok(())
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
            applied_seq: inner.applied_seq,
            appends: inner.appends_total,
            snapshots: inner.snapshots,
            recovery: self.recovery.clone(),
            tables,
        }
    }
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
            ("applied_seq", Json::Int(self.applied_seq as i64)),
            ("appends", Json::Int(self.appends as i64)),
            ("snapshots", Json::Int(self.snapshots as i64)),
            (
                "recovery",
                Json::obj([
                    ("snapshot_seq", Json::Int(self.recovery.snapshot_seq as i64)),
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
    use payless_geometry::{Interval, QuerySpace};
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
        let cfg = PersistConfig {
            snapshot_every: 0,
            ..PersistConfig::default()
        };
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
        let cfg = PersistConfig {
            snapshot_every: 0,
            ..PersistConfig::default()
        };
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
    fn snapshot_truncates_log_and_replay_skips_covered_records() {
        let dir = tmpdir("snapshot");
        let cfg = PersistConfig {
            snapshot_every: 0,
            ..PersistConfig::default()
        };
        {
            let (durable, _, _) = DurableStore::open(&dir, cfg, &[space()]).unwrap();
            let mut base = SemanticStore::new();
            base.register(space());
            let shared = SharedSemanticStore::new(base);
            let durable = std::sync::Arc::new(durable);
            durable.attach(&shared);
            shared.record_spend("T", r(0, 9), 1, 10);
            shared.record_spend("T", r(50, 59), 2, 10);
            durable.snapshot(&shared).unwrap();
            assert_eq!(std::fs::metadata(dir.join(WAL)).unwrap().len(), 0);
            // Post-snapshot appends land in the fresh log.
            shared.record_spend("T", r(100, 109), 3, 10);
        }
        let (durable, store, _) = DurableStore::open(&dir, cfg, &[space()]).unwrap();
        let status = durable.status();
        assert!(status.reconciles());
        assert_eq!(status.recovery.snapshot_seq, 2);
        assert_eq!(status.recovery.replayed, 1);
        assert_eq!(status.tables[0].ledger_pages, 30);
        assert!(store.covers("T", &r(0, 9), payless_semantic::Consistency::Weak, 4));
        assert!(store.covers("T", &r(100, 109), payless_semantic::Consistency::Weak, 4));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mirror_rows_survive_restart_and_snapshot() {
        let dir = tmpdir("mirror");
        let cfg = PersistConfig {
            snapshot_every: 0,
            ..PersistConfig::default()
        };
        let frame_a = vec![payless_types::row!(0), payless_types::row!(1)];
        let frame_b = vec![payless_types::row!(10)];
        {
            let (durable, _, recovered) = DurableStore::open(&dir, cfg, &[space()]).unwrap();
            assert!(recovered.is_empty());
            durable.append_rows("T", &frame_a);
        }
        {
            // Plain restart: logged rows come back.
            let (durable, _, recovered) = DurableStore::open(&dir, cfg, &[space()]).unwrap();
            assert_eq!(recovered, vec![("T".to_string(), frame_a.clone())]);
            assert_eq!(durable.recovery().mirror_rows, 2);
            // A snapshot carries coverage and money only and leaves
            // mirror.log alone: the rows live there and nowhere else.
            let mirror_len = std::fs::metadata(dir.join(MIRROR)).unwrap().len();
            let mut base = SemanticStore::new();
            base.register(space());
            let shared = SharedSemanticStore::new(base);
            durable.snapshot(&shared).unwrap();
            assert_eq!(
                std::fs::metadata(dir.join(MIRROR)).unwrap().len(),
                mirror_len
            );
            let snap = std::fs::read_to_string(snapshot_path(&dir)).unwrap();
            let snap = payless_json::parse(&snap).unwrap();
            let keys: Vec<&str> = snap
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["applied_seq", "ledger", "store"]);
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
        let cfg = PersistConfig {
            snapshot_every: 0,
            ..PersistConfig::default()
        };
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

    /// A mirror frame whose CRC holds but whose payload lies fails
    /// recovery with an error naming `mirror.log` — no panic, and no
    /// allocation sized by a count the bytes cannot back.
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
            let dir = tmpdir("hostile");
            std::fs::create_dir_all(&dir).unwrap();
            let mut log = Vec::new();
            frame_into(&mut log, &payload);
            std::fs::write(dir.join(MIRROR), &log).unwrap();
            let err = DurableStore::open(&dir, PersistConfig::default(), &[space()])
                .map(|_| ())
                .expect_err(what);
            assert!(err.contains("mirror.log"), "{what}: {err}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn duplicated_frame_fails_recovery_loudly() {
        let dir = tmpdir("dup");
        let cfg = PersistConfig {
            snapshot_every: 0,
            ..PersistConfig::default()
        };
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
