//! Content-addressed on-disk result store.
//!
//! Layout: one entry file per result at `objects/<k₀k₁>/<key>.bin`
//! (two-hex-char fan-out, git-style), each a [`crate::binfmt`] `PTBE`
//! envelope: a versioned, length-prefixed, FNV-1a-checksummed frame
//! around the compact JSON of the job and of its report. A lookup
//! touches exactly that one path.
//!
//! Stores written before `PTBE` became the only format hold pretty JSON
//! envelopes (`<key>.json`, sharded or in the flat pre-shard layout
//! `objects/<key>.json`). The read path ignores them; the index rebuild
//! warns when it finds any, and [`ResultStore::migrate`] (`farm_ctl
//! migrate`) — the only reader of that format — rewrites them as `PTBE`
//! in place.
//!
//! A packed index file (`objects/index.bin`, see [`crate::index`])
//! mirrors the entry population: rebuilt on open when absent or
//! unreadable, appended on every put/remove. It accelerates
//! whole-store queries ([`ResultStore::disk_stats`]) from an
//! O(entries) directory walk to one in-memory map read; it is never
//! consulted on the entry read path, so a stale index cannot produce a
//! wrong report.
//!
//! Writes are atomic (temp file + rename) and verified to round-trip
//! before they are published, so readers never observe a torn or
//! undecodable entry that was written by a healthy process. Reads
//! re-validate everything: the checksum, the format versions, the
//! embedded key against the filename, and the embedded config against
//! the request.
//!
//! All filesystem traffic flows through a [`FarmIo`] handle, so the
//! chaos test suite can inject ENOSPC, partial writes and read
//! corruption deterministically (see [`crate::io::ChaosIo`]); the store
//! must degrade — a failed write is reported as a typed
//! [`FarmError`], a corrupted read as a [`StoreLookup::Corrupt`] miss —
//! never panic or serve bad data.

use crate::binfmt;
use crate::error::FarmError;
use crate::index::{IndexRecord, IndexState};
use crate::io::{FarmIo, RealIo};
use crate::FarmJob;
use ptb_core::RunReport;
use serde::{json, Deserialize, Serialize, Value};
use std::collections::{BTreeSet, HashMap};
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// On-disk format version of store envelopes. Bump on any layout or
/// semantics change; old entries then fail validation and re-run.
/// (v2: `SimConfig` gained the `spin_cycle_budget` livelock watchdog.)
pub const STORE_FORMAT: u32 = 2;

/// Name of the packed index file at the store root.
pub const INDEX_FILE: &str = "index.bin";

/// Outcome of a store lookup.
#[derive(Debug)]
pub enum StoreLookup {
    /// Entry present, valid, and matching the request.
    Hit(Box<RunReport>),
    /// No entry for this key.
    Miss,
    /// An entry exists but cannot be trusted (reason attached); the
    /// caller should remove it and re-simulate.
    Corrupt(String),
}

/// Size summary of a store, from [`ResultStore::disk_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreDiskStats {
    /// Entries present (readable or not).
    pub entries: u64,
    /// Total bytes across readable entries.
    pub total_bytes: u64,
    /// Distinct two-hex-char shard directories in use.
    pub shards: u64,
}

/// Outcome of a [`ResultStore::migrate`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MigrateReport {
    /// Legacy JSON entries rewritten as `PTBE`.
    pub converted: u64,
    /// `PTBE` entries already present, left in place.
    pub already: u64,
    /// Legacy entries that failed validation and were removed.
    pub dropped: u64,
}

/// Entry files found by a directory walk: `(key, path)` pairs.
type DiskEntries = Vec<(String, PathBuf)>;

/// In-memory mirror of the packed index plus its append handle.
struct IndexHandle {
    state: IndexState,
    file: Option<File>,
}

/// Content-addressed store of [`RunReport`]s under a root directory.
pub struct ResultStore {
    dir: PathBuf,
    io: Arc<dyn FarmIo>,
    index: Mutex<IndexHandle>,
    /// Per-key write sequence numbers: the temp-file name discriminator
    /// that keeps two same-key writers in one process from colliding
    /// (see [`ResultStore::put`]).
    write_seq: Mutex<HashMap<String, u64>>,
}

impl ResultStore {
    /// Open (or create) a store rooted at `dir` on the real filesystem.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, FarmError> {
        Self::open_with(dir, Arc::new(RealIo))
    }

    /// Open (or create) a store rooted at `dir`, performing all
    /// filesystem operations through `io`.
    pub fn open_with(dir: impl AsRef<Path>, io: Arc<dyn FarmIo>) -> Result<Self, FarmError> {
        let dir = dir.as_ref().to_path_buf();
        io.create_dir_all(&dir)
            .map_err(|e| FarmError::io("create store dir", &dir, e))?;
        let store = ResultStore {
            dir,
            io,
            index: Mutex::new(IndexHandle {
                state: IndexState::default(),
                file: None,
            }),
            write_seq: Mutex::new(HashMap::new()),
        };
        store.load_or_rebuild_index();
        Ok(store)
    }

    /// Root directory of the store.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the packed index file.
    pub fn index_path(&self) -> PathBuf {
        self.dir.join(INDEX_FILE)
    }

    /// Path the entry for `key` is (or would be) stored at.
    pub fn path_for(&self, key: &str) -> PathBuf {
        let prefix = key.get(0..2).unwrap_or("xx");
        self.dir.join(prefix).join(format!("{key}.bin"))
    }

    /// Persist `report` as the result of `job` under `key`.
    ///
    /// The encoded envelope is decoded back before publication; a
    /// report that does not survive the round-trip identically (e.g. it
    /// contains a non-finite float) is rejected here — as
    /// [`FarmError::Unstorable`] — rather than poisoning the store.
    /// Filesystem failures come back as [`FarmError::Io`] with
    /// [`FarmError::transient`] distinguishing retryable ones; a failed
    /// write never leaves a partially-published entry because the
    /// temp-file + rename protocol cleans up after itself.
    pub fn put(&self, key: &str, job: &FarmJob, report: &RunReport) -> Result<(), FarmError> {
        let unstorable = |reason: String| FarmError::Unstorable {
            key: key.to_owned(),
            reason,
        };
        let job_json = json::to_string(&job.to_value());
        let report_json = json::to_string(&report.to_value());
        let bytes = binfmt::encode(key, &job_json, &report_json);
        let env = binfmt::decode(&bytes).map_err(&unstorable)?;
        let report_v = json::parse(env.report_json).map_err(|e| unstorable(e.to_string()))?;
        let back = RunReport::from_value(&report_v).map_err(|e| unstorable(e.to_string()))?;
        if back.to_value() != report.to_value() {
            return Err(unstorable("report does not round-trip losslessly".into()));
        }

        let path = self.path_for(key);
        let Some(parent) = path.parent() else {
            return Err(FarmError::BadKey {
                key: key.to_owned(),
            });
        };
        self.io
            .create_dir_all(parent)
            .map_err(|e| FarmError::io("create entry dir", parent, e))?;
        // The temp name carries a per-key sequence number besides the
        // pid: two threads of one process writing the same key (batch
        // dedup misses cross-`Farm`-handle and serve-vs-CLI races) must
        // not share a temp path, or one writer renames the other's
        // half-written bytes into place. A *per-key* counter — not a
        // global one — keeps the path a pure function of (key, attempt
        // number), so ChaosIo's per-path fault sites stay replayable
        // regardless of how unrelated keys interleave.
        let seq = {
            let mut m = self.write_seq.lock().expect("write seq lock");
            let n = m.entry(key.to_owned()).or_insert(0);
            *n += 1;
            *n
        };
        let tmp = parent.join(format!(".{key}.{}.{seq}.tmp", std::process::id()));
        if let Err(e) = self.io.write(&tmp, &bytes) {
            // A torn temp file is invisible to readers (dot-prefixed,
            // never renamed in); drop it and surface the typed error.
            self.io.remove_file(&tmp).ok();
            return Err(FarmError::io("write entry", &tmp, e));
        }
        if let Err(e) = self.io.rename(&tmp, &path) {
            self.io.remove_file(&tmp).ok();
            return Err(FarmError::io("publish entry", &path, e));
        }
        self.note_put(key, bytes.len() as u64);
        Ok(())
    }

    /// Look up `key`, validating the entry against the requesting `job`.
    pub fn get(&self, key: &str, job: &FarmJob) -> StoreLookup {
        let (env_job, report_v) = match self.read_validated(key) {
            Ok(Some(parts)) => parts,
            Ok(None) => return StoreLookup::Miss,
            Err(reason) => return StoreLookup::Corrupt(reason),
        };
        // The content hash already covers the config, but a 128-bit FNV
        // digest is not collision-proof: compare the stored config tree
        // against the request so a collision (or a manually edited
        // entry) re-runs instead of answering for the wrong point.
        if env_job.config.to_value() != job.config.to_value() {
            return StoreLookup::Corrupt("stored config does not match request".into());
        }
        if env_job.bench != job.bench {
            return StoreLookup::Corrupt("stored benchmark does not match request".into());
        }
        match RunReport::from_value(&report_v) {
            Ok(report) => StoreLookup::Hit(Box::new(report)),
            Err(e) => StoreLookup::Corrupt(format!("report: {e}")),
        }
    }

    /// Load the entry for `key` without an external request to compare
    /// against — the serving path's report fetch. Returns the embedded
    /// job and report; `Ok(None)` when absent, `Err` when present but
    /// invalid.
    pub fn read_entry(&self, key: &str) -> Result<Option<(FarmJob, RunReport)>, String> {
        let Some((job, report_v)) = self.read_validated(key)? else {
            return Ok(None);
        };
        let report = RunReport::from_value(&report_v).map_err(|e| format!("report: {e}"))?;
        Ok(Some((job, report)))
    }

    /// Remove the entry for `key`, if present.
    pub fn remove(&self, key: &str) {
        self.io.remove_file(&self.path_for(key)).ok();
        self.note_remove(key);
    }

    /// All keys currently present (including entries that would fail
    /// validation — use [`ResultStore::verify_entry`] to check them).
    /// Always a filesystem walk: this is the authoritative listing the
    /// index itself is rebuilt from.
    pub fn keys(&self) -> Result<Vec<String>, FarmError> {
        let (entries, _) = self.disk_entries()?;
        Ok(entries.into_iter().map(|(key, _)| key).collect())
    }

    /// Walk the store directory: `PTBE` entry files, then legacy JSON
    /// envelopes (sharded `<key>.json` and flat root `<key>.json`),
    /// each sorted by key.
    fn disk_entries(&self) -> Result<(DiskEntries, DiskEntries), FarmError> {
        let (mut entries, mut legacy) = (Vec::new(), Vec::new());
        let names = self
            .io
            .read_dir_names(&self.dir)
            .map_err(|e| FarmError::io("list store", &self.dir, e))?;
        for name in names {
            let path = self.dir.join(&name);
            if path.is_dir() {
                let files = self
                    .io
                    .read_dir_names(&path)
                    .map_err(|e| FarmError::io("list shard", &path, e))?;
                for file in files.into_iter().filter(|f| !f.starts_with('.')) {
                    if let Some(key) = file.strip_suffix(".bin") {
                        entries.push((key.to_owned(), path.join(&file)));
                    } else if let Some(key) = file.strip_suffix(".json") {
                        legacy.push((key.to_owned(), path.join(&file)));
                    }
                }
            } else if let Some(key) = name.strip_suffix(".json") {
                if !name.starts_with('.') {
                    legacy.push((key.to_owned(), path));
                }
            }
        }
        entries.sort();
        legacy.sort();
        Ok((entries, legacy))
    }

    /// Number of entries present (filesystem walk; see
    /// [`ResultStore::disk_stats`] for the indexed fast path).
    pub fn len(&self) -> usize {
        self.keys().map(|k| k.len()).unwrap_or(0)
    }

    /// Entry count, total bytes, and shard fan-out — answered from the
    /// packed index (O(1) in entry count after open), not a directory
    /// walk. The index is maintained by this handle's puts/removes and
    /// rebuilt on open, so external tampering between opens is not
    /// reflected until the next open, `verify`, or
    /// [`ResultStore::rebuild_index`].
    pub fn disk_stats(&self) -> Result<StoreDiskStats, FarmError> {
        let handle = self.index.lock().expect("index lock");
        let mut shards = BTreeSet::new();
        for key in handle.state.live.keys() {
            shards.insert(key.get(0..2).unwrap_or("xx").to_owned());
        }
        Ok(StoreDiskStats {
            entries: handle.state.live.len() as u64,
            total_bytes: handle.state.total_bytes(),
            shards: shards.len() as u64,
        })
    }

    /// True when the store holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Self-validate the entry stored under `key` without an external
    /// request to compare against: checks formats, that the embedded key
    /// matches the filename, that the embedded job re-hashes to that
    /// key, and that the report deserialises.
    pub fn verify_entry(&self, key: &str) -> Result<(), String> {
        let (job, report_v) = self
            .read_validated(key)?
            .ok_or_else(|| "missing entry".to_owned())?;
        if job.key() != key {
            return Err("embedded job does not hash to this key".into());
        }
        RunReport::from_value(&report_v).map_err(|e| format!("report: {e}"))?;
        Ok(())
    }

    /// Read and validate the envelope for `key`: checksum, format
    /// versions, embedded key. Returns the embedded job and the raw
    /// report value; `Ok(None)` when no entry file exists.
    fn read_validated(&self, key: &str) -> Result<Option<(FarmJob, Value)>, String> {
        let bytes = match self.io.read_bytes(&self.path_for(key)) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(format!("unreadable: {e}")),
        };
        let env = binfmt::decode(&bytes)?;
        check_versions(u64::from(env.store_format), u64::from(env.report_format))?;
        if env.key != key {
            return Err("embedded key does not match filename".into());
        }
        let job_v = json::parse(env.job_json).map_err(|e| format!("job parse: {e}"))?;
        let job = FarmJob::from_value(&job_v).map_err(|e| format!("job: {e}"))?;
        let report_v = json::parse(env.report_json).map_err(|e| format!("report parse: {e}"))?;
        Ok(Some((job, report_v)))
    }

    /// One-way migration of a legacy store: every JSON envelope
    /// (sharded or flat) that validates is rewritten as a `PTBE` entry,
    /// every one that does not is dropped, and the packed index is
    /// rebuilt at the end. A legacy file whose key already has a `PTBE`
    /// entry is retired without being read. Idempotent: a second pass
    /// reports every entry `already`.
    pub fn migrate(&self) -> Result<MigrateReport, FarmError> {
        let (entries, legacy) = self.disk_entries()?;
        let mut present: BTreeSet<String> = entries.into_iter().map(|(key, _)| key).collect();
        let mut report = MigrateReport {
            already: present.len() as u64,
            ..MigrateReport::default()
        };
        for (key, path) in legacy {
            if !present.contains(&key) {
                let parsed = self
                    .io
                    .read_to_string(&path)
                    .map_err(|e| format!("unreadable: {e}"))
                    .and_then(|text| legacy_envelope(&text, &key));
                match parsed {
                    Ok((job, run)) => {
                        self.put(&key, &job, &run)?;
                        present.insert(key);
                        report.converted += 1;
                    }
                    Err(reason) => {
                        eprintln!("[store] dropping legacy {}: {reason}", path.display());
                        report.dropped += 1;
                    }
                }
            }
            self.io.remove_file(&path).ok();
        }
        self.rebuild_index()?;
        Ok(report)
    }

    /// Re-derive the packed index from the filesystem and atomically
    /// replace the in-memory mirror. Run by `verify`/`migrate` and on
    /// open when the index file is absent, unreadable, or from another
    /// index version. Warns once when it finds legacy JSON entries.
    pub fn rebuild_index(&self) -> Result<(), FarmError> {
        let (entries, legacy) = self.disk_entries()?;
        if !legacy.is_empty() {
            eprintln!(
                "warning: {} legacy JSON store entries under {} are not read; \
                 run `farm_ctl migrate` to convert them",
                legacy.len(),
                self.dir.display()
            );
        }
        let mut state = IndexState::default();
        for (key, path) in entries {
            let size = self.io.file_size(&path).unwrap_or(0);
            state.live.insert(key, size);
        }
        let path = self.index_path();
        self.io
            .write(&path, &state.to_bytes())
            .map_err(|e| FarmError::io("write index", &path, e))?;
        let file = self.io.open_append(&path).ok();
        let mut handle = self.index.lock().expect("index lock");
        handle.state = state;
        handle.file = file;
        Ok(())
    }

    /// Load the index file, falling back to a filesystem rebuild when
    /// it is absent, unreadable, or from a foreign version. Never fails
    /// the open: the index is an accelerator, so every error degrades
    /// to an empty (stale) mirror plus a warning.
    fn load_or_rebuild_index(&self) {
        let path = self.index_path();
        let loaded = match self.io.read_bytes(&path) {
            Ok(bytes) => IndexState::from_bytes(&bytes),
            Err(_) => None,
        };
        match loaded {
            Some(state) => {
                let file = self.io.open_append(&path).ok();
                let mut handle = self.index.lock().expect("index lock");
                handle.state = state;
                handle.file = file;
            }
            None => {
                if let Err(e) = self.rebuild_index() {
                    eprintln!("warning: cannot rebuild store index: {e}");
                }
            }
        }
    }

    /// Record a put in the index mirror and append its record to the
    /// index file. Best effort: index failures only warn — the entry
    /// itself is already durably published.
    fn note_put(&self, key: &str, size: u64) {
        let mut handle = self.index.lock().expect("index lock");
        handle.state.live.insert(key.to_owned(), size);
        self.append_record(&mut handle, IndexRecord::put(key, size));
    }

    /// Record a remove in the index mirror and append a tombstone.
    fn note_remove(&self, key: &str) {
        let mut handle = self.index.lock().expect("index lock");
        if handle.state.live.remove(key).is_none() {
            return; // nothing was indexed; no tombstone needed
        }
        self.append_record(&mut handle, IndexRecord::tombstone(key));
    }

    fn append_record(&self, handle: &mut IndexHandle, record: IndexRecord) {
        let Some(rec) = record.pack() else {
            return; // non-hex key (never produced by the farm)
        };
        let path = self.index_path();
        if let Some(file) = handle.file.as_mut() {
            if let Err(e) = self.io.append_bytes(file, &rec, &path) {
                eprintln!("warning: index append failed: {e}");
            }
        }
    }
}

/// Both envelope formats carry the store and report format versions an
/// entry was written under; anything but the current pair is stale.
fn check_versions(store_format: u64, report_format: u64) -> Result<(), String> {
    if store_format != u64::from(STORE_FORMAT) {
        return Err(format!(
            "store format {store_format} != current {STORE_FORMAT} (stale)"
        ));
    }
    let current = ptb_core::report::REPORT_FORMAT;
    if report_format != u64::from(current) {
        return Err(format!(
            "report format {report_format} != current {current} (stale)"
        ));
    }
    Ok(())
}

/// Parse and validate a legacy pretty-JSON envelope
/// `{ store_format, report_format, key, job, report }` — the only code
/// that reads that format, used by [`ResultStore::migrate`]. Applies
/// the checks the `PTBE` read path and `verify` make: format versions,
/// embedded key against the filename, embedded job against the key,
/// and report decode.
fn legacy_envelope(text: &str, key: &str) -> Result<(FarmJob, RunReport), String> {
    let v = json::parse(text).map_err(|e| format!("parse: {e}"))?;
    let version = |field: &str| {
        v.get(field)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("missing {field}"))
    };
    check_versions(version("store_format")?, version("report_format")?)?;
    if v.get("key").and_then(Value::as_str) != Some(key) {
        return Err("embedded key does not match filename".into());
    }
    let job =
        FarmJob::from_value(v.get("job").ok_or("missing job")?).map_err(|e| format!("job: {e}"))?;
    if job.key() != key {
        return Err("embedded job does not hash to this key".into());
    }
    let report = RunReport::from_value(v.get("report").ok_or("missing report")?)
        .map_err(|e| format!("report: {e}"))?;
    Ok((job, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptb_core::{MechanismKind, SimConfig};
    use ptb_workloads::{Benchmark, Scale};
    use serde::Map;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tiny_job() -> FarmJob {
        job(Benchmark::Fft)
    }

    fn job(bench: Benchmark) -> FarmJob {
        FarmJob::new(
            bench,
            SimConfig {
                n_cores: 2,
                scale: Scale::Test,
                mechanism: MechanismKind::None,
                ..SimConfig::default()
            },
        )
    }

    fn store_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ptb-store-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    fn open(dir: &Path) -> ResultStore {
        ResultStore::open(dir).expect("open store")
    }

    /// A pretty-JSON envelope as stores wrote them before `PTBE` became
    /// the only format.
    fn legacy_json(key: &str, job: &FarmJob, report: &RunReport) -> String {
        let mut env = Map::new();
        env.insert("store_format".into(), Value::U64(u64::from(STORE_FORMAT)));
        env.insert(
            "report_format".into(),
            Value::U64(u64::from(ptb_core::report::REPORT_FORMAT)),
        );
        env.insert("key".into(), Value::Str(key.to_owned()));
        env.insert("job".into(), job.to_value());
        env.insert("report".into(), report.to_value());
        json::to_string_pretty(&Value::Object(env))
    }

    /// Real filesystem, counting every call that reads an entry or
    /// probes for one.
    #[derive(Default)]
    struct CountingIo {
        reads: AtomicU64,
    }

    impl FarmIo for CountingIo {
        fn create_dir_all(&self, path: &Path) -> std::io::Result<()> {
            RealIo.create_dir_all(path)
        }
        fn read_to_string(&self, path: &Path) -> std::io::Result<String> {
            self.reads.fetch_add(1, Ordering::Relaxed);
            RealIo.read_to_string(path)
        }
        fn read_bytes(&self, path: &Path) -> std::io::Result<Vec<u8>> {
            self.reads.fetch_add(1, Ordering::Relaxed);
            RealIo.read_bytes(path)
        }
        fn file_size(&self, path: &Path) -> std::io::Result<u64> {
            self.reads.fetch_add(1, Ordering::Relaxed);
            RealIo.file_size(path)
        }
        fn write(&self, path: &Path, data: &[u8]) -> std::io::Result<()> {
            RealIo.write(path, data)
        }
        fn rename(&self, from: &Path, to: &Path) -> std::io::Result<()> {
            RealIo.rename(from, to)
        }
        fn remove_file(&self, path: &Path) -> std::io::Result<()> {
            RealIo.remove_file(path)
        }
        fn read_dir_names(&self, path: &Path) -> std::io::Result<Vec<String>> {
            self.reads.fetch_add(1, Ordering::Relaxed);
            RealIo.read_dir_names(path)
        }
        fn open_append(&self, path: &Path) -> std::io::Result<File> {
            RealIo.open_append(path)
        }
        fn append_line(&self, file: &mut File, line: &str, path: &Path) -> std::io::Result<()> {
            RealIo.append_line(file, line, path)
        }
        fn append_bytes(&self, file: &mut File, bytes: &[u8], path: &Path) -> std::io::Result<()> {
            RealIo.append_bytes(file, bytes, path)
        }
    }

    #[test]
    fn binary_entries_round_trip_and_verify() {
        let dir = store_dir("binfmt");
        let store = open(&dir);
        let job = tiny_job();
        let key = job.key();
        let report = job.simulate();
        store.put(&key, &job, &report).expect("put");
        assert!(store.path_for(&key).extension().unwrap() == "bin");
        match store.get(&key, &job) {
            StoreLookup::Hit(back) => assert_eq!(back.to_value(), report.to_value()),
            other => panic!("expected hit, got {other:?}"),
        }
        store.verify_entry(&key).expect("verify");
        let (env_job, env_report) = store.read_entry(&key).expect("read").expect("present");
        assert_eq!(env_job.key(), key);
        assert_eq!(env_report.to_value(), report.to_value());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_lookup_makes_exactly_one_read() {
        let dir = store_dir("onepath");
        let io = Arc::new(CountingIo::default());
        let store = ResultStore::open_with(&dir, io.clone()).expect("open store");
        let job = tiny_job();
        let key = job.key();

        io.reads.store(0, Ordering::Relaxed);
        assert!(matches!(store.get(&key, &job), StoreLookup::Miss));
        assert_eq!(
            io.reads.load(Ordering::Relaxed),
            1,
            "a miss probes one path"
        );

        store.put(&key, &job, &job.simulate()).expect("put");
        io.reads.store(0, Ordering::Relaxed);
        assert!(matches!(store.get(&key, &job), StoreLookup::Hit(_)));
        assert_eq!(io.reads.load(Ordering::Relaxed), 1, "a hit reads one file");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `migrate` is the one reader of legacy JSON envelopes: it converts
    /// valid ones (sharded and flat alike), drops invalid ones, and is a
    /// no-op on a second pass. Until then the read path does not see
    /// them.
    #[test]
    fn flat_legacy_entries_are_read_and_migrated() {
        let dir = store_dir("flat");
        let (sharded_job, flat_job) = (job(Benchmark::Fft), job(Benchmark::Radix));
        let (sharded_key, flat_key) = (sharded_job.key(), flat_job.key());
        let sharded = dir
            .join(&sharded_key[..2])
            .join(format!("{sharded_key}.json"));
        let flat = dir.join(format!("{flat_key}.json"));
        let corrupt_key = "0123456789abcdef0123456789abcdef";
        let corrupt = dir
            .join(&corrupt_key[..2])
            .join(format!("{corrupt_key}.json"));
        for path in [&sharded, &corrupt] {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        }
        for (path, key, job) in [
            (&sharded, &sharded_key, &sharded_job),
            (&flat, &flat_key, &flat_job),
        ] {
            std::fs::write(path, legacy_json(key, job, &job.simulate())).unwrap();
        }
        std::fs::write(&corrupt, "{\"store_format\": 2, \"key").unwrap();

        let store = open(&dir);
        assert!(matches!(store.get(&flat_key, &flat_job), StoreLookup::Miss));
        assert_eq!(store.disk_stats().expect("stats").entries, 0);

        let m = store.migrate().expect("migrate");
        assert_eq!((m.converted, m.already, m.dropped), (2, 0, 1));
        for path in [&sharded, &flat, &corrupt] {
            assert!(!path.exists(), "{} retired", path.display());
        }
        assert!(matches!(
            store.get(&sharded_key, &sharded_job),
            StoreLookup::Hit(_)
        ));
        assert!(matches!(
            store.get(&flat_key, &flat_job),
            StoreLookup::Hit(_)
        ));
        assert_eq!(store.disk_stats().expect("stats").entries, 2);

        let m = store.migrate().expect("migrate");
        assert_eq!((m.converted, m.already, m.dropped), (0, 2, 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn disk_stats_come_from_the_index_and_survive_reopen() {
        let dir = store_dir("stats");
        let job = tiny_job();
        let key = job.key();
        let report = job.simulate();
        let store = open(&dir);
        store.put(&key, &job, &report).expect("put");
        let stats = store.disk_stats().expect("stats");
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.shards, 1);
        let size = std::fs::metadata(store.path_for(&key)).unwrap().len();
        assert_eq!(stats.total_bytes, size);

        // A fresh handle loads the same numbers from the index file
        // without walking the shard directories.
        let reopened = open(&dir);
        assert_eq!(reopened.disk_stats().expect("stats"), stats);

        // Remove → tombstone → zeroed stats.
        store.remove(&key);
        let stats = store.disk_stats().expect("stats");
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.total_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn index_is_rebuilt_when_missing_or_garbage() {
        let dir = store_dir("rebuild");
        let job = tiny_job();
        let key = job.key();
        let report = job.simulate();
        open(&dir).put(&key, &job, &report).expect("put");
        std::fs::write(dir.join(INDEX_FILE), b"definitely not an index").unwrap();
        let store = open(&dir);
        let stats = store.disk_stats().expect("stats");
        assert_eq!(stats.entries, 1, "rebuilt from the filesystem");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Regression: two threads writing the same key simultaneously used
    /// to share one `.{key}.{pid}.tmp` path — writer A could rename
    /// writer B's half-written temp file into place, or B's rename
    /// could fail with NotFound after A consumed the path. The per-key
    /// sequence discriminator gives every write attempt its own temp
    /// file, so all writers succeed and the published entry verifies.
    #[test]
    fn simultaneous_same_key_writers_do_not_collide() {
        let dir = store_dir("tmprace");
        let store = open(&dir);
        let job = tiny_job();
        let key = job.key();
        let report = job.simulate();
        let barrier = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for _ in 0..8 {
                handles.push(s.spawn(|| {
                    barrier.wait();
                    for _ in 0..16 {
                        store.put(&key, &job, &report)?;
                    }
                    Ok::<(), FarmError>(())
                }));
            }
            for h in handles {
                h.join().expect("no panic").expect("every put succeeds");
            }
        });
        store.verify_entry(&key).expect("published entry is intact");
        assert_eq!(store.len(), 1);
        // No temp-file litter left behind.
        let shard = dir.join(&key[..2]);
        for entry in std::fs::read_dir(&shard).unwrap() {
            let name = entry.unwrap().file_name().to_string_lossy().into_owned();
            assert!(!name.ends_with(".tmp"), "leftover temp file {name}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
