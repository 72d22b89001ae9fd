//! Direct, timed calls into the store layer, and a filesystem wrapper
//! that stamps the moment each store entry is published.

use crate::trace::{SpanId, Tracer};
use crate::{Outcome, Scratch};
use ptb_core::RunReport;
use ptb_farm::{FarmIo, FarmJob, RealIo, ResultStore, StoreLookup};
use ptb_metrics::{median, percentile};
use std::fs::File;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

/// Time `ResultStore::put` into a fresh store, then `get` of every key
/// put and of as many absent keys, each call under its own span.
/// Sets `farm.store.{put_us_p50,put_us_p99,get_us_p50,miss_us_p50}`;
/// every lookup must return the report put.
pub fn store_calls(
    tracer: &Tracer,
    parent: SpanId,
    entries: &[(FarmJob, RunReport)],
    out: &mut Outcome,
) -> Result<(), String> {
    let dir = Scratch::new("probe")?;
    let store = ResultStore::open(dir.path()).map_err(|e| format!("open probe store: {e}"))?;
    let keyed: Vec<(String, &FarmJob, &RunReport)> =
        entries.iter().map(|(j, r)| (j.key(), j, r)).collect();
    for (key, job, report) in &keyed {
        let r = tracer.span("store.put", parent, |_| store.put(key, job, report));
        out.check(r.is_ok());
    }
    for (key, job, report) in &keyed {
        let hit = tracer.span("store.get", parent, |_| store.get(key, job));
        let ok = matches!(&hit, StoreLookup::Hit(r) if crate::oracle::report_digest(r) == crate::oracle::report_digest(report));
        out.check(ok);
    }
    for (i, (_, job, _)) in keyed.iter().enumerate() {
        // The same job with one hashed field set to a value no workload
        // uses: a key never stored.
        let mut absent = (*job).clone();
        absent.config.max_cycles = u64::MAX - i as u64;
        let key = absent.key();
        let miss = tracer.span("store.get_miss", parent, |_| store.get(&key, &absent));
        out.check(matches!(miss, StoreLookup::Miss));
    }
    let put = tracer.durations_us("store.put");
    out.set("farm.store.put_us_p50", median(&put));
    out.set("farm.store.put_us_p99", percentile(&put, 99.0));
    out.set(
        "farm.store.get_us_p50",
        median(&tracer.durations_us("store.get")),
    );
    out.set(
        "farm.store.miss_us_p50",
        median(&tracer.durations_us("store.get_miss")),
    );
    Ok(())
}

/// `FarmIo` over the real filesystem that records when, and on which
/// thread, each store entry is published (the rename of its temp file
/// into place) and, if its tracer is on, a span per write, rename and
/// journal append.
pub struct StampIo {
    tracer: Arc<Tracer>,
    published: Mutex<Vec<(ThreadId, Instant)>>,
}

impl StampIo {
    /// A wrapper recording spans into `tracer`.
    pub fn new(tracer: Arc<Tracer>) -> StampIo {
        StampIo {
            tracer,
            published: Mutex::new(Vec::new()),
        }
    }

    /// Publications so far, in order: the publishing thread and when.
    pub fn published(&self) -> Vec<(ThreadId, Instant)> {
        self.published.lock().expect("stamp lock").clone()
    }
}

impl FarmIo for StampIo {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        RealIo.create_dir_all(path)
    }
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        RealIo.read_to_string(path)
    }
    fn read_bytes(&self, path: &Path) -> io::Result<Vec<u8>> {
        RealIo.read_bytes(path)
    }
    fn file_size(&self, path: &Path) -> io::Result<u64> {
        RealIo.file_size(path)
    }
    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.tracer
            .span("io.write", 0, |_| RealIo.write(path, data))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let r = self
            .tracer
            .span("io.rename", 0, |_| RealIo.rename(from, to));
        if r.is_ok() {
            self.published
                .lock()
                .expect("stamp lock")
                .push((std::thread::current().id(), Instant::now()));
        }
        r
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        RealIo.remove_file(path)
    }
    fn read_dir_names(&self, path: &Path) -> io::Result<Vec<String>> {
        RealIo.read_dir_names(path)
    }
    fn open_append(&self, path: &Path) -> io::Result<File> {
        RealIo.open_append(path)
    }
    fn append_line(&self, file: &mut File, line: &str, path: &Path) -> io::Result<()> {
        self.tracer.span("io.journal_append", 0, |_| {
            RealIo.append_line(file, line, path)
        })
    }
    fn append_bytes(&self, file: &mut File, bytes: &[u8], path: &Path) -> io::Result<()> {
        self.tracer.span("io.index_append", 0, |_| {
            RealIo.append_bytes(file, bytes, path)
        })
    }
}
