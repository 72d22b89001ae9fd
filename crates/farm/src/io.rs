//! Filesystem abstraction for the store and journal, with a
//! deterministic fault-injecting implementation.
//!
//! Every byte the farm persists flows through a [`FarmIo`] handle:
//!
//! * [`RealIo`] — thin passthrough to `std::fs` (the default);
//! * [`ChaosIo`] — wraps an inner `FarmIo` and injects seeded,
//!   replayable faults at configurable per-operation rates:
//!
//!   | fault          | operation          | observable effect                     |
//!   |----------------|--------------------|---------------------------------------|
//!   | `enospc`       | write / rename     | `StorageFull` error, nothing written  |
//!   | `partial_write`| write              | prefix written, `WriteZero` error     |
//!   | `read_corrupt` | read               | one byte of the returned text flipped |
//!   | `torn_append`  | journal append     | line prefix written, `Interrupted`    |
//!   | `fsync_drop`   | journal append     | flush silently skipped                |
//!
//! ## Determinism
//!
//! Fault decisions are a pure function of `(seed, operation tag, path,
//! per-(tag, path) operation ordinal)` — **not** of global call order —
//! so a multi-threaded batch injects the same faults at the same store
//! keys regardless of worker interleaving, and a failing chaos run can
//! be replayed from its seed alone.

use crate::hash::{fnv1a64, splitmix64};
use std::collections::HashMap;
use std::fs::File;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Filesystem operations the store and journal perform.
///
/// Implementations must be shareable across worker threads.
pub trait FarmIo: Send + Sync {
    /// `std::fs::create_dir_all`.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
    /// `std::fs::read_to_string`.
    fn read_to_string(&self, path: &Path) -> io::Result<String>;
    /// `std::fs::read` (binary store envelopes and the packed index).
    fn read_bytes(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Size of a file in bytes (index rebuild without reading content).
    fn file_size(&self, path: &Path) -> io::Result<u64>;
    /// `std::fs::write` (whole-file publish of a store temp file).
    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()>;
    /// `std::fs::rename` (atomic publish of a store entry).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// `std::fs::remove_file`.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// File names (not full paths) of the entries of a directory.
    fn read_dir_names(&self, path: &Path) -> io::Result<Vec<String>>;
    /// Open `path` for appending, creating it if absent.
    fn open_append(&self, path: &Path) -> io::Result<File>;
    /// Append one journal line (including its trailing newline) and
    /// flush. `path` is the journal's path, passed for fault addressing.
    fn append_line(&self, file: &mut File, line: &str, path: &Path) -> io::Result<()>;
    /// Append one binary record (a packed index record) and flush.
    /// `path` is the index's path, passed for fault addressing.
    fn append_bytes(&self, file: &mut File, bytes: &[u8], path: &Path) -> io::Result<()>;
    /// Injected-fault counters under the `farm.chaos.*` namespace
    /// (empty for non-chaotic implementations).
    fn counters(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }
}

/// Passthrough to the real filesystem.
#[derive(Debug, Default)]
pub struct RealIo;

impl FarmIo for RealIo {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        std::fs::read_to_string(path)
    }
    fn read_bytes(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }
    fn file_size(&self, path: &Path) -> io::Result<u64> {
        Ok(std::fs::metadata(path)?.len())
    }
    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        std::fs::write(path, data)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
    fn read_dir_names(&self, path: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(path)? {
            names.push(entry?.file_name().to_string_lossy().into_owned());
        }
        Ok(names)
    }
    fn open_append(&self, path: &Path) -> io::Result<File> {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
    }
    fn append_line(&self, file: &mut File, line: &str, _path: &Path) -> io::Result<()> {
        file.write_all(line.as_bytes())?;
        file.flush()
    }
    fn append_bytes(&self, file: &mut File, bytes: &[u8], _path: &Path) -> io::Result<()> {
        file.write_all(bytes)?;
        file.flush()
    }
}

/// The filesystem the environment asks for: [`RealIo`], unless
/// `PTB_CHAOS` is a fault rate above zero, which wraps it in a
/// [`ChaosIo`] seeded by `PTB_CHAOS_SEED` (default 0). Testing only.
pub fn io_from_env() -> Arc<dyn FarmIo> {
    let rate = std::env::var("PTB_CHAOS")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0);
    if rate > 0.0 {
        let seed = std::env::var("PTB_CHAOS_SEED")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0);
        eprintln!("[farm] CHAOS MODE: fault rate {rate}, seed {seed}");
        Arc::new(ChaosIo::new(ChaosConfig::uniform(seed, rate)))
    } else {
        Arc::new(RealIo)
    }
}

/// Per-fault injection rates (each in `[0, 1]`) plus the chaos seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Seed all fault decisions derive from.
    pub seed: u64,
    /// Probability a store write reports `StorageFull` without writing.
    pub enospc: f64,
    /// Probability a store write lands only a prefix (then errors).
    pub partial_write: f64,
    /// Probability a read returns text with one byte corrupted.
    pub read_corrupt: f64,
    /// Probability a journal append tears mid-line (then errors).
    pub torn_append: f64,
    /// Probability a journal flush is silently dropped.
    pub fsync_drop: f64,
}

impl ChaosConfig {
    /// Every fault class at the same `rate`.
    pub fn uniform(seed: u64, rate: f64) -> Self {
        ChaosConfig {
            seed,
            enospc: rate,
            partial_write: rate,
            read_corrupt: rate,
            torn_append: rate,
            fsync_drop: rate,
        }
    }
}

/// Counts of faults actually injected by a [`ChaosIo`].
#[derive(Debug, Default)]
pub struct ChaosStats {
    /// Writes rejected with `StorageFull`.
    pub enospc: AtomicU64,
    /// Writes torn to a prefix.
    pub partial_writes: AtomicU64,
    /// Reads returned corrupted.
    pub read_corrupt: AtomicU64,
    /// Journal appends torn mid-line.
    pub torn_appends: AtomicU64,
    /// Journal flushes dropped.
    pub fsync_drops: AtomicU64,
}

/// Deterministic fault-injecting wrapper around another [`FarmIo`].
pub struct ChaosIo<I: FarmIo = RealIo> {
    inner: I,
    cfg: ChaosConfig,
    stats: ChaosStats,
    /// Per-(tag, path) operation ordinals, so the nth read of one key is
    /// a stable fault site independent of what other threads do.
    ordinals: Mutex<HashMap<u64, u64>>,
}

impl ChaosIo<RealIo> {
    /// Chaos over the real filesystem.
    pub fn new(cfg: ChaosConfig) -> Self {
        ChaosIo::wrap(RealIo, cfg)
    }
}

impl<I: FarmIo> ChaosIo<I> {
    /// Chaos over an arbitrary inner implementation.
    pub fn wrap(inner: I, cfg: ChaosConfig) -> Self {
        ChaosIo {
            inner,
            cfg,
            stats: ChaosStats::default(),
            ordinals: Mutex::new(HashMap::new()),
        }
    }

    /// The injection configuration.
    pub fn config(&self) -> &ChaosConfig {
        &self.cfg
    }

    /// Counts of faults injected so far.
    pub fn stats(&self) -> &ChaosStats {
        &self.stats
    }

    /// Uniform `[0, 1)` draw for the next operation of class `tag` on
    /// `path`. Deterministic per (seed, tag, path, ordinal).
    fn roll(&self, tag: &str, path: &Path) -> f64 {
        let site = fnv1a64(tag.as_bytes()) ^ fnv1a64(path.as_os_str().as_encoded_bytes());
        let ordinal = {
            let mut m = self.ordinals.lock().expect("chaos ordinal lock");
            let n = m.entry(site).or_insert(0);
            *n += 1;
            *n
        };
        let bits = splitmix64(self.cfg.seed ^ site ^ ordinal.wrapping_mul(0x2545_f491_4f6c_dd1d));
        (bits >> 11) as f64 / (1u64 << 53) as f64
    }
}

impl<I: FarmIo> FarmIo for ChaosIo<I> {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }

    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        let text = self.inner.read_to_string(path)?;
        if !text.is_empty() && self.roll("read", path) < self.cfg.read_corrupt {
            self.stats.read_corrupt.fetch_add(1, Ordering::Relaxed);
            // Flip one byte at a seeded position to a character that is
            // guaranteed to break JSON, modelling bit rot / a torn page.
            let pos = (splitmix64(self.cfg.seed ^ fnv1a64(text.as_bytes())) as usize) % text.len();
            let mut bytes = text.into_bytes();
            bytes[pos] = b'\x01';
            return Ok(String::from_utf8_lossy(&bytes).into_owned());
        }
        Ok(text)
    }

    fn read_bytes(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut bytes = self.inner.read_bytes(path)?;
        if !bytes.is_empty() && self.roll("read", path) < self.cfg.read_corrupt {
            self.stats.read_corrupt.fetch_add(1, Ordering::Relaxed);
            // Flip one byte at a seeded position, modelling bit rot; the
            // binary envelope's checksum must catch it.
            let pos = (splitmix64(self.cfg.seed ^ fnv1a64(&bytes)) as usize) % bytes.len();
            bytes[pos] ^= 0xa5;
        }
        Ok(bytes)
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        if self.roll("write", path) < self.cfg.enospc {
            self.stats.enospc.fetch_add(1, Ordering::Relaxed);
            return Err(io::Error::new(
                io::ErrorKind::StorageFull,
                "chaos: injected ENOSPC",
            ));
        }
        if self.roll("partial", path) < self.cfg.partial_write {
            self.stats.partial_writes.fetch_add(1, Ordering::Relaxed);
            self.inner.write(path, &data[..data.len() / 2])?;
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "chaos: injected partial write",
            ));
        }
        self.inner.write(path, data)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        if self.roll("rename", to) < self.cfg.enospc {
            self.stats.enospc.fetch_add(1, Ordering::Relaxed);
            return Err(io::Error::new(
                io::ErrorKind::StorageFull,
                "chaos: injected rename failure",
            ));
        }
        self.inner.rename(from, to)
    }

    fn file_size(&self, path: &Path) -> io::Result<u64> {
        self.inner.file_size(path)
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }

    fn read_dir_names(&self, path: &Path) -> io::Result<Vec<String>> {
        self.inner.read_dir_names(path)
    }

    fn open_append(&self, path: &Path) -> io::Result<File> {
        self.inner.open_append(path)
    }

    fn append_line(&self, file: &mut File, line: &str, path: &Path) -> io::Result<()> {
        if self.roll("append", path) < self.cfg.torn_append {
            self.stats.torn_appends.fetch_add(1, Ordering::Relaxed);
            // Model a crash mid-append: a prefix lands, no newline, and
            // the caller sees an error. `Journal::load_pending` must
            // skip the resulting garbage line.
            let cut = line.len() / 2;
            file.write_all(&line.as_bytes()[..cut])?;
            file.flush().ok();
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "chaos: injected torn append",
            ));
        }
        file.write_all(line.as_bytes())?;
        if self.roll("fsync", path) < self.cfg.fsync_drop {
            // Durability lost, not correctness: the bytes are in the OS
            // buffer, we just skip the flush.
            self.stats.fsync_drops.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        file.flush()
    }

    fn append_bytes(&self, file: &mut File, bytes: &[u8], path: &Path) -> io::Result<()> {
        if self.roll("append", path) < self.cfg.torn_append {
            self.stats.torn_appends.fetch_add(1, Ordering::Relaxed);
            // Model a crash mid-append: a prefix lands and the caller
            // sees an error. Index replay must skip the torn record.
            let cut = bytes.len() / 2;
            file.write_all(&bytes[..cut])?;
            file.flush().ok();
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "chaos: injected torn append",
            ));
        }
        file.write_all(bytes)?;
        if self.roll("fsync", path) < self.cfg.fsync_drop {
            self.stats.fsync_drops.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        file.flush()
    }

    fn counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            (
                "farm.chaos.enospc",
                self.stats.enospc.load(Ordering::Relaxed),
            ),
            (
                "farm.chaos.partial_write",
                self.stats.partial_writes.load(Ordering::Relaxed),
            ),
            (
                "farm.chaos.read_corrupt",
                self.stats.read_corrupt.load(Ordering::Relaxed),
            ),
            (
                "farm.chaos.torn_append",
                self.stats.torn_appends.load(Ordering::Relaxed),
            ),
            (
                "farm.chaos.fsync_drop",
                self.stats.fsync_drops.load(Ordering::Relaxed),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    #[test]
    fn rolls_are_deterministic_per_site_and_ordinal() {
        let a = ChaosIo::new(ChaosConfig::uniform(42, 0.5));
        let b = ChaosIo::new(ChaosConfig::uniform(42, 0.5));
        let p = PathBuf::from("/tmp/some/key.json");
        let q = PathBuf::from("/tmp/other/key.json");
        let seq_a: Vec<f64> = (0..8).map(|_| a.roll("write", &p)).collect();
        let seq_b: Vec<f64> = (0..8).map(|_| b.roll("write", &p)).collect();
        assert_eq!(seq_a, seq_b, "same seed, same site: same sequence");
        // Interleaving ops on another path must not shift p's sequence.
        let c = ChaosIo::new(ChaosConfig::uniform(42, 0.5));
        let seq_c: Vec<f64> = (0..8)
            .map(|_| {
                c.roll("write", &q);
                c.roll("write", &p)
            })
            .collect();
        assert_eq!(seq_a, seq_c, "fault sites are per-path, not global");
    }

    #[test]
    fn zero_rate_injects_nothing_and_full_rate_always_fails() {
        let dir = std::env::temp_dir().join(format!("ptb-chaosio-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let calm = ChaosIo::new(ChaosConfig::uniform(7, 0.0));
        let path = dir.join("calm.txt");
        calm.write(&path, b"hello").unwrap();
        assert_eq!(calm.read_to_string(&path).unwrap(), "hello");
        assert!(calm.counters().iter().all(|(_, v)| *v == 0));

        let storm = ChaosIo::new(ChaosConfig::uniform(7, 1.0));
        let err = storm.write(&dir.join("storm.txt"), b"hello").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        std::fs::remove_dir_all(&dir).ok();
    }
}
