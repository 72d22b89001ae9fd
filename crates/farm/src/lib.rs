//! # ptb-farm — content-addressed result store + resumable experiment scheduler
//!
//! The paper's evaluation is a large, heavily overlapping sweep: 14
//! benchmarks × 4+ mechanisms × 4 core counts, re-run by more than a
//! dozen figure binaries that share most of their grid. This crate makes
//! regenerating the artefact set incremental:
//!
//! * [`ResultStore`] — every [`ptb_core::RunReport`] is persisted on
//!   disk keyed by a stable content hash of the canonicalised
//!   [`ptb_core::SimConfig`], the full workload spec (which carries the
//!   RNG seed), and the store/report format versions. Any figure binary
//!   that needs a previously simulated point loads it in milliseconds
//!   instead of re-simulating.
//! * [`Journal`] — a persistent append-only job journal. Jobs are
//!   recorded when scheduled and again when they complete, so after a
//!   crash or Ctrl-C the unfinished remainder is known exactly and can
//!   be resumed with [`Farm::resume`] (or `farm_ctl resume`).
//! * [`Farm`] — the scheduler: dedups identical jobs submitted by
//!   different figures, satisfies hits from the store, runs misses in
//!   parallel on a work-stealing executor, and records completions as
//!   they land.
//! * [`FarmStats`] — per-job outcome counters (hits / misses / deduped /
//!   corrupt / retried / quarantined …), exported as a
//!   [`ptb_obs::CounterRegistry`] under the `farm.*` namespace.
//!
//! ## Failure containment
//!
//! The farm assumes both the filesystem and the simulations can fail:
//!
//! * Every store/journal byte flows through a [`FarmIo`] handle;
//!   [`ChaosIo`] injects seeded, replayable faults (ENOSPC, partial
//!   writes, read corruption, torn journal lines, dropped flushes) so
//!   the degradation paths are tested, not hoped for.
//! * [`Farm::try_run_batch`] isolates each job behind `catch_unwind`
//!   and returns one `Result` per job — a poisoned simulation is
//!   reported as a [`JobError`] in its own slot instead of killing the
//!   batch. Transient I/O faults are retried with exponential backoff;
//!   failures can be quarantined to a replayable `failed.jsonl`
//!   manifest ([`Quarantine`]) for later `farm_ctl resume` /
//!   `sim_check --replay`.
//!
//! ## Integrity
//!
//! Store entries are never trusted blindly. Each entry embeds its own
//! key, the format versions, and the full job (benchmark + config) it
//! answers for; [`ResultStore::get`] re-checks all of them against the
//! request and treats any mismatch — a torn envelope, a stale format
//! version, or a config that no longer matches its hash — as a miss,
//! deleting the entry so it is re-simulated rather than believed.
//!
//! ## Quick start
//!
//! ```
//! use ptb_core::{MechanismKind, SimConfig};
//! use ptb_farm::{Farm, FarmJob};
//! use ptb_workloads::{Benchmark, Scale};
//!
//! let dir = std::env::temp_dir().join("ptb-farm-doctest");
//! let farm = Farm::open(&dir).expect("open farm");
//! let cfg = SimConfig {
//!     n_cores: 2,
//!     scale: Scale::Test,
//!     mechanism: MechanismKind::None,
//!     ..SimConfig::default()
//! };
//! let jobs = vec![FarmJob::new(Benchmark::Fft, cfg)];
//! let cold = farm.run_batch(&jobs, 1); // simulates
//! let warm = farm.run_batch(&jobs, 1); // loads from the store
//! assert_eq!(cold[0].cycles, warm[0].cycles);
//! assert_eq!(farm.stats().hits, 1);
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binfmt;
pub mod error;
pub mod exec;
pub mod hash;
pub mod index;
pub mod io;
pub mod journal;
pub mod quarantine;
pub mod stats;
pub mod store;

pub use error::{FarmError, JobError};
pub use exec::{ExecConfig, ExecStats, JobCtx, JobFault, RetryPolicy};
pub use io::{io_from_env, ChaosConfig, ChaosIo, FarmIo, RealIo};
pub use journal::{Journal, JournalStats};
pub use quarantine::{Quarantine, QuarantineEntry, QUARANTINE_FILE};
pub use stats::{FarmSnapshot, FarmStats};
pub use store::{
    MigrateReport, ResultStore, StoreDiskStats, StoreLookup, INDEX_FILE, STORE_FORMAT,
};

use ptb_core::sim::SimError;
use ptb_core::{RunReport, SimConfig, Simulation};
use ptb_obs::CounterRegistry;
use ptb_workloads::Benchmark;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// One unit of farm work: a benchmark under a full simulation config.
///
/// The config alone pins everything the simulator reads (core count,
/// scale, mechanism, power/thermal parameters, trace capture); the
/// benchmark picks the workload generator, whose spec — including its
/// RNG seed — is folded into the content hash by [`FarmJob::key`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FarmJob {
    /// Benchmark to run.
    pub bench: Benchmark,
    /// Full simulation configuration.
    pub config: SimConfig,
}

impl FarmJob {
    /// A job from its parts.
    pub fn new(bench: Benchmark, config: SimConfig) -> Self {
        FarmJob { bench, config }
    }

    /// Content-address of this job: a 128-bit hex digest over the
    /// canonical JSON of the config, the fully expanded workload spec
    /// (benchmark programs, profiles and seed), and the store/report
    /// format versions. Stable across processes and platforms.
    pub fn key(&self) -> String {
        let spec = self.bench.spec(self.config.n_cores, self.config.scale);
        hash::job_key(&self.config, &spec)
    }

    /// Human-readable label for progress output and journal listings.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}c/{:?}",
            self.bench,
            self.config.mechanism.label(),
            self.config.n_cores,
            self.config.scale
        )
    }

    /// Run the simulation for this job, classifying failures.
    ///
    /// When `deadline` is set it is handed to the simulator as a
    /// wall-clock watchdog (checked every few thousand cycles); hitting
    /// it — or the in-config livelock budget — comes back as a typed
    /// [`JobFault`] instead of a hang or a panic. Timeouts map to
    /// [`JobFault::Timeout`], every other simulation error to
    /// [`JobFault::Fatal`] (deterministic sims fail identically on
    /// retry).
    pub fn try_simulate(&self, deadline: Option<Instant>) -> Result<RunReport, JobFault> {
        let mut sim = Simulation::new(self.config.clone());
        if let Some(dl) = deadline {
            sim = sim.with_deadline(dl);
        }
        sim.run(self.bench).map_err(|e| {
            let msg = format!("{}: {e}", self.label());
            match e {
                SimError::DeadlineExceeded { .. } => JobFault::Timeout(msg),
                _ => JobFault::Fatal(msg),
            }
        })
    }

    /// Run the simulation for this job, panicking on failure (the
    /// fail-fast path used by [`Farm::run_batch`]).
    pub fn simulate(&self) -> RunReport {
        self.try_simulate(None).unwrap_or_else(|f| match f {
            JobFault::Transient(m) | JobFault::Fatal(m) | JobFault::Timeout(m) => {
                panic!("{m}")
            }
        })
    }
}

/// Per-key outcomes of a resume pass: one `(key, result)` pair per job
/// actually re-run.
pub type ResumeOutcomes = Vec<(String, Result<RunReport, JobError>)>;

/// The experiment farm: a [`ResultStore`] plus a [`Journal`] plus the
/// scheduling logic that ties them together.
pub struct Farm {
    dir: PathBuf,
    store: ResultStore,
    journal: Journal,
    stats: FarmStats,
    exec_stats: ExecStats,
    io: Arc<dyn FarmIo>,
}

impl Farm {
    /// Open (or create) a farm rooted at `dir` on the real filesystem.
    ///
    /// If the journal shows no unfinished work left over from a previous
    /// process, it is compacted to zero length on open, so the journal
    /// only ever grows while crash-recovery information is live.
    pub fn open(dir: impl AsRef<Path>) -> Result<Farm, FarmError> {
        Self::open_with_io(dir, Arc::new(RealIo))
    }

    /// [`Farm::open`] with every store/journal filesystem operation
    /// routed through `io` (pass a [`ChaosIo`] to fault-inject).
    pub fn open_with_io(dir: impl AsRef<Path>, io: Arc<dyn FarmIo>) -> Result<Farm, FarmError> {
        let dir = dir.as_ref().to_path_buf();
        let store = ResultStore::open_with(dir.join("objects"), io.clone())?;
        let journal_path = dir.join("journal.jsonl");
        let mut carried = JournalStats::default();
        if Journal::load_pending_with(&journal_path, io.as_ref())?.is_empty() {
            // Compaction would also discard the accumulated traffic
            // stats; sum them first and re-append below, so the journal
            // stays a lifetime hit/miss ledger (reset by `farm_ctl gc`).
            carried = Journal::load_stats_with(&journal_path, io.as_ref()).unwrap_or_default();
            Journal::truncate(&journal_path)?;
        }
        let journal = Journal::open_with(&journal_path, io.clone())?;
        if !carried.is_empty() {
            // Telemetry only: a failed re-append must not fail the open.
            journal.record_stats(&carried).ok();
        }
        Ok(Farm {
            dir,
            store,
            journal,
            stats: FarmStats::default(),
            exec_stats: ExecStats::default(),
            io,
        })
    }

    /// Open the farm described by the environment, unless caching is
    /// disabled:
    ///
    /// * `PTB_NO_CACHE` set (to anything but `0`) — disabled, returns
    ///   `None`;
    /// * `PTB_FARM_DIR` — store location (default `target/farm`);
    /// * `PTB_CHAOS` / `PTB_CHAOS_SEED` — fault injection, see
    ///   [`io_from_env`].
    ///
    /// I/O errors opening the store degrade to uncached operation with a
    /// warning instead of failing the run.
    pub fn from_env() -> Option<Farm> {
        if let Ok(v) = std::env::var("PTB_NO_CACHE") {
            if v != "0" {
                return None;
            }
        }
        let dir = std::env::var("PTB_FARM_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|_| PathBuf::from("target/farm"));
        match Farm::open_with_io(&dir, io_from_env()) {
            Ok(farm) => Some(farm),
            Err(e) => {
                eprintln!(
                    "warning: cannot open farm store {}: {e}; running uncached",
                    dir.display()
                );
                None
            }
        }
    }

    /// Root directory of this farm.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The underlying result store.
    pub fn store(&self) -> &ResultStore {
        &self.store
    }

    /// The quarantine manifest of this farm (`<dir>/failed.jsonl`).
    pub fn quarantine(&self) -> Quarantine {
        Quarantine::in_dir(&self.dir)
    }

    /// Snapshot of the outcome counters accumulated by this handle.
    pub fn stats(&self) -> FarmSnapshot {
        self.stats.snapshot()
    }

    /// Executor telemetry (queue depth, steals, utilization, retry
    /// backoffs) accumulated across this handle's batches.
    pub fn exec_stats(&self) -> &ExecStats {
        &self.exec_stats
    }

    /// Sum of the `{"stats":{…}}` records in this farm's journal —
    /// hit/miss traffic from *all* processes since the journal was last
    /// compacted, not just this handle.
    pub fn journal_stats(&self) -> Result<JournalStats, FarmError> {
        Journal::load_stats_with(self.dir.join("journal.jsonl"), self.io.as_ref())
    }

    /// All counters of this farm as a `ptb-obs` registry: the
    /// `farm.*` outcome counters, the `farm.exec.*` executor telemetry,
    /// plus, when fault injection is active, the `farm.chaos.*`
    /// injected-fault counters.
    pub fn counters(&self) -> CounterRegistry {
        let mut c = self.stats.snapshot().counters();
        c.merge(&self.exec_stats.counters());
        for (name, value) in self.io.counters() {
            c.set(name, value as f64);
        }
        c
    }

    /// Jobs recorded as scheduled but never completed — the unfinished
    /// remainder a crashed or interrupted process left behind.
    pub fn pending(&self) -> Result<Vec<(String, FarmJob)>, FarmError> {
        Journal::load_pending_with(self.dir.join("journal.jsonl"), self.io.as_ref())
    }

    /// Record `jobs` in the journal as scheduled without running them.
    ///
    /// `run_batch` does this automatically for every miss; the method is
    /// public so tests and tools can reconstruct an interrupted sweep.
    pub fn record_pending(&self, jobs: &[FarmJob]) -> Result<(), FarmError> {
        for job in jobs {
            self.journal.submit(&job.key(), job)?;
        }
        Ok(())
    }

    /// Run a batch of jobs and return one `Result` per job, in batch
    /// order — the failure-isolating path.
    ///
    /// Identical jobs (same content key) are deduplicated and simulated
    /// at most once (duplicates share the first occurrence's outcome,
    /// success or failure); keys present in the store are served from it
    /// after an integrity check; the remaining misses are journalled and
    /// run across the executor's work-stealing threads with each
    /// completion persisted the moment it lands. Each job runs inside
    /// `catch_unwind` under `exec`'s retry policy and watchdog: a panic,
    /// a simulation error, or a persistent transient fault yields a
    /// [`JobError`] in that job's slot while every other job completes.
    pub fn try_run_batch(
        &self,
        jobs: &[FarmJob],
        exec: &ExecConfig,
    ) -> Vec<Result<RunReport, JobError>> {
        let stats_before = self.stats.snapshot();
        let mut results: Vec<Option<Result<RunReport, JobError>>> = vec![None; jobs.len()];
        // Batch-order indices of the first job carrying each key; later
        // occurrences are duplicates satisfied by copying.
        let mut first_of: HashMap<String, usize> = HashMap::new();
        let mut dups: Vec<(usize, usize)> = Vec::new();
        let mut misses: Vec<(usize, String)> = Vec::new();
        for (idx, job) in jobs.iter().enumerate() {
            let key = job.key();
            if let Some(&first) = first_of.get(&key) {
                self.stats.deduped.incr();
                dups.push((idx, first));
                continue;
            }
            first_of.insert(key.clone(), idx);
            match self.lookup(&key, job) {
                Some(report) => {
                    self.stats.hits.incr();
                    results[idx] = Some(Ok(report));
                }
                None => {
                    self.stats.misses.incr();
                    misses.push((idx, key));
                }
            }
        }

        // Journal every miss before the first simulation starts, so a
        // crash mid-batch leaves a complete record of what was owed.
        for (idx, key) in &misses {
            if let Err(e) = self.journal.submit(key, &jobs[*idx]) {
                eprintln!("warning: journal write failed: {e}");
            }
        }

        let miss_idx: Vec<usize> = misses.iter().map(|(idx, _)| *idx).collect();
        let done = exec::run_work_stealing_observed(
            misses,
            exec,
            Some(&self.exec_stats),
            |(idx, key), ctx| {
                if ctx.attempt > 1 {
                    self.stats.retried.incr();
                }
                let report = jobs[*idx].try_simulate(ctx.deadline)?;
                self.complete(key, &jobs[*idx], &report)?;
                Ok(report)
            },
        );
        // The executor returns slots in input order, so zip against the
        // recorded miss indices to place successes and failures alike.
        for (idx, outcome) in miss_idx.into_iter().zip(done) {
            results[idx] = Some(outcome);
        }
        for (idx, first) in dups {
            results[idx] = results[first].clone();
        }
        self.journal_batch_stats(&stats_before);
        results
            .into_iter()
            .map(|r| r.expect("every job resolved"))
            .collect()
    }

    /// Journal this batch's hit/miss delta as a `{"stats":{…}}` record
    /// so `farm_ctl status` can report traffic across processes. Best
    /// effort: a failed append only warns.
    fn journal_batch_stats(&self, before: &FarmSnapshot) {
        let delta = self.stats.snapshot().since(before);
        let record = JournalStats {
            hits: delta.hits,
            misses: delta.misses,
            deduped: delta.deduped,
            completed: delta.completed,
        };
        if let Err(e) = self.journal.record_stats(&record) {
            eprintln!("warning: journal stats write failed: {e}");
        }
    }

    /// Run a batch of jobs and return their reports in batch order,
    /// panicking on the first failed job — the fail-fast path.
    ///
    /// See [`Farm::try_run_batch`] for the failure-isolating variant.
    pub fn run_batch(&self, jobs: &[FarmJob], workers: usize) -> Vec<RunReport> {
        let exec = ExecConfig::new(workers);
        self.try_run_batch(jobs, &exec)
            .into_iter()
            .zip(jobs)
            .map(|(r, job)| r.unwrap_or_else(|e| panic!("{} failed: {e}", job.label())))
            .collect()
    }

    /// Append `job`'s failure to the quarantine manifest so it can be
    /// replayed later (`farm_ctl resume`, `sim_check --replay`).
    pub fn quarantine_job(&self, job: &FarmJob, err: &JobError) -> Result<(), FarmError> {
        self.stats.quarantined.incr();
        self.quarantine().record(&QuarantineEntry::new(job, err))
    }

    /// Run exactly the unfinished remainder recorded in the journal,
    /// isolating failures. Pending entries whose result is already in
    /// the store (completed by another process, or stored just before a
    /// crash cut off the `done` record) are acknowledged without
    /// re-running. Returns the `(key, outcome)` pairs actually run.
    pub fn try_resume(&self, exec: &ExecConfig) -> Result<ResumeOutcomes, FarmError> {
        let stats_before = self.stats.snapshot();
        let pending = self.pending()?;
        let mut to_run = Vec::new();
        for (key, job) in pending {
            if self.lookup(&key, &job).is_some() {
                self.stats.hits.incr();
                self.journal.done(&key)?;
            } else {
                self.stats.resumed.incr();
                self.stats.misses.incr();
                to_run.push((key, job));
            }
        }
        let done = exec::run_work_stealing_observed(
            to_run.clone(),
            exec,
            Some(&self.exec_stats),
            |(key, job), ctx| {
                if ctx.attempt > 1 {
                    self.stats.retried.incr();
                }
                let report = job.try_simulate(ctx.deadline)?;
                self.complete(key, job, &report)?;
                Ok(report)
            },
        );
        self.journal_batch_stats(&stats_before);
        Ok(to_run
            .into_iter()
            .zip(done)
            .map(|((key, _), outcome)| (key, outcome))
            .collect())
    }

    /// Run the unfinished journal remainder, panicking on the first
    /// failed job. Returns the `(key, report)` pairs actually simulated.
    pub fn resume(&self, workers: usize) -> Result<Vec<(String, RunReport)>, FarmError> {
        let exec = ExecConfig::new(workers);
        Ok(self
            .try_resume(&exec)?
            .into_iter()
            .map(|(key, r)| match r {
                Ok(report) => (key, report),
                Err(e) => panic!("resumed job {key} failed: {e}"),
            })
            .collect())
    }

    /// Retry every quarantined job; entries that now succeed are
    /// removed from the manifest (and their results stored), entries
    /// that fail again stay. Returns `(recovered, still_failing)`.
    pub fn retry_quarantined(&self, exec: &ExecConfig) -> Result<(usize, usize), FarmError> {
        let q = self.quarantine();
        let entries = q.load()?;
        if entries.is_empty() {
            return Ok((0, 0));
        }
        let jobs: Vec<FarmJob> = entries.iter().map(|e| e.job.clone()).collect();
        let outcomes = self.try_run_batch(&jobs, exec);
        let mut still = Vec::new();
        for (entry, outcome) in entries.into_iter().zip(&outcomes) {
            if let Err(e) = outcome {
                still.push(QuarantineEntry::new(&entry.job, e));
            }
        }
        let recovered = outcomes.len() - still.len();
        let failing = still.len();
        q.rewrite(&still)?;
        Ok((recovered, failing))
    }

    /// Integrity-scan every store entry; returns `(ok, dropped)` counts.
    /// Corrupt, stale-format, or mis-keyed entries are deleted so the
    /// next request re-simulates them.
    pub fn verify(&self) -> Result<(usize, usize), FarmError> {
        let mut ok = 0;
        let mut dropped = 0;
        for key in self.store.keys()? {
            match self.store.verify_entry(&key) {
                Ok(()) => ok += 1,
                Err(reason) => {
                    eprintln!("[farm] dropping {key}: {reason}");
                    self.store.remove(&key);
                    self.stats.corrupt.incr();
                    dropped += 1;
                }
            }
        }
        // The walk above is authoritative; re-derive the packed index
        // from it so stale index state cannot outlive a verify.
        self.store.rebuild_index()?;
        Ok((ok, dropped))
    }

    /// Persist a report computed *outside* this process (a remote
    /// fleet worker) under `key`, with the same verification the local
    /// path gets: the key must match the job's content address (the
    /// store's own `put` additionally embeds and re-checks the full
    /// job), and the write is atomic and round-trip-verified. Counts
    /// toward `farm.completed` and appends the journal `done` record,
    /// exactly like a local completion.
    ///
    /// Transient store faults are returned as-is (`FarmError` with
    /// `transient() == true`) so the caller can requeue the job instead
    /// of losing the result.
    pub fn commit_remote(
        &self,
        key: &str,
        job: &FarmJob,
        report: &RunReport,
    ) -> Result<(), FarmError> {
        if job.key() != key {
            return Err(FarmError::BadKey {
                key: format!("{key} does not address the supplied job"),
            });
        }
        self.store.put(key, job, report)?;
        self.stats.completed.incr();
        if let Err(e) = self.journal.done(key) {
            // Same contract as the local path: a lost `done` record is
            // benign (resume re-checks the store first).
            eprintln!("warning: journal write failed: {e}");
        }
        Ok(())
    }

    /// Whether the journal file can still be opened for appending —
    /// the liveness signal behind `/healthz`.
    pub fn journal_writable(&self) -> bool {
        self.journal.probe_writable()
    }

    /// Store lookup with integrity handling: corrupt or stale entries
    /// are counted, removed, and reported as a miss.
    fn lookup(&self, key: &str, job: &FarmJob) -> Option<RunReport> {
        match self.store.get(key, job) {
            StoreLookup::Hit(report) => Some(*report),
            StoreLookup::Miss => None,
            StoreLookup::Corrupt(reason) => {
                eprintln!("[farm] discarding entry {key}: {reason}");
                self.store.remove(key);
                self.stats.corrupt.incr();
                None
            }
        }
    }

    /// Persist a finished job and mark it done in the journal.
    ///
    /// Transient store failures (injected ENOSPC, partial writes)
    /// surface as [`JobFault::Transient`] so the executor retries the
    /// job; non-transient ones (an unstorable report) degrade to a
    /// warning — the in-memory result is still correct, it just will
    /// not be cached.
    fn complete(&self, key: &str, job: &FarmJob, report: &RunReport) -> Result<(), JobFault> {
        match self.store.put(key, job, report) {
            Ok(()) => {}
            Err(e) if e.transient() => {
                return Err(JobFault::Transient(format!(
                    "{}: store put: {e}",
                    job.label()
                )));
            }
            Err(e) => {
                eprintln!("warning: cannot store {key}: {e}");
                self.stats.unstorable.incr();
            }
        }
        self.stats.completed.incr();
        if let Err(e) = self.journal.done(key) {
            // Losing the `done` record is benign: resume re-checks the
            // store before re-running, so the job is acknowledged then.
            eprintln!("warning: journal write failed: {e}");
        }
        Ok(())
    }
}
