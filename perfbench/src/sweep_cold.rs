//! `sweep-cold`: half of the fig09 job set (the 168 jobs of every
//! second model in the figure's order, at test scale: 7 models ×
//! 2/4/8/16 cores × baseline, DVFS, DFS, 2-level and PTB+2-level with
//! both ToOne and ToAll) through `Farm::try_run_batch` on two workers
//! into a fresh, empty store. The full 336-job figure takes 37 s on a
//! 2-vCPU host, which the run budget cannot afford on every run. The
//! seed shuffles the job order within each core count; core counts run
//! in ascending order, as on the figure's first page, so every seed has
//! the same load shape (the 16-core jobs last, where one long job can
//! leave a worker idle).
//!
//! Unit of work (`wall_s`): one cold sweep. Operation (`p50_ms`,
//! `p90_ms`): one job's time on its worker, from the worker's previous
//! publication (or the sweep's start, for its first job) until the job's
//! own report is published in the store. That covers the simulation,
//! the store write and the journal line, and for a worker's first job
//! also the batch's miss probes and journal submits.

use crate::oracle::{self, report_digest};
use crate::probe::{self, StampIo};
use crate::trace::Tracer;
use crate::{shuffle, timed_setup, Args, Outcome, Scratch};
use ptb_core::{MechanismKind, PtbPolicy, RunReport, SimConfig};
use ptb_farm::{ExecConfig, Farm, FarmJob};
use ptb_metrics::{median, percentile};
use ptb_workloads::{Benchmark, Scale};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::Instant;

/// Executor workers (the host has two cores).
pub const WORKERS: usize = 2;

/// Untraced sweeps per run, at least; more run until `--seconds` has
/// passed. On a shared host whose speed drifts over tens of seconds,
/// one 35 s sweep per run put the spread of `p50_ms` over ten runs at
/// 0.13-0.30; two average over a longer stretch of that drift.
pub const MIN_SWEEPS: usize = 2;

/// The fig09 job set in the figure's own order.
pub fn fig09_jobs() -> Vec<FarmJob> {
    let mut jobs: Vec<FarmJob> = Vec::new();
    let mut labels: Vec<String> = Vec::new();
    for policy in [PtbPolicy::ToOne, PtbPolicy::ToAll] {
        for n_cores in [2, 4, 8, 16] {
            for bench in Benchmark::ALL {
                let mechs = [
                    MechanismKind::None,
                    MechanismKind::Dvfs,
                    MechanismKind::Dfs,
                    MechanismKind::TwoLevel,
                    MechanismKind::PtbTwoLevel { policy, relax: 0.0 },
                ];
                for mechanism in mechs {
                    let job = FarmJob::new(
                        bench,
                        SimConfig {
                            n_cores,
                            scale: Scale::Test,
                            mechanism,
                            capture_trace: false,
                            ..SimConfig::default()
                        },
                    );
                    let label = job.label();
                    if !labels.contains(&label) {
                        labels.push(label);
                        jobs.push(job);
                    }
                }
            }
        }
    }
    jobs
}

/// The benchmark's sweep: the fig09 jobs of every second model of
/// `Benchmark::ALL`.
pub fn sweep_jobs() -> Vec<FarmJob> {
    let half: Vec<Benchmark> = Benchmark::ALL.iter().step_by(2).copied().collect();
    fig09_jobs()
        .into_iter()
        .filter(|j| half.contains(&j.bench))
        .collect()
}

/// A fresh, empty farm ready for one sweep.
struct Cold {
    farm: Farm,
    io: Arc<StampIo>,
    _dir: Scratch,
}

fn cold_farm(tracer: Arc<Tracer>) -> Result<Cold, String> {
    let dir = Scratch::new("sweep")?;
    let io = Arc::new(StampIo::new(tracer));
    let farm = Farm::open_with_io(dir.path(), io.clone()).map_err(|e| format!("open farm: {e}"))?;
    Ok(Cold {
        farm,
        io,
        _dir: dir,
    })
}

/// One cold sweep's outputs.
struct Sweep {
    wall_s: f64,
    /// Each job's seconds on its worker (see the module docs), one per
    /// publication.
    job_s: Vec<f64>,
    results: Vec<Result<RunReport, String>>,
    cold: Cold,
}

fn sweep(jobs: &[FarmJob], cold: Cold, tracer: &Tracer) -> Sweep {
    let t0 = Instant::now();
    let results = tracer.span("farm.try_run_batch", 0, |_| {
        cold.farm.try_run_batch(jobs, &ExecConfig::new(WORKERS))
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut last: HashMap<ThreadId, Instant> = HashMap::new();
    let job_s = cold
        .io
        .published()
        .into_iter()
        .map(|(thread, at)| {
            let since = last.insert(thread, at).unwrap_or(t0);
            at.duration_since(since).as_secs_f64()
        })
        .collect();
    Sweep {
        wall_s,
        job_s,
        results: results
            .into_iter()
            .map(|r| r.map_err(|e| e.to_string()))
            .collect(),
        cold,
    }
}

/// Run `jobs` through a cold farm, untraced; one result per job.
pub fn run_cold(jobs: &[FarmJob]) -> Result<Vec<Result<RunReport, String>>, String> {
    let off = Arc::new(Tracer::off());
    Ok(sweep(jobs, cold_farm(off.clone())?, &off).results)
}

/// Count each job's result in `out`: it must exist and its digest must
/// equal the one `pinned` holds under the job's label. Returns the
/// `(label, digest)` of every report.
pub fn check(
    jobs: &[FarmJob],
    results: &[Result<RunReport, String>],
    pinned: &BTreeMap<String, String>,
    out: &mut Outcome,
) -> Vec<(String, String)> {
    let mut got = Vec::new();
    for (job, r) in jobs.iter().zip(results) {
        match r {
            Ok(report) => {
                let d = report_digest(report);
                out.check(pinned.get(&job.label()) == Some(&d));
                got.push((job.label(), d));
            }
            Err(e) => {
                eprintln!("[sweep-cold] {}: {e}", job.label());
                out.check(false);
            }
        }
    }
    got
}

/// Run the workload into `out`.
pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    // Set-up: the shuffled job list and a fresh farm for the first
    // sweep (later sweeps open their own, outside the set-up time).
    let off = Arc::new(Tracer::off());
    let ((jobs, first), setup_s) = timed_setup(|| {
        let mut jobs = sweep_jobs();
        shuffle(&mut jobs, args.seed);
        jobs.sort_by_key(|j| j.config.n_cores);
        Ok((jobs, cold_farm(off.clone())?))
    })?;

    let pinned = oracle::parse_pinned(oracle::PINNED_SWEEP_COLD);
    let start = Instant::now();
    let mut first = Some(first);
    let mut sweeps = Vec::new();
    while sweeps.is_empty()
        || (!args.trace
            && (sweeps.len() < MIN_SWEEPS || start.elapsed().as_secs_f64() < args.seconds))
    {
        let cold = match first.take() {
            Some(c) => c,
            None => cold_farm(off.clone())?,
        };
        let s = sweep(&jobs, cold, &off);
        let got = check(&jobs, &s.results, &pinned, out);
        // One publication per job, or the per-job timings mean nothing.
        out.check(s.job_s.len() == jobs.len());
        if sweeps.is_empty() {
            let path = oracle::emit("sweep-cold", args.seed, &got)?;
            eprintln!("[sweep-cold] digests -> {}", path.display());
        }
        sweeps.push(s);
    }
    let walls: Vec<f64> = sweeps.iter().map(|s| s.wall_s).collect();
    if !args.trace {
        let job_ms: Vec<f64> = sweeps
            .iter()
            .flat_map(|s| s.job_s.iter().map(|t| t * 1e3))
            .collect();
        out.set("wall_s", median(&walls));
        out.set("p50_ms", median(&job_ms));
        out.set("p90_ms", percentile(&job_ms, 90.0));
        out.set("setup_s", setup_s);
        return Ok(());
    }

    // Traced sweep: spans around the batch and every store write,
    // publish and journal append; then direct store calls.
    let tracer = Arc::new(Tracer::on());
    let s = sweep(&jobs, cold_farm(tracer.clone())?, &tracer);
    check(&jobs, &s.results, &pinned, out);
    let farm = &s.cold.farm;
    let counters = farm.counters();
    let count = |name: &str| counters.get(name).unwrap_or(0.0);
    out.set(
        "farm.exec.utilization_pct",
        count("farm.exec.utilization_pct"),
    );
    out.set("farm.exec.busy_ms", count("farm.exec.busy_ms"));
    out.set("farm.exec.steals", count("farm.exec.steals"));
    let stats = farm.stats();
    out.set("farm.hits", stats.hits as f64);
    out.set("farm.misses", stats.misses as f64);
    out.set("farm.jobs_per_s", jobs.len() as f64 / s.wall_s);
    // Simulated throughput of the untraced sweep, over both workers.
    let reports = || sweeps[0].results.iter().filter_map(|r| r.as_ref().ok());
    let cycles: u64 = reports().map(|r| r.cycles).sum();
    let committed: u64 = reports().map(RunReport::committed).sum();
    out.set("sim_cycles_per_s", cycles as f64 / sweeps[0].wall_s);
    out.set("host_mips", committed as f64 / sweeps[0].wall_s / 1e6);
    let disk = farm
        .store()
        .disk_stats()
        .map_err(|e| format!("store stats: {e}"))?;
    out.set(
        "farm.store.bytes_per_entry",
        disk.total_bytes as f64 / disk.entries.max(1) as f64,
    );
    out.set(
        "trace.overhead_pct",
        (s.wall_s / median(&walls) - 1.0) * 100.0,
    );
    let entries: Vec<(FarmJob, RunReport)> = jobs
        .iter()
        .cloned()
        .zip(s.results.iter().cloned())
        .filter_map(|(j, r)| Some((j, r.ok()?)))
        .collect();
    probe::store_calls(&tracer, 0, &entries, out)?;
    tracer.write(&crate::trace_path("sweep-cold", args.seed))
}
