//! `perfbench`: one benchmark for the PTB simulator, the experiment farm
//! and the HTTP service.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Four workloads, each built only from its seed (see `README.md` for
//! why each exists):
//!
//! * `sim-ptb16` — the 14 benchmark models at 16 cores under PTB, run
//!   directly through `Simulation::run_spec_observed`;
//! * `serve-miss` — closed-loop clients pushing new jobs through the
//!   service's queue, scheduler and executor;
//! * `sweep-cold` — half the fig09 job set through `Farm::try_run_batch` into
//!   an empty store;
//! * `serve-cached` — open-loop cached submits and report fetches
//!   against an in-process `ptb_serve` over a populated store.
//!
//! `BENCHMARK.json` lists the first two; the last two run by hand only
//! (see [`Workload::by_hand`]).
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are [`END_TO_END`]; with `--trace 1` they are [`PER_LAYER`],
//! measured in a separate traced pass (zero where a workload does not
//! exercise that layer).

#![forbid(unsafe_code)]

pub mod oracle;
pub mod probe;
pub mod serve;
pub mod sim_ptb16;
pub mod sweep_cold;
pub mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// End-to-end metrics `(name, unit)`, reported with tracing off. Each
/// workload defines its own unit of work and operation (README.md).
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, reported by the traced run.
pub const PER_LAYER: [(&str, &str); 53] = [
    // Simulator phases (PhaseProfiler self time, summed over the pass).
    ("noc.self_ms", "ms"),
    ("mem.self_ms", "ms"),
    ("uarch.self_ms", "ms"),
    ("power.self_ms", "ms"),
    ("mechanism.self_ms", "ms"),
    ("obs.self_ms", "ms"),
    ("uarch.ns_per_inst", "ns"),
    ("sim.ns_per_core_cycle", "ns"),
    ("sim_cycles_per_s", "1/s"),
    ("host_mips", "MIPS"),
    // Simulated work (CounterRegistry).
    ("sim.cycles", "count"),
    ("uarch.committed", "count"),
    ("mem.l1_misses", "count"),
    ("mem.l2_misses", "count"),
    ("mem.invalidations", "count"),
    ("mem.backpressure_retries", "count"),
    ("sync.spin_episodes_lock", "count"),
    ("sync.spin_episodes_barrier", "count"),
    ("mechanism.dvfs_transitions", "count"),
    ("mechanism.throttle_changes", "count"),
    // Allocation and tracing cost.
    ("sim.allocs_per_kcycle", "count"),
    ("sim.alloc_bytes_per_kcycle", "B"),
    ("trace.overhead_pct", "%"),
    // Farm: executor, outcomes, store.
    ("farm.exec.utilization_pct", "%"),
    ("farm.exec.busy_ms", "ms"),
    ("farm.exec.steals", "count"),
    ("farm.hits", "count"),
    ("farm.misses", "count"),
    ("farm.store.put_us_p50", "us"),
    ("farm.store.put_us_p99", "us"),
    ("farm.store.get_us_p50", "us"),
    ("farm.store.miss_us_p50", "us"),
    ("farm.store.bytes_per_entry", "B"),
    ("farm.jobs_per_s", "1/s"),
    // Service and HTTP.
    ("serve.handler.submit_ms_p50", "ms"),
    ("serve.handler.report_ms_p50", "ms"),
    ("serve.handler.report_ms_p99", "ms"),
    ("serve.handler.execute_ms_p50", "ms"),
    ("serve.api.report_us_p50", "us"),
    ("report.encode_us_p50", "us"),
    ("http.rejected", "count"),
    ("http.errors", "count"),
    ("http.submit_ms_p50", "ms"),
    ("http.submit_ms_p99", "ms"),
    ("http.fetch_ms_p50", "ms"),
    ("http.fetch_ms_p99", "ms"),
    ("serve.enqueued", "count"),
    ("serve.completed", "count"),
    ("serve.failed", "count"),
    ("serve.max_rps", "1/s"),
    ("loadgen.lateness_p99_ms", "ms"),
    ("serve.key_reuse_frac", "frac"),
    ("error_rate", "frac"),
];

/// Setup is repeated at least this many times per run, and more while
/// the repetitions so far (with their teardown) took less than
/// [`SETUP_BUDGET_S`] (up to [`SETUP_MAX_REPS`]); `setup_s` is the
/// median repetition, teardown excluded.
pub const SETUP_REPS: usize = 3;
/// See [`SETUP_REPS`].
pub const SETUP_BUDGET_S: f64 = 1.0;
/// See [`SETUP_REPS`].
pub const SETUP_MAX_REPS: usize = 25;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 14 models × 16 cores under PTB, straight through the simulator.
    SimPtb16,
    /// Half the fig09 job set through the farm into an empty store.
    SweepCold,
    /// Open-loop cached traffic against the service.
    ServeCached,
    /// Closed-loop new jobs through the service.
    ServeMiss,
}

impl Workload {
    /// Every workload: those of `BENCHMARK.json`, in its order, and then
    /// the two that run by hand only.
    pub const ALL: [Workload; 4] = [
        Workload::SimPtb16,
        Workload::ServeMiss,
        Workload::SweepCold,
        Workload::ServeCached,
    ];

    /// Runs by hand only, not in `BENCHMARK.json` (README.md).
    /// `sweep-cold` needs two 32 s sweeps per run to be steady, which
    /// the benchmark's run budget cannot afford beside the other two;
    /// `serve-cached`'s latencies moved 2-4 times between runs of one
    /// commit on a shared 2-vCPU host, beyond any bound the benchmark
    /// may set.
    pub fn by_hand(self) -> bool {
        matches!(self, Workload::SweepCold | Workload::ServeCached)
    }

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimPtb16 => "sim-ptb16",
            Workload::SweepCold => "sweep-cold",
            Workload::ServeCached => "serve-cached",
            Workload::ServeMiss => "serve-miss",
        }
    }

    fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Parsed command line.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Input seed: the workload's inputs are a pure function of it.
    pub seed: u64,
    /// Minimum measurement time; whole units of work are run until it
    /// has passed.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of the
    /// end-to-end ones.
    pub trace: bool,
}

impl Args {
    /// Parse `--workload --seed --seconds --trace` (all required).
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let get = |flag: &str| -> Result<&str, String> {
            argv.iter()
                .position(|a| a == flag)
                .and_then(|i| argv.get(i + 1))
                .map(String::as_str)
                .ok_or_else(|| format!("missing {flag} <value>"))
        };
        let workload = get("--workload")?;
        let workload = Workload::parse(workload).ok_or_else(|| {
            let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!(
                "unknown workload {workload:?} (one of {})",
                names.join(", ")
            )
        })?;
        let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
        let seconds: f64 = get("--seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds {seconds} out of range (0, 600]"));
        }
        let trace = match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
        };
        Ok(Args {
            workload,
            seed,
            seconds,
            trace,
        })
    }
}

/// What a run measured: operations attempted and failed, plus metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations that errored or produced a wrong output.
    pub failed: u64,
    /// Metric values by name (units come from the tables above).
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Count one checked operation; `ok == false` counts it failed.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Set a metric (names outside the tables are not reported).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// The result line. Every metric of the table is present: missing
    /// per-layer metrics are layers this workload does not exercise and
    /// read 0; a missing end-to-end metric is a benchmark bug.
    pub fn to_json(&self, trace: bool) -> Result<String, String> {
        let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut parts = Vec::new();
        for (name, unit) in table {
            let value = match self.metrics.get(name) {
                Some(v) => *v,
                None if trace => 0.0,
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite: {value}"));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            parts.join(", ")
        ))
    }
}

/// Run one workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    match args.workload {
        Workload::SimPtb16 => sim_ptb16::run(args, &mut out)?,
        Workload::SweepCold => sweep_cold::run(args, &mut out)?,
        Workload::ServeCached => serve::run_cached(args, &mut out)?,
        Workload::ServeMiss => serve::run_miss(args, &mut out)?,
    }
    if args.trace {
        out.set("error_rate", out.error_rate());
    } else {
        out.set("peak_rss_mb", peak_rss_mb()?);
    }
    Ok(out)
}

/// Run `setup` repeatedly (see [`SETUP_REPS`]), dropping all but the
/// last result so each repetition pays full cost, and return the last
/// result with the median repetition time in seconds.
///
/// Before each repetition, untimed, the filesystem writes out what
/// earlier work left pending (see [`settle_filesystem`]). Without that,
/// `serve-miss`'s set-up, which creates directories and files, took
/// up to four times longer in the later of five runs back to back,
/// each of which had deleted a store, than in the first: `setup_s`
/// measured the runs before it.
pub fn timed_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    std::fs::create_dir_all(WORK_DIR).map_err(|e| format!("create {WORK_DIR}: {e}"))?;
    let mut secs: Vec<f64> = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while secs.len() < SETUP_REPS
        || (secs.len() < SETUP_MAX_REPS && start.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        drop(last.take());
        settle_filesystem()?;
        let t = Instant::now();
        last = Some(setup()?);
        secs.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("SETUP_REPS > 0"), ptb_metrics::median(&secs)))
}

/// Ask the filesystem that holds [`WORK_DIR`] to write out everything
/// it holds pending (`sync -f`, the `syncfs` call), and wait for it.
fn settle_filesystem() -> Result<(), String> {
    let t = Instant::now();
    let status = std::process::Command::new("sync")
        .args(["-f", WORK_DIR])
        .status()
        .map_err(|e| format!("run sync: {e}"))?;
    if t.elapsed().as_secs_f64() > 1.0 {
        eprintln!(
            "[perfbench] sync -f took {:.1} s",
            t.elapsed().as_secs_f64()
        );
    }
    if status.success() {
        Ok(())
    } else {
        Err(format!("sync -f {WORK_DIR}: {status}"))
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    use rand::{Rng, SeedableRng};
    let mut rng = rand::SmallRng::seed_from_u64(seed);
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
}

/// Everything the benchmark writes lives under this directory of the
/// working directory (the checkout it runs in).
pub const WORK_DIR: &str = ".perfbench";

/// Where a traced run writes its spans.
pub fn trace_path(workload: &str, seed: u64) -> PathBuf {
    Path::new(WORK_DIR)
        .join("trace")
        .join(format!("{workload}-seed{seed}.json"))
}

/// A fresh directory under [`WORK_DIR`]`/tmp`, removed on drop.
#[derive(Debug)]
pub struct Scratch(PathBuf);

impl Scratch {
    /// Create a new, empty scratch directory tagged `tag`.
    pub fn new(tag: &str) -> Result<Scratch, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = Path::new(WORK_DIR)
            .join("tmp")
            .join(format!("{tag}-{}-{n}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_command_line() {
        let a = Args::parse(&argv(
            "perfbench --workload serve-miss --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::ServeMiss);
        assert_eq!(a.seed, 7);
        assert!(a.trace);
        assert!(Args::parse(&argv(
            "perfbench --workload nope --seed 1 --seconds 1 --trace 0"
        ))
        .is_err());
        assert!(Args::parse(&argv("perfbench --workload sim-ptb16 --seed 1 --seconds 1")).is_err());
        assert!(Args::parse(&argv(
            "perfbench --workload sim-ptb16 --seed 1 --seconds 0 --trace 0"
        ))
        .is_err());
    }

    #[test]
    fn result_line_has_every_metric_and_flags_failures() {
        let mut out = Outcome::default();
        for (name, _) in END_TO_END {
            out.set(name, 1.5);
        }
        out.check(true);
        let line = out.to_json(false).unwrap();
        let v = serde::json::parse(&line).unwrap();
        assert_eq!(v.get("correct").and_then(|c| c.as_bool()), Some(true));
        let metrics = v.get("metrics").and_then(|m| m.as_object()).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        out.check(false);
        assert!(out
            .to_json(false)
            .unwrap()
            .starts_with("{\"correct\": false"));
        assert_eq!(out.error_rate(), 0.5);
        // Per-layer metrics default to 0; end-to-end ones must be measured.
        assert!(Outcome::default().to_json(true).is_ok());
        assert!(Outcome::default().to_json(false).is_err());
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let doc = serde::json::parse(&text).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(|v| v.as_array())
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |f: &str| m.get(f).and_then(|x| x.as_str()).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(|v| v.as_array())
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(|x| x.as_str()).unwrap().to_string())
            .collect();
        let own: Vec<String> = Workload::ALL
            .iter()
            .filter(|w| !w.by_hand())
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(workloads, own);
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        shuffle(&mut a, 3);
        shuffle(&mut b, 3);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..50).collect();
        shuffle(&mut c, 4);
        assert_ne!(a, c);
        a.sort_unstable();
        assert_eq!(a, (0..50).collect::<Vec<_>>());
    }
}
