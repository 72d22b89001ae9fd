//! `sim-ptb16`: the 14 benchmark models at 16 cores and test scale under
//! `PtbTwoLevel { Dynamic, relax 0 }` at a 50 % budget, one after another
//! on one thread, straight through `Simulation::run_spec_observed`.
//!
//! Unit of work (`wall_s`): one pass over the 14 models; at least
//! [`MIN_PASSES`] run, and more until `--seconds` has passed. Operation
//! (`p50_ms`, `p90_ms`): simulating one million core-cycles of one
//! model, timed as a simulation's wall time over its simulated
//! core-cycles, and taken for each model as the median over the run's
//! passes; the percentiles are over the 14 models. (A simulation's own
//! wall time would move with the seed, which changes how long each
//! model runs.) The seed is added to every
//! model's `WorkloadSpec::seed` (seed 0 = the stock specs, whose digests
//! are pinned). Each run starts from empty caches: every simulation is
//! a whole program.

use crate::oracle::{self, report_digest};
use crate::trace::{count_allocs, Tracer};
use crate::{timed_setup, Args, Outcome};
use ptb_core::{MechanismKind, PtbPolicy, RunReport, SimConfig, Simulation};
use ptb_metrics::{median, percentile};
use ptb_obs::{CounterRegistry, NullObserver, Phase, PhaseProfiler};
use ptb_workloads::{Benchmark, Scale, WorkloadSpec};
use std::time::Instant;

/// Cores per simulated chip.
pub const CORES: usize = 16;

/// Timed passes per run, at least. On a shared host one model's
/// time moved by up to 40 % between passes a few seconds apart, so
/// each model's figure is its median over several passes.
pub const MIN_PASSES: usize = 3;

/// The simulated machine: the paper's headline PTB configuration.
pub fn config() -> SimConfig {
    SimConfig {
        n_cores: CORES,
        scale: Scale::Test,
        budget_frac: 0.5,
        mechanism: MechanismKind::PtbTwoLevel {
            policy: PtbPolicy::Dynamic,
            relax: 0.0,
        },
        capture_trace: false,
        ..SimConfig::default()
    }
}

/// The 14 model specs with `seed` added to each spec's RNG seed.
pub fn specs(seed: u64) -> Vec<WorkloadSpec> {
    Benchmark::ALL
        .iter()
        .map(|b| {
            let mut spec = b.spec(CORES, Scale::Test);
            spec.seed = spec.seed.wrapping_add(seed);
            spec
        })
        .collect()
}

/// One pass: `(label, digest)` per model, per-simulation wall ms, host
/// ms per million simulated core-cycles, and the reports. The digest
/// and the ms per million are `None` on a simulator error.
struct Pass {
    digests: Vec<(String, Option<String>)>,
    sim_ms: Vec<f64>,
    ms_per_mcycle: Vec<Option<f64>>,
    wall_s: f64,
    reports: Vec<RunReport>,
}

fn pass(sim: &Simulation, specs: &[WorkloadSpec]) -> Pass {
    let t = Instant::now();
    let mut p = Pass {
        digests: Vec::new(),
        sim_ms: Vec::new(),
        ms_per_mcycle: Vec::new(),
        wall_s: 0.0,
        reports: Vec::new(),
    };
    for spec in specs {
        let t1 = Instant::now();
        let r = sim.run_spec_observed(spec, &mut NullObserver);
        let ms = t1.elapsed().as_secs_f64() * 1e3;
        p.sim_ms.push(ms);
        match r {
            Ok(report) => {
                let core_cycles = (report.cycles * report.n_cores as u64).max(1);
                p.ms_per_mcycle.push(Some(ms * 1e6 / core_cycles as f64));
                p.digests
                    .push((spec.name.clone(), Some(report_digest(&report))));
                p.reports.push(report);
            }
            Err(e) => {
                eprintln!("[sim-ptb16] {}: {e}", spec.name);
                p.ms_per_mcycle.push(None);
                p.digests.push((spec.name.clone(), None));
            }
        }
    }
    p.wall_s = t.elapsed().as_secs_f64();
    p
}

/// Run the workload into `out`.
pub fn run(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let ((specs, sim), setup_s) =
        timed_setup(|| Ok((specs(args.seed), Simulation::new(config()))))?;
    let pinned = (args.seed == 0).then(|| oracle::parse_pinned(oracle::PINNED_SIM_PTB16_SEED0));

    // Untraced passes until the time is up (at least one). Seed 0 is
    // checked against the pinned digests; every later pass must repeat
    // the first bit for bit.
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.is_empty()
        || (!args.trace
            && (passes.len() < MIN_PASSES || start.elapsed().as_secs_f64() < args.seconds))
    {
        let p = pass(&sim, &specs);
        let reference = passes.first().map(|f| &f.digests);
        for (i, (label, digest)) in p.digests.iter().enumerate() {
            let ok = match (digest, reference, &pinned) {
                (None, _, _) => false,
                (Some(d), Some(first), _) => first[i].1.as_ref() == Some(d),
                (Some(d), None, Some(pin)) => pin.get(label) == Some(d),
                (Some(_), None, None) => true,
            };
            out.check(ok);
        }
        passes.push(p);
    }
    // Determinism spot check for every seed, outside the timed passes:
    // the fastest model runs once more and must repeat its digest.
    let fastest = (0..specs.len())
        .min_by(|&a, &b| passes[0].sim_ms[a].total_cmp(&passes[0].sim_ms[b]))
        .expect("14 models");
    let again = sim
        .run_spec(&specs[fastest])
        .ok()
        .map(|r| report_digest(&r));
    out.check(again.is_some() && again == passes[0].digests[fastest].1);
    let got: Vec<(String, String)> = passes[0]
        .digests
        .iter()
        .filter_map(|(l, d)| Some((l.clone(), d.clone()?)))
        .collect();
    let path = oracle::emit("sim-ptb16", args.seed, &got)?;
    eprintln!("[sim-ptb16] digests -> {}", path.display());

    if !args.trace {
        let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
        // Each model's median over the passes that simulated it.
        let per_mcycle: Vec<f64> = (0..specs.len())
            .filter_map(|i| {
                let times: Vec<f64> = passes.iter().filter_map(|p| p.ms_per_mcycle[i]).collect();
                (!times.is_empty()).then(|| median(&times))
            })
            .collect();
        out.set("wall_s", median(&walls));
        out.set("p50_ms", median(&per_mcycle));
        out.set("p90_ms", percentile(&per_mcycle, 90.0));
        out.set("setup_s", setup_s);
        return Ok(());
    }

    // Traced pass: the same simulations under (PhaseProfiler,
    // CounterRegistry), with allocation counting on.
    let untraced_wall = median(&passes.iter().map(|p| p.wall_s).collect::<Vec<_>>());
    let tracer = Tracer::on();
    let mut prof = PhaseProfiler::new();
    let mut counters = CounterRegistry::new();
    let (mut cycles, mut committed) = (0u64, 0u64);
    let (mut allocs, mut alloc_bytes) = (0u64, 0u64);
    let t = Instant::now();
    tracer.span("sim.pass", 0, |root| {
        for (i, spec) in specs.iter().enumerate() {
            let mut obs = (PhaseProfiler::new(), CounterRegistry::new());
            let (r, a, b) = count_allocs(|| {
                tracer.span("sim.run_spec_observed", root, |_| {
                    sim.run_spec_observed(spec, &mut obs)
                })
            });
            allocs += a;
            alloc_bytes += b;
            match r {
                Ok(report) => {
                    // Observers must not change the simulated result.
                    out.check(Some(report_digest(&report)) == passes[0].digests[i].1);
                    cycles += report.cycles;
                    committed += report.committed();
                }
                Err(e) => {
                    eprintln!("[sim-ptb16] traced {}: {e}", spec.name);
                    out.check(false);
                }
            }
            for phase in Phase::ALL {
                prof.record(phase, obs.0.nanos(phase));
            }
            counters.merge(&obs.1);
        }
    });
    let traced_wall = t.elapsed().as_secs_f64();

    let ms = |p: Phase| prof.nanos(p) as f64 / 1e6;
    // The six phase self times must account for the traced simulation
    // time (within 10 %), or the profile is not describing the run.
    let sim_ms: f64 = tracer
        .durations_us("sim.run_spec_observed")
        .iter()
        .sum::<f64>()
        / 1e3;
    let phase_ms: f64 = Phase::ALL.iter().map(|&p| ms(p)).sum();
    let covered = (phase_ms - sim_ms).abs() <= 0.1 * sim_ms;
    if !covered {
        eprintln!("[sim-ptb16] phase self times sum to {phase_ms:.1} ms of {sim_ms:.1} ms traced");
    }
    out.check(covered);

    let untraced_committed: u64 = passes[0].reports.iter().map(RunReport::committed).sum();
    let untraced_cycles: u64 = passes[0].reports.iter().map(|r| r.cycles).sum();
    let count = |name: &str| counters.get(name).unwrap_or(0.0);
    out.set("noc.self_ms", ms(Phase::Noc));
    out.set("mem.self_ms", ms(Phase::MemTick));
    out.set("uarch.self_ms", ms(Phase::CoreTick));
    out.set("power.self_ms", ms(Phase::PowerSample));
    out.set("mechanism.self_ms", ms(Phase::Mechanism));
    out.set("obs.self_ms", ms(Phase::Observer));
    out.set(
        "uarch.ns_per_inst",
        prof.nanos(Phase::CoreTick) as f64 / committed.max(1) as f64,
    );
    out.set(
        "sim.ns_per_core_cycle",
        untraced_wall * 1e9 / (untraced_cycles * CORES as u64).max(1) as f64,
    );
    out.set(
        "sim_cycles_per_s",
        untraced_cycles as f64 / passes[0].wall_s,
    );
    out.set(
        "host_mips",
        untraced_committed as f64 / passes[0].wall_s / 1e6,
    );
    out.set("sim.cycles", cycles as f64);
    out.set("uarch.committed", committed as f64);
    out.set("mem.l1_misses", count("mem.l1_misses"));
    out.set("mem.l2_misses", count("mem.l2_misses"));
    out.set("mem.invalidations", count("mem.invalidations"));
    out.set(
        "mem.backpressure_retries",
        count("mem.backpressure_retries"),
    );
    out.set("sync.spin_episodes_lock", count("sync.spin_episodes_lock"));
    out.set(
        "sync.spin_episodes_barrier",
        count("sync.spin_episodes_barrier"),
    );
    out.set("mechanism.dvfs_transitions", count("mech.dvfs_transitions"));
    out.set("mechanism.throttle_changes", count("mech.throttle_changes"));
    out.set(
        "sim.allocs_per_kcycle",
        allocs as f64 * 1e3 / cycles.max(1) as f64,
    );
    out.set(
        "sim.alloc_bytes_per_kcycle",
        alloc_bytes as f64 * 1e3 / cycles.max(1) as f64,
    );
    out.set(
        "trace.overhead_pct",
        (traced_wall / untraced_wall - 1.0) * 100.0,
    );
    tracer.write(&crate::trace_path("sim-ptb16", args.seed))
}
