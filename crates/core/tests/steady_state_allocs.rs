//! The simulator's cycle loop makes (almost) no heap allocations once a
//! run is warm.
//!
//! This binary installs the counting allocator as its global allocator
//! and holds a single test, so no other test thread allocates while it
//! counts. An observer that implements only `on_cycle` snapshots the
//! counters at cycle [`WARMUP`]; from there to the end of the run (report
//! assembly included) the run must stay under [`MAX_ALLOCS_PER_KCYCLE`].
//! The same test checks that the counter registry, which traced runs
//! update every cycle, allocates a key only on first insert.

use ptb_core::{MechanismKind, PtbPolicy, SimConfig, Simulation};
use ptb_obs::alloc::{snapshot, AllocSnapshot, CountingAlloc};
use ptb_obs::{CounterRegistry, SimObserver};
use ptb_workloads::{Benchmark, Scale};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Cycles left out of the count: caches, queues and maps grow to their
/// working size first.
const WARMUP: u64 = 10_000;

/// Steady-state bound on allocations per 1000 simulated cycles.
const MAX_ALLOCS_PER_KCYCLE: f64 = 300.0;

/// Records the allocator counters at cycle [`WARMUP`].
#[derive(Default)]
struct WarmSnapshot {
    at_warmup: Option<AllocSnapshot>,
}

impl SimObserver for WarmSnapshot {
    fn on_cycle(&mut self, cycle: u64, _per_core: &[f64], _uncore: f64, _chip: f64) {
        if cycle == WARMUP {
            self.at_warmup = Some(snapshot());
        }
    }
}

#[test]
fn steady_state_allocations_stay_bounded() {
    simulator_loop_stays_under_bound();
    counter_updates_reuse_their_keys();
}

fn simulator_loop_stays_under_bound() {
    let sim = Simulation::new(SimConfig {
        n_cores: 16,
        scale: Scale::Test,
        budget_frac: 0.5,
        mechanism: MechanismKind::PtbTwoLevel {
            policy: PtbPolicy::Dynamic,
            relax: 0.0,
        },
        ..SimConfig::default()
    });
    let mut rates = Vec::new();
    for bench in [
        Benchmark::Swaptions,
        Benchmark::Blackscholes,
        Benchmark::Cholesky,
    ] {
        let mut obs = WarmSnapshot::default();
        let report = sim.run_observed(bench, &mut obs).expect("run completes");
        let end = snapshot();
        let warm = obs.at_warmup.expect("run longer than the warm-up");
        let rate = end
            .since(&warm)
            .allocs_per_kilocycle(report.cycles - WARMUP);
        rates.push((bench, report.cycles, rate));
    }
    for &(bench, cycles, rate) in &rates {
        assert!(
            rate <= MAX_ALLOCS_PER_KCYCLE,
            "{bench:?}: {rate:.1} allocations per kilocycle over {} steady-state cycles \
             (bound {MAX_ALLOCS_PER_KCYCLE}); all: {rates:?}",
            cycles - WARMUP
        );
    }
}

fn counter_updates_reuse_their_keys() {
    let mut counters = CounterRegistry::new();
    counters.inc("mem.l1_misses");
    let before = snapshot();
    for _ in 0..1000 {
        counters.add("mem.l1_misses", 2.0);
        counters.inc("mem.l1_misses");
    }
    let allocs = snapshot().since(&before).allocs;
    assert_eq!(allocs, 0, "updating an existing counter allocated");
    assert_eq!(counters.get("mem.l1_misses"), Some(3001.0));
}
