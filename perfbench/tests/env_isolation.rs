//! The benchmark builds every `SimConfig`, `Farm` and `ServeConfig`
//! itself, so the variables the repository's tools read from the
//! environment cannot change what it measures.

use perfbench::oracle::{parse_pinned, report_digest, PINNED_SWEEP_COLD};
use perfbench::sweep_cold::{fig09_jobs, run_cold};

const VARS: [(&str, &str); 8] = [
    ("PTB_STORE_FORMAT", "bin"),
    ("PTB_CHAOS", "0.9"),
    ("PTB_CHAOS_SEED", "3"),
    ("PTB_FARM_DIR", "/nonexistent/ptb-farm"),
    ("PTB_SCALE", "small"),
    ("PTB_JOBS", "0"),
    ("PTB_NO_CACHE", "1"),
    ("PTB_CORES", "4"),
];

fn digests() -> Vec<String> {
    let jobs: Vec<_> = fig09_jobs()
        .into_iter()
        .filter(|j| j.config.n_cores == 2)
        .step_by(7)
        .collect();
    let pinned = parse_pinned(PINNED_SWEEP_COLD);
    run_cold(&jobs)
        .unwrap()
        .iter()
        .zip(&jobs)
        .map(|(r, job)| {
            let d = report_digest(r.as_ref().unwrap());
            assert_eq!(pinned.get(&job.label()), Some(&d), "{}", job.label());
            d
        })
        .collect()
}

#[test]
fn tool_environment_does_not_change_digests() {
    for (k, _) in VARS {
        std::env::remove_var(k);
    }
    let clean = digests();
    for (k, v) in VARS {
        std::env::set_var(k, v);
    }
    assert_eq!(digests(), clean);
}
