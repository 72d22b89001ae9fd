//! The output oracle catches a wrong result: one corrupted pinned digest
//! turns into exactly one failed operation.

use perfbench::oracle::{parse_pinned, PINNED_SWEEP_COLD};
use perfbench::sweep_cold::{check, fig09_jobs, run_cold};
use perfbench::Outcome;

#[test]
fn one_wrong_digest_raises_error_rate() {
    let jobs: Vec<_> = fig09_jobs()
        .into_iter()
        .filter(|j| j.config.n_cores == 2)
        .take(3)
        .collect();
    let results = run_cold(&jobs).unwrap();
    let pinned = parse_pinned(PINNED_SWEEP_COLD);

    let mut good = Outcome::default();
    check(&jobs, &results, &pinned, &mut good);
    assert_eq!((good.attempted, good.failed), (3, 0));
    assert_eq!(good.error_rate(), 0.0);

    let mut wrong = pinned.clone();
    let digest = wrong.get_mut(&jobs[1].label()).unwrap();
    let flipped = if digest.starts_with('0') { "1" } else { "0" };
    digest.replace_range(0..1, flipped);
    let mut bad = Outcome::default();
    check(&jobs, &results, &wrong, &mut bad);
    assert_eq!((bad.attempted, bad.failed), (3, 1));
    assert!(bad.error_rate() > 0.0);
    assert!(bad
        .to_json(true)
        .unwrap()
        .starts_with("{\"correct\": false"));
}
