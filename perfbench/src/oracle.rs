//! Output oracle: report digests, the pinned sets, and digest files.
//!
//! A report's digest is the 128-bit FNV digest (`ptb_farm::hash`) of its
//! canonical JSON with `extra_metrics` removed, so observed and
//! unobserved runs of one simulation digest alike. `pinned/` holds the
//! digests the current simulator produces: for `sim-ptb16` at seed 0
//! (other seeds perturb the workload), and for `sweep-cold` at every
//! seed (the seed only reorders the jobs). Every run also writes its
//! digests to `.perfbench/digests/<workload>-seed<n>.txt`, so runs of
//! two commits on any seed can be compared with `diff`.

use ptb_core::RunReport;
use serde::{json, Serialize, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Pinned `label digest` lines for `sim-ptb16` at seed 0.
pub const PINNED_SIM_PTB16_SEED0: &str = include_str!("../pinned/sim-ptb16-seed0.txt");
/// Pinned `label digest` lines for `sweep-cold` (any seed).
pub const PINNED_SWEEP_COLD: &str = include_str!("../pinned/sweep-cold.txt");

/// Digest of `report` without its observer-contributed `extra_metrics`.
pub fn report_digest(report: &RunReport) -> String {
    let mut v = report.to_value();
    if let Value::Object(m) = &mut v {
        m.remove("extra_metrics");
    }
    ptb_farm::hash::digest_hex(json::to_string(&v).as_bytes())
}

/// Digest of a served report body, decoded first, so a byte-different
/// but equal encoding still matches.
pub fn body_digest(body: &str) -> Result<String, String> {
    let v = json::parse(body).map_err(|e| format!("undecodable report body: {e}"))?;
    let report = <RunReport as serde::Deserialize>::from_value(&v)
        .map_err(|e| format!("body is not a RunReport: {e}"))?;
    Ok(report_digest(&report))
}

/// Parse `label digest` lines.
pub fn parse_pinned(text: &str) -> BTreeMap<String, String> {
    text.lines()
        .filter_map(|l| {
            let (label, digest) = l.trim().rsplit_once(' ')?;
            Some((label.to_string(), digest.to_string()))
        })
        .collect()
}

/// Write `label digest` lines for this run and return the file path.
pub fn emit(workload: &str, seed: u64, got: &[(String, String)]) -> Result<PathBuf, String> {
    let dir = PathBuf::from(crate::WORK_DIR).join("digests");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}-seed{seed}.txt"));
    let mut sorted: Vec<_> = got.iter().map(|(l, d)| format!("{l} {d}")).collect();
    sorted.sort();
    sorted.dedup();
    std::fs::write(&path, sorted.join("\n") + "\n")
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_sets_are_complete() {
        assert_eq!(parse_pinned(PINNED_SIM_PTB16_SEED0).len(), 14);
        assert_eq!(parse_pinned(PINNED_SWEEP_COLD).len(), 336);
    }
}
