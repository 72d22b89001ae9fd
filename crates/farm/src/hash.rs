//! Stable hashing: job keys, plus the workspace's one copy of FNV-1a 64
//! and SplitMix64.
//!
//! Keys must be identical across processes, platforms and time, so the
//! hash is computed over a *canonical* byte string — compact JSON with
//! sorted object keys (the serde stub's `Value` tree guarantees the
//! ordering) — with a dependency-free FNV-1a construction. Two
//! independent 64-bit lanes with different offset bases give a 128-bit
//! digest; and because [`crate::ResultStore::get`] additionally compares
//! the stored config tree against the requested one, even a hash
//! collision degrades to a re-simulation, never to a wrong result.
//!
//! [`fnv1a64`] (standard basis) also checksums `PTBE` envelopes and
//! places chaos faults; [`splitmix64`] decorrelates fault-site hashes
//! and seeds client-side picks. Their outputs are part of on-disk
//! formats and replayable fault schedules, so neither may change.

use ptb_core::SimConfig;
use ptb_workloads::WorkloadSpec;
use serde::{json, Map, Serialize, Value};

/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Standard FNV-1a 64-bit offset basis (lane 0).
const FNV_BASIS_A: u64 = 0xcbf2_9ce4_8422_2325;
/// Second lane basis: the standard basis xor a golden-ratio constant,
/// fixed forever (changing it invalidates every store).
const FNV_BASIS_B: u64 = FNV_BASIS_A ^ 0x9e37_79b9_7f4a_7c15;

fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a 64 with the standard offset basis.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a(bytes, FNV_BASIS_A)
}

/// SplitMix64 finaliser: a bijective 64-bit mix.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// 128-bit hex digest (32 lowercase hex chars) of `material`.
pub fn digest_hex(material: &[u8]) -> String {
    format!(
        "{:016x}{:016x}",
        fnv1a64(material),
        fnv1a(material, FNV_BASIS_B)
    )
}

/// The canonical key material for a job, as a JSON `Value` tree:
/// config, fully expanded workload spec (programs, profiles, seed), and
/// both format versions.
pub fn key_material(config: &SimConfig, spec: &WorkloadSpec) -> Value {
    let mut m = Map::new();
    m.insert("config".into(), config.to_value());
    m.insert("workload".into(), spec.to_value());
    m.insert(
        "report_format".into(),
        Value::U64(u64::from(ptb_core::report::REPORT_FORMAT)),
    );
    m.insert(
        "store_format".into(),
        Value::U64(u64::from(crate::STORE_FORMAT)),
    );
    Value::Object(m)
}

/// Content key of a `(config, workload)` pair.
pub fn job_key(config: &SimConfig, spec: &WorkloadSpec) -> String {
    digest_hex(json::to_string(&key_material(config, spec)).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ptb_core::MechanismKind;
    use ptb_workloads::{Benchmark, Scale};

    fn cfg(n: usize) -> SimConfig {
        SimConfig {
            n_cores: n,
            scale: Scale::Test,
            ..SimConfig::default()
        }
    }

    #[test]
    fn digest_is_stable_and_sensitive() {
        assert_eq!(digest_hex(b"abc"), digest_hex(b"abc"));
        assert_ne!(digest_hex(b"abc"), digest_hex(b"abd"));
        assert_eq!(digest_hex(b"").len(), 32);
    }

    #[test]
    fn fnv1a64_and_splitmix64_match_their_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64(1), 0x910a_2dec_8902_5cc1);
    }

    #[test]
    fn key_distinguishes_job_dimensions() {
        let spec2 = Benchmark::Fft.spec(2, Scale::Test);
        let spec4 = Benchmark::Fft.spec(4, Scale::Test);
        let radix2 = Benchmark::Radix.spec(2, Scale::Test);
        let base = job_key(&cfg(2), &spec2);
        assert_eq!(base, job_key(&cfg(2), &spec2), "deterministic");
        assert_ne!(base, job_key(&cfg(4), &spec4), "core count");
        assert_ne!(base, job_key(&cfg(2), &radix2), "benchmark");
        let dvfs = SimConfig {
            mechanism: MechanismKind::Dvfs,
            ..cfg(2)
        };
        assert_ne!(base, job_key(&dvfs, &spec2), "mechanism");
        let mut reseeded = spec2.clone();
        reseeded.seed ^= 1;
        assert_ne!(base, job_key(&cfg(2), &reseeded), "seed");
    }
}
