//! `PTBE`: the binary envelope every store entry is written in.
//!
//! The envelope keeps the job/report payloads as *compact* JSON (the
//! only serialiser the offline vendor set provides) and wraps them in a
//! versioned, length-prefixed, checksummed frame, so a reader can
//!
//! * reject truncation and bit rot with one integer compare (the
//!   trailing FNV-1a checksum covers every preceding byte) instead of a
//!   full JSON parse, and
//! * slice straight to the report payload without scanning the job.
//!
//! ## Layout (all integers little-endian)
//!
//! ```text
//! offset  size  field
//! 0       4     magic  b"PTBE"
//! 4       4     envelope version (ENVELOPE_VERSION)
//! 8       4     store format    (crate::STORE_FORMAT)
//! 12      4     report format   (ptb_core::report::REPORT_FORMAT)
//! 16      4     key length  K
//! 20      4     job length  J      (compact JSON bytes)
//! 24      4     report length R    (compact JSON bytes)
//! 28      K     key (lowercase hex, ASCII)
//! 28+K    J     job JSON
//! 28+K+J  R     report JSON
//! …       8     FNV-1a 64 checksum of bytes [0, 28+K+J+R)
//! ```
//!
//! Decoding is *total*: every malformed input — short buffer, bad
//! magic, absurd lengths, checksum mismatch — returns a typed reason
//! string (mapped to a corrupt-entry miss by the store), never panics.

use crate::hash::fnv1a64;

/// Magic bytes opening every binary envelope.
pub const MAGIC: [u8; 4] = *b"PTBE";

/// Version of the binary frame itself (independent of the store format,
/// which versions the *semantics* of what is stored).
pub const ENVELOPE_VERSION: u32 = 1;

/// Fixed header size before the variable-length sections.
const HEADER: usize = 28;

/// Trailing checksum size.
const TRAILER: usize = 8;

/// Sanity ceiling on any single section (64 MiB) so a corrupt length
/// field cannot drive a huge allocation.
const MAX_SECTION: u32 = 64 << 20;

/// A decoded envelope: borrowed views into the input buffer.
#[derive(Debug, PartialEq, Eq)]
pub struct Envelope<'a> {
    /// Store format version recorded at write time.
    pub store_format: u32,
    /// Report format version recorded at write time.
    pub report_format: u32,
    /// Content key (lowercase hex).
    pub key: &'a str,
    /// Compact JSON of the job (benchmark + full config).
    pub job_json: &'a str,
    /// Compact JSON of the report.
    pub report_json: &'a str,
}

/// Encode an envelope frame.
pub fn encode(key: &str, job_json: &str, report_json: &str) -> Vec<u8> {
    let (k, j, r) = (key.len(), job_json.len(), report_json.len());
    let mut buf = Vec::with_capacity(HEADER + k + j + r + TRAILER);
    buf.extend_from_slice(&MAGIC);
    buf.extend_from_slice(&ENVELOPE_VERSION.to_le_bytes());
    buf.extend_from_slice(&crate::STORE_FORMAT.to_le_bytes());
    buf.extend_from_slice(&ptb_core::report::REPORT_FORMAT.to_le_bytes());
    buf.extend_from_slice(&(k as u32).to_le_bytes());
    buf.extend_from_slice(&(j as u32).to_le_bytes());
    buf.extend_from_slice(&(r as u32).to_le_bytes());
    buf.extend_from_slice(key.as_bytes());
    buf.extend_from_slice(job_json.as_bytes());
    buf.extend_from_slice(report_json.as_bytes());
    let sum = fnv1a64(&buf);
    buf.extend_from_slice(&sum.to_le_bytes());
    buf
}

fn le_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"))
}

/// Decode and fully validate an envelope frame.
pub fn decode(bytes: &[u8]) -> Result<Envelope<'_>, String> {
    if bytes.len() < HEADER + TRAILER {
        return Err(format!("envelope too short ({} bytes)", bytes.len()));
    }
    if bytes[0..4] != MAGIC {
        return Err("bad magic (not a PTBE envelope)".into());
    }
    let version = le_u32(bytes, 4);
    if version != ENVELOPE_VERSION {
        return Err(format!(
            "envelope version {version} != current {ENVELOPE_VERSION}"
        ));
    }
    let store_format = le_u32(bytes, 8);
    let report_format = le_u32(bytes, 12);
    let (k, j, r) = (le_u32(bytes, 16), le_u32(bytes, 20), le_u32(bytes, 24));
    if k > MAX_SECTION || j > MAX_SECTION || r > MAX_SECTION {
        return Err("section length exceeds sanity ceiling".into());
    }
    let body = HEADER
        .checked_add(k as usize)
        .and_then(|n| n.checked_add(j as usize))
        .and_then(|n| n.checked_add(r as usize))
        .ok_or("section lengths overflow")?;
    if bytes.len() != body + TRAILER {
        return Err(format!(
            "length mismatch: header promises {} bytes, file has {}",
            body + TRAILER,
            bytes.len()
        ));
    }
    let stored_sum = u64::from_le_bytes(bytes[body..].try_into().expect("8 bytes"));
    let actual = fnv1a64(&bytes[..body]);
    if stored_sum != actual {
        return Err(format!(
            "checksum mismatch (stored {stored_sum:016x}, computed {actual:016x})"
        ));
    }
    let key_end = HEADER + k as usize;
    let job_end = key_end + j as usize;
    let section = |range: std::ops::Range<usize>, what: &str| {
        std::str::from_utf8(&bytes[range]).map_err(|_| format!("{what} is not UTF-8"))
    };
    Ok(Envelope {
        store_format,
        report_format,
        key: section(HEADER..key_end, "key")?,
        job_json: section(key_end..job_end, "job")?,
        report_json: section(job_end..body, "report")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> Vec<u8> {
        encode(
            "6f0cdeadbeef",
            r#"{"bench":"fft","config":{}}"#,
            r#"{"cycles":42}"#,
        )
    }

    #[test]
    fn round_trips() {
        let buf = sample();
        let env = decode(&buf).unwrap();
        assert_eq!(env.key, "6f0cdeadbeef");
        assert_eq!(env.job_json, r#"{"bench":"fft","config":{}}"#);
        assert_eq!(env.report_json, r#"{"cycles":42}"#);
        assert_eq!(env.store_format, crate::STORE_FORMAT);
        assert_eq!(env.report_format, ptb_core::report::REPORT_FORMAT);
    }

    #[test]
    fn empty_sections_round_trip() {
        let buf = encode("", "", "");
        let env = decode(&buf).unwrap();
        assert_eq!(env.key, "");
        assert_eq!(env.job_json, "");
        assert_eq!(env.report_json, "");
    }

    #[test]
    fn every_truncation_is_rejected() {
        let buf = sample();
        for cut in 0..buf.len() {
            assert!(decode(&buf[..cut]).is_err(), "truncation at {cut} accepted");
        }
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        let buf = sample();
        for pos in 0..buf.len() {
            let mut bad = buf.clone();
            bad[pos] ^= 0xa5;
            assert!(decode(&bad).is_err(), "flip at byte {pos} accepted");
        }
    }

    #[test]
    fn absurd_length_fields_do_not_allocate() {
        let mut buf = sample();
        buf[20..24].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = decode(&buf).unwrap_err();
        assert!(err.contains("sanity ceiling"), "{err}");
    }

    #[test]
    fn appended_garbage_is_rejected() {
        let mut buf = sample();
        buf.push(0);
        assert!(decode(&buf).unwrap_err().contains("length mismatch"));
    }

    /// `decode` either rejects `bytes` or returns sections that account
    /// for every byte under a matching checksum.
    fn check(bytes: &[u8]) -> Result<(), TestCaseError> {
        if let Ok(env) = decode(bytes) {
            let body = HEADER + env.key.len() + env.job_json.len() + env.report_json.len();
            prop_assert_eq!(bytes.len(), body + TRAILER);
            let sum = u64::from_le_bytes(bytes[body..].try_into().unwrap());
            prop_assert_eq!(sum, fnv1a64(&bytes[..body]));
        }
        Ok(())
    }

    fn text(bytes: &[u8]) -> String {
        String::from_utf8_lossy(bytes).into_owned()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// Arbitrary, truncated and bit-flipped frames, and frames whose
        /// length fields lie under a valid checksum, never panic.
        #[test]
        fn decode_is_total(
            sections in (
                prop::collection::vec(0u8..=255, 0..40),
                prop::collection::vec(0u8..=255, 0..80),
                prop::collection::vec(0u8..=255, 0..80),
            ),
            noise in prop::collection::vec(0u8..=255, 0..160),
            cut in 0usize..256,
            flips in prop::collection::vec((0usize..256, 0u8..8), 1..4),
            lens in (0u32..96, 0u32..96, 0u32..96),
        ) {
            let (key, job, report) = (text(&sections.0), text(&sections.1), text(&sections.2));
            let valid = encode(&key, &job, &report);
            let env = decode(&valid).map_err(TestCaseError::fail)?;
            prop_assert_eq!((env.key, env.job_json, env.report_json), (&*key, &*job, &*report));

            prop_assert!(decode(&valid[..cut % valid.len()]).is_err());

            let mut flipped = valid.clone();
            for &(pos, bit) in &flips {
                flipped[pos % valid.len()] ^= 1 << bit;
            }
            check(&flipped)?;

            check(&noise)?;
            let mut framed = valid[..HEADER].to_vec();
            for (at, len) in [(16, lens.0), (20, lens.1), (24, lens.2)] {
                framed[at..at + 4].copy_from_slice(&len.to_le_bytes());
            }
            // ASCII noise, so the sections pass the UTF-8 check. Seal
            // the body the header declares (or all of it, when
            // shorter); any remaining noise is a trailing tail.
            framed.extend(noise.iter().map(|b| b & 0x7f));
            let declared = HEADER + (lens.0 + lens.1 + lens.2) as usize;
            let at = declared.min(framed.len());
            let sum = fnv1a64(&framed[..at]);
            framed.splice(at..at, sum.to_le_bytes());
            check(&framed)?;
        }
    }
}
