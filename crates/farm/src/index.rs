//! Packed store index: presence and size of every entry in one flat
//! binary file.
//!
//! A flat (or even two-hex-sharded) directory of ~10⁵ entry files makes
//! every whole-store question — `keys()`, `len()`, `disk_stats()`, the
//! serve status endpoint, a `verify` sweep's worklist — an O(entries)
//! directory walk through hundreds of shard directories. The index
//! answers them with one sequential read of a single packed file:
//! `<store>/index.bin`, a fixed-size header followed by fixed 32-byte
//! records, **rebuilt on open** when absent or unreadable and
//! **appended on write** (one record per `put`/`remove`), so a hot
//! open is one seek instead of a directory walk.
//!
//! ## Record layout (32 bytes, little-endian)
//!
//! ```text
//! 0   16  key (raw bytes of the 32-char hex digest)
//! 16  4   flags (bit 7: tombstone; other bits zero)
//! 20  8   entry size in bytes (0 for tombstones)
//! 28  4   FNV-1a 32 checksum of bytes [0, 28)
//! ```
//!
//! Replay applies records in file order, so a put followed by a remove
//! nets out to absent; a torn trailing record (crash or chaos fault
//! mid-append) fails its checksum and is skipped along with everything
//! after it. The index is an *accelerator, not an authority*: entry
//! reads always go to the entry files themselves, and `rebuild` (run by
//! `farm_ctl migrate`/`verify`) re-derives the index from the
//! filesystem, so a stale or lost index can never produce a wrong
//! report — only a stale status summary.

use std::collections::BTreeMap;

/// Magic bytes opening the index file.
pub const MAGIC: [u8; 4] = *b"PTBI";

/// Index file format version. (v2: the per-record format flag went
/// away with the JSON entry format; v1 indexes rebuild once on open.)
pub const INDEX_VERSION: u32 = 2;

/// Header: magic + version + 8 reserved bytes.
pub const HEADER_LEN: usize = 16;

/// Fixed record size.
pub const RECORD_LEN: usize = 32;

/// Flag bit: the entry was removed.
const FLAG_TOMBSTONE: u32 = 1 << 7;

/// FNV-1a 32 (the record self-check; 32 bits is plenty for a 28-byte
/// record — this guards torn appends, not adversaries).
fn fnv1a32(bytes: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for &b in bytes {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// One index record before packing: a put or a remove.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexRecord {
    /// The 32-char lowercase-hex key.
    pub key: String,
    /// Entry file size in bytes; `None` marks a tombstone (the entry
    /// was removed).
    pub size: Option<u64>,
}

impl IndexRecord {
    /// A live-entry record.
    pub fn put(key: &str, size: u64) -> Self {
        IndexRecord {
            key: key.to_owned(),
            size: Some(size),
        }
    }

    /// A tombstone record.
    pub fn tombstone(key: &str) -> Self {
        IndexRecord {
            key: key.to_owned(),
            size: None,
        }
    }

    /// Pack into the fixed 32-byte wire form. Keys that are not 32
    /// lowercase-hex chars cannot be packed (the store never produces
    /// them) and return `None`.
    pub fn pack(&self) -> Option<[u8; RECORD_LEN]> {
        let raw = hex_to_raw(&self.key)?;
        let mut rec = [0u8; RECORD_LEN];
        rec[0..16].copy_from_slice(&raw);
        let (flags, size) = match self.size {
            Some(size) => (0, size),
            None => (FLAG_TOMBSTONE, 0),
        };
        rec[16..20].copy_from_slice(&flags.to_le_bytes());
        rec[20..28].copy_from_slice(&size.to_le_bytes());
        let sum = fnv1a32(&rec[0..28]);
        rec[28..32].copy_from_slice(&sum.to_le_bytes());
        Some(rec)
    }

    /// Unpack one wire record, validating its checksum.
    pub fn unpack(rec: &[u8]) -> Option<IndexRecord> {
        if rec.len() != RECORD_LEN {
            return None;
        }
        let sum = u32::from_le_bytes(rec[28..32].try_into().ok()?);
        if sum != fnv1a32(&rec[0..28]) {
            return None;
        }
        let key = raw_to_hex(&rec[0..16]);
        let flags = u32::from_le_bytes(rec[16..20].try_into().ok()?);
        let size = u64::from_le_bytes(rec[20..28].try_into().ok()?);
        let size = (flags & FLAG_TOMBSTONE == 0).then_some(size);
        Some(IndexRecord { key, size })
    }
}

/// Parse a 32-char lowercase-hex key into 16 raw bytes.
fn hex_to_raw(key: &str) -> Option<[u8; 16]> {
    let bytes = key.as_bytes();
    if bytes.len() != 32 {
        return None;
    }
    let nib = |c: u8| -> Option<u8> {
        match c {
            b'0'..=b'9' => Some(c - b'0'),
            b'a'..=b'f' => Some(c - b'a' + 10),
            _ => None,
        }
    };
    let mut raw = [0u8; 16];
    for (i, pair) in bytes.chunks_exact(2).enumerate() {
        raw[i] = nib(pair[0])? << 4 | nib(pair[1])?;
    }
    Some(raw)
}

fn raw_to_hex(raw: &[u8]) -> String {
    let mut s = String::with_capacity(raw.len() * 2);
    for b in raw {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

/// The replayed state of an index file: the size of every live entry
/// keyed by hex key (sorted, so listings are deterministic).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct IndexState {
    /// Live entry sizes in bytes (tombstoned keys removed).
    pub live: BTreeMap<String, u64>,
}

impl IndexState {
    /// Serialise the whole state as a fresh index file image
    /// (header + one record per live entry).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(HEADER_LEN + self.live.len() * RECORD_LEN);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&INDEX_VERSION.to_le_bytes());
        buf.extend_from_slice(&[0u8; 8]);
        for (key, &size) in &self.live {
            if let Some(rec) = IndexRecord::put(key, size).pack() {
                buf.extend_from_slice(&rec);
            }
        }
        buf
    }

    /// Replay an index file image. Returns `None` when the header is
    /// missing or wrong (caller rebuilds from the filesystem); a torn
    /// record stops replay there — everything before it is kept, which
    /// is exactly the crash-consistent prefix.
    pub fn from_bytes(bytes: &[u8]) -> Option<IndexState> {
        if bytes.len() < HEADER_LEN || bytes[0..4] != MAGIC {
            return None;
        }
        if u32::from_le_bytes(bytes[4..8].try_into().ok()?) != INDEX_VERSION {
            return None;
        }
        let mut state = IndexState::default();
        for rec in bytes[HEADER_LEN..].chunks(RECORD_LEN) {
            let Some(rec) = IndexRecord::unpack(rec) else {
                break; // torn tail: keep the consistent prefix
            };
            match rec.size {
                Some(size) => {
                    state.live.insert(rec.key, size);
                }
                None => {
                    state.live.remove(&rec.key);
                }
            }
        }
        Some(state)
    }

    /// Total bytes across live entries.
    pub fn total_bytes(&self) -> u64 {
        self.live
            .values()
            .fold(0, |acc, &size| acc.saturating_add(size))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const K1: &str = "0123456789abcdef0123456789abcdef";
    const K2: &str = "ffeeddccbbaa99887766554433221100";

    #[test]
    fn record_pack_unpack_round_trips() {
        for rec in [
            IndexRecord::put(K1, 1234),
            IndexRecord::put(K2, 0),
            IndexRecord::tombstone(K1),
        ] {
            let packed = rec.pack().unwrap();
            assert_eq!(IndexRecord::unpack(&packed), Some(rec));
        }
    }

    #[test]
    fn non_hex_keys_do_not_pack() {
        assert!(IndexRecord::put("xx", 1).pack().is_none());
        assert!(IndexRecord::put(&"G".repeat(32), 1).pack().is_none());
    }

    #[test]
    fn replay_applies_puts_and_tombstones_in_order() {
        let mut img = IndexState::default().to_bytes();
        for rec in [
            IndexRecord::put(K1, 10),
            IndexRecord::put(K2, 20),
            IndexRecord::tombstone(K1),
            IndexRecord::put(K1, 30),
        ] {
            img.extend_from_slice(&rec.pack().unwrap());
        }
        let state = IndexState::from_bytes(&img).unwrap();
        assert_eq!(state.live.len(), 2);
        assert_eq!(state.live[K1], 30);
        assert_eq!(state.total_bytes(), 50);
    }

    #[test]
    fn torn_tail_keeps_the_consistent_prefix() {
        let mut img = IndexState::default().to_bytes();
        img.extend_from_slice(&IndexRecord::put(K1, 10).pack().unwrap());
        let full = IndexRecord::put(K2, 20).pack().unwrap();
        img.extend_from_slice(&full[..17]); // torn mid-record
        let state = IndexState::from_bytes(&img).unwrap();
        assert_eq!(state.live.len(), 1);
        assert!(state.live.contains_key(K1));
    }

    #[test]
    fn corrupt_record_stops_replay() {
        let mut img = IndexState::default().to_bytes();
        img.extend_from_slice(&IndexRecord::put(K1, 10).pack().unwrap());
        let mut bad = IndexRecord::put(K2, 20).pack().unwrap();
        bad[5] ^= 0xff;
        img.extend_from_slice(&bad);
        img.extend_from_slice(&IndexRecord::tombstone(K1).pack().unwrap());
        // The corrupt record and everything after it are dropped: K1
        // stays live (its tombstone was after the tear).
        let state = IndexState::from_bytes(&img).unwrap();
        assert_eq!(state.live.len(), 1);
        assert!(state.live.contains_key(K1));
    }

    #[test]
    fn missing_or_foreign_header_forces_rebuild() {
        assert_eq!(IndexState::from_bytes(b""), None);
        assert_eq!(IndexState::from_bytes(b"not an index at all"), None);
        let mut wrong_version = IndexState::default().to_bytes();
        wrong_version[4] = 99;
        assert_eq!(IndexState::from_bytes(&wrong_version), None);
    }

    #[test]
    fn state_round_trips_through_image() {
        let mut state = IndexState::default();
        state.live.insert(K1.into(), 7);
        state.live.insert(K2.into(), 9);
        assert_eq!(IndexState::from_bytes(&state.to_bytes()), Some(state));
    }

    /// `from_bytes` either rejects `bytes` or yields a state of packable
    /// keys that survives its own image.
    fn check(bytes: &[u8]) -> Result<(), TestCaseError> {
        if let Some(state) = IndexState::from_bytes(bytes) {
            prop_assert!(state.live.keys().all(|k| hex_to_raw(k).is_some()));
            state.total_bytes();
            prop_assert_eq!(IndexState::from_bytes(&state.to_bytes()), Some(state));
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// Arbitrary, truncated and bit-flipped images, and records with
        /// arbitrary content under a valid checksum, never panic.
        #[test]
        fn from_bytes_is_total(
            sizes in prop::collection::vec(prop::option::of(0u64..u64::MAX), 0..8),
            noise in prop::collection::vec(0u8..=255, 0..160),
            cut in 0usize..512,
            flips in prop::collection::vec((0usize..512, 0u8..8), 1..4),
        ) {
            let mut valid = IndexState::default().to_bytes();
            for (i, size) in sizes.iter().enumerate() {
                let key = if i % 2 == 0 { K1 } else { K2 };
                let rec = IndexRecord { key: key.into(), size: *size };
                valid.extend_from_slice(&rec.pack().unwrap());
            }
            check(&valid)?;
            check(&valid[..cut % (valid.len() + 1)])?;

            let mut flipped = valid.clone();
            for &(pos, bit) in &flips {
                flipped[pos % valid.len()] ^= 1 << bit;
            }
            check(&flipped)?;

            check(&noise)?;
            let mut forged = IndexState::default().to_bytes();
            for chunk in noise.chunks(RECORD_LEN - 4) {
                let mut rec = [0u8; RECORD_LEN];
                rec[..chunk.len()].copy_from_slice(chunk);
                let sum = fnv1a32(&rec[..RECORD_LEN - 4]);
                rec[RECORD_LEN - 4..].copy_from_slice(&sum.to_le_bytes());
                forged.extend_from_slice(&rec);
            }
            check(&forged)?;
        }
    }
}
